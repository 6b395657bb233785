"""Constructors for the fixed-point maps: gradient steps, proximity maps,
compositions, affine maps, and the resolved primal-dual update.

An :class:`Operator` maps an (n,) vector to an (n,) vector, and a (k, n)
stack to the (k, n) stack of its row images.  A callable declares that it
maps whole stacks itself by carrying the attribute ``takes_stacks = True``;
the operator then applies it once per stack.  Any other callable is applied
once per row, so its call count is the number of rows.  Every built-in map
declares stack support when its parts do, and computes each row of a stack
independently of the rows around it, so a row's image is bit-identical
whatever stack it sits in.  The vector path is the plain one-row arithmetic.

Operators are immutable after construction; ``apply`` is pure and reentrant,
so instances are safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .metrics import primal_dual_metric

__all__ = [
    "Operator",
    "ProxFamily",
    "gradient_step",
    "soft_threshold",
    "block_soft_threshold",
    "l1_prox",
    "l2_prox",
    "zero_prox",
    "box_prox",
    "prox_operator",
    "identity",
    "affine",
    "compose",
    "proximal_gradient",
    "primal_dual",
]

# A prox family maps (scale, x) to prox of (scale * g) at x.
ProxFamily = Callable[[float, np.ndarray], np.ndarray]

HINT_TOL = 1e-8


def _takes_stacks(fn):
    return getattr(fn, "takes_stacks", False) is True


def _stackable(fn, *parts):
    """Declare that ``fn`` maps (k, n) stacks, provided each of ``parts`` does."""
    fn.takes_stacks = all(_takes_stacks(part) for part in parts)
    return fn


def _matvec(mat, x):
    """``mat @ x`` for a vector, and row by row for a (k, n) stack.

    A stack goes through a (k, 1, n) batched product, which numpy evaluates
    one row at a time; a plain (k, n) @ (n, m) product picks its BLAS kernel
    by stack height, so a row's value would depend on the rows around it.
    """
    if x.ndim == 1:
        return mat @ x
    return (x[..., None, :] @ mat.T)[..., 0, :]


@dataclass(eq=False)
class Operator:
    """A dimension-tagged self-map of real n-space.

    Calling the operator on an (n,) vector gives its image; calling it on a
    (k, n) stack gives the (k, n) stack of row images.  ``fn`` receives the
    whole stack when it carries ``takes_stacks = True`` and one row at a time
    otherwise.  Either way the output shape is checked.

    `fixed_point_hint`, when present, must be fixed by the map to within
    1e-8 * (1 + |hint|); this is checked at construction time, and a hint
    whose image overflows or turns NaN fails the check without a warning.
    """

    dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    fixed_point_hint: Optional[np.ndarray] = None
    label: str = "operator"

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("operator dimension must be at least 1")
        if self.fixed_point_hint is not None:
            hint = np.asarray(self.fixed_point_hint, dtype=float).reshape(-1)
            if hint.shape != (self.dim,):
                raise ValueError("fixed_point_hint dimension does not match operator")
            with np.errstate(over="ignore", invalid="ignore"):
                drift = np.linalg.norm(self(hint) - hint)
                bound = HINT_TOL * (1.0 + np.linalg.norm(hint))
            if not drift <= bound:
                raise ValueError(
                    f"fixed_point_hint of '{self.label}' moves by {drift:.3e} "
                    "under the operator"
                )
            object.__setattr__(self, "fixed_point_hint", hint)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise ValueError(
                f"operator '{self.label}' expects dimension {self.dim}, "
                f"got shape {x.shape}"
            )
        if x.ndim == 2 and not _takes_stacks(self.fn):
            return np.array([self(row) for row in x]).reshape(x.shape)
        y = np.asarray(self.fn(x), dtype=float)
        if y.shape != x.shape:
            raise self._shape_error(y.shape, x.shape)
        return y

    def _shape_error(self, got, expected):
        """The error for ``fn`` returning shape ``got`` for input shape ``expected``."""
        return ValueError(
            f"operator '{self.label}' returned shape {got} instead of {expected}"
        )


def gradient_step(grad_f, beta, dim, fixed_point_hint=None, label="gradient-step"):
    """Explicit gradient step x - beta * grad_f(x) for beta > 0."""
    if beta <= 0:
        raise ValueError("beta must be positive")

    def step(x):
        return x - beta * np.asarray(grad_f(x), dtype=float)

    return Operator(dim, _stackable(step, grad_f), fixed_point_hint, label)


def soft_threshold(lam, x):
    """Componentwise shrinkage by lam; the proximity map of lam * |.|_1.

    Components above lam move down by lam, components below -lam move up by
    lam, and everything in between collapses to zero.
    """
    if lam < 0:
        raise ValueError("threshold must be nonnegative")
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


def block_soft_threshold(lam, x):
    """Radial shrinkage by lam; the proximity map of lam * |.|_2.

    A (k, n) stack is shrunk row by row; rows of norm at most lam, the zero
    row included, map to zero without a division warning.
    """
    if lam < 0:
        raise ValueError("threshold must be nonnegative")
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        nrm = np.linalg.norm(x)
        if nrm <= lam:
            return np.zeros_like(x)
        return (1.0 - lam / nrm) * x
    nrm = np.linalg.norm(x, axis=-1, keepdims=True)
    absorbed = nrm <= lam  # False on a NaN row, which stays NaN as a vector would
    ratio = np.divide(lam, nrm, out=np.ones_like(nrm), where=~absorbed)
    return np.where(absorbed, 0.0, (1.0 - ratio) * x)


def l1_prox(lam=1.0):
    """Prox family of lam * |.|_1: (t, x) -> componentwise shrinkage by t*lam."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    return _stackable(lambda t, x: soft_threshold(t * lam, x))


def l2_prox(lam=1.0):
    """Prox family of lam * |.|_2: (t, x) -> radial shrinkage by t*lam."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    return _stackable(lambda t, x: block_soft_threshold(t * lam, x))


def zero_prox():
    """Prox family of the zero function: the identity at every scale."""
    return _stackable(lambda t, x: np.asarray(x, dtype=float))


def box_prox(lower, upper):
    """Prox family of a box indicator: projection, insensitive to the scale."""
    if np.any(np.asarray(lower) > np.asarray(upper)):
        raise ValueError("box bounds are inverted")
    return _stackable(lambda t, x: np.clip(np.asarray(x, dtype=float), lower, upper))


def prox_operator(prox, scale, dim, fixed_point_hint=None, label="prox"):
    """Wrap a prox family at a fixed scale as an Operator."""
    if scale <= 0:
        raise ValueError("prox scale must be positive")
    return Operator(dim, _stackable(lambda x: prox(scale, x), prox), fixed_point_hint,
                    label)


def identity(dim):
    return affine(1.0, np.zeros(dim), label="identity")


def affine(alpha, z, label=None):
    """The map x -> alpha * x + z.

    For alpha != 1 the unique fixed point z / (1 - alpha) is attached as the
    hint; for alpha == 1 no hint is set.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    hint = z / (1.0 - alpha) if alpha != 1.0 else None
    if label is None:
        label = f"affine(a={alpha:g})"
    return Operator(len(z), _stackable(lambda x: alpha * x + z), hint, label)


def compose(s, t):
    """The composition s(t(x)).

    The fixed-point hint survives only when both factors carry hints and the
    hints coincide to within 1e-8; a shared fixed point of both factors is a
    fixed point of the composition, but nothing weaker is.
    """
    if s.dim != t.dim:
        raise ValueError(
            f"cannot compose '{s.label}' (dim {s.dim}) with '{t.label}' (dim {t.dim})"
        )
    hint = None
    if s.fixed_point_hint is not None and t.fixed_point_hint is not None:
        if np.linalg.norm(s.fixed_point_hint - t.fixed_point_hint) <= HINT_TOL:
            hint = t.fixed_point_hint
    return Operator(
        s.dim, _stackable(lambda x: s(t(x)), s.fn, t.fn), hint,
        label=f"({s.label} o {t.label})",
    )


def proximal_gradient(grad_f, prox_g, beta, dim, fixed_point_hint=None,
                      label="prox-grad"):
    """Forward-backward map: prox of beta*g after a beta gradient step on f."""
    if beta <= 0:
        raise ValueError("beta must be positive")

    def step(x):
        return prox_g(beta, x - beta * np.asarray(grad_f(x), dtype=float))

    return Operator(dim, _stackable(step, grad_f, prox_g), fixed_point_hint, label)


def primal_dual(grad_f, prox_h, prox_g, b_mat, beta, eta, fixed_point_hint=None,
                label="primal-dual"):
    """Resolved primal-dual update on the stacked (primal, dual) vector.

    One application performs the two lines

        x' = prox of beta*h at  x - beta * (grad_f(x) + B^T y)
        y' = eta * (I - prox of g/eta) applied to  y/eta + B(2x' - x)

    where the second line computes the conjugate prox through the Moreau
    decomposition, so the prox of the conjugate function is never evaluated
    directly.  Construction fails when the coupled metric for (beta, eta, B)
    is not positive definite.

    Parameters
    ----------
    grad_f : callable
        Gradient of the smooth term, acting on the primal block.
    prox_h, prox_g : ProxFamily
        Prox families of the direct and composed nonsmooth terms.
    b_mat : array_like, shape (m, n)
        Coupling matrix applied to the primal variable.
    beta, eta : float
        Primal and dual step sizes; must make the coupled metric PD.
    """
    b = np.atleast_2d(np.asarray(b_mat, dtype=float))
    m, n = b.shape
    primal_dual_metric(beta, eta, b)  # validates positive definiteness

    def step(v):
        x, y = v[..., :n], v[..., n:]
        x_new = prox_h(
            beta, x - beta * (np.asarray(grad_f(x), dtype=float) + _matvec(b.T, y))
        )
        shifted = y / eta + _matvec(b, 2.0 * x_new - x)
        y_new = eta * (shifted - prox_g(1.0 / eta, shifted))
        return np.concatenate([x_new, y_new], axis=-1)

    step = _stackable(step, grad_f, prox_h, prox_g)
    return Operator(n + m, step, fixed_point_hint, label)
