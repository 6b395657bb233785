"""Constructors for the fixed-point maps: gradient steps, proximity maps,
compositions, affine maps, and the resolved primal-dual update.

An :class:`Operator` maps an (n,) vector to an (n,) vector, and a (k, n)
stack to the (k, n) stack of its row images.  A callable declares that it
maps whole stacks itself by carrying the attribute ``takes_stacks = True``;
the operator then applies it once per stack.  Any other callable is applied
once per row, so its call count is the number of rows.  Every built-in map
declares stack support when its parts do, and computes each row of a stack
independently of the rows around it, so a row's image is bit-identical
whatever stack it sits in.  A vector runs through the same code as a stack
row, so every built-in gives a stack row the same bits as its vector image;
``TestStacks.test_stack_matches_vector_rows`` asserts this exactly.

Every built-in map is written once, as an in-place kernel that is its
``fn``: ``fn(x, out)`` writes T x into ``out``, a C-contiguous float array
of x's shape that shares no memory with x, and returns it; ``fn(x)``
returns T x in a fresh array, as a numpy ufunc does.  A kernel takes x as
the float array that ``Operator.__call__`` hands it.  It is pure, reading
nothing but x and the map's data, and reentrant: it keeps no scratch state
between calls.  Its block kernel ``fn.walk(xs, outs)`` writes T ``xs[j]``
into ``outs[j]`` for j in order, each a C-contiguous (n,) float vector
sharing no memory with its ``xs[j]``, so ``outs[j]`` may be ``xs[j + 1]``;
:func:`fpcert.iterate.picard` steps a map with a ``walk`` a block of rows
of its buffer at a time.  ``walk`` gives each row the bytes of
``fn(x, out)``.  Every affine product x -> L x + c of a built-in map, a
scale, a diagonal or a matrix L, goes through the one kernel ``_affine``,
which then runs the map's stage, if any, in place on its output, so each
map of :func:`fpcert.problems.build_operator` is one ``_affine`` kernel.
Its ``walk`` is one loop over the rows with the product bound once, and
with the componentwise shrinkage of a stage written into that loop,
clipping into one scratch row per ``walk`` call; any other stage is
called on each row in place.

A built-in prox family is written once too, as ``fn.bind``: ``bind(t)`` is
its map kernel ``(x, out)`` at the scale t, which also accepts ``out`` = x,
and whose constants (the threshold ``t * lam``) are formed and checked
once.  A map binds its family once, when it is built, so a step pays no
per-scale work; a family without ``bind`` is bound through a kernel that
copies its image, and a map built from it carries no ``walk``.

The shrinkage and box kernels call numpy's ``clip`` ufunc itself, one pass,
not the ``np.clip`` wrapper, which calls the same ufunc after a dispatch of
its own.  Componentwise shrinkage by t is the Moreau form
x - clip(x, -t, t), whose bits equal those of x - min(max(x, -t), t) for
every t > 0; at t = 0 the two differ only in the sign of a zero: the clip
form maps -0.0 to +0.0 (see :func:`soft_threshold`).

Operators are immutable after construction; ``apply`` is pure and reentrant,
so instances are safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .metrics import _clip, _matvec, check_number, norm, primal_dual_metric

__all__ = [
    "Operator",
    "ProxFamily",
    "gradient_step",
    "soft_threshold",
    "block_soft_threshold",
    "l1_prox",
    "l2_prox",
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


def _from_kernel(into, *families, walk=None):
    """The map that the kernel ``into`` computes from the prox ``families``:
    ``into`` itself, which declares stacks when each of them does and,
    when each of them has a ``bind``, carries the block kernel
    ``into.walk``: ``walk``, or else a loop of ``into`` over the rows.
    """
    if all(getattr(family, "bind", None) for family in families):
        if walk is None:
            def walk(xs, outs):
                for x, out in zip(xs, outs):
                    into(x, out)

        into.walk = walk
    return _stackable(into, *families)


class _DualLine(NamedTuple):
    """The primal-dual map's stage, its dual line: on the coordinates n: of
    the affine image s, the new dual block eta * (s - prox(s)), where
    ``prox`` is the kernel of the dual prox family at the scale 1/eta."""

    n: int
    eta: float
    prox: Callable


def _stage_kernel(stage):
    """The in-place kernel ``(v, out)`` of an ``_affine`` stage: the stage
    itself, or the dual line's kernel for a ``_DualLine``."""
    if not isinstance(stage, _DualLine):
        return stage
    n, prox = stage.n, stage.prox
    eta = np.array(stage.eta, dtype=float)  # a 0-d array, as in _soft

    def dual(v, out):
        s = out[..., n:]
        # s - (s - clip(s)), not clip(s): the two differ in the last bits
        np.subtract(s, prox(s), out=s)
        np.multiply(s, eta, out=s)
        return out

    return dual


def _affine(lin, shift, stage=None, *families):
    """The map x -> stage(lin x + shift) as its kernel: one product into the
    output, an in-place add, then the stage, if given, run in place.
    ``lin`` is a 0-d scale, the (n,) diagonal of a diagonal matrix or an
    (n, n) matrix.  The stage is the kernel of the prox ``families``, run as
    ``stage(out, out)``, or a ``_DualLine``."""
    matrix = lin.ndim == 2
    kernel = _stage_kernel(stage)

    def into(x, out=None):
        out = _matvec(lin, x, out) if matrix else np.multiply(lin, x, out=out)
        out += shift
        return out if kernel is None else kernel(out, out)

    return _from_kernel(into, *families, walk=_affine_walk(lin, shift, stage, kernel))


def _affine_walk(lin, shift, stage, kernel):
    """The block kernel of ``_affine(lin, shift, stage)``, whose stage runs
    as ``kernel``: one loop over the rows making the numpy calls of the
    map's kernel on each, in the same order.

    The product is bound once, ``lin.dot`` or ``np.multiply`` with ``lin``,
    its ``out`` passed by position, which a row needs no contiguous copy
    for.  A shrinkage stage, the componentwise soft threshold as the stage
    or as the dual line's prox, clips into one scratch row per call and
    subtracts; any other stage is called as ``kernel(out, out)``.
    """
    product = lin.dot if lin.ndim == 2 else partial(np.multiply, lin)
    add, subtract, multiply = np.add, np.subtract, np.multiply
    line = stage if isinstance(stage, _DualLine) else None
    bounds = getattr(stage if line is None else line.prox, "threshold", None)
    if stage is None:
        def walk(xs, outs):
            for x, out in zip(xs, outs):
                product(x, out)
                add(out, shift, out)
    elif bounds is None:
        def walk(xs, outs):
            for x, out in zip(xs, outs):
                product(x, out)
                add(out, shift, out)
                kernel(out, out)
    elif line is None:
        low, high = bounds

        def walk(xs, outs):
            clipped = np.empty(len(shift))
            for x, out in zip(xs, outs):
                product(x, out)
                add(out, shift, out)
                _clip(out, low, high, clipped)
                subtract(out, clipped, out)
    else:
        n, (low, high) = line.n, bounds
        eta = np.array(line.eta, dtype=float)

        def walk(xs, outs):
            shrunk = np.empty(len(shift) - n)
            for x, out in zip(xs, outs):
                product(x, out)
                add(out, shift, out)
                s = out[n:]
                _clip(s, low, high, shrunk)
                subtract(s, shrunk, shrunk)  # the dual prox's image
                subtract(s, shrunk, s)
                multiply(s, eta, s)
    return walk


def _family(bind):
    """The prox family whose map kernel at scale t is ``bind(t)``.

    ``bind`` resolves every constant of the scale, and checks it, once; the
    family carries it as ``fn.bind``.  ``fn(t, x)`` is ``bind(t)(x, None)``
    with x as a float array.
    """
    def fn(t, x):
        return bind(t)(np.asarray(x, dtype=float), None)

    fn.bind = bind
    return _stackable(fn)


def _bind(prox, scale):
    """The map kernel ``(x, out)`` of the prox family ``prox`` at ``scale``.

    It is the family's own binding, resolved once; else, for a callable
    without one, a kernel that writes the family's image after checking its
    shape.
    """
    bind = getattr(prox, "bind", None)
    if bind is not None:
        return bind(scale)

    def copying(x, out=None):
        if out is None:
            return prox(scale, x)
        out[...] = _image(prox(scale, x), out.shape, "map")
        return out

    return copying


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
        check_number("dim", self.dim, int, 1, strict=False)
        if self.fixed_point_hint is not None:
            hint = np.asarray(self.fixed_point_hint, dtype=float).reshape(-1)
            if hint.shape != (self.dim,):
                raise ValueError("fixed_point_hint dimension does not match operator")
            with np.errstate(over="ignore", invalid="ignore"):
                drift = _hint_drift(self(hint), hint)
            if drift is not None:
                raise _DriftingHint(
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
        return _image(self.fn(x), x.shape, f"operator '{self.label}'")


def _image(y, shape, what):
    """The output ``y`` of the map ``what`` as a float array, or a
    ValueError naming ``what`` when it is not of ``shape``."""
    y = np.asarray(y, dtype=float)
    if y.shape != shape:
        raise ValueError(f"{what} returned shape {y.shape} instead of {shape}")
    return y


class _DriftingHint(ValueError):
    """A fixed-point hint that its map moves past :func:`_hint_drift`'s bound."""


def _hint_drift(point, hint):
    """|point - hint| when past HINT_TOL * (1 + |hint|), NaN included; else None."""
    drift = norm(point - hint)
    return None if drift <= HINT_TOL * (1.0 + norm(hint)) else drift


def gradient_step(grad_f, beta, dim, fixed_point_hint=None, label="gradient-step"):
    """Explicit gradient step x - beta * grad_f(x) for beta > 0."""
    check_number("beta", beta)

    def step(x):
        return x - beta * np.asarray(grad_f(x), dtype=float)

    return Operator(dim, _stackable(step, grad_f), fixed_point_hint, label)


def soft_threshold(lam, x):
    """Componentwise shrinkage by lam; the proximity map of lam * |.|_1.

    Components above lam move down by lam, components below -lam move up by
    lam, and everything in between collapses to zero.  It is evaluated in
    the Moreau form x - clip(x, -lam, lam), two ufunc passes (numpy's
    ``clip`` ufunc and a subtraction), whose bits equal
    sign(x) * max(|x| - lam, 0) but for the sign of a zero in the dead zone.
    At lam = 0 the map is the identity except on -0.0, which it maps to
    +0.0: clip keeps the -0.0, and -0.0 - (-0.0) is +0.0.
    """
    return _soft(lam)(np.asarray(x, dtype=float), None)


def _check_threshold(lam):
    # not check_number: t * lam overflows to +inf for a huge lam, where the
    # shrinkage is 0
    if not lam >= 0:
        raise ValueError("threshold must be nonnegative")


def _soft(lam):
    """Kernel of :func:`soft_threshold` at ``lam``: x - clip(x, -lam, lam)
    into ``out``, through the ``clip`` ufunc."""
    _check_threshold(lam)
    # 0-d arrays: a ufunc takes them faster than Python scalars, same bits
    low, high = np.array(-lam, dtype=float), np.array(lam, dtype=float)

    def into(x, out=None):
        return np.subtract(x, _clip(x, low, high), out=out)

    # the clip's bounds, for a loop that clips into a scratch row of its own
    into.threshold = low, high
    return into


def block_soft_threshold(lam, x):
    """Radial shrinkage by lam; the proximity map of lam * |.|_2.

    A (k, n) stack is shrunk row by row; rows of norm at most lam, the zero
    row included, map to zero without a division warning, and rows whose
    squares overflow shrink by their finite norm without an overflow warning.
    """
    return _block_soft(lam)(np.asarray(x, dtype=float), None)


def _block_soft(lam):
    """Kernel of :func:`block_soft_threshold` at ``lam``: the shrunk rows
    into ``out``."""
    _check_threshold(lam)

    def into(x, out=None):
        nrm = np.asarray(norm(x))[..., None]
        absorbed = nrm <= lam  # False on a NaN row, which stays NaN
        # an absorbed row takes 0 / 1, never lam / inf, which is NaN at lam = inf
        ratio = np.where(absorbed, 0.0, lam) / np.where(absorbed, 1.0, nrm)
        out = np.multiply(1.0 - ratio, x, out=out)
        np.copyto(out, 0.0, where=absorbed)
        return out

    return into


def l1_prox(lam=1.0):
    """Prox family of lam * |.|_1: (t, x) -> componentwise shrinkage by t*lam."""
    check_number("lam", lam, lower=0.0, strict=False)
    return _family(lambda t: _soft(t * lam))


def l2_prox(lam=1.0):
    """Prox family of lam * |.|_2: (t, x) -> radial shrinkage by t*lam."""
    check_number("lam", lam, lower=0.0, strict=False)
    return _family(lambda t: _block_soft(t * lam))


def box_prox(lower, upper):
    """Prox family of a box indicator: projection, insensitive to the scale."""
    if not np.all(np.asarray(lower) <= np.asarray(upper)):
        raise ValueError("box bounds are inverted or NaN")

    def into(x, out=None):
        return _clip(x, lower, upper, out=out)

    return _family(lambda t: into)


def prox_operator(prox, scale, dim, fixed_point_hint=None, label="prox"):
    """Wrap a prox family at a fixed scale as an Operator."""
    check_number("scale", scale)
    return Operator(dim, _from_kernel(_bind(prox, scale), prox), fixed_point_hint, label)


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

    # a 0-d array, as in _soft
    return Operator(len(z), _affine(np.array(alpha, dtype=float), z), hint, label)


def compose(s, t):
    """The composition s(t(x)).

    The fixed-point hint survives only when both factors carry hints, they
    coincide to within 1e-8 * (1 + |t's hint|), the drift an Operator
    admits at that hint, and the composition moves t's hint by no more than
    that; a shared fixed point of both factors is a fixed point of the
    composition, but nothing weaker is, and an expansive s can move a hint
    that each factor keeps past the bound.  A hint that fails is dropped.
    The last test is the Operator's own check, so each factor runs once at
    the hint.
    """
    if s.dim != t.dim:
        raise ValueError(
            f"cannot compose '{s.label}' (dim {s.dim}) with '{t.label}' (dim {t.dim})"
        )
    fn = _stackable(lambda x: s(t(x)), s.fn, t.fn)
    label = f"({s.label} o {t.label})"
    hint = t.fixed_point_hint
    if (s.fixed_point_hint is not None and hint is not None
            and _hint_drift(s.fixed_point_hint, hint) is None):
        try:
            return Operator(s.dim, fn, hint, label)
        except _DriftingHint:
            pass
    return Operator(s.dim, fn, None, label)


def proximal_gradient(grad_f, prox_g, beta, dim, fixed_point_hint=None,
                      label="prox-grad"):
    """Forward-backward map: prox of beta*g after a beta gradient step on f."""
    check_number("beta", beta)
    prox = _bind(prox_g, beta)

    def step(x):
        return prox(x - beta * np.asarray(grad_f(x), dtype=float), None)

    return Operator(dim, _stackable(step, grad_f, prox_g), fixed_point_hint, label)


def primal_dual(grad_f, prox_g, b_mat, beta, eta, fixed_point_hint=None,
                label="primal-dual"):
    """Resolved primal-dual update on the stacked (primal, dual) vector.

    One application performs the two lines

        x' = x - beta * (grad_f(x) + B^T y)
        y' = eta * (I - prox of g/eta) applied to  y/eta + B(2x' - x)

    for min f(x) + g(Bx), whose one nonsmooth term is composed with B; the
    second line computes the conjugate prox through the Moreau
    decomposition, so the prox of the conjugate function is never evaluated
    directly.  Construction fails when the coupled metric for (beta, eta, B)
    is not positive definite.

    Parameters
    ----------
    grad_f : callable
        Gradient of the smooth term, acting on the primal block.
    prox_g : ProxFamily
        Prox family of the nonsmooth term g composed with B.
    b_mat : array_like, shape (m, n)
        Coupling matrix applied to the primal variable.
    beta, eta : float
        Primal and dual step sizes; must make the coupled metric PD.
    """
    b = np.atleast_2d(np.asarray(b_mat, dtype=float))
    m, n = b.shape
    primal_dual_metric(beta, eta, b)  # validates positive definiteness
    bt = b.T
    prox = _bind(prox_g, 1.0 / eta)

    def step(v):
        x, y = v[..., :n], v[..., n:]
        x_new = x - beta * (np.asarray(grad_f(x), dtype=float) + _matvec(bt, y))
        shifted = y / eta + _matvec(b, 2.0 * x_new - x)
        y_new = eta * (shifted - prox(shifted, None))
        return np.concatenate([x_new, y_new], axis=-1)

    step = _stackable(step, grad_f, prox_g)
    return Operator(n + m, step, fixed_point_hint, label)
