"""Norms, weighted inner products, and the small dense factorizations behind them.

Everything here is plain numpy on small dense matrices.  Values are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "NormSpec",
    "WeightedMetric",
    "L1",
    "L2",
    "weighted_norm",
    "norm",
    "inner",
    "cholesky_factor",
    "spectral_norm",
    "smallest_eigenvalue_spd",
    "primal_dual_metric",
    "read_matrix",
    "write_matrix",
    "NotPositiveDefiniteError",
    "PowerIterationError",
]

SYMMETRY_RTOL = 1e-12
PIVOT_RTOL = 1e-12


class NotPositiveDefiniteError(ValueError):
    """Raised when a factorization pivot falls below the acceptance threshold."""

    def __init__(self, pivot_index, pivot_value, message=None):
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        if message is None:
            message = (
                f"matrix is not positive definite: pivot {pivot_index} "
                f"evaluated to {pivot_value:.6e}"
            )
        super().__init__(message)


class PowerIterationError(RuntimeError):
    """Raised when power iteration does not settle; carries the last estimate."""

    def __init__(self, message, last_estimate, iterations):
        self.last_estimate = last_estimate
        self.iterations = iterations
        super().__init__(message)


@dataclass(frozen=True, eq=False)
class NormSpec:
    """Selects one of the supported norms: 'l2', 'l1' or 'weighted'.

    For the weighted case `weight` is symmetric positive definite and
    `factor` is its lower-triangular Cholesky factor, so the norm can be
    evaluated as the Euclidean norm of ``factor.T @ x``.
    """

    kind: str
    weight: Optional[np.ndarray] = None
    factor: Optional[np.ndarray] = None

    @property
    def dim(self):
        return None if self.weight is None else self.weight.shape[0]

    def describe(self):
        return self.kind if self.weight is None else f"weighted[{self.dim}]"


L2 = NormSpec("l2")
L1 = NormSpec("l1")


def _symmetrize(m):
    return 0.5 * (m + m.T)


def weighted_norm(weight):
    """Build a NormSpec for the norm induced by a symmetric PD matrix.

    The matrix must be symmetric to within a 1e-12 relative tolerance; it is
    symmetrized before factorization so that floating-point assembly noise
    does not leak into the factor.
    """
    w = np.asarray(weight, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("weight matrix must be square")
    scale = max(float(np.max(np.abs(w))), np.finfo(float).tiny)
    if float(np.max(np.abs(w - w.T))) > SYMMETRY_RTOL * scale:
        raise ValueError("weight matrix is not symmetric within tolerance")
    w = _symmetrize(w)
    factor = cholesky_factor(w)
    return NormSpec("weighted", w, factor)


def _vector_norm(spec, shape):
    """The norm of ``spec`` on vectors of ``shape`` as a one-argument callable.

    The kind is dispatched and the weight dimension checked once, here;
    ``_vector_norm(spec, x.shape)(x) == norm(x, spec)`` bit for bit, because
    :func:`norm` evaluates every vector through this callable.  Loops that
    take many norms of one shape resolve it once.
    """
    if spec.kind == "l2":
        return _euclidean
    if spec.kind == "l1":
        return lambda x: float(np.sum(np.abs(x)))
    if spec.kind == "weighted":
        _check_weight_dim(spec, shape)
        factor_t = spec.factor.T
        return lambda x: _euclidean(factor_t @ x)
    raise ValueError(f"unknown norm kind {spec.kind!r}")


def _euclidean(x):
    """``np.linalg.norm(x)``, rescaled by max |x_i| when only the squares of a
    finite ``x`` overflow."""
    r = float(np.linalg.norm(x))
    if math.isinf(r) and np.isfinite(x).all():
        scale = float(np.max(np.abs(x)))
        r = scale * float(np.linalg.norm(x / scale))
    return r


def _check_weight_dim(spec, shape):
    if shape[-1:] != (spec.weight.shape[0],):
        raise ValueError(
            f"vector of dimension {shape} does not match weight "
            f"dimension {spec.weight.shape[0]}"
        )


def norm(x, spec=L2):
    """Evaluate ``x`` under the selected norm.

    l1 and l2 are exact componentwise reductions; the weighted norm is the
    Euclidean norm of ``factor.T @ x``.  A vector gives a float, finite
    whenever the norm is a double, even where its squares overflow.  A stack of
    shape (k, n) gives the array of its k row norms, and each row's norm is
    bit-identical whatever stack it sits in, a stack of one included.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim < 2:
        return _vector_norm(spec, x.shape)(x)
    if spec.kind == "l2":
        return np.linalg.norm(x, axis=-1)
    if spec.kind == "l1":
        return np.sum(np.abs(x), axis=-1)
    if spec.kind == "weighted":
        _check_weight_dim(spec, x.shape)
        # einsum, not matmul: BLAS picks its kernel by stack height,
        # which would make a row's norm depend on the rows around it.
        return np.linalg.norm(np.einsum("...j,ji->...i", x, spec.factor), axis=-1)
    raise ValueError(f"unknown norm kind {spec.kind!r}")


def inner(x, y, spec=L2):
    """Inner product matching the norm; the l1 norm has none and is rejected."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("inner product arguments must have equal dimension")
    if spec.kind == "l2":
        return float(x @ y)
    if spec.kind == "weighted":
        if x.shape != (spec.weight.shape[0],):
            raise ValueError("vector dimension does not match weight dimension")
        return float((spec.factor.T @ x) @ (spec.factor.T @ y))
    raise ValueError(f"norm kind {spec.kind!r} is not induced by an inner product")


def cholesky_factor(m, pivot_rtol=PIVOT_RTOL):
    """Lower-triangular Cholesky factor of a symmetric matrix.

    Positive definiteness is decided by factorization success: a pivot at or
    below ``pivot_rtol * max(diagonal)`` raises NotPositiveDefiniteError
    naming the offending pivot.
    """
    a = np.asarray(m, dtype=float)
    n = a.shape[0]
    threshold = pivot_rtol * float(np.max(np.diag(a))) if n else 0.0
    low = np.zeros_like(a)
    for j in range(n):
        pivot = a[j, j] - low[j, :j] @ low[j, :j]
        if pivot <= threshold:
            raise NotPositiveDefiniteError(j, float(pivot))
        ljj = np.sqrt(pivot)
        low[j, j] = ljj
        if j + 1 < n:
            low[j + 1 :, j] = (a[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / ljj
    return low


def spectral_norm(m, tol=1e-10, max_iter=10000, seed=0, return_iterations=False):
    """Largest singular value of ``m`` by power iteration on ``m.T @ m``.

    The starting vector is drawn from a seeded generator so repeated calls
    return identical values.  A sweep stops when the eigen-residual of the
    unit iterate v meets ``|m.T m v - theta v| <= tol * theta``, with theta
    the Rayleigh quotient; theta is then within ``tol * theta`` of an
    eigenvalue of ``m.T @ m`` (Parlett, The Symmetric Eigenvalue Problem),
    and its square root is returned.  Running out of sweeps raises
    PowerIterationError carrying the last estimate.

    Parameters
    ----------
    m : array_like
        Nonempty 2-D matrix.
    tol : float
        Relative tolerance on the eigen-residual of ``m.T @ m``.
    max_iter : int
        Sweep budget.
    seed : int
        Seed for the starting vector.
    return_iterations : bool
        When True, return ``(sigma, iterations)`` instead of just ``sigma``.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("spectral_norm expects a nonempty 2-D matrix")
    if tol <= 0:
        raise ValueError("tol must be positive")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    sigma = 0.0
    for iteration in range(1, max_iter + 1):
        w = a @ v
        sigma = float(np.linalg.norm(w))
        if sigma == 0.0:
            return (0.0, iteration) if return_iterations else 0.0
        z = a.T @ w
        theta = sigma * sigma
        if np.linalg.norm(z - theta * v) <= tol * theta:
            return (sigma, iteration) if return_iterations else sigma
        v = z / np.linalg.norm(z)
    raise PowerIterationError(
        f"power iteration did not converge in {max_iter} sweeps "
        f"(last estimate {sigma:.6e})",
        sigma,
        max_iter,
    )


def smallest_eigenvalue_spd(m, tol=1e-10, max_iter=10000, seed=0):
    """Smallest eigenvalue of a symmetric PD matrix by inverse power iteration.

    Non-PD input raises NotPositiveDefiniteError naming the pivot.  Each
    sweep applies the inverse, formed once by ``np.linalg.inv``, and stops
    when the unit iterate v meets ``|m v - theta v| <= tol * theta``, with
    theta the Rayleigh quotient; theta is then within ``tol * theta`` of an
    eigenvalue of ``m``.  The residual is taken with ``m`` itself, so the
    bound holds however inexact the inverse.  Running out of sweeps raises
    PowerIterationError carrying the last estimate; so does a matrix whose
    condition number nears ``tol / eps``, where rounding keeps the residual
    above the rule.
    """
    a = _symmetrize(np.asarray(m, dtype=float))
    cholesky_factor(a)
    inverse = np.linalg.inv(a)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(a.shape[0])
    theta = np.inf
    for _ in range(max_iter):
        w = inverse @ v
        v = w / np.linalg.norm(w)
        av = a @ v
        theta = float(v @ av)
        if np.linalg.norm(av - theta * v) <= tol * theta:
            return theta
    raise PowerIterationError(
        f"inverse power iteration did not converge in {max_iter} sweeps "
        f"(last estimate {theta:.6e})",
        theta,
        max_iter,
    )


@dataclass(frozen=True, eq=False)
class WeightedMetric:
    """A symmetric PD matrix together with its lower-triangular factor."""

    weight: np.ndarray
    factor: np.ndarray

    @property
    def dim(self):
        return self.weight.shape[0]

    def norm_spec(self):
        return NormSpec("weighted", self.weight, self.factor)


def primal_dual_metric(beta, eta, b_mat):
    """Assemble the block metric coupling the primal and dual step sizes.

    The (n+m) x (n+m) matrix has ``I/beta`` and ``I/eta`` diagonal blocks and
    ``-B`` couplings.  Positive definiteness is verified by attempting the
    factorization; failure names the pivot, which signals an inadmissible
    step-size pair.
    """
    if beta <= 0 or eta <= 0:
        raise ValueError("step sizes beta and eta must be positive")
    b = np.atleast_2d(np.asarray(b_mat, dtype=float))
    m, n = b.shape
    w = np.zeros((n + m, n + m))
    w[:n, :n] = np.eye(n) / beta
    w[n:, n:] = np.eye(m) / eta
    w[:n, n:] = -b.T
    w[n:, :n] = -b
    factor = cholesky_factor(_symmetrize(w))
    return WeightedMetric(w, factor)


def read_matrix(path):
    """Read a matrix from the plain-text format: 'rows cols' then row-major values."""
    with open(path, "r", encoding="utf-8") as handle:
        tokens = handle.read().split()
    if len(tokens) < 2:
        raise ValueError(f"matrix file {path} is missing the 'rows cols' header")
    rows, cols = int(tokens[0]), int(tokens[1])
    values = [float(t) for t in tokens[2:]]
    if len(values) != rows * cols:
        raise ValueError(
            f"matrix file {path} declares {rows}x{cols} entries but holds {len(values)}"
        )
    return np.array(values).reshape(rows, cols)


def write_matrix(path, m):
    """Write a matrix in the plain-text format understood by read_matrix."""
    a = np.atleast_2d(np.asarray(m, dtype=float))
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    for row in a:
        lines.append(" ".join(format(v, ".17g") for v in row))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
