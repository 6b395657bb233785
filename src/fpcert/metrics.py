"""Norms, the weighted metric of the primal-dual map, the Cholesky
factorization behind them, and the range check of every numeric parameter.

Everything here is plain numpy on small dense matrices.  Values are immutable
after construction and safe to share across threads.

A norm's kind is dispatched in one place, ``_norm_fn``, for vectors and
(k, n) stacks alike; :func:`norm` and the Picard loop both go through it, and
a stack row's norm equals its vector norm bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

try:
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy 1.x
    from numpy.core.umath import clip as _clip

__all__ = [
    "check_number",
    "NormSpec",
    "WeightedMetric",
    "L1",
    "L2",
    "weighted_norm",
    "norm",
    "cholesky_factor",
    "primal_dual_metric",
    "read_matrix",
    "write_matrix",
    "NotPositiveDefiniteError",
]

SYMMETRY_RTOL = 1e-12
PIVOT_RTOL = 1e-12

# Below this Euclidean norm a vector's squares may have lost bits to
# underflow, or vanished; such a norm is re-evaluated on the rescaled vector.
# The stack path takes the band [_TINY_NORM, max double] as 0-d arrays for
# the ``clip`` ufunc, which takes them faster than Python scalars.
_TINY_NORM = 2.0**-500
_NORM_BAND = np.array(_TINY_NORM), np.array(np.finfo(float).max)


def check_number(name, value, kind=float, lower=0.0, strict=True):
    """``value`` if it is a finite real number, not a bool, an integer when
    ``kind`` is int, and above ``lower`` (at least ``lower`` unless
    ``strict``); else a ValueError naming the parameter, value and rule."""
    if (isinstance(value, numbers.Integral if kind is int else numbers.Real)
            and not isinstance(value, bool)
            and (isinstance(value, int) or math.isfinite(value))
            and (value > lower if strict else value >= lower)):
        return value
    rule = (f"{'above' if strict else 'at least'} {lower:g}" if lower
            else "positive" if strict else "nonnegative")
    noun = "an integer" if kind is int else "finite"
    raise ValueError(f"{name} must be {noun} and {rule}, got {value!r}")


class NotPositiveDefiniteError(ValueError):
    """Raised when a factorization pivot falls to or below the acceptance
    threshold, ``PIVOT_RTOL`` times the largest diagonal entry."""

    def __init__(self, pivot_index, pivot_value, threshold):
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        self.threshold = threshold
        super().__init__(
            f"matrix is not positive definite: pivot {pivot_index} "
            f"evaluated to {pivot_value:.6e}, not above the acceptance threshold "
            f"{threshold:.6e} ({PIVOT_RTOL:g} times the largest diagonal entry)"
        )


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


def weighted_norm(weight):
    """Build a NormSpec for the norm induced by a symmetric PD matrix.

    The matrix must be finite and symmetric to within a 1e-12 relative
    tolerance; it is symmetrized before factorization so that floating-point
    assembly noise does not leak into the factor.
    """
    w = np.asarray(weight, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("weight matrix must be square")
    if not np.isfinite(w).all():
        raise ValueError("weight matrix must be finite")
    scale = max(float(np.max(np.abs(w))), np.finfo(float).tiny)
    if float(np.max(np.abs(w - w.T))) > SYMMETRY_RTOL * scale:
        raise ValueError("weight matrix is not symmetric within tolerance")
    w = 0.5 * (w + w.T)
    factor = cholesky_factor(w)
    return NormSpec("weighted", w, factor)


def _norm_fn(spec, shape):
    """The norm of ``spec`` on inputs of ``shape`` as a one-argument callable.

    This is the one place a norm's kind is dispatched and its weight
    dimension checked.  The callable takes an (n,) vector, giving a float,
    or a (k, n) stack, giving its k row norms; :func:`norm` evaluates every
    input through it, so ``_norm_fn(spec, x.shape)(x) == norm(x, spec)`` bit
    for bit.  Loops that take many norms of one shape resolve it once.
    """
    if spec.kind == "l2":
        return _euclidean
    if spec.kind == "l1":
        # np.sum's own reduction, without its dispatch
        return lambda x: np.add.reduce(np.abs(x), axis=-1)
    if spec.kind == "weighted":
        _check_weight_dim(spec, shape)
        factor_t = spec.factor.T
        return lambda x: _euclidean(_matvec(factor_t, x))
    raise ValueError(f"unknown norm kind {spec.kind!r}")


def _matvec(mat, x):
    """``mat @ x`` for a vector, and row by row for a (k, n) stack.

    The input is passed through :func:`_unit_rows` first, so each vector's
    elements are adjacent (free for a fresh array, and for the n-column
    view of a wider stack).  A vector then goes through ``mat.dot(x)`` and
    a stack through a (k, 1, n) batched product; both make one BLAS
    matrix-vector product per vector, the same for every layout of ``x``
    and ``mat``, so a row's image is bit-identical to its vector image.
    ``.dot`` on a strided vector would take another kernel, and a plain
    (k, n) @ (n, m) product picks its BLAS kernel by stack height, so a
    row's value would depend on the rows around it.
    """
    x = _unit_rows(x)
    if x.ndim == 1:
        return mat.dot(x)
    out = np.empty(x.shape[:-1] + mat.shape[:1])
    np.matmul(x[..., None, :], mat.T, out=out[..., None, :])
    return out


def _unit_rows(x):
    """``x`` if each of its rows is a run of adjacent elements, else its
    C-contiguous copy.  Numpy hands such rows, however far apart, to the
    same unit-stride BLAS ``dot`` and matrix-vector kernels as a contiguous
    stack's, so the n-column view of a wider buffer needs no copy."""
    return x if x.strides[-1] == x.itemsize else np.ascontiguousarray(x)


def _euclidean(x):
    """``np.linalg.norm`` of a vector, or of each row of a (k, n) stack.

    A vector's norm is evaluated as ``np.linalg.norm`` does it, the square
    root of the contiguous vector's ``dot`` with itself, without that
    function's dispatch; so the two agree bit for bit.  A stack's row
    squares come from a (k, 1, n) @ (k, n, 1) product of the stack, its
    rows made runs of adjacent elements by :func:`_unit_rows`, which numpy
    evaluates with that same BLAS ``dot`` once per row; so a row's norm is
    its vector norm bit for bit.  A one-column stack takes its row squares
    as ``x * x``, the one product such a ``dot`` makes, without a BLAS call
    per row.  A norm that is infinite, or below
    ``_TINY_NORM``, of a finite nonzero vector only had its squares overflow
    or underflow, and is re-evaluated as s |x / s| with s its largest
    |x_i|; a stack sends just those rows through that rule, all at once, and
    a zero row keeps its norm 0.  A vector outside that band is taken as a
    stack of one row, so the rule is written once.
    """
    if x.ndim < 2:
        x = x.ravel(order="K")
        r = math.sqrt(x.dot(x))
        if not _TINY_NORM <= r < math.inf:
            return float(_euclidean(x[None])[0])
        return r
    x = _unit_rows(x)
    r = np.sqrt(_row_squares(x))
    # rows outside the band, NaN ones too; the common one is a zero row,
    # which one any() over them all clears
    extreme = _clip(r, *_NORM_BAND) != r
    if np.count_nonzero(extreme) and x.compress(extreme, axis=0).any():
        rows = np.flatnonzero(extreme)
        scale = np.max(np.abs(x[rows]), axis=-1)
        fix = (0.0 < scale) & (scale < math.inf)
        rows, scale = rows[fix], scale[fix]
        r[rows] = scale * np.sqrt(_row_squares(x[rows] / scale[:, None]))
    return r


def _row_squares(x):
    """The squared Euclidean norm of each row of a (k, n) stack whose rows
    are runs of adjacent elements, each the one BLAS ``dot`` of a vector, or
    ``x * x`` for n = 1."""
    if x.shape[-1] == 1:
        return (x * x)[..., 0]
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0]


def _check_weight_dim(spec, shape):
    if shape[-1:] != (spec.weight.shape[0],):
        raise ValueError(
            f"vector of dimension {shape} does not match weight "
            f"dimension {spec.weight.shape[0]}"
        )


def norm(x, spec=L2):
    """Evaluate ``x`` under the selected norm.

    l1 and l2 are exact componentwise reductions; the weighted norm is the
    Euclidean norm of ``factor.T @ x``.  A vector gives a float and a (k, n)
    stack the array of its k row norms, both through one dispatch on the
    norm's kind; either is finite, without a warning, wherever the norm is a
    double, even where its squares overflow, and keeps its bits where they
    underflow.  A row's norm equals its norm as a vector bit for bit,
    whatever stack it sits in.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        return _norm_fn(spec, x.shape)(x)


def cholesky_factor(m):
    """Lower-triangular Cholesky factor of a symmetric matrix.

    Positive definiteness is decided by factorization success: a pivot at or
    below ``PIVOT_RTOL * max(diagonal)``, or NaN, raises
    NotPositiveDefiniteError naming the offending pivot.
    """
    a = np.asarray(m, dtype=float)
    n = a.shape[0]
    threshold = PIVOT_RTOL * float(np.max(np.diag(a))) if n else 0.0
    low = np.zeros_like(a)
    for j in range(n):
        pivot = a[j, j] - low[j, :j] @ low[j, :j]
        if not pivot > threshold:
            raise NotPositiveDefiniteError(j, float(pivot), threshold)
        ljj = np.sqrt(pivot)
        low[j, j] = ljj
        if j + 1 < n:
            low[j + 1 :, j] = (a[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / ljj
    return low


class WeightedMetric(NormSpec):
    """The weighted norm of the primal-dual metric, which
    :func:`primal_dual_metric` returns; ``norm_spec()`` is the object
    itself."""

    def norm_spec(self):
        return self


def primal_dual_metric(beta, eta, b_mat):
    """Assemble the block metric coupling the primal and dual step sizes.

    The (n+m) x (n+m) matrix has ``I/beta`` and ``I/eta`` diagonal blocks and
    ``-B`` couplings.  Positive definiteness is verified by attempting the
    factorization; failure names the pivot, which signals an inadmissible
    step-size pair.  The coupling blocks are exact transposes, so the
    matrix is symmetric as assembled.  The result is the norm it induces,
    a ``"weighted"`` NormSpec holding the matrix and its Cholesky factor.
    """
    check_number("beta", beta)
    check_number("eta", eta)
    b = np.atleast_2d(np.asarray(b_mat, dtype=float))
    m, n = b.shape
    w = np.zeros((n + m, n + m))
    w[:n, :n] = np.eye(n) / beta
    w[n:, n:] = np.eye(m) / eta
    w[:n, n:] = -b.T
    w[n:, :n] = -b
    return WeightedMetric("weighted", w, cholesky_factor(w))


def read_matrix(path):
    """Read a matrix from the plain-text format: 'rows cols' then row-major values."""
    with open(path, "r", encoding="utf-8") as handle:
        tokens = handle.read().split()
    if len(tokens) < 2:
        raise ValueError(f"matrix file {path} is missing the 'rows cols' header")
    rows, cols = (check_number(f"{name} in the header of matrix file {path}",
                               int(token), int, 0, strict=False)
                  for name, token in zip(("rows", "cols"), tokens))
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
