"""Norms, the weighted metric of the primal-dual map, and the Cholesky
factorization behind them.

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
    "cholesky_factor",
    "primal_dual_metric",
    "read_matrix",
    "write_matrix",
    "NotPositiveDefiniteError",
]

SYMMETRY_RTOL = 1e-12
PIVOT_RTOL = 1e-12


class NotPositiveDefiniteError(ValueError):
    """Raised when a factorization pivot falls below the acceptance threshold."""

    def __init__(self, pivot_index, pivot_value):
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        super().__init__(
            f"matrix is not positive definite: pivot {pivot_index} "
            f"evaluated to {pivot_value:.6e}"
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
    """``np.linalg.norm`` of a vector, or of each row of a (k, n) stack.

    An infinite norm of a finite vector only had its squares overflow, and is
    re-evaluated with the vector scaled by its largest |x_i|.  A stack sends
    just its infinite rows through that rule, so a norm that does not
    overflow is numpy's own, bit for bit.
    """
    if x.ndim < 2:
        r = float(np.linalg.norm(x))
        if math.isinf(r) and np.isfinite(x).all():
            scale = float(np.max(np.abs(x)))
            r = scale * float(np.linalg.norm(x / scale))
        return r
    r = np.linalg.norm(x, axis=-1)
    over = np.isinf(r)
    if over.any():
        r[over] = [_euclidean(row) for row in x[over]]
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
    Euclidean norm of ``factor.T @ x``.  A vector gives a float and a (k, n)
    stack the array of its k row norms; either is finite, without a warning,
    wherever the norm is a double, even where its squares overflow.  A row's
    norm is bit-identical whatever stack it sits in, a stack of one included,
    and equals its norm as a vector to rounding (numpy sums the squares of a
    vector and of a stack in different orders).
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        if x.ndim < 2:
            return _vector_norm(spec, x.shape)(x)
        if spec.kind == "l2":
            return _euclidean(x)
        if spec.kind == "l1":
            return np.sum(np.abs(x), axis=-1)
        if spec.kind == "weighted":
            _check_weight_dim(spec, x.shape)
            # einsum, not matmul: BLAS picks its kernel by stack height,
            # which would make a row's norm depend on the rows around it.
            return _euclidean(np.einsum("...j,ji->...i", x, spec.factor))
    raise ValueError(f"unknown norm kind {spec.kind!r}")


def cholesky_factor(m):
    """Lower-triangular Cholesky factor of a symmetric matrix.

    Positive definiteness is decided by factorization success: a pivot at or
    below ``PIVOT_RTOL * max(diagonal)`` raises NotPositiveDefiniteError
    naming the offending pivot.
    """
    a = np.asarray(m, dtype=float)
    n = a.shape[0]
    threshold = PIVOT_RTOL * float(np.max(np.diag(a))) if n else 0.0
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
