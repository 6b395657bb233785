"""Concrete desk-scale optimization instances with their constants,
step-size bounds, and reference solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import operators
from .iterate import picard
from .metrics import check_number, primal_dual_metric

__all__ = [
    "ProblemSpec",
    "StepSizeBounds",
    "Reference",
    "least_squares_problem",
    "separable_smooth_l1_problem",
    "analysis_l1_problem",
    "step_size_bounds",
    "default_step_sizes",
    "build_operator",
    "reference_solution",
    "RankDeficientError",
    "ReferenceError",
    "REFERENCE_TOL",
]

# The tolerance of a computed reference solution.
REFERENCE_TOL = 1e-8


class RankDeficientError(ValueError):
    """Raised when a design matrix fails the full-column-rank check."""


class ReferenceError(RuntimeError):
    """Raised when the reference iteration fails to reach its tight tolerance."""


@dataclass(eq=False)
class ProblemSpec:
    """An optimization instance packaged for fixed-point iteration.

    ``lipschitz`` bounds the gradient of the smooth part from above and
    ``lower_lipschitz``, when known, from below; both are measured in the
    Euclidean norm.  ``dims`` is (n, m) with m = 0 unless a coupling matrix
    ``b_mat`` is present, and ``b_norm`` is that matrix's spectral norm
    |B|_2, taken once at construction (0.0 without one).  ``quadratic`` is
    the data (H, g) of the smooth part, grad_f(x) = H x - g, with H an
    (n, n) matrix or, for a diagonal H, its (n,) diagonal;
    :func:`build_operator` precomposes its maps from it, and ``grad_f`` is
    the gradient it defines.
    """

    kind: str
    lipschitz: float
    dims: tuple
    quadratic: tuple
    prox_g: Optional[operators.ProxFamily] = None
    b_mat: Optional[np.ndarray] = None
    b_norm: float = 0.0
    lower_lipschitz: Optional[float] = None
    exact_solution: Optional[np.ndarray] = None
    label: str = ""

    @property
    def n(self):
        return self.dims[0]

    @property
    def grad_f(self):
        """x -> H x - g, on a vector and row by row on a (k, n) stack."""
        h, g = self.quadratic
        return operators._affine(h, -g)


def _product(a, b):
    """``a @ b`` for a matrix ``a`` and a matrix or vector ``b``, by numpy's
    own sum-of-products loop (``np.einsum`` without ``optimize``), which
    makes no BLAS call; so its bits do not depend on the BLAS thread count,
    as a BLAS product's do for shapes that BLAS splits.  Every product that
    builds a problem or its map goes through here."""
    return np.einsum("ij,j...->i...", a, b)


def _data_fit(a_mat, b):
    """The design matrix and right-hand side of a data-fit term, checked."""
    a = np.asarray(a_mat, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    if a.ndim != 2 or a.shape[0] != len(b) or a.size == 0:
        raise ValueError("design matrix and right-hand side are inconsistent")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("design matrix and right-hand side must be finite")
    return a, b


def _square(name, norm, gradient=True):
    """``norm`` squared, the problem constant ``name``: a ValueError naming
    it when the square overflows a double or, for a ``gradient`` constant,
    fails :func:`_gradient_constant`."""
    try:
        square = float(norm) ** 2
    except OverflowError:
        square = math.inf
    if gradient:
        return _gradient_constant(name, square)
    return check_number(name, square, lower=0.0, strict=False)


def _gradient_constant(name, lipschitz):
    """The gradient constant L, ``name``: a ValueError naming it when it is
    0, not finite, or so small that the default step 1/L overflows."""
    check_number(name, lipschitz)
    if math.isinf(1.0 / lipschitz):
        raise ValueError(f"{name} is too small for a finite default step 1/L, "
                         f"got {lipschitz!r}")
    return lipschitz


def least_squares_problem(a_mat, b):
    """Quadratic data-fit instance: f(x) = 0.5 * |Ax - b|^2.

    Every constant comes from one thin SVD A = U diag(s) V^T.  A must have
    full column rank: fewer rows than columns, or a smallest singular value
    at or below 1e-10 times the largest, raises RankDeficientError.  The
    gradient constant is s_max^2, the lower constant s_min^2, and the exact
    solution is V (U^T b / s), which solves with A itself rather than the
    normal equations, so the condition number is not squared.  The smooth
    part's data H = A^T A and g = A^T b are assembled from the same SVD.
    A gradient constant that is 0, overflows a double or is too small for
    a finite default step 1/L raises ValueError.
    """
    a, b = _data_fit(a_mat, b)
    rows, n = a.shape
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if rows < n or s[-1] <= 1e-10 * s[0]:
        raise RankDeficientError(
            f"design matrix is rank deficient: {rows}x{n} with singular values "
            f"from {s[0]:.3e} down to {s[-1]:.3e}"
        )

    ub = _product(u.T, b)
    return ProblemSpec(
        kind="least_squares",
        lipschitz=_square("Lipschitz constant |A|_2^2", s[0]),
        lower_lipschitz=float(s[-1]) ** 2,
        exact_solution=_product(vt.T, ub / s),
        dims=(n, 0),
        quadratic=(_product(vt.T * s**2, vt), _product(vt.T, s * ub)),
        label=f"least-squares[{rows}x{n}]",
    )


def separable_smooth_l1_problem(coeffs, b, lam):
    """Separable quadratic plus an l1 penalty, solved componentwise.

    Each coordinate minimizes 0.5 * c_i (t - b_i)^2 + lam * |t|, whose
    closed-form solution shrinks b_i toward zero by lam / c_i.  A gradient
    constant max(c) too small for a finite default step 1/L raises
    ValueError.
    """
    coeffs = np.asarray(coeffs, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    if coeffs.shape != b.shape:
        raise ValueError("coeffs and b must have equal length")
    if not (np.isfinite(coeffs).all() and np.isfinite(b).all()):
        raise ValueError("coeffs and b must be finite")
    if not np.all(coeffs > 0):
        raise ValueError("coeffs must be positive")
    lipschitz = _gradient_constant("Lipschitz constant max(coeffs)", float(np.max(coeffs)))
    prox_g = operators.l1_prox(lam)  # checks lam before it divides
    with np.errstate(over="ignore"):  # a shrinkage of inf takes b_i to 0
        solution = b - np.sign(b) * np.minimum(np.abs(b), lam / coeffs)
    return ProblemSpec(
        kind="separable_smooth_l1",
        lipschitz=lipschitz,
        lower_lipschitz=float(np.min(coeffs)),
        prox_g=prox_g,
        exact_solution=solution,
        dims=(len(b), 0),
        quadratic=(coeffs, coeffs * b),
        label=f"separable-l1[{len(b)}]",
    )


def analysis_l1_problem(a_mat, b, b_mat, lam):
    """Data fit plus an l1 penalty measured through a coupling matrix.

    f(x) = 0.5 * |Ax - b|^2, the penalty lam * |Bx|_1 enters through its prox
    on the dual side, and the direct nonsmooth term is zero.  No closed-form
    solution is attached: :func:`reference_solution` computes one by a tight
    run of the problem's own iteration, and the CLI runs this kind without a
    reference (no ``error_to_ref``, no fixed-point checks) until ROADMAP
    item 4 attaches it.  A gradient constant |A|_2^2 that is 0, overflows
    a double or is too small for a finite default step 1/L, or a |B|_2^2
    that overflows, raises ValueError.
    """
    a, b = _data_fit(a_mat, b)
    b_coupling = np.atleast_2d(np.asarray(b_mat, dtype=float))
    if b_coupling.shape[1] != a.shape[1]:
        raise ValueError("coupling matrix column count does not match the primal dimension")
    if not np.isfinite(b_coupling).all():
        raise ValueError("coupling matrix must be finite")
    prox_g = operators.l1_prox(lam)
    b_norm = float(np.linalg.norm(b_coupling, 2))
    _square("coupling constant |B|_2^2", b_norm, gradient=False)

    return ProblemSpec(
        kind="analysis_l1",
        lipschitz=_square("Lipschitz constant |A|_2^2", np.linalg.norm(a, 2)),
        prox_g=prox_g,
        b_mat=b_coupling,
        b_norm=b_norm,
        dims=(a.shape[1], b_coupling.shape[0]),
        quadratic=(_product(a.T, a), _product(a.T, b)),
        label=f"analysis-l1[{a.shape[1]}+{b_coupling.shape[0]}]",
    )


@dataclass(frozen=True)
class StepSizeBounds:
    """Admissible step-size region for the iteration family.

    ``beta_max`` is the open primal bound 2/L.  When a concrete beta is
    supplied, ``eta_max`` is the open dual bound for it.  The quantity the
    source analysis calls mu in the dual bound is the dual step size; it is
    treated as the bound on eta throughout, and the notational collision is
    confined to this remark.
    """

    lipschitz: float
    b_norm: float
    beta_max: float
    beta: Optional[float] = None
    eta_max: Optional[float] = None

    def coupling_holds(self, beta, eta):
        """Whether (1/beta - L/2) * (1/eta - L/2) > |B|^2 for the pair."""
        if beta <= 0 or eta <= 0:
            return False
        half = 0.5 * self.lipschitz
        return (1.0 / beta - half) * (1.0 / eta - half) > self.b_norm**2


def step_size_bounds(lipschitz, b_norm=0.0, beta=None):
    """Step-size bounds: beta below 2/L and, given beta, the matching eta bound."""
    check_number("lipschitz", lipschitz)
    check_number("b_norm", b_norm, lower=0.0, strict=False)
    beta_max = 2.0 / lipschitz
    eta_max = None
    if beta is not None:
        if not 0 < beta < beta_max:
            raise ValueError(f"beta must lie in (0, {beta_max:g}), got {beta}")
        gap = 2.0 - beta * lipschitz
        eta_max = 2.0 * gap / (4.0 * beta * b_norm**2 + lipschitz * gap)
    return StepSizeBounds(
        lipschitz=lipschitz,
        b_norm=b_norm,
        beta_max=beta_max,
        beta=beta,
        eta_max=eta_max,
    )


def default_step_sizes(problem, beta=None, eta=None):
    """Resolve step sizes: beta defaults to 1/L, eta to half its bound."""
    if beta is None:
        beta = 1.0 / problem.lipschitz
    if problem.b_mat is None:
        return beta, None
    bounds = step_size_bounds(problem.lipschitz, problem.b_norm, beta)
    if eta is None:
        eta = 0.5 * bounds.eta_max
    return beta, eta


def build_operator(problem, beta=None, eta=None, hint="auto"):
    """Fixed-point map for a problem at the given (or default) step sizes.

    Every map is built down one path from ``problem.quadratic`` = (H, g) at
    the step sizes: one ``operators._affine`` kernel, an affine product
    followed, in place on its output, by the stage the data picks, as the
    ``fn`` of one Operator.  Without a coupling matrix the product is
    M x + c, M = I - beta*H, c = beta*g, with M a vector applied
    elementwise for a diagonal H, and for a matrix M the one product of
    [M | c], formed once when the map is built, with [x; 1]; the stage is
    the prox of beta*g (the forward-backward step), or none for a problem
    without a prox (a gradient step).  With a coupling matrix B the map is the primal-dual
    update of :func:`operators.primal_dual`: the square product

        [x'; s] = [[M, -beta*B^T], [B(2M - I), I/eta - 2*beta*B B^T]] [x; y]
                  + [c; 2*beta*B g]

    gives the new primal block x' and the dual pre-image s, as one product
    of [matrix | shift] with [x; y; 1], and the stage,
    the dual line ``operators._DualLine(n, eta, prox of g/eta)``, makes the
    new dual block eta * (s - prox of g/eta at s).
    A (beta, eta) pair whose coupled metric is not positive definite raises
    NotPositiveDefiniteError, and a beta that is not positive raises
    ValueError for every kind.

    The exact solution, when the problem has one, is attached as the
    operator's fixed-point hint; pass ``hint=None`` to suppress that or an
    explicit vector to override it.
    """
    beta, eta = default_step_sizes(problem, beta, eta)
    check_number("beta", beta)
    if isinstance(hint, str) and hint == "auto":
        hint = problem.exact_solution
    h, g = problem.quadratic
    n, m = problem.dims
    b, prox = problem.b_mat, problem.prox_g
    lin = 1.0 - beta * h if h.ndim == 1 else np.eye(n) - beta * h
    shift = beta * g
    if b is not None:
        primal_dual_metric(beta, eta, b)  # validates positive definiteness
        lin = np.diag(lin) if lin.ndim == 1 else lin  # a diagonal H as its matrix
        lin = np.block([
            [lin, -beta * b.T],
            [_product(b, 2.0 * lin - np.eye(n)),
             np.eye(m) / eta - 2.0 * beta * _product(b, b.T)]])
        shift = np.concatenate([shift, 2.0 * _product(b, shift)])
        steps = f"primal-dual(beta={beta:g}, eta={eta:g})"
        stage = operators._DualLine(n, eta, operators._bind(prox, 1.0 / eta))
    elif prox is not None:
        steps, stage = f"prox-grad(beta={beta:g})", operators._bind(prox, beta)
    else:
        steps, stage = f"gradient-step(beta={beta:g})", None
    families = () if stage is None else (prox,)
    fn = operators._affine(lin, shift, stage, *families)
    return operators.Operator(n + m, fn, hint, f"{problem.label} {steps}")


@dataclass(eq=False)
class Reference:
    """A reference minimizer, either closed form or from a tight run.

    ``value`` is the minimizer and ``state`` the fixed point of the problem's
    map (the minimizer, stacked with its dual on the primal-dual map);
    ``residual`` is the run's final residual, 0 for a closed form.
    """

    value: np.ndarray
    residual: float
    closed_form: bool
    state: Optional[np.ndarray] = None


def reference_solution(problem):
    """Reference minimizer for a problem.

    Closed-form solutions pass through unchanged.  Otherwise the problem's
    own fixed-point iteration is run from zero at a residual tolerance three
    orders tighter than ``REFERENCE_TOL``; failure to converge within 10**6
    steps raises ReferenceError.
    """
    closed_form = problem.exact_solution is not None
    if closed_form:
        state, residual = problem.exact_solution.copy(), 0.0
    else:
        op = build_operator(problem)
        trace = picard(op, np.zeros(op.dim), 10**6, res_tol=REFERENCE_TOL * 1e-3)
        if not trace.converged:
            raise ReferenceError(
                f"reference iteration stopped with {trace.stop_reason.value} at "
                f"residual {trace.final_residual:.3e}"
            )
        state, residual = trace.x_final, trace.final_residual
    return Reference(value=state[: problem.n].copy(), residual=residual,
                     closed_form=closed_form, state=state)
