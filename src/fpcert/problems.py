"""Concrete desk-scale optimization instances with their constants,
step-size bounds, and reference solutions.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import operators
from .iterate import StopReason, picard
from .metrics import read_matrix

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
    "load_problem",
    "RankDeficientError",
    "ReferenceError",
]

KINDS = ("least_squares", "separable_smooth_l1", "analysis_l1")


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
    is present.
    """

    kind: str
    grad_f: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    dims: tuple
    prox_g: Optional[operators.ProxFamily] = None
    prox_h: Optional[operators.ProxFamily] = None
    b_mat: Optional[np.ndarray] = None
    lower_lipschitz: Optional[float] = None
    exact_solution: Optional[np.ndarray] = None
    lam: float = 0.0
    label: str = ""

    @property
    def n(self):
        return self.dims[0]


def _data_fit(a_mat, b):
    """The design matrix and right-hand side of a data-fit term, checked."""
    a = np.asarray(a_mat, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    if a.ndim != 2 or a.shape[0] != len(b) or a.size == 0:
        raise ValueError("design matrix and right-hand side are inconsistent")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("design matrix and right-hand side must be finite")
    return a, b


def _data_fit_gradient(a, b):
    """x -> A^T (A x - b), on a vector and row by row on a (k, n) stack."""

    @operators._stackable
    def grad(x):
        if x.ndim == 1:
            return a.T @ (a @ x - b)
        return operators._matvec(a.T, operators._matvec(a, x) - b)

    return grad


def least_squares_problem(a_mat, b):
    """Quadratic data-fit instance: f(x) = 0.5 * |Ax - b|^2.

    Every constant comes from one thin SVD A = U diag(s) V^T.  A must have
    full column rank: fewer rows than columns, or a smallest singular value
    at or below 1e-10 times the largest, raises RankDeficientError.  The
    gradient constant is s_max^2, the lower constant s_min^2, and the exact
    solution is V (U^T b / s), which solves with A itself rather than the
    normal equations, so the condition number is not squared.
    """
    a, b = _data_fit(a_mat, b)
    rows, n = a.shape
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if rows < n or s[-1] <= 1e-10 * s[0]:
        raise RankDeficientError(
            f"design matrix is rank deficient: {rows}x{n} with singular values "
            f"from {s[0]:.3e} down to {s[-1]:.3e}"
        )

    return ProblemSpec(
        kind="least_squares",
        grad_f=_data_fit_gradient(a, b),
        lipschitz=float(s[0]) ** 2,
        lower_lipschitz=float(s[-1]) ** 2,
        exact_solution=vt.T @ ((u.T @ b) / s),
        dims=(n, 0),
        label=f"least-squares[{rows}x{n}]",
    )


def separable_smooth_l1_problem(coeffs, b, lam):
    """Separable quadratic plus an l1 penalty, solved componentwise.

    Each coordinate minimizes 0.5 * c_i (t - b_i)^2 + lam * |t|, whose
    closed-form solution shrinks b_i toward zero by lam / c_i.
    """
    coeffs = np.asarray(coeffs, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    if coeffs.shape != b.shape:
        raise ValueError("coeffs and b must have equal length")
    if np.any(coeffs <= 0):
        raise ValueError("coeffs must be positive")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    solution = b - np.sign(b) * np.minimum(np.abs(b), lam / coeffs)

    @operators._stackable
    def grad(x):
        return coeffs * (x - b)

    return ProblemSpec(
        kind="separable_smooth_l1",
        grad_f=grad,
        lipschitz=float(np.max(coeffs)),
        lower_lipschitz=float(np.min(coeffs)),
        prox_g=operators.l1_prox(lam),
        exact_solution=solution,
        dims=(len(b), 0),
        lam=lam,
        label=f"separable-l1[{len(b)}]",
    )


def analysis_l1_problem(a_mat, b, b_mat, lam):
    """Data fit plus an l1 penalty measured through a coupling matrix.

    f(x) = 0.5 * |Ax - b|^2, the penalty lam * |Bx|_1 enters through its prox
    on the dual side, and the direct nonsmooth term is zero.  No closed-form
    solution is attached; references are computed separately.
    """
    a, b = _data_fit(a_mat, b)
    b_coupling = np.atleast_2d(np.asarray(b_mat, dtype=float))
    if b_coupling.shape[1] != a.shape[1]:
        raise ValueError("coupling matrix column count does not match the primal dimension")
    if not np.isfinite(b_coupling).all():
        raise ValueError("coupling matrix must be finite")
    if lam < 0:
        raise ValueError("lam must be nonnegative")

    return ProblemSpec(
        kind="analysis_l1",
        grad_f=_data_fit_gradient(a, b),
        lipschitz=float(np.linalg.norm(a, 2)) ** 2,
        prox_g=operators.l1_prox(lam),
        prox_h=operators.zero_prox(),
        b_mat=b_coupling,
        dims=(a.shape[1], b_coupling.shape[0]),
        lam=lam,
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
    if lipschitz <= 0:
        raise ValueError("lipschitz constant must be positive")
    if b_norm < 0:
        raise ValueError("b_norm must be nonnegative")
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
    if problem.kind != "analysis_l1":
        return beta, None
    b_norm = float(np.linalg.norm(problem.b_mat, 2))
    bounds = step_size_bounds(problem.lipschitz, b_norm, beta)
    if eta is None:
        eta = 0.5 * bounds.eta_max
    return beta, eta


def build_operator(problem, beta=None, eta=None, hint="auto"):
    """Fixed-point map for a problem at the given (or default) step sizes.

    The exact solution, when the problem has one, is attached as the
    operator's fixed-point hint; pass ``hint=None`` to suppress that or an
    explicit vector to override it.
    """
    beta, eta = default_step_sizes(problem, beta, eta)
    if isinstance(hint, str) and hint == "auto":
        hint = problem.exact_solution
    if problem.kind == "least_squares":
        return operators.gradient_step(
            problem.grad_f, beta, problem.n, fixed_point_hint=hint,
            label=f"{problem.label} gradient-step(beta={beta:g})",
        )
    if problem.kind == "separable_smooth_l1":
        return operators.proximal_gradient(
            problem.grad_f, problem.prox_g, beta, problem.n, fixed_point_hint=hint,
            label=f"{problem.label} prox-grad(beta={beta:g})",
        )
    if problem.kind == "analysis_l1":
        return operators.primal_dual(
            problem.grad_f, problem.prox_h, problem.prox_g, problem.b_mat,
            beta, eta, fixed_point_hint=hint,
            label=f"{problem.label} primal-dual(beta={beta:g}, eta={eta:g})",
        )
    raise ValueError(f"unknown problem kind {problem.kind!r}")


@dataclass(eq=False)
class Reference:
    """A reference minimizer, either closed form or from a tight run."""

    value: np.ndarray
    residual: float
    iterations: int
    closed_form: bool
    state: Optional[np.ndarray] = None


def reference_solution(problem, tol=1e-8):
    """Reference minimizer for a problem.

    Closed-form solutions pass through unchanged.  Otherwise the problem's
    own fixed-point iteration is run from zero at a residual tolerance three
    orders tighter than ``tol``; failure to converge within 10**6 steps
    raises ReferenceError.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if problem.exact_solution is not None:
        return Reference(
            value=problem.exact_solution.copy(),
            residual=0.0,
            iterations=0,
            closed_form=True,
            state=problem.exact_solution.copy(),
        )
    op = build_operator(problem)
    trace = picard(op, np.zeros(op.dim), 10**6, res_tol=tol * 1e-3)
    if trace.stop_reason is not StopReason.RESIDUAL_TOL:
        raise ReferenceError(
            f"reference iteration stopped with {trace.stop_reason.value} at "
            f"residual {trace.final_residual:.3e}"
        )
    return Reference(
        value=trace.x_final[: problem.n].copy(),
        residual=trace.final_residual,
        iterations=trace.k_final,
        closed_form=False,
        state=trace.x_final.copy(),
    )


def _load_array(entry, base_dir, field):
    if isinstance(entry, str):
        return read_matrix(os.path.join(base_dir, entry))
    if isinstance(entry, list):
        return np.asarray(entry, dtype=float)
    raise ValueError(f"problem config field '{field}' must be a path or a list")


def load_problem(path, lam=None):
    """Load a problem from a JSON config.

    The config names the kind, matrix entries either inline or as paths to
    the plain-text matrix format (relative to the config file), and the
    scalar lam (overridable through the ``lam`` argument).  Step sizes and
    seeds live in the run config, not here.
    """
    with open(path, "r", encoding="utf-8") as handle:
        config = json.load(handle)
    base_dir = os.path.dirname(os.path.abspath(path))
    kind = config.get("kind")
    if kind not in KINDS:
        raise ValueError(f"problem config field 'kind' must be one of {KINDS}")
    if lam is None:
        lam = float(config.get("lambda", 0.0))
    if kind == "least_squares":
        for field in ("A", "b"):
            if field not in config:
                raise ValueError(f"problem config field '{field}' is required")
        a = _load_array(config["A"], base_dir, "A")
        b = _load_array(config["b"], base_dir, "b").reshape(-1)
        return least_squares_problem(a, b)
    if kind == "separable_smooth_l1":
        for field in ("coeffs", "b"):
            if field not in config:
                raise ValueError(f"problem config field '{field}' is required")
        coeffs = _load_array(config["coeffs"], base_dir, "coeffs").reshape(-1)
        b = _load_array(config["b"], base_dir, "b").reshape(-1)
        return separable_smooth_l1_problem(coeffs, b, lam)
    for field in ("A", "b", "B"):
        if field not in config:
            raise ValueError(f"problem config field '{field}' is required")
    a = _load_array(config["A"], base_dir, "A")
    b = _load_array(config["b"], base_dir, "b").reshape(-1)
    b_mat = _load_array(config["B"], base_dir, "B")
    return analysis_l1_problem(a, b, b_mat, lam)
