"""Fixed-point iteration driver, trace records, rate fitting, and the
trajectory-level inequality checks.

A single run is strictly sequential (each step feeds the next); independent
runs may execute concurrently and traces are immutable once returned.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .metrics import L2, NormSpec, _vector_norm, norm

__all__ = [
    "StopReason",
    "IterationTrace",
    "RateFit",
    "SummabilityReport",
    "SandwichReport",
    "LittleOReport",
    "RecurrenceReport",
    "picard",
    "fit_rate",
    "little_o_proxy",
    "check_residual_summability",
    "check_sandwich",
    "recurrence_bound",
    "verify_recurrence_bound",
    "NonFiniteIterateError",
    "DIVERGENCE_FACTOR",
    "SANDWICH_FIT_R2",
]

# Residual blowing past this multiple of (1 + initial residual) flags
# divergence; step sizes beyond the admissible range must terminate cleanly.
DIVERGENCE_FACTOR = 1e6

# Least r^2 of the exponential fit that estimates the sandwich's unseen tail.
SANDWICH_FIT_R2 = 0.99


class StopReason(enum.Enum):
    RESIDUAL_TOL = "residual_tol"
    MAX_ITER = "max_iter"
    DIVERGED = "diverged"


class NonFiniteIterateError(RuntimeError):
    """Raised when an iterate overflows or turns NaN; names the failing step."""

    def __init__(self, step):
        self.step = step
        super().__init__(f"iterate became non-finite at step {step}")


@dataclass(eq=False)
class IterationTrace:
    """Record of one fixed-point run.

    ``residuals[k]`` is the distance between iterates k and k+1 in the trace
    norm, for k = 0..k_final-1.  When a reference vector ``ref`` was
    supplied, ``errors_to_ref[k]`` is the distance from iterate k to it,
    k = 0..k_final; both are None otherwise.  Iterates themselves are not
    kept: every trajectory claim reads these distances.
    """

    x0: np.ndarray
    x_final: np.ndarray
    residuals: np.ndarray
    norm_spec: NormSpec
    k_final: int
    stop_reason: StopReason
    ref: Optional[np.ndarray] = None
    errors_to_ref: Optional[np.ndarray] = None
    label: str = ""

    @property
    def converged(self):
        return self.stop_reason is StopReason.RESIDUAL_TOL

    @property
    def final_residual(self):
        return float(self.residuals[-1]) if self.k_final else 0.0


def picard(op, x0, max_iter, res_tol=0.0, ref=None, norm_spec=L2):
    """Run the fixed-point iteration x <- T(x) and record its trace.

    Stops when the consecutive-iterate residual drops to ``res_tol``, after
    ``max_iter`` steps, or, from step 2 on, as divergence: when the residual
    exceeds ``DIVERGENCE_FACTOR * (1 + first residual)`` or is infinite
    although the iterates are finite.  A non-finite iterate raises
    NonFiniteIterateError naming the step.  Overflow during the run raises
    no numpy warning: those two outcomes report it.

    The arguments, the norm's kind and weight dimension, and the first step
    (through ``op(x)``, with every check the operator makes, and a scan for
    non-finite entries) are checked once.  Later steps call ``op.fn``
    directly and still, per step, convert its output to float, check that
    it keeps the iterate's shape (else the operator's named ``ValueError``),
    and test it for non-finite entries; that test reads the residual first
    and scans the iterate only when the residual is not finite.  Residuals
    equal a loop of ``op(x)`` and :func:`norm` bit for bit.

    Parameters
    ----------
    op : Operator
        Map to iterate.
    x0 : array_like
        Initial vector.
    max_iter : int
        Step budget, at least 1.
    res_tol : float
        Residual stopping tolerance (0 stops only on an exact fixed point).
    ref : array_like, optional
        Reference solution; kept as ``trace.ref`` and measured against in
        ``trace.errors_to_ref``.
    norm_spec : NormSpec
        Norm for residuals and reference distances.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if res_tol < 0:
        raise ValueError("res_tol must be nonnegative")
    x = np.asarray(x0, dtype=float).reshape(-1).copy()
    if x.shape != (op.dim,):
        raise ValueError(f"x0 has shape {x.shape}, operator expects ({op.dim},)")
    if ref is not None:
        ref = np.array(ref, dtype=float).reshape(-1)
        if ref.shape != (op.dim,):
            raise ValueError("reference vector dimension mismatch")

    fn, shape = op.fn, x.shape
    dist = _vector_norm(norm_spec, shape)
    residuals = []
    guard = None
    stop = StopReason.MAX_ITER
    with np.errstate(over="ignore"):
        errors = [dist(x - ref)] if ref is not None else None
        for k in range(1, max_iter + 1):
            if k == 1:
                x_next = op(x)
                if not np.isfinite(x_next).all():
                    raise NonFiniteIterateError(k)
            else:
                x_next = np.asarray(fn(x), dtype=float)
                if x_next.shape != shape:
                    raise op._shape_error(x_next.shape, shape)
            r = dist(x_next - x)
            # x is finite from step 2 on, so a non-finite entry of x_next
            # makes x_next - x, and so r, non-finite: a finite r clears it
            if not math.isfinite(r) and not np.isfinite(x_next).all():
                raise NonFiniteIterateError(k)
            residuals.append(r)
            x = x_next
            if errors is not None:
                errors.append(dist(x - ref))
            if guard is None:
                guard = DIVERGENCE_FACTOR * (1.0 + r)
            elif r > guard or r == math.inf:
                stop = StopReason.DIVERGED
                break
            if r <= res_tol:
                stop = StopReason.RESIDUAL_TOL
                break

    return IterationTrace(
        x0=np.asarray(x0, dtype=float).reshape(-1).copy(),
        x_final=x,
        residuals=np.asarray(residuals),
        norm_spec=norm_spec,
        k_final=len(residuals),
        stop_reason=stop,
        ref=ref,
        errors_to_ref=None if errors is None else np.asarray(errors),
        label=op.label,
    )


@dataclass(eq=False)
class RateFit:
    """Least-squares decay fit on the tail of a positive sequence.

    Polynomial fits residual ~ C * k^(-p) on log-log axes; exponential fits
    residual ~ C * rho^k on semilog axes.  Only indices >= tail_start enter.
    """

    model: str
    exponent_p: Optional[float]
    rho: Optional[float]
    r_squared: float
    tail_start: int

    def to_dict(self):
        return {
            "model": self.model,
            "exponent_p": self.exponent_p,
            "rho": self.rho,
            "r_squared": self.r_squared,
            "tail_start": self.tail_start,
        }


def _least_squares_line(xs, ys):
    xbar, ybar = np.mean(xs), np.mean(ys)
    dx = xs - xbar
    denom = float(dx @ dx)
    slope = float(dx @ (ys - ybar)) / denom
    intercept = ybar - slope * xbar
    fitted = slope * xs + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - ybar) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-30 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return slope, intercept, min(max(r2, 0.0), 1.0)


def fit_rate(seq, model, tail_start=None):
    """Fit a decay model to the tail of a sequence.

    The sequence is indexed from k = 1.  ``tail_start`` defaults to the
    midpoint, since asymptotic rates are polluted by early iterates.  Zeros
    truncate the tail at the first nonpositive entry; at least 5 positive
    points must remain.
    """
    seq = np.asarray(seq, dtype=float)
    if tail_start is None:
        tail_start = len(seq) // 2
    if tail_start < 0 or tail_start >= len(seq):
        raise ValueError("tail_start outside the sequence")
    tail = seq[tail_start:]
    nonpositive = np.nonzero(tail <= 0.0)[0]
    if nonpositive.size:
        tail = tail[: nonpositive[0]]
    if len(tail) < 5:
        raise ValueError("tail has fewer than 5 positive points")
    ks = np.arange(tail_start + 1, tail_start + 1 + len(tail), dtype=float)
    model = model.strip().lower()
    if model == "polynomial":
        slope, _, r2 = _least_squares_line(np.log(ks), np.log(tail))
        return RateFit("polynomial", -slope, None, r2, tail_start)
    if model == "exponential":
        slope, _, r2 = _least_squares_line(ks, np.log(tail))
        return RateFit("exponential", None, float(np.exp(slope)), r2, tail_start)
    raise ValueError(f"unknown model {model!r}")


@dataclass(eq=False)
class LittleOReport:
    """Finite-sample proxy for residual = o(k^(-1/gamma)).

    The normalized sequence k^(1/gamma) * residual_k over the tail must trend
    downward (negative regression slope) and finish at no more than half its
    starting value.  This is a falsifiable stand-in for a statement about
    infinite tails; it is recorded as such, not as the statement itself.
    """

    gamma: float
    slope: float
    first_value: float
    last_value: float
    tail_start: int
    verdict: bool
    note: str = "finite-sample proxy for a little-o tail claim"

    def to_dict(self):
        return {
            "gamma": self.gamma,
            "slope": self.slope,
            "first_value": self.first_value,
            "last_value": self.last_value,
            "tail_start": self.tail_start,
            "verdict": "PASS" if self.verdict else "FAIL",
            "note": self.note,
        }


def little_o_proxy(seq, gamma, tail_start=None):
    """Evaluate the little-o proxy on a residual sequence (1-indexed)."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    seq = np.asarray(seq, dtype=float)
    if tail_start is None:
        tail_start = len(seq) // 2
    tail = seq[tail_start:]
    ks = np.arange(tail_start + 1, tail_start + 1 + len(tail), dtype=float)
    normalized = ks ** (1.0 / gamma) * tail
    if len(normalized) and not np.any(normalized):
        return LittleOReport(gamma, 0.0, 0.0, 0.0, tail_start, True,
                             note="tail already absorbed at zero")
    if len(normalized) < 2:
        verdict = bool(len(normalized) == 0 or normalized[-1] <= 0.5 * normalized[0]
                       or normalized[0] == 0.0)
        first = float(normalized[0]) if len(normalized) else 0.0
        return LittleOReport(gamma, 0.0, first, first, tail_start, verdict,
                             note="tail too short; degenerate check")
    slope, _, _ = _least_squares_line(ks, normalized)
    first, last = float(normalized[0]), float(normalized[-1])
    verdict = bool(slope < 0.0 and last <= 0.5 * first)
    return LittleOReport(gamma, slope, first, last, tail_start, verdict)


@dataclass(eq=False)
class SummabilityReport:
    """Partial sums of mu * residual^gamma against the initial-distance bound."""

    gamma: float
    mu: float
    bound: float
    max_partial_sum: float
    worst_margin: float
    tol: float
    verdict: bool

    def to_dict(self):
        return {
            "gamma": self.gamma,
            "mu": self.mu,
            "bound": self.bound,
            "max_partial_sum": self.max_partial_sum,
            "worst_margin": self.worst_margin,
            "tol": self.tol,
            "verdict": "PASS" if self.verdict else "FAIL",
        }


def check_residual_summability(trace, gamma, mu, xhat, tol=1e-10):
    """Check that every partial sum of mu * residual^gamma stays below
    the gamma-power of the initial distance to the fixed point ``xhat``.

    The partial sums are nondecreasing, so the worst margin is attained at
    the last one; it is reported together with the verdict.
    """
    if gamma <= 0 or mu <= 0:
        raise ValueError("gamma and mu must be positive")
    xhat = np.asarray(xhat, dtype=float).reshape(-1)
    # numpy's power overflows to inf, where a Python float's would raise
    bound = float(np.power(norm(trace.x0 - xhat, trace.norm_spec), gamma))
    partial = float(np.sum(mu * trace.residuals**gamma))
    margin = bound + tol - partial
    return SummabilityReport(
        gamma=gamma,
        mu=mu,
        bound=bound,
        max_partial_sum=partial,
        worst_margin=margin,
        tol=tol,
        verdict=bool(margin >= 0.0),
    )


@dataclass(eq=False)
class SandwichReport:
    """Two-sided comparison of errors against residual tail sums.

    For each k the error to the limit must be sandwiched between mu times
    the residual tail sum and the tail sum itself.  The tail beyond the
    recorded trace is estimated from an exponential fit of the residuals;
    without a trustworthy fit the upper comparison is marked inconclusive.
    """

    mu: float
    lower_worst: float
    upper_worst: Optional[float]
    remainder: float
    rho_fit: Optional[float]
    fit_r_squared: Optional[float]
    conclusive: bool
    tol: float
    verdict: bool

    def to_dict(self):
        return {
            "mu": self.mu,
            "lower_worst": self.lower_worst,
            "upper_worst": self.upper_worst,
            "remainder": self.remainder,
            "rho_fit": self.rho_fit,
            "fit_r_squared": self.fit_r_squared,
            "conclusive": self.conclusive,
            "tol": self.tol,
            "verdict": "PASS" if self.verdict else "FAIL",
        }


def check_sandwich(trace, xstar, mu, tol=1e-8):
    """Verify the two-sided tail-sum comparison along a converged trace.

    Requires a trace stopped by the residual tolerance, a mu in (0, 1]
    taken from an exponent-1 certificate, and a trace run with
    ``ref=xstar``: its errors_to_ref are the errors compared.
    """
    if trace.stop_reason is not StopReason.RESIDUAL_TOL:
        raise ValueError("sandwich check needs a trace stopped by the residual tolerance")
    if not 0 < mu <= 1.0 + 1e-9:
        raise ValueError("mu must lie in (0, 1]")
    mu = min(mu, 1.0)
    if not np.array_equal(trace.ref, np.ravel(xstar)):
        raise ValueError("sandwich check needs a trace run with ref equal to xstar")
    errors = trace.errors_to_ref

    r = trace.residuals
    if r.size and r[-1] > 0.0:
        conclusive = False
        remainder = 0.0
        rho = None
        r2 = None
        try:
            fit = fit_rate(r, "exponential")
            rho, r2 = fit.rho, fit.r_squared
            if 0.0 < rho < 1.0 and r2 >= SANDWICH_FIT_R2:
                remainder = float(r[-1]) * rho / (1.0 - rho)
                conclusive = True
        except ValueError:
            pass
    else:
        # exact absorption: the iteration landed on a fixed point
        conclusive = True
        remainder = 0.0
        rho = None
        r2 = None

    # tails[k] = sum of residuals j >= k plus the estimated remainder
    tails = np.concatenate([np.cumsum(r[::-1])[::-1], [0.0]]) + remainder
    ks = np.arange(trace.k_final)
    lower_slacks = errors[ks] - mu * tails[ks]
    upper_slacks = tails[ks] - errors[ks]
    lower_worst = float(np.min(lower_slacks)) if ks.size else 0.0
    upper_worst = float(np.min(upper_slacks)) if ks.size else 0.0
    lower_ok = lower_worst >= -tol
    upper_ok = upper_worst >= -tol
    verdict = bool(lower_ok and (upper_ok or not conclusive))
    return SandwichReport(
        mu=mu,
        lower_worst=lower_worst,
        upper_worst=upper_worst if conclusive else None,
        remainder=remainder,
        rho_fit=rho,
        fit_r_squared=r2,
        conclusive=conclusive,
        tol=tol,
        verdict=verdict,
    )


def recurrence_bound(a_start, p, b, start, k):
    """Closed-form decay bound for a_{j+1} <= a_j (1 - b_j a_j^p).

    Returns ``(a_start^(-p) + p * sum(b[start:k]))^(-1/p)`` for k > start;
    a vanished ``a_start`` short-circuits to 0 since the sequence has already
    converged.
    """
    if a_start < 0:
        raise ValueError("a_start must be nonnegative")
    if a_start == 0.0:
        return 0.0
    if p <= 0:
        raise ValueError("p must be positive")
    if k <= start:
        raise ValueError("k must exceed start")
    b = np.asarray(b, dtype=float)
    if len(b) < k:
        raise ValueError("b does not cover indices start..k-1")
    window = b[start:k]
    if np.any(window < 0):
        raise ValueError("b must be nonnegative")
    return float((a_start ** (-p) + p * np.sum(window)) ** (-1.0 / p))


@dataclass(eq=False)
class RecurrenceReport:
    """Elementwise audit of the decay recurrence and its closed-form bound."""

    p: float
    mu: float
    premise_from: Optional[int]
    n_checked: int
    violations: list
    verdict: bool

    def to_dict(self):
        return {
            "p": self.p,
            "mu": self.mu,
            "premise_from": self.premise_from,
            "n_checked": self.n_checked,
            "violations": [
                {"k": int(k), "value": v, "bound": b} for k, v, b in self.violations
            ],
            "verdict": "PASS" if self.verdict else "FAIL",
        }


def verify_recurrence_bound(seq, p, mu, tol=1e-12):
    """Check a sequence against a_{k+1} <= a_k (1 - mu a_k^p) and its bound.

    Finds the first index from which the recurrence premise holds through the
    end of the sequence, then verifies the closed-form bound at every later
    index (geometric decay when p == 0), in time linear in the sequence
    length.  Every violation is reported.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if p < 0:
        raise ValueError("p must be nonnegative")
    seq = np.asarray(seq, dtype=float)
    if np.any(seq < 0):
        raise ValueError("sequence must be nonnegative")
    n = len(seq)
    if n < 2:
        return RecurrenceReport(p, mu, 0 if n else None, 0, [], True)

    holds = seq[1:] <= seq[:-1] * (1.0 - mu * seq[:-1] ** p) + tol
    failing = np.nonzero(~holds)[0]
    start = int(failing[-1]) + 1 if failing.size else 0
    if start >= n - 1:
        return RecurrenceReport(p, mu, None, 0, [], True)

    # bounds[j] is the bound at k = start + 1 + j, all in one expression
    a_start, steps = seq[start], np.arange(1, n - start)
    if a_start == 0.0:
        bounds = np.zeros(len(steps))
    elif p == 0:
        bounds = a_start * (1.0 - mu) ** steps
    else:
        bounds = (a_start ** (-p) + p * mu * steps) ** (-1.0 / p)
    over = np.nonzero(seq[start + 1:] > bounds + tol)[0].tolist()
    violations = [(start + 1 + j, float(seq[start + 1 + j]), float(bounds[j]))
                  for j in over]
    return RecurrenceReport(p, mu, start, len(steps), violations, not violations)
