"""Fixed-point iteration driver, trace records, rate fitting, and the
trajectory-level inequality checks.

A single run is strictly sequential (each step feeds the next); independent
runs may execute concurrently and traces are immutable once returned.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .metrics import L2, NormSpec, _norm_fn, check_number
from .operators import _image

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
    "ERROR_BLOCK",
    "BLOCK_MIN",
    "BLOCK_SHARE",
    "SANDWICH_FIT_R2",
    "SUMMABILITY_TOL",
    "SANDWICH_TOL",
]

# Residual blowing past this multiple of (1 + initial residual) flags
# divergence; step sizes beyond the admissible range must terminate cleanly.
DIVERGENCE_FACTOR = 1e6

# Least r^2 of the exponential fit that estimates the sandwich's unseen tail.
SANDWICH_FIT_R2 = 0.99

# Rounding allowed by each trajectory check, recorded as its report's tol.
SUMMABILITY_TOL = 1e-10
SANDWICH_TOL = 1e-8

# Iterates held at once by picard to take their reference errors, and a
# kernel's residuals with them, as one stack norm a block: enough that the
# per-block cost is negligible, few enough that the buffers stay small (at
# n = 100, 257 rows of 101 doubles and a kernel's 512 difference rows of
# as many are 620 kB).
ERROR_BLOCK = 256

# A map with a kernel is stepped in blocks of min(ERROR_BLOCK,
# max(BLOCK_MIN, k // BLOCK_SHARE)) steps after k steps taken, so it runs at
# most max(BLOCK_MIN - 1, k / BLOCK_SHARE) steps past the stopping step k.
BLOCK_MIN = 16
BLOCK_SHARE = 8


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
    norm, for k = 0..k_final-1.  When :func:`picard` was given a reference
    vector ``ref``, ``errors_to_ref[k]`` is the distance from iterate k to
    it, k = 0..k_final; it is None otherwise.  Iterates themselves, x0 and
    the reference too, are not kept: every trajectory claim reads these
    distances.
    """

    x_final: np.ndarray
    residuals: np.ndarray
    norm_spec: NormSpec
    stop_reason: StopReason
    errors_to_ref: Optional[np.ndarray] = None
    label: str = ""

    @property
    def k_final(self):
        return len(self.residuals)

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
    NonFiniteIterateError naming the step.  Overflow, or a non-finite
    start, raises no numpy warning during the run: those two outcomes
    report it.  The three rules are one scalar rule.

    The arguments and the norm's kind and weight dimension are checked
    once.  Every map runs through one loop: a block of steps at a time,
    each iterate written into the first n columns of the next row of one
    (min(ERROR_BLOCK, max_iter) + 1, n) buffer.  Only the block body
    differs.  A map whose ``op.fn`` carries a block kernel ``walk`` (see
    :mod:`fpcert.operators`) is handed the block's rows in one
    ``walk(rows[:span], iterates[1:span + 1])`` call, which steps through
    them in place; for an ``augmented`` walk the buffer is n + 1 wide, its
    last column is set to 1 once, and ``iterates`` are the rows' first n
    columns, else they are the rows.  The block's consecutive-row
    differences, then, given ``ref``, its rows' differences to it ([ref; 1]
    for an augmented walk), are written into one preallocated buffer of
    2 * span rows as wide as the buffer's, each a subtraction of adjacent
    elements, and one stack norm of their first n columns, read in place,
    gives the block's residuals and errors.  One numpy pass over the
    residuals flags the steps where the stop rule can act (a non-finite
    residual, one above the guard, or one at ``res_tol``), and the scalar
    rule reads the flagged steps in step order, so the run ends where a
    step-by-step reading would end it.  A block after k steps holds
    min(ERROR_BLOCK, max(BLOCK_MIN, k // BLOCK_SHARE)) steps, so the
    kernel, which is pure, runs at most max(15, k / 8) steps past the
    stopping step k; their values are discarded, and an overflow among
    them raises nothing.  Any other map is called once a step and never
    past the stopping step: each step calls ``op.fn`` on x0's copy or on
    its own last image, never on a row of the buffer, converts its output
    to float, checks that it keeps the iterate's shape (else the operator's
    named ``ValueError``), copies it into the next row, takes its residual
    and reads the stop rule; the errors of the block's steps are one stack
    norm against ``ref``.  Stack norms equal vector norms row by row, so
    for every map residuals and errors equal a loop of ``op(x)`` and
    ``metrics.norm`` bit for bit.

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
        Reference solution, measured against in ``trace.errors_to_ref``.
    norm_spec : NormSpec
        Norm for residuals and reference distances.
    """
    check_number("max_iter", max_iter, int, 1, strict=False)
    check_number("res_tol", res_tol, lower=0.0, strict=False)
    x = np.asarray(x0, dtype=float).reshape(-1).copy()
    if x.shape != (op.dim,):
        raise ValueError(f"x0 has shape {x.shape}, operator expects ({op.dim},)")
    if ref is not None:
        ref = np.array(ref, dtype=float).reshape(-1)
        if ref.shape != (op.dim,):
            raise ValueError("reference vector dimension mismatch")

    # resolved once; it takes an (n,) vector or a (k, n) stack
    dist = _norm_fn(norm_spec, x.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        x, residuals, errors, stop = _run(op, x, max_iter, res_tol, ref, dist)

    return IterationTrace(
        x_final=x,
        residuals=residuals,
        norm_spec=norm_spec,
        stop_reason=stop or StopReason.MAX_ITER,
        errors_to_ref=errors,
        label=op.label,
    )


def _stop(k, r, guard, res_tol, x_k):
    """The stop rule at step k, whose residual is ``r`` and iterate ``x_k``:
    DIVERGED, RESIDUAL_TOL, or None to go on.

    A non-finite iterate raises NonFiniteIterateError.  A non-finite entry
    of the iterate makes the residual non-finite whatever the previous
    iterate holds, so a finite ``r`` clears it without a scan.  ``guard`` is
    the divergence bound, read from step 2 on.
    """
    if not math.isfinite(r) and not np.isfinite(x_k).all():
        raise NonFiniteIterateError(k)
    if k > 1 and (r > guard or r == math.inf):
        return StopReason.DIVERGED
    if r <= res_tol:
        return StopReason.RESIDUAL_TOL
    return None


def _run(op, x, max_iter, res_tol, ref, dist):
    """picard's loop: blocks of steps whose iterates fill the rows of one
    buffer.

    A map with a block kernel ``walk`` writes a block in place in one call,
    and its residuals and errors to ``ref`` are one stack norm of one
    difference buffer per block, whose rows are whole buffer rows minus
    whole buffer rows or [ref; 1]; any other map is called once a step, and
    its errors are one stack norm per block.  An ``augmented`` walk's rows
    are n + 1 wide and end in a 1, set once here; the iterates are the
    rows' first n columns, whatever the width.  Returns the last iterate,
    the residuals, the errors (None without ``ref``) and the stop reason
    (None at ``max_iter``).
    """
    walk = getattr(op.fn, "walk", None)
    augmented = getattr(walk, "augmented", False)
    n = x.size
    rows = np.empty((min(ERROR_BLOCK, max_iter) + 1, n + 1 if augmented else n))
    rows[:, n:] = 1.0
    iterates = rows[:, :n]
    iterates[0] = x
    views = list(rows)  # row views, indexed without numpy's dispatch
    heads = list(iterates) if augmented else views  # the iterates
    if walk is not None:
        # a block's residuals, then its errors to ref, stacked, as differences
        # of whole rows: an augmented row's trailing 1 takes away that of the
        # row before it, or of [ref; 1], and the norm reads the first n columns
        stacked = 1 if ref is None else 2
        diffs = np.empty((stacked * (len(rows) - 1), rows.shape[1]))
        wide_ref = np.append(ref, 1.0) if augmented and ref is not None else ref
    residuals = []
    errors = None if ref is None else [dist(iterates[:1] - ref)]
    fn, shape, what = op.fn, x.shape, f"operator '{op.label}'"
    k = 0
    guard = stop = None
    while stop is None and k < max_iter:
        if walk is not None:
            span = min(len(rows) - 1, max(BLOCK_MIN, k // BLOCK_SHARE), max_iter - k)
            walk(views[:span], heads[1:span + 1])
            steps = rows[1:span + 1]
            np.subtract(steps, rows[:span], out=diffs[:span])
            if ref is not None:
                np.subtract(steps, wide_ref, out=diffs[span:2 * span])
            norms = dist(diffs[:stacked * span, :n])
            r = norms[:span]
            if k == 0:
                guard = DIVERGENCE_FACTOR * (1.0 + float(r[0]))
            # _stop can act only on a non-finite residual, one above the guard
            # or one at res_tol; at step 1 an infinite residual makes the
            # guard infinite too, so non-finiteness is flagged by itself
            flagged = ~np.isfinite(r) | (r > guard) | (r <= res_tol)
            height = span
            for j in flagged.nonzero()[0].tolist():
                stop = _stop(k + j + 1, float(r[j]), guard, res_tol, heads[j + 1])
                if stop is not None:
                    height = j + 1
                    break
            r = r[:height]
            if errors is not None:
                errors.append(norms[span:span + height])
        else:
            # the map is handed x0's copy, then its own images: never a row,
            # which later steps overwrite
            r = []
            for step, row in enumerate(views[1:max_iter - k + 1], k + 1):
                x_next = _image(fn(x), shape, what)
                row[...] = x_next
                r_step = dist(x_next - x)
                if step == 1:
                    guard = DIVERGENCE_FACTOR * (1.0 + r_step)
                stop = _stop(step, r_step, guard, res_tol, x_next)
                r.append(r_step)
                x = x_next
                if stop is not None:
                    break
            height = len(r)
            if errors is not None:
                errors.append(dist(rows[1:height + 1] - ref))
        residuals.append(r)
        k += height
        rows[0] = rows[height]
    return (iterates[0].copy(), np.concatenate(residuals),
            None if errors is None else np.concatenate(errors), stop)


def _report_dict(report):
    """A report's fields in declaration order, its verdict as "PASS"/"FAIL"."""
    payload = {f.name: getattr(report, f.name) for f in fields(report)}
    if "verdict" in payload:
        payload["verdict"] = "PASS" if payload["verdict"] else "FAIL"
    return payload


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

    to_dict = _report_dict


def _least_squares_line(xs, ys):
    # numpy sums, not BLAS dot products: a BLAS that splits a long product
    # across threads rounds it differently at each thread count
    xbar, ybar = np.mean(xs), np.mean(ys)
    dx = xs - xbar
    denom = float(np.sum(dx * dx))
    slope = float(np.sum(dx * (ys - ybar))) / denom
    intercept = ybar - slope * xbar
    fitted = slope * xs + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - ybar) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-30 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return slope, intercept, min(max(r2, 0.0), 1.0)


def _tail(seq, tail_start, allow_empty):
    """``(tail_start, tail, ks)`` of a sequence indexed from k = 1: the
    start, the midpoint when None, the tail ``seq[tail_start:]`` and its
    indices k as floats.  A start below 0 or past the last entry raises
    ``ValueError``; with ``allow_empty`` the start at the end, whose tail
    is empty, is admitted.
    """
    seq = np.asarray(seq, dtype=float)
    if tail_start is None:
        tail_start = len(seq) // 2
    last = len(seq) if allow_empty else len(seq) - 1
    if check_number("tail_start", tail_start, int, 0, strict=False) > last:
        raise ValueError("tail_start outside the sequence")
    ks = np.arange(tail_start + 1, len(seq) + 1, dtype=float)
    return tail_start, seq[tail_start:], ks


def fit_rate(seq, model, tail_start=None):
    """Fit a decay model to the tail of a sequence.

    The sequence is indexed from k = 1.  ``tail_start`` defaults to the
    midpoint, since asymptotic rates are polluted by early iterates.  Zeros
    truncate the tail at the first nonpositive entry; at least 5 positive
    points must remain.  ``model`` is one of ``fit_rate.models``.
    """
    tail_start, tail, ks = _tail(seq, tail_start, allow_empty=False)
    nonpositive = np.nonzero(tail <= 0.0)[0]
    if nonpositive.size:
        tail, ks = tail[: nonpositive[0]], ks[: nonpositive[0]]
    if len(tail) < 5:
        raise ValueError("tail has fewer than 5 positive points")
    model = model.strip().lower()
    if model == "polynomial":
        slope, _, r2 = _least_squares_line(np.log(ks), np.log(tail))
        return RateFit("polynomial", -slope, None, r2, tail_start)
    if model == "exponential":
        slope, _, r2 = _least_squares_line(ks, np.log(tail))
        return RateFit("exponential", None, float(np.exp(slope)), r2, tail_start)
    raise ValueError(f"unknown model {model!r}")


# the names fit_rate accepts; the CLI checks a config's model against them
fit_rate.models = ("exponential", "polynomial")


@dataclass(eq=False)
class LittleOReport:
    """Finite-sample proxy for residual = o(k^(-1/gamma)).

    The normalized sequence k^(1/gamma) * residual_k over the tail must trend
    downward (negative regression slope) and finish at no more than half its
    starting value.  This is a falsifiable stand-in for a statement about
    infinite tails; it is recorded as such, not as the statement itself.
    A tail of fewer than two points shows no trend, cannot refute the
    claim, and passes.
    """

    gamma: float
    slope: float
    first_value: float
    last_value: float
    tail_start: int
    verdict: bool
    note: str = "finite-sample proxy for a little-o tail claim"

    to_dict = _report_dict


def little_o_proxy(seq, gamma, tail_start=None):
    """Evaluate the little-o proxy on a residual sequence (1-indexed).

    ``tail_start`` defaults to half the length; a value below 0 or above
    ``len(seq)`` raises ``ValueError``.
    """
    check_number("gamma", gamma)
    tail_start, tail, ks = _tail(seq, tail_start, allow_empty=True)
    normalized = ks ** (1.0 / gamma) * tail
    if len(normalized) and not np.any(normalized):
        return LittleOReport(gamma, 0.0, 0.0, 0.0, tail_start, True,
                             note="tail already absorbed at zero")
    if len(normalized) < 2:
        # no trend can be read off fewer than two points
        first = float(normalized[0]) if len(normalized) else 0.0
        return LittleOReport(gamma, 0.0, first, first, tail_start, True,
                             note="tail too short to refute")
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

    to_dict = _report_dict


def _reference_errors(trace, check):
    """``trace.errors_to_ref``, or a ``ValueError`` naming the missing
    reference when the trace was run without one."""
    if trace.errors_to_ref is None:
        raise ValueError(f"{check} check needs a trace run with a reference (ref)")
    return trace.errors_to_ref


def check_residual_summability(trace, gamma, mu):
    """Check that every partial sum of mu * residual^gamma stays below
    the gamma-power of the initial distance to the fixed point.

    The fixed point is the trace's reference: the distance is
    ``trace.errors_to_ref[0]``, so the trace must have been run with
    ``ref``.  The partial sums are nondecreasing, so the worst margin is
    attained at the last one; it is reported together with the verdict,
    which allows ``SUMMABILITY_TOL`` of rounding.
    """
    check_number("gamma", gamma)
    check_number("mu", mu)
    errors = _reference_errors(trace, "summability")
    # numpy's power overflows to inf, where a Python float's would raise
    bound = float(np.power(errors[0], gamma))
    partial = float(np.sum(mu * trace.residuals**gamma))
    margin = bound + SUMMABILITY_TOL - partial
    return SummabilityReport(
        gamma=gamma,
        mu=mu,
        bound=bound,
        max_partial_sum=partial,
        worst_margin=margin,
        tol=SUMMABILITY_TOL,
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

    to_dict = _report_dict


def check_sandwich(trace, mu):
    """Verify the two-sided tail-sum comparison along a converged trace.

    Requires a trace stopped by the residual tolerance and run with ``ref``,
    the fixed point: its ``errors_to_ref`` are the errors compared.  ``mu``
    lies in (0, 1] and is taken from an exponent-1 certificate.  Each side
    allows ``SANDWICH_TOL`` of rounding.
    """
    if not trace.converged:
        raise ValueError("sandwich check needs a trace stopped by the residual tolerance")
    if not 0 < mu <= 1.0 + 1e-9:
        raise ValueError("mu must lie in (0, 1]")
    mu = min(mu, 1.0)
    errors = _reference_errors(trace, "sandwich")

    # a trace stopped by the residual tolerance holds at least one step; a
    # last residual of 0 is exact absorption on a fixed point, which leaves
    # no remainder to estimate
    r = trace.residuals
    conclusive, remainder, rho, r2 = not r[-1] > 0.0, 0.0, None, None
    if not conclusive:
        try:
            fit = fit_rate(r, "exponential")
            rho, r2 = fit.rho, fit.r_squared
            if 0.0 < rho < 1.0 and r2 >= SANDWICH_FIT_R2:
                remainder = float(r[-1]) * rho / (1.0 - rho)
                conclusive = True
        except ValueError:
            pass

    # tails[k] = sum of residuals j >= k plus the estimated remainder
    tails = np.cumsum(r[::-1])[::-1] + remainder
    lower_worst = float(np.min(errors[:-1] - mu * tails))
    upper_worst = float(np.min(tails - errors[:-1]))
    verdict = bool(lower_worst >= -SANDWICH_TOL
                   and (upper_worst >= -SANDWICH_TOL or not conclusive))
    return SandwichReport(
        mu=mu,
        lower_worst=lower_worst,
        upper_worst=upper_worst if conclusive else None,
        remainder=remainder,
        rho_fit=rho,
        fit_r_squared=r2,
        conclusive=conclusive,
        tol=SANDWICH_TOL,
        verdict=verdict,
    )


def recurrence_bound(a_start, p, b, start, k):
    """Closed-form decay bound for a_{j+1} <= a_j (1 - b_j a_j^p).

    Returns ``(a_start^(-p) + p * sum(b[start:k]))^(-1/p)`` for integers
    k > start >= 0 and weights b >= 0 (NaN rejected); a vanished ``a_start``
    short-circuits to 0 since the sequence has already converged.
    """
    if check_number("a_start", a_start, lower=0.0, strict=False) == 0.0:
        return 0.0
    check_number("p", p)
    check_number("start", start, int, 0, strict=False)
    check_number("k", k, int, 0, strict=False)
    if k <= start:
        raise ValueError("k must exceed start")
    b = np.asarray(b, dtype=float)
    if len(b) < k:
        raise ValueError("b does not cover indices start..k-1")
    window = b[start:k]
    if not np.all(window >= 0):
        raise ValueError("b must be nonnegative")
    return float(_decay_bound(a_start, p, p * np.sum(window)))


def _decay_bound(a_start, p, growth):
    """(a_start^(-p) + growth)^(-1/p), the closed-form bound for p > 0,
    where ``growth`` is p times the weights summed since the start."""
    return (a_start ** (-p) + growth) ** (-1.0 / p)


@dataclass(eq=False)
class RecurrenceReport:
    """Elementwise audit of the decay recurrence and its closed-form bound."""

    p: float
    mu: float
    premise_from: Optional[int]
    n_checked: int
    violations: list
    verdict: bool


def verify_recurrence_bound(seq, p, mu, tol=1e-12):
    """Check a sequence against a_{k+1} <= a_k (1 - mu a_k^p) and its bound.

    Finds the first index from which the recurrence premise holds through the
    end of the sequence, then verifies the closed-form bound at every later
    index (geometric decay when p == 0), in time linear in the sequence
    length.  Every violation is reported.
    """
    check_number("mu", mu)
    check_number("p", p, lower=0.0, strict=False)
    check_number("tol", tol, lower=0.0, strict=False)
    seq = np.asarray(seq, dtype=float)
    if not np.all(seq >= 0):
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
        bounds = _decay_bound(a_start, p, p * mu * steps)
    over = np.nonzero(seq[start + 1:] > bounds + tol)[0].tolist()
    violations = [(start + 1 + j, float(seq[start + 1 + j]), float(bounds[j]))
                  for j in over]
    return RecurrenceReport(p, mu, start, len(steps), violations, not violations)
