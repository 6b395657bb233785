"""Sampled verification and estimation of operator-class properties.

A certificate produced here is sampled evidence, never a proof: a PASS means
the property survived every sampled pair, a FAIL carries a concrete witness
that refutes the property up to the recorded tolerance.

Every sampled claim reduces one norm triple per sampled row:
(|x-y|, |Tx-Ty|, |(x-Tx)-(y-Ty)|) for a pair, and (|x-xhat|, |Tx-xhat|, |x-Tx|)
for a point measured against the fixed-point hint xhat.  One kernel applies
T once per stack of sampled rows (the operator falls back to one call per row
for a callable without stack support) and takes each term as one norm over
the stacked rows; slacks and estimates are array reductions over the triple,
and ``estimate_min_gamma`` bisects over a single evaluation.  ``gan_slack``
and ``Certificate.recompute_slack`` pass their pair through the same kernel
as a batch of one.  A row's image and norms do not depend on the rows stacked
with it, so a witness reproduces its slack bit for bit and the minimum does
not depend on the order in which rows are evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .metrics import L2, NormSpec, norm

__all__ = [
    "SamplingPlan",
    "Certificate",
    "RegionGrid",
    "sample_pairs",
    "sample_points",
    "gan_slack",
    "certify",
    "estimate_mu",
    "estimate_min_gamma",
    "estimate_fp_ratio",
    "psi",
    "mu_hat",
    "composition_mu",
    "range_region",
    "EstimateError",
    "PROPERTIES",
    "DEFAULT_TOL",
    "DENOMINATOR_CUTOFF",
]

PROPERTIES = ("gan", "nonexpansive", "contractive", "fp_contractive", "holder_regular")

# Measured against the fixed-point hint at single points rather than on pairs.
_POINT_PROPERTIES = ("fp_contractive", "holder_regular")

# Absolute slack tolerance separating PASS from FAIL; double precision leaves
# roughly 1e-12 noise in the gamma-powered norm combinations at unit scale.
DEFAULT_TOL = 1e-10

# Pairs the operator fixes carry no information about mu; their quotient is 0/0.
DENOMINATOR_CUTOFF = 1e-14

SAMPLED_EVIDENCE_NOTE = "sampled evidence: PASS reports failure to refute, not a proof"


@dataclass(frozen=True)
class SamplingPlan:
    """How to draw sample pairs: Gaussian clouds at several radius scales.

    The clouds are centered on the operator's fixed-point hint, or on the
    origin when it has none.  The default scales reach 1e3 because some
    properties only fail far from the center; plans used to probe
    asymptotics should extend them.  When the operator carries a fixed-point
    hint, extra pairs straddling the hint are added at every scale.
    """

    n_pairs: int = 250
    radius_scales: tuple = (0.1, 1.0, 10.0, 1e3)
    seed: int = 0

    def __post_init__(self):
        if self.n_pairs < 1:
            raise ValueError("n_pairs must be at least 1")
        if len(self.radius_scales) == 0 or any(r <= 0 for r in self.radius_scales):
            raise ValueError("radius_scales must be nonempty and positive")


def _plan_center(dim, hint):
    return np.zeros(dim) if hint is None else hint


def _straddle_count(plan):
    return max(1, plan.n_pairs // 10)


def sample_pairs(plan, dim, hint=None):
    """Seed-ordered list of sample pairs as two stacked arrays.

    At every radius scale, ``n_pairs`` Gaussian pairs are drawn around the
    hint, or around the origin without one; with a hint, pairs placed on
    opposite sides of it are appended so that behavior at the fixed point is
    probed.
    """
    rng = np.random.default_rng(plan.seed)
    center = _plan_center(dim, hint)
    xs, ys = [], []
    for scale in plan.radius_scales:
        xs.append(center + scale * rng.standard_normal((plan.n_pairs, dim)))
        ys.append(center + scale * rng.standard_normal((plan.n_pairs, dim)))
    if hint is not None:
        k = _straddle_count(plan)
        for scale in plan.radius_scales:
            u = rng.standard_normal((k, dim))
            v = rng.standard_normal((k, dim))
            xs.append(hint + scale * u)
            ys.append(hint - scale * v)
    return np.vstack(xs), np.vstack(ys)


def sample_points(plan, dim, hint=None):
    """Seed-ordered single points, for properties measured against a fixed point."""
    rng = np.random.default_rng(plan.seed)
    center = _plan_center(dim, hint)
    blocks = [
        center + scale * rng.standard_normal((plan.n_pairs, dim))
        for scale in plan.radius_scales
    ]
    return np.vstack(blocks)


@dataclass(eq=False)
class Certificate:
    """Outcome of a sampled verification run.

    The witness pair attains ``min_slack`` and can be re-evaluated through
    :meth:`recompute_slack`; for the point-based properties the second
    witness slot holds the fixed-point hint.
    """

    property_name: str
    verdict: str
    min_slack: float
    witness_x: np.ndarray
    witness_y: np.ndarray
    n_checked: int
    n_skipped: int
    tol: float
    norm_spec: NormSpec
    gamma: Optional[float] = None
    mu: Optional[float] = None
    rho: Optional[float] = None
    seed: int = 0
    notes: tuple = (SAMPLED_EVIDENCE_NOTE,)

    @property
    def passed(self):
        return self.verdict == "PASS"

    def recompute_slack(self, op):
        """Re-evaluate the witness slack; certificates must reproduce it."""
        xs = np.asarray(self.witness_x, dtype=float)[None]
        ys = np.asarray(self.witness_y, dtype=float)[None]
        fixed = self.property_name in _POINT_PROPERTIES
        triple = _triples(op, xs, ys, self.norm_spec, fixed)
        slacks = _slacks(self.property_name, triple, self.gamma, self.mu, self.rho)
        return float(slacks[0])

    def to_dict(self):
        payload = {
            "property": self.property_name,
            "verdict": self.verdict,
            "min_slack": self.min_slack,
            "witness_x": [float(v) for v in self.witness_x],
            "witness_y": [float(v) for v in self.witness_y],
            "n_checked": self.n_checked,
            "n_skipped": self.n_skipped,
            "tol": self.tol,
            "norm": self.norm_spec.kind,
            "gamma": self.gamma,
            "mu": self.mu,
            "rho": self.rho,
            "seed": self.seed,
            "evidence": "sampled",
            "notes": list(self.notes),
        }
        if self.norm_spec.kind == "weighted":
            payload["norm_weight"] = [
                [float(v) for v in row] for row in self.norm_spec.weight
            ]
        return payload


class EstimateError(ValueError):
    """Raised when every sampled pair is uninformative for the estimate."""


def _normalize_property(name):
    key = name.strip().lower().replace("-", "_")
    aliases = {
        "gan": "gan",
        "nonexpansive": "nonexpansive",
        "contractive": "contractive",
        "fpcontractive": "fp_contractive",
        "fp_contractive": "fp_contractive",
        "holderregular": "holder_regular",
        "holder_regular": "holder_regular",
        "holder": "holder_regular",
    }
    if key not in aliases:
        raise ValueError(f"unknown property {name!r}; expected one of {PROPERTIES}")
    return aliases[key]


def gan_slack(op, x, y, gamma, mu, norm_spec=L2):
    """Pointwise slack of the generalized-averaged-nonexpansive inequality.

    Returns ``|x-y|^g - |Tx-Ty|^g - mu * |(I-T)x-(I-T)y|^g``; the inequality
    holds at this pair exactly when the slack is nonnegative.  The pair is
    evaluated as a batch of one by the kernel behind :func:`certify`, so the
    value equals the sampled slack of the same pair bit for bit.
    """
    if gamma <= 0 or mu <= 0:
        raise ValueError("gamma and mu must be positive")
    xs = np.asarray(x, dtype=float)[None]
    ys = np.asarray(y, dtype=float)[None]
    return float(_slacks("gan", _triples(op, xs, ys, norm_spec), gamma, mu)[0])


def _triples(op, xs, ys, norm_spec, fixed=False):
    """Norm triples (|x-y|, |Tx-Ty|, |(x-Tx)-(y-Ty)|) of stacked rows.

    T is applied once per stack, to ``xs`` and to ``ys``.  With ``fixed``
    every y is the fixed-point hint and Ty is taken to be y, so the triple is
    (|x-y|, |Tx-y|, |x-Tx|).
    """
    tx = op(xs)
    ty = ys if fixed else op(ys)
    return (
        norm(xs - ys, norm_spec),
        norm(tx - ty, norm_spec),
        norm((xs - tx) - (ys - ty), norm_spec),
    )


def _slacks(prop, triple, gamma=None, mu=None, rho=None):
    """Slack of ``prop`` at every row of a norm triple; negative refutes it."""
    d, a, b = triple
    if prop == "gan":
        return d**gamma - a**gamma - mu * b**gamma
    if prop == "nonexpansive":
        return d - a
    if prop in ("contractive", "fp_contractive"):
        return rho * d - a
    if prop == "holder_regular":
        return mu * b**gamma - d
    raise ValueError(f"unknown property {prop!r}")


def _sample(op, plan, norm_spec, points):
    """Sampled rows ``(xs, ys)``, their norm triple, and the rows dropped.

    Pairs come from :func:`sample_pairs`.  With ``points`` they come from
    :func:`sample_points` with the hint as every y, and points within
    DENOMINATOR_CUTOFF of the hint are dropped.
    """
    hint = op.fixed_point_hint
    if not points:
        xs, ys = sample_pairs(plan, op.dim, hint)
        return xs, ys, _triples(op, xs, ys, norm_spec), 0
    xs = sample_points(plan, op.dim, hint)
    ys = np.broadcast_to(hint, xs.shape)
    triple = _triples(op, xs, ys, norm_spec, fixed=True)
    keep = triple[0] > DENOMINATOR_CUTOFF
    if not np.any(keep):
        raise EstimateError("every sampled point coincided with the fixed point")
    kept = tuple(t[keep] for t in triple)
    return xs[keep], ys[keep], kept, int(np.count_nonzero(~keep))


def _check_params(prop, gamma, mu, rho):
    if prop in ("gan", "holder_regular"):
        if gamma is None or gamma <= 0:
            raise ValueError(f"property {prop!r} needs a positive gamma")
        if mu is None or mu <= 0:
            raise ValueError(f"property {prop!r} needs a positive mu")
    if prop in ("contractive", "fp_contractive"):
        if rho is None or rho <= 0:
            raise ValueError(f"property {prop!r} needs a positive rho")


def _certificate(prop, sample, gamma, mu, rho, norm_spec, plan, tol):
    xs, ys, triple, skipped = sample
    slacks = _slacks(prop, triple, gamma, mu, rho)
    worst = int(np.argmin(slacks))
    min_slack = float(slacks[worst])
    return Certificate(
        property_name=prop,
        verdict="PASS" if min_slack >= -tol else "FAIL",
        min_slack=min_slack,
        witness_x=xs[worst].copy(),
        witness_y=ys[worst].copy(),
        n_checked=int(slacks.size),
        n_skipped=skipped,
        tol=tol,
        norm_spec=norm_spec,
        gamma=gamma,
        mu=mu,
        rho=rho,
        seed=plan.seed,
    )


def certify(op, prop, params, norm_spec=L2, plan=None, tol=DEFAULT_TOL):
    """Probe an operator-class inequality on sampled pairs.

    Parameters
    ----------
    op : Operator
        The map under test.  Properties measured against the fixed-point set
        ('fp_contractive', 'holder_regular') require ``op.fixed_point_hint``;
        the distance to the fixed-point set is taken to the hint.
    prop : str
        One of 'gan', 'nonexpansive', 'contractive', 'fp_contractive',
        'holder_regular'.
    params : dict
        Property parameters: gamma/mu for 'gan' and 'holder_regular', rho
        for the contractive classes.
    norm_spec : NormSpec
        Norm in which all distances are measured.
    plan : SamplingPlan
        Sampling layout; defaults to ``SamplingPlan()``.
    tol : float
        Absolute slack tolerance; verdict is PASS iff min slack >= -tol.

    Returns
    -------
    Certificate
        Worst-case slack, the witness attaining it, and bookkeeping.
    """
    prop = _normalize_property(prop)
    plan = plan or SamplingPlan()
    params = dict(params or {})
    gamma = params.get("gamma")
    mu = params.get("mu")
    rho = params.get("rho")
    _check_params(prop, gamma, mu, rho)
    points = prop in _POINT_PROPERTIES
    if points and op.fixed_point_hint is None:
        raise ValueError(f"property {prop!r} requires a fixed_point_hint")
    sample = _sample(op, plan, norm_spec, points)
    return _certificate(prop, sample, gamma, mu, rho, norm_spec, plan, tol)


def estimate_mu(op, gamma, norm_spec=L2, plan=None):
    """Empirical upper bound on the admissible mu at a given exponent.

    Evaluates ``(|x-y|^g - |Tx-Ty|^g) / |(I-T)x-(I-T)y|^g`` over the plan and
    returns the infimum.  Pairs whose denominator is at most 1e-14 are
    skipped (they are fixed by the displacement map and carry no
    information); if every pair is skipped an EstimateError is raised.  Any
    nonpositive quotient collapses the estimate to 0.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    plan = plan or SamplingPlan()
    _, _, (d, a, b), _ = _sample(op, plan, norm_spec, points=False)
    denom = b**gamma
    eligible = denom > DENOMINATOR_CUTOFF
    if not np.any(eligible):
        raise EstimateError(
            "operator is indistinguishable from the identity on all sampled pairs"
        )
    quotients = (d[eligible] ** gamma - a[eligible] ** gamma) / denom[eligible]
    low = float(np.min(quotients))
    return 0.0 if low <= 0.0 else low


def estimate_min_gamma(op, mu, norm_spec=L2, plan=None, bracket=(0.1, 2.0),
                       return_certificate=False):
    """Bisect for the smallest exponent the sampled certificate accepts.

    Requires a valid bracket: certification must pass at ``bracket[1]`` and
    fail at ``bracket[0]``.  Validity is monotone in the exponent when
    mu >= 1; below that it is a sampling heuristic, which is noted on the
    certificate returned with ``return_certificate=True``.  The resolved
    exponent has width 1e-3 and can only refute exponents whose
    violations are visible at the plan's radius scales.  The plan's norm
    triples are evaluated once and every bisection step reuses them, so the
    returned certificate equals ``certify(op, 'gan', {'gamma': hi, 'mu': mu},
    norm_spec, plan)``.
    """
    plan = plan or SamplingPlan()
    lo, hi = bracket
    if not 0 < lo < hi:
        raise ValueError("bracket must satisfy 0 < lo < hi")
    _check_params("gan", hi, mu, None)
    sample = _sample(op, plan, norm_spec, points=False)

    def passes(gamma):
        return np.min(_slacks("gan", sample[2], gamma, mu)) >= -DEFAULT_TOL

    if not passes(hi):
        raise ValueError(f"bracket precondition violated: gamma={hi} does not pass")
    if passes(lo):
        raise ValueError(f"bracket precondition violated: gamma={lo} passes")
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            hi = mid
        else:
            lo = mid
    if not return_certificate:
        return hi
    cert = _certificate("gan", sample, hi, mu, None, norm_spec, plan, DEFAULT_TOL)
    if mu < 1:
        cert.notes = cert.notes + (
            "mu < 1: monotone validity in the exponent assumed as a sampling heuristic",
        )
    return hi, cert


def estimate_fp_ratio(op, norm_spec=L2, plan=None):
    """Largest sampled ratio |Tx - xhat| / |x - xhat| against the hint.

    This is the empirical contraction factor toward the fixed-point set; no
    closed form is available in general, so the maximum ratio itself is
    reported.
    """
    plan = plan or SamplingPlan()
    if op.fixed_point_hint is None:
        raise ValueError("estimate_fp_ratio requires a fixed_point_hint")
    _, _, (d, a, _), _ = _sample(op, plan, norm_spec, points=True)
    return float(np.max(a / d))


def psi(alpha, gamma):
    """The ratio (1 - alpha^g) / (1 - alpha)^g on [0, 1)."""
    if not 0 <= alpha < 1:
        raise ValueError("alpha must lie in [0, 1)")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return (1.0 - alpha**gamma) / (1.0 - alpha) ** gamma


def mu_hat(rho, gamma):
    """Admissible mu for a rho-contraction: (1 - rho^g) / (1 + rho)^g."""
    if not 0 < rho < 1:
        raise ValueError("rho must lie in (0, 1)")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return (1.0 - rho**gamma) / (1.0 + rho) ** gamma


def composition_mu(mu1, mu2, gamma):
    """Constant surviving composition: 2^(1-g) * min(mu1, mu2), for g >= 1."""
    if mu1 <= 0 or mu2 <= 0:
        raise ValueError("mu1 and mu2 must be positive")
    if gamma < 1:
        raise ValueError("composition constant requires gamma >= 1")
    return 2.0 ** (1.0 - gamma) * min(mu1, mu2)


@dataclass(eq=False)
class RegionGrid:
    """Boolean membership grid for the admissible range of T at a point.

    ``mask[i, j]`` is the cell whose center offsets from the fixed point are
    ``(offsets1[j], offsets2[i])``: rows scan the second coordinate from low
    to high, columns the first.  Offsets are stored relative to ``xhat``.
    """

    mask: np.ndarray
    x: np.ndarray
    xhat: np.ndarray
    gamma: float
    mu: float
    bounds: tuple
    resolution: int
    offsets1: np.ndarray = field(repr=False, default=None)
    offsets2: np.ndarray = field(repr=False, default=None)


def _symmetric_offsets(radius, resolution):
    # Cell centers over [-radius, radius]; antisymmetrized so that reflected
    # indices hold exactly negated coordinates in floating point.
    raw = (np.arange(resolution) + 0.5) * (2.0 * radius / resolution) - radius
    return 0.5 * (raw - raw[::-1])


def range_region(x, xhat, gamma, mu, resolution=201):
    """Membership grid of { y : |y-xhat|^g + mu*|y-x|^g <= |x-xhat|^g }.

    The grid covers the square circumscribing the ball around ``xhat`` whose
    radius is the distance to ``x``, with ``resolution`` cells per axis; a
    cell is marked true when its center satisfies the inequality (boundary
    included).  Distances are Euclidean.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    xhat = np.asarray(xhat, dtype=float).reshape(-1)
    if x.shape != (2,) or xhat.shape != (2,):
        raise ValueError("range_region is defined for 2-vectors")
    if gamma <= 0 or mu <= 0:
        raise ValueError("gamma and mu must be positive")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    d = x - xhat
    radius = float(np.linalg.norm(d))
    if radius == 0.0:
        raise ValueError("x and xhat must differ")

    offs1 = _symmetric_offsets(radius, resolution)
    offs2 = _symmetric_offsets(radius, resolution)
    o1, o2 = np.meshgrid(offs1, offs2)  # rows scan the second coordinate
    half = 0.5 * gamma
    lhs = (o1**2 + o2**2) ** half + mu * ((o1 - d[0]) ** 2 + (o2 - d[1]) ** 2) ** half
    rhs = (d[0] ** 2 + d[1] ** 2) ** half
    mask = lhs <= rhs
    bounds = (
        float(xhat[0] - radius),
        float(xhat[0] + radius),
        float(xhat[1] - radius),
        float(xhat[1] + radius),
    )
    return RegionGrid(
        mask=mask,
        x=x,
        xhat=xhat,
        gamma=float(gamma),
        mu=float(mu),
        bounds=bounds,
        resolution=int(resolution),
        offsets1=offs1,
        offsets2=offs2,
    )
