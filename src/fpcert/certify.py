"""Sampled verification and estimation of operator-class properties.

A certificate produced here is sampled evidence, never a proof: a PASS means
the property survived every sampled pair, a FAIL carries a concrete witness
that refutes the property up to the recorded tolerance.

Every sampled claim reduces one norm triple per sampled row:
(|x-y|, |Tx-Ty|, |(x-Tx)-(y-Ty)|) for a pair, and (|x-xhat|, |Tx-xhat|, |x-Tx|)
for a point measured against the fixed-point hint xhat.  One kernel applies
T once per stack of sampled rows (the operator falls back to one call per row
for a callable without stack support) and holds the triple as the rows of one
(3, k) array; slacks and estimates are array reductions over it.  A GAN
slack is one power pass over the whole triple, so each step of
``estimate_min_gamma``'s bisection over the single evaluation costs one
pass, and its certificate is read off the slacks of its last passing step.
``gan_slack`` and ``Certificate.recompute_slack`` pass their pair through
the same kernel as a batch of one.  A row's image and norms do not depend on
the rows stacked with it, so a witness reproduces its slack bit for bit and
the minimum does not depend on the order in which rows are evaluated.

A stack of rows of dimension n is evaluated in blocks of at most
``TRIPLE_BLOCK // n`` rows.  A block's three terms are written into one
preallocated (3 * rows, n) buffer and take one stack norm, written into the
triple, so the temporaries of a block stay near ``TRIPLE_BLOCK`` elements
whatever the sample size.  Since rows are independent, the triple has the
same bits however the rows are blocked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .metrics import L2, NormSpec, _norm_fn, check_number, norm

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
    "normalize_property",
    "PROPERTIES",
    "DEFAULT_TOL",
    "DENOMINATOR_CUTOFF",
    "TRIPLE_BLOCK",
]


@dataclass(frozen=True)
class _Property:
    """One sampled property: the params it needs positive, whether it is
    measured at single points against the fixed-point hint rather than on
    pairs, its slack on a (3, k) norm triple (d, a, b) with the params
    (gamma, mu, rho), negative where a row refutes it, and the other names
    it accepts."""

    needs: tuple
    points: bool
    slack: Callable
    aliases: tuple = ()


def _gan(powers, mu):
    """The GAN slack d^g - a^g - mu b^g of the powers (d^g, a^g, b^g)."""
    return powers[0] - powers[1] - mu * powers[2]


PROPERTIES = {
    "gan": _Property(("gamma", "mu"), False,
                     lambda t, gamma, mu, rho: _gan(t**gamma, mu)),
    "nonexpansive": _Property((), False, lambda t, gamma, mu, rho: t[0] - t[1]),
    "contractive": _Property(("rho",), False,
                             lambda t, gamma, mu, rho: rho * t[0] - t[1]),
    "fp_contractive": _Property(("rho",), True,
                                lambda t, gamma, mu, rho: rho * t[0] - t[1],
                                ("fpcontractive",)),
    "holder_regular": _Property(("gamma", "mu"), True,
                                lambda t, gamma, mu, rho: mu * t[2]**gamma - t[0],
                                ("holderregular", "holder")),
}

# Absolute slack tolerance separating PASS from FAIL; double precision leaves
# roughly 1e-12 noise in the gamma-powered norm combinations at unit scale.
DEFAULT_TOL = 1e-10

# Pairs the operator fixes carry no information about mu; their quotient is 0/0.
DENOMINATOR_CUTOFF = 1e-14

# Elements (rows times dimension) of one block of a stacked norm triple.
TRIPLE_BLOCK = 16384

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
        check_number("n_pairs", self.n_pairs, int, 1, strict=False)
        check_number("seed", self.seed, int, 0, strict=False)
        if len(self.radius_scales) == 0:
            raise ValueError("radius_scales must be nonempty")
        for scale in self.radius_scales:
            check_number("radius_scales", scale)


def sample_pairs(plan, dim, hint=None):
    """Seed-ordered list of sample pairs as two stacked arrays.

    At every radius scale, ``n_pairs`` Gaussian pairs are drawn around the
    hint, or around the origin without one; with a hint, pairs placed on
    opposite sides of it are appended so that behavior at the fixed point is
    probed.
    """
    scales = plan.radius_scales
    blocks = [(out, plan.n_pairs, scale) for scale in scales for out in (0, 1)]
    if hint is not None:
        k = max(1, plan.n_pairs // 10)
        blocks += [(out, k, sign * scale) for scale in scales
                   for out, sign in ((0, 1.0), (1, -1.0))]
    return tuple(_draw(plan, dim, hint, blocks))


def sample_points(plan, dim, hint=None):
    """Seed-ordered single points, for properties measured against a fixed point."""
    blocks = [(0, plan.n_pairs, scale) for scale in plan.radius_scales]
    return _draw(plan, dim, hint, blocks)[0]


def _draw(plan, dim, hint, blocks):
    """The (rows, dim) arrays a plan's draws fill, block by block in draw order.

    Each block (out, count, scale) takes the next ``count`` rows of array
    ``out``, fills them with ``rng.standard_normal`` in place and turns them
    into center + scale * draws, so a block holds the bits of
    ``center + scale * rng.standard_normal((count, dim))`` without a
    temporary; a negative scale gives center - |scale| * draws.
    """
    rng = np.random.default_rng(plan.seed)
    center = np.zeros(dim) if hint is None else hint
    outputs = range(1 + max(out for out, _, _ in blocks))
    arrays = [np.empty((sum(c for o, c, _ in blocks if o == out), dim))
              for out in outputs]
    filled = [0 for _ in outputs]
    for out, count, scale in blocks:
        rows = arrays[out][filled[out]:filled[out] + count]
        filled[out] += count
        rng.standard_normal(out=rows)
        rows *= scale
        rows += center
    return arrays


@dataclass(eq=False)
class Certificate:
    """Outcome of a sampled verification run.

    The witness pair attains ``min_slack`` and can be re-evaluated through
    :meth:`recompute_slack`; for the point-based properties the second
    witness slot holds the fixed-point hint.  The verdict is PASS iff
    ``min_slack >= -tol``; it is read off the two, not stored.
    """

    property_name: str
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
        return bool(self.min_slack >= -self.tol)

    @property
    def verdict(self):
        return "PASS" if self.passed else "FAIL"

    def recompute_slack(self, op):
        """Re-evaluate the witness slack; certificates must reproduce it."""
        return _pair_slack(op, self.witness_x, self.witness_y, self.norm_spec,
                           self.property_name, self.gamma, self.mu, self.rho)

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


def normalize_property(name):
    """The key in PROPERTIES that ``name`` or one of its aliases denotes.

    Case, surrounding blanks and dashes for underscores are ignored.
    """
    key = name.strip().lower().replace("-", "_")
    for prop, entry in PROPERTIES.items():
        if key == prop or key in entry.aliases:
            return prop
    raise ValueError(f"unknown property {name!r}; expected one of {tuple(PROPERTIES)}")


def gan_slack(op, x, y, gamma, mu, norm_spec=L2):
    """Pointwise slack of the generalized-averaged-nonexpansive inequality.

    Returns ``|x-y|^g - |Tx-Ty|^g - mu * |(I-T)x-(I-T)y|^g``; the inequality
    holds at this pair exactly when the slack is nonnegative.  The pair is
    evaluated as a batch of one by the kernel behind :func:`certify`, so the
    value equals the sampled slack of the same pair bit for bit.
    """
    _check_params("gan", gamma, mu, None)
    return _pair_slack(op, x, y, norm_spec, "gan", gamma, mu)


def _pair_slack(op, x, y, norm_spec, prop, gamma=None, mu=None, rho=None):
    """The slack of ``prop`` at one pair, evaluated as a batch of one."""
    xs = np.asarray(x, dtype=float)[None]
    ys = np.asarray(y, dtype=float)[None]
    triple = _triples(op, xs, ys, norm_spec, PROPERTIES[prop].points)
    with np.errstate(over="ignore", invalid="ignore"):
        slacks, _ = _worst(prop, triple, gamma, mu, rho)
    return float(slacks[0])


def _triples(op, xs, ys, norm_spec, fixed=False):
    """Norm triples (|x-y|, |Tx-Ty|, |(x-Tx)-(y-Ty)|) of stacked rows, as
    the rows of one (3, k) array.

    T is applied once per block of at most ``TRIPLE_BLOCK // n`` rows, to
    the block's ``xs``, then to its ``ys``.  The block's three terms are
    written with ``out=`` into one preallocated (3 * rows, n) buffer, the
    images only read, and one stack norm of that buffer, through the norm
    resolved once for the whole stack, gives all three.  With ``fixed``
    every y is the fixed-point hint and Ty is taken to be y, so the triple
    is (|x-y|, |Tx-y|, |x-Tx|).  As in :func:`norm`, a norm whose squares
    overflow raises no warning.
    """
    k, n = xs.shape
    step = max(1, TRIPLE_BLOCK // n)
    dist = _norm_fn(norm_spec, xs.shape)
    triple = np.empty((3, k))
    terms = np.empty((3 * min(step, k), n))
    for start in range(0, k, step):
        rows = slice(start, start + step)
        x, y = xs[rows], ys[rows]
        m = len(x)
        d, a, b = terms[:m], terms[m:2 * m], terms[2 * m:3 * m]
        tx = op(x)
        ty = y if fixed else op(y)
        np.subtract(tx, ty, out=a)
        np.subtract(x, tx, out=d)  # held in d until b is formed
        np.subtract(y, ty, out=b)
        np.subtract(d, b, out=b)
        np.subtract(x, y, out=d)
        with np.errstate(over="ignore"):
            triple[:, rows] = dist(terms[:3 * m]).reshape(3, m)
    return triple


def _worst(prop, triple, gamma=None, mu=None, rho=None):
    """The slack of ``prop`` at every row of a norm triple, negative where
    the row refutes it, and the index of the least slack, or of the first
    NaN.

    A GAN row whose powers overflow has the plain slack inf - inf = NaN.
    The slack is homogeneous of degree gamma in (d, a, b), so such a row is
    re-evaluated on the triple divided by s = max(d, a, b) and multiplied
    by s^gamma: its sign is exact, and past the largest double its value is
    -inf or inf.  The NaN that ``argmin`` returns triggers it, so every
    other row keeps its bits and a claim without a NaN row pays nothing.
    Callers run it with numpy's overflow and invalid warnings off, once per
    claim, since the plain powers of such a row overflow.
    """
    slacks = PROPERTIES[prop].slack(triple, gamma, mu, rho)
    worst = slacks.argmin()
    if prop == "gan" and math.isnan(slacks[worst]):
        rows = np.flatnonzero(np.isnan(slacks))
        powers, scale = _unit_powers(triple, rows, gamma)
        unit = _gan(powers, mu)
        slacks[rows] = np.where(unit == 0.0, 0.0, unit * scale)
        worst = slacks.argmin()
    return slacks, int(worst)


def _unit_powers(triple, rows, gamma):
    """The (3, len(rows)) powers ((d/s)^gamma, (a/s)^gamma, (b/s)^gamma)
    and s^gamma at ``rows`` of a norm triple (d, a, b), with
    s = max(d, a, b): the powers of the GAN slack and of the quotient of
    :func:`estimate_mu`, taken at unit scale."""
    t = triple[:, rows]
    s = np.maximum(np.maximum(t[0], t[1]), t[2])
    return (t / s) ** gamma, s**gamma


def _sample(op, plan, norm_spec, points):
    """Sampled rows ``(xs, ys)``, their norm triple, and the rows dropped.

    Pairs come from :func:`sample_pairs`.  With ``points`` they come from
    :func:`sample_points` with the hint as every y, and points within
    DENOMINATOR_CUTOFF of the hint are dropped; an operator without a hint
    raises ValueError.  When no point is dropped, the rows and the triple
    are returned as they are, the hint as a read-only broadcast ``ys``.
    """
    hint = op.fixed_point_hint
    if not points:
        xs, ys = sample_pairs(plan, op.dim, hint)
        return xs, ys, _triples(op, xs, ys, norm_spec), 0
    if hint is None:
        raise ValueError("a claim measured against the fixed point requires a "
                         "fixed_point_hint")
    xs = sample_points(plan, op.dim, hint)
    ys = np.broadcast_to(hint, xs.shape)
    triple = _triples(op, xs, ys, norm_spec, fixed=True)
    keep = triple[0] > DENOMINATOR_CUTOFF
    if keep.all():
        return xs, ys, triple, 0
    if not keep.any():
        raise EstimateError("every sampled point coincided with the fixed point")
    return xs[keep], ys[keep], triple[:, keep], int(np.count_nonzero(~keep))


def _check_params(prop, gamma, mu, rho):
    values = {"gamma": gamma, "mu": mu, "rho": rho}
    for name in PROPERTIES[prop].needs:
        if values[name] is None:
            raise ValueError(f"property {prop!r} needs a positive finite {name}")
        check_number(name, values[name])


def _certificate(prop, sample, evaluated, gamma, mu, rho, norm_spec, plan, tol):
    """The certificate of ``sample`` whose slacks and least-slack row,
    as :func:`_worst` gives them, are ``evaluated``."""
    xs, ys, _, skipped = sample
    slacks, worst = evaluated
    return Certificate(
        property_name=prop,
        min_slack=float(slacks[worst]),
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
        A key of PROPERTIES: 'gan', 'nonexpansive', 'contractive',
        'fp_contractive', 'holder_regular'; or one of their aliases.
    params : dict
        Property parameters: gamma/mu for 'gan' and 'holder_regular', rho
        for the contractive classes.
    norm_spec : NormSpec
        Norm in which all distances are measured.
    plan : SamplingPlan
        Sampling layout; defaults to ``SamplingPlan()``.
    tol : float
        Absolute slack tolerance, finite and nonnegative; verdict is PASS
        iff min slack >= -tol.

    Returns
    -------
    Certificate
        Worst-case slack, the witness attaining it, and bookkeeping.
    """
    prop = normalize_property(prop)
    plan = plan or SamplingPlan()
    params = dict(params or {})
    gamma = params.get("gamma")
    mu = params.get("mu")
    rho = params.get("rho")
    _check_params(prop, gamma, mu, rho)
    check_number("tol", tol, lower=0.0, strict=False)
    sample = _sample(op, plan, norm_spec, PROPERTIES[prop].points)
    with np.errstate(over="ignore", invalid="ignore"):
        evaluated = _worst(prop, sample[2], gamma, mu, rho)
    return _certificate(prop, sample, evaluated, gamma, mu, rho, norm_spec, plan, tol)


def estimate_mu(op, gamma, norm_spec=L2, plan=None):
    """Empirical upper bound on the admissible mu at a given exponent.

    Evaluates ``(|x-y|^g - |Tx-Ty|^g) / |(I-T)x-(I-T)y|^g`` over the plan and
    returns the infimum, a finite float.  Pairs whose denominator is at
    most 1e-14 are skipped (they are fixed by the displacement map and carry
    no information); if every pair is skipped an EstimateError is raised.
    Any nonpositive quotient collapses the estimate to 0.  The quotient is
    homogeneous of degree 0, so where the least one is NaN or infinite,
    its powers having overflowed, every such row is re-evaluated on its
    norm triple divided by the triple's largest norm; a least quotient that
    is still NaN or past the largest double raises EstimateError.
    """
    check_number("gamma", gamma)
    plan = plan or SamplingPlan()
    _, _, triple, _ = _sample(op, plan, norm_spec, points=False)
    d, a, b = triple
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        denom = b**gamma
        eligible = np.flatnonzero(denom > DENOMINATOR_CUTOFF)
        if not eligible.size:
            raise EstimateError(
                "operator is indistinguishable from the identity on all sampled pairs"
            )
        quotients = (d[eligible] ** gamma - a[eligible] ** gamma) / denom[eligible]
        low = float(np.min(quotients))
        if not low < math.inf:
            rows = np.flatnonzero(~np.isfinite(quotients))
            powers, _ = _unit_powers(triple, eligible[rows], gamma)
            quotients[rows] = (powers[0] - powers[1]) / powers[2]
            low = float(np.min(quotients))
    if not low < math.inf:
        raise EstimateError(
            f"no finite mu estimate at gamma={gamma:g}: the least sampled "
            f"quotient is {low}"
        )
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
    triple is evaluated once, as one (3, k) array, and each bisection step
    is one power pass over it, the GAN slack and its least row, through the
    rescaling repair of :func:`certify` where that row is NaN.  The returned
    certificate is read off the slacks of the last passing step, the one
    that set ``hi``, so it equals ``certify(op, 'gan', {'gamma': hi, 'mu':
    mu}, norm_spec, plan)`` without evaluating ``hi`` again.
    """
    plan = plan or SamplingPlan()
    lo, hi = bracket
    if not 0 < lo < hi:
        raise ValueError("bracket must satisfy 0 < lo < hi")
    _check_params("gan", hi, mu, None)
    sample = _sample(op, plan, norm_spec, points=False)

    def step(gamma):
        """The slacks and least-slack row at ``gamma``, or None where it fails."""
        slacks, worst = evaluated = _worst("gan", sample[2], gamma, mu)
        return evaluated if slacks[worst] >= -DEFAULT_TOL else None

    with np.errstate(over="ignore", invalid="ignore"):
        passing = step(hi)
        if passing is None:
            raise ValueError(f"bracket precondition violated: gamma={hi} does not pass")
        if step(lo) is not None:
            raise ValueError(f"bracket precondition violated: gamma={lo} passes")
        while hi - lo > 1e-3:
            mid = 0.5 * (lo + hi)
            evaluated = step(mid)
            if evaluated is not None:
                hi, passing = mid, evaluated
            else:
                lo = mid
    if not return_certificate:
        return hi
    cert = _certificate("gan", sample, passing, hi, mu, None, norm_spec, plan,
                        DEFAULT_TOL)
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
    _, _, (d, a, _), _ = _sample(op, plan, norm_spec, points=True)
    return float(np.max(a / d))


def psi(alpha, gamma):
    """The ratio (1 - alpha^g) / (1 - alpha)^g on [0, 1)."""
    if not 0 <= alpha < 1:
        raise ValueError("alpha must lie in [0, 1)")
    check_number("gamma", gamma)
    return (1.0 - alpha**gamma) / (1.0 - alpha) ** gamma


def mu_hat(rho, gamma):
    """Admissible mu for a rho-contraction: (1 - rho^g) / (1 + rho)^g."""
    if not 0 < rho < 1:
        raise ValueError("rho must lie in (0, 1)")
    check_number("gamma", gamma)
    return (1.0 - rho**gamma) / (1.0 + rho) ** gamma


def composition_mu(mu1, mu2, gamma):
    """Constant surviving composition: 2^(1-g) * min(mu1, mu2), for g >= 1."""
    check_number("mu1", mu1)
    check_number("mu2", mu2)
    check_number("gamma", gamma, lower=1.0, strict=False)
    return 2.0 ** (1.0 - gamma) * min(mu1, mu2)


@dataclass(eq=False)
class RegionGrid:
    """Boolean membership grid for the admissible range of T at a point.

    ``mask[i, j]`` is the cell whose center offsets from the fixed point are
    ``(offsets[j], offsets[i])``: rows scan the second coordinate from low
    to high, columns the first.  Both axes share the one ``offsets`` array,
    stored relative to ``xhat``.
    """

    mask: np.ndarray
    x: np.ndarray
    xhat: np.ndarray
    gamma: float
    mu: float
    bounds: tuple
    offsets: np.ndarray = field(repr=False, default=None)

    @property
    def resolution(self):
        """Cells per axis, read off the mask."""
        return self.mask.shape[0]


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
    included).  Distances are Euclidean.  The region scales with that
    radius, so the inequality is evaluated at unit radius, on the cell
    centers of ``[-1, 1]`` and ``(x - xhat) / radius``: the mask is the
    same at every scale, with no overflow or underflow, and the radius
    itself is the rescaled norm of :func:`fpcert.metrics.norm`.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    xhat = np.asarray(xhat, dtype=float).reshape(-1)
    if x.shape != (2,) or xhat.shape != (2,):
        raise ValueError("range_region is defined for 2-vectors")
    if not (np.isfinite(x).all() and np.isfinite(xhat).all()):
        raise ValueError("x and xhat must be finite")
    check_number("gamma", gamma)
    check_number("mu", mu)
    check_number("resolution", resolution, int, 2, strict=False)
    with np.errstate(over="ignore"):
        d = x - xhat
    radius = norm(d)
    if radius == 0.0:
        raise ValueError("x and xhat must differ")
    if not 2.0 * radius < math.inf:
        raise ValueError("x and xhat are too far apart: 2 |x - xhat| overflows")

    unit = _symmetric_offsets(1.0, resolution)
    e = d / radius
    # a row of first coordinates against a column of second ones, so rows
    # scan the second coordinate
    o1, o2 = unit[None, :], unit[:, None]
    half = 0.5 * gamma
    with np.errstate(over="ignore"):
        lhs = (o1**2 + o2**2) ** half + mu * ((o1 - e[0]) ** 2 + (o2 - e[1]) ** 2) ** half
    rhs = (e[0] ** 2 + e[1] ** 2) ** half
    mask = lhs <= rhs
    offsets = _symmetric_offsets(radius, resolution)
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
        offsets=offsets,
    )
