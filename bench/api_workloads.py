"""The two workloads that call fpcert's sampling API directly.

certify-sweep: single-shot sampled claims -- `certify` for each of the five
properties, `estimate_mu` and `estimate_fp_ratio` -- over shrinkage maps,
affine contractions, least-squares gradient steps, forward-backward lasso
steps and the primal-dual map in its weighted metric, under l2, l1 and
weighted norms.  Every claim draws a fresh plan seed.

gamma-bisect: `estimate_min_gamma` claims on operators whose bracket
precondition holds, some returning their certificate, some with mu < 1.

Set-up builds the operator pool, its problems and reference solutions; the
claims of cycle c reuse the pool with plans drawn from (seed, c).  Expected
verdicts are fixed here from the operators' known classes, always with a
margin that rounding cannot close.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import oracle

SMALL = (0.01, 0.1, 1.0, 10.0)
DEFAULT = (0.1, 1.0, 10.0, 1e3)
WIDE = (0.1, 1.0, 10.0, 1e3, 1e4)
MU_HEURISTIC_NOTE = "mu < 1"


def design(rng, m, n, kappa):
    """An m x n matrix whose Gram matrix has condition number kappa."""
    u, _ = np.linalg.qr(rng.standard_normal((m, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.geomspace(1.0, kappa**-0.5, n) * rng.uniform(0.5, 2.0)
    return (u * s) @ v.T


@dataclass
class Target:
    """An fpcert operator, its oracle spec, and the constants checks need."""

    name: str
    op: object
    spec: tuple
    hint: object = None
    weight: object = None  # weighted-norm matrix, for the "w" norm
    norm_spec: object = None
    consts: dict = field(default_factory=dict)


@dataclass
class Claim:
    """One timed call into fpcert and the check of its result.

    ``slot`` names the claim's shape, which every cycle repeats.
    """

    kind: str
    run: object
    check: object
    slot: int
    command: str = ""
    boundary: bool = False


def _norm(fp, target, kind):
    return {"l2": fp.L2, "l1": fp.L1}.get(kind, target.norm_spec)


def _plan_rows(plan, target, points):
    """The plan's pairs (or points), redrawn by the oracle from its seed."""
    sample = oracle.sample_points if points else oracle.sample_pairs
    return sample(plan.seed, plan.n_pairs, plan.radius_scales, target.op.dim, target.hint)


def build_pool(fp, rng, checks):
    """The operators of both API workloads, keyed by name.

    Problem constants are checked against eigvalsh/SVD/lstsq/closed-form
    oracles; a mismatch is appended to ``checks``.
    """
    pool = {}
    for n in (1, 4, 10, 20):
        lam = float(rng.uniform(0.5, 2.0))
        pool[f"soft{n}"] = Target(
            f"soft{n}", fp.prox_operator(fp.l1_prox(lam), 1.0, n,
                                         fixed_point_hint=np.zeros(n)),
            ("soft", lam), np.zeros(n))
    for n in (3, 8, 20):
        lam = float(rng.uniform(0.5, 2.0))
        pool[f"block{n}"] = Target(
            f"block{n}", fp.prox_operator(fp.l2_prox(lam), 1.0, n,
                                          fixed_point_hint=np.zeros(n)),
            ("block", lam), np.zeros(n))
    for alpha, n in ((0.3, 2), (0.6, 3), (0.6, 10), (0.9, 12)):
        alpha = alpha + float(rng.uniform(-0.05, 0.05))
        z = rng.standard_normal(n)
        w = rng.standard_normal((n, n))
        weight = w @ w.T + n * np.eye(n)
        pool[f"affine{n}"] = Target(
            f"affine{n}", fp.affine(alpha, z), ("affine", alpha, z),
            z / (1.0 - alpha), weight, fp.weighted_norm(weight), {"alpha": alpha})
    for n in (10, 20, 25, 40, 50):
        m = 2 * n
        a = design(rng, m, n, float(rng.uniform(4.0, 30.0)))
        b = rng.standard_normal(m)
        problem = fp.least_squares_problem(a, b)
        lip, lam_min = np.linalg.eigvalsh(a.T @ a)[[-1, 0]]
        if not oracle.rel_close(problem.lipschitz, lip, oracle.SPECTRAL_RTOL):
            checks.append(f"ls{n}: lipschitz {problem.lipschitz!r} vs eigvalsh {lip!r}")
        solution = np.linalg.lstsq(a, b, rcond=None)[0]
        if np.linalg.norm(problem.exact_solution - solution) > 1e-8 * np.linalg.norm(solution):
            checks.append(f"ls{n}: exact solution differs from lstsq")
        beta = 1.0 / problem.lipschitz
        op = fp.build_operator(problem, beta=beta)
        pool[f"ls{n}"] = Target(f"ls{n}", op, ("grad", a, b, beta), op.fixed_point_hint,
                                consts={"holder_mu": 1.25 / (beta * lam_min)})
        if n == 10:
            lam = float(rng.uniform(0.1, 1.0))
            pool["lasso10"] = Target(
                "lasso10", fp.proximal_gradient(problem.grad_f, fp.l1_prox(lam), beta, n),
                ("fb", a, b, beta, lam))
    n = 20
    coeffs = rng.uniform(0.1, 1.0, n)
    b = 3.0 * rng.standard_normal(n)
    lam = float(rng.uniform(0.2, 1.0))
    problem = fp.separable_smooth_l1_problem(coeffs, b, lam)
    closed = np.sign(b) * np.maximum(np.abs(b) - lam / coeffs, 0.0)
    if np.max(np.abs(problem.exact_solution - closed)) > 1e-12 * (1 + np.max(np.abs(b))):
        checks.append("sep20: exact solution differs from the closed form")
    beta = 1.0 / problem.lipschitz
    op = fp.build_operator(problem, beta=beta)
    pool["sep20"] = Target("sep20", op, ("sep", coeffs, b, beta, lam), op.fixed_point_hint)

    n, m_rows, p = 6, 12, 5
    a = design(rng, m_rows, n, 4.0)
    b = rng.standard_normal(m_rows)
    bm = rng.standard_normal((p, n)) / np.sqrt(n)
    lam = float(rng.uniform(0.1, 0.5))
    problem = fp.analysis_l1_problem(a, b, bm, lam)
    beta, eta = fp.default_step_sizes(problem)
    o_beta, o_eta = oracle.primal_dual_steps(a, bm)
    if not (oracle.rel_close(beta, o_beta, oracle.SPECTRAL_RTOL)
            and oracle.rel_close(eta, o_eta, oracle.SPECTRAL_RTOL)):
        checks.append(f"pd: steps ({beta!r}, {eta!r}) vs SVD ({o_beta!r}, {o_eta!r})")
    reference = fp.reference_solution(problem)
    # build_operator compares an array hint with "auto" and raises, so the
    # reference state is attached by re-wrapping the map.
    bare = fp.build_operator(problem, beta, eta, hint=None)
    op = fp.Operator(bare.dim, bare.fn, reference.state, bare.label)
    metric = fp.primal_dual_metric(beta, eta, bm)
    pool["pd"] = Target("pd", op, ("pd", a, b, bm, lam, beta, eta), op.fixed_point_hint,
                        oracle.primal_dual_weight(a, bm, beta, eta), metric.norm_spec())
    return pool


# certify-sweep claims of one cycle: (operator, claim, params, norm, scales,
# expected verdict).  "psi" scales mu by the affine map's exact GAN constant.
SWEEP = (
    ("soft1", "nonexpansive", {}, "l2", DEFAULT, "PASS"),
    ("soft1", "fp_contractive", {"rho": 1.0}, "l1", WIDE, "PASS"),
    ("soft1", "holder_regular", {"gamma": 1.0, "mu": 2.0}, "l2", DEFAULT, "FAIL"),
    ("soft4", "gan", {"gamma": 2.0, "mu": 1.0}, "l2", SMALL, "PASS"),
    ("soft10", "gan", {"gamma": 1.0, "mu": 1.0}, "l2", DEFAULT, "FAIL"),
    ("soft10", "fp_contractive", {"rho": 0.5}, "l2", DEFAULT, "FAIL"),
    ("soft20", "estimate_fp_ratio", {}, "l2", DEFAULT, None),
    ("soft20", "nonexpansive", {}, "l1", WIDE, "PASS"),
    ("block3", "gan", {"gamma": 2.0, "mu": 1.0}, "l2", SMALL, "PASS"),
    ("block8", "contractive", {"rho": 0.5}, "l2", DEFAULT, "FAIL"),
    ("block8", "estimate_mu", {"gamma": 2.0}, "l2", SMALL, None),
    ("block20", "nonexpansive", {}, "l2", WIDE, "PASS"),
    ("affine2", "gan", {"gamma": 1.5, "psi": 0.8}, "l1", DEFAULT, "PASS"),
    ("affine3", "gan", {"gamma": 1.5, "psi": 1.25}, "w", DEFAULT, "FAIL"),
    ("affine3", "contractive", {"rho": 0.05}, "l2", DEFAULT, "PASS"),
    ("affine10", "contractive", {"rho": -0.05}, "l1", WIDE, "FAIL"),
    ("affine10", "estimate_mu", {"gamma": 2.0}, "l2", DEFAULT, None),
    ("affine12", "fp_contractive", {"rho": 0.05}, "w", DEFAULT, "PASS"),
    ("affine12", "holder_regular", {"gamma": 1.0, "holder": 1.25}, "l2", DEFAULT, "PASS"),
    ("affine12", "holder_regular", {"gamma": 1.0, "holder": 0.8}, "l1", DEFAULT, "FAIL"),
    ("affine2", "estimate_fp_ratio", {}, "l1", DEFAULT, None),
    ("ls10", "nonexpansive", {}, "l2", DEFAULT, "PASS"),
    ("ls25", "gan", {"gamma": 2.0, "mu": 1.0}, "l2", DEFAULT, "PASS"),
    ("ls50", "contractive", {"rho": 0.2}, "l2", DEFAULT, "FAIL"),
    ("ls20", "fp_contractive", {"rho": 1.0}, "l2", WIDE, "PASS"),
    ("ls40", "holder_regular", {"gamma": 1.0, "holder": 1.0}, "l2", DEFAULT, "PASS"),
    ("ls25", "estimate_mu", {"gamma": 2.0}, "l2", DEFAULT, None),
    ("ls50", "estimate_fp_ratio", {}, "l2", DEFAULT, None),
    ("lasso10", "nonexpansive", {}, "l2", DEFAULT, "PASS"),
    ("lasso10", "contractive", {"rho": 0.1}, "l2", DEFAULT, "FAIL"),
    ("sep20", "nonexpansive", {}, "l1", DEFAULT, "PASS"),
    ("sep20", "fp_contractive", {"rho": 1.0}, "l2", WIDE, "PASS"),
    ("pd", "nonexpansive", {}, "w", DEFAULT, "PASS"),
    ("pd", "contractive", {"rho": 0.2}, "w", DEFAULT, "FAIL"),
    ("pd", "fp_contractive", {"rho": 1.0}, "w", SMALL, "PASS"),
)
# Pairs per radius scale, by claim position, so every cycle costs the same;
# a plan holds 4-5 scales, so 240-2500 pairs.
SWEEP_PAIRS = (60, 125, 250, 500)


def _resolve_params(target, params):
    params = dict(params)
    alpha = target.consts.get("alpha")
    if "psi" in params:
        g = params["gamma"]
        params["mu"] = params.pop("psi") * (1.0 - alpha**g) / (1.0 - alpha) ** g
    if "rho" in params and alpha is not None:
        params["rho"] = alpha + params["rho"]
    if "holder" in params:
        factor = params.pop("holder")
        base = 1.0 / (1.0 - alpha) if alpha is not None else target.consts["holder_mu"]
        params["mu"] = factor * base
    return params


def _check_certificate(fp, target, cert, prop, params, kind, plan, expected):
    points = prop in ("fp_contractive", "holder_regular")
    rows = _plan_rows(plan, target, points)
    if points:
        xs, ys = rows, np.broadcast_to(target.hint, rows.shape)
    else:
        xs, ys = rows
    slack, scale = oracle.slacks(target.spec, prop, params, xs, ys, kind, target.weight)
    worst = int(np.argmin(slack))
    if cert.verdict != expected:
        return f"verdict {cert.verdict}, expected {expected}"
    if cert.n_checked != slack.size:
        return f"n_checked {cert.n_checked}, oracle {slack.size}"
    if not oracle.close(cert.min_slack, slack[worst], scale[worst]):
        return f"min_slack {cert.min_slack!r}, oracle {slack[worst]!r}"
    if cert.verdict == "FAIL":
        again = cert.recompute_slack(target.op)
        wx = np.atleast_2d(cert.witness_x)
        wy = np.atleast_2d(cert.witness_y)
        w_slack, w_scale = oracle.slacks(target.spec, prop, params, wx, wy, kind,
                                         target.weight)
        if not (oracle.close(again, cert.min_slack, w_scale[0])
                and oracle.close(w_slack[0], cert.min_slack, w_scale[0])):
            return f"witness slack {again!r} / oracle {w_slack[0]!r} vs {cert.min_slack!r}"
    return None


def sweep_claims(fp, pool, rng):
    claims = []
    for i, (name, what, params, kind, scales, expected) in enumerate(SWEEP):
        target = pool[name]
        params = _resolve_params(target, params)
        plan = fp.SamplingPlan(n_pairs=SWEEP_PAIRS[i % len(SWEEP_PAIRS)],
                               radius_scales=scales, seed=int(rng.integers(2**31)))
        norm_spec = _norm(fp, target, kind)
        claims.append(Claim(what, *_sweep_claim(fp, target, what, params, kind,
                                                norm_spec, plan, expected), slot=i))
    return claims


def _sweep_claim(fp, target, what, params, kind, norm_spec, plan, expected):
    if what == "estimate_mu":
        gamma = params["gamma"]

        def run():
            return fp.estimate_mu(target.op, gamma, norm_spec, plan)

        def check(value):
            xs, ys = _plan_rows(plan, target, False)
            want, scale = oracle.estimate_mu(target.spec, gamma, xs, ys, kind, target.weight)
            if not oracle.close(value, want, max(scale, 1.0)):
                return f"estimate_mu {value!r}, oracle {want!r}"
            return None
        return run, check
    if what == "estimate_fp_ratio":
        def run():
            return fp.estimate_fp_ratio(target.op, norm_spec, plan)

        def check(value):
            pts = _plan_rows(plan, target, True)
            want = oracle.fp_ratio(target.spec, pts, target.hint, kind, target.weight)
            if not oracle.close(value, want, want):
                return f"estimate_fp_ratio {value!r}, oracle {want!r}"
            return None
        return run, check

    def run():
        return fp.certify(target.op, what, params, norm_spec, plan)

    def check(cert):
        return _check_certificate(fp, target, cert, what, params, kind, plan, expected)
    return run, check


# gamma-bisect claims of one cycle: (operator, mu, norm, scales, pairs per
# scale, return_certificate).  Each bracket (0.1, 2.0) is valid: the GAN
# inequality holds at exponent 2 and fails at 0.1 for every operator here.
BISECT = (
    ("affine2", 1.0, "l2", DEFAULT, 50, False),
    ("affine3", 0.5, "l1", DEFAULT, 100, True),
    ("affine10", 0.8, "l2", DEFAULT, 250, False),
    ("affine12", 1.0, "w", DEFAULT, 50, True),
    ("ls10", 1.0, "l2", DEFAULT, 100, False),
    ("ls20", 0.5, "l2", DEFAULT, 50, True),
    ("ls40", 1.0, "l2", DEFAULT, 100, False),
    ("block3", 1.0, "l2", SMALL, 50, False),
    ("block8", 0.5, "l2", SMALL, 100, True),
    ("affine2", 0.5, "l1", DEFAULT, 100, False),
    ("ls25", 0.8, "l2", DEFAULT, 250, True),
    ("affine10", 1.0, "l1", DEFAULT, 50, False),
)


def bisect_claims(fp, pool, rng):
    claims = []
    for i, (name, mu, kind, scales, pairs, with_cert) in enumerate(BISECT):
        target = pool[name]
        plan = fp.SamplingPlan(n_pairs=pairs, radius_scales=scales,
                               seed=int(rng.integers(2**31)))
        norm_spec = _norm(fp, target, kind)
        claims.append(Claim("estimate_min_gamma",
                            *_bisect_claim(fp, target, mu, kind, norm_spec, plan, with_cert),
                            slot=i))
    return claims


def _bisect_claim(fp, target, mu, kind, norm_spec, plan, with_cert):
    def run():
        return fp.estimate_min_gamma(target.op, mu, norm_spec, plan,
                                     return_certificate=with_cert)

    def check(result):
        gamma, cert = result if with_cert else (result, None)
        xs, ys = _plan_rows(plan, target, False)
        want = oracle.min_gamma(target.spec, mu, xs, ys, kind, target.weight)
        if abs(gamma - want) > 1e-3:
            return f"min gamma {gamma!r}, oracle {want!r}"
        if cert is None:
            return None
        if cert.gamma != gamma or cert.mu != mu:
            return f"certificate for gamma {cert.gamma!r}, mu {cert.mu!r}"
        if any(MU_HEURISTIC_NOTE in note for note in cert.notes) != (mu < 1):
            return f"heuristic note {cert.notes!r} for mu {mu}"
        return _check_certificate(fp, target, cert, "gan", {"gamma": gamma, "mu": mu},
                                  kind, plan, "PASS")
    return run, check


class ApiWorkload:
    """Set-up and claims of certify-sweep and gamma-bisect."""

    def __init__(self, make_claims):
        self._make_claims = make_claims

    def setup(self, fp, seed, workdir):
        checks = []
        pool = build_pool(fp, np.random.default_rng([seed, 0]), checks)
        return {"fp": fp, "pool": pool, "seed": seed, "setup_errors": checks}

    def cycle(self, state, index):
        rng = np.random.default_rng([state["seed"], 1, index])
        return self._make_claims(state["fp"], state["pool"], rng)

    def fingerprint(self, state, index):
        """Bytes of the inputs generated for a cycle, for the determinism check."""
        parts = []
        for target in state["pool"].values():
            parts += [np.asarray(v, dtype=float).tobytes() for v in target.spec[1:]]
        rng = np.random.default_rng([state["seed"], 1, index])
        parts.append(rng.integers(2**31, size=64).tobytes())
        return b"".join(parts)


WORKLOADS = {
    "certify-sweep": lambda: ApiWorkload(sweep_claims),
    "gamma-bisect": lambda: ApiWorkload(bisect_claims),
}
