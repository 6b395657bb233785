"""Acceptance suite.

Each test covers one numbered criterion and prints a single pass/fail line;
run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Oracles (dense eigendecompositions, closed forms, refining grid search) are
computed independently of the code paths they check.
"""

import numpy as np
import pytest

from fpcert.certify import (
    SamplingPlan,
    certify,
    composition_mu,
    estimate_mu,
    gan_slack,
    mu_hat,
    psi,
    range_region,
    sample_pairs,
)
from fpcert.iterate import (
    StopReason,
    check_residual_summability,
    check_sandwich,
    fit_rate,
    little_o_proxy,
    picard,
    verify_recurrence_bound,
)
from fpcert.metrics import L1, L2, primal_dual_metric
from fpcert.operators import (
    affine,
    compose,
    gradient_step,
    l1_prox,
    prox_operator,
    proximal_gradient,
)
from fpcert.problems import (
    analysis_l1_problem,
    build_operator,
    default_step_sizes,
    least_squares_problem,
    separable_smooth_l1_problem,
    step_size_bounds,
)


def report(criterion, checks):
    """Print one pass/fail line for the criterion and assert its checks."""
    failed = [name for name, ok in checks if not ok]
    verdict = "PASS" if not failed else "FAIL"
    print(f"[{verdict}] {criterion}" + (f" (failed: {', '.join(failed)})" if failed else ""))
    assert not failed, f"{criterion}: failed {failed}"


# ----------------------------------------------------------------- fixtures

def soft_threshold_op(lam=1.0):
    return prox_operator(l1_prox(lam), 1.0, 1, fixed_point_hint=[0.0],
                         label=f"soft-threshold({lam:g})")


@pytest.fixture(scope="module")
def least_squares_instance():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((30, 10))
    b = rng.standard_normal(30)
    problem = least_squares_problem(a, b)
    x0 = rng.standard_normal(10)
    return a, b, problem, x0


@pytest.fixture(scope="module")
def lasso_instance():
    # seeded 30x10 design with eigenvalues of the Gram spread over [1, 2000]
    # so the ten-thousand-step trace decays cleanly above float noise
    rng = np.random.default_rng(2024)
    m, n = 30, 10
    qu, _ = np.linalg.qr(rng.standard_normal((m, n)))
    qv, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = qu @ np.diag(np.sqrt(np.linspace(1.0, 2000.0, n))) @ qv.T
    b = rng.standard_normal(m)
    lam = 0.002 * np.max(np.abs(a.T @ b))
    lipschitz = np.linalg.norm(a, 2) ** 2
    beta = 1.0 / lipschitz

    def grad(x):
        return a.T @ (a @ x - b)

    plain = proximal_gradient(grad, l1_prox(lam), beta, n, label="lasso")
    xhat = picard(plain, np.zeros(n), 10**6, 1e-13).x_final
    op = proximal_gradient(grad, l1_prox(lam), beta, n, fixed_point_hint=xhat,
                           label="lasso")
    x0 = rng.standard_normal(n)
    trace = picard(op, x0, 10**4, 0.0, ref=xhat)
    return op, xhat, trace


@pytest.fixture(scope="module")
def separable_instance():
    rng = np.random.default_rng(7)
    n = 20
    coeffs = rng.uniform(0.5, 2.0, n)
    b = rng.normal(0.0, 2.0, n)
    problem = separable_smooth_l1_problem(coeffs, b, 0.7)
    op = build_operator(problem)
    mu = estimate_mu(op, 1.0, L1, SamplingPlan(n_pairs=300, seed=11))
    trace = picard(op, np.zeros(n), 10**4, 1e-12, ref=problem.exact_solution,
                   norm_spec=L1)
    return problem, op, mu, trace


# ---------------------------------------------------------------- criteria

def test_criterion_1_soft_threshold_gan_profile():
    op = soft_threshold_op(1.0)
    plan = SamplingPlan(n_pairs=2000, radius_scales=(0.1, 1.0, 10.0, 1e3, 1e4),
                        seed=1)
    passing = certify(op, "gan", {"gamma": 1.0, "mu": 1.0}, L2, plan)
    failing = certify(op, "gan", {"gamma": 0.5, "mu": 0.1}, L2, plan)
    failing_again = certify(op, "gan", {"gamma": 0.5, "mu": 0.1}, L2, plan)
    mu_est = estimate_mu(op, 1.0, L2, plan)
    report("criterion 1: soft-threshold GAN profile", [
        ("exponent-1 pass", passing.passed and passing.min_slack >= -1e-10),
        ("ten thousand pairs", passing.n_checked >= 10_000),
        ("largest radius probed", max(plan.radius_scales) == 1e4),
        ("exponent-0.5 fail", not failing.passed),
        ("witness reproducible across runs",
         np.array_equal(failing.witness_x, failing_again.witness_x)
         and failing.min_slack == failing_again.min_slack),
        ("witness re-evaluates", abs(failing.recompute_slack(op) - failing.min_slack)
         <= 1e-12),
        ("mu estimate near one", 0.999 <= mu_est <= 1.001),
    ])


def test_criterion_2_exponential_rate_on_least_squares(least_squares_instance):
    a, b, problem, x0 = least_squares_instance
    evals = np.linalg.eigvalsh(a.T @ a)  # independent eigendecomposition oracle
    beta = 1.0 / problem.lipschitz
    oracle_rho = max(abs(1.0 - beta * evals[0]), abs(1.0 - beta * evals[-1]))
    op = build_operator(problem, beta=beta)
    trace = picard(op, x0, 5000, 1e-4, ref=problem.exact_solution)
    fit = fit_rate(trace.residuals, "exponential")
    e = trace.errors_to_ref
    ratios = e[1:][e[:-1] > 0] / e[:-1][e[:-1] > 0]
    report("criterion 2: exponential global rate on least squares", [
        ("trace converged", trace.converged),
        ("rho within 2 percent of eigen oracle",
         abs(fit.rho - oracle_rho) <= 0.02 * oracle_rho),
        ("fit quality", fit.r_squared >= 0.999),
        ("per-step ratios below oracle", np.max(ratios) <= oracle_rho + 1e-10),
    ])


def test_criterion_3_gan2_local_rate_on_lasso(lasso_instance):
    op, xhat, trace = lasso_instance
    proxy = little_o_proxy(trace.residuals, 2.0)
    mu = estimate_mu(op, 2.0, L2, SamplingPlan(n_pairs=400, seed=99))
    summability = check_residual_summability(trace, 2.0, mu, xhat)
    report("criterion 3: averaged local rate on the forward-backward trace", [
        ("full ten-thousand-step trace", trace.k_final == 10_000),
        ("sqrt-k residual slope negative", proxy.slope < 0.0),
        ("final normalized value halved", proxy.last_value <= 0.5 * proxy.first_value),
        ("summability with estimated mu", summability.verdict),
    ])


def test_criterion_4_l1_local_rate_on_separable(separable_instance):
    problem, op, mu, trace = separable_instance
    cert = certify(op, "gan", {"gamma": 1.0, "mu": mu - 1e-6}, L1,
                   SamplingPlan(n_pairs=2500, seed=12))
    proxy = little_o_proxy(trace.residuals, 1.0)
    gap = np.max(np.abs(trace.x_final - problem.exact_solution))
    report("criterion 4: l1-norm local rate on the separable problem", [
        ("certified in l1 at the estimated mu", cert.passed),
        ("k residual proxy", proxy.verdict),
        ("matches closed form to 1e-8", gap <= 1e-8),
    ])


def test_criterion_5_sandwich_inequality(separable_instance):
    problem, op, mu, trace = separable_instance
    sandwich = check_sandwich(trace, problem.exact_solution, min(mu, 1.0), tol=1e-8)
    report("criterion 5: two-sided tail-sum comparison", [
        ("lower bound slack", sandwich.lower_worst >= -1e-8),
        ("upper bound conclusive", sandwich.conclusive),
        ("upper bound slack",
         sandwich.upper_worst is not None and sandwich.upper_worst >= -1e-8),
        ("verdict", sandwich.verdict),
    ])


def test_criterion_6_formula_suite():
    rng = np.random.default_rng(6)
    checks = []

    # superadditivity of powers above exponent one
    a = rng.uniform(0.0, 2.0, 10_000)
    b = rng.uniform(0.0, 2.0, 10_000)
    gamma = rng.uniform(1.0 + 1e-12, 10.0, 10_000)
    checks.append(("power superadditivity",
                   np.min((a + b) ** gamma - a**gamma - b**gamma) >= -1e-12))

    # exponent lifting of a dominated power sum
    g1 = rng.uniform(0.2, 5.0, 10_000)
    g2 = g1 + rng.uniform(1e-6, 5.0, 10_000)
    c = (a**g1 + b**g1) ** (1.0 / g1) + rng.uniform(0.0, 1.0, 10_000)
    checks.append(("power dominance lifts",
                   np.all(a**g2 + b**g2 <= c**g2 + 1e-12)))

    # monotonicity of the ratio (1 - t^g) / (1 - t)^g in t
    ok = True
    for _ in range(10_000):
        lo, hi = np.sort(rng.uniform(0.005, 0.995, 2))
        if hi - lo < 1e-9:
            continue
        g_small = rng.uniform(0.05, 0.999)
        g_large = rng.uniform(1.001, 6.0)
        ok = ok and psi(lo, g_small) > psi(hi, g_small)
        ok = ok and psi(lo, g_large) < psi(hi, g_large)
        if not ok:
            break
    checks.append(("ratio monotone on both sides of exponent one", ok))

    # contractions are generalized averaged at every exponent
    ok = True
    for gamma_c in (0.5, 1.0, 2.0, 3.0):
        for rho in (0.25, 0.6, 0.9):
            op = affine(rho, [1.0, -0.5])
            mu = mu_hat(rho, gamma_c)
            xs, ys = sample_pairs(SamplingPlan(n_pairs=210, seed=60), 2, None)
            for x, y in zip(xs, ys):
                if gan_slack(op, x, y, gamma_c, mu) < -1e-10:
                    ok = False
                    break
    checks.append(("contraction admits the derived mu", ok))

    # composition closure at the shared exponent
    fresh = SamplingPlan(n_pairs=2500, seed=61)
    s, t = affine(0.4, [1.0]), soft_threshold_op(1.0)
    ok = True
    for gamma_c in (1.0, 2.0):
        mu1 = estimate_mu(s, gamma_c, L2, SamplingPlan(n_pairs=300, seed=62)) * (1 - 1e-9)
        mu2 = estimate_mu(t, gamma_c, L2, SamplingPlan(n_pairs=300, seed=63)) * (1 - 1e-9)
        mu = composition_mu(mu1, mu2, gamma_c)
        ok = ok and certify(compose(s, t), "gan", {"gamma": gamma_c, "mu": mu},
                            L2, fresh).passed
    checks.append(("composition keeps the constant", ok))

    # exponent lifting on certified pairs of the shrinkage map
    op = soft_threshold_op(1.0)
    plan = SamplingPlan(n_pairs=2500, radius_scales=(0.1, 1.0, 10.0, 1e3), seed=64)
    assert certify(op, "gan", {"gamma": 1.0, "mu": 1.0}, L2, plan).passed
    xs, ys = sample_pairs(plan, 1, op.fixed_point_hint)
    ok = True
    for g2 in (1.5, 2.0, 3.0):
        for x, y in zip(xs, ys):
            if gan_slack(op, x, y, g2, 1.0) < -1e-10:
                ok = False
                break
    checks.append(("certified pass lifts to larger exponents", ok))

    report("criterion 6: formula suite", checks)


def test_criterion_7_primal_dual_convergence():
    n = 5
    b = np.array([1.0, 3.0, 2.0, -1.0, 0.5])
    diff = np.zeros((n - 1, n))
    for i in range(n - 1):
        diff[i, i], diff[i, i + 1] = -1.0, 1.0
    lam = 0.8
    problem = analysis_l1_problem(np.eye(n), b, diff, lam)
    beta, eta = default_step_sizes(problem)
    bounds = step_size_bounds(problem.lipschitz, np.linalg.norm(diff, 2), beta=beta)
    op = build_operator(problem)

    w_norm = primal_dual_metric(beta, eta, diff).norm_spec()
    plan = SamplingPlan(n_pairs=250, seed=31)
    mu = estimate_mu(op, 2.0, w_norm, plan)
    cert = certify(op, "gan", {"gamma": 2.0, "mu": mu * (1 - 1e-6)}, w_norm, plan)

    trace = picard(op, np.zeros(op.dim), 10**6, 1e-12)
    primal = trace.x_final[:n]

    # refining grid search over the documented box is the independent oracle
    def objective(points):
        residual = points - b
        return 0.5 * np.sum(residual**2, axis=1) + lam * np.sum(
            np.abs(points @ diff.T), axis=1
        )

    center = np.zeros(n)
    width = 2.0 * 10.0 * np.max(np.abs(b))
    points = 13
    while True:
        axes = [np.linspace(center[i] - width / 2, center[i] + width / 2, points)
                for i in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        cloud = np.stack([m.ravel() for m in mesh], axis=1)
        center = cloud[np.argmin(objective(cloud))]
        spacing = width / (points - 1)
        if spacing <= 1e-3:
            break
        width = 4.0 * spacing
    oracle = center

    # zero coupling must reproduce the plain gradient-descent line
    t3_zero = build_operator(
        analysis_l1_problem(np.eye(n), b, np.zeros((n - 1, n)), lam),
        beta=beta, eta=eta,
    )
    t1 = gradient_step(problem.grad_f, beta, n)
    v = np.concatenate([np.array([0.3, -0.2, 0.1, 0.0, 0.5]), np.zeros(n - 1)])
    x_line = v[:n].copy()
    decoupled = True
    for _ in range(60):
        v = t3_zero(v)
        x_line = t1(x_line)
        decoupled = decoupled and np.max(np.abs(v[:n] - x_line)) <= 1e-12

    report("criterion 7: primal-dual convergence", [
        ("steps strictly inside the bounds",
         beta < bounds.beta_max and eta < bounds.eta_max
         and bounds.coupling_holds(beta, eta)),
        ("certified in the coupled metric on 1e3 pairs",
         cert.passed and cert.n_checked >= 1000),
        ("estimated mu is substantial", mu > 0.05),
        ("iteration converged", trace.converged),
        ("primal limit matches the grid oracle",
         np.max(np.abs(primal - oracle)) <= 2e-3),
        ("zero coupling reproduces the gradient line", decoupled),
    ])


def test_criterion_8_step_size_boundary():
    lipschitz = 2.0
    grad = lambda x: lipschitz * x

    too_long = gradient_step(grad, 3.0 / lipschitz, 1)
    cert = certify(too_long, "nonexpansive", {},
                   plan=SamplingPlan(n_pairs=250, seed=8))
    diverged = picard(too_long, [1.0], 10_000, 0.0)

    critical = gradient_step(grad, 1.0 / lipschitz, 1)
    one_step = critical(np.array([5.0]))
    settled = picard(critical, [5.0], 10, 0.0)

    report("criterion 8: step-size boundary", [
        ("overlong step fails nonexpansiveness", not cert.passed),
        ("overlong step diverges from nonzero start",
         diverged.stop_reason is StopReason.DIVERGED),
        ("critical step lands on the minimizer in one application",
         one_step[0] == 0.0),
        ("and stays there", settled.converged and settled.x_final[0] == 0.0),
    ])


def test_criterion_9_region_geometry():
    grid = range_region([1.0, 0.0], [0.0, 0.0], 2.0, 1.0, resolution=201)
    o1, o2 = np.meshgrid(grid.offsets1, grid.offsets2)
    disk = (o1 - 0.5) ** 2 + o2**2 <= 0.25  # halfway disk, by completing the square

    symmetric = True
    for gamma in (3.0, 1.0):
        g = range_region([1.0, 0.0], [0.0, 0.0], gamma, 0.5, resolution=201)
        symmetric = symmetric and np.array_equal(g.mask, g.mask[::-1, :])

    report("criterion 9: range-region geometry", [
        ("exponent-2 grid equals the analytic disk at every cell",
         np.array_equal(grid.mask, disk)),
        ("201 by 201 resolution", grid.mask.shape == (201, 201)),
        ("exponent 3 and 1 grids reflect across the axis", symmetric),
    ])


def test_criterion_10_holder_regularity_pipeline(least_squares_instance):
    a, b, problem, _ = least_squares_instance
    beta = 1.0 / problem.lipschitz
    mu = 1.0 / (beta * problem.lower_lipschitz)
    op = build_operator(problem, beta=beta)
    cert = certify(op, "holder_regular", {"gamma": 1.0, "mu": mu},
                   plan=SamplingPlan(n_pairs=2500, seed=10))

    recurrences = []
    for p, mu_r in ((1.0, 0.1), (0.5, 0.2)):
        seq = [1.0]
        for _ in range(400):
            value = seq[-1]
            seq.append(value * (1.0 - mu_r * value**p))
        recurrences.append(verify_recurrence_bound(seq, p, mu_r))

    report("criterion 10: Holder-regularity pipeline", [
        ("gradient step is Holder regular at the derived mu", cert.passed),
        ("synthesized decay obeys the closed-form bound",
         all(r.verdict and not r.violations for r in recurrences)),
    ])
