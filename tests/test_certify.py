import numpy as np
import pytest

from fpcert.certify import (
    EstimateError,
    SamplingPlan,
    certify,
    composition_mu,
    estimate_fp_ratio,
    estimate_min_gamma,
    estimate_mu,
    gan_slack,
    mu_hat,
    psi,
    range_region,
    sample_pairs,
    sample_points,
)
from fpcert.metrics import L1, L2, norm, primal_dual_metric, weighted_norm
from fpcert.operators import (
    Operator,
    affine,
    compose,
    gradient_step,
    identity,
    l1_prox,
    l2_prox,
    prox_operator,
)
from fpcert.problems import (
    analysis_l1_problem,
    build_operator,
    default_step_sizes,
    least_squares_problem,
)


def soft_threshold_op(lam=1.0, dim=1):
    return prox_operator(
        l1_prox(lam), 1.0, dim, fixed_point_hint=np.zeros(dim),
        label=f"soft-threshold({lam:g})",
    )


WIDE_PLAN = SamplingPlan(n_pairs=400, radius_scales=(0.1, 1.0, 10.0, 1e3, 1e4), seed=1)


def loop_slack(op, x, y, prop, spec, gamma=None, mu=None, rho=None):
    """Per-pair reference on 1-D norms: (slack, size of its terms).

    For the point properties y is the fixed point.
    """
    tx = op(x)
    if prop == "gan":
        ty = op(y)
        terms = (norm(x - y, spec) ** gamma, norm(tx - ty, spec) ** gamma,
                 mu * norm((x - tx) - (y - ty), spec) ** gamma)
        return terms[0] - terms[1] - terms[2], sum(terms)
    if prop in ("nonexpansive", "contractive"):
        factor = 1.0 if prop == "nonexpansive" else rho
        d, a = factor * norm(x - y, spec), norm(tx - op(y), spec)
        return d - a, d + a
    if prop == "fp_contractive":
        d, a = rho * norm(x - y, spec), norm(tx - y, spec)
        return d - a, d + a
    r, d = mu * norm(x - tx, spec) ** gamma, norm(x - y, spec)
    return r - d, r + d


def loop_mu(op, gamma, spec, plan):
    """Reference estimate_mu: (infimum quotient, size of its terms)."""
    best = None
    for x, y in zip(*sample_pairs(plan, op.dim, op.fixed_point_hint)):
        tx, ty = op(x), op(y)
        denom = norm((x - tx) - (y - ty), spec) ** gamma
        if denom <= 1e-14:
            continue
        d, a = norm(x - y, spec) ** gamma, norm(tx - ty, spec) ** gamma
        if best is None or (d - a) / denom < best[0]:
            best = ((d - a) / denom, (d + a) / denom)
    return best


def loop_fp_ratio(op, spec, plan):
    hint = op.fixed_point_hint
    return max(norm(op(p) - hint, spec) / norm(p - hint, spec)
               for p in sample_points(plan, op.dim, hint))


class TestGanSlack:
    def test_identity_has_zero_slack(self):
        op = identity(3)
        rng = np.random.default_rng(0)
        for gamma, mu in [(0.5, 0.3), (1.0, 1.0), (2.0, 5.0)]:
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            assert gan_slack(op, x, y, gamma, mu) == 0.0

    def test_constant_operator_boundary_mu(self):
        op = affine(0.0, [2.0, -1.0])
        x, y = np.array([3.0, 0.0]), np.array([0.0, 1.0])
        for gamma in (0.5, 1.0, 2.0):
            assert gan_slack(op, x, y, gamma, 1.0) == pytest.approx(0.0, abs=1e-12)
            d = norm(x - y)
            assert gan_slack(op, x, y, gamma, 1.5) == pytest.approx(
                -0.5 * d**gamma, rel=1e-12
            )

    def test_hand_evaluated_halving_map(self):
        op = affine(0.5, [0.0])
        assert gan_slack(op, [1.0], [0.0], 2.0, 3.0) == 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            gan_slack(identity(1), [1.0], [0.0], 0.0, 1.0)
        with pytest.raises(ValueError):
            gan_slack(identity(1), [1.0], [0.0], 1.0, -1.0)


class TestCertify:
    def test_exact_contraction_factor_passes(self):
        op = affine(0.5, [0.0, 0.0])
        cert = certify(op, "contractive", {"rho": 0.5}, plan=SamplingPlan(seed=2))
        assert cert.passed
        assert cert.min_slack == pytest.approx(0.0, abs=1e-9)

    def test_soft_threshold_is_gan_at_exponent_one(self):
        cert = certify(soft_threshold_op(), "gan", {"gamma": 1.0, "mu": 1.0},
                       plan=WIDE_PLAN)
        assert cert.passed
        assert cert.min_slack >= -1e-10

    def test_soft_threshold_fails_below_exponent_one(self):
        cert = certify(soft_threshold_op(), "gan", {"gamma": 0.5, "mu": 0.1},
                       plan=WIDE_PLAN)
        assert not cert.passed
        # the violation only shows at large magnitude
        assert max(abs(cert.witness_x[0]), abs(cert.witness_y[0])) > 10.0

    def test_witness_reproduces_min_slack(self):
        op = soft_threshold_op()
        cert = certify(op, "gan", {"gamma": 0.5, "mu": 0.1}, plan=WIDE_PLAN)
        assert abs(cert.recompute_slack(op) - cert.min_slack) <= 1e-12

    @pytest.mark.parametrize("case", ["gradient_step", "primal_dual", "block"])
    def test_stacked_witness_reproduces_min_slack_bit_for_bit(self, case):
        rng = np.random.default_rng(17)
        a, b = rng.standard_normal((20, 6)), rng.standard_normal(20)
        spec, prop, params = L2, "gan", {"gamma": 2.0, "mu": 1.0}
        if case == "gradient_step":
            op = build_operator(least_squares_problem(a, b))
        elif case == "primal_dual":
            bm = rng.standard_normal((3, 6)) / np.sqrt(6)
            problem = analysis_l1_problem(a, b, bm, 0.3)
            beta, eta = default_step_sizes(problem)
            op = build_operator(problem, beta, eta)
            spec = primal_dual_metric(beta, eta, bm).norm_spec()
            prop, params = "nonexpansive", {}
        else:
            op = prox_operator(l2_prox(0.5), 1.0, 4, fixed_point_hint=np.zeros(4))
            params = {"gamma": 1.0, "mu": 1.0}
        assert op.fn.takes_stacks is True
        cert = certify(op, prop, params, spec, SamplingPlan(n_pairs=120, seed=18))
        assert cert.recompute_slack(op) == cert.min_slack

    def test_same_plan_is_deterministic(self):
        op = soft_threshold_op()
        a = certify(op, "gan", {"gamma": 0.5, "mu": 0.1}, plan=WIDE_PLAN)
        b = certify(op, "gan", {"gamma": 0.5, "mu": 0.1}, plan=WIDE_PLAN)
        assert a.min_slack == b.min_slack
        np.testing.assert_array_equal(a.witness_x, b.witness_x)
        np.testing.assert_array_equal(a.witness_y, b.witness_y)

    def test_evaluation_order_does_not_change_the_minimum(self):
        # aggregation is a min over the seed-ordered list, so any schedule
        # that evaluates all pairs must reproduce the same worst case
        op = soft_threshold_op()
        xs, ys = sample_pairs(WIDE_PLAN, 1, op.fixed_point_hint)
        slacks = np.array(
            [gan_slack(op, x, y, 0.5, 0.1) for x, y in zip(xs, ys)]
        )
        reversed_min = np.min(slacks[::-1])
        cert = certify(op, "gan", {"gamma": 0.5, "mu": 0.1}, plan=WIDE_PLAN)
        assert cert.min_slack == reversed_min

    def test_nonexpansive_and_fail_path(self):
        cert = certify(affine(2.0, [0.0]), "nonexpansive", {},
                       plan=SamplingPlan(seed=3))
        assert not cert.passed

    def test_fp_contractive_requires_hint(self):
        op = Operator(1, lambda x: 0.5 * x, label="halving")
        with pytest.raises(ValueError, match="hint"):
            certify(op, "fp_contractive", {"rho": 0.6}, plan=SamplingPlan(seed=4))

    def test_fp_contractive_on_affine(self):
        op = affine(0.5, [1.0])
        cert = certify(op, "fp_contractive", {"rho": 0.5 + 1e-9},
                       plan=SamplingPlan(seed=5))
        assert cert.passed
        np.testing.assert_array_equal(cert.witness_y, op.fixed_point_hint)

    def test_holder_regular_on_affine(self):
        # |x - xhat| = 2 |x - Tx| for the halving map
        op = affine(0.5, [0.0, 0.0])
        good = certify(op, "holder_regular", {"gamma": 1.0, "mu": 2.0 + 1e-9},
                       plan=SamplingPlan(seed=6))
        assert good.passed
        bad = certify(op, "holder_regular", {"gamma": 1.0, "mu": 1.5},
                      plan=SamplingPlan(seed=6))
        assert not bad.passed

    def test_unknown_property_rejected(self):
        with pytest.raises(ValueError, match="unknown property"):
            certify(identity(1), "quasi", {}, plan=SamplingPlan(seed=0))

    def test_missing_parameters_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            certify(identity(1), "gan", {"mu": 1.0}, plan=SamplingPlan(seed=0))
        with pytest.raises(ValueError, match="rho"):
            certify(identity(1), "contractive", {}, plan=SamplingPlan(seed=0))

    def test_certificate_serialization_fields(self):
        cert = certify(soft_threshold_op(), "gan", {"gamma": 1.0, "mu": 1.0},
                       plan=SamplingPlan(seed=7))
        payload = cert.to_dict()
        assert payload["evidence"] == "sampled"
        assert payload["verdict"] == "PASS"
        assert payload["n_checked"] == cert.n_checked
        assert any("sampled evidence" in note for note in payload["notes"])


class TestKernelAgainstPairLoop:
    """certify, estimate_mu and estimate_fp_ratio against the per-pair loop.

    The kernel takes norms of stacked rows, which may differ from 1-D norms
    in the last digits, so values agree to 1e-12 relative to their terms.
    """

    PLAN = SamplingPlan(n_pairs=60, radius_scales=(0.1, 1.0, 10.0, 1e3), seed=31)
    PARAMS = {
        "gan": {"gamma": 1.5, "mu": 0.4},
        "nonexpansive": {},
        "contractive": {"rho": 0.8},
        "fp_contractive": {"rho": 0.9},
        "holder_regular": {"gamma": 1.0, "mu": 2.0},
    }

    @staticmethod
    def cases():
        rng = np.random.default_rng(30)
        ls = least_squares_problem(rng.standard_normal((6, 4)), rng.standard_normal(6))
        step = gradient_step(ls.grad_f, 1.5 / ls.lipschitz, 4,
                             fixed_point_hint=ls.exact_solution)
        shrink = prox_operator(l1_prox(0.7), 1.0, 4, fixed_point_hint=np.zeros(4))
        g = rng.standard_normal((4, 4))
        weighted = weighted_norm(g @ g.T + 0.5 * np.eye(4))
        return [(op, spec) for op in (step, shrink) for spec in (L2, L1, weighted)]

    def test_every_property(self):
        for op, spec in self.cases():
            hint = op.fixed_point_hint
            for prop, params in self.PARAMS.items():
                cert = certify(op, prop, params, spec, self.PLAN)
                if prop in ("fp_contractive", "holder_regular"):
                    points = sample_points(self.PLAN, op.dim, hint)
                    pairs = [(p, hint) for p in points]
                else:
                    pairs = zip(*sample_pairs(self.PLAN, op.dim, hint))
                ref = [loop_slack(op, x, y, prop, spec, **params) for x, y in pairs]
                ref_min, ref_scale = min(ref)
                _, wit_scale = loop_slack(op, cert.witness_x, cert.witness_y, prop,
                                          spec, **params)
                assert cert.n_checked == len(ref)
                assert abs(cert.min_slack - ref_min) <= 1e-12 * max(ref_scale,
                                                                    wit_scale)

    def test_estimates(self):
        for op, spec in self.cases():
            for gamma in (1.0, 2.0):
                ref, scale = loop_mu(op, gamma, spec, self.PLAN)
                est = estimate_mu(op, gamma, spec, self.PLAN)
                assert abs(est - max(ref, 0.0)) <= 1e-12 * scale
            ref = loop_fp_ratio(op, spec, self.PLAN)
            assert abs(estimate_fp_ratio(op, spec, self.PLAN) - ref) <= 1e-12 * ref


class TestEstimateMu:
    def test_soft_threshold_exponent_one(self):
        est = estimate_mu(soft_threshold_op(), 1.0, plan=WIDE_PLAN)
        assert est == pytest.approx(1.0, abs=1e-6)

    def test_constant_operator_quotient_is_one(self):
        op = affine(0.0, [3.0])
        for gamma in (0.5, 1.0, 2.0):
            assert estimate_mu(op, gamma, plan=SamplingPlan(seed=8)) == pytest.approx(
                1.0, rel=1e-12
            )

    def test_halving_map_exponent_two(self):
        est = estimate_mu(affine(0.5, [0.0]), 2.0, plan=SamplingPlan(seed=9))
        assert est == pytest.approx(3.0, rel=1e-10)

    def test_identity_raises(self):
        with pytest.raises(EstimateError):
            estimate_mu(identity(2), 1.0, plan=SamplingPlan(seed=10))

    def test_expansive_map_returns_zero(self):
        assert estimate_mu(affine(2.0, [0.0]), 1.0, plan=SamplingPlan(seed=11)) == 0.0


class TestEstimateMinGamma:
    def test_halving_map_threshold_at_one(self):
        # 2 * 0.5^g <= 1 exactly when g >= 1, independent of the pair
        est = estimate_min_gamma(
            affine(0.5, [0.0]), 1.0, plan=SamplingPlan(n_pairs=100, seed=12),
            bracket=(0.5, 2.0),
        )
        assert est == pytest.approx(1.0, abs=2e-3)

    def test_degenerate_operator_propagates_error(self):
        with pytest.raises(ValueError):
            estimate_min_gamma(identity(1), 1.0,
                               plan=SamplingPlan(n_pairs=50, seed=13),
                               bracket=(0.5, 2.0))

    def test_soft_threshold_small_mu(self):
        # sampled refutation reaches only exponents whose violations are
        # visible at the plan radii, so the boundary sits just under 1
        est = estimate_min_gamma(
            soft_threshold_op(), 0.5,
            plan=SamplingPlan(n_pairs=150, radius_scales=(0.1, 1.0, 10.0, 1e3, 1e4),
                              seed=14),
            bracket=(0.1, 2.0),
        )
        assert 0.8 <= est <= 1.0 + 2e-3

    def test_bracket_precondition_enforced(self):
        with pytest.raises(ValueError, match="bracket"):
            estimate_min_gamma(affine(0.5, [0.0]), 1.0,
                               plan=SamplingPlan(n_pairs=50, seed=15),
                               bracket=(1.5, 2.0))

    def test_operator_evaluated_once_per_sampled_row(self):
        calls = []

        def halve(x):
            calls.append(1)
            return 0.5 * x

        op = Operator(1, halve, fixed_point_hint=np.zeros(1))
        assert len(calls) == 1  # the hint check at construction
        plan = SamplingPlan(n_pairs=100, seed=12)
        xs, _ = sample_pairs(plan, 1, op.fixed_point_hint)
        estimate_min_gamma(op, 1.0, plan=plan, bracket=(0.5, 2.0),
                           return_certificate=True)
        assert len(calls) == 1 + 2 * xs.shape[0]

    @pytest.mark.parametrize("n_pairs", [10, 300])
    def test_builtin_map_applied_once_per_stack(self, n_pairs):
        calls = []
        base = soft_threshold_op(lam=0.5, dim=3)

        def counted(x):
            calls.append(x.shape)
            return base.fn(x)

        counted.takes_stacks = True
        op = Operator(3, counted, base.fixed_point_hint)
        plan = SamplingPlan(n_pairs=n_pairs, seed=16)
        for run, per_claim in (
            (lambda: certify(op, "gan", {"gamma": 2.0, "mu": 1.0}, plan=plan), 2),
            (lambda: certify(op, "nonexpansive", {}, plan=plan), 2),
            (lambda: certify(op, "fp_contractive", {"rho": 1.0}, plan=plan), 1),
            (lambda: estimate_mu(op, 2.0, plan=plan), 2),
            (lambda: estimate_fp_ratio(op, plan=plan), 1),
            (lambda: estimate_min_gamma(op, 1.0, plan=plan,
                                        bracket=(0.5, 2.0)), 2),
        ):
            calls.clear()
            run()
            assert len(calls) == per_claim
            assert all(len(shape) == 2 for shape in calls)

    def test_certificate_equals_certify_at_the_exponent(self):
        op = soft_threshold_op()
        plan = SamplingPlan(n_pairs=150, radius_scales=(0.1, 1.0, 10.0, 1e3, 1e4),
                            seed=14)
        est, cert = estimate_min_gamma(op, 0.5, plan=plan, bracket=(0.1, 2.0),
                                       return_certificate=True)
        direct = certify(op, "gan", {"gamma": est, "mu": 0.5}, plan=plan)
        assert cert.min_slack == direct.min_slack
        np.testing.assert_array_equal(cert.witness_x, direct.witness_x)
        np.testing.assert_array_equal(cert.witness_y, direct.witness_y)

    def test_small_mu_certificate_carries_heuristic_note(self):
        est, cert = estimate_min_gamma(
            affine(0.5, [0.0]), 0.8, plan=SamplingPlan(n_pairs=80, seed=27),
            bracket=(0.1, 2.0), return_certificate=True,
        )
        assert cert.passed and cert.gamma == est
        assert any("heuristic" in note for note in cert.notes)


class TestFpRatio:
    def test_affine_ratio_is_alpha(self):
        op = affine(0.7, [1.0, 0.0])
        est = estimate_fp_ratio(op, plan=SamplingPlan(seed=16))
        assert est == pytest.approx(0.7, rel=1e-12)

    def test_requires_hint(self):
        with pytest.raises(ValueError, match="hint"):
            estimate_fp_ratio(Operator(1, lambda x: 0.5 * x), plan=SamplingPlan(seed=0))


class TestOverflowingScales:
    # at these scales the squares of the sampled distances overflow a double
    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_claims_hold_where_squares_overflow(self, scale):
        op = affine(0.5, np.zeros(3))
        plan = SamplingPlan(n_pairs=50, radius_scales=(scale,), seed=1)
        for prop, params in (("nonexpansive", {}),
                             ("gan", {"gamma": 1.0, "mu": 0.5})):
            cert = certify(op, prop, params, plan=plan)
            assert cert.verdict == "PASS"
            assert np.isfinite(cert.min_slack)
            assert cert.recompute_slack(op) == cert.min_slack
        assert estimate_fp_ratio(op, plan=plan) == 0.5


class TestFormulas:
    def test_psi_at_zero_is_one(self):
        for gamma in (0.3, 1.0, 2.0, 5.0):
            assert psi(0.0, gamma) == 1.0

    def test_psi_at_exponent_one_is_constant(self):
        for alpha in np.linspace(0.0, 0.99, 12):
            assert psi(alpha, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_psi_hand_value(self):
        assert psi(0.5, 2.0) == pytest.approx(3.0, rel=1e-12)

    def test_psi_domain(self):
        with pytest.raises(ValueError):
            psi(1.0, 2.0)
        with pytest.raises(ValueError):
            psi(-0.1, 2.0)

    def test_psi_monotonicity_grid(self):
        alphas = np.arange(0.01, 1.0, 0.01)
        for gamma in (0.3, 0.7):
            values = [psi(a, gamma) for a in alphas]
            assert all(b < a for a, b in zip(values, values[1:]))
        for gamma in (1.5, 3.0):
            values = [psi(a, gamma) for a in alphas]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_mu_hat_hand_values(self):
        assert mu_hat(0.5, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert mu_hat(0.5, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_mu_hat_small_rho_limit(self):
        for gamma in (1.0, 2.0):
            assert mu_hat(1e-9, gamma) == pytest.approx(1.0, abs=1e-6)

    def test_mu_hat_domain(self):
        for rho in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                mu_hat(rho, 1.0)

    def test_composition_mu(self):
        assert composition_mu(0.4, 0.7, 1.0) == pytest.approx(0.4)
        assert composition_mu(1.0, 1.0, 2.0) == pytest.approx(0.5)
        assert composition_mu(3.0, 1.0, 2.0) == pytest.approx(0.5)

    def test_composition_mu_requires_gamma_at_least_one(self):
        with pytest.raises(ValueError):
            composition_mu(1.0, 1.0, 0.9)


class TestPowerInequalities:
    def test_superadditivity_above_exponent_one(self):
        rng = np.random.default_rng(17)
        a = rng.uniform(0.0, 2.0, 10_000)
        b = rng.uniform(0.0, 2.0, 10_000)
        gamma = rng.uniform(1.0 + 1e-9, 10.0, 10_000)
        slack = (a + b) ** gamma - a**gamma - b**gamma
        assert np.min(slack) >= -1e-12

    def test_exponent_lifting_preserves_dominance(self):
        rng = np.random.default_rng(18)
        a = rng.uniform(0.0, 2.0, 10_000)
        b = rng.uniform(0.0, 2.0, 10_000)
        gamma = rng.uniform(0.2, 5.0, 10_000)
        gamma2 = gamma + rng.uniform(1e-6, 5.0, 10_000)
        c = (a**gamma + b**gamma) ** (1.0 / gamma) + rng.uniform(0.0, 1.0, 10_000)
        assert np.all(a**gamma2 + b**gamma2 <= c**gamma2 + 1e-12)


class TestClassInclusions:
    def test_contraction_is_gan_at_every_exponent(self):
        rng = np.random.default_rng(19)
        for gamma in (0.5, 1.0, 2.0, 3.0):
            for rho in (0.2, 0.5, 0.9):
                op = affine(rho, [1.0, -1.0])
                mu = mu_hat(rho, gamma)
                for _ in range(250):
                    x = rng.standard_normal(2) * rng.choice([0.1, 1.0, 100.0])
                    y = rng.standard_normal(2) * rng.choice([0.1, 1.0, 100.0])
                    assert gan_slack(op, x, y, gamma, mu) >= -1e-10

    def test_exponent_lifting_on_certified_operator(self):
        # a pass at (g1, mu) forces slack at (g2, mu^(g2/g1)) on the same pairs
        op = soft_threshold_op()
        plan = SamplingPlan(n_pairs=500, radius_scales=(0.1, 1.0, 10.0, 1e3), seed=20)
        gamma1, mu = 1.0, 1.0
        cert = certify(op, "gan", {"gamma": gamma1, "mu": mu}, plan=plan)
        assert cert.passed
        xs, ys = sample_pairs(plan, op.dim, op.fixed_point_hint)
        for gamma2 in (1.5, 2.0, 3.0):
            lifted = mu ** (gamma2 / gamma1)
            slacks = [
                gan_slack(op, x, y, gamma2, lifted) for x, y in zip(xs, ys)
            ]
            assert min(slacks) >= -1e-10

    def test_composition_closure(self):
        plan_a = SamplingPlan(n_pairs=300, seed=21)
        plan_b = SamplingPlan(n_pairs=300, seed=22)
        fresh = SamplingPlan(n_pairs=300, seed=23)
        for gamma in (1.0, 2.0):
            s = affine(0.4, [1.0])
            t = soft_threshold_op()
            mu1 = estimate_mu(s, gamma, plan=plan_a) * (1 - 1e-9)
            mu2 = estimate_mu(t, gamma, plan=plan_b) * (1 - 1e-9)
            assert certify(s, "gan", {"gamma": gamma, "mu": mu1}, plan=plan_a).passed
            assert certify(t, "gan", {"gamma": gamma, "mu": mu2}, plan=plan_b).passed
            mu = composition_mu(mu1, mu2, gamma)
            cert = certify(compose(s, t), "gan", {"gamma": gamma, "mu": mu}, plan=fresh)
            assert cert.passed

    def test_composition_closure_forward_backward(self):
        # gradient step composed with a prox, both certified at exponent 2
        grad = lambda x: x - np.array([1.0, 2.0])
        step = gradient_step(grad, 1.0, 2)   # 1-Lipschitz gradient, beta = 1/L
        prox = prox_operator(l1_prox(0.5), 1.0, 2, fixed_point_hint=np.zeros(2))
        plan = SamplingPlan(n_pairs=300, seed=24)
        fresh = SamplingPlan(n_pairs=300, seed=25)
        mu1 = 1.0  # 2/(beta L) - 1 at beta = 1/L
        mu2 = 1.0  # firmly nonexpansive prox
        assert certify(step, "gan", {"gamma": 2.0, "mu": mu1}, plan=plan).passed
        assert certify(prox, "gan", {"gamma": 2.0, "mu": mu2}, plan=plan).passed
        composed = compose(prox, step)
        cert = certify(
            composed, "gan",
            {"gamma": 2.0, "mu": composition_mu(mu1, mu2, 2.0)}, plan=fresh,
        )
        assert cert.passed

    def test_small_exponent_gan_implies_fp_contractive(self):
        plan = SamplingPlan(n_pairs=300, seed=26)
        for rho in (0.3, 0.6):
            op = affine(rho, [2.0])
            mu = mu_hat(rho, 0.5)
            assert certify(op, "gan", {"gamma": 0.5, "mu": mu}, plan=plan).passed
            ratio = estimate_fp_ratio(op, plan=plan)
            cert = certify(op, "fp_contractive", {"rho": min(ratio + 1e-6, 1 - 1e-6)},
                           plan=plan)
            assert cert.passed


class TestRangeRegion:
    def test_exponent_two_region_is_the_halfway_disk(self):
        grid = range_region([1.0, 0.0], [0.0, 0.0], 2.0, 1.0, resolution=201)
        o1, o2 = np.meshgrid(grid.offsets1, grid.offsets2)
        # complete the square: membership is the disk centered halfway
        oracle = (o1 - 0.5) ** 2 + o2**2 <= 0.25
        np.testing.assert_array_equal(grid.mask, oracle)

    def test_vanishing_mu_recovers_the_whole_ball(self):
        grid = range_region([1.0, 0.0], [0.0, 0.0], 2.0, 1e-12, resolution=101)
        o1, o2 = np.meshgrid(grid.offsets1, grid.offsets2)
        inside = o1**2 + o2**2 <= (1.0 - 1e-9) ** 2
        assert np.all(grid.mask[inside])
        outside = o1**2 + o2**2 > (1.0 + 1e-9) ** 2
        assert not np.any(grid.mask[outside])

    def test_exponent_one_boundary_is_the_segment(self):
        # at mu = 1 the region degenerates to the segment between the points,
        # where the inequality holds with equality; the endpoint x satisfies
        # it with equality as well since its displacement term vanishes
        x, xhat = np.array([1.0, 0.0]), np.array([0.0, 0.0])
        d = np.linalg.norm(x - xhat)

        def member(y):
            return (
                np.linalg.norm(y - xhat) + np.linalg.norm(y - x) <= d
            )

        assert member(x)
        for t in (0.25, 0.5, 0.75):
            assert member(xhat + t * (x - xhat))
        assert not member(np.array([0.5, 0.01]))
        # at even resolution no cell center touches the measure-zero segment
        grid = range_region(x, xhat, 1.0, 1.0, resolution=100)
        assert not np.any(grid.mask)

    def test_symmetry_about_the_axis(self):
        for gamma in (1.0, 3.0):
            grid = range_region([1.0, 0.0], [0.0, 0.0], gamma, 0.5, resolution=201)
            np.testing.assert_array_equal(grid.mask, grid.mask[::-1, :])

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            range_region([1.0, 1.0], [1.0, 1.0], 2.0, 1.0)

    def test_header_metadata(self):
        grid = range_region([1.0, 0.0], [0.0, 0.0], 2.0, 1.0, resolution=21)
        assert grid.resolution == 21
        assert grid.bounds == (-1.0, 1.0, -1.0, 1.0)


class TestSamplingPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingPlan(n_pairs=0)
        with pytest.raises(ValueError):
            SamplingPlan(radius_scales=())
        with pytest.raises(ValueError):
            SamplingPlan(radius_scales=(1.0, -1.0))

    def test_same_seed_reproduces_samples(self):
        plan = SamplingPlan(n_pairs=50, seed=42)
        x1, y1 = sample_pairs(plan, 3, None)
        x2, y2 = sample_pairs(plan, 3, None)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_hint_adds_straddling_pairs(self):
        plan = SamplingPlan(n_pairs=50, seed=43)
        bare, _ = sample_pairs(plan, 2, None)
        hinted, _ = sample_pairs(plan, 2, np.zeros(2))
        assert hinted.shape[0] > bare.shape[0]
