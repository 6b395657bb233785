import json
import re

import numpy as np
import pytest

from fpcert import operators, problems
from fpcert.certify import SamplingPlan, certify, estimate_mu
from fpcert.cli import main
from fpcert.iterate import picard
from fpcert.metrics import L1, NotPositiveDefiniteError, primal_dual_metric, write_matrix
from fpcert.operators import gradient_step, primal_dual, proximal_gradient
from fpcert.problems import (
    ProblemSpec,
    RankDeficientError,
    analysis_l1_problem,
    build_operator,
    default_step_sizes,
    least_squares_problem,
    reference_solution,
    separable_smooth_l1_problem,
    step_size_bounds,
)

MODERATE_PLAN = SamplingPlan(n_pairs=250, radius_scales=(0.1, 1.0, 10.0), seed=0)

# sigma_2 / sigma_1 = 0.9999: power iteration gains a factor 0.9998 a sweep
CLUSTERED = [1.0, 0.9999, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2]


def designed(singular_values, rows=30, seed=0):
    """A rows x n design with the given singular values and random singular vectors."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((rows, len(singular_values))))
    v, _ = np.linalg.qr(rng.standard_normal((len(singular_values),) * 2))
    return (u * singular_values) @ v.T


class TestLeastSquares:
    def test_identity_design(self):
        p = least_squares_problem(np.eye(2), [3.0, 4.0])
        np.testing.assert_allclose(p.exact_solution, [3.0, 4.0], atol=1e-12)
        assert p.lipschitz == pytest.approx(1.0, rel=1e-9)

    def test_diagonal_design(self):
        # normal equations: diag(1,4) x = (1, 8), so x = (1, 2)
        p = least_squares_problem(np.diag([1.0, 2.0]), [1.0, 4.0])
        np.testing.assert_allclose(p.exact_solution, [1.0, 2.0], atol=1e-10)
        assert p.lipschitz == pytest.approx(4.0, rel=1e-9)
        assert p.lower_lipschitz == pytest.approx(1.0, rel=1e-9)

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((30, 10))
        b = rng.standard_normal(30)
        p = least_squares_problem(a, b)
        residual = np.linalg.norm(a.T @ (a @ p.exact_solution - b))
        assert residual <= 1e-8 * np.linalg.norm(a.T @ b)

    def test_rank_deficient_rejected(self):
        a = np.ones((5, 2))  # duplicate columns
        with pytest.raises(RankDeficientError):
            least_squares_problem(a, np.ones(5))

    def test_lipschitz_bounds_hold_on_samples(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((15, 6))
        p = least_squares_problem(a, rng.standard_normal(15))
        for _ in range(1000):
            x = rng.standard_normal(6) * rng.choice([0.1, 1.0, 100.0])
            y = rng.standard_normal(6) * rng.choice([0.1, 1.0, 100.0])
            gap = np.linalg.norm(p.grad_f(x) - p.grad_f(y))
            scale = np.linalg.norm(x - y)
            assert gap <= p.lipschitz * scale + 1e-8 * scale
            assert gap >= p.lower_lipschitz * scale - 1e-8 * scale


class TestSpectralConstants:
    def test_clustered_spectrum_matches_eigvalsh(self):
        a = designed(CLUSTERED)
        p = least_squares_problem(a, np.ones(30))
        eig = np.linalg.eigvalsh(a.T @ a)
        assert p.lipschitz == pytest.approx(eig[-1], rel=1e-12, abs=0)
        assert p.lower_lipschitz == pytest.approx(eig[0], rel=1e-12, abs=0)

    def test_ill_conditioned_design(self):
        # sigma_min / sigma_max = 1e-5: the Gram matrix has condition 1e10, so
        # eigvalsh of A^T A is no oracle for lambda_min.  An SVD of A is
        # accurate to a few eps * cond(A) = 2e-11 relative in lambda_min, and
        # its solution agrees with lstsq.
        singular_values = np.geomspace(1.0, 1e-5, 10)
        a = designed(singular_values)
        b = np.random.default_rng(1).standard_normal(30)
        p = least_squares_problem(a, b)
        assert p.lipschitz == pytest.approx(1.0, rel=1e-12, abs=0)
        assert p.lower_lipschitz == pytest.approx(1e-10, rel=1e-10, abs=0)
        oracle = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.max(np.abs(p.exact_solution - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_rank_rule_is_the_singular_value_ratio(self):
        # accepted above 1e-10 * sigma_max, however ill-conditioned the Gram
        p = least_squares_problem(designed([1.0] * 9 + [1e-9]), np.ones(30))
        assert p.lower_lipschitz > 0.0
        with pytest.raises(RankDeficientError):
            least_squares_problem(designed([1.0] * 9 + [1e-11]), np.ones(30))

    def test_wide_design_rejected(self):
        a = np.random.default_rng(2).standard_normal((5, 8))
        with pytest.raises(RankDeficientError):
            least_squares_problem(a, np.ones(5))

    def test_non_finite_design_rejected(self):
        for a, b in ((np.diag([1.0, np.nan]), np.ones(2)),
                     (np.eye(2), [np.inf, 1.0])):
            with pytest.raises(ValueError, match="finite"):
                least_squares_problem(a, b)
            with pytest.raises(ValueError, match="finite"):
                analysis_l1_problem(a, b, np.eye(2), 0.1)
        with pytest.raises(ValueError, match="finite"):
            analysis_l1_problem(np.eye(2), np.ones(2), [[np.nan, 1.0]], 0.1)

    @pytest.mark.parametrize("build, constant", [
        (lambda: analysis_l1_problem(np.zeros((2, 2)), np.ones(2), [[1.0, 0.0]], 0.0),
         "Lipschitz constant |A|_2^2"),
        (lambda: analysis_l1_problem([[1e200, 0.0], [0.0, 1.0]], np.ones(2),
                                     [[1.0, 0.0]], 0.0),
         "Lipschitz constant |A|_2^2"),
        (lambda: analysis_l1_problem(np.eye(2), np.ones(2), [[1e200, 0.0]], 0.0),
         "coupling constant |B|_2^2"),
        (lambda: least_squares_problem(designed([1e200, 1e200], rows=3), np.ones(3)),
         "Lipschitz constant |A|_2^2"),
        # s_max^2 underflows to 0, though the rank rule passes
        (lambda: least_squares_problem([[1e-200]], [1.0]),
         "Lipschitz constant |A|_2^2"),
        # L is subnormal, about 1e-320, so the default step 1/L overflows
        (lambda: least_squares_problem([[1e-160, 0.0], [0.0, 1e-160], [0.0, 0.0]],
                                       np.ones(3)),
         "Lipschitz constant |A|_2^2 is too small"),
        (lambda: analysis_l1_problem([[1e-160, 0.0], [0.0, 1e-160]], np.ones(2),
                                     [[1.0, 0.0]], 0.1),
         "Lipschitz constant |A|_2^2 is too small"),
        (lambda: separable_smooth_l1_problem([1e-320, 1e-320], [1.0, 2.0], 0.1),
         "Lipschitz constant max(coeffs) is too small"),
    ], ids=["analysis-zero-a", "analysis-huge-a", "analysis-huge-b",
            "least-squares-huge", "least-squares-tiny", "least-squares-subnormal",
            "analysis-subnormal", "separable-subnormal"])
    def test_degenerate_constant_rejected_at_construction(self, build, constant):
        # no step size can mend a constant that is 0 or overflows a double,
        # and none is the default for a constant whose 1/L overflows
        with pytest.raises(ValueError, match=re.escape(constant)):
            build()

    def test_coupling_norm_is_taken_once_at_construction(self):
        rng = np.random.default_rng(5)
        b_mat = rng.standard_normal((3, 5))
        p = analysis_l1_problem(rng.standard_normal((8, 5)), rng.standard_normal(8),
                                b_mat, 0.3)
        b_norm = float(np.linalg.norm(b_mat, 2))
        assert p.b_norm == b_norm
        for beta in (None, 0.5 / p.lipschitz):
            got_beta, eta = default_step_sizes(p, beta)
            bounds = step_size_bounds(p.lipschitz, b_norm, got_beta)
            assert got_beta == (1.0 / p.lipschitz if beta is None else beta)
            assert eta == 0.5 * bounds.eta_max

    def test_uncoupled_kinds_have_zero_coupling_norm(self):
        assert least_squares_problem(np.eye(2), [1.0, 2.0]).b_norm == 0.0
        assert separable_smooth_l1_problem([1.0, 2.0], [1.0, 2.0], 0.1).b_norm == 0.0

    def test_clustered_design_solves_from_the_cli(self, tmp_path):
        write_matrix(tmp_path / "A.txt", designed(CLUSTERED))
        write_matrix(tmp_path / "b.txt", np.ones((30, 1)))
        (tmp_path / "problem.json").write_text(json.dumps(
            {"kind": "least_squares", "A": "A.txt", "b": "b.txt"}))
        (tmp_path / "run.json").write_text(json.dumps({"problem": "problem.json"}))
        assert main(["solve", "--config", str(tmp_path / "run.json"),
                     "--out", str(tmp_path / "out")]) == 0


class TestSeparable:
    def test_unregularized_solution_is_target(self):
        p = separable_smooth_l1_problem([1.0, 2.0], [3.0, -4.0], 0.0)
        np.testing.assert_array_equal(p.exact_solution, [3.0, -4.0])

    def test_scalar_stationarity(self):
        p = separable_smooth_l1_problem([1.0], [5.0], 1.0)
        assert p.exact_solution[0] == pytest.approx(4.0)

    def test_subgradient_zero_region(self):
        p = separable_smooth_l1_problem([1.0], [0.5], 1.0)
        assert p.exact_solution[0] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            separable_smooth_l1_problem([0.0], [1.0], 0.5)
        with pytest.raises(ValueError):
            separable_smooth_l1_problem([1.0], [1.0], -0.5)
        with pytest.raises(ValueError, match="equal length"):
            separable_smooth_l1_problem([1.0, 2.0], [1.0], 0.5)

    @pytest.mark.parametrize("coeffs, b", [
        ([1.0, np.nan], [1.0, 2.0]), ([1.0, np.inf], [1.0, 2.0]),
        ([1.0, 2.0], [np.nan, 2.0]), ([1.0, 2.0], [1.0, -np.inf]),
    ], ids=["nan-coeff", "inf-coeff", "nan-b", "inf-b"])
    def test_non_finite_data_rejected(self, coeffs, b):
        with pytest.raises(ValueError, match="coeffs and b must be finite"):
            separable_smooth_l1_problem(coeffs, b, 0.5)

    def test_subnormal_coefficient_shrinks_its_coordinate_to_zero(self):
        # lam / c_i overflows to an infinite shrinkage, which is no warning
        p = separable_smooth_l1_problem([1.0, 1e-320], [1.0, 2.0], 0.1)
        assert p.lipschitz == 1.0
        np.testing.assert_array_equal(p.exact_solution, [0.9, 0.0])

    def test_closed_form_is_fixed_point(self):
        rng = np.random.default_rng(3)
        coeffs = rng.uniform(0.5, 2.0, 8)
        b = rng.normal(0.0, 2.0, 8)
        p = separable_smooth_l1_problem(coeffs, b, 0.6)
        op = build_operator(p)
        np.testing.assert_allclose(op(p.exact_solution), p.exact_solution, atol=1e-12)


    def test_explicit_array_hint_is_attached(self):
        p = separable_smooth_l1_problem([1.0, 2.0], [3.0, -0.1], 0.5)
        hint = np.array(p.exact_solution)
        op = build_operator(p, hint=hint)
        np.testing.assert_array_equal(op.fixed_point_hint, hint)
        assert build_operator(p, hint=None).fixed_point_hint is None


class TestAnalysis:
    def test_zero_coupling_reduces_to_gradient_descent(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((8, 4))
        b = rng.standard_normal(8)
        p = analysis_l1_problem(a, b, np.zeros((2, 4)), 0.5)
        beta, eta = default_step_sizes(p)
        op = build_operator(p)
        t1 = gradient_step(p.grad_f, beta, 4)
        v = np.concatenate([rng.standard_normal(4), np.zeros(2)])
        x = v[:4].copy()
        for _ in range(40):
            v = op(v)
            x = t1(x)
            assert np.max(np.abs(v[:4] - x)) <= 1e-12

    def test_identity_coupling_matches_separable_closed_form(self):
        rng = np.random.default_rng(5)
        n = 6
        b = rng.normal(0.0, 2.0, n)
        lam = 0.4
        p = analysis_l1_problem(np.eye(n), b, np.eye(n), lam)
        closed = separable_smooth_l1_problem(np.ones(n), b, lam).exact_solution
        op = build_operator(p)
        trace = picard(op, np.zeros(op.dim), 10**5, 1e-11)
        assert trace.converged
        np.testing.assert_allclose(trace.x_final[:n], closed, atol=1e-6)

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            analysis_l1_problem(np.eye(3), np.ones(2), np.eye(3), 0.1)
        with pytest.raises(ValueError):
            analysis_l1_problem(np.eye(3), np.ones(3), np.ones((2, 4)), 0.1)


def _precomposed_cases():
    rng = np.random.default_rng(21)
    a = designed([9.0, 5.0, 2.0, 1.0, 0.3], rows=12, seed=21)
    b = rng.standard_normal(12)
    bm = rng.standard_normal((3, 5)) / np.sqrt(5)
    return {
        "least_squares": least_squares_problem(a, b),
        "separable": separable_smooth_l1_problem(rng.uniform(0.5, 2.0, 5),
                                                 rng.standard_normal(5), 0.3),
        "analysis_l1": analysis_l1_problem(a, b, bm, 0.3),
    }


PRECOMPOSED = _precomposed_cases()


def _composed(problem, beta, eta):
    """The problem's map composed by the public constructors from grad_f."""
    if problem.b_mat is not None:
        return primal_dual(problem.grad_f, problem.prox_g, problem.b_mat, beta, eta)
    if problem.prox_g is None:
        return gradient_step(problem.grad_f, beta, problem.n)
    return proximal_gradient(problem.grad_f, problem.prox_g, beta, problem.n)


class TestPrecomposedMaps:
    @pytest.mark.parametrize("kind", sorted(PRECOMPOSED))
    @pytest.mark.parametrize("beta_scale", [None, 0.3, 1.9])
    def test_map_agrees_with_the_composed_constructors(self, kind, beta_scale):
        problem = PRECOMPOSED[kind]
        beta = None if beta_scale is None else beta_scale / problem.lipschitz
        beta, eta = default_step_sizes(problem, beta)
        op = build_operator(problem, beta, eta, hint=None)
        composed = _composed(problem, beta, eta)
        rng = np.random.default_rng(22)
        xs = 10.0 ** rng.uniform(-2.0, 3.0, (40, 1)) * rng.standard_normal((40, op.dim))
        bound = 1e-12 * (1.0 + np.linalg.norm(xs, axis=1))
        for got in (op(xs), np.array([op(x) for x in xs])):
            assert (np.linalg.norm(got - composed(xs), axis=1) <= bound).all()

    def test_diagonal_quadratic_with_a_coupling_matrix(self):
        # H given as its diagonal builds the map of the same H as a matrix
        problem = analysis_l1_problem(np.diag([2.0, 1.0, 0.5]), [1.0, 2.0, 3.0],
                                      [[1.0, -1.0, 0.0]], 0.3)
        h, g = problem.quadratic
        diagonal = ProblemSpec(**{**vars(problem), "quadratic": (np.diag(h).copy(), g)})
        xs = np.random.default_rng(26).standard_normal((20, 4))
        np.testing.assert_array_equal(build_operator(diagonal, hint=None)(xs),
                                      build_operator(problem, hint=None)(xs))

    @pytest.mark.parametrize("problem", [
        PRECOMPOSED["least_squares"],
        PRECOMPOSED["separable"],
        least_squares_problem(designed(np.geomspace(1.0, 1e-4, 8)),
                              np.random.default_rng(23).standard_normal(30)),
    ], ids=["least_squares", "separable", "ill_conditioned"])
    def test_exact_solution_is_accepted_as_the_hint(self, problem):
        op = build_operator(problem)
        np.testing.assert_array_equal(op.fixed_point_hint, problem.exact_solution)

    def test_dual_block_takes_both_subtractions_of_the_moreau_form(self):
        # the new dual block is eta * (s - prox(1/eta, s)) at the pre-image s
        # the prox sees, bit for bit; eta * clip(s) equals it in exact
        # arithmetic only
        problem = PRECOMPOSED["analysis_l1"]
        seen = []

        def recording(t, s):
            seen.append((t, s.copy()))
            return problem.prox_g(t, s)

        _, eta = default_step_sizes(problem)
        op = build_operator(ProblemSpec(**{**vars(problem), "prox_g": recording}),
                            hint=None)
        rng = np.random.default_rng(25)
        xs = 10.0 ** rng.uniform(-2.0, 3.0, (40, 1)) * rng.standard_normal((40, op.dim))
        got = op(xs)
        assert len(seen) == len(xs)
        for (t, s), row in zip(seen, got):
            assert t == 1.0 / eta
            assert row[problem.n:].tobytes() == (eta * (s - problem.prox_g(t, s))).tobytes()
        # the built-in prox's kernel gives the same bits
        assert build_operator(problem, hint=None)(xs).tobytes() == got.tobytes()

    def test_primal_dual_reference_state_is_accepted_as_the_hint(self):
        problem = PRECOMPOSED["analysis_l1"]
        state = reference_solution(problem).state
        np.testing.assert_array_equal(build_operator(problem, hint=state).fixed_point_hint,
                                      state)

    def test_gradient_is_the_data_fit_gradient(self):
        rng = np.random.default_rng(24)
        a = designed([9.0, 5.0, 2.0, 1.0, 0.3], rows=12, seed=21)
        b = rng.standard_normal(12)
        coeffs, c = rng.uniform(0.5, 2.0, 5), rng.standard_normal(5)
        cases = [
            (least_squares_problem(a, b), lambda x: a.T @ (a @ x - b)),
            (separable_smooth_l1_problem(coeffs, c, 0.3), lambda x: coeffs * (x - c)),
            (analysis_l1_problem(a, b, np.eye(5), 0.3), lambda x: a.T @ (a @ x - b)),
        ]
        xs = 10.0 ** rng.uniform(-2.0, 3.0, (40, 1)) * rng.standard_normal((40, 5))
        for problem, direct in cases:
            want = np.array([direct(x) for x in xs])
            bound = 1e-12 * problem.lipschitz * (1.0 + np.linalg.norm(xs, axis=1))
            for got in (problem.grad_f(xs), np.array([problem.grad_f(x) for x in xs])):
                assert (np.linalg.norm(got - want, axis=1) <= bound).all()

    @pytest.mark.parametrize("kind", sorted(PRECOMPOSED))
    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_step_size_that_is_not_positive_raises(self, kind, beta):
        with pytest.raises(ValueError, match="beta must"):
            build_operator(PRECOMPOSED[kind], beta)

    def test_infinite_coefficient_raises_instead_of_iterating_nan(self):
        # L = inf would give beta = 1/L = 0; the constructor refuses first
        with pytest.raises(ValueError, match="coeffs and b must be finite"):
            separable_smooth_l1_problem([1.0, np.inf], [1.0, 2.0], 0.1)

    def test_non_positive_definite_step_pair_raises(self):
        problem = PRECOMPOSED["analysis_l1"]
        beta = 1.0 / problem.lipschitz
        # 1/(beta*eta) = |B|^2 / 2 puts the coupled metric's Schur complement
        # below zero
        eta = 2.0 / (beta * problem.b_norm**2)
        with pytest.raises(NotPositiveDefiniteError):
            build_operator(problem, beta, eta)

    @pytest.mark.parametrize("kind,products", [("least_squares", 1), ("separable", 0),
                                               ("analysis_l1", 1)])
    def test_one_step_makes_one_matrix_vector_product(self, monkeypatch, kind, products):
        op = build_operator(PRECOMPOSED[kind], hint=None)
        calls = []
        matvec = operators._matvec

        def counting(mat, x, *out):
            calls.append(x.shape)
            return matvec(mat, x, *out)

        monkeypatch.setattr(operators, "_matvec", counting)
        for x in (np.ones(op.dim), np.ones((7, op.dim))):
            calls.clear()
            op(x)
            assert calls == [x.shape] * products


class TestStepSizeBounds:
    def test_beta_bound(self):
        assert step_size_bounds(2.0).beta_max == pytest.approx(1.0)

    def test_eta_bound_hand_value(self):
        bounds = step_size_bounds(2.0, 1.0, beta=0.5)
        assert bounds.eta_max == pytest.approx(0.5)

    def test_zero_coupling_eta_bound(self):
        for lipschitz, beta in [(2.0, 0.5), (4.0, 0.4)]:
            bounds = step_size_bounds(lipschitz, 0.0, beta=beta)
            assert bounds.eta_max == pytest.approx(2.0 / lipschitz)

    def test_beta_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            step_size_bounds(2.0, 1.0, beta=1.0)

    def test_coupling_inequality_inside_and_outside(self):
        bounds = step_size_bounds(2.0, 1.0, beta=0.5)
        eta = bounds.eta_max
        assert bounds.coupling_holds(0.5, 0.999 * eta)
        assert not bounds.coupling_holds(0.5, 1.001 * eta)
        # two negative steps make the product positive; no step at or below 0 holds
        assert (1.0 / -0.5 - 1.0) * (1.0 / -0.5 - 1.0) > bounds.b_norm ** 2
        assert not bounds.coupling_holds(-0.5, -0.5)
        assert not bounds.coupling_holds(0.0, eta)

    def test_coupling_across_random_admissible_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            lipschitz = rng.uniform(0.5, 5.0)
            b_norm = rng.uniform(0.0, 3.0)
            beta = rng.uniform(0.05, 0.95) * 2.0 / lipschitz
            bounds = step_size_bounds(lipschitz, b_norm, beta=beta)
            eta = rng.uniform(0.05, 0.95) * bounds.eta_max
            assert bounds.coupling_holds(beta, eta)


class TestReferenceSolution:
    def test_closed_forms_pass_through(self):
        p = least_squares_problem(np.eye(2), [1.0, 2.0])
        ref = reference_solution(p)
        assert ref.closed_form
        np.testing.assert_array_equal(ref.value, p.exact_solution)

        q = separable_smooth_l1_problem([1.0], [5.0], 1.0)
        assert reference_solution(q).value[0] == pytest.approx(4.0)

    def test_analysis_reference_runs_the_iteration(self):
        rng = np.random.default_rng(7)
        b = rng.normal(0.0, 1.0, 5)
        diff = np.zeros((4, 5))
        for i in range(4):
            diff[i, i], diff[i, i + 1] = -1.0, 1.0
        p = analysis_l1_problem(np.eye(5), b, diff, 0.3)
        ref = reference_solution(p)
        assert not ref.closed_form
        assert ref.residual <= 1e-11
        assert ref.value.shape == (5,)
        assert ref.state.shape == (9,)

    def test_iteration_that_stops_short_raises(self, monkeypatch):
        def three_steps(op, x0, max_iter, res_tol):
            return picard(op, x0, 3, res_tol)

        monkeypatch.setattr(problems, "picard", three_steps)
        p = analysis_l1_problem(np.eye(2), [1.0, 2.0], [[1.0, -1.0]], 0.3)
        with pytest.raises(problems.ReferenceError, match="stopped with max_iter"):
            reference_solution(p)


class TestOperatorProperties:
    def test_gradient_descent_error_ratio_bounded_by_eigen_oracle(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((8, 4))
        b = rng.standard_normal(8)
        p = least_squares_problem(a, b)
        evals = np.linalg.eigvalsh(a.T @ a)
        for frac in (0.3, 1.0, 1.7):
            beta = frac / p.lipschitz
            oracle = max(abs(1.0 - beta * evals[0]), abs(1.0 - beta * evals[-1]))
            op = build_operator(p, beta=beta)
            trace = picard(op, rng.standard_normal(4), 4000, 1e-4,
                           ref=p.exact_solution)
            assert trace.converged
            e = trace.errors_to_ref
            ratios = e[1:][e[:-1] > 0] / e[:-1][e[:-1] > 0]
            assert np.max(ratios) <= oracle + 1e-10

    def test_gradient_descent_is_holder_regular(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((12, 5))
        p = least_squares_problem(a, rng.standard_normal(12))
        beta = 1.0 / p.lipschitz
        mu = 1.0 / (beta * p.lower_lipschitz)
        op = build_operator(p, beta=beta)
        cert = certify(op, "holder_regular", {"gamma": 1.0, "mu": mu},
                       plan=MODERATE_PLAN)
        assert cert.passed

    def test_scalar_smooth_convex_gradient_step_is_gan_exponent_one(self):
        # logistic loss: a genuinely nonlinear convex 1-D objective
        slope = 4.0
        lipschitz = slope * slope / 4.0

        def grad(x):
            return slope / (1.0 + np.exp(-slope * x)) - slope / 2.0

        for frac in (0.5, 1.0, 1.6):
            beta = frac / lipschitz
            mu = min(0.5, 2.0 / (beta * lipschitz) - 1.0)
            op = gradient_step(grad, beta, 1)
            cert = certify(op, "gan", {"gamma": 1.0, "mu": mu}, plan=MODERATE_PLAN)
            assert cert.passed

    def test_forward_backward_is_gan_exponent_one_in_l1(self):
        rng = np.random.default_rng(10)
        coeffs = rng.uniform(0.5, 2.0, 12)
        b = rng.normal(0.0, 2.0, 12)
        p = separable_smooth_l1_problem(coeffs, b, 0.5)
        op = build_operator(p)
        cert = certify(op, "gan", {"gamma": 1.0, "mu": 0.999}, L1, MODERATE_PLAN)
        assert cert.passed

    def test_gradient_and_forward_backward_are_gan_exponent_two(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((10, 4))
        ls = least_squares_problem(a, rng.standard_normal(10))
        beta = 1.0 / ls.lipschitz
        mu = 2.0 / (beta * ls.lipschitz) - 1.0  # averagedness constant
        t1 = build_operator(ls, beta=beta)
        assert certify(t1, "gan", {"gamma": 2.0, "mu": mu * (1 - 1e-9)},
                       plan=MODERATE_PLAN).passed

        sep = separable_smooth_l1_problem(rng.uniform(0.5, 2.0, 6),
                                          rng.normal(0.0, 2.0, 6), 0.4)
        t2 = build_operator(sep)
        assert certify(t2, "gan", {"gamma": 2.0, "mu": 0.5 * (1 - 1e-9)},
                       plan=MODERATE_PLAN).passed

    def test_primal_dual_is_gan_exponent_two_in_coupled_metric(self):
        rng = np.random.default_rng(12)
        b = rng.normal(0.0, 1.0, 5)
        diff = np.zeros((4, 5))
        for i in range(4):
            diff[i, i], diff[i, i + 1] = -1.0, 1.0
        p = analysis_l1_problem(np.eye(5), b, diff, 0.4)
        beta, eta = default_step_sizes(p)
        bounds = step_size_bounds(p.lipschitz, p.b_norm, beta=beta)
        assert eta < bounds.eta_max
        op = build_operator(p)
        w_norm = primal_dual_metric(beta, eta, diff).norm_spec()
        plan = SamplingPlan(n_pairs=250, seed=13)
        mu = estimate_mu(op, 2.0, w_norm, plan)
        assert mu > 0.05
        cert = certify(op, "gan", {"gamma": 2.0, "mu": mu * (1 - 1e-6)}, w_norm, plan)
        assert cert.passed

    def test_overlong_step_breaks_nonexpansiveness(self):
        lipschitz = 2.0
        op = gradient_step(lambda x: lipschitz * x, 3.0 / lipschitz, 1)
        cert = certify(op, "nonexpansive", {}, plan=MODERATE_PLAN)
        assert not cert.passed
