import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpcert.metrics import L1, L2, NotPositiveDefiniteError, norm
from fpcert.operators import (
    Operator,
    affine,
    block_soft_threshold,
    box_prox,
    compose,
    gradient_step,
    identity,
    l1_prox,
    l2_prox,
    primal_dual,
    prox_operator,
    proximal_gradient,
    soft_threshold,
    zero_prox,
)
from fpcert.problems import (
    analysis_l1_problem,
    build_operator,
    least_squares_problem,
    separable_smooth_l1_problem,
)


class TestOperatorType:
    def test_apply_checks_input_dimension(self):
        op = identity(3)
        with pytest.raises(ValueError, match="dimension"):
            op([1.0, 2.0])

    def test_apply_checks_output_dimension(self):
        op = Operator(2, lambda x: x[:1], label="truncating")
        with pytest.raises(ValueError, match="returned"):
            op([1.0, 2.0])

    def test_bad_hint_rejected(self):
        with pytest.raises(ValueError, match="hint"):
            affine_like = Operator(1, lambda x: 0.5 * x, fixed_point_hint=[1.0])
            del affine_like

    def test_non_finite_hint_image_rejected_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="moves by nan"):
                Operator(1, lambda x: x * np.nan, np.zeros(1))
            with pytest.raises(ValueError, match="moves by inf"):
                Operator(2, lambda x: x * 1e300, np.full(2, 1e10))


class TestGradientStep:
    def test_identity_gradient_zero_map(self):
        op = gradient_step(lambda x: x, 1.0, 2)
        np.testing.assert_array_equal(op([3.0, -1.0]), [0.0, 0.0])

    def test_hand_evaluated_step(self):
        op = gradient_step(lambda x: 2.0 * x, 0.5, 1)
        assert op([3.0])[0] == 0.0

    def test_zero_gradient_is_identity(self):
        op = gradient_step(lambda x: np.zeros_like(x), 0.7, 3)
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(op(x), x)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            gradient_step(lambda x: x, 0.0, 1)


class TestSoftThreshold:
    def test_above_threshold_shifts_down(self):
        np.testing.assert_allclose(soft_threshold(1.0, [2.5]), [1.5])

    def test_dead_zone_collapses_to_zero(self):
        np.testing.assert_array_equal(soft_threshold(1.0, [0.5, -0.3]), [0.0, 0.0])

    def test_below_negative_threshold_shifts_up(self):
        np.testing.assert_allclose(soft_threshold(1.0, [-2.5]), [-1.5])

    def test_zero_threshold_is_identity(self):
        x = np.array([1.0, -2.0, 0.0])
        np.testing.assert_array_equal(soft_threshold(0.0, x), x)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            soft_threshold(-0.1, [1.0])

    def test_one_lipschitz_in_l1_and_l2(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            lam = rng.uniform(0.0, 2.0)
            x = rng.standard_normal(5) * rng.choice([0.1, 1.0, 100.0])
            y = rng.standard_normal(5) * rng.choice([0.1, 1.0, 100.0])
            dx, dy = soft_threshold(lam, x), soft_threshold(lam, y)
            for spec in (L1, L2):
                slack = norm(x - y, spec) - norm(dx - dy, spec)
                assert slack >= -1e-12

    @settings(max_examples=300, deadline=None)
    @given(
        lam=st.floats(0.0, 10.0),
        t1=st.floats(-1e6, 1e6),
        t2=st.floats(-1e6, 1e6),
    )
    def test_scalar_monotonicity(self, lam, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        assert soft_threshold(lam, [hi])[0] >= soft_threshold(lam, [lo])[0]


class TestBlockSoftThreshold:
    def test_radial_shrink(self):
        np.testing.assert_allclose(block_soft_threshold(1.0, [3.0, 4.0]), [2.4, 3.2])

    def test_inside_ball_collapses(self):
        np.testing.assert_array_equal(block_soft_threshold(2.0, [1.0, 1.0]), [0.0, 0.0])

    def test_zero_threshold_is_identity(self):
        x = np.array([1.0, -2.0])
        np.testing.assert_array_equal(block_soft_threshold(0.0, x), x)


class TestProxFamilies:
    def test_l1_family_scales(self):
        prox = l1_prox(2.0)
        np.testing.assert_allclose(prox(0.5, np.array([3.0])), [2.0])

    def test_l2_family_scales(self):
        prox = l2_prox(1.0)
        np.testing.assert_allclose(prox(1.0, np.array([3.0, 4.0])), [2.4, 3.2])

    def test_zero_family_is_identity(self):
        prox = zero_prox()
        x = np.array([5.0, -1.0])
        np.testing.assert_array_equal(prox(3.0, x), x)

    def test_box_family_projects(self):
        prox = box_prox(-1.0, 1.0)
        np.testing.assert_array_equal(prox(0.1, np.array([2.0, -3.0, 0.5])),
                                      [1.0, -1.0, 0.5])

    def test_prox_operator_wraps_family(self):
        op = prox_operator(l1_prox(1.0), 2.0, 1, fixed_point_hint=[0.0])
        assert op([5.0])[0] == 3.0


class TestCompose:
    def test_identity_law(self):
        t = affine(0.5, [1.0])
        c = compose(identity(1), t)
        x = np.array([3.0])
        np.testing.assert_array_equal(c(x), t(x))

    def test_realizes_forward_backward_map(self):
        # prox after gradient step composed explicitly equals the fused builder
        grad = lambda x: x - np.array([2.0, -1.0])
        beta = 0.4
        fused = proximal_gradient(grad, l1_prox(0.7), beta, 2)
        composed = compose(
            prox_operator(l1_prox(0.7), beta, 2), gradient_step(grad, beta, 2)
        )
        rng = np.random.default_rng(1)
        for _ in range(25):
            x = rng.standard_normal(2) * 10
            np.testing.assert_array_equal(composed(x), fused(x))

    def test_scalar_contractions_multiply(self):
        c = compose(affine(0.5, [0.0]), affine(0.5, [0.0]))
        np.testing.assert_array_equal(c([8.0]), [2.0])

    def test_associativity_is_exact(self):
        a = affine(0.3, [1.0, -1.0])
        b = prox_operator(l1_prox(1.0), 1.0, 2)
        c = gradient_step(lambda x: 0.5 * x, 0.8, 2)
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.standard_normal(2) * rng.choice([1.0, 1e3])
            np.testing.assert_array_equal(left(x), right(x))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="compose"):
            compose(identity(2), identity(3))

    def test_hint_kept_when_hints_agree(self):
        s = affine(0.5, [1.0])   # fixed point 2
        t = affine(0.25, [1.5])  # fixed point 2
        assert compose(s, t).fixed_point_hint[0] == pytest.approx(2.0)

    def test_hint_dropped_when_hints_disagree(self):
        s = affine(0.5, [1.0])  # fixed point 2
        t = affine(0.5, [2.0])  # fixed point 4
        assert compose(s, t).fixed_point_hint is None

    def test_hint_dropped_when_one_side_missing(self):
        s = identity(1)
        t = affine(0.5, [1.0])
        assert compose(s, t).fixed_point_hint is None


class TestAffine:
    def test_alpha_one_zero_shift_is_identity(self):
        op = affine(1.0, [0.0, 0.0])
        x = np.array([2.0, -3.0])
        np.testing.assert_array_equal(op(x), x)
        assert op.fixed_point_hint is None

    def test_alpha_zero_is_constant(self):
        op = affine(0.0, [4.0, 5.0])
        np.testing.assert_array_equal(op([100.0, -100.0]), [4.0, 5.0])
        np.testing.assert_array_equal(op.fixed_point_hint, [4.0, 5.0])

    def test_fixed_point_hint_solves_equation(self):
        op = affine(0.5, [1.0])
        np.testing.assert_allclose(op.fixed_point_hint, [2.0])
        np.testing.assert_allclose(op(op.fixed_point_hint), [2.0])


class TestPrimalDual:
    def setup_method(self):
        self.n = 2
        self.target = np.array([1.0, -2.0])
        self.grad = lambda x: x - self.target

    def test_zero_coupling_decouples_blocks(self):
        b = np.zeros((1, self.n))
        op = primal_dual(self.grad, zero_prox(), l1_prox(1.0), b, 0.5, 0.5)
        t1 = gradient_step(self.grad, 0.5, self.n)
        rng = np.random.default_rng(3)
        y = np.array([0.7])
        dual_values = []
        for _ in range(10):
            x = rng.standard_normal(self.n)
            out = op(np.concatenate([x, y]))
            np.testing.assert_array_equal(out[: self.n], t1(x))
            dual_values.append(out[self.n :])
        # the dual line is independent of the primal block when B = 0
        for value in dual_values[1:]:
            np.testing.assert_array_equal(value, dual_values[0])

    def test_all_identity_prox_fixes_primal_and_zeroes_dual(self):
        b = np.array([[0.3, -0.2]])
        op = primal_dual(
            lambda x: np.zeros_like(x), zero_prox(), zero_prox(), b, 0.5, 0.5
        )
        # at the zero dual the primal block is fixed exactly and the dual
        # line keeps returning the zero dual
        v = np.array([1.0, 2.0, 0.0])
        out = op(v)
        np.testing.assert_array_equal(out[: self.n], v[: self.n])
        np.testing.assert_array_equal(out[self.n :], [0.0])
        # from any dual, one application lands on the zero dual for good
        w = op(np.array([1.0, 2.0, 3.0]))
        assert w[self.n] == 0.0
        np.testing.assert_array_equal(op(w)[: self.n], w[: self.n])

    def test_scalar_instance_matches_grid_oracle(self):
        # brute-force grid minimizer of the scalar objective is the oracle
        lam = 0.5
        grad = lambda x: x - 1.0
        op = primal_dual(grad, zero_prox(), l1_prox(lam), np.array([[1.0]]), 0.5, 0.4)
        v = np.zeros(2)
        for _ in range(2000):
            v = op(v)
        grid = np.arange(-10.0, 10.0, 1e-4)
        objective = 0.5 * (grid - 1.0) ** 2 + lam * np.abs(grid)
        oracle = grid[np.argmin(objective)]
        assert abs(v[0] - oracle) <= 1e-3

    def test_inadmissible_steps_rejected_at_construction(self):
        with pytest.raises(NotPositiveDefiniteError):
            primal_dual(self.grad, zero_prox(), l1_prox(1.0),
                        np.array([[1.0, 0.0]]), 1.0, 1.0)


def declared(fn):
    """Mark a user callable as mapping whole (k, n) stacks."""
    fn.takes_stacks = True
    return fn


def _stack_cases():
    rng = np.random.default_rng(41)
    n = 5
    c = rng.standard_normal(n)
    grad = declared(lambda x: 2.0 * (x - c))
    b = 0.5 * rng.standard_normal((3, n)) / np.sqrt(n)
    a = rng.standard_normal((8, n))
    rhs = rng.standard_normal(8)
    return {
        "gradient_step": gradient_step(grad, 0.3, n),
        "soft_threshold": prox_operator(l1_prox(0.7), 1.3, n),
        "block_soft_threshold": prox_operator(l2_prox(0.7), 1.3, n),
        "zero_prox": prox_operator(zero_prox(), 1.0, n),
        "box_prox": prox_operator(box_prox(-1.0, 2.0), 1.0, n),
        "identity": identity(n),
        "affine": affine(0.5, c),
        "compose": compose(affine(0.5, c), prox_operator(l1_prox(0.7), 1.0, n)),
        "proximal_gradient": proximal_gradient(grad, l1_prox(0.5), 0.4, n),
        "primal_dual": primal_dual(grad, zero_prox(), l1_prox(0.5), b, 0.5, 0.5),
        "build_least_squares": build_operator(least_squares_problem(a, rhs)),
        "build_separable": build_operator(
            separable_smooth_l1_problem(rng.uniform(0.5, 2.0, n), c, 0.3)
        ),
        "build_analysis_l1": build_operator(analysis_l1_problem(a, rhs, b, 0.3)),
    }


STACK_CASES = _stack_cases()


def _stack(op, k=9, seed=42):
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-1.0, 3.0, (k, 1))
    return scales * rng.standard_normal((k, op.dim))


class TestStacks:
    @pytest.mark.parametrize("name", sorted(STACK_CASES))
    def test_builtin_declares_stack_support(self, name):
        assert STACK_CASES[name].fn.takes_stacks is True

    @pytest.mark.parametrize("name", sorted(STACK_CASES))
    def test_stack_matches_vector_rows(self, name):
        op = STACK_CASES[name]
        xs = _stack(op)
        stack = op(xs)
        rows = np.array([op(x) for x in xs])
        assert stack.shape == xs.shape
        scale = np.max(np.abs(rows), axis=1, keepdims=True)
        assert np.all(np.abs(stack - rows) <= 1e-12 * scale)

    @pytest.mark.parametrize("name", sorted(STACK_CASES))
    def test_stack_matches_stacks_of_one_bit_for_bit(self, name):
        op = STACK_CASES[name]
        xs = _stack(op, k=33)
        alone = np.vstack([op(x[None]) for x in xs])
        np.testing.assert_array_equal(op(xs), alone)

    def test_block_shrinkage_rows_around_the_threshold(self):
        xs = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 4.0], [6.0, 8.0], [-6.0, 8.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = block_soft_threshold(5.0, xs)
            zero_lam = block_soft_threshold(0.0, xs)
        np.testing.assert_array_equal(out[:3], np.zeros((3, 2)))
        np.testing.assert_array_equal(out[3:], [[3.0, 4.0], [-3.0, 4.0]])
        np.testing.assert_array_equal(zero_lam, xs)
        for row, got in zip(xs, out):
            np.testing.assert_array_equal(got, block_soft_threshold(5.0, row))

    def test_stack_capable_fn_with_wrong_shape_raises(self):
        op = Operator(2, declared(lambda x: x[..., :1]), label="truncating")
        with pytest.raises(ValueError, match="'truncating' returned shape"):
            op(np.ones((3, 2)))

    def test_undeclared_callable_called_once_per_row(self):
        calls = []

        def halve(x):
            calls.append(x.shape)
            return 0.5 * x

        op = Operator(3, halve)
        xs = np.arange(12.0).reshape(4, 3)
        np.testing.assert_array_equal(op(xs), 0.5 * xs)
        assert calls == [(3,)] * 4

    def test_compose_with_undeclared_factor_goes_row_by_row(self):
        calls = []

        def halve(x):
            calls.append(x.shape)
            return 0.5 * x

        op = compose(affine(2.0, np.ones(3)), Operator(3, halve))
        assert op.fn.takes_stacks is False
        xs = np.arange(12.0).reshape(4, 3)
        np.testing.assert_array_equal(op(xs), xs + 1.0)
        assert calls == [(3,)] * 4

    def test_rejects_stacks_of_the_wrong_width(self):
        with pytest.raises(ValueError, match="dimension"):
            identity(3)(np.ones((2, 4)))
        with pytest.raises(ValueError, match="dimension"):
            identity(3)(np.ones((2, 2, 3)))
