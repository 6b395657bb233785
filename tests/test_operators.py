import itertools
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpcert.certify import SamplingPlan, certify
from fpcert.iterate import picard
from fpcert.metrics import L1, L2, NotPositiveDefiniteError, norm
from fpcert.operators import (
    Operator,
    _affine,
    _steps,
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
)
from fpcert.problems import (
    ProblemSpec,
    analysis_l1_problem,
    build_operator,
    least_squares_problem,
    separable_smooth_l1_problem,
)

from helpers import stage_maps


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
        with pytest.raises(ValueError, match="fixed_point_hint dimension"):
            Operator(2, lambda x: x, fixed_point_hint=[1.0, 2.0, 3.0])

    def test_non_finite_hint_image_rejected_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="moves by nan"):
                Operator(1, lambda x: x * np.nan, np.zeros(1))
            with pytest.raises(ValueError, match="moves by inf"):
                Operator(2, lambda x: x * 1e300, np.full(2, 1e10))

    def test_hint_moved_far_is_rejected_where_its_squares_overflow(self):
        # the drift 1.4e195 exceeds the bound 1e-8 * 1e200; both norms'
        # squares overflow a double
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="moves by 1.414e"):
                Operator(2, lambda x: x + 1e195, np.array([1e200, 0.0]))


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

    @pytest.mark.parametrize("lam", [0.0, 0.7, 1.0, 3e5])
    def test_equals_the_sign_formula_but_for_the_sign_of_zeros(self, lam):
        rng = np.random.default_rng(17)
        special = [np.inf, -np.inf, np.nan, 0.0, -0.0, lam, -lam,
                   np.nextafter(lam, np.inf), -np.nextafter(lam, np.inf),
                   np.nextafter(lam, -np.inf), 5e-324, -5e-324, 1e308, -1e308]
        values = np.concatenate([special, rng.standard_normal(50) * lam,
                                 rng.standard_normal(50) * 10.0])
        for x in (values, values.reshape(19, 6)[:, ::-1], values[::3]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = soft_threshold(lam, x)
                expected = np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)
            assert got.shape == x.shape
            np.testing.assert_array_equal(got, expected)  # NaN == NaN, 0 == -0
            signs_differ = np.signbit(got) != np.signbit(expected)
            assert (expected[signs_differ] == 0.0).all()

    @settings(max_examples=300, deadline=None)
    @given(
        lam=st.floats(0.0, 10.0),
        t1=st.floats(-1e6, 1e6),
        t2=st.floats(-1e6, 1e6),
    )
    def test_scalar_monotonicity(self, lam, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        assert soft_threshold(lam, [hi])[0] >= soft_threshold(lam, [lo])[0]


def _moreau_max_min(t, x):
    """x - min(max(x, -t), t), the shrinkage as a max/min pair of ufuncs."""
    clipped = np.maximum(x, np.array(-t))
    np.minimum(clipped, np.array(t), out=clipped)
    return x - clipped


class TestClipKernel:
    """The shrinkage kernel, one ``clip`` ufunc, against the max/min pair."""

    THRESHOLDS = [5e-324, 1e-300, 0.3, 1.0, 2.5, 1e300, np.inf]

    @staticmethod
    def values(t):
        special = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan]
        for edge in (t, -t):
            special += [edge, np.nextafter(edge, np.inf), np.nextafter(edge, -np.inf)]
        rng = np.random.default_rng(24)
        magnitudes = 10.0 ** rng.uniform(-320.0, 308.0, 400)
        signs = rng.choice([-1.0, 1.0], 400)
        return np.concatenate([special, signs * magnitudes])

    @pytest.mark.parametrize("t", THRESHOLDS)
    def test_equals_the_max_min_form_by_bytes(self, t):
        prox = l1_prox(1.0)  # scale t, threshold t * 1.0 == t
        values = self.values(t)
        stack = values[: 20 * (len(values) // 20)].reshape(20, -1)
        with np.errstate(invalid="ignore"):  # inf - inf at t = inf
            for x in (values, stack, stack[:, ::3], stack[::2, 1::2], values[::-1]):
                expected = _moreau_max_min(t, x).tobytes()
                assert soft_threshold(t, x).tobytes() == expected
                assert prox(t, x).tobytes() == expected
                out = np.full(x.shape, np.nan)
                assert prox.bind(t)(x, out) is out
                assert out.tobytes() == expected
                inplace = x.copy()
                assert prox.bind(t)(inplace, inplace) is inplace
                assert inplace.tobytes() == expected
                strided = np.empty(x.shape + (2,))[..., 0]  # every other double
                strided[...] = x
                assert prox.bind(t)(strided, strided) is strided
                assert strided.tobytes() == expected

    def test_zero_threshold_maps_minus_zero_to_plus_zero_only(self):
        x = self.values(0.0)
        got = soft_threshold(0.0, x)
        minus_zero = (x == 0.0) & np.signbit(x)
        assert minus_zero.any()
        assert got[minus_zero].tobytes() == np.zeros(minus_zero.sum()).tobytes()
        assert got[~minus_zero].tobytes() == x[~minus_zero].tobytes()
        # the one place where clip and the max/min pair part: the pair keeps -0.0
        assert _moreau_max_min(0.0, x).tobytes() == x.tobytes()


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

    def test_box_family_projects(self):
        prox = box_prox(-1.0, 1.0)
        np.testing.assert_array_equal(prox(0.1, np.array([2.0, -3.0, 0.5])),
                                      [1.0, -1.0, 0.5])

    def test_box_family_equals_np_clip_by_bytes(self):
        x = np.array([[2.0, -3.0, 0.5, -0.0], [np.nan, np.inf, -1.0, 1e-300]])
        for lower, upper in ((-1.0, 1.0), ([-1.0, 0.0, 0.0, -0.0], [1.0, 1.0, 0.5, 0.0])):
            prox = box_prox(lower, upper)
            assert prox(0.1, x).tobytes() == np.clip(x, lower, upper).tobytes()

    def test_box_family_rejects_inverted_and_nan_bounds(self):
        # NaN passes a bare "lower > upper" test, and its box maps to NaN
        for lower, upper in ((1.0, -1.0), (np.nan, 1.0), (-1.0, np.nan),
                             ([0.0, np.nan], [1.0, 1.0])):
            with pytest.raises(ValueError, match="box bounds are inverted"):
                box_prox(lower, upper)

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

    def test_hint_dropped_without_warnings_when_the_gap_squares_overflow(self):
        s = affine(0.5, [1e200, 0.0])   # fixed point (2e200, 0)
        t = affine(0.5, [-1e200, 0.0])  # fixed point (-2e200, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert compose(s, t).fixed_point_hint is None

    def test_hint_kept_when_hints_agree_at_large_scale(self):
        # the two hints of one fixed point round apart by far more than 1e-8
        z = 1e9 * np.random.default_rng(0).standard_normal(3)
        s = affine(0.3, 0.7 * z)
        t = affine(0.9, 0.1 * z)
        assert norm(s.fixed_point_hint - t.fixed_point_hint) > 1e-8
        np.testing.assert_array_equal(compose(s, t).fixed_point_hint,
                                      t.fixed_point_hint)

    def test_hint_dropped_when_the_composition_moves_it(self):
        # the hints lie 3e-9 apart, within tolerance, but the expansive s
        # moves t's hint by 2.7e-8, past the 2e-8 an Operator admits there
        s = affine(10.0, [-9.0 * (1 + 3e-9)])
        t = affine(0.5, [0.5])
        op = compose(s, t)
        assert op.fixed_point_hint is None
        np.testing.assert_array_equal(op([3.0]), s(t([3.0])))

    @pytest.mark.parametrize("s, kept", [
        (affine(0.5, [0.5]), True),
        (affine(10.0, [-9.0 * (1 + 3e-9)]), False),
    ], ids=["hint-kept", "hint-moved"])
    def test_each_factor_runs_once_at_a_shared_hint(self, s, kept):
        calls = []

        def counted(op):
            def fn(x):
                calls.append(op.label)
                return op.fn(x)

            return Operator(op.dim, fn, op.fixed_point_hint, op.label)

        s, t = counted(s), counted(affine(0.5, [0.5]))
        calls.clear()
        op = compose(s, t)
        assert sorted(calls) == sorted([s.label, t.label])
        assert (op.fixed_point_hint is not None) == kept

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
        op = primal_dual(self.grad, l1_prox(1.0), b, 0.5, 0.5)
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
        op = primal_dual(lambda x: np.zeros_like(x), lambda t, x: x, b, 0.5, 0.5)
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
        op = primal_dual(grad, l1_prox(lam), np.array([[1.0]]), 0.5, 0.4)
        v = np.zeros(2)
        for _ in range(2000):
            v = op(v)
        grid = np.arange(-10.0, 10.0, 1e-4)
        objective = 0.5 * (grid - 1.0) ** 2 + lam * np.abs(grid)
        oracle = grid[np.argmin(objective)]
        assert abs(v[0] - oracle) <= 1e-3

    def test_inadmissible_steps_rejected_at_construction(self):
        with pytest.raises(NotPositiveDefiniteError):
            primal_dual(self.grad, l1_prox(1.0), np.array([[1.0, 0.0]]), 1.0, 1.0)

    def test_call_with_a_direct_prox_slot_raises(self):
        # the six-argument form binds a prox family to b_mat
        with pytest.raises(TypeError):
            primal_dual(self.grad, lambda t, x: x, l1_prox(1.0),
                        np.zeros((1, self.n)), 0.5, 0.5)


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
        "box_prox": prox_operator(box_prox(-1.0, 2.0), 1.0, n),
        "identity": identity(n),
        "affine": affine(0.5, c),
        "compose": compose(affine(0.5, c), prox_operator(l1_prox(0.7), 1.0, n)),
        "proximal_gradient": proximal_gradient(grad, l1_prox(0.5), 0.4, n),
        "primal_dual": primal_dual(grad, l1_prox(0.5), b, 0.5, 0.5),
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
        # every row of a stack gets its vector image bit for bit; 40 stacks
        # of 33 rows catch a row-norm formula that differs in the last bits
        op = STACK_CASES[name]
        for seed in range(40):
            xs = _stack(op, k=33, seed=seed)
            stack = op(xs)
            assert stack.shape == xs.shape
            np.testing.assert_array_equal(stack, [op(x) for x in xs])

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

    def test_block_shrinkage_at_an_infinite_threshold(self):
        # warns on no row: the suite turns a RuntimeWarning into an error
        xs = np.array([[3.0, -4.0], [0.0, 0.0], [1e300, 1e300]])
        np.testing.assert_array_equal(block_soft_threshold(np.inf, xs[0]), [0.0, 0.0])
        np.testing.assert_array_equal(block_soft_threshold(np.inf, xs), np.zeros((3, 2)))
        # 10 * 1e308 overflows to an infinite threshold
        np.testing.assert_array_equal(l2_prox(1e308)(10.0, xs[0]), [0.0, 0.0])

    def test_block_shrinkage_rows_whose_squares_overflow(self):
        xs = np.array([[3e200, -4e200, 1.0], [1.0, 2.0, 2.0], [1.5e308, 1.5e308, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = block_soft_threshold(1e200, xs)
            rows = [block_soft_threshold(1e200, x) for x in xs]
        np.testing.assert_array_equal(out, rows)
        np.testing.assert_allclose(out[0], [2.4e200, -3.2e200, 0.8], rtol=1e-15)
        np.testing.assert_array_equal(out[1], np.zeros(3))

    def test_block_shrinkage_vector_equals_its_stack_row_by_bytes(self):
        # a vector and each row of a stack shrink alike by bytes: absorbed
        # rows, negative zeros included, come out +0.0, and NaN, infinite
        # and overflowing rows agree too, in place and into a fresh array
        xs = np.array([[-1.0, -0.0, 2.0], [-0.0, -0.0, -0.0], [0.3, -0.4, 0.0],
                       [np.nan, 1.0, 0.0], [np.inf, -1.0, 0.0],
                       [3e200, -4e200, 1.0], [1.5e308, -1.5e308, 0.0],
                       [6.0, -8.0, 0.5]])
        for lam in [0.0, 0.5, 5.0, 1e200, np.inf]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                stack = block_soft_threshold(lam, xs)
                bind = l2_prox(1.0).bind
                for x, row in zip(xs, stack):
                    assert block_soft_threshold(lam, x).tobytes() == row.tobytes()
                    out = np.full_like(x, np.nan)
                    assert bind(lam)(x, out) is out
                    assert out.tobytes() == row.tobytes()
                    x = x.copy()
                    assert bind(lam)(x, x).tobytes() == row.tobytes()

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


# every built-in map, by the name of its constructor; the maps of user
# callables carry no kernel of their own
KERNEL_MAPS = {name: STACK_CASES[name].fn for name in
               ["soft_threshold", "block_soft_threshold", "box_prox", "identity",
                "affine", "build_least_squares", "build_separable", "build_analysis_l1"]}
KERNEL_MAPS["grad_f"] = least_squares_problem(
    np.random.default_rng(43).standard_normal((8, 5)), np.ones(8)).grad_f
KERNEL_MAPS["grad_f_diagonal"] = separable_smooth_l1_problem(
    [0.5, 1.0, 2.0, 3.0, 4.0], [1.0, -1.0, 0.5, 0.0, 2.0], 0.3).grad_f
# the maps whose fn is a prox family's stage kernel (x, out)
PROX_MAPS = ["soft_threshold", "block_soft_threshold", "box_prox"]
KERNEL_FAMILIES = {"l1_prox": l1_prox(0.7), "l2_prox": l2_prox(0.7),
                   "box_prox": box_prox(-1.0, 2.0)}


def _kernel_stack(dim, seed):
    """A stack of 33 rows with signed zeros and entries in the dead zones
    of the prox maps above, whose images hold zeros of either sign."""
    rng = np.random.default_rng(seed)
    xs = _stack(Operator(dim, declared(lambda x: x)), k=33, seed=seed)
    xs[0] = -0.0
    xs[1] = 0.0
    xs[2] = rng.uniform(-0.5, 0.5, dim)
    xs[3] = np.where(rng.random(dim) < 0.5, -0.0, rng.uniform(-0.5, 0.5, dim))
    return xs


# every map with a block kernel, with its dimension: the affine maps, the
# maps of build_operator and grad_f from KERNEL_MAPS, and the stage maps with
# no stage and with the soft threshold as the stage
WALK_MAPS = {name: (KERNEL_MAPS[name], 8 if name == "build_analysis_l1" else 5)
             for name in ["identity", "affine", "build_least_squares", "build_separable",
                          "build_analysis_l1", "grad_f", "grad_f_diagonal"]}
WALK_MAPS.update({name: stage for name, stage in stage_maps().items()
                  if name in ("stage_none_diagonal", "stage_soft_matrix")})


# the _affine maps without a stage, whose record is the whole map
RECORD_MAPS = ["identity", "affine", "build_least_squares", "grad_f", "grad_f_diagonal",
               "stage_none_diagonal"]


class TestKernels:
    def test_exactly_the_maps_the_workloads_step_carry_a_walk(self):
        # every _affine kernel carries its record, and _steps builds a walk
        # for the gradient, l1 forward-backward and primal-dual maps; the
        # prox maps, the other stages and the maps of user callables get
        # none, and no map carries a walk of its own
        maps = {name: op.fn for name, op in STACK_CASES.items()}
        maps.update(KERNEL_MAPS)
        maps.update({name: fn for name, (fn, _) in stage_maps().items()})
        maps["user_callable"] = Operator(5, declared(lambda x: 0.5 * x)).fn
        walking = {name for name, fn in maps.items() if _steps(fn, 2) is not None}
        assert walking == {"identity", "affine", "build_least_squares",
                           "build_separable", "build_analysis_l1", "grad_f",
                           "grad_f_diagonal", "stage_none_diagonal", "stage_soft_matrix"}
        assert set(maps) - walking == {
            "soft_threshold", "block_soft_threshold", "box_prox", "stage_box",
            "stage_block_shrinkage", "stage_user_family", "stage_dual_block_shrinkage",
            "stage_dual_user_family", "user_callable", "compose", "gradient_step",
            "proximal_gradient", "primal_dual"}
        recorded = {name for name, fn in maps.items() if hasattr(fn, "affine")}
        assert recorded == walking | {name for name in maps if name.startswith("stage_")}
        assert not any(hasattr(fn, "into") or hasattr(fn, "walk") for fn in maps.values())

    @pytest.mark.parametrize("name", RECORD_MAPS)
    def test_the_record_of_a_map_without_a_stage_is_the_map(self, name):
        # fn(x) is the record's own product with its stored float data, by
        # bytes, zeros' signs included: lin.dot([x; 1]) for a matrix, whose
        # last column is the shift, and lin * x + shift otherwise
        fn, dim = WALK_MAPS[name]
        lin, shift, stage = fn.affine
        assert stage is None and shift.shape == (dim,)
        if lin.ndim == 2:
            assert lin.shape == (dim, dim + 1)
            assert lin[:, -1].tobytes() == shift.tobytes()
        for seed in range(10):
            for x in _kernel_stack(dim, seed):
                want = lin.dot(np.append(x, 1.0)) if lin.ndim == 2 else lin * x + shift
                assert fn(x).tobytes() == want.tobytes()

    def test_only_a_run_builds_a_block_kernel(self, monkeypatch):
        # building maps and certifying them builds no walk; picard asks
        # _steps once per run, and a map without a record gets none
        built = []

        def counting(fn, height):
            built.append(fn)
            return _steps(fn, height)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("fpcert") and hasattr(module, "_steps"):
                monkeypatch.setattr(module, "_steps", counting)
        rng = np.random.default_rng(8)
        a, b = rng.standard_normal((12, 5)), rng.standard_normal(12)
        ops = [build_operator(least_squares_problem(a, b)),
               build_operator(separable_smooth_l1_problem(rng.uniform(0.5, 2.0, 5),
                                                          b[:5], 0.3)),
               build_operator(analysis_l1_problem(a, b, 0.3 * rng.standard_normal((3, 5)),
                                                  0.3)),
               affine(0.5, np.ones(4)), identity(3)]
        for op in ops:
            assert not hasattr(op.fn, "walk")
            certify(op, "nonexpansive", {}, plan=SamplingPlan(n_pairs=20, seed=1))
        assert built == []
        prox = prox_operator(l1_prox(0.3), 1.0, 5)
        for op in ops + [prox]:
            for max_iter in (3, 600):
                picard(op, np.ones(op.dim), max_iter)
        assert built == [op.fn for op in ops + [prox] for _ in range(2)]

    @pytest.mark.parametrize("name", sorted(WALK_MAPS))
    def test_walk_writes_the_bytes_of_a_kernel_loop(self, name):
        # a walk of one step from a row holding x and fn(x) agree by bytes,
        # zeros' signs included; the next row starts as NaN, so a walk that
        # leaves an entry unwritten fails
        fn, dim = WALK_MAPS[name]
        walk, rows = _steps(fn, 2)
        for seed in range(10):
            for x in _kernel_stack(dim, seed):
                rows[0, :dim], rows[1, :dim] = x, np.nan
                assert walk(1) is None
                assert rows[1, :dim].tobytes() == fn(x).tobytes()

    @pytest.mark.parametrize("name", sorted(WALK_MAPS))
    def test_walk_steps_along_the_rows_it_writes(self, name):
        # picard's call: each row written is the next row read, so the walk
        # gives the iterates of fn from the first row in the rows' first
        # dim columns; the buffer's columns past dim (a matrix's trailing
        # 1s) stay as the buffer came, and rows past the span are untouched
        fn, dim = WALK_MAPS[name]
        for seed in range(5):
            walk, rows = _steps(fn, 35)
            tail = rows[:, dim:].copy()
            rows[:, :dim] = np.nan
            rows[0, :dim] = _kernel_stack(dim, seed)[4 + seed]
            walk(33)
            x = rows[0, :dim]
            for row in rows[1:34, :dim]:
                x = fn(x)
                assert row.tobytes() == x.tobytes()
            assert np.isnan(rows[34, :dim]).all()
            assert (tail == 1.0).all() and rows[:, dim:].tobytes() == tail.tobytes()

    @pytest.mark.parametrize("name", PROX_MAPS)
    def test_kernel_writes_the_image_bit_for_bit(self, name):
        # a prox map's fn is a stage kernel: fn(x, out) and fn(x) agree by
        # bytes, zeros' signs included, on stacks and on each row as a
        # vector; out starts as NaN, so a kernel that leaves an entry
        # unwritten fails
        fn, dim = KERNEL_MAPS[name], 5
        for seed in range(10):
            xs = _kernel_stack(dim, seed)
            out = np.full_like(xs, np.nan)
            assert fn(xs, out) is out
            assert out.tobytes() == fn(xs).tobytes()
            for x, row in zip(xs, out):
                vec = np.full_like(x, np.nan)
                assert fn(x, vec) is vec
                assert vec.tobytes() == fn(x).tobytes() == row.tobytes()

    @pytest.mark.parametrize("name", sorted(KERNEL_MAPS))
    def test_the_kernel_is_the_map(self, name):
        # fn is the kernel itself, called without out
        fn = KERNEL_MAPS[name]
        dim = 8 if name == "build_analysis_l1" else 5
        op = STACK_CASES.get(name, Operator(dim, fn))
        assert op.fn is fn
        for seed in range(5):
            xs = _kernel_stack(dim, seed)
            assert fn(xs).tobytes() == op(xs).tobytes() == op(xs.tolist()).tobytes()
            for x in xs:
                assert fn(x).tobytes() == op(x).tobytes() == op(x.tolist()).tobytes()

    @pytest.mark.parametrize("alpha", [0.5, -1.25, 0.0, 1.0, 3.0, 1e-300])
    def test_affine_is_the_affine_kernel_at_a_scale(self, alpha):
        # x * a and a * x round alike: IEEE multiplication commutes
        z = np.random.default_rng(7).standard_normal(6)
        op, kernel = affine(alpha, z), _affine(np.full(6, alpha), z)
        for seed in range(5):
            xs = _kernel_stack(6, seed)
            assert op(xs).tobytes() == kernel(xs).tobytes()
            for x in xs:
                assert op(x).tobytes() == kernel(x).tobytes()

    @pytest.mark.parametrize("name", sorted(KERNEL_FAMILIES))
    def test_family_kernel_writes_the_prox_bit_for_bit_in_place_too(self, name):
        prox = KERNEL_FAMILIES[name]
        assert not hasattr(prox, "walk")  # bind(t) is the family's one kernel
        for t, seed in itertools.product([0.5, 1.3], range(5)):
            xs = _kernel_stack(4, seed)
            expected = prox(t, xs)
            assert expected.tobytes() == np.array([prox(t, x) for x in xs]).tobytes()
            out = np.full_like(xs, np.nan)
            assert prox.bind(t)(xs, out).tobytes() == expected.tobytes()
            assert prox.bind(t)(xs, xs) is xs
            assert xs.tobytes() == expected.tobytes()

    def test_map_from_a_family_without_a_kernel_carries_none(self):
        # a user's prox family, the built-in l1 prox's arithmetic without its
        # kernel: the maps built from it have no kernel and the same bits
        problem = separable_smooth_l1_problem([0.5, 1.0, 2.0], [1.0, -0.2, 3.0], 0.3)
        plain = ProblemSpec(**{**vars(problem),
                               "prox_g": lambda t, x: soft_threshold(0.3 * t, x)})
        for built, user in [(build_operator(problem), build_operator(plain)),
                            (prox_operator(problem.prox_g, 1.3, 3),
                             prox_operator(plain.prox_g, 1.3, 3))]:
            assert not hasattr(user.fn, "walk")
            xs = _kernel_stack(3, 0)
            assert user(xs).tobytes() == built(xs).tobytes()

    def test_family_without_a_kernel_that_changes_shape_raises(self):
        problem = separable_smooth_l1_problem([0.5, 1.0], [1.0, -0.2], 0.3)
        bad = ProblemSpec(**{**vars(problem), "prox_g": lambda t, x: x[..., :1]})
        with pytest.raises(ValueError, match=r"returned shape \(1,\) instead of \(2,\)"):
            build_operator(bad, hint=None)(np.ones(2))
