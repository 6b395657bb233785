import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpcert.certify import (SamplingPlan, certify, composition_mu, estimate_mu,
                            gan_slack, mu_hat, psi, range_region)
from fpcert.cli import _scalar
from fpcert.iterate import (check_residual_summability, fit_rate, little_o_proxy, picard,
                            recurrence_bound, verify_recurrence_bound)
from fpcert.metrics import (
    L1,
    L2,
    NormSpec,
    PIVOT_RTOL,
    NotPositiveDefiniteError,
    _matvec,
    check_number,
    cholesky_factor,
    norm,
    primal_dual_metric,
    read_matrix,
    weighted_norm,
    write_matrix,
)
from fpcert.operators import (Operator, affine, block_soft_threshold, gradient_step,
                              l1_prox, l2_prox, prox_operator, proximal_gradient,
                              soft_threshold)
from fpcert.problems import (analysis_l1_problem, build_operator,
                             separable_smooth_l1_problem, step_size_bounds)

NAN, INF = float("nan"), float("inf")


def random_spd(rng, n, jitter=0.1):
    g = rng.standard_normal((n, n))
    return g @ g.T + jitter * np.eye(n)


def rescaled_norm(v):
    """The rescale rule for squares that overflow or underflow: s |v / s|,
    with s the largest |v_i|."""
    v = np.asarray(v, dtype=float)
    scale = float(np.max(np.abs(v)))
    return scale * float(np.linalg.norm(v / scale))


class TestNorm:
    def test_l2_pythagorean(self):
        assert norm([3.0, 4.0], L2) == 5.0

    def test_vector_norm_survives_overflowing_squares(self):
        # 3e200 squared is not a double; the norm 5e200 is, and comes
        # without a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert norm([3e200, -4e200], L2) == pytest.approx(5e200, rel=1e-15)
            assert norm([1e200, 0.0], weighted_norm(np.diag([4.0, 1.0]))) == \
                pytest.approx(2e200, rel=1e-12)
            assert norm([1.5e308, 1.5e308], L2) == np.inf

    def test_stack_norm_rescales_overflowing_rows_like_a_vector(self):
        rng = np.random.default_rng(12)
        stack = rng.standard_normal((40, 3))
        stack[[3, 17, 29]] *= 1e200
        stack[8] = [1.5e308, 1.5e308, 0.0]  # the norm itself overflows
        for spec in (L2, weighted_norm(np.diag([4.0, 1.0, 2.0]))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = norm(stack, spec)
                vector = np.array([norm(row, spec) for row in stack])
            assert np.isfinite(rows[[3, 17, 29]]).all() and rows[8] == np.inf
            np.testing.assert_array_equal(rows, vector)
            alone = np.array([norm(row[None], spec)[0] for row in stack])
            np.testing.assert_array_equal(rows, alone)
        # rows whose norm does not overflow are numpy's vector norms
        plain = np.ones(40, dtype=bool)
        plain[[3, 8, 17, 29]] = False
        np.testing.assert_array_equal(
            norm(stack, L2)[plain],
            [np.linalg.norm(row) for row in stack[plain]])
        # a row with a non-finite entry is not rescaled
        rows = norm(np.array([[np.inf, 1.0], [np.nan, 1.0], [-np.inf, np.inf]]))
        assert rows[0] == rows[2] == np.inf and np.isnan(rows[1])

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 64, 517])
    def test_vector_norm_is_numpys_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for magnitude in (1e-300, 1e-150, 1e-20, 1.0, 1e20, 1e150):
            x = magnitude * rng.standard_normal(n)
            # strided views are measured as numpy measures them, contiguously
            for v in (x, x[::-1], x[::2], np.asarray(x.tolist())):
                # below 2**-500 numpy's squares lose bits or vanish, and the
                # norm takes the rescale rule instead
                plain = float(np.linalg.norm(v))
                assert norm(v, L2) == (plain if plain >= 2.0**-500 else rescaled_norm(v))
                assert norm(v, L1) == float(np.sum(np.abs(v)))

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_a_vector_outside_the_band_is_a_stack_of_one_row(self, n):
        # the rescale rule is written once, for stacks; a vector that takes
        # it, or whose norm is 0, inf or NaN, gets its one-row stack's norm
        rng = np.random.default_rng(n)
        vectors = [scale * rng.uniform(-1.0, 1.0, n)
                   for scale in (1e-300, 2.0**-520, 1e200, 1.7e308)]
        vectors += [np.full(n, value) for value in (0.0, -0.0, np.inf, np.nan)]
        for x in vectors:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = norm(x)
                assert type(got) is float
                assert repr(got) == repr(float(norm(x[None])[0]))
            if np.isfinite(x).all() and x.any():
                assert got == rescaled_norm(x)

    def test_overflowing_squares_follow_the_rescale_rule(self):
        x = np.array([3e200, -4e200, 1e199])
        with np.errstate(over="ignore"):
            assert np.linalg.norm(x) == np.inf
        assert norm(x, L2) == rescaled_norm(x)

    @pytest.mark.parametrize("x", [[1e-200, 0.0], [3e-160, 4e-160], [-5e-324, 0.0],
                                   [1e-155, 2e-170, -3e-160]])
    def test_underflowing_squares_follow_the_rescale_rule(self, x):
        # numpy's norm of [1e-200, 0] is 0.0, and of [3e-160, 4e-160] is off
        # by 5.6e-6 relative: the squares are subnormal or vanish
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert norm(x, L2) == rescaled_norm(x)
            assert norm(np.array([x, np.zeros(len(x)), x]), L2).tolist() == \
                [rescaled_norm(x), 0.0, rescaled_norm(x)]
        assert norm([1e-200, 0.0]) == 1e-200
        assert norm([3e-160, 4e-160]) == pytest.approx(5e-160, rel=1e-15)

    def test_stack_norm_rescales_underflowing_rows_among_zero_rows(self):
        # zero rows are common (a prox's dead zone maps pairs to one point)
        # and keep their norm 0; tiny rows get their vector norms bit for bit
        rng = np.random.default_rng(14)
        for n in (1, 2, 5, 12):
            stack = rng.standard_normal((60, n))
            stack *= 10.0 ** rng.uniform(-300, 200, (60, 1))
            stack[::4] = 0.0
            stack[[5, 9]] = -0.0
            stack[7, 0] = 5e-324
            for spec in (L2, weighted_norm(random_spd(rng, n))):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    rows = norm(stack, spec)
                    vector = [norm(row, spec) for row in stack]
                np.testing.assert_array_equal(rows, vector)
                assert (rows[::4] == 0.0).all() and (rows[[5, 9]] == 0.0).all()
            rows = norm(stack, L2)
            assert (rows[stack.any(axis=1)] > 0.0).all()
            assert rows[7] >= 5e-324

    def test_l1_sum_of_absolutes(self):
        assert norm([3.0, -4.0], L1) == 7.0

    def test_weighted_diagonal(self):
        spec = weighted_norm(np.diag([4.0, 9.0]))
        assert norm([1.0, 0.0], spec) == pytest.approx(2.0, abs=1e-12)
        assert norm([0.0, 1.0], spec) == pytest.approx(3.0, abs=1e-12)

    def test_weighted_matches_quadratic_form(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = random_spd(rng, 6)
            spec = weighted_norm(w)
            x = rng.standard_normal(6)
            direct = np.sqrt(x @ w @ x)
            assert norm(x, spec) == pytest.approx(direct, rel=1e-10)

    def test_weighted_dimension_mismatch(self):
        spec = weighted_norm(np.eye(3))
        with pytest.raises(ValueError):
            norm([1.0, 2.0], spec)

    @pytest.mark.parametrize("weight", [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.0, 2.0]],
                             ids=["rectangular", "vector"])
    def test_non_square_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="weight matrix must be square"):
            weighted_norm(weight)

    def test_unknown_norm_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown norm kind 'linf'"):
            norm([1.0, 2.0], NormSpec("linf"))

    def test_non_symmetric_weight_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            weighted_norm(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected_without_warnings(self, bad):
        # a NaN weight gave NaN norms, an infinite one a RuntimeWarning
        for w in ([[bad, 0.0], [0.0, 1.0]], [[1.0, bad], [bad, 1.0]]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="weight matrix must be finite"):
                    weighted_norm(w)

    def test_non_pd_weight_rejected_at_construction(self):
        with pytest.raises(NotPositiveDefiniteError):
            weighted_norm(-np.eye(2))

    def test_triangle_inequality_all_norms(self):
        rng = np.random.default_rng(1)
        specs = [L2, L1, weighted_norm(random_spd(rng, 5))]
        for spec in specs:
            for _ in range(1000):
                x = rng.standard_normal(5) * rng.choice([0.1, 1.0, 100.0])
                y = rng.standard_normal(5) * rng.choice([0.1, 1.0, 100.0])
                assert norm(x + y, spec) <= norm(x, spec) + norm(y, spec) + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.floats(-1e6, 1e6, allow_nan=False),
        v=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=6),
    )
    def test_homogeneity(self, a, v):
        x = np.asarray(v)
        for spec in (L2, L1):
            assert norm(a * x, spec) == pytest.approx(abs(a) * norm(x, spec), rel=1e-12)

    def test_stack_gives_row_norms_independent_of_the_stack(self):
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((300, 12)) * rng.choice([0.1, 1.0, 1e3], (300, 1))
        for spec in (L2, L1, weighted_norm(random_spd(rng, 12))):
            rows = norm(stack, spec)
            assert rows.shape == (300,)
            alone = np.array([norm(row[None], spec)[0] for row in stack])
            np.testing.assert_array_equal(rows, alone)
            vector = np.array([norm(row, spec) for row in stack])
            np.testing.assert_array_equal(rows, vector)
        # one column: squares that underflow, are subnormal or overflow,
        # where sqrt(x * x) and |x| part ways, but the rescaled norm is |x|
        column = rng.standard_normal((300, 1)) * 10.0 ** rng.uniform(-200, 200, (300, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = norm(column, L2)
        with np.errstate(over="ignore"):
            squares = np.sqrt(column[:, 0] * column[:, 0])
        np.testing.assert_array_equal(rows, [norm(row, L2) for row in column])
        assert (squares != np.abs(column[:, 0])).any()
        np.testing.assert_array_equal(rows, np.abs(column[:, 0]))

    @pytest.mark.parametrize("layout", ["contiguous", "column_slice", "every_other",
                                        "reversed"])
    def test_stack_row_norm_is_its_vector_norm_bit_for_bit(self, layout):
        rng = np.random.default_rng(13)
        for n in (1, 2, 3, 7, 16, 33, 100):
            base = rng.standard_normal((70, 2 * n + 2))
            base *= rng.choice([1e-3, 1.0, 1e3], (70, 1))
            base[[4, 40]] *= 1e200  # squares overflow, norms do not
            stack = {
                "contiguous": np.ascontiguousarray(base[:, :n]),
                "column_slice": base[:, 1:n + 1],
                "every_other": base[:, ::2][:, :n],
                "reversed": base[::-1, ::-1][:, :n],
            }[layout]
            specs = (L2, L1, weighted_norm(random_spd(rng, n)))
            for spec in specs:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    rows = norm(stack, spec)
                    vector = [norm(row, spec) for row in stack]
                assert np.isfinite(rows).all()
                np.testing.assert_array_equal(rows, vector)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matvec_stack_row_is_its_vector_image_bit_for_bit(self, order):
        # the weighted norm passes factor.T, an F-ordered matrix
        rng = np.random.default_rng(29)
        for n, m in ((1, 1), (2, 3), (5, 5), (7, 4), (16, 16), (33, 20), (50, 50)):
            mat = rng.standard_normal((m, n))
            mat = np.asfortranarray(mat) if order == "F" else mat
            base = rng.standard_normal((40, 2 * n + 2))
            layouts = {
                "contiguous": np.ascontiguousarray(base[:, :n]),
                "sliced": base[:, 1:n + 1],
                "strided": base[:, ::2][:, :n],
                "reversed": base[::-1, ::-1][:, :n],
            }
            for stack in layouts.values():
                image = _matvec(mat, stack)
                np.testing.assert_array_equal(image, [_matvec(mat, row) for row in stack])
                copies = [_matvec(mat, row.copy()) for row in stack]
                np.testing.assert_array_equal(image, copies)
                np.testing.assert_allclose(image, stack @ mat.T, rtol=1e-12, atol=1e-12)

    def test_zero_iff_zero_vector(self):
        rng = np.random.default_rng(2)
        spec = weighted_norm(random_spd(rng, 4))
        for s in (L2, L1, spec):
            assert norm(np.zeros(4), s) == 0.0
            x = rng.standard_normal(4)
            assert norm(x, s) > 0.0
        # the empty vector too, whose norm is its one-row stack's
        assert norm(np.zeros(0)) == norm(np.zeros((1, 0)))[0] == 0.0


class TestCholesky:
    def test_reconstruction(self):
        rng = np.random.default_rng(4)
        w = random_spd(rng, 7)
        low = cholesky_factor(w)
        assert np.max(np.abs(low @ low.T - w)) <= 1e-10 * np.max(np.abs(w))

    def test_failure_names_pivot(self):
        singular = np.array([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky_factor(singular)
        assert err.value.pivot_index == 1

    def test_a_positive_pivot_not_above_the_threshold_names_the_threshold(self):
        # pivot 0 is positive, but not above 1e-12 times the largest diagonal
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky_factor(np.diag([0.5, 1e12]))
        assert (err.value.pivot_index, err.value.pivot_value) == (0, 0.5)
        assert err.value.threshold == PIVOT_RTOL * 1e12
        assert "not above the acceptance threshold 1.000000e+00" in str(err.value)

    @pytest.mark.parametrize("where", [(0, 0), (1, 1)])
    def test_a_nan_pivot_is_rejected(self, where):
        # NaN passes a bare "pivot <= threshold" test
        w = np.eye(2)
        w[where] = np.nan
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_factor(w)


class TestPrimalDualMetric:
    def test_identity_blocks(self):
        metric = primal_dual_metric(1.0, 1.0, np.zeros((1, 1)))
        np.testing.assert_array_equal(metric.weight, np.eye(2))

    def test_singular_coupling_rejected(self):
        # unit steps with unit coupling make the block matrix singular
        with pytest.raises(NotPositiveDefiniteError) as err:
            primal_dual_metric(1.0, 1.0, np.array([[1.0]]))
        assert err.value.pivot_index == 1

    def test_tight_steps_accepted(self):
        metric = primal_dual_metric(0.5, 0.5, np.array([[1.0]]))
        expected = np.array([[2.0, -1.0], [-1.0, 2.0]])
        np.testing.assert_array_equal(metric.weight, expected)
        np.testing.assert_allclose(np.linalg.eigvalsh(metric.weight), [1.0, 3.0])

    def test_factor_reconstructs_weight(self):
        rng = np.random.default_rng(10)
        metric = primal_dual_metric(0.2, 0.1, rng.standard_normal((3, 4)))
        w = metric.weight
        assert np.max(np.abs(metric.factor @ metric.factor.T - w)) <= 1e-10 * np.max(
            np.abs(w)
        )

    def test_rejects_nonpositive_steps(self):
        with pytest.raises(ValueError):
            primal_dual_metric(0.0, 1.0, np.zeros((1, 1)))


class TestMatrixIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((4, 3))
        path = tmp_path / "m.txt"
        write_matrix(path, m)
        np.testing.assert_array_equal(read_matrix(path), m)

    def test_header_and_layout(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2\n1 2\n3 4\n")
        np.testing.assert_array_equal(read_matrix(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_wrong_count_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 2 3\n")
        with pytest.raises(ValueError, match="declares"):
            read_matrix(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ValueError, match="header"):
            read_matrix(path)

    def test_negative_header_rejected_naming_the_file(self, tmp_path):
        # -2 x -2 holds the 4 values given, which numpy would then misread
        # as a reshape to two unknown dimensions
        path = tmp_path / "negative.txt"
        path.write_text("-2 -2\n1 2 3 4\n")
        with pytest.raises(ValueError, match="rows in the header of matrix file") as info:
            read_matrix(path)
        assert str(path) in str(info.value)


class TestCheckNumber:
    @pytest.mark.parametrize("value, kind", [
        (1, float), (2.5, float), (np.float64(3.0), float), (np.float32(0.5), float),
        (7, int), (np.int64(4), int), (10**400, int), (10**400, float)])
    def test_a_valid_value_is_returned_as_given(self, value, kind):
        assert check_number("x", value, kind) is value

    @pytest.mark.parametrize("value, kind, lower, strict, rule", [
        (0.0, float, 0.0, True, "finite and positive"),
        (-1e-300, float, 0.0, False, "finite and nonnegative"),
        (1, int, 2, False, "an integer and at least 2"),
        (2.0, int, 1, False, "an integer and at least 1"),
        (2.5, int, 0, False, "an integer and nonnegative"),
        (0.5, float, 0.5, True, "finite and above 0.5"),
        (True, int, 0, False, "an integer and nonnegative"),
        (False, float, 0.0, False, "finite and nonnegative"),
        ("1", float, 0.0, True, "finite and positive"),
        (None, float, 0.0, True, "finite and positive"),
        (NAN, float, -INF, True, "finite and above -inf"),
        (INF, float, 0.0, False, "finite and nonnegative"),
        (-INF, float, -1.0, False, "finite and at least -1"),
    ])
    def test_an_invalid_value_is_named_with_the_rule(self, value, kind, lower, strict,
                                                     rule):
        with pytest.raises(ValueError) as info:
            check_number("x", value, kind, lower, strict)
        assert str(info.value) == f"x must be {rule}, got {value!r}"

    def test_the_bound_itself_passes_unless_strict(self):
        assert check_number("x", 0.0, lower=0.0, strict=False) == 0.0
        assert check_number("n", 2, int, 2, strict=False) == 2


def _trace():
    return picard(affine(0.5, [0.0]), [1.0], 20, ref=[0.0])


def _separable():
    return separable_smooth_l1_problem([1.0, 2.0], [1.0, 1.0], 0.1)


_OP = affine(0.5, [1.0, 2.0])
_GAN = {"gamma": 2.0, "mu": 0.5}
FINITE, INTEGER = (NAN, INF), (NAN, INF, 2.5)

# (call site, the parameter its message names, bad values it is called with)
BAD_PARAMETERS = [
    ("sampling-plan", lambda v: SamplingPlan(n_pairs=v), "n_pairs", INTEGER),
    ("sampling-plan", lambda v: SamplingPlan(radius_scales=(1.0, v)),
     "radius_scales", FINITE),
    ("sampling-plan", lambda v: SamplingPlan(seed=v), "seed",
     (True, 2.5, NAN, "3", -1)),
    ("certify", lambda v: certify(_OP, "gan", {**_GAN, "gamma": v}), "gamma", FINITE),
    ("certify", lambda v: certify(_OP, "gan", {**_GAN, "mu": v}), "mu", FINITE),
    ("certify", lambda v: certify(_OP, "contractive", {"rho": v}), "rho", FINITE),
    ("certify", lambda v: certify(_OP, "gan", _GAN, tol=v), "tol", FINITE),
    ("gan-slack", lambda v: gan_slack(_OP, [1.0, 0.0], [0.0, 0.0], 2.0, v), "mu",
     FINITE),
    ("estimate-mu", lambda v: estimate_mu(_OP, v), "gamma", FINITE),
    ("psi", lambda v: psi(0.5, v), "gamma", FINITE),
    ("mu-hat", lambda v: mu_hat(0.5, v), "gamma", FINITE),
    ("composition-mu", lambda v: composition_mu(v, 1.0, 2.0), "mu1", FINITE),
    ("composition-mu", lambda v: composition_mu(1.0, v, 2.0), "mu2", FINITE),
    ("composition-mu", lambda v: composition_mu(1.0, 1.0, v), "gamma", FINITE),
    ("range-region", lambda v: range_region([1.0, 0.0], [0.0, 0.0], v, 1.0, 5),
     "gamma", FINITE),
    ("range-region", lambda v: range_region([1.0, 0.0], [0.0, 0.0], 2.0, v, 5),
     "mu", FINITE),
    ("range-region", lambda v: range_region([1.0, 0.0], [0.0, 0.0], 2.0, 1.0, v),
     "resolution", INTEGER),
    ("picard", lambda v: picard(_OP, [0.0, 0.0], v), "max_iter", INTEGER),
    ("picard", lambda v: picard(_OP, [0.0, 0.0], 10, res_tol=v), "res_tol", FINITE),
    ("fit-rate", lambda v: fit_rate(0.5 ** np.arange(10), "exponential", v),
     "tail_start", INTEGER),
    ("little-o", lambda v: little_o_proxy([1.0, 0.5, 0.25], 2.0, v), "tail_start",
     INTEGER),
    ("little-o", lambda v: little_o_proxy([1.0, 0.5, 0.25], v), "gamma", FINITE),
    ("summability", lambda v: check_residual_summability(_trace(), v, 1.0), "gamma",
     FINITE),
    ("summability", lambda v: check_residual_summability(_trace(), 2.0, v), "mu",
     FINITE),
    ("recurrence-bound", lambda v: recurrence_bound(v, 1.0, [1.0, 1.0], 0, 2),
     "a_start", FINITE),
    ("recurrence-bound", lambda v: recurrence_bound(1.0, v, [1.0, 1.0], 0, 2), "p",
     FINITE),
    ("verify-recurrence", lambda v: verify_recurrence_bound([1.0, 0.5], 1.0, v), "mu",
     FINITE),
    ("verify-recurrence", lambda v: verify_recurrence_bound([1.0, 0.5], v, 0.5), "p",
     FINITE),
    ("verify-recurrence",
     lambda v: verify_recurrence_bound([1.0, 0.5], 1.0, 0.5, tol=v), "tol", FINITE),
    ("primal-dual-metric", lambda v: primal_dual_metric(v, 1.0, np.eye(1)), "beta",
     FINITE),
    ("primal-dual-metric", lambda v: primal_dual_metric(1.0, v, np.eye(1)), "eta",
     FINITE),
    ("operator", lambda v: Operator(v, lambda x: x), "dim", INTEGER),
    ("gradient-step", lambda v: gradient_step(lambda x: x, v, 2), "beta", FINITE),
    ("proximal-gradient", lambda v: proximal_gradient(lambda x: x, l1_prox(), v, 2),
     "beta", FINITE),
    ("l1-prox", l1_prox, "lam", FINITE),
    ("l2-prox", l2_prox, "lam", FINITE),
    ("prox-operator", lambda v: prox_operator(l1_prox(1.0), v, 2), "scale", FINITE),
    # the per-step kernels admit +inf, see test_soft_threshold_shrinks_everything_at_inf
    ("soft-threshold", lambda v: soft_threshold(v, [1.0]), "threshold", (NAN,)),
    ("block-soft-threshold", lambda v: block_soft_threshold(v, [1.0]), "threshold",
     (NAN,)),
    ("separable-l1", lambda v: separable_smooth_l1_problem([1, 2], [1, 1], v), "lam",
     FINITE),
    ("analysis-l1",
     lambda v: analysis_l1_problem(np.eye(2), [1.0, 1.0], [[1.0, 0.0]], v), "lam",
     FINITE),
    ("step-size-bounds", step_size_bounds, "lipschitz", FINITE),
    ("step-size-bounds", lambda v: step_size_bounds(1.0, v), "b_norm", FINITE),
    ("build-operator", lambda v: build_operator(_separable(), v), "beta", FINITE),
    ("cli-scalar", lambda v: _scalar("gamma", v, float, 0.0, True), "gamma",
     (NAN, INF, -1.0)),
]


@pytest.mark.parametrize("call, name, value", [
    pytest.param(call, name, value, id=f"{site}-{name}-{value}")
    for site, call, name, values in BAD_PARAMETERS for value in values])
def test_every_bound_check_rejects_a_bad_value_naming_its_parameter(call, name, value):
    # NaN fails every comparison, so a bare "x <= 0" test lets it through
    with pytest.raises(ValueError, match=name):
        call(value)


def test_soft_threshold_shrinks_everything_at_inf():
    # the prox families pass t * lam, which overflows to +inf for a huge lam
    np.testing.assert_array_equal(soft_threshold(INF, [3.0, -1e300, 0.0]), [0.0] * 3)
