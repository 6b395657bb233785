import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpcert.metrics import (
    L1,
    L2,
    NotPositiveDefiniteError,
    _matvec,
    cholesky_factor,
    norm,
    primal_dual_metric,
    read_matrix,
    weighted_norm,
    write_matrix,
)


def random_spd(rng, n, jitter=0.1):
    g = rng.standard_normal((n, n))
    return g @ g.T + jitter * np.eye(n)


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
                assert norm(v, L2) == float(np.linalg.norm(v))
                assert norm(v, L1) == float(np.sum(np.abs(v)))

    def test_overflowing_squares_follow_the_rescale_rule(self):
        x = np.array([3e200, -4e200, 1e199])
        scale = float(np.max(np.abs(x)))
        with np.errstate(over="ignore"):
            assert np.linalg.norm(x) == np.inf
        assert norm(x, L2) == scale * float(np.linalg.norm(x / scale))

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

    def test_non_symmetric_weight_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            weighted_norm(np.array([[1.0, 0.5], [0.0, 1.0]]))

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
        # where sqrt(x * x) and |x| part ways
        column = rng.standard_normal((300, 1)) * 10.0 ** rng.uniform(-200, 200, (300, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = norm(column, L2)
        np.testing.assert_array_equal(rows, [norm(row, L2) for row in column])
        assert (rows != np.abs(column[:, 0])).any()

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
