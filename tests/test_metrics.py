import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpcert.metrics import (
    L1,
    L2,
    NotPositiveDefiniteError,
    PowerIterationError,
    cholesky_factor,
    inner,
    norm,
    primal_dual_metric,
    read_matrix,
    smallest_eigenvalue_spd,
    spectral_norm,
    weighted_norm,
    write_matrix,
)


def random_spd(rng, n, jitter=0.1):
    g = rng.standard_normal((n, n))
    return g @ g.T + jitter * np.eye(n)


def clustered_design():
    # sigma_2 / sigma_1 = 0.9999 on top and 0.3 / 0.30003 at the bottom, so
    # power and inverse iteration each gain only a factor 0.9998 a sweep
    rng = np.random.default_rng(0)
    u, _ = np.linalg.qr(rng.standard_normal((12, 6)))
    v, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    return (u * [1.0, 0.9999, 0.7, 0.5, 0.30003, 0.3]) @ v.T


class TestNorm:
    def test_l2_pythagorean(self):
        assert norm([3.0, 4.0], L2) == 5.0

    def test_vector_norm_survives_overflowing_squares(self):
        # 3e200 squared is not a double; the norm 5e200 is
        with np.errstate(over="ignore"):
            assert norm([3e200, -4e200], L2) == pytest.approx(5e200, rel=1e-15)
            assert norm([1e200, 0.0], weighted_norm(np.diag([4.0, 1.0]))) == \
                pytest.approx(2e200, rel=1e-12)
            assert norm([1.5e308, 1.5e308], L2) == np.inf

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
            np.testing.assert_allclose(rows, vector, rtol=1e-13)

    def test_zero_iff_zero_vector(self):
        rng = np.random.default_rng(2)
        spec = weighted_norm(random_spd(rng, 4))
        for s in (L2, L1, spec):
            assert norm(np.zeros(4), s) == 0.0
            x = rng.standard_normal(4)
            assert norm(x, s) > 0.0


class TestInner:
    def test_l2(self):
        assert inner([1.0, 2.0], [3.0, 4.0], L2) == 11.0

    def test_weighted_consistency_with_norm(self):
        rng = np.random.default_rng(3)
        w = random_spd(rng, 4)
        spec = weighted_norm(w)
        x = rng.standard_normal(4)
        assert inner(x, x, spec) == pytest.approx(norm(x, spec) ** 2, rel=1e-10)

    def test_l1_rejected(self):
        with pytest.raises(ValueError):
            inner([1.0], [1.0], L1)


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


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0, rel=1e-10)

    def test_diagonal(self):
        assert spectral_norm(np.diag([1.0, 2.0, 3.0])) == pytest.approx(3.0, rel=1e-9)

    def test_against_svd_oracle(self):
        # dense SVD is the independent oracle for the power-iteration route
        rng = np.random.default_rng(6)
        m = rng.standard_normal((20, 10))
        oracle = np.linalg.svd(m, compute_uv=False)[0]
        assert spectral_norm(m, tol=1e-12) == pytest.approx(oracle, rel=1e-8)

    def test_lower_bounds_any_rayleigh_quotient(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((8, 5))
        sigma = spectral_norm(m, tol=1e-12)
        for _ in range(50):
            v = rng.standard_normal(5)
            assert sigma >= np.linalg.norm(m @ v) / np.linalg.norm(v) - 1e-9 * sigma

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 2))) == 0.0

    def test_reports_iteration_count(self):
        sigma, iters = spectral_norm(np.diag([1.0, 2.0]), return_iterations=True)
        assert sigma == pytest.approx(2.0, rel=1e-9)
        assert iters >= 1

    def test_non_convergence_carries_last_estimate(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((12, 12))
        with pytest.raises(PowerIterationError) as err:
            spectral_norm(m, tol=1e-15, max_iter=2)
        assert err.value.last_estimate > 0.0
        assert err.value.iterations == 2

    def test_rejects_empty_and_bad_tol(self):
        with pytest.raises(ValueError):
            spectral_norm(np.zeros((0, 0)))
        with pytest.raises(ValueError):
            spectral_norm(np.eye(2), tol=0.0)


class TestSmallestEigenvalue:
    def test_against_eigh_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            w = random_spd(rng, 8)
            oracle = np.linalg.eigvalsh(w)[0]
            assert smallest_eigenvalue_spd(w) == pytest.approx(oracle, rel=1e-8)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            smallest_eigenvalue_spd(np.diag([1.0, -1.0]))


class TestClusteredSpectrum:
    @pytest.mark.parametrize("tol, max_iter", [(1e-10, 10000), (1e-6, 40000)])
    def test_raises_or_returns_within_tol(self, tol, max_iter):
        a = clustered_design()
        gram = a.T @ a
        eig = np.linalg.eigvalsh(gram)
        try:
            theta = spectral_norm(a, tol=tol, max_iter=max_iter) ** 2
            assert abs(theta - eig[-1]) <= tol * theta
        except PowerIterationError:
            pass
        try:
            theta = smallest_eigenvalue_spd(gram, tol=tol, max_iter=max_iter)
            assert abs(theta - eig[0]) <= tol * theta
        except PowerIterationError:
            pass


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
