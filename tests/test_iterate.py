import concurrent.futures
import dataclasses
import itertools
import json
import sys
import threading
import warnings

import numpy as np
import pytest

from fpcert import reports
from fpcert.certify import SamplingPlan, certify, estimate_mu, mu_hat, range_region
from fpcert.cli import main
from fpcert.iterate import (
    BLOCK_MIN,
    ERROR_BLOCK,
    IterationTrace,
    NonFiniteIterateError,
    StopReason,
    check_residual_summability,
    check_sandwich,
    fit_rate,
    little_o_proxy,
    picard,
    recurrence_bound,
    verify_recurrence_bound,
)
from fpcert.metrics import L1, L2, norm, primal_dual_metric, weighted_norm
from fpcert.operators import (
    Operator,
    affine,
    gradient_step,
    identity,
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
)
from helpers import assert_same_text, run_child


class TestPicard:
    def test_geometric_residuals_of_halving_map(self):
        trace = picard(affine(0.5, [0.0]), [1.0], 10, 0.0)
        expected = 0.5 ** np.arange(1, 11)
        np.testing.assert_allclose(trace.residuals, expected, rtol=1e-12)
        assert trace.stop_reason is StopReason.MAX_ITER
        assert trace.k_final == 10
        assert trace.x_final.shape == (1,)

    def test_trace_stores_the_step_count_once(self):
        trace = picard(affine(0.5, [0.0]), [1.0], 10, 0.0)
        assert not {"x0", "k_final"} & {f.name for f in dataclasses.fields(trace)}
        assert trace.k_final == len(trace.residuals) == 10

    def test_trace_keeps_the_errors_not_the_reference(self):
        with_ref = picard(affine(0.5, [0.0]), [1.0], 10, 0.0, ref=[0.0])
        assert "ref" not in {f.name for f in dataclasses.fields(with_ref)}
        assert with_ref.errors_to_ref[0] == 1.0
        assert picard(affine(0.5, [0.0]), [1.0], 10, 0.0).errors_to_ref is None

    def test_identity_stops_immediately(self):
        trace = picard(identity(2), [3.0, 4.0], 50, 0.0)
        assert trace.k_final == 1
        assert trace.residuals[0] == 0.0
        assert trace.stop_reason is StopReason.RESIDUAL_TOL

    def test_negative_multiplier_recursion(self):
        # x - 0.75 * 2x leaves multiplier -0.5, so |x_k| halves each step
        op = gradient_step(lambda x: 2.0 * x, 0.75, 1)
        trace = picard(op, [8.0], 6, 0.0, ref=[0.0])
        np.testing.assert_allclose(
            trace.errors_to_ref, 8.0 * 0.5 ** np.arange(7), rtol=1e-12
        )

    def test_divergence_flagged_cleanly(self):
        trace = picard(affine(2.0, [0.0]), [1.0], 10_000, 0.0)
        assert trace.stop_reason is StopReason.DIVERGED
        assert trace.k_final < 100

    def test_contraction_from_a_huge_start_converges(self):
        # the squares of the iterates overflow for the first ~150 steps,
        # their distances do not, so the run is no divergence
        with np.errstate(over="ignore"):
            trace = picard(affine(0.5, [0.0]), [1e200], 1000, 1e-10)
        assert trace.converged
        assert trace.residuals[0] == 5e199

    def test_non_finite_iterate_names_step(self):
        def blow_up(x):
            with np.errstate(over="ignore"):
                return x * 1e200

        op = Operator(1, blow_up, label="overflowing")
        with pytest.raises(NonFiniteIterateError, match="step 2"):
            picard(op, [1.0], 10, 0.0)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            picard(identity(1), [1.0], 0, 0.0)
        with pytest.raises(ValueError):
            picard(identity(1), [1.0], 5, -1.0)
        with pytest.raises(ValueError):
            picard(identity(2), [1.0], 5, 0.0)
        with pytest.raises(ValueError, match="reference"):
            picard(identity(2), [1.0, 2.0], 5, 0.0, ref=[0.0])

    def test_residuals_monotone_for_nonexpansive_maps(self):
        rng = np.random.default_rng(0)
        ops = [
            affine(0.9, [1.0, 0.0]),
            prox_operator(l1_prox(1.0), 1.0, 2, fixed_point_hint=np.zeros(2)),
            proximal_gradient(lambda x: x - np.array([1.0, 2.0]), l1_prox(0.5),
                              0.8, 2),
        ]
        for op in ops:
            cert = certify(op, "nonexpansive", {}, plan=SamplingPlan(seed=1))
            assert cert.passed
            trace = picard(op, rng.standard_normal(2) * 5, 200, 0.0)
            diffs = np.diff(trace.residuals)
            assert np.max(diffs) <= 1e-12

    def test_errors_nonincreasing_toward_fixed_point(self):
        op = prox_operator(l1_prox(1.0), 1.0, 2, fixed_point_hint=np.zeros(2))
        trace = picard(op, [5.0, -7.0], 30, 0.0, ref=[0.0, 0.0])
        assert np.max(np.diff(trace.errors_to_ref)) <= 1e-12

    def test_small_exponent_contraction_kills_k_times_error(self):
        # a certified small-exponent operator has k * error -> 0
        op = affine(0.5, [0.0, 0.0])
        assert certify(op, "gan", {"gamma": 0.5, "mu": mu_hat(0.5, 0.5)},
                       plan=SamplingPlan(seed=2)).passed
        trace = picard(op, [3.0, 4.0], 40, 0.0, ref=[0.0, 0.0])
        ks = np.arange(trace.k_final + 1)
        weighted = ks * trace.errors_to_ref
        tail = weighted[trace.k_final // 2 :]
        assert np.all(np.diff(tail) < 0)


def reference_loop(op, x0, max_iter, res_tol, ref, norm_spec):
    """The plain fixed-point loop: op(x) and metrics.norm at every step."""
    x = np.asarray(x0, dtype=float)
    residuals, errors = [], [norm(x - ref, norm_spec)]
    for _ in range(max_iter):
        x_next = op(x)
        assert np.all(np.isfinite(x_next))
        residuals.append(norm(x_next - x, norm_spec))
        x = x_next
        errors.append(norm(x - ref, norm_spec))
        if residuals[-1] <= res_tol:
            break
    return np.array(residuals), np.array(errors)


def reference_final(op, x0, steps):
    """The iterate after ``steps`` calls of ``op``."""
    x = np.asarray(x0, dtype=float)
    for _ in range(steps):
        x = op(x)
    return x


def counted(op):
    """``op`` with its map's calls recorded in the returned list."""
    calls = []

    def fn(x):
        calls.append(1)
        return op.fn(x)

    return Operator(op.dim, fn, label=op.label), calls


def _problem_ops():
    rng = np.random.default_rng(51)
    a = rng.standard_normal((20, 6))
    b = rng.standard_normal(20)
    bm = rng.standard_normal((4, 6)) / np.sqrt(6)
    least = least_squares_problem(a, b)
    separable = separable_smooth_l1_problem(rng.uniform(0.5, 2.0, 6),
                                            rng.standard_normal(6), 0.3)
    analysis = analysis_l1_problem(a, b, bm, 0.3)
    beta, eta = default_step_sizes(analysis)
    weighted = primal_dual_metric(beta, eta, bm).norm_spec()
    return [
        (build_operator(least), L2, least.exact_solution),
        (build_operator(separable), L1, separable.exact_solution),
        (build_operator(analysis), weighted, np.zeros(10)),
    ]


def _slow_least_squares():
    """A 20x6 least-squares map whose slowest error component shrinks by
    1 - 0.03**2 a step at the default step size, so no run of a few hundred
    steps lands exactly on its fixed point."""
    rng = np.random.default_rng(52)
    u, _ = np.linalg.qr(rng.standard_normal((20, 6)))
    v, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    problem = least_squares_problem((u * np.geomspace(1.0, 0.03, 6)) @ v.T,
                                    rng.standard_normal(20))
    return build_operator(problem), problem.exact_solution


def _slow_separable(n=6, lam=0.001):
    """An n-coordinate separable-l1 map whose slowest coordinate shrinks its
    error by 1 - 0.002 a step at the default step size."""
    rng = np.random.default_rng(53)
    problem = separable_smooth_l1_problem(np.geomspace(1.0, 0.002, n),
                                          3.0 * rng.standard_normal(n), lam)
    return build_operator(problem), problem.exact_solution


class TestPicardMatchesReferenceLoop:
    @pytest.mark.parametrize("case", range(3), ids=["l2", "l1", "weighted"])
    def test_residuals_and_errors_bit_for_bit(self, case):
        op, spec, ref = _problem_ops()[case]
        x0 = np.random.default_rng(case).standard_normal(op.dim) * 3.0
        trace = picard(op, x0, 400, 1e-9, ref=ref, norm_spec=spec)
        residuals, errors = reference_loop(op, x0, 400, 1e-9, ref, spec)
        assert trace.residuals.tobytes() == residuals.tobytes()
        assert trace.errors_to_ref.tobytes() == errors.tobytes()

    @pytest.mark.parametrize("k_final", [1, ERROR_BLOCK - 1, ERROR_BLOCK, ERROR_BLOCK + 1,
                                         2 * ERROR_BLOCK + 3])
    @pytest.mark.parametrize("kind", ["l2", "l1", "weighted"])
    def test_errors_at_block_edges_bit_for_bit(self, kind, k_final):
        # the l2 and l1 cases iterate a slowly contracting least-squares
        # map: the separable map of _problem_ops lands on its fixed point
        # exactly within 100 steps, and its least-squares map within 350
        slow, slow_ref = _slow_least_squares()
        op, spec, ref = {"l2": (slow, L2, slow_ref), "l1": (slow, L1, slow_ref),
                         "weighted": _problem_ops()[2]}[kind]
        x0 = np.random.default_rng(k_final).standard_normal(op.dim) * 3.0
        residuals, errors = reference_loop(op, x0, k_final, 0.0, ref, spec)
        # every earlier residual lies above the last, so a tolerance at it
        # stops the run exactly there, with budget to spare
        assert (residuals[:-1] > residuals[-1]).all()
        for (max_iter, res_tol, stop), run_ref in itertools.product(
                [(k_final, 0.0, StopReason.MAX_ITER),
                 (4 * k_final + 100, residuals[-1], StopReason.RESIDUAL_TOL)],
                [ref, None]):
            counting, calls = counted(op)
            trace = picard(counting, x0, max_iter, res_tol, ref=run_ref, norm_spec=spec)
            assert trace.stop_reason is stop
            assert trace.k_final == len(calls) == k_final
            assert trace.residuals.tobytes() == residuals.tobytes()
            if run_ref is None:
                assert trace.errors_to_ref is None
            else:
                assert trace.errors_to_ref.tobytes() == errors.tobytes()
            assert trace.x_final.tobytes() == reference_final(op, x0, k_final).tobytes()

    @pytest.mark.parametrize("with_ref", [True, False], ids=["ref", "no-ref"])
    def test_map_without_a_kernel_is_handed_only_its_own_images(self, with_ref):
        # the map is handed x0's copy, then each image it returned, and no
        # array it was handed changes after the call: no row of a buffer
        slow, slow_ref = _slow_least_squares()
        handed, copies, images = [], [], []

        def fn(x):
            handed.append(x)
            copies.append(x.copy())
            images.append(slow.fn(x))
            return images[-1]

        op = Operator(slow.dim, fn, label="recording")
        x0 = np.random.default_rng(3).standard_normal(op.dim)
        trace = picard(op, x0, 2 * ERROR_BLOCK + 3, 0.0,
                       ref=slow_ref if with_ref else None)
        assert len(handed) == trace.k_final == 2 * ERROR_BLOCK + 3
        assert handed[0] is not x0 and handed[0].tobytes() == x0.tobytes()
        for x, copy in zip(handed, copies):
            assert x.tobytes() == copy.tobytes()
        assert all(x is image for x, image in zip(handed[1:], images))

    @pytest.mark.parametrize("stop", [StopReason.MAX_ITER, StopReason.RESIDUAL_TOL])
    @pytest.mark.parametrize("k_final", [1, 15, 16, 17, ERROR_BLOCK - 1, ERROR_BLOCK,
                                         ERROR_BLOCK + 1, 2 * ERROR_BLOCK + 3])
    @pytest.mark.parametrize("kind", ["l2", "l1", "weighted", "separable", "primal-dual"])
    def test_kernel_path_at_block_edges_bit_for_bit(self, kind, k_final, stop):
        # the built-in maps step in place, a block at a time; a tolerance
        # stop leaves rows computed past it, which must not leak out.  The
        # least-squares map walks without a stage, the separable map with
        # the soft threshold and the primal-dual map with its dual line
        slow, slow_ref = _slow_least_squares()
        separable, separable_ref = _slow_separable()
        analysis, weighted, zero = _problem_ops()[2]
        op, spec, ref = {"l2": (slow, L2, slow_ref), "l1": (slow, L1, slow_ref),
                         "weighted": (analysis, weighted, zero),
                         "separable": (separable, L2, separable_ref),
                         "primal-dual": (analysis, L1, zero)}[kind]
        assert op.fn.walk is not None
        x0 = np.random.default_rng(k_final).standard_normal(op.dim) * 3.0
        residuals, errors = reference_loop(op, x0, k_final, 0.0, ref, spec)
        if stop is StopReason.MAX_ITER:
            trace = picard(op, x0, k_final, 0.0, ref=ref, norm_spec=spec)
        else:
            # every earlier residual lies above the last, so the run stops
            # exactly there, with budget to spare
            assert (residuals[:-1] > residuals[-1]).all()
            trace = picard(op, x0, 4 * k_final + 100, residuals[-1], ref=ref,
                           norm_spec=spec)
        assert trace.stop_reason is stop
        assert trace.k_final == k_final
        assert trace.residuals.tobytes() == residuals.tobytes()
        assert trace.errors_to_ref.tobytes() == errors.tobytes()
        assert trace.x_final.tobytes() == reference_final(op, x0, k_final).tobytes()
        assert trace.x_final.flags.owndata  # no view of the run's buffer

    def test_over_long_step_diverges_cleanly_on_the_kernel_path(self):
        # beta = 2.5/L multiplies the top error component by -1.5 a step; from
        # a start near the double range the iterates past the stopping step,
        # which the block computes, overflow, and that raises nothing
        rng = np.random.default_rng(5)
        problem = least_squares_problem(rng.standard_normal((8, 3)),
                                        rng.standard_normal(8))
        op = build_operator(problem, beta=2.5 / problem.lipschitz)
        x0, ref = 1e305 * rng.standard_normal(3), problem.exact_solution
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = picard(op, x0, 10_000, 0.0, ref=ref)
        assert trace.stop_reason is StopReason.DIVERGED
        # blocks before step 8 * BLOCK_MIN hold BLOCK_MIN steps; iterating
        # to the end of the stopping block overflows
        assert trace.k_final < 8 * BLOCK_MIN
        x = trace.x_final
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(-trace.k_final % BLOCK_MIN):
                x = op(x)
        assert not np.isfinite(x).all()
        residuals, errors = reference_loop(op, x0, trace.k_final, -1.0, ref, L2)
        assert trace.residuals.tobytes() == residuals.tobytes()
        assert trace.errors_to_ref.tobytes() == errors.tobytes()

    @pytest.mark.parametrize("spec", [L2, L1, weighted_norm(np.diag([2.0, 1.0, 3.0]))],
                             ids=["l2", "l1", "weighted"])
    def test_divergence_mid_block_keeps_every_error(self, spec):
        # |x_k - x_{k-1}| grows by 1.05 a step and passes the guard in the
        # second block
        op, calls = counted(affine(1.05, [1.0, -2.0, 0.5]))
        x0, ref = np.array([3.0, 1.0, -2.0]), np.array([0.5, 0.25, -1.0])
        trace = picard(op, x0, 10_000, 0.0, ref=ref, norm_spec=spec)
        assert trace.stop_reason is StopReason.DIVERGED
        assert ERROR_BLOCK < trace.k_final < 2 * ERROR_BLOCK
        assert len(calls) == trace.k_final
        residuals, errors = reference_loop(op, x0, trace.k_final, -1.0, ref, spec)
        assert trace.residuals.tobytes() == residuals.tobytes()
        assert trace.errors_to_ref.tobytes() == errors.tobytes()

    def test_non_finite_iterate_mid_block_stops_the_calls(self):
        # step 1 runs the same body as every later step, so both are caught
        # alike, in every norm, without a numpy warning
        specs = [L2, L1, weighted_norm(np.diag([2.0, 1.0]))]
        for step, bad, spec in itertools.product(
                [1, ERROR_BLOCK + 5], [np.nan, np.inf, -np.inf], specs):
            calls = []

            def halving(x, step=step, bad=bad, calls=calls):
                calls.append(1)
                return np.full_like(x, bad) if len(calls) == step else 0.5 * x

            op = Operator(2, halving, label="late-overflow")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteIterateError, match=f"step {step}$"):
                    picard(op, [1.0, 2.0], 10_000, 0.0, ref=[0.0, 0.0],
                           norm_spec=spec)
            assert len(calls) == step

    @pytest.mark.parametrize("spec", [L2, L1, weighted_norm(np.diag([2.0]))],
                             ids=["l2", "l1", "weighted"])
    def test_non_finite_iterate_of_a_kernel_names_its_step(self, spec):
        # a built-in map steps in blocks, its stop rule read once per block;
        # an iterate that overflows at step 1 has an infinite residual, which
        # makes the divergence guard infinite too, and one that overflows at
        # step 2 follows a finite first step
        for alpha, x0, step in [(1e300, [1e10], 1), (1e200, [1.0], 2)]:
            op = affine(alpha, [0.0])
            assert op.fn.walk is not None
            for ref in [None, [0.0]]:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(NonFiniteIterateError, match=f"step {step}$"):
                        picard(op, x0, 5, ref=ref, norm_spec=spec)

    def test_shape_change_mid_run_raises_the_named_error(self):
        for step in [1, 3]:
            calls = []

            def shape_shifting(x, step=step, calls=calls):
                calls.append(1)
                return x[:1] if len(calls) == step else 0.5 * x

            op = Operator(2, shape_shifting, label="shape-shifting")
            with pytest.raises(ValueError, match=r"'shape-shifting' returned shape "
                                                 r"\(1,\) instead of \(2,\)"):
                picard(op, [1.0, 2.0], 10)
            assert len(calls) == step

    def test_overflowing_residual_of_finite_iterates_is_not_an_error(self):
        # |x_next - x| overflows to inf while every iterate stays finite
        op = Operator(1, lambda x: -x, label="flip")
        with np.errstate(over="ignore"):
            trace = picard(op, [1e308], 3, 0.0)
        assert list(trace.residuals) == [np.inf] * 2
        assert trace.stop_reason is StopReason.DIVERGED

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_start_is_caught_at_step_one(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteIterateError, match="step 1"):
                picard(identity(2), [bad, 1.0], 5)

    @pytest.mark.parametrize("kind", ["least_squares", "analysis_l1"])
    def test_solve_files_match_the_reference_loop(self, tmp_path, kind):
        rng = np.random.default_rng(52)
        problem = {"kind": kind, "A": rng.standard_normal((12, 4)).tolist(),
                   "b": rng.standard_normal(12).tolist()}
        run = {"problem": "problem.json", "params": {"tol": 1e-9, "max_iter": 5000}}
        if kind == "analysis_l1":
            problem.update({"B": rng.standard_normal((3, 4)).tolist(), "lambda": 0.2})
            run["norm"] = "w"
        (tmp_path / "problem.json").write_text(json.dumps(problem))
        (tmp_path / "run.json").write_text(json.dumps(run))
        out = tmp_path / "out"
        code = main(["solve", "--config", str(tmp_path / "run.json"),
                     "--out", str(out)])

        spec = (least_squares_problem(problem["A"], problem["b"])
                if kind == "least_squares" else
                analysis_l1_problem(problem["A"], problem["b"], problem["B"], 0.2))
        beta, eta = default_step_sizes(spec)
        op = build_operator(spec, beta, eta)
        norm_spec = L2 if eta is None else primal_dual_metric(
            beta, eta, spec.b_mat).norm_spec()
        ref = spec.exact_solution
        x0 = np.zeros(op.dim)
        residuals, errors = reference_loop(
            op, x0, 5000, 1e-9, np.zeros(op.dim) if ref is None else ref, norm_spec)
        converged = residuals[-1] <= 1e-9
        assert code == (0 if converged else 2)
        expected = IterationTrace(
            x_final=None, residuals=residuals, norm_spec=norm_spec,
            stop_reason=StopReason.RESIDUAL_TOL if converged else StopReason.MAX_ITER,
            errors_to_ref=None if ref is None else errors, label=op.label,
        )
        steps = {"beta": beta} if eta is None else {"beta": beta, "eta": eta}
        assert_same_text((out / "trace.csv").read_text(),
                         reports.trace_csv(expected, steps))
        summary = {
            "stop_reason": expected.stop_reason.value,
            "k_final": expected.k_final,
            "final_residual": expected.final_residual,
            "norm": norm_spec.describe(),
            "operator": op.label,
            **steps,
        }
        assert (out / "summary.json").read_text() == reports.dumps_json(summary)


class TestConcurrentRuns:
    @pytest.mark.parametrize("kind", ["least-squares", "separable", "primal-dual"])
    def test_two_threads_on_one_map_each_give_the_run_made_alone(self, kind):
        # a block kernel keeps its scratch row inside one walk call, so two
        # runs of one shared map at once keep the bytes each makes alone.
        # Python switches threads only between a walk's steps, but numpy
        # lets the other thread run inside a ufunc call on more than 500
        # elements, as on the 5000 coordinates of the separable map, whose
        # shrinkage clips into its scratch row and subtracts it; at lam =
        # 0.3 its coordinates enter the dead zone at different steps in the
        # two runs, so their clipped rows differ
        if kind == "primal-dual":
            op, spec, ref = _problem_ops()[2]
        else:
            op, ref = (_slow_least_squares() if kind == "least-squares"
                       else _slow_separable(5000, 0.3))
            spec = L2
        starts = [np.random.default_rng(seed).standard_normal(op.dim) * 3.0
                  for seed in (1, 2)]
        barrier = threading.Barrier(2, timeout=60)

        def run(x0):
            barrier.wait()
            return picard(op, x0, 200, 0.0, ref=ref, norm_spec=spec)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(run, x0) for x0 in starts]
                together = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for x0, trace in zip(starts, together):
            alone = picard(op, x0, 200, 0.0, ref=ref, norm_spec=spec)
            assert trace.k_final == alone.k_final == 200
            assert trace.residuals.tobytes() == alone.residuals.tobytes()
            assert trace.errors_to_ref.tobytes() == alone.errors_to_ref.tobytes()
            assert trace.x_final.tobytes() == alone.x_final.tobytes()


class TestFitRate:
    def test_exact_power_law(self):
        seq = np.arange(1.0, 101.0) ** -2.0
        fit = fit_rate(seq, "polynomial", tail_start=0)
        assert fit.exponent_p == pytest.approx(2.0, abs=1e-6)
        assert fit.r_squared >= 1.0 - 1e-12

    def test_exact_geometric(self):
        seq = 0.5 ** np.arange(1.0, 101.0)
        fit = fit_rate(seq, "exponential", tail_start=0)
        assert fit.rho == pytest.approx(0.5, abs=1e-9)
        assert fit.r_squared >= 1.0 - 1e-12

    def test_gradient_descent_rate_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((12, 5))
        b = rng.standard_normal(12)
        gram = a.T @ a
        evals = np.linalg.eigvalsh(gram)
        beta = 1.0 / evals[-1]
        oracle = max(abs(1.0 - beta * evals[0]), abs(1.0 - beta * evals[-1]))
        op = gradient_step(lambda x: a.T @ (a @ x - b), beta, 5)
        trace = picard(op, rng.standard_normal(5), 3000, 1e-5)
        fit = fit_rate(trace.residuals, "exponential")
        assert fit.rho == pytest.approx(oracle, rel=0.02)

    def test_zeros_truncate_tail(self):
        seq = np.concatenate([0.5 ** np.arange(1.0, 40.0), np.zeros(5)])
        fit = fit_rate(seq, "exponential", tail_start=10)
        assert fit.rho == pytest.approx(0.5, abs=1e-9)
        # a power law is fitted at its own indices k, which start past tail_start
        seq = np.concatenate([np.arange(1.0, 41.0) ** -3.0, [0.0, 1.0]])
        fit = fit_rate(seq, "polynomial", tail_start=20)
        assert fit.exponent_p == pytest.approx(3.0, abs=1e-9)

    @pytest.mark.parametrize("model", ["exponential", "polynomial"])
    def test_constant_tail_fits_exactly(self, model):
        # a constant tail leaves no variance to explain; the flat line fits it
        fit = fit_rate(np.ones(10), model)
        assert fit.r_squared == 1.0
        assert (fit.rho, fit.exponent_p) == ((1.0, None) if model == "exponential"
                                             else (None, 0.0))

    def test_tail_start_at_the_end_raises(self):
        # unlike the little-o proxy's tail, a fit's tail may not be empty
        seq = 0.5 ** np.arange(1.0, 11.0)
        with pytest.raises(ValueError, match="tail_start outside the sequence"):
            fit_rate(seq, "exponential", len(seq))
        with pytest.raises(ValueError, match="fewer than 5"):
            fit_rate(seq, "exponential", len(seq) - 1)

    def test_short_tail_rejected(self):
        with pytest.raises(ValueError, match="fewer than 5"):
            fit_rate(np.array([1.0, 0.5, 0.25, 0.12, 0.06]), "exponential",
                     tail_start=2)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="model"):
            fit_rate(np.ones(10), "linear")


FIT_BITS_SCRIPT = """
import numpy as np
from fpcert.iterate import fit_rate, little_o_proxy
rng = np.random.default_rng(5)
seq = np.arange(1.0, 20001.0) ** -1.5 * (1.0 + 0.1 * rng.random(20000))
bits = []
for model in ("polynomial", "exponential"):
    fit = fit_rate(seq, model, tail_start=0)
    bits += [fit.exponent_p, fit.rho, fit.r_squared]
bits.append(little_o_proxy(seq, 1.0, tail_start=0).slope)
print(" ".join("-" if b is None else float(b).hex() for b in bits))
"""


class TestBlasThreadCount:
    def test_fits_have_the_same_bits_at_one_and_two_threads(self):
        # a BLAS dot product over 20 000 points is split across threads, and
        # so rounded differently, at each thread count; the fits take none
        outputs = []
        for threads in (1, 2):
            code, out, err = run_child([], threads=threads, program=FIT_BITS_SCRIPT)
            assert code == 0, err
            outputs.append(out)
        assert len(outputs[0].split()) == 7
        assert outputs[0] == outputs[1]

    def test_solve_trace_has_the_same_bytes_at_one_and_two_threads(self, tmp_path):
        # a 120x100 design matrix is large enough for OpenBLAS to split some
        # products across threads and round them differently at each thread
        # count, A^T A by syrk among them; the map and its steps take none
        a = np.vstack([2.0 * np.eye(100),
                       0.3 * np.random.default_rng(7).standard_normal((20, 100))])
        (tmp_path / "problem.json").write_text(json.dumps(
            {"kind": "least_squares", "A": a.tolist(), "b": np.ones(120).tolist()}))
        (tmp_path / "run.json").write_text(json.dumps({"problem": "problem.json"}))
        traces = []
        for threads in (1, 2):
            out = tmp_path / f"out{threads}"
            code, _, err = run_child(["solve", "--config", str(tmp_path / "run.json"),
                                      "--out", str(out)], threads=threads)
            assert code == 0, err
            traces.append((out / "trace.csv").read_bytes())
        assert traces[0] == traces[1]


class TestLittleOProxy:
    def test_geometric_decay_passes(self):
        seq = 0.9 ** np.arange(1.0, 201.0)
        report = little_o_proxy(seq, 2.0)
        assert report.verdict
        assert report.slope < 0

    def test_constant_sequence_fails(self):
        report = little_o_proxy(np.ones(100), 1.0)
        assert not report.verdict

    def test_all_zero_sequence_passes_vacuously(self):
        report = little_o_proxy(np.zeros(50), 1.0)
        assert report.verdict

    def test_tail_start_outside_the_sequence_raises(self):
        for tail_start, message in ((-1, "tail_start must be an integer and nonnegative"),
                                    (4, "tail_start outside the sequence")):
            with pytest.raises(ValueError, match=message):
                little_o_proxy([1.0, 2.0, 3.0], 2.0, tail_start=tail_start)
        # the default and the end of the sequence stay valid, on the empty
        # sequence too
        for seq in ([], [1.0], [1.0, 0.5, 0.25]):
            assert little_o_proxy(seq, 2.0).tail_start == len(seq) // 2
            assert little_o_proxy(seq, 2.0, len(seq)).tail_start == len(seq)


class TestSummability:
    def test_halving_map_reaches_the_bound_exactly(self):
        # partial sums of 3 * (0.5^(k+1))^2 telescope to |x0|^2 in the limit
        trace = picard(affine(0.5, [0.0]), [1.0], 60, 0.0, ref=[0.0])
        report = check_residual_summability(trace, 2.0, 3.0)
        assert report.verdict
        assert report.bound == pytest.approx(1.0)
        assert report.max_partial_sum == pytest.approx(1.0, abs=1e-12)

    def test_identity_sums_to_zero(self):
        trace = picard(identity(2), [1.0, 2.0], 5, 0.0, ref=[1.0, 2.0])
        report = check_residual_summability(trace, 1.0, 1.0)
        assert report.verdict
        assert report.max_partial_sum == 0.0

    def test_forward_backward_map_with_estimated_mu(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((12, 6))
        b = rng.standard_normal(12)
        lam = 0.3
        beta = 0.9 / np.linalg.eigvalsh(a.T @ a)[-1]
        op = proximal_gradient(lambda x: a.T @ (a @ x - b), l1_prox(lam), beta, 6)
        ref = picard(op, np.zeros(6), 10**5, 1e-13).x_final
        op_hinted = proximal_gradient(
            lambda x: a.T @ (a @ x - b), l1_prox(lam), beta, 6, fixed_point_hint=ref
        )
        mu = estimate_mu(op_hinted, 2.0, plan=SamplingPlan(n_pairs=300, seed=5))
        trace = picard(op_hinted, rng.standard_normal(6), 5000, 1e-12, ref=ref)
        report = check_residual_summability(trace, 2.0, mu)
        assert report.verdict

    def test_violation_detected(self):
        trace = picard(affine(0.5, [0.0]), [1.0], 60, 0.0, ref=[0.0])
        report = check_residual_summability(trace, 2.0, 100.0)
        assert not report.verdict

    def test_overflowing_bound_is_infinite_not_an_error(self):
        # the l1 distance 2e200 is finite, its square is not a double
        trace = picard(affine(0.5, [0.0, 0.0]), [1e200, 1e200], 5, 0.0,
                       ref=[0.0, 0.0], norm_spec=L1)
        with np.errstate(over="ignore"):
            report = check_residual_summability(trace, 2.0, 1.0)
        assert report.bound == np.inf


class TestSandwich:
    def test_halving_map_holds_with_equality(self):
        trace = picard(affine(0.5, [0.0]), [1.0], 200, 1e-12, ref=[0.0])
        report = check_sandwich(trace, 1.0)
        assert report.verdict
        assert report.lower_worst >= -1e-8
        assert report.upper_worst >= -1e-8
        assert report.conclusive

    def test_identity_from_fixed_point_is_all_zero(self):
        trace = picard(identity(1), [2.0], 5, 0.0, ref=[2.0])
        report = check_sandwich(trace, 1.0)
        assert report.verdict
        assert report.remainder == 0.0

    def test_exact_absorption_of_scalar_shrinkage(self):
        # from 5 the iterates walk down by 1 until they absorb at 0
        op = prox_operator(l1_prox(1.0), 1.0, 1, fixed_point_hint=[0.0])
        trace = picard(op, [5.0], 50, 0.0, ref=[0.0])
        assert trace.converged
        np.testing.assert_allclose(trace.residuals, [1, 1, 1, 1, 1, 0])
        report = check_sandwich(trace, 1.0)
        assert report.verdict
        assert report.remainder == 0.0
        assert report.lower_worst == pytest.approx(0.0, abs=1e-12)
        assert report.upper_worst == pytest.approx(0.0, abs=1e-12)

    def test_requires_converged_trace(self):
        trace = picard(affine(0.5, [0.0]), [1.0], 5, 0.0)
        with pytest.raises(ValueError, match="converged|residual"):
            check_sandwich(trace, 1.0)

    def test_requires_admissible_mu(self):
        trace = picard(affine(0.5, [0.0]), [1.0], 100, 1e-12)
        with pytest.raises(ValueError, match="mu"):
            check_sandwich(trace, 1.5)

    def test_checks_require_a_trace_run_with_a_reference(self):
        trace = picard(affine(0.5, [0.0]), [1.0], 100, 1e-12)
        assert trace.converged
        with pytest.raises(ValueError, match="needs a trace run with a reference"):
            check_sandwich(trace, 1.0)
        with pytest.raises(ValueError, match="needs a trace run with a reference"):
            check_residual_summability(trace, 2.0, 1.0)


class TestRecurrenceBound:
    def test_hand_values(self):
        assert recurrence_bound(1.0, 1.0, np.ones(10), 0, 10) == pytest.approx(1 / 11)
        assert recurrence_bound(1.0, 2.0, np.ones(4), 0, 4) == pytest.approx(1 / 3)

    def test_zero_weights_allow_no_decrease(self):
        assert recurrence_bound(0.7, 1.0, np.zeros(5), 0, 5) == pytest.approx(0.7)

    def test_converged_start_short_circuits(self):
        assert recurrence_bound(0.0, 1.0, np.ones(5), 0, 5) == 0.0

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            recurrence_bound(1.0, 0.0, np.ones(5), 0, 5)
        with pytest.raises(ValueError):
            recurrence_bound(1.0, 1.0, np.ones(5), 3, 3)
        with pytest.raises(ValueError):
            recurrence_bound(1.0, 1.0, -np.ones(5), 0, 5)
        with pytest.raises(ValueError, match="b does not cover"):
            recurrence_bound(1.0, 1.0, np.ones(3), 0, 5)

    def test_rejects_a_nan_weight(self):
        # NaN passes a bare "b < 0" test, and the bound came out NaN
        with pytest.raises(ValueError, match="b must be nonnegative"):
            recurrence_bound(1.0, 1.0, [1.0, np.nan, 1.0], 0, 3)

    @pytest.mark.parametrize("start, k", [(-2, 3), (1.5, 3), (0, 2.5), (0, np.nan)])
    def test_start_and_k_are_nonnegative_integers(self, start, k):
        # a negative start took an empty window and returned a_start; a
        # fractional one raised a raw slice TypeError
        with pytest.raises(ValueError, match="an integer and nonnegative"):
            recurrence_bound(1.0, 1.0, np.ones(5), start, k)


class TestVerifyRecurrence:
    def test_rejects_a_nan_entry(self):
        # NaN passes a bare "seq < 0" test, and the report read PASS
        with pytest.raises(ValueError, match="sequence must be nonnegative"):
            verify_recurrence_bound([1.0, np.nan, 0.5], 1.0, 0.5)

    def test_synthesized_equality_sequence(self):
        for p, mu in [(1.0, 0.1), (0.5, 0.2), (2.0, 0.05)]:
            seq = [1.0]
            for _ in range(300):
                a = seq[-1]
                seq.append(a * (1.0 - mu * a**p))
            report = verify_recurrence_bound(seq, p, mu)
            assert report.verdict
            assert report.violations == []
            assert report.premise_from == 0

    @pytest.mark.parametrize("seq, premise_from", [
        ([], None), ([0.5], 0), ([1.0, 0.5, 2.0], None),
    ], ids=["empty", "one-entry", "premise-only-at-the-end"])
    def test_nothing_to_check_passes_vacuously(self, seq, premise_from):
        report = verify_recurrence_bound(seq, 1.0, 0.5)
        assert report.premise_from == premise_from
        assert (report.n_checked, report.violations, report.verdict) == (0, [], True)

    def test_all_zero_sequence_vacuous_pass(self):
        report = verify_recurrence_bound(np.zeros(10), 1.0, 0.5)
        assert report.verdict

    def test_geometric_regime(self):
        # gradient descent on a quadratic decays geometrically; its powers
        # satisfy the recurrence with constant contraction
        trace = picard(affine(0.75, [0.0]), [1.0], 60, 0.0, ref=[0.0])
        gamma = 2.0
        seq = trace.errors_to_ref**gamma
        mu = 1.0 - 0.75**gamma
        report = verify_recurrence_bound(seq, 0.0, mu)
        assert report.verdict

    def test_violating_sequence_reported(self):
        seq = [1.0]
        for _ in range(20):
            a = seq[-1]
            seq.append(a * (1.0 - 0.1 * a))
        seq[10] = 2.0  # plant a bump that breaks the bound
        report = verify_recurrence_bound(seq, 1.0, 0.1)
        assert report.premise_from == 10 or not report.verdict

    @pytest.mark.parametrize("p", [0.0, 0.5, 2.0])
    def test_every_violation_carries_the_closed_form_bound(self, p):
        # each step gains 0.9 * tol over the recurrence, which the premise
        # forgives step by step but the bound, checked once, does not
        mu, tol, seq = 0.2, 1e-3, [1.0]
        for _ in range(200):
            a = seq[-1]
            seq.append(a * (1.0 - mu * a**p) + 0.9 * tol)
        report = verify_recurrence_bound(seq, p, mu, tol=tol)
        assert report.premise_from == 0 and report.n_checked == 200
        expected = {k: (1.0 - mu) ** k if p == 0 else
                    recurrence_bound(1.0, p, np.full(201, mu), 0, k)
                    for k in range(1, 201)}
        late = [k for k in expected if seq[k] > expected[k] + tol]
        assert late and [k for k, _, _ in report.violations] == late
        for k, value, bound in report.violations:
            assert value == seq[k]
            assert bound == pytest.approx(expected[k], rel=1e-13)


def _halving_trace():
    return picard(affine(0.5, [0.0]), [1.0], 10, 0.0, ref=[0.0])


NAN, INF = float("nan"), float("inf")


class TestNonFiniteParameters:
    # NaN passes every `<= 0` test, so each of these returned a verdict
    # (PASS, FAIL or an all-False grid) instead of raising
    @pytest.mark.parametrize("call", [
        lambda: verify_recurrence_bound([1.0, 0.5, 0.25], 0.0, NAN),
        lambda: verify_recurrence_bound([1.0, 0.5, 0.25], 0.0, INF),
        lambda: verify_recurrence_bound([1.0, 0.5, 0.25], NAN, 0.5),
        lambda: verify_recurrence_bound([1.0, 0.5, 0.25], INF, 0.5),
        lambda: little_o_proxy([1.0, 0.5, 0.25, 0.125], NAN),
        lambda: little_o_proxy([1.0, 0.5, 0.25, 0.125], INF),
        lambda: check_residual_summability(_halving_trace(), NAN, 1.0),
        lambda: check_residual_summability(_halving_trace(), 2.0, NAN),
        lambda: check_residual_summability(_halving_trace(), 2.0, INF),
        lambda: check_residual_summability(_halving_trace(), INF, 1.0),
        lambda: range_region([1.0, 0.0], [0.0, 0.0], NAN, 1.0, 5),
        lambda: range_region([1.0, 0.0], [0.0, 0.0], 2.0, NAN, 5),
        lambda: range_region([1.0, 0.0], [0.0, 0.0], INF, 1.0, 5),
        lambda: range_region([1.0, 0.0], [0.0, 0.0], 2.0, INF, 5),
    ], ids=["recurrence-nan-mu", "recurrence-inf-mu", "recurrence-nan-p",
            "recurrence-inf-p", "little-o-nan-gamma", "little-o-inf-gamma",
            "summability-nan-gamma", "summability-nan-mu", "summability-inf-mu",
            "summability-inf-gamma", "region-nan-gamma", "region-nan-mu",
            "region-inf-gamma", "region-inf-mu"])
    def test_is_rejected(self, call):
        with pytest.raises(ValueError, match="finite"):
            call()
