import contextlib
import io
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpcert.cli import (EXIT_FAIL, EXIT_OK, EXIT_USAGE, SCALAR_PARAMS, UsageError,
                        load_problem_config, main)
from fpcert.metrics import primal_dual_metric, write_matrix
from fpcert.operators import prox_operator, l1_prox
from fpcert.certify import gan_slack
from fpcert.problems import analysis_l1_problem, default_step_sizes
from helpers import run_child, start_child


# a list nested 100 000 deep, beyond the JSON decoder's recursion limit
DEEP = "[" * 100_000 + "]" * 100_000


def write_config(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return str(path)


@pytest.fixture
def soft_threshold_config(tmp_path):
    op_path = write_config(tmp_path / "op.json",
                           {"type": "soft_threshold", "lambda": 1.0, "dim": 1})
    return write_config(tmp_path / "run.json", {
        "operator": os.path.basename(op_path),
        "property": "gan",
        "params": {"gamma": 1.0, "mu": 1.0, "seed": 3, "n_pairs": 200},
        "radius_scales": [0.1, 1.0, 10.0, 1e3, 1e4],
    })


class TestCertifyCommand:
    def test_pass_exit_zero_and_certificate(self, tmp_path, soft_threshold_config):
        out = tmp_path / "out"
        assert main(["certify", "--config", soft_threshold_config,
                     "--out", str(out)]) == EXIT_OK
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["verdict"] == "PASS"
        assert cert["min_slack"] >= -1e-10
        assert cert["evidence"] == "sampled"

    def test_fail_exit_two_with_witness(self, tmp_path, soft_threshold_config):
        out = tmp_path / "out"
        assert main(["certify", "--config", soft_threshold_config,
                     "--out", str(out), "--gamma", "0.5", "--mu", "0.1"]) == EXIT_FAIL
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["verdict"] == "FAIL"

    def test_fail_witness_round_trips_to_original_slack(self, tmp_path,
                                                        soft_threshold_config):
        out = tmp_path / "out"
        main(["certify", "--config", soft_threshold_config, "--out", str(out),
              "--gamma", "0.5", "--mu", "0.1"])
        cert = json.loads((out / "certificate.json").read_text())
        op = prox_operator(l1_prox(1.0), 1.0, 1, fixed_point_hint=[0.0])
        slack = gan_slack(op, cert["witness_x"], cert["witness_y"],
                          cert["gamma"], cert["mu"])
        assert abs(slack - cert["min_slack"]) <= 1e-12

    def test_weighted_norm_certificate_records_the_coupled_metric(self, tmp_path):
        data = {"A": [[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]], "b": [1.0, -1.0, 0.5],
                "B": [[1.0, -1.0]], "lambda": 0.3}
        write_config(tmp_path / "problem.json", {"kind": "analysis_l1", **data})
        cfg = write_config(tmp_path / "run.json", {
            "problem": "problem.json", "property": "nonexpansive", "norm": "w",
            "params": {"n_pairs": 20}})
        out = tmp_path / "out"
        assert main(["certify", "--config", cfg, "--out", str(out)]) == EXIT_OK
        cert = json.loads((out / "certificate.json").read_text())
        spec = analysis_l1_problem(data["A"], data["b"], data["B"], data["lambda"])
        beta, eta = default_step_sizes(spec)
        weight = primal_dual_metric(beta, eta, spec.b_mat).norm_spec().weight
        assert cert["norm"] == "weighted"
        np.testing.assert_array_equal(cert["norm_weight"], weight)

    def test_byte_identical_reruns(self, tmp_path, soft_threshold_config):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["certify", "--config", soft_threshold_config, "--out", str(out1)])
        main(["certify", "--config", soft_threshold_config, "--out", str(out2)])
        assert (out1 / "certificate.json").read_bytes() == \
            (out2 / "certificate.json").read_bytes()


class TestSolveCommand:
    def test_identity_trace_of_length_one(self, tmp_path):
        write_config(tmp_path / "id.json", {"type": "identity", "dim": 2})
        cfg = write_config(tmp_path / "run.json",
                           {"operator": "id.json", "x0": [1.0, 2.0]})
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stop_reason"] == "residual_tol"
        assert summary["k_final"] == 1
        rows = [l for l in (out / "trace.csv").read_text().splitlines()
                if not l.startswith("#") and l]
        assert len(rows) == 3  # header plus k = 0, 1

    def test_divergent_run_exits_two(self, tmp_path):
        write_config(tmp_path / "op.json", {"type": "affine", "alpha": 2.0, "z": [0.0]})
        cfg = write_config(tmp_path / "run.json",
                           {"operator": "op.json", "x0": [1.0]})
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_FAIL
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stop_reason"] == "diverged"

    def test_non_finite_iterate_exits_two_naming_the_step(self, tmp_path, capsys):
        write_config(tmp_path / "op.json", {"type": "affine", "alpha": 1e200})
        cfg = write_config(tmp_path / "run.json",
                           {"operator": "op.json", "x0": [1e200]})
        for command in ("solve", "rates"):
            assert main([command, "--config", cfg,
                         "--out", str(tmp_path / command)]) == EXIT_FAIL
            err = capsys.readouterr().err
            assert err == f"fpcert: {command} failed: iterate became non-finite at step 1\n"

    def test_infinite_residual_is_null_in_strict_json(self, tmp_path):
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        write_config(tmp_path / "op.json", {"type": "affine", "alpha": -1})
        cfg = write_config(tmp_path / "run.json", {
            "operator": "op.json", "x0": [1e308], "params": {"max_iter": 3},
        })
        out = tmp_path / "out"
        main(["solve", "--config", cfg, "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text(),
                             parse_constant=reject)
        assert summary["final_residual"] is None

    def test_operator_solve_measures_errors_to_the_hint(self, tmp_path):
        # x -> 0.5 x + z has the fixed point 2 z
        write_config(tmp_path / "op.json",
                     {"type": "affine", "alpha": 0.5, "z": [1.0, -2.0]})
        cfg = write_config(tmp_path / "run.json",
                           {"operator": "op.json", "x0": [0.0, 0.0],
                            "params": {"max_iter": 20}})
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_FAIL
        rows = [l.split(",") for l in (out / "trace.csv").read_text().splitlines()
                if not l.startswith("#")][1:]
        hint, x = np.array([2.0, -4.0]), np.zeros(2)
        for k, (step, _, error) in enumerate(rows):
            assert int(step) == k
            assert float(error) == np.linalg.norm(x - hint)
            x = 0.5 * x + np.array([1.0, -2.0])

    def test_problem_solve_with_reference_column(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 3))
        write_matrix(tmp_path / "A.txt", a)
        write_matrix(tmp_path / "b.txt", rng.standard_normal(8).reshape(-1, 1))
        write_config(tmp_path / "problem.json",
                     {"kind": "least_squares", "A": "A.txt", "b": "b.txt"})
        cfg = write_config(tmp_path / "run.json", {
            "problem": "problem.json",
            "params": {"tol": 1e-10, "max_iter": 50_000},
        })
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = [l for l in (out / "trace.csv").read_text().splitlines()
                if not l.startswith("#") and l][1:]
        final_error = float(rows[-1].split(",")[2])
        assert final_error <= 1e-8

    def test_null_x0_starts_from_zero(self, tmp_path):
        write_config(tmp_path / "op.json", {"type": "affine", "alpha": 0.5,
                                            "z": [1.0, -2.0]})
        traces = []
        for name, extra in (("null", {"x0": None}), ("zeros", {"x0": [0, 0]})):
            cfg = write_config(tmp_path / f"{name}.json",
                               {"operator": "op.json", **extra})
            assert main(["solve", "--config", cfg,
                         "--out", str(tmp_path / name)]) == EXIT_OK
            traces.append((tmp_path / name / "trace.csv").read_bytes())
        assert traces[0] == traces[1]


class TestRatesCommand:
    def test_least_squares_rate_matches_eigen_oracle(self, tmp_path):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((10, 4))
        b = rng.standard_normal(10)
        write_matrix(tmp_path / "A.txt", a)
        write_matrix(tmp_path / "b.txt", b.reshape(-1, 1))
        write_config(tmp_path / "problem.json",
                     {"kind": "least_squares", "A": "A.txt", "b": "b.txt"})
        cfg = write_config(tmp_path / "run.json", {
            "problem": "problem.json",
            "x0": [1.0, -1.0, 1.0, -1.0],
            "params": {"tol": 1e-6, "max_iter": 50_000, "gamma": 2.0},
        })
        out = tmp_path / "out"
        assert main(["rates", "--config", cfg, "--out", str(out)]) == EXIT_OK

        fit = json.loads((out / "rate_fit.json").read_text())
        evals = np.linalg.eigvalsh(a.T @ a)
        beta = 1.0 / evals[-1]
        oracle = max(abs(1.0 - beta * evals[0]), abs(1.0 - beta * evals[-1]))
        assert fit["model"] == "exponential"
        assert abs(fit["rho"] - oracle) <= 0.02 * oracle

        checks = json.loads((out / "checks.json").read_text())
        assert checks["summability"]["verdict"] == "PASS"
        assert checks["little_o_proxy"]["verdict"] == "PASS"

    def test_reruns_are_byte_identical(self, tmp_path):
        write_config(tmp_path / "op.json", {"type": "affine", "alpha": 0.5, "z": [1.0]})
        a = [[2, 0, 1], [0, 1, 0], [1, 0, 3], [0, 2, 1]]
        write_config(tmp_path / "ls.json",
                     {"kind": "least_squares", "A": a, "b": [1, -2, 0.5, 3]})
        write_config(tmp_path / "analysis.json", {
            "kind": "analysis_l1", "A": a, "b": [1, -2, 0.5, 3],
            "B": [[1, -1, 0], [0, 1, -1]], "lambda": 0.3})
        # the gradient step, and the primal-dual map in its coupled metric,
        # step in place through numpy's out= kernels
        runs = [{"operator": "op.json", "x0": [9.0],
                 "params": {"tol": 1e-12, "max_iter": 1000, "gamma": 2.0, "mu": 1.0}},
                {"problem": "ls.json"},
                {"problem": "analysis.json", "norm": "w"}]
        for i, run in enumerate(runs):
            cfg = write_config(tmp_path / f"run{i}.json", run)
            out1, out2 = tmp_path / f"o{i}a", tmp_path / f"o{i}b"
            assert main(["rates", "--config", cfg, "--out", str(out1)]) == EXIT_OK
            assert main(["rates", "--config", cfg, "--out", str(out2)]) == EXIT_OK
            for name in ("trace.csv", "rate_fit.json", "checks.json"):
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


    def test_sandwich_of_a_slow_polynomial_tail(self, tmp_path):
        # the gamma-2 mu estimate of this problem is 1.0000000005, so only
        # the mu <= 1 gate skips the sandwich, which would FAIL at mu = 1;
        # its lower bound needs an exponent-1 mu, which --gamma 1 estimates
        # (0.0316), and there it runs and passes
        write_config(tmp_path / "problem.json", {
            "kind": "separable_smooth_l1", "coeffs": [1, 0.0005], "b": [3, 5],
            "lambda": 0.001})
        cfg = write_config(tmp_path / "run.json",
                           {"problem": "problem.json", "model": "polynomial"})
        checks = []
        for args in ([], ["--gamma", "1"]):
            out = tmp_path / f"out{len(args)}"
            assert main(["rates", "--config", cfg, "--out", str(out), *args]) == EXIT_OK
            checks.append(json.loads((out / "checks.json").read_text()))
        assert [c["summability"]["verdict"] for c in checks] == ["PASS", "PASS"]
        assert checks[1]["sandwich"]["verdict"] == "PASS"

    def test_mu_estimate_of_zero_records_fail(self, tmp_path):
        # the step-size boundary scenario: an expansive map leaves no mu > 0
        write_config(tmp_path / "op.json",
                     {"type": "affine", "alpha": 1.5, "z": [1.0, -2.0]})
        cfg = write_config(tmp_path / "run.json", {
            "operator": "op.json", "params": {"max_iter": 200, "n_pairs": 20},
        })
        out = tmp_path / "out"
        assert main(["rates", "--config", cfg, "--out", str(out)]) == EXIT_FAIL
        checks = json.loads((out / "checks.json").read_text())
        for key in ("summability", "sandwich"):
            assert checks[key] == {"skipped": "mu estimate is 0"}

    def test_mu_estimate_whose_powers_overflow(self, tmp_path, capsys):
        # at gamma = 400 the sampled powers overflow; the estimate was NaN
        # and the summability check ended in a traceback
        write_config(tmp_path / "op.json",
                     {"type": "affine", "alpha": 0.5, "z": [1.0, 2.0]})
        cfg = write_config(tmp_path / "run.json",
                           {"operator": "op.json", "params": {"gamma": 400}})
        out = tmp_path / "out"
        assert main(["rates", "--config", cfg, "--out", str(out)]) in (EXIT_OK, EXIT_FAIL)
        assert "Traceback" not in capsys.readouterr().err
        checks = json.loads((out / "checks.json").read_text(), parse_constant=_reject_constant)
        assert checks["summability"]["mu"] == pytest.approx(2.0**400 - 1, rel=1e-10)

    def test_two_step_trace_passes_the_little_o_proxy(self, tmp_path):
        # alpha = 1e-12 lands within 1e-11 of z in one step and stops on the
        # next: a one-point tail shows no trend and cannot refute the proxy
        write_config(tmp_path / "op.json",
                     {"type": "affine", "alpha": 1e-12, "z": [1.0, 2.0]})
        cfg = write_config(tmp_path / "run.json",
                           {"operator": "op.json", "params": {"mu": 0.5}})
        out = tmp_path / "out"
        assert main(["rates", "--config", cfg, "--out", str(out)]) == EXIT_OK
        checks = json.loads((out / "checks.json").read_text())
        assert checks["stop_reason"] == "residual_tol"
        assert checks["little_o_proxy"]["verdict"] == "PASS"
        assert checks["little_o_proxy"]["note"] == "tail too short to refute"
        assert checks["summability"]["verdict"] == "PASS"

    def test_uninformative_sample_records_skipped_checks(self, tmp_path):
        # lambda = 0 makes the map the identity: every sampled pair is fixed
        write_config(tmp_path / "op.json",
                     {"type": "soft_threshold", "lambda": 0, "dim": 3})
        cfg = write_config(tmp_path / "run.json", {"operator": "op.json"})
        out = tmp_path / "out"
        assert main(["rates", "--config", cfg, "--out", str(out)]) == EXIT_FAIL
        checks = json.loads((out / "checks.json").read_text())
        for key in ("summability", "sandwich"):
            assert checks[key] == {"skipped": "operator is indistinguishable "
                                   "from the identity on all sampled pairs"}

    def test_outputs_do_not_depend_on_the_step_budget(self, tmp_path):
        write_config(tmp_path / "op.json",
                     {"type": "soft_threshold", "lambda": 1, "dim": 10})
        cfg = write_config(tmp_path / "run.json",
                           {"operator": "op.json", "x0": [3.0] * 10})
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["rates", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["rates", "--config", cfg, "--out", str(out2),
                     "--max-iter", "1000"]) == EXIT_OK
        for name in ("checks.json", "trace.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert json.loads((out1 / "checks.json").read_text())[
            "sandwich"]["verdict"] == "PASS"

    @pytest.mark.parametrize("operator, args, code, skipped", [
        # every pair of the identity is fixed, so there is no hint to measure to
        ({"type": "identity", "dim": 2}, [], EXIT_OK,
         {"summability": "no fixed point available",
          "sandwich": "no fixed point available"}),
        ({"type": "affine", "alpha": 0.5, "z": [1.0]}, ["--mu", "2"], EXIT_OK,
         {"sandwich": "needs a converged trace and mu <= 1"}),
        # a run stopped by its step budget is not a failure of the checks
        ({"type": "affine", "alpha": 0.5, "z": [1.0]},
         ["--mu", "1", "--max-iter", "5"], EXIT_OK,
         {"sandwich": "needs a converged trace and mu <= 1"}),
    ], ids=["no-fixed-point", "mu-above-one", "step-budget"])
    def test_skipped_checks(self, tmp_path, operator, args, code, skipped):
        write_config(tmp_path / "op.json", operator)
        cfg = write_config(tmp_path / "run.json", {"operator": "op.json"})
        out = tmp_path / "out"
        assert main(["rates", "--config", cfg, "--out", str(out), *args]) == code
        checks = json.loads((out / "checks.json").read_text())
        for key, reason in skipped.items():
            assert checks[key] == {"skipped": reason}

    def test_nonpositive_mu_is_usage_error(self, tmp_path, capsys):
        write_config(tmp_path / "op.json", {"type": "affine", "alpha": 0.5, "z": [1.0]})
        cfg = write_config(tmp_path / "run.json", {"operator": "op.json"})
        for mu in ("0", "-1"):
            assert main(["rates", "--config", cfg, "--out", str(tmp_path / "out"),
                         "--mu", mu]) == EXIT_USAGE
            assert "field 'mu'" in capsys.readouterr().err


class TestRegionCommand:
    def test_grid_emitted(self, tmp_path):
        cfg = write_config(tmp_path / "run.json", {
            "x": [1.0, 0.0], "xhat": [0.0, 0.0], "resolution": 21,
            "params": {"gamma": 2.0, "mu": 1.0},
        })
        out = tmp_path / "out"
        assert main(["region", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "region.csv").read_text().splitlines()
        cells = [l for l in lines if not l.startswith("#")]
        assert len(cells) == 21

    def test_grid_far_from_the_origin(self, tmp_path):
        # the squares of 1e200 overflowed: every cell was 0, the bounds inf
        cfg = write_config(tmp_path / "run.json", {
            "x": [1e200, 0.0], "xhat": [0.0, 0.0], "resolution": 5,
            "params": {"gamma": 2.0, "mu": 1.0},
        })
        out = tmp_path / "out"
        assert main(["region", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "region.csv").read_text().splitlines()
        assert "# bounds: -9.9999999999999997e+199 9.9999999999999997e+199 " \
               "-9.9999999999999997e+199 9.9999999999999997e+199" in lines
        assert sum(l.count("1") for l in lines if not l.startswith("#")) == 5

    def test_default_output_dir_is_the_command_and_a_timestamp(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "run.json", {
            "x": [1.0, 0.0], "xhat": [0.0, 0.0], "resolution": 5,
        })
        assert main(["region", "--config", cfg]) == EXIT_OK
        [out] = [path for path in tmp_path.iterdir() if path.is_dir()]
        assert re.fullmatch(r"region-\d{8}-\d{6}", out.name)
        assert (out / "region.csv").exists()

    def test_default_output_dirs_of_one_second_are_distinct(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("fpcert.cli.time.strftime", lambda fmt: "20260101-120000")
        for resolution in (5, 7):
            cfg = write_config(tmp_path / "run.json", {
                "x": [1.0, 0.0], "xhat": [0.0, 0.0], "resolution": resolution,
            })
            assert main(["region", "--config", cfg]) == EXIT_OK
        for name, resolution in [("region-20260101-120000", 5),
                                 ("region-20260101-120000-2", 7)]:
            lines = (tmp_path / name / "region.csv").read_text().splitlines()
            assert len([l for l in lines if not l.startswith("#")]) == resolution
        assert len([path for path in tmp_path.iterdir() if path.is_dir()]) == 2

    def test_two_processes_started_at_once_get_distinct_dirs(self, tmp_path):
        # two runs started together mostly share their second, and each must
        # make a directory of its own rather than share one
        cfg = write_config(tmp_path / "run.json", {
            "x": [1e200, 0.0], "xhat": [0.0, 0.0], "resolution": 5,
        })
        work = tmp_path / "work"
        work.mkdir()
        children = [start_child(["region", "--config", cfg], cwd=work)
                    for _ in range(2)]
        for child in children:
            with child:
                _, err = child.communicate(timeout=120)
            assert child.returncode == EXIT_OK, err
        outs = sorted(work.iterdir())
        assert len(outs) == 2
        assert all(re.fullmatch(r"region-\d{8}-\d{6}(-2)?", out.name) and
                   (out / "region.csv").exists() for out in outs)

    def test_coincident_points_are_usage_error(self, tmp_path):
        cfg = write_config(tmp_path / "run.json", {
            "x": [1.0, 1.0], "xhat": [1.0, 1.0],
        })
        assert main(["region", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == EXIT_USAGE


class TestUsageErrors:
    def test_malformed_config_corpus(self, tmp_path, capsys):
        # (command, run config, extra arguments, field the message names)
        corpus = [
            ("certify", {}, [], "problem"),            # certify without target
            ("certify", {"problem": "p.json", "operator": "o.json",
                         "params": {}}, [], "problem"),  # both targets
            ("certify", {"operator": "missing.json"}, [],
             "operator"),                              # dangling operator path
            ("certify", {"operator": "op.json", "norm": "spectral"}, [],
             "norm"),                                  # unknown norm
            ("certify", {"operator": "op.json", "params": [1, 2]}, [],
             "params"),                                # params not an object
            ("solve", {"operator": "op.json"}, ["--max-iter", "0"],
             "max_iter"),                              # empty step budget
            ("rates", {"operator": "op.json"}, ["--gamma", "-1"],
             "gamma"),                                 # negative exponent
            ("rates", {"operator": "op.json", "params": {"mu": "abc"}}, [],
             "mu"),                                    # non-numeric scalar
            ("certify", {"operator": "op.json", "params": {"n_pairs": "x"}}, [],
             "n_pairs"),                               # non-numeric count
            ("certify", {"operator": "negative.json"}, [],
             "lambda"),                                # negative threshold
            ("certify", {"operator": "list.json"}, [],
             "operator"),                              # operator not an object
            ("solve", {"operator": "op.json", "x0": ["a"]}, [],
             "x0"),                                    # non-numeric start
            ("certify", {"operator": "op.json", "radius_scales": [-1]}, [],
             "radius_scales"),                         # negative scale
            ("certify", {"operator": "op.json"}, ["--seed", "-1"],
             "seed"),                                  # negative seed
            ("region", {"x": [1, 2], "xhat": [0, 0], "resolution": "q"}, [],
             "resolution"),                            # non-numeric grid size
            ("solve", {"problem": "ls.json"}, ["--beta", "1e300"],
             "beta"),                                  # step moves the solution
            ("solve", {"problem": "zero_a.json"}, [],
             "problem"),                               # L = 0 leaves no 1/L step
            ("solve", {"problem": "huge_ls.json"}, [],
             "problem"),                               # s_max^2 overflows
            ("solve", {"problem": "huge_a.json"}, [],
             "problem"),                               # |A|^2 overflows
            ("solve", {"problem": "huge_b.json"}, [],
             "problem"),                               # |B|^2 overflows
            ("solve", {"problem": "tiny_ls.json"}, [],
             "problem"),                               # 1/L overflows
            ("solve", {"problem": "tiny_a.json"}, [],
             "problem"),                               # 1/|A|^2 overflows
            ("solve", {"problem": "tiny_coeffs.json"}, [],
             "problem"),                               # 1/max(coeffs) overflows
            ("solve", {"operator": "far.json"}, [],
             "alpha"),                                 # hint overflows
            ("certify", {"operator": "op.json", "output_dir": 5,
                         "params": {"gamma": 1, "mu": 0.5}}, [],
             "output_dir"),                            # output path not a string
            ("certify", {"operator": 5}, [],
             "operator"),                              # operator path not a string
            ("solve", {"problem": {"kind": "least_squares"}}, [],
             "problem"),                               # problem inline, not a path
            ("certify", {"operator": "op.json", "property": "bogus"}, [],
             "property"),                              # unknown property
            ("certify", {"operator": "."}, [],
             "operator"),                              # operator path a directory
            ("certify", {"operator": "op.json", "property": "holder",
                         "params": {"gamma": 1, "mu": 1}}, [],
             "property"),                              # target has no fixed point
            ("solve", {"problem": "list_problem.json"}, [],
             "problem"),                               # problem not an object
            ("solve", {"problem": "null_lambda.json"}, [],
             "lambda"),                                # lambda null
            ("solve", {"problem": "list_lambda.json"}, [],
             "lambda"),                                # lambda a list
            ("solve", {"problem": "nan_lambda.json"}, [],
             "lambda"),                                # lambda not finite
            ("solve", {"problem": "negative_lambda.json"}, [],
             "lambda"),                                # lambda negative
            ("rates", {"operator": "op.json", "radius_scales": [-1]}, [],
             "radius_scales"),                         # plan unused: no fixed point
            ("rates", {"operator": "op.json", "model": "bogus"}, [],
             "model"),                                 # unknown rate model
            ("certify", {"operator": "op.json", "model": 5}, [],
             "model"),                                 # model not a string
            ("solve", {"problem": "ragged_a.json"}, [],
             "A"),                                     # ragged inline matrix
            ("solve", {"problem": "text_b.json"}, [],
             "b"),                                     # non-numeric inline entry
            ("solve", {"problem": "header_b_mat.json"}, [],
             "B"),                                     # bad matrix file header
            ("solve", {"problem": "text_coeffs.json"}, [],
             "coeffs"),                                # non-numeric matrix value
            ("certify", {"operator": "op.json", "radius_scales": [],
                         "params": {"gamma": 1, "mu": 1}}, [],
             "radius_scales"),                         # no scales
            ("certify", {"operator": "op.json", "radius_scales": 0,
                         "params": {"gamma": 1, "mu": 1}}, [],
             "radius_scales"),                         # scales not a list
            ("certify", {"operator": "op.json", "radius_scales": False,
                         "params": {"gamma": 1, "mu": 1}}, [],
             "radius_scales"),                         # scales a boolean
            ("solve", {"operator": "op.json", "x0": [1.0, 2.0]}, [],
             "x0"),                                    # start of the wrong length
            ("region", {"x": [1, 2, 3], "xhat": [0, 0]}, [],
             "x"),                                     # point with three entries
            ("region", {"xhat": [0, 0]}, [],
             "x"),                                     # point missing
            ("solve", {"operator": "empty_z.json"}, [],
             "z"),                                     # empty shift
            ("solve", {"problem": "list_kind.json"}, [],
             "kind"),                                  # kind a list
            ("solve", {"problem": "object_kind.json"}, [],
             "kind"),                                  # kind an object
            ("solve", {"problem": "bool_a.json"}, [],
             "A"),                                     # boolean inline entry
            ("solve", {"problem": "bool_coeffs.json"}, [],
             "coeffs"),                                # boolean inline coefficient
            ("solve", {"problem": "nan_coeffs.json"}, [],
             "problem"),                               # nan in a coeffs file
            ("solve", {"problem": "inf_b.json"}, [],
             "problem"),                               # infinite separable b
            ("solve", {"problem": "huge_int_b.json"}, [],
             "b"),                                     # integer beyond a double
            ("solve", {"problem": "negative_header_a.json"}, [],
             "A"),                                     # negative matrix-file header
            ("solve", {}, [], "problem"),              # solve without target
            ("solve", {"problem": "missing_file_a.json"}, [],
             "A"),                                     # matrix file missing
            ("solve", {"operator": "op.json", "params": {"max_iter": True}}, [],
             "max_iter"),                              # boolean scalar param
            ("solve", {"problem": "number_a.json"}, [],
             "A"),                                     # matrix neither path nor list
            ("region", '{"params": ' + DEEP + "}", [],
             "config"),                                # run config nested too deeply
            ("solve", {"problem": "deep_problem.json"}, [],
             "problem"),                               # problem nested too deeply
            ("solve", {"operator": "deep_op.json"}, [],
             "operator"),                              # operator nested too deeply
            ("certify", {"operator": "a\u0000b"}, [],
             "operator"),                              # NUL byte in the operator path
            ("solve", {"operator": "a\ud800b"}, [],
             "operator"),                              # lone surrogate in the path
            ("solve", {"problem": "a\u0000b"}, [],
             "problem"),                               # NUL byte in the problem path
        ]
        write_config(tmp_path / "op.json", {"type": "identity", "dim": 1})
        write_config(tmp_path / "negative.json",
                     {"type": "soft_threshold", "lambda": -1, "dim": 2})
        write_config(tmp_path / "list.json", [1, 2])
        write_config(tmp_path / "ls.json", {"kind": "least_squares",
                                            "A": [[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]],
                                            "b": [1.0, 2.0, 3.0]})
        write_config(tmp_path / "huge_ls.json", {
            "kind": "least_squares", "A": [[1e200, 0], [0, 1e200], [1, 1]],
            "b": [1, 1, 1]})
        write_config(tmp_path / "tiny_ls.json", {
            "kind": "least_squares", "A": [[1e-160, 0], [0, 1e-160], [0, 0]],
            "b": [1, 1, 1]})
        write_config(tmp_path / "tiny_coeffs.json", {
            "kind": "separable_smooth_l1", "coeffs": [1e-320, 1e-320], "b": [1, 2],
            "lambda": 0.1})
        for name, a_mat, b_mat in (("zero_a", [[0, 0], [0, 0]], [[1, 0]]),
                                   ("huge_a", [[1e200, 0], [0, 1]], [[1, 0]]),
                                   ("tiny_a", [[1e-160, 0], [0, 1e-160]], [[1, 0]]),
                                   ("huge_b", [[1, 0], [0, 1]], [[1e200, 0]])):
            write_config(tmp_path / f"{name}.json", {
                "kind": "analysis_l1", "A": a_mat, "b": [1, 1], "B": b_mat})
        write_config(tmp_path / "list_problem.json", [{"kind": "least_squares"}])
        for name, lam in (("null_lambda", None), ("list_lambda", [0.5]),
                          ("nan_lambda", "nan"), ("negative_lambda", -1)):
            write_config(tmp_path / f"{name}.json", {
                "kind": "separable_smooth_l1", "coeffs": [1, 2], "b": [1, 1],
                "lambda": lam})
        write_config(tmp_path / "ragged_a.json", {
            "kind": "least_squares", "A": [[1, 2], [3]], "b": [1, 1]})
        write_config(tmp_path / "text_b.json", {
            "kind": "least_squares", "A": [[1, 0], [0, 1]], "b": [1, "q"]})
        (tmp_path / "header.txt").write_text("2 x\n1 0 0 1\n")
        write_config(tmp_path / "header_b_mat.json", {
            "kind": "analysis_l1", "A": [[1, 0], [0, 1]], "b": [1, 1],
            "B": "header.txt"})
        (tmp_path / "text.txt").write_text("2 1\n1 q\n")
        write_config(tmp_path / "text_coeffs.json", {
            "kind": "separable_smooth_l1", "coeffs": "text.txt", "b": [1, 1]})
        write_config(tmp_path / "empty_z.json", {"type": "affine", "z": []})
        write_config(tmp_path / "list_kind.json", {"kind": ["least_squares"]})
        write_config(tmp_path / "object_kind.json", {"kind": {}})
        write_config(tmp_path / "bool_a.json", {
            "kind": "least_squares", "A": [[True, 0], [0, 1]], "b": [1, 1]})
        write_config(tmp_path / "bool_coeffs.json", {
            "kind": "separable_smooth_l1", "coeffs": [True, 2], "b": [3, -1]})
        (tmp_path / "nan.txt").write_text("2 1\n1 nan\n")
        write_config(tmp_path / "nan_coeffs.json", {
            "kind": "separable_smooth_l1", "coeffs": "nan.txt", "b": [1, 1]})
        write_config(tmp_path / "inf_b.json", {
            "kind": "separable_smooth_l1", "coeffs": [1, 2], "b": [1, float("inf")]})
        (tmp_path / "negative.txt").write_text("-2 -2\n1 0 0 1\n")
        write_config(tmp_path / "negative_header_a.json", {
            "kind": "least_squares", "A": "negative.txt", "b": [1, 1]})
        write_config(tmp_path / "missing_file_a.json", {
            "kind": "least_squares", "A": "nowhere.txt", "b": [1, 1]})
        write_config(tmp_path / "number_a.json", {
            "kind": "least_squares", "A": 3, "b": [1, 1]})
        write_config(tmp_path / "huge_int_b.json", {
            "kind": "least_squares", "A": [[1, 0], [0, 1]], "b": [1, 10**400]})
        write_config(tmp_path / "far.json",
                     {"type": "affine", "alpha": 0.5, "z": [1e308, 1e308]})
        (tmp_path / "deep_problem.json").write_text('{"kind": "least_squares", "A": '
                                                    + DEEP + "}")
        (tmp_path / "deep_op.json").write_text('{"z": ' + DEEP + "}")
        for i, (command, payload, args, field_name) in enumerate(corpus):
            cfg = tmp_path / f"bad{i}.json"
            if isinstance(payload, str):
                # JSON text that json.dump cannot produce
                cfg.write_text(payload)
            else:
                write_config(cfg, payload)
            assert main([command, "--config", str(cfg),
                         "--out", str(tmp_path / f"o{i}"), *args]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert f"'{field_name}" in err
            assert "Traceback" not in err
            assert not os.path.exists(tmp_path / f"o{i}")

    def test_missing_config_file(self, tmp_path):
        assert main(["certify", "--config", str(tmp_path / "nope.json")]) == EXIT_USAGE

    def test_invalid_json_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["certify", "--config", str(bad)]) == EXIT_USAGE

    def test_unknown_operator_type(self, tmp_path):
        write_config(tmp_path / "op.json", {"type": "projection"})
        cfg = write_config(tmp_path / "run.json", {"operator": "op.json"})
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == EXIT_USAGE

    def test_region_without_points(self, tmp_path):
        cfg = write_config(tmp_path / "run.json", {"params": {}})
        assert main(["region", "--config", cfg]) == EXIT_USAGE

    def test_argparse_errors_map_to_usage_exit(self, capsys):
        assert main(["certify"]) == EXIT_USAGE
        capsys.readouterr()

    def test_bad_x0_dimension(self, tmp_path):
        write_config(tmp_path / "op.json", {"type": "identity", "dim": 2})
        cfg = write_config(tmp_path / "run.json",
                           {"operator": "op.json", "x0": [1.0]})
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == EXIT_USAGE

    @pytest.mark.parametrize("command, out, reason", [
        # given by --out
        ("region", "taken.txt", "cannot write "),      # an existing regular file
        ("region", "taken.txt/sub", "cannot write "),  # a path below a regular file
        ("region", "x" * 300, "cannot write "),        # a name too long
        ("solve", "po", "cannot write "),              # summary.json a directory
        # given by the run config's output_dir, which no path can hold
        ("region", {"output_dir": "a\u0000b"}, "embedded null byte"),
        ("solve", {"output_dir": "a\u0000b"}, "embedded null byte"),
        ("solve", {"output_dir": "a\ud800b"}, "'utf-8' codec can't encode"),
    ], ids=["file", "below-a-file", "long-name", "product-a-directory", "nul-region",
            "nul-solve", "surrogate-solve"])
    def test_unwritable_output_path_is_a_usage_error(self, tmp_path, capsys,
                                                     monkeypatch, command, out,
                                                     reason):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken.txt").write_text("kept\n")
        (tmp_path / "po" / "summary.json").mkdir(parents=True)
        write_config(tmp_path / "op.json", {"type": "identity", "dim": 1})
        cfg = write_config(tmp_path / "run.json", {
            "operator": "op.json", "x": [1.0, 0.0], "xhat": [0.0, 0.0],
            "resolution": 5, **(out if isinstance(out, dict) else {})})
        before = sorted(os.listdir(tmp_path))
        args = [] if isinstance(out, dict) else ["--out", str(tmp_path / out)]
        assert main([command, "--config", cfg, *args]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"fpcert: error: field 'output_dir': {reason}")
        assert "Traceback" not in err
        # the trace.csv written before summary.json failed is removed
        assert sorted(p.name for p in (tmp_path / "po").iterdir()) == ["summary.json"]
        assert (tmp_path / "taken.txt").read_text() == "kept\n"
        assert sorted(os.listdir(tmp_path)) == before


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 7.28 TiB for an array")


# (command, operator config or None, run config, callee that allocates, the
# field that sizes it, a size whose arrays do not fit in memory)
OVERSIZED = {
    "region-resolution": ("region", None, {"x": [1.0, 0.0], "xhat": [0.0, 0.0]},
                          "fpcert.cli.range_region", "resolution", 1000000),
    "soft-threshold-dim": ("solve", {"type": "soft_threshold"}, {},
                           "fpcert.operators.prox_operator", "dim", 10**12),
    "identity-dim": ("solve", {"type": "identity"}, {},
                     "fpcert.operators.identity", "dim", 10**12),
    "certify-n-pairs": ("certify", {"type": "affine", "alpha": 0.5, "z": [1.0, 2.0]},
                        {"property": "nonexpansive"}, "fpcert.cli.certify", "n_pairs",
                        2000000000),
    "rates-n-pairs": ("rates", {"type": "affine", "alpha": 0.5, "z": [1.0, 2.0]}, {},
                      "fpcert.cli.estimate_mu", "n_pairs", 2000000000),
    "solve-picard-dim": ("solve", {"type": "soft_threshold"}, {}, "fpcert.cli.picard",
                         "dim", 20000000),
    "rates-picard-dim": ("rates", {"type": "identity"}, {}, "fpcert.cli.picard",
                         "dim", 20000000),
}


def _oversized_run(tmp_path, case, size):
    """The command and run config of ``case`` with its field set to ``size``,
    the callee that allocates, and the field."""
    command, operator, run, callee, field, _ = OVERSIZED[case]
    if field == "dim":
        operator = {**operator, "dim": size}
    elif field == "n_pairs":
        run = {**run, "params": {"n_pairs": size}}
    else:
        run = {**run, field: size}
    if operator is not None:
        write_config(tmp_path / "op.json", operator)
        run = {"operator": "op.json", **run}
    return command, write_config(tmp_path / "run.json", run), callee, field


class TestOversizedInputs:
    @pytest.mark.parametrize("case", OVERSIZED)
    def test_memory_error_is_a_usage_error_naming_the_size(self, tmp_path, capsys,
                                                           monkeypatch, case):
        # a small size: the callee raises as an oversized one would
        command, cfg, callee, field = _oversized_run(tmp_path, case, 3)
        monkeypatch.setattr(callee, _out_of_memory)
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "out")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"fpcert: error: field '{field}': 3 is too large")
        assert "memory" in err
        # a usage error writes no product file
        assert not (tmp_path / "out").exists()

    # rates-n-pairs runs its trace before the sampling that does not fit
    @pytest.mark.parametrize("case", ["region-resolution", "soft-threshold-dim",
                                      "solve-picard-dim", "rates-n-pairs"])
    def test_oversized_run_exits_one_under_an_address_space_limit(self, tmp_path, case):
        # the limit makes the allocation fail at once, so nothing is allocated
        resource = pytest.importorskip("resource")
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        limit = 4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard)
        command, cfg, _, field = _oversized_run(tmp_path, case, OVERSIZED[case][-1])
        code, _, err = run_child([command, "--config", cfg,
                                  "--out", str(tmp_path / "out")], address_space=limit)
        assert code == EXIT_USAGE, err
        assert err.startswith(f"fpcert: error: field '{field}':")
        assert "Traceback" not in err
        # a usage error writes no product file
        assert not (tmp_path / "out").exists()


class TestProblemConfig:
    def test_least_squares_with_matrix_files(self, tmp_path):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((6, 3))
        b = rng.standard_normal(6)
        write_matrix(tmp_path / "A.txt", a)
        write_matrix(tmp_path / "b.txt", b.reshape(-1, 1))
        config = write_config(tmp_path / "problem.json",
                              {"kind": "least_squares", "A": "A.txt", "b": "b.txt"})
        p = load_problem_config(config)
        assert p.kind == "least_squares"
        assert p.dims == (3, 0)

    def test_separable_inline(self, tmp_path):
        config = write_config(tmp_path / "problem.json", {
            "kind": "separable_smooth_l1",
            "coeffs": [1.0, 2.0], "b": [5.0, -1.0], "lambda": 1.0,
        })
        p = load_problem_config(config)
        np.testing.assert_allclose(p.exact_solution, [4.0, -0.5])

    def test_analysis_inline(self, tmp_path):
        config = write_config(tmp_path / "problem.json", {
            "kind": "analysis_l1",
            "A": [[1.0, 0.0], [0.0, 1.0]],
            "b": [1.0, 2.0],
            "B": [[1.0, -1.0]],
            "lambda": 0.3,
        })
        p = load_problem_config(config)
        assert p.dims == (2, 1)

    def test_unknown_kind_rejected(self, tmp_path):
        config = write_config(tmp_path / "problem.json", {"kind": "quadratic"})
        with pytest.raises(UsageError, match="field 'kind'"):
            load_problem_config(config)

    def test_negative_matrix_header_named(self, tmp_path):
        (tmp_path / "A.txt").write_text("-2 -2\n1 0 0 1\n")
        config = write_config(tmp_path / "problem.json",
                              {"kind": "least_squares", "A": "A.txt", "b": [1.0, 1.0]})
        with pytest.raises(UsageError, match="field 'A': rows in the header of matrix"):
            load_problem_config(config)

    def test_missing_field_named(self, tmp_path):
        config = write_config(tmp_path / "problem.json",
                              {"kind": "least_squares", "A": [[1.0]]})
        with pytest.raises(UsageError, match="field 'b'"):
            load_problem_config(config)


class TestScalarOverrides:
    @pytest.mark.parametrize("name", SCALAR_PARAMS)
    def test_every_scalar_param_rejects_a_bad_value(self, tmp_path, capsys, name):
        # -1 is below every param's bound; params with a help text have a flag
        write_config(tmp_path / "op.json", {"type": "identity", "dim": 1})
        runs = [(write_config(tmp_path / "bad.json",
                              {"operator": "op.json", "params": {name: -1}}), [])]
        if SCALAR_PARAMS[name][3] is not None:
            flag = "--" + name.replace("_", "-")
            runs.append((write_config(tmp_path / "run.json", {"operator": "op.json"}),
                         [flag, "-1"]))
        for cfg, args in runs:
            assert main(["certify", "--config", cfg,
                         "--out", str(tmp_path / "out"), *args]) == EXIT_USAGE
            assert f"field '{name}'" in capsys.readouterr().err
            assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("command, base", [
        ("certify", {"gamma": 1.0, "mu": 0.5, "n_pairs": 20, "seed": 3, "tol": 1e-10}),
        ("solve", {"max_iter": 500, "tol": 1e-10}),
        ("rates", {"gamma": 2.0, "n_pairs": 20, "seed": 3, "max_iter": 500,
                   "tol": 1e-10}),
        ("region", {"gamma": 2.0, "mu": 1.0}),
    ])
    def test_a_null_param_keeps_its_default(self, tmp_path, command, base):
        write_config(tmp_path / "op.json", {"type": "affine", "alpha": 0.5,
                                            "z": [1.0, -2.0]})
        target = ({"x": [1.0, 0.5], "xhat": [0.0, 0.0], "resolution": 11}
                  if command == "region" else {"operator": "op.json"})

        def run(name, payload):
            cfg = write_config(tmp_path / f"{name}.json", payload)
            out = tmp_path / name
            code = main([command, "--config", cfg, "--out", str(out)])
            files = sorted(out.iterdir()) if out.exists() else []
            return code, {path.name: path.read_bytes() for path in files}

        for key in SCALAR_PARAMS:
            left_out = {k: v for k, v in base.items() if k != key}
            assert run(f"null_{key}", {**target, "params": {**left_out, key: None}}) == \
                run(f"without_{key}", {**target, "params": left_out}), key
        # top-level fields, each set away from its default in the full config
        full = {**target, "params": base, "property": "nonexpansive", "norm": "l1",
                "model": "polynomial", "resolution": 5, "x0": [1.0, 1.0],
                "radius_scales": [0.5, 2.0]}
        for key in ("property", "norm", "model", "resolution", "x0", "radius_scales"):
            left_out = {k: v for k, v in full.items() if k != key}
            assert run(f"null_{key}", {**left_out, key: None}) == \
                run(f"without_{key}", left_out), key

    def test_lambda_override_changes_the_solution(self, tmp_path):
        write_config(tmp_path / "problem.json", {
            "kind": "separable_smooth_l1",
            "coeffs": [1.0], "b": [5.0], "lambda": 1.0,
        })
        cfg = write_config(tmp_path / "run.json", {
            "problem": "problem.json",
            "params": {"tol": 1e-12, "max_iter": 10_000},
        })
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["solve", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["solve", "--config", cfg, "--out", str(out2),
                     "--lambda", "2.0"]) == EXIT_OK
        # a larger threshold moves the minimizer, so the traces must differ
        assert (out1 / "trace.csv").read_text() != (out2 / "trace.csv").read_text()


def _reject_constant(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


# entries of every size a config may carry: zero, moderate, and finite
# magnitudes up to 1e300, where squares and norms overflow
ENTRIES = st.one_of(st.just(0.0), st.floats(-10.0, 10.0),
                    st.floats(-1e300, 1e300))
POSITIVE = st.one_of(st.floats(1e-3, 10.0), st.floats(1e-300, 1e300))


@st.composite
def generated_runs(draw):
    """A command and the JSON files of its run, keyed by file name."""

    def vector(size):
        return draw(st.lists(ENTRIES, min_size=size, max_size=size))

    def matrix(rows, cols):
        if draw(st.booleans()):
            return [[0.0] * cols for _ in range(rows)]
        return [vector(cols) for _ in range(rows)]

    command = draw(st.sampled_from(["solve", "rates", "certify", "region"]))
    dim = draw(st.integers(1, 12))
    lam = draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.floats(0.0, 1e300)))
    files = {}
    run = {
        "norm": draw(st.sampled_from(["l2", "l1", "w"])),
        "property": draw(st.sampled_from(
            ["gan", "nonexpansive", "contractive", "fp_contractive",
             "holder_regular"])),
        "params": {
            "max_iter": draw(st.integers(1, 500)),
            "n_pairs": draw(st.integers(1, 20)),
            "seed": draw(st.integers(0, 3)),
            "gamma": draw(st.floats(0.1, 4.0)),
        },
    }
    for key in ("mu", "rho", "beta", "eta", "tol"):
        if draw(st.booleans()):
            run["params"][key] = draw(POSITIVE)
    target = draw(st.sampled_from(
        ["soft_threshold", "block_soft_threshold", "identity", "affine",
         "least_squares", "separable_smooth_l1", "analysis_l1"]))
    if target in ("least_squares", "separable_smooth_l1", "analysis_l1"):
        rows = draw(st.integers(1, 12))
        problem = {"kind": target, "lambda": lam, "b": vector(rows)}
        if target == "separable_smooth_l1":
            problem["b"] = vector(dim)
            problem["coeffs"] = draw(st.lists(POSITIVE, min_size=dim, max_size=dim))
        else:
            problem["A"] = matrix(rows, dim)
        if target == "analysis_l1":
            problem["B"] = matrix(draw(st.integers(1, 4)), dim)
        files["problem.json"] = problem
        run["problem"] = "problem.json"
        size = dim + (len(problem["B"]) if target == "analysis_l1" else 0)
    else:
        operator = {"type": target, "dim": dim, "lambda": lam}
        if target == "affine":
            operator = {"type": target, "alpha": draw(ENTRIES), "z": vector(dim)}
        files["op.json"] = operator
        run["operator"] = "op.json"
        size = dim
    if draw(st.booleans()):
        run["x0"] = vector(size)
    if command == "region":
        run = {"x": vector(2), "xhat": vector(2),
               "resolution": draw(st.integers(2, 20)), "params": run["params"]}
    files["run.json"] = run
    return command, files


class TestGeneratedConfigs:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(generated_runs())
    def test_every_run_ends_in_a_documented_exit(self, generated):
        # any config ends in exit 0, 1 or 2 with strict-JSON outputs, never
        # in an exception escaping main
        command, files = generated
        with tempfile.TemporaryDirectory() as tmp:
            for name, payload in files.items():
                write_config(os.path.join(tmp, name), payload)
            out = os.path.join(tmp, "out")
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main([command, "--config", os.path.join(tmp, "run.json"),
                             "--out", out])
            assert code in (EXIT_OK, EXIT_USAGE, EXIT_FAIL)
            assert "Traceback" not in stderr.getvalue()
            for name in os.listdir(out) if os.path.isdir(out) else []:
                if name.endswith(".json"):
                    with open(os.path.join(out, name), encoding="utf-8") as handle:
                        json.loads(handle.read(), parse_constant=_reject_constant)
