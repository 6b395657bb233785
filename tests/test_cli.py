import json
import os

import numpy as np
import pytest

from fpcert.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from fpcert.metrics import write_matrix
from fpcert.operators import prox_operator, l1_prox
from fpcert.certify import gan_slack


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
        cfg = write_config(tmp_path / "run.json", {
            "operator": "op.json", "x0": [9.0],
            "params": {"tol": 1e-12, "max_iter": 1000, "gamma": 2.0, "mu": 1.0},
        })
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["rates", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["rates", "--config", cfg, "--out", str(out2)]) == EXIT_OK
        for name in ("trace.csv", "rate_fit.json", "checks.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


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
        ]
        write_config(tmp_path / "op.json", {"type": "identity", "dim": 1})
        write_config(tmp_path / "negative.json",
                     {"type": "soft_threshold", "lambda": -1, "dim": 2})
        write_config(tmp_path / "list.json", [1, 2])
        write_config(tmp_path / "ls.json", {"kind": "least_squares",
                                            "A": [[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]],
                                            "b": [1.0, 2.0, 3.0]})
        for i, (command, payload, args, field_name) in enumerate(corpus):
            cfg = write_config(tmp_path / f"bad{i}.json", payload)
            assert main([command, "--config", cfg,
                         "--out", str(tmp_path / f"o{i}"), *args]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert f"'{field_name}" in err
            assert "Traceback" not in err

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


class TestScalarOverrides:
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
