import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
            ("solve", {"problem": "zero_a.json"}, [],
             "problem"),                               # L = 0 leaves no 1/L step
            ("solve", {"problem": "huge_ls.json"}, [],
             "problem"),                               # s_max^2 overflows
            ("solve", {"problem": "huge_a.json"}, [],
             "problem"),                               # |A|^2 overflows
            ("solve", {"problem": "huge_b.json"}, [],
             "problem"),                               # |B|^2 overflows
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
        for name, a_mat, b_mat in (("zero_a", [[0, 0], [0, 0]], [[1, 0]]),
                                   ("huge_a", [[1e200, 0], [0, 1]], [[1, 0]]),
                                   ("huge_b", [[1, 0], [0, 1]], [[1e200, 0]])):
            write_config(tmp_path / f"{name}.json", {
                "kind": "analysis_l1", "A": a_mat, "b": [1, 1], "B": b_mat})
        write_config(tmp_path / "far.json",
                     {"type": "affine", "alpha": 0.5, "z": [1e308, 1e308]})
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
