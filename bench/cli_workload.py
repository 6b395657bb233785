"""cli-trajectory: `fpcert.cli.main` over generated run, problem and matrix files.

Each cycle of 40 claims holds 15 `solve` and 15 `rates` runs over all three
problem kinds, 4 `certify` runs of a primal-dual problem in the `w` norm and 4
`region` grids.  Design conditioning is spread so that traces run from about
1e2 to 5e4 steps, skewed towards short ones, and grids from 201 to 401 cells
a side.  Two claims per cycle are the paper's step-size boundary scenario:
`rates` with an over-long `--beta` on least squares, and `rates` on an
expansive affine map.  Both must end in exit 2; at the time this benchmark
was written they end in a traceback and count as failed claims.

Inputs of cycle c are written from (seed, c) before the cycle starts; the
files of cycle 0 are part of set-up.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil

import numpy as np

import oracle
from api_workloads import Claim, design

# Each cycle holds the same claim shapes -- command, problem kind and size,
# target trace length, grid resolution -- drawn once from a constant
# generator; --seed changes the data and the order.  This keeps the cost of
# a cycle, and so the run-to-run spread, small.
N_TRAJECTORY = 30
MIN_STEPS, MAX_STEPS = 1e2, 5e4
PD_MAX_KAPPA = 60.0
# Claims re-run every cycle whose output bytes must not change.
RERUN = {("certify", "pd"), ("region", None), ("solve", "sep"), ("rates", "ls")}
# The product files a re-run must reproduce byte for byte.
PRODUCT_FILES = ("certificate.json", "trace.csv", "summary.json", "checks.json",
                 "rate_fit.json", "region.csv")
# k_final of each trajectory shape.  The data of a shape are seeded
# rotations, permutations and sign flips of fixed spectra (see _problem), so
# the count is the same for every seed; a picard that stops early or late
# misses it by more than K_FINAL_BAND.
K_FINAL = (247, 83, 87, 930, 97, 102, 312, 108, 138, 499, 182, 211, 340, 301, 363,
           595, 562, 711, 1252, 1190, 1547, 747, 2794, 3818, 1286, 7530, 10631, 1131,
           22483, 33355)
K_FINAL_BAND = 0.02
RES_TOL = 1e-10  # the CLI's default residual tolerance


def _steps_target(u):
    """Quadratic in log-steps, so few traces are long."""
    return MIN_STEPS * (MAX_STEPS / MIN_STEPS) ** (u * u)


def _shapes():
    grid = np.random.default_rng(0)
    shapes = []
    for r in range(N_TRAJECTORY):
        kind = ("pd", "sep", "ls")[r % 3]
        n = int(grid.integers(5, 51)) if kind == "ls" else (
            int(grid.integers(10, 201)) if kind == "sep" else int(grid.integers(5, 31)))
        m = 0 if kind == "sep" else int(grid.integers(n + 5, 201 if kind == "ls" else 101))
        shapes.append({"command": ("solve", "rates")[(r // 3) % 2], "kind": kind,
                       "steps": _steps_target(r / (N_TRAJECTORY - 1)), "n": n, "m": m,
                       "p": int(grid.integers(3, n + 1)) if kind == "pd" else 0,
                       "lam": float(grid.uniform(0.05, 0.5)),
                       "x0": r % 2 == 1 and kind != "pd", "k_final": K_FINAL[r]})
    for r, pairs in enumerate((60, 125, 60, 125)):
        shapes.append({"command": "certify", "kind": "pd", "steps": 200.0, "n": 8,
                       "m": 20, "p": 5, "pairs": pairs, "contractive": r % 2 == 0})
    for resolution, gamma, mu in ((201, 1.0, 0.5), (268, 2.0, 1.0), (334, 3.0, 2.0),
                                  (401, 2.0, 0.5)):
        shapes.append({"command": "region", "kind": None, "resolution": resolution,
                       "gamma": gamma, "mu": mu})
    shapes.append({"command": "boundary", "kind": "beta"})
    shapes.append({"command": "boundary", "kind": "affine"})
    for index, shape in enumerate(shapes):
        shape["fixed_seed"] = index
    return tuple(shapes)


SHAPES = _shapes()


def write_matrix(path, m):
    m = np.atleast_2d(np.asarray(m, dtype=float))
    lines = [f"{m.shape[0]} {m.shape[1]}"]
    lines += [" ".join(format(v, ".17g") for v in row) for row in m]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def _problem(rng, shape, tag, cycle_dir):
    """Write a problem config whose trace runs for about shape["steps"] steps.

    Returns the config name, the oracle's truth and the start point (None
    for the zero default).  The data are random rotations, permutations and
    sign flips of fixed spectra, minimizers and start points, so a shape's
    trace has the same length for every seed.
    """
    kind, n, m = shape["kind"], shape["n"], shape["m"]
    kappa = max(4.0, shape["steps"] / 23.0)
    x0 = None
    if kind == "ls":
        u, _ = np.linalg.qr(rng.standard_normal((m, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        s = np.geomspace(1.0, kappa**-0.5, n) * rng.uniform(0.5, 2.0)
        a = (u * s) @ v.T
        solution = v @ np.ones(n)
        off_range = rng.standard_normal(m)
        off_range -= u @ (u.T @ off_range)
        b = u @ s + off_range
        if shape["x0"]:
            x0 = v @ np.where(np.arange(n) % 2 == 0, 2.0, -2.0)
        write_matrix(os.path.join(cycle_dir, f"{tag}_A.txt"), a)
        write_matrix(os.path.join(cycle_dir, f"{tag}_b.txt"), b[:, None])
        config = {"kind": "least_squares", "A": f"{tag}_A.txt", "b": f"{tag}_b.txt"}
        low, high = np.linalg.eigvalsh(a.T @ a)[[0, -1]]
        truth = {"lipschitz": float(high), "cond": float(high / low), "a": a, "b": b,
                 "solution": np.linalg.lstsq(a, b, rcond=None)[0]}
    elif kind == "sep":
        lam = shape["lam"]
        coeffs = np.geomspace(1.0, 1.0 / kappa, n)
        # Four in five minimizers are nonzero, so slow coordinates do not
        # settle early; the rest sit inside the threshold.
        size = np.where(np.arange(n) % 5 != 0, lam / coeffs + 1.0, 0.5 * lam / coeffs)
        order = rng.permutation(n)
        signs = rng.choice((-1.0, 1.0), n)
        coeffs, b = coeffs[order], signs * size[order]
        if shape["x0"]:
            x0 = signs * 2.0
        write_matrix(os.path.join(cycle_dir, f"{tag}_c.txt"), coeffs[:, None])
        config = {"kind": "separable_smooth_l1", "coeffs": f"{tag}_c.txt",
                  "b": b.tolist(), "lambda": lam}
        truth = {"lipschitz": float(np.max(coeffs)), "cond": kappa, "coeffs": coeffs,
                 "b": b, "lam": lam,
                 "solution": np.sign(b) * np.maximum(np.abs(b) - lam / coeffs, 0.0)}
    else:
        # A^T A, A^T b and the rows of B up to order and sign are fixed per
        # shape; the l1 prox commutes with row permutations and sign flips,
        # so the trace length does not depend on the seed either.
        fixed = np.random.default_rng([0, shape["fixed_seed"]])
        p = shape["p"]
        v, _ = np.linalg.qr(fixed.standard_normal((n, n)))
        # The dual coupling speeds the primal-dual map up relative to kappa.
        s = np.geomspace(1.0, (4.0 * min(kappa, PD_MAX_KAPPA)) ** -0.5, n)
        coords = fixed.standard_normal(n)
        b_rows = fixed.standard_normal((p, n)) / np.sqrt(n)
        lam = float(fixed.uniform(0.05, 0.3))
        u, _ = np.linalg.qr(rng.standard_normal((m, n)))
        a = (u * s) @ v.T
        off_range = rng.standard_normal(m)
        off_range -= u @ (u.T @ off_range)
        b = u @ (s * coords) + off_range
        bm = rng.choice((-1.0, 1.0), p)[:, None] * b_rows[rng.permutation(p)]
        write_matrix(os.path.join(cycle_dir, f"{tag}_A.txt"), a)
        write_matrix(os.path.join(cycle_dir, f"{tag}_b.txt"), b[:, None])
        write_matrix(os.path.join(cycle_dir, f"{tag}_B.txt"), bm)
        config = {"kind": "analysis_l1", "A": f"{tag}_A.txt", "b": f"{tag}_b.txt",
                  "B": f"{tag}_B.txt", "lambda": lam}
        beta, eta = oracle.primal_dual_steps(a, bm)
        truth = {"beta": beta, "eta": eta, "a": a, "b": b, "bm": bm, "lam": lam}
    write_json(os.path.join(cycle_dir, f"{tag}_problem.json"), config)
    truth["dim"] = n + shape["p"]
    return f"{tag}_problem.json", truth, x0


def generate(seed, index, cycle_dir):
    """Write one cycle's files; returns the claim descriptions in run order."""
    rng = np.random.default_rng([seed, 2, index])
    os.makedirs(cycle_dir, exist_ok=True)
    claims = []
    for pos, i in enumerate(rng.permutation(len(SHAPES))):
        shape = SHAPES[i]
        command, kind = shape["command"], shape["kind"]
        tag = f"p{pos:02d}"
        run = {}
        desc = {"command": command, "kind": kind, "tag": tag, "args": [], "slot": int(i),
                "k_final": shape.get("k_final"), "expected": 0,
                "rerun": (command, kind) in RERUN
                and all((c["command"], c["kind"]) != (command, kind) for c in claims)}
        if command in ("solve", "rates"):
            run["problem"], desc["truth"], x0 = _problem(rng, shape, tag, cycle_dir)
            if x0 is not None:
                run["x0"] = x0.tolist()
        elif command == "certify":
            run["problem"], desc["truth"], _ = _problem(rng, shape, tag, cycle_dir)
            run["property"] = "contractive" if shape["contractive"] else "nonexpansive"
            run["norm"] = "w"
            run["params"] = {"beta": desc["truth"]["beta"], "eta": desc["truth"]["eta"],
                             "n_pairs": shape["pairs"], "seed": int(rng.integers(2**31))}
            if shape["contractive"]:
                run["params"]["rho"] = 0.2
                desc["expected"] = 2
        elif command == "region":
            run["x"] = rng.uniform(-3.0, 3.0, 2).tolist()
            run["xhat"] = rng.uniform(-3.0, 3.0, 2).tolist()
            run["params"] = {"gamma": shape["gamma"], "mu": shape["mu"]}
            run["resolution"] = shape["resolution"]
        elif kind == "beta":
            a = design(rng, 3, 2, 4.0)
            b = rng.standard_normal(3)
            write_matrix(os.path.join(cycle_dir, f"{tag}_A.txt"), a)
            write_matrix(os.path.join(cycle_dir, f"{tag}_b.txt"), b[:, None])
            write_json(os.path.join(cycle_dir, f"{tag}_problem.json"),
                       {"kind": "least_squares", "A": f"{tag}_A.txt", "b": f"{tag}_b.txt"})
            run["problem"] = f"{tag}_problem.json"
            desc["args"] = ["--beta", repr(2.5 / oracle.lipschitz(a))]
            desc["expected"] = 2
        else:
            write_json(os.path.join(cycle_dir, f"{tag}_op.json"),
                       {"type": "affine", "alpha": 1.5,
                        "z": rng.standard_normal(3).tolist()})
            run["operator"] = f"{tag}_op.json"
            desc["expected"] = 2
        write_json(os.path.join(cycle_dir, f"{tag}_run.json"), run)
        desc["run"] = run
        claims.append(desc)
    return claims


def _read_trace(path):
    """Header fields, data-row count, and the k = 0, k = 1 and last data rows."""
    with open(path, "rb") as handle:
        head, _, body = handle.read().partition(b"k,residual,error_to_ref\n")
    header = {}
    for line in head.decode().splitlines():
        key, _, value = line[2:].partition(": ")
        header[key] = value
    rows = body.split(b"\n", 2)[:2] + body.rsplit(b"\n", 2)[-2:-1]
    return header, body.count(b"\n"), [row.decode().split(",") for row in rows]


def _check_steps(desc, step_params):
    truth = desc["truth"]
    if desc["kind"] == "pd":
        pairs = (("beta", truth["beta"]), ("eta", truth["eta"]))
    else:
        pairs = (("beta", 1.0 / truth["lipschitz"]),)
    for key, want in pairs:
        if not oracle.rel_close(float(step_params[key]), want, oracle.SPECTRAL_RTOL):
            return f"{key} {step_params[key]} vs oracle {want!r}"
    return None


def _oracle_spec(desc, params):
    """The oracle's operator for a trajectory claim, at the trace's step sizes."""
    truth, beta = desc["truth"], float(params["beta"])
    if desc["kind"] == "ls":
        return ("grad", truth["a"], truth["b"], beta)
    if desc["kind"] == "sep":
        return ("sep", truth["coeffs"], truth["b"], beta, truth["lam"])
    return ("pd", truth["a"], truth["b"], truth["bm"], truth["lam"], beta,
            float(params["eta"]))


def _check_trace(desc, out):
    """Step sizes, length, first step and final rows of a trace against oracles.

    The k = 1 residual |T x0 - x0| comes from the oracle's operator; the last
    residual must meet the tolerance; on the problems with a known solution
    the first error must match it, and the last error must be within
    cond * residual of it, as for any (1 - 1/cond)-contraction.
    """
    header, rows, (first, second, last) = _read_trace(os.path.join(out, "trace.csv"))
    params = dict(item.split("=") for item in header["params"].split(", "))
    problem = _check_steps(desc, params)
    if problem:
        return problem, header
    k_final = int(header["k_final"])
    if k_final + 1 != rows:
        return f"trace has {rows} rows for k_final {k_final}", header
    want = desc["k_final"]
    if abs(k_final - want) > K_FINAL_BAND * want:
        return f"k_final {k_final}, expected {want}", header
    spec = _oracle_spec(desc, params)
    x0 = np.asarray(desc["run"].get("x0", np.zeros(desc["truth"]["dim"])), dtype=float)
    step = float(np.linalg.norm(oracle.apply(spec, x0[None, :])[0] - x0))
    if not oracle.rel_close(float(second[1]), step, oracle.RTOL):
        return f"residual[1] {second[1]} vs oracle {step!r}", header
    if float(last[1]) > RES_TOL:
        return f"final residual {last[1]} above {RES_TOL}", header
    solution = desc["truth"].get("solution")
    if solution is not None:
        start = float(np.linalg.norm(x0 - solution))
        if not oracle.rel_close(float(first[2]), start, oracle.RTOL):
            return f"error_to_ref[0] {first[2]} vs lstsq/closed form {start!r}", header
        bound = desc["truth"]["cond"] * float(last[1]) * (1 + 1e-3) + 1e-12 * (1 + start)
        if float(last[2]) > bound:
            return f"final error_to_ref {last[2]} above cond * residual {bound!r}", header
    return None, header


def _check_certificate(desc, out):
    cert = json.loads(open(os.path.join(out, "certificate.json"), encoding="utf-8").read())
    truth, run = desc["truth"], desc["run"]
    expected = "FAIL" if desc["expected"] == 2 else "PASS"
    if cert["verdict"] != expected:
        return f"verdict {cert['verdict']}, expected {expected}"
    spec = ("pd", truth["a"], truth["b"], truth["bm"], truth["lam"],
            truth["beta"], truth["eta"])
    weight = oracle.primal_dual_weight(truth["a"], truth["bm"], truth["beta"], truth["eta"])
    # The problem has no known solution, so the plan has no hint.
    xs, ys = oracle.sample_pairs(run["params"]["seed"], run["params"]["n_pairs"],
                                 oracle.DEFAULT_SCALES, truth["dim"])
    prop = run["property"]
    params = {"rho": run["params"].get("rho")}
    slack, scale = oracle.slacks(spec, prop, params, xs, ys, "w", weight)
    worst = int(np.argmin(slack))
    if cert["n_checked"] != slack.size:
        return f"n_checked {cert['n_checked']}, oracle {slack.size}"
    if not oracle.close(cert["min_slack"], slack[worst], scale[worst]):
        return f"min_slack {cert['min_slack']!r}, oracle {slack[worst]!r}"
    if expected == "FAIL":
        wx = np.atleast_2d(cert["witness_x"])
        wy = np.atleast_2d(cert["witness_y"])
        w_slack, w_scale = oracle.slacks(spec, prop, params, wx, wy, "w", weight)
        if not oracle.close(w_slack[0], cert["min_slack"], w_scale[0]):
            return f"witness slack {w_slack[0]!r} vs {cert['min_slack']!r}"
    return None


def _check_region(desc, out):
    with open(os.path.join(out, "region.csv"), encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    header = {}
    for line in lines:
        if line.startswith("# ") and ": " in line:
            key, _, value = line[2:].partition(": ")
            header[key] = value
    grid = np.array([[c == "1" for c in line.split(",")] for line in lines
                     if not line.startswith("#")])
    run = desc["run"]
    res = run["resolution"]
    if grid.shape != (res, res):
        return f"grid shape {grid.shape}, expected {res}x{res}"
    bounds = [float(v) for v in header["bounds"].split()]
    want, near = oracle.region_mask(run["x"], run["xhat"], run["params"]["gamma"],
                                    run["params"]["mu"], bounds, res)
    wrong = int(np.sum((grid != want) & ~near))
    if wrong:
        return f"{wrong} region cells disagree with the oracle"
    return None


def check(desc, out, code):
    """None when the claim's outputs are right, else the reason."""
    if code != desc["expected"]:
        return f"exit {code}, expected {desc['expected']}"
    for name in os.listdir(out):
        if name.endswith(".json"):
            with open(os.path.join(out, name), encoding="utf-8") as handle:
                try:
                    json.loads(handle.read())
                except ValueError as err:
                    return f"{name} is not valid JSON: {err}"
    command = desc["command"]
    if command == "solve":
        problem, _ = _check_trace(desc, out)
        if problem:
            return problem
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as handle:
            summary = json.load(handle)
        if summary["stop_reason"] != "residual_tol":
            return f"stop reason {summary['stop_reason']}"
        return None
    if command == "rates":
        problem, header = _check_trace(desc, out)
        if problem:
            return problem
        with open(os.path.join(out, "checks.json"), encoding="utf-8") as handle:
            checks = json.load(handle)
        if header["stop_reason"] != "residual_tol":
            return f"stop reason {header['stop_reason']}"
        for key in ("little_o_proxy", "summability"):
            verdict = checks[key].get("verdict", "skipped")
            if verdict == "FAIL":
                return f"{key} verdict FAIL"
        return None
    if command == "certify":
        return _check_certificate(desc, out)
    if command == "region":
        return _check_region(desc, out)
    return None


def _outputs(out, names=None):
    """Bytes of the files in out, or of those of `names` that exist."""
    files = {}
    for name in sorted(os.listdir(out)):
        if names is None or name in names:
            with open(os.path.join(out, name), "rb") as handle:
                files[name] = handle.read()
    return files


class CliWorkload:
    """Set-up and claims of cli-trajectory; inputs are files under workdir."""

    def setup(self, fp, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.cycles = {0: generate(seed, 0, os.path.join(workdir, "in"))}
        return {"setup_errors": []}

    def fingerprint(self, state, index):
        cycle_dir = os.path.join(self.workdir, "fingerprint")
        generate(self.seed, index, cycle_dir)
        blob = b"".join(_outputs(cycle_dir).values())
        shutil.rmtree(cycle_dir)
        return blob

    def cycle(self, state, index):
        cycle_dir = os.path.join(self.workdir, "in")
        shutil.rmtree(os.path.join(self.workdir, "out"), ignore_errors=True)
        descs = self.cycles.pop(index, None)
        if descs is None:
            shutil.rmtree(cycle_dir)
            descs = generate(self.seed, index, cycle_dir)
        return [self._claim(desc, cycle_dir, f"{index}-{pos}")
                for pos, desc in enumerate(descs)]

    def _claim(self, desc, cycle_dir, key):
        command = "rates" if desc["command"] == "boundary" else desc["command"]
        config = os.path.join(cycle_dir, f"{desc['tag']}_run.json")
        out = os.path.join(self.workdir, "out", key)
        argv = [command, "--config", config, "--out", out] + desc["args"]
        cli = importlib.import_module("fpcert.cli")

        def run():
            return cli.main(argv)

        def verify(code):
            try:
                problem = check(desc, out, code)
                if problem is None and desc["rerun"]:
                    again = out + "-again"
                    cli.main(argv[:4] + [again] + argv[5:])
                    if _outputs(again, PRODUCT_FILES) != _outputs(out, PRODUCT_FILES):
                        problem = "re-run output bytes differ"
                return problem
            finally:
                shutil.rmtree(out, ignore_errors=True)
                shutil.rmtree(out + "-again", ignore_errors=True)

        return Claim(desc["command"], run, verify, desc["slot"], command=command,
                     boundary=desc["command"] == "boundary")


WORKLOADS = {"cli-trajectory": CliWorkload}
