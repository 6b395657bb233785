"""Reference measurements: the raw-numpy Picard loop and the baseline record.

    python3 bench/reference.py [--out FILE]

prints (and with --out writes) one JSON record that reproduces the baseline
table of ROADMAP.md: `certify` on the default plan, `picard` at 5000 steps
against a raw loop of ``op.fn`` plus ``np.linalg.norm``, `estimate_min_gamma`
on a 100-pair plan, and the wall time of `python -m fpcert.cli region` as a
subprocess.  All on a seeded 30x10 least-squares gradient step, one BLAS
thread, each timed REPEATS times.  `picard_instance` and `raw_loop_seconds`
are also the reference behind the traced run's iterate.overhead_ratio.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import statistics
import sys
from time import perf_counter

import numpy as np

PICARD_STEPS = 5000
REPEATS = 7
# Host-speed calibration: the time `calibrate` took on the host this was
# written on while that host ran at full speed.  Timed metrics are scaled by
# CALIBRATION_REF_S over the calibration measured next to them.
CALIBRATION_REF_S = 4.0e-3
_CAL_RNG = np.random.default_rng(0)
_CAL_X = _CAL_RNG.standard_normal((300, 10))
_CAL_Y = _CAL_RNG.standard_normal((300, 10))
_CAL_A = _CAL_RNG.standard_normal((20, 10))


def least_squares_operator(fp, seed=0):
    """Gradient step on a seeded 30x10 least-squares problem, beta = 1/L.

    The Gram matrix has condition number 1e4, so 5000 steps run without
    reaching the fixed point.
    """
    from api_workloads import design
    rng = np.random.default_rng(seed)
    a = design(rng, 30, 10, 1e4)
    b = rng.standard_normal(30)
    return fp.build_operator(fp.least_squares_problem(a, b))


def picard_instance(fp):
    op = least_squares_operator(fp)
    return op, np.zeros(op.dim), PICARD_STEPS


def raw_loop_seconds(fn, x0, steps):
    """Time `steps` applications of fn with one residual norm each."""
    x = x0.copy()
    t0 = perf_counter()
    for _ in range(steps):
        x_next = fn(x)
        np.linalg.norm(x_next - x)
        x = x_next
    return perf_counter() - t0


def calibrate(repeats=3):
    """Fastest of `repeats` runs of a fixed kernel shaped like fpcert's work.

    Per-pair shrinkage, a small matrix-vector product and three norms, in a
    Python loop, on fixed data; it calls no fpcert code, so no change to
    fpcert moves it, while a slower host slows it as it slows the claims.
    """
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        for x, y in zip(_CAL_X, _CAL_Y):
            tx = np.sign(x) * np.maximum(np.abs(x) - 1.0, 0.0)
            ty = y - 0.1 * (_CAL_A.T @ (_CAL_A @ y))
            float(np.linalg.norm(x - y))
            float(np.linalg.norm(tx - ty))
            float(np.sum(np.abs(x - tx)))
        best = min(best, perf_counter() - t0)
    return best


def summary(times):
    q1, _, q3 = statistics.quantiles(times, n=4)
    return {"median_s": statistics.median(times), "min_s": min(times),
            "iqr_s": q3 - q1, "repeats": len(times)}


def timed(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return summary(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    import run
    fp = run.import_fpcert()
    op, x0, steps = picard_instance(fp)
    records = [
        {"layer": "algorithm", "name": "certify gan, default plan",
         "size": {"n": op.dim, "pairs": 1100},
         **timed(lambda: fp.certify(op, "gan", {"gamma": 2.0, "mu": 1.0}), REPEATS)},
        {"layer": "algorithm", "name": "picard",
         "size": {"n": op.dim, "steps": steps},
         **timed(lambda: fp.picard(op, x0, steps), REPEATS)},
        {"layer": "kernel", "name": "raw loop of op.fn plus np.linalg.norm",
         "size": {"n": op.dim, "steps": steps},
         **summary([raw_loop_seconds(op.fn, x0, steps) for _ in range(REPEATS)])},
        {"layer": "algorithm", "name": "estimate_min_gamma, 100-pair plan",
         "size": {"n": op.dim, "pairs": 440},
         **timed(lambda: fp.estimate_min_gamma(op, 1.0, plan=fp.SamplingPlan(n_pairs=100)),
                 REPEATS)},
    ]
    records[1]["overhead_ratio"] = records[1]["median_s"] / records[2]["median_s"]
    workdir = run.ROOT / ".bench_work" / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        process = [run.process_seconds(i, str(workdir)) for i in range(REPEATS)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    records.append({"layer": "command", "name": "python -m fpcert.cli region (subprocess)",
                    "size": {"resolution": 301}, **summary(process)})
    payload = {"env": {"python": platform.python_version(), "numpy": np.__version__,
                       "nproc": os.cpu_count(), "machine": platform.machine(),
                       "platform": platform.platform()},
               "records": records}
    text = json.dumps(payload, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
