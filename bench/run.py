"""Claim benchmark for fpcert.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (see BENCHMARK.json) as a closed loop with one client: a
single process, no threads, each claim starting after the previous one
returned.  Inputs are generated from --seed; fpcert only sees them.  Every
claim's result is checked against independent oracles (bench/oracle.py).

--trace 0 runs whole cycles of claims for --seconds (and at least
MIN_CYCLES cycles) and reports the end-to-end metrics.  Every cycle repeats
the same claim shapes with fresh data.  The host this was written on
changes speed by up to 2x within seconds, so a fixed kernel
(`reference.calibrate`) runs between claims and each claim's time is scaled
by CALIBRATION_REF_S over the calibration around it (`speed_scaled`); set-up
times likewise.  Throughput and percentiles are over the median scaled time
of each claim shape.  The record line gives the unscaled figures as well.

--trace 1 runs a fixed number of cycles untraced, then the same cycles with
every public fpcert function wrapped (bench/tracer.py), so its counts repeat
exactly, and reports the per-layer metrics, unscaled.  The last stdout line is the result object;
the line before it records the environment and every metric, failed_ratio
included.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, pinned before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(Path(__file__).resolve().parent))
import numpy as np  # noqa: E402  (after the thread pins)

import reference  # noqa: E402
from api_workloads import WORKLOADS as API  # noqa: E402
from cli_workload import WORKLOADS as CLI  # noqa: E402
from reference import CALIBRATION_REF_S, calibrate  # noqa: E402

MIN_CYCLES = 6
CALIBRATE_EVERY_S = 0.5
HARD_STOP_S = 140.0
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
TRACE_CYCLES = {"certify-sweep": 3, "gamma-bisect": 1, "cli-trajectory": 1}
REPLAY_STEPS = 60_000
PROCESS_RUNS = 3
# Times the imports of numpy and fpcert in a fresh interpreter, and the
# host-speed kernel in that same interpreter between the two.
IMPORT_PROBE = """\
import sys, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
from reference import calibrate
cal = calibrate()
t2 = time.perf_counter()
import fpcert
print(t1 - t0 + time.perf_counter() - t2, cal)
"""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_fpcert():
    sys.path.insert(0, str(SRC))
    import fpcert
    if Path(fpcert.__file__).resolve().parent != SRC / "fpcert":
        raise ImportError(f"fpcert imported from {fpcert.__file__}, not from {SRC}")
    return fpcert


def import_seconds():
    """Median time to import numpy and fpcert in a fresh interpreter, scaled
    and unscaled."""
    scaled, raw = [], []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(Path(__file__).parent)],
            env=child_env(), capture_output=True, text=True, check=True, timeout=60)
        seconds, cal = map(float, out.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * CALIBRATION_REF_S / cal)
    return statistics.median(scaled), statistics.median(raw)


def environment(args):
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.exists():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.exists() else ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "fpcert").glob("*.py")):
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "workload": args.workload, "seed": args.seed,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


class Loop:
    """Runs claims one after another and keeps latencies and failure counts.

    The host-speed kernel ``calibrate`` runs between claims at least every
    CALIBRATE_EVERY_S, so each claim can be scaled by the host speed around
    it (`speed_scaled`).
    """

    def __init__(self, calibrate, tracer=None):
        self.tracer = tracer
        self.calibrate = calibrate
        self.calibrations = []  # (claims before it, seconds)
        self._last_calibration = -float("inf")
        self.latencies = []
        self.slots = []
        self.failed = 0
        self.wrong = []
        self.commands = {}

    def mark(self):
        """Measure host speed now, before the next claim."""
        self.calibrations.append((len(self.latencies), self.calibrate()))
        self._last_calibration = time.perf_counter()

    def run(self, claims):
        for claim in claims:
            if time.perf_counter() - self._last_calibration >= CALIBRATE_EVERY_S:
                self.mark()
            claim_id = len(self.latencies)
            self.commands[claim_id] = claim.command
            if self.tracer:
                self.tracer.claim_id = claim_id
                self.tracer.enabled = True
            error = None
            t0 = time.perf_counter()
            try:
                result = claim.run()
            except Exception as err:  # a raising claim is a failed claim
                error = err
            elapsed = time.perf_counter() - t0
            if self.tracer:
                self.tracer.enabled = False
            self.latencies.append(elapsed)
            self.slots.append(claim.slot)
            if error is not None:
                self.failed += 1
                if not claim.boundary:
                    print(f"claim {claim_id} ({claim.kind}) raised {error!r}",
                          file=sys.stderr)
                continue
            problem = claim.check(result)
            if problem is not None:
                self.failed += 1
                self.wrong.append(f"claim {claim_id} ({claim.kind}): {problem}")


def timed_setup(workload, fp, seed, workdir, calibrate):
    """Median set-up time, each set-up scaled by the host speed next to it."""
    times, raw, state = [], [], None
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        t0 = time.perf_counter()
        state = workload.setup(fp, seed, workdir)
        elapsed = time.perf_counter() - t0
        raw.append(elapsed)
        times.append(elapsed * CALIBRATION_REF_S / (0.5 * (before + calibrate())))
    return statistics.median(times), statistics.median(raw), state


def speed_scaled(loop):
    """Each claim's latency times CALIBRATION_REF_S over the mean of the
    calibrations just before and just after it."""
    at = np.array([n for n, _ in loop.calibrations])
    cal = np.array([c for _, c in loop.calibrations])
    index = np.arange(len(loop.latencies))
    before = np.searchsorted(at, index, side="right") - 1
    after = np.minimum(before + 1, len(at) - 1)
    return np.array(loop.latencies) * CALIBRATION_REF_S / (0.5 * (cal[before] + cal[after]))


def shape_medians(latencies, slots):
    """Median latency of each claim shape over the cycles of the run."""
    slots = np.array(slots)
    return np.array([np.median(latencies[slots == s]) for s in np.unique(slots)])


def measure(args, workload, fp, workdir):
    setup_s, setup_raw_s, state = timed_setup(workload, fp, args.seed, workdir, calibrate)
    import_s, import_raw_s = import_seconds()
    setup_s += import_s
    loop = Loop(calibrate)
    start = time.perf_counter()
    index = 0
    while True:
        loop.run(workload.cycle(state, index))
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (elapsed >= args.seconds and index >= MIN_CYCLES):
            break
    loop.mark()
    scaled = shape_medians(speed_scaled(loop), loop.slots)
    lat = np.array(loop.latencies)
    raw = shape_medians(lat, loop.slots)
    cal = [c for _, c in loop.calibrations]
    metrics = {
        "claims_per_s": (len(scaled) / scaled.sum(), "1/s"),
        "claim_p50_ms": (float(np.percentile(scaled, 50)) * 1e3, "ms"),
        "claim_p90_ms": (float(np.percentile(scaled, 90)) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {"failed_ratio": (loop.failed / len(lat), "ratio"),
             "claims": (len(lat), "count"), "cycles": (index, "count"),
             "shapes": (len(raw), "count"),
             "host_speed": (CALIBRATION_REF_S / statistics.median(cal), "ratio"),
             "raw_claims_per_s": (len(raw) / raw.sum(), "1/s"),
             "raw_claim_p50_ms": (float(np.percentile(raw, 50)) * 1e3, "ms"),
             "raw_claim_p90_ms": (float(np.percentile(raw, 90)) * 1e3, "ms"),
             "raw_setup_s": (setup_raw_s + import_raw_s, "s"),
             "all_claims_per_s": (len(lat) / lat.sum(), "1/s"),
             "all_claim_p50_ms": (float(np.percentile(lat, 50)) * 1e3, "ms"),
             "all_claim_p90_ms": (float(np.percentile(lat, 90)) * 1e3, "ms")}
    return loop, state, metrics, extra


def replay_ratio(fp, calls):
    """picard time over a raw loop of op.fn plus np.linalg.norm, same steps."""
    if not calls:
        op, x0, steps = reference.picard_instance(fp)
        calls = [((op, x0, steps), {}, steps)]
    picard_s = raw_s = 0.0
    budget = REPLAY_STEPS
    for args, kwargs, steps in calls:
        if steps == 0 or budget <= 0:
            continue
        budget -= steps
        op, x0 = args[0], args[1]
        t0 = time.perf_counter()
        fp.picard(*args, **kwargs)
        picard_s += time.perf_counter() - t0
        raw_s += reference.raw_loop_seconds(op.fn, np.asarray(x0, dtype=float), steps)
    return picard_s / raw_s


def process_seconds(seed, workdir):
    """Median wall time of `python -m fpcert.cli region` as a subprocess."""
    rng = np.random.default_rng([seed, 3])
    config = os.path.join(workdir, "process_region.json")
    with open(config, "w", encoding="utf-8") as handle:
        json.dump({"x": rng.uniform(-3, 3, 2).tolist(), "xhat": [0.0, 0.0],
                   "params": {"gamma": 2.0, "mu": 1.0}, "resolution": 301}, handle)
    times = []
    for i in range(PROCESS_RUNS):
        cmd = [sys.executable, "-m", "fpcert.cli", "region", "--config", config,
               "--out", os.path.join(workdir, f"process_out{i}")]
        t0 = time.perf_counter()
        subprocess.run(cmd, env=child_env(), check=True, capture_output=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def traced(args, workload, fp, workdir):
    from tracer import Tracer, unit
    cycles = TRACE_CYCLES[args.workload]
    state = workload.setup(fp, args.seed, workdir)
    plain = Loop(calibrate)
    for index in range(cycles):
        plain.run(workload.cycle(state, index))
    plain.mark()
    tracer = Tracer()
    tracer.install()
    try:
        tracer.claim_id = -1
        tracer.enabled = True
        state = workload.setup(fp, args.seed, workdir)
        tracer.enabled = False
        loop = Loop(calibrate, tracer)
        for index in range(cycles):
            with tracer.paused():
                claims = workload.cycle(state, index)
            loop.run(claims)
        loop.mark()
    finally:
        tracer.enabled = False
        tracer.uninstall()
    loop.wrong[:0] = plain.wrong
    metrics = tracer.layer_metrics(loop.commands)
    metrics["iterate.overhead_ratio"] = replay_ratio(fp, tracer.picard_calls)
    metrics["cli.process_s"] = process_seconds(args.seed, workdir)
    metrics["trace.overhead_ratio"] = speed_scaled(loop).sum() / speed_scaled(plain).sum()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{args.workload}.npz")
    shaped = {k: (v, unit(k)) for k, v in metrics.items()}
    extra = {"failed_ratio": (loop.failed / len(loop.latencies), "ratio"),
             "claims": (len(loop.latencies), "count")}
    return loop, state, shaped, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    fp = import_fpcert()
    factories = {**API, **CLI}
    if args.workload not in factories:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(factories)}")
    workload = factories[args.workload]()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = traced if args.trace else measure
        loop, state, metrics, extra = run(args, workload, fp, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    wrong = state["setup_errors"] + loop.wrong
    for line in wrong[:20]:
        print(f"wrong result: {line}", file=sys.stderr)
    record = {"env": environment(args), "trace": args.trace,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in {**metrics, **extra}.items()}}
    print(json.dumps(record))
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(loop.latencies),
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
