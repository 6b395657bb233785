"""Self-test of the benchmark at tiny size.

    python3 bench/selftest.py

For every workload it runs one cycle untraced and one traced (twice), and
checks that:
- the result line names exactly the metrics of BENCHMARK.json, each with its
  unit, and the record line carries failed_ratio and the environment;
- failed_ratio equals EXPECTED_FAILED_RATIO;
- two traced runs give identical counts;
- the inputs generated for one seed are byte-identical across two
  generations.
Exits 1 and names each problem if any check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

import run  # pins the BLAS threads before numpy loads

SEED = 7
# Failed claims over attempted claims at the time the benchmark was written:
# on cli-trajectory the two boundary-scenario claims of each 40-claim cycle
# end in a traceback.
EXPECTED_FAILED_RATIO = {"certify-sweep": 0.0, "gamma-bisect": 0.0,
                         "cli-trajectory": 2 / 40}
ENV_FIELDS = ("commit", "src_sha256", "python", "numpy", "nproc", "seed")


def invoke(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(SEED),
                         "--seconds", "0", "--trace", str(trace)])
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected_units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                      1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    run.MIN_CYCLES = 1
    run.SETUP_REPEATS = 1
    run.PROCESS_RUNS = 1
    run.TRACE_CYCLES = {w["name"]: 1 for w in spec["workloads"]}
    from tracer import COUNTS
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        counts = []
        for trace in (0, 1, 1):
            code, record, result = invoke(workload, trace)
            tag = f"{workload} --trace {trace}"
            if code != 0 or not result["correct"]:
                problems.append(f"{tag}: exit {code}, correct {result['correct']}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected_units[trace]:
                problems.append(f"{tag}: metrics {units} differ from BENCHMARK.json")
            ratio = record["metrics"]["failed_ratio"]["value"]
            if ratio != EXPECTED_FAILED_RATIO[workload]:
                problems.append(f"{tag}: failed_ratio {ratio}, expected "
                                f"{EXPECTED_FAILED_RATIO[workload]}")
            missing = [f for f in ENV_FIELDS if f not in record["env"]]
            if missing:
                problems.append(f"{tag}: environment lacks {missing}")
            if trace:
                counts.append({k: result["metrics"][k]["value"] for k in COUNTS})
        if counts[0] != counts[1]:
            problems.append(f"{workload}: traced counts differ: {counts}")
        if not inputs_repeat(workload):
            problems.append(f"{workload}: inputs differ between two generations")
    for line in problems:
        print(f"selftest: {line}", file=sys.stderr)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def inputs_repeat(workload):
    """Generate set-up and two cycles of inputs twice; compare the bytes."""
    fp = run.import_fpcert()
    blobs = []
    for attempt in range(2):
        workdir = run.ROOT / ".bench_work" / f"selftest-{os.getpid()}-{attempt}"
        workdir.mkdir(parents=True)
        try:
            bench = {**run.API, **run.CLI}[workload]()
            state = bench.setup(fp, SEED, str(workdir))
            blobs.append(b"".join(bench.fingerprint(state, i) for i in range(2)))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return blobs[0] == blobs[1]


if __name__ == "__main__":
    sys.exit(main())
