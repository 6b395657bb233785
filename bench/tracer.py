"""In-memory span tracing of fpcert's public functions, from outside fpcert.

`Tracer.install` wraps every plain function listed in a module's ``__all__``
in every fpcert namespace that binds it (certify and iterate import ``norm``
by name, the package re-exports almost everything), and wraps
``Operator.__call__`` on the class.  Nothing under ``src/fpcert`` changes.
Spans (name, start, end, parent, claim id) live in flat arrays until
`write` stores them; `layer_metrics` turns them into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("metrics", "operators", "certify", "iterate", "problems", "reports", "cli")
OP_CALL = "operators.Operator.__call__"
SAMPLING_CLAIMS = ("certify.certify", "certify.estimate_mu",
                   "certify.estimate_min_gamma", "certify.estimate_fp_ratio")
CHECKS = ("iterate.fit_rate", "iterate.little_o_proxy",
          "iterate.check_residual_summability", "iterate.check_sandwich")
COUNTS = ("metrics.norm_calls", "metrics.spectral_calls", "operators.calls",
          "operators.rows", "certify.calls", "certify.pairs", "iterate.steps")
RATIOS = ("certify.rows_per_pair", "certify.bisect_runs", "iterate.overhead_ratio",
          "trace.overhead_ratio")


def unit(metric):
    """Unit of a per-layer metric, from its name."""
    if metric in COUNTS:
        return "count"
    if metric in RATIOS:
        return "ratio"
    if metric == "reports.bytes":
        return "B"
    return "1/s" if metric.endswith("_per_s") else "s"


# Picard calls made by claims, kept for the replay behind iterate.overhead_ratio.
REPLAY_CAP = 64


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.claim = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("i")  # vectors mapped, on operator spans
        self.stack = []
        self.claim_id = -1
        self.enabled = False
        self.steps = 0
        self.bytes = 0
        self.samples = {}  # outermost sampling-claim span -> {plan key: rows}
        self.picard_calls = []
        self._patches = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def paused(self):
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def wrap(self, name, fn):
        nid = self._id(name)
        after = {
            "iterate.picard": self._after_picard,
            "certify.sample_pairs": self._after_sample,
            "certify.sample_points": self._after_sample,
        }.get(name)
        if name.startswith("reports.write_"):
            after = self._after_write
        count_rows = name == OP_CALL
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.name)
            tracer.name.append(nid)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.claim.append(tracer.claim_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            if count_rows:
                x = args[1]
                tracer.rows.append(1 if np.ndim(x) < 2 else len(x))
            else:
                tracer.rows.append(0)
            tracer.stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _after_picard(self, args, kwargs, trace):
        self.steps += trace.k_final
        if self.claim_id >= 0 and len(self.picard_calls) < REPLAY_CAP:
            self.picard_calls.append((args, kwargs, trace.k_final))

    def _after_write(self, args, kwargs, path):
        self.bytes += os.path.getsize(path)

    def _after_sample(self, args, kwargs, result):
        plan, dim = args[0], args[1]
        hint = args[2] if len(args) > 2 else kwargs.get("hint")
        owner = next((i for i in self.stack
                      if self.names[self.name[i]] in SAMPLING_CLAIMS), None)
        if owner is None:
            return
        rows = result[0].shape[0] if isinstance(result, tuple) else result.shape[0]
        key = (plan.n_pairs, tuple(plan.radius_scales), plan.seed, dim, hint is None)
        self.samples.setdefault(owner, {})[key] = rows

    def install(self):
        """Wrap the public functions of every layer in every fpcert namespace."""
        for layer in LAYERS:
            importlib.import_module(f"fpcert.{layer}")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fpcert" or n.startswith("fpcert."))]
        for layer in LAYERS:
            module = sys.modules[f"fpcert.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn):
                    continue
                traced = self.wrap(f"{layer}.{attr}", fn)
                for namespace in modules:
                    for key, value in list(vars(namespace).items()):
                        if value is fn:
                            self._patches.append((namespace, key, fn))
                            setattr(namespace, key, traced)
        operator_cls = sys.modules["fpcert.operators"].Operator
        original = operator_cls.__call__
        self._patches.append((operator_cls, "__call__", original))
        operator_cls.__call__ = self.wrap(OP_CALL, original)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path):
        """Store the spans; names index into the stored name table."""
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
            parent=np.frombuffer(self.parent, np.int32),
            claim=np.frombuffer(self.claim, np.int32),
            rows=np.frombuffer(self.rows, np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))

    def layer_metrics(self, claim_commands):
        """Per-layer metrics from the recorded spans.

        ``claim_commands`` maps a claim id to its CLI subcommand.  A set's
        time is the duration of its outermost spans, so nested calls inside
        the set are not counted twice; a layer's self time is the sum over
        its spans of duration minus the time its direct children cover.
        """
        name = np.frombuffer(self.name, np.int32)
        parent = np.frombuffer(self.parent, np.int32)
        claim = np.frombuffer(self.claim, np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                      minlength=len(dur))
        layer_of = np.array([n.split(".")[0] for n in self.names] + [""])
        span_layer = layer_of[name]

        def member(span_names):
            ids = [self._ids[n] for n in span_names if n in self._ids]
            return np.isin(name, ids)

        def below(mask):
            """Spans with an ancestor in `mask`."""
            anc = np.zeros(len(name), dtype=bool)
            for _ in range(64):
                nxt = np.zeros_like(anc)
                nxt[has_parent] = mask[parent[has_parent]] | anc[parent[has_parent]]
                if np.array_equal(nxt, anc):
                    break
                anc = nxt
            return anc

        def outer_time(span_names):
            mask = member(span_names)
            return float(dur[mask & ~below(mask)].sum())

        def layer_self(layer):
            return float(self_time[span_layer == layer].sum())

        rows = np.frombuffer(self.rows, np.int32)
        op = member([OP_CALL])
        op_outer = op & ~below(op)
        sampling = member(SAMPLING_CLAIMS)
        sampling_outer = sampling & ~below(sampling)
        pairs = sum(sum(keys.values()) for keys in self.samples.values())
        certify_time = float(dur[sampling_outer].sum())
        op_rows_in_claims = float(rows[op_outer & below(sampling)].sum())
        bisect = member(["certify.estimate_min_gamma"])
        n_bisect = int(bisect.sum())
        runs_in_bisect = int((member(["certify.certify"]) & below(bisect)).sum())
        picard_s = outer_time(["iterate.picard"])
        main = member(["cli.main"])
        per_command = {c: 0.0 for c in ("certify", "solve", "rates", "region")}
        for idx in np.nonzero(main & ~below(main))[0]:
            command = claim_commands.get(int(claim[idx]))
            if command in per_command:
                per_command[command] += float(dur[idx])
        return {
            "metrics.norm_calls": int(member(["metrics.norm"]).sum()),
            "metrics.norm_s": outer_time(["metrics.norm"]),
            "metrics.spectral_calls": int(member(["metrics.spectral_norm",
                                                  "metrics.smallest_eigenvalue_spd"]).sum()),
            "metrics.spectral_s": outer_time(["metrics.spectral_norm",
                                              "metrics.smallest_eigenvalue_spd"]),
            "metrics.cholesky_s": outer_time(["metrics.cholesky_factor",
                                              "metrics.solve_cholesky",
                                              "metrics.primal_dual_metric"]),
            "operators.calls": int(op_outer.sum()),
            "operators.rows": int(rows[op_outer].sum()),
            "operators.apply_s": float(dur[op_outer].sum()),
            "certify.calls": int(member(["certify.certify"]).sum()),
            "certify.pairs": int(pairs),
            "certify.pairs_per_s": pairs / certify_time if certify_time else 0.0,
            "certify.self_s": layer_self("certify"),
            "certify.rows_per_pair": op_rows_in_claims / pairs if pairs else 0.0,
            "certify.bisect_runs": runs_in_bisect / n_bisect if n_bisect else 0.0,
            "iterate.steps": self.steps,
            "iterate.picard_s": picard_s,
            "iterate.self_s": layer_self("iterate"),
            "iterate.steps_per_s": self.steps / picard_s if picard_s else 0.0,
            "iterate.checks_s": outer_time(CHECKS),
            "problems.load_s": outer_time(["problems.load_problem",
                                           "problems.least_squares_problem",
                                           "problems.separable_smooth_l1_problem",
                                           "problems.analysis_l1_problem"]),
            "problems.step_sizes_s": outer_time(["problems.default_step_sizes",
                                                 "problems.step_size_bounds"]),
            "problems.build_operator_s": outer_time(["problems.build_operator"]),
            "problems.reference_s": outer_time(["problems.reference_solution"]),
            "reports.write_s": outer_time([n for n in self.names
                                           if n.startswith("reports.")]),
            "reports.bytes": int(self.bytes),
            "cli.self_s": layer_self("cli"),
            **{f"cli.{c}_s": t for c, t in per_command.items()},
        }
