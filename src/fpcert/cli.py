"""Command-line front end.

Four subcommands: ``certify`` writes a certificate JSON, ``solve`` a trace
CSV plus summary JSON, ``rates`` a trace CSV plus rate-fit JSON and the
trajectory inequality reports, ``region`` a membership-grid CSV.

Each reads a JSON run config, checked once by :func:`load_run_config`; a
field or param set to null keeps its default, as if left out.  The problem
or operator config it names is read here too, through the same checked
field readers.

Exit codes: 0 on PASS / converged, 2 on FAIL / diverged / non-converged
(an iterate that overflows included), 1 on a usage error (malformed config,
missing file, bad field, a ``dim``, ``resolution`` or ``n_pairs`` whose
arrays do not fit in memory, the iteration's buffer of a ``solve`` or
``rates`` run included, an output path that cannot be written).  Runs with
a fixed seed are byte-for-byte reproducible.

One rule turns a rejected input into a usage error: each call that reads
or uses a field runs inside :func:`_field`, which turns the library's
ValueError, an OSError and, for a size field, a MemoryError into a
UsageError naming the field.  No other handler raises a UsageError.

Each runner returns its verdict and its product files without writing
them; :func:`main` writes them all in one place, after the run's last
check.  So a usage error writes no product file, and one met while writing
removes the files the run wrote.  Without ``--out`` or ``output_dir`` a run
writes into a new directory named for the command and the time to the
second; a name an earlier run took gets ``-2``, ``-3``, ... appended, so
runs in the same second never share a directory.  An explicit output
directory may already exist.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import sys
import time

import numpy as np

from . import operators, problems, reports
from .certify import (DEFAULT_TOL, PROPERTIES, EstimateError, SamplingPlan, certify,
                      estimate_mu, normalize_property, range_region)
from .iterate import (
    NonFiniteIterateError,
    StopReason,
    check_residual_summability,
    check_sandwich,
    fit_rate,
    little_o_proxy,
    picard,
)
from .metrics import L1, L2, check_number, primal_dual_metric, read_matrix

__all__ = ["main", "UsageError"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2


class UsageError(ValueError):
    """Configuration problem; the message names the offending field."""


# Scalar params, from the run config or the command line: (type, lower
# bound, whether the bound is strict, help of its --flag, or None for a
# config-only param).  Each is checked in load_run_config.
SCALAR_PARAMS = {
    "seed": (int, 0, False, "override the sampling seed"),
    "n_pairs": (int, 1, False, None),
    "max_iter": (int, 1, False, "iteration budget"),
    "gamma": (float, 0.0, True, "exponent parameter"),
    "mu": (float, 0.0, True, "averagedness parameter"),
    "rho": (float, 0.0, True, "contraction factor"),
    "beta": (float, 0.0, True, "primal step size"),
    "eta": (float, 0.0, True, "dual step size"),
    "lambda": (float, 0.0, False, "regularization weight override"),
    "tol": (float, 0.0, False, "tolerance (slack or residual)"),
}


@contextlib.contextmanager
def _field(*names, size=None):
    """A block whose rejected input is a UsageError naming the field(s) ``names``.

    This is the one place a library error becomes a usage error.  A
    UsageError passes unchanged; a ValueError becomes ``field '<name>':
    <message>``, and an OSError, met reading an input file, ``field
    '<name>': cannot read <file> (<reason>)``.  With ``size`` given, a
    MemoryError says that the value ``size`` of the field sets arrays that
    do not fit in memory; without it, a MemoryError passes unchanged.
    """
    label = "field " + "/".join(f"'{name}'" for name in names)
    try:
        yield
    except UsageError:
        raise
    except ValueError as err:
        raise UsageError(f"{label}: {err}") from err
    except OSError as err:
        raise UsageError(
            f"{label}: cannot read {err.filename} ({err.strerror})") from err
    except MemoryError as err:
        if size is None:
            raise
        raise UsageError(f"{label}: {size!r} is too large, the arrays it sizes "
                         "do not fit in memory") from err


def _scalar(field_name, value, kind=float, lower=None, strict=False):
    """``value`` as a finite ``kind`` at least ``lower``, or above it if strict.

    Numbers and numeric strings pass, bounded by :func:`check_number`;
    anything else is a UsageError naming the field.
    """
    try:
        # a boolean or a value float() rejects reads as NaN, which fails below
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number) or (kind is int and not number.is_integer()):
        noun = "an integer" if kind is int else "a number"
        raise UsageError(f"field '{field_name}' must be {noun}, got {value!r}")
    number = int(value) if kind is int and isinstance(value, int) else kind(number)
    if lower is not None:
        with _field(field_name):
            check_number(field_name, number, kind, lower, strict)
    return number


def _numbers(field_name, value, size=None, positive=False):
    """``value`` as a float array: a nonempty list of numbers, ``size`` of
    them when given, each positive when ``positive``; else a UsageError."""
    if (not isinstance(value, list) or not value
            or (size is not None and len(value) != size)):
        need = "a nonempty list of" if size is None else f"a list of {size}"
        got = f"{len(value)} entries" if isinstance(value, list) else repr(value)
        raise UsageError(f"field '{field_name}' must be {need} numbers, got {got}")
    lower = 0.0 if positive else None
    return np.array([_scalar(field_name, v, float, lower, positive) for v in value])


def _read_json(path, field_name):
    """The JSON object in the file at ``path``; errors name ``field_name``."""
    with _field(field_name):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as err:
            reason = "nested too deeply" if isinstance(err, RecursionError) else err
            raise ValueError(f"not valid JSON ({reason})") from err
        if not isinstance(raw, dict):
            raise ValueError("top level must be an object")
    return raw


# String fields of the run config and their defaults (None: no default).
STRING_FIELDS = {"problem": None, "operator": None, "output_dir": None,
                 "property": "gan", "norm": "l2", "model": "exponential"}


def load_run_config(path, command, overrides):
    """The checked run config at ``path`` for ``command``, as a plain dict.

    This is the one reader of the run config; every runner reads the dict
    it returns.  A field or param set to null is dropped first, so it keeps
    its default, as if left out.  The string fields of STRING_FIELDS are
    filled with their defaults, ``problem`` and ``operator`` are resolved
    relative to the config file, ``property`` is normalized and ``model``
    lowered.  ``overrides`` maps names of SCALAR_PARAMS, and ``out``, to
    command-line values; a value other than None replaces the config's.
    Raises a UsageError naming the offending field.
    """
    config = {key: value for key, value in _read_json(path, "config").items()
              if value is not None}
    for key, default in STRING_FIELDS.items():
        entry = config.setdefault(key, default)
        if entry is not None and not (isinstance(entry, str) and entry):
            raise UsageError(f"field '{key}' must be a nonempty string, got {entry!r}")
    base = os.path.dirname(os.path.abspath(path))
    for key in ("problem", "operator"):
        if config[key] is not None:
            config[key] = os.path.join(base, config[key])
    config["output_dir"] = overrides.get("out") or config["output_dir"]
    config["command"] = command

    params = config.get("params", {})
    if not isinstance(params, dict):
        raise UsageError("field 'params' must be an object")
    params = {key: value for key, value in params.items() if value is not None}
    for key, (kind, lower, strict, _) in SCALAR_PARAMS.items():
        if overrides.get(key) is not None:
            params[key] = overrides[key]
        if key in params:
            params[key] = _scalar(key, params[key], kind, lower, strict)
    config["params"] = params

    has_problem, has_operator = bool(config["problem"]), bool(config["operator"])
    if command == "certify":
        if has_problem == has_operator:
            raise UsageError(
                "field 'problem'/'operator': certify needs exactly one of them")
        with _field("property"):
            config["property"] = normalize_property(config["property"])
    if command in ("solve", "rates") and not (has_problem or has_operator):
        raise UsageError(
            f"field 'problem': {command} needs a problem or operator config")
    config["model"] = config["model"].strip().lower()
    if command == "rates" and config["model"] not in fit_rate.models:
        raise UsageError(
            f"field 'model' must be {' or '.join(map(repr, fit_rate.models))}")
    if config["norm"] not in ("l2", "l1", "w"):
        raise UsageError("field 'norm' must be 'l2', 'l1' or 'w'")
    return config


def load_operator_config(path):
    """Build an Operator from a small JSON description."""
    config = _read_json(path, "operator")
    kind = config.get("type")
    if kind in ("soft_threshold", "block_soft_threshold", "identity"):
        dim = _scalar("dim", config.get("dim", 1), int, 1)
    if kind in ("soft_threshold", "block_soft_threshold"):
        lam = _scalar("lambda", config.get("lambda", 1.0), float, 0.0)
        prox, name = {
            "soft_threshold": (operators.l1_prox, "soft-threshold"),
            "block_soft_threshold": (operators.l2_prox, "block-soft-threshold"),
        }[kind]
        with _field("dim", size=dim):
            return operators.prox_operator(
                prox(lam), 1.0, dim,
                fixed_point_hint=np.zeros(dim), label=f"{name}(lam={lam:g})",
            )
    if kind == "affine":
        alpha = _scalar("alpha", config.get("alpha", 1.0))
        z = _numbers("z", config.get("z", [0.0]))
        with _field("alpha", "z"):
            return operators.affine(alpha, z)
    if kind == "identity":
        with _field("dim", size=dim):
            return operators.identity(dim)
    raise UsageError(f"field 'type': unknown operator type {config.get('type')!r}")


# Each problem kind's config fields, in the order its constructor
# problems.<kind>_problem takes them.  "lambda" is the scalar weight; every
# other field is an array, inline or a matrix file.
PROBLEM_FIELDS = {
    "least_squares": ("A", "b"),
    "separable_smooth_l1": ("coeffs", "b", "lambda"),
    "analysis_l1": ("A", "b", "B", "lambda"),
}


def _array(config, field_name, base):
    """The array of a problem-config field: a matrix file, relative to
    ``base``, or an inline list of numbers, booleans rejected as by
    :func:`_scalar`; anything else is a UsageError naming the field."""
    if field_name not in config:
        raise UsageError(f"field '{field_name}' is required")
    entry = config[field_name]
    with _field(field_name):
        if isinstance(entry, str):
            return read_matrix(os.path.join(base, entry))
        if isinstance(entry, list):
            try:
                array = np.asarray(entry, dtype=float)
            except (TypeError, OverflowError) as err:
                raise ValueError(err) from err
            # the conversion takes True as 1.0; the innermost entries of a
            # list that converted are array.ndim - 1 levels down
            cells = entry
            for _ in range(array.ndim - 1):
                cells = itertools.chain.from_iterable(cells)
            if bool in set(map(type, cells)):
                raise ValueError("a boolean is not a number")
            return array
    raise UsageError(f"field '{field_name}' must be a matrix-file path or a list")


def load_problem_config(path, lam=None):
    """The ProblemSpec of the problem config at ``path``.

    The config names its ``kind`` and the fields PROBLEM_FIELDS lists for
    it: arrays inline or as matrix files relative to the config, and the
    scalar ``lambda``, 0 unless given; ``lam``, when not None, replaces it.
    Raises a UsageError naming the offending field, or ``problem`` when the
    constructor rejects the data.
    """
    config = _read_json(path, "problem")
    kind = config.get("kind")
    # a list or an object as the kind would make the dict lookup a TypeError
    if not isinstance(kind, str) or kind not in PROBLEM_FIELDS:
        raise UsageError(f"field 'kind' must be one of {tuple(PROBLEM_FIELDS)}")
    if lam is None:
        lam = _scalar("lambda", config.get("lambda", 0.0), float, 0.0)
    base = os.path.dirname(path)
    args = [lam if name == "lambda" else _array(config, name, base)
            for name in PROBLEM_FIELDS[kind]]
    with _field("problem"):
        return getattr(problems, f"{kind}_problem")(*args)


def _resolve_target(config):
    """Return (operator, problem, norm spec, step sizes) of the configured target.

    The step sizes are a dict of the ``beta`` and ``eta`` that are set.
    """
    params = config["params"]
    problem, beta, eta = None, params.get("beta"), params.get("eta")
    if config["problem"]:
        problem = load_problem_config(config["problem"], params.get("lambda"))
        with _field("beta", "eta"):
            beta, eta = problems.default_step_sizes(problem, beta, eta)
            op = problems.build_operator(problem, beta, eta)
    else:
        op = load_operator_config(config["operator"])
    if config["norm"] != "w":
        norm_spec = L2 if config["norm"] == "l2" else L1
    elif problem is None or problem.b_mat is None:
        raise UsageError("field 'norm': 'w' needs an analysis_l1 problem")
    else:
        norm_spec = primal_dual_metric(beta, eta, problem.b_mat)
    steps = {name: float(value) for name, value in (("beta", beta), ("eta", eta))
             if value is not None}
    return op, problem, norm_spec, steps


def _plan(config):
    kwargs = {key: config["params"][key] for key in ("n_pairs", "seed")
              if key in config["params"]}
    if "radius_scales" in config:
        kwargs["radius_scales"] = tuple(
            _numbers("radius_scales", config["radius_scales"], positive=True).tolist())
    return SamplingPlan(**kwargs)


def _run_certify(config):
    op, problem, norm_spec, _ = _resolve_target(config)
    prop = config["property"]
    if PROPERTIES[prop].points and op.fixed_point_hint is None:
        # no params value can supply the fixed point: the property or the
        # target has to change
        target = "problem" if problem is not None else "operator"
        raise UsageError(
            f"field 'property'/'{target}': property {prop!r} needs a fixed point, "
            f"and this {target} has none"
        )
    plan = _plan(config)
    params = {key: config["params"][key] for key in ("gamma", "mu", "rho")
              if key in config["params"]}
    tol = config["params"].get("tol", DEFAULT_TOL)
    with _field("n_pairs", size=plan.n_pairs), _field("params"):
        cert = certify(op, prop, params, norm_spec, plan, tol=tol)
    return cert.passed, [("certificate.json", reports.write_json, cert.to_dict())]


def _run_trace(config):
    """Run the configured target's iteration for ``solve`` or ``rates``.

    The reference of ``error_to_ref`` is the operator's fixed-point hint,
    which every problem with a closed-form solution carries.  Returns the
    operator, the norm, the trace and the step sizes.
    """
    op, _, norm_spec, steps = _resolve_target(config)
    x0 = config.get("x0")
    x0 = np.zeros(op.dim) if x0 is None else _numbers("x0", x0, op.dim)
    with _field("dim" if config["operator"] else "problem", size=op.dim):
        trace = picard(op, x0, max_iter=config["params"].get("max_iter", 100_000),
                       res_tol=config["params"].get("tol", 1e-10),
                       ref=op.fixed_point_hint, norm_spec=norm_spec)
    return op, norm_spec, trace, steps


def _run_solve(config):
    _, _, trace, steps = _run_trace(config)
    summary = {
        "stop_reason": trace.stop_reason.value,
        "k_final": trace.k_final,
        "final_residual": trace.final_residual,
        "norm": trace.norm_spec.describe(),
        "operator": trace.label,
    }
    summary.update(steps)
    return trace.converged, [("trace.csv", reports.write_trace_csv, trace, steps),
                             ("summary.json", reports.write_json, summary)]


def _run_rates(config):
    plan = _plan(config)
    mu = config["params"].get("mu")
    op, norm_spec, trace, steps = _run_trace(config)

    gamma = config["params"].get("gamma", 2.0)
    failed = trace.stop_reason is StopReason.DIVERGED
    try:
        fit = fit_rate(trace.residuals, config["model"]).to_dict()
    except ValueError as err:
        # the trace leaves too short a tail to fit; the model name is valid
        fit = {"error": str(err)}

    # each check's report, or the reason it was skipped
    checks = {"little_o_proxy": little_o_proxy(trace.residuals, gamma)}
    skipped = "no fixed point available" if trace.errors_to_ref is None else None
    if skipped is None and mu is None:
        with _field("n_pairs", size=plan.n_pairs):
            try:
                mu = estimate_mu(op, gamma, norm_spec, plan)
            except EstimateError as err:
                # no sampled pair was informative, so there is no estimate
                skipped = str(err)
        if mu == 0.0:
            # an expansive map or an over-long step: no mu > 0 survives sampling
            skipped = "mu estimate is 0"
        failed = failed or skipped is not None
    if skipped is not None:
        checks["summability"] = checks["sandwich"] = skipped
    else:
        checks["summability"] = check_residual_summability(trace, gamma, mu)
        checks["sandwich"] = (check_sandwich(trace, mu)
                              if trace.converged and 0 < mu <= 1
                              else "needs a converged trace and mu <= 1")

    payload = {}
    for name, report in checks.items():
        if isinstance(report, str):
            payload[name] = {"skipped": report}
        else:
            payload[name] = report.to_dict()
            failed = failed or not report.verdict
    payload["stop_reason"] = trace.stop_reason.value
    return not failed, [("trace.csv", reports.write_trace_csv, trace, steps),
                        ("rate_fit.json", reports.write_json, fit),
                        ("checks.json", reports.write_json, payload)]


def _run_region(config):
    params = config["params"]
    x = _numbers("x", config.get("x"), 2)
    xhat = _numbers("xhat", config.get("xhat"), 2)
    gamma = params.get("gamma", 2.0)
    mu = params.get("mu", 1.0)
    resolution = _scalar("resolution", config.get("resolution", 201), int, 2)
    with _field("resolution", size=resolution), _field("x", "xhat"):
        grid = range_region(x, xhat, gamma, mu, resolution)
    return True, [("region.csv", reports.write_region_csv, grid)]


def _write_products(config, products):
    """Create the run's output directory and write ``products`` into it.

    ``products`` lists ``(file name, writer, *args)`` in write order, and
    ``writer(path, *args)`` writes each file.  An explicit output directory
    may already exist; the default one is new.  An OSError removes the files
    this run wrote or began to write and is a UsageError naming the path; a
    path no file can have (a NUL byte, a lone surrogate) is one naming the
    reason.
    """
    out = path = config["output_dir"]
    written = []
    with _field("output_dir"):
        try:
            if out is not None:
                os.makedirs(out, exist_ok=True)
            else:
                stem = f"{config['command']}-{time.strftime('%Y%m%d-%H%M%S')}"
                retries = (f"{stem}-{i}" for i in itertools.count(2))
                for out in itertools.chain([stem], retries):
                    with contextlib.suppress(FileExistsError):
                        os.makedirs(path := out)
                        break
            for name, writer, *args in products:
                written.append(path := os.path.join(out, name))
                writer(path, *args)
        except OSError as err:
            for done in written:
                with contextlib.suppress(OSError):
                    os.remove(done)
            raise ValueError(f"cannot write {path} ({err.strerror})") from err


# Each subcommand's runner and help line.
COMMANDS = {
    "certify": (_run_certify,
                "sample an operator-class inequality and write a certificate"),
    "solve": (_run_solve, "run the fixed-point iteration and write its trace"),
    "rates": (_run_rates, "run, fit decay rates, and check trajectory inequalities"),
    "region": (_run_region, "emit the admissible-range membership grid"),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems; the documented usage
    # exit code here is 1, so convert instead of exiting.
    def error(self, message):
        raise UsageError(message)


@functools.cache
def build_parser():
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every call of :func:`main` can share it."""
    parser = _Parser(prog="fpcert", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, doc) in COMMANDS.items():
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("--config", required=True, help="run config JSON")
        cmd.add_argument("--out", help="output directory (default: command + timestamp)")
        for key, (kind, _, _, text) in SCALAR_PARAMS.items():
            if text is not None:
                # dest is the key: "--max-iter" parses to max_iter
                cmd.add_argument("--" + key.replace("_", "-"), type=kind, help=text)
    return parser


def main(argv=None):
    """Run the command line ``argv``; returns the process exit status."""
    try:
        args = build_parser().parse_args(argv)
        config = load_run_config(args.config, args.command, vars(args))
        runner, _ = COMMANDS[args.command]
        # overflow is reported through the exit status and the output files,
        # so numpy's own warnings would only clutter stderr
        with np.errstate(over="ignore", invalid="ignore"):
            passed, products = runner(config)
            _write_products(config, products)
        return EXIT_OK if passed else EXIT_FAIL
    except NonFiniteIterateError as err:
        print(f"fpcert: {args.command} failed: {err}", file=sys.stderr)
        return EXIT_FAIL
    except UsageError as err:
        print(f"fpcert: error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
