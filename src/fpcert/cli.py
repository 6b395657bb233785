"""Command-line front end.

Four subcommands: ``certify`` writes a certificate JSON, ``solve`` a trace
CSV plus summary JSON, ``rates`` a trace CSV plus rate-fit JSON and the
trajectory inequality reports, ``region`` a membership-grid CSV.

Exit codes: 0 on PASS / converged, 2 on FAIL / diverged / non-converged
(an iterate that overflows included), 1 on a usage error (malformed config,
missing file, bad field).  Runs with a fixed seed are byte-for-byte
reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import operators, problems, reports
from .certify import EstimateError, SamplingPlan, certify, estimate_mu, range_region
from .certify import _normalize_property
from .iterate import (
    NonFiniteIterateError,
    StopReason,
    check_residual_summability,
    check_sandwich,
    fit_rate,
    little_o_proxy,
    picard,
)
from .metrics import L1, L2, primal_dual_metric

__all__ = ["main", "execute", "RunConfig", "UsageError"]

COMMANDS = ("certify", "solve", "rates", "region")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2


class UsageError(ValueError):
    """Configuration problem; the message names the offending field."""


# Scalar params, from the run config or the command line: (type, lower
# bound, whether the bound is strict).  Each is checked in load_run_config.
SCALAR_PARAMS = {
    "seed": (int, 0, False),
    "n_pairs": (int, 1, False),
    "max_iter": (int, 1, False),
    "gamma": (float, 0.0, True),
    "mu": (float, 0.0, True),
    "rho": (float, 0.0, True),
    "beta": (float, 0.0, True),
    "eta": (float, 0.0, True),
    "lambda": (float, 0.0, False),
    "tol": (float, 0.0, False),
}


def _scalar(field_name, value, kind=float, lower=None, strict=False):
    """``value`` as a finite ``kind`` at least ``lower``, or above it if strict.

    Numbers and numeric strings pass; anything else is a UsageError naming
    the field.  Strict bounds are 0, which the message calls "positive".
    """
    noun = "an integer" if kind is int else "a number"
    try:
        if isinstance(value, bool):
            raise TypeError("a boolean is not a number")
        number = float(value)
        if not math.isfinite(number) or (kind is int and not number.is_integer()):
            raise ValueError("not finite, or not integral")
        number = int(value) if kind is int and isinstance(value, int) else kind(number)
    except (TypeError, ValueError, OverflowError):
        raise UsageError(
            f"field '{field_name}' must be {noun}, got {value!r}"
        ) from None
    if lower is not None and not (number > lower if strict else number >= lower):
        rule = f"at least {lower:g}" if lower else (
            "positive" if strict else "nonnegative")
        raise UsageError(f"field '{field_name}' must be {rule}, got {value!r}")
    return number


@dataclass
class RunConfig:
    command: str
    problem: Optional[str] = None
    operator: Optional[str] = None
    params: dict = field(default_factory=dict)
    output_dir: Optional[str] = None
    property_name: str = "gan"
    norm: str = "l2"
    raw: dict = field(default_factory=dict)

    def validate(self):
        if self.command not in COMMANDS:
            raise UsageError(f"field 'command' must be one of {COMMANDS}")
        if self.command == "certify":
            if bool(self.problem) == bool(self.operator):
                raise UsageError(
                    "field 'problem'/'operator': certify needs exactly one of them"
                )
            try:
                _normalize_property(self.property_name)
            except ValueError as err:
                raise UsageError(f"field 'property': {err}") from None
        if self.command in ("solve", "rates"):
            if not self.problem and not self.operator:
                raise UsageError(
                    f"field 'problem': {self.command} needs a problem or operator config"
                )
        if self.command == "region":
            for key in ("x", "xhat"):
                point = self.raw.get(key)
                if not isinstance(point, list) or len(point) != 2:
                    raise UsageError(f"field '{key}': region needs a 2-D point")
        if self.norm not in ("l2", "l1", "w"):
            raise UsageError("field 'norm' must be 'l2', 'l1' or 'w'")


def load_run_config(path, command, overrides):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as err:
        raise UsageError(f"field 'config': cannot read {path} ({err.strerror})") from err
    except json.JSONDecodeError as err:
        raise UsageError(f"field 'config': not valid JSON ({err})") from err
    if not isinstance(raw, dict):
        raise UsageError("field 'config': top level must be an object")

    for key in ("problem", "operator", "output_dir", "property", "norm"):
        entry = raw.get(key)
        if entry is not None and not (isinstance(entry, str) and entry):
            raise UsageError(f"field '{key}' must be a nonempty string, got {entry!r}")
    base = os.path.dirname(os.path.abspath(path))

    def resolve(entry):
        return None if entry is None else os.path.join(base, entry)

    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise UsageError("field 'params' must be an object")
    params = dict(params)
    for key, value in overrides.items():
        if value is not None:
            params[key] = value
    for key, rule in SCALAR_PARAMS.items():
        if params.get(key) is not None:
            params[key] = _scalar(key, params[key], *rule)
    config = RunConfig(
        command=command,
        problem=resolve(raw.get("problem")),
        operator=resolve(raw.get("operator")),
        params=params,
        output_dir=overrides.get("out") or raw.get("output_dir"),
        property_name=raw.get("property", "gan"),
        norm=raw.get("norm", "l2"),
        raw=raw,
    )
    config.validate()
    return config


def load_operator_config(path):
    """Build an Operator from a small JSON description."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as err:
        raise UsageError(f"field 'operator': cannot read {path} ({err.strerror})") from err
    except json.JSONDecodeError as err:
        raise UsageError(f"field 'operator': not valid JSON ({err})") from err
    if not isinstance(config, dict):
        raise UsageError("field 'operator': top level must be an object")
    kind = config.get("type")
    if kind in ("soft_threshold", "block_soft_threshold", "identity"):
        dim = _scalar("dim", config.get("dim", 1), int, 1)
    if kind in ("soft_threshold", "block_soft_threshold"):
        lam = _scalar("lambda", config.get("lambda", 1.0), float, 0.0)
        prox, name = {
            "soft_threshold": (operators.l1_prox, "soft-threshold"),
            "block_soft_threshold": (operators.l2_prox, "block-soft-threshold"),
        }[kind]
        return operators.prox_operator(
            prox(lam), 1.0, dim,
            fixed_point_hint=np.zeros(dim), label=f"{name}(lam={lam:g})",
        )
    if kind == "affine":
        alpha = _scalar("alpha", config.get("alpha", 1.0))
        z = config.get("z", [0.0])
        if not isinstance(z, list) or not z:
            raise UsageError("field 'z' must be a nonempty list of numbers")
        z = np.array([_scalar("z", v) for v in z])
        try:
            return operators.affine(alpha, z)
        except ValueError as err:
            raise UsageError(f"field 'alpha'/'z': {err}") from err
    if kind == "identity":
        return operators.identity(dim)
    raise UsageError(f"field 'type': unknown operator type {config.get('type')!r}")


CONSTANT_RANGE = "its Lipschitz or coupling constant is 0 or overflows a double"


def _resolve_target(config):
    """Return (operator, problem, step sizes) for the configured target."""
    problem = None
    beta = config.params.get("beta")
    eta = config.params.get("eta")
    lam = config.params.get("lambda")
    if config.problem:
        try:
            problem = problems.load_problem(config.problem, lam=lam)
        except OSError as err:
            raise UsageError(
                f"field 'problem': cannot read {err.filename} ({err.strerror})"
            ) from err
        except (ValueError, json.JSONDecodeError) as err:
            raise UsageError(f"field 'problem': {err}") from err
        except ArithmeticError as err:
            raise UsageError(f"field 'problem': {CONSTANT_RANGE}") from err
        try:
            beta, eta = problems.default_step_sizes(problem, beta, eta)
            op = problems.build_operator(problem, beta, eta)
        except ValueError as err:
            raise UsageError(f"field 'beta'/'eta': {err}") from err
        except ArithmeticError as err:
            # L = 0 or an overflowing |B|^2: no step size can mend the problem
            raise UsageError(f"field 'problem': {CONSTANT_RANGE}") from err
    else:
        op = load_operator_config(config.operator)
    return op, problem, beta, eta


def _norm_spec(config, problem, beta, eta):
    if config.norm == "l2":
        return L2
    if config.norm == "l1":
        return L1
    if problem is None or problem.kind != "analysis_l1":
        raise UsageError("field 'norm': 'w' needs an analysis_l1 problem")
    return primal_dual_metric(beta, eta, problem.b_mat).norm_spec()


def _plan(config, dim):
    params = config.params
    kwargs = {"n_pairs": params.get("n_pairs", 250), "seed": params.get("seed", 0)}
    scales = config.raw.get("radius_scales")
    if scales:
        if not isinstance(scales, list):
            raise UsageError("field 'radius_scales' must be a list of numbers")
        kwargs["radius_scales"] = tuple(
            _scalar("radius_scales", s, float, 0.0, True) for s in scales
        )
    return SamplingPlan(**kwargs)


def _output_dir(config):
    out = config.output_dir
    if out is None:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        out = f"{config.command}-{stamp}"
    reports.ensure_dir(out)
    return out


def _run_certify(config):
    op, problem, beta, eta = _resolve_target(config)
    norm_spec = _norm_spec(config, problem, beta, eta)
    plan = _plan(config, op.dim)
    params = {
        key: config.params[key]
        for key in ("gamma", "mu", "rho")
        if config.params.get(key) is not None
    }
    tol = config.params.get("tol", 1e-10)
    try:
        cert = certify(op, config.property_name, params, norm_spec, plan, tol=tol)
    except ValueError as err:
        raise UsageError(f"field 'params': {err}") from err
    out = _output_dir(config)
    reports.write_json(os.path.join(out, "certificate.json"), cert.to_dict())
    return EXIT_OK if cert.passed else EXIT_FAIL


def _run_trace(config):
    """Run the configured target and write its ``trace.csv``.

    The reference of ``error_to_ref`` is the operator's fixed-point hint,
    which every problem with a closed-form solution carries.  Returns the
    operator, the norm, the trace, the output directory and the step sizes.
    """
    op, problem, beta, eta = _resolve_target(config)
    norm_spec = _norm_spec(config, problem, beta, eta)
    x0 = config.raw.get("x0")
    if x0 is None:
        x0 = [0.0] * op.dim
    if not isinstance(x0, list) or len(x0) != op.dim:
        raise UsageError(f"field 'x0': expected {op.dim} entries")
    x0 = np.array([_scalar("x0", v) for v in x0])
    trace = picard(op, x0, max_iter=config.params.get("max_iter", 100_000),
                   res_tol=config.params.get("tol", 1e-10),
                   ref=op.fixed_point_hint, norm_spec=norm_spec)
    out = _output_dir(config)
    steps = {name: float(value) for name, value in (("beta", beta), ("eta", eta))
             if value is not None}
    reports.write_trace_csv(os.path.join(out, "trace.csv"), trace, steps)
    return op, norm_spec, trace, out, steps


def _run_solve(config):
    _, _, trace, out, steps = _run_trace(config)
    summary = {
        "stop_reason": trace.stop_reason.value,
        "k_final": trace.k_final,
        "final_residual": trace.final_residual,
        "norm": trace.norm_spec.describe(),
        "operator": trace.label,
    }
    summary.update(steps)
    reports.write_json(os.path.join(out, "summary.json"), summary)
    return EXIT_OK if trace.converged else EXIT_FAIL


def _run_rates(config):
    mu = config.params.get("mu")
    op, norm_spec, trace, out, _ = _run_trace(config)

    gamma = config.params.get("gamma", 2.0)
    model = str(config.raw.get("model", "exponential"))
    failed = trace.stop_reason is StopReason.DIVERGED
    checks = {}

    try:
        fit = fit_rate(trace.residuals, model).to_dict()
    except ValueError as err:
        fit = {"error": str(err)}
    reports.write_json(os.path.join(out, "rate_fit.json"), fit)

    proxy = little_o_proxy(trace.residuals, gamma)
    checks["little_o_proxy"] = proxy.to_dict()
    if not proxy.verdict:
        failed = True

    xhat = op.fixed_point_hint
    skipped = "no fixed point available" if xhat is None else None
    if xhat is not None and mu is None:
        try:
            mu = estimate_mu(op, gamma, norm_spec, _plan(config, op.dim))
        except EstimateError as err:
            # no sampled pair was informative, so there is no estimate
            skipped = str(err)
        if mu == 0.0:
            # an expansive map or an over-long step: no mu > 0 survives sampling
            skipped = "mu estimate is 0"
        failed = failed or skipped is not None
    if skipped is not None:
        checks["summability"] = {"skipped": skipped}
        checks["sandwich"] = {"skipped": skipped}
    else:
        summ = check_residual_summability(trace, gamma, mu, xhat)
        checks["summability"] = summ.to_dict()
        if not summ.verdict:
            failed = True
        if trace.converged and 0 < mu <= 1:
            sandwich = check_sandwich(trace, xhat, mu)
            checks["sandwich"] = sandwich.to_dict()
            if not sandwich.verdict:
                failed = True
        else:
            checks["sandwich"] = {"skipped": "needs a converged trace and mu <= 1"}

    checks["stop_reason"] = trace.stop_reason.value
    reports.write_json(os.path.join(out, "checks.json"), checks)
    return EXIT_FAIL if failed else EXIT_OK


def _run_region(config):
    params = config.params
    x = np.array([_scalar("x", v) for v in config.raw["x"]])
    xhat = np.array([_scalar("xhat", v) for v in config.raw["xhat"]])
    gamma = params.get("gamma", 2.0)
    mu = params.get("mu", 1.0)
    resolution = _scalar("resolution", config.raw.get("resolution", 201), int, 2)
    try:
        grid = range_region(x, xhat, gamma, mu, resolution)
    except ValueError as err:
        raise UsageError(f"field 'x'/'xhat': {err}") from err
    out = _output_dir(config)
    reports.write_region_csv(os.path.join(out, "region.csv"), grid)
    return EXIT_OK


def execute(config):
    """Run a validated RunConfig; returns the process exit status."""
    config.validate()
    runner = {
        "certify": _run_certify,
        "solve": _run_solve,
        "rates": _run_rates,
        "region": _run_region,
    }[config.command]
    try:
        # overflow is reported through the exit status and the output files,
        # so numpy's own warnings would only clutter stderr
        with np.errstate(over="ignore", invalid="ignore"):
            return runner(config)
    except NonFiniteIterateError as err:
        print(f"fpcert: {config.command} failed: {err}", file=sys.stderr)
        return EXIT_FAIL


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems; the documented usage
    # exit code here is 1, so convert instead of exiting.
    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(prog="fpcert", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("certify", "sample an operator-class inequality and write a certificate"),
        ("solve", "run the fixed-point iteration and write its trace"),
        ("rates", "run, fit decay rates, and check trajectory inequalities"),
        ("region", "emit the admissible-range membership grid"),
    ):
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("--config", required=True, help="run config JSON")
        cmd.add_argument("--out", help="output directory (default: command + timestamp)")
        cmd.add_argument("--seed", type=int, help="override the sampling seed")
        cmd.add_argument("--gamma", type=float, help="exponent parameter")
        cmd.add_argument("--mu", type=float, help="averagedness parameter")
        cmd.add_argument("--rho", type=float, help="contraction factor")
        cmd.add_argument("--beta", type=float, help="primal step size")
        cmd.add_argument("--eta", type=float, help="dual step size")
        cmd.add_argument("--lambda", dest="lam", type=float,
                         help="regularization weight override")
        cmd.add_argument("--tol", type=float, help="tolerance (slack or residual)")
        cmd.add_argument("--max-iter", dest="max_iter", type=int,
                         help="iteration budget")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        overrides = {
            "seed": args.seed,
            "gamma": args.gamma,
            "mu": args.mu,
            "rho": args.rho,
            "beta": args.beta,
            "eta": args.eta,
            "lambda": args.lam,
            "tol": args.tol,
            "max_iter": args.max_iter,
            "out": args.out,
        }
        config = load_run_config(args.config, args.command, overrides)
        return execute(config)
    except UsageError as err:
        print(f"fpcert: error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
