"""Deterministic report emission: JSON and CSV with 17-significant-digit
floats so identical inputs and seeds produce byte-identical files and every
recorded double survives a round trip.

JSON output is strict JSON: a non-finite float (an infinite residual, a NaN
fit) is written as ``null``.  CSV cells keep ``Infinity``, ``-Infinity`` and
``NaN``.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
import os

import numpy as np

__all__ = [
    "format_float",
    "dumps_json",
    "write_json",
    "trace_csv",
    "write_trace_csv",
    "region_csv",
    "write_region_csv",
    "jsonable",
]

JSON_INDENT = 2


def format_float(value):
    """Render a double with 17 significant digits (lossless round trip)."""
    if value != value:
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "Infinity" if value > 0 else "-Infinity"
    return format(float(value), ".17g")


def jsonable(obj):
    """Coerce dataclasses, arrays and enums into plain JSON-ready values."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def _emit(obj, parts, level):
    """Append the text of ``obj``, a :func:`jsonable` value, to ``parts``."""
    pad = " " * (JSON_INDENT * level)
    pad_in = " " * (JSON_INDENT * (level + 1))
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(format_float(obj) if math.isfinite(obj) else "null")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            parts.append(f"{pad_in}{json.dumps(key, ensure_ascii=False)}: ")
            _emit(value, parts, level + 1)
            parts.append(",\n" if i + 1 < len(obj) else "\n")
        parts.append(pad + "}")
    else:  # a list, the one kind jsonable returns that is left
        if not obj:
            parts.append("[]")
            return
        parts.append("[\n")
        for i, value in enumerate(obj):
            parts.append(pad_in)
            _emit(value, parts, level + 1)
            parts.append(",\n" if i + 1 < len(obj) else "\n")
        parts.append(pad + "]")


def dumps_json(obj):
    """Serialize to JSON text with deterministic layout and float formatting."""
    parts = []
    _emit(jsonable(obj), parts, 0)
    return "".join(parts) + "\n"


def write_json(path, obj):
    text = dumps_json(obj)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    return path


def trace_csv(trace, params=None):
    """Render a trace as CSV: columns k, residual, error_to_ref.

    The residual cell is blank on the k = 0 row and the error column is blank
    throughout when no reference was supplied.  Header comment lines record
    the operator label, norm, stop reason and any extra parameters.
    """
    lines = [
        f"# operator: {trace.label}",
        f"# norm: {trace.norm_spec.describe()}",
        f"# stop_reason: {trace.stop_reason.value}",
        f"# k_final: {trace.k_final}",
    ]
    if params:
        rendered = ", ".join(
            f"{k}={format_float(v) if isinstance(v, float) else v}"
            for k, v in params.items()
        )
        lines.append(f"# params: {rendered}")
    lines.append("k,residual,error_to_ref")
    errors = trace.errors_to_ref
    for k in range(trace.k_final + 1):
        residual = "" if k == 0 else format_float(trace.residuals[k - 1])
        error = "" if errors is None else format_float(errors[k])
        lines.append(f"{k},{residual},{error}")
    return "\n".join(lines) + "\n"


def write_trace_csv(path, trace, params=None):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(trace_csv(trace, params))
    return path


def region_csv(grid):
    """Render a membership grid as CSV of 0/1 cells with a '#' header.

    Rows scan the second coordinate from low to high, columns the first, so
    the file reproduces the mask row-major.
    """
    x1, x2 = grid.x
    h1, h2 = grid.xhat
    lines = [
        "# range-region membership grid",
        f"# x: {format_float(x1)} {format_float(x2)}",
        f"# xhat: {format_float(h1)} {format_float(h2)}",
        f"# gamma: {format_float(grid.gamma)}",
        f"# mu: {format_float(grid.mu)}",
        "# bounds: " + " ".join(format_float(b) for b in grid.bounds),
        f"# resolution: {grid.resolution} {grid.resolution}",
        "# rows scan the second coordinate from low to high",
    ]
    for row in grid.mask:
        lines.append(",".join("1" if cell else "0" for cell in row))
    return "\n".join(lines) + "\n"


def write_region_csv(path, grid):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(region_csv(grid))
    return path


def ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path
