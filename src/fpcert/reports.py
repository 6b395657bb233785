"""Deterministic report emission: JSON and CSV with 17-significant-digit
floats so identical inputs and seeds produce byte-identical files and every
recorded double survives a round trip.

JSON output is strict JSON: a non-finite float (an infinite residual, a NaN
fit) is written as ``null``.  CSV cells keep ``Infinity``, ``-Infinity`` and
``NaN``.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = [
    "format_float",
    "dumps_json",
    "write_json",
    "trace_csv",
    "write_trace_csv",
    "region_csv",
    "write_region_csv",
]

JSON_INDENT = 2
# Rows of trace.csv rendered and written per chunk: enough that the per-chunk
# cost is negligible, few enough that a long trace is never held as all its
# cells at once (a 74 000-step trace writes with a 1.5 MB peak, not 15 MB).
TRACE_CHUNK_ROWS = 4096


def format_float(value):
    """Render a double with 17 significant digits (lossless round trip)."""
    if math.isfinite(value):
        return format(float(value), ".17g")
    if value != value:
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


def _emit(obj, parts, level):
    """Append the JSON text of ``obj`` to ``parts``, indented for ``level``.

    ``obj`` is None, a bool, a str, a number (numpy integers and floats
    included), an ndarray (written as its ``tolist()``), or a dict, list or
    tuple of these; a tuple is written as a list and a dict key as its
    ``str``.  Any other type, ``np.bool_`` included, raises ``TypeError``.
    """
    pad = " " * (JSON_INDENT * level)
    pad_in = " " * (JSON_INDENT * (level + 1))
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(format_float(obj) if math.isfinite(obj) else "null")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), parts, level)
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            parts.append(f"{pad_in}{json.dumps(str(key), ensure_ascii=False)}: ")
            _emit(value, parts, level + 1)
            parts.append(",\n" if i + 1 < len(obj) else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        parts.append("[\n")
        for i, value in enumerate(obj):
            parts.append(pad_in)
            _emit(value, parts, level + 1)
            parts.append(",\n" if i + 1 < len(obj) else "\n")
        parts.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps_json(obj):
    """Serialize to JSON text with deterministic layout and float formatting."""
    parts = []
    _emit(obj, parts, 0)
    return "".join(parts) + "\n"


def _write(path, chunks):
    """Write the strings ``chunks`` to ``path`` as UTF-8 with LF line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(chunks)
    return path


def write_json(path, obj):
    return _write(path, [dumps_json(obj)])


def trace_csv(trace, params=None):
    """Render a trace as CSV: columns k, residual, error_to_ref.

    The residual cell is blank on the k = 0 row and the error column is blank
    throughout when no reference was supplied.  Header comment lines record
    the operator label, norm, stop reason and any extra parameters.
    """
    return "".join(_trace_chunks(trace, params))


def write_trace_csv(path, trace, params=None):
    """Write :func:`trace_csv` to ``path``, ``TRACE_CHUNK_ROWS`` rows at a time."""
    return _write(path, _trace_chunks(trace, params))


def _trace_rows(lo, residuals, errors):
    """The trace.csv rows k = lo, lo + 1, ...: ``residuals[i]`` and
    ``errors[i]`` are the cells of row lo + i, and ``errors`` None leaves
    that column blank.

    Every chunk is rendered with one ``%`` format over a repeated row
    template.  ``%.17g`` is :func:`format_float` on finite cells; in a chunk
    with non-finite cells, its ``inf`` and ``nan`` become ``Infinity`` and
    ``NaN`` (no finite ``%.17g`` cell holds those letters).
    """
    columns = [residuals] if errors is None else [residuals, errors]
    columns = [np.asarray(c, dtype=float) for c in columns]
    cells = [c.tolist() for c in columns]
    ks = range(lo, lo + len(cells[0]))
    width = 1 + len(cells)
    flat = [None] * (width * len(ks))
    flat[0::width] = ks
    for i, column in enumerate(cells, 1):
        flat[i::width] = column
    row = "%d,%.17g,\n" if errors is None else "%d,%.17g,%.17g\n"
    text = (row * len(ks)) % tuple(flat)
    if all(np.isfinite(c).all() for c in columns):
        return text
    return text.replace("inf", "Infinity").replace("nan", "NaN")


def _trace_chunks(trace, params):
    """The text of :func:`trace_csv`: its header, then its rows in chunks of
    ``TRACE_CHUNK_ROWS``, so a long trace is never held as one list of cells."""
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
    # the k = 0 row has no residual; row k >= 1 holds residuals[k - 1]
    lines.append("0,," + ("" if errors is None else format_float(errors[0])))
    yield "\n".join(lines) + "\n"
    for lo in range(1, trace.k_final + 1, TRACE_CHUNK_ROWS):
        hi = min(lo + TRACE_CHUNK_ROWS, trace.k_final + 1)
        yield _trace_rows(lo, trace.residuals[lo - 1:hi - 1],
                          None if errors is None else errors[lo:hi])


def region_csv(grid):
    """Render a membership grid as CSV of 0/1 cells with a '#' header.

    Rows scan the second coordinate from low to high, columns the first, so
    the file reproduces the mask row-major.  The cells are rendered as one
    uint8 array, each cell's digit followed by a comma or, at the end of its
    row, a newline, and decoded once.
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
    mask = np.asarray(grid.mask)
    cells = np.full((mask.shape[0], 2 * mask.shape[1]), ord(","), dtype=np.uint8)
    cells[:, 0::2] = np.where(mask, ord("1"), ord("0"))
    cells[:, -1] = ord("\n")
    return "\n".join(lines) + "\n" + cells.tobytes().decode("ascii")


def write_region_csv(path, grid):
    return _write(path, [region_csv(grid)])
