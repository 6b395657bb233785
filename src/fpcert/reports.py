"""Deterministic report emission: JSON and CSV with 17-significant-digit
floats so identical inputs and seeds produce byte-identical files and every
recorded double survives a round trip.

JSON output is strict JSON: a non-finite float (an infinite residual, a NaN
fit) is written as ``null``.  CSV cells keep ``Infinity``, ``-Infinity`` and
``NaN``.

Every trace.csv chunk is rendered by one fixed sequence of numpy passes,
with the bytes of ``"%d,%.17g,%.17g\n"`` row for row.  A cell x with
X = floor(log10|x|) prints the 17-digit integer
D = round(|x| * 10**(16 - X)).  The pass guesses X from ``np.log10``, holds
10**(16 - X) as a double-double hi + lo built from exact integers, and
forms |x| * hi exactly with Dekker's two-product; adding |x| * lo leaves
the scaled value y with an error below 2**-47.  D is round(y) unless the
fraction of y lies within ``DECIMAL_TIE_MARGIN`` (2**-30) of 1/2, so every
D it keeps is exact.  The digits of D, a '.', the "0.000" of a small
fixed-form cell, the sign and the exponent sit in a fixed-width byte slot
of a row buffer; a mask looked up by sign, form and count of significant
digits zeroes the bytes a cell does not print, and one ``bytes.translate``
deletes them.  A cell the pass cannot decide prints its comma alone, and
the row that holds it is rendered again, cell by cell, by
:func:`format_float`: undecided are 0 and -0, values outside
[1e-250, 1e250], non-finite values, near-ties, and a guess of X that put
y outside [10**16, 10**17).
"""

from __future__ import annotations

import functools
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
# cost is small, few enough that a chunk's numpy passes stay in cache and a
# long trace is never held as all its cells at once.
TRACE_CHUNK_ROWS = 1024
# The numpy pass rounds a scaled cell only when its fraction lies this far
# from 1/2 or farther; the scaled value errs by less than 2**-47.
DECIMAL_TIE_MARGIN = 2.0 ** -30


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
    elif isinstance(obj, (dict, list, tuple)):
        # one layout: each item is a key prefix, empty in a list, and a value
        if isinstance(obj, dict):
            brackets = "{}"
            items = ((f"{json.dumps(str(key), ensure_ascii=False)}: ", value)
                     for key, value in obj.items())
        else:
            brackets, items = "[]", (("", value) for value in obj)
        if not obj:
            parts.append(brackets)
            return
        parts.append(brackets[0] + "\n")
        for i, (prefix, value) in enumerate(items):
            parts.append(pad_in + prefix)
            _emit(value, parts, level + 1)
            parts.append(",\n" if i + 1 < len(obj) else "\n")
        parts.append(pad + brackets[1])
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


# Each cell of a numpy-rendered row has a slot of fixed width in the row
# buffer, one byte a column: its comma, a sign, the "0.000" that starts
# 1e-4 <= |x| < 1, the digits A0 '.' A1 ... A16 of D, then 'e' and the
# exponent's sign and three digits.  A cell with 1 <= X <= 16 has A1 ... AX
# moved left over the '.', which follows AX instead.  A byte the cell does
# not print is zeroed and deleted.
_SLOT = b",-0.0000." + b"0" * 16 + b"e+000"
_A0, _DOT, _A1, _E, _EXP = 7, 8, 9, 25, 26
# The numpy pass renders |x| in [1e-250, 1e250]; per-X tables cover the
# guesses of X for that range, off by one either way.
_DECIDED_RANGE = (1e-250, 1e250)
_X_OFFSET = 251
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
# A slot's mask key is (sign * _FORMS + form) * 17 + significant digits - 1,
# where form is X + 4 for the fixed forms -4 <= X <= 16 and 21 or 22 for
# the scientific forms with a two- or three-digit exponent.
_FORMS = 23


class _DecimalTables:
    """The lookup tables of the numpy cell pass, built on first use."""

    def __init__(self):
        xs = np.arange(-_X_OFFSET, _X_OFFSET + 1)
        # 10**(16 - X) as hi + lo; int / int is correctly rounded in CPython
        hi, lo = [], []
        for e in (16 - xs).tolist():
            num, den = (10 ** e, 1) if e >= 0 else (1, 10 ** -e)
            head = num / den
            m, q = head.as_integer_ratio()
            hi.append(head)
            lo.append((num * q - m * den) / (den * q))
        self.hi, self.lo = np.array(hi), np.array(lo)
        c = self.hi * _SPLIT
        self.hi_head = c - (c - self.hi)
        exponent = b"".join(b"%c%03d" % (45 if x < 0 else 43, abs(x)) for x in xs.tolist())
        self.exponent = np.frombuffer(exponent, np.uint32)
        form = np.where((xs < -4) | (xs > 16), 21 + (abs(xs) > 99), xs + 4)
        self.key_base = form * 17 + 16
        d = np.arange(10000)
        digits = np.empty((10000, 4), np.uint8)
        for i, p in enumerate((1000, 100, 10, 1)):
            digits[:, i] = d // p % 10 + 48
        self.digits4 = digits.view(np.uint32).ravel()
        self.zeros4 = np.zeros(10000, np.int64)  # trailing zeros; 4 for 0
        for p in (10, 100, 1000, 10000):
            self.zeros4[::p] += 1
        j = np.arange(17)
        # the '.' A1 ... A16 columns of a cell with X = 0 ... 16, as it prints
        self.dot_shift = np.array([np.where(j < x, j + 1, np.where(j == x, 0, j))
                                   for x in range(17)])
        self.empty = 2 * _FORMS * 17
        masks = np.zeros((self.empty + 1, len(_SLOT)), bool)
        masks[:, 0] = True
        for sign in (0, 1):
            for form in range(_FORMS):
                for digits in range(1, 18):
                    row = masks[(sign * _FORMS + form) * 17 + digits - 1]
                    row[1] = sign
                    x = form - 4
                    if x < 0:
                        row[2:3 - x] = row[_A0] = True
                        row[_A1:_A1 + digits - 1] = True
                        continue
                    point = 0 if form > 20 else x
                    row[_A0:_A0 + point + 1] = True
                    if digits - 1 > point:
                        row[_DOT + point] = True
                        row[_A1 + point:_A1 + digits - 1] = True
                    if form > 20:
                        row[_E] = row[_EXP] = True
                        row[_EXP + 23 - form:_EXP + 4] = True
        self.masks = masks * np.uint8(255)  # 0xff keeps a byte, 0 drops it


@functools.cache
def _decimal_tables():
    return _DecimalTables()


def _decimal_slots(values, slots, t):
    """Write each cell of ``values`` into its slot of ``slots``, the
    (rows, cells, slot) uint8 view of the row buffer that ``values`` fills in
    row-major order, and return the cells' mask keys.  A cell the pass
    cannot decide gets ``t.empty``, whose mask prints its comma alone."""
    a = np.abs(values)
    ok = (a >= _DECIDED_RANGE[0]) & (a <= _DECIDED_RANGE[1])
    if np.count_nonzero(ok) < len(ok):
        a[~ok] = 1.0
    xi = np.floor(np.log10(a)).astype(np.intp)
    xi += _X_OFFSET
    hi = t.hi.take(xi)
    head = t.hi_head.take(xi)
    # Dekker's two-product: p + e == |x| * hi exactly
    p = a * hi
    c = a * _SPLIT
    a_head = c - (c - a)
    a_tail = a - a_head
    tail = hi - head
    e = ((a_head * head - p) + a_head * tail + a_tail * head) + a_tail * tail
    e += a * t.lo.take(xi)  # y = p + e, an integer p and e within 2**-47
    whole = np.floor(e)
    e -= whole
    d = p.astype(np.int64)
    d += whole.astype(np.int64)  # floor(y)
    ok &= d >= 10 ** 16
    ok &= np.abs(e - 0.5) >= DECIMAL_TIE_MARGIN
    d += e > 0.5
    ok &= d < 10 ** 17
    lead = d // 10 ** 16
    d -= lead * 10 ** 16
    groups = np.empty((len(d), 4), np.int64)  # A1 ... A16, four digits each
    for j, scale in enumerate((10 ** 12, 10 ** 8, 10 ** 4)):
        groups[:, j] = d // scale
        d -= groups[:, j] * scale
    groups[:, 3] = d
    zeros = t.zeros4.take(d)
    rest = (d == 0).nonzero()[0]
    for j in (2, 1, 0):
        if not rest.size:
            break
        group = groups.take(rest * 4 + j)
        zeros[rest] += t.zeros4.take(group)
        rest = rest[group == 0]
    keys = t.key_base.take(xi)
    keys -= zeros
    keys += np.signbit(values) * (_FORMS * 17)
    if np.count_nonzero(ok) < len(ok):
        keys[~ok] = t.empty
    shape = slots.shape[:2]
    slots[..., _A0] = (lead + 48).reshape(shape)
    slots[..., _A1:_A1 + 16] = t.digits4.take(groups).view(np.uint8).reshape(shape + (16,))
    slots[..., _EXP:_EXP + 4] = t.exponent.take(xi).view(np.uint8).reshape(shape + (4,))
    wide = ((xi > _X_OFFSET) & (xi <= _X_OFFSET + 16)).nonzero()[0]
    if wide.size:
        rows, cells = np.divmod(wide, shape[1])
        region = slots[rows, cells, _DOT:_A1 + 16]
        shift = t.dot_shift.take(xi.take(wide) - _X_OFFSET, axis=0)
        slots[rows, cells, _DOT:_A1 + 16] = np.take_along_axis(region, shift, axis=1)
    return keys


def _numpy_rows(lo, columns):
    """The trace.csv rows k = lo, lo + 1, ...: ``columns[j][i]`` is cell j
    of row lo + i, and one column leaves the error column blank.

    Every row is written into a (rows, bytes) uint8 buffer as k's digits,
    one slot per cell and the line end; the bytes a row does not print are
    zeroed and deleted in one ``bytes.translate``.  An undecided cell prints
    its comma alone; only when a chunk holds one is its text split into
    lines, and each row holding one is rendered again, cell by cell, by
    :func:`format_float`, which gives a decided cell its numpy bytes."""
    t = _decimal_tables()
    n, cells = len(columns[0]), len(columns) * len(_SLOT)
    kw = 4 * ((len(str(lo + n - 1)) + 3) // 4)  # k's digits, four at a time
    tail = b"\n" if len(columns) == 2 else b",\n"
    buf = np.empty((n, kw + cells + len(tail)), np.uint8)
    buf[:] = np.frombuffer(b"0" * kw + _SLOT * len(columns) + tail, np.uint8)
    values = np.empty((n, len(columns)))
    for i, column in enumerate(columns):
        values[:, i] = column
    slots = buf[:, kw:kw + cells].reshape(n, len(columns), len(_SLOT))
    keys = _decimal_slots(values.ravel(), slots, t)
    slots &= t.masks.take(keys, axis=0).reshape(slots.shape)
    k = np.arange(lo, lo + n)
    for j in range(kw - 4, -1, -4):
        high = k // 10000
        buf[:, j:j + 4] = t.digits4.take(k - high * 10000).view(np.uint8).reshape(n, 4)
        k = high
    for digits in range(1, kw):  # rows whose k has at most this many digits
        buf[:max(10 ** digits - lo, 0), kw - 1 - digits] = 0
    text = buf.tobytes().translate(None, b"\0").decode("ascii")
    undecided = (keys == t.empty).reshape(n, -1).any(axis=1).nonzero()[0]
    if not undecided.size:
        return text
    lines = text.splitlines(keepends=True)
    for i in undecided.tolist():
        rendered = map(format_float, values[i].tolist())
        lines[i] = ",".join([str(lo + i), *rendered]) + tail.decode()
    return "".join(lines)


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
        columns = [trace.residuals[lo - 1:hi - 1]]
        if errors is not None:
            columns.append(errors[lo:hi])
        yield _numpy_rows(lo, columns)


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
