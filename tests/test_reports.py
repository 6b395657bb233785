import dataclasses
import json
import math

import numpy as np
import pytest
from helpers import assert_same_text

from fpcert import reports
from fpcert.certify import range_region
from fpcert.iterate import IterationTrace, StopReason, picard
from fpcert.metrics import L1
from fpcert.operators import affine, identity
from fpcert.reports import (
    TRACE_CHUNK_ROWS,
    dumps_json,
    format_float,
    region_csv,
    trace_csv,
    write_json,
    write_trace_csv,
)


def reference_format_float(value):
    """The cell renderer the bulk paths must reproduce."""
    if value != value:
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "Infinity" if value > 0 else "-Infinity"
    return format(float(value), ".17g")


def reference_trace_csv(trace, params=None):
    """trace.csv rendered one row and one cell at a time."""
    lines = [
        f"# operator: {trace.label}",
        f"# norm: {trace.norm_spec.describe()}",
        f"# stop_reason: {trace.stop_reason.value}",
        f"# k_final: {trace.k_final}",
    ]
    if params:
        rendered = ", ".join(
            f"{k}={reference_format_float(v) if isinstance(v, float) else v}"
            for k, v in params.items()
        )
        lines.append(f"# params: {rendered}")
    lines.append("k,residual,error_to_ref")
    errors = trace.errors_to_ref
    for k in range(trace.k_final + 1):
        residual = "" if k == 0 else reference_format_float(trace.residuals[k - 1])
        error = "" if errors is None else reference_format_float(errors[k])
        lines.append(f"{k},{residual},{error}")
    return "\n".join(lines) + "\n"


def reference_region_csv(grid):
    """region.csv rendered one cell at a time."""
    lines = [
        "# range-region membership grid",
        f"# x: {reference_format_float(grid.x[0])} {reference_format_float(grid.x[1])}",
        f"# xhat: {reference_format_float(grid.xhat[0])} "
        f"{reference_format_float(grid.xhat[1])}",
        f"# gamma: {reference_format_float(grid.gamma)}",
        f"# mu: {reference_format_float(grid.mu)}",
        "# bounds: " + " ".join(reference_format_float(b) for b in grid.bounds),
        f"# resolution: {grid.resolution} {grid.resolution}",
        "# rows scan the second coordinate from low to high",
    ]
    for row in grid.mask:
        lines.append(",".join("1" if cell else "0" for cell in row))
    return "\n".join(lines) + "\n"


class TestFloatFormatting:
    def test_seventeen_digits_round_trip(self):
        values = [0.1, 1.0 / 3.0, 1e-300, 1e300, -2.5e-17, np.pi, 5e-324]
        for v in values:
            assert float(format_float(v)) == v

    def test_integral_floats_stay_compact(self):
        assert format_float(0.0) == "0"
        assert format_float(2.0) == "2"

    def test_matches_the_reference_renderer(self):
        values = [0.0, -0.0, 2.0, 0.1, -1.0 / 3.0, 5e-324, 1.7976931348623157e308,
                  float("inf"), float("-inf"), float("nan"), 7, np.float64(0.1),
                  np.float64(np.inf), np.float64(-np.inf), np.float64(np.nan)]
        for v in values:
            assert format_float(v) == reference_format_float(v)


class TestJson:
    def test_deterministic_bytes(self):
        payload = {"a": 0.1, "b": [1, 2.5], "c": {"d": None, "e": True}}
        assert dumps_json(payload) == dumps_json(payload)

    def test_round_trip_through_stdlib_parser(self):
        payload = {"x": [0.1, 1e-300], "label": 'quo"te\nline'}
        parsed = json.loads(dumps_json(payload))
        assert parsed["x"] == [0.1, 1e-300]
        assert parsed["label"] == 'quo"te\nline'

    def test_control_characters_in_keys_and_strings_round_trip(self):
        payload = {"a\tb": "x\x01y", "plain": "caf\u00e9 \\ \"q\""}
        text = dumps_json(payload)
        assert json.loads(text) == payload
        assert '"plain": "caf\u00e9 \\\\ \\"q\\""' in text

    def test_numpy_and_dataclass_coercion(self):
        trace = picard(affine(0.5, [0.0]), [1.0], 5, 0.0)
        text = dumps_json({"resid": trace.residuals, "k": np.int64(3)})
        parsed = json.loads(text)
        assert parsed["resid"] == [0.5, 0.25, 0.125, 0.0625, 0.03125]
        assert parsed["k"] == 3

    @pytest.mark.parametrize("value", [object(), {1.0}, np.bool_(True)],
                             ids=["object", "set", "np.bool_"])
    def test_unsupported_types_raise_naming_the_type(self, value):
        name = type(value).__name__
        with pytest.raises(TypeError, match=f"cannot serialize object of type {name}$"):
            dumps_json({"nested": [value]})

    def test_containers_take_the_stdlib_layout(self):
        # dicts, lists and tuples share one layout, empty ones included
        payload = {"a": [1, "x", True, None, {}], "b": {"c": (2, [], ()), "d": {"e": False}},
                   "": [[[]], [{}], "caf\u00e9", -7], "f": (), "g": {}}
        for obj in (payload, {}, [], (), [{}], ((1,), {"k": [None]}), [[[[0]]]]):
            assert dumps_json(obj) == json.dumps(obj, indent=2, ensure_ascii=False) + "\n"

    def test_tuples_render_as_lists(self):
        assert dumps_json({"t": (1, (2.5, "x")), "e": ()}) == \
            dumps_json({"t": [1, [2.5, "x"]], "e": []})

    def test_numpy_scalars_of_every_width_render_as_numbers(self):
        text = dumps_json([np.float32(0.5), np.int32(7), np.float32(0.1), np.uint8(3)])
        assert json.loads(text) == [0.5, 7, float(np.float32(0.1)), 3]
        assert text == "[\n  0.5,\n  7,\n  0.10000000149011612,\n  3\n]\n"

    def test_non_string_keys_render_as_their_str(self):
        text = dumps_json({1: "a", 2.5: "b", None: "c", np.int64(4): "d"})
        assert json.loads(text) == {"1": "a", "2.5": "b", "None": "c", "4": "d"}

    def test_non_finite_floats_are_null_in_strict_json(self):
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        payload = {"inf": float("inf"), "ninf": -np.inf, "nan": [np.float64("nan")]}
        parsed = json.loads(dumps_json(payload), parse_constant=reject)
        assert parsed == {"inf": None, "ninf": None, "nan": [None]}
        # the CSV rendering keeps its spelling
        assert format_float(float("inf")) == "Infinity"
        assert format_float(float("nan")) == "NaN"

    def test_write_json(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, {"v": 0.1})
        assert json.loads(path.read_text())["v"] == 0.1


class TestTraceCsv:
    def test_columns_and_blanks(self):
        trace = picard(identity(1), [2.0], 5, 0.0)
        text = trace_csv(trace)
        lines = text.strip().splitlines()
        assert "k,residual,error_to_ref" in lines
        assert lines[-2].startswith("0,,")   # no residual at k = 0
        assert lines[-1] == "1,0,"           # no reference column values

    def test_reference_column_present(self):
        trace = picard(affine(0.5, [0.0]), [1.0], 3, 0.0, ref=[0.0])
        rows = [l for l in trace_csv(trace).splitlines() if not l.startswith("#")]
        assert rows[1] == "0,,1"
        assert rows[2].split(",") == ["1", "0.5", "0.5"]

    def test_header_records_norm_and_label(self):
        trace = picard(identity(2), [1.0, 1.0], 2, 0.0, norm_spec=L1)
        text = trace_csv(trace, params={"beta": 0.25})
        assert "# norm: l1" in text
        assert "# operator: identity" in text
        assert "# params: beta=0.25" in text

    def test_round_trip_values(self, tmp_path):
        trace = picard(affine(1.0 / 3.0, [0.0]), [1.0], 6, 0.0)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        rows = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        parsed = [float(r.split(",")[1]) for r in rows[2:]]
        np.testing.assert_array_equal(parsed, trace.residuals)


def _long_trace():
    return picard(affine(0.999, [0.001, -0.002]), [1.0, 2.0],
                  2 * TRACE_CHUNK_ROWS + 5, ref=[1.0, -2.0])


def _late_infinity_trace():
    # non-finite cells in the second chunk only, after finite ones
    k_final = TRACE_CHUNK_ROWS + 10
    residuals = np.linspace(1.0, 2.0, k_final)
    residuals[-1] = np.inf
    errors = np.linspace(3.0, 4.0, k_final + 1)
    errors[TRACE_CHUNK_ROWS + 3] = np.nan
    return IterationTrace(x_final=np.zeros(1), residuals=residuals, norm_spec=L1,
                          stop_reason=StopReason.DIVERGED, errors_to_ref=errors)


TRACES = {
    "converged": lambda: picard(affine(0.5, [1.0, -1.0, 0.5]), [0.0, 0.0, 0.0], 500,
                                res_tol=1e-12, ref=[2.0, -2.0, 1.0]),
    "no_reference": lambda: picard(affine(0.9, [0.1]), [1.0], 300, res_tol=1e-9),
    # |x_k - x_{k-1}| overflows while the iterates stay finite
    "diverged_infinity": lambda: picard(affine(-1.0, [0.0]), [1.7e308], 10, ref=[0.0]),
    "one_step": lambda: picard(identity(1), [2.0], 5, 0.0),
    "longer_than_a_chunk": _long_trace,
    "late_infinity": _late_infinity_trace,
}


class TestTraceBytes:
    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_trace_csv_matches_the_row_renderer(self, name, tmp_path):
        trace = TRACES[name]()
        params = {"beta": 0.1, "eta": 1.0 / 3.0, "note": "x"}
        expected = reference_trace_csv(trace, params)
        assert_same_text(trace_csv(trace, params), expected)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace, params)
        assert_same_text(path.read_bytes().decode("utf-8"), expected)

    def test_the_cases_cover_what_they_name(self):
        traces = {name: make() for name, make in TRACES.items()}
        assert traces["converged"].stop_reason is StopReason.RESIDUAL_TOL
        assert traces["no_reference"].errors_to_ref is None
        diverged = traces["diverged_infinity"]
        assert diverged.stop_reason is StopReason.DIVERGED
        assert np.isinf(diverged.residuals).all()
        assert "Infinity" in trace_csv(diverged)
        assert traces["one_step"].k_final == 1
        assert traces["longer_than_a_chunk"].k_final > 2 * TRACE_CHUNK_ROWS


def _powers_of_ten():
    values = []
    for k in range(-307, 308):
        p = float(f"1e{k}")
        values += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
    return np.array(values + [-v for v in values])


def _log_uniform():
    rng = np.random.default_rng(23)
    values = 10.0 ** rng.uniform(-323, 308, 200_000)
    return np.where(rng.random(values.size) < 0.5, -values, values)


def _bit_patterns():
    rng = np.random.default_rng(24)
    return rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64).view(np.float64)


CELL_VALUES = {
    # subnormals included
    "powers_of_two": lambda: np.array([math.ldexp(1.0, k) for k in range(-1074, 1024)]),
    "powers_of_ten_and_neighbours": _powers_of_ten,
    "zeros_and_least_subnormal": lambda: np.array([0.0, -0.0, 5e-324, -5e-324]),
    # where %.17g switches between fixed and scientific forms
    "switch_points": lambda: np.array([1e-5, 9.9999999999999995e-05, 1e-4, 1e16, 1e17,
                                       99999999999999999.0, 9999999999999998.0]),
    "integers_and_eighths": lambda: np.concatenate(
        [[2.0 ** 53 + 2], np.arange(3000.0), np.arange(3000) / 8.0]),
    # 18-digit values whose 17-digit rounding is an exact tie, and near ties
    "ties": lambda: np.concatenate([1e15 + np.arange(500) + 0.25,
                                    1e15 + np.arange(500) + 0.75,
                                    np.nextafter(1e15 + np.arange(500) + 0.25, 0.0)]),
    "log_uniform": _log_uniform,
    "bit_patterns": _bit_patterns,
}


def reference_rows(lo, columns):
    """Rows k = lo, lo + 1, ... with one cell of each column, rendered one
    cell at a time; a single column leaves the error column blank."""
    rows = []
    for i, cells in enumerate(zip(*columns)):
        rendered = [reference_format_float(c) for c in cells] + [""] * (2 - len(cells))
        rows.append(f"{lo + i},{rendered[0]},{rendered[1]}\n")
    return "".join(rows)


def _trace(residuals, errors):
    return IterationTrace(x_final=np.zeros(1), residuals=residuals, norm_spec=L1,
                          stop_reason=StopReason.MAX_ITER, errors_to_ref=errors)


def _mixed_cells(count, seed):
    """Cells of every form: fixed and scientific, 1e-4 <= |x| < 1 and
    10 <= |x| < 1e17, negatives, zeros and values the numpy pass hands back."""
    rng = np.random.default_rng(seed)
    values = 10.0 ** rng.uniform(-30, 20, count)
    values[rng.random(count) < 0.1] *= -1
    values[rng.random(count) < 0.02] = 0.0
    values[rng.random(count) < 0.02] = 1e-300
    return values


class TestNumpyCells:
    @pytest.mark.parametrize("name", sorted(CELL_VALUES))
    def test_cells_match_the_cell_renderer(self, name):
        values = CELL_VALUES[name]()
        # each value is a residual on one row and an error on another
        errors = values[::-1].copy()
        for lo in range(1, len(values) + 1, TRACE_CHUNK_ROWS):
            chunk = slice(lo - 1, lo - 1 + TRACE_CHUNK_ROWS)
            columns = [values[chunk], errors[chunk]]
            assert_same_text(reports._numpy_rows(lo, columns), reference_rows(lo, columns))

    @pytest.mark.parametrize("digits", range(1, 13))
    def test_rows_across_a_change_in_the_digits_of_k(self, digits):
        lo = max(1, 10 ** digits - 40)
        columns = [_mixed_cells(80, digits), _mixed_cells(80, digits + 100)]
        assert_same_text(reports._numpy_rows(lo, columns), reference_rows(lo, columns))
        assert_same_text(reports._numpy_rows(lo, columns[:1]),
                         reference_rows(lo, columns[:1]))

    @pytest.mark.parametrize("rows", range(1, 101))
    def test_every_short_chunk_is_the_percent_template(self, rows):
        # every chunk, however short, goes through the numpy pass; k starts
        # at 1 and just below a change in its digit count
        residuals = _mixed_cells(rows, rows)
        errors = _mixed_cells(rows, rows + 1000)
        for lo in (1, max(1, 10 ** (1 + rows % 6) - rows // 2)):
            ks = range(lo, lo + rows)
            assert_same_text(
                reports._numpy_rows(lo, [residuals, errors]),
                "".join("%d,%.17g,%.17g\n" % c for c in zip(ks, residuals, errors)))
            assert_same_text(reports._numpy_rows(lo, [residuals]),
                             "".join("%d,%.17g,\n" % c for c in zip(ks, residuals)))
        # and a non-finite cell is spliced in as format_float renders it
        residuals[rows // 2] = [np.inf, np.nan, -np.inf][rows % 3]
        errors[-1] = [np.nan, -np.inf, np.inf][rows % 3]
        for columns in ([residuals, errors], [residuals]):
            assert_same_text(reports._numpy_rows(lo, columns), reference_rows(lo, columns))
        trace = _trace(residuals, np.concatenate([[0.5], errors]))
        assert_same_text(trace_csv(trace), reference_trace_csv(trace))

    def test_k_digit_edges_of_a_long_trace(self):
        # k crosses 10, 100, ..., 100000 inside numpy-rendered chunks
        residuals = _mixed_cells(100_005, 1)
        errors = _mixed_cells(100_006, 2)
        for trace in (_trace(residuals, errors), _trace(residuals, None)):
            assert_same_text(trace_csv(trace), reference_trace_csv(trace))

    @pytest.mark.parametrize("k_final", sorted({
        1, 79, 80, 81,
        TRACE_CHUNK_ROWS - 1, TRACE_CHUNK_ROWS, TRACE_CHUNK_ROWS + 1,
        TRACE_CHUNK_ROWS + 79, TRACE_CHUNK_ROWS + 80, TRACE_CHUNK_ROWS + 81}))
    @pytest.mark.parametrize("with_errors", [True, False], ids=["errors", "blank_errors"])
    def test_chunk_and_cutoff_edges(self, k_final, with_errors):
        residuals = _mixed_cells(k_final, k_final)
        errors = _mixed_cells(k_final + 1, k_final + 1) if with_errors else None
        trace = _trace(residuals, errors)
        assert_same_text(trace_csv(trace), reference_trace_csv(trace))

    @pytest.mark.parametrize("rows", [79, 80, TRACE_CHUNK_ROWS])
    def test_non_finite_cells_inside_a_chunk(self, rows):
        residuals = _mixed_cells(rows, 5)
        errors = _mixed_cells(rows, 6)
        middle = rows // 2
        residuals[[1, middle, middle + 1]] = [np.inf, np.nan, -np.inf]
        errors[[middle - 1, middle, rows - 2]] = [np.nan, np.inf, -np.inf]
        text = reports._numpy_rows(7, [residuals, errors])
        assert_same_text(text, reference_rows(7, [residuals, errors]))
        assert "inf" not in text and "nan" not in text
        assert_same_text(reports._numpy_rows(7, [residuals]),
                         reference_rows(7, [residuals]))

    def test_an_exponent_guess_off_by_one_falls_back(self, monkeypatch):
        # np.log10 may be a few ulps off; a guess of X one too high or one
        # too low must leave the cell to format_float, not print it wrong
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + np.arange(a.size) % 3 - 1)
        columns = [_mixed_cells(300, 11), _mixed_cells(300, 12)]
        assert_same_text(reports._numpy_rows(1, columns), reference_rows(1, columns))


class TestRegionCsv:
    def test_matches_the_cell_renderer(self):
        grid = range_region([1.0, 0.3], [0.0, 0.1], 2.0, 1.0, resolution=37)
        assert 0 < grid.mask.sum() < grid.mask.size
        assert region_csv(grid) == reference_region_csv(grid)

    @pytest.mark.parametrize("resolution", [2, 3, 201, 268, 401])
    @pytest.mark.parametrize("fill", ["region", "all_true", "all_false", "random"])
    def test_matches_the_cell_renderer_on_any_mask(self, resolution, fill):
        grid = range_region([1.0, 0.3], [0.0, 0.1], 1.5, 0.5, resolution=resolution)
        shape = grid.mask.shape
        mask = {
            "region": grid.mask,
            "all_true": np.ones(shape, dtype=bool),
            "all_false": np.zeros(shape, dtype=bool),
            "random": np.random.default_rng(resolution).random(shape) < 0.5,
        }[fill]
        grid = dataclasses.replace(grid, mask=mask)
        assert region_csv(grid) == reference_region_csv(grid)

    def test_header_and_cells(self):
        grid = range_region([1.0, 0.0], [0.0, 0.0], 2.0, 1.0, resolution=5)
        text = region_csv(grid)
        lines = text.strip().splitlines()
        assert lines[0] == "# range-region membership grid"
        assert any(l.startswith("# gamma: 2") for l in lines)
        assert any(l.startswith("# resolution: 5 5") for l in lines)
        cells = [l for l in lines if not l.startswith("#")]
        assert len(cells) == 5
        assert all(set(c.split(",")) <= {"0", "1"} for c in cells)

    def test_matches_mask(self):
        grid = range_region([1.0, 0.0], [0.0, 0.0], 2.0, 1.0, resolution=8)
        cells = [l for l in region_csv(grid).splitlines() if not l.startswith("#")]
        parsed = np.array([[c == "1" for c in row.split(",")] for row in cells])
        np.testing.assert_array_equal(parsed, grid.mask)
