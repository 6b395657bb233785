import dataclasses
import json

import numpy as np
import pytest
from helpers import assert_same_text

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
    return IterationTrace(x0=np.zeros(1), x_final=np.zeros(1), residuals=residuals,
                          norm_spec=L1, k_final=k_final,
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
