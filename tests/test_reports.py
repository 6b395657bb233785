import json

import numpy as np

from fpcert.certify import range_region
from fpcert.iterate import picard
from fpcert.metrics import L1
from fpcert.operators import affine, identity
from fpcert.reports import (
    dumps_json,
    format_float,
    region_csv,
    trace_csv,
    write_json,
    write_trace_csv,
)


class TestFloatFormatting:
    def test_seventeen_digits_round_trip(self):
        values = [0.1, 1.0 / 3.0, 1e-300, 1e300, -2.5e-17, np.pi, 5e-324]
        for v in values:
            assert float(format_float(v)) == v

    def test_integral_floats_stay_compact(self):
        assert format_float(0.0) == "0"
        assert format_float(2.0) == "2"


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


class TestRegionCsv:
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
