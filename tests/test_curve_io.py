"""Serialization tests: 17-significant-digit CSV bit-exactness, JSON
envelopes, and surface sidecars."""

import io
import json

import numpy as np
import pytest

from zonoid_lab import curve_io
from zonoid_lab.densities import DensityModel
from zonoid_lab.errors import UnsupportedError, ValidationError
from zonoid_lab.peacocks import PeacockSpec, SurfaceGrid, TimeChange, boundary_surface
from zonoid_lab.pricing import ModelParams, black_scholes_curve
from zonoid_lab.zonoid import CallCurve, ZonoidBoundary, upper_boundary_from_calls


def grid_curve():
    ks = np.linspace(-2.0, 2.0, 41)
    vals = np.maximum(0.3 - ks, 0.0) * 0.5 + np.maximum(-ks, 0.0) * 0.5
    return CallCurve.from_grid(ks, vals, mean=0.15, provenance={"kind": "test"})


def test_format_float_round_trips_doubles():
    for x in (1 / 3, np.pi, 1e-300, -2.5000000000000004, 0.1 + 0.2):
        assert float(curve_io.format_float(x)) == x


def test_table_round_trip_bit_exact():
    buf = io.StringIO()
    a = np.linspace(-1, 1, 17) / 3.0
    b = np.sqrt(np.abs(a))
    curve_io.write_table(buf, ("x", "y"), a, b)
    header, cols = curve_io.read_table(io.StringIO(buf.getvalue()))
    assert header == ("x", "y")
    assert np.array_equal(cols[0], a)
    assert np.array_equal(cols[1], b)


def test_table_validation():
    buf = io.StringIO()
    with pytest.raises(ValidationError):
        curve_io.write_table(buf, ("x",), np.arange(3.0), np.arange(3.0))
    with pytest.raises(ValidationError):
        curve_io.write_table(buf, ("x", "y"), np.arange(3.0), np.arange(4.0))
    with pytest.raises(ValidationError):
        curve_io.read_table(io.StringIO("x,y\n"))


def test_curve_csv_round_trip():
    curve = grid_curve()
    buf = io.StringIO()
    curve_io.write_curve_csv(buf, curve)
    text = buf.getvalue()
    assert text.splitlines()[0] == "K,C"
    loaded = curve_io.read_curve_csv(io.StringIO(text), mean=curve.mean)
    assert isinstance(loaded, CallCurve)
    assert np.array_equal(loaded.values, curve.values)


def test_boundary_csv_round_trip():
    boundary = upper_boundary_from_calls(grid_curve(), np.linspace(0, 1, 21))
    buf = io.StringIO()
    curve_io.write_curve_csv(buf, boundary)
    assert buf.getvalue().splitlines()[0] == "p,Chat"
    loaded = curve_io.read_curve_csv(io.StringIO(buf.getvalue()))
    assert isinstance(loaded, ZonoidBoundary)
    assert np.array_equal(loaded.values, boundary.values)


def test_read_curve_csv_rejects_unknown_header():
    with pytest.raises(ValidationError):
        curve_io.read_curve_csv(io.StringIO("a,b\n1,2\n"))


def test_json_envelope_round_trip():
    curve = grid_curve()
    buf = io.StringIO()
    curve_io.write_curve_json(buf, curve)
    env = json.loads(buf.getvalue())
    assert env["kind"] == "call-curve"
    assert env["mean"] == 0.15
    assert env["provenance"] == {"kind": "test"}
    loaded = curve_io.read_curve_json(io.StringIO(buf.getvalue()))
    assert np.array_equal(loaded.values, curve.values)
    assert loaded.mean == curve.mean


def test_envelope_rejects_fn_backed_and_unknown():
    fn_curve = black_scholes_curve(ModelParams(1.0, 1.0, 1.0))
    with pytest.raises(UnsupportedError):
        curve_io.curve_to_envelope(fn_curve)
    with pytest.raises(UnsupportedError):
        curve_io.curve_to_envelope(3.14)
    with pytest.raises(ValidationError):
        curve_io.envelope_to_curve({"kind": "mystery"})


def test_surface_round_trip_with_sidecar(tmp_path):
    spec = PeacockSpec("linear", DensityModel.gaussian(), 0.0, TimeChange.sqrt())
    surf = boundary_surface(spec, np.array([0.5, 1.0, 2.0]),
                            np.linspace(0.0, 1.0, 7))
    path = str(tmp_path / "surf.csv")
    curve_io.write_surface_csv(path, surf)
    loaded = curve_io.read_surface_csv(path)
    assert np.array_equal(loaded.values, surf.values)
    assert np.array_equal(loaded.times, surf.times)
    assert np.array_equal(loaded.axis, surf.axis)
    assert loaded.axis_kind == "zonoid-space"
    assert loaded.meta["family"] == "linear"


def test_surface_without_sidecar_needs_axis_kind(tmp_path):
    grid = SurfaceGrid(np.array([1.0, 2.0]), np.array([0.0, 0.5, 1.0]),
                       np.zeros((2, 3)), "call-space", {})
    path = str(tmp_path / "surf.csv")
    curve_io.write_surface_csv(path, grid)
    (tmp_path / "surf.csv.meta.json").unlink()
    with pytest.raises(ValidationError):
        curve_io.read_surface_csv(path)
    loaded = curve_io.read_surface_csv(path, axis_kind="call-space")
    assert loaded.axis_kind == "call-space"


def test_surface_to_an_open_file_has_no_sidecar(tmp_path):
    grid = SurfaceGrid(np.array([1.0, 2.0]), np.array([0.0, 1.0]),
                       np.array([[1.0, 2.0], [3.0, 4.0]]), "call-space", {"s": 1.0})
    path = tmp_path / "surf.csv"
    curve_io.write_surface_csv(str(path), grid)
    buf = io.StringIO()
    curve_io.write_surface_csv(buf, grid)
    assert buf.getvalue() == path.read_text() == ",0,1\n1,1,2\n2,3,4\n"
    assert json.loads((tmp_path / "surf.csv.meta.json").read_text()) == {
        "axis_kind": "call-space", "s": 1.0}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["surf.csv", "surf.csv.meta.json"]


def test_table_with_a_string_column():
    buf = io.StringIO()
    curve_io.write_table(buf, ("t", "method"), [1.0, 0.1 + 0.2], ["closed-form", "fd-calls"])
    assert buf.getvalue() == "t,method\n1,closed-form\n0.30000000000000004,fd-calls\n"


def test_write_json_follows_the_package_rule():
    buf = io.StringIO()
    curve_io.write_json(buf, {"x": np.array([1.5, np.nan]), "w": (1.0, 2.0), "n": np.int64(3)})
    assert buf.getvalue() == json.dumps({"x": [1.5, None], "w": [1.0, 2.0], "n": 3},
                                        indent=2) + "\n"


def test_surface_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,4\n")
    with pytest.raises(ValidationError):
        curve_io.read_surface_csv(str(path), axis_kind="call-space")


@pytest.mark.parametrize("text,message", [
    ("p,Chat\n0,abc\n1,1\n", r"line 2, cell 2: 'abc' is not a number"),
    ("K,C\n0,1\n1,\n", r"line 3, cell 2: '' is not a number"),
    ("p,Chat\n0,0\n1\n", r"line 3 has 1 cells, the header has 2"),
    ("p,Chat\n0,0,7\n1,1\n", r"line 2 has 3 cells, the header has 2"),
], ids=["word", "empty-cell", "short-row", "long-row"])
def test_malformed_table_names_the_line_and_cell(text, message):
    with pytest.raises(ValidationError, match=message):
        curve_io.read_table(io.StringIO(text))
    with pytest.raises(ValidationError, match=message):
        curve_io.read_curve_csv(io.StringIO(text))


def test_surface_header_must_be_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(",0.5,x1\n0,1,2\n")
    with pytest.raises(ValidationError, match=r"line 1, cell 3: 'x1' is not a number"):
        curve_io.read_surface_csv(str(path), axis_kind="call-space")
