"""The package's one output path: CSV and JSON for curves, boundaries,
surfaces and reports, each writer taking a path or an open file.

CSV numbers are written with 17 significant digits so doubles round-trip
bit-exactly.  Call curves use the header ``K,C``; boundaries ``p,Chat``.
Surfaces are matrices whose first row is the second-axis values and first
column the times (top-left cell empty); written to a path, their metadata
travels in a ``<name>.meta.json`` sidecar.  JSON follows ``numerics.jsonable``;
a call-curve envelope's ``positive`` is ``CallCurve.positive``, ignored on read.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from typing import Optional, Sequence, TextIO, Tuple, Union

import numpy as np

from .errors import UnsupportedError, ValidationError
from .numerics import jsonable
from .peacocks import SurfaceGrid
from .zonoid import CallCurve, ZonoidBoundary

CALL_HEADER = ("K", "C")
BOUNDARY_HEADER = ("p", "Chat")


def format_float(x: float) -> str:
    return "%.17g" % float(x)


@contextlib.contextmanager
def _opened(path_or_file: Union[str, TextIO], mode: str):
    """An open file as it is, else the path opened in ``mode`` and closed on exit."""
    if hasattr(path_or_file, "read" if mode == "r" else "write"):
        yield path_or_file
    else:
        with open(path_or_file, mode, newline="") as fh:
            yield fh


def write_table(path_or_file, header: Sequence[str], *columns) -> None:
    """Write aligned columns as CSV with a header row: float columns at 17
    significant digits, string columns as they are."""
    cols = [np.asarray(c) for c in columns]
    if any(c.ndim != 1 or c.size != cols[0].size for c in cols):
        raise ValidationError("columns must be 1-d and equally long")
    if len(cols) != len(header):
        raise ValidationError("header width must match the column count")
    cells = [c.tolist() if c.dtype.kind == "U" else [format_float(v) for v in c]
             for c in cols]
    with _opened(path_or_file, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        writer.writerows(zip(*cells))


def write_json(path_or_file, obj) -> None:
    """A report, envelope or dict as indented JSON, by ``numerics.jsonable``."""
    with _opened(path_or_file, "w") as fh:
        json.dump(jsonable(obj), fh, indent=2)
        fh.write("\n")


def _number(cell: str, line: int, col: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ValidationError(f"line {line}, cell {col}: {cell!r} is not a number") from None


def read_table(path_or_file) -> Tuple[Tuple[str, ...], np.ndarray]:
    """Read a header + float-column CSV; returns (header, columns array).  A
    ragged row or a cell that is not a number is a ValidationError naming it."""
    with _opened(path_or_file, "r") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ValidationError("table must have a header and at least one row")
    header = tuple(rows[0])
    for line, row in enumerate(rows[1:], 2):
        if len(row) != len(header):
            raise ValidationError(f"line {line} has {len(row)} cells, the header has {len(header)}")
    data = np.array([[_number(v, line, col) for col, v in enumerate(row, 1)]
                     for line, row in enumerate(rows[1:], 2)], dtype=np.float64)
    return header, data.T


# ---------------------------------------------------------------------------
# Curve envelopes
# ---------------------------------------------------------------------------

def _grid_form(obj) -> Tuple[str, str, Tuple[str, str]]:
    """(envelope kind, abscissa attribute, CSV header) of a grid curve."""
    if isinstance(obj, CallCurve):
        form = ("call-curve", "strikes", CALL_HEADER)
    elif isinstance(obj, ZonoidBoundary):
        form = ("zonoid-boundary", "probs", BOUNDARY_HEADER)
    else:
        raise UnsupportedError(f"cannot serialize {type(obj).__name__}")
    if not obj.is_grid:
        raise UnsupportedError(f"only a grid-backed {form[0]} serializes")
    return form


def curve_to_envelope(obj: Union[CallCurve, ZonoidBoundary]) -> dict:
    """JSON-ready dict for a grid-backed curve or boundary."""
    kind, axis, _ = _grid_form(obj)
    positive = {"positive": obj.positive} if kind == "call-curve" else {}
    return {"kind": kind, "mean": obj.mean, **positive, axis: getattr(obj, axis).tolist(),
            "values": obj.values.tolist(), "provenance": dict(obj.provenance)}


def envelope_to_curve(env: dict) -> Union[CallCurve, ZonoidBoundary]:
    kind = env.get("kind")
    if kind == "call-curve":
        return CallCurve.from_grid(env["strikes"], env["values"], mean=env.get("mean"),
                                   provenance=env.get("provenance"))
    if kind == "zonoid-boundary":
        return ZonoidBoundary.from_grid(env["probs"], env["values"],
                                        mean=env.get("mean"),
                                        provenance=env.get("provenance"))
    raise ValidationError(f"unknown envelope kind {kind!r}")


def write_curve_json(path_or_file, obj) -> None:
    write_json(path_or_file, curve_to_envelope(obj))


def read_curve_json(path_or_file):
    with _opened(path_or_file, "r") as fh:
        return envelope_to_curve(json.load(fh))


def write_curve_csv(path_or_file, obj) -> None:
    """Grid-backed curve/boundary as two-column CSV with its standard header."""
    _, axis, header = _grid_form(obj)
    write_table(path_or_file, header, getattr(obj, axis), obj.values)


def read_curve_csv(path_or_file, mean: Optional[float] = None):
    """Load a two-column CSV back into a CallCurve (header K,C) or
    ZonoidBoundary (header p,Chat)."""
    header, cols = read_table(path_or_file)
    if tuple(header) == CALL_HEADER:
        return CallCurve.from_grid(cols[0], cols[1], mean=mean)
    if tuple(header) == BOUNDARY_HEADER:
        return ZonoidBoundary.from_grid(cols[0], cols[1], mean=mean)
    raise ValidationError(f"unrecognized curve header {header!r}")


# ---------------------------------------------------------------------------
# Surfaces
# ---------------------------------------------------------------------------

def write_surface_csv(path_or_file, surface: SurfaceGrid) -> None:
    """Matrix CSV (first row the axis, first column the times); written to a
    path, also a ``<path>.meta.json`` sidecar carrying axis_kind and the
    generating parameters."""
    write_table(path_or_file, [""] + [format_float(v) for v in surface.axis],
                surface.times, *surface.values.T)
    if isinstance(path_or_file, str):
        write_json(path_or_file + ".meta.json",
                   {"axis_kind": surface.axis_kind, **surface.meta})


def read_surface_csv(path: str, axis_kind: Optional[str] = None) -> SurfaceGrid:
    header, cols = read_table(path)
    if len(header) < 2 or header[0] != "":
        raise ValidationError("surface CSV must start with an empty-corner axis row")
    meta = {}
    sidecar = path + ".meta.json"
    if os.path.exists(sidecar):
        with open(sidecar) as fh:
            meta = json.load(fh)
    kind = axis_kind or meta.get("axis_kind")
    meta.pop("axis_kind", None)
    if kind is None:
        raise ValidationError("axis_kind needed: pass it or provide the meta sidecar")
    axis = np.array([_number(v, 1, col) for col, v in enumerate(header[1:], 2)])
    return SurfaceGrid(cols[0], axis, cols[1:].T, kind, meta=meta)

