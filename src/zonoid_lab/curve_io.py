"""CSV and JSON serialization for curves, boundaries, and surfaces.

CSV numbers are written with 17 significant digits so doubles round-trip
bit-exactly.  Call curves use the header ``K,C``; boundaries ``p,Chat``.
Surfaces are matrices whose first row is the second-axis values and first
column the times (top-left cell empty); their descriptive metadata travels
in a ``<name>.meta.json`` sidecar.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from typing import Optional, Sequence, TextIO, Tuple, Union

import numpy as np

from .errors import UnsupportedError, ValidationError
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
    """Write aligned columns as CSV with a header row."""
    cols = [np.asarray(c, dtype=np.float64) for c in columns]
    if any(c.ndim != 1 or c.size != cols[0].size for c in cols):
        raise ValidationError("columns must be 1-d and equally long")
    if len(cols) != len(header):
        raise ValidationError("header width must match the column count")
    with _opened(path_or_file, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        for row in zip(*cols):
            writer.writerow([format_float(v) for v in row])


def read_table(path_or_file) -> Tuple[Tuple[str, ...], np.ndarray]:
    """Read a header + float-column CSV; returns (header, columns array)."""
    with _opened(path_or_file, "r") as fh:
        rows = list(csv.reader(fh))
    if not rows or len(rows) < 2:
        raise ValidationError("table must have a header and at least one row")
    header = tuple(rows[0])
    data = np.array([[float(v) for v in row] for row in rows[1:]], dtype=np.float64)
    return header, data.T


# ---------------------------------------------------------------------------
# Curve envelopes
# ---------------------------------------------------------------------------

def curve_to_envelope(obj: Union[CallCurve, ZonoidBoundary]) -> dict:
    """JSON-ready dict for a grid-backed curve or boundary."""
    if isinstance(obj, CallCurve):
        if not obj.is_grid:
            raise UnsupportedError("only grid-backed call curves serialize")
        return {"kind": "call-curve", "mean": obj.mean, "positive": obj.positive,
                "strikes": obj.strikes.tolist(), "values": obj.values.tolist(),
                "provenance": dict(obj.provenance)}
    if isinstance(obj, ZonoidBoundary):
        if not obj.is_grid:
            raise UnsupportedError("only grid-backed boundaries serialize")
        return {"kind": "zonoid-boundary", "mean": obj.mean,
                "probs": obj.probs.tolist(), "values": obj.values.tolist(),
                "provenance": dict(obj.provenance)}
    raise UnsupportedError(f"cannot serialize {type(obj).__name__}")


def envelope_to_curve(env: dict) -> Union[CallCurve, ZonoidBoundary]:
    kind = env.get("kind")
    if kind == "call-curve":
        return CallCurve.from_grid(env["strikes"], env["values"],
                                   mean=env.get("mean"),
                                   positive=bool(env.get("positive", False)),
                                   provenance=env.get("provenance"))
    if kind == "zonoid-boundary":
        return ZonoidBoundary.from_grid(env["probs"], env["values"],
                                        mean=env.get("mean"),
                                        provenance=env.get("provenance"))
    raise ValidationError(f"unknown envelope kind {kind!r}")


def write_curve_json(path_or_file, obj) -> None:
    with _opened(path_or_file, "w") as fh:
        json.dump(curve_to_envelope(obj), fh, indent=2)
        fh.write("\n")


def read_curve_json(path_or_file):
    with _opened(path_or_file, "r") as fh:
        return envelope_to_curve(json.load(fh))


def write_curve_csv(path_or_file, obj) -> None:
    """Grid-backed curve/boundary as two-column CSV with its standard header."""
    if isinstance(obj, CallCurve):
        if not obj.is_grid:
            raise UnsupportedError("only grid-backed call curves serialize")
        write_table(path_or_file, CALL_HEADER, obj.strikes, obj.values)
    elif isinstance(obj, ZonoidBoundary):
        if not obj.is_grid:
            raise UnsupportedError("only grid-backed boundaries serialize")
        write_table(path_or_file, BOUNDARY_HEADER, obj.probs, obj.values)
    else:
        raise UnsupportedError(f"cannot serialize {type(obj).__name__}")


def read_curve_csv(path_or_file, mean: Optional[float] = None,
                   positive: bool = False):
    """Load a two-column CSV back into a CallCurve (header K,C) or
    ZonoidBoundary (header p,Chat)."""
    header, cols = read_table(path_or_file)
    if tuple(header) == CALL_HEADER:
        return CallCurve.from_grid(cols[0], cols[1], mean=mean, positive=positive)
    if tuple(header) == BOUNDARY_HEADER:
        return ZonoidBoundary.from_grid(cols[0], cols[1], mean=mean)
    raise ValidationError(f"unrecognized curve header {header!r}")


# ---------------------------------------------------------------------------
# Surfaces
# ---------------------------------------------------------------------------

def _write_surface_rows(fh, surface: SurfaceGrid) -> None:
    """Matrix CSV rows: first row = axis, first column = times."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow([""] + [format_float(v) for v in surface.axis])
    for t, row in zip(surface.times, surface.values):
        writer.writerow([format_float(t)] + [format_float(v) for v in row])


def write_surface_csv(path: str, surface: SurfaceGrid) -> None:
    """Matrix CSV plus a ``<path>.meta.json`` sidecar carrying axis_kind and
    the generating parameters."""
    with open(path, "w", newline="") as fh:
        _write_surface_rows(fh, surface)
    meta = {"axis_kind": surface.axis_kind}
    meta.update(surface.meta)
    with open(path + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def read_surface_csv(path: str, axis_kind: Optional[str] = None) -> SurfaceGrid:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2 or len(rows[0]) < 2 or rows[0][0] != "":
        raise ValidationError("surface CSV must start with an empty-corner axis row")
    axis = np.array([float(v) for v in rows[0][1:]])
    times = np.array([float(r[0]) for r in rows[1:]])
    values = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    meta = {}
    sidecar = path + ".meta.json"
    if os.path.exists(sidecar):
        with open(sidecar) as fh:
            meta = json.load(fh)
    kind = axis_kind or meta.pop("axis_kind", None)
    if kind is None:
        raise ValidationError("axis_kind needed: pass it or provide the meta sidecar")
    else:
        meta.pop("axis_kind", None)
    return SurfaceGrid(times, axis, values, kind, meta=meta)


def surface_to_string(surface: SurfaceGrid) -> str:
    """Matrix CSV as a string (for stdout use)."""
    buf = io.StringIO()
    _write_surface_rows(buf, surface)
    return buf.getvalue()
