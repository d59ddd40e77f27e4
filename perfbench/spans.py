"""Span tracing around the public functions of ``zonoid_lab``.

Spans are recorded only from the benchmark's side: for the traced cycles the
named public functions and methods are replaced, in their defining module
and at every sibling-module binding of the same object, by a wrapper that
opens a span, calls the original and closes the span.  Untraced cycles run
with the originals restored, so they carry no tracing cost.

A span is ``[name, start, end, parent, op, attrs]``.  Spans are kept in
memory and written out once, when the benchmark ends.  Only the main thread
records spans; the Monte Carlo worker threads call nothing that is wrapped.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time

import numpy as np

_now = time.perf_counter


class Tracer:
    """In-memory span recorder with one open-span stack."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.evaluator_calls = 0
        self._main = threading.get_ident()
        self._saved = []

    # -- spans ------------------------------------------------------------

    def recording(self) -> bool:
        return self.op is not None and threading.get_ident() == self._main

    def open(self, name, attrs=None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, _now(), None, parent, self.op, attrs])
        self.stack.append(idx)
        return idx

    def close(self, idx) -> None:
        self.spans[idx][2] = _now()
        self.stack.pop()

    def begin_op(self, op_id, kind) -> None:
        self.op = op_id
        self.open("op." + kind)

    def end_op(self) -> None:
        self.close(self.stack[-1])
        self.op = None

    def counted(self, fn):
        """An evaluator callable that counts its calls (custom densities)."""
        def evaluator(x):
            self.evaluator_calls += 1
            return fn(x)
        return evaluator

    # -- instrumentation --------------------------------------------------

    def install(self) -> None:
        """Replace every target in ``_TARGETS`` by its tracing wrapper."""
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "zonoid_lab" or name.startswith("zonoid_lab."))]
        for mod_name, attr, span, hook in _TARGETS:
            owner = sys.modules["zonoid_lab." + mod_name]
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(span, orig, hook))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(span, orig, hook)
            for mod in mods:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, name, orig))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._saved):
            setattr(owner, name, orig)
        self._saved.clear()

    def _wrap(self, span, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording():
                return fn(*args, **kwargs)
            attrs = {}
            if hook is not None:
                args, kwargs = hook.before(tracer, attrs, args, kwargs)
            idx = tracer.open(span, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook.after(tracer, attrs, args, kwargs, result)
            return result

        return wrapper

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "attrs"],
                       "spans": self.spans}, fh)
            fh.write("\n")


# ---------------------------------------------------------------------------
# Hooks: attributes taken from arguments and results at the call boundary
# ---------------------------------------------------------------------------

class _Hook:
    def before(self, tracer, attrs, args, kwargs):
        return args, kwargs

    def after(self, tracer, attrs, args, kwargs, result):
        pass


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class _Transform(_Hook):
    """Grid-backed or closed-form input, and node x grid pairs for grids."""

    def __init__(self, nodes_attr):
        self.nodes_attr = nodes_attr

    def before(self, tracer, attrs, args, kwargs):
        obj = args[0]
        grid = _arg(args, kwargs, 1, "pgrid" if self.nodes_attr == "strikes" else "kgrid")
        attrs["grid"] = bool(obj.is_grid)
        if obj.is_grid:
            m = 2001 if grid is None else int(np.size(grid))
            attrs["pairs"] = int(getattr(obj, self.nodes_attr).size) * m
        return args, kwargs


class _Project(_Hook):
    def before(self, tracer, attrs, args, kwargs):
        attrs["points"] = int(np.size(args[0]))
        return args, kwargs

    def after(self, tracer, attrs, args, kwargs, result):
        attrs["distance"] = float(result[1])


class _CountFn(_Hook):
    """Counts calls of the objective passed as the first argument."""

    def before(self, tracer, attrs, args, kwargs):
        attrs["evals"] = 0
        fn = args[0]

        def counted(x):
            attrs["evals"] += 1
            return fn(x)

        return (counted,) + tuple(args[1:]), kwargs


class _Inverse(_Hook):
    """Built-in or custom model, elements inverted, evaluator calls made."""

    def __init__(self, pos):
        self.pos = pos

    def before(self, tracer, attrs, args, kwargs):
        attrs["custom"] = args[0].family == "custom"
        attrs["elements"] = int(np.size(args[self.pos]))
        attrs["eval0"] = tracer.evaluator_calls
        return args, kwargs

    def after(self, tracer, attrs, args, kwargs, result):
        attrs["evals"] = tracer.evaluator_calls - attrs.pop("eval0")


class _Strikes(_Hook):
    def before(self, tracer, attrs, args, kwargs):
        attrs["strikes"] = int(np.size(_arg(args, kwargs, 3, "k")))
        return args, kwargs


class _Certify(_Hook):
    def after(self, tracer, attrs, args, kwargs, result):
        tgrid = args[1]
        pgrid = _arg(args, kwargs, 2, "pgrid")
        n_p = 2001 if pgrid is None else int(np.size(pgrid))
        n_k = int(_arg(args, kwargs, 3, "n_strikes", 2001))
        attrs["kellerer_pairs"] = 0 if result.kellerer.skipped else int(np.size(tgrid)) * n_k * n_p


class _Simulate(_Hook):
    def before(self, tracer, attrs, args, kwargs):
        from zonoid_lab import mc
        n = int(args[0].n_paths)
        attrs["paths"] = n
        attrs["workers"] = mc._worker_count(n)
        return args, kwargs


class _Io(_Hook):
    """Bytes moved: the file size for a path, the position change for a handle."""

    def before(self, tracer, attrs, args, kwargs):
        target = args[0]
        if hasattr(target, "tell") and target.seekable():
            attrs["pos0"] = target.tell()
        return args, kwargs

    def after(self, tracer, attrs, args, kwargs, result):
        target = args[0]
        if isinstance(target, str):
            size = os.path.getsize(target)
            if os.path.exists(target + ".meta.json"):
                size += os.path.getsize(target + ".meta.json")
            attrs["bytes"] = size
        elif "pos0" in attrs:
            attrs["bytes"] = target.tell() - attrs.pop("pos0")


# (module, attribute, span name, hook).  "Class.method" patches the class.
_TARGETS = [
    ("zonoid", "upper_boundary_from_calls", "zonoid.upper_boundary_from_calls", _Transform("strikes")),
    ("zonoid", "calls_from_upper_boundary", "zonoid.calls_from_upper_boundary", _Transform("probs")),
    ("zonoid", "project_convex_decreasing", "zonoid.project_convex_decreasing", _Project()),
    ("zonoid", "CallCurve.validate", "zonoid.CallCurve.validate", None),
    ("zonoid", "ZonoidBoundary.validate", "zonoid.ZonoidBoundary.validate", None),
    ("numerics", "monotone_root", "numerics.monotone_root", _CountFn()),
    ("numerics", "golden_section_min", "numerics.golden_section_min", _CountFn()),
    ("densities", "inverse_log_slope", "densities.inverse_log_slope", _Inverse(1)),
    ("densities", "inverse_ratio", "densities.inverse_ratio", _Inverse(2)),
    ("pricing", "family_call_linear", "pricing.family_call", _Strikes()),
    ("pricing", "family_call_linear_with_flag", "pricing.family_call", _Strikes()),
    ("pricing", "family_call_geometric", "pricing.family_call", _Strikes()),
    ("pricing", "family_call_geometric_with_flag", "pricing.family_call", _Strikes()),
    ("pricing", "survival_linear", "pricing.survival", None),
    ("pricing", "survival_geometric", "pricing.survival", None),
    ("pricing", "survival", "pricing.survival", None),
    ("peacocks", "certify_peacock", "peacocks.certify_peacock", _Certify()),
    ("peacocks", "surface_boundary", "peacocks.surface_boundary", None),
    ("peacocks", "boundary_surface", "peacocks.boundary_surface", None),
    ("peacocks", "call_surface", "peacocks.call_surface", None),
    ("peacocks", "recover_F_from_G", "peacocks.recover_F_from_G", None),
    ("implied", "implied_y_root", "implied.implied_y_root", None),
    ("implied", "implied_y_minimization", "implied.implied_y_minimization", None),
    ("implied", "vega_integral", "implied.vega_integral", None),
    ("implied", "normalized_call", "implied.normalized_call", None),
    ("localvol", "localvol_linear_closed", "localvol.closed", None),
    ("localvol", "localvol_geometric_closed", "localvol.closed", None),
    ("mc", "simulate_terminal", "mc.simulate_terminal", _Simulate()),
    ("mc", "empirical_call_curve", "mc.empirical_call_curve", None),
    ("mc", "mc_check_propositions", "mc.mc_check_propositions", None),
    ("mc", "mc_call", "mc.mc_call", None),
    ("curve_io", "write_table", "curve_io.write", _Io()),
    ("curve_io", "write_curve_json", "curve_io.write", _Io()),
    ("curve_io", "write_curve_csv", "curve_io.write", _Io()),
    ("curve_io", "write_surface_csv", "curve_io.write", _Io()),
    ("curve_io", "read_table", "curve_io.read", _Io()),
    ("curve_io", "read_curve_json", "curve_io.read", _Io()),
    ("curve_io", "read_curve_csv", "curve_io.read", _Io()),
    ("curve_io", "read_surface_csv", "curve_io.read", _Io()),
    ("cli", "main", "cli.main", None),
]


# ---------------------------------------------------------------------------
# Aggregation into per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, n_cycles, op_walls):
    """Per-layer metrics over the traced cycles.

    Times and counts are per traced cycle.  A layer's ``busy_s`` sums the
    spans of that layer that have no enclosing span of the same layer;
    ``self_s`` is a span's duration minus the time its direct children
    cover.  ``bench.span_coverage`` is the sum of the self times of every
    span of every operation over the operations' wall times measured by the
    runner's own clock; it is 1 when the span tree nests properly.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * n
    outer = [True] * n
    for i, s in enumerate(spans):
        parent = s[3]
        if parent is not None:
            child_time[parent] += dur[i]
        j = parent
        while j is not None:
            if spans[j][0] == s[0]:
                outer[i] = False
                break
            j = spans[j][3]
    # a negative self time would mean overlapping children: clip it, so the
    # coverage check below reads above 1 instead of cancelling out
    self_t = [max(dur[i] - child_time[i], 0.0) for i in range(n)]

    busy, calls, self_sum = {}, {}, {}
    attr_sum = {}
    for i, s in enumerate(spans):
        name, attrs = s[0], s[5] or {}
        self_sum[name] = self_sum.get(name, 0.0) + self_t[i]
        if not outer[i]:
            continue
        key = name
        if name.startswith("zonoid.") and "grid" in attrs and "pairs" in attrs:
            key = "zonoid.grid_transform"
        elif name in ("zonoid.upper_boundary_from_calls", "zonoid.calls_from_upper_boundary"):
            key = "zonoid.closed_transform"
        elif name.startswith("densities.inverse"):
            key = "densities.inverse." + ("custom" if attrs.get("custom") else "builtin")
        elif name in ("zonoid.CallCurve.validate", "zonoid.ZonoidBoundary.validate"):
            key = "zonoid.validate"
        busy[key] = busy.get(key, 0.0) + dur[i]
        calls[key] = calls.get(key, 0) + 1
        for a, v in attrs.items():
            if isinstance(v, (bool, int, float)):
                attr_sum[(key, a)] = attr_sum.get((key, a), 0) + v

    # price requests: pricing spans not driven by a transform, a solver or
    # another layer, and the inverse elements spent under them per strike
    requests = [i for i, s in enumerate(spans)
                if s[0] in ("pricing.family_call", "pricing.survival") and outer[i]
                and not _under(spans, i, _DRIVERS)]
    request_strikes = sum((spans[i][5] or {}).get("strikes", 0) for i in requests)
    request_set = set(requests)
    request_inverse = 0
    for i, s in enumerate(spans):
        if s[0].startswith("densities.inverse") and outer[i]:
            j = s[3]
            while j is not None and j not in request_set:
                j = spans[j][3]
            if j is not None:
                request_inverse += (s[5] or {}).get("elements", 0)

    projections = [s for s in spans if s[0] == "zonoid.project_convex_decreasing"]
    already = sum(1 for s in projections if s[5].get("distance") == 0.0)
    root_evals = sum(1 for i, s in enumerate(spans) if s[0] == "implied.normalized_call"
                     and _under(spans, i, ("implied.implied_y_root",)))

    c = max(n_cycles, 1)
    b = lambda k: busy.get(k, 0.0) / c
    cnt = lambda k: calls.get(k, 0) / c
    at = lambda k, a: attr_sum.get((k, a), 0) / c
    grid_pairs = at("zonoid.grid_transform", "pairs")
    sim_s = b("mc.simulate_terminal")
    wr_bytes, rd_bytes = at("curve_io.write", "bytes"), at("curve_io.read", "bytes")
    inv_b_el, inv_c_el = at("densities.inverse.builtin", "elements"), at("densities.inverse.custom", "elements")
    op_total = sum(op_walls)
    span_self_total = sum(self_t)
    return {
        "cli.inproc.self_s": self_sum.get("cli.main", 0.0) / c,
        "curve_io.write.busy_s": b("curve_io.write"),
        "curve_io.read.busy_s": b("curve_io.read"),
        "curve_io.bytes_written": wr_bytes,
        "curve_io.bytes_read": rd_bytes,
        "curve_io.write.mb_s": _ratio(wr_bytes / 1e6, b("curve_io.write")),
        "curve_io.read.mb_s": _ratio(rd_bytes / 1e6, b("curve_io.read")),
        "zonoid.grid_transform.busy_s": b("zonoid.grid_transform"),
        "zonoid.grid_transform.pairs": grid_pairs,
        "zonoid.grid_transform.mpairs_s": _ratio(grid_pairs / 1e6, b("zonoid.grid_transform")),
        "zonoid.grid_transform.bytes_computed": 8.0 * grid_pairs,
        "zonoid.closed_transform.busy_s": b("zonoid.closed_transform"),
        "zonoid.project_convex_decreasing.busy_s": b("zonoid.project_convex_decreasing"),
        "zonoid.project_convex_decreasing.points": at("zonoid.project_convex_decreasing", "points"),
        "zonoid.project.already_convex_frac": _ratio(already, len(projections)),
        "zonoid.validate.busy_s": b("zonoid.validate"),
        "numerics.monotone_root.calls": cnt("numerics.monotone_root"),
        "numerics.monotone_root.busy_s": b("numerics.monotone_root"),
        "numerics.monotone_root.evals_per_call": _ratio(at("numerics.monotone_root", "evals"),
                                                        cnt("numerics.monotone_root")),
        "numerics.golden_section_min.calls": cnt("numerics.golden_section_min"),
        "numerics.golden_section_min.busy_s": b("numerics.golden_section_min"),
        "numerics.golden_section_min.evals_per_call": _ratio(at("numerics.golden_section_min", "evals"),
                                                             cnt("numerics.golden_section_min")),
        "densities.inverse.busy_s.builtin": b("densities.inverse.builtin"),
        "densities.inverse.busy_s.custom": b("densities.inverse.custom"),
        "densities.inverse.elements.builtin": inv_b_el,
        "densities.inverse.elements.custom": inv_c_el,
        "densities.inverse.us_per_element.builtin": _ratio(1e6 * b("densities.inverse.builtin"), inv_b_el),
        "densities.inverse.us_per_element.custom": _ratio(1e6 * b("densities.inverse.custom"), inv_c_el),
        "densities.evaluator.calls_per_element.custom": _ratio(at("densities.inverse.custom", "evals"), inv_c_el),
        "pricing.family_call.busy_s": b("pricing.family_call"),
        "pricing.survival.busy_s": b("pricing.survival"),
        "pricing.strikes": request_strikes / c,
        "pricing.inverse_elements_per_strike": _ratio(request_inverse, request_strikes),
        "peacocks.certify_peacock.busy_s": b("peacocks.certify_peacock"),
        "peacocks.certify_peacock.self_s": self_sum.get("peacocks.certify_peacock", 0.0) / c,
        "peacocks.kellerer.pairs": at("peacocks.certify_peacock", "kellerer_pairs"),
        "peacocks.surface_boundary.busy_s": b("peacocks.surface_boundary"),
        "peacocks.recover_F_from_G.busy_s": b("peacocks.recover_F_from_G"),
        "implied.implied_y_root.busy_s": b("implied.implied_y_root"),
        "implied.implied_y_root.price_evals": _ratio(root_evals, calls.get("implied.implied_y_root", 0)),
        "implied.implied_y_minimization.busy_s": b("implied.implied_y_minimization"),
        "implied.vega_integral.busy_s": b("implied.vega_integral"),
        "localvol.closed.calls": cnt("localvol.closed"),
        "localvol.closed.busy_s": b("localvol.closed"),
        "mc.simulate_terminal.busy_s": sim_s,
        "mc.paths": at("mc.simulate_terminal", "paths"),
        "mc.simulate_terminal.mpaths_s": _ratio(at("mc.simulate_terminal", "paths") / 1e6, sim_s),
        "mc.workers": max([s[5]["workers"] for s in spans if s[0] == "mc.simulate_terminal"], default=0),
        "mc.empirical_call_curve.busy_s": b("mc.empirical_call_curve"),
        "mc.mc_check_propositions.self_s": self_sum.get("mc.mc_check_propositions", 0.0) / c,
        "bench.span_coverage": _ratio(span_self_total, op_total),
    }


_DRIVERS = ("zonoid.upper_boundary_from_calls", "zonoid.calls_from_upper_boundary",
            "zonoid.CallCurve.validate", "numerics.golden_section_min", "implied.", "peacocks.")


def _under(spans, i, prefixes) -> bool:
    """Whether an enclosing span's name starts with one of ``prefixes``."""
    j = spans[i][3]
    while j is not None:
        if spans[j][0].startswith(prefixes):
            return True
        j = spans[j][3]
    return False


def import_breakdown(stderr_text):
    """Cumulative import time of ``zonoid_lab`` and the summed self times of
    the scipy and numpy modules, in seconds, from ``python -X importtime``."""
    total = scipy_s = numpy_s = 0.0
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        parts = line[len("import time:"):].split("|")
        self_us, cum_us, name = float(parts[0]), float(parts[1]), parts[2].strip()
        root = name.split(".")[0]
        if name == "zonoid_lab":
            total = cum_us * 1e-6
        elif root == "scipy":
            scipy_s += self_us * 1e-6
        elif root == "numpy":
            numpy_s += self_us * 1e-6
    return {"cli.import.total_s": total, "cli.import.scipy_s": scipy_s,
            "cli.import.numpy_s": numpy_s}

