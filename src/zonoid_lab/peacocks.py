"""Peacock surfaces built from a log-concave density and a time change.

Two families of boundary surfaces over (t, p):

* linear:    boundary(t, p) = s p + Y(t) G(p),   G = f o F^{-1}
* geometric: boundary(t, p) = s H_{Y(t)}(p),     H_y = F(F^{-1}(.) + y)

Both define families of marginals with constant mean s that increase in the
convex order (a peacock) exactly when f is log-concave.  ``certify_peacock``
checks the three defining properties on one boundary matrix, in zonoid
space: concavity of each time slice (and, for the geometric family, of
the generator row s G, the slices' limit at small levels), slices
non-decreasing in t at every p (with equal means the convex order is the
inclusion of lift zonoids), and mean constancy.

The maps H_y form a composition group (H_{y1} o H_{y2} = H_{y1+y2}) whose
generator is G; ``group_property_check`` and ``generator_limit_check``
measure both identities.  ``recover_F_from_G`` and ``recover_F_from_H``
rebuild the quantile function / distribution function from the two handles;
the first integrates 1/G over every grid interval in one batched
Gauss-Kronrod quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .densities import ConcavityReport, DensityModel, _concavity_report
from .errors import DomainError, UnsupportedError, ValidationError
from .numerics import (_real_array, as_float_array, gauss_kronrod, increasing_grid, jsonable,
                       like_input, probabilities, real_scalar, require_uniform)

_FAMILIES = ("linear", "geometric")
_AXIS_KINDS = ("call-space", "zonoid-space")
_P_CLIP = 1e-6          # quadrature cutoff near the 1/G endpoint singularities


# ---------------------------------------------------------------------------
# Time changes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TimeChange:
    """Increasing bijection Y on [0, inf) with Y(0) = 0.

    Kinds: "sqrt" (scale * sqrt(t)), "linear" (scale * t), or "table"
    (monotone node table, linearly interpolated; derivative by centered
    secants at the nodes, one-sided at the ends).
    """

    kind: str
    scale: float = 1.0
    times: Optional[np.ndarray] = None
    table_values: Optional[np.ndarray] = None
    _secants: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("sqrt", "linear", "table"):
            raise ValidationError(f"unknown time change kind {self.kind!r}")
        if self.kind == "table":
            vals = as_float_array(self.table_values, "values")
            times = increasing_grid(self.times, "times")
            if times.shape != vals.shape:
                raise ValidationError("time change table needs matching 1-d arrays")
            if times[0] != 0.0:
                raise ValidationError("time change table must start at t = 0")
            dv = np.diff(vals)
            if np.all(dv > 0.0):
                if vals[0] != 0.0:
                    raise ValidationError("increasing time change must have Y(0) = 0")
            elif not np.all(dv < 0.0):
                raise ValidationError("time change table must be strictly monotone")
            # strictly decreasing tables are loadable on purpose: they define
            # invalid families that certify_peacock must be able to reject
            object.__setattr__(self, "times", times)
            object.__setattr__(self, "table_values", vals)
            tp, vp = np.pad(times, 1, mode="edge"), np.pad(vals, 1, mode="edge")
            object.__setattr__(self, "_secants", (vp[2:] - vp[:-2]) / (tp[2:] - tp[:-2]))
        else:
            if self.times is not None or self.table_values is not None:
                raise ValidationError(f"{self.kind} time change takes no table")
            object.__setattr__(self, "scale", real_scalar(self.scale, "time change scale",
                                                          ValidationError))
            if self.scale <= 0.0:
                raise ValidationError("time change scale must be positive")

    @classmethod
    def sqrt(cls, scale: float = 1.0) -> "TimeChange":
        return cls("sqrt", scale)

    @classmethod
    def linear(cls, scale: float = 1.0) -> "TimeChange":
        return cls("linear", scale)

    @classmethod
    def from_table(cls, times, values) -> "TimeChange":
        return cls("table", 1.0, times, values)

    def _check(self, t) -> float:
        """t as a float; DomainError unless it is a real scalar (by
        ``numerics.real_scalar``), non-negative and inside a table."""
        try:
            v = real_scalar(t, "t")
        except DomainError:
            v = math.nan
        if not v >= 0.0:
            raise DomainError(f"t must be a non-negative real scalar, got {t!r}")
        if self.kind == "table" and v > self.times[-1]:
            raise DomainError(f"t={t!r} beyond the time change table")
        return v

    def value(self, t: float) -> float:
        t = self._check(t)
        if self.kind == "sqrt":
            return self.scale * math.sqrt(t)
        if self.kind == "linear":
            return self.scale * t
        return float(np.interp(t, self.times, self.table_values))

    def derivative(self, t: float) -> float:
        t = self._check(t)
        if self.kind == "sqrt":
            if t == 0.0:
                raise DomainError("sqrt time change has no derivative at t = 0")
            return 0.5 * self.scale / math.sqrt(t)
        if self.kind == "linear":
            return self.scale
        return float(np.interp(t, self.times, self._secants))


# ---------------------------------------------------------------------------
# Specs and grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PeacockSpec:
    """A boundary-surface family: density, family kind, mean s, time change."""

    family: str
    density: DensityModel
    s: float
    time_change: TimeChange

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValidationError(f"family must be one of {_FAMILIES}, got {self.family!r}")
        object.__setattr__(self, "s", real_scalar(self.s, "s", ValidationError))
        if self.s <= 0.0 and self.family == "geometric":
            raise ValidationError("geometric family requires s > 0")


@dataclass(frozen=True, eq=False)
class SurfaceGrid:
    """Matrix of surface values over (times, axis), tagged by axis kind:
    "call-space" (axis = strikes) or "zonoid-space" (axis = probabilities)."""

    times: np.ndarray
    axis: np.ndarray
    values: np.ndarray
    axis_kind: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        values = as_float_array(self.values, "values")
        times = increasing_grid(self.times, "times", min_size=1)
        axis = increasing_grid(self.axis, "axis", min_size=1)
        if values.shape != (times.size, axis.size):
            raise ValidationError("values must have shape (len(times), len(axis))")
        if self.axis_kind not in _AXIS_KINDS:
            raise ValidationError(f"axis_kind must be one of {_AXIS_KINDS}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "values", values)


# ---------------------------------------------------------------------------
# The two maps and the surfaces
# ---------------------------------------------------------------------------

def G_map(density: DensityModel, p):
    """G(p) = f(F^{-1}(p)), with G(0) = G(1) = 0 by convention."""
    p = probabilities(p, "p")
    return like_input(_G(density, p), p)


def _G(density: DensityModel, p: np.ndarray) -> np.ndarray:
    """G on probabilities already checked (the kernel of ``G_map``)."""
    interior = (p > 0.0) & (p < 1.0)  # the ends are evaluated at p = 1/2
    x = density._quantile(np.where(interior, p, 0.5))
    return np.where(interior, density.pdf(x), 0.0)


def H_map(density: DensityModel, y, p):
    """H_y(p) = F(F^{-1}(p) + y) for real levels y that broadcast with p;
    H_y(0) = 0 and H_y(1) = 1 by convention, and H_0 is the identity
    exactly.  A float only when p and y are both scalars."""
    y = as_float_array(y, "y")
    out = _H(density, y, probabilities(p, "p"))
    return like_input(out, out)


def _H(density: DensityModel, y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """H_y on levels and probabilities already checked (the kernel of ``H_map``)."""
    interior = (p > 0.0) & (p < 1.0)  # the ends are evaluated at p = 1/2
    x = density._quantile(np.where(interior, p, 0.5))
    return np.where(interior & (y != 0.0), density.cdf(x + y), p)


def family_boundary(family: str, density: DensityModel, s: float, y, p):
    """Upper boundary of the family marginal at levels y, which broadcast
    with p: s p + y G(p) for the linear family, s H_y(p) for the geometric
    one.  A float only when p and y are both scalars.  p is checked once,
    here; G and H take it as checked."""
    if family == "linear":
        p = probabilities(p, "p")
        out = s * p + y * _G(density, p)
    else:
        y = as_float_array(y, "y")
        out = s * _H(density, y, probabilities(p, "p"))
    return like_input(out, out)


def surface_boundary(spec: PeacockSpec, t: float, p):
    """Upper boundary value of the family at time t: ``family_boundary`` at
    level Y(t)."""
    return family_boundary(spec.family, spec.density, spec.s, spec.time_change.value(t), p)


def boundary_surface(spec: PeacockSpec, tgrid, pgrid) -> SurfaceGrid:
    """Zonoid-space SurfaceGrid of the family over (tgrid, pgrid): one
    ``family_boundary`` evaluation on the column of levels Y(t)."""
    tgrid = increasing_grid(tgrid, "tgrid", min_size=1)
    pgrid = increasing_grid(pgrid, "pgrid", min_size=1)
    levels = np.array([spec.time_change.value(t) for t in tgrid.tolist()])
    values = family_boundary(spec.family, spec.density, spec.s, levels[:, None], pgrid)
    return SurfaceGrid(tgrid, pgrid, values, "zonoid-space", meta=_spec_meta(spec))


def call_surface(spec: PeacockSpec, tgrid, kgrid) -> SurfaceGrid:
    """Call-space SurfaceGrid of the family over (tgrid, kgrid), using the
    closed-form family prices (intrinsic values where Y(t) = 0)."""
    from .pricing import family_call_geometric, family_call_linear

    tgrid = increasing_grid(tgrid, "tgrid", min_size=1)
    kgrid = increasing_grid(kgrid, "kgrid", min_size=1)
    price = family_call_linear if spec.family == "linear" else family_call_geometric
    rows = [price(spec.density, spec.s, spec.time_change.value(t), kgrid)
            for t in tgrid.tolist()]
    return SurfaceGrid(tgrid, kgrid, np.vstack(rows), "call-space", meta=_spec_meta(spec))


def _spec_meta(spec: PeacockSpec) -> dict:
    meta = {"family": spec.family, "s": spec.s, "mean": spec.s,
            "time_change": spec.time_change.kind}
    try:
        meta["density"] = spec.density.to_spec()
    except UnsupportedError:
        meta["density"] = {"family": "custom"}
    return meta


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KellererReport:
    """Order of the boundary rows in t: b(t_lo, p) <= b(t_hi, p) at every grid
    p, that is nested lift zonoids, which for equal means is the convex order."""

    ok: bool
    max_violation: float
    witness: Optional[Tuple[float, float, float]] = None  # (p, t_lo, t_hi)
    skipped: bool = False


@dataclass(frozen=True)
class PeacockCertificate:
    """Joint result of the three peacock checks on grid samples."""

    ok: bool
    concavity: ConcavityReport
    kellerer: KellererReport
    mean_ok: bool
    mean_max_dev: float

    def to_dict(self) -> dict:
        return jsonable(self)


def certify_peacock(spec: PeacockSpec, tgrid, pgrid=None) -> PeacockCertificate:
    """Check the three peacock properties of the family on sample grids, all
    three on the one ``boundary_surface`` matrix of rows t, columns p:

    (a) each row p -> boundary(t, p) is concave (second differences on the
        uniform pgrid within slack); a geometric certificate also checks
        the generator row s G(p), the limit of its slices as Y -> 0,
    (b) the rows increase in t at every p: with equal means X_s <=cx X_t
        iff Z(X_s) is inside Z(X_t) (Koshevoy and Mosler, Bernoulli 4, 1998),
        iff b_s <= b_t; skipped when (a) already failed, since a non-concave
        row is no zonoid boundary, and
    (c) the column p = 1, the mean, is exactly s.

    pgrid must be uniform, span [0, 1] and have at least 3 points (one
    second difference); defaults to 2001 points.
    """
    tgrid = increasing_grid(tgrid, "tgrid")
    if np.any(tgrid < 0.0):
        raise DomainError("times must be non-negative")
    if pgrid is None:
        pgrid = np.linspace(0.0, 1.0, 2001)
    pgrid = increasing_grid(pgrid, "pgrid", min_size=3)
    require_uniform(pgrid, "pgrid")
    if pgrid[0] != 0.0 or pgrid[-1] != 1.0:
        raise ValidationError("pgrid must span [0, 1] exactly")

    rows = boundary_surface(spec, tgrid, pgrid).values

    # (a) concavity of each row, to a slack of 1e-9 times the value range;
    # geometric rows also add s G, the y -> 0 limit of (s H_y - s p)/y, which
    # is concave iff f is log-concave (small levels the tgrid misses)
    slices = rows if spec.family == "linear" else np.vstack(
        (rows, spec.s * G_map(spec.density, pgrid)))
    concavity = _concavity_report(pgrid, slices, 1e-9 * max(1.0, float(rows.max() - rows.min())))

    # (c) mean constancy, exact by the endpoint conventions
    mean_max_dev = float(np.max(np.abs(rows[:, -1] - spec.s)))
    mean_ok = mean_max_dev == 0.0

    # (b) order of the rows in t, the worst gap first in row-major order
    if not concavity.is_concave:
        kellerer = KellererReport(False, np.nan, None, skipped=True)
    else:
        gaps = np.diff(rows, axis=0)
        ti, pj = np.unravel_index(int(np.argmin(gaps)), gaps.shape)
        worst_gap = float(gaps[ti, pj])
        mono_ok = worst_gap >= -1e-9 * max(1.0, abs(spec.s))
        witness = None if mono_ok else (float(pgrid[pj]), float(tgrid[ti]),
                                        float(tgrid[ti + 1]))
        kellerer = KellererReport(mono_ok, max(0.0, -worst_gap), witness)

    ok = bool(concavity.is_concave and kellerer.ok and mean_ok)
    return PeacockCertificate(ok, concavity, kellerer, mean_ok, mean_max_dev)


# ---------------------------------------------------------------------------
# Group structure of H and recovery of F
# ---------------------------------------------------------------------------

def group_property_check(density: DensityModel, y1: float, y2: float,
                         pgrid=None) -> float:
    """sup_p |H_{y1+y2}(p) - H_{y1}(H_{y2}(p))| over the grid.

    Negative levels are allowed: H_{-y} is evaluated by the same formula
    F(F^{-1}(p) - y), which is the exact functional inverse of H_y.
    """
    y1, y2 = real_scalar(y1, "y1"), real_scalar(y2, "y2")
    if pgrid is None:
        pgrid = np.linspace(0.01, 0.99, 99)
    composed = H_map(density, y1, H_map(density, y2, pgrid))
    direct = H_map(density, y1 + y2, pgrid)
    return float(np.max(np.abs(composed - direct)))


def generator_limit_check(density: DensityModel, ygrid=None, pgrid=None) -> np.ndarray:
    """Convergence table of sup_p |(H_y(p) - p)/y - G(p)| for y decreasing
    to 0; returns rows (y, sup error)."""
    if ygrid is None:
        ygrid = np.array([1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    ygrid = as_float_array(ygrid, "ygrid")
    if np.any(ygrid <= 0.0):
        raise DomainError("ygrid must be positive")
    if pgrid is None:
        pgrid = np.linspace(0.01, 0.99, 99)
    pgrid = as_float_array(pgrid, "pgrid")
    if ygrid.ndim != 1 or pgrid.ndim != 1 or pgrid.size == 0:
        raise ValidationError("ygrid and pgrid must be 1-d, pgrid not empty")
    y = ygrid[:, None]
    err = np.max(np.abs((H_map(density, y, pgrid) - pgrid) / y - G_map(density, pgrid)), axis=1)
    return np.column_stack((ygrid, err))


def recover_F_from_G(gen: Callable, anchor: float, p0: float,
                     pgrid=None) -> Tuple[np.ndarray, np.ndarray]:
    """Rebuild the quantile function from the generator handle:
    F^{-1}(p) = anchor + int_{p0}^{p} dq / G(q), one adaptive Gauss-Kronrod
    integral per grid interval, all intervals in one ``gauss_kronrod`` call.

    The generator is called on arrays of probabilities and must return an
    array of their shape or a scalar (which broadcasts); a generator that
    accepts only a Python float no longer works.  Probabilities are
    clipped to [1e-6, 1-1e-6] (1/G is singular at the endpoints).  G must be
    positive on the evaluation range.  Returns the (p, quantile) table sorted
    by p, with p0 included.
    """
    anchor, p0 = real_scalar(anchor, "anchor"), real_scalar(p0, "p0")
    if not (0.0 < p0 < 1.0):
        raise DomainError("p0 must lie in (0, 1)")
    if pgrid is None:
        pgrid = np.linspace(0.01, 0.99, 99)
    pgrid = as_float_array(pgrid, "pgrid")
    ps = np.unique(np.clip(np.append(pgrid, p0), _P_CLIP, 1.0 - _P_CLIP))
    if np.any(_real_array(gen(ps), "generator value") <= 0.0):
        raise DomainError("generator must be positive on the evaluation range")
    pieces = np.zeros(ps.size)
    pieces[1:] = gauss_kronrod(lambda q: 1.0 / _real_array(gen(q), "generator value"),
                               ps[:-1], ps[1:], epsabs=1e-12, epsrel=1e-10)
    cum = np.cumsum(pieces)
    i0 = int(np.searchsorted(ps, min(p0, ps[-1])))
    xs = anchor + cum - cum[i0]
    return ps, xs


def recover_F_from_H(h_handle: Callable, anchor: float, p0: float, x):
    """Rebuild the distribution function from the flow handle:
    F(x) = H_{x - anchor}(p0), where anchor = F^{-1}(p0).

    x is a scalar or an array; the handle is called once, on the levels
    x - anchor (an array for an array of x).  Only x >= anchor is supported
    (negative flow levels are not assumed available from the handle)."""
    anchor, p0 = real_scalar(anchor, "anchor"), real_scalar(p0, "p0")
    if not (0.0 < p0 < 1.0):
        raise DomainError("p0 must lie in (0, 1)")
    x_arr = as_float_array(x, "x")
    if (x_arr < anchor).any():
        raise UnsupportedError("recover_F_from_H needs x >= anchor")
    return like_input(_real_array(h_handle(x_arr - anchor, p0), "flow value"), x)
