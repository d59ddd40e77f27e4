"""Local volatility extraction from call surfaces and boundary surfaces.

Three routes to the local variance:

* ``dupire_from_calls``: sigma^2(t,K) = 2 dC/dt / d2C/dK2 by central finite
  differences on a call-space SurfaceGrid (Richardson-extrapolated where the
  grid allows);
* ``dupire_from_boundary``: the same quantity read off the zonoid boundary,
  strike = dB/dp and sigma^2 = -2 dB/dt * d2B/dp2 at a (t, p) node;
* closed forms for the two families:
  linear     sigma^2(t,K)    = -2 Y Ydot (log f)''(U((K - s0)/Y)),
  geometric  sigma_bar^2(t,K) = 2 Ydot [(log f)'(V) - (log f)'(V + Y)]
  with V = V_Y(K/s0), where sigma_bar = sigma/K is the relative volatility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .densities import DensityModel, inverse_log_slope, inverse_ratio
from .errors import DomainError, SingularCurvatureError
from .numerics import central_diff, real_scalar, require_uniform
from .peacocks import SurfaceGrid, TimeChange

_CURVATURE_FLOOR = 1e-12
_NEGATIVE_SLACK = 1e-12


@dataclass(frozen=True)
class LocalVolResult:
    """Local variance at (t, strike); sigma_bar_sq = sigma_sq / strike^2 is
    populated for positive strikes.  ``flagged`` marks values that came out
    negative beyond noise (arbitrageable inputs or a non-concave stencil)."""

    t: float
    strike: float
    sigma_sq: float
    method: str
    sigma_bar_sq: Optional[float] = None
    flagged: bool = False


def _finish(t, strike, sigma_sq, method) -> LocalVolResult:
    bar = sigma_sq / (strike * strike) if strike > 0.0 else None
    return LocalVolResult(t, strike, sigma_sq, method, sigma_bar_sq=bar,
                          flagged=sigma_sq < -_NEGATIVE_SLACK)


def _node_index(grid: np.ndarray, x: float, h: float, name: str) -> int:
    i = int(np.argmin(np.abs(grid - x)))
    if abs(float(grid[i]) - x) > 1e-9 * max(1.0, abs(h)):
        raise DomainError(f"{name}={x!r} is not a node of the surface grid")
    return i


def dupire_from_calls(surface: SurfaceGrid, t: float, k: float) -> LocalVolResult:
    """sigma^2 = 2 dC/dt / d2C/dK2 at an interior grid node of a call-space
    surface.  Curvature magnitudes below 1e-12 raise SingularCurvatureError."""
    if surface.axis_kind != "call-space":
        raise DomainError("dupire_from_calls needs a call-space surface")
    t, k = real_scalar(t, "t"), real_scalar(k, "K")
    ht = require_uniform(surface.times, "times")
    hk = require_uniform(surface.axis, "strikes")
    it = _node_index(surface.times, t, ht, "t")
    ik = _node_index(surface.axis, k, hk, "K")
    dt = central_diff(surface.values[:, ik], it, ht, 1)
    dkk = central_diff(surface.values[it, :], ik, hk, 2)
    if abs(dkk) < _CURVATURE_FLOOR:
        raise SingularCurvatureError(
            f"strike curvature {dkk!r} below {_CURVATURE_FLOOR} at (t={t}, K={k})")
    return _finish(t, k, 2.0 * dt / dkk, "fd-calls")


def dupire_from_boundary(surface: SurfaceGrid, t: float, p: float) -> LocalVolResult:
    """Read the local variance off a zonoid-space surface at a (t, p) node:
    strike = dB/dp and sigma^2 = -2 dB/dt * d2B/dp2.  A locally convex
    stencil (positive curvature in p) yields a flagged result."""
    if surface.axis_kind != "zonoid-space":
        raise DomainError("dupire_from_boundary needs a zonoid-space surface")
    t, p = real_scalar(t, "t"), real_scalar(p, "p")
    ht = require_uniform(surface.times, "times")
    hp = require_uniform(surface.axis, "probs")
    it = _node_index(surface.times, t, ht, "t")
    ip = _node_index(surface.axis, p, hp, "p")
    strike = central_diff(surface.values[it, :], ip, hp, 1)
    dt = central_diff(surface.values[:, ip], it, ht, 1)
    dpp = central_diff(surface.values[it, :], ip, hp, 2)
    return _finish(t, strike, -2.0 * dt * dpp, "fd-boundary")


def localvol_linear_closed(density: DensityModel, time_change: TimeChange,
                           s0: float, t: float, k: float) -> LocalVolResult:
    """Closed-form linear-family local variance
    -2 Y Ydot (log f)''(U((K - s0)/Y))."""
    s0, t, k = real_scalar(s0, "s0"), real_scalar(t, "t"), real_scalar(k, "strike")
    yval, ydot = time_change.value(t), time_change.derivative(t)
    if yval <= 0.0:
        raise DomainError("time change must be positive at t")
    u = inverse_log_slope(density, (k - s0) / yval)
    curv = float(density.log_curvature(u))
    return _finish(t, k, -2.0 * yval * ydot * curv, "closed-form")


def localvol_geometric_closed(density: DensityModel, time_change: TimeChange,
                              s0: float, t: float, k: float) -> LocalVolResult:
    """Closed-form geometric-family relative variance
    2 Ydot [(log f)'(V) - (log f)'(V + Y)], V = V_Y(K/s0); the absolute
    variance is K^2 times it."""
    s0, t, k = real_scalar(s0, "s0"), real_scalar(t, "t"), real_scalar(k, "strike")
    if s0 <= 0.0 or k <= 0.0:
        raise DomainError("geometric family needs positive s0 and K")
    yval, ydot = time_change.value(t), time_change.derivative(t)
    if yval <= 0.0:
        raise DomainError("time change must be positive at t")
    v = inverse_ratio(density, yval, k / s0)
    bar = 2.0 * ydot * (float(density.log_slope(v)) - float(density.log_slope(v + yval)))
    return LocalVolResult(t, k, bar * k * k, "closed-form", sigma_bar_sq=bar,
                          flagged=bar < -_NEGATIVE_SLACK)
