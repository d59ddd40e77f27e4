"""Generalized implied volatility for the geometric family.

The normalized call (unit mean, strike K > 0)

    c(y, K) = F(V_y(K) + y) - K F(V_y(K)),   c(0, K) = (1 - K)^+

is continuous and non-decreasing in the level y, strictly increasing
wherever K lies inside the ratio range of the density, with limit 1 as
y -> infinity.  Three routes are provided:

* ``vega_integral``: c(y,K) - (1-K)^+ as the integral of the level-vega
  u -> f(V_u(K) + u) by ``numerics.gauss_kronrod``, an independent
  cross-check of the closed form;
* ``implied_y_root``: invert c in y by bracketed root-finding;
* ``implied_y_minimization``: recover y directly as
  min_p [F^{-1}(c + pK) - F^{-1}(p)] over feasible p, together with the
  minimiser p_hat (which equals F(V_{y*}(K)) at the optimum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .densities import DensityModel, inverse_ratio
from .errors import DomainError, RangeError
from .numerics import gauss_kronrod, golden_section_min, monotone_root
from .pricing import check_level, family_call_geometric

_DEGENERATE_TOL = 1e-14
_P_EPS = 1e-9


def _check_strike(k) -> None:
    if not (np.isfinite(k) and k > 0.0):
        raise DomainError(f"strike must be positive and finite, got {k!r}")


@dataclass(frozen=True, eq=False)
class ImpliedQuery:
    """A normalized price c at strike K to invert: (1-K)^+ <= c < 1, K > 0."""

    density: DensityModel
    c: float
    k: float

    def __post_init__(self):
        _check_strike(self.k)
        if not np.isfinite(self.c):
            raise DomainError("price must be finite")
        intrinsic = max(1.0 - self.k, 0.0)
        if self.c < intrinsic or self.c >= 1.0:
            raise DomainError(
                f"price {self.c!r} outside [(1-K)^+, 1) = [{intrinsic!r}, 1)")

    @property
    def intrinsic(self) -> float:
        return max(1.0 - self.k, 0.0)


def normalized_call(density: DensityModel, y: float, k: float) -> float:
    """c(y, K) for the unit-mean geometric family; y = 0 gives (1 - K)^+."""
    _check_strike(k)
    return float(family_call_geometric(density, 1.0, y, k))


def vega_integral(density: DensityModel, y: float, k: float) -> float:
    """int_0^y f(V_u(K) + u) du, the exercise-boundary density integrated
    along the level; equals c(y,K) - (1-K)^+.  The integrand is zero for
    levels u at which K falls outside the ratio range.  One adaptive
    Gauss-Kronrod integral, split at the logistic kink u0 = scale |log K|;
    each round evaluates the integrand at all its nodes with one array
    inverse."""
    check_level(y)
    _check_strike(k)
    if y == 0.0:
        return 0.0

    def integrand(u: np.ndarray) -> np.ndarray:
        r_lo, r_hi = density.ratio_range(u)
        inside = (r_lo < k) & (k < r_hi)
        out = np.zeros(u.shape)
        if inside.any():
            ui = u[inside]
            # K as an array the size of the levels, so the ratio argument
            # counts the elements solved, as in every other inverse call
            out[inside] = density.pdf(inverse_ratio(density, ui, np.full_like(ui, k)) + ui)
        return out

    edges = [0.0, y]
    if density.family == "logistic" and k != 1.0:
        u0 = density.scale * abs(math.log(k))
        if 0.0 < u0 < y:
            edges.insert(1, u0)
    return float(gauss_kronrod(integrand, edges[:-1], edges[1:], np.zeros(len(edges) - 1, int),
                               epsabs=1e-11, epsrel=1e-11)[0])


def implied_y_root(query: ImpliedQuery) -> float:
    """The level y* with c(y*, K) = c, by bracketed root-finding on the
    monotone map y -> c(y, K).  Prices at the intrinsic value return 0."""
    c, k, density = query.c, query.k, query.density
    if c - query.intrinsic < _DEGENERATE_TOL:
        return 0.0
    price = lambda y: normalized_call(density, float(y), k)
    y_hi = 1.0
    for _ in range(200):
        if price(y_hi) >= c:
            break
        y_hi *= 2.0
    else:
        raise RangeError(f"no level y reaches price {c!r} at strike {k!r}")
    return monotone_root(price, c, 0.0, y_hi, xtol=1e-14)


def implied_y_minimization(query: ImpliedQuery) -> Tuple[float, float]:
    """The level recovered as y* = min_p [F^{-1}(c + pK) - F^{-1}(p)] over
    feasible p (0 < p and c + pK < 1); returns (y*, p_hat).

    ``numerics.golden_section_min`` scans p evenly in logit (the objective
    is not proven unimodal) and refines every local minimum of the scan.
    Prices at the intrinsic value are degenerate: (0, nan) is returned.
    """
    c, k, density = query.c, query.k, query.density
    if c - query.intrinsic < _DEGENERATE_TOL:
        return 0.0, float("nan")
    lo, hi = _P_EPS, min(1.0, (1.0 - c) / k) - _P_EPS
    if not lo < hi:
        raise DomainError("empty feasible range for the minimization")
    objective = lambda p: density.quantile(np.clip(c + p * k, 0.0, 1.0)) - density.quantile(p)
    p_hat, y_star = golden_section_min(objective, lo, hi, logit=True)
    return max(y_star, 0.0), p_hat


def implied_y(query: ImpliedQuery, method: str = "root"):
    """Dispatch: "root" -> y*, "min" -> (y*, p_hat)."""
    if method == "root":
        return implied_y_root(query)
    if method == "min":
        return implied_y_minimization(query)
    raise DomainError(f"unknown implied method {method!r}")
