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
from .numerics import gauss_kronrod, golden_section_min, monotone_root, real_scalar, stand_in
from .pricing import check_level, family_call_geometric

_DEGENERATE_TOL = 1e-14
_P_EPS = 1e-9


def _check_strike(k) -> None:
    if not real_scalar(k, "strike") > 0.0:
        raise DomainError(f"strike must be positive and finite, got {k!r}")


@dataclass(frozen=True, eq=False)
class ImpliedQuery:
    """A normalized price c at strike K to invert: (1-K)^+ <= c < 1, K > 0."""

    density: DensityModel
    c: float
    k: float

    def __post_init__(self):
        _check_strike(self.k)
        real_scalar(self.c, "price")
        if self.c < self.intrinsic or self.c >= 1.0:
            raise DomainError(
                f"price {self.c!r} outside [(1-K)^+, 1) = [{self.intrinsic!r}, 1)")

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
    levels u at which K falls outside the ratio range, and has a kink at the
    level u0 where K enters it.  One adaptive Gauss-Kronrod integral, split
    at u0 when it lies in (0, y); each round evaluates the integrand at all
    its nodes with one array inverse."""
    check_level(y)
    _check_strike(k)
    ends = density.ratio_range(y) if y > 0.0 else (1.0, 1.0)
    r_in = stand_in(1.0, *ends)
    if math.isnan(r_in):  # y = 0, or no float inside the range: K never enters it
        return 0.0

    def integrand(u: np.ndarray) -> np.ndarray:
        lo, hi = density.ratio_range(u)
        inside = (lo < k) & (k < hi)
        u_in = np.where(inside, u, y)  # the levels outside solve r_in at level y
        return np.where(inside, density.pdf(inverse_ratio(density, u_in, np.where(inside, k, r_in))
                                            + u_in), 0.0)

    # K enters where the end it crosses (r_hi above 1, r_lo below) reaches it
    # (the gaussian ends, 0 and inf, never do)
    edges, end = [0.0, y], int(k > 1.0)
    with np.errstate(divide="ignore"):
        top = np.log(ends[end])
    if k != 1.0 and np.isfinite(top) and top / math.log(k) > 1.0:
        edges.insert(1, monotone_root(lambda u: np.log(density.ratio_range(u)[end]),
                                      math.log(k), math.ulp(0.0), y))
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
