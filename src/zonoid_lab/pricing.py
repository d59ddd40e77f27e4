"""Closed-form call prices.

Two classical benchmarks (arithmetic/normal and geometric/lognormal) plus the
general family formulas for marginals built from a log-concave density model:

* linear family, mean s and level y: C(K) = y [ f(U(w)) - F(U(w)) w ] with
  w = (K - s)/y, where U inverts the logarithmic slope of the density f
  (the survival probability at strike K is F(U(w)));
* geometric family, mean s and level y: C(K) = s F(V + y) - K F(V) with
  V = V_y(K / s), where V_y inverts the ratio x -> f(x + y)/f(x) (the
  survival probability at strike K is F(V)).

The call price and the survival probability are the value and the slope of
one supporting line, so ``family_prices`` returns both, with the clamp flag,
from one inverse solve: strikes outside the reachable range are clamped to
the intrinsic bounds (mean - K)^+ or 0.  ``family_call_*``,
``family_call_*_with_flag``, ``survival_*`` and ``survival`` are views of it.
Every function here returns Python scalars for a scalar strike and arrays
for an array of strikes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .densities import DensityModel, inverse_log_slope, inverse_ratio
from .errors import DomainError, ValidationError
from .numerics import as_float_array, like_input

_SQRT2PI = math.sqrt(2.0 * math.pi)


def _phi(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT2PI


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the two benchmark models: spot, volatility, maturity."""

    s0: float
    sigma: float
    t: float

    def __post_init__(self):
        for name in ("s0", "sigma", "t"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValidationError(f"{name} must be finite")
        if self.sigma <= 0.0:
            raise ValidationError("sigma must be positive")
        if self.t < 0.0:
            raise ValidationError("t must be non-negative")


def bachelier_call(params: ModelParams, k):
    """Arithmetic model: X = s0 + sigma W_t, C = v phi(d) + (s0 - K) Phi(d)
    with v = sigma sqrt(t), d = (s0 - K)/v.  t = 0 gives the intrinsic value."""
    k = as_float_array(k, "strike")
    if params.t == 0.0:
        out = np.maximum(params.s0 - k, 0.0)
    else:
        v = params.sigma * math.sqrt(params.t)
        d = (params.s0 - k) / v
        out = v * _phi(d) + (params.s0 - k) * special.ndtr(d)
    return like_input(out, k)


def black_scholes_call(params: ModelParams, k):
    """Geometric model: X = s0 exp(sigma W_t - sigma^2 t / 2),
    C = s0 Phi(d1) - K Phi(d2).  Strikes must be positive; t = 0 gives the
    intrinsic value."""
    if params.s0 <= 0.0:
        raise DomainError("geometric model requires a positive spot")
    k = as_float_array(k, "strike")
    if np.any(k <= 0.0):
        raise DomainError("geometric model strikes must be positive")
    if params.t == 0.0:
        out = np.maximum(params.s0 - k, 0.0)
    else:
        v = params.sigma * math.sqrt(params.t)
        d1 = np.log(params.s0 / k) / v + 0.5 * v
        out = params.s0 * special.ndtr(d1) - k * special.ndtr(d1 - v)
    return like_input(out, k)


# ---------------------------------------------------------------------------
# Family prices
# ---------------------------------------------------------------------------

def family_prices(kind: str, model: DensityModel, s: float, y: float, k):
    """Call price C(K), survival probability P(X > K) = -C'(K) and clamp flag
    of the ``kind`` ("linear" or "geometric") family marginal at level y,
    from one inverse solve per strike.

    Strikes outside the reachable range are clamped (flag True): C = s - K
    and P = 1 below it, C = 0 and P = 0 above it.  Raises DomainError unless
    s is finite (and positive, with non-negative strikes, for the geometric
    family) and y is positive and finite.
    """
    if kind not in ("linear", "geometric"):
        raise ValidationError(f"unknown family kind {kind!r}")
    if y <= 0.0 or not np.isfinite(y):
        raise DomainError("y must be positive and finite")
    if not np.isfinite(s) or (kind == "geometric" and s <= 0.0):
        raise DomainError("s must be finite, and positive for the geometric family")
    k = as_float_array(k, "strike")
    karr = np.atleast_1d(k)
    if kind == "linear":
        x = (karr - s) / y
        x_lo, x_hi = model.log_slope_range()
    else:
        if np.any(karr < 0.0):
            raise DomainError("geometric family strikes must be non-negative")
        x = karr / s
        x_lo, x_hi = model.ratio_range(y)
    below = x <= x_lo
    clamped = below | (x >= x_hi)
    call = np.zeros(x.shape)
    call[below] = s - karr[below]
    surv = below.astype(np.float64)
    if not clamped.all():
        inside = ~clamped
        xi = x[inside]
        if kind == "linear":
            u = inverse_log_slope(model, xi)
            tail = model.cdf(u)
            call[inside] = y * (model.pdf(u) - tail * xi)
        else:
            v = inverse_ratio(model, y, xi)
            tail = model.cdf(v)
            call[inside] = s * model.cdf(v + y) - karr[inside] * tail
        surv[inside] = tail
    return like_input(call, k), like_input(surv, k), like_input(clamped, k)


def family_call_linear_with_flag(model: DensityModel, s: float, yval: float, k):
    """Linear family call price and clamp flag (see :func:`family_prices`)."""
    call, _, clamped = family_prices("linear", model, s, yval, k)
    return call, clamped


def family_call_linear(model: DensityModel, s: float, yval: float, k):
    return family_prices("linear", model, s, yval, k)[0]


def survival_linear(model: DensityModel, s: float, yval: float, k):
    """P(X > K) = -C'(K) for the linear family (see :func:`family_prices`)."""
    return family_prices("linear", model, s, yval, k)[1]


def family_call_geometric_with_flag(model: DensityModel, s: float, y: float, k):
    """Geometric family call price and clamp flag (see :func:`family_prices`)."""
    call, _, clamped = family_prices("geometric", model, s, y, k)
    return call, clamped


def family_call_geometric(model: DensityModel, s: float, y: float, k):
    return family_prices("geometric", model, s, y, k)[0]


def survival_geometric(model: DensityModel, s: float, y: float, k):
    """P(X > K) = -C'(K) for the geometric family (see :func:`family_prices`)."""
    return family_prices("geometric", model, s, y, k)[1]


def survival(kind: str, model: DensityModel, s: float, yval: float, k):
    return family_prices(kind, model, s, yval, k)[1]


# ---------------------------------------------------------------------------
# Curve constructors
# ---------------------------------------------------------------------------

def bachelier_curve(params: ModelParams, width: float = 8.0):
    """Call curve of the arithmetic model on s0 -/+ width sigma sqrt(t)."""
    from .zonoid import CallCurve

    v = params.sigma * math.sqrt(max(params.t, 1e-300))
    half = width * v
    return CallCurve.from_function(
        lambda k: bachelier_call(params, k), mean=params.s0,
        domain=(params.s0 - half, params.s0 + half),
        provenance={"model": "arithmetic", "s0": params.s0,
                    "sigma": params.sigma, "t": params.t})


def black_scholes_curve(params: ModelParams, width: float = 8.0):
    """Call curve of the geometric model on a log-symmetric strike interval."""
    from .zonoid import CallCurve

    v = params.sigma * math.sqrt(max(params.t, 1e-300))
    k_lo = params.s0 * math.exp(-width * v - 0.5 * v * v)
    k_hi = params.s0 * math.exp(width * v - 0.5 * v * v)
    return CallCurve.from_function(
        lambda k: black_scholes_call(params, k), mean=params.s0,
        domain=(k_lo, k_hi), positive=True,
        provenance={"model": "geometric", "s0": params.s0,
                    "sigma": params.sigma, "t": params.t})


def linear_family_curve(model: DensityModel, s: float, yval: float,
                        p_cut: float = 1e-9):
    """Call curve of the linear-family marginal at level yval, on the strike
    range reachable through the density's quantiles."""
    from .zonoid import CallCurve

    q_lo = float(model.quantile(p_cut))
    q_hi = float(model.quantile(1.0 - p_cut))
    # the log-slope decreases, so the strike range runs from the right tail
    # slope (most negative w) to the left tail slope (most positive w)
    k_lo = s + yval * float(model.log_slope(q_hi))
    k_hi = s + yval * float(model.log_slope(q_lo))
    return CallCurve.from_function(
        lambda k: family_call_linear(model, s, yval, k), mean=s,
        domain=(k_lo, k_hi),
        provenance={"family": "linear", "density": model.family,
                    "s": s, "y": yval})


def geometric_family_curve(model: DensityModel, s: float, y: float,
                           p_cut: float = 1e-9):
    """Call curve of the geometric-family marginal at level y (positive
    variable with mean s)."""
    from .zonoid import CallCurve

    q_lo = float(model.quantile(p_cut))
    q_hi = float(model.quantile(1.0 - p_cut))
    r_lo = math.exp(float(model.log_pdf(q_hi + y)) - float(model.log_pdf(q_hi)))
    r_hi = math.exp(float(model.log_pdf(q_lo + y)) - float(model.log_pdf(q_lo)))
    k_lo = max(s * r_lo, 0.0)
    k_hi = s * r_hi
    return CallCurve.from_function(
        lambda k: family_call_geometric(model, s, y, k), mean=s,
        domain=(k_lo, k_hi), positive=True,
        provenance={"family": "geometric", "density": model.family,
                    "s": s, "y": y})
