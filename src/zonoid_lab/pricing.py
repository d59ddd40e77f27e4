"""Closed-form call prices.

Marginals built from a log-concave density model, in two families:

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

The Bachelier and Black-Scholes models are the gaussian members of the two
families at y = sigma sqrt(t) (``MODEL_FAMILIES``): their curves are
``linear_family_curve`` / ``geometric_family_curve`` of the gaussian, and
``bachelier_call`` / ``black_scholes_call`` keep the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densities import (DensityModel, _scipy_special, inverse_log_slope, inverse_ratio,
                        require_log_concave)
from .errors import DomainError, RangeError, ValidationError
from .numerics import as_float_array, like_input, real_scalar, stand_in
from .peacocks import family_boundary
from .zonoid import CallCurve

_SQRT2PI = math.sqrt(2.0 * math.pi)

# model name -> kind of the family whose gaussian member the model is
MODEL_FAMILIES = {"bachelier": "linear", "black_scholes": "geometric"}


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
            object.__setattr__(self, name, real_scalar(getattr(self, name), name, ValidationError))
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
        out = v * _phi(d) + (params.s0 - k) * _scipy_special().ndtr(d)
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
        ndtr = _scipy_special().ndtr
        out = params.s0 * ndtr(d1) - k * ndtr(d1 - v)
    return like_input(out, k)


# ---------------------------------------------------------------------------
# Family prices
# ---------------------------------------------------------------------------

def check_level(y) -> None:
    """DomainError unless the family level y is a non-negative real scalar
    by ``numerics.real_scalar`` (an array of any size, a list or a complex
    level is rejected)."""
    try:
        if real_scalar(y, "y") >= 0.0:
            return
    except DomainError:
        pass
    raise DomainError("y must be non-negative and finite, and a scalar")


def family_prices(kind: str, model: DensityModel, s: float, y: float, k):
    """Call price C(K), survival probability P(X > K) = -C'(K) and clamp flag
    of the ``kind`` ("linear" or "geometric") family marginal at level y,
    from one inverse solve per strike.

    Strikes outside the reachable range are clamped (flag True): C = s - K
    and P = 1 below it, C = 0 and P = 0 above it.  Both families start at
    level 0 from the point mass at s, so y = 0 clamps every strike:
    C = (s - K)^+ and P = 1{K < s}.  Raises DomainError unless s is a finite
    real scalar (``numerics.real_scalar``; positive, with non-negative
    strikes, for the geometric family) and y is non-negative and finite.  Raises RangeError, naming the level, when
    the geometric ratio range holds floats but not 1: the tail cut of a
    ``custom`` model has then lost the law's mass (the gaussian twin from
    y = 14.07 on).  A range with no float inside clamps every strike.
    """
    if kind not in ("linear", "geometric"):
        raise ValidationError(f"unknown family kind {kind!r}")
    check_level(y)
    s = real_scalar(s, "s")
    if kind == "geometric" and s <= 0.0:
        raise DomainError("s must be positive for the geometric family")
    k = as_float_array(k, "strike")
    if kind == "geometric" and (k < 0.0).any():
        raise DomainError("geometric family strikes must be non-negative")
    if y == 0.0:
        below, clamped, mid = k < s, np.ones(k.shape, dtype=bool), math.nan
    else:
        if kind == "linear":
            x, (x_lo, x_hi), mid = (k - s) / y, model.log_slope_range(), 0.0
        else:
            x, (x_lo, x_hi), mid = k / s, model.ratio_range(y), 1.0
        below = x <= x_lo
        clamped = below | (x >= x_hi)
        mid = stand_in(mid, x_lo, x_hi)  # the inverse's argument at clamped strikes
        if kind == "geometric" and not (math.isnan(mid) or mid == 1.0):
            # E f(Z + y)/f(Z) = 1, so a range without 1 has lost the law's mass
            raise RangeError(f"level y = {y!r} is past the model's tail cut: its ratio "
                             f"range ({x_lo!r}, {x_hi!r}) does not contain 1")
    call, surv = np.where(below, s - k, 0.0), below.astype(np.float64)
    if not math.isnan(mid):  # else y = 0 or a range with no float inside: all clamped
        x = np.where(clamped, mid, x)
        if kind == "linear":
            u = inverse_log_slope(model, x)
            tail = model.cdf(u)
            inner = y * (model.pdf(u) - tail * x)
        else:
            v = inverse_ratio(model, y, x)
            tail = model.cdf(v)
            # s F(V + y) - K F(V) cancels near the top edge; a call is >= 0
            inner = np.maximum(s * model.cdf(v + y) - k * tail, 0.0)
        call, surv = np.where(clamped, call, inner), np.where(clamped, surv, tail)
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

def linear_family_curve(model: DensityModel, s: float, yval: float):
    """Call curve of the linear-family marginal at level yval."""
    return _family_curve("linear", model, s, yval)


def geometric_family_curve(model: DensityModel, s: float, y: float):
    """Call curve of the geometric-family marginal at level y (positive
    variable with mean s)."""
    return _family_curve("geometric", model, s, y)


def _family_curve(kind: str, model: DensityModel, s: float, y: float):
    """The family's call curve on the strike image of the density's quantile
    bounds; (log f)' and the ratio decrease, so the right tail gives k_lo.
    Where that image holds no interval (y = 0, the point mass at s with
    C = (s - K)^+, or a level so small that it rounds to one float), the
    domain is one around s.  Its ``conjugate`` is the exact boundary
    (log-concave models only, or y = 0)."""
    check_level(y)  # the domain's edges use s and y before any price checks them
    real_scalar(s, "s")

    def conjugate(p):
        if y != 0.0:
            require_log_concave(model, f"the {kind} family boundary")
        return family_boundary(kind, model, s, y, p)

    if kind == "linear":
        edge = lambda q: s + y * float(model.log_slope(q))
        price = family_call_linear
    else:
        edge = lambda q: s * math.exp(float(model.log_pdf(q + y)) - float(model.log_pdf(q)))
        price = family_call_geometric
    q_lo, q_hi = model.quantile_bounds()
    domain = (edge(q_hi), edge(q_lo))
    if not domain[0] < domain[1]:
        domain = (0.5 * s, 2.0 * s) if kind == "geometric" else (s - 1.0, s + 1.0)
    return CallCurve(s, *domain, fn=lambda k: price(model, s, y, k), conjugate=conjugate,
                     provenance={"family": kind, "density": model.family, "s": s, "y": y})
