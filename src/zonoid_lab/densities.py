"""Density models on the real line and the inverse maps derived from them.

A :class:`DensityModel` bundles the four evaluators (pdf, pdf derivative, cdf,
quantile) for a location/scale family.  On top of those the module exposes the
two inverse maps that drive everything downstream:

* ``inverse_log_slope`` inverts the decreasing map x -> (log f)'(x); the
  result is the deep parameter behind linear-family pricing.
* ``inverse_ratio`` inverts the decreasing map x -> f(x + y)/f(x) for y > 0;
  it is the geometric-family analogue.

Both maps are monotone exactly when f is log-concave, which is why the
operations insist on a log-concavity certificate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np
from scipy import special

from .errors import DomainError, RangeError, UnsupportedError, ValidationError
from .numerics import (as_float_array, like_input, monotone_root, probabilities,
                       real_scalar, require_uniform)

_SQRT2PI = math.sqrt(2.0 * math.pi)
_FAMILIES = ("gaussian", "logistic", "cauchy", "custom")

# Tail levels of DensityModel.quantile_bounds, the one tail cut (custom root
# brackets and ranges, every family-curve domain).  At 1e-12 a custom model's
# 1 - F and f keep relative precision for the sign tests; built-ins hold to 1e-15.
_BRACKET_EPS = 1e-12
_BUILTIN_EPS = 1e-15
_GRID_N, _GRID_HALF_WIDTH = 1001, 8.0  # default_grid: points, half-width in scales
_BELOW_ONE = np.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class ConcavityReport:
    """Outcome of a grid second-difference concavity check.

    ``max_violation`` is the largest second difference seen (a concave
    function has non-positive ones); ``witness`` is the abscissa triple
    attaining it when the check fails.
    """

    is_concave: bool
    witness: Optional[Tuple[float, float, float]]
    max_violation: float


def _concavity_report(grid: np.ndarray, values: np.ndarray, slack: float) -> ConcavityReport:
    """The second-difference rule on the rows of ``values`` over ``grid``: the
    worst is the first largest in row-major order, a violation above slack."""
    v = np.asarray(values, dtype=np.float64)
    d2 = v[..., 2:] - 2.0 * v[..., 1:-1] + v[..., :-2]
    i = np.unravel_index(int(np.argmax(d2)), d2.shape)
    worst, j = float(d2[i]), i[-1]
    if worst <= slack:
        return ConcavityReport(True, None, worst)
    return ConcavityReport(False, (float(grid[j]), float(grid[j + 1]), float(grid[j + 2])), worst)


@dataclass(frozen=True)
class DensityModel:
    """A positive density on R from a named family or user callables.

    Parameters
    ----------
    family : one of ``gaussian``, ``logistic``, ``cauchy``, ``custom``.
    location, scale : affine family parameters; ``scale`` must be positive.
    pdf_fn, pdf_prime_fn, cdf_fn, quantile_fn : required for ``custom``
        models; each must be vectorised over numpy arrays.
    """

    family: str
    location: float = 0.0
    scale: float = 1.0
    pdf_fn: Optional[Callable] = None
    pdf_prime_fn: Optional[Callable] = None
    cdf_fn: Optional[Callable] = None
    quantile_fn: Optional[Callable] = None
    _custom_log_concave: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValidationError(f"unknown density family {self.family!r}")
        real_scalar(self.location, "location", ValidationError)
        if real_scalar(self.scale, "scale", ValidationError) <= 0.0:
            raise ValidationError("scale must be positive")
        if self.family == "custom":
            missing = [name for name, fn in (
                ("pdf_fn", self.pdf_fn), ("pdf_prime_fn", self.pdf_prime_fn),
                ("cdf_fn", self.cdf_fn), ("quantile_fn", self.quantile_fn),
            ) if fn is None]
            if missing:
                raise ValidationError(
                    f"custom models must supply all four evaluators; missing {missing}")
            report = check_log_concavity(self, self.default_grid())
            object.__setattr__(self, "_custom_log_concave", report.is_concave)
        elif self.pdf_fn or self.pdf_prime_fn or self.cdf_fn or self.quantile_fn:
            raise ValidationError("evaluator callables are only valid for family='custom'")

    # -- constructors -----------------------------------------------------

    @classmethod
    def gaussian(cls, location: float = 0.0, scale: float = 1.0) -> "DensityModel":
        return cls("gaussian", location, scale)

    @classmethod
    def logistic(cls, location: float = 0.0, scale: float = 1.0) -> "DensityModel":
        return cls("logistic", location, scale)

    @classmethod
    def cauchy(cls, location: float = 0.0, scale: float = 1.0) -> "DensityModel":
        return cls("cauchy", location, scale)

    @classmethod
    def custom(cls, pdf, pdf_prime, cdf, quantile,
               location: float = 0.0, scale: float = 1.0) -> "DensityModel":
        return cls("custom", location, scale, pdf_fn=pdf, pdf_prime_fn=pdf_prime,
                   cdf_fn=cdf, quantile_fn=quantile)

    @classmethod
    def from_spec(cls, spec) -> "DensityModel":
        """Build a model from ``{"family": ..., "location": ..., "scale": ...}``
        (dict or JSON string); a bare family name is accepted as shorthand."""
        if isinstance(spec, str):
            text = spec.strip()
            if text.startswith("{"):
                spec = json.loads(text)
            else:
                spec = {"family": text}
        if not isinstance(spec, dict):
            raise ValidationError(f"density spec must be a dict or string, got {spec!r}")
        family = spec.get("family")
        if family == "custom":
            raise UnsupportedError("custom models cannot be built from a JSON spec")
        return cls(str(family), float(spec.get("location", 0.0)),
                   float(spec.get("scale", 1.0)))

    def to_spec(self) -> dict:
        if self.family == "custom":
            raise UnsupportedError("custom models have no serialisable spec")
        return {"family": self.family, "location": self.location, "scale": self.scale}

    # -- basic evaluators --------------------------------------------------

    def _z(self, x):
        return (x - self.location) / self.scale

    def pdf(self, x):
        x = as_float_array(x, "x")
        if self.family == "gaussian":
            # exp(-800) is 0 already: the cap keeps z * z from overflowing far out
            z = np.minimum(np.abs(self._z(x)), 40.0)
            out = np.exp(-0.5 * z * z) / (self.scale * _SQRT2PI)
        elif self.family == "logistic":
            # expit(-z) in place of 1 - expit(z) keeps relative precision in
            # the right tail, where 1 - p has lost it
            z = self._z(x)
            out = special.expit(z) * special.expit(-z) / self.scale
        elif self.family == "cauchy":
            z = self._z(x)
            out = 1.0 / (math.pi * self.scale * (1.0 + z * z))
        else:
            out = np.asarray(self.pdf_fn(x), dtype=np.float64)
        return like_input(out, x)

    def pdf_prime(self, x):
        x = as_float_array(x, "x")
        if self.family == "gaussian":
            z = self._z(x)
            out = -z / self.scale * np.exp(-0.5 * z * z) / (self.scale * _SQRT2PI)
        elif self.family == "logistic":
            z = self._z(x)
            p, q = special.expit(z), special.expit(-z)
            out = p * q * (q - p) / self.scale ** 2
        elif self.family == "cauchy":
            z = self._z(x)
            out = -2.0 * z / (math.pi * self.scale ** 2 * (1.0 + z * z) ** 2)
        else:
            out = np.asarray(self.pdf_prime_fn(x), dtype=np.float64)
        return like_input(out, x)

    def cdf(self, x):
        """F(x), with the limits F(-inf) = 0 and F(inf) = 1."""
        x = np.asarray(x, dtype=np.float64)
        if np.any(np.isnan(x)):
            raise DomainError("x must not be nan")
        if self.family == "gaussian":
            out = special.ndtr(self._z(x))
        elif self.family == "logistic":
            out = special.expit(self._z(x))
        elif self.family == "cauchy":
            out = 0.5 + np.arctan(self._z(x)) / math.pi
        else:
            out = np.asarray(self.cdf_fn(x), dtype=np.float64)
        return like_input(out, x)

    def quantile(self, p):
        p = probabilities(p, "probability level")
        if self.family == "gaussian":
            out = self.location + self.scale * special.ndtri(p)
        elif self.family == "logistic":
            with np.errstate(divide="ignore"):
                out = self.location + self.scale * special.logit(p)
        elif self.family == "cauchy":
            out = np.where(
                p == 0.0, -np.inf,
                np.where(p == 1.0, np.inf,
                         self.location + self.scale * np.tan(math.pi * (p - 0.5))))
        else:
            out = np.asarray(self.quantile_fn(p), dtype=np.float64)
        return like_input(out, p)

    def log_pdf(self, x):
        x = as_float_array(x, "x")
        if self.family == "gaussian":
            z = self._z(x)
            out = -0.5 * z * z - math.log(self.scale * _SQRT2PI)
        elif self.family == "logistic":
            z = np.abs(self._z(x))
            out = -z - 2.0 * np.log1p(np.exp(-z)) - math.log(self.scale)
        elif self.family == "cauchy":
            z = self._z(x)
            out = -np.log1p(z * z) - math.log(math.pi * self.scale)
        else:
            with np.errstate(divide="ignore"):
                out = np.log(np.asarray(self.pdf_fn(x), dtype=np.float64))
        return like_input(out, x)

    def log_slope(self, x):
        """(log f)'(x) = f'(x)/f(x); decreasing exactly when f is log-concave."""
        x = as_float_array(x, "x")
        if self.family == "gaussian":
            out = -self._z(x) / self.scale
        elif self.family == "logistic":
            out = -np.tanh(0.5 * self._z(x)) / self.scale
        elif self.family == "cauchy":
            z = self._z(x)
            out = -2.0 * z / (self.scale * (1.0 + z * z))
        else:
            out = (np.asarray(self.pdf_prime_fn(x), dtype=np.float64)
                   / np.asarray(self.pdf_fn(x), dtype=np.float64))
        return like_input(out, x)

    def log_curvature(self, x):
        """(log f)''(x); analytic for the built-ins, central differences of
        (log f)' at step 1e-5*scale for custom models."""
        x = as_float_array(x, "x")
        if self.family == "gaussian":
            out = np.full_like(x, -1.0 / self.scale ** 2)
        elif self.family == "logistic":
            z = self._z(x)  # expit(-z), not 1 - expit(z): both tails keep precision
            out = -2.0 * special.expit(z) * special.expit(-z) / self.scale ** 2
        elif self.family == "cauchy":
            z = self._z(x)
            out = 2.0 * (z * z - 1.0) / (self.scale ** 2 * (1.0 + z * z) ** 2)
        else:
            h = 1e-5 * self.scale
            out = (self.log_slope(x + h) - self.log_slope(x - h)) / (2.0 * h)
        return like_input(out, x)

    # -- structure ---------------------------------------------------------

    @property
    def is_log_concave(self) -> bool:
        if self.family in ("gaussian", "logistic"):
            return True
        if self.family == "cauchy":
            return False
        return self._custom_log_concave

    @property
    def has_mean(self) -> bool:
        """Whether the density integrates |x| (cauchy does not)."""
        return self.family != "cauchy"

    def default_grid(self) -> np.ndarray:
        return np.linspace(self.location - _GRID_HALF_WIDTH * self.scale,
                           self.location + _GRID_HALF_WIDTH * self.scale, _GRID_N)

    def quantile_bounds(self) -> Tuple[float, float]:
        """[F^-1(eps), F^-1(1 - eps)] with eps = 1e-12 for custom models and
        1e-15 for the built-ins: the one tail cut of the package."""
        eps = _BRACKET_EPS if self.family == "custom" else _BUILTIN_EPS
        return tuple(self.quantile(np.array([eps, 1.0 - eps])).tolist())

    def log_slope_range(self) -> Tuple[float, float]:
        """Open range (w_min, w_max) of (log f)' over R."""
        if self.family == "gaussian":
            return (-np.inf, np.inf)
        if self.family == "logistic":
            return (-1.0 / self.scale, 1.0 / self.scale)
        if self.family == "cauchy":
            raise UnsupportedError("cauchy log-slope is not monotone")
        x_lo, x_hi = self.quantile_bounds()
        return (float(self.log_slope(x_hi)), float(self.log_slope(x_lo)))

    def ratio_range(self, y):
        """Open range (r_min, r_max) of x -> f(x+y)/f(x) for y > 0: floats for
        a scalar level, arrays of its shape for an array of levels."""
        y_arr = _levels(y)
        if self.family == "gaussian":
            lo, hi = np.zeros(y_arr.shape), np.full(y_arr.shape, np.inf)
        elif self.family == "logistic":
            lo, hi = np.exp(-y_arr / self.scale), np.exp(y_arr / self.scale)
        elif self.family == "cauchy":
            raise UnsupportedError("cauchy ratio map is not monotone")
        else:
            x_lo, x_hi = self.quantile_bounds()
            lo = np.exp(self.log_pdf(x_hi + y_arr) - self.log_pdf(x_hi))
            hi = np.exp(self.log_pdf(x_lo + y_arr) - self.log_pdf(x_lo))
        return (lo, hi) if y_arr.ndim else (float(lo), float(hi))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _levels(y) -> np.ndarray:
    """The levels y as a float64 array; DomainError unless each is positive
    and finite.  A scalar is tested in Python: a numpy reduction on a 0-d
    array costs more than the rest of a scalar ratio range."""
    y_arr = np.asarray(y, dtype=np.float64)
    if not (0.0 < float(y_arr) < math.inf if y_arr.ndim == 0
            else np.all((y_arr > 0.0) & np.isfinite(y_arr))):
        raise DomainError("y must be positive and finite")
    return y_arr


def require_log_concave(model: DensityModel, what: str) -> None:
    """UnsupportedError unless the model carries a log-concavity certificate."""
    if not model.is_log_concave:
        raise UnsupportedError(f"{what} needs a log-concave model, got {model.family}")


def inverse_log_slope(model: DensityModel, w):
    """U(w): the unique x with (log f)'(x) = w, for log-concave f.

    Accepts scalars or arrays.  Raises RangeError when any w falls outside
    the range of (log f)' and UnsupportedError when the model carries no
    log-concavity certificate.
    """
    require_log_concave(model, "inverse_log_slope")
    w_arr = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(w_arr)):
        raise DomainError("w must be finite")
    if model.family == "gaussian":
        return like_input(model.location - w_arr * model.scale ** 2, w)
    if model.family == "logistic":
        ws = w_arr * model.scale
        if np.any(ws <= -1.0) or np.any(ws >= 1.0):
            raise RangeError(f"w={w!r} outside the logistic log-slope range")
        # (1 - ws)/2 rounds to 1 within an ulp of ws = -1; logit(1) is inf
        half = np.minimum((1.0 - ws) * 0.5, _BELOW_ONE)
        return like_input(model.location + model.scale * special.logit(half), w)
    lo, hi = model.quantile_bounds()
    return monotone_root(model.log_slope, w_arr, lo, hi, xtol=1e-13 * model.scale)


def inverse_ratio(model: DensityModel, y, r):
    """V_y(r): the unique x with f(x + y)/f(x) = r, for log-concave f and y > 0.

    The level y and the ratio r are scalars or arrays that broadcast
    together; a float is returned only when both are scalars.
    """
    require_log_concave(model, "inverse_ratio")
    y_arr = _levels(y)
    r_arr = np.asarray(r, dtype=np.float64)
    if not np.all(np.isfinite(r_arr) & (r_arr > 0.0)):
        raise RangeError(f"r must be positive and finite, got {r!r}")
    if model.family == "gaussian":
        out = model.location - model.scale ** 2 * np.log(r_arr) / y_arr - 0.5 * y_arr
        return like_input(out, out)
    if model.family == "logistic":
        # Solve lam*((1+u)/(1+lam*u))^2 = r for u = exp(-(x-loc)/scale).
        r_lo, r_hi = model.ratio_range(y)
        if (r_arr <= r_lo).any() or (r_arr >= r_hi).any():
            raise RangeError(f"r={r!r} outside the logistic ratio range for y={y!r}")
        half_log_r = 0.5 * np.log(r_arr)
        a, b = half_log_r + 0.5 * y_arr / model.scale, half_log_r - 0.5 * y_arr / model.scale
        # an r within rounding of the range ends takes the limit x = +-inf
        log_u = (np.log(np.expm1(a), out=np.full_like(a, -np.inf), where=a > 0.0)
                 - np.log(-np.expm1(b), out=np.full_like(b, -np.inf), where=b < 0.0))
        out = model.location - model.scale * log_u
        return like_input(out, out)
    lo, hi = model.quantile_bounds()
    return monotone_root(lambda tl: model.log_pdf(tl[0] + tl[1]) - model.log_pdf(tl[0]),
                         np.log(r_arr), lo, hi, args=(y_arr,), xtol=1e-13 * model.scale)


def check_log_concavity(model: DensityModel, grid=None) -> ConcavityReport:
    """Second-difference log-concavity certificate of f on a uniform grid.

    The slack is 1e-10 * step^2: strictly below the discrete curvature any
    genuinely convex kink produces, but above rounding noise.
    """
    if grid is None:
        grid = model.default_grid()
    grid = as_float_array(grid, "grid")
    if grid.ndim != 1 or grid.size < 3:
        raise ValidationError("concavity grid needs at least 3 points")
    h = require_uniform(grid, "grid")
    return _concavity_report(grid, model.log_pdf(grid), 1e-10 * h * h)
