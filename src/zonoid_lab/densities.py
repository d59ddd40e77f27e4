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

Each formula is written once, in a private kernel (``_quantile``,
``_log_pdf``, ``_log_slope``, and ``_log_ratio`` for the ratio map) that
takes float arrays or numpy scalars the package built itself and returns
what numpy gives.  The public evaluators are shells around them: they check
the caller's input (``as_float_array``, ``probabilities``) and apply
``like_input``.  The custom branches of the inverse maps hand the kernels to
``numerics.monotone_root``, whose points lie inside the bracket of
``quantile_bounds``, so a solve checks no point it made itself; the values a
caller's function returns still go through ``_real_array`` on every call.

Only the gaussian needs a special function: its F and F^-1 are scipy's
``ndtr`` and ``ndtri``, and ``scipy.special`` is imported on the first
gaussian evaluation (``_scipy_special``).  The logistic pair expit/logit is
elementary numpy and cauchy needs neither, so a process that evaluates no
gaussian never imports scipy.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError, RangeError, UnsupportedError, ValidationError
from .numerics import (_real_array, as_float_array, increasing_grid, like_input, monotone_root,
                       probabilities, real_scalar, require_uniform)

_SQRT2PI = math.sqrt(2.0 * math.pi)
_FAMILIES = ("gaussian", "logistic", "cauchy", "custom")

# Tail levels of DensityModel.quantile_bounds, the one tail cut (custom root
# brackets and ranges, every family-curve domain).  At 1e-12 a custom model's
# 1 - F and f keep relative precision for the sign tests; built-ins hold to 1e-15.
_BRACKET_EPS = 1e-12
_BUILTIN_EPS = 1e-15
_GRID_N, _GRID_HALF_WIDTH = 1001, 8.0  # default_grid: points, half-width in scales


@functools.cache
def _scipy_special():
    """``scipy.special``, imported on the first call: the gaussian F and F^-1
    (``ndtr``, ``ndtri``) are the package's only use of scipy."""
    from scipy import special
    return special


# The logistic kernels are numpy ufuncs on every input, so a scalar gives the
# array element bit for bit, and none raises a floating-point warning.

def _logistic_pdf(z):
    """expit(z) expit(-z), the standard logistic density: with e = exp(-|z|)
    the two factors are 1/(1 + e) and e/(1 + e), so one exponential, which
    cannot overflow, gives both, and both tails keep relative precision."""
    e = np.exp(-abs(z))
    d = 1.0 + e
    return (1.0 / d) * (e / d)


def _expit(z):
    """1 / (1 + exp(-z)), written as exp(min(z, 0)) / (1 + exp(-|z|)): neither
    exponential overflows, and below z = -709.78, where scipy's expit returns
    0, this keeps the subnormal exp(z)."""
    return np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-abs(z)))


def _logit(p):
    """log(p / (1 - p)) on [0, 1]: -inf at 0, inf at 1, nan at nan.  From
    1/4 on, x = 2p - 1 is exact and 2 artanh(x) keeps the relative precision
    of a result near 0 at p = 1/2; below 1/4, log of the ratio keeps that of
    a small p and overwrites it.  The infinities at x = -1 and 1 are filled
    in, not taken from artanh, which would warn."""
    x = 2.0 * p - 1.0
    out = np.arctanh(x, out=np.copysign(np.inf, x, out=np.empty_like(x)),
                     where=abs(x) != 1.0)
    out *= 2.0
    lo = np.minimum(p, 0.25)
    return np.log(lo / (1.0 - lo), out=out, where=(p > 0.0) & (p < 0.25))


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
    d2 = values[..., 2:] - 2.0 * values[..., 1:-1] + values[..., :-2]
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
    _quantile_bounds: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValidationError(f"unknown density family {self.family!r}")
        object.__setattr__(self, "location", real_scalar(self.location, "location",
                                                         ValidationError))
        object.__setattr__(self, "scale", real_scalar(self.scale, "scale", ValidationError))
        if self.scale <= 0.0:
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
        return cls(str(family), spec.get("location", 0.0), spec.get("scale", 1.0))

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
            out = _logistic_pdf(self._z(x)) / self.scale
        elif self.family == "cauchy":
            z = self._z(x)
            out = 1.0 / (math.pi * self.scale * (1.0 + z * z))
        else:
            out = _real_array(self.pdf_fn(x), "pdf")
        return like_input(out, x)

    def pdf_prime(self, x):
        x = as_float_array(x, "x")
        if self.family == "gaussian":
            z = self._z(x)
            out = -z / self.scale * np.exp(-0.5 * z * z) / (self.scale * _SQRT2PI)
        elif self.family == "logistic":
            z = self._z(x)  # f times (log f)' = -tanh(z/2) / scale
            out = -_logistic_pdf(z) * np.tanh(0.5 * z) / self.scale ** 2
        elif self.family == "cauchy":
            z = self._z(x)
            out = -2.0 * z / (math.pi * self.scale ** 2 * (1.0 + z * z) ** 2)
        else:
            out = _real_array(self.pdf_prime_fn(x), "pdf_prime")
        return like_input(out, x)

    def cdf(self, x):
        """F(x), with the limits F(-inf) = 0 and F(inf) = 1; x holds real
        numbers (the rule of ``numerics._real_array``) and no nan."""
        x = _real_array(x, "x")
        if np.any(np.isnan(x)):
            raise DomainError("x must not be nan")
        if self.family == "gaussian":
            out = _scipy_special().ndtr(self._z(x))
        elif self.family == "logistic":
            out = _expit(self._z(x))
        elif self.family == "cauchy":
            out = 0.5 + np.arctan(self._z(x)) / math.pi
        else:
            out = _real_array(self.cdf_fn(x), "cdf")
        return like_input(out, x)

    def quantile(self, p):
        p = probabilities(p, "probability level")
        return like_input(self._quantile(p), p)

    def _quantile(self, p):
        """F^-1 on probabilities the package has checked (the kernel of
        ``quantile``)."""
        if self.family == "gaussian":
            return self.location + self.scale * _scipy_special().ndtri(p)
        if self.family == "logistic":
            return self.location + self.scale * _logit(p)
        if self.family == "cauchy":
            return np.where(p == 0.0, -np.inf,
                            np.where(p == 1.0, np.inf,
                                     self.location + self.scale * np.tan(math.pi * (p - 0.5))))
        return _real_array(self.quantile_fn(p), "quantile")

    def log_pdf(self, x):
        x = as_float_array(x, "x")
        return like_input(self._log_pdf(x), x)

    def _log_pdf(self, x):
        """log f on finite points the package built (the kernel of ``log_pdf``)."""
        if self.family == "gaussian":
            z = self._z(x)
            return -0.5 * z * z - math.log(self.scale * _SQRT2PI)
        if self.family == "logistic":
            z = np.abs(self._z(x))
            return -z - 2.0 * np.log1p(np.exp(-z)) - math.log(self.scale)
        if self.family == "cauchy":
            z = self._z(x)
            return -np.log1p(z * z) - math.log(math.pi * self.scale)
        with np.errstate(divide="ignore"):
            return np.log(_real_array(self.pdf_fn(x), "pdf"))

    def log_slope(self, x):
        """(log f)'(x) = f'(x)/f(x); decreasing exactly when f is log-concave."""
        x = as_float_array(x, "x")
        return like_input(self._log_slope(x), x)

    def _log_slope(self, x):
        """(log f)' on finite points the package built (the kernel of
        ``log_slope``)."""
        if self.family == "gaussian":
            return -self._z(x) / self.scale
        if self.family == "logistic":
            return -np.tanh(0.5 * self._z(x)) / self.scale
        if self.family == "cauchy":
            z = self._z(x)
            return -2.0 * z / (self.scale * (1.0 + z * z))
        return _real_array(self.pdf_prime_fn(x), "pdf_prime") / _real_array(self.pdf_fn(x), "pdf")

    def _log_ratio(self, xy):
        """log f(x + y) - log f(x) for xy = (x, y) of one shape, from one log f
        evaluation on the stacked points (x + y, x), so one pdf call for a
        custom model: the map that ``inverse_ratio`` inverts and at whose
        tail cuts ``ratio_range`` ends."""
        x, y = xy
        both = self._log_pdf(np.array((x + y, x)))
        return both[0] - both[1]

    def log_curvature(self, x):
        """(log f)''(x); analytic for the built-ins, central differences of
        (log f)' at step 1e-5*scale for custom models."""
        x = as_float_array(x, "x")
        if self.family == "gaussian":
            out = np.full_like(x, -1.0 / self.scale ** 2)
        elif self.family == "logistic":
            out = -2.0 * _logistic_pdf(self._z(x)) / self.scale ** 2
        elif self.family == "cauchy":
            z = self._z(x)
            out = 2.0 * (z * z - 1.0) / (self.scale ** 2 * (1.0 + z * z) ** 2)
        else:
            h = 1e-5 * self.scale
            out = (self._log_slope(x + h) - self._log_slope(x - h)) / (2.0 * h)
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
        1e-15 for the built-ins: the one tail cut of the package, kept from
        the first call (at construction it would load scipy for a gaussian).
        DomainError unless both are finite: they bracket every custom root
        solve, whose points the kernels then take unchecked."""
        if self._quantile_bounds is None:
            eps = _BRACKET_EPS if self.family == "custom" else _BUILTIN_EPS
            bounds = as_float_array(self.quantile(np.array([eps, 1.0 - eps])), "quantile bounds")
            object.__setattr__(self, "_quantile_bounds", tuple(bounds.tolist()))
        return self._quantile_bounds

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
            # the map at x_hi (r_min) and x_lo (r_max), in one evaluation
            ends = np.reshape(self.quantile_bounds()[::-1], (2,) + (1,) * y_arr.ndim)
            lo, hi = np.exp(self._log_ratio((np.broadcast_to(ends, (2,) + y_arr.shape), y_arr)))
        return (lo, hi) if y_arr.ndim else (float(lo), float(hi))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _levels(y) -> np.ndarray:
    """The levels y as a float64 array (the rule of ``numerics._real_array``);
    DomainError unless each is positive and finite.  A scalar is tested in
    Python: a numpy reduction on a 0-d array costs more than the rest of a
    scalar ratio range."""
    y_arr = _real_array(y, "y")
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
    w_arr = as_float_array(w, "w")
    if model.family == "gaussian":
        return like_input(model.location - w_arr * model.scale ** 2, w)
    if model.family == "logistic":
        ws = w_arr * model.scale
        if np.any(ws <= -1.0) or np.any(ws >= 1.0):
            raise RangeError(f"w={w!r} outside the logistic log-slope range")
        # (log f)' = -tanh(z/2)/scale, so z = -2 artanh(ws): finite on (-1, 1)
        return like_input(model.location - 2.0 * model.scale * np.arctanh(ws), w)
    lo, hi = model.quantile_bounds()
    return monotone_root(model._log_slope, w_arr, lo, hi, xtol=1e-13 * model.scale)


def inverse_ratio(model: DensityModel, y, r):
    """V_y(r): the unique x with f(x + y)/f(x) = r, for log-concave f and y > 0.

    The level y and the ratio r are scalars or arrays that broadcast
    together; a float is returned only when both are scalars.
    """
    require_log_concave(model, "inverse_ratio")
    y_arr = _levels(y)
    r_arr = _real_array(r, "r")
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
    return monotone_root(model._log_ratio, np.log(r_arr), lo, hi, args=(y_arr,),
                         xtol=1e-13 * model.scale)


def check_log_concavity(model: DensityModel, grid=None) -> ConcavityReport:
    """Second-difference log-concavity certificate of f on a uniform grid.

    The slack is 1e-10 * step^2: strictly below the discrete curvature any
    genuinely convex kink produces, but above rounding noise.
    """
    if grid is None:
        grid = model.default_grid()
    grid = increasing_grid(grid, "grid", min_size=3)
    h = require_uniform(grid, "grid")
    return _concavity_report(grid, model.log_pdf(grid), 1e-10 * h * h)
