"""Call curves, zonoid upper boundaries, and the transforms linking them.

The two central objects are

* :class:`CallCurve`: K -> E(X - K)^+ for an integrable X, represented either
  by a closed-form callable on a stated strike domain or by values on a grid
  (piecewise linear, extended by its asymptotes outside the grid), and
* :class:`ZonoidBoundary`: the concave upper boundary p -> sup{ E[X g(X)] :
  0 <= g <= 1, E g(X) = p } of the lift zonoid of X.

They are conjugate to each other:

    boundary(p) = min_K [ call(K) + p K ]          (0 < p < 1)
    call(K)     = max_{0 <= p <= 1} [ boundary(p) - p K ]

with the exact endpoint values boundary(0) = 0 and boundary(1) = E(X).
``upper_boundary_from_calls`` and ``calls_from_upper_boundary`` implement the
two directions.  On grids both run the discrete Legendre transform
``numerics.legendre_min``: O(N + M log N) for N nodes and M output points;
nodes that are not convex add a few vectorised float hull passes, and the
exact ``numerics.lower_hull`` only when those do not settle the hull.
``project_convex_decreasing`` starts from that exact strict lower hull:
vectorised peel passes with an exact turn predicate, then the monotone
chain with the same predicate when 32 passes do not settle it.  A family curve
from ``pricing`` carries its exact boundary, s p + y G(p) or s H_y(p), as
``conjugate``: one G or H evaluation per p in place of the minimiser.
``boundary_from_quantile_integral`` is an independent route
through the integral of the upper quantile function, and
``discrete_upper_boundary`` solves the finite-atom problem exactly by the
threshold-rule construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .densities import DensityModel
from .errors import DomainError, UnsupportedError, ValidationError
from .numerics import (as_float_array, gauss_kronrod, golden_section_min, increasing_grid,
                       legendre_min, like_input, lower_hull, probabilities)

_P_EPS = 1e-9          # probability clipping for continuous searches
_Q_EPS = 1e-12         # quantile clipping for quadrature supports
_DEFAULT_GRID_N = 2001
_LOGIT_HALF_WIDTH = 14.0  # default p grid: interior nodes even in logit p on [-14, 14]
_SAMPLE_N, _SHAPE_SLACK = 513, 1e-9        # validate: closed-form sample, shape slack
_TAIL_TOL = 1e-3       # CallCurve.validate asymptote gap, times max(1, |mean|)
_MEAN_TOL, _ORDER_SLACK = 1e-10, 1e-12     # check_convex_order (slack times max(1, |mean|))
_ARITH_SYM_TOL, _GEOM_SYM_TOL = 1e-8, 1e-6  # the two symmetry checks


def _value_scale(mean: float) -> float:
    return max(1.0, abs(mean))


def _probability_grid(probs, name: str) -> np.ndarray:
    """``increasing_grid`` inside [0, 1]; a ValidationError, where
    ``numerics.probabilities`` raises DomainError for single arguments."""
    probs = increasing_grid(probs, name)
    if probs[0] < 0.0 or probs[-1] > 1.0:
        raise ValidationError("probability grid must lie in [0, 1]")
    return probs


# ---------------------------------------------------------------------------
# Curve objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CallCurve:
    """Non-increasing convex call curve of an integrable random variable.

    Exactly one of ``fn`` / (``strikes``, ``values``) is set.  Outside the
    grid a grid-backed curve follows its asymptotes: ``mean - K`` to the left
    and ``0`` to the right.  ``positive`` certifies that the underlying
    variable is almost surely positive (so C(K) = mean - K for K <= 0).
    """

    mean: float
    k_lo: float
    k_hi: float
    fn: Optional[Callable] = None
    strikes: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None
    positive: bool = False
    provenance: dict = field(default_factory=dict)
    # the exact boundary p -> values; set only by the pricing family curves
    conjugate: Optional[Callable] = field(default=None, repr=False)

    @classmethod
    def from_function(cls, fn, mean, domain, positive=False, provenance=None) -> "CallCurve":
        k_lo, k_hi = float(domain[0]), float(domain[1])
        if not (np.isfinite(k_lo) and np.isfinite(k_hi) and k_lo < k_hi):
            raise ValidationError("call curve domain must be a finite interval")
        return cls(float(mean), k_lo, k_hi, fn=fn, positive=bool(positive),
                   provenance=dict(provenance or {}))

    @classmethod
    def from_grid(cls, strikes, values, mean=None, positive=False, provenance=None) -> "CallCurve":
        values = as_float_array(values, "values")
        strikes = increasing_grid(strikes, "strikes")
        if strikes.shape != values.shape:
            raise ValidationError("strike and value grids must be matching 1-d arrays")
        if mean is None:
            # the left-end asymptote C(K) ~ mean - K fixes the mean, but only
            # once the grid has reached it (slope -1)
            slope = float((values[1] - values[0]) / (strikes[1] - strikes[0]))
            if abs(slope + 1.0) > 1e-6:
                raise ValidationError(
                    f"cannot infer the mean: the leftmost grid slope is {slope:.6g}, "
                    f"not -1, so the grid stops short of the intrinsic asymptote; "
                    f"pass the mean")
            mean = float(values[0] + strikes[0])
        return cls(float(mean), float(strikes[0]), float(strikes[-1]),
                   strikes=strikes, values=values, positive=bool(positive),
                   provenance=dict(provenance or {}))

    @property
    def is_grid(self) -> bool:
        return self.fn is None

    def __call__(self, k):
        k = as_float_array(k, "strike")
        # outside [k_lo, k_hi] the curve sits on its asymptotes; the fn is only
        # trusted inside (it may reject outside strikes), so it gets them clipped
        if self.fn is not None:
            out = np.where(k > self.k_hi, 0.0, self.fn(np.clip(k, self.k_lo, self.k_hi)))
        else:
            out = np.interp(k, self.strikes, self.values, right=0.0)
        return like_input(np.where(k < self.k_lo, self.mean - k, out), k)

    def sample_grid(self) -> np.ndarray:
        if self.is_grid:
            return self.strikes
        return np.linspace(self.k_lo, self.k_hi, _SAMPLE_N)

    def validate(self) -> None:
        """Raise ValidationError unless the curve is a plausible call curve:
        non-increasing, convex (to slack), and near its asymptotes at the
        domain endpoints.  The shape slacks allow for prices that round at
        noise = 8 eps max(|mean|, max |K|), as differences of terms that size
        do: noise per value, 2 noise (1/h + 1/h') per slope increment."""
        ks = self.sample_grid()
        steps = np.diff(ks)
        if not steps.all():  # on a domain a few ulps wide linspace repeats floats
            ks = np.unique(ks)
            steps = np.diff(ks)
        vals = self.__call__(ks)
        if not np.all(np.isfinite(vals)):
            raise ValidationError("call curve values must be finite")
        noise = 8.0 * math.ulp(1.0) * max(abs(self.mean), abs(float(ks[0])), abs(float(ks[-1])))
        slack = _SHAPE_SLACK * max(float(vals.max() - vals.min()), 1e-300) + noise
        if np.any(np.diff(vals) > slack):
            raise ValidationError("call curve must be non-increasing")
        if vals.size >= 3:
            # Slope monotonicity, not second differences: the grid may be
            # non-uniform (e.g. geometric).  Call-curve slopes lie in [-1, 0],
            # so an absolute slack on slope increments is scale-correct.
            kinks = np.diff(np.diff(vals) / steps)  # slope increments; each slack is >= 1e-9
            if float(kinks.min()) < -_SHAPE_SLACK and np.any(
                    kinks < -_SHAPE_SLACK - 2.0 * noise * (1.0 / steps[:-1] + 1.0 / steps[1:])):
                raise ValidationError("call curve must be convex")
        tail_tol = _TAIL_TOL * _value_scale(self.mean)
        if abs(float(vals[-1])) > tail_tol:
            raise ValidationError(
                f"call curve does not decay at the right endpoint "
                f"(C({self.k_hi:g}) = {float(vals[-1]):.3g} > {tail_tol:.3g}); widen the grid")
        if abs(float(vals[0]) + ks[0] - self.mean) > tail_tol:
            raise ValidationError(
                f"call curve does not reach its intrinsic asymptote at the left "
                f"endpoint (C + K - m = {float(vals[0]) + ks[0] - self.mean:.3g})")


@dataclass(frozen=True, eq=False)
class ZonoidBoundary:
    """Concave upper boundary of a lift zonoid, pinned to (0,0) and (1,mean).

    The full zonoid region is recovered by symmetry: the lower boundary is
    p -> mean - boundary(1 - p), and the region is point-symmetric about
    (1/2, mean/2).
    """

    mean: float
    fn: Optional[Callable] = None
    probs: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None
    provenance: dict = field(default_factory=dict)

    @classmethod
    def from_function(cls, fn, mean, provenance=None) -> "ZonoidBoundary":
        return cls(float(mean), fn=fn, provenance=dict(provenance or {}))

    @classmethod
    def from_grid(cls, probs, values, mean=None, provenance=None) -> "ZonoidBoundary":
        values = as_float_array(values, "values")
        probs = _probability_grid(probs, "probs")
        if probs.shape != values.shape:
            raise ValidationError("probability and value grids must be matching 1-d arrays")
        if mean is None:
            if probs[-1] != 1.0:
                raise ValidationError("mean is required when the grid does not reach p = 1")
            mean = float(values[-1])
        return cls(float(mean), probs=probs, values=values,
                   provenance=dict(provenance or {}))

    @property
    def is_grid(self) -> bool:
        return self.fn is None

    def __call__(self, p):
        p = probabilities(p, "boundary argument")
        if self.fn is not None:
            out = np.asarray(self.fn(p), dtype=np.float64)
            out = np.where(p == 0.0, 0.0, np.where(p == 1.0, self.mean, out))
        else:
            if np.any(p < self.probs[0]) or np.any(p > self.probs[-1]):
                raise DomainError("p outside the stored boundary grid")
            out = np.interp(p, self.probs, self.values)
        return like_input(out, p)

    def lower(self, p):
        """Lower boundary branch mean - upper(1 - p)."""
        p_arr = np.asarray(p, dtype=np.float64)
        return self.mean - self.__call__(1.0 - p_arr)

    def sample_grid(self) -> np.ndarray:
        if self.is_grid:
            return self.probs
        return np.linspace(0.0, 1.0, _SAMPLE_N)

    def validate(self) -> None:
        ps = self.sample_grid()
        vals = self.__call__(ps)
        if not np.all(np.isfinite(vals)):
            raise ValidationError("boundary values must be finite")
        tol = 1e-12 * _value_scale(self.mean)
        if ps[0] == 0.0 and abs(float(vals[0])) > tol:
            raise ValidationError("boundary must start at (0, 0)")
        if ps[-1] == 1.0 and abs(float(vals[-1]) - self.mean) > tol:
            raise ValidationError("boundary must end at (1, mean)")
        if vals.size >= 3:
            # Slope monotonicity handles non-uniform grids (e.g. boundary
            # curves with kinks at atom weights).  Boundary slopes are
            # quantiles, so the slack scales with their magnitude.
            slopes = np.diff(vals) / np.diff(ps)
            slack = _SHAPE_SLACK * max(1.0, float(np.max(np.abs(slopes))))
            if float(np.max(np.diff(slopes))) > slack:
                raise ValidationError("boundary must be concave")


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Finite-support distribution with sorted atoms and positive weights."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        weights = as_float_array(self.weights, "weights")
        atoms = increasing_grid(self.atoms, "atoms", min_size=1)
        if atoms.shape != weights.shape:
            raise ValidationError("atoms and weights must be matching 1-d arrays")
        if np.any(weights <= 0.0):
            raise ValidationError("weights must be positive")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ValidationError("weights must sum to 1 within 1e-12")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def mean(self) -> float:
        return float(self.atoms @ self.weights)

    def call_value(self, k):
        """Exact E(X - K)^+ (piecewise linear in K with kinks at the atoms).

        Stepped in from the right along the sorted atoms, so only
        non-negative terms are ever added: C(x_i) = C(x_{i+1}) +
        P(X > x_i) (x_{i+1} - x_i), and C(K) = C(x_j) + P(X >= x_j) (x_j - K)
        for the first atom x_j above K.  The running sums are kept in long
        double and rounded once.  O(N + M log N) time, O(N + M) memory for
        N atoms and M strikes.
        """
        k = as_float_array(k, "strike")
        x = self.atoms.astype(np.longdouble)
        tail = np.cumsum(self.weights[::-1].astype(np.longdouble))[::-1]  # P(X >= x_i)
        at_atoms = np.append(np.cumsum((tail[1:] * np.diff(x))[::-1])[::-1], 0.0)
        j = np.searchsorted(self.atoms, k, side="right")
        jc = np.minimum(j, x.size - 1)
        out = np.where(j < x.size, at_atoms[jc] + tail[jc] * (x[jc] - k), 0.0)
        return like_input(out.astype(np.float64), k)

    def call_curve(self) -> CallCurve:
        """Piecewise-linear call curve with kinks exactly at the atoms, padded
        by max(1, spread / 2) on each side."""
        atoms = self.atoms
        pad = max(1.0, 0.5 * float(atoms[-1] - atoms[0]))
        positive = bool(atoms[0] > 0.0)
        left = atoms[0] - pad
        if positive:
            left = max(0.0, left)
        strikes = np.concatenate(([left], atoms, [atoms[-1] + pad]))
        values = self.call_value(strikes)
        return CallCurve.from_grid(strikes, values, mean=self.mean, positive=positive,
                                   provenance={"kind": "discrete", "n_atoms": int(atoms.size)})

    def boundary_curve(self, pgrid=None) -> ZonoidBoundary:
        """Piecewise-linear upper boundary with kinks at the cumulative
        descending weights (plus any requested grid nodes)."""
        tails = np.cumsum(self.weights[::-1])
        kinks = np.concatenate(([0.0], tails))
        kinks[-1] = 1.0
        if pgrid is None:
            probs = kinks
        else:
            pgrid = as_float_array(pgrid, "pgrid")
            probs = np.unique(np.concatenate((kinks, pgrid)))
        vals = discrete_upper_boundary(self, probs)
        return ZonoidBoundary.from_grid(probs, vals, mean=self.mean,
                                        provenance={"kind": "discrete"})


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def upper_boundary_from_calls(curve: CallCurve, pgrid=None, *,
                              validate: bool = True) -> ZonoidBoundary:
    """Conjugate transform boundary(p) = min_K [C(K) + p K] on a p grid.

    The p grid is checked before the curve is touched.  Endpoint values are
    pinned exactly: boundary(0) = 0, boundary(1) = mean.  The provenance's
    ``route`` names the method: "exact" for a family curve, which evaluates
    its ``conjugate`` (one G or H evaluation per p); "grid" for a grid-backed
    curve, minimised over its nodes by the linear-time discrete Legendre
    transform; "golden" for any other closed-form curve, the minimiser route
    (``numerics.golden_section_min`` over the strike domain).

    The default p grid has 2001 nodes: 0, 1999 nodes evenly spaced in
    logit p on [-14, 14] (p from 8.3e-7 to 1 - 8.3e-7), and 1.  The
    boundary's slope at p is the strike that X exceeds with probability p,
    so the tail strikes sit near p = 0 and p = 1, where an even grid in p
    has few nodes.
    """
    if pgrid is None:
        logits = np.linspace(-_LOGIT_HALF_WIDTH, _LOGIT_HALF_WIDTH, _DEFAULT_GRID_N - 2)
        pgrid = np.concatenate(([0.0], 1.0 / (1.0 + np.exp(-logits)), [1.0]))
    pgrid = _probability_grid(pgrid, "pgrid")
    if validate:
        curve.validate()
    if curve.conjugate is not None:
        route, vals = "exact", curve.conjugate(pgrid)
    elif curve.is_grid:
        route = "grid"
        vals, _ = legendre_min(curve.strikes, curve.values, pgrid)
    else:
        route = "golden"
        _, vals = golden_section_min(lambda kp: curve(kp[0]) + kp[1] * kp[0],
                                     curve.k_lo, curve.k_hi, args=(pgrid,))
    vals = np.where(pgrid == 0.0, 0.0, vals)
    vals = np.where(pgrid == 1.0, curve.mean, vals)
    return ZonoidBoundary.from_grid(pgrid, vals, mean=curve.mean,
                                    provenance=dict(curve.provenance, route=route))


def _default_kgrid(boundary: ZonoidBoundary, n: int) -> np.ndarray:
    if boundary.is_grid:
        slopes = np.diff(boundary.values) / np.diff(boundary.probs)
        k_lo, k_hi = float(slopes.min()), float(slopes.max())
    else:
        delta = 1e-6
        k_hi = (boundary(delta) - 0.0) / delta
        k_lo = (boundary.mean - boundary(1.0 - delta)) / delta
    if not k_lo < k_hi:
        raise ValidationError("cannot infer a strike grid from this boundary")
    return np.linspace(k_lo, k_hi, n)


def calls_from_upper_boundary(boundary: ZonoidBoundary, kgrid=None, *,
                              validate: bool = True) -> CallCurve:
    """Conjugate transform C(K) = max_{0<=p<=1} [boundary(p) - p K] on a
    strike grid; the p in {0, 1} endpoint candidates (0 and mean - K) are
    always included; a closed-form boundary goes to the minimiser."""
    if validate:
        boundary.validate()
    if kgrid is None:
        kgrid = _default_kgrid(boundary, _DEFAULT_GRID_N)
    kgrid = increasing_grid(kgrid, "kgrid")
    m = boundary.mean
    if boundary.is_grid:
        neg, _ = legendre_min(boundary.probs, -boundary.values, kgrid)
    else:
        _, neg = golden_section_min(lambda pk: pk[1] * pk[0] - boundary(pk[0]),
                                    _P_EPS, 1.0 - _P_EPS, args=(kgrid,), logit=True)
    vals = np.maximum(0.0 - neg, 0.0)   # 0.0 - x keeps an exact zero at +0.0
    vals = np.maximum(vals, m - kgrid)
    positive = bool(kgrid[0] >= 0.0 and m > 0.0
                    and abs(float(vals[0]) + kgrid[0] - m) <= 1e-6 * _value_scale(m))
    return CallCurve.from_grid(kgrid, vals, mean=m, positive=positive,
                               provenance=dict(boundary.provenance))


def discrete_upper_boundary(dist: DiscreteDistribution, p):
    """Exact boundary of a finite-atom distribution by the greedy threshold
    rule: take the largest atoms first, splitting the marginal atom."""
    p_arr = probabilities(p, "p")
    x_desc = dist.atoms[::-1]
    w_desc = dist.weights[::-1]
    cum_w = np.concatenate(([0.0], np.cumsum(w_desc)))
    cum_xw = np.concatenate(([0.0], np.cumsum(x_desc * w_desc)))
    cum_w[-1] = 1.0
    j = np.searchsorted(cum_w, p_arr, side="left")
    j = np.clip(j, 1, x_desc.size)
    out = cum_xw[j - 1] + x_desc[j - 1] * (p_arr - cum_w[j - 1])
    return like_input(out, p)


def boundary_from_quantile_integral(target: Union[DiscreteDistribution, DensityModel], p):
    """Boundary via the integral of the upper quantile of the survival
    function: boundary(p) = int_0^p Theta^{-1}(phi) dphi with
    Theta^{-1}(phi) = sup{K : Theta(K) >= phi}.

    This is an independent route from the conjugate transform and is used to
    cross-check it.  Densities must be integrable (the cauchy family is not).
    """
    p_arr = np.atleast_1d(probabilities(p, "p"))
    if isinstance(target, DiscreteDistribution):
        # integrate the step function Theta^{-1} piece by piece
        x_desc = target.atoms[::-1]
        tails = np.concatenate(([0.0], np.cumsum(target.weights[::-1])))
        tails[-1] = 1.0
        taken = np.clip(p_arr[:, None] - tails[None, :-1], 0.0,
                        np.diff(tails)[None, :])
        out = taken @ x_desc
    elif isinstance(target, DensityModel):
        if not target.has_mean:
            raise DomainError(f"{target.family} has no mean; boundary undefined")
        # one integral per p, all in one quadrature, on [F^-1(1 - p), upper]
        # clipped to the support cut: p <= 1e-12 gives the empty panel, 0
        upper = float(target.quantile(1.0 - _Q_EPS))
        lo = target.quantile(np.clip(1.0 - p_arr, _Q_EPS, 1.0 - _Q_EPS))
        out = gauss_kronrod(lambda x: x * target.pdf(x), lo, np.full(lo.shape, upper),
                            epsabs=1e-12, epsrel=1e-12)
    else:
        raise UnsupportedError(f"no quantile-integral route for {type(target).__name__}")
    return like_input(out, p)


def inverse_boundary_positive(curve: CallCurve, q: float) -> float:
    """Inverse boundary of a positive variable: the p with boundary(p) = q,
    computed by the direct formula p = max_{K > 0} (q - C(K)) / K.

    Requires a positivity certificate on the curve (so C(K) = mean - K for
    K <= 0) and 0 < q < mean; the endpoint limits are 0 and 1.
    """
    if not curve.positive:
        raise UnsupportedError("inverse_boundary_positive needs a positive-variable curve")
    m = curve.mean
    if m <= 0.0:
        raise DomainError("positive variable must have a positive mean")
    if not np.isfinite(q) or q <= 0.0 or q >= m:
        raise DomainError(f"q must lie strictly inside (0, mean), got {q!r}")
    scale = _value_scale(m)
    if abs(float(curve(0.0)) - m) > 1e-6 * scale:
        raise ValidationError("curve is not consistent with a positive variable: C(0) != mean")
    k_lo, k_hi = max(curve.k_lo, 1e-12 * scale), curve.k_hi
    if curve.is_grid:
        nodes = curve.strikes[curve.strikes > 0.0]
        ratios = (q - curve(nodes)) / nodes
        return float(np.clip(np.max(ratios), 0.0, 1.0))
    # maximise (q - C(K))/K; unimodal in K for convex C, searched in log-K
    neg = lambda u: -(q - curve(np.exp(u))) / np.exp(u)
    _, best = golden_section_min(neg, math.log(k_lo), math.log(k_hi))
    return float(np.clip(-best, 0.0, 1.0))


# ---------------------------------------------------------------------------
# Order and symmetry checks
# ---------------------------------------------------------------------------

def check_convex_order(curve_x: CallCurve, curve_y: CallCurve, kgrid=None) -> bool:
    """True when X is dominated by Y in the convex order: equal means and
    C_X <= C_Y at every grid strike."""
    if abs(curve_x.mean - curve_y.mean) > _MEAN_TOL:
        raise DomainError("convex order needs equal means")
    if kgrid is None:
        k_lo = min(curve_x.k_lo, curve_y.k_lo)
        k_hi = max(curve_x.k_hi, curve_y.k_hi)
        kgrid = np.linspace(k_lo, k_hi, 1001)
    kgrid = as_float_array(kgrid, "kgrid")
    gap = curve_x(kgrid) - curve_y(kgrid)
    return bool(np.max(gap) <= _ORDER_SLACK * _value_scale(curve_x.mean))


def check_arithmetic_symmetry(curve: CallCurve, kgrid=None) -> bool:
    """True when C(K) = -K + C(-K) across the grid, i.e. X is symmetric
    about 0 (equivalently the boundary satisfies b(p) = b(1-p))."""
    if kgrid is None:
        if not (curve.k_lo < 0.0 < curve.k_hi):
            raise DomainError("need a strike domain straddling 0")
        a = min(-curve.k_lo, curve.k_hi)
        kgrid = np.linspace(-a, a, 1001)
    kgrid = as_float_array(kgrid, "kgrid")
    if np.max(np.abs(np.sort(kgrid) + np.sort(-kgrid)[::-1])) > 1e-12:
        raise DomainError("strike grid must be symmetric about 0")
    gap = curve(kgrid) - (-kgrid + curve(-kgrid))
    return bool(np.max(np.abs(gap)) <= _ARITH_SYM_TOL)


def check_geometric_symmetry(curve: CallCurve, kgrid=None) -> bool:
    """True when C(K) = 1 - K + K C(1/K) across the grid (put-call symmetry
    of a positive variable with mean 1)."""
    if abs(curve.mean - 1.0) > 1e-10:
        raise DomainError("geometric symmetry requires mean exactly 1")
    if not curve.positive:
        raise UnsupportedError("geometric symmetry requires a positive-variable curve")
    if kgrid is None:
        if curve.k_hi <= 1.0:
            raise DomainError("strike domain must extend beyond 1")
        span = math.log(curve.k_hi)
        if curve.k_lo > 0.0:
            span = min(span, -math.log(curve.k_lo))
        kgrid = np.exp(np.linspace(-span, span, 1001))
    kgrid = as_float_array(kgrid, "kgrid")
    if np.any(kgrid <= 0.0):
        raise DomainError("strikes must be positive")
    gap = curve(kgrid) - (1.0 - kgrid + kgrid * curve(1.0 / kgrid))
    return bool(np.max(np.abs(gap)) <= _GEOM_SYM_TOL)


# ---------------------------------------------------------------------------
# Convex projection of noisy empirical curves
# ---------------------------------------------------------------------------

def project_convex_decreasing(strikes, values) -> Tuple[np.ndarray, float]:
    """Project a noisy curve onto the cone of convex, non-increasing curves
    with slopes in [-1, 0] (every true call curve satisfies this).

    Returns (projected_values, sup_distance).  A curve already in the cone is
    returned unchanged with distance 0.
    """
    y = as_float_array(values, "values")
    x = increasing_grid(strikes, "strikes")
    if x.shape != y.shape:
        raise ValidationError("strikes and values must be matching 1-d arrays")
    hull_idx = lower_hull(x, y)
    dx = np.diff(x)
    if hull_idx.size == x.size:
        slopes = np.diff(y) / dx
        if np.all((slopes >= -1.0) & (slopes <= 0.0)):
            return y.copy(), 0.0
    hull = np.interp(x, x[hull_idx], y[hull_idx])
    slopes = np.diff(hull) / dx
    clipped = np.clip(slopes, -1.0, 0.0)
    inside = np.nonzero(slopes == clipped)[0]
    anchor = int(inside[0]) if inside.size else int(np.argmin(hull))
    # re-anchor on the clipped slopes; cumsum adds sequentially, so this is
    # the same arithmetic as stepping node by node out from the anchor
    steps = clipped * dx
    out = np.empty_like(hull)
    out[:anchor + 1] = np.cumsum(np.concatenate(([hull[anchor]], -steps[:anchor][::-1])))[::-1]
    out[anchor:] = np.cumsum(np.concatenate(([hull[anchor]], steps[anchor:])))
    return out, float(np.max(np.abs(y - out)))
