"""Call curves, zonoid upper boundaries, and the transforms linking them.

The two central objects are

* :class:`CallCurve`: K -> E(X - K)^+ for an integrable X, represented either
  by a closed-form callable on a stated strike domain or by values on a grid
  (piecewise linear, extended by its asymptotes outside the grid); whether
  X >= 0 a.s. is read off the curve itself (``CallCurve.positive``), and
* :class:`ZonoidBoundary`: the concave upper boundary p -> sup{ E[X g(X)] :
  0 <= g <= 1, E g(X) = p } of the lift zonoid of X.

They are conjugate to each other:

    boundary(p) = min_K [ call(K) + p K ]          (0 < p < 1)
    call(K)     = max_{0 <= p <= 1} [ boundary(p) - p K ]

with the exact endpoint values boundary(0) = 0 and boundary(1) = E(X).
``upper_boundary_from_calls`` and ``calls_from_upper_boundary`` implement the
two directions through ``_conjugate``, the one routine that picks a route.  On
grids it runs ``numerics.legendre_min``: O(N + M log N) for N nodes, M points.
Its convex chain and ``project_convex_decreasing``'s exact strict lower hull
come from one routine, ``numerics.lower_hull``'s peel, with two turn tests:
vectorised passes drop every node where the float slope does not rise (the
kernel) or whose exact turn is <= 0 (the projection), and the monotone
chain with the exact turn finishes inputs that 32 passes do not settle.
A family curve from ``pricing`` carries its exact boundary, s p + y G(p)
or s H_y(p), as ``conjugate``: one G or H evaluation per p in place of the
minimiser.  ``boundary_from_quantile_integral`` is an independent route
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
from .numerics import (_real_array, as_float_array, gauss_kronrod, golden_section_min,
                       increasing_grid, legendre_min, like_input, lower_hull, probabilities,
                       real_scalar)

_P_EPS = 1e-9          # probability clipping for continuous searches
_Q_EPS = 1e-12         # quantile clipping for quadrature supports
_DEFAULT_GRID_N = 2001
_LOGIT_HALF_WIDTH = 14.0  # default p grid: interior nodes even in logit p on [-14, 14]
_SAMPLE_N, _SHAPE_SLACK = 513, 1e-9        # validate: closed-form sample, shape slack
_TAIL_TOL, _POSITIVE_TOL = 1e-3, 1e-6  # CallCurve.validate / .positive gap, x max(1, |mean|)
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


def _check_form(obj, nodes: str, grid_rule: Callable, kind: str) -> None:
    """The rules every ``CallCurve`` and ``ZonoidBoundary`` keeps, however it
    is built: exactly one of ``fn`` and the grid (``nodes``, values), and a
    grid's values finite and its nodes through ``grid_rule``, of one shape;
    the checked arrays replace the given ones."""
    if [getattr(obj, nodes) is not None, obj.values is not None] != [obj.fn is None] * 2:
        raise ValidationError(f"exactly one of fn and the ({nodes}, values) grid must be set")
    if obj.fn is None:
        values = as_float_array(obj.values, "values")
        x = grid_rule(getattr(obj, nodes), nodes)
        if x.shape != values.shape:
            raise ValidationError(f"{kind} and value grids must be matching 1-d arrays")
        object.__setattr__(obj, nodes, x)
        object.__setattr__(obj, "values", values)


# ---------------------------------------------------------------------------
# Curve objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CallCurve:
    """Non-increasing convex call curve of an integrable random variable.

    Exactly one of ``fn`` / (``strikes``, ``values``) is set; a grid-backed
    curve's ``k_lo`` and ``k_hi`` are its end strikes.  Outside the grid it
    follows its asymptotes: ``mean - K`` to the left and ``0`` to the right.
    """

    mean: float
    k_lo: float
    k_hi: float
    fn: Optional[Callable] = None
    strikes: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None
    provenance: dict = field(default_factory=dict)
    # the exact boundary p -> values; set only by the pricing family curves
    conjugate: Optional[Callable] = field(default=None, repr=False)

    def __post_init__(self):
        _check_form(self, "strikes", increasing_grid, "strike")
        for name in ("mean", "k_lo", "k_hi"):
            object.__setattr__(self, name, real_scalar(getattr(self, name), name, ValidationError))
        if self.fn is None and (self.k_lo != self.strikes[0] or self.k_hi != self.strikes[-1]):
            raise ValidationError("k_lo and k_hi of a grid curve must be its end strikes")
        if not self.k_lo < self.k_hi:
            raise ValidationError("call curve domain must be a finite interval")

    @classmethod
    def from_function(cls, fn, mean, domain, provenance=None) -> "CallCurve":
        return cls(mean, domain[0], domain[1], fn=fn, provenance=dict(provenance or {}))

    @classmethod
    def from_grid(cls, strikes, values, mean=None, provenance=None) -> "CallCurve":
        # the constructor checks the grid; its ends are read unchecked, and
        # an inferred mean is set once the grid has passed
        strikes = np.asarray(strikes)
        ends = (strikes.flat[0], strikes.flat[-1]) if strikes.size else (0.0, 0.0)
        curve = cls(0.0 if mean is None else mean, *ends, strikes=strikes, values=values,
                    provenance=dict(provenance or {}))
        if mean is None:
            # the left-end asymptote C(K) ~ mean - K fixes the mean, but only
            # once the grid has reached it (slope -1)
            strikes, values = curve.strikes, curve.values
            slope = float((values[1] - values[0]) / (strikes[1] - strikes[0]))
            if abs(slope + 1.0) > 1e-6:
                raise ValidationError(
                    f"cannot infer the mean: the leftmost grid slope is {slope:.6g}, "
                    f"not -1, so the grid stops short of the intrinsic asymptote; "
                    f"pass the mean")
            object.__setattr__(curve, "mean", real_scalar(values[0] + strikes[0], "mean",
                                                          ValidationError))
        return curve

    @property
    def is_grid(self) -> bool:
        return self.fn is None

    @property
    def positive(self) -> bool:
        """Whether X >= 0 a.s., read off the curve: C(K) + K = mean at
        K = max(k_lo, 0), to 1e-6 max(1, |mean|).  At K = 0 that is E X^+ = E X;
        at k_lo > 0 the curve sits on its asymptote mean - K for every K <= k_lo."""
        k = max(self.k_lo, 0.0)
        return abs(self.__call__(k) + k - self.mean) <= _POSITIVE_TOL * _value_scale(self.mean)

    def __call__(self, k):
        k = as_float_array(k, "strike")
        # outside [k_lo, k_hi] the curve sits on its asymptotes; the fn is only
        # trusted inside (it may reject outside strikes), so it gets them clipped
        if self.fn is not None:
            inside = _real_array(self.fn(np.clip(k, self.k_lo, self.k_hi)), "call fn value")
            out = np.where(k > self.k_hi, 0.0, inside)
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
        domain endpoints.  A grid curve is checked on its stored values (the
        curve at its own nodes), a closed-form one on _SAMPLE_N strikes.  The
        shape slacks allow for prices that round at noise = 8 eps max(|mean|,
        max |K|), as differences of terms that size do: noise per value,
        2 noise (1/h + 1/h') per slope increment."""
        ks = self.sample_grid()
        steps = np.diff(ks)
        if not steps.all():  # on a domain a few ulps wide linspace repeats floats
            ks = np.unique(ks)
            steps = np.diff(ks)
        vals = self.values if self.is_grid else self.__call__(ks)
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

    def __post_init__(self):
        _check_form(self, "probs", _probability_grid, "probability")
        object.__setattr__(self, "mean", real_scalar(self.mean, "mean", ValidationError))

    @classmethod
    def from_function(cls, fn, mean, provenance=None) -> "ZonoidBoundary":
        return cls(mean, fn=fn, provenance=dict(provenance or {}))

    @classmethod
    def from_grid(cls, probs, values, mean=None, provenance=None) -> "ZonoidBoundary":
        # the constructor checks the grid; an inferred mean is set once it has passed
        boundary = cls(0.0 if mean is None else mean, probs=probs, values=values,
                       provenance=dict(provenance or {}))
        if mean is None:
            if boundary.probs[-1] != 1.0:
                raise ValidationError("mean is required when the grid does not reach p = 1")
            object.__setattr__(boundary, "mean", float(boundary.values[-1]))
        return boundary

    @property
    def is_grid(self) -> bool:
        return self.fn is None

    def __call__(self, p):
        p = probabilities(p, "boundary argument")
        if self.fn is not None:
            out = _real_array(self.fn(p), "boundary fn value")
            out = np.where(p == 0.0, 0.0, np.where(p == 1.0, self.mean, out))
        else:
            if np.any(p < self.probs[0]) or np.any(p > self.probs[-1]):
                raise DomainError("p outside the stored boundary grid")
            out = np.interp(p, self.probs, self.values)
        return like_input(out, p)

    def lower(self, p):
        """Lower boundary branch mean - upper(1 - p)."""
        return self.mean - self.__call__(1.0 - probabilities(p, "p"))

    def sample_grid(self) -> np.ndarray:
        if self.is_grid:
            return self.probs
        return np.linspace(0.0, 1.0, _SAMPLE_N)

    def validate(self) -> None:
        ps = self.sample_grid()
        vals = self.values if self.is_grid else self.__call__(ps)
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
        on the law's own scale on each side: by half the spread, or by
        max(1, |atom|) for a single atom.  A pad far wider than the law puts
        its atoms within rounding of the chord to the pad nodes, where the
        transform's float peel drops them."""
        atoms = self.atoms
        spread = float(atoms[-1] - atoms[0])
        pad = 0.5 * spread if spread > 0.0 else max(1.0, abs(float(atoms[0])))
        left = max(0.0, atoms[0] - pad) if atoms[0] > 0.0 else atoms[0] - pad
        strikes = np.concatenate(([left], atoms, [atoms[-1] + pad]))
        return CallCurve.from_grid(strikes, self.call_value(strikes), mean=self.mean,
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
            if pgrid.ndim != 1:
                raise ValidationError("pgrid must be a 1-d array")
            probs = np.unique(np.concatenate((kinks, pgrid)))
        vals = discrete_upper_boundary(self, probs)
        return ZonoidBoundary.from_grid(probs, vals, mean=self.mean,
                                        provenance={"kind": "discrete"})


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def _conjugate(obj, dual, sign: int, lo: float, hi: float, logit: bool):
    """sign min_x [sign f(x) + d x] at every d of ``dual``, and the provenance
    with its ``route``: f is a ``CallCurve`` (sign +1, x the strike, d = p)
    or a ``ZonoidBoundary`` (sign -1, x = p, d the strike).  "exact" returns
    the object's ``conjugate``, that transform itself (a family curve's: one
    G or H evaluation per p); "grid" runs the discrete Legendre transform
    over the stored nodes; "golden" minimises a closed form on [lo, hi] by
    ``golden_section_min`` (scan even in x, or in logit x)."""
    if getattr(obj, "conjugate", None) is not None:
        return obj.conjugate(dual), dict(obj.provenance, route="exact")
    if obj.is_grid:
        route = "grid"
        vals, _ = legendre_min(obj.sample_grid(), sign * obj.values, dual)
    else:
        route = "golden"
        _, vals = golden_section_min(lambda xd: sign * obj(xd[0]) + xd[1] * xd[0],
                                     lo, hi, args=(dual,), logit=logit)
    # 0.0 - x keeps an exact zero at +0.0
    return (vals if sign > 0 else 0.0 - vals), dict(obj.provenance, route=route)


def upper_boundary_from_calls(curve: CallCurve, pgrid=None) -> ZonoidBoundary:
    """Conjugate transform boundary(p) = min_K [C(K) + p K] on a p grid by
    ``_conjugate`` ("exact", "grid", or "golden" over [k_lo, k_hi]).  The p
    grid is checked before the curve is touched, then the curve is always
    validated.  Endpoint values are pinned exactly: boundary(0) = 0,
    boundary(1) = mean.  The default p grid has 2001 nodes: 0, 1999 nodes
    evenly spaced in logit p on [-14, 14] (p from 8.3e-7 to 1 - 8.3e-7), and
    1: the boundary's slope at p is the strike X exceeds with probability p,
    so the tail strikes near p = 0 and 1 get nodes an even p grid lacks."""
    if pgrid is None:
        logits = np.linspace(-_LOGIT_HALF_WIDTH, _LOGIT_HALF_WIDTH, _DEFAULT_GRID_N - 2)
        pgrid = np.concatenate(([0.0], 1.0 / (1.0 + np.exp(-logits)), [1.0]))
    pgrid = _probability_grid(pgrid, "pgrid")
    curve.validate()
    vals, provenance = _conjugate(curve, pgrid, 1, curve.k_lo, curve.k_hi, logit=False)
    vals = np.where(pgrid == 0.0, 0.0, vals)
    vals = np.where(pgrid == 1.0, curve.mean, vals)
    return ZonoidBoundary.from_grid(pgrid, vals, mean=curve.mean, provenance=provenance)


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


def calls_from_upper_boundary(boundary: ZonoidBoundary, kgrid=None) -> CallCurve:
    """Conjugate transform C(K) = max_{0<=p<=1} [boundary(p) - p K] on a
    strike grid, after always validating the boundary, by ``_conjugate``
    ("grid", or "golden" over [1e-9, 1 - 1e-9] with a logit scan); the
    p in {0, 1} endpoint candidates (0 and mean - K) are always included."""
    boundary.validate()
    if kgrid is None:
        kgrid = _default_kgrid(boundary, _DEFAULT_GRID_N)
    kgrid = increasing_grid(kgrid, "kgrid")
    vals, provenance = _conjugate(boundary, kgrid, -1, _P_EPS, 1.0 - _P_EPS, logit=True)
    vals = np.maximum(np.maximum(vals, 0.0), boundary.mean - kgrid)
    return CallCurve.from_grid(kgrid, vals, mean=boundary.mean, provenance=provenance)


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

    Requires a ``positive`` curve (so C(K) = mean - K for K <= 0) and a
    real scalar 0 < q < mean; the endpoint limits are 0 and 1.  The curve is
    validated, and a grid curve needs a strike above 0 (else DomainError).
    """
    q = real_scalar(q, "q")
    if not curve.positive:
        raise UnsupportedError("inverse_boundary_positive needs a positive-variable curve")
    m = curve.mean
    if q <= 0.0 or q >= m:  # no such q when m <= 0
        raise DomainError(f"q must lie strictly inside (0, mean), got {q!r}")
    curve.validate()
    k_lo, k_hi = max(curve.k_lo, 1e-12 * _value_scale(m)), curve.k_hi
    if curve.is_grid:
        nodes = curve.strikes[curve.strikes > 0.0]
        if not nodes.size:
            raise DomainError("inverse_boundary_positive needs a grid strike above 0")
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
    kgrid = increasing_grid(kgrid, "kgrid", min_size=1)
    gap = curve_x(kgrid) - curve_y(kgrid)
    return bool(np.max(gap) <= _ORDER_SLACK * _value_scale(curve_x.mean))


def check_arithmetic_symmetry(curve: CallCurve, kgrid=None) -> bool:
    """True when C(K) = -K + C(-K) at each strike of the grid, i.e. X is
    symmetric about 0 (equivalently the boundary satisfies b(p) = b(1-p)).
    The grid need not be symmetric; the default one is, on [-a, a]."""
    if kgrid is None:
        if not (curve.k_lo < 0.0 < curve.k_hi):
            raise DomainError("need a strike domain straddling 0")
        a = min(-curve.k_lo, curve.k_hi)
        kgrid = np.linspace(-a, a, 1001)
    kgrid = increasing_grid(kgrid, "kgrid", min_size=1)
    gap = curve(kgrid) - (-kgrid + curve(-kgrid))
    return bool(np.max(np.abs(gap)) <= _ARITH_SYM_TOL)


def check_geometric_symmetry(curve: CallCurve, kgrid=None) -> bool:
    """True when C(K) = 1 - K + K C(1/K) across the grid (put-call symmetry
    of a positive variable with mean 1; the curve must read ``positive``)."""
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
    kgrid = increasing_grid(kgrid, "kgrid", min_size=1)
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
