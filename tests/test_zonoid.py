"""Call-curve / zonoid-boundary duality tests.

Three independent routes are cross-checked throughout: the conjugate
transform, the quantile-integral route, and the exact greedy rule for
finite-atom distributions.  Hand-derived piecewise-linear cases (two-point
and uniform two-atom laws) pin exact values.
"""

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from zonoid_lab.densities import DensityModel
from zonoid_lab.errors import DomainError, UnsupportedError, ValidationError
from zonoid_lab import numerics, peacocks, pricing, zonoid
from zonoid_lab.numerics import legendre_min, monotone_root
from zonoid_lab.pricing import ModelParams, geometric_family_curve, linear_family_curve
from zonoid_lab.zonoid import (CallCurve, DiscreteDistribution, ZonoidBoundary,
                               boundary_from_quantile_integral,
                               calls_from_upper_boundary,
                               check_arithmetic_symmetry, check_convex_order,
                               check_geometric_symmetry,
                               discrete_upper_boundary,
                               inverse_boundary_positive,
                               project_convex_decreasing,
                               upper_boundary_from_calls)

GAUSS_MODEL, LOGISTIC = DensityModel.gaussian(), DensityModel.logistic()

COIN = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
TWO_ATOM = DiscreteDistribution([1.0, 3.0], [0.5, 0.5])


def legendre_min_oracle(call_values, kgrid, p):
    """Brute-force conjugate min_K [C(K) + pK] over a dense strike grid."""
    return np.min(call_values[None, :] + np.atleast_1d(p)[:, None] * kgrid[None, :],
                  axis=1)


def exact_turn_up(x0, y0, x1, y1, x2, y2):
    """Whether (x1, y1) lies strictly below the chord of its neighbours, in
    rational arithmetic (every float is an exact Fraction)."""
    return (y2 - y0) * (x1 - x0) > (y1 - y0) * (x2 - x0)


def exact_hull_oracle(x, y):
    """Strict lower hull, node by node: Andrew's monotone chain on exact turns."""
    xs, ys = [Fraction(v) for v in x.tolist()], [Fraction(v) for v in y.tolist()]
    hull_idx = [0]
    for i in range(1, x.size):
        while len(hull_idx) >= 2 and not exact_turn_up(
                xs[hull_idx[-2]], ys[hull_idx[-2]], xs[hull_idx[-1]], ys[hull_idx[-1]], xs[i], ys[i]):
            hull_idx.pop()
        hull_idx.append(i)
    return np.asarray(hull_idx)


def project_oracle(x, y):
    """Node-by-node reference for project_convex_decreasing: the exact strict
    hull, then one re-anchoring step at a time in the same arithmetic."""
    hull_idx = exact_hull_oracle(x, y)
    hull = np.interp(x, x[hull_idx], y[hull_idx])
    slopes = np.diff(hull) / np.diff(x)
    clipped = np.clip(slopes, -1.0, 0.0)
    inside = np.nonzero(slopes == clipped)[0]
    anchor = int(inside[0]) if inside.size else int(np.argmin(hull))
    out = np.empty_like(hull)
    out[anchor] = hull[anchor]
    for i in range(anchor - 1, -1, -1):
        out[i] = out[i + 1] - clipped[i] * (x[i + 1] - x[i])
    for i in range(anchor + 1, x.size):
        out[i] = out[i - 1] + clipped[i - 1] * (x[i] - x[i - 1])
    return out, float(np.max(np.abs(y - out)))


def atom_call_curve(atoms):
    """Equal-weight atom call curve sampled at its kinks, by suffix sums."""
    n = atoms.size
    strikes = np.concatenate(([atoms[0] - 1.0], atoms, [atoms[-1] + 1.0]))
    suffix = np.concatenate((np.cumsum(atoms[::-1])[::-1], [0.0]))
    idx = np.searchsorted(atoms, strikes, side="right")
    return strikes, (suffix[idx] - (n - idx) * strikes) / n


# ---------------------------------------------------------------------------
# Containers
# ---------------------------------------------------------------------------

def test_call_curve_infers_mean_from_deep_itm_node():
    ks = np.linspace(-10.0, 10.0, 201)
    curve = CallCurve.from_grid(ks, np.maximum(0.5 - ks, 0.0))
    assert curve.mean == pytest.approx(0.5, abs=1e-12)


def test_call_curve_refuses_to_infer_mean_off_the_asymptote():
    # a Bachelier(0, 1, 1) curve cut at K = -0.5 has leftmost slope -0.69,
    # so C(-0.5) - 0.5 = 0.198 is not its mean (0) and must not be taken as one
    ks = np.linspace(-0.5, 5.0, 501)
    vals = linear_family_curve(GAUSS_MODEL, 0.0, 1.0)(ks)
    with pytest.raises(ValidationError, match="pass the mean"):
        CallCurve.from_grid(ks, vals)
    # with the mean given, the curve stops short of its asymptote: no law's
    # curve, so the transform refuses it
    curve = CallCurve.from_grid(ks, vals, mean=0.0)
    with pytest.raises(ValidationError, match="intrinsic asymptote"):
        upper_boundary_from_calls(curve, np.linspace(0.0, 1.0, 11))


def test_call_curve_asymptotes_outside_domain():
    curve = linear_family_curve(GAUSS_MODEL, 0.0, 1.0)
    grid = upper_boundary_from_calls(curve)  # smoke: default grid works
    assert grid.mean == 0.0
    assert curve(curve.k_lo - 5.0) == pytest.approx(0.0 - (curve.k_lo - 5.0), abs=1e-9)
    assert curve(curve.k_hi + 5.0) == 0.0


def test_call_curve_validate_rejects_garbage():
    ks = np.linspace(-2.0, 2.0, 9)
    increasing = np.linspace(0.0, 1.0, 9)
    with pytest.raises(ValidationError):
        CallCurve.from_grid(ks, increasing, mean=0.0).validate()
    concave = 1.0 - (ks / 2.0) ** 2
    with pytest.raises(ValidationError):
        CallCurve.from_grid(ks, concave, mean=0.0).validate()


def test_boundary_endpoints_and_lower_branch():
    b = COIN.boundary_curve()
    assert b(0.0) == 0.0
    assert b(1.0) == pytest.approx(0.5, abs=1e-15)
    # lower boundary by the point-symmetry of the zonoid
    assert b.lower(0.25) == pytest.approx(0.5 - b(0.75), abs=1e-15)
    with pytest.raises(DomainError):
        b(1.2)
    with pytest.raises(DomainError):
        b(-0.1)


def test_boundary_validate_rejects_convex_shape():
    ps = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValidationError):
        ZonoidBoundary.from_grid(ps, ps ** 2, mean=1.0).validate()


# ---------------------------------------------------------------------------
# Discrete distributions: hand values
# ---------------------------------------------------------------------------

def test_discrete_validation():
    with pytest.raises(ValidationError):
        DiscreteDistribution([1.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValidationError):
        DiscreteDistribution([1.0, 2.0], [0.7, 0.5])
    with pytest.raises(ValidationError):
        DiscreteDistribution([1.0, 2.0], [1.1, -0.1])


def test_coin_call_values_by_hand():
    # E(X-K)^+ for a fair coin on {0,1}
    assert COIN.call_value(-1.0) == 1.5
    assert COIN.call_value(0.0) == 0.5
    assert COIN.call_value(0.5) == 0.25
    assert COIN.call_value(1.0) == 0.0


def call_value_oracle(dist, k):
    """E(X - K)^+ from the strikes x atoms payoff matrix (the former
    implementation): O(N K) memory."""
    payoff = np.clip(dist.atoms[None, :] - np.atleast_1d(k)[:, None], 0.0, None)
    return payoff @ dist.weights


def test_call_curve_of_100001_atoms_completes():
    # the payoff matrix of this curve would need 74.5 GiB
    rng = np.random.default_rng(5)
    atoms = np.sort(rng.normal(0.0, 1.0, 100_001))
    dist = DiscreteDistribution(atoms, np.full(atoms.size, 1.0 / atoms.size))
    curve = dist.call_curve()
    assert curve.values.shape == (100_003,)
    rows = np.r_[0:50, 50_000:50_050, 99_953:100_003]
    want = call_value_oracle(dist, curve.strikes[rows])
    assert np.max(np.abs(curve.values[rows] - want)) <= 1e-13
    assert curve.values[-1] == 0.0 and np.all(np.diff(curve.values) <= 0.0)


def test_coin_boundary_by_hand():
    # greedy rule: boundary(p) = min(p, 1/2) for the fair coin on {0,1}
    ps = np.linspace(0.0, 1.0, 21)
    got = discrete_upper_boundary(COIN, ps)
    assert np.max(np.abs(got - np.minimum(ps, 0.5))) == 0.0


def test_two_atom_boundary_by_hand():
    # atoms {1,3} equal weights: 3p up to 1/2, then 1 + p
    ps = np.linspace(0.0, 1.0, 41)
    want = np.where(ps <= 0.5, 3.0 * ps, 1.0 + ps)
    got = discrete_upper_boundary(TWO_ATOM, ps)
    assert np.max(np.abs(got - want)) <= 1e-15


def test_discrete_boundary_rejects_bad_p():
    with pytest.raises(DomainError):
        discrete_upper_boundary(COIN, 1.5)
    with pytest.raises(DomainError):
        discrete_upper_boundary(COIN, np.array([0.2, -0.2]))


# ---------------------------------------------------------------------------
# Transform cross-checks
# ---------------------------------------------------------------------------

def test_conjugate_matches_greedy_on_kink_grid():
    dist = DiscreteDistribution([-1.0, 0.5, 2.0, 4.0], [0.1, 0.4, 0.3, 0.2])
    curve = dist.call_curve()
    ps = np.linspace(0.0, 1.0, 101)
    via_transform = upper_boundary_from_calls(curve, ps).values
    via_greedy = discrete_upper_boundary(dist, ps)
    assert np.max(np.abs(via_transform - via_greedy)) <= 1e-12


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1e-150, 1e-40, 1e-10, 1.0, 1e10,
                                   1e150, 1e155, 1e160, 1e200, 1e300])
def test_conjugate_equals_greedy_at_every_scale(scale):
    # the call curve is padded on the law's own scale; an absolute pad of 1
    # made the peel drop atoms of a law of scale 1e-40 as float-collinear.
    # Past 1e+-154 a peel on turn products, two differences of the law's
    # size multiplied, overflowed or underflowed; the slope test does not
    rng = np.random.default_rng(17)
    ps = np.linspace(0.0, 1.0, 101)
    for _ in range(20):
        w = rng.uniform(0.05, 1.0, 7)
        dist = DiscreteDistribution(np.sort(rng.normal(size=7)) * scale, w / w.sum())
        via_transform = upper_boundary_from_calls(dist.call_curve(), ps).values
        via_greedy = discrete_upper_boundary(dist, ps)
        assert np.max(np.abs(via_transform - via_greedy)) <= 1e-12 * np.max(np.abs(dist.atoms))


def test_tiny_two_atom_boundary_stays_below_the_mean():
    # with the pad of 1 the boundary at p = 3/4 read 8.25e-41, above the mean
    coin = DiscreteDistribution([0.0, 1.1e-40], [0.5, 0.5])
    assert upper_boundary_from_calls(coin.call_curve(), [0.0, 0.75, 1.0]).values[1] == coin.mean


def test_quantile_integral_matches_greedy():
    dist = DiscreteDistribution([-2.0, 0.0, 1.0], [0.25, 0.5, 0.25])
    ps = np.linspace(0.0, 1.0, 101)
    a = boundary_from_quantile_integral(dist, ps)
    b = discrete_upper_boundary(dist, ps)
    assert np.max(np.abs(a - b)) <= 1e-12


def test_quantile_integral_matches_gaussian_closed_form():
    ps = np.linspace(0.05, 0.95, 19)
    got = boundary_from_quantile_integral(DensityModel.gaussian(), ps)
    want = norm.pdf(norm.ppf(ps))
    assert np.max(np.abs(got - want)) <= 1e-9


def test_quantile_integral_rejects_cauchy():
    with pytest.raises(DomainError):
        boundary_from_quantile_integral(DensityModel.cauchy(), 0.5)


def quad_quantile_integral(target, ps):
    """The former density branch of boundary_from_quantile_integral: one
    scipy.integrate.quad per p (test oracle)."""
    from scipy import integrate

    upper = float(target.quantile(1.0 - 1e-12))
    out = np.zeros(len(ps))
    for i, p in enumerate(ps):
        if p > 0.0:
            lo = float(target.quantile(max(1.0 - p, 1e-12)))
            out[i] = integrate.quad(lambda x: x * float(target.pdf(x)), lo, upper,
                                    epsabs=1e-12, epsrel=1e-12, limit=300)[0]
    return out


@pytest.mark.parametrize("target", [
    DensityModel.gaussian(), DensityModel.gaussian(0.7, 2.5), DensityModel.logistic(),
    DensityModel.logistic(-1.0, 0.3)], ids=["gaussian", "gaussian-scaled", "logistic",
                                           "logistic-scaled"])
def test_quantile_integral_matches_the_quad_loop(target):
    ps = np.concatenate(([0.0, 1e-12, 1e-6], np.linspace(0.01, 0.99, 41), [1.0 - 1e-9, 1.0]))
    got = boundary_from_quantile_integral(target, ps)
    want = quad_quantile_integral(target, ps)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    assert got[0] == 0.0
    assert type(boundary_from_quantile_integral(target, 0.3)) is float
    # below the 1e-12 support cut the quad loop integrated a reversed
    # interval and returned about -7e-12; the route now returns 0 there
    tiny = boundary_from_quantile_integral(target, [1e-17, 1e-16, 1e-13])
    assert np.array_equal(tiny, np.zeros(3))


def test_three_routes_agree_for_bachelier():
    # conjugate of the closed-form curve vs quantile integral vs exact formula
    t = 0.25
    curve = linear_family_curve(GAUSS_MODEL, 0.0, math.sqrt(t))
    ps = np.linspace(0.1, 0.9, 9)
    via_transform = upper_boundary_from_calls(curve, ps).values
    scaled = DensityModel.gaussian(scale=math.sqrt(t))
    via_integral = boundary_from_quantile_integral(scaled, ps)
    exact = math.sqrt(t) * norm.pdf(norm.ppf(ps))
    assert np.max(np.abs(via_transform - exact)) <= 1e-8
    assert np.max(np.abs(via_integral - exact)) <= 1e-9


def test_conjugate_pins_endpoints_exactly():
    curve = geometric_family_curve(GAUSS_MODEL, 1.0, 1.0)
    b = upper_boundary_from_calls(curve, np.array([0.0, 0.5, 1.0]))
    assert b.values[0] == 0.0
    assert b.values[-1] == 1.0


def test_calls_from_boundary_recovers_pl_curve_exactly():
    dist = DiscreteDistribution([0.5, 2.0, 3.5], [0.3, 0.4, 0.3])
    boundary = dist.boundary_curve()
    ks = np.array([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 3.5, 4.0])
    got = calls_from_upper_boundary(boundary, ks).values
    want = dist.call_value(ks)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_round_trip_calls_to_boundary_to_calls():
    curve = linear_family_curve(GAUSS_MODEL, 0.2, 0.8 * math.sqrt(1.5))
    pgrid = np.linspace(0.0, 1.0, 2001)
    boundary = upper_boundary_from_calls(curve, pgrid)
    kgrid = np.linspace(curve.k_lo, curve.k_hi, 2001)
    back = calls_from_upper_boundary(boundary, kgrid)
    assert np.max(np.abs(back.values - curve(kgrid))) <= 1e-4


def test_round_trip_boundary_to_calls_to_boundary():
    t = 1.0
    fn = lambda p: norm.cdf(norm.ppf(np.clip(p, 1e-300, 1.0)) + math.sqrt(t))
    boundary = ZonoidBoundary.from_function(fn, mean=1.0)
    kgrid = np.geomspace(1e-3, 60.0, 2001)
    curve = calls_from_upper_boundary(boundary, kgrid)
    pgrid = np.linspace(0.0, 1.0, 2001)
    back = upper_boundary_from_calls(curve, pgrid)
    want = np.concatenate(([0.0], fn(pgrid[1:-1]), [1.0]))
    assert np.max(np.abs(back.values - want)) <= 1e-4


def test_mean_is_preserved_by_both_transforms():
    curve = TWO_ATOM.call_curve()
    b = upper_boundary_from_calls(curve, np.linspace(0, 1, 11))
    assert b.mean == curve.mean
    back = calls_from_upper_boundary(b, np.linspace(-1, 5, 13))
    assert back.mean == curve.mean


# ---------------------------------------------------------------------------
# Inverse boundary (positive variables)
# ---------------------------------------------------------------------------

def test_inverse_boundary_matches_lognormal_closed_form():
    t = 1.0
    curve = geometric_family_curve(GAUSS_MODEL, 1.0, math.sqrt(t))
    for q in (0.05, 0.3, 0.6, 0.95):
        got = inverse_boundary_positive(curve, q)
        want = norm.cdf(norm.ppf(q) - math.sqrt(t))
        assert got == pytest.approx(want, abs=1e-7)


def test_inverse_boundary_grid_route():
    dist = DiscreteDistribution([0.5, 1.5], [0.5, 0.5])
    curve = dist.call_curve()
    # boundary(p) = 1.5 p up to 1/2, then 0.75 + 0.5 (p - 1/2)
    got = inverse_boundary_positive(curve, 0.6)
    assert got == pytest.approx(0.4, abs=1e-12)


def test_inverse_boundary_domain_errors():
    curve = geometric_family_curve(GAUSS_MODEL, 1.0, 1.0)
    for q in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(DomainError):
            inverse_boundary_positive(curve, q)
    signed = linear_family_curve(GAUSS_MODEL, 0.0, 1.0)
    with pytest.raises(UnsupportedError):
        inverse_boundary_positive(signed, 0.5)


def test_positivity_is_read_off_the_curve():
    # two grid curves of a lognormal law, neither declared positive: the
    # calls of its boundary on a strike grid starting below 0, and its prices
    # on that grid
    sigma = 0.5
    family = geometric_family_curve(GAUSS_MODEL, 1.0, sigma)
    kgrid = np.linspace(-1.0, 6.0, 14001)
    boundary = upper_boundary_from_calls(family, np.linspace(0.0, 1.0, 20001))
    for curve in (calls_from_upper_boundary(boundary, kgrid),
                  CallCurve.from_grid(kgrid, family(kgrid))):
        assert curve.positive
        for q in (0.05, 0.3, 0.6, 0.95):
            want = norm.cdf(norm.ppf(q) - sigma)
            assert inverse_boundary_positive(curve, q) == pytest.approx(want, abs=1e-7)
        assert check_geometric_symmetry(curve, np.geomspace(0.25, 4.0, 41))
    # C(0) = E X^+ = E X reads X >= 0, an atom at 0 included
    assert DiscreteDistribution([0.0, 2.0], [0.5, 0.5]).call_curve().positive
    assert not DiscreteDistribution([-0.5, 2.5], [0.5, 0.5]).call_curve().positive
    signed = linear_family_curve(GAUSS_MODEL, 1.0, 1.0)
    assert not CallCurve.from_grid(kgrid, signed(kgrid), mean=1.0).positive


# ---------------------------------------------------------------------------
# Order and symmetry checks
# ---------------------------------------------------------------------------

def test_convex_order_in_time():
    lo = linear_family_curve(GAUSS_MODEL, 0.0, math.sqrt(0.5))
    hi = linear_family_curve(GAUSS_MODEL, 0.0, math.sqrt(2.0))
    assert check_convex_order(lo, hi)
    assert not check_convex_order(hi, lo)
    shifted = linear_family_curve(GAUSS_MODEL, 1.0, math.sqrt(2.0))
    with pytest.raises(DomainError):
        check_convex_order(lo, shifted)


def test_arithmetic_symmetry():
    assert check_arithmetic_symmetry(linear_family_curve(GAUSS_MODEL, 0.0, 1.0))
    dist = DiscreteDistribution([-1.0, 2.0], [2.0 / 3.0, 1.0 / 3.0])  # mean 0, skewed
    kgrid = np.linspace(-2.0, 2.0, 81)
    assert not check_arithmetic_symmetry(dist.call_curve(), kgrid)


def test_arithmetic_symmetry_on_an_asymmetric_grid():
    # C(K) = -K + C(-K) is evaluated at each K and -K, so no grid is refused
    kgrid = [-1.0, 0.0, 2.0]
    assert check_arithmetic_symmetry(linear_family_curve(GAUSS_MODEL, 0.0, 1.0), kgrid)
    dist = DiscreteDistribution([-1.0, 2.0], [2.0 / 3.0, 1.0 / 3.0])
    assert not check_arithmetic_symmetry(dist.call_curve(), kgrid)


def test_geometric_symmetry():
    assert check_geometric_symmetry(geometric_family_curve(GAUSS_MODEL, 1.0, 0.7))
    skewed = DiscreteDistribution([0.5, 1.5], [0.5, 0.5]).call_curve()
    kgrid = np.geomspace(0.25, 4.0, 41)
    assert not check_geometric_symmetry(skewed, kgrid)
    with pytest.raises(DomainError):
        check_geometric_symmetry(geometric_family_curve(GAUSS_MODEL, 2.0, 1.0))


def test_geometric_symmetry_identity_via_inverse_boundary():
    # for the lognormal family the inverse boundary satisfies
    # Chat^{-1}(q) = 1 - Chat(1 - q)
    t = 0.64
    curve = geometric_family_curve(GAUSS_MODEL, 1.0, math.sqrt(t))
    boundary = upper_boundary_from_calls(curve, np.linspace(0.0, 1.0, 2001))
    for q in (0.2, 0.5, 0.8):
        lhs = inverse_boundary_positive(curve, q)
        rhs = 1.0 - float(boundary(1.0 - q))
        assert lhs == pytest.approx(rhs, abs=1e-6)


def test_default_p_grid_round_trip_reaches_the_tail_strikes():
    # a Black-Scholes law whose strikes at s0 e^(+-3v) lie past the second
    # node of an even 2001-node p grid: that grid missed the closed form by
    # 1.8e-4; the default grid, even in logit p, keeps the round trip tight
    s0 = 1.7867055112579502
    v = math.log(20.841896055034912 / s0) / 3.0
    boundary = upper_boundary_from_calls(geometric_family_curve(GAUSS_MODEL, s0, v))
    probs = boundary.probs
    assert probs.size == 2001 and (probs[0], probs[-1]) == (0.0, 1.0)
    logits = np.log(probs[1:-1] / (1.0 - probs[1:-1]))
    assert np.allclose(logits, np.linspace(-14.0, 14.0, 1999), rtol=0.0, atol=1e-6)
    ks = np.linspace(s0 * math.exp(-3.0 * v), s0 * math.exp(3.0 * v), 501)
    back = calls_from_upper_boundary(boundary, ks).values
    want = pricing.black_scholes_call(ModelParams(s0, v, 1.0), ks)
    assert np.max(np.abs(back - want)) <= 1e-5


# ---------------------------------------------------------------------------
# Convex projection
# ---------------------------------------------------------------------------

def test_projection_is_identity_on_cone_members():
    ks = np.linspace(-3.0, 3.0, 301)
    vals = linear_family_curve(GAUSS_MODEL, 0.0, 1.0)(ks)
    out, dist = project_convex_decreasing(ks, vals)
    assert dist == 0.0
    assert np.array_equal(out, vals)


def test_projection_repairs_noise():
    rng = np.random.default_rng(0)
    ks = np.linspace(-3.0, 3.0, 201)
    clean = linear_family_curve(GAUSS_MODEL, 0.0, 1.0)(ks)
    noisy = clean + rng.normal(0.0, 5e-3, ks.size)
    out, dist = project_convex_decreasing(ks, noisy)
    slopes = np.diff(out) / np.diff(ks)
    assert np.all(np.diff(slopes) >= -1e-12)
    assert np.all(slopes <= 1e-12) and np.all(slopes >= -1.0 - 1e-12)
    assert dist == pytest.approx(np.max(np.abs(noisy - out)), abs=0.0)
    assert dist <= 0.05


def test_projection_input_validation():
    with pytest.raises(ValidationError):
        project_convex_decreasing([0.0, 0.0, 1.0], [1.0, 0.5, 0.2])
    with pytest.raises(ValidationError):
        project_convex_decreasing([0.0, 1.0], [[1.0], [0.5]])


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

@st.composite
def discrete_dists(draw, max_atoms=8):
    n = draw(st.integers(2, max_atoms))
    # atoms on a 1e-3 lattice: keeps strike spacing well above float noise
    raw_atoms = draw(st.lists(st.integers(-10_000, 10_000), min_size=n,
                              max_size=n, unique=True))
    atoms = np.sort(np.asarray(raw_atoms, dtype=np.float64)) / 1e3
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    w = np.asarray(raw) / np.sum(raw)
    w = w / w.sum()
    return DiscreteDistribution(atoms, w)


@st.composite
def float_dists(draw, max_atoms=40):
    n = draw(st.integers(1, max_atoms))
    scale = draw(st.sampled_from([1e-3, 1.0, 37.0, 1e3]))
    atoms = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n, unique=True))
    atoms = np.unique(draw(st.floats(-2.0, 2.0)) * scale + scale * np.asarray(atoms))
    raw = np.asarray(draw(st.lists(st.floats(1e-3, 1.0), min_size=atoms.size,
                                   max_size=atoms.size)))
    w = raw / raw.sum()
    return DiscreteDistribution(atoms, w / w.sum())


@settings(max_examples=200, deadline=None)
@given(dist=st.one_of(discrete_dists(), float_dists()), data=st.data())
def test_call_value_matches_payoff_matrix_property(dist, data):
    # the suffix-sum values agree with the payoff matrix within 8 eps of
    # the law's scale, on the curve's own strikes and on strikes between
    curve = dist.call_curve()
    between = data.draw(st.lists(st.floats(curve.k_lo, curve.k_hi), max_size=20))
    ks = np.concatenate((curve.strikes, between))
    got = dist.call_value(ks)
    scale = max(1.0, abs(dist.mean), float(np.max(np.abs(dist.atoms))))
    err = np.max(np.abs(got - call_value_oracle(dist, ks)))
    assert err <= 8.0 * np.finfo(float).eps * scale
    assert np.array_equal(curve.values, got[:curve.strikes.size])
    assert all(dist.call_value(float(k)) == g for k, g in zip(ks, got))


@settings(max_examples=50, deadline=None)
@given(dist=discrete_dists())
def test_greedy_boundary_properties(dist):
    ps = np.linspace(0.0, 1.0, 101)
    vals = discrete_upper_boundary(dist, ps)
    assert vals[0] == 0.0
    assert vals[-1] == pytest.approx(dist.mean, abs=1e-12)
    # concavity: slopes are the descending atoms
    slopes = np.diff(vals) / np.diff(ps)
    assert np.all(np.diff(slopes) <= 1e-9)
    # dominated by the segment to the top atom at small p
    assert np.all(vals[1:-1] <= dist.atoms[-1] * ps[1:-1] + 1e-12)


@settings(max_examples=50, deadline=None)
@given(dist=discrete_dists())
def test_conjugate_equals_greedy_property(dist):
    curve = dist.call_curve()
    ps = np.linspace(0.0, 1.0, 101)
    via_transform = upper_boundary_from_calls(curve, ps).values
    via_greedy = discrete_upper_boundary(dist, ps)
    assert np.max(np.abs(via_transform - via_greedy)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(dist=discrete_dists(), q=st.floats(0.05, 0.95))
def test_inverse_boundary_inverts_forward_map_property(dist, q):
    positive = DiscreteDistribution(dist.atoms - dist.atoms[0] + 0.5, dist.weights)
    curve = positive.call_curve()
    target = float(q) * positive.mean
    p = inverse_boundary_positive(curve, target)
    forward = discrete_upper_boundary(positive, p)
    assert forward == pytest.approx(target, abs=1e-9 * max(1.0, positive.mean))


# ---------------------------------------------------------------------------
# Discrete Legendre kernel against the brute force
# ---------------------------------------------------------------------------

@st.composite
def kernel_inputs(draw):
    """Continuous random nodes (x strictly increasing) of one of four
    shapes, the shape, and p values that include every chord slope between
    nodes.  A projected curve (a noisy convex one interpolated on its exact
    lower hull) has float-collinear runs, whose interior nodes the kernel's
    peel drops."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 300))
    shape = draw(st.sampled_from(["convex", "noisy", "arbitrary", "projected"]))
    scale = 10.0 ** draw(st.integers(-3, 3))
    x = scale * (rng.normal() + np.cumsum(rng.uniform(0.01, 1.0, n)))
    if shape == "arbitrary":
        y = scale * rng.normal(size=n)
    else:
        slopes = np.sort(rng.normal(size=n - 1))
        y = scale * rng.normal() + np.concatenate(([0.0], np.cumsum(slopes * np.diff(x))))
        if shape != "convex":
            y = y + rng.normal(0.0, 1e-6 * scale, n)
        if shape == "projected":
            hull = numerics.lower_hull(x, y)
            y = np.interp(x, x[hull], y[hull])
    chords = np.diff(y) / np.diff(x)
    p = np.concatenate((3.0 * rng.normal(size=draw(st.integers(1, 100))), -chords))
    return x, y, p, shape


@settings(max_examples=200, deadline=None)
@given(data=kernel_inputs())
def test_legendre_min_equals_brute_force_property(data):
    x, y, p, shape = data
    vals, idx = legendre_min(x, y, p)
    want = legendre_min_oracle(y, x, p)
    if shape == "projected":
        # at the slope of a collinear run its nodes tie in exact arithmetic;
        # a dropped one may round an ulp lower (about 1 input in 2,000), so
        # the bound is the lattice property's
        scale = np.max(np.abs(y)) + np.max(np.abs(p)) * np.max(np.abs(x))
        assert np.all(np.abs(vals - want) <= 8.0 * np.finfo(float).eps * scale)
    else:
        assert np.array_equal(vals, want)
    assert np.array_equal(y[idx] + p * x[idx], vals)


@settings(max_examples=100, deadline=None)
@given(dist=discrete_dists())
def test_both_transform_directions_equal_brute_force_property(dist):
    # The transforms validate, so they are fed the curves of a law: the call
    # curve and the boundary of a finite-atom one, on a lattice whose kinks
    # lie well above float noise.  The kernel on arbitrary nodes is
    # test_legendre_min_equals_brute_force_property's.
    # calls -> boundary: minimised over the curve's nodes
    curve = dist.call_curve()
    pgrid = np.linspace(0.0, 1.0, 201)
    got = upper_boundary_from_calls(curve, pgrid).values
    assert np.array_equal(got[1:-1],
                          legendre_min_oracle(curve.values, curve.strikes, pgrid)[1:-1])
    # boundary -> calls: max over the boundary nodes, floored by 0 and m - K
    boundary = dist.boundary_curve()
    probs, y = boundary.probs, boundary.values
    kgrid = np.linspace(curve.k_lo, curve.k_hi, 151)
    brute = np.max(y[None, :] - kgrid[:, None] * probs[None, :], axis=1)
    want = np.maximum(np.maximum(brute, 0.0), boundary.mean - kgrid)
    got = calls_from_upper_boundary(boundary, kgrid).values
    assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(st.integers(-40, 40), min_size=2, max_size=25, unique=True),
       ys=st.lists(st.integers(-20, 20), min_size=25, max_size=25),
       digits=st.integers(0, 3), ps=st.lists(st.integers(-20, 20), min_size=1, max_size=20))
def test_legendre_min_on_lattices_property(xs, ys, digits, ps):
    # Lattice nodes are often collinear, so a node off the hull can tie the
    # minimum in exact arithmetic; its rounded value may then be lower by an
    # ulp or two, and only that much difference from the brute force is
    # allowed.  Queries include the chord slopes, where such ties happen.
    x = np.sort(np.asarray(xs, dtype=np.float64)) / 10.0 ** digits
    y = np.asarray(ys[:x.size], dtype=np.float64) / 10.0 ** digits
    p = np.concatenate((np.asarray(ps, dtype=np.float64) / 10.0, -np.diff(y) / np.diff(x)))
    vals, idx = legendre_min(x, y, p)
    want = legendre_min_oracle(y, x, p)
    scale = np.max(np.abs(y)) + np.max(np.abs(p)) * np.max(np.abs(x))
    assert np.all(np.abs(vals - want) <= 8.0 * np.finfo(float).eps * scale)
    assert np.array_equal(y[idx] + p * x[idx], vals)


def test_legendre_min_handles_tiny_inputs():
    vals, idx = legendre_min(np.array([1.0]), np.array([2.0]), np.array([-1.0, 0.0, 3.0]))
    assert np.array_equal(vals, [1.0, 2.0, 5.0]) and np.array_equal(idx, [0, 0, 0])
    vals, idx = legendre_min(np.array([0.0, 1.0]), np.array([0.0, 0.0]), np.array([-1.0, 1.0]))
    assert np.array_equal(vals, [-1.0, 0.0]) and np.array_equal(idx, [1, 0])


def test_legendre_min_breaks_exact_ties_at_the_lowest_node_as_argmin_does():
    # a strictly convex integer polygon: at each chord slope its two ends tie
    x = np.array([0.0, 1.0, 2.0, 3.0, 5.0])
    y = np.array([4.0, 1.0, 0.0, 1.0, 5.0])
    p = np.concatenate((-np.diff(y) / np.diff(x), [-10.0, 0.5, 10.0]))
    vals, idx = legendre_min(x, y, p)
    brute = y[None, :] + p[:, None] * x[None, :]
    assert np.array_equal(idx[:4], [0, 1, 2, 3])
    assert np.array_equal(idx, np.argmin(brute, axis=1))
    assert np.array_equal(vals, brute.min(axis=1))


def test_legendre_min_peel_settles_a_projected_curve(monkeypatch):
    # the call curve of 99,999 equal atoms, noisy, then projected: its
    # float-collinear runs kept 37 strict peel passes dropping nodes, past
    # _PEEL_PASSES; dropping nodes where the slope does not rise (on the
    # chord too) settles it in 9, the last dropping nothing
    n = 99_999
    atoms = 2.0 * (np.arange(n) + 0.5) / n - 1.0
    dist = DiscreteDistribution(atoms, np.full(n, 1.0 / n))
    x = np.concatenate(([-2.0], atoms, [2.0]))
    noisy = dist.call_value(x) + 1e-6 * np.random.default_rng(1).standard_normal(x.size)
    y, _ = project_convex_decreasing(x, noisy)
    logits = np.linspace(-14.0, 14.0, 1999)
    p = np.concatenate(([0.0], 1.0 / (1.0 + np.exp(-logits)), [1.0]))
    chains, chain = [], numerics._monotone_chain
    monkeypatch.setattr(numerics, "_monotone_chain",
                        lambda *a: chains.append(a[0].size) or chain(*a))
    vals, idx = legendre_min(x, y, p)
    assert chains == []
    sub = np.arange(0, p.size, 10)  # 201 p, brute-forced ten blocks at a time
    want = np.concatenate([legendre_min_oracle(y, x, p[rows])
                           for rows in np.array_split(sub, 10)])
    assert np.array_equal(vals[sub], want)
    assert np.array_equal(y[idx] + p * x[idx], vals)


def test_legendre_min_monotone_chain_fallback(monkeypatch):
    # a parabola whose last node is pulled far down: each peeling pass drops
    # one node, so the monotone chain ends the hull after _PEEL_PASSES passes
    x = np.linspace(0.0, 1.0, 20001)
    y = (x - 0.5) ** 2
    y[-1] = -1e6
    p = np.concatenate([np.linspace(-3.0, 3.0, 101), -(np.diff(y) / np.diff(x))[:50]])
    chains, chain = [], numerics._monotone_chain
    monkeypatch.setattr(numerics, "_monotone_chain",
                        lambda *a: chains.append(a[0].size) or chain(*a))
    start = time.perf_counter()
    vals, idx = legendre_min(x, y, p)
    elapsed = time.perf_counter() - start
    assert len(chains) == 1
    assert np.array_equal(vals, legendre_min_oracle(y, x, p))
    assert np.array_equal(y[idx] + p * x[idx], vals)
    # about 35 ms on a 2-core machine; peeling to convergence takes seconds
    assert elapsed < 1.5


PROJECTION_SHAPES = ["call", "noisy-call", "arbitrary", "lattice", "near-collinear", "flat-tail"]


def projection_input(seed, n, shape):
    """Nodes of one of PROJECTION_SHAPES: a call curve at its kinks, one with
    noise, random values, a k/10 lattice, a line with 1e-16 relative noise
    on half its nodes, and a noisy call curve whose zero tail stays exact."""
    rng = np.random.default_rng(seed)
    if shape == "call":
        return atom_call_curve(np.sort(rng.normal(size=n)))
    if shape == "lattice":
        return np.cumsum(rng.integers(1, 4, n)) / 10.0, rng.integers(-5, 5, n) / 10.0
    x = np.cumsum(rng.uniform(0.01, 1.0, n))
    if shape == "arbitrary":
        return x, rng.normal(size=n)
    if shape == "near-collinear":
        y = rng.uniform(0.0, 2.0) * x[-1] - rng.uniform(0.0, 1.0) * x
        return x, y * (1.0 + 1e-16 * rng.normal(size=n) * (rng.random(n) < 0.5))
    y = np.maximum(0.5 * x[-1] - x, 0.0)
    noise = rng.normal(0.0, 1e-3, n)
    return x, y + (noise if shape == "noisy-call" else np.where(y > 0.0, noise, 0.0))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 400),
       shape=st.sampled_from(PROJECTION_SHAPES))
def test_lower_hull_equals_exact_oracle_property(seed, n, shape):
    x, y = projection_input(seed, n, shape)
    assert np.array_equal(numerics.lower_hull(x, y), exact_hull_oracle(x, y))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 400),
       shape=st.sampled_from(PROJECTION_SHAPES))
def test_projection_equals_loop_reference_property(seed, n, shape):
    x, y = projection_input(seed, n, shape)
    out, dist = project_convex_decreasing(x, y)
    want, want_dist = project_oracle(x, y)
    slopes = np.diff(y) / np.diff(x)
    if exact_hull_oracle(x, y).size == x.size and np.all((slopes >= -1.0) & (slopes <= 0.0)):
        # a cone member comes back as is; the loop re-anchored it, with rounding
        assert dist == 0.0 and np.array_equal(out, y)
        assert want_dist <= 1e-12
    else:
        assert np.array_equal(out, want)
        assert dist == want_dist


def test_projection_monotone_chain_fallback(monkeypatch):
    # the pulled parabola of test_legendre_min_monotone_chain_fallback: each
    # exact peel pass drops one node, so the chain finishes after _PEEL_PASSES
    x = np.linspace(0.0, 1.0, 20001)
    y = (x - 0.5) ** 2
    y[-1] = -1e6
    chains, chain = [], numerics._monotone_chain
    monkeypatch.setattr(numerics, "_monotone_chain",
                        lambda *a: chains.append(a[0].size) or chain(*a))
    start = time.perf_counter()
    out, dist = project_convex_decreasing(x, y)
    elapsed = time.perf_counter() - start
    assert chains == [x.size - numerics._PEEL_PASSES]
    want, want_dist = project_oracle(x, y)
    assert np.array_equal(out, want) and dist == want_dist
    # about 40 ms on a 2-core machine; peeling to convergence takes 19,999 passes
    assert elapsed < 1.5


@st.composite
def turn_triples(draw):
    """Three nodes, x strictly increasing, of a shape where a float turn can
    get its sign wrong or overflow: scaled collinear triples, equal y, k/10
    lattices, magnitudes from 1e-300 to 1e300, and products that underflow."""
    kind = draw(st.sampled_from(["collinear", "level", "lattice", "magnitudes", "underflow"]))
    ints = st.integers(-50, 50)
    if kind in ("collinear", "lattice"):
        k = sorted(draw(st.lists(ints, min_size=3, max_size=3, unique=True)))
        if kind == "lattice":
            return [v / 10.0 for v in k], [draw(ints) / 10.0 for _ in range(3)]
        scale = draw(st.sampled_from([2.0, 10.0])) ** draw(st.integers(-300, 300))
        m, c = draw(ints), draw(ints)  # on the line c + m k in the unscaled integers
        return [v * scale for v in k], [(c + m * v) * scale for v in k]
    if kind == "underflow":
        mags = st.floats(1e-170, 1e-150) | st.floats(5e-324, 1e-300)
    else:
        mags = st.floats(1e-300, 1e300)
    signed = st.builds(lambda sign, mag: sign * mag, st.sampled_from([-1.0, 1.0]), mags)
    x = sorted(draw(st.lists(signed, min_size=3, max_size=3, unique=True)))
    y = draw(st.lists(signed, min_size=3, max_size=3))
    return x, [y[0]] * 3 if kind == "level" else y


@settings(max_examples=500, deadline=None)
@given(triple=turn_triples())
def test_turn_predicate_equals_rational_arithmetic_property(triple):
    x, y = triple
    want = exact_turn_up(*(Fraction(v) for pair in zip(x, y) for v in pair))
    assert numerics._turn_up(*(v for pair in zip(x, y) for v in pair)) == want
    assert numerics._turns_up(np.array(x), np.array(y)).tolist() == [want]


def test_projection_returns_cone_member_unchanged_at_scale():
    # 100,001 random-normal atoms: the re-anchoring loop used to give 4e-22
    atoms = np.sort(np.random.default_rng(3).normal(size=100_001))
    strikes, vals = atom_call_curve(atoms)
    out, dist = project_convex_decreasing(strikes, vals)
    assert dist == 0.0
    assert np.array_equal(out, vals)


# ---------------------------------------------------------------------------
# Family curves carry their exact conjugate: the "exact" route
# ---------------------------------------------------------------------------


def _custom_twin(model):
    return DensityModel.custom(model.pdf, model.pdf_prime, model.cdf, model.quantile)


def _bimodal(a=1.5):
    """1/2 N(-a, 1) + 1/2 N(a, 1): not log-concave for a > 1."""
    cdf = lambda x: 0.5 * (norm.cdf(x + a) + norm.cdf(x - a))
    return DensityModel.custom(
        lambda x: 0.5 * (norm.pdf(x + a) + norm.pdf(x - a)),
        lambda x: -0.5 * ((x + a) * norm.pdf(x + a) + (x - a) * norm.pdf(x - a)),
        cdf, lambda p: monotone_root(cdf, p, -a - 12.0, a + 12.0))


def _family_curves():
    y = 0.4 * math.sqrt(2.0)
    return {"bachelier": linear_family_curve(GAUSS_MODEL, 1.2, y),
            "black_scholes": geometric_family_curve(GAUSS_MODEL, 1.2, y),
            "linear_family_curve": linear_family_curve(LOGISTIC, -0.3, 0.9),
            "geometric_family_curve": geometric_family_curve(LOGISTIC, 1.5, 0.7)}


def _golden_twin(curve):
    """The same call curve as a user closed-form curve, without the conjugate."""
    return CallCurve.from_function(curve.fn, curve.mean, (curve.k_lo, curve.k_hi))


def _counting(fn, counter):
    def wrapped(*args, **kwargs):
        counter.append(1)
        return fn(*args, **kwargs)
    return wrapped


@pytest.mark.parametrize("pgrid", [np.linspace(0.0, 2.0, 2001), [-0.1, 0.5, 1.0]],
                         ids=["above-1", "below-0"])
@pytest.mark.parametrize("prevalidated", [True, False])
def test_pgrid_is_checked_before_any_curve_evaluation(monkeypatch, pgrid, prevalidated):
    # A curve the caller validated first is not evaluated either.
    calls = []
    user = CallCurve.from_function(_counting(linear_family_curve(GAUSS_MODEL, 0.0, 1.0).fn, calls),
                                   0.0, (-9.0, 9.0))
    monkeypatch.setattr(pricing, "family_prices", _counting(pricing.family_prices, calls))
    curves = [user] + list(_family_curves().values())
    if prevalidated:
        for curve in curves:
            curve.validate()
        calls.clear()
    for curve in curves:
        with pytest.raises(ValidationError, match=r"probability grid must lie in \[0, 1\]"):
            upper_boundary_from_calls(curve, pgrid)
        with pytest.raises(ValidationError, match="pgrid must be 1-d, strictly increasing"):
            upper_boundary_from_calls(curve, [0.0, 0.5, 0.5, 1.0])
    assert calls == []


@pytest.mark.parametrize("model", [DensityModel.cauchy(), _bimodal()], ids=["cauchy", "bimodal"])
@pytest.mark.parametrize("kind", ["linear", "geometric"])
@pytest.mark.parametrize("prevalidated", [True, False])
def test_no_boundary_for_densities_outside_the_theorem(model, kind, prevalidated):
    # Such a curve cannot be evaluated, so the caller's own validate refuses
    # it the same way the transform does.
    curve = pricing._family_curve(kind, model, 1.0, 0.8)
    assert curve.conjugate is not None
    for c in (curve, _golden_twin(curve)):
        if prevalidated:
            with pytest.raises(UnsupportedError):
                c.validate()
        with pytest.raises(UnsupportedError):
            upper_boundary_from_calls(c, np.linspace(0.0, 1.0, 11))


def test_exact_route_keeps_validate(monkeypatch):
    calls = []
    monkeypatch.setattr(CallCurve, "validate", _counting(CallCurve.validate, calls))
    curve = _family_curves()["linear_family_curve"]
    upper_boundary_from_calls(curve, np.linspace(0.0, 1.0, 11))
    assert len(calls) == 1


def test_golden_section_runs_only_for_user_closed_form_curves(monkeypatch):
    calls = []
    monkeypatch.setattr(zonoid, "golden_section_min", _counting(zonoid.golden_section_min, calls))
    p = np.linspace(0.0, 1.0, 101)
    for name, curve in _family_curves().items():
        b = upper_boundary_from_calls(curve, p)
        assert (b.provenance["route"], len(calls)) == ("exact", 0), name
        assert b.provenance == dict(curve.provenance, route="exact")
        assert b.values[0] == 0.0 and b.values[-1] == curve.mean
    b = upper_boundary_from_calls(_golden_twin(_family_curves()["bachelier"]), p)
    assert b.provenance["route"] == "golden" and len(calls) >= 1
    calls.clear()
    b = upper_boundary_from_calls(COIN.call_curve(), p)
    assert (b.provenance["route"], len(calls)) == ("grid", 0)


def test_reverse_transform_records_its_route():
    # each direction names its own route
    b = upper_boundary_from_calls(linear_family_curve(GAUSS_MODEL, 0.0, 1.0))
    c = calls_from_upper_boundary(b)
    assert (b.provenance["route"], c.provenance["route"]) == ("exact", "grid")
    assert c.provenance == dict(b.provenance, route="grid")
    closed = ZonoidBoundary.from_function(b, b.mean, provenance={"kind": "closed"})
    c = calls_from_upper_boundary(closed, np.linspace(-2.0, 2.0, 9))
    assert c.provenance == {"kind": "closed", "route": "golden"}


_ORACLE_MODELS = {"gaussian": GAUSS_MODEL, "logistic": LOGISTIC,
                  "custom-gaussian": _custom_twin(GAUSS_MODEL),
                  "custom-logistic": _custom_twin(LOGISTIC)}
# (s, y) ranges of the benchmark's family-models workload
_FAMILY_RANGES = {"linear": ((-1.0, 1.0), (0.5, 2.0)), "geometric": ((0.5, 2.0), (0.3, 1.2))}


def _assert_routes_agree(name, kind, data):
    """The exact route equals golden section on the same curve within
    1e-9 max(1, |s|) on p in [1e-6, 1 - 1e-6].  Golden section minimises
    over the curve's strike domain, cut at the 1e-12 quantile for custom
    models and 1e-15 for the built-ins; for p below about that level its
    minimiser sits on the domain end (the two differ by up to about 3e-11
    at p = 1e-12 on the custom gaussian twin), and the exact route is the
    correct one there."""
    (s_lo, s_hi), (y_lo, y_hi) = _FAMILY_RANGES[kind]
    s = data.draw(st.floats(s_lo, s_hi), label="s")
    y = data.draw(st.floats(y_lo, y_hi), label="y")
    inner = data.draw(st.lists(st.floats(1e-6, 1.0 - 1e-6), max_size=9), label="p")
    p = np.unique(np.concatenate(([1e-6, 1.0 - 1e-6], inner)))
    curve = pricing._family_curve(kind, _ORACLE_MODELS[name], s, y)
    exact = upper_boundary_from_calls(curve, p)
    golden = upper_boundary_from_calls(_golden_twin(curve), p)
    assert (exact.provenance["route"], golden.provenance["route"]) == ("exact", "golden")
    assert np.max(np.abs(exact.values - golden.values)) <= 1e-9 * max(1.0, abs(s))


@pytest.mark.parametrize("kind", ["linear", "geometric"])
@pytest.mark.parametrize("name", ["gaussian", "logistic"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_exact_route_equals_golden_section_property(name, kind, data):
    _assert_routes_agree(name, kind, data)


@pytest.mark.parametrize("kind", ["linear", "geometric"])
@pytest.mark.parametrize("name", ["custom-gaussian", "custom-logistic"])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_exact_route_equals_golden_section_custom_property(name, kind, data):
    _assert_routes_agree(name, kind, data)


def test_call_curve_fn_sees_only_strikes_in_its_domain():
    # strikes beyond either end reach the fn clipped to [k_lo, k_hi] and take
    # the asymptotes; a scalar strike reaches it as a 0-d array
    base = linear_family_curve(GAUSS_MODEL, 0.0, 1.0)
    ndims = []

    def fn(k):
        k = np.asarray(k)
        assert np.all((base.k_lo <= k) & (k <= base.k_hi)), k
        ndims.append(k.ndim)
        return base.fn(k)

    curve = CallCurve.from_function(fn, base.mean, (base.k_lo, base.k_hi))
    for k in (base.k_lo - 1.0, base.k_hi + 1.0, -1e6, 1e6, np.array(base.k_hi + 5.0), 0.3):
        got = curve(k)
        assert type(got) is float and got == base(k)
    assert curve(base.k_lo - 1.0) == base.mean - (base.k_lo - 1.0) and curve(1e6) == 0.0
    assert set(ndims) == {0}
    ks = np.linspace(base.k_lo - 5.0, base.k_hi + 5.0, 101)
    assert np.array_equal(curve(ks), base(ks))
    assert np.array_equal(curve(ks.reshape(1, 101)), base(ks).reshape(1, 101))


# ---------------------------------------------------------------------------
# Small levels, the rounding slack of validate, and the closed-form defaults
# ---------------------------------------------------------------------------

_SMALL_LEVELS = 10.0 ** np.arange(-16.0, -2.9, 0.5)


@pytest.mark.parametrize("build", [linear_family_curve, geometric_family_curve],
                         ids=["linear", "geometric"])
@pytest.mark.parametrize("model", [DensityModel.gaussian(), DensityModel.logistic()],
                         ids=["gaussian", "logistic"])
def test_family_curves_at_small_levels_are_valid(build, model):
    # a price s F(V + y) - K F(V) rounds at eps times the mean and strike, and
    # the domain is about 16 y wide: validate must allow for that rounding, and
    # a domain image that collapses to one float falls back to one around s
    pgrid = np.linspace(0.0, 1.0, 11)
    means = (1.0, 100.0) if build is geometric_family_curve else (0.0, 1.0, 100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in means:
            for y in _SMALL_LEVELS:
                got = upper_boundary_from_calls(build(model, s, y), pgrid)
                # s H_y(p) - s p ~ s y G(p), y G(p) in the linear family, G <= 0.4
                scale = max(1.0, s)
                assert np.max(np.abs(got.values - s * pgrid)) <= scale * (0.41 * y + 1e-15), (s, y)


def test_validate_rejects_a_kink_far_above_the_rounding_term():
    # domain 1e-6 wide at K ~ 1: the rounding slack on slope increments is
    # about 4 * 8 eps / (1e-6 / 512) = 3.6e-6, far below a kink of 0.4
    k0, k1 = 1.0, 1.0 + 1e-6
    km = 0.5 * (k0 + k1)
    concave = lambda k: np.where(k < km, 0.5 * (k1 - k), 0.5 * (k1 - km) + 0.9 * (km - k))
    with pytest.raises(ValidationError, match="convex"):
        CallCurve.from_function(concave, mean=1.0, domain=(k0, k1)).validate()
    # the point mass at the same place is a call curve and passes
    CallCurve.from_function(lambda k: np.maximum(km - k, 0.0), mean=km, domain=(k0, k1)).validate()
    # the slack is per node: two strikes 1e-13 apart near K = 1.5 do not hide a
    # concave kink of 0.05 at K = 0.5 (a slack of 4 noise / smallest step would)
    ks = np.sort(np.append(np.linspace(0.0, 2.0, 101), 1.5 + 1e-13))
    kinked = np.maximum(1.0 - ks, 0.0) + 0.05 * np.minimum(ks - 0.5, 0.0)
    with pytest.raises(ValidationError, match="convex"):
        CallCurve.from_grid(ks, kinked, mean=1.0).validate()
    CallCurve.from_grid(ks, np.maximum(1.0 - ks, 0.0), mean=1.0).validate()


def test_calls_from_a_closed_form_boundary_infer_their_strike_grid():
    # without a strike grid the strikes span the boundary's end slopes,
    # measured at p = 1e-6 and 1 - 1e-6, on 2001 points
    model = DensityModel.gaussian()
    cases = [("linear", 0.0, 1.0,
              lambda ks: pricing.bachelier_call(ModelParams(0.0, 1.0, 1.0), ks)),
             ("geometric", 2.0, 0.5,
              lambda ks: pricing.family_prices("geometric", model, 2.0, 0.5, ks)[0])]
    for kind, s, y, calls in cases:
        fn = lambda p: peacocks.family_boundary(kind, model, s, y, p)
        boundary = ZonoidBoundary.from_function(fn, mean=s)
        got = calls_from_upper_boundary(boundary)
        k_hi, k_lo = fn(1e-6) / 1e-6, (s - fn(1.0 - 1e-6)) / 1e-6
        assert got.strikes.size == 2001
        assert got.strikes[0] == k_lo and got.strikes[-1] == k_hi
        assert np.max(np.abs(got.values - calls(got.strikes))) <= 1e-12


def test_discrete_boundary_curve_adds_the_requested_grid():
    dist = DiscreteDistribution([0.5, 2.0, 3.5], [0.3, 0.4, 0.3])
    pgrid = np.linspace(0.0, 1.0, 8)
    got = dist.boundary_curve(pgrid)
    kinks = dist.boundary_curve().probs
    assert np.array_equal(got.probs, np.unique(np.concatenate((kinks, pgrid))))
    assert got.mean == dist.mean
    # the independent route: the integral of the upper quantile
    assert np.max(np.abs(got.values - boundary_from_quantile_integral(dist, got.probs))) <= 1e-14


def test_validate_deduplicates_only_a_sample_with_repeated_strikes():
    # a domain four ulps wide: the 513-point linspace repeats floats, which
    # validate drops before it divides by the steps; a wide domain has none
    k0 = 1.0
    k1 = k0 + 4.0 * math.ulp(1.0)
    narrow = CallCurve.from_function(lambda k: np.maximum(k0 - k, 0.0), mean=k0, domain=(k0, k1))
    ks = narrow.sample_grid()
    assert ks.size == 513 and np.unique(ks).size == 5
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no division by a zero step
        narrow.validate()
    wide = linear_family_curve(DensityModel.gaussian(), 0.0, 1.0)
    assert np.diff(wide.sample_grid()).all()
    wide.validate()
