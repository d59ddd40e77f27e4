"""Pricing tests.

The family formulas are checked against three independent oracles:
  * the Bachelier / Black-Scholes closed forms (gaussian base density),
  * exact algebra for the logistic linear family, whose law is
    Uniform[s - Y, s + Y] (the log-slope of the logistic is affine in the
    cdf, so the transformed variable is uniform),
  * payoff quadrature against the base density for the geometric family
    (X = s f(Z + y)/f(Z) with Z ~ F), frozen below from scipy.integrate.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from zonoid_lab.densities import DensityModel, inverse_log_slope, inverse_ratio
from zonoid_lab.errors import DomainError, RangeError, ValidationError
from zonoid_lab.implied import vega_integral
from zonoid_lab.pricing import (ModelParams, bachelier_call, black_scholes_call,
                                family_call_geometric,
                                family_call_geometric_with_flag,
                                family_call_linear, family_call_linear_with_flag,
                                family_prices, geometric_family_curve,
                                linear_family_curve, survival,
                                survival_geometric, survival_linear)
from zonoid_lab.zonoid import CallCurve

GAUSS = DensityModel.gaussian()
LOGISTIC = DensityModel.logistic()

# frozen from scipy.integrate.quad of (s f(z+y)/f(z) - K)^+ f(z) dz,
# logistic base, s = 1, y = 0.7
GEO_LOGISTIC_ORACLE = {
    0.6: 0.40970811843004107,
    1.0: 0.17323515724932292,
    1.5: 0.03724902786721527,
}


def test_model_params_validation():
    with pytest.raises(ValidationError):
        ModelParams(0.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        ModelParams(0.0, -1.0, 1.0)
    with pytest.raises(ValidationError):
        ModelParams(0.0, 1.0, -0.5)
    with pytest.raises(ValidationError):
        ModelParams(np.inf, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Benchmark closed forms
# ---------------------------------------------------------------------------

def test_bachelier_frozen_values():
    # frozen from scipy.stats.norm
    assert bachelier_call(ModelParams(0.0, 1.0, 1.0), 0.0) == pytest.approx(
        0.3989422804014327, abs=1e-15)
    assert bachelier_call(ModelParams(0.3, 0.7, 2.0), 1.0) == pytest.approx(
        0.13974885986197205, abs=1e-15)


def test_black_scholes_frozen_values():
    assert black_scholes_call(ModelParams(1.0, 1.0, 1.0), 1.0) == pytest.approx(
        0.38292492254802624, abs=1e-15)
    # homothety: prices scale linearly in s0 at fixed moneyness
    assert black_scholes_call(ModelParams(2.0, 1.0, 1.0), 2.0) == pytest.approx(
        0.7658498450960525, abs=1e-15)


def test_time_zero_prices_are_intrinsic():
    p = ModelParams(1.5, 1.0, 0.0)
    assert bachelier_call(p, 1.0) == 0.5
    assert bachelier_call(p, 2.0) == 0.0
    assert black_scholes_call(p, 1.0) == 0.5
    assert black_scholes_call(p, 2.0) == 0.0


def test_black_scholes_limits():
    # huge maturity: the call tends to s0 (K fixed)
    assert black_scholes_call(ModelParams(1.0, 1.0, 4000.0), 1.0) == pytest.approx(
        1.0, abs=1e-6)
    with pytest.raises(DomainError):
        black_scholes_call(ModelParams(1.0, 1.0, 1.0), -1.0)
    with pytest.raises(DomainError):
        black_scholes_call(ModelParams(-1.0, 1.0, 1.0), 1.0)


def test_bachelier_is_symmetric_around_s0():
    p = ModelParams(0.4, 1.3, 2.0)
    for d in (0.3, 1.0, 2.5):
        call = bachelier_call(p, 0.4 + d)
        put_parity = bachelier_call(p, 0.4 - d) - d  # C(s0-d) - E[X - (s0-d)]
        assert call == pytest.approx(put_parity, abs=1e-14)


# ---------------------------------------------------------------------------
# Family closed forms vs the benchmarks (gaussian base)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s0,sigma,t", [(0.0, 1.0, 1.0), (0.3, 0.7, 2.0),
                                        (-1.0, 2.0, 0.25)])
def test_linear_family_reduces_to_bachelier(s0, sigma, t):
    params = ModelParams(s0, sigma, t)
    y = sigma * math.sqrt(t)
    ks = s0 + np.linspace(-4.0, 4.0, 17) * y
    want = np.array([bachelier_call(params, k) for k in ks])
    got = family_call_linear(GAUSS, s0, y, ks)
    assert np.max(np.abs(got - want)) <= 1e-10


@pytest.mark.parametrize("s0,sigma,t", [(1.0, 1.0, 1.0), (1.2, 0.5, 4.0),
                                        (0.5, 2.0, 0.25)])
def test_geometric_family_reduces_to_black_scholes(s0, sigma, t):
    params = ModelParams(s0, sigma, t)
    y = sigma * math.sqrt(t)
    ks = s0 * np.exp(np.linspace(-3.0, 3.0, 17) * y)
    want = np.array([black_scholes_call(params, k) for k in ks])
    got = family_call_geometric(GAUSS, s0, y, ks)
    assert np.max(np.abs(got - want)) <= 1e-10
    surv_want = norm.cdf(np.log(s0 / ks) / y - 0.5 * y)
    surv_got = survival_geometric(GAUSS, s0, y, ks)
    assert np.max(np.abs(surv_got - surv_want)) <= 1e-12


def test_linear_survival_matches_bachelier_delta():
    s0, y = 0.3, 0.9
    ks = np.linspace(-2.0, 3.0, 21)
    want = norm.cdf((s0 - ks) / y)
    got = survival_linear(GAUSS, s0, y, ks)
    assert np.max(np.abs(got - want)) <= 1e-12


# ---------------------------------------------------------------------------
# Family closed forms vs the independent oracles (logistic base)
# ---------------------------------------------------------------------------

def test_linear_logistic_is_uniform_exactly():
    # logistic log-slope maps to Uniform[s-Y, s+Y]; call is a clipped parabola
    s, yval = 0.4, 1.5
    for k in (-0.6, 0.4, 1.1):
        want = (s + yval - k) ** 2 / (4.0 * yval)
        assert family_call_linear(LOGISTIC, s, yval, k) == pytest.approx(
            want, abs=1e-14)
    # survival is the uniform tail
    assert survival_linear(LOGISTIC, s, yval, 0.4) == pytest.approx(0.5, abs=1e-14)
    assert survival_linear(LOGISTIC, s, yval, 1.15) == pytest.approx(0.25, abs=1e-14)


def test_linear_logistic_unit_case():
    # s=0, Y=1, scale=1: C(K) = (1-K)^2/4 on [-1, 1]
    for k in (-1.0, -0.2, 0.0, 0.5, 1.0):
        assert family_call_linear(LOGISTIC, 0.0, 1.0, k) == pytest.approx(
            (1.0 - k) ** 2 / 4.0, abs=1e-14)


def test_geometric_logistic_matches_quadrature_oracle():
    for k, want in GEO_LOGISTIC_ORACLE.items():
        got = family_call_geometric(LOGISTIC, 1.0, 0.7, k)
        assert got == pytest.approx(want, abs=1e-9)


def test_geometric_family_is_homogeneous_in_s():
    # C(s, K) = s * C(1, K/s)
    for s in (0.5, 2.0):
        for k, base in GEO_LOGISTIC_ORACLE.items():
            got = family_call_geometric(LOGISTIC, s, 0.7, s * k)
            assert got == pytest.approx(s * base, abs=1e-9 * max(1.0, s))


def test_clamp_flags_and_values():
    # outside the reachable strike band the price is pinned and flagged
    lo, hi = LOGISTIC.log_slope_range()
    s, yval = 0.0, 1.0
    k_low, k_high = s + yval * lo - 0.5, s + yval * hi + 0.5
    val, flag = family_call_linear_with_flag(LOGISTIC, s, yval, k_low)
    assert flag and val == pytest.approx(s - k_low, abs=1e-14)
    val, flag = family_call_linear_with_flag(LOGISTIC, s, yval, k_high)
    assert flag and val == 0.0
    val, flag = family_call_linear_with_flag(LOGISTIC, s, yval, 0.0)
    assert not flag
    r_lo, r_hi = LOGISTIC.ratio_range(0.7)
    val, flag = family_call_geometric_with_flag(LOGISTIC, 1.0, 0.7, r_lo * 0.5)
    assert flag and val == pytest.approx(1.0 - r_lo * 0.5, abs=1e-14)
    val, flag = family_call_geometric_with_flag(LOGISTIC, 1.0, 0.7, r_hi * 2.0)
    assert flag and val == 0.0


def test_family_argument_validation():
    with pytest.raises(DomainError):
        family_call_linear(GAUSS, 0.0, -1.0, 0.0)
    with pytest.raises(DomainError):
        family_call_geometric(GAUSS, -1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        family_call_geometric(GAUSS, 1.0, 1.0, -1.0)
    with pytest.raises(ValidationError):
        survival("cubic", GAUSS, 0.0, 1.0, 0.0)


def test_survival_dispatcher_matches_direct_calls():
    assert survival("linear", GAUSS, 0.1, 0.8, 0.5) == survival_linear(
        GAUSS, 0.1, 0.8, 0.5)
    assert survival("geometric", GAUSS, 1.0, 0.8, 1.3) == survival_geometric(
        GAUSS, 1.0, 0.8, 1.3)


# ---------------------------------------------------------------------------
# Structural properties
# ---------------------------------------------------------------------------

def test_survival_is_minus_call_slope():
    # Breeden-Litzenberger first derivative: C'(K) = -P(X > K)
    s0, yval = 0.2, 1.1
    h = 1e-5
    for model in (GAUSS, LOGISTIC):
        for k in (-0.8, 0.2, 0.9):
            fd = (family_call_linear(model, s0, yval, k + h)
                  - family_call_linear(model, s0, yval, k - h)) / (2.0 * h)
            assert -fd == pytest.approx(survival_linear(model, s0, yval, k),
                                        abs=1e-8)
    for k in (0.7, 1.0, 1.6):
        fd = (family_call_geometric(GAUSS, 1.0, 0.9, k + h)
              - family_call_geometric(GAUSS, 1.0, 0.9, k - h)) / (2.0 * h)
        assert -fd == pytest.approx(survival_geometric(GAUSS, 1.0, 0.9, k),
                                    abs=1e-8)


def test_breeden_litzenberger_density_recovery():
    # second strike derivative of the linear-family curve is the gaussian
    # density with scale Y
    s0, yval = 0.1, 0.8
    h = 1e-4 * yval
    for k in (-0.7, 0.1, 0.9):
        f2 = (family_call_linear(GAUSS, s0, yval, k + h)
              - 2.0 * family_call_linear(GAUSS, s0, yval, k)
              + family_call_linear(GAUSS, s0, yval, k - h)) / h ** 2
        want = norm.pdf((k - s0) / yval) / yval
        assert f2 == pytest.approx(want, abs=1e-6)


def test_curve_constructors_have_consistent_domains():
    c1 = linear_family_curve(GAUSS, 0.0, 1.0)
    c1.validate()
    c2 = geometric_family_curve(GAUSS, 1.0, 1.0)
    c2.validate()
    assert c2.positive and not c1.positive
    c3 = linear_family_curve(LOGISTIC, 0.0, 1.0)
    c3.validate()
    # uniform support, shaved by the 1e-9 quantile clip
    assert c3.k_lo == pytest.approx(-1.0, abs=1e-8)
    assert c3.k_hi == pytest.approx(1.0, abs=1e-8)
    c4 = geometric_family_curve(LOGISTIC, 1.0, 0.7)
    c4.validate()
    assert c4.positive
    assert c4.k_lo >= math.exp(-0.7) - 1e-12 and c4.k_hi <= math.exp(0.7) + 1e-12


def test_curves_match_underlying_formulas():
    params = ModelParams(0.3, 0.7, 2.0)
    yval = 0.7 * math.sqrt(2.0)
    curve = linear_family_curve(GAUSS, 0.3, yval)
    ks = np.linspace(curve.k_lo, curve.k_hi, 33)
    assert np.max(np.abs(curve(ks) - family_call_linear(GAUSS, 0.3, yval, ks))) == 0.0
    want = np.array([bachelier_call(params, k) for k in ks])
    assert np.max(np.abs(curve(ks) - want)) <= 1e-14
    fam = geometric_family_curve(GAUSS, 1.0, 0.7)
    ks = np.geomspace(fam.k_lo, fam.k_hi, 33)
    want = family_call_geometric(GAUSS, 1.0, 0.7, ks)
    assert np.max(np.abs(fam(ks) - want)) == 0.0


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(s0=st.floats(-2, 2), yval=st.floats(0.1, 3),
       k=st.floats(-6, 6),
       family=st.sampled_from(["gaussian", "logistic"]))
def test_linear_family_price_bounds_property(s0, yval, k, family):
    model = DensityModel(family)
    val = family_call_linear(model, s0, yval, k)
    assert max(s0 - k, 0.0) - 1e-12 <= val <= max(s0 - k, 0.0) + yval


@settings(max_examples=40, deadline=None)
@given(s=st.floats(0.1, 3), y=st.floats(0.1, 3), k=st.floats(0.05, 8),
       family=st.sampled_from(["gaussian", "logistic"]))
def test_geometric_family_price_bounds_property(s, y, k, family):
    model = DensityModel(family)
    val = family_call_geometric(model, s, y, k)
    assert max(s - k, 0.0) - 1e-12 <= val <= s + 1e-12


@settings(max_examples=40, deadline=None)
@given(s0=st.floats(-2, 2), yval=st.floats(0.1, 3),
       k1=st.floats(-5, 5), k2=st.floats(-5, 5))
def test_linear_family_monotone_in_strike_property(s0, yval, k1, k2):
    lo, hi = min(k1, k2), max(k1, k2)
    assert family_call_linear(GAUSS, s0, yval, lo) >= family_call_linear(
        GAUSS, s0, yval, hi) - 1e-12

# ---------------------------------------------------------------------------
# One core: family_prices against the four per-function formulas it replaced
# ---------------------------------------------------------------------------
# Copies of the former family_call_*_with_flag and survival_* bodies, array
# strikes only: family_prices must reproduce them bit for bit.

def oracle_call_linear(model, s, yval, karr):
    w = (karr - s) / yval
    w_lo, w_hi = model.log_slope_range()
    out = np.empty(w.shape)
    flagged = np.zeros(w.shape, dtype=bool)
    below = w <= w_lo
    above = w >= w_hi
    inside = ~(below | above)
    out[below] = s - karr[below]
    out[above] = 0.0
    flagged[below | above] = True
    if np.any(inside):
        u = np.asarray(inverse_log_slope(model, w[inside]), dtype=np.float64)
        fu = np.asarray(model.pdf(u), dtype=np.float64)
        pstar = np.asarray(model.cdf(u), dtype=np.float64)
        out[inside] = yval * (fu - pstar * w[inside])
    return out, flagged


def oracle_survival_linear(model, s, yval, karr):
    w = (karr - s) / yval
    w_lo, w_hi = model.log_slope_range()
    out = np.empty(w.shape)
    out[w <= w_lo] = 1.0
    out[w >= w_hi] = 0.0
    inside = (w > w_lo) & (w < w_hi)
    if np.any(inside):
        u = np.asarray(inverse_log_slope(model, w[inside]), dtype=np.float64)
        out[inside] = np.asarray(model.cdf(u), dtype=np.float64)
    return out


def oracle_call_geometric(model, s, y, karr):
    r = karr / s
    r_lo, r_hi = model.ratio_range(y)
    out = np.empty(r.shape)
    flagged = np.zeros(r.shape, dtype=bool)
    below = r <= r_lo
    above = r >= r_hi
    inside = ~(below | above)
    out[below] = s - karr[below]
    out[above] = 0.0
    flagged[below | above] = True
    if np.any(inside):
        v = np.asarray(inverse_ratio(model, y, r[inside]), dtype=np.float64)
        out[inside] = (s * np.asarray(model.cdf(v + y), dtype=np.float64)
                       - karr[inside] * np.asarray(model.cdf(v), dtype=np.float64))
    return out, flagged


def oracle_survival_geometric(model, s, y, karr):
    r = karr / s
    r_lo, r_hi = model.ratio_range(y)
    out = np.empty(r.shape)
    out[r <= r_lo] = 1.0
    out[r >= r_hi] = 0.0
    inside = (r > r_lo) & (r < r_hi)
    if np.any(inside):
        v = np.asarray(inverse_ratio(model, y, r[inside]), dtype=np.float64)
        out[inside] = np.asarray(model.cdf(v), dtype=np.float64)
    return out


def oracle_prices(kind, model, s, y, karr):
    if kind == "linear":
        call, flag = oracle_call_linear(model, s, y, karr)
        return call, oracle_survival_linear(model, s, y, karr), flag
    call, flag = oracle_call_geometric(model, s, y, karr)
    return call, oracle_survival_geometric(model, s, y, karr), flag


def assert_same_prices(got, want):
    for g, w in zip(got, want):
        assert isinstance(g, np.ndarray) and g.dtype == w.dtype
        assert np.array_equal(g, w)


@st.composite
def family_cases(draw):
    kind = draw(st.sampled_from(["linear", "geometric"]))
    model = DensityModel(draw(st.sampled_from(["gaussian", "logistic"])),
                         draw(st.floats(-1.0, 1.0)), draw(st.floats(0.2, 3.0)))
    y = draw(st.floats(0.01, 4.0))
    n = draw(st.integers(1, 2001))
    a, b = sorted((draw(st.floats(-8.0, 8.0)), draw(st.floats(-8.0, 8.0))))
    if kind == "linear":
        s = draw(st.floats(-3.0, 3.0))
        ks = s + y * np.linspace(a, b, n)
    else:
        s = draw(st.floats(0.05, 3.0))
        ks = s * np.exp(np.linspace(a, b, n))
        if draw(st.booleans()):
            ks[0] = 0.0
    if draw(st.booleans()):
        ks = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(ks)
    return kind, model, s, y, ks


@settings(max_examples=80, deadline=None)
@given(case=family_cases())
def test_family_prices_equal_former_formulas_property(case):
    kind, model, s, y, ks = case
    assert_same_prices(family_prices(kind, model, s, y, ks),
                       oracle_prices(kind, model, s, y, ks))


@pytest.mark.parametrize("kind,s,ks", [
    ("linear", 0.3, np.linspace(-2.5, 3.0, 23)),
    ("geometric", 1.2, np.concatenate(([0.0], np.geomspace(0.05, 9.0, 22)))),
])
def test_family_prices_equal_former_formulas_custom(kind, s, ks):
    model = DensityModel.custom(LOGISTIC.pdf, LOGISTIC.pdf_prime, LOGISTIC.cdf,
                                LOGISTIC.quantile)
    for y in (0.4, 1.3):
        assert_same_prices(family_prices(kind, model, s, y, ks),
                           oracle_prices(kind, model, s, y, ks))


def test_family_prices_views_and_scalar_convention():
    ks = np.linspace(-3.0, 3.0, 41)
    call, surv, flag = family_prices("linear", LOGISTIC, 0.2, 0.9, ks)
    assert np.array_equal(family_call_linear(LOGISTIC, 0.2, 0.9, ks), call)
    assert np.array_equal(survival_linear(LOGISTIC, 0.2, 0.9, ks), surv)
    assert np.array_equal(survival("linear", LOGISTIC, 0.2, 0.9, ks), surv)
    assert_same_prices(family_call_linear_with_flag(LOGISTIC, 0.2, 0.9, ks), (call, flag))
    for i, k in enumerate(ks):
        c, sv, f = family_prices("linear", LOGISTIC, 0.2, 0.9, float(k))
        assert type(c) is float and type(sv) is float and type(f) is bool
        assert (c, sv, f) == (call[i], surv[i], flag[i])
    one = family_prices("geometric", GAUSS, 1.0, 0.5, np.array([1.1]))
    assert all(isinstance(v, np.ndarray) and v.shape == (1,) for v in one)


def test_scalar_clamp_flag_is_bool():
    _, flag = family_call_linear_with_flag(LOGISTIC, 0.0, 1.0, -5.0)
    assert flag is True
    _, flag = family_call_geometric_with_flag(GAUSS, 1.0, 1.0, 1.0)
    assert flag is False


@pytest.mark.parametrize("fn", [survival_linear, survival_geometric])
@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_survival_rejects_non_finite_mean(fn, s):
    # these used to return uninitialised memory
    with pytest.raises(DomainError):
        fn(GAUSS, s, 1.0, 0.5)


def test_survival_follows_the_call_argument_rules():
    with pytest.raises(DomainError):
        survival_geometric(GAUSS, 1.0, 1.0, -0.5)
    with pytest.raises(DomainError):
        survival_geometric(GAUSS, 0.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        survival_linear(GAUSS, 0.0, math.inf, 0.5)


def test_logistic_linear_family_prices_the_edge_strike():
    # w = (K - s)/y lands an ulp inside -1/scale at K = -0.7; the inverse
    # log-slope used to return inf there and the price raised
    ks = np.linspace(-2.0, 2.0, 2001)
    call, surv, flag = family_prices("linear", DensityModel.logistic(), 0.1, 0.8, ks)
    assert np.all(np.isfinite(call)) and np.all(np.isfinite(surv))
    i = int(np.argmin(np.abs(ks + 0.7)))
    assert not flag[i]
    assert abs(call[i] - (0.1 - ks[i])) <= 1.2e-16
    assert surv[i] == pytest.approx(1.0, abs=1e-15)


def test_logistic_geometric_family_prices_an_ulp_inside_the_range():
    # K/s lies an ulp inside exp(+-y/scale), the open range ratio_range
    # reports; the inverse ratio used to reject it and the price raised
    s, y, k = 0.21832675441688254, 1.2378865460107098, 0.7528600546145701
    call, surv, flag = family_prices("geometric", LOGISTIC, s, y, k)
    assert (call, surv, flag) == (0.0, 0.0, False)
    assert family_call_geometric(LOGISTIC, s, y, k) == 0.0


def logistic_edge_strikes(seed=20261018, n=2000):
    """K = s nextafter(exp(-y), 1) and s nextafter(exp(y), 0) for random s, y."""
    rng = np.random.default_rng(seed)
    s, y = rng.uniform(0.05, 5.0, n), rng.uniform(0.05, 4.0, n)
    return s, y, s * np.nextafter(np.exp(-y), 1.0), s * np.nextafter(np.exp(y), 0.0)


def test_logistic_geometric_edge_strike_scan():
    # 1,660 of these 4,000 strikes raised RangeError before; the prices sit
    # within rounding of their limits s - K (survival 1) and 0 (survival 0)
    tol = 64.0 * np.finfo(float).eps
    for s, y, k_lo, k_hi in zip(*logistic_edge_strikes()):
        call, surv, _ = family_prices("geometric", LOGISTIC, s, y, np.array([k_lo, k_hi]))
        assert abs(call[0] - (s - k_lo)) <= tol * s and 1.0 - tol <= surv[0] <= 1.0
        assert abs(call[1]) <= tol * s and 0.0 <= surv[1] <= tol


def test_cdf_takes_the_limits_at_infinity():
    for model in (GAUSS, LOGISTIC, DensityModel.cauchy(0.5, 2.0)):
        assert model.cdf(-math.inf) == 0.0 and model.cdf(math.inf) == 1.0
        assert np.array_equal(model.cdf(np.array([-np.inf, np.inf])), [0.0, 1.0])
        with pytest.raises(DomainError):
            model.cdf(math.nan)


def test_logistic_geometric_prices_are_never_negative():
    # s F(V + y) - K F(V) cancels a few ulps below the top edge s exp(y):
    # 24,771 of these 78,000 prices came out negative (down to -6.3e-29)
    rng = np.random.default_rng(0)
    steps = np.nextafter(1.0, 0.0) ** np.arange(1, 40)
    for s, y in rng.uniform(0.1, 3.0, (2000, 2)):
        call = family_call_geometric(LOGISTIC, s, y, s * math.exp(y) * steps)
        assert np.all(call >= 0.0)


# ---------------------------------------------------------------------------
# One tail cut (DensityModel.quantile_bounds) and one curve constructor per
# family; `custom` twins wrap the built-in evaluators
# ---------------------------------------------------------------------------

def custom_twin(model):
    return DensityModel.custom(model.pdf, model.pdf_prime, model.cdf, model.quantile)


CUSTOM_GAUSS, CUSTOM_LOGISTIC = custom_twin(GAUSS), custom_twin(LOGISTIC)


def test_quantile_bounds_are_the_tail_cut():
    assert GAUSS.quantile_bounds() == tuple(GAUSS.quantile(np.array([1e-15, 1.0 - 1e-15])))
    lo, hi = CUSTOM_GAUSS.quantile_bounds()
    assert (lo, hi) == tuple(GAUSS.quantile(np.array([1e-12, 1.0 - 1e-12])))
    assert CUSTOM_GAUSS.log_slope_range() == (float(CUSTOM_GAUSS.log_slope(hi)),
                                              float(CUSTOM_GAUSS.log_slope(lo)))


def test_custom_logistic_prices_near_the_low_ratio_edge():
    # the root bracket used to end at the 1 - 1e-15 quantile, where p (1 - p)
    # has no relative precision left, and this price raised RangeError
    s, y = 1.6146180331255877, 1.0411109272430819
    k = s * math.exp(-1.030699817970651)
    assert family_call_geometric(CUSTOM_LOGISTIC, s, y, k) == pytest.approx(
        1.03861541388678, abs=1e-12)
    assert family_call_geometric(LOGISTIC, s, y, k) == pytest.approx(
        1.03861541388678, abs=1e-12)


def test_custom_logistic_survival_is_not_silently_wrong():
    # the same noisy bracket end used to return 0.999999999999996 here
    s, y, k = 1.4047222250773428, 1.621807940964304, 0.29127361581175387
    assert survival_geometric(LOGISTIC, s, y, k) == pytest.approx(0.970158340620981, abs=1e-12)
    assert survival_geometric(CUSTOM_LOGISTIC, s, y, k) == pytest.approx(
        0.970158340620981, abs=1e-12)


@pytest.mark.parametrize("base", [GAUSS, LOGISTIC], ids=["gaussian", "logistic"])
@pytest.mark.parametrize("kind", ["linear", "geometric"])
def test_custom_twins_match_built_ins_across_their_range(base, kind):
    twin = custom_twin(base)
    rng = np.random.default_rng(7)
    for _ in range(10):
        y = rng.uniform(0.1, 3.0)
        if kind == "linear":
            s = rng.uniform(-2.0, 2.0)
            w_lo, w_hi = twin.log_slope_range()
            ks = s + y * np.linspace(w_lo, w_hi, 203)[1:-1]
        else:
            s = rng.uniform(0.1, 3.0)
            r_lo, r_hi = twin.ratio_range(y)
            ks = s * np.geomspace(r_lo, r_hi, 203)[1:-1]
        got, want = family_prices(kind, twin, s, y, ks), family_prices(kind, base, s, y, ks)
        assert np.max(np.abs(got[0] - want[0])) <= 1e-12
        assert np.max(np.abs(got[1] - want[1])) <= 1e-12


@pytest.mark.parametrize("model", [GAUSS, LOGISTIC, CUSTOM_GAUSS, CUSTOM_LOGISTIC],
                         ids=["gaussian", "logistic", "custom-gaussian", "custom-logistic"])
@pytest.mark.parametrize("ctor", [linear_family_curve, geometric_family_curve])
def test_family_curves_reach_their_asymptotes_at_the_domain_edges(model, ctor):
    # the 1e-9 quantile cut left C = 6.35e-4 at the top of the geometric
    # gaussian curve at y = 3
    for y in (0.3, 1.0, 2.0, 3.0):
        curve = ctor(model, 1.0, y)
        assert abs(curve(curve.k_hi)) <= 2e-7
        assert abs(curve(curve.k_lo) - (1.0 - curve.k_lo)) <= 2e-7


def test_linear_family_curve_sampled_past_six_sigma_is_a_call_curve():
    ks = np.linspace(-6.0, 6.0, 1201)
    curve = linear_family_curve(GAUSS, 0.0, 1.0)
    CallCurve.from_grid(ks, curve(ks), mean=0.0).validate()


@pytest.mark.parametrize("s0,sigma,t", [(0.0, 1.0, 1.0), (1.0, 0.4, 2.5), (-3.0, 2.0, 0.3),
                                        (2.5, 1.5, 4.0)])
def test_gaussian_family_curves_are_the_model_closed_forms(s0, sigma, t):
    params, y = ModelParams(s0, sigma, t), sigma * math.sqrt(t)
    pairs = [(linear_family_curve(GAUSS, s0, y), bachelier_call)]
    if s0 > 0.0:
        pairs.append((geometric_family_curve(GAUSS, s0, y), black_scholes_call))
    for curve, formula in pairs:
        ks = np.linspace(curve.k_lo, curve.k_hi, 257)
        assert np.max(np.abs(curve(ks) - formula(params, ks))) <= 1e-14 * max(1.0, abs(s0))


@pytest.mark.parametrize("model", [GAUSS, LOGISTIC, CUSTOM_GAUSS, CUSTOM_LOGISTIC],
                         ids=["gaussian", "logistic", "custom-gaussian", "custom-logistic"])
@pytest.mark.parametrize("kind,s,ks", [
    ("linear", -0.4, np.concatenate(([-0.4], np.linspace(-3.0, 2.0, 200)))),
    ("geometric", 1.3, np.concatenate(([1.3], np.linspace(0.0, 3.0, 200)))),
])
def test_level_zero_is_the_point_mass_at_s(model, kind, s, ks):
    call_view, flag_view, surv_view = {
        "linear": (family_call_linear, family_call_linear_with_flag, survival_linear),
        "geometric": (family_call_geometric, family_call_geometric_with_flag,
                      survival_geometric)}[kind]
    want = (np.maximum(s - ks, 0.0), (ks < s).astype(np.float64), np.ones(ks.size, bool))
    got = family_prices(kind, model, s, 0.0, ks)
    assert_same_prices(got, want)
    call, surv, flag = got
    assert np.array_equal(call_view(model, s, 0.0, ks), call)
    assert_same_prices(flag_view(model, s, 0.0, ks), (call, flag))
    assert np.array_equal(surv_view(model, s, 0.0, ks), surv)
    assert np.array_equal(survival(kind, model, s, 0.0, ks), surv)
    for i in (0, 1, 100, 200):  # K = s, the lowest strike, a middle one, the highest
        k = float(ks[i])
        c, sv, f = family_prices(kind, model, s, 0.0, k)
        assert (type(c), type(sv), type(f)) == (float, float, bool)
        assert (c, sv, f) == (max(s - k, 0.0), float(k < s), True)
        assert call_view(model, s, 0.0, k) == c and surv_view(model, s, 0.0, k) == sv
        assert flag_view(model, s, 0.0, k) == (c, f) and survival(kind, model, s, 0.0, k) == sv


def test_level_zero_keeps_the_argument_rules():
    with pytest.raises(DomainError):
        family_prices("geometric", GAUSS, 1.0, 0.0, np.array([0.5, -0.5]))
    with pytest.raises(DomainError):
        family_prices("geometric", GAUSS, 0.0, 0.0, 0.5)
    for kind in ("linear", "geometric"):
        for y in (-1e-300, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                family_prices(kind, GAUSS, 1.0, y, 0.5)


@pytest.mark.parametrize("kind", ["linear", "geometric"])
@pytest.mark.parametrize("validate", [True, False])
def test_family_curve_at_level_zero_is_the_point_mass(kind, validate):
    from zonoid_lab.zonoid import upper_boundary_from_calls

    build = linear_family_curve if kind == "linear" else geometric_family_curve
    s = 1.5
    for model in (GAUSS, LOGISTIC):
        curve = build(model, s, 0.0)
        assert curve.k_lo < s < curve.k_hi
        ks = np.linspace(0.0, 3.0, 61)
        assert np.array_equal(curve(ks), np.maximum(s - ks, 0.0))
        ps = np.linspace(0.0, 1.0, 101)
        boundary = upper_boundary_from_calls(curve, ps, validate=validate)
        assert boundary.provenance["route"] == "exact"
        assert np.array_equal(boundary.values, s * ps)
    if kind == "linear":  # any sign of s
        assert np.array_equal(upper_boundary_from_calls(build(GAUSS, -2.0, 0.0), ps).values,
                              -2.0 * ps)


# ---------------------------------------------------------------------------
# Evaluate, then select: the clamped strikes reach the inverse maps as a
# stand-in that lies strictly inside the map's range
# ---------------------------------------------------------------------------

def _spy_inside(monkeypatch, module, name, seen):
    inverse = getattr(module, name)

    def wrapped(model, *args):
        lo, hi = model.log_slope_range() if len(args) == 1 else model.ratio_range(args[0])
        x = np.asarray(args[-1])
        assert np.all((lo < x) & (x < hi)), (name, model.family, args)
        seen.append(name)
        return inverse(model, *args)
    monkeypatch.setattr(module, name, wrapped)


def test_inverse_maps_see_only_arguments_inside_their_range(monkeypatch):
    from zonoid_lab import implied, pricing

    seen = []
    _spy_inside(monkeypatch, pricing, "inverse_log_slope", seen)
    _spy_inside(monkeypatch, pricing, "inverse_ratio", seen)
    _spy_inside(monkeypatch, implied, "inverse_ratio", seen)
    below_inside_above = {"linear": np.linspace(-60.0, 60.0, 121),
                          "geometric": np.concatenate(([0.0], np.geomspace(1e-12, 1e12, 49)))}
    clamped = 0
    for model in (GAUSS, LOGISTIC, CUSTOM_GAUSS, CUSTOM_LOGISTIC):
        # y = 16: the custom gaussian ratio range at its tail cut ends below 1,
        # so its geometric prices raise RangeError
        for kind, y in ((kind, y) for kind in ("linear", "geometric") for y in (0.05, 0.8, 16.0)):
            ks = below_inside_above[kind]
            if model is CUSTOM_GAUSS and kind == "geometric" and y == 16.0:
                with pytest.raises(RangeError, match="y = 16.0"):
                    family_prices(kind, model, 1.3, y, ks)
                continue
            want = family_prices(kind, model, 1.3, y, ks)
            clamped += np.count_nonzero(want[2])
            for j in (0, len(ks) // 2, -1):  # one strike at a time, clamped or not
                got = family_prices(kind, model, 1.3, y, ks[j])
                assert got == tuple(w[j].item() for w in want)
        # levels where K is outside the ratio range: below the kink, and
        # past the custom gaussian's falling range end
        for y, k in ((1.3, 1.5), (3.0, 0.5), (16.0, 1.5)):
            assert vega_integral(model, y, k) > 0.0
    assert clamped > 100 and {"inverse_log_slope", "inverse_ratio"} <= set(seen)


def test_geometric_levels_past_the_tail_cut_raise():
    # the custom gaussian's ratio range is (3.4e-105, 1.95e-7) at y = 16: every
    # strike above s 1.95e-7 used to clamp, and the calls came out [0, 0]
    with pytest.raises(RangeError, match=r"y = 16\.0 .* does not contain 1"):
        family_prices("geometric", CUSTOM_GAUSS, 1.0, 16.0, [0.5, 1.0])
    with pytest.raises(RangeError, match="y = 16.0"):
        family_call_geometric(CUSTOM_GAUSS, 1.0, 16.0, 1.0)
    assert np.allclose(family_prices("geometric", GAUSS, 1.0, 16.0, [0.5, 1.0])[0], 1.0,
                       rtol=0.0, atol=1e-12)
    # y = 13: (3.9e-77, 1041) still holds 1, and the twin prices as the built-in
    got, want = (family_prices("geometric", m, 1.0, 13.0, [0.5, 1.0]) for m in (CUSTOM_GAUSS, GAUSS))
    assert not got[2].any() and np.allclose(got[0], want[0], rtol=0.0, atol=1e-12)
    # y = 1e-17: the logistic range (1, 1) holds no float, so every strike clamps
    for model in (LOGISTIC, CUSTOM_LOGISTIC):
        call, _, clamped = family_prices("geometric", model, 1.0, 1e-17, [0.5, 1.0])
        assert np.array_equal(call, [0.5, 0.0]) and clamped.all()


def test_levels_with_no_float_inside_the_range_clamp_every_strike():
    # (exp(-y), exp(y)) rounds to (1, 1) at y = 1e-17: no stand-in exists,
    # and no strike is inside, so nothing is solved
    ks = np.array([0.5, 1.0, 2.0])
    for model in (LOGISTIC, CUSTOM_LOGISTIC):
        call, surv, clamped = family_prices("geometric", model, 1.0, 1e-17, ks)
        assert np.array_equal(call, [0.5, 0.0, 0.0]) and np.array_equal(surv, [1.0, 1.0, 0.0])
        assert clamped.all()
    for model in (GAUSS, CUSTOM_GAUSS):  # an empty batch is solved at once
        for kind in ("linear", "geometric"):
            assert [v.shape for v in family_prices(kind, model, 1.0, 0.8, np.array([]))] == [(0,)] * 3
