"""Implied-level tests for the geometric family.

Oracles: the gaussian normalized call equals the Black-Scholes price with
s0 = 1, sigma^2 t = y^2 (frozen from scipy.stats.norm), and the logistic
values are frozen from quadrature against the density of s f(Z+y)/f(Z).
The vega integral is an independent route to c - (1-K)^+.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonoid_lab.densities import DensityModel
from zonoid_lab.errors import DomainError
from zonoid_lab.implied import (ImpliedQuery, implied_y_minimization,
                                implied_y_root, normalized_call, vega_integral)
from zonoid_lab.pricing import survival_geometric

GAUSS = DensityModel.gaussian()
LOGISTIC = DensityModel.logistic()

# c(y=0.7, K) for the unit-mean geometric family, frozen from independent
# routes (gaussian: Black-Scholes closed form; logistic: quadrature)
GAUSS_07 = {0.6: 0.47111253929333424, 1.0: 0.2736613023512382,
            1.5: 0.14476765088178195}
LOGISTIC_07 = {0.6: 0.40970811843004107, 1.0: 0.17323515724932292,
               1.5: 0.03724902786721527}


def test_query_validation():
    ImpliedQuery(GAUSS, 0.2, 1.0)
    with pytest.raises(DomainError):
        ImpliedQuery(GAUSS, 0.2, 0.0)
    with pytest.raises(DomainError):
        ImpliedQuery(GAUSS, 0.2, -1.0)
    with pytest.raises(DomainError):
        ImpliedQuery(GAUSS, float("nan"), 1.0)
    with pytest.raises(DomainError):
        ImpliedQuery(GAUSS, 0.4, 0.5)  # below intrinsic 0.5
    with pytest.raises(DomainError):
        ImpliedQuery(GAUSS, 1.0, 1.0)  # at the upper limit
    assert ImpliedQuery(GAUSS, 0.5, 0.5).intrinsic == 0.5


def test_normalized_call_values():
    assert normalized_call(GAUSS, 0.0, 0.7) == pytest.approx(0.3, abs=1e-15)
    assert normalized_call(GAUSS, 0.0, 1.3) == 0.0
    assert normalized_call(GAUSS, 1.0, 1.0) == pytest.approx(
        0.38292492254802624, abs=1e-15)
    for k, want in GAUSS_07.items():
        assert normalized_call(GAUSS, 0.7, k) == pytest.approx(want, abs=1e-13)
    for k, want in LOGISTIC_07.items():
        assert normalized_call(LOGISTIC, 0.7, k) == pytest.approx(want, abs=1e-9)
    with pytest.raises(DomainError):
        normalized_call(GAUSS, -0.1, 1.0)
    with pytest.raises(DomainError):
        normalized_call(GAUSS, 1.0, 0.0)


def test_normalized_call_limits():
    # y -> infinity drives the price to the mean
    assert normalized_call(GAUSS, 40.0, 1.0) == pytest.approx(1.0, abs=1e-6)
    assert normalized_call(LOGISTIC, 60.0, 2.0) == pytest.approx(1.0, abs=1e-6)


def test_logistic_flat_region():
    # the logistic price stays at the intrinsic value until y = scale |ln K|
    for k in (0.5, 2.0):
        u0 = abs(math.log(k))
        assert normalized_call(LOGISTIC, 0.25, k) == pytest.approx(
            max(1.0 - k, 0.0), abs=1e-14)
        assert normalized_call(LOGISTIC, u0 + 0.1, k) > max(1.0 - k, 0.0) + 1e-4


@pytest.mark.parametrize("density,values,tol", [
    (GAUSS, GAUSS_07, 1e-10), (LOGISTIC, LOGISTIC_07, 1e-8)],
    ids=["gaussian", "logistic"])
def test_vega_integral_matches_price(density, values, tol):
    for k, want in values.items():
        got = vega_integral(density, 0.7, k) + max(1.0 - k, 0.0)
        assert got == pytest.approx(want, abs=tol)


def test_vega_integral_covers_flat_region():
    # integrating across the logistic kink still reproduces the price
    for y in (1.0, 3.0):
        for k in (0.5, 2.0):
            want = normalized_call(LOGISTIC, y, k) - max(1.0 - k, 0.0)
            assert vega_integral(LOGISTIC, y, k) == pytest.approx(want, abs=1e-8)
    assert vega_integral(GAUSS, 0.0, 1.0) == 0.0


@pytest.mark.parametrize("density,tol", [(GAUSS, 1e-12), (LOGISTIC, 1e-7)],
                         ids=["gaussian", "logistic"])
def test_root_recovers_level(density, tol):
    table = GAUSS_07 if density is GAUSS else LOGISTIC_07
    for k, c in table.items():
        y_star = implied_y_root(ImpliedQuery(density, c, k))
        assert y_star == pytest.approx(0.7, abs=tol)


def test_root_round_trip():
    for density in (GAUSS, LOGISTIC):
        for y in (0.25, 1.0, 3.0):
            for k in (0.5, 1.0, 2.0):
                c = normalized_call(density, y, k)
                if c - max(1.0 - k, 0.0) < 1e-14:
                    continue  # flat region: level not identifiable
                y_star = implied_y_root(ImpliedQuery(density, c, k))
                assert normalized_call(density, y_star, k) == pytest.approx(
                    c, abs=1e-12)


def test_degenerate_price_conventions():
    q = ImpliedQuery(LOGISTIC, 0.5, 0.5)  # intrinsic price exactly
    assert implied_y_root(q) == 0.0
    y_star, p_hat = implied_y_minimization(q)
    assert y_star == 0.0 and math.isnan(p_hat)
    assert normalized_call(LOGISTIC, y_star, 0.5) == 0.5


@pytest.mark.parametrize("density", [GAUSS, LOGISTIC], ids=["gaussian", "logistic"])
def test_min_agrees_with_root(density):
    for y in (0.25, 1.0, 3.0):
        for k in (0.5, 1.0, 2.0):
            c = normalized_call(density, y, k)
            q = ImpliedQuery(density, c, k)
            y_root = implied_y_root(q)
            y_min, p_hat = implied_y_minimization(q)
            assert abs(y_min - y_root) <= 1e-5
            if y_root > 0.0:
                # the minimiser is the exercise probability F(V_{y*}(K))
                want = survival_geometric(density, 1.0, y_root, k)
                assert p_hat == pytest.approx(want, abs=1e-4)


@settings(max_examples=30, deadline=None)
@given(y=st.floats(0.05, 4.0), k=st.floats(0.2, 4.0),
       family=st.sampled_from(["gaussian", "logistic"]))
def test_round_trip_property(y, k, family):
    density = DensityModel(family)
    c = normalized_call(density, y, k)
    if c - max(1.0 - k, 0.0) < 1e-12 or c >= 1.0 - 1e-12:
        return
    y_star = implied_y_root(ImpliedQuery(density, c, k))
    assert normalized_call(density, y_star, k) == pytest.approx(c, abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(y1=st.floats(0.1, 3.0), dy=st.floats(0.1, 2.0), k=st.floats(0.3, 3.0))
def test_price_monotone_in_level_property(y1, dy, k):
    assert (normalized_call(GAUSS, y1 + dy, k)
            >= normalized_call(GAUSS, y1, k) - 1e-14)


# ---------------------------------------------------------------------------
# The batched vega integral and the argument checks
# ---------------------------------------------------------------------------

def twin(model):
    """A custom model wrapping the built-in evaluators."""
    return DensityModel.custom(model.pdf, model.pdf_prime, model.cdf, model.quantile)


@pytest.mark.parametrize("base", [GAUSS, LOGISTIC], ids=["gaussian", "logistic"])
def test_vega_integral_on_custom_twins_across_the_kink(base):
    # levels below, near and past the logistic kink u0 = |log K| (0.22 at
    # K = 0.8 and 1.25, 0.69 at K = 0.5 and 2)
    model = twin(base)
    for y in (0.2, 0.25, 0.7, 1.3, 3.0):
        for k in (0.5, 0.8, 1.0, 1.25, 2.0):
            want = normalized_call(base, y, k) - max(1.0 - k, 0.0)
            got = vega_integral(model, y, k)
            assert abs(got - vega_integral(base, y, k)) <= 1e-10
            assert abs(got - want) <= 1e-10


def test_vega_integral_splits_at_the_logistic_kink(monkeypatch):
    # one array inverse per quadrature round; with the panels split at
    # u0 = |log K| a few rounds do, without the split about 18
    from zonoid_lab import implied

    calls = []
    inverse = implied.inverse_ratio
    monkeypatch.setattr(implied, "inverse_ratio",
                        lambda *a: (calls.append(np.shape(a[1])), inverse(*a))[1])
    for y, k in ((1.3, 0.8), (3.0, 0.5), (2.0, 2.0), (0.7, 1.25)):
        calls.clear()
        want = normalized_call(LOGISTIC, y, k) - max(1.0 - k, 0.0)
        assert abs(vega_integral(LOGISTIC, y, k) - want) <= 1e-10
        assert 1 <= len(calls) <= 6 and all(len(sh) == 1 and sh[0] > 1 for sh in calls)


def test_logistic_pdf_keeps_precision_in_both_tails():
    # the custom logistic inverse ratio solves on log f: with f = p (1 - p)
    # the right tail had lost its relative precision (1 - p rounds) and the
    # solver found spurious roots there
    z = np.linspace(-40.0, 40.0, 801)
    want = np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))) ** 2
    assert np.max(np.abs(LOGISTIC.pdf(z) / want - 1.0)) <= 1e-14
    assert np.array_equal(LOGISTIC.pdf(z), LOGISTIC.pdf(-z))
    slope = LOGISTIC.pdf_prime(z) / LOGISTIC.pdf(z)
    assert np.max(np.abs(slope + np.tanh(0.5 * z))) <= 1e-14


BAD_LEVELS = [float("nan"), float("inf"), -float("inf"), -0.1]
BAD_STRIKES = [0.0, -1.0, float("nan"), float("inf")]


@pytest.mark.parametrize("fn", [normalized_call, vega_integral])
def test_level_and_strike_checks(fn):
    for y in BAD_LEVELS:
        with pytest.raises(DomainError, match="y must be non-negative and finite"):
            fn(GAUSS, y, 1.0)
    for k in BAD_STRIKES:
        with pytest.raises(DomainError):
            fn(GAUSS, 0.7, k)
        with pytest.raises(DomainError):
            ImpliedQuery(GAUSS, 0.2, k)
    assert fn(GAUSS, 0.0, 1.5) == 0.0


def test_vega_integral_splits_where_k_enters_the_range_for_any_model(monkeypatch):
    # the custom logistic twin splits at the root of its range end, as the
    # built-in at scale |log K|: a few quadrature rounds, not 17-20, and
    # agreement with the closed form to rounding, not to 6e-14
    from zonoid_lab import numerics

    rounds = []
    gk15 = numerics._gk15
    monkeypatch.setattr(numerics, "_gk15", lambda *a: (rounds.append(1), gk15(*a))[1])
    model = twin(LOGISTIC)
    for y, k in ((1.3, 1.5), (2.0, 0.6), (3.0, 1.8), (1.0, 1.2), (1.3, 0.8)):
        rounds.clear()
        got = vega_integral(model, y, k)
        assert len(rounds) <= 4
        assert abs(got - vega_integral(LOGISTIC, y, k)) <= 1e-15
        assert abs(got - (normalized_call(LOGISTIC, y, k) - max(1.0 - k, 0.0))) <= 1e-15


def test_vega_integral_builtin_values_unchanged():
    # gaussian range ends are 0 and inf, so it is never split and keeps every
    # bit; the logistic split is now a root of its range end, within a few
    # ulps of scale |log K|, which moves the integral by at most 1e-14
    gaussian = {(0.7, 0.6): "0x1.2346e6e99b2e1p-4", (1.3, 1.5): "0x1.85686fb8b7d16p-2",
                (3.0, 0.5): "0x1.a0ef8f931926ep-2"}
    for (y, k), want in gaussian.items():
        assert vega_integral(GAUSS, y, k) == float.fromhex(want)
    assert vega_integral(LOGISTIC, 2.0, 1.0) == float.fromhex("0x1.d9353d7568af3p-2")
    logistic = {(0.7, 0.6): "0x1.3e1d999590d76p-7", (1.3, 1.5): "0x1.6e20b63b5a19ap-3",
                (3.0, 0.5): "0x1.f8d83ccb64454p-3"}
    for (y, k), want in logistic.items():
        assert vega_integral(LOGISTIC, y, k) == pytest.approx(float.fromhex(want), rel=1e-14)


def test_vega_integral_at_levels_too_small_to_split_the_range():
    # at u < 1.1e-16 the logistic ratio range (exp(-u), exp(u)) holds no
    # float but 1; such levels are evaluated at the top level, and a top
    # level like that gives 0
    for model in (LOGISTIC, twin(LOGISTIC)):
        assert vega_integral(model, 1e-17, 1.0) == 0.0
        got = vega_integral(model, 1e-14, 1.0)
        assert 0.0 < got == pytest.approx(normalized_call(LOGISTIC, 1e-14, 1.0), rel=1e-6)
