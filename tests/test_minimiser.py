"""The seeded array minimiser ``numerics.golden_section_min``.

Oracles: the 70-round golden section with a parabolic step that the package
ran before (kept here as the reference, with the domain ends as candidates,
as its callers added them), and scipy's elementwise Chandrupatla minimiser
``scipy.optimize.elementwise.find_minimum`` (the package itself does not
import scipy.optimize).  On convex objectives all three agree on the minimum
value within 1e-12 max(1, |value|).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import elementwise

from zonoid_lab import numerics
from zonoid_lab.errors import DomainError, ZonoidLabError
from zonoid_lab.numerics import golden_section_min

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_oracle(fn, lo, hi):
    """Minimum of fn over [lo_i, hi_i] per element: 70 golden rounds, one
    parabolic step on the final bracket, then the two ends as candidates."""
    a = np.array(lo, dtype=np.float64, ndmin=1)
    b = np.array(hi, dtype=np.float64, ndmin=1)
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(70):
        left = fc < fd
        b, a = np.where(left, d, b), np.where(left, a, c)
        c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
        fc, fd = fn(c), fn(d)
    m, fm = np.where(fc < fd, c, d), np.minimum(fc, fd)
    fa, fb = fn(a), fn(b)
    num = (m - a) ** 2 * (fm - fb) - (m - b) ** 2 * (fm - fa)
    den = (m - a) * (fm - fb) - (m - b) * (fm - fa)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(np.abs(den) > 0.0, num / (2.0 * den), 0.0)
    x = np.clip(m - step, np.minimum(a, b), np.maximum(a, b))
    x = np.where(np.isfinite(x), x, m)
    best = np.minimum(fm, fn(x))
    return np.minimum(best, np.minimum(fn(np.array(lo, ndmin=1)), fn(np.array(hi, ndmin=1))))


def convex(x, c, a, r, b):
    """a (x - c)^2 + e^(r (x - c)) + b |x - c|: convex, with a kink when b > 0."""
    z = x - c
    return a * z * z + np.exp(r * z) + b * np.abs(z)


_LO, _HI = -5.0, 5.0


@st.composite
def convex_cases(draw, kinks=True):
    n = draw(st.integers(1, 6))
    draws = lambda lo, hi, label: np.array(draw(st.lists(st.floats(lo, hi), min_size=n,
                                                         max_size=n), label=label))
    c = draws(-6.0, 6.0, "c")  # minimisers inside the domain and beyond its ends
    a = draws(0.05, 10.0, "a")
    r = draws(-3.0, 3.0, "r")
    b = draws(0.0, 1.0, "b") * draw(st.sampled_from([0.0, 1.0] if kinks else [0.0]), label="kink")
    return c, a, r, b


def _assert_close(got, want):
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


# a kink where a step of xtol from the middle point once landed on the
# bracket end and repeated until the step limit
_STUCK = tuple(np.array([v]) for v in (4.922320619103264, 0.12382024137734672,
                                        0.45592762743631354, 0.9143934597517187))


@settings(max_examples=60, deadline=None)
@given(case=convex_cases())
@example(case=_STUCK)
def test_convex_minimum_matches_golden_oracle(case):
    x, f = golden_section_min(lambda xa: convex(*xa), _LO, _HI, args=case)
    assert np.array_equal(f, convex(x, *case))
    assert np.all((x >= _LO) & (x <= _HI))
    want = golden_oracle(lambda x: convex(x, *case), np.full(case[0].size, _LO),
                         np.full(case[0].size, _HI))
    _assert_close(f, want)


@settings(max_examples=60, deadline=None)
@given(case=convex_cases(kinks=False))
def test_convex_minimum_matches_scipy_find_minimum(case):
    # smooth objectives only: at a kink scipy stops up to 3e-13 above the
    # minimum, where this solver and golden section agree to 1e-16
    _, f = golden_section_min(lambda xa: convex(*xa), _LO, _HI, args=case)
    fn = lambda x, *params: convex(x, *params)
    bracket = elementwise.bracket_minimum(fn, 0.0, xl0=-1.0, xr0=1.0, xmin=_LO, xmax=_HI,
                                          args=case)
    found = elementwise.find_minimum(fn, bracket.bracket, args=case,
                                     tolerances=dict(xatol=1e-300, xrtol=4e-16,
                                                     fatol=1e-300, frtol=2e-16),
                                     maxiter=300)
    # no bracket: the minimum lies on a domain end, which is a candidate
    want = np.where(bracket.success, found.f_x, np.inf)
    want = np.minimum(want, np.minimum(fn(_LO, *case), fn(_HI, *case)))
    assert np.all(found.success | ~bracket.success)
    _assert_close(f, want)


def _brute_force(fn, lo, hi):
    """The best of the golden oracle over every local-minimum bracket of a
    dense grid: the global minimum of a function with many wells."""
    grid = np.linspace(lo, hi, 20001)
    vals = fn(grid)
    i = np.flatnonzero((vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:])) + 1
    wells = golden_oracle(fn, grid[i - 1], grid[i + 1]) if i.size else np.array([np.inf])
    return min(float(wells.min()), float(vals.min()))


@pytest.mark.parametrize("tilt", [-0.3, -0.01, 0.01, 0.3])
def test_multimodal_scan_returns_the_better_minimum(tilt):
    # two wells near -1 and 1; the tilt makes the one on the other side deeper
    fn = lambda x: (x * x - 1.0) ** 2 + tilt * x
    x, f = golden_section_min(fn, -2.0, 2.0)
    assert math.copysign(1.0, x) == -math.copysign(1.0, tilt)
    assert abs(f - _brute_force(fn, -2.0, 2.0)) <= 1e-12


def test_many_wells_per_row():
    shift = np.array([0.0, 0.3, 1.7, 2.9])
    fn = lambda xa: np.cos(5.0 * xa[0]) + 0.02 * (xa[0] - xa[1]) ** 2
    _, f = golden_section_min(fn, -6.0, 6.0, args=(shift,))
    want = [_brute_force(lambda x: fn((x, s)), -6.0, 6.0) for s in shift]
    _assert_close(f, np.array(want))


def _sine_curve(k):
    """C(K) = (-K)^+ + 0.2 |sin 4K| e^(-0.1 K^2): not convex, and the
    boundary min_K [C(K) + p K] is 0 for every p in [0, 1)."""
    return np.maximum(-k, 0.0) + 0.2 * np.abs(np.sin(4.0 * k)) * np.exp(-0.1 * k * k)


@pytest.mark.parametrize("domain", [(-20.0, 20.0), (-19.0, 21.0)])
def test_multimodal_call_curve_boundary(domain):
    # min_K [C(K) + p K] for the sine curve, the objective of the transform's
    # golden route: golden section from the whole domain used to return
    # 0.0785 at p = 0.1 and 0.9 on (-20, 20); on (-19, 21) the zero at K = 0
    # is not a scan node
    p = np.array([0.1, 0.25, 0.5, 0.75, 0.9])
    _, f = golden_section_min(lambda kp: _sine_curve(kp[0]) + kp[1] * kp[0], *domain, args=(p,))
    assert np.max(np.abs(f)) <= 1e-12


def test_minimum_at_and_near_the_domain_ends():
    # minimisers on the ends, beyond them, and between an end and its
    # neighbouring scan node (the end search)
    c = np.array([-1.0, 0.0, 1e-9, 1e-4, 0.5, 1.0 - 1e-4, 1.0, 2.0])
    x, f = golden_section_min(lambda xa: (xa[0] - xa[1]) ** 2, 0.0, 1.0, args=(c,))
    want = np.clip(c, 0.0, 1.0)
    assert np.all(f <= (want - c) ** 2 + 1e-15)
    assert x[0] == 0.0 and x[-1] == 1.0


def test_logit_nodes_find_a_minimiser_near_zero():
    # the maximiser for a far strike lies near p = 1e-6
    fn = lambda p: (np.log(p) - math.log(1e-6)) ** 2
    x, f = golden_section_min(fn, 1e-9, 1.0 - 1e-9, logit=True)
    assert f <= 1e-12 and abs(x / 1e-6 - 1.0) <= 1e-5


def test_rows_beyond_one_scan_block():
    # rows are independent: scanning them in blocks, or solving them in
    # separate calls, changes no bit
    c = np.linspace(-1.0, 1.0, 4 * (numerics._SCAN_CELLS // numerics._SCAN_N) + 7)
    fn = lambda xa: np.cosh(xa[0] - xa[1]) + 0.1 * xa[0]
    x, f = golden_section_min(fn, -2.0, 2.0, args=(c,))
    parts = [golden_section_min(fn, -2.0, 2.0, args=(c[i:i + 1000],))
             for i in range(0, c.size, 1000)]
    assert np.array_equal(x, np.concatenate([p[0] for p in parts]))
    assert np.array_equal(f, np.concatenate([p[1] for p in parts]))


def test_scalar_and_shaped_results():
    x, f = golden_section_min(lambda x: (x - 0.25) ** 2, 0.0, 1.0)
    assert isinstance(x, float) and isinstance(f, float)
    c = np.array([[0.1, 0.2], [0.3, 0.4]])
    x, f = golden_section_min(lambda xa: (xa[0] - xa[1]) ** 2, 0.0, 1.0, args=(c,))
    assert x.shape == f.shape == (2, 2) and np.allclose(x, c, atol=1e-7)


def test_nan_objective_is_a_domain_error():
    fn = lambda x: np.where(np.abs(x - 0.3) < 0.05, np.nan, (x - 0.3) ** 2)
    with pytest.raises(DomainError):
        golden_section_min(fn, 0.0, 1.0)
    # nan between the scan nodes, met by the refinement only
    fn = lambda x: np.where((x > 0.3) & (x < 0.31), np.nan, (x - 0.305) ** 2)
    with pytest.raises(DomainError):
        golden_section_min(fn, 0.0, 1.0)


def test_non_convergence_is_a_typed_error(monkeypatch):
    monkeypatch.setattr(numerics, "_MIN_ITERS", 2)
    with pytest.raises(ZonoidLabError, match="did not converge"):
        golden_section_min(lambda x: np.cosh(x - 0.1234), -1.0, 1.0)


def test_one_argument_wrapper_with_args():
    # a wrapper that forwards one argument (a call counter, say) keeps
    # working: the parameters reach fn inside the tuple (x, *args)
    calls = []
    fn = lambda xa: (xa[0] - xa[1]) ** 2 + xa[2]

    def counted(x):
        calls.append(1)
        return fn(x)

    c, shift = np.array([0.2, 0.5, 0.7]), np.array([1.0, 2.0, 3.0])
    got = golden_section_min(counted, 0.0, 1.0, args=(c, shift))
    assert np.array_equal(got[0], golden_section_min(fn, 0.0, 1.0, args=(c, shift))[0])
    assert np.allclose(got[1], shift, atol=1e-15) and 2 <= len(calls) <= 40
