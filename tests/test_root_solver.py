"""The array root solver ``numerics.monotone_root``.

Oracle: scipy's brentq, one element at a time (the package itself no longer
imports scipy.optimize).  Both solvers stop once the bracket is narrower
than xtol + 8.9e-16 |x|, so on a monotone map their answers lie within
2 (xtol + 8.9e-16 |x|) of each other.

The property tests invert maps of affine gaussian, logistic and Gumbel
densities built as ``custom`` models, so the generic (solver) path runs.
Targets are images of points in the central part of each law, where the
maps are steep enough that rounding moves their zero by less than xtol; in
the flat tails any point of the rounding plateau is a root and two correct
solvers can differ by more.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special

from zonoid_lab import densities
from zonoid_lab.densities import (_BRACKET_EPS, DensityModel, inverse_log_slope,
                                  inverse_ratio)
from zonoid_lab.errors import DomainError, RangeError, ZonoidLabError
from zonoid_lab.implied import ImpliedQuery, implied_y_root, normalized_call
from zonoid_lab.numerics import monotone_root

def affine_custom(family, loc, scale):
    """A custom model for f(x) = f0((x - loc)/scale)/scale, f0 one of the
    standard gaussian, logistic and Gumbel densities."""
    if family == "gaussian":
        pdf0 = lambda z: np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        dlog0 = lambda z: -z
        cdf0, q0 = special.ndtr, special.ndtri
    elif family == "logistic":
        pdf0 = lambda z: special.expit(z) * special.expit(-z)
        dlog0 = lambda z: -np.tanh(0.5 * z)
        cdf0, q0 = special.expit, special.logit
    else:  # Gumbel: f0 = exp(-z - e^-z), F0 = exp(-e^-z), Q0 = -log(-log p)
        pdf0 = lambda z: np.exp(-z - np.exp(-z))
        dlog0 = lambda z: np.expm1(-z)
        cdf0 = lambda z: np.exp(-np.exp(-z))
        q0 = lambda p: -np.log(-np.log(p))
    z = lambda x: (np.asarray(x) - loc) / scale
    # the Gumbel pdf underflows below z = -6.6 and its log is linear to
    # rounding beyond z = 20: place the model's own concavity grid
    # (location +- 8 scale) on z in [-4, 20]
    grid_loc, grid_scale = (loc + 8.0 * scale, 1.5 * scale) if family == "gumbel" else (loc, scale)
    return DensityModel.custom(lambda x: pdf0(z(x)) / scale,
                               lambda x: dlog0(z(x)) * pdf0(z(x)) / scale ** 2,
                               lambda x: cdf0(z(x)),
                               lambda p: loc + scale * q0(np.asarray(p)),
                               location=grid_loc, scale=grid_scale)


def brentq_each(fn, targets, lo, hi, xtol):
    out = []
    for tgt in np.ravel(targets):
        g = lambda x: float(fn(x)) - tgt
        if g(lo) == 0.0:
            out.append(lo)
        elif g(hi) == 0.0:
            out.append(hi)
        else:
            out.append(optimize.brentq(g, lo, hi, xtol=xtol, rtol=8.9e-16, maxiter=300))
    return np.array(out).reshape(np.shape(targets))


def assert_within_oracle(got, want, xtol):
    assert np.all(np.abs(got - want) <= 2.0 * (xtol + 8.9e-16 * np.abs(want)))


@st.composite
def custom_cases(draw):
    family = draw(st.sampled_from(["gaussian", "logistic", "gumbel"]))
    loc, scale = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.3, 3.0))
    n = draw(st.integers(1, 2001))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.uniform(0.02, 0.9, n)  # quantile levels of the preimages
    y = draw(st.floats(0.3, 2.0)) * scale
    checked = rng.choice(n, min(n, 100), replace=False)  # brentq is slow
    return affine_custom(family, loc, scale), u, y, checked


@settings(max_examples=40, deadline=None)
@given(case=custom_cases())
def test_custom_inverses_match_brentq_property(case):
    model, u, y, checked = case
    lo, hi = (float(v) for v in model.quantile(np.array([_BRACKET_EPS, 1.0 - _BRACKET_EPS])))
    xtol = 1e-13 * model.scale
    x = np.asarray(model.quantile(u))

    w = model.log_slope(x)
    got = inverse_log_slope(model, w)
    assert got.shape == w.shape
    want = brentq_each(model.log_slope, w[checked], lo, hi, xtol)
    assert_within_oracle(got[checked], want, xtol)

    ratio = lambda t: model.log_pdf(t + y) - model.log_pdf(t)
    r = np.exp(ratio(x))
    got = inverse_ratio(model, y, r)
    assert got.shape == r.shape
    want = brentq_each(ratio, np.log(r[checked]), lo, hi, xtol)
    assert_within_oracle(got[checked], want, xtol)


def test_custom_inverses_scalar_in_scalar_out():
    model = affine_custom("gumbel", 0.3, 1.4)
    x = inverse_log_slope(model, 0.2)
    assert type(x) is float
    assert model.log_slope(x) == pytest.approx(0.2, abs=1e-12)
    x = inverse_ratio(model, 0.5, 0.9)
    assert type(x) is float
    assert math.exp(model.log_pdf(x + 0.5) - model.log_pdf(x)) == pytest.approx(0.9, abs=1e-12)
    x = inverse_log_slope(model, np.array(0.2))
    assert type(x) is float
    assert inverse_log_slope(model, np.array([0.2])).shape == (1,)


def counting_custom(model):
    """A custom model wrapping ``model``'s evaluators that counts its pdf calls."""
    calls = []
    pdf = lambda x: (calls.append(np.shape(x)), model.pdf(x))[1]
    return DensityModel.custom(pdf, model.pdf_prime, model.cdf, model.quantile), calls


def test_custom_ratio_map_calls_the_pdf_once_per_solver_step(monkeypatch):
    # the ratio map stacks (x + y, x) into one pdf call
    model, pdf_calls = counting_custom(DensityModel.gaussian())
    steps = []

    def counted_root(fn, *args, **kwargs):
        return monotone_root(lambda v: (steps.append(1), fn(v))[1], *args, **kwargs)

    monkeypatch.setattr(densities, "monotone_root", counted_root)
    rng = np.random.default_rng(3)
    ys, xs = rng.uniform(0.3, 2.0, 50), rng.uniform(-2.0, 2.0, 50)
    rs = np.exp(model.log_pdf(xs + ys) - model.log_pdf(xs))
    for y, r in ((ys, rs), (float(ys[0]), float(rs[0]))):
        pdf_calls.clear()
        steps.clear()
        inverse_ratio(model, y, r)
        assert len(steps) > 2 and len(pdf_calls) == len(steps)
        assert pdf_calls[0] == (2,) + np.shape(r)  # the stacked (x + y, x)
    # both ends of the ratio range come from one evaluation of the same map
    pdf_calls.clear()
    model.ratio_range(ys)
    assert pdf_calls == [(2, 2, 50)]


def test_custom_quantile_bounds_must_be_finite():
    # the bracket ends of every custom solve come from quantile_bounds,
    # which checks them once per model: the solver's points go unchecked
    g = DensityModel.gaussian()
    quantile = lambda p: np.where(np.asarray(p) <= 1e-9, -np.inf, g.quantile(p))
    model = DensityModel.custom(g.pdf, g.pdf_prime, g.cdf, quantile)
    for call in (model.quantile_bounds, lambda: inverse_log_slope(model, 0.3),
                 lambda: inverse_ratio(model, 0.5, 0.9), model.log_slope_range):
        with pytest.raises(DomainError, match="quantile bounds must be finite"):
            call()


def test_custom_inverse_outside_the_bracket_raises():
    model = affine_custom("gaussian", 0.0, 1.0)
    with pytest.raises(RangeError):
        inverse_log_slope(model, 20.0)  # U(20) = -20, below F^-1(1e-15)
    with pytest.raises(RangeError):
        inverse_log_slope(model, np.array([0.0, 1.0, -20.0]))
    with pytest.raises(RangeError):
        inverse_ratio(model, 1.0, math.exp(30.0))


def test_monotone_root_per_element_brackets_and_shapes():
    target = np.array([[0.5, 8.0], [0.001, 27.0]])
    lo = np.array([[0.0], [0.05]])  # broadcast against the columns
    hi = np.array([1.0, 4.0])
    got = monotone_root(lambda x: x ** 3, target, lo, hi, xtol=1e-14)
    assert got.shape == (2, 2)
    want = np.cbrt(target)
    assert np.all(np.abs(got - want) <= 2.0 * (1e-14 + 8.9e-16 * want))
    root = monotone_root(lambda x: -np.exp(x), -2.0, 0.0, 1.0)  # decreasing map
    assert type(root) is float and root == pytest.approx(math.log(2.0), abs=2e-13)


def test_monotone_root_solves_an_empty_batch_at_once():
    # no element is ever done in an empty batch, so it once ran every step
    # and raised "did not converge"
    calls = []
    for shape in ((0,), (0, 3)):
        got = monotone_root(lambda x: (calls.append(1), x)[1], np.zeros(shape), -1.0, 1.0)
        assert got.shape == shape and got.dtype == np.float64
    assert len(calls) == 4  # the two bracket ends of each batch


def test_monotone_root_converges_superlinearly():
    # a step lands at least the tolerance inside the bracket, so the far end
    # moves too: 100 cube roots take 11 steps after the two endpoint calls
    # (bisection needs 48, and inverse quadratic steps alone 69)
    calls = []
    cube = lambda x: calls.append(np.size(x)) or x ** 3
    monotone_root(cube, np.linspace(0.01, 7.9, 100), 0.0, 2.0, xtol=1e-14)
    assert len(calls) <= 14
    assert calls[2] == 100 and calls[-1] < 100  # converged elements are dropped


# one problem as a 0-d target (the scalar loop) and as a 1-element array
# (the array loop): the error tests and the endpoint test run both
ONE = (lambda v: v, lambda v: np.array([v]))


def test_monotone_root_returns_exact_endpoints():
    f = lambda x: 2.0 * x
    for one in ONE:
        assert monotone_root(f, one(0.0), 0.0, 3.0) == 0.0
        assert monotone_root(f, one(6.0), 0.0, 3.0) == 3.0
        # a map that is zero on the whole bracket: the lower end, as before
        assert monotone_root(lambda x: 0.0 * x, one(0.0), -1.0, 1.0) == -1.0
    got = monotone_root(f, np.array([0.0, 6.0, 3.0]), 0.0, 3.0)
    assert got[0] == 0.0 and got[1] == 3.0 and abs(got[2] - 1.5) <= 2e-13


def test_monotone_root_rejects_unbracketed_targets():
    f = lambda x: x ** 3
    for one in ONE:
        with pytest.raises(RangeError, match=r"target 9\.0 not bracketed by \[0\.0, 2\.0\]"):
            monotone_root(f, one(9.0), 0.0, 2.0)
        with pytest.raises(RangeError):  # nan residuals bracket nothing
            monotone_root(lambda x: np.full(np.shape(x), np.nan), one(0.0), 0.0, 1.0)
    with pytest.raises(RangeError, match="9.0"):
        monotone_root(f, np.array([1.0, 9.0]), 0.0, 2.0)


def test_monotone_root_rejects_a_map_that_is_nan_inside_the_bracket():
    # the first step lands in the nan window; without the check the solver
    # returned 0.583 for the root 0.3
    holed = lambda x: np.where((x > 0.4) & (x < 0.6), np.nan, x - 0.3)
    for one in ONE:
        with pytest.raises(DomainError, match="nan"):
            monotone_root(holed, one(0.0), 0.0, 1.0)


def test_monotone_root_gives_up_with_a_typed_error():
    # a sign change at 0 with no tolerance: the bracket can never get
    # narrower than 0 + 8.9e-16 |x|, so the step budget runs out
    step = lambda x: np.where(x > 0.0, 1.0, -1.0)
    for one in ONE:
        with pytest.raises(ZonoidLabError, match="did not converge"):
            monotone_root(step, one(0.0), 0.0, 1.0, xtol=0.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 50),
       xtol=st.sampled_from([1e-14, 1e-13, 1e-8]))
def test_array_solve_equals_the_0d_solve_of_each_element_property(seed, n, xtol):
    # the scalar loop takes the array loop's step on numpy scalars, so each
    # element of an array solve is the 0-d solve of that element, bit for
    # bit: the map a x^3 + b is exact elementwise, the brackets per element,
    # the maps increasing or decreasing, some targets on a bracket end
    rng = np.random.default_rng(seed)
    a = rng.choice([-1.0, 1.0], n) * rng.uniform(0.2, 4.0, n)
    b = rng.uniform(-1.0, 1.0, n)
    lo = rng.uniform(-3.0, 1.0, n)
    hi = lo + rng.uniform(1e-3, 4.0, n)
    cube = lambda xab: xab[1] * (xab[0] * xab[0] * xab[0]) + xab[2]
    x = np.where(rng.random(n) < 0.1, lo, np.where(rng.random(n) < 0.1, hi, rng.uniform(lo, hi)))
    target = cube((x, a, b))
    got = monotone_root(cube, target, lo, hi, args=(a, b), xtol=xtol)
    each = [monotone_root(cube, *v, args=(ai, bi), xtol=xtol)
            for *v, ai, bi in zip(target, lo, hi, a, b)]
    assert all(type(v) is float for v in each)
    assert np.array_equal(got, each)
    assert np.array_equal(got[x == lo], lo[x == lo]) and np.array_equal(got[x == hi], hi[x == hi])


def test_monotone_root_narrows_args_with_the_active_set():
    # fn((x, a, b)) = a x^3 + b with per-element a and b: a misaligned
    # narrowing would solve one element with another's parameters
    rng = np.random.default_rng(7)
    roots = rng.uniform(0.05, 1.95, size=200)
    a = rng.uniform(0.5, 4.0, size=200)
    b = rng.uniform(-1.0, 1.0, size=(1, 200))  # broadcasts against the others
    seen = []

    def fn(xab):
        x, a_, b_ = xab
        seen.append((x.shape, a_.shape, b_.shape))
        return a_ * x ** 3 + b_

    got = monotone_root(fn, a * roots ** 3 + b, 0.0, 2.0, args=(a, b))
    assert got.shape == (1, 200)
    assert np.max(np.abs(got[0] - roots)) <= 2.0 * (1e-13 + 8.9e-16 * 2.0)
    assert all(xs == sa == sb for xs, sa, sb in seen)
    # the endpoints see the broadcast shape, later steps only unsolved elements
    assert seen[0][0] == (1, 200) and any(len(sh[0]) == 1 and sh[0][0] < 200 for sh in seen)
    # a 0-d solve with a 0-d parameter returns a float
    one = monotone_root(lambda xc: xc[0] ** 3 - xc[1], 0.0, 0.0, 2.0, args=(1.0,))
    assert type(one) is float and abs(one - 1.0) <= 2e-13
    # fn takes one argument: a forwarding wrapper sees every call
    calls = []
    counted = lambda v: (calls.append(1), fn(v))[1]
    seen.clear()
    again = monotone_root(counted, a * roots ** 3 + b, 0.0, 2.0, args=(a, b))
    assert np.array_equal(again, got) and len(calls) == len(seen)


@pytest.mark.parametrize("model", [
    DensityModel.gaussian(0.2, 1.3), DensityModel.logistic(-0.1, 0.8),
    affine_custom("gaussian", 0.2, 1.3), affine_custom("logistic", -0.1, 0.8)],
    ids=["gaussian", "logistic", "custom-gaussian", "custom-logistic"])
def test_inverse_ratio_with_array_levels_equals_scalar_calls(model):
    rng = np.random.default_rng(11)
    ys = rng.uniform(0.1, 3.0, size=40)
    # ratios well inside every level's range: preimages at quantiles 0.05-0.95
    xs = model.quantile(rng.uniform(0.05, 0.95, size=40))
    rs = np.exp(model.log_pdf(xs + ys) - model.log_pdf(xs))
    got = inverse_ratio(model, ys, rs)
    want = np.array([inverse_ratio(model, float(y), float(r)) for y, r in zip(ys, rs)])
    assert got.shape == (40,)
    if model.family == "custom":  # one solve per array vs per element
        assert np.max(np.abs(got - want)) <= 2.0 * (1e-13 * model.scale + 8.9e-16 * np.abs(want)).max()
    else:
        assert np.array_equal(got, want)
    # one ratio against many levels broadcasts, and ratio_range follows suit
    r0 = float(np.exp(model.log_pdf(xs[0] + ys[0]) - model.log_pdf(xs[0])))
    lo, hi = model.ratio_range(ys[:5])
    assert lo.shape == hi.shape == (5,)
    # arrays take numpy's exp, scalars libm's: the two may differ by an ulp
    want_lo, want_hi = zip(*(model.ratio_range(float(y)) for y in ys[:5]))
    np.testing.assert_allclose(lo, want_lo, rtol=4.0 * np.finfo(float).eps, atol=0.0)
    np.testing.assert_allclose(hi, want_hi, rtol=4.0 * np.finfo(float).eps, atol=0.0)
    inside = (lo < r0) & (r0 < hi)
    got0 = inverse_ratio(model, ys[:5][inside], r0)
    want0 = [inverse_ratio(model, float(y), r0) for y in ys[:5][inside]]
    assert np.allclose(got0, want0, rtol=0.0, atol=1e-12 * model.scale)
    assert type(inverse_ratio(model, float(ys[0]), float(rs[0]))) is float


def brentq_implied(density, c, k):
    """The former implied_y_root: the same doubling, then brentq."""
    g = lambda y: normalized_call(density, y, k) - c
    y_hi = 1.0
    while g(y_hi) < 0.0:
        y_hi *= 2.0
    return optimize.brentq(g, 0.0, y_hi, xtol=1e-14, rtol=8.9e-16, maxiter=300)


@pytest.mark.parametrize("density", [DensityModel.gaussian(), DensityModel.logistic()],
                         ids=["gaussian", "logistic"])
def test_implied_root_matches_brentq_on_the_acceptance_grid(density):
    for y in (0.25, 1.0, 3.0):
        for k in (0.5, 1.0, 2.0):
            c = normalized_call(density, y, k)
            query = ImpliedQuery(density, c, k)
            if c - query.intrinsic < 1e-14:
                continue  # pinned at intrinsic: both return 0
            got = implied_y_root(query)
            want = brentq_implied(density, c, k)
            assert type(got) is float
            assert abs(got - want) <= 2.0 * (1e-14 + 8.9e-16 * want)


def test_import_loads_neither_scipy_optimize_nor_integrate():
    code = ("import sys, zonoid_lab; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_quadrature_routes_leave_scipy_integrate_unloaded():
    # the three former scipy.integrate.quad sites run on numerics.gauss_kronrod
    code = "\n".join([
        "import sys",
        "from zonoid_lab import DensityModel",
        "from zonoid_lab.implied import vega_integral",
        "from zonoid_lab.peacocks import G_map, recover_F_from_G",
        "from zonoid_lab.zonoid import boundary_from_quantile_integral",
        "g = DensityModel.gaussian()",
        "twin = DensityModel.custom(g.pdf, g.pdf_prime, g.cdf, g.quantile)",
        "recover_F_from_G(lambda p: G_map(g, p), 0.0, 0.5)",
        "vega_integral(g, 1.3, 0.8)",
        "vega_integral(DensityModel.logistic(), 1.3, 0.8)",
        "vega_integral(twin, 1.3, 0.8)",
        "boundary_from_quantile_integral(g, [0.0, 0.3, 1.0])",
        "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))",
    ])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
