"""Density model tests.

Expected values are frozen from independent oracles: scipy.stats closed
forms for the named families, scipy.integrate.quad for normalizations, and
central finite differences for derivative cross-checks.  The logistic
kernels ``_expit``, ``_logit`` and ``_logistic_pdf`` are checked against
scipy.special, which the package itself only imports for the gaussian.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special
from scipy.stats import norm

from zonoid_lab.densities import (DensityModel, _expit, _logistic_pdf, _logit,
                                  check_log_concavity, inverse_log_slope, inverse_ratio)
from zonoid_lab.errors import (DomainError, RangeError, UnsupportedError,
                               ValidationError)

GAUSS = DensityModel.gaussian()
LOGISTIC = DensityModel.logistic()
CAUCHY = DensityModel.cauchy()

ALL_MODELS = [
    GAUSS,
    DensityModel.gaussian(location=-0.7, scale=2.5),
    LOGISTIC,
    DensityModel.logistic(location=1.2, scale=0.4),
    CAUCHY,
    DensityModel.cauchy(location=0.3, scale=1.5),
]


def gaussian_clone() -> DensityModel:
    """Gaussian rebuilt through the custom-callable path, so the generic
    (root-finding, finite-difference) branches get exercised."""
    return DensityModel.custom(norm.pdf, lambda x: -np.asarray(x) * norm.pdf(x),
                               norm.cdf, norm.ppf)


# ---------------------------------------------------------------------------
# Evaluators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: f"{m.family}-{m.scale}")
def test_pdf_normalizes(model):
    total, _ = integrate.quad(model.pdf, -np.inf, np.inf, limit=400)
    assert abs(total - 1.0) <= 1e-8


def test_frozen_gaussian_values():
    # frozen from scipy.stats.norm
    assert GAUSS.pdf(1.0) == pytest.approx(0.24197072451914337, abs=1e-15)
    assert GAUSS.cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-15)
    assert GAUSS.quantile(0.8413447460685429) == pytest.approx(1.0, abs=1e-12)


def test_frozen_logistic_values():
    # logistic cdf is the standard sigmoid
    assert LOGISTIC.cdf(0.0) == 0.5
    assert LOGISTIC.cdf(1.0) == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-15)
    assert LOGISTIC.pdf(0.0) == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("model", [LOGISTIC, DensityModel.logistic(location=1.2, scale=0.4)],
                         ids=["standard", "shifted"])
def test_logistic_log_curvature_in_both_tails(model):
    # (log f)'' = -1 / (2 scale^2 cosh^2(z / 2)); -2 p (1 - p) had lost the
    # right tail (1 - p rounds: 0 at z = 40)
    mpmath.mp.dps = 40
    for z in (-40.0, -30.0, 30.0, 40.0):
        want = -1.0 / (2 * mpmath.mpf(model.scale) ** 2 * mpmath.cosh(mpmath.mpf(z) / 2) ** 2)
        got = model.log_curvature(model.location + model.scale * z)
        assert abs(got / float(want) - 1.0) <= 1e-13


def test_frozen_cauchy_values():
    assert CAUCHY.pdf(0.0) == pytest.approx(1.0 / math.pi, abs=1e-15)
    assert CAUCHY.cdf(1.0) == pytest.approx(0.75, abs=1e-15)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: f"{m.family}-{m.scale}")
def test_quantile_cdf_round_trip(model):
    ps = np.linspace(1e-6, 1.0 - 1e-6, 41)
    back = model.cdf(model.quantile(ps))
    assert np.max(np.abs(back - ps)) <= 1e-10


def test_quantile_endpoints():
    assert GAUSS.quantile(0.0) == -np.inf
    assert GAUSS.quantile(1.0) == np.inf
    with pytest.raises(DomainError):
        GAUSS.quantile(-0.1)
    with pytest.raises(DomainError):
        GAUSS.quantile(1.1)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: f"{m.family}-{m.scale}")
def test_pdf_prime_matches_finite_differences(model):
    xs = np.linspace(-3.0, 3.0, 25) * model.scale + model.location
    h = 1e-6 * model.scale
    fd = (model.pdf(xs + h) - model.pdf(xs - h)) / (2.0 * h)
    assert np.max(np.abs(model.pdf_prime(xs) - fd)) <= 1e-6


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: f"{m.family}-{m.scale}")
def test_log_slope_and_curvature_match_finite_differences(model):
    xs = np.linspace(-2.5, 2.5, 21) * model.scale + model.location
    h = 1e-6 * model.scale
    fd1 = (model.log_pdf(xs + h) - model.log_pdf(xs - h)) / (2.0 * h)
    assert np.max(np.abs(model.log_slope(xs) - fd1)) <= 1e-5
    fd2 = (model.log_slope(xs + h) - model.log_slope(xs - h)) / (2.0 * h)
    assert np.max(np.abs(model.log_curvature(xs) - fd2)) <= 1e-4


def test_scalar_in_scalar_out():
    assert isinstance(GAUSS.pdf(0.0), float)
    assert isinstance(GAUSS.cdf(np.float64(0.0)), float)
    assert isinstance(GAUSS.pdf(np.array([0.0, 1.0])), np.ndarray)


def _twin(model: DensityModel) -> DensityModel:
    return DensityModel.custom(model.pdf, model.pdf_prime, model.cdf, model.quantile)


@pytest.mark.parametrize("model", [GAUSS, LOGISTIC, DensityModel.logistic(0.4, 2.5)],
                         ids=["gaussian", "logistic", "logistic-2.5"])
def test_custom_evaluators_match_their_built_in(model):
    twin, xs = _twin(model), np.linspace(-8.0, 8.0, 161) * model.scale + model.location
    # pdf_prime hands the user's callable through unchanged
    assert np.array_equal(twin.pdf_prime(xs), model.pdf_prime(xs))
    assert type(twin.pdf_prime(0.3)) is float and twin.pdf_prime(0.3) == model.pdf_prime(0.3)
    # log_curvature of a custom model is the central difference of (log f)' at
    # h = 1e-5 scale: truncation h^2 max|(log f)^(4)| / 6 plus rounding about
    # eps max|(log f)'| / h, both below 1e-9 / scale^2 over 8 scales for these laws
    err = np.abs(twin.log_curvature(xs) - model.log_curvature(xs))
    assert np.max(err) <= 1e-9 / model.scale ** 2


def test_gaussian_pdf_far_tail_is_zero_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert GAUSS.pdf(1e200) == 0.0 and GAUSS.pdf(-5e299) == 0.0
        assert np.array_equal(GAUSS.pdf(np.array([-1e300, 40.0, 1e300])), [0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# Logistic kernels: numpy stand-ins for scipy.special.expit and logit
# ---------------------------------------------------------------------------

def _ulps(got, want):
    """|got - want| in units of the float spacing at want (elementwise)."""
    return np.abs(got - want) / np.spacing(np.abs(want))


def _kernel_values(kernel, values):
    """The kernel on the array of ``values`` and on each value as a numpy
    scalar and as a 0-d array, with every floating-point warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        arr = kernel(np.array(values, dtype=np.float64))
        scalars = [kernel(np.float64(v)) for v in values]
        zero_d = [kernel(np.array(v)) for v in values]
    return arr, np.array(scalars), np.array(zero_d)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-800.0, 800.0), min_size=1, max_size=16))
def test_expit_and_logistic_pdf_within_4_ulp_of_scipy(zs):
    z = np.array(zs)
    # past |z| = 709.78 scipy's 1 + exp(|z|) overflows and its factor
    # returns 0; the kernels keep exp(-|z|) there, the subnormal it rounds to
    tail = np.exp(-np.maximum(np.abs(z), 709.0))
    for kernel, want in ((_expit, np.where(z < -709.0, tail, special.expit(z))),
                         (_logistic_pdf, np.where(np.abs(z) > 709.0, tail,
                                                  special.expit(z) * special.expit(-z)))):
        got, scalars, zero_d = _kernel_values(kernel, zs)
        assert np.array_equal(scalars, got) and np.array_equal(zero_d, got)
        assert np.all(_ulps(got, want) <= 4.0)


_LOGIT_P = st.one_of(st.floats(0.0, 1.0), st.floats(0.49, 0.51),
                     st.floats(0.0, 1e-300), st.floats(1.0 - 1e-12, 1.0))


@settings(max_examples=200, deadline=None)
@given(st.lists(_LOGIT_P, min_size=1, max_size=16))
def test_logit_within_2_ulp_of_scipy(ps):
    got, scalars, zero_d = _kernel_values(_logit, ps)
    assert np.array_equal(scalars, got) and np.array_equal(zero_d, got)
    want = special.logit(np.array(ps))
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite])
    assert np.all(_ulps(got[finite], want[finite]) <= 2.0)


def test_logistic_kernels_at_the_special_values():
    real_line = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300]
    for kernel, scipy_kernel, values in (
            (_expit, special.expit, real_line),
            (_logistic_pdf, lambda z: special.expit(z) * special.expit(-z), real_line),
            (_logit, special.logit, [0.0, -0.0, 1.0, 0.5, np.nan])):
        got, scalars, zero_d = _kernel_values(kernel, values)
        want = scipy_kernel(np.array(values))
        for out in (got, scalars, zero_d):
            assert np.array_equal(out, want, equal_nan=True)


def test_logistic_kernels_on_a_dense_sweep():
    z = np.concatenate([np.linspace(-709.0, 800.0, 200_001), np.linspace(-40.0, 40.0, 100_001)])
    assert np.max(_ulps(_expit(z), special.expit(z))) <= 4.0
    z = z[np.abs(z) <= 709.0]
    assert np.max(_ulps(_logistic_pdf(z), special.expit(z) * special.expit(-z))) <= 4.0
    p = np.concatenate([np.linspace(0.0, 1.0, 200_001)[1:-1], 0.5 + np.linspace(-1e-9, 1e-9, 2001),
                        np.geomspace(1e-300, 1e-3, 2001), 1.0 - np.geomspace(1e-16, 1e-3, 2001)])
    assert np.max(_ulps(_logit(p), special.logit(p))) <= 2.0


# ---------------------------------------------------------------------------
# Structure and spec parsing
# ---------------------------------------------------------------------------

def test_structure_flags():
    assert GAUSS.is_log_concave and LOGISTIC.is_log_concave
    assert not CAUCHY.is_log_concave
    assert GAUSS.has_mean and LOGISTIC.has_mean
    assert not CAUCHY.has_mean
    assert gaussian_clone().is_log_concave


def test_validation_errors():
    with pytest.raises(ValidationError):
        DensityModel("exponential")
    with pytest.raises(ValidationError):
        DensityModel.gaussian(scale=0.0)
    with pytest.raises(ValidationError):
        DensityModel.gaussian(scale=-1.0)
    with pytest.raises(ValidationError):
        DensityModel("gaussian", pdf_fn=norm.pdf)
    with pytest.raises(ValidationError):
        DensityModel("custom", pdf_fn=norm.pdf)  # missing the other callables


def test_from_spec_round_trip():
    m = DensityModel.from_spec('{"family": "logistic", "location": 2, "scale": 0.5}')
    assert m.family == "logistic" and m.location == 2.0 and m.scale == 0.5
    assert DensityModel.from_spec("gaussian") == GAUSS
    assert DensityModel.from_spec(m.to_spec()) == m
    with pytest.raises(UnsupportedError):
        gaussian_clone().to_spec()


def test_log_slope_range():
    lo, hi = LOGISTIC.log_slope_range()
    assert (lo, hi) == (-1.0, 1.0)
    lo, hi = DensityModel.logistic(scale=2.0).log_slope_range()
    assert (lo, hi) == (-0.5, 0.5)
    assert GAUSS.log_slope_range() == (-np.inf, np.inf)
    with pytest.raises(UnsupportedError):
        CAUCHY.log_slope_range()


def test_ratio_range():
    lo, hi = LOGISTIC.ratio_range(0.7)
    assert lo == pytest.approx(math.exp(-0.7), abs=1e-15)
    assert hi == pytest.approx(math.exp(0.7), abs=1e-15)
    assert GAUSS.ratio_range(1.0) == (0.0, np.inf)
    with pytest.raises(DomainError):
        GAUSS.ratio_range(0.0)
    with pytest.raises(UnsupportedError):
        CAUCHY.ratio_range(1.0)


@pytest.mark.parametrize("model", [DensityModel.logistic(0.2, 0.7),
                                   _twin(DensityModel.logistic(0.2, 0.7))],
                         ids=["logistic", "custom-logistic"])
def test_ratio_range_scalar_equals_array(model):
    # one rule for scalars and arrays: a scalar level and the same level as a
    # 1-element array give the same ends, and an array gives them elementwise
    ys = np.random.default_rng(15).uniform(0.01, 20.0, 400)
    lo, hi = model.ratio_range(ys)
    for i, y in enumerate(ys):
        ends = model.ratio_range(float(y))
        assert type(ends[0]) is float and type(ends[1]) is float
        one = model.ratio_range(np.array([y]))
        assert ends == (float(one[0][0]), float(one[1][0])) == (float(lo[i]), float(hi[i]))


# ---------------------------------------------------------------------------
# Inverse maps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", [GAUSS, DensityModel.gaussian(0.5, 2.0),
                                   LOGISTIC, DensityModel.logistic(-1.0, 0.7)],
                         ids=lambda m: f"{m.family}-{m.scale}")
def test_inverse_log_slope_substitution(model):
    lo, hi = model.log_slope_range()
    lo, hi = max(lo, -5.0), min(hi, 5.0)
    for w in np.linspace(lo + 1e-3, hi - 1e-3, 17):
        x = inverse_log_slope(model, float(w))
        assert abs(model.log_slope(x) - w) <= 1e-10


def test_logistic_inverse_log_slope_is_finite_at_the_range_edge():
    # an ulp inside w = -1/scale the inverse -2 scale artanh(w scale) is
    # still finite
    for model in (LOGISTIC, DensityModel.logistic(-1.0, 0.7)):
        w = np.nextafter(-1.0 / model.scale, 0.0)
        x = inverse_log_slope(model, w)
        assert math.isfinite(x) and x > model.location + 30.0 * model.scale
        assert np.all(np.isfinite(inverse_log_slope(model, np.array([w, -w]))))


@pytest.mark.parametrize("model", [GAUSS, DensityModel.gaussian(0.5, 2.0),
                                   LOGISTIC, DensityModel.logistic(-1.0, 0.7)],
                         ids=lambda m: f"{m.family}-{m.scale}")
def test_inverse_ratio_substitution(model):
    for y in (0.25, 1.0, 3.0):
        lo, hi = model.ratio_range(y)
        lo, hi = max(lo, 1e-4), min(hi, 1e4)
        for r in np.geomspace(lo * 1.01 + 1e-12, hi * 0.99, 17):
            x = inverse_ratio(model, y, float(r))
            got = math.exp(float(model.log_pdf(x + y) - model.log_pdf(x)))
            assert abs(got - r) <= 1e-10 * max(1.0, r)


def test_inverse_maps_generic_path_matches_closed_form():
    clone = gaussian_clone()
    for w in (-2.0, -0.3, 0.0, 1.7):
        assert inverse_log_slope(clone, w) == pytest.approx(
            inverse_log_slope(GAUSS, w), abs=1e-9)
    for r in (0.25, 1.0, 3.0):
        assert inverse_ratio(clone, 0.8, r) == pytest.approx(
            inverse_ratio(GAUSS, 0.8, r), abs=1e-9)


def test_inverse_maps_vectorize():
    ws = np.array([-1.0, 0.0, 2.0])
    got = inverse_log_slope(GAUSS, ws)
    assert got.shape == ws.shape
    assert np.allclose(got, [inverse_log_slope(GAUSS, w) for w in ws], atol=0)
    rs = np.array([0.5, 1.0, 2.0])
    got = inverse_ratio(LOGISTIC, 0.9, rs)
    assert np.allclose(got, [inverse_ratio(LOGISTIC, 0.9, r) for r in rs], atol=0)


def test_inverse_map_errors():
    with pytest.raises(UnsupportedError):
        inverse_log_slope(CAUCHY, 0.0)
    with pytest.raises(UnsupportedError):
        inverse_ratio(CAUCHY, 1.0, 1.0)
    with pytest.raises(RangeError):
        inverse_log_slope(LOGISTIC, 1.5)  # outside (-1, 1)
    with pytest.raises(RangeError):
        inverse_ratio(LOGISTIC, 0.5, 100.0)  # outside (e^-1/2, e^1/2)
    with pytest.raises(RangeError):
        inverse_ratio(GAUSS, 1.0, -2.0)
    with pytest.raises(DomainError):
        inverse_ratio(GAUSS, -1.0, 1.0)
    with pytest.raises(DomainError):
        inverse_log_slope(GAUSS, np.inf)


# ---------------------------------------------------------------------------
# Log-concavity certificate
# ---------------------------------------------------------------------------

def test_concavity_certificate_passes_for_log_concave_families():
    for model in (GAUSS, LOGISTIC, DensityModel.logistic(2.0, 0.3)):
        report = check_log_concavity(model)
        assert report.is_concave
        assert report.witness is None
        assert report.max_violation <= 0.0 or report.max_violation < 1e-12


def test_concavity_certificate_fails_for_cauchy():
    report = check_log_concavity(CAUCHY)
    assert not report.is_concave
    assert report.max_violation > 1e-6
    # the violation of log-concavity peaks at |x| = sqrt(3)
    assert report.witness is not None
    assert abs(abs(report.witness[1]) - math.sqrt(3.0)) < 0.1
    assert report.witness[0] < report.witness[1] < report.witness[2]


def test_concavity_certificate_rejects_bad_grids():
    with pytest.raises(ValidationError):
        check_log_concavity(GAUSS, np.array([0.0, 1.0]))
    with pytest.raises(ValidationError):
        check_log_concavity(GAUSS, np.array([0.0, 1.0, 3.0]))  # non-uniform


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(loc=st.floats(-5, 5), scale=st.floats(0.1, 5),
       p=st.floats(1e-4, 1.0 - 1e-4),
       family=st.sampled_from(["gaussian", "logistic", "cauchy"]))
def test_quantile_inverts_cdf_property(loc, scale, p, family):
    model = DensityModel(family, loc, scale)
    assert abs(model.cdf(model.quantile(p)) - p) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(loc=st.floats(-5, 5), scale=st.floats(0.1, 5),
       x1=st.floats(-8, 8), x2=st.floats(-8, 8),
       family=st.sampled_from(["gaussian", "logistic"]))
def test_log_slope_is_non_increasing_property(loc, scale, x1, x2, family):
    model = DensityModel(family, loc, scale)
    lo, hi = min(x1, x2), max(x1, x2)
    assert model.log_slope(lo) >= model.log_slope(hi) - 1e-12
