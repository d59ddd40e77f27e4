"""Peacock surface tests: time changes, the G/H maps and their group
structure, certificates, and recovery of F from either map.

Gaussian expected values are frozen from scipy.stats.norm; logistic ones
follow from G(p) = p(1-p)/scale and the sigmoid closed form.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri
from scipy.stats import norm

from zonoid_lab.densities import DensityModel, check_log_concavity
from zonoid_lab.errors import DomainError, UnsupportedError, ValidationError
from zonoid_lab.numerics import monotone_root
from zonoid_lab.peacocks import (G_map, H_map, PeacockSpec, TimeChange,
                                 boundary_surface, call_surface,
                                 certify_peacock, generator_limit_check,
                                 group_property_check, recover_F_from_G,
                                 recover_F_from_H, surface_boundary)

GAUSS = DensityModel.gaussian()
LOGISTIC = DensityModel.logistic()
CAUCHY = DensityModel.cauchy()


def log1p_table(hi: float = 4.0, n: int = 33) -> TimeChange:
    ts = np.linspace(0.0, hi, n)
    return TimeChange.from_table(ts, np.log1p(ts))


# ---------------------------------------------------------------------------
# Time changes
# ---------------------------------------------------------------------------

def test_time_change_values_and_derivatives():
    sq = TimeChange.sqrt(2.0)
    assert sq.value(4.0) == 4.0
    assert sq.derivative(4.0) == 0.5
    assert sq.value(0.0) == 0.0
    lin = TimeChange.linear(0.3)
    assert lin.value(2.0) == pytest.approx(0.6, abs=1e-15)
    assert lin.derivative(0.0) == 0.3
    tab = TimeChange.from_table([0.0, 1.0, 3.0], [0.0, 2.0, 4.0])
    assert tab.value(0.5) == 1.0
    assert tab.value(2.0) == 3.0
    assert tab.derivative(1.0) == pytest.approx((4.0 - 0.0) / 3.0, abs=1e-15)


def test_time_change_errors():
    with pytest.raises(DomainError):
        TimeChange.sqrt().value(-1.0)
    with pytest.raises(DomainError):
        TimeChange.sqrt().derivative(0.0)
    with pytest.raises(DomainError):
        TimeChange.from_table([0.0, 1.0], [0.0, 1.0]).value(2.0)
    with pytest.raises(ValidationError):
        TimeChange.sqrt(-1.0)
    with pytest.raises(ValidationError):
        TimeChange("cubic")
    with pytest.raises(ValidationError):
        TimeChange.from_table([0.5, 1.0], [0.0, 1.0])  # must start at 0
    with pytest.raises(ValidationError):
        TimeChange.from_table([0.0, 1.0], [0.5, 1.0])  # increasing needs Y(0)=0
    with pytest.raises(ValidationError):
        TimeChange.from_table([0.0, 1.0, 2.0], [0.0, 1.0, 0.5])  # not monotone


def table_derivative_reference(times, values, t):
    """Centered secants at the interior nodes, one-sided at the two ends,
    linearly interpolated: the derivative rule of a table time change."""
    x, v = np.asarray(times, dtype=float), np.asarray(values, dtype=float)
    secants = np.empty_like(v)
    secants[1:-1] = (v[2:] - v[:-2]) / (x[2:] - x[:-2])
    secants[0] = (v[1] - v[0]) / (x[1] - x[0])
    secants[-1] = (v[-1] - v[-2]) / (x[-1] - x[-2])
    return float(np.interp(t, x, secants))


@pytest.mark.parametrize("n", [2, 3, 41])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_table_derivative_equals_the_secant_rule(n, sign):
    rng = np.random.default_rng(n)
    times = np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 1.0, n - 1))))
    values = np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 2.0, n - 1))))
    if sign < 0.0:
        values = values[::-1] + 1.0
    tab = TimeChange.from_table(times, values)
    for t in np.concatenate((times, rng.uniform(0.0, times[-1], 50))):
        assert tab.derivative(float(t)) == table_derivative_reference(times, values, t)


def test_decreasing_table_is_loadable():
    # valid to build (so the certificate can reject it), invalid as a peacock
    tab = TimeChange.from_table([0.0, 1.0, 2.0], [1.0, 0.6, 0.3])
    assert tab.value(0.5) == pytest.approx(0.8, abs=1e-15)


# ---------------------------------------------------------------------------
# G and H maps
# ---------------------------------------------------------------------------

def test_g_map_frozen_values():
    # gaussian generator is pdf(ppf(p)); frozen from scipy.stats.norm
    assert G_map(GAUSS, 0.5) == pytest.approx(0.3989422804014327, abs=1e-15)
    assert G_map(GAUSS, 0.8413447460685429) == pytest.approx(
        0.24197072451914337, abs=1e-12)
    # logistic generator is p(1-p)/scale
    ps = np.linspace(0.0, 1.0, 21)
    got = G_map(LOGISTIC, ps)
    assert np.max(np.abs(got - ps * (1.0 - ps))) <= 1e-15
    got = G_map(DensityModel.logistic(scale=2.0), ps)
    assert np.max(np.abs(got - ps * (1.0 - ps) / 2.0)) <= 1e-15


def test_g_map_endpoints_and_errors():
    assert G_map(GAUSS, 0.0) == 0.0
    assert G_map(GAUSS, 1.0) == 0.0
    with pytest.raises(DomainError):
        G_map(GAUSS, -0.1)
    with pytest.raises(DomainError):
        G_map(GAUSS, np.array([0.5, 1.5]))


def test_h_map_frozen_values():
    # H_y(p) = Phi(Phi^{-1}(p) + y); frozen from scipy.stats.norm
    assert H_map(GAUSS, 1.0, 0.5) == pytest.approx(0.8413447460685429, abs=1e-15)
    assert H_map(GAUSS, 2.0, 0.5) == pytest.approx(0.9772498680518208, abs=1e-15)
    assert H_map(LOGISTIC, 1.0, 0.5) == pytest.approx(
        1.0 / (1.0 + math.exp(-1.0)), abs=1e-15)


def test_h_map_conventions():
    ps = np.linspace(0.0, 1.0, 11)
    out = H_map(GAUSS, 0.0, ps)
    assert np.array_equal(out, ps)  # identity, exactly
    assert H_map(GAUSS, 3.0, 0.0) == 0.0
    assert H_map(GAUSS, 3.0, 1.0) == 1.0
    assert H_map(GAUSS, -2.0, 0.0) == 0.0
    with pytest.raises(DomainError):
        H_map(GAUSS, np.inf, 0.5)


def test_maps_never_evaluate_the_quantile_at_the_ends():
    # the ends take their conventions; the quantile sees the interior and
    # the stand-in p = 1/2, never 0 or 1 (where a custom quantile may raise)
    def quantile(p):
        p = np.asarray(p, dtype=np.float64)
        if np.any((p <= 0.0) | (p >= 1.0)):
            raise AssertionError(f"quantile evaluated at {p!r}")
        return GAUSS.quantile(p)

    model = DensityModel.custom(GAUSS.pdf, GAUSS.pdf_prime, GAUSS.cdf, quantile)
    ps = np.linspace(0.0, 1.0, 11)
    assert np.array_equal(G_map(model, ps), G_map(GAUSS, ps))
    assert G_map(model, ps)[[0, -1]].tolist() == [0.0, 0.0]
    for y in (0.7, -1.5):
        assert np.array_equal(H_map(model, y, ps), H_map(GAUSS, y, ps))
        assert H_map(model, y, ps)[[0, -1]].tolist() == [0.0, 1.0]
    for p, g, h in ((0.0, 0.0, 0.0), (1.0, 0.0, 1.0), (np.array(1.0), 0.0, 1.0)):
        assert type(G_map(model, p)) is float and G_map(model, p) == g
        assert type(H_map(model, 2.0, p)) is float and H_map(model, 2.0, p) == h
    assert np.array_equal(G_map(model, np.array([[0.0, 1.0]])), [[0.0, 0.0]])


def test_h_map_negative_levels_invert():
    ps = np.linspace(0.01, 0.99, 25)
    for y in (0.25, 1.0, 3.0):
        back = H_map(GAUSS, -y, H_map(GAUSS, y, ps))
        assert np.max(np.abs(back - ps)) <= 1e-10


# ---------------------------------------------------------------------------
# Surfaces
# ---------------------------------------------------------------------------

def test_surface_boundary_linear_closed_form():
    spec = PeacockSpec("linear", GAUSS, 0.3, TimeChange.sqrt(1.0))
    t, p = 4.0, 0.5
    want = 0.3 * 0.5 + 2.0 * norm.pdf(0.0)
    assert surface_boundary(spec, t, p) == pytest.approx(want, abs=1e-14)
    assert isinstance(surface_boundary(spec, t, p), float)


def test_surface_boundary_geometric_closed_form():
    spec = PeacockSpec("geometric", GAUSS, 2.0, TimeChange.sqrt(1.0))
    want = 2.0 * norm.cdf(norm.ppf(0.3) + 1.0)
    assert surface_boundary(spec, 1.0, 0.3) == pytest.approx(want, abs=1e-13)


def test_boundary_surface_grid_shape_and_meta():
    spec = PeacockSpec("geometric", LOGISTIC, 1.0, TimeChange.linear(0.5))
    grid = boundary_surface(spec, np.array([0.5, 1.0]), np.linspace(0.0, 1.0, 5))
    assert grid.values.shape == (2, 5)
    assert grid.axis_kind == "zonoid-space"
    assert grid.meta["family"] == "geometric"
    assert grid.meta["mean"] == 1.0
    assert grid.meta["density"]["family"] == "logistic"


def test_call_surface_at_time_zero_is_intrinsic():
    spec = PeacockSpec("linear", GAUSS, 0.5, TimeChange.sqrt(1.0))
    ks = np.linspace(-1.0, 2.0, 7)
    grid = call_surface(spec, np.array([0.0, 1.0]), ks)
    assert np.array_equal(grid.values[0], np.maximum(0.5 - ks, 0.0))
    assert grid.axis_kind == "call-space"


def test_spec_validation():
    with pytest.raises(ValidationError):
        PeacockSpec("cubic", GAUSS, 0.0, TimeChange.sqrt())
    with pytest.raises(ValidationError):
        PeacockSpec("geometric", GAUSS, 0.0, TimeChange.sqrt())
    with pytest.raises(ValidationError):
        PeacockSpec("geometric", GAUSS, -1.0, TimeChange.sqrt())


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

TGRID = np.linspace(0.25, 4.0, 8)
PGRID = np.linspace(0.0, 1.0, 401)


@pytest.mark.parametrize("density", [GAUSS, LOGISTIC], ids=["gaussian", "logistic"])
@pytest.mark.parametrize("family,s", [("linear", 0.0), ("geometric", 1.0)])
@pytest.mark.parametrize("tc", [TimeChange.sqrt(), TimeChange.linear(),
                                log1p_table()], ids=["sqrt", "linear", "log1p"])
def test_certify_passes_for_log_concave_families(density, family, s, tc):
    spec = PeacockSpec(family, density, s, tc)
    cert = certify_peacock(spec, TGRID, PGRID)
    assert cert.ok
    assert cert.concavity.is_concave
    assert cert.kellerer.ok and not cert.kellerer.skipped
    assert cert.mean_ok and cert.mean_max_dev == 0.0


def test_certify_fails_for_cauchy_with_witness():
    spec = PeacockSpec("linear", CAUCHY, 0.0, TimeChange.sqrt())
    cert = certify_peacock(spec, TGRID, PGRID)
    assert not cert.ok
    assert not cert.concavity.is_concave
    assert cert.concavity.max_violation > 1e-6
    p1, p2, p3 = cert.concavity.witness
    assert 0.0 <= p1 < p2 < p3 <= 1.0
    assert cert.kellerer.skipped  # not evaluated on an unfaithful transform


@pytest.mark.parametrize("family,density,s", [("linear", CAUCHY, 0.0), ("geometric", GAUSS, 1.3),
                                               ("linear", LOGISTIC, -0.4)])
def test_certify_concavity_equals_the_slice_by_slice_scan(family, density, s):
    # one array second difference over all slices; the witness is the first
    # worst triple in row-major order, which a strict > over slices keeps
    spec = PeacockSpec(family, density, s, TimeChange.sqrt())
    cert = certify_peacock(spec, TGRID, PGRID)
    worst, witness = -np.inf, None
    for t in TGRID:
        row = np.asarray(surface_boundary(spec, float(t), PGRID))
        d2 = row[2:] - 2.0 * row[1:-1] + row[:-2]
        j = int(np.argmax(d2))
        if d2[j] > worst:
            worst, witness = float(d2[j]), tuple(float(p) for p in PGRID[j:j + 3])
    assert cert.concavity.max_violation == worst
    assert cert.concavity.witness == (None if cert.concavity.is_concave else witness)


def test_certify_fails_kellerer_for_decreasing_table():
    tc = TimeChange.from_table([0.0, 1.0, 2.0, 3.0, 4.0],
                               [1.0, 0.8, 0.55, 0.35, 0.2])
    spec = PeacockSpec("geometric", GAUSS, 1.0, tc)
    cert = certify_peacock(spec, TGRID, PGRID)
    assert not cert.ok
    assert cert.concavity.is_concave  # slices are still concave
    assert not cert.kellerer.ok and not cert.kellerer.skipped
    assert cert.kellerer.max_violation > 0.0
    p, t_lo, t_hi = cert.kellerer.witness
    assert p in PGRID and 0.0 < p < 1.0
    assert t_lo < t_hi and t_lo in TGRID and t_hi in TGRID
    assert_kellerer_matches_the_oracle(cert.kellerer, spec, TGRID, PGRID)


def gaussian_mixture(a: float) -> DensityModel:
    """The custom model f = N(-a, 1)/2 + N(a, 1)/2, log-concave iff a <= 1;
    its quantile is one vectorised root solve of the cdf, bracketed by
    Phi^-1(p) -/+ a since Phi(x - a) <= F(x) <= Phi(x + a)."""
    phi = lambda x: np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    cdf = lambda x: 0.5 * (ndtr(x - a) + ndtr(x + a))

    def quantile(p):
        z = ndtri(p)
        return monotone_root(cdf, p, z - a, z + a)

    return DensityModel.custom(lambda x: 0.5 * (phi(x - a) + phi(x + a)),
                               lambda x: -0.5 * ((x - a) * phi(x - a) + (x + a) * phi(x + a)),
                               cdf, quantile)


@pytest.mark.parametrize("a", [0.8, 1.005, 1.2])
@pytest.mark.parametrize("family,s", [("linear", 0.0), ("geometric", 1.0)])
@pytest.mark.parametrize("tgrid", [np.linspace(0.25, 4.0, 16), np.geomspace(0.01, 4.0, 16)],
                         ids=["linspace", "geomspace"])
def test_certificates_follow_the_theorem_on_gaussian_mixtures(a, family, s, tgrid):
    # f is log-concave iff either family is a peacock; at a = 1.005 the
    # geometric slices are concave for Y >= 0.5 and only the generator row
    # s G (second difference 1.04e-8 at p = 1/2) shows the defect
    model = gaussian_mixture(a)
    assert check_log_concavity(model).is_concave == (a <= 1.0)
    cert = certify_peacock(PeacockSpec(family, model, s, TimeChange.sqrt()), tgrid)
    assert cert.ok == cert.concavity.is_concave == (a <= 1.0)
    assert cert.kellerer.skipped == (a > 1.0)


def test_certify_grid_validation():
    spec = PeacockSpec("linear", GAUSS, 0.0, TimeChange.sqrt())
    with pytest.raises(ValidationError):
        certify_peacock(spec, np.array([1.0]))
    with pytest.raises(ValidationError):
        certify_peacock(spec, TGRID, np.linspace(0.1, 1.0, 10))
    with pytest.raises(ValidationError):
        certify_peacock(spec, TGRID, np.array([0.0, 0.3, 1.0]))
    with pytest.raises(ValidationError):  # no second difference to test
        certify_peacock(spec, TGRID, [0.0, 1.0])
    with pytest.raises(DomainError):
        certify_peacock(spec, np.array([-1.0, 1.0]))
    assert certify_peacock(spec, TGRID, [0.0, 0.5, 1.0]).ok


def test_certificate_dict_is_json_ready():
    spec = PeacockSpec("linear", CAUCHY, 0.0, TimeChange.sqrt())
    cert = certify_peacock(spec, TGRID, PGRID)
    d = cert.to_dict()
    assert list(d) == ["ok", "concavity", "kellerer", "mean_ok", "mean_max_dev"]
    assert d["concavity"] == {"is_concave": False, "witness": list(cert.concavity.witness),
                              "max_violation": cert.concavity.max_violation}
    assert d["kellerer"] == {"ok": False, "max_violation": None, "witness": None,
                             "skipped": True}  # nan -> None


# ---------------------------------------------------------------------------
# Group structure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("density", [GAUSS, LOGISTIC], ids=["gaussian", "logistic"])
def test_group_property(density):
    for y1, y2 in ((0.5, 0.25), (1.0, 2.0), (3.0, 0.1)):
        assert group_property_check(density, y1, y2) <= 1e-10
    # inverse composition (negative levels)
    assert group_property_check(density, 1.0, -1.0) <= 1e-10
    assert group_property_check(density, -0.5, 2.0) <= 1e-10


def test_generator_limit_table():
    for density in (GAUSS, LOGISTIC):
        rows = generator_limit_check(density)
        assert np.all(np.diff(rows[:, 0]) < 0.0)
        for y, err in rows:
            if y <= 1e-3:
                assert err <= 2.0 * y
    with pytest.raises(DomainError):
        generator_limit_check(GAUSS, ygrid=np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# Recovery of F
# ---------------------------------------------------------------------------

def test_recover_quantile_from_gaussian_generator():
    ps, xs = recover_F_from_G(lambda p: G_map(GAUSS, p), 0.0, 0.5)
    want = norm.ppf(ps)
    assert np.max(np.abs(xs - want)) <= 1e-6


def test_recover_quantile_from_logistic_generator():
    # G(q) = q(1-q) integrates to the logit; frozen: logit(e/(1+e)) = 1
    gen = lambda q: q * (1.0 - q)
    ps, xs = recover_F_from_G(gen, 0.0, 0.5, pgrid=np.array([0.2, 0.5,
                                                             0.7310585786300049]))
    assert xs[np.searchsorted(ps, 0.7310585786300049)] == pytest.approx(1.0, abs=1e-9)
    assert xs[np.searchsorted(ps, 0.2)] == pytest.approx(math.log(0.25), abs=1e-9)


def test_recover_f_from_h_matches_cdf():
    for density in (GAUSS, LOGISTIC):
        handle = lambda y, p: H_map(density, y, p)
        anchor = float(density.quantile(0.4))
        for x in (anchor, anchor + 0.5, anchor + 2.0):
            got = recover_F_from_H(handle, anchor, 0.4, x)
            assert got == pytest.approx(float(density.cdf(x)), abs=1e-12)


def test_recover_routes_agree():
    anchor = 0.0
    ps, xs = recover_F_from_G(lambda p: G_map(GAUSS, p), anchor, 0.5)
    handle = lambda y, p: H_map(GAUSS, y, p)
    for p_i, x_i in zip(ps[::10], xs[::10]):
        if x_i < anchor:
            continue
        assert recover_F_from_H(handle, anchor, 0.5, float(x_i)) == pytest.approx(
            p_i, abs=1e-6)


def test_recover_errors():
    with pytest.raises(UnsupportedError):
        recover_F_from_H(lambda y, p: p, 0.0, 0.5, -1.0)
    with pytest.raises(DomainError):
        recover_F_from_H(lambda y, p: p, 0.0, 1.5, 1.0)
    with pytest.raises(DomainError):
        recover_F_from_G(lambda p: 0.0, 0.0, 0.5)  # generator not positive
    with pytest.raises(DomainError):
        recover_F_from_G(lambda p: p * (1 - p), 0.0, -0.5)


def quad_recover(gen, anchor, p0, pgrid):
    """The former recover_F_from_G: one scipy.integrate.quad per grid
    interval, the generator called one scalar at a time (test oracle)."""
    from scipy import integrate

    ps = np.unique(np.clip(np.append(pgrid, p0), 1e-6, 1.0 - 1e-6))
    pieces = np.zeros(ps.size)
    for i in range(ps.size - 1):
        pieces[i + 1] = integrate.quad(lambda q: 1.0 / float(gen(q)), ps[i], ps[i + 1],
                                       epsabs=1e-12, epsrel=1e-10, limit=200)[0]
    cum = np.cumsum(pieces)
    i0 = int(np.searchsorted(ps, min(p0, ps[-1])))
    return ps, anchor + cum - cum[i0]


EDGE_GRIDS = {
    "default": np.linspace(0.01, 0.99, 99),
    "low edge": np.concatenate(([1e-7, 1e-5, 1e-3], np.linspace(0.01, 0.99, 99))),
    "both edges": np.concatenate(([1e-7], np.linspace(0.01, 0.99, 99), [1.0 - 1e-8])),
}


@pytest.mark.parametrize("grid", list(EDGE_GRIDS), ids=list(EDGE_GRIDS))
@pytest.mark.parametrize("density,exact", [(GAUSS, norm.ppf), (LOGISTIC, lambda p: np.log(p / (1 - p)))],
                         ids=["gaussian", "logistic"])
def test_recover_matches_the_quad_loop(density, exact, grid):
    pgrid = EDGE_GRIDS[grid]
    for p0 in (0.3, 0.5, 0.62):
        gen = lambda p: G_map(density, p)
        anchor = float(exact(p0))
        ps, xs = recover_F_from_G(gen, anchor, p0, pgrid)
        ps_q, xs_q = quad_recover(gen, anchor, p0, pgrid)
        assert np.array_equal(ps, ps_q)
        # below the top clip 1 - 1e-6 both routes are within 1e-11
        low = ps < 1.0 - 1e-4
        assert np.max(np.abs(xs[low] - xs_q[low])) <= 1e-11
        # at the clip the nodes themselves round (1/G ~ 1/(1 - q)): quad is
        # 4.2e-11 (logistic) and 8.2e-12 (gaussian) off the exact quantile
        # there, so the two agree only to the quadrature tolerance, and the
        # kernel must be no farther from the exact value than quad
        top = ~low
        assert np.all(np.abs(xs[top] - xs_q[top]) <= 1e-10 * np.abs(xs_q[top]))
        assert np.all(np.abs(xs[top] - exact(ps[top]))
                      <= np.abs(xs_q[top] - exact(ps[top])) + 1e-12)


def test_recover_calls_the_generator_on_arrays():
    seen = []

    def gen(p):
        seen.append(np.shape(p))
        return p * (1.0 - p)

    recover_F_from_G(gen, 0.0, 0.5)
    assert seen[0] == (99,) and all(len(sh) == 1 and sh[0] % 15 == 0 for sh in seen[1:])
    # a scalar return broadcasts: G = 1 gives F^-1(p) = anchor + p - p0
    ps, xs = recover_F_from_G(lambda p: 1.0, 2.0, 0.5, np.array([0.1, 0.9]))
    assert np.allclose(xs, 2.0 + ps - 0.5, rtol=0.0, atol=1e-15)
    with pytest.raises(DomainError):  # still rejected: a constant 0
        recover_F_from_G(lambda p: 0.0, 0.0, 0.5)


# ---------------------------------------------------------------------------
# One evaluation per slice matrix: arrays of levels and of x
# ---------------------------------------------------------------------------

def _twin(model: DensityModel) -> DensityModel:
    return DensityModel.custom(model.pdf, model.pdf_prime, model.cdf, model.quantile)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("density", [GAUSS, LOGISTIC, CAUCHY, _twin(LOGISTIC)],
                         ids=["gaussian", "logistic", "cauchy", "custom-logistic"])
def test_h_map_levels_broadcast_with_p(density):
    levels = np.array([0.0, -0.0, 1e-300, 0.5, -1.0, 3.0])
    ps = np.concatenate(([0.0], np.linspace(0.01, 0.99, 23), [1.0]))
    rows = np.vstack([H_map(density, float(y), ps) for y in levels])
    assert _same_bits(H_map(density, levels[:, None], ps), rows)
    # a column of levels against one p is one column of the same matrix
    assert _same_bits(H_map(density, levels, 0.3),
                      np.array([H_map(density, y, 0.3) for y in levels]))
    assert type(H_map(density, np.array(0.5), 0.3)) is float
    assert H_map(density, np.array([0.5]), 0.3).shape == (1,)
    with pytest.raises(DomainError):
        H_map(density, np.array([0.5, np.nan]), ps)


@pytest.mark.parametrize("family", ["linear", "geometric"])
@pytest.mark.parametrize("tc,tgrid", [(TimeChange.sqrt(0.8), np.linspace(0.25, 4.0, 16)),
                                      (log1p_table(), np.linspace(0.0, 4.0, 9)),
                                      (TimeChange.from_table([0.0, 1.0, 2.0], [2.0, 1.0, 0.5]),
                                       np.linspace(0.0, 2.0, 5))],
                         ids=["sqrt", "table", "decreasing-table"])
def test_boundary_surface_rows_are_the_slices(family, tc, tgrid):
    for density in (GAUSS, LOGISTIC, CAUCHY):
        spec = PeacockSpec(family, density, 1.3, tc)
        pgrid = np.linspace(0.0, 1.0, 101)
        want = np.vstack([surface_boundary(spec, float(t), pgrid) for t in tgrid])
        assert _same_bits(boundary_surface(spec, tgrid, pgrid).values, want)


def test_generator_limit_check_equals_the_level_loop():
    ygrid, pgrid = np.array([0.5, 1e-2, 1e-5, 1e-9]), np.linspace(0.02, 0.98, 49)
    for density in (GAUSS, LOGISTIC, _twin(GAUSS)):
        g = G_map(density, pgrid)
        want = np.array([(y, np.max(np.abs((H_map(density, float(y), pgrid) - pgrid) / y - g)))
                         for y in ygrid])
        assert _same_bits(generator_limit_check(density, ygrid, pgrid), want)


def test_recover_f_from_h_takes_arrays_in_one_call():
    seen = []

    def handle(y, p):
        seen.append(np.shape(y))
        return H_map(LOGISTIC, y, p)

    anchor = float(LOGISTIC.quantile(0.3))
    xs = anchor + np.array([0.0, 0.5, 2.0, 7.0])
    got = recover_F_from_H(handle, anchor, 0.3, xs)
    assert seen == [(4,)]
    assert _same_bits(got, np.array([recover_F_from_H(handle, anchor, 0.3, float(x)) for x in xs]))
    assert np.max(np.abs(got - LOGISTIC.cdf(xs))) <= 1e-12
    assert type(recover_F_from_H(handle, anchor, 0.3, xs[1])) is float
    with pytest.raises(UnsupportedError):  # one x below the anchor rejects the batch
        recover_F_from_H(handle, anchor, 0.3, np.append(xs, anchor - 1e-9))
    with pytest.raises(DomainError):
        recover_F_from_H(handle, anchor, 0.3, np.append(xs, np.inf))


def test_time_change_derivative_checks_t_like_the_value():
    tab = TimeChange.from_table([0.0, 1.0, 3.0], [0.0, 2.0, 4.0])
    for tc in (TimeChange.sqrt(), TimeChange.linear(2.0), tab):
        for t in (-1.0, -1e-300, np.nan, np.inf):
            for method in (tc.value, tc.derivative):
                with pytest.raises(DomainError, match="non-negative"):
                    method(t)
    for method in (tab.value, tab.derivative):
        with pytest.raises(DomainError, match="beyond the time change table"):
            method(3.0 + 1e-12)
    assert tab.derivative(3.0) == 1.0  # the last node is still inside


def test_surface_of_a_custom_model_tags_its_density_custom():
    tgrid, pgrid = np.linspace(0.5, 2.0, 4), np.linspace(0.0, 1.0, 11)
    for family in ("linear", "geometric"):
        twin, built_in = (boundary_surface(PeacockSpec(family, model, 1.0, TimeChange.sqrt()),
                                           tgrid, pgrid) for model in (_twin(GAUSS), GAUSS))
        assert twin.meta == dict(built_in.meta, density={"family": "custom"})
        # the twin evaluates the built-in's own functions, so the values agree exactly
        assert _same_bits(twin.values, built_in.values)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(y1=st.floats(-3, 3), y2=st.floats(-3, 3),
       family=st.sampled_from(["gaussian", "logistic"]))
def test_group_property_random_levels(y1, y2, family):
    density = DensityModel(family)
    assert group_property_check(density, y1, y2) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(y=st.floats(0.01, 4), p1=st.floats(0.01, 0.99), p2=st.floats(0.01, 0.99),
       family=st.sampled_from(["gaussian", "logistic"]))
def test_h_map_is_increasing_in_p_property(y, p1, p2, family):
    density = DensityModel(family)
    lo, hi = min(p1, p2), max(p1, p2)
    assert H_map(density, y, lo) <= H_map(density, y, hi) + 1e-12


def kellerer_oracle(spec, tgrid, pgrid):
    """The Kellerer step in call space, by brute force: each row's calls
    C_t(K) = max_p [b_t(p) - K p] at every chord slope K of every row, and
    the worst fall of C in t.  C_s - C_t is piecewise linear in K with its
    kinks at those slopes and tends to 0 at both ends, so the slopes give
    its supremum over all K.  Returns (ok, max_violation)."""
    rows = np.vstack([surface_boundary(spec, float(t), pgrid) for t in tgrid])
    kgrid = np.unique(np.diff(rows, axis=1) / np.diff(pgrid))
    calls = np.vstack([np.max(row[None, :] - kgrid[:, None] * pgrid[None, :], axis=1)
                       for row in rows])
    worst_gap = float(np.diff(calls, axis=0).min())
    return worst_gap >= -1e-9 * max(1.0, abs(spec.s)), max(0.0, -worst_gap)


def assert_kellerer_matches_the_oracle(kell, spec, tgrid, pgrid):
    ok, max_violation = kellerer_oracle(spec, tgrid, pgrid)
    assert kell.ok == ok and not kell.skipped
    assert abs(kell.max_violation - max_violation) <= 1e-12 * max(1.0, abs(spec.s))


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(0.2, 3.0), s=st.floats(-2.0, 2.0),
       t_lo=st.floats(0.05, 1.0), n_t=st.integers(2, 8))
def test_kellerer_step_equals_brute_force_linear_property(scale, s, t_lo, n_t):
    spec = PeacockSpec("linear", GAUSS, s, TimeChange.sqrt(scale))
    tgrid = np.linspace(t_lo, 4.0, n_t)
    pgrid = np.linspace(0.0, 1.0, 301)
    kell = certify_peacock(spec, tgrid, pgrid).kellerer
    assert_kellerer_matches_the_oracle(kell, spec, tgrid, pgrid)
    assert kell.ok and kell.witness is None


@settings(max_examples=20, deadline=None)
@given(steps=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6),
       decreasing=st.booleans(), s=st.floats(0.5, 3.0))
def test_kellerer_step_equals_brute_force_geometric_table_property(steps, decreasing, s):
    # decreasing tables make the step fail, so both outcomes are compared
    levels = np.concatenate(([0.0], np.cumsum(steps)))
    if decreasing:
        levels = levels[::-1]
    tc = TimeChange.from_table(np.arange(levels.size, dtype=float), levels)
    spec = PeacockSpec("geometric", LOGISTIC, s, tc)
    tgrid = np.linspace(0.0, levels.size - 1.0, 7)
    pgrid = np.linspace(0.0, 1.0, 301)
    kell = certify_peacock(spec, tgrid, pgrid).kellerer
    assert_kellerer_matches_the_oracle(kell, spec, tgrid, pgrid)
    assert kell.ok != decreasing
    assert (kell.witness is None) == kell.ok
