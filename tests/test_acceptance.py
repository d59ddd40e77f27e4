"""Acceptance gate: nine end-to-end checks at fixed tolerances and runtime
budgets.  Each check prints a single "criterion N: PASS/FAIL" line on the
terminal (bypassing capture) so a full run reads as a scoreboard.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import norm

from zonoid_lab.densities import DensityModel
from zonoid_lab.implied import (ImpliedQuery, implied_y_minimization,
                                implied_y_root, normalized_call, vega_integral)
from zonoid_lab.localvol import (dupire_from_boundary, dupire_from_calls,
                                 localvol_geometric_closed,
                                 localvol_linear_closed)
from zonoid_lab.mc import SimConfig, mc_check_propositions
from zonoid_lab.peacocks import (G_map, PeacockSpec, TimeChange,
                                 boundary_surface, call_surface,
                                 certify_peacock, generator_limit_check,
                                 group_property_check, recover_F_from_G)
from zonoid_lab.pricing import geometric_family_curve, linear_family_curve
from zonoid_lab.zonoid import (DiscreteDistribution, calls_from_upper_boundary,
                               discrete_upper_boundary,
                               inverse_boundary_positive,
                               upper_boundary_from_calls)

GAUSS = DensityModel.gaussian()
LOGISTIC = DensityModel.logistic()
CAUCHY = DensityModel.cauchy()

TS = (0.25, 1.0, 4.0)
PS = np.arange(0.1, 0.95, 0.1)


class _Criterion:
    """Times a block, enforces its runtime budget, prints one summary line."""

    def __init__(self, number, budget_s, capsys):
        self.number = number
        self.budget = budget_s
        self.capsys = capsys

    def _say(self, line):
        with self.capsys.disabled():
            print(line)

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def note(self, line):
        self._say(f"criterion {self.number}: {line}")

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is not None:
            self._say(f"criterion {self.number}: FAIL ({elapsed:.2f}s)")
            return False
        if elapsed >= self.budget:
            self._say(f"criterion {self.number}: FAIL "
                      f"(runtime {elapsed:.2f}s exceeds {self.budget}s)")
            raise AssertionError(f"runtime budget exceeded: {elapsed:.2f}s")
        self._say(f"criterion {self.number}: PASS "
                  f"({elapsed:.2f}s < {self.budget}s)")
        return False


def test_criterion_1_bachelier_boundary(capsys):
    with _Criterion(1, 5.0, capsys):
        for t in TS:
            curve = linear_family_curve(GAUSS, 0.0, math.sqrt(t))
            got = upper_boundary_from_calls(curve, PS).values
            want = math.sqrt(t) * norm.pdf(norm.ppf(PS))
            assert np.max(np.abs(got - want)) <= 1e-6


def test_criterion_2_black_scholes_boundary(capsys):
    with _Criterion(2, 5.0, capsys):
        for t in TS:
            curve = geometric_family_curve(GAUSS, 1.0, math.sqrt(t))
            got = upper_boundary_from_calls(curve, PS).values
            want = norm.cdf(norm.ppf(PS) + math.sqrt(t))
            assert np.max(np.abs(got - want)) <= 1e-6


def test_criterion_3_monte_carlo(capsys):
    with _Criterion(3, 60.0, capsys):
        for model, seed in (("bachelier", 2026), ("black_scholes", 2027)):
            cfg = SimConfig(model, 1.0, 1_000_000, seed, antithetic=True)
            report = mc_check_propositions(cfg)
            assert report.ok, (model, report.max_dev_se_units)
            assert report.max_dev_se_units <= 4.0


def test_criterion_4_duality_round_trips(capsys):
    cases = [
        (linear_family_curve(GAUSS, 0.0, 1.0), np.linspace(-8.0, 8.0, 2001)),
        (linear_family_curve(LOGISTIC, 0.0, 1.0), np.linspace(-2.0, 2.0, 2001)),
        (geometric_family_curve(GAUSS, 1.0, 0.6), np.geomspace(0.05, 4.5, 2001)),
        (geometric_family_curve(LOGISTIC, 1.0, 0.7), np.linspace(0.3, 2.5, 2001)),
    ]
    pgrid = np.linspace(0.0, 1.0, 2001)
    with _Criterion(4, 10.0, capsys):
        for curve, kgrid in cases:
            boundary = upper_boundary_from_calls(curve, pgrid)
            back = calls_from_upper_boundary(boundary, kgrid)
            assert np.max(np.abs(back.values - curve(kgrid))) <= 1e-4
            # second leg on the 2001-point default grid spanning the
            # boundary's full slope range (the curve there decays to zero)
            full = calls_from_upper_boundary(boundary)
            boundary2 = upper_boundary_from_calls(full, pgrid)
            assert np.max(np.abs(boundary2.values - boundary.values)) <= 1e-4


def test_criterion_5_certificates(capsys):
    tgrid = np.linspace(0.25, 4.0, 8)
    pgrid = np.linspace(0.0, 1.0, 2001)
    log1p_tab = TimeChange.from_table(np.linspace(0.0, 5.0, 41),
                                      np.log1p(np.linspace(0.0, 5.0, 41)))
    with _Criterion(5, 10.0, capsys) as crit:
        for density in (GAUSS, LOGISTIC):
            for family, s in (("linear", 0.0), ("geometric", 1.0)):
                for tc in (TimeChange.sqrt(), TimeChange.linear(), log1p_tab):
                    spec = PeacockSpec(family, density, s, tc)
                    cert = certify_peacock(spec, tgrid, pgrid)
                    assert cert.ok, (density.family, family, tc.kind)
        spec = PeacockSpec("linear", CAUCHY, 0.0, TimeChange.sqrt())
        cert = certify_peacock(spec, tgrid, pgrid)
        assert not cert.ok
        assert cert.concavity.max_violation > 1e-6
        p1, p2, p3 = cert.concavity.witness
        crit.note(f"cauchy witness ({p1:.6g}, {p2:.6g}, {p3:.6g}), "
                  f"second difference {cert.concavity.max_violation:.3e}")
        assert p1 < p2 < p3


def test_criterion_6_discrete_oracle(capsys):
    rng = np.random.default_rng(20260814)
    pgrid = np.linspace(0.0, 1.0, 101)
    with _Criterion(6, 5.0, capsys):
        for _ in range(100):
            atoms = np.sort(rng.uniform(-10.0, 10.0, size=10))
            weights = rng.uniform(0.05, 1.0, size=10)
            weights /= weights.sum()
            dist = DiscreteDistribution(atoms, weights)
            greedy = discrete_upper_boundary(dist, pgrid)
            transform = upper_boundary_from_calls(dist.call_curve(), pgrid)
            assert np.max(np.abs(greedy - transform.values)) <= 1e-12


def test_criterion_7_local_volatility(capsys):
    with _Criterion(7, 10.0, capsys):
        for sigma in (0.5, 1.0, 2.0):
            tc = TimeChange.sqrt(sigma)
            for t in (0.5, 1.0, 2.0):
                for k in (-0.4, 0.0, 0.8):
                    res = localvol_linear_closed(GAUSS, tc, 0.0, t, k)
                    assert abs(res.sigma_sq - sigma * sigma) <= 1e-12
                for k in (0.6, 1.0, 1.7):
                    res = localvol_geometric_closed(GAUSS, tc, 1.0, t, k)
                    assert abs(res.sigma_bar_sq - sigma * sigma) <= 1e-12
        # finite differences from both surface kinds, interior points
        spec = PeacockSpec("linear", GAUSS, 0.0, TimeChange.sqrt(1.0))
        t, k, p = 1.0, 0.3, 0.4
        csurf = call_surface(spec, t + 1e-3 * np.arange(-2.0, 3.0),
                             k + 1e-3 * np.arange(-2.0, 3.0))
        got = dupire_from_calls(csurf, t, k)
        assert abs(got.sigma_sq - 1.0) <= 1e-2
        bsurf = boundary_surface(spec, t + 1e-3 * np.arange(-2.0, 3.0),
                                 p + 1e-4 * np.arange(-2.0, 3.0))
        got = dupire_from_boundary(bsurf, t, p)
        assert abs(got.sigma_sq - 1.0) <= 1e-2
        spec = PeacockSpec("geometric", GAUSS, 1.0, TimeChange.sqrt(0.5))
        csurf = call_surface(spec, 1.0 + 1e-3 * np.arange(-2.0, 3.0),
                             1.2 + 1.2e-3 * np.arange(-2.0, 3.0))
        got = dupire_from_calls(csurf, 1.0, 1.2)
        assert abs(got.sigma_bar_sq - 0.25) <= 1e-2
        bsurf = boundary_surface(spec, 1.0 + 1e-3 * np.arange(-2.0, 3.0),
                                 0.45 + 1e-4 * np.arange(-2.0, 3.0))
        got = dupire_from_boundary(bsurf, 1.0, 0.45)
        assert abs(got.sigma_bar_sq - 0.25) <= 2e-2


def test_criterion_8_implied_volatility(capsys):
    with _Criterion(8, 10.0, capsys):
        for density in (GAUSS, LOGISTIC):
            for y in (0.25, 1.0, 3.0):
                for k in (0.5, 1.0, 2.0):
                    c = normalized_call(density, y, k)
                    query = ImpliedQuery(density, c, k)
                    y_root = implied_y_root(query)
                    y_min, _ = implied_y_minimization(query)
                    assert abs(y_root - y_min) <= 1e-5
                    if c - query.intrinsic < 1e-14:
                        # price pinned at intrinsic: y is not identifiable,
                        # both routes return 0 and reprice exactly
                        assert y_root == 0.0
                        assert normalized_call(density, y_root, k) == c
                    else:
                        assert abs(y_root - y) <= 1e-6
                    assert abs(vega_integral(density, y, k)
                               - (c - query.intrinsic)) <= 1e-8


def test_criterion_9_group_identities(capsys):
    with _Criterion(9, 10.0, capsys):
        for density in (GAUSS, LOGISTIC):
            for y1, y2 in ((0.5, 0.25), (1.0, 2.0), (1.5, -0.5)):
                assert group_property_check(density, y1, y2) <= 1e-10
            for y, err in generator_limit_check(density):
                if y <= 1e-3:
                    assert err <= 2.0 * y
        ps, xs = recover_F_from_G(lambda p: G_map(GAUSS, p), 0.0, 0.5,
                                  pgrid=np.linspace(0.01, 0.99, 99))
        assert np.max(np.abs(xs - norm.ppf(ps))) <= 1e-6
        # geometric symmetry of the lognormal: inverse boundary vs reflection
        curve = geometric_family_curve(GAUSS, 1.0, math.sqrt(0.64))
        qs = np.linspace(0.01, 0.99, 49)
        lhs = np.array([inverse_boundary_positive(curve, q) for q in qs])
        rhs = 1.0 - upper_boundary_from_calls(curve, 1.0 - qs[::-1]).values[::-1]
        assert np.max(np.abs(lhs - rhs)) <= 1e-6
