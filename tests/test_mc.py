"""Monte Carlo oracle tests: determinism, antithetic variance reduction,
agreement with closed forms, and the end-to-end pipeline check.

Frozen references: bachelier C(0; t=1) = phi(0) = 0.3989422804014327 and
black-scholes C(1; sigma=t=1) = 0.38292492254802624 (scipy.stats.norm).
"""

import math
import os

import numpy as np
import pytest

from zonoid_lab.errors import DomainError, ValidationError
from zonoid_lab.mc import (McEstimate, SimConfig, empirical_call_curve,
                           exact_boundary, mc_call, mc_check_propositions,
                           simulate_terminal)
from zonoid_lab.zonoid import project_convex_decreasing


@pytest.fixture
def thread_env():
    """Restore ZONOID_LAB_THREADS afterwards."""
    key = "ZONOID_LAB_THREADS"
    saved = os.environ.get(key)
    yield key
    if saved is None:
        os.environ.pop(key, None)
    else:
        os.environ[key] = saved


def test_config_validation():
    SimConfig("bachelier", 1.0, 100, 7)
    with pytest.raises(ValidationError):
        SimConfig("heston", 1.0, 100, 7)
    with pytest.raises(ValidationError):
        SimConfig("bachelier", -1.0, 100, 7)
    with pytest.raises(ValidationError):
        SimConfig("bachelier", 1.0, 1, 7)
    with pytest.raises(ValidationError):
        SimConfig("bachelier", 1.0, 101, 7, antithetic=True)
    with pytest.raises(ValidationError):
        McEstimate(0.1, -1.0, 10)


def test_deterministic_across_worker_counts(thread_env):
    cfg = SimConfig("black_scholes", 2.0, 600_000, seed=123, antithetic=True)
    samples = []
    for workers in ("1", "2", "8"):
        os.environ[thread_env] = workers
        samples.append(simulate_terminal(cfg))
    assert np.array_equal(samples[0], samples[1])
    assert np.array_equal(samples[0], samples[2])


def test_deterministic_in_seed():
    cfg = SimConfig("bachelier", 1.0, 10_000, seed=42)
    a = simulate_terminal(cfg)
    b = simulate_terminal(cfg)
    assert np.array_equal(a, b)
    c = simulate_terminal(SimConfig("bachelier", 1.0, 10_000, seed=43))
    assert not np.array_equal(a, c)


def test_antithetic_pairs_mirror():
    cfg = SimConfig("bachelier", 4.0, 10_000, seed=5, antithetic=True)
    x = simulate_terminal(cfg)
    assert np.max(np.abs(x[0::2] + x[1::2])) == 0.0  # exact mirror for W_t


def test_sample_moments():
    x = simulate_terminal(SimConfig("bachelier", 2.0, 400_000, seed=11))
    assert abs(float(np.mean(x))) <= 4.0 * math.sqrt(2.0 / 400_000)
    assert float(np.var(x)) == pytest.approx(2.0, rel=0.02)
    y = simulate_terminal(SimConfig("black_scholes", 1.0, 400_000, seed=11))
    assert float(np.min(y)) > 0.0
    assert float(np.mean(y)) == pytest.approx(1.0, abs=4.0 * 1.31 / math.sqrt(400_000))


def test_antithetic_variance_reduction():
    n = 100_000
    plain = mc_call(SimConfig("bachelier", 1.0, n, seed=9), 0.0)
    anti = mc_call(SimConfig("bachelier", 1.0, n, seed=9, antithetic=True), 0.0)
    assert (anti.std_error / plain.std_error) ** 2 <= 0.6


def test_mc_call_matches_closed_forms():
    est = mc_call(SimConfig("bachelier", 1.0, 200_000, seed=31, antithetic=True), 0.0)
    assert abs(est.value - 0.3989422804014327) <= 4.0 * est.std_error
    assert est.n == 200_000
    est = mc_call(SimConfig("black_scholes", 1.0, 200_000, seed=31, antithetic=True), 1.0)
    assert abs(est.value - 0.38292492254802624) <= 4.0 * est.std_error
    with pytest.raises(DomainError):
        mc_call(SimConfig("bachelier", 1.0, 100, 1), float("inf"))


def test_empirical_call_curve_exact():
    sample = np.array([1.0, 3.0, 3.0, 5.0])
    curve = empirical_call_curve(sample, np.array([0.0, 2.0, 4.0, 6.0]))
    assert np.array_equal(curve.values, np.array([3.0, 1.25, 0.25, 0.0]))
    assert curve.mean == 3.0
    assert curve.positive
    direct = np.mean(np.maximum(sample[:, None] - np.array([1.5, 2.5]), 0.0), axis=0)
    got = curve(np.array([1.5, 2.5]))
    # grid curve interpolates; at sample kinks the chord overshoots slightly
    assert np.all(got >= direct - 1e-12)
    with pytest.raises(ValidationError):
        empirical_call_curve(np.array([1.0]), np.array([0.0, 1.0]))


def test_exact_boundary_values():
    assert exact_boundary("bachelier", 1.0, 0.5) == pytest.approx(
        0.3989422804014327, abs=1e-15)
    assert exact_boundary("bachelier", 4.0, 0.5) == pytest.approx(
        2.0 * 0.3989422804014327, abs=1e-15)
    assert exact_boundary("black_scholes", 1.0, 0.5) == pytest.approx(
        0.8413447460685429, abs=1e-15)
    for model in ("bachelier", "black_scholes"):
        assert exact_boundary(model, 1.0, 0.0) == 0.0
    assert exact_boundary("bachelier", 1.0, 1.0) == 0.0
    assert exact_boundary("black_scholes", 1.0, 1.0) == 1.0
    arr = exact_boundary("bachelier", 1.0, np.array([0.25, 0.5, 0.75]))
    assert arr.shape == (3,)
    assert arr[0] == arr[2]  # symmetric about one half
    with pytest.raises(DomainError):
        exact_boundary("bachelier", 1.0, 1.5)
    with pytest.raises(DomainError):
        exact_boundary("vasicek", 1.0, 0.5)


@pytest.mark.parametrize("model", ["bachelier", "black_scholes"])
def test_exact_boundary_rejects_nan_levels_and_negative_times(model):
    # nan used to return uninitialised memory (black_scholes) or 0.0
    # (bachelier), and t < 0 an untyped ValueError
    with pytest.raises(DomainError):
        exact_boundary(model, 1.0, np.array([math.nan, 0.5]))
    with pytest.raises(DomainError):
        exact_boundary(model, -1.0, 0.5)


@pytest.mark.parametrize("model", ["bachelier", "black_scholes"])
def test_proposition_pipeline(model):
    report = mc_check_propositions(SimConfig(model, 1.0, 200_000, seed=17,
                                             antithetic=True))
    assert report.ok
    assert report.max_dev_se_units <= 4.0
    assert report.projection_distance <= 1e-10
    assert report.probs.size == report.mc_boundary.size == report.std_errors.size
    d = report.to_dict()
    assert d["ok"] and isinstance(d["probs"], list)


@pytest.mark.parametrize("model", ["bachelier", "black_scholes"])
def test_proposition_pipeline_against_brute_force(model):
    # boundary by the brute-force min over strikes, standard errors from the
    # payoffs at its argmin strikes
    cfg = SimConfig(model, 1.0, 20_000, seed=5)
    sample = simulate_terminal(cfg)
    kgrid = np.linspace(sample.min() - 0.1, sample.max() + 0.1, 301)
    report = mc_check_propositions(cfg, kgrid=kgrid)
    raw = empirical_call_curve(sample, kgrid)
    projected, _ = project_convex_decreasing(kgrid, raw.values)
    objective = projected[None, :] + report.probs[:, None] * kgrid[None, :]
    assert np.array_equal(report.mc_boundary, objective.min(axis=1))
    payoffs = np.maximum(sample[None, :] - kgrid[objective.argmin(axis=1)][:, None], 0.0)
    ses = np.std(payoffs, axis=1) / math.sqrt(sample.size)
    assert np.allclose(report.std_errors, ses, rtol=1e-9, atol=0.0)


def test_proposition_pipeline_degenerate_time():
    report = mc_check_propositions(SimConfig("black_scholes", 0.0, 100, seed=1))
    assert report.ok and report.max_dev_se_units == 0.0
    # at t = 0, X = 1 a.s. and the boundary is the identity
    assert np.array_equal(report.mc_boundary, report.probs)


def test_proposition_pgrid_validation():
    cfg = SimConfig("bachelier", 1.0, 1000, seed=1)
    with pytest.raises(DomainError):
        mc_check_propositions(cfg, pgrid=np.array([0.0, 0.5]))
    with pytest.raises(DomainError):
        mc_check_propositions(cfg, pgrid=np.array([0.5, 1.0]))
