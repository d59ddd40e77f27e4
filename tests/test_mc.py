"""Monte Carlo oracle tests: determinism, antithetic variance reduction,
agreement with closed forms, and the end-to-end pipeline check.  Paths are
reduced in fixed blocks of ``mc._BLOCK``; the block-pipeline tests run on at
least three blocks, where the merge of per-block results is exercised.

Frozen references: bachelier C(0; t=1) = phi(0) = 0.3989422804014327 and
black-scholes C(1; sigma=t=1) = 0.38292492254802624 (scipy.stats.norm).
"""

import hashlib
import math
import os

import numpy as np
import pytest

from zonoid_lab import mc
from zonoid_lab.cli import main
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


# sha256 of the float64 bytes of two samples, first and last value, frozen
# from the per-block streams: block b of a sample draws numpy's ziggurat
# normals from SFC64 keyed by SeedSequence(seed mod 2^64, spawn_key=(b,)),
# one normal per antithetic pair
FROZEN_SAMPLES = [
    (SimConfig("black_scholes", 0.9, 300_000, 2 ** 62 + 5, antithetic=True),
     "cc8e33c0d3fe96968ed9868565c59766fc3056531470de0da39b4fcc082e4d02",
     0.4831229923842011, 1.8563785406995181),
    (SimConfig("bachelier", 1.7, 300_001, -3),
     "f966a4564d4dc8ec2a1ca14ae700adf1e78b4de13288424d7f46cd8bd21a3da2",
     0.43106987928341167, -0.6175500381870186),
]


@pytest.mark.parametrize("cfg, digest, first, last", FROZEN_SAMPLES)
def test_samples_match_frozen_digests(cfg, digest, first, last):
    x = simulate_terminal(cfg)
    assert (x[0], x[-1]) == (first, last)
    assert hashlib.sha256(x.tobytes()).hexdigest() == digest


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


# ---------------------------------------------------------------------------
# The block pipeline: fixed blocks of paths, merged in block order
# ---------------------------------------------------------------------------

N_BLOCKS3 = 3 * mc._BLOCK + 2_000  # three full blocks and a short fourth


def _cli_prices(capsys, *flags):
    assert main(["simulate", "--model", "black_scholes", "--t", "0.8", "--n", str(N_BLOCKS3),
                 "--seed", "4", "--k-grid=0.5:1.5:5", *flags]) == 0
    return capsys.readouterr().out


def test_reports_are_identical_for_any_worker_count(monkeypatch, capsys):
    check = SimConfig("bachelier", 1.3, N_BLOCKS3, seed=8, antithetic=True)
    plain = SimConfig("black_scholes", 0.6, N_BLOCKS3, seed=9)
    anti = SimConfig("black_scholes", 0.6, N_BLOCKS3, seed=9, antithetic=True)
    runs = []
    for workers in ("1", "2", "8"):
        monkeypatch.setenv("ZONOID_LAB_THREADS", workers)
        assert mc._worker_count(N_BLOCKS3) == min(int(workers), 4)
        runs.append((mc_check_propositions(check).to_dict(), mc_call(plain, 1.1),
                     mc_call(anti, 0.9), _cli_prices(capsys), _cli_prices(capsys, "--antithetic")))
    # McEstimate and the report dicts hold floats and lists: == is bit-identity
    assert runs[0] == runs[1] == runs[2]


def test_worker_count_is_capped_by_the_blocks(monkeypatch):
    monkeypatch.setenv("ZONOID_LAB_THREADS", "8")
    sizes = (2, mc._BLOCK, mc._BLOCK + 1, 20 * mc._BLOCK)
    assert [mc._worker_count(n) for n in sizes] == [1, 1, 2, 8]
    monkeypatch.setenv("ZONOID_LAB_THREADS", "0")
    assert mc._worker_count(20 * mc._BLOCK) == 1


@pytest.mark.parametrize("model", ["bachelier", "black_scholes"])
def test_blockwise_curve_against_brute_force(model):
    sample = simulate_terminal(SimConfig(model, 1.0, N_BLOCKS3, seed=13))
    kgrid = np.linspace(sample.min() - 0.1, sample.max() + 0.1, 41)
    curve = empirical_call_curve(sample, kgrid)
    direct = np.array([np.mean(np.maximum(sample - k, 0.0)) for k in kgrid])
    assert np.array_equal(curve.values == 0.0, direct == 0.0)
    assert np.allclose(curve.values, direct, rtol=1e-12, atol=0.0)
    assert curve.mean == pytest.approx(float(np.mean(sample)), rel=1e-12)
    # the same sample in another order has the same curve, up to rounding
    shuffled = empirical_call_curve(sample[::-1], kgrid)
    assert np.allclose(shuffled.values, curve.values, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("n", [N_BLOCKS3, 4_000])
def test_mc_call_against_brute_force(antithetic, n):
    cfg = SimConfig("black_scholes", 1.2, n, seed=6, antithetic=antithetic)
    payoffs = np.maximum(simulate_terminal(cfg) - 1.05, 0.0)
    v = 0.5 * (payoffs[0::2] + payoffs[1::2]) if antithetic else payoffs
    est = mc_call(cfg, 1.05)
    value, se = np.mean(v), np.std(v, ddof=1) / math.sqrt(v.size)
    assert est.n == n
    if n <= mc._BLOCK:  # one block reduces by the plain formulas, bit for bit
        assert (est.value, est.std_error) == (value, se)
    assert est.value == pytest.approx(value, rel=1e-12, abs=0.0)
    assert est.std_error == pytest.approx(se, rel=1e-12, abs=0.0)


def test_sim_config_needs_integer_paths_and_seed():
    # float paths and seeds are rows of the typed-error table in test_checks.py
    for n_paths, seed in ((True, 1), (1000, "7"), (1000, None), (1000, 1.5)):
        with pytest.raises(ValidationError):
            SimConfig("bachelier", 1.0, n_paths, seed)
    a = simulate_terminal(SimConfig("bachelier", 1.0, np.int64(1000), np.int64(2 ** 62)))
    assert np.array_equal(a, simulate_terminal(SimConfig("bachelier", 1.0, 1000, 2 ** 62)))


def test_stream_is_a_prefix_keyed_by_seed_mod_2_64_and_mirrors_exactly():
    # 300,002 paths span three blocks, 200,000 end inside the second
    for antithetic in (False, True):
        long = simulate_terminal(SimConfig("bachelier", 1.0, 300_002, 17, antithetic=antithetic))
        short = simulate_terminal(SimConfig("bachelier", 1.0, 200_000, 17, antithetic=antithetic))
        assert np.array_equal(long[:200_000], short)
    assert np.array_equal(long[1::2], -long[0::2])  # across block boundaries too
    assert np.array_equal(simulate_terminal(SimConfig("bachelier", 1.0, 300_002, -3)),
                          simulate_terminal(SimConfig("bachelier", 1.0, 300_002, 2 ** 64 - 3)))


def test_proposition_pgrid_is_an_increasing_grid():
    # 0-d, empty, 2-d and decreasing pgrids are rows of the typed-error
    # table in test_checks.py
    cfg = SimConfig("bachelier", 1.0, 1000, seed=1)
    with pytest.raises(ValidationError):
        mc_check_propositions(cfg, pgrid=np.array([0.5, 0.5]))
    one = mc_check_propositions(cfg, pgrid=[0.5])
    assert one.probs.shape == (1,) and one.mc_boundary.shape == (1,)
