"""Monte Carlo oracle for the two benchmark models.

Samples are generated by a counter-based generator: path i draws its uniform
from a 64-bit mix of (seed, i) alone, so parallel and serial runs produce
bit-identical vectors for any worker count (workers write disjoint slices
computed purely from path indices).  Normals come from the inverse CDF, which
keeps antithetic pairs perfectly mirrored.

``mc_check_propositions`` drives the whole pipeline: empirical call curve on
a strike grid (exact, via sorted suffix sums), convex projection, Legendre
transform to the zonoid boundary, and comparison in standard-error units
against ``exact_boundary``.  The two models are the gaussian members of the
peacock families with time change sqrt(t): bachelier (X = W_t) is the linear
family at s = 0, boundary sqrt(t) phi(Phi^{-1}(p)), and black_scholes
(X = exp(W_t - t/2)) the geometric family at s = 1, boundary
Phi(Phi^{-1}(p) + sqrt(t)); ``peacocks.surface_boundary`` evaluates both.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import special

from .densities import DensityModel
from .errors import DomainError, ValidationError
from .numerics import as_float_array, jsonable, legendre_min
from .peacocks import PeacockSpec, TimeChange, surface_boundary
from .pricing import MODEL_FAMILIES
from .zonoid import CallCurve, project_convex_decreasing

_MODELS = tuple(MODEL_FAMILIES)
_U64 = np.uint64
_GAMMA = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_PARALLEL_CUTOFF = 200_000


@dataclass(frozen=True)
class SimConfig:
    """Terminal-sample request: which model, maturity, paths, seed."""

    model: str
    t: float
    n_paths: int
    seed: int
    antithetic: bool = False

    def __post_init__(self):
        if self.model not in _MODELS:
            raise ValidationError(f"model must be one of {_MODELS}, got {self.model!r}")
        if not (np.isfinite(self.t) and self.t >= 0.0):
            raise ValidationError("t must be non-negative")
        if self.n_paths < 2:
            raise ValidationError("n_paths must be at least 2")
        if self.antithetic and self.n_paths % 2 != 0:
            raise ValidationError("antithetic sampling needs an even n_paths")


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float
    n: int

    def __post_init__(self):
        if self.std_error < 0.0:
            raise ValidationError("std_error must be non-negative")


def _mix64(x: np.ndarray) -> np.ndarray:
    z = x.copy()
    z ^= z >> _U64(30)
    z *= _MIX1
    z ^= z >> _U64(27)
    z *= _MIX2
    z ^= z >> _U64(31)
    return z


def _uniforms(seed: int, lo: int, hi: int) -> np.ndarray:
    """Uniforms in (0, 1) for counter indices [lo, hi), independent of how
    the index range is partitioned across calls."""
    idx = np.arange(lo, hi, dtype=np.uint64)
    counters = (_U64(seed & 0xFFFFFFFFFFFFFFFF) + (idx + _U64(1)) * _GAMMA)
    bits = _mix64(counters) >> _U64(11)
    return (bits.astype(np.float64) + 0.5) * (2.0 ** -53)


def _normals(config: SimConfig, lo: int, hi: int) -> np.ndarray:
    """Standard normals for path indices [lo, hi); antithetic pairs are
    interleaved as (z, -z) and share one counter per pair."""
    if not config.antithetic:
        return special.ndtri(_uniforms(config.seed, lo, hi))
    pair_lo, pair_hi = lo // 2, (hi + 1) // 2
    base = special.ndtri(_uniforms(config.seed, pair_lo, pair_hi))
    z = np.empty(2 * (pair_hi - pair_lo))
    z[0::2] = base
    z[1::2] = -base
    return z[lo - 2 * pair_lo: hi - 2 * pair_lo]


def _worker_count(n: int) -> int:
    env = os.environ.get("ZONOID_LAB_THREADS", "")
    try:
        cap = int(env) if env else (os.cpu_count() or 1)
    except ValueError:
        cap = os.cpu_count() or 1
    cap = max(1, cap)
    return max(1, min(cap, n // _PARALLEL_CUTOFF + 1))


def simulate_terminal(config: SimConfig) -> np.ndarray:
    """n_paths terminal values: W_t (bachelier) or exp(W_t - t/2)
    (black_scholes); bit-identical for a given (model, t, seed, antithetic)
    regardless of worker count."""
    n = config.n_paths
    out = np.empty(n)
    sqrt_t = math.sqrt(config.t)

    def fill(lo: int, hi: int) -> None:
        w = sqrt_t * _normals(config, lo, hi)
        if config.model == "bachelier":
            out[lo:hi] = w
        else:
            out[lo:hi] = np.exp(w - 0.5 * config.t)

    workers = _worker_count(n)
    # slice at even offsets so antithetic pairs never straddle workers
    step = 2 * ((n // workers) // 2 + 1)
    bounds = list(range(0, n, step)) + [n]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(fill, bounds[:-1], bounds[1:]))  # re-raises a worker's error
    return out


def _estimate(payoffs: np.ndarray, antithetic: bool) -> Tuple[float, float, int]:
    """Mean, standard error and path count, of the payoffs or, under
    antithetic sampling, of their pair means."""
    v = 0.5 * (payoffs[0::2] + payoffs[1::2]) if antithetic else payoffs
    return float(np.sum(v) / v.size), float(np.std(v, ddof=1) / math.sqrt(v.size)), payoffs.size


def mc_call(config: SimConfig, k: float) -> McEstimate:
    """Sample mean and standard error of (X_t - K)^+ (pair means under
    antithetic sampling)."""
    if not np.isfinite(k):
        raise DomainError("strike must be finite")
    sample = simulate_terminal(config)
    payoffs = np.maximum(sample - k, 0.0)
    value, se, n = _estimate(payoffs, config.antithetic)
    return McEstimate(value, se, n)


# ---------------------------------------------------------------------------
# Empirical curves and the closed-form comparison pipeline
# ---------------------------------------------------------------------------

def _suffix_sums(v: np.ndarray) -> np.ndarray:
    """suffix[i] = sum(v[i:]), with a trailing 0."""
    return np.concatenate((np.cumsum(v[::-1])[::-1], [0.0]))


def _sorted_call_curve(x_sorted: np.ndarray, suffix1: np.ndarray, kgrid: np.ndarray) -> CallCurve:
    """Empirical call curve from the sorted sample and its suffix sums."""
    n = x_sorted.size
    idx = np.searchsorted(x_sorted, kgrid, side="right")
    vals = (suffix1[idx] - (n - idx) * kgrid) / n
    return CallCurve.from_grid(kgrid, vals, mean=float(np.sum(x_sorted) / n),
                               positive=bool(x_sorted[0] > 0.0),
                               provenance={"kind": "empirical", "n": int(n)})


def empirical_call_curve(sample: np.ndarray, kgrid) -> CallCurve:
    """Exact empirical call values (1/n) sum (x_i - K)^+ at each grid strike,
    computed from sorted suffix sums."""
    sample = as_float_array(sample, "sample")
    kgrid = as_float_array(kgrid, "kgrid")
    if sample.ndim != 1 or sample.size < 2:
        raise ValidationError("sample must be a 1-d array with >= 2 points")
    x = np.sort(sample)
    return _sorted_call_curve(x, _suffix_sums(x), kgrid)


def _payoff_se_at(x_sorted: np.ndarray, suffix1: np.ndarray, suffix2: np.ndarray,
                  k: np.ndarray) -> np.ndarray:
    """Standard error of the mean call payoff at each strike, from suffix
    sums of the sorted sample and its squares."""
    n = x_sorted.size
    idx = np.searchsorted(x_sorted, k, side="right")
    cnt = n - idx
    m1 = (suffix1[idx] - k * cnt) / n
    m2 = (suffix2[idx] - 2.0 * k * suffix1[idx] + k * k * cnt) / n
    var = np.maximum(m2 - m1 * m1, 0.0)
    return np.sqrt(var / n)


@dataclass(frozen=True)
class McPropositionReport:
    """Empirical-vs-closed-form boundary comparison in standard-error units."""

    model: str
    t: float
    n_paths: int
    probs: np.ndarray
    mc_boundary: np.ndarray
    exact_boundary: np.ndarray
    std_errors: np.ndarray
    max_dev_se_units: float
    projection_distance: float
    ok: bool

    def to_dict(self) -> dict:
        return jsonable(self)


def exact_boundary(model: str, t: float, p):
    """Closed-form boundary of the benchmark models: the gaussian family's
    ``surface_boundary`` with time change sqrt(t), linear at s = 0 for
    bachelier and geometric at s = 1 for black_scholes."""
    if model not in _MODELS:
        raise DomainError(f"model must be one of {_MODELS}")
    kind = MODEL_FAMILIES[model]
    spec = PeacockSpec(kind, DensityModel.gaussian(), 0.0 if kind == "linear" else 1.0,
                       TimeChange.sqrt())
    return surface_boundary(spec, t, p)


def _default_kgrid(config: SimConfig, sample: np.ndarray) -> np.ndarray:
    lo = float(np.min(sample))
    hi = float(np.max(sample))
    if config.model == "bachelier":
        pad = 0.05 * max(hi - lo, 1e-6)
        return np.linspace(lo - pad, hi + pad, 1501)
    return np.geomspace(max(lo * 0.9, 1e-9), hi * 1.1, 1501)


def mc_check_propositions(config: SimConfig, pgrid=None,
                          kgrid=None) -> McPropositionReport:
    """End-to-end pipeline check: simulate, build the empirical call curve,
    project it onto the convex cone, Legendre-transform to the boundary, and
    compare with the closed form at each grid p in standard-error units.

    The per-p standard error is that of the call estimate at the optimal
    strike (the transform's argmin); under antithetic sampling this plain
    estimate is conservative.
    """
    if pgrid is None:
        pgrid = np.linspace(0.01, 0.99, 99)
    pgrid = as_float_array(pgrid, "pgrid")
    if np.any(pgrid <= 0.0) or np.any(pgrid >= 1.0):
        raise DomainError("pgrid must lie strictly inside (0, 1)")
    sample = simulate_terminal(config)
    exact = exact_boundary(config.model, config.t, pgrid)
    if config.t == 0.0:
        zero = np.zeros(pgrid.size)
        mc_vals = (0.0 if config.model == "bachelier" else 1.0) * pgrid
        dev = np.max(np.abs(mc_vals - exact))
        return McPropositionReport(config.model, 0.0, config.n_paths, pgrid,
                                   mc_vals, exact, zero,
                                   float(dev), 0.0, bool(dev == 0.0))
    if kgrid is None:
        kgrid = _default_kgrid(config, sample)
    kgrid = as_float_array(kgrid, "kgrid")
    x_sorted = np.sort(sample)
    suffix1 = _suffix_sums(x_sorted)
    raw = _sorted_call_curve(x_sorted, suffix1, kgrid)
    projected, distance = project_convex_decreasing(kgrid, raw.values)
    CallCurve.from_grid(kgrid, projected, mean=raw.mean).validate()
    # the transform's values, and its argmin strikes for the standard errors
    mc_vals, amin = legendre_min(kgrid, projected, pgrid)
    ses = _payoff_se_at(x_sorted, suffix1, _suffix_sums(x_sorted ** 2), kgrid[amin])
    dev_units = np.abs(mc_vals - exact) / np.maximum(ses, 1e-300)
    max_dev = float(np.max(dev_units))
    return McPropositionReport(config.model, config.t, config.n_paths, pgrid,
                               mc_vals, exact, ses, max_dev, float(distance),
                               bool(max_dev <= 4.0))
