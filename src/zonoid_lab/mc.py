"""Monte Carlo oracle for the two benchmark models.

Samples are generated by a counter-based generator: path i draws its uniform
from a 64-bit mix of (seed, i) alone.  Normals come from the inverse CDF,
which keeps antithetic pairs perfectly mirrored.  Paths are cut by index
into fixed blocks of 2^17 (never by worker count), and each block is
simulated and reduced at once in a pool of min(cap, blocks) threads, the cap
being ``ZONOID_LAB_THREADS`` or the CPU count.  Block results are combined
in block order, so samples and every report built from them are
bit-identical for any worker count.

``mc_check_propositions`` drives the whole pipeline: each block is sorted
and reduced to its count, sum and sum of squares above each strike, which
give the exact empirical call curve and the standard errors; then convex
projection, Legendre transform to the zonoid boundary, and comparison in
standard-error units against ``exact_boundary``.  ``mc_call`` reduces each
block to the (count, mean, M2) of its payoffs and merges them.  The two
models are the gaussian members of the peacock families with time change
sqrt(t): bachelier (X = W_t) is the linear family at s = 0, boundary
sqrt(t) phi(Phi^{-1}(p)), and black_scholes (X = exp(W_t - t/2)) the
geometric family at s = 1, boundary Phi(Phi^{-1}(p) + sqrt(t));
``peacocks.surface_boundary`` evaluates both.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Tuple, TypeVar

import numpy as np
from scipy import special

from .densities import DensityModel
from .errors import DomainError, ValidationError
from .numerics import as_float_array, increasing_grid, jsonable, legendre_min, real_scalar
from .peacocks import PeacockSpec, TimeChange, surface_boundary
from .pricing import MODEL_FAMILIES
from .zonoid import CallCurve, project_convex_decreasing

_T = TypeVar("_T")
_MODELS = tuple(MODEL_FAMILIES)
_U64 = np.uint64
_GAMMA = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_BLOCK = 1 << 17  # paths per block; even, so antithetic pairs never straddle two


@dataclass(frozen=True)
class SimConfig:
    """Terminal-sample request: which model, maturity, paths, seed.
    ``n_paths`` and ``seed`` must be integers (Python or numpy, not bool)."""

    model: str
    t: float
    n_paths: int
    seed: int
    antithetic: bool = False

    def __post_init__(self):
        if self.model not in _MODELS:
            raise ValidationError(f"model must be one of {_MODELS}, got {self.model!r}")
        if real_scalar(self.t, "t", ValidationError) < 0.0:
            raise ValidationError("t must be non-negative")
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                   for v in (self.n_paths, self.seed)):
            raise ValidationError(f"n_paths and seed must be integers, got "
                                  f"{self.n_paths!r} and {self.seed!r}")
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


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser, in place."""
    t = np.empty_like(z)
    for shift, mul in ((30, _MIX1), (27, _MIX2), (31, None)):
        np.right_shift(z, _U64(shift), out=t)
        z ^= t
        if mul is not None:
            z *= mul
    return z


def _uniforms(seed: int, lo: int, hi: int) -> np.ndarray:
    """Uniforms in (0, 1) for counter indices [lo, hi), independent of how
    the index range is partitioned across calls."""
    counters = np.arange(lo + 1, hi + 1, dtype=np.uint64)
    counters *= _GAMMA
    counters += _U64(int(seed) & 0xFFFFFFFFFFFFFFFF)
    bits = _mix64(counters)
    bits >>= _U64(11)
    u = bits.astype(np.float64)
    u += 0.5
    u *= 2.0 ** -53
    return u


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
    """Threads for n paths: the cap (``ZONOID_LAB_THREADS``, else the CPU
    count), but no more than there are blocks."""
    env = os.environ.get("ZONOID_LAB_THREADS", "")
    try:
        cap = int(env) if env else (os.cpu_count() or 1)
    except ValueError:
        cap = os.cpu_count() or 1
    return max(1, min(cap, -(-n // _BLOCK)))


def _block_map(fn: Callable[[int, int], _T], n: int) -> List[_T]:
    """fn(lo, hi) on each fixed block [lo, hi) of the index range [0, n),
    run in the worker pool; the results come back in block order."""
    los = range(0, n, _BLOCK)
    with ThreadPoolExecutor(max_workers=_worker_count(n)) as pool:
        # list() re-raises a worker's error
        return list(pool.map(fn, los, [min(lo + _BLOCK, n) for lo in los]))


def _terminal(config: SimConfig, lo: int, hi: int) -> np.ndarray:
    """Terminal values of the paths [lo, hi)."""
    w = _normals(config, lo, hi)
    w *= math.sqrt(config.t)
    if config.model == "bachelier":
        return w
    w -= 0.5 * config.t
    return np.exp(w, out=w)


def simulate_terminal(config: SimConfig) -> np.ndarray:
    """n_paths terminal values: W_t (bachelier) or exp(W_t - t/2)
    (black_scholes); bit-identical for a given (model, t, seed, antithetic)
    regardless of worker count."""
    out = np.empty(config.n_paths)

    def fill(lo: int, hi: int) -> None:
        out[lo:hi] = _terminal(config, lo, hi)

    _block_map(fill, config.n_paths)
    return out


def _moments(v: np.ndarray) -> Tuple[int, np.float64, np.float64]:
    """(count, mean, M2) of v by the two-pass formulas of ``np.std``."""
    mean = np.sum(v) / v.size
    d = v - mean
    d *= d
    return v.size, mean, np.sum(d)


def _merge(a: tuple, b: tuple) -> tuple:
    """The (count, mean, M2) of two samples joined, from each one's
    (Chan, Golub and LeVeque 1983); the means and M2s may be arrays."""
    (na, ma, qa), (nb, mb, qb) = a, b
    n = na + nb
    delta = mb - ma
    return n, ma + delta * (nb / n), qa + qb + delta * delta * (na * nb / n)


def _call_estimates(config: SimConfig, strikes) -> Tuple[np.ndarray, np.ndarray]:
    """Sample means and standard errors of (X_t - K)^+ at each strike, of the
    payoffs or, under antithetic sampling, of their pair means.  Each block
    reduces to (count, mean, M2) per strike, merged in block order."""
    def payoffs(x: np.ndarray, k: float) -> np.ndarray:
        p = x - k
        np.maximum(p, 0.0, out=p)
        return 0.5 * (p[0::2] + p[1::2]) if config.antithetic else p

    def reduce(lo: int, hi: int) -> tuple:
        x = _terminal(config, lo, hi)
        counts, means, m2s = zip(*(_moments(payoffs(x, k)) for k in strikes))
        return counts[0], np.array(means), np.array(m2s)

    n, mean, m2 = functools.reduce(_merge, _block_map(reduce, config.n_paths))
    return mean, np.sqrt(m2 / (n - 1)) / math.sqrt(n)


def mc_call(config: SimConfig, k: float) -> McEstimate:
    """Sample mean and standard error of (X_t - K)^+ (pair means under
    antithetic sampling)."""
    value, se = _call_estimates(config, [real_scalar(k, "strike")])
    return McEstimate(float(value[0]), float(se[0]), config.n_paths)


# ---------------------------------------------------------------------------
# Empirical curves and the closed-form comparison pipeline
# ---------------------------------------------------------------------------

def _strike_sums(x: np.ndarray, kgrid: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Count, sum and sum of squares of the sorted block x's values above
    each strike of the increasing ``kgrid``: sums over the segments between
    strikes, accumulated from the top."""
    idx = np.searchsorted(x, kgrid, side="right")
    xz = np.append(x, 0.0)  # a segment starting at x.size sums to 0
    # reduceat reads one value, not 0, for a segment that starts where the next one does
    empty = np.append(idx[:-1] == idx[1:], False)

    def above(v: np.ndarray) -> np.ndarray:
        return np.cumsum(np.where(empty, 0.0, np.add.reduceat(v, idx))[::-1])[::-1]

    return x.size - idx, above(xz), above(xz * xz)


def _blockwise_curve(blocks: List[np.ndarray], kgrid: np.ndarray):
    """Empirical call curve from the sorted blocks of a sample, and its
    count, sum and sum of squares above each strike, accumulated in block
    order."""
    n = sum(x.size for x in blocks)
    sums = _block_map(lambda lo, hi: _strike_sums(blocks[lo // _BLOCK], kgrid), n)
    cnt, s1, s2 = functools.reduce(lambda a, b: tuple(u + v for u, v in zip(a, b)), sums)
    curve = CallCurve.from_grid(kgrid, (s1 - cnt * kgrid) / n,
                                mean=float(sum(np.sum(x) for x in blocks) / n),
                                positive=bool(min(x[0] for x in blocks) > 0.0),
                                provenance={"kind": "empirical", "n": int(n)})
    return curve, (cnt, s1, s2)


def empirical_call_curve(sample: np.ndarray, kgrid) -> CallCurve:
    """Exact empirical call values (1/n) sum (x_i - K)^+ at each strike of
    the increasing ``kgrid``, summed over fixed blocks of the sample, each
    sorted on its own."""
    sample = as_float_array(sample, "sample")
    kgrid = increasing_grid(kgrid, "kgrid")
    if sample.ndim != 1 or sample.size < 2:
        raise ValidationError("sample must be a 1-d array with >= 2 points")
    blocks = _block_map(lambda lo, hi: np.sort(sample[lo:hi]), sample.size)
    return _blockwise_curve(blocks, kgrid)[0]


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


def _default_kgrid(config: SimConfig, blocks: List[np.ndarray]) -> np.ndarray:
    """1501 strikes spanning the sample, read off the sorted blocks' ends."""
    lo = float(min(x[0] for x in blocks))
    hi = float(max(x[-1] for x in blocks))
    if config.model == "bachelier":
        pad = 0.05 * max(hi - lo, 1e-6)
        return np.linspace(lo - pad, hi + pad, 1501)
    return np.geomspace(max(lo * 0.9, 1e-9), hi * 1.1, 1501)


def mc_check_propositions(config: SimConfig, pgrid=None,
                          kgrid=None) -> McPropositionReport:
    """End-to-end pipeline check: simulate and sort each block of paths,
    build the empirical call curve from the blocks' sums above each strike,
    project it onto the convex cone, Legendre-transform to the boundary, and
    compare with the closed form at each grid p in standard-error units.

    ``pgrid`` must pass ``numerics.increasing_grid`` (1-d, strictly
    increasing, at least one point: ValidationError otherwise) and lie in
    (0, 1) (DomainError).  The default strike grid spans the sample.  The
    per-p standard error is that of the call estimate at the optimal strike
    (the transform's argmin); under antithetic sampling this plain estimate
    is conservative.  The report is bit-identical for any worker count.
    """
    if pgrid is None:
        pgrid = np.linspace(0.01, 0.99, 99)
    pgrid = increasing_grid(pgrid, "pgrid", min_size=1)
    if pgrid[0] <= 0.0 or pgrid[-1] >= 1.0:
        raise DomainError("pgrid must lie strictly inside (0, 1)")
    exact = exact_boundary(config.model, config.t, pgrid)
    if config.t == 0.0:
        zero = np.zeros(pgrid.size)
        mc_vals = (0.0 if config.model == "bachelier" else 1.0) * pgrid
        dev = np.max(np.abs(mc_vals - exact))
        return McPropositionReport(config.model, 0.0, config.n_paths, pgrid,
                                   mc_vals, exact, zero,
                                   float(dev), 0.0, bool(dev == 0.0))
    blocks = _block_map(lambda lo, hi: np.sort(_terminal(config, lo, hi)), config.n_paths)
    if kgrid is None:
        kgrid = _default_kgrid(config, blocks)
    kgrid = increasing_grid(kgrid, "kgrid")
    raw, (cnt, s1, s2) = _blockwise_curve(blocks, kgrid)
    projected, distance = project_convex_decreasing(kgrid, raw.values)
    CallCurve.from_grid(kgrid, projected, mean=raw.mean).validate()
    # the transform's values, and its argmin strikes for the standard errors
    mc_vals, amin = legendre_min(kgrid, projected, pgrid)
    n, k, cnt, s1, s2 = config.n_paths, kgrid[amin], cnt[amin], s1[amin], s2[amin]
    m1 = (s1 - k * cnt) / n
    m2 = (s2 - 2.0 * k * s1 + k * k * cnt) / n
    ses = np.sqrt(np.maximum(m2 - m1 * m1, 0.0) / n)
    dev_units = np.abs(mc_vals - exact) / np.maximum(ses, 1e-300)
    max_dev = float(np.max(dev_units))
    return McPropositionReport(config.model, config.t, config.n_paths, pgrid,
                               mc_vals, exact, ses, max_dev, float(distance),
                               bool(max_dev <= 4.0))
