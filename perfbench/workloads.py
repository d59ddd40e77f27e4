"""Seeded operation lists for the four benchmark workloads.

Each workload repeats a *cycle*: a fixed list of operation kinds and input
sizes whose parameters (levels, means, noise, atoms, Monte Carlo seeds) are
drawn afresh for every cycle from ``(seed, cycle index)``.  The cost profile
of a cycle therefore does not depend on the seed, and the same seed gives
the same operations.  Each mix is balanced so that the median and the 90th
percentile of its latencies fall inside a group of operations of one kind
and size, not in a gap between groups, where run-to-run noise would move
them most.

Every operation carries a check against an independent route, computed
outside the timed region when the cycle is built:

* finite-atom laws against the greedy threshold-rule boundary at 1e-12;
* closed forms written out in this file at 1e-6;
* round trips of grid curves against the exact conjugate of the greedy
  boundary on the same p grid at 1e-12; round trips of closed-form curves
  at 1e-4, scaled by max(1, |mean|) as the library scales values;
* ``custom`` densities against their built-in twin at 1e-8;
* implied levels against the level that generated the price at 1e-6, the
  two routes against each other at 1e-5, and the vega integral at 1e-8;
* Monte Carlo reports recomputed from their own fields (closed form, SE
  units, ``ok`` flag); Monte Carlo results within 6 standard errors of the
  closed form, with 4-standard-error misses tallied over the run (see
  ``StatisticalMiss``);
* CLI exit codes, and parsed CLI outputs against library values.

Library functions are always looked up through their module at call time
(``zonoid.upper_boundary_from_calls``), so the traced run sees them wrapped.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np
from scipy import special

from zonoid_lab import (cli, densities, implied, localvol, mc, peacocks,
                        pricing, zonoid)

P2001 = np.linspace(0.0, 1.0, 2001)
T16 = np.linspace(0.25, 4.0, 16)


class CheckError(Exception):
    """An operation's answer disagrees with its independent route."""


MISS_SE = 4.0   # the library's own ``ok`` threshold
FAIL_SE = 6.0   # a correct program exceeds this about once in 1e8 checks


class StatisticalMiss(Exception):
    """A Monte Carlo answer lies between 4 and 6 standard errors of the
    closed form.  A correct program does this now and then (about 6e-4 of
    ``mc_check_propositions`` reports), so the operation does not fail; the
    run counts these misses and is incorrect only when there are more of
    them than chance allows."""


def within_se(what, dev_se):
    """Fail beyond FAIL_SE standard errors; report a miss beyond MISS_SE."""
    if not dev_se <= FAIL_SE:
        raise CheckError(f"{what} off by {dev_se:.3f} SE (> {FAIL_SE:g})")
    if not dev_se <= MISS_SE:
        raise StatisticalMiss(f"{what} off by {dev_se:.3f} SE (> {MISS_SE:g})")


def mc_exact_boundary(model, t, p):
    """sqrt(t) phi(Phi^{-1}(p)) for bachelier, Phi(Phi^{-1}(p) + sqrt(t))
    for black_scholes, on interior p."""
    q = special.ndtri(np.asarray(p, dtype=np.float64))
    if model == "bachelier":
        return math.sqrt(t) * _phi(q)
    return special.ndtr(q + math.sqrt(t))


def check_mc_report(what, report, model, t):
    """Recompute a report's closed form, SE units and ``ok`` from its own
    fields (``McPropositionReport.to_dict`` keys), then hold its deviation
    to FAIL_SE (a miss beyond MISS_SE)."""
    p, mc_vals, ses = (np.asarray(report[k], dtype=np.float64)
                       for k in ("probs", "mc_boundary", "std_errors"))
    exact = mc_exact_boundary(model, t, p)
    close(f"{what} exact boundary vs closed form", report["exact_boundary"], exact, 1e-12)
    expect(np.all(np.isfinite(mc_vals)) and np.all(ses > 0.0),
           f"{what}: non-finite boundary or non-positive standard error")
    dev = float(np.max(np.abs(mc_vals - exact) / ses))
    max_dev = float(report["max_dev_se_units"])
    expect(abs(max_dev - dev) <= 1e-9 * max(1.0, dev),
           f"{what}: max_dev_se_units {max_dev!r} != recomputed {dev!r}")
    expect(report["ok"] == (max_dev <= MISS_SE), f"{what}: ok flag disagrees with {max_dev!r}")
    within_se(what, max_dev)


@dataclass
class Op:
    kind: str
    desc: str
    run: Callable[[], object]
    check: Callable[[object], None]
    inproc: Optional[Callable[[], object]] = None  # cli-batch: same argv, in-process
    statistical: bool = False  # Monte Carlo: may raise StatisticalMiss


def close(what, got, want, tol):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        raise CheckError(f"{what}: shape {got.shape} != {want.shape}")
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not err <= tol:
        raise CheckError(f"{what}: max error {err:.3g} > {tol:g}")


def expect(cond, what):
    if not cond:
        raise CheckError(what)


# ---------------------------------------------------------------------------
# Closed forms used as references
# ---------------------------------------------------------------------------

def _phi(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def linear_call(dens, s, y, k):
    """Call price and survival of the linear family: N(s, y^2) for the
    gaussian, uniform on [s - y, s + y] for the logistic."""
    k = np.asarray(k, dtype=np.float64)
    if dens == "gaussian":
        d = (s - k) / y
        return y * _phi(d) + (s - k) * special.ndtr(d), special.ndtr(d)
    inside = np.clip(k, s - y, s + y)
    call = (s + y - inside) ** 2 / (4.0 * y) + np.maximum(inside - k, 0.0)
    return call, (s + y - inside) / (2.0 * y)


def geometric_call(dens, s, y, k):
    """Call price and survival of the geometric family: lognormal for the
    gaussian; for the logistic, u = exp(-V) solves f(V + y)/f(V) = K/s in
    closed form."""
    k = np.asarray(k, dtype=np.float64)
    if dens == "gaussian":
        d1 = np.log(s / k) / y + 0.5 * y
        return s * special.ndtr(d1) - k * special.ndtr(d1 - y), special.ndtr(d1 - y)
    r = np.clip(k / s, math.exp(-y) * (1 + 1e-15), math.exp(y) * (1 - 1e-15))
    q = np.sqrt(r * math.exp(y))
    u = (q - 1.0) / (1.0 - q * math.exp(-y))
    f_v, f_vy = 1.0 / (1.0 + u), 1.0 / (1.0 + u * math.exp(-y))
    call = np.where(k / s <= math.exp(-y), s - k,
                    np.where(k / s >= math.exp(y), 0.0, s * f_vy - k * f_v))
    surv = np.where(k / s <= math.exp(-y), 1.0, np.where(k / s >= math.exp(y), 0.0, f_v))
    return call, surv


def family_boundary(family, dens, s, y, p):
    p = np.asarray(p, dtype=np.float64)
    inner = np.clip(p, 1e-300, 1.0 - 1e-16)
    if family == "linear":
        g = _phi(special.ndtri(inner)) if dens == "gaussian" else p * (1.0 - p)
        out = s * p + y * np.where((p > 0) & (p < 1), g, 0.0)
    elif dens == "gaussian":
        out = s * special.ndtr(special.ndtri(inner) + y)
    else:
        out = s * special.expit(special.logit(inner) + y)
    return np.where(p == 0.0, 0.0, np.where(p == 1.0, s, out))


def family_call(family, dens, s, y, k):
    fn = linear_call if family == "linear" else geometric_call
    return fn(dens, s, y, k)


def _time_change(kind, a):
    return peacocks.TimeChange.sqrt(a) if kind == "sqrt" else peacocks.TimeChange.linear(a)


def _y_and_rate(kind, a, t):
    if kind == "sqrt":
        return a * math.sqrt(t), 0.5 * a / math.sqrt(t)
    return a * t, a


def closed_local_variance(family, dens, tc_kind, a, s, t, k):
    """Linear family: sigma^2; geometric family: sigma^2 / K^2."""
    y, ydot = _y_and_rate(tc_kind, a, t)
    if family == "linear":
        if dens == "gaussian":
            return 2.0 * y * ydot
        w = (k - s) / y
        return y * ydot * (1.0 - w * w)
    if dens == "gaussian":
        return 2.0 * y * ydot
    q = math.sqrt(k / s * math.exp(y))
    v = -math.log((q - 1.0) / (1.0 - q * math.exp(-y)))
    return 2.0 * ydot * (math.tanh(0.5 * (v + y)) - math.tanh(0.5 * v))


# ---------------------------------------------------------------------------
# Finite-atom call curves
# ---------------------------------------------------------------------------

def atom_curve(atoms, weights, pad):
    """Call curve of a finite-atom law on the atoms padded by ``pad`` on both
    sides: exact suffix sums in extended precision, rounded once."""
    strikes = np.concatenate(([atoms[0] - pad], atoms, [atoms[-1] + pad]))
    x, w = atoms.astype(np.longdouble), weights.astype(np.longdouble)
    s0 = np.concatenate((np.cumsum(w[::-1])[::-1], [0.0]))
    s1 = np.concatenate((np.cumsum((w * x)[::-1])[::-1], [0.0]))
    idx = np.searchsorted(atoms, strikes, side="right")
    values = s1[idx] - strikes.astype(np.longdouble) * s0[idx]
    return strikes, values.astype(np.float64), float(s1[0])


def greedy_boundary(atoms, weights, p):
    """The greedy threshold-rule boundary of a finite-atom law (largest atoms
    first, the marginal atom split), in extended precision so that its own
    rounding stays far below the 1e-12 tolerance at 1e5 atoms."""
    x = atoms[::-1].astype(np.longdouble)
    w = weights[::-1].astype(np.longdouble)
    cum_w = np.concatenate(([0.0], np.cumsum(w)))
    cum_xw = np.concatenate(([0.0], np.cumsum(x * w)))
    j = np.clip(np.searchsorted(cum_w, p, side="left"), 1, x.size)
    out = cum_xw[j - 1] + x[j - 1] * (p - cum_w[j - 1])
    return np.where(p == 1.0, cum_xw[-1], out).astype(np.float64)


def grid_conjugate(p, b, atoms, weights, k):
    """max over the p grid of b(p) - p K for a concave b on the grid.  The
    objective is concave in p and peaks at the survival probability
    P(X > K), so only the grid points around it are evaluated."""
    tail = np.concatenate((np.cumsum(weights[::-1])[::-1], [0.0]))
    surv = tail[np.searchsorted(atoms, k, side="right")]
    j = np.searchsorted(p, surv)
    cand = np.clip(j[:, None] + np.arange(-2, 2), 0, p.size - 1)
    return np.max(b[cand] - p[cand] * k[:, None], axis=1)


def law_atoms(law, m, rng):
    """m equal-weight atoms at the cell-midpoint quantiles of a law."""
    u = (np.arange(m) + 0.5) / m
    if law == "bachelier":
        s0, v = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.5)
        return s0 + v * special.ndtri(u), f"bachelier(s0={s0:.17g},v={v:.17g})"
    if law == "black_scholes":
        s0, v = rng.uniform(0.5, 2.0), rng.uniform(0.2, 0.5)
        return (s0 * np.exp(v * special.ndtri(u) - 0.5 * v * v),
                f"black_scholes(s0={s0:.17g},v={v:.17g})")
    # the linear family of the logistic density is uniform on [s - y, s + y]
    s, y = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)
    return s + y * (2.0 * u - 1.0), f"linear-logistic(s={s:.17g},y={y:.17g})"


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""

    def __init__(self, seed, root, tracer=None):
        self.seed = seed
        self.root = root
        self.tracer = tracer

    def rng(self, cycle):
        return np.random.default_rng([self.seed, cycle, sum(map(ord, self.name))])

    def setup(self):
        """Build the program objects every cycle uses."""

    def cycle(self, c):
        raise NotImplementedError

    def warmup(self):
        op = self.cycle(0)[0]
        try:
            op.check(op.run())
        except StatisticalMiss:
            pass  # not a failure; the timed loop tallies this operation again

    def close(self):
        """Remove what the workload wrote."""


class GridDuality(Workload):
    name = "grid-duality"

    LAWS = ("bachelier", "black_scholes", "linear-logistic")
    ROUNDTRIP = (2001,) * 6 + (20001,) * 4 + (100001,)
    PROJECT = ((2001, 0.0), (2001, 1e-6), (2001, 1e-6), (100001, 1e-6))
    ATOMS = (10, 10, 100, 100, 1000, 1000, 10000)
    CERTIFY = (("gaussian", "linear", "sqrt"), ("logistic", "geometric", "linear"),
               ("gaussian", "geometric", "table"), ("logistic", "linear", "table"),
               ("cauchy", "linear", "sqrt"))

    def setup(self):
        self.dens = {name: getattr(densities.DensityModel, name)()
                     for name in ("gaussian", "logistic", "cauchy")}

    def cycle(self, c):
        rng = self.rng(c)
        ops = []
        for i, n in enumerate(self.ROUNDTRIP):
            ops.append(self._roundtrip(n, self.LAWS[(i + c) % 3], rng))
        for i, (n, noise) in enumerate(self.PROJECT):
            ops.append(self._project(n, noise, self.LAWS[(i + c) % 3], rng))
        for m in self.ATOMS:
            ops.append(self._atoms(m, rng))
        for dens, family, tc in self.CERTIFY:
            ops.append(self._certify(dens, family, tc, rng))
        return ops

    def _law_curve(self, n, law, rng):
        atoms, desc = law_atoms(law, n - 2, rng)
        weights = np.full(atoms.size, 1.0 / atoms.size)
        pad = 0.5 * float(atoms[-1] - atoms[0])
        strikes, values, mean = atom_curve(atoms, weights, pad)
        return atoms, weights, strikes, values, mean, desc

    def _roundtrip(self, n, law, rng):
        atoms, weights, strikes, values, mean, desc = self._law_curve(n, law, rng)
        curve = zonoid.CallCurve.from_grid(strikes, values, mean=mean)
        want = greedy_boundary(atoms, weights, P2001)
        # How close the round trip comes back to the input depends on how
        # well 2001 p resolve the law's tails, so the reference is the exact
        # conjugate of the exact boundary on the same p grid.
        want_back = grid_conjugate(P2001, want, atoms, weights, strikes)

        def run():
            b = zonoid.upper_boundary_from_calls(curve, P2001)
            return b.values, zonoid.calls_from_upper_boundary(b, strikes).values

        def check(out):
            close("boundary vs greedy", out[0], want, 1e-12)
            close("round trip vs conjugate of the greedy boundary", out[1], want_back, 1e-12)

        return Op("roundtrip", f"roundtrip n={n} {desc}", run, check)

    def _project(self, n, noise, law, rng):
        atoms, weights, strikes, values, mean, desc = self._law_curve(n, law, rng)
        eps = noise * max(1.0, abs(mean)) * rng.standard_normal(n) if noise else np.zeros(n)
        noisy = values + eps
        want = greedy_boundary(atoms, weights, P2001)
        eps_max = float(np.max(np.abs(eps)))

        def run():
            proj, dist = zonoid.project_convex_decreasing(strikes, noisy)
            curve = zonoid.CallCurve.from_grid(strikes, proj, mean=mean)
            return dist, zonoid.upper_boundary_from_calls(curve, P2001).values

        def check(out):
            dist, b = out
            if not noise:
                expect(dist <= 1e-12 * max(1.0, abs(mean)),
                       f"convex input moved by {dist:.3g}")
            # the transform is 1-Lipschitz in the sup norm of the curve
            close("projected boundary vs greedy", b, want, dist + eps_max + 1e-12)

        kind = "project-noisy" if noise else "project-convex"
        return Op(kind, f"{kind} n={n} noise={noise:g} {desc}", run, check)

    def _atoms(self, m, rng):
        atoms = np.sort(rng.uniform(-10.0, 10.0, size=m))
        weights = rng.uniform(0.05, 1.0, size=m)
        weights /= weights.sum()
        pad = max(1.0, 0.5 * float(atoms[-1] - atoms[0]))
        strikes, values, mean = atom_curve(atoms, weights, pad)
        curve = zonoid.CallCurve.from_grid(strikes, values, mean=mean)
        want = greedy_boundary(atoms, weights, P2001)

        def run():
            return zonoid.upper_boundary_from_calls(curve, P2001).values

        def check(out):
            close("atoms boundary vs greedy", out, want, 1e-12)

        return Op("atoms", f"atoms m={m} first={atoms[0]:.17g}", run, check)

    def _certify(self, dens, family, tc_kind, rng):
        s = rng.uniform(-1.0, 1.0) if family == "linear" else rng.uniform(0.5, 2.0)
        if tc_kind == "table":
            times = np.linspace(0.0, 5.0, 41)
            vals = np.concatenate(([0.0], np.cumsum(rng.uniform(0.05, 0.5, size=40))))
            tc = peacocks.TimeChange.from_table(times, vals)
            desc = f"table({vals[-1]:.17g})"
        else:
            a = rng.uniform(0.5, 2.0)
            tc = _time_change(tc_kind, a)
            desc = f"{tc_kind}({a:.17g})"
        spec = peacocks.PeacockSpec(family, self.dens[dens], s, tc)
        valid = dens != "cauchy"

        def run():
            return peacocks.certify_peacock(spec, T16, P2001)

        def check(cert):
            if valid:
                expect(cert.ok, f"certificate rejected a peacock: {cert.to_dict()}")
            else:
                expect(not cert.ok and cert.concavity.max_violation > 1e-6,
                       "certificate accepted the cauchy family")

        return Op("certify", f"certify {dens} {family} s={s:.17g} {desc}", run, check)


class FamilyModels(Workload):
    name = "family-models"

    PRICE = (("gaussian", "linear", 2001), ("gaussian", "geometric", 501),
             ("logistic", "linear", 101), ("logistic", "geometric", 2001),
             ("custom-gaussian", "linear", 201), ("custom-logistic", "linear", 201),
             ("custom-gaussian", "geometric", 101))
    BOUNDARY = (("gaussian", "linear", 2001), ("logistic", "geometric", 2001),
                ("gaussian", "geometric", 501), ("logistic", "linear", 101),
                ("custom-logistic", "linear", 11), ("custom-gaussian", "geometric", 11))
    CALLS = (("gaussian", "linear", 2001), ("logistic", "geometric", 501))
    IMPLIED = ("gaussian", "logistic", "custom-gaussian")
    LOCALVOL = (("gaussian", "linear", "sqrt"), ("gaussian", "geometric", "linear"),
                ("logistic", "linear", "linear"), ("logistic", "geometric", "sqrt"),
                ("custom-logistic", "linear", "sqrt"))
    RECOVER = ("gaussian", "logistic", "gaussian", "logistic")

    def setup(self):
        self.dens = {}
        wrap = self.tracer.counted if self.tracer else (lambda fn: fn)
        for name in ("gaussian", "logistic"):
            base = getattr(densities.DensityModel, name)()
            self.dens[name] = base
            # a custom model wrapping the same density: it has an exact
            # built-in twin, and construction runs its log-concavity check
            self.dens["custom-" + name] = densities.DensityModel.custom(
                wrap(base.pdf), wrap(base.pdf_prime), wrap(base.cdf), wrap(base.quantile))

    def cycle(self, c):
        rng = self.rng(c)
        ops = []
        for dens, family, n in self.PRICE:
            ops.append(self._price(dens, family, n, rng))
        for dens, family, n in self.BOUNDARY:
            ops.append(self._boundary(dens, family, n, rng))
        for dens, family, n in self.CALLS:
            ops.append(self._calls(dens, family, n, rng))
        for dens in self.IMPLIED:
            ops.append(self._implied(dens, rng))
        for dens, family, tc in self.LOCALVOL:
            ops.append(self._localvol(dens, family, tc, rng))
        for dens in self.RECOVER:
            ops.append(self._recover(dens, rng))
        return ops

    @staticmethod
    def _family_params(family, rng):
        if family == "linear":
            return rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)
        return rng.uniform(0.5, 2.0), rng.uniform(0.3, 1.2)

    @staticmethod
    def _strikes(family, dens, s, y, n):
        if family == "linear":
            half = 4.0 * y if dens.endswith("gaussian") else 1.2 * y
            return np.linspace(s - half, s + half, n)
        lo, hi = (-3.0 * y, 3.0 * y) if dens.endswith("gaussian") else (-1.1 * y, 1.1 * y)
        return s * np.exp(np.linspace(lo, hi, n))

    def _price(self, dens, family, n, rng):
        s, y = self._family_params(family, rng)
        k = self._strikes(family, dens, s, y, n)
        model = self.dens[dens]
        base = dens.replace("custom-", "")
        want_c, want_s = family_call(family, base, s, y, k)
        if dens.startswith("custom"):
            twin = self.dens[base]
            call_fn = pricing.family_call_linear if family == "linear" else pricing.family_call_geometric
            twin_c, twin_s = call_fn(twin, s, y, k), pricing.survival(family, twin, s, y, k)

        def run():
            if family == "linear":
                return pricing.family_call_linear(model, s, y, k), pricing.survival_linear(model, s, y, k)
            return pricing.family_call_geometric(model, s, y, k), pricing.survival_geometric(model, s, y, k)

        def check(out):
            close("call vs closed form", out[0], want_c, 1e-6)
            close("survival vs closed form", out[1], want_s, 1e-6)
            if dens.startswith("custom"):
                close("custom call vs built-in twin", out[0], twin_c, 1e-8)
                close("custom survival vs built-in twin", out[1], twin_s, 1e-8)

        return Op("price", f"price {dens} {family} n={n} s={s:.17g} y={y:.17g}", run, check)

    def _curve(self, model, family, s, y):
        if family == "linear":
            return pricing.linear_family_curve(model, s, y)
        return pricing.geometric_family_curve(model, s, y)

    def _boundary(self, dens, family, n, rng):
        s, y = self._family_params(family, rng)
        p = np.linspace(0.0, 1.0, n)
        model = self.dens[dens]
        base = dens.replace("custom-", "")
        want = family_boundary(family, base, s, y, p)
        if dens.startswith("custom"):
            twin = zonoid.upper_boundary_from_calls(self._curve(self.dens[base], family, s, y), p).values

        def run():
            return zonoid.upper_boundary_from_calls(self._curve(model, family, s, y), p).values

        def check(out):
            close("boundary vs closed form", out, want, 1e-6)
            if dens.startswith("custom"):
                close("custom boundary vs built-in twin", out, twin, 1e-8)

        return Op("boundary", f"boundary {dens} {family} n={n} s={s:.17g} y={y:.17g}", run, check)

    def _calls(self, dens, family, n, rng):
        s, y = self._family_params(family, rng)
        k = self._strikes(family, dens, s, y, n)
        t = rng.uniform(0.5, 2.0)
        a = y / math.sqrt(t)
        spec = peacocks.PeacockSpec(family, self.dens[dens], s, peacocks.TimeChange.sqrt(a))
        want, _ = family_call(family, dens, s, a * math.sqrt(t), k)

        def run():
            b = zonoid.ZonoidBoundary.from_function(
                lambda p: peacocks.surface_boundary(spec, t, p), mean=s)
            return zonoid.calls_from_upper_boundary(b, k).values

        def check(out):
            close("calls from closed-form boundary vs closed form", out, want, 1e-6)

        return Op("calls", f"calls {dens} {family} n={n} s={s:.17g} t={t:.17g} a={a:.17g}", run, check)

    def _implied(self, dens, rng):
        model = self.dens[dens]
        base = dens.replace("custom-", "")
        y_true = rng.uniform(0.25, 3.0)
        # the logistic law has support [e^-y, e^y]: keep K inside it, where
        # the price is above intrinsic and the level is identifiable
        k = rng.uniform(0.5, 2.0) if base == "gaussian" else math.exp(rng.uniform(-0.8, 0.8) * y_true)
        c = float(geometric_call(base, 1.0, y_true, k)[0])
        query = implied.ImpliedQuery(model, c, k)
        intrinsic = max(1.0 - k, 0.0)

        def run():
            return (implied.implied_y_root(query), implied.implied_y_minimization(query)[0],
                    implied.vega_integral(model, y_true, k))

        def check(out):
            y_root, y_min, vega = out
            close("implied y (root) vs generating level", y_root, y_true, 1e-6)
            close("implied y (min) vs generating level", y_min, y_true, 1e-6)
            close("implied y: min route vs root route", y_min, y_root, 1e-5)
            close("vega integral vs c - intrinsic", vega, c - intrinsic, 1e-8)

        return Op("implied", f"implied {dens} y={y_true:.17g} k={k:.17g}", run, check)

    def _localvol(self, dens, family, tc_kind, rng):
        model = self.dens[dens]
        base = dens.replace("custom-", "")
        a = rng.uniform(0.5, 2.0)
        tc = _time_change(tc_kind, a)
        s = rng.uniform(-1.0, 1.0) if family == "linear" else rng.uniform(0.5, 2.0)
        ts = rng.uniform(0.25, 2.0, size=4)
        points = []
        for t in ts:
            y, _ = _y_and_rate(tc_kind, a, t)
            for u in rng.uniform(-0.8, 0.8, size=4):
                k = s + u * y if family == "linear" else s * math.exp(u * y)
                points.append((float(t), float(k)))
        want = [closed_local_variance(family, base, tc_kind, a, s, t, k) for t, k in points]

        def run():
            if family == "linear":
                return [localvol.localvol_linear_closed(model, tc, s, t, k).sigma_sq for t, k in points]
            return [localvol.localvol_geometric_closed(model, tc, s, t, k).sigma_bar_sq for t, k in points]

        def check(out):
            close("local variance vs closed form", out, want, 1e-6)

        return Op("localvol", f"localvol {dens} {family} {tc_kind}({a:.17g}) s={s:.17g}", run, check)

    def _recover(self, dens, rng):
        model = self.dens[dens]
        p0 = rng.uniform(0.3, 0.7)
        anchor = float(special.ndtri(p0) if dens == "gaussian" else special.logit(p0))
        pgrid = np.linspace(0.01, 0.99, 99)

        def run():
            return peacocks.recover_F_from_G(lambda p: peacocks.G_map(model, p), anchor, p0, pgrid)

        def check(out):
            ps, xs = out
            want = special.ndtri(ps) if dens == "gaussian" else special.logit(ps)
            close("recovered quantile vs closed form", xs, want, 1e-6)

        return Op("recover", f"recover {dens} p0={p0:.17g}", run, check)


class McOracle(Workload):
    name = "mc-oracle"

    CHECKS = tuple((model, anti, n) for n in (200_000, 1_000_000, 2_000_000)
                   for model in ("bachelier", "black_scholes") for anti in (False, True))
    # two cheap and two large mc_call runs sit on either side of the 1e6-path
    # checks, which hold the median
    CALLS = tuple((model, n) for n in (200_000, 4_000_000) for model in ("bachelier", "black_scholes"))

    def cycle(self, c):
        rng = self.rng(c)
        ops = []
        for model, anti, n in self.CHECKS:
            ops.append(self._check(model, anti, n, rng))
        for model, n in self.CALLS:
            ops.append(self._call(model, n, rng))
        return ops

    def _config(self, model, n, anti, rng):
        t = rng.uniform(0.25, 2.0)
        return mc.SimConfig(model, t, n, int(rng.integers(0, 2 ** 62)), antithetic=anti)

    def _check(self, model, anti, n, rng):
        cfg = self._config(model, n, anti, rng)

        def run():
            return mc.mc_check_propositions(cfg)

        def check(report):
            check_mc_report(f"MC boundary ({cfg})", report.to_dict(), model, cfg.t)

        return Op("mc-check", f"mc-check {model}-n={n}-anti={int(anti)} {cfg}", run, check,
                  statistical=True)

    def _call(self, model, n, rng):
        cfg = self._config(model, n, False, rng)
        k = rng.uniform(-0.5, 0.5) if model == "bachelier" else rng.uniform(0.7, 1.3)
        v = math.sqrt(cfg.t)
        if model == "bachelier":
            want = float(linear_call("gaussian", 0.0, v, k)[0])
        else:
            want = float(geometric_call("gaussian", 1.0, v, k)[0])

        def run():
            return mc.mc_call(cfg, k)

        def check(est):
            expect(est.n == n and np.isfinite(est.value) and est.std_error > 0.0,
                   f"MC call estimate {est}")
            within_se(f"MC call {est.value:.6g} vs {want:.6g} ({cfg}, k={k!r})",
                      abs(est.value - want) / est.std_error)

        return Op("mc-call", f"mc-call {model}-n={n} {cfg} k={k:.17g}", run, check, statistical=True)


# ---------------------------------------------------------------------------
# CLI batch
# ---------------------------------------------------------------------------

def _argv(sub, *switches, **flags):
    """CLI argv with ``--flag=value`` pairs, so negative numbers and grid
    specs are never read as options."""
    return [sub, *switches] + [f"--{k.replace('_', '-')}={float(v)!r}" if isinstance(v, float)
                               else f"--{k.replace('_', '-')}={v}" for k, v in flags.items()]


def _parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return tuple(rows[0]), np.array([[float(v) for v in r] for r in rows[1:]])


class CliBatch(Workload):
    name = "cli-batch"

    def __init__(self, seed, root, tracer=None):
        super().__init__(seed, root, tracer)
        self.workdir = os.path.join(root, ".perfbench_out", f"cli-{os.getpid()}")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.max_child_rss_kb = 0

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def warmup(self):
        code, _ = self.run_subprocess(["density-check", "--density=gaussian"])
        expect(code == 0, "warm-up CLI call failed")

    def run_subprocess(self, argv):
        proc = subprocess.Popen([sys.executable, "-m", "zonoid_lab.cli"] + argv,
                                cwd=self.workdir, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
        return proc.returncode, out.decode()

    def inprocess(self, argv):
        buf = io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with redirect_stdout(buf), redirect_stderr(io.StringIO()):
                code = cli.main(list(argv))
        finally:
            os.chdir(cwd)
        return code, buf.getvalue()

    def _op(self, kind, argv, check):
        return Op(kind, "cli " + " ".join(argv), lambda: self.run_subprocess(argv), check,
                  inproc=lambda: self.inprocess(argv))

    def cycle(self, c):
        rng = self.rng(c)
        u = lambda lo, hi: float(rng.uniform(lo, hi))
        ops = []

        # price: the model route, then the linear and geometric families
        s0, sigma, t = u(-1, 1), u(0.5, 1.5), u(0.5, 2.0)
        v = sigma * math.sqrt(t)
        argv = _argv("price", model="bachelier", s0=s0, sigma=sigma, t=t,
                     k_grid=f"{s0 - 3 * v!r}:{s0 + 3 * v!r}:201")
        ops.append(self._op("price", argv, self._price_check(partial(linear_call, "gaussian", s0, v))))
        for family, dens in (("linear", "logistic"), ("geometric", "gaussian")):
            s, sigma, t = (u(-1, 1) if family == "linear" else u(0.5, 2.0)), u(0.3, 1.0), u(0.5, 2.0)
            y = sigma * math.sqrt(t)
            lo, hi = ((s - 1.2 * y, s + 1.2 * y) if family == "linear"
                      else (s * math.exp(-3 * y), s * math.exp(3 * y)))
            argv = _argv("price", family=family, density=dens, s0=s, sigma=sigma, t=t,
                         k_grid=f"{lo!r}:{hi!r}:201")
            ops.append(self._op("price", argv, self._price_check(partial(family_call, family, dens, s, y))))

        # boundary to a file, then calls reading that file back
        s0, sigma, t = u(0.5, 2.0), u(0.2, 0.6), u(0.5, 2.0)
        v = sigma * math.sqrt(t)
        # file names are relative to the working directory of the CLI calls
        bfile = f"boundary-{c}.csv"
        argv = _argv("boundary", model="black_scholes", s0=s0, sigma=sigma, t=t, out=bfile)
        ops.append(self._op("boundary", argv, self._boundary_file_check(
            bfile, partial(family_boundary, "geometric", "gaussian", s0, v))))
        kgrid = np.linspace(s0 * math.exp(-3 * v), s0 * math.exp(3 * v), 501)
        argv = _argv("calls", boundary=bfile, mean=s0, k_grid=f"{float(kgrid[0])!r}:{float(kgrid[-1])!r}:501")
        ops.append(self._op("calls", argv, self._calls_check(
            geometric_call("gaussian", s0, v, kgrid)[0], s0)))

        # boundary as JSON on stdout
        s, sigma, t = u(-1, 1), u(0.5, 1.5), u(0.5, 2.0)
        y = sigma * math.sqrt(t)
        argv = _argv("boundary", family="linear", density="logistic", s0=s, sigma=sigma, t=t,
                     format="json")
        ops.append(self._op("boundary", argv, self._boundary_json_check(
            partial(family_boundary, "linear", "logistic", s, y))))

        # surface: matrix CSV plus its sidecar
        s, a = u(0.5, 2.0), u(0.3, 1.0)
        sfile = f"surface-{c}.csv"
        argv = _argv("surface", family="geometric", density="gaussian", s=s, y_kind="sqrt",
                     y_scale=a, t_grid="0.25:4:16", out=sfile)
        ops.append(self._op("surface", argv, self._surface_check(sfile, s, a)))

        # certify: two peacocks (exit 0) and the cauchy family (exit 2).  The
        # passing certificates are the slowest calls; two per cycle keep the
        # 90th percentile inside their group.
        s, a = u(-1, 1), u(0.5, 2.0)
        argv = _argv("certify", family="linear", density="gaussian", s=s, y_kind="sqrt", y_scale=a)
        ops.append(self._op("certify", argv, self._certify_check(True)))
        s_geo, a = u(0.5, 2.0), u(0.5, 2.0)
        argv = _argv("certify", family="geometric", density="logistic", s=s_geo, y_kind="linear",
                     y_scale=a)
        ops.append(self._op("certify", argv, self._certify_check(True)))
        argv = _argv("certify", family="linear", density="cauchy", s=s)
        ops.append(self._op("certify", argv, self._certify_check(False)))

        # implied level of a logistic geometric price
        y_true = u(0.25, 3.0)
        k = math.exp(u(-0.8, 0.8) * y_true)
        c_price = float(geometric_call("logistic", 1.0, y_true, k)[0])
        argv = _argv("implied", density="logistic", c=c_price, k=k)
        ops.append(self._op("implied", argv, self._implied_check(y_true)))

        argv = _argv("density-check", density="logistic")
        ops.append(self._op("density-check", argv, self._density_check()))

        cfg = mc.SimConfig("bachelier", u(0.25, 2.0), 200_000, int(rng.integers(0, 2 ** 62)))
        argv = _argv("simulate", "--report", model="bachelier", t=cfg.t, n=cfg.n_paths, seed=cfg.seed)
        ops.append(self._op("simulate", argv, self._simulate_check(cfg)))
        ops[-1].statistical = True
        return ops

    # -- checks -----------------------------------------------------------

    @staticmethod
    def _price_check(closed):
        def check(out):
            code, text = out
            expect(code == 0, f"price exited {code}")
            header, data = _parse_csv(text)
            expect(header == ("K", "C", "survival"), f"price header {header}")
            want_c, want_s = closed(data[:, 0])
            close("CLI price vs closed form", data[:, 1], want_c, 1e-6)
            close("CLI survival vs closed form", data[:, 2], want_s, 1e-6)
        return check

    def _boundary_file_check(self, name, closed):
        def check(out):
            code, _ = out
            expect(code == 0, f"boundary exited {code}")
            with open(os.path.join(self.workdir, name)) as fh:
                header, data = _parse_csv(fh.read())
            expect(header == ("p", "Chat"), f"boundary header {header}")
            close("CLI boundary vs closed form", data[:, 1], closed(data[:, 0]), 1e-6)
        return check

    @staticmethod
    def _calls_check(want, mean):
        def check(out):
            code, text = out
            expect(code == 0, f"calls exited {code}")
            header, data = _parse_csv(text)
            expect(header == ("K", "C"), f"calls header {header}")
            close("CLI round trip calls vs closed form", data[:, 1], want, 1e-4 * max(1.0, mean))
        return check

    @staticmethod
    def _boundary_json_check(closed):
        def check(out):
            code, text = out
            expect(code == 0, f"boundary exited {code}")
            env = json.loads(text)
            expect(env["kind"] == "zonoid-boundary", "boundary JSON kind")
            p = np.array(env["probs"])
            close("CLI JSON boundary vs closed form", env["values"], closed(p), 1e-6)
        return check

    def _surface_check(self, name, s, a):
        path = os.path.join(self.workdir, name)
        spec = peacocks.PeacockSpec("geometric", densities.DensityModel.gaussian(), s,
                                    peacocks.TimeChange.sqrt(a))
        want = peacocks.boundary_surface(spec, np.linspace(0.25, 4.0, 16), np.linspace(0.0, 1.0, 201))

        def check(out):
            code, _ = out
            expect(code == 0, f"surface exited {code}")
            with open(path) as fh:
                rows = list(csv.reader(fh))
            with open(path + ".meta.json") as fh:
                meta = json.load(fh)
            expect(meta["axis_kind"] == "zonoid-space", "surface sidecar axis_kind")
            values = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
            close("CLI surface vs library", values, want.values, 0.0)
            closed = np.vstack([family_boundary("geometric", "gaussian", s, a * math.sqrt(t), want.axis)
                                for t in want.times])
            close("CLI surface vs closed form", values, closed, 1e-6)
        return check

    @staticmethod
    def _certify_check(valid):
        def check(out):
            code, text = out
            cert = json.loads(text)
            if valid:
                expect(code == 0 and cert["ok"], f"certify exited {code} on a peacock")
            else:
                expect(code == 2 and not cert["ok"], f"certify exited {code} on cauchy")
        return check

    @staticmethod
    def _implied_check(y_true):
        def check(out):
            code, text = out
            expect(code == 0, f"implied exited {code}")
            close("CLI implied y vs generating level", json.loads(text)["y_star"], y_true, 1e-6)
        return check

    @staticmethod
    def _density_check():
        def check(out):
            code, text = out
            expect(code == 0 and json.loads(text)["is_concave"], "logistic not certified log-concave")
        return check

    @staticmethod
    def _simulate_check(cfg):
        lib = mc.mc_check_propositions(cfg)

        def check(out):
            code, text = out
            report = json.loads(text)
            close("CLI MC boundary vs library", report["mc_boundary"], lib.mc_boundary, 0.0)
            expect(code == (0 if lib.ok else 2), f"simulate exited {code}")
            check_mc_report(f"CLI MC boundary ({cfg})", report, cfg.model, cfg.t)
        return check


WORKLOADS = {w.name: w for w in (GridDuality, FamilyModels, McOracle, CliBatch)}

