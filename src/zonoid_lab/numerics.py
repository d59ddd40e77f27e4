"""Shared numeric building blocks: the bracketed root solver, the batched
adaptive Gauss-Kronrod quadrature, the minimiser, the discrete Legendre
kernel, the central-difference stencil, grids.  Each is the package's one
kernel of its kind: the root solver, the quadrature and the minimiser take
arrays of problems and call their map once per step on every unfinished one.
The minimiser's refinement (``_section``) follows one of two scans: a matrix
of every element at every node (``golden_section_min``, any objective), or,
for the separable objectives g(x) + d x of the closed-form conjugates, one
g evaluation on the nodes and the Legendre kernel (``_legendre_scan_min``).

These helpers are deliberately dumb about what they optimise; all of the
domain knowledge (call curves, boundaries, densities) lives in the modules
that call them.  The input rules every module shares are written here and
nowhere else: ``as_float_array`` (finite real entries; ``_real_array``, real
only, also reads the values of a caller's function), ``increasing_grid``
(finite, 1-d, strictly increasing), ``probabilities`` (in [0, 1]) and
``real_scalar`` (one finite real number); so are the output conventions,
``like_input`` (scalar or array) and ``jsonable`` (JSON).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Tuple

import numpy as np

from .errors import DomainError, RangeError, ValidationError, ZonoidLabError

_PEEL_PASSES = 32                     # vectorised hull passes before the loop
_ROOT_ITERS = 300                     # Chandrupatla steps before giving up
_MIN_ITERS = 200                      # minimiser steps before giving up
_SCAN_N = 129                         # minimiser scan nodes, shared by all elements
_SCAN_CELLS = 1 << 15                 # minimiser scan-matrix entries per fn call
_GOLD = (3.0 - 5.0 ** 0.5) / 2.0      # 2 - phi: golden sectioning of the larger interval
_GK_PANELS = 300                      # panels per integral before giving up

# QUADPACK's 15-point Kronrod rule on [-1, 1] and its embedded 7-point
# Gauss rule (zero weight at the Kronrod-only nodes), from the centre out
_XGK = np.array([0.0, 0.207784955007898467600689403773245,
                 0.405845151377397166906606412076961, 0.586087235467691130294144845693013,
                 0.741531185599394439863864773280788, 0.864864423359769072789712788640926,
                 0.949107912342758524526189684047851, 0.991455371120812639206854697526329])
_WGK = np.array([0.209482141084727828012999174891714, 0.204432940075298892414161999234649,
                 0.190350578064785409913256402421014, 0.169004726639267902826583426598550,
                 0.140653259715525918745189590510238, 0.104790010322250183839876322541518,
                 0.063092092629978553290700663189204, 0.022935322010529224963732008058970])
_WG = np.array([0.417959183673469387755102040816327, 0.0, 0.381830050505118944950369775488975,
                0.0, 0.279705391489276667901467771423780, 0.0,
                0.129484966168869693270611432679082, 0.0])
_GK_NODES = np.concatenate((-_XGK[:0:-1], _XGK))
_GK_WEIGHTS = np.concatenate((_WGK[:0:-1], _WGK))
_G_WEIGHTS = np.concatenate((_WG[:0:-1], _WG))
_EPS = np.finfo(np.float64).eps
# Shewchuk's ccwerrboundA for the unit roundoff 2^-53, and an absolute slack
# for the error of products and bounds in the subnormal range (< 2^-1074 each)
_CCW_BOUND = (3.0 + 8.0 * _EPS) * 0.5 * _EPS
_CCW_SLACK = 2.0 ** -1068


def _real_array(x, name: str) -> np.ndarray:
    """``x`` as a float64 array; ValidationError unless its entries are
    real numbers (bool, int or float dtype; a bool reads as 0 or 1), so a
    complex, string or object array is never cast."""
    arr = np.asarray(x)
    if arr.dtype.kind not in "biuf":
        raise ValidationError(f"{name} must hold real numbers, got dtype {arr.dtype}")
    return arr.astype(np.float64, copy=False)


def as_float_array(x, name: str = "x") -> np.ndarray:
    """Coerce to a float64 ndarray (the rule of ``_real_array``) and reject
    non-finite entries."""
    arr = _real_array(x, name)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return arr


def increasing_grid(x, name: str, min_size: int = 2) -> np.ndarray:
    """Coerce a grid to float64; DomainError on a non-finite entry,
    ValidationError unless it is 1-d, strictly increasing and has at least
    ``min_size`` points."""
    g = as_float_array(x, name)
    if g.ndim != 1 or g.size < min_size or np.any(np.diff(g) <= 0.0):
        raise ValidationError(f"{name} must be 1-d, strictly increasing, of size >= {min_size}")
    return g


def probabilities(p, name: str) -> np.ndarray:
    """Coerce to a float64 array (the rule of ``_real_array``); DomainError
    unless every entry lies in [0, 1]."""
    arr = _real_array(p, name)
    if not ((arr >= 0.0) & (arr <= 1.0)).all():  # nan fails both comparisons
        raise DomainError(f"{name} must lie in [0, 1]")
    return arr


def real_scalar(x, name: str, error: type = DomainError) -> float:
    """``x`` as a float; ``error`` (DomainError, or ValidationError for the
    fields of a config object) unless it is one finite real number: a
    Python or numpy float or int, or a 0-d array of one.  Arrays of any
    other shape, lists, bools, complex numbers and strings are rejected."""
    v = x
    if not isinstance(v, float):  # a float, numpy's included, costs one type test
        a = np.asarray(v)
        v = float(a) if a.shape == () and a.dtype.kind in "iuf" else math.nan
    if not math.isfinite(v):
        raise error(f"{name} must be a finite real scalar, got {x!r}")
    return v


def like_input(out, x):
    """The package's return convention: a Python scalar (float, or bool for
    flags) when the input ``x`` was 0-d, the array ``out`` otherwise."""
    if np.ndim(x) == 0:
        return np.asarray(out).item()
    return out


def stand_in(x: float, lo: float, hi: float) -> float:
    """``x`` moved strictly inside (lo, hi), nan if no float lies inside: where a map
    is evaluated, and the result dropped by ``np.where``, for elements out of range."""
    x = min(max(x, math.nextafter(lo, math.inf)), math.nextafter(hi, -math.inf))
    return x if lo < x < hi else math.nan


def jsonable(obj):
    """The package's JSON rule, applied recursively: a dataclass becomes a
    dict of its fields in declaration order, arrays and tuples become lists,
    numpy scalars Python scalars, and nan None (JSON null)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {key: jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(value) for value in obj]
    return None if isinstance(obj, float) and math.isnan(obj) else obj


def _step(a, fa, b, fb, c, fc, xtol: float):
    """The arithmetic of one Chandrupatla step, written once for both loops
    of ``monotone_root`` (numpy arrays, or numpy float64 scalars, whose IEEE
    operations give the same bits): with a the newest point, [a, b] the
    bracket and c the point last dropped from it, the fraction tlim of
    b - a that the tolerance takes, whether inverse quadratic interpolation
    is safe, and its fraction t of b - a."""
    d = b - a
    tlim = 0.5 * (xtol + 8.9e-16 * abs(a)) / abs(d)
    xi, phi = d / (b - c), (fa - fb) / (fc - fb)
    iqi = (phi * phi < xi) & ((1.0 - phi) * (1.0 - phi) < 1.0 - xi)
    t = fa / (fb - fc) * (fc / (fb - fa) - (c - a) / d * fb / (fc - fa))
    return tlim, iqi, t


def _not_bracketed(target, lo, hi) -> RangeError:
    return RangeError(f"target {float(target)!r} not bracketed by [{float(lo)!r}, {float(hi)!r}]")


def _root_0d(fn, target, lo, hi, args: tuple, xtol: float) -> float:
    """``monotone_root`` for one problem, on numpy float64 scalars: the step
    of ``_step``, with Python branches where the array loop selects with
    ``np.where`` and clamps with ``np.minimum``/``np.maximum`` (nan kept as
    they keep it), so it returns the array loop's root bit for bit."""
    call = (lambda v: fn((v, *args))) if args else fn
    glo, ghi = (np.float64(call(v)) - target for v in (lo, hi))
    if not (glo <= 0.0 <= ghi or ghi <= 0.0 <= glo):  # a nan residual brackets nothing
        raise _not_bracketed(target, lo, hi)
    a, fa, b, fb, c, fc = hi, ghi, lo, glo, hi, ghi
    t, done = 0.5, glo == 0.0 or ghi == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_ROOT_ITERS):
            if done:
                return float(a if abs(fa) < abs(fb) else b)
            xt = a + t * (b - a)
            ft = np.float64(call(xt)) - target
            if ft != ft:
                raise DomainError("the map is nan inside the bracket")
            if (ft > 0.0) == (fa > 0.0) and (ft < 0.0) == (fa < 0.0):  # same sign
                c, fc = a, fa
            else:
                c, fc, b, fb = b, fb, a, fa
            a, fa = xt, ft
            tlim, iqi, t = _step(a, fa, b, fb, c, fc, xtol)
            done = fa == 0.0 or tlim > 0.5
            t = t if iqi else 0.5
            t = t if t >= tlim or t != t else tlim
            t = t if t <= 1.0 - tlim or t != t else 1.0 - tlim
    raise ZonoidLabError(f"root solver did not converge in {_ROOT_ITERS} steps")


def monotone_root(fn: Callable[..., np.ndarray], target, lo, hi, *,
                  xtol: float = 1e-13, args: tuple = ()):
    """Solve fn(x) = target elementwise for an elementwise, monotone fn.

    ``target``, ``lo``, ``hi`` and each of ``args`` (per-element parameters
    of fn) broadcast together (0-d allowed); each element has its own
    bracket [lo, hi].  fn gets one array per step: the broadcast shape at
    the endpoints, then the unsolved elements.  With ``args`` it gets the
    tuple (x, *args) instead, the parameters narrowed to the same elements;
    fn always takes one argument, so a wrapper that forwards one argument
    (a call counter, say) keeps working.
    Chandrupatla's method (Adv. Eng. Software 28, 1997): inverse quadratic
    interpolation where it is safe, bisection otherwise.  An element is done
    when its bracket is narrower than xtol + 8.9e-16 |x| or its residual is
    exactly zero, so a root at an endpoint is returned exactly.  Raises
    RangeError when a target is not bracketed, DomainError when fn is nan
    inside a bracket, ZonoidLabError after _ROOT_ITERS steps.  Returns a
    float for 0-d inputs, else an array.

    When the target, the ends and every parameter are 0-d, the solve runs
    on numpy float64 scalars (``_root_0d``) and fn gets scalars: on one
    element the array loop's masks, selects and reductions cost about 17 us
    of numpy calls per step, the scalar loop's arithmetic about 3 us.  Both
    loops take it from ``_step``, so they return the same bits.
    """
    target, lo, hi, *args = (np.asarray(v, dtype=np.float64) for v in (target, lo, hi, *args))
    if target.ndim == lo.ndim == hi.ndim == 0 and not any(v.ndim for v in args):
        return _root_0d(fn, target[()], lo[()], hi[()], tuple(v[()] for v in args), xtol)
    target, lo, hi, *args = np.broadcast_arrays(target, lo, hi, *args)
    glo, ghi = (np.asarray(fn((v, *args) if args else v), dtype=np.float64) - target
                for v in (lo, hi))
    bad = ~(np.sign(glo) * np.sign(ghi) <= 0.0)  # a nan residual brackets nothing
    if bad.any():
        i = np.argmax(bad)
        raise _not_bracketed(target.flat[i], lo.flat[i], hi.flat[i])
    x, at = np.empty(target.shape), np.arange(target.size).reshape(target.shape)
    # a is the newest point, [a, b] the bracket, c the point last dropped from it
    a, fa, b, fb, c, fc = hi, ghi, lo, glo, hi, ghi
    t, done = np.full(target.shape, 0.5), (glo == 0.0) | (ghi == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_ROOT_ITERS):
            if done.any() or not done.size:  # store the better end of each done bracket, drop it
                x.flat[at[done]] = np.where(np.abs(fa) < np.abs(fb), a, b)[done]
                if done.all():
                    return x
                a, fa, b, fb, c, fc, t, target, at, *args = (
                    v[~done] for v in (a, fa, b, fb, c, fc, t, target, at, *args))
            xt = a + t * (b - a)
            ft = np.asarray(fn((xt, *args) if args else xt), dtype=np.float64) - target
            if np.isnan(ft).any():
                raise DomainError("the map is nan inside the bracket")
            same = np.sign(ft) == np.sign(fa)
            c, fc = np.where(same, a, b), np.where(same, fa, fb)
            b, fb = np.where(same, b, a), np.where(same, fb, fa)
            a, fa = xt, ft
            tlim, iqi, t = _step(a, fa, b, fb, c, fc, xtol)
            done = (fa == 0.0) | (tlim > 0.5)
            # the next point lands at least the tolerance inside the bracket
            t = np.minimum(np.maximum(np.where(iqi, t, 0.5), tlim), 1.0 - tlim)
    raise ZonoidLabError(f"root solver did not converge in {_ROOT_ITERS} steps")


def _gk15(fn, lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """G7-K15 on every panel [lo_i, hi_i] from one fn call: the Kronrod
    values and QUADPACK's error estimates (qk15)."""
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x = (centre[:, None] + half[:, None] * _GK_NODES).ravel()
    f = np.broadcast_to(np.asarray(fn(x), dtype=np.float64), x.shape).reshape(lo.size, 15)
    if not np.all(np.isfinite(f)):
        raise DomainError("the integrand is not finite at a quadrature node")
    resk, ah = f @ _GK_WEIGHTS, np.abs(half)
    resabs = np.abs(f) @ _GK_WEIGHTS * ah
    resasc = np.abs(f - 0.5 * resk[:, None]) @ _GK_WEIGHTS * ah
    err = np.abs(resk - f @ _G_WEIGHTS) * ah
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    return resk * half, np.maximum(err, 50.0 * _EPS * resabs)


def gauss_kronrod(fn: Callable[[np.ndarray], np.ndarray], lo, hi, owner=None, *,
                  epsabs: float, epsrel: float) -> np.ndarray:
    """Integrals of fn over unions of panels [lo_i, hi_i], all adaptively at once.

    Panel i belongs to integral ``owner[i]`` (default: each panel is its own
    integral); the result holds one value per owner 0 .. max(owner).  Each
    round makes one fn call on the 15 Kronrod nodes of every panel not yet
    evaluated (fn gets a 1-d array and returns one of its shape, or a scalar
    that broadcasts), so fn must be elementwise.  An owner is done when the
    sum of its panels' QUADPACK error estimates (Piessens et al., QUADPACK,
    1983) is at most max(epsabs, epsrel |total|); otherwise every one of its
    panels whose estimate exceeds an equal share of that budget is bisected.
    Raises DomainError when fn is not finite at a node and ZonoidLabError
    when an owner would need more than _GK_PANELS panels.
    """
    lo, hi = (np.asarray(v, dtype=np.float64).ravel() for v in (lo, hi))
    own = np.arange(lo.size) if owner is None else np.asarray(owner, dtype=np.intp).ravel()
    n = int(own.max()) + 1 if own.size else 0
    out = np.zeros(n)
    # kept panels: evaluated, of owners still over budget
    k_lo = k_hi = k_res = k_err = np.empty(0)
    k_own = np.empty(0, dtype=np.intp)
    while lo.size:
        res, err = _gk15(fn, lo, hi)
        lo, hi, own, res, err = (np.concatenate(v) for v in (
            (k_lo, lo), (k_hi, hi), (k_own, own), (k_res, res), (k_err, err)))
        total, error = np.bincount(own, res, n), np.bincount(own, err, n)
        count = np.bincount(own, minlength=n)
        budget = np.maximum(epsabs, epsrel * np.abs(total))
        over = error > budget  # an owner finished earlier has no panels left
        done = ~over & (count > 0)
        out[done] = total[done]
        if not over.any():
            break
        if np.any(count[over] >= _GK_PANELS):
            raise ZonoidLabError(f"quadrature did not converge in {_GK_PANELS} panels")
        live = over[own]
        split = live & (err > (budget / np.maximum(count, 1))[own])
        keep = live & ~split
        k_lo, k_hi, k_own, k_res, k_err = lo[keep], hi[keep], own[keep], res[keep], err[keep]
        mid = 0.5 * (lo[split] + hi[split])
        lo = np.concatenate((lo[split], mid))
        hi = np.concatenate((mid, hi[split]))
        own = np.tile(own[split], 2)
    return out


def _checked(out) -> np.ndarray:
    """A minimiser's objective values as float64; DomainError on a nan."""
    out = np.asarray(out, dtype=np.float64)
    if np.isnan(out).any():
        raise DomainError("the objective is nan inside the domain")
    return out


def _scan_nodes(lo: float, hi: float, logit: bool) -> np.ndarray:
    """The _SCAN_N scan nodes of both minimisers on [lo, hi]: the ends and an
    even (or, with ``logit``, even in logit) run between them."""
    t = np.linspace(*(math.log(v / (1.0 - v)) if logit else v for v in (lo, hi)), _SCAN_N)[1:-1]
    return np.concatenate(([lo], 1.0 / (1.0 + np.exp(-t)) if logit else t, [hi]))


def _section(call, row, x1, x2, x3, f1, f2, f3, best_x, best_f, scale: float) -> None:
    """Chandrupatla's quadratic-fit sectioning (Comput. Methods Appl. Mech.
    Engrg. 152, 1998) of every bracket (x1, x2, x3) at once, f2 no higher
    than f1 and f3; bracket i belongs to element ``row[i]``, whose
    ``best_x``/``best_f`` keep the lowest point found.  ``call(x, row)``
    evaluates the objective of the elements ``row`` at x.  A bracket is done
    when f1 - 2 f2 + f3 <= ftol = 4 eps (1 + |f2|) or its larger half is
    within twice the distance over which its parabola rises by ftol (at
    least 4 eps max(|x2|, ``scale``)).  ZonoidLabError after _MIN_ITERS steps."""
    q0 = x3
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MIN_ITERS):
            # the larger interval is (x2, x3); x1 and x3 may lie on either side
            swap = np.abs(x3 - x2) < np.abs(x2 - x1)
            x1, x3, f1, f3 = (np.where(swap, u, v)
                              for u, v in ((x3, x1), (x1, x3), (f3, f1), (f1, f3)))
            x21, x32 = x2 - x1, x3 - x2
            u, v = x21 * (f3 - f2), x32 * (f1 - f2)
            ftol = 4.0 * _EPS * (1.0 + np.abs(f2))
            # the distance over which the parabola through the points rises by
            # ftol, at least 4 eps of the larger of |x2| and the domain's ends
            xtol = np.fmax(np.sqrt(ftol * x21 * x32 * (x21 + x32) / (u + v)),
                           4.0 * _EPS * np.maximum(np.abs(x2), scale))
            # within 2 xtol, a step of xtol from x2 could land on x3 (the paper's rule)
            done = (f1 - 2.0 * f2 + f3 <= ftol) | (np.abs(x32) <= 2.0 * xtol)
            r, xd, fd = row[done], x2[done], f2[done]
            np.minimum.at(best_f, r, fd)  # each row keeps its best
            best_x[r[fd == best_f[r]]] = xd[fd == best_f[r]]
            if done.all():
                return
            if done.any():
                row, x1, x2, x3, f1, f2, f3, q0, u, v, x21, x32, xtol = (
                    w[~done] for w in (row, x1, x2, x3, f1, f2, f3, q0, u, v, x21, x32, xtol))
            q1 = 0.5 * (u / (u + v) * (x1 - x3) + x2 + x3)  # vertex of the parabola
            fit = np.abs(q1 - q0) < 0.5 * np.abs(x21)
            q1 = np.where(fit & (np.abs(q1 - x2) <= xtol), x2 + np.sign(x32) * xtol, q1)
            x = np.where(fit, q1, x2 + _GOLD * x32)
            q0, f = q1, call(x, row)
            # a higher point or (if lower) the old middle replaces x1 or x3
            up = f > f2
            xe, fe = np.where(up, x, x2), np.where(up, f, f2)
            on1 = up != (np.sign(x - x2) == np.sign(x32))
            x1, f1, x3, f3 = (np.where(on1, xe, x1), np.where(on1, fe, f1),
                              np.where(on1, x3, xe), np.where(on1, f3, fe))
            x2, f2 = np.where(up, x2, x), np.where(up, f2, f)
    raise ZonoidLabError(f"minimiser did not converge in {_MIN_ITERS} steps")


def golden_section_min(fn: Callable[..., np.ndarray], lo: float, hi: float, *,
                       args: tuple = (), logit: bool = False):
    """Minimise fn over [lo, hi] for every element at once; returns (argmin, min).

    Elements differ by ``args`` (broadcast); fn takes x or (x, *args), as in
    ``monotone_root``.  A scan calls fn on the _SCAN_N nodes of
    ``_scan_nodes``, x of shape (nodes,) and args as columns (one call per
    block of rows); every scan-local minimum is then refined from (node - 1,
    node, node + 1), an end from (end, end, node), by ``_section``, all at
    once.  For any objective: ``implied_y_minimization`` and
    ``inverse_boundary_positive``'s closed-form branch; the separable
    objectives g(x) + d x of the transforms take ``_legendre_scan_min``.
    Raises DomainError when fn is nan, ZonoidLabError after _MIN_ITERS
    steps.  The name is historical.
    """
    def call(x, params):
        return _checked(fn((x, *params)) if params else fn(x))

    args = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in args))
    shape, args = (args[0].shape if args else ()), [a.ravel() for a in args]
    size = args[0].size if args else 1
    nodes = np.concatenate(([lo], _scan_nodes(lo, hi, logit), [hi]))
    best_x, best_f, brackets = np.empty(size), np.empty(size), []
    block = _SCAN_CELLS // nodes.size  # rows per scan call: its matrix stays near 0.25 MB
    for i in range(0, size, block):
        scan = np.broadcast_to(call(nodes, [a[i:i + block, None] for a in args]),
                               (min(block, size - i), nodes.size))
        best = np.argmin(scan, axis=1)
        best_x[i:i + block], best_f[i:i + block] = nodes[best], scan[np.arange(len(scan)), best]
        mid, left, right = scan[:, 1:-1], scan[:, :-2], scan[:, 2:]
        mask = (mid <= left) & (mid <= right) & ((mid < left) | (mid < right))
        r, j = np.divmod(np.flatnonzero(mask), nodes.size - 2)  # 10x faster than 2-d nonzero
        brackets.append((r + i, j, scan[r, j], scan[r, j + 1], scan[r, j + 2]))
    row, j, f1, f2, f3 = (np.concatenate(v) for v in zip(*brackets))
    _section(lambda x, rows: call(x, [a[rows] for a in args]), row,
             nodes[j], nodes[j + 1], nodes[j + 2], f1, f2, f3, best_x, best_f,
             max(abs(lo), abs(hi)))
    if not shape:
        return float(best_x[0]), float(best_f[0])
    return best_x.reshape(shape), best_f.reshape(shape)


def _legendre_scan_min(g: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                       dual: np.ndarray, logit: bool) -> np.ndarray:
    """min_x [g(x) + d x] over [lo, hi] at every d of ``dual``: the minimum of
    ``golden_section_min`` for that separable objective, with its scan made
    by one g call on the (deduplicated) ``_scan_nodes`` and ``legendre_min``,
    O(N + M log N) in place of the M x N scan matrix.  The kernel's node, with
    its neighbours (an end doubled, as in the matrix scan), seeds one
    ``_section`` bracket per d.  +inf nodes never win and are dropped; a
    -inf node is the minimum at every d.  Refining only the scan's global
    minimum, where the matrix scan refines every scan-local one, can leave a
    flat run a few ulp higher.  DomainError when g is nan."""
    x = np.unique(_scan_nodes(lo, hi, logit))
    gx = _checked(g(x))
    low = gx.min()
    if not np.isfinite(low):  # -inf is the minimum everywhere; all +inf, nowhere lower
        return np.full(dual.shape, low)
    keep = np.flatnonzero(gx < np.inf)
    best_f, i = legendre_min(x[keep], gx[keep], dual)
    j = keep[i]
    xp, gp = np.concatenate(([x[0]], x, [x[-1]])), np.concatenate(([gx[0]], gx, [gx[-1]]))
    x1, x2, x3 = xp[j], xp[j + 1], xp[j + 2]
    _section(lambda xs, rows: _checked(g(xs) + dual[rows] * xs), np.arange(dual.size),
             x1, x2, x3, gp[j] + dual * x1, gp[j + 1] + dual * x2, gp[j + 2] + dual * x3,
             x2.copy(), best_f, max(abs(lo), abs(hi)))
    return best_f


def _scaled(v: float) -> int:
    """The float v times 2^1074, an integer for every finite double."""
    num, den = v.as_integer_ratio()
    return num << (1075 - den.bit_length())


def _exact_turn_up(x0: float, y0: float, x1: float, y1: float, x2: float, y2: float) -> bool:
    """Whether the turn at (x1, y1) is > 0, in integer arithmetic."""
    x0, y0, x1, y1, x2, y2 = map(_scaled, (x0, y0, x1, y1, x2, y2))
    return (y2 - y0) * (x1 - x0) > (y1 - y0) * (x2 - x0)


def _turn_up(x0: float, y0: float, x1: float, y1: float, x2: float, y2: float) -> bool:
    """Whether the exact turn at (x1, y1) is > 0, that is whether the node
    lies strictly below the chord of its neighbours.

    The float turn decides wherever Shewchuk's static filter (ccwerrboundA,
    Discrete Comput. Geom. 18, 1997), plus an absolute slack for products
    that underflow, proves its sign; a node level with both neighbours is on
    the chord; the rest are decided in integer arithmetic.
    """
    a, b = (y2 - y0) * (x1 - x0), (y1 - y0) * (x2 - x0)
    t, err = a - b, _CCW_BOUND * (abs(a) + abs(b)) + _CCW_SLACK
    if t > err or t < -err:
        return t > 0.0
    return not y0 == y1 == y2 and _exact_turn_up(x0, y0, x1, y1, x2, y2)


def _turns_up(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``_turn_up`` at every interior node: its float filter vectorised, then
    ``_turn_up`` itself at the nodes the filter leaves unsure."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan turns are unsure
        a = (y[2:] - y[:-2]) * (x[1:-1] - x[:-2])
        b = (y[1:-1] - y[:-2]) * (x[2:] - x[:-2])
        t, err = a - b, _CCW_BOUND * (np.abs(a) + np.abs(b)) + _CCW_SLACK
        up = t > err
        unsure = np.flatnonzero(~up)
        unsure = unsure[~(t[unsure] < -err[unsure])]
    if unsure.size:
        nodes = zip(*(v[unsure + j].tolist() for j in range(3) for v in (x, y)))
        up[unsure] = [_turn_up(*node) for node in nodes]
    return up


def _monotone_chain(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain with the exact turn: indices of the strict
    lower hull of (x, y), x strictly increasing."""
    # python floats: the same IEEE operations as numpy scalars, 4x faster
    xs, ys = x.tolist(), y.tolist()
    hull = [0]
    for i in range(1, len(xs)):
        xi, yi = xs[i], ys[i]
        while len(hull) >= 2 and not _turn_up(xs[hull[-2]], ys[hull[-2]],
                                              xs[hull[-1]], ys[hull[-1]], xi, yi):
            hull.pop()
        hull.append(i)
    return np.asarray(hull)


def _peel(x: np.ndarray, y: np.ndarray, up: Callable) -> np.ndarray:
    """Indices of a convex chain through the lower-hull vertices of (x, y),
    x strictly increasing.  Vectorised passes each drop every interior node
    whose ``up`` flag against its current neighbours is False, until a pass
    drops nothing: one pass for strictly convex nodes, about ten for noisy
    curves.  After _PEEL_PASSES passes Andrew's monotone chain finishes the
    survivors with the exact turn, which bounds the worst case at O(N)."""
    hull, xh, yh = np.arange(x.size), x, y
    for _ in range(_PEEL_PASSES):
        drop = np.flatnonzero(~up(xh, yh))
        if drop.size == 0:
            return hull
        hull = np.delete(hull, drop + 1)
        xh, yh = x[hull], y[hull]
    return hull[_monotone_chain(xh, yh)]


def lower_hull(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the strict lower convex hull of (x, y), x strictly increasing:
    a node on or above the segment between two others is dropped, so
    collinear interior nodes are not kept.  ``_peel`` with the exact turn
    (``_turns_up``) in every pass, so the hull does not depend on rounding;
    a node whose turn is <= 0 is never a hull vertex."""
    return _peel(x, y, _turns_up)


def _slopes_rise(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Whether the float slope rises at each interior node: s[i-1] < s[i]
    for s = diff(y) / diff(x)."""
    s = np.diff(y) / np.diff(x)
    return s[:-1] < s[1:]


def legendre_min(x: np.ndarray, y: np.ndarray, p: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Discrete Legendre transform min_i [y_i + p x_i] for each p, with the
    argmin node index; x strictly increasing.

    Linear-time algorithm (Lucet, Numer. Algorithms 16, 1997): the minimiser
    for p is the lower-hull node whose incoming and outgoing slopes bracket
    -p, found by binary search on the hull slopes.  Any convex chain through
    the hull vertices serves, so ``lower_hull``'s peel runs with the float
    test ``_slopes_rise`` in place of the exact turn: a node stays only if
    the float slope rises there.  Slopes stay in range at any scale (a call
    curve's lie in [-1, 0]), where products of two differences overflow
    past 1e154.  The chain only has to reach the minimiser: the value is
    the smallest of y_i + p x_i over the bracketing node and its two chain
    neighbours (three 1-d passes, ties to the lowest node as in argmin),
    evaluated with the same operations as the brute-force min over all
    nodes, so the two agree bit for bit unless a node off the chain ties
    the minimum to within rounding.  (Exact turns would cost thousands of
    integer-arithmetic turns per call on the near-collinear runs of a
    projected curve.)  Cost O(N + M log N) for N nodes and M values of p.
    """
    hull = _peel(x, y, _slopes_rise)
    xh, yh = x[hull], y[hull]
    # rounding can reverse two nearly equal slopes; searchsorted needs order
    slopes = np.maximum.accumulate(np.diff(yh) / np.diff(xh))
    pos = np.searchsorted(slopes, -p)
    # candidates pos - 1, pos, pos + 1; a later one wins only when strictly lower
    best = np.maximum(pos - 1, 0)
    vals = yh[best] + p * xh[best]
    for cand in (pos, np.minimum(pos + 1, hull.size - 1)):
        v = yh[cand] + p * xh[cand]
        lower = v < vals
        best, vals = np.where(lower, cand, best), np.where(lower, v, vals)
    return vals, hull[best]


def require_uniform(grid: np.ndarray, name: str = "grid") -> float:
    """Validate a strictly increasing, uniformly spaced grid; return the step."""
    steps = np.diff(increasing_grid(grid, name))
    h = float(steps[0])
    if np.max(np.abs(steps - h)) > 1e-9 * max(h, 1.0):
        raise ValidationError(f"{name} must be uniformly spaced")
    return h


def central_diff(values: np.ndarray, idx: int, h: float, order: int) -> float:
    """Derivative of order 1 or 2 at node ``idx`` of a grid with step h by
    central differences, Richardson-extrapolated when two nodes of margin
    are available on both sides."""
    n = values.size
    if idx < 1 or idx > n - 2:
        raise DomainError("need at least one interior node on each side")

    def stencil(j):  # for j = 1, 2 the divisors are 2h, 4h and h h, 4h h exactly
        if order == 1:
            return (values[idx + j] - values[idx - j]) / (2.0 * j * h)
        return (values[idx + j] - 2.0 * values[idx] + values[idx - j]) / (j * j * h * h)

    d_h = stencil(1)
    if idx < 2 or idx > n - 3:
        return float(d_h)
    return float((4.0 * d_h - stencil(2)) / 3.0)


def parse_grid(spec: str) -> np.ndarray:
    """Parse a "lo:hi:count" string into a strictly increasing linspace."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValidationError(f"grid spec must be lo:hi:count, got {spec!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise ValidationError(f"bad grid spec {spec!r}: {exc}") from exc
    if count < 2:
        raise ValidationError("grid needs at least 2 points")
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValidationError(f"grid bounds must satisfy lo < hi, got {spec!r}")
    return np.linspace(lo, hi, count)
