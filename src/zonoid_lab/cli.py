"""Batch command-line front door.

Every subcommand is a thin adapter over the library: it parses flags, calls
the same functions a Python caller would, and writes its CSV or JSON artifact
through a ``curve_io`` writer on ``_sink(--out)``: the same bytes to stdout
(``-``) as to a path.  Exit codes: 0 success, 1 usage error (bad flags, a
path that cannot be opened), 2 validation failure (domain errors, failed
certificates, failed checks).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import curve_io
from .densities import DensityModel, check_log_concavity
from .errors import ValidationError, ZonoidLabError
from .implied import ImpliedQuery, implied_y_minimization, implied_y_root
from .localvol import (dupire_from_boundary, dupire_from_calls,
                       localvol_geometric_closed, localvol_linear_closed)
from .mc import SimConfig, _call_estimates, mc_check_propositions
from .numerics import parse_grid
from .peacocks import (G_map, H_map, PeacockSpec, TimeChange, boundary_surface,
                       call_surface, certify_peacock, recover_F_from_G,
                       recover_F_from_H)
from .pricing import (MODEL_FAMILIES, family_prices, geometric_family_curve,
                      linear_family_curve)
from .zonoid import (CallCurve, DiscreteDistribution, ZonoidBoundary,
                     calls_from_upper_boundary, upper_boundary_from_calls)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that raises instead of exiting so main() can map
    usage problems to exit code 1."""

    def error(self, message):
        raise UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


def _arg(parse, noun: str):
    """An argparse type that applies ``parse``; a ValueError or TypeError it
    raises is reported as bad <noun> '<text>': <reason>."""
    def convert(text: str):
        try:
            return parse(text)
        except (ValueError, TypeError) as exc:
            raise argparse.ArgumentTypeError(f"bad {noun} {text!r}: {exc}")
    return convert


def _table(text: str):
    """``t:v,t:v,...`` pairs for tabulated time changes."""
    pairs = [tuple(float(v) for v in chunk.split(":")) for chunk in text.split(",")]
    if any(len(p) != 2 for p in pairs):
        raise ValueError("each entry must be t:value")
    return pairs


_DENSITY = _arg(DensityModel.from_spec, "density spec")
_GRID = _arg(parse_grid, "grid")
_TABLE = _arg(_table, "table")
_FLOATS = _arg(lambda text: np.array([float(v) for v in text.split(",")]), "float list")


def _sink(path: str):
    """stdout for "-", else the path; the curve_io writers take either."""
    return sys.stdout if path == "-" else path


def _emit_curve(path: str, obj, fmt: str) -> None:
    write = curve_io.write_curve_json if fmt == "json" else curve_io.write_curve_csv
    write(_sink(path), obj)


def _time_change(args) -> TimeChange:
    if args.y_kind == "sqrt":
        return TimeChange.sqrt(args.y_scale)
    if args.y_kind == "linear":
        return TimeChange.linear(args.y_scale)
    if args.y_table is None:
        raise ValidationError("--y-table is required when --y-kind table")
    return TimeChange.from_table(*zip(*args.y_table))


def _add_density_flag(sp) -> None:
    sp.add_argument("--density", type=_DENSITY, default=DensityModel.gaussian())


def _add_marginal_flags(sp) -> None:
    """The --model or --family marginal of price and boundary."""
    sp.add_argument("--model", choices=list(MODEL_FAMILIES))
    sp.add_argument("--family", choices=["linear", "geometric"])
    _add_density_flag(sp)
    sp.add_argument("--s0", type=float, default=1.0)
    sp.add_argument("--sigma", type=float, default=1.0)
    sp.add_argument("--t", type=float, default=1.0)


def _add_spec_flags(sp) -> None:
    """The peacock spec of surface and certify."""
    sp.add_argument("--family", choices=["linear", "geometric"], required=True)
    _add_density_flag(sp)
    sp.add_argument("--s", type=float, default=1.0)
    _add_time_change_flags(sp)


def _add_time_change_flags(sp) -> None:
    sp.add_argument("--y-kind", choices=["sqrt", "linear", "table"], default="sqrt",
                    help="time change family (default sqrt)")
    sp.add_argument("--y-scale", type=float, default=1.0,
                    help="scale of the sqrt/linear time change")
    sp.add_argument("--y-table", type=_TABLE, default=None,
                    help="tabulated time change as t:v,t:v,...")


def _collect_strikes(args, parser) -> np.ndarray:
    vals = list(args.k or [])
    if getattr(args, "k_grid", None) is not None:
        vals.extend(args.k_grid.tolist())
    if not vals:
        parser.error("at least one strike is required (--k or --k-grid)")
    return np.array(vals, dtype=np.float64)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _family_marginal(args):
    """(kind, density, s0, y) of --model (the gaussian family member) or
    --family, at level y = sigma sqrt(t)."""
    if args.t < 0.0:
        raise ValidationError(f"t must be non-negative, got {args.t!r}")
    if args.model is not None:
        kind, density = MODEL_FAMILIES[args.model], DensityModel.gaussian()
    else:
        kind, density = args.family, args.density
    return kind, density, args.s0, args.sigma * math.sqrt(args.t)


def _spec(args) -> PeacockSpec:
    return PeacockSpec(args.family, args.density, args.s, _time_change(args))


def _cmd_price(args, parser) -> int:
    strikes = _collect_strikes(args, parser)
    if (args.model is None) == (args.family is None):
        parser.error("exactly one of --model or --family is required")
    prices, surv, _ = family_prices(*_family_marginal(args), strikes)
    curve_io.write_table(_sink(args.out), ("K", "C", "survival"), strikes, prices, surv)
    return 0


def _build_call_curve(args, parser) -> CallCurve:
    sources = [args.calls is not None, args.model is not None,
               args.family is not None, args.atoms is not None]
    if sum(sources) != 1:
        parser.error("exactly one of --calls, --model, --family, --atoms is required")
    if args.calls is not None:
        curve = curve_io.read_curve_csv(args.calls, mean=args.mean)
        if not isinstance(curve, CallCurve):
            raise ValidationError("--calls file must have header K,C")
        return curve
    if args.atoms is not None:
        if args.weights is None:
            parser.error("--atoms requires --weights")
        dist = DiscreteDistribution(args.atoms, args.weights)
        return dist.call_curve()
    kind, density, s0, y = _family_marginal(args)
    build = linear_family_curve if kind == "linear" else geometric_family_curve
    return build(density, s0, y)


def _cmd_boundary(args, parser) -> int:
    curve = _build_call_curve(args, parser)
    boundary = upper_boundary_from_calls(curve, args.p_grid)
    _emit_curve(args.out, boundary, args.format)
    return 0


def _cmd_calls(args, parser) -> int:
    boundary = curve_io.read_curve_csv(args.boundary, mean=args.mean)
    if not isinstance(boundary, ZonoidBoundary):
        raise ValidationError("--boundary file must have header p,Chat")
    curve = calls_from_upper_boundary(boundary, args.k_grid)
    _emit_curve(args.out, curve, args.format)
    return 0


def _cmd_surface(args, parser) -> int:
    spec = _spec(args)
    if args.space == "zonoid":
        grid = boundary_surface(spec, args.t_grid, args.p_grid)
    else:
        if args.k_grid is None:
            parser.error("--k-grid is required for --space call")
        grid = call_surface(spec, args.t_grid, args.k_grid)
    curve_io.write_surface_csv(_sink(args.out), grid)
    return 0


def _cmd_certify(args, parser) -> int:
    cert = certify_peacock(_spec(args), args.t_grid, args.p_grid)
    curve_io.write_json(_sink(args.out), cert)
    return 0 if cert.ok else 2


def _cmd_implied(args, parser) -> int:
    query = ImpliedQuery(args.density, args.c, args.k)
    if args.method == "min":
        y_star, p_hat = implied_y_minimization(query)
    else:
        y_star, p_hat = implied_y_root(query), None
    curve_io.write_json(_sink(args.out),
                        {"y_star": y_star, "p_hat": p_hat, "method": args.method})
    return 0


def _stencil(flag: str, x: float, h: float, lo: float = -math.inf, hi: float = math.inf):
    """The stencil x + h (-2, ..., 2) of --flag x; ValidationError unless inside [lo, hi]."""
    grid = x + h * np.arange(-2.0, 3.0)
    if grid[0] < lo or grid[-1] > hi:
        raise ValidationError(f"--{flag} {float(x)!r} needs a margin of 2 steps ({2.0 * h!r}) "
                              f"inside [{lo!r}, {hi!r}] for the 5-point stencil")
    return grid


def _cmd_localvol(args, parser) -> int:
    density, family, s0 = args.density, args.family, args.s0
    if args.sigma is not None:
        args.y_scale = args.sigma  # --sigma names the sqrt/linear scale
    tc = _time_change(args)
    if args.source == "closed":
        closed = localvol_linear_closed if family == "linear" else localvol_geometric_closed
        strikes = _collect_strikes(args, parser)
        results = [closed(density, tc, s0, t, k) for t in args.t for k in strikes]
    elif args.source == "calls":
        strikes = _collect_strikes(args, parser)
        spec, k_lo = PeacockSpec(family, density, s0, tc), -math.inf if family == "linear" else 0.0
        results = [dupire_from_calls(call_surface(
            spec, _stencil("t", t, args.h_t, 0.0),
            _stencil("k", k, args.h_k * max(1.0, abs(k)), k_lo)), t, k)
            for t in args.t for k in strikes]
    else:
        if not args.p:
            parser.error("--from boundary requires --p")
        spec = PeacockSpec(family, density, s0, tc)
        results = [dupire_from_boundary(boundary_surface(
            spec, _stencil("t", t, args.h_t, 0.0), _stencil("p", p, args.h_p, 0.0, 1.0)), t, p)
            for t in args.t for p in args.p]
    curve_io.write_table(_sink(args.out), ("t", "K", "sigma_sq", "method"),
                         *zip(*[(r.t, r.strike, r.sigma_sq, r.method) for r in results]))
    return 0


def _cmd_simulate(args, parser) -> int:
    config = SimConfig(args.model, args.t, args.n, args.seed,
                       antithetic=args.antithetic)
    if args.report:
        report = mc_check_propositions(config, pgrid=args.p_grid)
        curve_io.write_json(_sink(args.out), report)
        return 0 if report.ok else 2
    if args.k_grid is None:
        parser.error("--k-grid is required unless --report is given")
    values, errors = _call_estimates(config, args.k_grid)
    curve_io.write_table(_sink(args.out), ("K", "mc_value", "std_error"),
                         args.k_grid, values, errors)
    return 0


def _cmd_recover(args, parser) -> int:
    density = args.density
    anchor = args.anchor
    if anchor is None:
        anchor = float(density.quantile(args.p0))
    if args.mode == "g":
        ps, xs = recover_F_from_G(lambda p: G_map(density, p), anchor,
                                  args.p0, args.p_grid)
        curve_io.write_table(_sink(args.out), ("p", "x"), ps, xs)
    else:
        if not args.x:
            parser.error("--mode h requires --x")
        xs = np.array(args.x, dtype=np.float64)
        probs = recover_F_from_H(lambda y, p: H_map(density, y, p), anchor, args.p0, xs)
        curve_io.write_table(_sink(args.out), ("x", "F"), xs, probs)
    return 0


def _cmd_density_check(args, parser) -> int:
    report = check_log_concavity(args.density)
    curve_io.write_json(_sink(args.out), report)
    return 0 if report.is_concave else 2


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="zonoid-lab",
                     description="Call curves, zonoid boundaries, and their transforms.")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    def add(name, fn, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(fn=lambda args: fn(args, sp))  # its usage errors name the subcommand
        sp.add_argument("--out", default="-", help="output path (default stdout)")
        return sp

    sp = add("price", _cmd_price, "call prices and survival probabilities")
    _add_marginal_flags(sp)
    sp.add_argument("--k", type=float, action="append",
                    help="strike; repeatable")
    sp.add_argument("--k-grid", type=_GRID, default=None,
                    help="strike grid lo:hi:steps")

    sp = add("boundary", _cmd_boundary, "zonoid upper boundary from calls/model/atoms")
    sp.add_argument("--calls", help="CSV with header K,C")
    sp.add_argument("--mean", type=float, default=None)
    _add_marginal_flags(sp)
    sp.add_argument("--atoms", type=_FLOATS, default=None)
    sp.add_argument("--weights", type=_FLOATS, default=None)
    sp.add_argument("--p-grid", type=_GRID, default=None)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")

    sp = add("calls", _cmd_calls, "call curve recovered from a boundary CSV")
    sp.add_argument("--boundary", required=True, help="CSV with header p,Chat")
    sp.add_argument("--mean", type=float, default=None)
    sp.add_argument("--k-grid", type=_GRID, required=True)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")

    sp = add("surface", _cmd_surface, "boundary or call surface over (t, axis)")
    _add_spec_flags(sp)
    sp.add_argument("--t-grid", type=_GRID, required=True)
    sp.add_argument("--space", choices=["zonoid", "call"], default="zonoid")
    sp.add_argument("--p-grid", type=_GRID, default=parse_grid("0:1:201"))
    sp.add_argument("--k-grid", type=_GRID, default=None)

    sp = add("certify", _cmd_certify, "peacock certificate for a surface spec")
    _add_spec_flags(sp)
    sp.add_argument("--t-grid", type=_GRID, default=parse_grid("0.25:4:16"))
    sp.add_argument("--p-grid", type=_GRID, default=None)

    sp = add("implied", _cmd_implied, "generalized implied volatility")
    _add_density_flag(sp)
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--method", choices=["root", "min"], default="root")

    sp = add("localvol", _cmd_localvol, "local variance by Dupire or closed form")
    sp.add_argument("--from", dest="source", choices=["calls", "boundary", "closed"],
                    required=True)
    _add_density_flag(sp)
    sp.add_argument("--family", choices=["linear", "geometric"], required=True)
    sp.add_argument("--s0", type=float, default=1.0)
    sp.add_argument("--sigma", type=float, default=None,
                    help="scale of the sqrt/linear time change (alias of --y-scale)")
    _add_time_change_flags(sp)
    sp.add_argument("--t", type=float, action="append", required=True,
                    help="evaluation time; repeatable")
    sp.add_argument("--k", type=float, action="append")
    sp.add_argument("--k-grid", type=_GRID, default=None)
    sp.add_argument("--p", type=float, action="append",
                    help="probability level for --from boundary; repeatable")
    sp.add_argument("--h-t", type=float, default=1e-3)
    sp.add_argument("--h-k", type=float, default=1e-3)
    sp.add_argument("--h-p", type=float, default=1e-3)

    sp = add("simulate", _cmd_simulate, "Monte Carlo prices or pipeline-check report")
    sp.add_argument("--model", choices=list(MODEL_FAMILIES),
                    required=True)
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--n", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--antithetic", action="store_true")
    sp.add_argument("--k-grid", type=_GRID, default=None)
    sp.add_argument("--report", action="store_true",
                    help="emit the JSON proposition-check report instead of prices")
    sp.add_argument("--p-grid", type=_GRID, default=None)

    sp = add("recover", _cmd_recover, "reconstruct F from its generator or group")
    sp.add_argument("--mode", choices=["g", "h"], default="g")
    _add_density_flag(sp)
    sp.add_argument("--p0", type=float, default=0.5)
    sp.add_argument("--anchor", type=float, default=None,
                    help="x with F(x)=p0 (default: quantile(p0))")
    sp.add_argument("--p-grid", type=_GRID, default=None)
    sp.add_argument("--x", type=float, action="append",
                    help="evaluation point for --mode h; repeatable")

    sp = add("density-check", _cmd_density_check, "log-concavity certificate")
    sp.add_argument("--density", type=_DENSITY, required=True)

    return parser


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "fn", None) is None:
        parser.error("a subcommand is required")
    return args.fn(args)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        code = run(argv)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    except ZonoidLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:  # a path that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
