"""The three shared input rules and the central-difference stencil.

``numerics.increasing_grid`` is the one grid rule, ``numerics.probabilities``
the one [0, 1] rule and ``numerics.real_scalar`` the one rule for a scalar
level, strike or price; every entry point that takes a grid, a probability
or such a scalar goes through them, so each is exercised here through every
entry point.
``numerics.central_diff`` is checked against the two stencils it replaced,
kept below as the oracle.  ``TYPED_RAISES`` reaches each typed-error branch
that no other test runs.
"""

import json
import math

import numpy as np
import pytest

from zonoid_lab.densities import DensityModel, inverse_log_slope, inverse_ratio
from zonoid_lab.errors import DomainError, UnsupportedError, ValidationError
from zonoid_lab.implied import (ImpliedQuery, implied_y_minimization, normalized_call,
                                vega_integral)
from zonoid_lab.localvol import localvol_geometric_closed, localvol_linear_closed
from zonoid_lab.mc import SimConfig, mc_call, mc_check_propositions
from zonoid_lab.numerics import central_diff, probabilities, real_scalar, require_uniform
from zonoid_lab.peacocks import (G_map, H_map, PeacockSpec, SurfaceGrid, TimeChange,
                                 boundary_surface, call_surface, certify_peacock,
                                 generator_limit_check, group_property_check,
                                 recover_F_from_G, recover_F_from_H, surface_boundary)
from zonoid_lab.pricing import (ModelParams, family_prices, geometric_family_curve,
                                linear_family_curve)
from zonoid_lab.zonoid import (CallCurve, DiscreteDistribution, ZonoidBoundary,
                               boundary_from_quantile_integral,
                               calls_from_upper_boundary, check_arithmetic_symmetry,
                               check_convex_order, check_geometric_symmetry,
                               discrete_upper_boundary,
                               inverse_boundary_positive, project_convex_decreasing,
                               upper_boundary_from_calls)

GAUSS = DensityModel.gaussian()
LOGISTIC = DensityModel.logistic()
CURVE = CallCurve.from_grid([-1.0, 0.0, 1.0], [1.0, 0.0, 0.0])
BOUNDARY = ZonoidBoundary.from_grid([0.0, 0.25, 1.0], [0.0, 0.5, 1.0])
DIST = DiscreteDistribution([-1.0, 2.0], [0.25, 0.75])
POSITIVE_DIST = DiscreteDistribution([0.5, 1.5], [0.5, 0.5])
SPEC = PeacockSpec("linear", GAUSS, 0.0, TimeChange.sqrt())
SIM = SimConfig("bachelier", 1.0, 1000, 1)
LINEAR_CURVE = linear_family_curve(GAUSS, 0.0, 1.0)
GEOMETRIC_CURVE = geometric_family_curve(GAUSS, 1.0, 0.7)


def _ramp(grid):
    """Finite, increasing values of the grid's shape, starting at 0."""
    return 0.5 * np.arange(np.size(grid), dtype=np.float64).reshape(np.shape(grid))


# (entry point, fewest points it accepts)
GRID_ENTRY_POINTS = {
    "CallCurve.from_grid": (lambda g: CallCurve.from_grid(g, np.zeros(np.shape(g)), mean=0.0), 2),
    "ZonoidBoundary.from_grid": (lambda g: ZonoidBoundary.from_grid(g, _ramp(g), mean=1.0), 2),
    "DiscreteDistribution": (
        lambda g: DiscreteDistribution(g, np.full(np.shape(g), 1.0 / max(np.size(g), 1))), 1),
    "upper_boundary_from_calls": (lambda g: upper_boundary_from_calls(CURVE, g), 2),
    "calls_from_upper_boundary": (lambda g: calls_from_upper_boundary(BOUNDARY, g), 2),
    "project_convex_decreasing": (lambda g: project_convex_decreasing(g, np.zeros(np.shape(g))), 2),
    "TimeChange.from_table": (lambda g: TimeChange.from_table(g, _ramp(g)), 2),
    "SurfaceGrid.times": (
        lambda g: SurfaceGrid(g, [0.0, 1.0], np.zeros((np.size(g), 2)), "zonoid-space"), 1),
    "SurfaceGrid.axis": (
        lambda g: SurfaceGrid([0.0, 1.0], g, np.zeros((2, np.size(g))), "zonoid-space"), 1),
    "certify_peacock": (lambda g: certify_peacock(SPEC, g), 2),
    "boundary_surface.tgrid": (lambda g: boundary_surface(SPEC, g, [0.0, 1.0]), 1),
    "boundary_surface.pgrid": (lambda g: boundary_surface(SPEC, [1.0], g), 1),
    "call_surface.tgrid": (lambda g: call_surface(SPEC, g, [0.0, 1.0]), 1),
    "call_surface.kgrid": (lambda g: call_surface(SPEC, [1.0], g), 1),
    "require_uniform": (lambda g: require_uniform(g), 2),
}


@pytest.mark.parametrize("entry", sorted(GRID_ENTRY_POINTS))
def test_grid_entry_points_share_one_rule(entry):
    fn, min_size = GRID_ENTRY_POINTS[entry]
    fn(np.array([0.0, 0.5, 1.0]))  # a valid grid passes
    bad = [np.array([0.0, 1.0, 0.5]),                  # not increasing
           np.array([0.0, 0.5, 0.5]),                  # a repeated node
           np.array([[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]]),  # 2-d
           np.linspace(0.0, 1.0, min_size - 1)]        # too short
    for grid in bad:
        with pytest.raises(ValidationError):
            fn(grid)
    with pytest.raises(DomainError):
        fn(np.array([0.0, np.nan, 1.0]))


# calls that once raised TypeError, IndexError or numpy's ValueError, and
# the typed error each raises now
SHAPE_ERRORS = {
    "boundary_surface 0-d tgrid": (lambda: boundary_surface(SPEC, 1.0, [0.0, 1.0]),
                                   ValidationError),
    "call_surface 0-d tgrid": (lambda: call_surface(SPEC, 1.0, [0.0, 1.0]), ValidationError),
    "generator_limit_check 0-d ygrid": (lambda: generator_limit_check(GAUSS, 0.5),
                                        ValidationError),
    "generator_limit_check 2-d pgrid": (
        lambda: generator_limit_check(GAUSS, pgrid=np.full((2, 3), 0.5)), ValidationError),
    "generator_limit_check empty pgrid": (
        lambda: generator_limit_check(GAUSS, pgrid=np.empty(0)), ValidationError),
    "family_prices array level": (
        lambda: family_prices("linear", GAUSS, 0.0, np.array([0.5, 1.0]), 0.1), DomainError),
    "family_prices 1-element level": (
        lambda: family_prices("geometric", GAUSS, 1.0, np.array([0.5]), 0.1), DomainError),
    "family_prices list level": (
        lambda: family_prices("linear", GAUSS, 0.0, [0.5], 0.1), DomainError),
    "family_prices complex level": (
        lambda: family_prices("linear", GAUSS, 0.0, 0.5 + 1j, 0.1), DomainError),
    # a numpy complex level used to price a complex call with a ComplexWarning
    "family_prices numpy complex level": (
        lambda: family_prices("linear", GAUSS, 0.0, np.complex128(0.5 + 1j), 0.1), DomainError),
    "mc_check_propositions 0-d pgrid": (lambda: mc_check_propositions(SIM, pgrid=0.5),
                                        ValidationError),
    "mc_check_propositions empty pgrid": (lambda: mc_check_propositions(SIM, pgrid=np.empty(0)),
                                          ValidationError),
    "mc_check_propositions 2-d pgrid": (
        lambda: mc_check_propositions(SIM, pgrid=np.full((2, 3), 0.5)), ValidationError),
    "mc_check_propositions decreasing pgrid": (
        lambda: mc_check_propositions(SIM, pgrid=[0.6, 0.4]), ValidationError),
    "SimConfig fractional n_paths": (lambda: SimConfig("bachelier", 1.0, 1000.5, 1),
                                     ValidationError),
    "SimConfig float n_paths": (lambda: SimConfig("bachelier", 1.0, 1000.0, 1), ValidationError),
    "SimConfig float seed": (lambda: SimConfig("bachelier", 1.0, 1000, 1.0), ValidationError),
    "mc_call array strike": (lambda: mc_call(SIM, np.array([0.0, 0.1])), DomainError),
    # a complex strike used to price its real part with a ComplexWarning
    "mc_call complex strike": (lambda: mc_call(SIM, 0.1 + 1j), DomainError),
    "normalized_call array strike": (lambda: normalized_call(GAUSS, 0.5, np.array([1.0, 1.1])),
                                     DomainError),
    "vega_integral array strike": (lambda: vega_integral(GAUSS, 0.5, np.array([1.0, 1.1])),
                                   DomainError),
    "ImpliedQuery array price": (lambda: ImpliedQuery(GAUSS, np.array([0.2, 0.3]), 1.0),
                                 DomainError),
    "ImpliedQuery array strike": (lambda: ImpliedQuery(GAUSS, 0.2, np.array([1.0, 1.1])),
                                  DomainError),
    "inverse_boundary_positive list q": (
        lambda: inverse_boundary_positive(POSITIVE_DIST.call_curve(), [0.6]), DomainError),
    "inverse_boundary_positive array q": (
        lambda: inverse_boundary_positive(POSITIVE_DIST.call_curve(), np.array([0.6, 0.7])),
        DomainError),
    "recover_F_from_G array p0": (
        lambda: recover_F_from_G(lambda p: G_map(GAUSS, p), 0.0, np.array([0.4, 0.6])),
        DomainError),
    "recover_F_from_G array anchor": (
        lambda: recover_F_from_G(lambda p: G_map(GAUSS, p), np.array([0.0, 1.0]), 0.5),
        DomainError),
    "recover_F_from_H array p0": (
        lambda: recover_F_from_H(lambda y, p: H_map(GAUSS, y, p), 0.0, np.array([0.4, 0.6]),
                                 1.0), DomainError),
    "recover_F_from_H array anchor": (
        lambda: recover_F_from_H(lambda y, p: H_map(GAUSS, y, p), np.array([0.0, 1.0]), 0.5,
                                 1.0), DomainError),
    "group_property_check array y2": (
        lambda: group_property_check(GAUSS, 0.1, np.array([0.1, 0.2])), DomainError),
    "group_property_check complex y1": (lambda: group_property_check(GAUSS, 0.1 + 1j, 0.1),
                                        DomainError),
    "DiscreteDistribution.boundary_curve 2-d pgrid": (
        lambda: POSITIVE_DIST.boundary_curve(np.full((2, 3), 0.5)), ValidationError),
    "check_convex_order empty kgrid": (
        lambda: check_convex_order(LINEAR_CURVE, LINEAR_CURVE, kgrid=[]), ValidationError),
    "check_arithmetic_symmetry empty kgrid": (
        lambda: check_arithmetic_symmetry(LINEAR_CURVE, kgrid=[]), ValidationError),
    "check_geometric_symmetry empty kgrid": (
        lambda: check_geometric_symmetry(GEOMETRIC_CURVE, kgrid=[]), ValidationError),
    # a complex array used to price its real part outside pytest; a complex
    # list raised TypeError, and a string list was parsed as numbers
    "family_prices complex strike array": (
        lambda: family_prices("linear", GAUSS, 0.0, 1.0, np.array([0.1 + 1j])), ValidationError),
    "G_map complex list": (lambda: G_map(GAUSS, [0.5 + 3j, 0.6]), ValidationError),
    "family_prices string strike list": (
        lambda: family_prices("linear", GAUSS, 0.0, 1.0, ["0.1", "0.2"]), ValidationError),
    # densities cast these itself: a complex entry lost its imaginary part
    # outside pytest, and a string was parsed as a number
    "DensityModel.cdf complex array": (lambda: GAUSS.cdf(np.array([0.5 + 1j])), ValidationError),
    "DensityModel.cdf string list": (lambda: LOGISTIC.cdf(["0.5"]), ValidationError),
    "ratio_range complex level array": (lambda: LOGISTIC.ratio_range(np.array([0.5 + 1j])),
                                        ValidationError),
    "inverse_log_slope complex array": (lambda: inverse_log_slope(GAUSS, np.array([0.5 + 1j])),
                                        ValidationError),
    "inverse_ratio complex ratio array": (
        lambda: inverse_ratio(GAUSS, 2.0, np.array([1.0 + 2j])), ValidationError),
}

# scalar fields and arguments that once let a complex value through, or
# raised TypeError or numpy's ValueError for an array or a string; inf keeps
# the class it always had
SCALAR_ENTRY_POINTS = {
    "SimConfig t": (lambda v: SimConfig("bachelier", v, 1000, 1), ValidationError),
    "DensityModel location": (lambda v: DensityModel("gaussian", v, 1.0), ValidationError),
    "DensityModel scale": (lambda v: DensityModel("gaussian", 0.0, v), ValidationError),
    "PeacockSpec s": (lambda v: PeacockSpec("linear", GAUSS, v, TimeChange.sqrt()),
                      ValidationError),
    "ModelParams s0": (lambda v: ModelParams(v, 1.0, 1.0), ValidationError),
    "TimeChange.sqrt scale": (lambda v: TimeChange.sqrt(v), ValidationError),
    "TimeChange.value t": (lambda v: TimeChange.sqrt().value(v), DomainError),
    "TimeChange.derivative t": (lambda v: TimeChange.linear().derivative(v), DomainError),
    "surface_boundary t": (lambda v: surface_boundary(SPEC, v, 0.5), DomainError),
    "family_prices s": (lambda v: family_prices("linear", GAUSS, v, 0.5, 0.1), DomainError),
}
BAD_SCALARS = {"complex": 1.0 + 1.0j, "array": np.array([0.5, 1.0]), "string": "0.5",
               "inf": math.inf}
SHAPE_ERRORS.update({f"{entry} {kind}": (lambda fn=fn, v=v: fn(v), error)
                     for entry, (fn, error) in SCALAR_ENTRY_POINTS.items()
                     for kind, v in BAD_SCALARS.items()})


@pytest.mark.parametrize("case", sorted(SHAPE_ERRORS))
def test_non_1d_grids_and_array_levels_raise_typed_errors(case):
    fn, error = SHAPE_ERRORS[case]
    with pytest.raises(error):
        fn()


# typed-error branches no other test runs: (call, its error, the message's start)
TYPED_RAISES = {
    "CallCurve.validate right tail": (
        lambda: CallCurve.from_grid([0.0, 1.0, 2.0], [1.5, 0.5, 0.2], mean=1.5).validate(),
        ValidationError, "call curve does not decay at the right endpoint"),
    "ZonoidBoundary mean required": (
        lambda: ZonoidBoundary.from_grid([0.0, 0.5], [0.0, 0.4]),
        ValidationError, "mean is required"),
    "ZonoidBoundary start": (
        lambda: ZonoidBoundary.from_grid([0.0, 0.5, 1.0], [0.1, 0.5, 1.0]).validate(),
        ValidationError, "boundary must start at"),
    "ZonoidBoundary end": (
        lambda: ZonoidBoundary.from_grid([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], mean=2.0).validate(),
        ValidationError, "boundary must end at"),
    "ZonoidBoundary p outside the grid": (
        lambda: ZonoidBoundary.from_grid([0.0, 0.5], [0.0, 0.4], mean=1.0)(0.75),
        DomainError, "p outside the stored boundary grid"),
    "calls_from_upper_boundary strike grid": (
        lambda: calls_from_upper_boundary(ZonoidBoundary.from_grid([0.0, 0.5, 1.0],
                                                                   [0.0, 0.5, 1.0])),
        ValidationError, "cannot infer a strike grid"),
    "boundary_from_quantile_integral target": (
        lambda: boundary_from_quantile_integral("x", 0.5), UnsupportedError,
        "no quantile-integral route"),
    "TimeChange table sizes": (lambda: TimeChange.from_table([0.0, 1.0], [0.0, 1.0, 2.0]),
                               ValidationError, "time change table needs matching"),
    "TimeChange sqrt table": (
        lambda: TimeChange("sqrt", 1.0, np.array([0.0, 1.0]), np.array([0.0, 1.0])),
        ValidationError, "sqrt time change takes no table"),
    "SurfaceGrid shape": (
        lambda: SurfaceGrid([0.0, 1.0], [0.0, 1.0], np.zeros((3, 2)), "zonoid-space"),
        ValidationError, "values must have shape"),
    "SurfaceGrid axis_kind": (
        lambda: SurfaceGrid([0.0, 1.0], [0.0, 1.0], np.zeros((2, 2)), "time-space"),
        ValidationError, "axis_kind must be one of"),
    "DensityModel.from_spec int": (lambda: DensityModel.from_spec(3), ValidationError,
                                   "density spec must be a dict or string"),
    "DensityModel.from_spec custom": (lambda: DensityModel.from_spec({"family": "custom"}),
                                      UnsupportedError, "custom models cannot be built"),
    "localvol_linear_closed Y(t) = 0": (
        lambda: localvol_linear_closed(GAUSS, TimeChange.linear(), 0.0, 0.0, 0.0),
        DomainError, "time change must be positive at t"),
    "localvol_geometric_closed Y(t) = 0": (
        lambda: localvol_geometric_closed(GAUSS, TimeChange.linear(), 1.0, 0.0, 1.0),
        DomainError, "time change must be positive at t"),
    "implied_y_minimization empty range": (
        lambda: implied_y_minimization(ImpliedQuery(GAUSS, 1.0 - 1e-10, 1.0)),
        DomainError, "empty feasible range"),
    # the direct constructors keep the factories' rules
    "ZonoidBoundary neither fn nor grid": (lambda: ZonoidBoundary(1.0)(0.5), ValidationError,
                                           "exactly one of fn and the"),
    "CallCurve neither fn nor grid": (
        lambda: upper_boundary_from_calls(CallCurve(0.0, -1.0, 1.0)), ValidationError,
        "exactly one of fn and the"),
    "CallCurve both fn and grid": (
        lambda: CallCurve(0.5, 0.0, 1.0, fn=lambda k: np.maximum(0.5 - k, 0.0),
                          strikes=np.array([0.0, 1.0]), values=np.array([0.5, 0.0])),
        ValidationError, "exactly one of fn and the"),
    "ZonoidBoundary probs outside [0, 1]": (
        lambda: ZonoidBoundary(1.0, probs=np.array([-1.0, 0.5, 2.0]),
                               values=np.array([0.0, 0.5, 1.0])),
        ValidationError, "probability grid must lie in"),
    "ZonoidBoundary grids of unequal length": (
        lambda: calls_from_upper_boundary(ZonoidBoundary(1.0, probs=np.array([0.0, 0.5, 1.0]),
                                                         values=np.array([0.0, 1.0]))),
        ValidationError, "probability and value grids must be matching"),
    "CallCurve domain off its grid": (
        lambda: CallCurve(0.5, -5.0, 5.0, strikes=np.array([0.0, 0.5, 1.0]),
                          values=np.array([0.5, 0.125, 0.0])),
        ValidationError, "k_lo and k_hi of a grid curve must be its end strikes"),
    # typed errors of zonoid that no other test reaches
    "CallCurve.from_function empty domain": (
        lambda: CallCurve.from_function(lambda k: 0.0 * k, 0.0, (1.0, 1.0)),
        ValidationError, "call curve domain must be a finite interval"),
    "CallCurve.from_grid unequal grids": (
        lambda: CallCurve.from_grid([0.0, 1.0, 2.0], [1.0, 0.0]),
        ValidationError, "strike and value grids must be matching"),
    "ZonoidBoundary.from_grid unequal grids": (
        lambda: ZonoidBoundary.from_grid([0.0, 0.5, 1.0], [0.0, 1.0]),
        ValidationError, "probability and value grids must be matching"),
    "CallCurve.validate closed-form nan": (
        lambda: CallCurve.from_function(lambda k: np.full(np.shape(k), np.nan), 0.0,
                                        (-1.0, 1.0)).validate(),
        ValidationError, "call curve values must be finite"),
    "ZonoidBoundary.validate closed-form inf": (
        lambda: ZonoidBoundary.from_function(lambda p: np.full(np.shape(p), np.inf),
                                             1.0).validate(),
        ValidationError, "boundary values must be finite"),
    "DiscreteDistribution shapes": (lambda: DiscreteDistribution([0.0, 1.0], [1.0]),
                                    ValidationError, "atoms and weights must be matching"),
    "check_arithmetic_symmetry domain": (
        lambda: check_arithmetic_symmetry(DiscreteDistribution([1.0, 2.0], [0.5, 0.5])
                                          .call_curve()),
        DomainError, "need a strike domain straddling 0"),
    "check_geometric_symmetry not positive": (
        lambda: check_geometric_symmetry(DiscreteDistribution([-1.0, 3.0], [0.5, 0.5])
                                         .call_curve()),
        UnsupportedError, "geometric symmetry requires a positive-variable curve"),
    "check_geometric_symmetry domain": (
        lambda: check_geometric_symmetry(CallCurve.from_function(
            lambda k: np.maximum(1.0 - k, 0.0), 1.0, (0.0, 1.0))),
        DomainError, "strike domain must extend beyond 1"),
    # inverse_boundary_positive validates its curve, as both transforms do
    "inverse_boundary_positive non-convex curve": (
        lambda: inverse_boundary_positive(CallCurve.from_grid(
            [0.0, 0.5, 1.0, 1.5, 2.0], [1.0, 0.5, 0.45, 0.0, 0.0], mean=1.0), 0.6),
        ValidationError, "call curve must be convex"),
    "inverse_boundary_positive no strike above 0": (
        lambda: inverse_boundary_positive(CallCurve.from_grid(
            [-2e-5, -1e-5], [2e-5 + 1e-7, 1e-5 + 1e-7], mean=1e-7), 5e-8),
        DomainError, "inverse_boundary_positive needs a grid strike above 0"),
    # the golden route's kernel scan raises what the matrix scan raised
    "calls_from_upper_boundary +inf boundary": (
        lambda: calls_from_upper_boundary(ZonoidBoundary.from_function(
            lambda p: np.where(np.asarray(p) < 1e-6, np.inf, p * (1.0 - p) + 0.5 * p), 0.5)),
        DomainError, "values must be finite"),
    "calls_from_upper_boundary nan at a scan node": (
        lambda: calls_from_upper_boundary(ZonoidBoundary.from_function(
            lambda p: np.where((0.0 < np.asarray(p)) & (np.asarray(p) < 1e-3), np.nan,
                               p * (1.0 - p) + 0.5 * p), 0.5), np.linspace(-1.0, 2.0, 7)),
        DomainError, "the objective is nan inside the domain"),
    "check_geometric_symmetry strikes": (
        lambda: check_geometric_symmetry(DiscreteDistribution([0.5, 1.5], [0.5, 0.5])
                                         .call_curve(), [-1.0, 1.0]),
        DomainError, "strikes must be positive"),
}


@pytest.mark.parametrize("case", sorted(TYPED_RAISES))
def test_typed_error_branches(case):
    fn, error, message = TYPED_RAISES[case]
    with pytest.raises(error, match="^" + message):
        fn()


def test_a_0d_level_is_a_scalar_level():
    assert family_prices("linear", GAUSS, 0.0, np.array(0.5), 0.1) == \
        family_prices("linear", GAUSS, 0.0, 0.5, 0.1)


# a scalar level, strike or price: (entry point taking x, a value it accepts)
SCALAR_ENTRY_POINTS = {
    "family_prices level": (lambda y: family_prices("linear", GAUSS, 0.0, y, 0.1), 0.5),
    "normalized_call strike": (lambda k: normalized_call(GAUSS, 0.5, k), 1.1),
    "vega_integral strike": (lambda k: vega_integral(GAUSS, 0.5, k), 1.1),
    "ImpliedQuery price": (lambda c: ImpliedQuery(GAUSS, c, 1.1), 0.2),
    "ImpliedQuery strike": (lambda k: ImpliedQuery(GAUSS, 0.2, k), 1.1),
    "mc_call strike": (lambda k: mc_call(SIM, k), 0.1),
}
NOT_REAL_SCALARS = [np.nan, np.inf, -np.inf, np.array([0.5]), np.array([[0.5]]), [0.5], (0.5,),
                    0.5 + 0j, np.complex128(0.5), True, np.bool_(True), "0.5", None]


@pytest.mark.parametrize("entry", sorted(SCALAR_ENTRY_POINTS))
def test_scalar_entry_points_share_one_rule(entry):
    fn, x = SCALAR_ENTRY_POINTS[entry]
    fn(x)
    fn(np.float64(x))
    fn(np.array(x))  # a 0-d array is a scalar
    for bad in NOT_REAL_SCALARS:
        with pytest.raises(DomainError):
            fn(bad)


def test_real_scalar_rule():
    for x in (0.5, -2.0, np.float64(0.5), np.float32(0.5), 3, np.int64(-3), np.uint8(3),
              np.array(0.5), np.array(7)):
        got = real_scalar(x, "x")
        assert isinstance(got, float) and got == x
    for bad in NOT_REAL_SCALARS + [10 ** 400]:
        with pytest.raises(DomainError, match=r"^k must be a finite real scalar, got "):
            real_scalar(bad, "k")


# a constructor field: (object built from v, the stored field, what goes to JSON)
FLOAT_FIELDS = {
    "DensityModel location": (lambda v: DensityModel.gaussian(v), lambda m: m.location,
                              lambda m: m.to_spec()),
    "DensityModel scale": (lambda v: DensityModel.gaussian(0.0, v), lambda m: m.scale,
                           lambda m: m.to_spec()),
    "PeacockSpec s": (lambda v: PeacockSpec("linear", GAUSS, v, TimeChange.sqrt()),
                      lambda spec: spec.s,
                      lambda spec: boundary_surface(spec, [1.0], [0.5]).meta),
    "ModelParams s0": (lambda v: ModelParams(v, 1.0, 1.0), lambda m: m.s0,
                       lambda m: {"s0": m.s0}),
    "ModelParams sigma": (lambda v: ModelParams(0.0, v, 1.0), lambda m: m.sigma,
                          lambda m: {"sigma": m.sigma}),
    "ModelParams t": (lambda v: ModelParams(0.0, 1.0, v), lambda m: m.t,
                      lambda m: {"t": m.t}),
    "TimeChange scale": (lambda v: TimeChange.linear(v), lambda tc: tc.scale,
                         lambda tc: {"scale": tc.scale}),
    "SimConfig t": (lambda v: SimConfig("bachelier", v, 1000, 1), lambda c: c.t,
                    lambda c: {"t": c.t}),
}


@pytest.mark.parametrize("entry", sorted(FLOAT_FIELDS))
def test_constructors_store_the_float_of_a_scalar_field(entry):
    build, stored, spec = FLOAT_FIELDS[entry]
    for v in (2, np.int64(2), np.float32(2.0), np.array(2.0), np.array(2)):
        obj = build(v)
        assert type(stored(obj)) is float and stored(obj) == 2.0
        hash(obj)
        assert "2.0" in json.dumps(spec(obj))


# (entry point, its values on [0, 0.5, 1])
PROBABILITY_ENTRY_POINTS = {
    "ZonoidBoundary.__call__": (BOUNDARY, [0.0, 0.6666666666666666, 1.0]),
    "discrete_upper_boundary": (lambda p: discrete_upper_boundary(DIST, p), [0.0, 1.0, 1.25]),
    "boundary_from_quantile_integral": (lambda p: boundary_from_quantile_integral(DIST, p),
                                        [0.0, 1.0, 1.25]),
    "G_map": (lambda p: G_map(GAUSS, p), [0.0, 0.3989422804014327, 0.0]),
    "H_map": (lambda p: H_map(LOGISTIC, 0.5, p), [0.0, 0.6224593312018546, 1.0]),
    "DensityModel.quantile": (LOGISTIC.quantile, [-np.inf, 0.0, np.inf]),
}


@pytest.mark.parametrize("entry", sorted(PROBABILITY_ENTRY_POINTS))
def test_probability_entry_points_share_one_rule(entry):
    fn, expected = PROBABILITY_ENTRY_POINTS[entry]
    assert np.array_equal(fn(np.array([0.0, 0.5, 1.0])), expected)
    for p in (np.nan, -0.1, 1.1):
        with pytest.raises(DomainError):
            fn(p)
        with pytest.raises(DomainError):
            fn(np.array([0.5, p]))


@pytest.mark.parametrize("p", [np.nan, np.inf, -np.inf, -1e-300, np.nextafter(1.0, 2.0),
                               np.array(np.nan), [0.0, np.nan], [[1.0], [-np.inf]]],
                         ids=["nan", "inf", "-inf", "-1e-300", "1+ulp", "0-d nan", "list", "2-d"])
def test_probability_rule_rejects_every_entry_outside_the_interval(p):
    with pytest.raises(DomainError, match=r"^p must lie in \[0, 1\]$"):
        probabilities(p, "p")


def test_probability_rule_accepts_the_closed_interval():
    for p in (-0.0, 0.0, 5e-324, 0.5, np.nextafter(1.0, 0.0), 1.0):
        got = probabilities(p, "p")
        assert got.shape == () and got.dtype == np.float64 and got == p
    assert np.signbit(probabilities(-0.0, "p"))
    assert probabilities([], "p").shape == (0,)
    assert probabilities(np.zeros((0, 3)), "p").shape == (0, 3)
    assert np.array_equal(probabilities([[0.0, 1.0]], "p"), [[0.0, 1.0]])


def test_a_bool_array_reads_as_zeros_and_ones():
    assert np.array_equal(probabilities([True, False], "p"), [1.0, 0.0])
    assert np.array_equal(G_map(GAUSS, np.array([True, False])), G_map(GAUSS, [1.0, 0.0]))


def _central_d1(v, idx, h):
    d_h = (v[idx + 1] - v[idx - 1]) / (2.0 * h)
    if idx < 2 or idx > v.size - 3:
        return float(d_h)
    d_2h = (v[idx + 2] - v[idx - 2]) / (4.0 * h)
    return float((4.0 * d_h - d_2h) / 3.0)


def _central_d2(v, idx, h):
    d_h = (v[idx + 1] - 2.0 * v[idx] + v[idx - 1]) / (h * h)
    if idx < 2 or idx > v.size - 3:
        return float(d_h)
    d_2h = (v[idx + 2] - 2.0 * v[idx] + v[idx - 2]) / (4.0 * h * h)
    return float((4.0 * d_h - d_2h) / 3.0)


@pytest.mark.parametrize("seed", range(5))
def test_central_diff_equals_the_two_former_stencils(seed):
    rng = np.random.default_rng(seed)
    for n in (3, 4, 5, 9):
        v = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
        h = float(10.0 ** rng.uniform(-4, 0))
        for idx in range(1, n - 1):
            assert central_diff(v, idx, h, 1) == _central_d1(v, idx, h)
            assert central_diff(v, idx, h, 2) == _central_d2(v, idx, h)
        for idx in (0, n - 1):
            for order in (1, 2):
                with pytest.raises(DomainError):
                    central_diff(v, idx, h, order)
