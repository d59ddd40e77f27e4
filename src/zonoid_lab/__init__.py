"""Call-price curves, lift-zonoid boundaries, and the transforms between them.

The package is organized around one duality: the upper boundary of the lift
zonoid of an integrable random variable is a Legendre-type transform of its
call-price function, and vice versa.  On top of that sit two one-parameter
families of marginal laws driven by a log-concave base density (pinned mean
and pinned geometric mean), certificates that a family of laws increases in
convex order, a generalized implied volatility, local-variance extraction,
and a seed-stable Monte Carlo oracle.
"""

from .densities import (ConcavityReport, DensityModel, check_log_concavity,
                        inverse_log_slope, inverse_ratio)
from .errors import (DomainError, RangeError, SingularCurvatureError,
                     UnsupportedError, ValidationError, ZonoidLabError)
from .implied import (ImpliedQuery, implied_y_minimization, implied_y_root,
                      normalized_call, vega_integral)
from .localvol import (LocalVolResult, dupire_from_boundary, dupire_from_calls,
                       localvol_geometric_closed, localvol_linear_closed)
from .mc import (McEstimate, McPropositionReport, SimConfig,
                 empirical_call_curve, exact_boundary, mc_call,
                 mc_check_propositions, simulate_terminal)
from .peacocks import (G_map, H_map, KellererReport, PeacockCertificate,
                       PeacockSpec, SurfaceGrid, TimeChange, boundary_surface,
                       call_surface, certify_peacock, generator_limit_check,
                       group_property_check, recover_F_from_G, recover_F_from_H,
                       surface_boundary)
from .pricing import (ModelParams, bachelier_call, black_scholes_call,
                      family_call_geometric, family_call_geometric_with_flag,
                      family_call_linear, family_call_linear_with_flag,
                      family_prices, geometric_family_curve,
                      linear_family_curve, survival, survival_geometric,
                      survival_linear)
from .zonoid import (CallCurve, DiscreteDistribution, ZonoidBoundary,
                     boundary_from_quantile_integral, calls_from_upper_boundary,
                     check_arithmetic_symmetry, check_convex_order,
                     check_geometric_symmetry, discrete_upper_boundary,
                     inverse_boundary_positive, project_convex_decreasing,
                     upper_boundary_from_calls)

__version__ = "0.1.0"

__all__ = [
    "CallCurve", "ConcavityReport", "DensityModel", "DiscreteDistribution",
    "DomainError", "G_map", "H_map", "ImpliedQuery", "KellererReport",
    "LocalVolResult", "McEstimate", "McPropositionReport", "ModelParams",
    "PeacockCertificate", "PeacockSpec", "RangeError", "SimConfig",
    "SingularCurvatureError", "SurfaceGrid", "TimeChange", "UnsupportedError",
    "ValidationError", "ZonoidBoundary", "ZonoidLabError", "bachelier_call",
    "black_scholes_call", "boundary_from_quantile_integral", "boundary_surface",
    "call_surface", "calls_from_upper_boundary", "certify_peacock",
    "check_arithmetic_symmetry", "check_convex_order", "check_geometric_symmetry",
    "check_log_concavity",
    "discrete_upper_boundary", "dupire_from_boundary", "dupire_from_calls",
    "empirical_call_curve", "exact_boundary", "family_call_geometric",
    "family_call_geometric_with_flag", "family_call_linear",
    "family_call_linear_with_flag", "family_prices",
    "generator_limit_check", "geometric_family_curve", "group_property_check",
    "implied_y_minimization", "implied_y_root", "inverse_boundary_positive",
    "inverse_log_slope", "inverse_ratio", "linear_family_curve",
    "localvol_geometric_closed", "localvol_linear_closed",
    "mc_call", "mc_check_propositions", "normalized_call",
    "project_convex_decreasing", "recover_F_from_G", "recover_F_from_H",
    "simulate_terminal", "surface_boundary", "survival", "survival_geometric",
    "survival_linear", "upper_boundary_from_calls", "vega_integral",
]
