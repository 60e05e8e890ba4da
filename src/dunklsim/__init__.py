"""dunklsim: simulation lab for repelling particle systems in a Weyl chamber.

The model is a stochastic differential equation whose drift contains a
singular repulsion term built from a root system; solutions stay inside
the open chamber.  The package provides implicit theta-Euler schemes (an
exact-drift variant and a capped-drift variant), reproducible Monte Carlo
estimators, and a small CLI around JSON experiment configs.

The top level exports the names the README documents and the error
types; everything else is reached through its submodule (`dunklsim.mc`,
`dunklsim.brownian`, `dunklsim.model`, ...).
"""
from .config import load_config
from .errors import (ChamberError, ConfigError, DimensionError, DunklSimError,
                     FitError, GridError, ParameterError, PathSolverError,
                     SolverError)
from .mc import (chamber_exit, cir_mean_check, fit_order, increment_scaling,
                 negative_moments, scheme_gap, squared_mean_ode, strong_error)
from .model import bessel_model, dyson_model, sample_chamber_points, type_b_model
from .roots import (RootSystem, direct_sum, make_type_a, make_type_b,
                    pairing_identity_residual, validate_axioms)
from .scheme import SchemeConfig, audit_batch, run_batch
from .stepping import (closed_form_step_1d, fixed_point_certificate,
                       solve_exact_step, solve_truncated_step)
from .timefn import ConstantFn, SqrtAffineFn, TableFn

__version__ = "0.1.0"

__all__ = [
    "ChamberError", "ConfigError", "ConstantFn", "DimensionError",
    "DunklSimError", "FitError", "GridError", "ParameterError",
    "PathSolverError", "RootSystem", "SchemeConfig", "SolverError",
    "SqrtAffineFn", "TableFn", "audit_batch", "bessel_model", "chamber_exit",
    "cir_mean_check", "closed_form_step_1d", "direct_sum", "dyson_model",
    "fit_order", "fixed_point_certificate", "increment_scaling",
    "load_config", "make_type_a", "make_type_b", "negative_moments",
    "pairing_identity_residual", "run_batch", "sample_chamber_points",
    "scheme_gap", "solve_exact_step", "solve_truncated_step",
    "squared_mean_ode", "strong_error", "type_b_model", "validate_axioms",
]
