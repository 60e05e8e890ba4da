"""dunklsim: simulation lab for repelling particle systems in a Weyl chamber.

The model is a stochastic differential equation whose drift contains a
singular repulsion term built from a root system; solutions stay inside
the open chamber.  The package provides implicit theta-Euler schemes (an
exact-drift variant and a capped-drift variant), reproducible Monte Carlo
estimators, and a small CLI around JSON experiment configs.
"""
from .brownian import TimeGrid, batch_increments, coarsen, path_rng
from .coefficients import (CallableDrift, ConstantDrift, DiagonalSigma,
                           LinearDrift, LinearSigma, MatrixSigma, ScalarSigma,
                           ZeroDrift)
from .config import ExperimentConfig, SchemeSettings, load_config, parse_config
from .errors import (ChamberError, ConfigError, DimensionError, DunklSimError,
                     FitError, GridError, ParameterError, PathSolverError,
                     SolverError)
from .mc import (CirReport, ErrorCurve, ExitReport, FitResult, IncrementReport,
                 MomentReport, chamber_exit, cir_mean_check, fit_order,
                 increment_scaling, negative_moments, scheme_gap,
                 squared_mean_ode, strong_error, wilson_interval)
from .model import (AssumptionReport, ModelSpec, bessel_model, capped_inverse,
                    dyson_model, lipschitz_scale, moment_threshold,
                    sample_chamber_points, singular_drift, truncated_drift,
                    type_b_model, validate_assumptions)
from .roots import (AxiomReport, Root, RootSystem, direct_sum, make_type_a,
                    make_type_b, min_pairing, pairing_identity_residual,
                    validate_axioms)
from .scheme import SchemeConfig, audit_batch, run_batch, truncation_level
from .stepping import (SolveReport, closed_form_step_1d, fixed_point_certificate,
                       solve_exact_step, solve_truncated_step, step_residual)
from .timefn import ConstantFn, SqrtAffineFn, TableFn, as_timefn

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport", "AxiomReport", "CallableDrift", "ChamberError",
    "CirReport", "ConfigError", "ConstantDrift", "ConstantFn",
    "DiagonalSigma", "DimensionError", "DunklSimError", "ErrorCurve",
    "ExitReport", "ExperimentConfig", "FitError", "FitResult", "GridError",
    "IncrementReport", "LinearDrift", "LinearSigma", "MatrixSigma",
    "ModelSpec", "MomentReport", "ParameterError", "PathSolverError",
    "Root", "RootSystem", "ScalarSigma", "SchemeConfig", "SchemeSettings",
    "SolveReport", "SolverError", "SqrtAffineFn", "TableFn", "TimeGrid",
    "ZeroDrift", "as_timefn", "audit_batch", "batch_increments",
    "bessel_model", "capped_inverse", "chamber_exit", "cir_mean_check",
    "closed_form_step_1d", "coarsen", "direct_sum", "dyson_model",
    "fit_order", "fixed_point_certificate", "increment_scaling",
    "lipschitz_scale", "load_config", "make_type_a", "make_type_b",
    "min_pairing", "moment_threshold", "negative_moments",
    "pairing_identity_residual", "parse_config", "path_rng", "run_batch",
    "sample_chamber_points", "scheme_gap", "singular_drift",
    "solve_exact_step", "solve_truncated_step", "squared_mean_ode",
    "step_residual", "strong_error", "truncated_drift", "truncation_level",
    "type_b_model", "validate_assumptions", "validate_axioms",
    "wilson_interval",
]
