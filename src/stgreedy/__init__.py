"""Adaptive time-space approximation by greedy bisection.

A numpy/scipy library that builds quasi-optimal partitions of
[0, T) x Omega for scalar fields, measures moduli of smoothness and
Besov seminorms, constructs polynomial and finite element
approximations, and runs the rate experiments tying them together.

Importing the package loads numpy only.  The finite element solves
(``fem``) load two of scipy's compiled modules by file at first use,
its sparsetools and SuperLU, without importing any scipy package.  CSV
fields (``field_from_csv``) import ``scipy.interpolate`` at first use.
"""

from .fields import (DomainSpec, Field, Regularity, FieldError,
                     make_test_field, eval_field, field_from_csv)
from .quadrature import (IntervalRule, SimplexRule, SpatialGrid,
                         gauss_interval_rule, integrate_interval,
                         integrate_domain, x_norm, interval_grid, square_grid)
from .polyspace import (TimeBasis, SlicePoly, orthonormal_time_basis,
                        project_time_slice, best_error, median_constant,
                        jackson_construct, lp_error, slice_approximant,
                        slice_error, node_norm)
from .smoothness import (SmoothnessParams, BesovParams, difference,
                         modulus_sup, modulus_avg, besov_terms,
                         besov_seminorm_discrete, whitney_ratio)
from .mesh1d import (GreedyCapError, greedy_time, complexity_ratio,
                     uniform_time_error)
from .meshnd import (IntervalMesh, TriangleMesh, initial_mesh,
                     refine_bisection, overlay)
from .fem import (FemSpace, FemFunction, GreedySpaceCapError, fem_project,
                  element_indicators, greedy_space)
from .spacetime import (TimeSpacePartition, FullyDiscreteFn,
                        build_fully_discrete, global_error,
                        projection_stability_check)
from .harness import (ExperimentConfig, RateFit, ConfigError, parse_config,
                      fit_rate, run_experiment, emit_report)

__all__ = [
    "DomainSpec", "Field", "Regularity", "FieldError",
    "make_test_field", "eval_field", "field_from_csv",
    "IntervalRule", "SimplexRule", "SpatialGrid", "gauss_interval_rule",
    "integrate_interval", "integrate_domain", "x_norm", "interval_grid",
    "square_grid",
    "TimeBasis", "SlicePoly", "orthonormal_time_basis", "project_time_slice",
    "best_error", "median_constant", "jackson_construct", "lp_error",
    "slice_approximant", "slice_error", "node_norm",
    "SmoothnessParams", "BesovParams", "difference", "modulus_sup",
    "modulus_avg", "besov_terms", "besov_seminorm_discrete", "whitney_ratio",
    "GreedyCapError", "greedy_time", "complexity_ratio",
    "uniform_time_error",
    "IntervalMesh", "TriangleMesh", "initial_mesh", "refine_bisection",
    "overlay",
    "FemSpace", "FemFunction", "GreedySpaceCapError", "fem_project",
    "element_indicators", "greedy_space",
    "TimeSpacePartition", "FullyDiscreteFn", "build_fully_discrete",
    "global_error", "projection_stability_check",
    "ExperimentConfig", "RateFit", "ConfigError", "parse_config", "fit_rate",
    "run_experiment", "emit_report",
]

__version__ = "0.1.0"
