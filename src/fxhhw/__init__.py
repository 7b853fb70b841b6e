"""Pricing engine for European FX options under a four-factor hybrid model:
Heston stochastic volatility for the FX rate plus Hull-White short rates for
the domestic and foreign currencies, with a full correlation matrix.

The backward 4D PDE is discretized in space with localized Gaussian RBF-FD
weights on sinh-stretched tensor grids and advanced in backward time either
by a Chebyshev or Arnoldi matrix-exponential action (constant coefficients)
or an explicit modified midpoint stepper (time-dependent mean-reversion
levels).  A uniform central-difference baseline and a full-truncation Monte
Carlo simulator provide independent validation.
"""

from .errors import (
    AssemblyError,
    ChebyshevError,
    ConditioningError,
    ConfigError,
    FxhhwError,
    GridDegeneracyError,
    InstabilityError,
    InvalidArgumentError,
    KrylovConvergenceError,
    ModelConfigError,
    RangeError,
)
from .grids import AxisSpec, Grid4D, build_grid, uniform_grid
from .model import FellerReport, ModelParams, OptionSpec, correlation_matrix, feller_check
from .stencils import shape_parameters
from .operators import AssembledOperator, assemble_operator, impose_boundaries
from .integrators import (
    KrylovConfig,
    MidpointConfig,
    SpectralReport,
    chebyshev_expm_action,
    estimate_lambda_max,
    krylov_expm_action,
    modified_midpoint_solve,
)
from .pricing import GreeksSlice, SolutionField, greeks, interpolate, price, relative_error, roc
from .mc import McConfig, McEstimate, pathwise_delta, simulate_price
from .config import ExperimentConfig, bundled_config_path, from_dict, from_yaml
from .runner import ExperimentReport, run, surface_export, sweep

__version__ = "0.1.0"

__all__ = [
    "AssembledOperator",
    "AssemblyError",
    "AxisSpec",
    "ChebyshevError",
    "ConditioningError",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentReport",
    "FellerReport",
    "FxhhwError",
    "GreeksSlice",
    "Grid4D",
    "GridDegeneracyError",
    "InstabilityError",
    "InvalidArgumentError",
    "KrylovConfig",
    "KrylovConvergenceError",
    "McConfig",
    "McEstimate",
    "MidpointConfig",
    "ModelConfigError",
    "ModelParams",
    "OptionSpec",
    "RangeError",
    "SolutionField",
    "SpectralReport",
    "assemble_operator",
    "build_grid",
    "bundled_config_path",
    "chebyshev_expm_action",
    "correlation_matrix",
    "estimate_lambda_max",
    "feller_check",
    "from_dict",
    "from_yaml",
    "greeks",
    "impose_boundaries",
    "interpolate",
    "krylov_expm_action",
    "modified_midpoint_solve",
    "pathwise_delta",
    "price",
    "relative_error",
    "roc",
    "run",
    "shape_parameters",
    "simulate_price",
    "surface_export",
    "sweep",
    "uniform_grid",
]
