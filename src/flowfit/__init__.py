"""Estimate the right-hand side of an autonomous ODE from noisy trajectories.

The package covers two observation schemes.  In the short-trajectory
scheme many solutions started on a grid are each observed a few steps
(:mod:`flowfit.stubble`); in the long-trajectory scheme one solution is
observed over a long horizon and must be reconstructed before the field
can be read off (:mod:`flowfit.snake`).  Shared machinery lives in
:mod:`flowfit.flow` (integration, synthetic data),
:mod:`flowfit.localpoly` (local polynomial regression), and
:mod:`flowfit.interp` (stable polynomial interpolation);
:mod:`flowfit.harness` runs Monte Carlo rate experiments and
:mod:`flowfit.cli` exposes them on the command line.
"""

from .flow import (
    FlowConfig,
    IntegrationError,
    NoiseSpec,
    Observations,
    Trajectory,
    VectorField,
    increment,
    integrate_flow,
    make_field,
    sample_trajectory,
)
from .harness import (
    ExperimentConfig,
    ExperimentError,
    ExperimentResult,
    QuerySpec,
    RateReport,
    TheoreticalRate,
    fit_rate,
    reference_rate,
    run_experiment,
)
from .interp import Stencil, interp_multivariate, interp_univariate
from .localpoly import (
    KernelSpec,
    LocalPolyFit,
    RegressionData,
    SingularDesign,
    epanechnikov,
    lp_estimate,
    lp_weights,
    optimal_bandwidth,
    uniform_kernel,
)
from .snake import (
    CurveEstimate,
    NoStencilFound,
    SnakeDataset,
    StencilConfig,
    fit_curve,
    generate_snake,
    nn_time,
    select_stencil,
)
from .stubble import (
    IncrementRegressor,
    StubbleDataset,
    generate_stubble,
)

__version__ = "0.1.0"

__all__ = [
    "CurveEstimate",
    "ExperimentConfig",
    "ExperimentError",
    "ExperimentResult",
    "FlowConfig",
    "IncrementRegressor",
    "IntegrationError",
    "KernelSpec",
    "LocalPolyFit",
    "NoStencilFound",
    "NoiseSpec",
    "Observations",
    "QuerySpec",
    "RateReport",
    "RegressionData",
    "SingularDesign",
    "SnakeDataset",
    "Stencil",
    "StencilConfig",
    "StubbleDataset",
    "TheoreticalRate",
    "Trajectory",
    "VectorField",
    "epanechnikov",
    "fit_curve",
    "fit_rate",
    "generate_snake",
    "generate_stubble",
    "increment",
    "integrate_flow",
    "interp_multivariate",
    "interp_univariate",
    "lp_estimate",
    "lp_weights",
    "make_field",
    "nn_time",
    "optimal_bandwidth",
    "reference_rate",
    "run_experiment",
    "sample_trajectory",
    "select_stencil",
    "uniform_kernel",
]
