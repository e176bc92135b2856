"""Estimate the right-hand side of an autonomous ODE from noisy trajectories.

The package covers two observation schemes.  In the short-trajectory
scheme many solutions started on a grid are each observed a few steps
(:mod:`flowfit.stubble`); in the long-trajectory scheme one solution is
observed over a long horizon and must be reconstructed before the field
can be read off (:mod:`flowfit.snake`).  Shared machinery lives in
:mod:`flowfit.flow` (integration, synthetic data, and the one dataset
type both schemes observe, :class:`~flowfit.flow.TrajectoryData`),
:mod:`flowfit.localpoly` (local polynomial regression), and
:mod:`flowfit.interp` (stable polynomial interpolation);
:mod:`flowfit.harness` runs Monte Carlo rate experiments and
:mod:`flowfit.cli` exposes them on the command line.

Importing the package before numpy starts numpy's OpenBLAS with one
thread: the package's linear algebra is too small to gain from more, the
idle workers spin on other cores, and a threaded norm rounds differently
from one thread, so the flow solve's steps would depend on the core
count.  ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
``OMP_NUM_THREADS``, when set, wins, and numpy imported first keeps its
threads; the environment is left as it was.
"""

import os
import sys

# OpenBLAS reads these, in this order, only when numpy loads it
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .flow import (
    IntegrationError,
    TrajectoryData,
    VectorField,
    increment,
    integrate_flow,
    make_field,
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
from .interp import Stencil, interp_multivariate
from .localpoly import (
    LocalPolyFit,
    RegressionData,
    SingularDesign,
    epanechnikov,
    lp_estimate,
    lp_weights,
    optimal_bandwidth,
)
from .snake import (
    CurveEstimate,
    NoStencilFound,
    StencilConfig,
    fit_curve,
    nn_time,
    select_stencil,
)

__version__ = "0.1.0"

__all__ = [
    "CurveEstimate",
    "ExperimentConfig",
    "ExperimentError",
    "ExperimentResult",
    "IntegrationError",
    "LocalPolyFit",
    "NoStencilFound",
    "QuerySpec",
    "RateReport",
    "RegressionData",
    "SingularDesign",
    "Stencil",
    "StencilConfig",
    "TheoreticalRate",
    "TrajectoryData",
    "VectorField",
    "epanechnikov",
    "fit_curve",
    "fit_rate",
    "increment",
    "integrate_flow",
    "interp_multivariate",
    "lp_estimate",
    "lp_weights",
    "make_field",
    "nn_time",
    "optimal_bandwidth",
    "reference_rate",
    "run_experiment",
    "select_stencil",
]
