"""The four estimation models, behind one simulate / fit / predict path.

Each model is the Lipschitz or the general estimator of one sampling
scheme (its :class:`Family`): many short trajectories (``stubble``) or
one long trajectory (``snake``).  :data:`MODELS` holds all that differs
between the four, so the harness and the CLI never branch on a name.
Estimators and generators are looked up on their modules at call time,
never captured here, so wrappers set on those module attributes see
every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import snake, stubble
from .interp import Stencil
from .localpoly import SingularDesign, epanechnikov, uniform_kernel

__all__ = ["KERNELS", "SUCCESSES", "FAILURES", "MODELS", "Prediction", "Predictor"]

KERNELS = {"epanechnikov": epanechnikov, "uniform": uniform_kernel}
SUCCESSES = ("regression", "nearest-neighbor", "interpolated", "fallback")
FAILURES = ("singular", "no-stencil", "non-finite")


@dataclass(frozen=True)
class Prediction:
    """``values`` (Q, d), NaN where a query failed; one status and one
    stencil (None unless interpolated) per query."""

    values: np.ndarray
    status: tuple[str, ...]
    stencils: tuple[Stencil | None, ...]


@dataclass(frozen=True)
class Predictor:
    """A fitted model, called on a (Q, d) query array.

    ``estimate(x)`` returns ``(value, status, stencil)`` or raises; a
    query that raises ``SingularDesign`` or ``NoStencilFound``, or whose
    value is not finite, gets a status from :data:`FAILURES`.
    ``curve_points`` is the fitted curve's grid (where ``tube`` queries
    are drawn) for models that reconstruct one.
    """

    estimate: Callable[[np.ndarray], tuple]
    curve_points: np.ndarray | None = None

    def __call__(self, queries: np.ndarray) -> Prediction:
        values = np.full(queries.shape, np.nan)  # f maps R^d to R^d
        status, stencils = [], []
        for q, x in enumerate(queries):
            stencil = None
            try:
                value, kind, stencil = self.estimate(x)
            except SingularDesign:
                kind = "singular"
            except snake.NoStencilFound:
                kind = "no-stencil"
            else:
                if np.all(np.isfinite(value)):
                    values[q] = value
                else:
                    kind = "non-finite"
            status.append(kind)
            stencils.append(stencil)
        return Prediction(values, tuple(status), tuple(stencils))


@dataclass(frozen=True)
class Family:
    """What the two models of one sampling scheme share.

    ``to_records`` / ``from_records`` convert a dataset to observation
    records plus meta and back; ``error`` reduces one replicate's
    per-query error norms (rmse or sup); ``exponents[regime](b, d)`` is
    the squared-error reference exponent ``e``, times ``(log n)^-e`` when
    ``log_rate``.
    """

    name: str
    simulate: Callable  # (cfg, fld, beta, n, dt, seed) -> dataset
    to_records: Callable
    from_records: Callable
    default_queries: str
    error: Callable[[np.ndarray], float]
    needs_x1: bool
    exponents: dict[str, Callable[[int, int], Fraction]]
    log_rate: bool


@dataclass(frozen=True)
class Model:
    family: Family
    lipschitz: bool
    fit: Callable[..., Predictor]  # (cfg, dataset, beta)


def stubble_grid_size(n: int, d: int) -> int:
    n0 = round(n ** (1.0 / d))
    if n0 ** d != n:
        raise ValueError(f"sample size {n} is not a d-th power for d={d}")
    return n0


STUBBLE = Family(
    name="stubble",
    simulate=lambda cfg, fld, beta, n, dt, seed: stubble.generate_stubble(
        fld, stubble_grid_size(n, fld.dim), dt,
        sigma=cfg.sigma, seed=seed, noise=cfg.noise, beta=beta,
    ),
    to_records=lambda ds: (
        stubble.to_observations(ds),
        {"kind": "stubble", "dt": ds.dt, "beta": ds.beta, **ds.meta},
    ),
    from_records=lambda obs, meta: stubble.stubble_from_observations(
        obs, dt=float(meta["dt"]), beta=int(meta["beta"]), meta=meta
    ),
    default_queries="grid",
    error=lambda errs: float(np.sqrt(np.mean(errs ** 2))),
    needs_x1=False,
    exponents={
        "balanced": lambda b, d: Fraction(-2 * b, 2 * (b + 1) + d),
        "fixed-dt": lambda b, d: Fraction(-2 * b, 2 * b + d),
    },
    log_rate=False,
)

SNAKE = Family(
    name="snake",
    simulate=lambda cfg, fld, beta, n, dt, seed: snake.generate_snake(
        fld, np.asarray(cfg.x1, dtype=float), n, dt,
        sigma=cfg.sigma, seed=seed, noise=cfg.noise,
    ),
    to_records=lambda ds: (
        snake.to_observations(ds),
        {"kind": "snake", "dt": ds.dt, "x1": list(map(float, ds.x1)), **ds.meta},
    ),
    from_records=lambda obs, meta: snake.snake_from_observations(
        obs, x1=np.asarray(meta["x1"], dtype=float), dt=float(meta["dt"]), meta=meta
    ),
    default_queries="tube",
    error=lambda errs: float(errs.max()),
    needs_x1=True,
    exponents={
        "fixed-horizon": lambda b, d: Fraction(-2 * b, 2 * (b + 1) + 1),
        "balanced": lambda b, d: Fraction(-2 * b, 2 * (b + 1) + d),
    },
    log_rate=True,
)


def _fit_stubble_lip(cfg, ds, beta: int) -> Predictor:
    kernel = KERNELS[cfg.kernel]()
    return Predictor(lambda x: (
        stubble.estimate_lipschitz(ds, x, bandwidth=cfg.bandwidth, kernel=kernel,
                                   bandwidth_constant=cfg.bandwidth_constant),
        "regression", None,
    ))


def _fit_stubble_gen(cfg, ds, beta: int) -> Predictor:
    reg = stubble.IncrementRegressor(
        kernel=KERNELS[cfg.kernel](), bandwidth=cfg.bandwidth,
        bandwidth_constant=cfg.bandwidth_constant,
    )
    return Predictor(lambda x: (stubble.estimate_general(ds, x, reg), "regression", None))


def _fit_curve(cfg, ds, beta: int) -> snake.CurveEstimate:
    return snake.fit_curve(
        ds, beta=beta, kernel=KERNELS[cfg.kernel](), bandwidth=cfg.bandwidth,
        bandwidth_constant=cfg.bandwidth_constant,
    )


def _fit_snake_lip(cfg, ds, beta: int) -> Predictor:
    curve = _fit_curve(cfg, ds, beta)
    return Predictor(lambda x: (snake.estimate_lipschitz(x, curve), "nearest-neighbor", None),
                     curve.grid_states)


def _fit_snake_gen(cfg, ds, beta: int) -> Predictor:
    curve = _fit_curve(cfg, ds, beta)

    def estimate(x):
        result = snake.estimate_general(x, curve, cfg.stencil, fallback=cfg.fallback)
        return result.value, result.provenance, result.stencil

    return Predictor(estimate, curve.grid_states)


MODELS = {
    "stubble-lip": Model(STUBBLE, lipschitz=True, fit=_fit_stubble_lip),
    "stubble-gen": Model(STUBBLE, lipschitz=False, fit=_fit_stubble_gen),
    "snake-lip": Model(SNAKE, lipschitz=True, fit=_fit_snake_lip),
    "snake-gen": Model(SNAKE, lipschitz=False, fit=_fit_snake_gen),
}
