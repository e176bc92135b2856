"""The four estimation models, behind one simulate / fit / predict path.

Each model is the Lipschitz or the general estimator of one sampling
scheme (its :class:`Family`): many short trajectories (``stubble``) or
one long trajectory (``snake``).  :data:`MODELS` holds all that differs
between the four, so the harness and the CLI never branch on a name.
Estimators and the flow and observe steps of the simulation are looked
up on their modules at call time, never captured here, so wrappers set
on those module attributes see every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import snake, stubble
from .flow import TrajectoryData
from .interp import Stencil
from .localpoly import SingularDesign

__all__ = ["SUCCESSES", "FAILURES", "MODELS", "Prediction", "Predictor"]

SUCCESSES = ("regression", "nearest-neighbor", "interpolated", "fallback")
FAILURES = ("singular", "non-finite")


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

    ``estimate(queries)`` maps the whole stack to ``(values, status,
    stencils)``, one entry per query: in one stacked call for the stubble
    models and ``snake-lip``, one query at a time (`_per_query`) for
    ``snake-gen``.  A query
    whose status is not in :data:`FAILURES` but whose value is not finite
    gets the status ``non-finite``; a stack whose estimate raises
    ``SingularDesign`` fails every query as ``singular``.
    ``curve_points`` is the fitted curve's grid (where ``tube`` queries
    are drawn) for models that reconstruct one.
    """

    estimate: Callable[[np.ndarray], tuple]
    curve_points: np.ndarray | None = None

    def __call__(self, queries: np.ndarray) -> Prediction:
        num = queries.shape[0]
        try:
            values, status, stencils = self.estimate(queries)
        except SingularDesign:  # a stacked fit that cannot be made
            values, status, stencils = np.nan, ("singular",) * num, (None,) * num
        values = np.array(np.broadcast_to(values, queries.shape))  # f maps R^d to R^d
        finite = np.all(np.isfinite(values), axis=1)
        status = tuple(kind if kind in FAILURES or ok else "non-finite"
                       for kind, ok in zip(status, finite.tolist()))
        values[[kind in FAILURES for kind in status]] = np.nan
        return Prediction(values, status, tuple(stencils))


def _per_query(estimate: Callable[[np.ndarray], tuple]) -> Callable[[np.ndarray], tuple]:
    """A stack estimate for :class:`Predictor` from ``estimate(x) ->
    (value, status, stencil)`` of one query, called on each in turn; a
    query that raises ``SingularDesign`` gets the status ``singular``."""

    def each(queries: np.ndarray) -> tuple:
        values = np.full(queries.shape, np.nan)
        status, stencils = [], []
        for q, x in enumerate(queries):
            stencil = None
            try:
                values[q], kind, stencil = estimate(x)
            except SingularDesign:
                kind = "singular"
            status.append(kind)
            stencils.append(stencil)
        return values, status, stencils

    return each


@dataclass(frozen=True)
class Family:
    """What the two models of one sampling scheme share.

    ``trajectory(n, dt)`` keys the noise-free trajectory a sample size
    observes; ``flow`` integrates in one solve the paths of a list of
    sample sizes ``(n, dt)`` with one key, one path per size, and
    ``observe`` adds one replicate's noise to a path; ``record`` gives the
    family's own keys of a stored dataset's meta and ``initials`` reads the
    initial states back from that meta (see :func:`~flowfit.flow.read_dataset`);
    ``error`` reduces one replicate's per-query error norms
    (rmse or sup); ``exponents[regime](b, d)`` is the squared-error
    reference exponent ``e``, times ``(log n)^-e`` when ``log_rate``;
    ``check_n(n, d)`` raises ValueError on a sample size the scheme cannot
    draw, and ``min_n(beta)`` is the smallest sample size a fit of
    smoothness ``beta`` takes.
    """

    name: str
    trajectory: Callable[[int, float], object]
    flow: Callable  # (cfg, fld, beta, [(n, dt), ...]) -> noise-free paths, one per size
    observe: Callable  # (cfg, fld, n, dt, paths, seed) -> dataset
    record: Callable[[TrajectoryData], dict]
    initials: Callable[[dict], np.ndarray]
    default_queries: str
    error: Callable[[np.ndarray], float]
    needs_x1: bool
    exponents: dict[str, Callable[[int, int], Fraction]]
    log_rate: bool
    check_n: Callable[[int, int], object]
    min_n: Callable[[int], int]


@dataclass(frozen=True)
class Model:
    """One estimator: its sampling scheme, its variant, and
    ``fit(cfg, dataset, beta, plans)``.

    ``plans`` is a dict shared by the fits of datasets on one design (the
    replicates of one sample size).  A stubble fit keeps there the design
    halves of its horizons' local fits (see
    :func:`~flowfit.localpoly.lp_coefficients`); a snake fit keeps there
    the design of its curve (see :func:`~flowfit.snake.fit_curve`).  The
    first fit makes them and the others read them.
    """

    family: Family
    lipschitz: bool
    fit: Callable[..., Predictor]  # (cfg, dataset, beta, plans)


def stubble_grid_size(n: int, d: int) -> int:
    n0 = round(n ** (1.0 / d))
    if n0 ** d != n:
        raise ValueError(f"sample size {n} is not a d-th power for d={d}")
    return n0


STUBBLE = Family(
    name="stubble",
    trajectory=lambda n, dt: n,  # the initial grid changes with n
    flow=lambda cfg, fld, beta, sizes: [
        stubble.flow_stubble(fld, stubble_grid_size(n, fld.dim), dt, beta=beta)
        for n, dt in sizes
    ],
    observe=lambda cfg, fld, n, dt, paths, seed: stubble.observe_stubble(
        fld, stubble_grid_size(n, fld.dim), paths, dt, cfg.sigma, seed
    ),
    record=lambda ds: {"beta": ds.n},
    initials=lambda meta: stubble.grid_initials(int(meta["n0"]), int(meta["dim"])),
    default_queries="grid",
    error=lambda errs: float(np.sqrt(np.mean(errs ** 2))),
    needs_x1=False,
    exponents={
        "balanced": lambda b, d: Fraction(-2 * b, 2 * (b + 1) + d),
        "fixed-dt": lambda b, d: Fraction(-2 * b, 2 * b + d),
    },
    log_rate=False,
    check_n=stubble_grid_size,
    min_n=lambda beta: 2,  # the plug-in bandwidth's least
)

SNAKE = Family(
    name="snake",
    trajectory=lambda n, dt: n * dt,  # one path from x1 up to the horizon
    flow=lambda cfg, fld, beta, sizes: snake.flow_snake(fld, cfg.x1, sizes),
    observe=lambda cfg, fld, n, dt, paths, seed: snake.observe_snake(
        fld, paths, dt, cfg.sigma, seed
    ),
    # one trajectory's x1 is a point, as in the config; K of them a list of points
    record=lambda ds: {
        "x1": (ds.initials[0] if len(ds.initials) == 1 else ds.initials).tolist(), "n": ds.n
    },
    initials=lambda meta: meta["x1"],
    default_queries="tube",
    error=lambda errs: float(errs.max()),
    needs_x1=True,
    exponents={
        "fixed-horizon": lambda b, d: Fraction(-2 * b, 2 * (b + 1) + 1),
        "balanced": lambda b, d: Fraction(-2 * b, 2 * (b + 1) + d),
    },
    log_rate=True,
    check_n=lambda n, d: None,
    min_n=lambda beta: beta + 2,  # snake.fit_curve's least
)


def _fit_stubble(cfg, ds, beta: int, plans: dict) -> Predictor:
    # both stubble models: the general estimator on the first `beta` horizons
    regressions = stubble.horizon_regressions(ds, beta, cfg.bandwidth)  # shared by every query

    def estimate(queries):
        values, singular = stubble.estimate_general(regressions, queries, plans)
        status = tuple("singular" if s else "regression" for s in singular.tolist())
        return values, status, (None,) * queries.shape[0]

    return Predictor(estimate)


def _fit_snake_lip(cfg, ds, beta: int, plans: dict) -> Predictor:
    curve = snake.fit_curve(ds, beta=beta, bandwidth=cfg.bandwidth, plans=plans)

    def estimate(queries):
        num = queries.shape[0]
        return (snake.estimate_lipschitz(queries, curve),
                ("nearest-neighbor",) * num, (None,) * num)

    return Predictor(estimate, curve.grid_states)


def _fit_snake_gen(cfg, ds, beta: int, plans: dict) -> Predictor:
    curve = snake.fit_curve(ds, beta=beta, bandwidth=cfg.bandwidth, plans=plans)

    def estimate(x):
        result = snake.estimate_general(x, curve)
        return result.value, result.provenance, result.stencil

    return Predictor(_per_query(estimate), curve.grid_states)


MODELS = {
    "stubble-lip": Model(STUBBLE, lipschitz=True, fit=_fit_stubble),
    "stubble-gen": Model(STUBBLE, lipschitz=False, fit=_fit_stubble),
    "snake-lip": Model(SNAKE, lipschitz=True, fit=_fit_snake_lip),
    "snake-gen": Model(SNAKE, lipschitz=False, fit=_fit_snake_gen),
}
