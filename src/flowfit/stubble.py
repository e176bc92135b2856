"""Field estimation from many short trajectories.

The sampling scheme starts one trajectory at every point of a uniform
grid in ``(0, 1]^d`` and observes each for only a few steps.  Because
the initial states cover the whole cube, the field can be recovered
everywhere: at a query point x the observed increments of nearby
trajectories are locally averaged per horizon, and the averaged
increment curve is differentiated at time zero.

One estimator, :func:`estimate_general`, covers both variants.  It
fits the increments of each horizon ``i = 1..beta`` by a local
polynomial of degree ``beta - 1``, and the derivative at 0
of the polynomial through ``(0, 0)`` and the ``beta`` fits ``h_i`` at
the equally spaced times ``i dt`` is the fixed weighted sum
``(1/dt) sum_i w_i h_i`` with ``w_i = (-1)^(i+1) C(beta, i) / i``
(Fornberg 1988).  With ``beta = 1`` it is the Lipschitz estimator: one
horizon, a local constant fit, and ``h_1 / dt``, which is rate optimal
when only a Lipschitz bound on the field is available.  Larger ``beta``
lifts the rate to the smoothness the field actually has.  The increments,
regression data and bandwidth of each horizon depend only on the
dataset: :func:`horizon_regressions` sets them up once, and
:func:`estimate_general` fits each horizon once for a whole stack of
queries.  The design half of a fit (the initial grid, the bandwidth and
the query stack) is the same for every replicate of one sample size and
every horizon fitted at one bandwidth, so :func:`estimate_general` can
pass a store that keeps it (see :mod:`flowfit.localpoly`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .flow import TrajectoryData, VectorField, integrate_flow_grid, noise_draw
from .localpoly import LocalPolyFit, RegressionData, lp_estimate, optimal_bandwidth

__all__ = [
    "HorizonRegressions",
    "grid_initials",
    "flow_stubble",
    "observe_stubble",
    "horizon_regressions",
    "estimate_general",
    "default_query_points",
]


def grid_initials(n0: int, d: int) -> np.ndarray:
    """The ``n0^d`` grid points ``(k_1/n0, ..., k_d/n0)``, ``k_i in 1..n0``.

    Rows are ordered lexicographically in ``(k_1, ..., k_d)``.
    """
    if n0 < 1 or d < 1:
        raise ValueError("need n0 >= 1 and d >= 1")
    return (np.indices((n0,) * d).reshape(d, -1).T + 1).astype(float) / n0


def flow_stubble(fld: VectorField, n0: int, dt: float, beta: int) -> np.ndarray:
    """The grid initials (row 0, exactly :func:`grid_initials`) and their joint
    noise-free flow at ``i dt``, ``i = 1..beta``: shape ``(beta + 1, n0^d, d)``."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return integrate_flow_grid(fld, grid_initials(n0, fld.dim), [dt * np.arange(beta + 1)])[0]


def observe_stubble(
    fld: VectorField, n0: int, states: np.ndarray, dt: float,
    sigma: float = 0.0, seed: int = 0,
) -> TrajectoryData:
    """Observe the flow of :func:`flow_stubble` after time 0 with one
    ``(m, beta, d)`` Gaussian noise block drawn from `seed` (see
    :func:`~flowfit.flow.noise_draw`)."""
    obs = np.swapaxes(states[1:], 0, 1)  # (m, beta, d)
    obs = obs + noise_draw(sigma, seed, obs.shape)
    meta = dict(field=fld.name, dim=fld.dim, n0=n0, sigma=sigma, seed=seed,
                lip=fld.lip, smoothness=fld.smoothness,
                deriv_bounds=[float(b) for b in fld.derivative_bounds])
    return TrajectoryData(states[0], dt, obs, meta)


def _min_bandwidth(m: int, d: int, degree: int) -> float:
    # Keeps enough grid points inside the ball for the local fit to be
    # nonsingular even without noise.
    return 2.5 * (degree + 1) * m ** (-1.0 / d)


def _horizon_bandwidth(ds: TrajectoryData, horizon: int, beta: int) -> float:
    """Plug-in bandwidth for the degree ``beta - 1`` regression at one horizon.

    The regression target is the increment map at time ``horizon * dt``,
    of smoothness ``beta``, whose derivative scale shrinks with the
    horizon; the effective class constant is ``lip * horizon * dt``.
    """
    sigma = ds.meta.get("sigma")
    lip = ds.meta.get("lip")
    if sigma is None or lip is None:
        raise ValueError(
            "dataset meta lacks 'sigma' or 'lip'; pass an explicit bandwidth"
        )
    m = ds.initials.shape[0]
    floor = _min_bandwidth(m, ds.dim, beta - 1)
    if sigma == 0.0:
        return floor
    l_eff = lip * horizon * ds.dt
    h = optimal_bandwidth(m, ds.dim, beta, sigma, T=1.0, L=l_eff, mode="pointwise")
    return max(h, floor)


def _derivative_weights(beta: int) -> list[float]:
    """Weights ``w_i``, ``i = 1..beta``, with ``p'(0) dt = sum_i w_i p(i dt)`` for
    every polynomial ``p`` of degree ``<= beta`` with ``p(0) = 0``."""
    return [(-1) ** (i + 1) * math.comb(beta, i) / i for i in range(1, beta + 1)]


@dataclass(frozen=True)
class HorizonRegressions:
    """The per-horizon regressions of one dataset, set up once for all
    its queries by :func:`horizon_regressions`.

    One ``(w_i, data, fit)`` per horizon ``i = 1..beta``: the derivative
    weight, the increments at ``i dt`` as regression data on the initial
    grid, and the local polynomial fit (degree and bandwidth).
    """

    dt: float
    horizons: tuple[tuple[float, RegressionData, LocalPolyFit], ...]


def horizon_regressions(
    ds: TrajectoryData, beta: int, bandwidth: float | None = None
) -> HorizonRegressions:
    """Set up the degree ``beta - 1`` regressions of the first `beta`
    horizons of a dataset.

    `bandwidth` is one number for all horizons, or None for the plug-in
    choice per horizon (which needs ``sigma`` and ``lip`` in the dataset
    meta).
    """
    if ds.n < beta:
        raise ValueError(f"the model needs {beta} horizons, but the dataset has {ds.n}")
    return HorizonRegressions(ds.dt, tuple(
        (w, RegressionData(points=ds.initials, targets=ds.increments(i), extent=1.0),
         LocalPolyFit(degree=beta - 1, bandwidth=_horizon_bandwidth(ds, i, beta)
                      if bandwidth is None else float(bandwidth)))
        for i, w in enumerate(_derivative_weights(beta), start=1)
    ))


def estimate_general(
    regressions: HorizonRegressions, x: np.ndarray, plans: dict | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Estimate ``f`` at a ``(Q, d)`` stack of points from all horizons of a
    dataset's `regressions`.

    Per horizon ``i`` one stacked local polynomial fit of the increments
    is evaluated at every point; the estimate is the derivative at time 0
    of the polynomial of degree ``beta`` through these values and the
    exact zero increment at time 0, ``(1/dt) sum_i w_i h_i``.  Returns
    ``(values, singular)``: the ``(Q, d)`` estimates, and the points whose
    fit is singular at some horizon (their values are NaN).  Each row has
    the bits of its point estimated alone.

    With ``beta = 1`` and degree 0 this is the Lipschitz estimator:
    exactly the local constant fit of the first-horizon increments
    divided by ``dt``.

    `plans` is a store of the design halves of the fits, shared by
    datasets on one initial grid, or None to solve the fits here; the
    values are the same bits either way (see
    :func:`~flowfit.localpoly.lp_coefficients`).
    """
    x = np.asarray(x, dtype=float)
    total, singular = None, np.zeros(x.shape[0], dtype=bool)
    for w, data, fit in regressions.horizons:
        values, failed = lp_estimate(x, data, fit, plans)
        term = w * values
        total = term if total is None else total + term
        singular |= failed
    return total / regressions.dt, singular


def default_query_points(d: int, per_dim: int = 5, margin: float = 0.1) -> np.ndarray:
    """Uniform grid of query points over ``[margin, 1 - margin]^d``."""
    if not 0 <= margin < 0.5:
        raise ValueError("margin must be in [0, 0.5)")
    axis = np.linspace(margin, 1.0 - margin, per_dim)
    cols = itertools.product(axis, repeat=d)
    return np.array(list(cols), dtype=float)
