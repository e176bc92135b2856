"""Field estimation from a single long trajectory.

One solution path is observed with noise on an equidistant time grid:
a :class:`~flowfit.flow.TrajectoryData` with K = 1.
Estimation proceeds in two stages: first the path and its velocity are
reconstructed by componentwise local polynomial regression in time
(:func:`fit_curve`), then the field is read off the reconstruction.

At a query point x the simplest estimate is the velocity at the nearest
curve point (:func:`estimate_lipschitz`).  When the field is smoother
than Lipschitz, :func:`estimate_general` interpolates the velocity
between several curve points chosen by :func:`select_stencil` so that x
lies in their convex hull and the interpolation is provably stable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .flow import TrajectoryData, VectorField, integrate_flow_grid, noise_draw
from .interp import HULL_RTOL, SINGULAR_RTOL, Stencil, in_hull, interp_multivariate
from .interp import min_norm_point, stability_norm
from .localpoly import (
    LocalPolyFit,
    RegressionData,
    SingularDesign,
    lp_coefficients,
    lp_weights,
    monomial_basis,
    n_basis,
    optimal_bandwidth,
)

__all__ = [
    "CurveEstimate",
    "StencilConfig",
    "GeneralEstimate",
    "NoStencilFound",
    "flow_snake",
    "observe_snake",
    "fit_curve",
    "nn_time",
    "estimate_lipschitz",
    "select_stencil",
    "check_stencil",
    "estimate_general",
    "delta_nn",
]


class NoStencilFound(Exception):
    """No admissible interpolation stencil exists near the query point.

    Signals that the point is outside the region where the curve
    supports stable multivariate interpolation.
    """


def flow_snake(
    fld: VectorField, x1: np.ndarray, sizes: Sequence[tuple[int, float]]
) -> list[np.ndarray]:
    """The noise-free paths ``u(i dt)``, ``i = 0..n``, of the sample sizes
    ``(n, dt)`` in `sizes`, all read off one continued integration from
    ``u(0) = x1`` (row 0, exactly): one ``(n + 1, 1, d)`` array each.  The
    sizes must share their horizon ``n dt``; each path is, bit for bit,
    the one its size alone would give."""
    for n, dt in sizes:
        if n < 1:
            raise ValueError("n must be at least 1")
        if dt <= 0:
            raise ValueError("dt must be positive")
    x1 = np.asarray(x1, dtype=float)
    return integrate_flow_grid(fld, x1[None, :], [dt * np.arange(n + 1) for n, dt in sizes])


def observe_snake(
    fld: VectorField, path: np.ndarray, dt: float,
    sigma: float = 0.0, seed: int = 0,
) -> TrajectoryData:
    """Observe the path of :func:`flow_snake` after time 0 with one
    ``(1, n, d)`` Gaussian noise block drawn from `seed` (see
    :func:`~flowfit.flow.noise_draw`)."""
    obs = np.swapaxes(path[1:], 0, 1)  # (1, n, d)
    obs = obs + noise_draw(sigma, seed, obs.shape)
    meta = dict(field=fld.name, dim=fld.dim, n=obs.shape[1], sigma=sigma,
                seed=seed, lip=fld.lip, smoothness=fld.smoothness,
                deriv_bounds=[float(b) for b in fld.derivative_bounds])
    return TrajectoryData(path[0], dt, obs, meta)


@dataclass(frozen=True)
class CurveEstimate:
    """Reconstructed path and velocity, with a cached evaluation grid.

    ``u`` and ``du`` are defined on all of ``[0, T]``; each maps one
    time to a state ``(d,)`` and a stack of times ``(Q,)`` to ``(Q, d)``.
    `grid_states`
    caches ``u`` on `grid_times`, which for a fitted curve are
    observation times from 0 to T.  The nearest-time search reads only
    this grid, and the stencil search draws its candidates from it.
    `degree` is the polynomial degree behind the fit (equal to the
    smoothness order used, at least 1); stencil selection for this
    curve interpolates with degree ``degree - 1``.
    """

    u: Callable[[float | np.ndarray], np.ndarray]
    du: Callable[[float | np.ndarray], np.ndarray]
    horizon: float
    degree: int
    grid_times: np.ndarray
    grid_states: np.ndarray
    bandwidth: float | None = None

    def boundary(self, t: float) -> bool:
        """Whether ``t`` lies in a one-sided window at either end."""
        if self.bandwidth is None:
            return False
        return t < self.bandwidth or t > self.horizon - self.bandwidth

    @classmethod
    def from_functions(
        cls,
        u: Callable[[float], np.ndarray],
        du: Callable[[float], np.ndarray],
        horizon: float,
        degree: int,
        resolution: int = 64,
    ) -> "CurveEstimate":
        """Wrap exact (or externally fitted) evaluators of one time each,
        mapped over a stack of times.

        ``resolution`` is the number of cached grid points per unit
        time.  No boundary windows are flagged.
        """
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if resolution < 1:
            raise ValueError("resolution must be a positive integer")

        def each(f: Callable[[float], np.ndarray]) -> Callable:
            def stacked(t):
                t = np.asarray(t, dtype=float)
                if t.ndim == 0:
                    return np.asarray(f(t.item()), dtype=float)
                return np.array([f(s) for s in t.tolist()], dtype=float)
            return stacked

        num = max(2, math.ceil(resolution * horizon) + 1)
        grid = np.linspace(0.0, horizon, num)
        u, du = each(u), each(du)
        return cls(u=u, du=du, horizon=horizon, degree=degree,
                   grid_times=grid, grid_states=u(grid))


# Grid points cached per bandwidth-length of time; keeps the argmin
# discretization error well below the statistical error of the fit.
GRID_PER_BANDWIDTH = 16

# A widening step and cap for one-sided boundary windows that come up
# short of regression points.
WIDEN_FACTOR = 1.5
MAX_WIDENINGS = 8


def _widened_fits(
    times: np.ndarray, data: RegressionData, degree: int, bandwidth: float,
    plans: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients ``(..., N, d)`` of the curve fit at each of `times`
    (one time or a stack), and the bandwidth ``(...)`` each one held at.

    One stacked fit per bandwidth: the times whose design is singular are
    fitted again at `WIDEN_FACTOR` times the bandwidth, at most
    `MAX_WIDENINGS` bandwidths in all, after which SingularDesign is raised.
    `plans`, if given, keeps the design half of each of these fits (see
    :func:`~flowfit.localpoly.lp_coefficients`); the bits are the same
    either way.
    """
    shape = np.shape(times)
    stack = np.asarray(times, dtype=float).reshape(-1, 1)
    theta = np.empty((stack.shape[0], degree + 1, data.targets.shape[1]))
    held = np.empty(stack.shape[0])
    rows = np.arange(stack.shape[0])
    h = bandwidth
    for _ in range(MAX_WIDENINGS):
        coef, singular = lp_coefficients(stack[rows], data, LocalPolyFit(degree, h), plans)
        theta[rows[~singular]] = coef[~singular]
        held[rows[~singular]] = h
        rows = rows[singular]
        if rows.size == 0:
            return theta.reshape(shape + theta.shape[1:]), held.reshape(shape)
        h *= WIDEN_FACTOR
    raise SingularDesign(0.0, stack[rows[0]])


def _curve_bandwidth(ds: TrajectoryData, beta: int) -> float:
    """Sup-norm-mode plug-in bandwidth for the curve regression.

    The fitted path has smoothness ``beta + 1`` with derivative bounds
    inherited from the field; the class constant used is
    ``beta! * max(L_1..L_beta) ** (beta + 1)``.
    """
    floor = 1.25 * (beta + 1) * ds.dt
    sigma = ds.meta.get("sigma")
    bounds = ds.meta.get("deriv_bounds")
    if sigma is None or bounds is None:
        raise ValueError(
            "dataset meta lacks 'sigma' or 'deriv_bounds'; pass an explicit bandwidth"
        )
    if sigma == 0.0:
        return floor
    lcurve = math.factorial(beta) * max(bounds[1:beta + 1]) ** (beta + 1)
    h = optimal_bandwidth(ds.n, 1, beta + 1, sigma, T=ds.horizon, L=lcurve, mode="supnorm")
    return min(max(h, floor), ds.horizon)


def _filter_weights(
    t: np.ndarray, data: RegressionData, beta: int, bandwidth: float
) -> tuple[list[float], np.ndarray]:
    """The bandwidths tried for the interior filter, from `bandwidth` on,
    and its weights: the fit's at the time ``t`` ``(1,)``, at the last
    bandwidth tried, the first that holds there."""
    # lp_weights raises SingularDesign on exactly the designs that `_widened_fits`
    # widens, as both take localpoly's one block solve
    tried = [bandwidth]
    while True:
        try:
            return tried, lp_weights(t, data, LocalPolyFit(beta, tried[-1]))
        except SingularDesign:
            if len(tried) == MAX_WIDENINGS:
                raise
            tried.append(tried[-1] * WIDEN_FACTOR)


def fit_curve(
    ds: TrajectoryData,
    beta: int,
    bandwidth: float | None = None,
    plans: dict | None = None,
) -> CurveEstimate:
    """Reconstruct the path and its velocity from the observations of a
    dataset with one trajectory (K = 1; any other K is refused).

    Componentwise local polynomial regression in time of degree
    ``beta >= 1``.  A call of ``u`` or ``du`` on one time or a stack
    of times fits all of them together (`_widened_fits`), with the same
    bits as fitting each time alone.  Windows that touch the ends of
    ``[0, T]`` are one-sided; a time whose window has too few points to
    determine the fit is fitted again with the window widened by factors
    of 1.5, and times within one bandwidth of either end are flagged by
    ``boundary``.

    The observation times are 1-D and nondecreasing, so each fit scans
    only the observations within reach of its bandwidth (see
    :mod:`flowfit.localpoly`); the result is the same as a full scan.

    The cached grid is every ``max(1, floor(h / (16 dt)))``-th observation
    time, and ``T``.  Where the window lies inside ``[0, T]`` the grid fit
    is one fixed filter of the observations, its equivalent kernel (Fan &
    Gijbels 1996, sec. 3.2), equal to the per-point fit up to rounding.
    The filter is one product per coordinate, the sliding windows of the
    coordinate's observations at the grid stride times the filter's
    taps; it adds each time's terms in tap order.  A lone interior time
    is fitted instead.  The filter's weights are the fit's at the middle
    observation, solved once, at the bandwidth that holds there.  The
    grid times that the filter does not cover (those within one bandwidth
    of an end, and more when the middle widened) are fitted in one
    stacked call.

    `plans` is a store of the curve's design, shared by datasets on one
    time grid (the replicates of one sample size), or None to solve it
    here; the curve has the same bits either way.  It keeps the design
    halves of the grid fits (see `_widened_fits`), and the filter's
    weights with the bandwidths tried, under ``("filter",
    LocalPolyFit(beta, bandwidth))``.  ``u`` and ``du`` never read it:
    the times they fit depend on the data.
    """
    if ds.initials.shape[0] != 1:
        raise ValueError(f"fit_curve fits one trajectory, but the dataset has K = "
                         f"{ds.initials.shape[0]}")
    if beta < 1:
        raise ValueError("beta must be at least 1")
    if ds.n < beta + 2:
        raise ValueError(f"need at least beta + 2 = {beta + 2} observations")
    if bandwidth is None:
        bandwidth = _curve_bandwidth(ds, beta)
    plans = {} if plans is None else plans  # without a store, one of this call's own
    times = ds.times  # a property that builds the grid anew on each read
    data = RegressionData(points=times[:, None], targets=ds.states[0], extent=ds.horizon)

    def u(t: float | np.ndarray) -> np.ndarray:
        return _widened_fits(t, data, beta, bandwidth)[0][..., 0, :]

    def du(t: float | np.ndarray) -> np.ndarray:
        theta, held = _widened_fits(t, data, beta, bandwidth)
        return theta[..., 1, :] / held[..., None]

    stride = max(1, math.floor(bandwidth / (GRID_PER_BANDWIDTH * ds.dt)))
    idx = np.append(np.arange(0, ds.n, stride), ds.n)
    grid = times[idx]
    # the filter is the fit's weights at the middle observation, at the bandwidth
    # that holds there
    mid = ds.n // 2
    key = ("filter", LocalPolyFit(beta, bandwidth))
    if key not in plans:
        plans[key] = _filter_weights(times[mid:mid + 1], data, beta, bandwidth)
    tried, weights = plans[key]
    # where an offset k dt meets a bandwidth tried, rounding decides if a fit keeps that point
    tie = any(abs(round(b / ds.dt) * ds.dt - b) <= 1e-12 * (ds.horizon + b) for b in tried)
    held = tried[-1]
    inner = (grid >= held) & (grid <= ds.horizon - held) & (not tie)
    inner &= inner.sum() > 1  # one row would make the product a BLAS dot, added in another order
    states = np.empty((idx.size, ds.dim))
    if inner.any():
        lo, hi = idx[inner][[0, -1]] - mid
        a, b = np.flatnonzero(weights)[[0, -1]] + (0, 1)
        # the rows overlap (stride < b - a), so numpy adds each row's terms in tap order
        for j, col in enumerate(np.ascontiguousarray(data.targets.T)):
            rows = sliding_window_view(col, b - a)[lo + a:hi + a + 1:stride]
            states[inner, j] = rows @ weights[a:b]
    # the times near the ends, more when the middle widened, all on a tie
    states[~inner] = _widened_fits(grid[~inner], data, beta, bandwidth, plans)[0][:, 0, :]
    return CurveEstimate(
        u=u, du=du, horizon=ds.horizon, degree=beta,
        grid_times=grid, grid_states=states, bandwidth=bandwidth,
    )


# Largest block of squared distances (queries x grid times x dimension) one
# nearest-time search holds at a time.
DISTANCE_BLOCK = 32768


def _squared_distances(points: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Squared distances ``(Q, M)`` from each point of the stack ``x``
    ``(Q, d)`` to each of ``points`` ``(M, d)``.

    They are summed one coordinate at a time over the whole block, in the
    order in which ``np.sum`` adds fewer than 8 terms; from 8 coordinates
    on, ``np.sum`` adds pairwise, and a distance may differ from it in the
    last bit.
    """
    d2 = (points[:, 0] - x[:, :1]) ** 2
    for k in range(1, x.shape[1]):
        d2 = d2 + (points[:, k] - x[:, k:k + 1]) ** 2
    return d2


def _nearest_grid_times(curve: CurveEstimate, x: np.ndarray) -> np.ndarray:
    """`nn_time` of each point of the stack ``x`` ``(Q, d)``."""
    times = curve.grid_times
    d2 = _squared_distances(curve.grid_states, x)
    rows = np.arange(x.shape[0])
    k = np.argmin(d2, axis=1)
    out = times[k]
    if times.size < 3:
        return out
    j = np.clip(k, 1, times.size - 2)  # centre of three grid times, inside the grid
    t0, t1, t2 = times[j - 1], times[j], times[j + 1]
    f0, f1, f2 = d2[rows, j - 1], d2[rows, j], d2[rows, j + 1]
    p = (t1 - t0) ** 2 * (f1 - f2) - (t1 - t2) ** 2 * (f1 - f0)
    q = (t1 - t0) * (f1 - f2) - (t1 - t2) * (f1 - f0)
    # q < 0 exactly when the parabola is convex
    vertex = (q < 0.0) & (d2[rows, k] != 0.0)
    lo, hi = times[np.maximum(k - 1, 0)], times[np.minimum(k + 1, times.size - 1)]
    out[vertex] = np.clip(t1[vertex] - 0.5 * p[vertex] / q[vertex], lo[vertex], hi[vertex])
    return out


def nn_time(curve: CurveEstimate, x: np.ndarray) -> float | np.ndarray:
    """Time of the curve point nearest to ``x``, without refitting the curve.

    The argmin over the cached grid (ties broken by smallest time) is
    refined to the vertex of the parabola through the squared distances
    at three consecutive grid times around it (Brent 1973, ch. 5),
    clipped to the neighbouring grid times.  A query lying exactly on a
    cached curve point, or whose parabola is not convex, gets the grid
    time unchanged.  A stack of points ``(Q, d)`` gets its ``Q`` times,
    searched in blocks of at most `DISTANCE_BLOCK` squared distances.
    """
    x = np.asarray(x, dtype=float)
    stack = x.reshape(-1, x.shape[-1])
    step = max(1, DISTANCE_BLOCK // curve.grid_states.size)
    out = np.concatenate([
        _nearest_grid_times(curve, stack[k:k + step]) for k in range(0, stack.shape[0], step)
    ])
    return float(out[0]) if x.ndim == 1 else out


def estimate_lipschitz(x: np.ndarray, curve: CurveEstimate) -> np.ndarray:
    """Velocity of the reconstructed path at the point nearest to ``x``,
    one point ``(d,)`` or each of a stack ``(Q, d)``.

    Total on all of space; the error grows with the distance from ``x``
    to the path, so quality is only guaranteed near the trajectory.
    """
    return np.asarray(curve.du(nn_time(curve, x)), dtype=float)


@dataclass(frozen=True)
class StencilConfig:
    """Tuning constants of the stencil search.

    ``s`` caps the admissible stability certificate at ``2 s``.  The
    search examines at most `pool_size` candidate curve times: the half
    nearest to the query in state space plus an even stride across the
    whole time range, so both tight and wide stencils are reachable.
    Up to three seeds are scored, then improved by at most `sweeps`
    rounds of single-point swaps, each round trying every position of
    the stencil once; with ``sweeps = 0`` the best admissible seed is
    taken (see `select_stencil`).
    """

    s: float = 50.0
    pool_size: int = 64
    sweeps: int = 2

    def __post_init__(self) -> None:
        if self.s <= 0:
            raise ValueError("s must be positive")
        if self.pool_size < 2:
            raise ValueError("pool_size must be at least 2")
        if self.sweeps < 0:
            raise ValueError("sweeps must be nonnegative")


DEFAULT_STENCIL_CONFIG = StencilConfig()


def _hull_contains(points: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Whether ``x[k]`` lies in the convex hull of ``points[k]``, for a
    stack of normalised subsets ``(P, N, d)`` and queries ``(P, d)``.

    Closed-hull membership, to within `HULL_RTOL`, without building a
    hull: min/max in d = 1; for triangles in the plane the signed
    distance from x to each edge line, positive on the side of the
    opposite vertex; for simplices in d >= 3 the barycentric
    coordinates, turned into distances to the facets; otherwise the
    distance to the hull, from the weights of
    :func:`~flowfit.interp.min_norm_point`, one subset at a time.  A
    simplex whose matrix of barycentric coordinates is exactly singular
    (for a triangle: of area 0) is outside.
    """
    num_subsets, num, d = points.shape
    if d == 1:
        coord = points[..., 0]
        return (coord.min(axis=1) <= x[:, 0]) & (x[:, 0] <= coord.max(axis=1))
    if num == 3 and d == 2:
        # edge k joins the two vertices other than k; the cross products
        # (p_j - p_i) x (q - p_i) are |edge| times the distances to its line
        start, end = points[:, [1, 2, 0]], points[:, [2, 0, 1]]
        edge = end - start
        rel = x[:, None, :] - start
        cross = edge[..., 0] * rel[..., 1] - edge[..., 1] * rel[..., 0]
        area = edge[:, 1, 0] * edge[:, 2, 1] - edge[:, 1, 1] * edge[:, 2, 0]
        length = np.sqrt(edge[..., 0] ** 2 + edge[..., 1] ** 2)
        inside = np.all(np.sign(area)[:, None] * cross >= -HULL_RTOL * length, axis=1)
        return inside & (area != 0.0)
    if num == d + 1:
        # column k of mat is (p_k, 1); row k of its inverse is the affine
        # map lambda_k, whose gradient norm turns it into a facet distance
        mat = np.concatenate([points.transpose(0, 2, 1), np.ones((num_subsets, 1, num))], axis=1)
        # inv raises for the whole stack on one exactly singular matrix, whose
        # LU factors (the same in det) have a zero pivot
        regular = np.linalg.det(mat) != 0.0
        inv = np.full_like(mat, np.nan)
        inv[regular] = np.linalg.inv(mat[regular])
        # a nearly singular matrix may give a NaN or infinite slack; it is the
        # node matrix, transposed, so its key has violation 1 either way
        with np.errstate(invalid="ignore", divide="ignore"):
            lam = np.matmul(inv, np.concatenate([x, np.ones((num_subsets, 1))], axis=1)[..., None])
            slack = lam[..., 0] / np.linalg.norm(inv[:, :, :d], axis=2)
        return np.all(slack >= -HULL_RTOL, axis=1)
    rel = points - x[:, None, :]
    return np.array([
        np.linalg.norm(min_norm_point(r) @ r) <= HULL_RTOL for r in rel
    ], dtype=bool)


@functools.lru_cache(maxsize=None)
def _pairs(num: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs ``i < j`` of an N-point subset, made once per N and
    shared read-only by every call."""
    pairs = np.triu_indices(num, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _subset_keys(
    points: np.ndarray, x: np.ndarray, ell: int, settled: np.ndarray | None = None
) -> np.ndarray:
    """Search ranking of each subset of ``(P, N, d)``: hull violation
    first, then the objective.

    Rows ``(violation, objective, stability, diameter)`` of a ``(4, P)``
    array, where ``violation`` is 0 when x is in the hull and the node
    matrix is nonsingular, else 1.  The objective is
    ``stability * diam ** (ell + 1)``, infinite with the stability when
    the node matrix is singular.  ``stability`` equals
    :func:`~flowfit.interp.stability_norm` bit for bit, from a batched
    SVD; hull membership is decided on the normalised stencil by
    `_hull_contains`.  Each subset's key has the bits of that subset
    scored alone.

    Where the hull test is cheaper than the SVD (d = 1, and simplices,
    N = d + 1), it comes first, and the SVD is taken only where its
    result is read.  `settled`, if given, splits the subsets into
    ``G = len(settled)`` equal groups in order, the swaps of one chain
    step each, and tells whether that chain's current subset has
    violation 0.  A subset outside the hull of a settled group, or of a
    group with a subset of violation 0, can neither win the group's move
    nor be admitted: it keeps violation 1 and an infinite objective and
    stability, without an SVD.  Every other subset gets its full key.
    Other subsets (in d >= 2, N > d + 1) all take the SVD first, and the
    hull test only when the node matrix is nonsingular.
    """
    num_subsets, num, d = points.shape
    first, second = _pairs(num)
    diff = points[:, first] - points[:, second]
    # two diameters on purpose: the key rounds like np.linalg.norm of one pair,
    # the scale like interp._diameter
    sq = np.matmul(diff[..., None, :], diff[..., :, None])[..., 0, 0]
    keys = np.full((4, num_subsets), math.inf)
    keys[0] = 1.0
    keys[3] = diam = np.sqrt(sq).max(axis=1, initial=0.0)
    live = np.flatnonzero(diam > 0.0)
    if not live.size:
        return keys
    pts = points[live]
    centroid = np.add.reduce(pts, axis=1) / num  # np.mean's sum and division
    scale = np.linalg.norm(diff[live], axis=2).max(axis=1)
    normalized = (pts - centroid[:, None, :]) / scale[:, None, None]
    query = (x - centroid) / scale[:, None]

    def score(among: np.ndarray) -> np.ndarray:
        """Stability and objective of the live subsets `among`; returns
        those with a nonsingular node matrix."""
        sing = np.linalg.svd(monomial_basis(normalized[among], ell), compute_uv=False)
        regular = sing[:, -1] > SINGULAR_RTOL * sing[:, 0]
        stab = np.full(among.size, math.inf)
        stab[regular] = 1.0 / sing[regular, -1]
        good = np.isfinite(stab)
        rows, stab = live[among[good]], stab[good]
        keys[2, rows] = stab
        # Python's float power, the C library's pow, as for one subset alone:
        # numpy's vectorised power may round the last bit otherwise
        keys[1, rows] = stab * (diam[rows].astype(object) ** (ell + 1)).astype(float)
        return among[good]

    if d > 1 and num != d + 1:  # one min-norm run per subset costs more than its SVD
        good = score(np.arange(live.size))
        keys[0, live[good]] = ~_hull_contains(normalized[good], query[good])
        return keys
    inside = _hull_contains(normalized, query)
    keys[0, live[score(np.flatnonzero(inside))]] = 0.0
    outside = ~inside
    if settled is not None:  # only the groups with no subset of violation 0
        group = np.arange(num_subsets) // (num_subsets // settled.size)
        open_group = ~settled
        open_group[group[keys[0] == 0.0]] = False
        outside &= open_group[group[live]]
    score(np.flatnonzero(outside))
    return keys


def select_stencil(
    curve: CurveEstimate,
    x: np.ndarray,
    cfg: StencilConfig = DEFAULT_STENCIL_CONFIG,
) -> Stencil:
    """Pick N curve points for stable polynomial interpolation at ``x``,
    of degree ``ell = curve.degree - 1``.

    Admissible stencils contain ``x`` in their convex hull and have
    stability certificate at most ``2 cfg.s``; among the candidates
    examined, the one minimizing ``stability * diam^(ell+1)`` is
    returned (ties to the smallest pool indices), so the result is
    within a factor 2 of the best examined candidate by construction.
    Candidates are drawn from a bounded pool of cached curve points (see
    `StencilConfig`).

    A query outside the pool's convex hull is refused before any subset
    is scored, when the plane through ``x`` normal to the pool's
    min-norm point relative to ``x`` (Wolfe's method,
    :func:`~flowfit.interp.min_norm_point`) is cleared by every pool
    point by a margin: twice the distance by which an admissible subset,
    normalised, can hold ``x`` outside its hull and still pass
    `_hull_contains`.  That certificate rules out every subset, so the
    refusal is the one the full search would make.  Wolfe's run stops at
    the first of its points that certifies: the min-norm point clears the
    pool by the most, so it would certify too.

    Other queries are searched.  Up to three seeds (the N nearest
    points, a farthest-point traversal from the nearest, and N evenly
    spaced pool points) are scored first, in one `_subset_keys` call;
    each distinct seed starts a chain of single-point swaps.  The chains
    advance in lockstep, one stencil position per step for
    ``cfg.sweeps`` rounds: one `_subset_keys` call scores every running
    chain's subset with each non-member in turn at that position, and
    each chain moves to its first strictly smallest key (its current
    subset first, then the swaps in pool order; a stable
    ``np.lexsort``).  The seeds get full keys; a swap outside the hull
    gets its SVD only when neither the chain's subset nor another swap
    of that step has violation 0 (see `_subset_keys`), as it can win the
    move only then.  A chain stops once it has gone N steps without a
    move, and skips the position that holds the point its last move
    brought in: either step would score only subsets it has scored
    already, and would not move.  With ``cfg.sweeps = 0`` the best
    admissible seed is returned.

    On a circular trajectory no quadratic stencil (``ell = 2``) is ever
    admitted: its six points lie on one conic, the circle, so every
    node matrix is singular and every certificate infinite.  This is
    why ``snake-gen`` on the ``rotation`` field falls back at beta = 3.

    Raises
    ------
    NoStencilFound
        When no examined candidate is admissible, or ``x`` is certified
        outside the pool's hull; the query point is outside the region
        covered by the curve.
    """
    x = np.asarray(x, dtype=float)
    ell = curve.degree - 1
    d = curve.grid_states.shape[1]
    num = n_basis(d, ell)

    dists_all = np.linalg.norm(curve.grid_states - x, axis=1)
    num_grid = curve.grid_times.size
    if num_grid > cfg.pool_size:
        near = np.argsort(dists_all, kind="stable")[: cfg.pool_size // 2]
        strided = np.round(np.linspace(0, num_grid - 1, cfg.pool_size - near.size)).astype(int)
        in_pool = np.zeros(num_grid, dtype=bool)
        in_pool[near] = in_pool[strided] = True
        idx = np.flatnonzero(in_pool)
    else:
        idx = np.arange(num_grid)
    pool_states = curve.grid_states[idx]
    pool_times = curve.grid_times[idx]
    pool = pool_states.shape[0]
    if pool < num:
        raise NoStencilFound(f"only {pool} candidate curve points near x={x.tolist()}")

    rel = pool_states - x
    dists = np.linalg.norm(rel, axis=1)
    order = np.argsort(dists, kind="stable")
    # how far outside a normalised stencil of stability at most 2 s `_hull_contains`
    # can pass a query: d HULL_RTOL 2 s past a simplex's facets, HULL_RTOL (at most
    # the 2 used here) by the min-norm distance; no stencil is wider than 2 max |rel|,
    # and the plane must clear twice that
    reach = HULL_RTOL * max(d * 2 * cfg.s, 2.0)
    margin = 2 * reach * 2 * dists.max()

    def clears(dots: np.ndarray, z: np.ndarray) -> bool:
        return dots.min() > margin * math.sqrt(z @ z)

    z = min_norm_point(rel, stop=clears) @ rel
    if clears(rel @ z, z):
        raise NoStencilFound(
            f"x={x.tolist()} is outside the convex hull of its {pool} candidate points")

    far = [order[0]]  # farthest-point traversal from the nearest point
    mind = np.full(pool, np.inf)
    while len(far) < num:
        mind = np.minimum(mind, np.linalg.norm(pool_states - pool_states[far[-1]], axis=1))
        mind[far[-1]] = -np.inf
        far.append(np.argmax(mind))
    seeds = [order[:num], far]
    even = np.round(np.linspace(0, pool - 1, num)).astype(int)
    if np.all(even[1:] > even[:-1]):
        seeds.append(even)
    # one chain per distinct seed
    current = np.array(list(dict.fromkeys(map(tuple, np.sort(seeds, axis=1).tolist()))))
    keys = _subset_keys(pool_states[current], x, ell)
    scored, scored_keys = [current.copy()], [keys.copy()]

    # steps since each chain last moved, and the point its last move brought in
    quiet = np.zeros(current.shape[0], dtype=int)
    brought = np.full(current.shape[0], -1)
    for step in range(cfg.sweeps * num):
        pos = step % num
        # a chain quiet for N steps would only score its subsets again; so would
        # one whose point at pos came in by its last move (that move's swaps)
        run = np.flatnonzero((quiet < num) & (current[:, pos] != brought))
        quiet += 1
        if run.size:
            # each chain's subset with every non-member in turn at pos
            outside = np.ones((run.size, pool), dtype=bool)
            outside[np.arange(run.size)[:, None], current[run]] = False
            cand = np.nonzero(outside)[1].reshape(run.size, pool - num)
            swaps = np.repeat(current[run, None, :], pool - num, axis=1)
            swaps[:, :, pos] = cand
            swaps.sort(axis=2)
            swap_keys = _subset_keys(pool_states[swaps.reshape(-1, num)], x, ell,
                                     settled=keys[0, run] == 0.0)
            scored.append(swaps.reshape(-1, num))
            scored_keys.append(swap_keys)
            swap_keys = swap_keys.reshape(4, run.size, pool - num)
            # a stable sort with the current subset in column 0 keeps the
            # first strictly smallest key
            trial = np.concatenate([keys[:, run, None], swap_keys], axis=2)
            best = np.lexsort(trial[::-1], axis=-1)[:, 0] - 1
            moved = np.flatnonzero(best >= 0)
            chain, best = run[moved], best[moved]
            current[chain] = swaps[moved, best]
            keys[:, chain] = swap_keys[:, moved, best]
            quiet[chain] = 0
            brought[chain] = cand[moved, best]
        if not np.any(quiet < num):
            break

    subsets = np.concatenate(scored)
    violation, objective, stability, _ = np.concatenate(scored_keys, axis=1)
    admissible = (violation == 0) & (stability <= 2 * cfg.s)
    if not admissible.any():
        raise NoStencilFound(
            f"no admissible stencil among {len(subsets)} scored subsets near x={x.tolist()}"
        )
    # the smallest objective, ties to the smallest indices
    subsets = subsets[admissible]
    sel = subsets[np.lexsort(np.vstack([subsets.T[::-1], objective[admissible]]))[0]]
    return Stencil.from_points(pool_states[sel], pool_times[sel], ell)


def check_stencil(
    stencil: Stencil,
    x: np.ndarray,
    cfg: StencilConfig = DEFAULT_STENCIL_CONFIG,
) -> list[str]:
    """Independent re-check of a stencil's certificate; empty means pass.

    Recomputes the stability norm from the raw points, and hull
    membership by :func:`~flowfit.interp.in_hull`: convex weights that
    it finds and verifies itself, in any dimension, without the search's
    own membership test.
    """
    problems = []
    stab = stability_norm(stencil.points, stencil.ell)
    if not stab <= 2 * cfg.s:
        problems.append(f"stability {stab:.3g} exceeds 2s = {2 * cfg.s:.3g}")
    if not in_hull(stencil.points, x):
        problems.append("query point outside the convex hull")
    return problems


@dataclass(frozen=True)
class GeneralEstimate:
    """Field estimate at one query point with its provenance.

    ``provenance`` is ``"interpolated"`` when a stencil was found and
    ``"fallback"`` when the nearest-neighbor estimate was used instead.
    """

    value: np.ndarray
    provenance: str
    stencil: Stencil | None


def estimate_general(
    x: np.ndarray,
    curve: CurveEstimate,
    cfg: StencilConfig = DEFAULT_STENCIL_CONFIG,
) -> GeneralEstimate:
    """Interpolate the reconstructed velocity between stencil points.

    Evaluates the componentwise polynomial through
    ``(u(tau_k), du(tau_k))`` at ``x``.  When no admissible stencil
    exists the nearest-neighbor estimate is returned instead (tagged as
    fallback).
    """
    x = np.asarray(x, dtype=float)
    try:
        stencil = select_stencil(curve, x, cfg)
    except NoStencilFound:
        return GeneralEstimate(
            value=estimate_lipschitz(x, curve), provenance="fallback", stencil=None
        )
    velocities = np.asarray(curve.du(stencil.times), dtype=float)
    value = interp_multivariate(stencil.points, velocities, x)
    return GeneralEstimate(value=value, provenance="interpolated", stencil=stencil)


def delta_nn(curve_points: np.ndarray, targets: np.ndarray) -> float:
    """Smallest radius so that the tube around the curve covers the targets.

    Computed as the max over target points of the min distance to the
    sampled curve points; resolution is inherited from both samplings.
    The targets are compared with every curve point in blocks of at most
    `DISTANCE_BLOCK` squared distances.
    """
    curve_points = np.atleast_2d(np.asarray(curve_points, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    step = max(1, DISTANCE_BLOCK // curve_points.size)
    nearest = max((
        _squared_distances(curve_points, targets[k:k + step]).min(axis=1).max()
        for k in range(0, targets.shape[0], step)
    ), default=0.0)
    return math.sqrt(nearest)
