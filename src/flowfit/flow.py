"""Vector fields, numerical flows, and synthetic trajectory data.

The estimation problem treats an autonomous ODE ``du/dt = f(u)`` whose
right-hand side ``f`` is unknown.  This module supplies the forward
machinery: declared vector fields with certified smoothness bounds, the
flow ``U(f, x, t)``, ``t >= 0``, and the increment map ``Upsilon(f, dt,
x) = U(f, x, dt) - x``, all read off one integrator
(:func:`integrate_flow_grid`, an adaptive solve of a stacked system),
reproducible Gaussian observation noise (:func:`noise_draw`), the one
dataset type both sampling schemes observe (:class:`TrajectoryData`),
and the one writer and one reader of its directory on disk.

The adaptive solve is the Dormand-Prince 5(4) pair with its quartic dense
output (Dormand & Prince 1980; Shampine 1986; Hairer, Norsett & Wanner
1993, II.4-II.6), written here so that importing the package loads no
scipy.  It repeats scipy's ``solve_ivp(method="RK45", t_eval=...)`` at
``atol = ABS_TOL``, ``rtol = REL_TOL`` operation for operation, so its
values, steps and field evaluations are those of scipy bit for bit.  Its
steps depend only on the end time, so one solve fills several output
grids that share it, each as its own solve would.  A solve ends with
:class:`IntegrationError` when its step size collapses or when
``MAX_STEPS_PER_OUTPUT`` steps pass without reaching the next output
time, so a solve's work is bounded by the number of times it fills.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import numpy.random  # noqa: F401  (numpy loads it lazily; every run draws noise)

__all__ = [
    "VectorField",
    "TrajectoryData",
    "IntegrationError",
    "integrate_flow",
    "integrate_flow_grid",
    "increment",
    "noise_draw",
    "zero_field",
    "constant_field",
    "rotation_field",
    "pendulum_field",
    "cubic_field",
    "make_field",
    "BUILTIN_FIELDS",
    "validate_smoothness_bounds",
    "write_dataset",
    "read_dataset",
]


class IntegrationError(RuntimeError):
    """Integrator could not reach the requested time.

    Attributes
    ----------
    reached_time : float
        Time up to which the solution was advanced before failure.
    """

    def __init__(self, message: str, reached_time: float):
        super().__init__(message)
        self.reached_time = reached_time


@dataclass(frozen=True)
class VectorField:
    """A vector field ``f: R^d -> R^d`` with certified smoothness metadata.

    Parameters
    ----------
    name : str
        Identifier used in dataset metadata and CLI configs.
    dim : int
        State dimension ``d``.
    func : callable
        Evaluator mapping arrays of shape ``(..., d)`` to arrays of the
        same shape (vectorized over leading axes; construction checks
        this on a ``(2, 1, d)`` stack).
    smoothness : int
        Number of certified derivative orders ``beta >= 1``.
    derivative_bounds : tuple of float
        ``beta + 1`` upper bounds ``L_0 .. L_beta`` on the sup operator
        norms of ``f`` and its derivatives over `box`.  These are valid
        upper bounds, not suprema; identically vanishing derivatives are
        certified with 1.0.
    box : tuple of (float, float)
        Per-coordinate bounding box on which the bounds are certified.
        Experiments are expected to keep trajectories inside it.
    """

    name: str
    dim: int
    func: Callable[[np.ndarray], np.ndarray]
    smoothness: int
    derivative_bounds: tuple[float, ...]
    box: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if self.smoothness < 1:
            raise ValueError("smoothness must be a positive integer")
        if len(self.derivative_bounds) != self.smoothness + 1:
            raise ValueError(
                f"need {self.smoothness + 1} bounds L_0..L_{self.smoothness}, "
                f"got {len(self.derivative_bounds)}"
            )
        # L_0 may be declared infinite (globally unbounded fields); the
        # derivative bounds proper must be positive and finite.
        if self.derivative_bounds[0] <= 0:
            raise ValueError("L_0 must be positive (inf allowed)")
        for k, bound in enumerate(self.derivative_bounds[1:], start=1):
            if not (0 < bound < math.inf):
                raise ValueError(f"L_{k} must be positive and finite")
        if len(self.box) != self.dim:
            raise ValueError("box must give (low, high) per coordinate")
        # a func written for one state (say ``A @ u``) can return the right
        # shape for a (d, d) stack while mixing its states, so probe (2, 1, d)
        probe = (2, 1, self.dim)
        try:
            shape = np.shape(self.func(np.zeros(probe)))
        except Exception as exc:
            raise ValueError(f"field {self.name!r}: func is not vectorized: {exc}") from exc
        if shape != probe:
            raise ValueError(f"field {self.name!r}: func maps a {probe} stack to {shape}")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.func(np.asarray(x, dtype=float)), dtype=float)

    @property
    def lip(self) -> float:
        """Lipschitz bound ``L_1``."""
        return self.derivative_bounds[1]


@dataclass(frozen=True)
class TrajectoryData:
    """Noisy observations of K trajectories from known initial states.

    ``observations[j, i - 1]`` is the observed state of the trajectory
    started at ``initials[j]`` after time ``i * dt``, for ``i = 1..n``; the
    initial states at time 0 are known exactly and are not observed.  Many
    short trajectories (:mod:`flowfit.stubble`, n the horizon count) and one
    long one (:mod:`flowfit.snake`, K = 1) are both this type.
    """

    initials: np.ndarray
    dt: float
    observations: np.ndarray
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self) -> None:
        initials = np.atleast_2d(np.asarray(self.initials, dtype=float))
        obs = np.asarray(self.observations, dtype=float)
        object.__setattr__(self, "initials", initials)
        object.__setattr__(self, "observations", obs)
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        k, d = initials.shape
        if obs.ndim != 3 or obs.shape[0] != k or obs.shape[1] < 1 or obs.shape[2] != d:
            raise ValueError(f"observations must have shape ({k}, n, {d}) with n >= 1, "
                             f"got {obs.shape}")
        if not (np.all(np.isfinite(initials)) and np.all(np.isfinite(obs))):
            raise ValueError("initial states and observations must be finite")

    @property
    def dim(self) -> int:
        return self.initials.shape[1]

    @property
    def n(self) -> int:
        """Observations per trajectory."""
        return self.observations.shape[1]

    @property
    def horizon(self) -> float:
        return self.n * self.dt

    @property
    def times(self) -> np.ndarray:
        """All sample times ``0, dt, ..., n dt`` including the initial one."""
        return self.dt * np.arange(self.n + 1)

    @property
    def states(self) -> np.ndarray:
        """Known initial states stacked on the observations: ``(K, n + 1, d)``."""
        return np.concatenate([self.initials[:, None, :], self.observations], axis=1)

    def increments(self, i: int) -> np.ndarray:
        """Observed increments ``Y_{j,i} - x_j`` after time ``i * dt``: ``(K, d)``."""
        if not 1 <= i <= self.n:
            raise ValueError(f"horizon must be in 1..{self.n}")
        return self.observations[:, i - 1, :] - self.initials


def integrate_flow(field: VectorField, x0: Sequence[float] | np.ndarray, t: float) -> np.ndarray:
    """Approximate the flow ``U(f, x0, t)`` at one time ``t >= 0``: the one
    value :func:`integrate_flow_grid` gives for the grid ``[t]``.

    ``t = 0`` returns ``x0`` exactly; a negative ``t`` raises ValueError.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (field.dim,):
        raise ValueError(f"x0 must have shape ({field.dim},)")
    return integrate_flow_grid(field, x0[None, :], [np.array([t])])[0][0, 0]


def integrate_flow_grid(field: VectorField, x0s: np.ndarray, grids: list) -> list[np.ndarray]:
    """Flow of many initial states over a list of time grids that share their last time.

    All initial states are advanced as one stacked system, and one
    adaptive solve fills every grid, so a large batch on several grids
    costs a single solve.  Each grid is a 1-D array of times, finite,
    nondecreasing and nonnegative; the nonempty ones must end at one
    time.  Returns one array of shape ``(len(grid), m, d)`` per grid,
    equal bit for bit to the array of a solve of that grid alone; states
    at time 0 are the initials exactly.  Anything else, initial states
    that are not finite included, raises ValueError.

    Raises :class:`IntegrationError`, with the time the solve reached,
    when the step size collapses, or when ``MAX_STEPS_PER_OUTPUT`` steps
    pass without reaching the next time of any grid.
    """
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
    m, d = x0s.shape
    if d != field.dim:
        raise ValueError("initial states have wrong dimension")
    if not np.isfinite(x0s).all():
        raise ValueError("initial states must be finite")
    grids = [np.asarray(grid, dtype=float) for grid in grids]
    for grid in grids:
        if grid.ndim != 1:
            raise ValueError(f"each grid must be a 1-D array of times, not of shape {grid.shape}")
        if grid.size and not (np.all(np.isfinite(grid)) and grid[0] >= 0
                              and np.all(np.diff(grid) >= 0)):
            raise ValueError("times must be finite, nondecreasing and nonnegative")
    ends = {grid[-1] for grid in grids if grid.size}
    if len(ends) > 1:
        raise ValueError(f"the time grids must share their last time, not end at {sorted(ends)}")
    outs = [np.empty((grid.size, m, d)) for grid in grids]
    starts = [np.searchsorted(grid, 0.0, side="right") for grid in grids]  # the zeros lead
    for out, k in zip(outs, starts):
        out[:k] = x0s
    if x0s.size == 0 or max(ends, default=0.0) == 0.0:
        return outs

    def rhs(y: np.ndarray) -> np.ndarray:
        return field(y.reshape(m, d)).reshape(-1)

    reached, stop = _dopri45(
        rhs, x0s.reshape(-1), [grid[k:] for grid, k in zip(grids, starts)],
        [out[k:].reshape(-1, m * d) for out, k in zip(outs, starts)],
    )
    if stop is not None:
        raise IntegrationError(f"integration of {field.name!r} {stop}", reached_time=reached)
    return outs


# Dormand-Prince 5(4) tableau and the quartic dense output of Shampine (1986),
# with the coefficients, in the same floating-point form, of scipy's RK45.
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_DP_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
_ERROR_EXPONENT = -1 / 5  # the embedded error is O(h^5)


# Tolerances of the solve, tight enough that integration error is negligible
# against the statistical error of any experiment in this package
ABS_TOL = 1e-10
REL_TOL = 1e-10
# Steps that may pass between two output times: the most measured is 49 in the
# tests and 25 on scripts/*.json with any dt rule and a step <= 1; 10,000 span
# about 430 time units on rotation (about 23 steps each) in about a second
MAX_STEPS_PER_OUTPUT = 10_000


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _dopri45(
    fun: Callable[[np.ndarray], np.ndarray], y: np.ndarray, t_outs: list[np.ndarray],
    values: list[np.ndarray],
) -> tuple[float, str | None]:
    """Integrate ``y' = fun(y)`` from ``y(0) = y``, writing its value at each
    time of each grid in `t_outs` to that time's row of the grid's array in `values`.

    The grids are nondecreasing and positive, and the nonempty ones end at
    one time, the end time.  The dense-output coefficients are made once
    per step that passes an output time, and each grid takes its own
    product of them with its powers, so its values do not depend on the
    other grids.  The tolerances are ``ABS_TOL`` and ``REL_TOL``, read at
    each call.
    Returns the time reached and None when every row was written, or
    else the reason the solve stopped early: the step size fell below ten
    float spacings of the current time or became NaN, or
    ``MAX_STEPS_PER_OUTPUT`` accepted steps did not reach the next output
    time.
    """
    rtol, atol = REL_TOL, ABS_TOL
    t_end = max(t_out[-1] for t_out in t_outs if t_out.size)
    f = fun(y)
    # first step size (Hairer, Norsett & Wanner 1993, II.4)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    d2 = _rms((fun(y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, t_end)

    sizes = [t_out.size for t_out in t_outs]
    stages = np.empty((7, y.size))
    t, done, steps = 0.0, [0] * len(t_outs), 0  # steps since the last output time
    while done != sizes:
        if steps == MAX_STEPS_PER_OUTPUT:
            t_next = min(t_out[k] for t_out, k in zip(t_outs, done) if k < t_out.size)
            return float(t), (f"stopped at t={t:.6g} (target {t_end:.6g}): "
                              f"MAX_STEPS_PER_OUTPUT = {MAX_STEPS_PER_OUTPUT} steps "
                              f"did not reach the next output time {t_next:.6g}")
        steps += 1
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # NaN too: a NaN field never shrinks the step
                return float(t), (f"stalled at t={t:.6g} (target {t_end:.6g}): "
                                  "the step size collapsed")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = np.abs(h)
            stages[0] = f
            for s in range(1, 6):
                stages[s] = fun(y + np.dot(stages[:s].T, _DP_A[s, :s]) * h)
            y_new = y + h * np.dot(stages[:-1].T, _DP_B)
            f_new = fun(y_new)
            stages[-1] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error = _rms(np.dot(stages.T, _DP_E) * h / scale)
            if error < 1:
                factor = 10 if error == 0 else min(10, 0.9 * error ** _ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error ** _ERROR_EXPONENT)
            rejected = True
        coeffs = None
        for g, (t_out, vals) in enumerate(zip(t_outs, values)):
            upto = np.searchsorted(t_out, t_new, side="right")
            if upto > done[g]:
                if coeffs is None:
                    coeffs = stages.T.dot(_DP_P)
                # quartic dense output on [t, t_new]
                x = (t_out[done[g]:upto] - t) / h
                powers = x[None].repeat(4, axis=0).cumprod(axis=0)  # x, x^2, x^3, x^4
                vals[done[g]:upto] = (h * np.dot(coeffs, powers) + y[:, None]).T
                done[g] = upto
                steps = 0
        t, y, f = t_new, y_new, f_new
    return float(t), None


def increment(field: VectorField, dt: float, x: Sequence[float] | np.ndarray) -> np.ndarray:
    """The increment ``U(f, x, dt) - x``; exactly zero for ``dt = 0``."""
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    x = np.asarray(x, dtype=float)
    if dt == 0.0:
        return np.zeros_like(x)
    return integrate_flow(field, x, dt) - x


def noise_draw(sigma: float, seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """The Gaussian noise block of a whole dataset: componentwise
    ``N(0, sigma^2)`` from ``default_rng(seed)``, zeros when ``sigma = 0``.

    A pure function of ``(sigma, seed, shape)``, filled in C order, so it
    is prefix-stable: a block is the leading rows of any longer block with
    the same trailing shape.
    """
    if not 0 <= sigma < math.inf:
        raise ValueError(f"sigma must be nonnegative and finite, not {sigma!r}")
    if sigma == 0.0:
        return np.zeros(shape)
    return np.random.default_rng(seed).normal(0.0, sigma, size=shape)


# ---------------------------------------------------------------------------
# Built-in test fields.  Derivative bounds are certified upper bounds on the
# stated box: analytic where marked, otherwise evaluated on a dense grid with
# at least 5% margin.  Vanishing derivatives are certified with 1.0.
# ---------------------------------------------------------------------------


def zero_field(d: int = 2) -> VectorField:
    """``f = 0``: every point is a fixed point."""
    return VectorField(
        name="zero",
        dim=d,
        func=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        smoothness=3,
        derivative_bounds=(1.0, 1.0, 1.0, 1.0),
        box=tuple((-10.0, 10.0) for _ in range(d)),
    )


def constant_field(d: int = 2) -> VectorField:
    """``f = e_1``, the first unit vector of ``R^d``: uniform linear motion."""
    e_1 = np.eye(1, d)[0]

    def func(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(e_1, x.shape).copy()

    return VectorField(
        name="constant",
        dim=d,
        func=func,
        smoothness=3,
        derivative_bounds=(1.0, 1.0, 1.0, 1.0),
        box=tuple((-10.0, 10.0) for _ in range(d)),
    )


def rotation_field() -> VectorField:
    """``f(u) = (-u_2, u_1)``: rigid rotation, solutions are circles.

    L_0 = sup ||u|| on the box (analytic); L_1 = 1 exactly (the
    generator is an isometry); higher derivatives vanish.
    """

    def func(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        np.negative(x[..., 1], out=out[..., 0])
        out[..., 1] = x[..., 0]
        return out

    return VectorField(
        name="rotation",
        dim=2,
        func=func,
        smoothness=3,
        derivative_bounds=(4.25, 1.0, 1.0, 1.0),
        box=((-3.0, 3.0), (-3.0, 3.0)),
    )


def pendulum_field() -> VectorField:
    """Damped pendulum ``v'' = -sin(v) - 0.1 v'`` stacked to first order.

    State is ``(v, v')``.  L_1 is the sup over the box of the Jacobian
    spectral norm (1.0513, grid-evaluated); L_2, L_3 bound the
    sin/cos-derived tensors by 1 analytically.
    """

    def func(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        v, vdot = x[..., 0], x[..., 1]
        out = np.empty_like(x)
        out[..., 0] = vdot
        out[..., 1] = -np.sin(v) - 0.1 * vdot
        return out

    return VectorField(
        name="pendulum",
        dim=2,
        func=func,
        smoothness=3,
        derivative_bounds=(3.44, 1.11, 1.05, 1.05),
        box=((-3.0, 3.0), (-3.0, 3.0)),
    )


def cubic_field() -> VectorField:
    """Cubic with fixed points 0, 1/2, 1, tapered by a Gaussian envelope.

    ``f(u) = 4 (u^3 - 1.5 u^2 + 0.5 u) exp(-(u - 1/2)^2)``.  On [0, 1]
    the envelope is positive, so the sign structure of the cubic is
    kept: 1/2 attracts, 0 and 1 are fixed, and [0, 1] is flow-invariant.
    Globally the envelope keeps all derivatives bounded.  Bounds were
    evaluated on a dense grid over the real line and rounded up >=5%:
    sup|f| = 1.382, sup|f'| = 2.481, sup|f''| = 7.13, sup|f'''| = 30.0.
    """

    def func(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = x[..., 0]
        val = 4.0 * (u ** 3 - 1.5 * u ** 2 + 0.5 * u) * np.exp(-((u - 0.5) ** 2))
        return val[..., None]

    return VectorField(
        name="cubic",
        dim=1,
        func=func,
        smoothness=3,
        derivative_bounds=(1.46, 2.61, 7.49, 31.5),
        box=((-3.0, 3.0),),
    )


BUILTIN_FIELDS: dict[str, Callable[..., VectorField]] = {
    "zero": zero_field,
    "constant": constant_field,
    "rotation": rotation_field,
    "pendulum": pendulum_field,
    "cubic": cubic_field,
}


def make_field(name: str, d: int | None = None) -> VectorField:
    """Instantiate a built-in field by name.

    `d` (default 2) is the dimension of the dimension-generic fields,
    zero and constant, whose factories take it; the others have fixed
    dimension.
    """
    if name not in BUILTIN_FIELDS:
        raise KeyError(f"unknown field {name!r}; available: {sorted(BUILTIN_FIELDS)}")
    if name in ("zero", "constant"):
        return BUILTIN_FIELDS[name](2 if d is None else d)
    fld = BUILTIN_FIELDS[name]()
    if d is not None and d != fld.dim:
        raise ValueError(f"field {name!r} has fixed dimension {fld.dim}")
    return fld


def validate_smoothness_bounds(
    field: VectorField,
    rng: np.random.Generator,
    n_points: int = 40,
    fd_step: float = 1e-2,
    slack: float = 1.05,
) -> bool:
    """Check declared derivative bounds by finite differences.

    Draws points in the certified box and random unit directions; the
    k-th central difference along a direction must stay within
    ``L_k * slack`` for every certified order.  Returns True when all
    samples pass, raises AssertionError naming the first offender
    otherwise.
    """
    lo = np.array([b[0] for b in field.box])
    hi = np.array([b[1] for b in field.box])
    # Stay clear of the box edge so difference stencils remain inside.
    pad = field.smoothness * fd_step
    pts = rng.uniform(lo + pad, hi - pad, size=(n_points, field.dim))
    for k in range(field.smoothness + 1):
        bound = field.derivative_bounds[k]
        if not math.isfinite(bound):
            continue
        for x in pts:
            v = rng.normal(size=field.dim)
            v /= np.linalg.norm(v)
            acc = np.zeros(field.dim)
            for j in range(k + 1):
                weight = (-1.0) ** j * math.comb(k, j)
                acc = acc + weight * field(x + (k / 2.0 - j) * fd_step * v)
            deriv_norm = float(np.linalg.norm(acc)) / fd_step ** k
            if deriv_norm > bound * slack:
                raise AssertionError(
                    f"{field.name}: order-{k} difference {deriv_norm:.4g} exceeds "
                    f"L_{k} * {slack} = {bound * slack:.4g} at {x}"
                )
    return True


# ---------------------------------------------------------------------------
# The dataset directory: ``observations.csv`` with the columns traj_id,
# obs_idx, t, y_1..y_d, one row per observation, and ``meta.json`` with the
# generation parameters, the family's kind and record keys, and dt.
# ---------------------------------------------------------------------------


def write_dataset(directory: str | Path, ds: TrajectoryData, meta: dict) -> None:
    """Write `ds` to `directory` as ``observations.csv`` and ``meta.json``.

    Trajectory j (``initials[j - 1]``) gets ``traj_id`` j and its
    observations ``obs_idx`` ``1..n`` at ``t = obs_idx * dt``.  The meta
    is ``ds.meta`` updated by `meta` (the family's kind and record keys)
    and ``dt``.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with (directory / "observations.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["traj_id", "obs_idx", "t"] + [f"y_{k + 1}" for k in range(ds.dim)])
        for j, values in enumerate(ds.observations, start=1):
            for i, (t, y) in enumerate(zip(ds.times[1:], values), start=1):
                writer.writerow([j, i, repr(float(t))] + [repr(float(v)) for v in y])
    meta = {**ds.meta, **meta, "dt": ds.dt}
    (directory / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _first_offender(ids: Sequence[int], n: int) -> int | None:
    """Where sorted `ids` first differ from ``1..n``: the id found or the id
    missing there, whichever is smaller; None when they are ``1..n``."""
    for want, have in enumerate(ids, start=1):
        if want > n:
            return have
        if have != want:
            return min(have, want)
    return None if len(ids) == n else len(ids) + 1


def read_dataset(
    directory: str | Path,
    kind: str,
    initials: Callable[[dict], np.ndarray],
    record: Callable[[TrajectoryData], dict],
) -> TrajectoryData:
    """Read the dataset that :func:`write_dataset` wrote to `directory`.

    ``meta.json`` must be a JSON object of this `kind` with a ``dt``;
    ``initials(meta)`` reads the family's initial states from it.  The
    ids must be exactly ``1..K`` for the K initial states, each
    trajectory's ``obs_idx`` exactly ``1..n`` (n the largest index in the
    file) and each ``t`` within 1e-12 relative of ``obs_idx * dt``.  The
    dataset read must give back the meta's own record keys,
    ``record(ds)``.  Anything else raises a ValueError that names the
    key, the file or the first offending id.
    """
    directory = Path(directory)
    meta_path, csv_path = directory / "meta.json", directory / "observations.csv"
    meta = json.loads(meta_path.read_text())
    if not isinstance(meta, dict):
        raise ValueError(f"{meta_path} holds no JSON object")
    if meta.get("kind") != kind:
        raise ValueError(f"{directory} holds {meta.get('kind')!r} data, "
                         f"but {kind!r} data is needed")
    given = {key: value for key, value in meta.items() if value is not None}
    try:
        dt = float(given["dt"])
        x0 = np.atleast_2d(np.asarray(initials(given), dtype=float))
    except KeyError as exc:
        raise ValueError(f"{meta_path} has no {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"{meta_path}: {exc}") from None

    trajs: dict[int, list[tuple[int, float, list[float]]]] = {}
    with csv_path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{csv_path} is empty")
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{csv_path}, line {reader.line_num}: "
                                 f"{len(row)} fields, but the header has {len(header)}")
            trajs.setdefault(int(row[0]), []).append(
                (int(row[1]), float(row[2]), [float(v) for v in row[3:]])
            )
    k = x0.shape[0]
    bad = _first_offender(sorted(trajs), k)
    if bad is not None:
        raise ValueError(f"trajectory ids must be exactly 1..{k}; first offending id {bad}")
    trajs = {j: sorted(trajs[j]) for j in range(1, k + 1)}
    n = max(rows[-1][0] for rows in trajs.values())
    for j, rows in trajs.items():
        bad = _first_offender([i for i, _, _ in rows], n)
        if bad is not None:
            raise ValueError(f"trajectory {j}: obs_idx must be exactly 1..{n}; "
                             f"first offending obs_idx {bad}")
        for i, t, _ in rows:
            if not abs(t - i * dt) <= 1e-12 * abs(i * dt):
                raise ValueError(f"trajectory {j}, obs_idx {i}: t = {t!r} is not "
                                 f"obs_idx * dt = {i * dt!r}")
    values = np.array([[y for _, _, y in rows] for rows in trajs.values()])
    ds = TrajectoryData(initials=x0, dt=dt, observations=values, meta=meta)
    for key, value in record(ds).items():
        if meta.get(key) != value:
            raise ValueError(f"the dataset read has {key} = {value!r}, "
                             f"but {meta_path} says {meta.get(key)!r}")
    return ds
