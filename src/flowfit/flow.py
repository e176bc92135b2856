"""Vector fields, numerical flows, and synthetic trajectory data.

The estimation problem treats an autonomous ODE ``du/dt = f(u)`` whose
right-hand side ``f`` is unknown.  This module supplies the forward
machinery: declared vector fields with certified smoothness bounds, a
numerical realization of the flow ``U(f, x, t)`` and of the increment map
``Upsilon(f, dt, x) = U(f, x, dt) - x``, trajectory sampling with
continuation, reproducible observation noise, and the CSV/JSON dataset
format shared by the estimators.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp

__all__ = [
    "VectorField",
    "FlowConfig",
    "Trajectory",
    "NoiseSpec",
    "Observations",
    "IntegrationError",
    "integrate_flow",
    "integrate_flow_grid",
    "increment",
    "sample_trajectory",
    "add_noise",
    "noise_draw",
    "stack_higher_order",
    "zero_field",
    "constant_field",
    "rotation_field",
    "pendulum_field",
    "cubic_field",
    "make_field",
    "BUILTIN_FIELDS",
    "validate_smoothness_bounds",
    "write_observation_csv",
    "read_observation_csv",
    "write_dataset_meta",
    "read_dataset_meta",
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
        same shape (vectorized over leading axes).
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

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.func(np.asarray(x, dtype=float)), dtype=float)

    @property
    def lip(self) -> float:
        """Lipschitz bound ``L_1``."""
        return self.derivative_bounds[1]

    def flipped(self) -> "VectorField":
        """The field ``-f``; integrating it forward runs time backwards."""
        f = self.func
        return VectorField(
            name=f"-{self.name}",
            dim=self.dim,
            func=lambda x: -f(x),
            smoothness=self.smoothness,
            derivative_bounds=self.derivative_bounds,
            box=self.box,
        )


@dataclass(frozen=True)
class FlowConfig:
    """Numerical integration settings.

    ``rk45-adaptive`` delegates to an embedded Runge-Kutta 4(5) pair with
    error control; ``rk4-fixed`` takes uniform steps of size `max_step`.
    Defaults are tight enough that integration error is negligible
    against the statistical error of any experiment in this package.
    """

    method: str = "rk45-adaptive"
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_step: float = math.inf

    def __post_init__(self) -> None:
        if self.method not in ("rk45-adaptive", "rk4-fixed"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_step <= 0:
            raise ValueError("max_step must be positive")
        if self.method == "rk4-fixed" and not math.isfinite(self.max_step):
            raise ValueError("rk4-fixed requires a finite max_step")


DEFAULT_FLOW_CONFIG = FlowConfig()


@dataclass(frozen=True)
class Trajectory:
    """A sampled solution path.

    ``states[0]`` equals the initial state exactly; times start at 0 and
    are nondecreasing.
    """

    x0: np.ndarray
    times: np.ndarray
    states: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "states", np.asarray(self.states, dtype=float))
        if self.times.ndim != 1 or self.states.shape != (self.times.size, self.x0.size):
            raise ValueError("states must be (len(times), d)")
        if self.times.size == 0 or self.times[0] != 0.0:
            raise ValueError("times must start at 0")
        if np.any(np.diff(self.times) < 0):
            raise ValueError("times must be nondecreasing")
        if not np.array_equal(self.states[0], self.x0):
            raise ValueError("states[0] must equal x0 exactly")


@dataclass(frozen=True)
class NoiseSpec:
    """Observation noise: centered, componentwise variance <= sigma^2.

    ``uniform-bounded`` draws from ``U(-sigma*sqrt(3), sigma*sqrt(3))``
    per component, which has variance exactly ``sigma^2``.
    """

    distribution: str = "gaussian"
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.distribution not in ("gaussian", "uniform-bounded", "none"):
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")


@dataclass(frozen=True)
class Observations:
    """Noisy samples of one trajectory, excluding the known initial state."""

    traj_id: int
    obs_idx: np.ndarray
    times: np.ndarray
    values: np.ndarray


def _rk4_fixed(field: VectorField, x0: np.ndarray, t: float, step: float) -> np.ndarray:
    n_steps = max(1, math.ceil(t / step))
    h = t / n_steps
    y = x0.astype(float).copy()
    for _ in range(n_steps):
        k1 = field(y)
        k2 = field(y + 0.5 * h * k1)
        k3 = field(y + 0.5 * h * k2)
        k4 = field(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def integrate_flow(
    field: VectorField,
    x0: Sequence[float] | np.ndarray,
    t: float,
    cfg: FlowConfig = DEFAULT_FLOW_CONFIG,
) -> np.ndarray:
    """Approximate the flow ``U(f, x0, t)``.

    ``t = 0`` returns ``x0`` exactly.  Negative ``t`` integrates the
    sign-flipped field forward, realizing the backward solution.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (field.dim,):
        raise ValueError(f"x0 must have shape ({field.dim},)")
    if t == 0.0:
        return x0.copy()
    if t < 0.0:
        return integrate_flow(field.flipped(), x0, -t, cfg)
    if cfg.method == "rk4-fixed":
        return _rk4_fixed(field, x0, t, cfg.max_step)
    sol = solve_ivp(
        lambda _t, y: field(y),
        (0.0, t),
        x0,
        method="RK45",
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
        max_step=cfg.max_step,
        dense_output=False,
    )
    if not sol.success:
        raise IntegrationError(
            f"integration of {field.name!r} stalled at t={sol.t[-1]:.6g} "
            f"(target {t:.6g}): {sol.message}",
            reached_time=float(sol.t[-1]),
        )
    return sol.y[:, -1]


def integrate_flow_grid(
    field: VectorField,
    x0s: np.ndarray,
    times: np.ndarray,
    cfg: FlowConfig = DEFAULT_FLOW_CONFIG,
) -> np.ndarray:
    """Flow of many initial states over a shared nonneg time grid.

    All initial states are advanced as one stacked system so a large
    batch costs a single adaptive solve.  Returns an array of shape
    ``(len(times), m, d)``.  ``times`` must be nondecreasing with
    ``times[0] >= 0``; states at time 0 are the initials exactly.
    """
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
    m, d = x0s.shape
    if d != field.dim:
        raise ValueError("initial states have wrong dimension")
    times = np.asarray(times, dtype=float)
    if times.size and (times[0] < 0 or np.any(np.diff(times) < 0)):
        raise ValueError("times must be nondecreasing and nonnegative")
    out = np.empty((times.size, m, d))
    if times.size == 0:
        return out
    t_end = times[-1]
    if t_end == 0.0:
        out[:] = x0s
        return out
    if cfg.method == "rk4-fixed":
        # Fixed-step path advances segment by segment on the grid.
        state = x0s.copy()
        prev = 0.0
        for k, t in enumerate(times):
            if t > prev:
                for j in range(m):
                    state[j] = _rk4_fixed(field, state[j], t - prev, cfg.max_step)
                prev = t
            out[k] = x0s if t == 0.0 else state
        return out

    def rhs(_t: float, y: np.ndarray) -> np.ndarray:
        return field(y.reshape(m, d)).reshape(-1)

    positive = times > 0
    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        x0s.reshape(-1),
        method="RK45",
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
        max_step=cfg.max_step,
        t_eval=times[positive],
    )
    if not sol.success:
        raise IntegrationError(
            f"batch integration of {field.name!r} stalled at t={sol.t[-1]:.6g}: "
            f"{sol.message}",
            reached_time=float(sol.t[-1]),
        )
    out[~positive] = x0s
    out[positive] = sol.y.T.reshape(-1, m, d)
    return out


def increment(
    field: VectorField,
    dt: float,
    x: Sequence[float] | np.ndarray,
    cfg: FlowConfig = DEFAULT_FLOW_CONFIG,
) -> np.ndarray:
    """The increment ``U(f, x, dt) - x``; exactly zero for ``dt = 0``."""
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    x = np.asarray(x, dtype=float)
    if dt == 0.0:
        return np.zeros_like(x)
    return integrate_flow(field, x, dt, cfg) - x


def sample_trajectory(
    field: VectorField,
    x0: Sequence[float] | np.ndarray,
    times: Sequence[float] | np.ndarray,
    cfg: FlowConfig = DEFAULT_FLOW_CONFIG,
) -> Trajectory:
    """Sample one solution path at the given times.

    Consecutive states come from a single continued solve, not from
    restarting at each output time, so the sampled path is one numerical
    solution evaluated on the grid.
    """
    x0 = np.asarray(x0, dtype=float)
    times = np.asarray(times, dtype=float)
    if times.size == 0 or times[0] != 0.0:
        raise ValueError("times must start at 0")
    if np.any(np.diff(times) < 0):
        raise ValueError("times must be nondecreasing")
    states = integrate_flow_grid(field, x0[None, :], times, cfg)[:, 0, :]
    states[0] = x0
    return Trajectory(x0=x0, times=times, states=states)


def noise_draw(spec: NoiseSpec, traj_id: int, obs_idx: int, d: int) -> np.ndarray:
    """One centered noise vector from the stream keyed by (seed, traj, obs).

    Streams are independent and order-free: drawing observation (j, i)
    never consumes randomness from any other observation, so parallel
    generation and regeneration of a single value are bit-reproducible.
    """
    if spec.distribution == "none" or spec.sigma == 0.0:
        return np.zeros(d)
    rng = np.random.default_rng([spec.seed, traj_id, obs_idx])
    if spec.distribution == "gaussian":
        return rng.normal(0.0, spec.sigma, size=d)
    half_width = spec.sigma * math.sqrt(3.0)
    return rng.uniform(-half_width, half_width, size=d)


def add_noise(traj: Trajectory, spec: NoiseSpec, traj_id: int = 1) -> Observations:
    """Noisy observations of a trajectory.

    The state at time index 0 is the known initial condition and is not
    emitted; observation indices start at 1.
    """
    n_obs = traj.times.size - 1
    d = traj.x0.size
    values = traj.states[1:].copy()
    for i in range(1, n_obs + 1):
        values[i - 1] += noise_draw(spec, traj_id, i, d)
    return Observations(
        traj_id=traj_id,
        obs_idx=np.arange(1, n_obs + 1),
        times=traj.times[1:].copy(),
        values=values,
    )


def stack_higher_order(
    rhs: Callable[..., np.ndarray],
    order: int,
    dim: int,
    autonomous: bool = True,
) -> Callable[[np.ndarray], np.ndarray]:
    """First-order reduction of a higher-order (possibly time-dependent) ODE.

    Given ``v^(order) = rhs(v, v', ..., v^(order-1)[, t])`` with
    ``v(t)`` taking values in ``R^dim``, build the evaluator of the
    stacked autonomous system whose state is
    ``(v, v', ..., v^(order-1))``, with time appended as a final
    coordinate when `autonomous` is false.  The stacked dimension is
    ``dim * order`` (+1 in the non-autonomous case).

    The returned callable is vectorized over leading axes and can be
    wrapped in a :class:`VectorField` once bounds are certified.
    """
    if order < 1 or dim < 1:
        raise ValueError("order and dim must be positive")

    def stacked(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        parts = [x[..., k * dim:(k + 1) * dim] for k in range(order)]
        if autonomous:
            top = rhs(*parts)
        else:
            t = x[..., -1:]
            top = rhs(*parts, t)
        out = np.concatenate(parts[1:] + [np.asarray(top, dtype=float)], axis=-1)
        if not autonomous:
            out = np.concatenate([out, np.ones_like(x[..., -1:])], axis=-1)
        return out

    return stacked


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


def constant_field(c: Sequence[float] = (1.0, 0.0)) -> VectorField:
    """``f = c``: uniform linear motion."""
    c_arr = np.asarray(c, dtype=float)

    def func(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(c_arr, x.shape).copy()

    return VectorField(
        name="constant",
        dim=c_arr.size,
        func=func,
        smoothness=3,
        derivative_bounds=(max(float(np.linalg.norm(c_arr)), 1.0), 1.0, 1.0, 1.0),
        box=tuple((-10.0, 10.0) for _ in range(c_arr.size)),
    )


def rotation_field() -> VectorField:
    """``f(u) = (-u_2, u_1)``: rigid rotation, solutions are circles.

    L_0 = sup ||u|| on the box (analytic); L_1 = 1 exactly (the
    generator is an isometry); higher derivatives vanish.
    """

    def func(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.stack([-x[..., 1], x[..., 0]], axis=-1)

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
    stacked = stack_higher_order(
        lambda v, vdot: -np.sin(v) - 0.1 * vdot, order=2, dim=1,
    )
    return VectorField(
        name="pendulum",
        dim=2,
        func=stacked,
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

    `d` applies to the dimension-generic fields (zero, constant); the
    others have fixed dimension.
    """
    if name not in BUILTIN_FIELDS:
        raise KeyError(f"unknown field {name!r}; available: {sorted(BUILTIN_FIELDS)}")
    if name == "zero":
        return zero_field(d if d is not None else 2)
    if name == "constant":
        c = np.zeros(d if d is not None else 2)
        c[0] = 1.0
        return constant_field(c)
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
# Dataset serialization: one CSV of observations plus a JSON sidecar with the
# generation parameters.  Columns: traj_id, obs_idx, t, y_1..y_d.
# ---------------------------------------------------------------------------


def write_observation_csv(path: str | Path, observations: Sequence[Observations]) -> None:
    path = Path(path)
    if not observations:
        raise ValueError("nothing to write")
    d = observations[0].values.shape[1]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["traj_id", "obs_idx", "t"] + [f"y_{k + 1}" for k in range(d)])
        for obs in observations:
            for i in range(obs.obs_idx.size):
                writer.writerow(
                    [obs.traj_id, int(obs.obs_idx[i]), repr(float(obs.times[i]))]
                    + [repr(float(v)) for v in obs.values[i]]
                )


def read_observation_csv(path: str | Path) -> list[Observations]:
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        d = len(header) - 3
        rows_by_traj: dict[int, list[tuple[int, float, list[float]]]] = {}
        for row in reader:
            traj_id = int(row[0])
            rows_by_traj.setdefault(traj_id, []).append(
                (int(row[1]), float(row[2]), [float(v) for v in row[3:3 + d]])
            )
    out = []
    for traj_id in sorted(rows_by_traj):
        rows = sorted(rows_by_traj[traj_id])
        out.append(
            Observations(
                traj_id=traj_id,
                obs_idx=np.array([r[0] for r in rows]),
                times=np.array([r[1] for r in rows]),
                values=np.array([r[2] for r in rows]),
            )
        )
    return out


def write_dataset_meta(path: str | Path, meta: dict) -> None:
    Path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def read_dataset_meta(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())
