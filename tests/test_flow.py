"""Integrator, built-in fields, noise, and serialization."""

from __future__ import annotations

import csv
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowfit.flow import (
    ABS_TOL,
    BUILTIN_FIELDS,
    REL_TOL,
    IntegrationError,
    TrajectoryData,
    VectorField,
    _first_offender,
    increment,
    integrate_flow,
    integrate_flow_grid,
    make_field,
    noise_draw,
    read_dataset,
    validate_smoothness_bounds,
    write_dataset,
)
from flowfit.models import SNAKE, STUBBLE
from flowfit.snake import flow_snake, observe_snake
from flowfit.stubble import flow_stubble, observe_stubble

ROT = make_field("rotation")
PENDULUM = make_field("pendulum")


def test_quarter_turn():
    # closed form: u(t) = (cos t, sin t) from (1, 0)
    end = integrate_flow(ROT, [1.0, 0.0], math.pi / 2)
    assert np.linalg.norm(end - np.array([0.0, 1.0])) <= 1e-6


def test_increment_closed_form():
    dt = 0.1
    got = increment(ROT, dt, [1.0, 0.0])
    want = np.array([math.cos(dt) - 1.0, math.sin(dt)])
    assert np.linalg.norm(got - want) <= 1e-8


def test_rotation_cycle():
    times = np.array([k * math.pi / 2 for k in range(5)])
    states = integrate_flow_grid(ROT, [[1.0, 0.0]], [times])[0][:, 0]
    want = np.array([[1, 0], [0, 1], [-1, 0], [0, -1], [1, 0]], dtype=float)
    assert np.abs(states - want).max() <= 1e-5


def test_single_time_zero_is_exact_initial():
    states = integrate_flow_grid(ROT, [[0.3, -0.2]], [[0.0]])[0][:, 0]
    assert states.shape == (1, 2)
    assert np.array_equal(states[0], np.array([0.3, -0.2]))
    assert np.array_equal(integrate_flow(ROT, [0.3, -0.2], 0.0), np.array([0.3, -0.2]))


def test_zero_field_is_constant_in_time():
    zero = make_field("zero")
    states = integrate_flow_grid(zero, [[0.5, 0.5]], [[0.0, 1.0, 2.0]])[0][:, 0]
    assert np.array_equal(states, np.tile([0.5, 0.5], (3, 1)))


def test_negative_time_is_refused():
    # the flow is realized forward in time only
    with pytest.raises(ValueError, match="nonnegative"):
        integrate_flow(ROT, [0.4, 0.8], -0.7)
    with pytest.raises(ValueError, match="nonnegative"):
        integrate_flow_grid(ROT, [[0.4, 0.8]], [[-0.7, 0.0]])


def test_grid_integration_matches_single():
    x0s = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]])
    times = np.array([0.0, 0.2, 0.4])
    (states,) = integrate_flow_grid(ROT, x0s, [times])
    assert states.shape == (3, 3, 2)
    for j, x0 in enumerate(x0s):
        for i, t in enumerate(times):
            assert np.linalg.norm(states[i, j] - integrate_flow(ROT, x0, t)) <= 1e-9


ORACLE_HORIZON = 10.0
ORACLE_TIMES = np.append(
    np.sort(np.random.default_rng(3).uniform(0.0, ORACLE_HORIZON, 300)), ORACLE_HORIZON
)


def oracle_initials(name, m):
    if m == 1:
        first = {"rotation": [1.0, 0.0], "pendulum": [2.0, 0.0], "cubic": [0.2]}
        return np.array([first[name]])
    lo, hi = (0.0, 1.0) if name == "cubic" else (-2.0, 2.0)
    return np.random.default_rng(7).uniform(lo, hi, size=(m, make_field(name).dim))


def scipy_rk45(fld, x0s, times, tol):
    """The flow by ``solve_ivp(method="RK45")``, its field evaluations and rejected steps."""
    from scipy.integrate import solve_ivp

    m, d = x0s.shape
    sol = solve_ivp(
        lambda _t, y: fld(y.reshape(m, d)).reshape(-1), (0.0, times[-1]), x0s.reshape(-1),
        method="RK45", rtol=tol, atol=tol, t_eval=times, dense_output=True,
    )
    assert sol.success
    rejected = (sol.nfev - 2) // 6 - (len(sol.sol.ts) - 1)
    return sol.y.T.reshape(-1, m, d), sol.nfev, rejected


def counting(fld):
    """`fld` with a counter of its evaluations (construction's probe not counted)."""
    calls = [0]

    def func(x):
        calls[0] += 1
        return fld.func(x)

    counted = dataclasses.replace(fld, func=func)
    calls[0] = 0
    return counted, calls


@pytest.mark.parametrize("tol", [1e-10, 1e-3])
@pytest.mark.parametrize("m", [1, 50])
@pytest.mark.parametrize("name", ["rotation", "pendulum", "cubic"])
def test_integrator_is_scipy_rk45_bit_for_bit(name, m, tol, monkeypatch):
    fld, calls = counting(make_field(name))
    x0s = oracle_initials(name, m)
    want, nfev, _ = scipy_rk45(make_field(name), x0s, ORACLE_TIMES, tol)
    monkeypatch.setattr("flowfit.flow.ABS_TOL", tol)
    monkeypatch.setattr("flowfit.flow.REL_TOL", tol)
    (got,) = integrate_flow_grid(fld, x0s, [ORACLE_TIMES])
    assert np.array_equal(got, want)
    assert calls[0] == nfev


def test_oracle_covers_rejected_steps():
    # so the step-size factor after a rejection (capped at 1) is compared too
    pendulum = make_field("pendulum")
    _, _, rejected = scipy_rk45(pendulum, oracle_initials("pendulum", 1), ORACLE_TIMES, 1e-3)
    assert rejected > 0


SQUARE = VectorField("square", 1, lambda u: u ** 2, 1, (math.inf, 2.0), ((-1.0, 1.0),))


@pytest.mark.parametrize("times", [[2.0], [0.5, 2.0]])
def test_blow_up_raises_with_the_solver_time(times):
    # u' = u^2 from 1 is 1 / (1 - t): it leaves every bound at t = 1
    with pytest.raises(IntegrationError, match="'square' stalled") as err:
        integrate_flow_grid(SQUARE, [[1.0]], [times])
    assert 0.5 < err.value.reached_time <= 1.0


def test_nan_field_raises_instead_of_stepping_forever():
    nan = VectorField("nan", 1, lambda u: np.full_like(u, np.nan), 1, (math.inf, 1.0), ((-1, 1),))
    with pytest.raises(IntegrationError, match="'nan' stalled at t=0 ") as err:
        integrate_flow_grid(nan, [[1.0]], [[1.0]])
    assert err.value.reached_time == 0.0


def test_repeated_times_give_equal_rows():
    x0s = [[1.0, 0.0], [0.2, 0.3]]
    (states,) = integrate_flow_grid(ROT, x0s, [[0.0, 0.5, 0.5, 1.0, 1.0]])
    assert np.array_equal(states[1], states[2])
    assert np.array_equal(states[3], states[4])
    assert np.array_equal(states[[0, 1, 3]], integrate_flow_grid(ROT, x0s, [[0.0, 0.5, 1.0]])[0])


SHARED_END_GRIDS = {
    # the sample grids of one snake horizon, and a grid that is not among them
    "rotation": (ROT, [1.0, 0.0], [2 * math.pi / 2**k * np.arange(2**k + 1) for k in range(10, 15)]
                 + [np.linspace(0.0, 2 * math.pi, 2049)]),
    # read off the union grid, the n = 1024 path here differs from its own solve
    "pendulum": (make_field("pendulum"), [2.0, 0.0],
                 [30.0 / n * np.arange(n + 1) for n in (1024, 4096, 16384)]),
    # n that are not nested, on grids that all end at 30 exactly
    "non-nested": (make_field("pendulum"), [2.0, 0.0],
                   [np.linspace(0.0, 30.0, n + 1) for n in (1000, 1500, 3000, 7001)]),
}


@pytest.mark.parametrize("case", sorted(SHARED_END_GRIDS))
def test_one_solve_fills_each_grid_as_its_own_solve(case):
    fld, x0, grids = SHARED_END_GRIDS[case]
    together = integrate_flow_grid(fld, [x0], grids)
    assert len(together) == len(grids)
    for grid, got in zip(grids, together):
        assert np.array_equal(got, integrate_flow_grid(fld, [x0], [grid])[0])


def test_grids_with_different_last_times_refused():
    with pytest.raises(ValueError, match="share their last time"):
        integrate_flow_grid(ROT, [[1.0, 0.0]], [np.linspace(0, 1, 5), np.linspace(0, 1.5, 5)])


@pytest.mark.parametrize("grids", [
    [[math.nan, 1.0]], [[0.0, math.nan, 1.0]], [np.linspace(0.0, 1.0, 5), [math.nan, 1.0]],
])
def test_non_finite_times_refused(grids):
    # a grid ending at nan or inf would be stepped towards forever; a nan
    # inside a grid that ends at 1 is refused as well
    with pytest.raises(ValueError, match="times must be finite"):
        integrate_flow_grid(ROT, [[1.0, 0.0]], grids)


def test_stall_fails_the_whole_shared_solve():
    with pytest.raises(IntegrationError, match="'square' stalled") as err:
        integrate_flow_grid(SQUARE, [[1.0]], [np.linspace(0.0, 2.0, 3), np.linspace(0.0, 2.0, 9)])
    assert 0.5 < err.value.reached_time <= 1.0


def test_all_zero_grids_return_the_initials():
    x0s = np.array([[1.0, 0.0], [0.2, 0.3]])
    got = integrate_flow_grid(ROT, x0s, [np.zeros(1), np.zeros(3)])
    assert [a.shape for a in got] == [(1, 2, 2), (3, 2, 2)]
    assert all(np.array_equal(a, np.broadcast_to(x0s, a.shape)) for a in got)


@pytest.mark.parametrize("grids", [
    [0.5], np.array([0.0, 1.0]), [np.zeros((2, 2))], [np.linspace(0.0, 1.0, 5), 1.0],
])
def test_grid_that_is_not_one_dimensional_refused(grids):
    # a bare array of times is a list of 0-d grids: refused by name, not read as one grid
    with pytest.raises(ValueError, match="each grid must be a 1-D array of times"):
        integrate_flow_grid(ROT, [[1.0, 0.0]], grids)


@pytest.mark.parametrize("grids", [[[0.0, 0.0]], [[0.0, 1.0]], []])
def test_non_finite_initial_states_refused(grids):
    # also where no grid reaches past 0 and the initials would be returned as they are
    for x0 in ([math.nan, 0.0], [0.0, math.inf]):
        with pytest.raises(ValueError, match="initial states must be finite"):
            integrate_flow_grid(ROT, [x0], grids)


def test_step_budget_counts_steps_between_output_times(monkeypatch):
    sparse = np.array([0.0, 1.0, 11.0])
    dense = np.linspace(0.0, 100.0, 1001)
    want = [integrate_flow_grid(ROT, [[1.0, 0.0]], [grid])[0] for grid in (sparse, dense)]
    # rotation takes about 23 steps per unit time: 50 steps end between t = 1 and t = 11
    monkeypatch.setattr("flowfit.flow.MAX_STEPS_PER_OUTPUT", 50)
    with pytest.raises(IntegrationError, match="'rotation' stopped at t=.*: MAX_STEPS_PER_OUTPUT"
                       " = 50 steps did not reach the next output time 11$") as err:
        integrate_flow_grid(ROT, [[1.0, 0.0]], [sparse])
    assert 1.0 < err.value.reached_time < 11.0
    # about 2,300 steps in all but at most 4 between two output times: the horizon does not count
    assert np.array_equal(integrate_flow_grid(ROT, [[1.0, 0.0]], [dense])[0], want[1])
    # a budget the solve stays within changes none of its bits
    monkeypatch.setattr("flowfit.flow.MAX_STEPS_PER_OUTPUT", 1000)
    assert np.array_equal(integrate_flow_grid(ROT, [[1.0, 0.0]], [sparse])[0], want[0])


def observe(sigma, seed, times):
    """States of the rotation orbit from (1, 0) after time 0, and their noisy copies."""
    states = integrate_flow_grid(ROT, [[1.0, 0.0]], [times])[0][1:, 0]
    return states, states + noise_draw(sigma, seed, states.shape)


def test_zero_sigma_gaussian_returns_states():
    states, noisy = observe(0.0, 5, [0.0, 0.1, 0.2])
    assert np.array_equal(noisy, states)


def test_noise_is_reproducible():
    a = noise_draw(0.3, 11, (4, 2, 3))
    b = noise_draw(0.3, 11, (4, 2, 3))
    c = noise_draw(0.3, 12, (4, 2, 3))
    assert a.shape == (4, 2, 3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # one normal draw from default_rng(seed), as the saved datasets were drawn
    assert np.array_equal(a, np.random.default_rng(11).normal(0.0, 0.3, size=(4, 2, 3)))


@pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf])
def test_noise_refuses_a_bad_sigma(sigma):
    with pytest.raises(ValueError, match="sigma must be nonnegative and finite"):
        noise_draw(sigma, 0, (3, 2))


def test_noise_block_is_prefix_stable():
    # a block is the leading rows of any longer block with the same trailing shape
    short = noise_draw(0.3, 11, (5, 3, 2))
    long = noise_draw(0.3, 11, (9, 3, 2))
    assert np.array_equal(short, long[:5])
    assert np.array_equal(noise_draw(0.3, 11, (7, 2)), noise_draw(0.3, 11, (12, 2))[:7])


def test_gaussian_noise_variance():
    # law of large numbers: empirical per-component variance near sigma^2
    draws = noise_draw(1.0, 42, (50_000, 2))
    var = draws.var(axis=0)
    assert draws.shape == (50_000, 2)
    assert np.all(var >= 0.98) and np.all(var <= 1.02)


def test_one_noise_draw_per_dataset(monkeypatch):
    calls = []

    def counting(sigma, seed, shape):
        calls.append((sigma, seed, shape))
        return noise_draw(sigma, seed, shape)

    monkeypatch.setattr("flowfit.stubble.noise_draw", counting)
    monkeypatch.setattr("flowfit.snake.noise_draw", counting)
    states = flow_stubble(ROT, 4, 0.1, beta=2)
    ds = observe_stubble(ROT, 4, states, 0.1, sigma=0.1, seed=3)
    assert calls == [(0.1, 3, ds.observations.shape)] == [(0.1, 3, (16, 2, 2))]
    calls.clear()
    (path,) = flow_snake(ROT, np.array([1.0, 0.0]), [(32, 0.1)])
    ds = observe_snake(ROT, path, 0.1, sigma=0.1, seed=3)
    assert calls == [(0.1, 3, ds.observations.shape)] == [(0.1, 3, (1, 32, 2))]


def test_noiseless_datasets_are_the_flow():
    states = flow_stubble(ROT, 3, 0.1, beta=2)
    stub = observe_stubble(ROT, 3, states, 0.1, sigma=0.0, seed=4)
    (flow,) = integrate_flow_grid(ROT, stub.initials, [[0.0, 0.1, 0.2]])
    assert np.array_equal(stub.observations, np.transpose(flow[1:], (1, 0, 2)))
    (path,) = flow_snake(ROT, np.array([1.0, 0.0]), [(16, 0.1)])
    snk = observe_snake(ROT, path, 0.1, sigma=0.0)
    (flow,) = integrate_flow_grid(ROT, [[1.0, 0.0]], [0.1 * np.arange(17)])
    assert np.array_equal(snk.observations, np.transpose(flow[1:], (1, 0, 2)))


@given(
    name=st.sampled_from(["rotation", "pendulum", "cubic"]),
    coords=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=2),
    s=st.floats(0.0, 1.0),
    t=st.floats(0.0, 1.0),
)
@settings(max_examples=30)
def test_semigroup(name, coords, s, t):
    fld = make_field(name)
    x = np.resize(np.asarray(coords, dtype=float), fld.dim)
    full = integrate_flow(fld, x, s + t)
    twice = integrate_flow(fld, integrate_flow(fld, x, s), t)
    tol = 10.0 * (ABS_TOL + REL_TOL * np.linalg.norm(full))
    assert np.linalg.norm(full - twice) <= tol


def test_flow_difference_bound():
    # two linear fields with shared Lipschitz bound L and t <= 1/L:
    # flows differ by at most 2 t sup|f - g| over the reachable region
    rng = np.random.default_rng(0)
    a = np.array([[0.0, -1.0], [1.0, 0.0]])
    e = 0.05 * rng.standard_normal((2, 2))
    # u @ A.T applies A to each state of a (..., d) stack, as VectorField asks
    fa = VectorField("la", 2, lambda u: u @ a.T, 1, (3.0, 1.2), ((-2, 2),) * 2)
    fb = VectorField("lb", 2, lambda u: u @ (a + e).T, 1, (3.0, 1.2), ((-2, 2),) * 2)
    lip = 1.2
    grid = np.linspace(-2.0, 2.0, 41)
    pts = np.array([[p, q] for p in grid for q in grid])
    sup = max(np.linalg.norm(fa(p) - fb(p)) for p in pts)
    for x in rng.uniform(-1.0, 1.0, size=(10, 2)):
        t = rng.uniform(0.1, 1.0 / lip)
        diff = np.linalg.norm(integrate_flow(fa, x, t) - integrate_flow(fb, x, t))
        assert diff <= 2.0 * t * sup + 1e-8


def test_field_must_be_vectorized():
    # A @ u maps one state correctly but, on a (d, d) stack, returns the
    # transposed system; construction refuses it instead of integrating it
    a = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="'per-state': func is not vectorized"):
        VectorField("per-state", 2, lambda u: a @ u, 1, (3.0, 1.0), ((-2, 2),) * 2)
    with pytest.raises(ValueError, match="'flat': func maps a \\(2, 1, 2\\) stack to \\(2, 1\\)"):
        VectorField("flat", 2, lambda u: u[..., 0], 1, (3.0, 1.0), ((-2, 2),) * 2)
    fld = VectorField("stacked", 2, lambda u: u @ a.T, 1, (3.0, 1.0), ((-2, 2),) * 2)
    assert np.array_equal(fld(np.array([1.0, 0.0])), np.array([0.0, 1.0]))
    for name in BUILTIN_FIELDS:  # every built-in field passes the construction probe
        assert make_field(name).dim >= 1


@pytest.mark.parametrize("name", ["rotation", "pendulum"])
def test_trajectory_derivative_bounds(name):
    # finite-difference D^k of t -> U(f, x, t) obeys (k-1)! L^k with
    # L the largest certified derivative bound of the field
    fld = make_field(name)
    lip = max(fld.derivative_bounds[: fld.smoothness + 1])
    x = np.full(fld.dim, 0.5)
    hstep = 0.01
    for k in range(1, fld.smoothness + 2):
        offs = np.arange(k + 1)
        coefs = np.array([(-1) ** (k - j) * math.comb(k, j) for j in offs])
        states = np.array([integrate_flow(fld, x, 1.0 + j * hstep) for j in offs])
        deriv = coefs @ states / hstep**k
        assert np.linalg.norm(deriv) <= math.factorial(k - 1) * lip**k * 1.1


@pytest.mark.parametrize("name", sorted(BUILTIN_FIELDS))
def test_builtin_bounds_are_certified(name):
    fld = make_field(name)
    assert validate_smoothness_bounds(fld, np.random.default_rng(7))


@pytest.mark.parametrize("shape", [(7, 2), (2, 1, 2)])
def test_pendulum_is_the_damped_pendulum(shape):
    # v'' = -sin v - 0.1 v' in the state (x1, x2) = (v, v'), on any stack of states
    x = np.random.default_rng(11).uniform(-3.0, 3.0, size=shape)
    want = np.stack([x[..., 1], -np.sin(x[..., 0]) - 0.1 * x[..., 1]], axis=-1)
    got = PENDULUM(x)
    assert got.shape == shape
    assert np.array_equal(got, want)


def store(directory, family, ds):
    write_dataset(directory, ds, {"kind": family.name, **family.record(ds)})


def load(directory, family):
    return read_dataset(directory, family.name, family.initials, family.record)


def rewrite_rows(directory, edit):
    """Replace the data rows of the stored observations by ``edit(rows)``."""
    path = directory / "observations.csv"
    with path.open(newline="") as fh:
        header, *rows = csv.reader(fh)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows([header] + edit(rows))


def test_observation_csv_round_trip(tmp_path):
    (path,) = flow_snake(ROT, np.array([1.0, 0.0]), [(2, 0.1)])
    one = observe_snake(ROT, path, 0.1, sigma=0.1, seed=3)
    ds = TrajectoryData(np.vstack([one.initials, one.initials]), one.dt,
                        np.concatenate([one.observations, one.observations + 1.0]), one.meta)
    store(tmp_path, SNAKE, ds)
    with (tmp_path / "observations.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [(int(r[0]), int(r[1]), float(r[2])) for r in rows] == [
        (j, i, ds.times[i]) for j in (1, 2) for i in (1, 2)
    ]
    back = load(tmp_path, SNAKE)
    assert np.array_equal(back.initials, ds.initials)
    assert np.array_equal(back.observations, ds.observations)


def test_meta_round_trip(tmp_path):
    meta = {"field": "rotation", "dim": 2, "sigma": 0.05, "seed": 9}
    (path,) = flow_snake(ROT, np.array([1.0, 0.0]), [(2, 0.1)])
    one = observe_snake(ROT, path, 0.1, sigma=0.1, seed=3)
    store(tmp_path, SNAKE, TrajectoryData(one.initials, one.dt, one.observations, meta))
    stored = json.loads((tmp_path / "meta.json").read_text())
    assert stored == {**meta, "kind": "snake", "dt": 0.1, "x1": [1.0, 0.0], "n": 2}
    assert load(tmp_path, SNAKE).meta == stored


# One dataset of each sampling scheme, with the family that records it.
DATASETS = {
    "stubble": lambda: (STUBBLE, observe_stubble(
        PENDULUM, 4, flow_stubble(PENDULUM, 4, 0.02, beta=2), 0.02, sigma=0.05, seed=9)),
    "snake": lambda: (SNAKE, observe_snake(
        ROT, flow_snake(ROT, np.array([1.0, 0.0]), [(20, 0.1)])[0], 0.1, sigma=0.1, seed=2)),
}


@pytest.mark.parametrize("scheme", sorted(DATASETS))
def test_observation_round_trip(scheme, tmp_path):
    family, ds = DATASETS[scheme]()
    store(tmp_path, family, ds)
    meta = json.loads((tmp_path / "meta.json").read_text())
    back = load(tmp_path, family)
    assert np.array_equal(back.initials, ds.initials)
    assert np.array_equal(back.observations, ds.observations)
    assert back.dt == ds.dt
    assert back.meta == meta and {k: meta[k] for k in ds.meta} == ds.meta


@pytest.mark.parametrize("scheme", sorted(DATASETS))
def test_nonfinite_observations_rejected(scheme):
    _, ds = DATASETS[scheme]()
    bad = ds.observations.copy()
    bad[-1, -1, -1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        TrajectoryData(initials=ds.initials, dt=ds.dt, observations=bad, meta=ds.meta)
    initials = ds.initials.copy()
    initials[0, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        TrajectoryData(initials=initials, dt=ds.dt, observations=ds.observations)
    with pytest.raises(ValueError, match="finite"):
        TrajectoryData(initials=ds.initials, dt=np.inf, observations=ds.observations)


def test_records_numbered_from_zero_are_refused(tmp_path):
    # ids 0..m-1 would pair each trajectory with the previous grid point
    family, ds = DATASETS["stubble"]()
    store(tmp_path, family, ds)
    rewrite_rows(tmp_path, lambda rows: [[int(r[0]) - 1] + r[1:] for r in rows])
    with pytest.raises(ValueError, match="ids must be exactly 1..16; first offending id 0$"):
        load(tmp_path, family)


def test_records_with_a_missing_index_are_refused(tmp_path):
    # without obs_idx 49 every later observation would be read one step early
    (path,) = flow_snake(ROT, np.array([1.0, 0.0]), [(64, 0.1)])
    ds = observe_snake(ROT, path, 0.1, sigma=0.05, seed=2)
    store(tmp_path, SNAKE, ds)
    rewrite_rows(tmp_path, lambda rows: [r for r in rows if r[1] != "49"])
    with pytest.raises(ValueError, match="trajectory 1: .* first offending obs_idx 49$"):
        load(tmp_path, SNAKE)


@pytest.mark.parametrize("edit, line, fields", [
    (lambda rows: rows + [[]], 22, 0),
    (lambda rows: rows[:4] + [rows[4][:-1]] + rows[5:], 6, 4),
], ids=["blank-line", "short-row"])
def test_rows_of_another_length_are_refused(edit, line, fields, tmp_path):
    family, ds = DATASETS["snake"]()
    store(tmp_path, family, ds)
    rewrite_rows(tmp_path, edit)
    with pytest.raises(ValueError, match=rf"csv, line {line}: {fields} fields, but the header has 5$"):
        load(tmp_path, family)


def test_meta_value_of_a_wrong_type_is_refused(tmp_path):
    family, ds = DATASETS["snake"]()
    store(tmp_path, family, ds)
    path = tmp_path / "meta.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "dt": [ds.dt]}))
    with pytest.raises(ValueError, match=r"meta\.json: float\(\) argument must be"):
        load(tmp_path, family)


@pytest.mark.parametrize("scheme, where, rel, refused", [
    ("snake", None, 1.0, "trajectory 1, obs_idx 1: t = 0.2 is not obs_idx \\* dt = 0.1$"),
    ("stubble", (3, 2), 1e-11, "trajectory 3, obs_idx 2: t = "),
    ("stubble", (3, 2), 1e-13, None),
], ids=["every-t-doubled", "one-t-off", "one-t-within-tolerance"])
def test_t_column_is_checked(scheme, where, rel, refused, tmp_path):
    # t is obs_idx * dt to within 1e-12 relative; rows are matched by obs_idx alone
    family, ds = DATASETS[scheme]()
    store(tmp_path, family, ds)

    def shift(row):
        hit = where is None or (int(row[0]), int(row[1])) == where
        return row[:2] + [repr(float(row[2]) * (1 + rel))] + row[3:] if hit else row

    rewrite_rows(tmp_path, lambda rows: [shift(r) for r in rows])
    if refused is None:
        assert np.array_equal(load(tmp_path, family).observations, ds.observations)
    else:
        with pytest.raises(ValueError, match=refused):
            load(tmp_path, family)


@pytest.mark.parametrize("ids, n, want", [
    ([1, 2, 3], 3, None), ([0, 1, 2], 3, 0), ([1, 2], 3, 3), ([1, 2, 3, 4], 3, 4),
    ([1, 3, 4], 4, 2), ([1, 2, 2, 3], 3, 2), ([], 2, 1),
])
def test_first_offending_id(ids, n, want):
    assert _first_offender(ids, n) == want

