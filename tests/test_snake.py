"""Long-trajectory curve fitting, nearest-neighbor and stencil estimators."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError

from flowfit import interp, localpoly
from flowfit.flow import TrajectoryData, make_field
from flowfit.interp import (
    HULL_RTOL,
    _diameter,
    in_hull,
    interp_multivariate,
    stability_norm,
)
from flowfit.localpoly import (
    LocalPolyFit,
    RegressionData,
    lp_coefficients,
    lp_weights,
    n_basis,
)
from flowfit.snake import (
    GRID_PER_BANDWIDTH,
    CurveEstimate,
    NoStencilFound,
    StencilConfig,
    check_stencil,
    delta_nn,
    estimate_general,
    estimate_lipschitz,
    fit_curve,
    flow_snake,
    nn_time,
    observe_snake,
    select_stencil,
    _subset_keys,
)

ROT = make_field("rotation")


def circle_curve(resolution: int = 64) -> CurveEstimate:
    u = lambda t: np.array([math.cos(t), math.sin(t)])
    du = lambda t: np.array([-math.sin(t), math.cos(t)])
    return CurveEstimate.from_functions(u, du, horizon=2 * math.pi, degree=2, resolution=resolution)


def test_single_observation():
    (path,) = flow_snake(ROT, np.array([1.0, 0.0]), [(1, 0.1)])
    ds = observe_snake(ROT, path, 0.1)
    assert ds.observations.shape == (1, 1, 2)
    assert np.array_equal(ds.times, np.array([0.0, 0.1]))
    assert ds.states.shape == (1, 2, 2)


def test_zero_field_stays_at_initial():
    zero = make_field("zero")
    (path,) = flow_snake(zero, np.array([0.3, 0.7]), [(5, 0.2)])
    ds = observe_snake(zero, path, 0.2)
    assert np.array_equal(ds.observations, np.tile([0.3, 0.7], (1, 5, 1)))


def test_rotation_orbit_closes():
    n = 256
    (path,) = flow_snake(ROT, np.array([1.0, 0.0]), [(n, 2 * math.pi / n)])
    ds = observe_snake(ROT, path, 2 * math.pi / n)
    assert np.linalg.norm(ds.observations[0, -1] - ds.initials[0]) <= 1e-5


def test_noise_reproducible():
    (path,) = flow_snake(ROT, np.array([1.0, 0.0]), [(16, 0.1)])
    a = observe_snake(ROT, path, 0.1, sigma=0.3, seed=21)
    b = observe_snake(ROT, path, 0.1, sigma=0.3, seed=21)
    assert np.array_equal(a.observations, b.observations)


def test_fit_curve_refuses_several_trajectories():
    (path,) = flow_snake(ROT, np.array([1.0, 0.0]), [(64, 0.1)])
    ds = observe_snake(ROT, path, 0.1, sigma=0.05, seed=4)
    two = TrajectoryData(
        np.vstack([ds.initials, 0.5 * ds.initials]), ds.dt,
        np.concatenate([ds.observations, 0.5 * ds.observations]), ds.meta,
    )
    assert two.states.shape == (2, 65, 2)
    with pytest.raises(ValueError, match="K = 2"):
        fit_curve(two, beta=1)


def test_affine_motion_fits_exactly():
    # u(t) = x1 + c t; a degree >= 1 local fit reproduces it and its slope
    fld = make_field("constant")
    (path,) = flow_snake(fld, np.array([0.1, 0.5]), [(64, 0.02)])
    ds = observe_snake(fld, path, 0.02)
    curve = fit_curve(ds, beta=1)
    for t in np.linspace(0.0, curve.horizon, 17):
        want = np.array([0.1 + t, 0.5])
        assert np.linalg.norm(curve.u(t) - want) <= 1e-8
        assert np.linalg.norm(curve.du(t) - np.array([1.0, 0.0])) <= 1e-8


def test_noiseless_circle_sup_error():
    n = 4096
    (path,) = flow_snake(ROT, np.array([1.0, 0.0]), [(n, 2 * math.pi / n)])
    ds = observe_snake(ROT, path, 2 * math.pi / n)
    curve = fit_curve(ds, beta=3)
    ts = np.linspace(0.0, curve.horizon, 200)
    worst = max(
        np.linalg.norm(curve.u(t) - np.array([math.cos(t), math.sin(t)])) for t in ts
    )
    assert worst <= 1e-3


def test_boundary_flag_covers_edges():
    (path,) = flow_snake(ROT, np.array([1.0, 0.0]), [(64, 0.05)])
    ds = observe_snake(ROT, path, 0.05)
    curve = fit_curve(ds, beta=3)
    assert curve.boundary(0.0)
    assert curve.boundary(curve.horizon)
    assert not curve.boundary(curve.horizon / 2)


def count_fits(monkeypatch) -> list:
    """Record every time that `flowfit.snake` fits by `lp_coefficients`,
    one entry per time of each stacked call."""
    import flowfit.snake as snake

    fits = []
    real = snake.lp_coefficients

    def counted(x, *args):
        fits.extend(np.asarray(x).reshape(-1).tolist())
        return real(x, *args)

    monkeypatch.setattr(snake, "lp_coefficients", counted)
    return fits


def assert_grid_is_per_point_fit(curve: CurveEstimate) -> None:
    fits = np.stack([curve.u(t) for t in curve.grid_times])
    err = np.linalg.norm(curve.grid_states - fits, axis=1)
    assert np.all(err <= 1e-12 * np.linalg.norm(fits, axis=1))


@pytest.mark.parametrize("field", ["rotation", "pendulum"])
@pytest.mark.parametrize("beta", [1, 2, 3])
def test_grid_equals_per_point_fits_on_noisy_data(beta, field, monkeypatch):
    n = 1024
    fld = make_field(field)
    (path,) = flow_snake(fld, np.array([1.0, 0.0]), [(n, 2 * math.pi / n)])
    ds = observe_snake(fld, path, 2 * math.pi / n, sigma=0.05, seed=7)
    fits = count_fits(monkeypatch)
    curve = fit_curve(ds, beta=beta)
    assert len(fits) < curve.grid_times.size  # interior times come from the filter
    assert_grid_is_per_point_fit(curve)


@pytest.mark.parametrize("field", ["rotation", "pendulum"])
@pytest.mark.parametrize("beta", [1, 2, 3])
def test_grid_equals_per_point_fits_at_the_bandwidth_floor(beta, field, monkeypatch):
    n = 512
    fld = make_field(field)
    (path,) = flow_snake(fld, np.array([1.0, 0.0]), [(n, 2 * math.pi / n)])
    ds = observe_snake(fld, path, 2 * math.pi / n)
    fits = count_fits(monkeypatch)
    curve = fit_curve(ds, beta=beta)
    reach = curve.bandwidth / ds.dt  # the floor 1.25 (beta + 1) dt
    if beta == 3:  # offset 5 dt sits on the window edge: every time is fitted alone
        assert math.isclose(reach, 5.0)
        assert sorted(fits) == curve.grid_times.tolist()
    else:
        assert reach % 1.0 > 0.1 and len(fits) < curve.grid_times.size
    assert_grid_is_per_point_fit(curve)


@pytest.mark.parametrize("beta, reach", [(1, 0.9), (2, 0.7), (3, 1.5)])
def test_grid_equals_per_point_fits_where_the_interior_design_widens(beta, reach, monkeypatch):
    n = 256
    (path,) = flow_snake(ROT, np.array([1.0, 0.0]), [(n, 2 * math.pi / n)])
    ds = observe_snake(ROT, path, 2 * math.pi / n, sigma=0.05, seed=3)
    data = RegressionData(points=ds.times[:, None], targets=ds.states[0], extent=ds.horizon)
    _, singular = lp_coefficients(ds.times[n // 2:n // 2 + 1, None], data,
                                  LocalPolyFit(degree=beta, bandwidth=reach * ds.dt))
    assert singular.tolist() == [True]  # too few points in a two-sided window
    fits = count_fits(monkeypatch)
    curve = fit_curve(ds, beta=beta, bandwidth=reach * ds.dt)
    assert len(fits) < curve.grid_times.size
    assert_grid_is_per_point_fit(curve)


def test_grid_holds_observation_times_and_fits_only_boundary_times(monkeypatch):
    n = 2**14
    (path,) = flow_snake(ROT, np.array([1.0, 0.0]), [(n, 2 * math.pi / n)])
    ds = observe_snake(ROT, path, 2 * math.pi / n, sigma=0.05, seed=1)
    fits = count_fits(monkeypatch)
    curve = fit_curve(ds, beta=1)
    grid = curve.grid_times
    assert np.all(np.isin(grid, ds.times))
    assert grid[0] == 0.0 and grid[-1] == ds.horizon
    assert np.all(np.diff(grid) > 0)
    # the boundary times alone; the filter's weights are solved by lp_weights
    assert 0 < len(fits) < grid.size
    assert fits == [t for t in grid.tolist() if curve.boundary(t)]


def reference_filter(ds: TrajectoryData, curve: CurveEstimate) -> tuple:
    """The interior grid times of a curve fitted at its own bandwidth, and
    their states as the tap-by-tap sum of the fit's weights at the middle
    observation, one numpy operation per tap."""
    data = RegressionData(points=ds.times[:, None], targets=ds.states[0], extent=ds.horizon)
    h = curve.bandwidth
    mid = ds.n // 2
    weights = lp_weights(ds.times[mid:mid + 1], data, LocalPolyFit(curve.degree, h))
    idx = np.searchsorted(ds.times, curve.grid_times)
    stride = idx[1] - idx[0]
    inner = (curve.grid_times >= h) & (curve.grid_times <= ds.horizon - h)
    lo, hi = idx[inner][[0, -1]] - mid
    taps = np.flatnonzero(weights)
    return inner, sum(weights[k] * data.targets[lo + k:hi + k + 1:stride] for k in taps)


@pytest.mark.parametrize("field", ["rotation", "pendulum"])
@pytest.mark.parametrize("n", [1024, 2**14])
@pytest.mark.parametrize("beta", [1, 2, 3])
def test_interior_filter_equals_the_tap_by_tap_sum(beta, n, field):
    fld = make_field(field)
    (path,) = flow_snake(fld, np.array([1.0, 0.0]), [(n, 2 * math.pi / n)])
    ds = observe_snake(fld, path, 2 * math.pi / n, sigma=0.05, seed=5)
    curve = fit_curve(ds, beta=beta)
    inner, want = reference_filter(ds, curve)
    assert inner.sum() > 2 * GRID_PER_BANDWIDTH
    assert np.array_equal(curve.grid_states[inner], want)


@pytest.mark.parametrize("n, most", [(2**10, 2), (2**14, 5)])
def test_curve_fit_makes_few_eigendecompositions(n, most, monkeypatch):
    # one call for the filter's weights, and one per padded block of the boundary
    # fit; each matrix is one time's design, and no time's is decomposed twice
    (path,) = flow_snake(ROT, np.array([1.0, 0.0]), [(n, 2 * math.pi / n)])
    ds = observe_snake(ROT, path, 2 * math.pi / n, sigma=0.05, seed=1)
    calls = []
    real = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(localpoly.np.linalg, "eigh", counted)
    curve = fit_curve(ds, beta=1)
    assert 0 < len(calls) <= most
    matrices = sum(math.prod(shape[:-2]) for shape in calls)
    assert matrices == 1 + sum(curve.boundary(t) for t in curve.grid_times.tolist())


@pytest.mark.parametrize("beta, reach", [(1, None), (3, None), (1, 0.9), (2, 0.7), (3, 1.5)])
def test_curve_on_a_store_filled_by_another_replicate_has_the_same_bits(beta, reach):
    n = 256
    dt = 2 * math.pi / n
    (path,) = flow_snake(ROT, np.array([1.0, 0.0]), [(n, dt)])
    first, second = (observe_snake(ROT, path, dt, sigma=0.05, seed=seed) for seed in (3, 4))
    bandwidth = None if reach is None else reach * dt
    plans = {}
    fit_curve(first, beta, bandwidth, plans)
    made = set(plans)
    shared = fit_curve(second, beta, bandwidth, plans)
    alone = fit_curve(second, beta, bandwidth)
    if reach is not None:  # a window at an end held at a widened bandwidth only
        # a design half's key is (degree, bandwidth, the bytes of the times)
        assert any(key[0] == beta and key[1] > bandwidth for key in plans if len(key) == 3)
    assert np.array_equal(shared.grid_states, alone.grid_states)
    t = np.append(np.random.default_rng(beta).uniform(0.0, shared.horizon, 40),
                  [0.0, shared.horizon])
    assert np.array_equal(shared.u(t), alone.u(t))
    assert np.array_equal(shared.du(t), alone.du(t))
    assert set(plans) == made  # read by the second fit; u and du keep nothing there


def test_nn_time_exact_at_grid_points():
    curve = circle_curve()
    for k in (0, 10, 31):
        t_k = curve.grid_times[k]
        assert nn_time(curve, curve.grid_states[k]) == t_k


def test_nn_time_projects_radially():
    curve = circle_curve(resolution=64)
    for r in (0.5, 1.5):
        for theta in (0.3, 2.0, 4.5):
            x = r * np.array([math.cos(theta), math.sin(theta)])
            assert abs(nn_time(curve, x) - theta) <= 1e-6


def test_nn_time_clips_to_the_ends_of_an_open_arc():
    u = lambda t: np.array([math.cos(t), math.sin(t)])
    du = lambda t: np.array([-math.sin(t), math.cos(t)])
    arc = CurveEstimate.from_functions(u, du, horizon=math.pi, degree=2)
    assert abs(nn_time(arc, np.array([1.5, -0.5]))) <= 1e-9
    assert abs(nn_time(arc, np.array([-1.5, -0.5])) - math.pi) <= 1e-9


def reference_nn_time(curve: CurveEstimate, x: np.ndarray) -> float:
    """`nn_time` of one point, searched on its own with ``np.sum`` distances."""
    times = curve.grid_times
    d2 = np.sum((curve.grid_states - x) ** 2, axis=1)
    k = int(np.argmin(d2))
    if d2[k] == 0.0 or times.size < 3:
        return float(times[k])
    j = min(max(k, 1), times.size - 2)
    t0, t1, t2 = times[j - 1:j + 2]
    f0, f1, f2 = d2[j - 1:j + 2]
    p = (t1 - t0) ** 2 * (f1 - f2) - (t1 - t2) ** 2 * (f1 - f0)
    q = (t1 - t0) * (f1 - f2) - (t1 - t2) * (f1 - f0)
    if not q < 0.0:
        return float(times[k])
    lo, hi = times[max(k - 1, 0)], times[min(k + 1, times.size - 1)]
    return float(np.clip(t1 - 0.5 * p / q, lo, hi))


@given(
    d=st.integers(1, 4),
    n=st.sampled_from([8, 64, 700]),
    on_grid=st.lists(st.integers(0, 700), max_size=3),
    spread=st.floats(0.0, 2.0),
    seed=st.integers(0, 2**16),
)
def test_stacked_nearest_times_match_one_point_searches(d, n, on_grid, spread, seed):
    # a random walk as the curve grid
    rng = np.random.default_rng(seed)
    states = np.cumsum(rng.standard_normal((n, d)), axis=0)
    curve = CurveEstimate(u=None, du=lambda t: np.stack([np.asarray(t)] * d, axis=-1),
                          horizon=1.0, degree=1, grid_times=np.linspace(0.0, 1.0, n),
                          grid_states=states)
    x = np.concatenate([states[[k % n for k in on_grid]],
                        states[rng.integers(0, n, 12)] + spread * rng.standard_normal((12, d))])
    want = np.array([reference_nn_time(curve, p) for p in x])
    with pytest.MonkeyPatch.context() as patch:  # blocks of five queries
        patch.setattr("flowfit.snake.DISTANCE_BLOCK", 5 * n * d)
        assert np.array_equal(nn_time(curve, x), want)
    assert [nn_time(curve, p) for p in x] == want.tolist()
    assert np.array_equal(estimate_lipschitz(x, curve), curve.du(want))


def test_nn_estimate_exact_on_affine_curve():
    c = np.array([0.4, -0.3])
    u = lambda t: np.array([0.1, 0.2]) + t * c
    du = lambda t: c
    curve = CurveEstimate.from_functions(u, du, horizon=1.0, degree=1)
    for t in (0.2, 0.55, 0.9):
        got = estimate_lipschitz(u(t), curve)
        assert np.array_equal(got, c)


def test_nn_estimate_on_fitted_circle():
    n = 4096
    (path,) = flow_snake(ROT, np.array([1.0, 0.0]), [(n, 2 * math.pi / n)])
    ds = observe_snake(ROT, path, 2 * math.pi / n)
    curve = fit_curve(ds, beta=1)
    for theta in (0.5, 2.5, 5.0):
        x = np.array([math.cos(theta), math.sin(theta)])
        err = np.linalg.norm(estimate_lipschitz(x, curve) - ROT(x))
        assert err <= 2e-3


def test_nn_consistency_with_refined_time():
    curve = circle_curve()
    for k in (3, 17, 40):
        x = curve.grid_states[k]
        got = estimate_lipschitz(x, curve)
        assert np.array_equal(got, curve.du(nn_time(curve, x)))
        assert np.array_equal(got, curve.du(curve.grid_times[k]))


def test_lipschitz_error_bound_structure():
    # curve estimate off by gamma in value and lam in slope, query at
    # distance delta: error <= L1 (delta + 2 gamma) + lam + 1e-9
    gamma, delta = 0.02, 0.1
    wob = 3.0
    u = lambda t: (1.0 + 0.0) * np.array([math.cos(t), math.sin(t)]) + gamma * np.array(
        [math.sin(wob * t), math.cos(wob * t)]
    )
    du = lambda t: np.array([-math.sin(t), math.cos(t)]) + gamma * wob * np.array(
        [math.cos(wob * t), -math.sin(wob * t)]
    )
    lam = gamma * wob
    curve = CurveEstimate.from_functions(u, du, horizon=2 * math.pi, degree=2, resolution=256)
    lip = 1.0  # rotation field
    for theta in np.linspace(0.5, 5.5, 7):
        x = (1.0 + delta) * np.array([math.cos(theta), math.sin(theta)])
        err = np.linalg.norm(estimate_lipschitz(x, curve) - ROT(x))
        assert err <= lip * (delta + 2 * gamma) + lam + 1e-9


def test_stencil_found_on_circle():
    curve = circle_curve(resolution=256)
    cfg = StencilConfig()
    for x in (np.array([0.9, 0.1]), np.array([-0.5, 0.7]), curve.grid_states[100]):
        stencil = select_stencil(curve, x, cfg)
        assert stencil.points.shape == (3, 2)
        assert stencil.stability <= 2 * cfg.s
        assert check_stencil(stencil, x, cfg) == []


def test_no_stencil_on_straight_curve():
    c = np.array([1.0, 0.0])
    u = lambda t: np.array([0.0, 0.3]) + t * c
    du = lambda t: c
    curve = CurveEstimate.from_functions(u, du, horizon=1.0, degree=2)
    x = np.array([0.5, 0.3])
    with pytest.raises(NoStencilFound):
        select_stencil(curve, x)
    est = estimate_general(x, curve)
    assert est.provenance == "fallback"
    assert np.allclose(est.value, c, atol=1e-12)


def test_general_estimate_exact_for_affine_field():
    curve = circle_curve(resolution=256)
    rng = np.random.default_rng(31)
    hits = 0
    for _ in range(10):
        theta = rng.uniform(0, 2 * math.pi)
        x = rng.uniform(0.85, 0.97) * np.array([math.cos(theta), math.sin(theta)])
        est = estimate_general(x, curve)
        if est.provenance != "interpolated":
            continue
        hits += 1
        assert np.linalg.norm(est.value - ROT(x)) <= 1e-8
    assert hits >= 8


def test_value_perturbation_moves_output_boundedly():
    # perturbing interpolation values by lam moves the estimate by at
    # most N^{3/2} stability lam at hull points
    curve = circle_curve(resolution=256)
    x = np.array([0.9, 0.1])
    stencil = select_stencil(curve, x)
    rng = np.random.default_rng(33)
    field_vals = np.array([ROT(p) for p in stencil.points])
    base = np.array(
        [interp_multivariate(stencil.points, field_vals[:, k], x) for k in range(2)]
    )
    for _ in range(20):
        lam = 10.0 ** rng.uniform(-6, -2)
        moved = np.empty(2)
        for k in range(2):
            pert = field_vals[:, k] + rng.uniform(-lam, lam, size=3)
            moved[k] = interp_multivariate(stencil.points, pert, x)
        bound = 3.0**1.5 * stencil.stability * lam * 1.01
        assert np.linalg.norm(moved - base) <= bound


def test_delta_nn_zero_on_curve_points():
    pts = np.array([[math.cos(t), math.sin(t)] for t in np.linspace(0, 6, 50)])
    assert delta_nn(pts, pts) == 0.0


def test_delta_nn_bounded_by_tube_radius():
    rng = np.random.default_rng(35)
    pts = np.array([[math.cos(t), math.sin(t)] for t in np.linspace(0, 6, 200)])
    radius = 0.05
    bumps = rng.normal(size=(40, 2))
    bumps = radius * bumps / np.linalg.norm(bumps, axis=1)[:, None] * rng.uniform(0, 1, (40, 1))
    targets = pts[rng.integers(0, 200, size=40)] + bumps
    assert delta_nn(pts, targets) <= radius + 1e-12


def test_delta_nn_diagonal_corner():
    ts = np.linspace(0.0, 1.0, 4001)
    diag = np.stack([ts, ts], axis=1)
    axis = np.linspace(0.0, 1.0, 200)
    grid = np.array([[a, b] for a in axis for b in axis])
    got = delta_nn(diag, grid)
    assert abs(got - math.sqrt(2.0) / 2.0) <= 1e-3


@pytest.mark.parametrize("d", [1, 2, 3])
def test_delta_nn_matches_brute_force(d):
    rng = np.random.default_rng(40 + d)
    curve = rng.uniform(-1.0, 1.0, size=(300, d))
    targets = rng.uniform(-1.5, 1.5, size=(120, d))
    want = max(min(float(np.linalg.norm(t - c)) for c in curve) for t in targets)
    assert delta_nn(curve, targets) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_stencil_config_validation():
    with pytest.raises(ValueError):
        StencilConfig(s=0.0)


def test_nearest_time_search_makes_no_fit(monkeypatch):
    (path,) = flow_snake(ROT, np.array([1.0, 0.0]), [(256, 2 * math.pi / 256)])
    ds = observe_snake(ROT, path, 2 * math.pi / 256, sigma=0.05)
    curve = fit_curve(ds, beta=1)
    x = np.array([0.0, 1.01])
    fits = count_fits(monkeypatch)
    t = nn_time(curve, x)
    assert fits == []
    got = estimate_lipschitz(x, curve)
    assert len(fits) == 1  # the velocity at t, and nothing else
    assert np.array_equal(got, curve.du(t))


# --- batched stencil scoring against the scalar search it replaced ---------


def reference_key(points, x, ell):
    """One subset's search key, scored on its own with witness membership."""
    diam = 0.0 if points.shape[0] < 2 else float(
        max(np.linalg.norm(points[i] - points[j])
            for i in range(points.shape[0]) for j in range(i + 1, points.shape[0]))
    )
    if diam == 0.0:
        return (1, math.inf, math.inf, 0.0)
    stab = stability_norm(points, ell)
    if not math.isfinite(stab):
        return (1, math.inf, math.inf, diam)
    inside = in_hull(points, x)
    return (0 if inside else 1, stab * diam ** (ell + 1), stab, diam)


def reference_search(curve, x, cfg, ell):
    """The stencil search with every subset scored on its own by
    `reference_key`."""
    d = curve.grid_states.shape[1]
    num = n_basis(d, ell)
    dists_all = np.linalg.norm(curve.grid_states - x, axis=1)
    allowed = np.arange(curve.grid_times.size)
    if allowed.size > cfg.pool_size:
        near = allowed[np.argsort(dists_all, kind="stable")][: cfg.pool_size // 2]
        strided = allowed[np.unique(np.round(
            np.linspace(0, allowed.size - 1, cfg.pool_size - near.size)).astype(int))]
        allowed = np.unique(np.concatenate([near, strided]))
    states, times = curve.grid_states[allowed], curve.grid_times[allowed]
    pool = states.shape[0]
    order = np.argsort(np.linalg.norm(states - x, axis=1), kind="stable")
    chosen = [int(order[0])]
    while len(chosen) < num:
        mind = np.full(pool, np.inf)
        for c in chosen:
            mind = np.minimum(mind, np.linalg.norm(states - states[c], axis=1))
        mind[chosen] = -np.inf
        chosen.append(int(np.argmax(mind)))
    even = tuple(sorted({int(round(v)) for v in np.linspace(0, pool - 1, num)}))
    seeds = {tuple(sorted(int(i) for i in order[:num])), tuple(sorted(chosen))}
    if len(even) == num:
        seeds.add(even)
    cache = {}

    def key_of(subset):
        if subset not in cache:
            cache[subset] = reference_key(states[list(subset)], x, ell)
        return cache[subset]

    for seed in seeds:  # scored before the first sweep, so sweeps = 0 picks among them
        key_of(seed)
    for seed in list(seeds):
        current = seed
        for _ in range(cfg.sweeps):
            improved = False
            for pos in range(num):
                best_local, best_key = current, key_of(current)
                for cand in range(pool):
                    if cand in current:
                        continue
                    trial = tuple(sorted(current[:pos] + (cand,) + current[pos + 1:]))
                    if key_of(trial) < best_key:
                        best_local, best_key = trial, key_of(trial)
                if best_local != current:
                    current, improved = best_local, True
            if not improved:
                break
    admissible = [(k[1], s) for s, k in cache.items() if k[0] == 0 and k[2] <= 2 * cfg.s]
    if not admissible:
        return None
    return times[list(min(admissible)[1])]


def facet_slacks(points, x):
    """Signed distances of x inside each hull facet, or None for a flat hull."""
    if points.shape[1] == 1:
        return np.array([x[0] - points.min(), points.max() - x[0]])
    try:
        eq = ConvexHull(points).equations
    except QhullError:
        return None
    return -(eq[:, :-1] @ x + eq[:, -1])


COORD = st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False)


@st.composite
def subset_stacks(draw, d, ell):
    """A few N-point subsets and a query, with coincident or collinear
    points and queries on a vertex or just off a facet among the cases."""
    num = n_basis(d, ell)
    layout = draw(st.sampled_from(["generic", "lattice", "coincident", "collinear"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = []
    for _ in range(draw(st.integers(1, 4))):
        if layout == "lattice":
            pts = np.array(draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                                         min_size=num, max_size=num)), dtype=float)
        else:  # points in general position, as on a curve
            pts = rng.uniform(-2.0, 2.0, size=(num, d))
        if layout == "coincident":
            pts[1:draw(st.integers(2, num))] = pts[0]
        elif layout == "collinear":
            pts = pts[0] + np.array(draw(st.lists(COORD, min_size=num, max_size=num)))[:, None] * pts[-1]
        stack.append(pts)
    points = np.stack(stack)
    where = draw(st.sampled_from(["vertex", "off-facet", "free"]))
    x = np.array(draw(st.lists(COORD, min_size=d, max_size=d)))
    if where == "vertex":
        x = points[draw(st.integers(0, len(stack) - 1)), draw(st.integers(0, num - 1))].copy()
    elif where == "off-facet":
        slack = facet_slacks(points[0], x)
        if slack is not None:  # push x along the normal to `gap` off a facet
            gap = draw(st.sampled_from([-1e-3, -1e-6, -2e-9, 2e-9, 1e-6, 1e-3]))
            k = draw(st.integers(0, slack.size - 1))
            if d == 1:
                x = np.array([points[0].min() + gap if k == 0 else points[0].max() - gap])
            else:
                hull = ConvexHull(points[0])
                normal = hull.equations[k, :-1]
                x = points[0][hull.simplices[k]].mean(axis=0) - gap * normal
    return points, x


@pytest.mark.parametrize("d,ell", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
@given(data=st.data())
def test_batched_keys_match_scalar_keys(d, ell, data):
    points, x = data.draw(subset_stacks(d, ell))
    for pts in points:  # x is a vertex, or more than 1e-9 in or out of the hull
        if np.any(np.all(pts == x, axis=1)):
            continue
        slack = facet_slacks(pts, x)
        if slack is None:
            # qhull cannot build a flat hull, so no facet says how near x is:
            # compare such subsets only where no hull test is made (points in
            # one hyperplane make the node matrix singular)
            assume(math.isinf(reference_key(pts, x, ell)[2]))
        else:
            assume(abs(slack.min()) > 1e-9)
    got = list(zip(*_subset_keys(points, x, ell).tolist()))
    want = [reference_key(pts, x, ell) for pts in points]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


@pytest.mark.parametrize("d,ell", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_keys_agree_just_off_each_facet(d, ell):
    rng = np.random.default_rng(50 + 10 * d + ell)
    violations = set()
    for _ in range(4):
        pts = rng.uniform(-1.0, 1.0, size=(n_basis(d, ell), d))
        hull = ConvexHull(pts)
        for eq, facet in zip(hull.equations, hull.simplices):
            for gap in (-2e-9, 2e-9):  # outside, inside
                x = pts[facet].mean(axis=0) - gap * eq[:-1]
                got = tuple(_subset_keys(pts[None], x, ell)[:, 0].tolist())
                assert got == reference_key(pts, x, ell)
                violations.add(got[0])
    assert violations == {0, 1}


def wobbly_loop(resolution=32):
    """A closed curve in the plane that lies on no conic."""
    u = lambda t: np.array([math.cos(t) + 0.3 * math.cos(2 * t), math.sin(t) - 0.2 * math.sin(3 * t)])
    du = lambda t: np.array([-math.sin(t) - 0.6 * math.sin(2 * t), math.cos(t) - 0.6 * math.cos(3 * t)])
    return CurveEstimate.from_functions(u, du, horizon=2 * math.pi, degree=3, resolution=resolution)


def twisted_loop(resolution=8):
    """A closed curve in space."""
    u = lambda t: np.array([math.cos(t), math.sin(t) + 0.3 * math.cos(3 * t), 0.5 * math.sin(2 * t)])
    du = lambda t: np.array([-math.sin(t), math.cos(t) - 0.9 * math.sin(3 * t), math.cos(2 * t)])
    return CurveEstimate.from_functions(u, du, horizon=2 * math.pi, degree=2, resolution=resolution)


@pytest.mark.parametrize("case,ell,sweeps", [
    ("plane", 1, 0), ("plane", 1, 1), ("plane", 1, 2), ("plane", 2, 0), ("plane", 2, 2),
    ("small-grid", 1, 2), ("small-grid", 2, 1), ("space", 1, 2), ("space", 1, 0),
])
def test_search_picks_the_scalar_reference_stencils(case, ell, sweeps):
    # "small-grid": 14 grid points for a pool of 32, so the pool is the whole
    # grid with no strided half; "space": a 3-D curve with 4-point stencils
    curve = {"plane": wobbly_loop, "small-grid": lambda: wobbly_loop(resolution=2),
             "space": twisted_loop}[case]()
    cfg = StencilConfig(pool_size=32, sweeps=sweeps)
    assert (curve.grid_times.size < cfg.pool_size) == (case == "small-grid")
    rng = np.random.default_rng(40 + ell)
    found = 0
    for _ in range(20):
        t = rng.uniform(0.0, curve.horizon)
        x = curve.u(t) * rng.uniform(0.9, 1.02)
        want = reference_search(curve, x, cfg, ell)
        try:
            got = select_stencil(dataclasses.replace(curve, degree=ell + 1), x, cfg).times
        except NoStencilFound:
            got = None
        if want is None:
            assert got is None
        else:
            found += 1
            assert np.array_equal(got, want)
    assert found >= (10 if sweeps else 4)  # the seeds alone admit fewer


def four_dim_stencils():
    """The 15-point quadratic stencils the search returns in d = 4, with
    their queries and config."""
    u = lambda t: np.array([math.cos(t), math.sin(2 * t), math.sin(3 * t), math.cos(7 * t)])
    curve = CurveEstimate.from_functions(u, lambda t: -u(t), horizon=2 * math.pi,
                                         degree=3, resolution=8)
    cfg = StencilConfig(pool_size=24, sweeps=1)
    found = []
    for x in (curve.grid_states.mean(axis=0), 0.8 * u(1.0), 0.5 * (u(0.5) + u(2.5))):
        try:
            found.append((x, select_stencil(curve, x, cfg)))
        except NoStencilFound:
            continue
    return curve, cfg, found


def test_non_simplex_search_in_four_dimensions():
    # the search decides hull membership itself in every dimension, so a
    # query gets a stencil or NoStencilFound
    curve, cfg, found = four_dim_stencils()
    assert len(found) >= 1
    for x, stencil in found:
        assert stencil.points.shape == (15, 4)
        assert stencil.stability <= 2 * cfg.s
        assert in_hull(stencil.points, x)
        assert estimate_general(x, curve, cfg).provenance == "interpolated"


def test_four_dimensional_stencils_are_recertified():
    _, cfg, found = four_dim_stencils()
    assert len(found) >= 1
    for x, stencil in found:
        assert check_stencil(stencil, x, cfg) == []


def _facet_points(points):
    """The centroid of each qhull facet of the points, with its unit
    outward normal."""
    hull = ConvexHull(points)
    return points[hull.simplices].mean(axis=1), hull.equations[:, :-1]


@pytest.mark.parametrize("case", ["triangle", "six-point", "four-dim-stencil"])
def test_hull_tolerance_along_facet_normals(case):
    # 10 HULL_RTOL diameters past a facet is refused, as far inside accepted
    if case == "four-dim-stencil":
        points = four_dim_stencils()[2][0][1].points
    else:
        points = {
            "triangle": np.array([[0.0, 0.0], [1.0, 0.1], [0.4, 0.9]]),
            "six-point": np.array(
                [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, -0.3], [0.5, 1.3]]
            ),
        }[case]
    step = 10 * HULL_RTOL * _diameter(points)
    centres, normals = _facet_points(points)
    for on_facet, normal in zip(centres, normals):
        assert not in_hull(points, on_facet + step * normal)
        assert in_hull(points, on_facet - step * normal)


# --- the early exit for a query outside its pool's hull ---------------------


def count_key_calls(monkeypatch) -> list:
    """Record the number of subsets of every `_subset_keys` call."""
    import flowfit.snake as snake

    calls = []
    real = snake._subset_keys

    def counted(points, x, ell, **kwargs):
        calls.append(points.shape[0])
        return real(points, x, ell, **kwargs)

    monkeypatch.setattr(snake, "_subset_keys", counted)
    return calls


def sine_line():
    """A curve in d = 1 that sweeps [-1, 1] back and forth."""
    return CurveEstimate.from_functions(lambda t: np.array([math.sin(t)]),
                                        lambda t: np.array([math.cos(t)]),
                                        horizon=2 * math.pi, degree=2, resolution=8)


@pytest.mark.parametrize("t", np.linspace(0.0, 2 * math.pi, 12, endpoint=False).tolist())
def test_query_outside_the_loop_exits_before_scoring(t, monkeypatch):
    curve = wobbly_loop()
    calls = count_key_calls(monkeypatch)
    with pytest.raises(NoStencilFound, match="outside the convex hull"):
        select_stencil(curve, 1.1 * curve.u(t))
    assert calls == []


@pytest.mark.parametrize("where", ["vertex", "edge-midpoint"])
def test_query_on_the_pool_hull_is_searched(where, monkeypatch):
    curve = wobbly_loop(resolution=8)  # 52 grid points: the pool is the whole grid
    assert curve.grid_times.size <= StencilConfig().pool_size
    hull = ConvexHull(curve.grid_states)
    if where == "vertex":
        x = curve.grid_states[hull.vertices[0]]
    else:  # two hull vertices joined by a hull edge
        x = curve.grid_states[hull.simplices[0]].mean(axis=0)
    calls = count_key_calls(monkeypatch)
    try:
        select_stencil(curve, x)
    except NoStencilFound as exc:
        assert "outside the convex hull" not in str(exc)
    assert len(calls) > 0


@pytest.mark.parametrize("case,ell", [("plane", 1), ("plane", 2), ("space", 1), ("line", 1)])
def test_exit_agrees_with_the_full_search(case, ell, monkeypatch):
    # `reference_search` scores every chain and has no exit
    curve = {"plane": wobbly_loop, "space": twisted_loop, "line": sine_line}[case]()
    cfg = StencilConfig(pool_size=32, sweeps=2)
    calls = count_key_calls(monkeypatch)
    rng = np.random.default_rng(60 + ell)
    # scales below 1 put loop queries inside the loop, where stencils exist; the
    # line has few exits below 1
    low = 1.0 if case == "line" else 0.85
    exits = admitted = 0
    for _ in range(20):
        x = curve.u(rng.uniform(0.0, curve.horizon)) * rng.uniform(low, 1.15)
        want = reference_search(curve, x, cfg, ell)
        admitted += want is not None
        calls.clear()
        try:
            got = select_stencil(dataclasses.replace(curve, degree=ell + 1), x, cfg).times
        except NoStencilFound:
            got = None
            exits += calls == []
        assert (got is None) if want is None else np.array_equal(got, want)
    assert exits >= 5 and admitted >= 3


def seed_one_curve():
    """The curve of the snake-gen benchmark workload at seed 1 and n = 4096:
    the rotation field from (1, 0) over one period, noise sigma 0.05 drawn
    from seed 3024, beta = 2."""
    n = 4096
    (path,) = flow_snake(ROT, np.array([1.0, 0.0]), [(n, 2 * math.pi / n)])
    return fit_curve(observe_snake(ROT, path, 2 * math.pi / n, 0.05, 3024), beta=2)


# queries of that workload just outside their pool's hull (by 4.1e-4 and 3.1e-5),
# towards which Gilbert's plain min-norm-point iteration zig-zags for many steps
CAP_MISSED = [[-0.41080003946041554, 0.9149567058523925],
              [-0.28839411393837455, 0.954336796566473]]


@pytest.mark.parametrize("x", CAP_MISSED)
def test_query_near_a_pool_face_exits_before_scoring(x, monkeypatch):
    curve = seed_one_curve()
    calls = count_key_calls(monkeypatch)
    with pytest.raises(NoStencilFound, match="outside the convex hull"):
        select_stencil(curve, np.array(x))
    assert calls == []


def test_min_norm_point_ends_on_an_inside_pool(monkeypatch, affine_solves):
    # the exit's pool for an admitted query of the same workload: Wolfe's
    # method without its floating-point stops cycles here with |z|^2 near 1e-35
    import flowfit.snake as snake

    pools = []

    def recorded(rel, **kwargs):
        pools.append(rel)
        return interp.min_norm_point(rel, **kwargs)

    monkeypatch.setattr(snake, "min_norm_point", recorded)
    x = np.array([-0.9595941933077259, 0.23076382695251207])
    select_stencil(seed_one_curve(), x)
    (rel,) = pools
    w = interp.min_norm_point(rel)
    assert np.all(w >= 0.0)
    assert np.count_nonzero(w) == 3  # a triangle around x
    assert np.linalg.norm(w @ rel) <= 1e-14


# --- the search's linear algebra: the hull test first, no inverse -----------


def test_search_takes_an_svd_only_where_it_is_read(monkeypatch):
    # seed-1 snake-gen queries at radius 0.97 and 1.0 around the circle: each
    # triangle's hull test comes before its SVD, and takes no inverse
    curve = seed_one_curve()
    cfg = StencilConfig()
    angles = 2 * math.pi * (np.arange(6) + 0.25) / 6
    queries = [r * np.array([math.cos(a), math.sin(a)]) for r in (0.97, 1.0) for a in angles]
    want = [reference_search(curve, x, cfg, curve.degree - 1) for x in queries]
    scored = count_key_calls(monkeypatch)
    svds, invs = [], []
    real_svd, real_inv = np.linalg.svd, np.linalg.inv

    def svd(a, *args, **kwargs):
        svds.append(np.shape(a)[0] if np.ndim(a) == 3 else 1)
        return real_svd(a, *args, **kwargs)

    def inv(a):
        invs.append(np.shape(a))
        return real_inv(a)

    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(np.linalg, "inv", inv)
    for x, w in zip(queries, want):
        try:
            got = select_stencil(curve, x, cfg).times
        except NoStencilFound:
            got = None
        assert (got is None) if w is None else np.array_equal(got, w)
    assert sum(w is not None for w in want) >= 6
    assert sum(svds) <= sum(scored) / 2
    assert invs == []
