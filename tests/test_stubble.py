"""Short-trajectory data generation and increment estimators."""

from __future__ import annotations

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

import flowfit.stubble as stubble
from flowfit.flow import TrajectoryData, make_field
from flowfit.localpoly import LocalPolyFit, RegressionData, lp_estimate
from flowfit.models import MODELS
from flowfit.stubble import (
    _derivative_weights,
    _horizon_bandwidth,
    default_query_points,
    estimate_general,
    flow_stubble,
    grid_initials,
    horizon_regressions,
    observe_stubble,
)


def test_grid_covers_half_open_cube():
    for n0, d in [(4, 1), (3, 2), (2, 3)]:
        pts = grid_initials(n0, d)
        assert pts.shape == (n0**d, d)
        assert pts.min() == 1.0 / n0
        assert pts.max() == 1.0
        # all lattice multiples of 1/n0 appear exactly once
        scaled = np.round(pts * n0).astype(int)
        assert len({tuple(row) for row in scaled}) == n0**d


@pytest.mark.parametrize("n0, d", [(16384, 1), (128, 2), (16, 3), (7, 2), (1, 4)])
def test_grid_is_the_lexicographic_product(n0, d):
    ks = itertools.product(range(1, n0 + 1), repeat=d)
    want = np.array(list(ks), dtype=float) / n0
    assert grid_initials(n0, d).tobytes() == want.tobytes()


def test_beta_one_has_single_observation():
    fld = make_field("rotation")
    states = flow_stubble(fld, 3, 0.05, beta=1)
    ds = observe_stubble(fld, 3, states, 0.05)
    assert ds.observations.shape == (9, 1, 2)
    assert ds.n == 1


def test_zero_field_observations_equal_initials():
    fld = make_field("zero")
    states = flow_stubble(fld, 3, 0.1, beta=2)
    ds = observe_stubble(fld, 3, states, 0.1)
    for i in range(2):
        assert np.array_equal(ds.observations[:, i, :], ds.initials)


def test_noise_reproducible_across_calls():
    fld = make_field("rotation")
    a = observe_stubble(fld, 3, flow_stubble(fld, 3, 0.05, beta=2), 0.05, sigma=0.2, seed=13)
    b = observe_stubble(fld, 3, flow_stubble(fld, 3, 0.05, beta=2), 0.05, sigma=0.2, seed=13)
    assert np.array_equal(a.observations, b.observations)


def test_constant_field_exact_everywhere():
    # increments of a constant field are i*c*dt: the local constant fit of
    # the first horizon and the interpolation route both return c up to
    # integrator noise
    fld = make_field("constant")
    lip = horizon_regressions(observe_stubble(fld, 5, flow_stubble(fld, 5, 0.05, beta=1), 0.05), 1)
    for beta in (1, 2, 3):
        states = flow_stubble(fld, 5, 0.05, beta=beta)
        gen = horizon_regressions(observe_stubble(fld, 5, states, 0.05), beta)
        x = np.array([[0.4, 0.4], [0.8, 0.2]])
        assert np.abs(estimate_general(lip, x)[0] - np.array([1.0, 0.0])).max() <= 1e-9
        assert np.abs(estimate_general(gen, x)[0] - np.array([1.0, 0.0])).max() <= 1e-8


def test_constant_field_exact_d3():
    fld = make_field("zero")
    states = flow_stubble(fld, 3, 0.05, beta=2)
    ds = observe_stubble(fld, 3, states, 0.05)
    got, _ = estimate_general(horizon_regressions(ds, 2), np.array([[0.5, 0.5]]))
    assert np.abs(got).max() <= 1e-12


def test_rotation_fine_step_bias():
    fld = make_field("rotation")
    states = flow_stubble(fld, 24, 1e-3, beta=1)
    ds = observe_stubble(fld, 24, states, 1e-3)
    x0 = np.array([[0.5, 0.5]])
    err = np.linalg.norm(estimate_general(horizon_regressions(ds, 1), x0)[0] - np.array([-0.5, 0.5]))
    assert err <= 5e-3


def test_rmse_decreases_when_grid_doubles():
    fld = make_field("cubic")
    x0 = np.array([[0.5]])
    rmses = []
    for n0 in (64, 256):
        errs = []
        for seed in range(50):
            states = flow_stubble(fld, n0, 0.02, beta=1)
            ds = observe_stubble(fld, n0, states, 0.02, sigma=0.1, seed=seed)
            errs.append(np.linalg.norm(estimate_general(horizon_regressions(ds, 1), x0)[0] - fld(x0)) ** 2)
        rmses.append(math.sqrt(np.mean(errs)))
    assert rmses[1] < rmses[0]


def test_general_beta1_reduces_to_lipschitz():
    # at beta = 1 the estimate is the local constant fit of the first-horizon
    # increments divided by dt, bit for bit, with the plug-in bandwidth of a
    # degree-0 fit at smoothness 1
    fld = make_field("rotation")
    states = flow_stubble(fld, 8, 0.05, beta=1)
    ds = observe_stubble(fld, 8, states, 0.05, sigma=0.05, seed=3)
    data = RegressionData(points=ds.initials, targets=ds.increments(1), extent=1.0)
    fit = LocalPolyFit(degree=0, bandwidth=_horizon_bandwidth(ds, 1, 1))
    regressions = horizon_regressions(ds, 1)
    x = default_query_points(2, per_dim=3)
    lip, _ = lp_estimate(x, data, fit)
    assert np.array_equal(estimate_general(regressions, x)[0], lip / ds.dt)


@pytest.mark.parametrize("beta", range(1, 7))
def test_derivative_weights_match_interpolant(beta):
    # the weights give the derivative at 0 of the polynomial through (0, 0)
    # and (i, e_i), i = 1..beta: one cardinal polynomial per weight
    nodes = np.arange(beta + 1.0)
    for i, w in enumerate(_derivative_weights(beta), start=1):
        cardinal = np.polynomial.Polynomial.fit(nodes, np.eye(beta + 1)[i], beta)
        assert abs(w - cardinal.deriv()(0.0)) <= 1e-12


def test_estimator_is_linear_in_increments():
    fld = make_field("rotation")
    states = flow_stubble(fld, 6, 0.05, beta=2)
    base = observe_stubble(fld, 6, states, 0.05, sigma=0.1, seed=5)
    other = observe_stubble(fld, 6, states, 0.05, sigma=0.1, seed=6)
    a, b = 1.7, -0.4
    mixed_obs = base.initials[:, None, :] + (
        a * (base.observations - base.initials[:, None, :])
        + b * (other.observations - base.initials[:, None, :])
    )
    mixed = TrajectoryData(
        initials=base.initials, dt=base.dt, observations=mixed_obs, meta=base.meta
    )
    x = np.array([[0.5, 0.5]])
    combo = a * estimate_general(horizon_regressions(base, 2, 0.5), x)[0] + b * estimate_general(
        horizon_regressions(TrajectoryData(
            initials=base.initials,
            dt=base.dt,
            observations=base.initials[:, None, :] + (other.observations - base.initials[:, None, :]),
            meta=base.meta,
        ), 2, 0.5),
        x,
    )[0]
    got, _ = estimate_general(horizon_regressions(mixed, 2, 0.5), x)
    assert np.allclose(got, combo, rtol=1e-9, atol=1e-12)


def test_singular_design_far_outside():
    fld = make_field("rotation")
    states = flow_stubble(fld, 6, 0.05, beta=1)
    ds = observe_stubble(fld, 6, states, 0.05)
    values, singular = estimate_general(
        horizon_regressions(ds, 1, 0.1),
        np.array([[3.0, 3.0], [0.5, 0.5]]))
    assert singular.tolist() == [True, False]
    assert np.isnan(values[0]).all() and np.isfinite(values[1]).all()


def test_fit_sets_up_each_horizon_once(monkeypatch):
    # the increments, regression data and plug-in bandwidth of a horizon
    # depend only on the dataset: beta bandwidths per fit, not per query
    beta = 3
    fld = make_field("rotation")
    states = flow_stubble(fld, 8, 0.05, beta=beta)
    ds = observe_stubble(fld, 8, states, 0.05, sigma=0.05, seed=3)
    queries = default_query_points(2, per_dim=3)
    real = stubble._horizon_bandwidth
    horizons = []
    monkeypatch.setattr(stubble, "_horizon_bandwidth",
                        lambda ds, i, *rest: horizons.append(i) or real(ds, i, *rest))
    got = MODELS["stubble-gen"].fit(SimpleNamespace(bandwidth=None), ds, beta, {})(queries)
    assert horizons == [1, 2, 3]
    # bit for bit the estimate that sets every horizon up for its own query
    for x, value in zip(queries, got.values):
        want = sum(
            w * lp_estimate(x[None], RegressionData(points=ds.initials, targets=ds.increments(i),
                                                    extent=1.0),
                            LocalPolyFit(beta - 1, real(ds, i, beta)))[0][0]
            for i, w in enumerate(_derivative_weights(beta), start=1)
        ) / ds.dt
        assert np.array_equal(value, want)


def test_default_queries_stay_interior():
    pts = default_query_points(2, per_dim=4, margin=0.2)
    assert pts.shape == (16, 2)
    assert pts.min() >= 0.2 and pts.max() <= 0.8
