"""Local polynomial regression: weights, reproduction, bandwidths."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowfit.localpoly import (
    SOLVE_BLOCK,
    LocalPolyFit,
    RegressionData,
    SingularDesign,
    deriv_basis_at_zero,
    epanechnikov,
    lp_coefficients,
    lp_estimate,
    lp_weights,
    monomial_basis,
    multi_indices,
    n_basis,
    optimal_bandwidth,
)


def random_instance(rng, d, degree, n=60):
    """Regression data plus a fit centred well inside the unit cube."""
    pts = rng.uniform(0.0, 1.0, size=(n, d))
    targets = rng.standard_normal((n, 2))
    data = RegressionData(points=pts, targets=targets, extent=1.0)
    fit = LocalPolyFit(degree=degree, bandwidth=0.45)
    x = rng.uniform(0.3, 0.7, size=d)
    return data, fit, x


def test_multi_index_order():
    assert multi_indices(2, 2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert multi_indices(1, 3) == [(0,), (1,), (2,), (3,)]
    assert n_basis(2, 2) == 6
    assert n_basis(3, 1) == 4


def factorials(d, ell):
    """``alpha!`` per column of the degree-`ell` basis in `d` variables."""
    return np.array([math.prod(math.factorial(a) for a in alpha)
                     for alpha in multi_indices(d, ell)], dtype=float)


def scaled_basis(z, ell):
    """The factorial-scaled basis that the fits use."""
    return monomial_basis(z, ell) / factorials(np.shape(z)[-1], ell)


def test_factorial_scaling():
    # entries: 1, a, b, a^2, ab, b^2 with alpha! = 1,1,1,2,1,2
    assert np.allclose(monomial_basis(np.array([2.0, 3.0]), 2), [1, 2, 3, 4, 6, 9])
    assert np.allclose(scaled_basis(np.array([2.0, 3.0]), 2), [1, 2, 3, 2, 6, 4.5])
    # the fitted block of g = a^2 + 3ab holds h^|alpha| D^alpha g(x) in that basis
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.0, 1.0, size=(80, 2))
    data = RegressionData(points=pts, targets=pts[:, 0] ** 2 + 3 * pts[:, 0] * pts[:, 1],
                          extent=1.0)
    h = 0.4
    (theta,), (singular,) = lp_coefficients(np.array([[0.5, 0.5]]), data,
                                            LocalPolyFit(degree=2, bandwidth=h))
    assert not singular
    assert np.allclose(theta[:, 0], [1.0, 2.5 * h, 1.5 * h, 2 * h**2, 3 * h**2, 0.0],
                       atol=1e-12)


def test_deriv_basis_reads_gradient():
    v = np.array([0.6, 0.8])
    row = deriv_basis_at_zero(2, 2, [v])
    # only |alpha| = 1 entries survive: d/dv of (a, b) at 0 is v
    assert np.allclose(row, [0, 0.6, 0.8, 0, 0, 0])


def test_design_matrix_matches_bruteforce():
    # the solve inverts the B(x) of a naive triple-loop accumulation
    rng = np.random.default_rng(3)
    for d, degree in [(1, 2), (2, 1), (3, 1)]:
        data, fit, x = random_instance(rng, d, degree)
        inv = full_scan_solve(x, data, fit)[-1]
        nb = n_basis(d, degree)
        want = np.zeros((nb, nb))
        for i in range(data.n):
            z = (data.points[i] - x) / fit.bandwidth
            if np.linalg.norm(z) >= 1.0:
                continue
            psi = scaled_basis(z, degree)
            k = epanechnikov(np.linalg.norm(z))
            for a in range(nb):
                for b in range(nb):
                    want[a, b] += k * psi[a] * psi[b]
        want *= data.extent**d / (data.n * fit.bandwidth**d)
        assert np.abs(inv @ want - np.eye(nb)).max() <= 1e-12


def test_weight_locality():
    pts = np.array([[0.1], [0.2], [0.5], [0.9]])
    data = RegressionData(points=pts, targets=np.zeros(4), extent=1.0)
    fit = LocalPolyFit(degree=0, bandwidth=0.25)
    w = lp_weights(np.array([0.15]), data, fit)
    assert w[2] == 0.0 and w[3] == 0.0
    assert w[0] != 0.0 and w[1] != 0.0


def test_value_weights_sum_to_one():
    rng = np.random.default_rng(8)
    data, fit, x = random_instance(rng, 2, 1)
    w = lp_weights(x, data, fit)
    assert abs(w.sum() - 1.0) <= 1e-10


def test_polynomial_reproduction():
    # sum_i w_i q(x_i) recovers D_v q(x) for polynomial q of degree <= ell
    rng = np.random.default_rng(5)
    for trial in range(25):
        d = int(rng.integers(1, 4))
        degree = int(rng.integers(0, 3))
        s = int(rng.integers(0, min(degree, 1) + 1))
        dirs = []
        for _ in range(s):
            v = rng.standard_normal(d)
            dirs.append(tuple(v / np.linalg.norm(v)))
        data, _, x = random_instance(rng, d, degree, n=80)
        fit = LocalPolyFit(
            degree=degree, bandwidth=0.6, deriv_order=s, directions=tuple(dirs)
        )
        indices = multi_indices(d, degree)
        coeffs = rng.standard_normal(len(indices))

        def q(pts):
            pts = np.atleast_2d(pts)
            cols = [np.prod(pts**np.array(alpha), axis=1) for alpha in indices]
            return np.stack(cols, axis=1) @ coeffs

        def dq(pt):
            if s == 0:
                return q(pt)[0]
            step = 1e-5
            v = np.asarray(dirs[0])
            return (q(pt + step * v)[0] - q(pt - step * v)[0]) / (2 * step)

        try:
            w = lp_weights(x, data, fit)
        except SingularDesign:
            continue
        got = w @ q(data.points)
        tol = (1e-8 if s == 0 else 1e-4) * (1.0 + np.abs(coeffs).sum())
        assert abs(got - dq(x)) <= tol


def test_estimate_matches_weighted_least_squares():
    # independent oracle: minimize sum K_i (Y_i - psi_i theta)^2, then
    # read the directional derivative of the fitted polynomial at x
    rng = np.random.default_rng(11)
    for trial in range(20):
        d = int(rng.integers(1, 4))
        degree = int(rng.integers(0, 3))
        s = int(rng.integers(0, min(degree, 2) + 1))
        dirs = []
        for _ in range(s):
            v = rng.standard_normal(d)
            dirs.append(tuple(v / np.linalg.norm(v)))
        data, _, x = random_instance(rng, d, degree, n=100)
        fit = LocalPolyFit(
            degree=degree, bandwidth=0.5, deriv_order=s, directions=tuple(dirs)
        )
        (got,), (singular,) = lp_estimate(x[None], data, fit)
        if singular:
            continue
        z = (data.points - x) / fit.bandwidth
        radii = np.linalg.norm(z, axis=1)
        keep = radii < 1.0
        sqrtk = np.sqrt(epanechnikov(radii[keep]))
        psi = scaled_basis(z[keep], degree)
        theta, *_ = np.linalg.lstsq(
            psi * sqrtk[:, None], data.targets[keep] * sqrtk[:, None], rcond=None
        )
        read = deriv_basis_at_zero(d, degree, [np.asarray(v) for v in dirs])
        want = (read @ theta) / fit.bandwidth**s
        assert np.abs(got - want).max() <= 1e-9


@given(lam=st.floats(-50.0, 50.0))
def test_linearity_in_targets(lam):
    rng = np.random.default_rng(21)
    data, fit, x = random_instance(rng, 2, 1)
    scaled = RegressionData(points=data.points, targets=lam * data.targets, extent=1.0)
    a, _ = lp_estimate(x[None], data, fit)
    b, _ = lp_estimate(x[None], scaled, fit)
    assert np.allclose(b, lam * a, rtol=1e-9, atol=1e-12)


def test_coefficients_expose_value_and_slope():
    rng = np.random.default_rng(4)
    data, fit, x = random_instance(rng, 1, 1)
    data = RegressionData(points=np.sort(data.points, axis=0), targets=data.targets, extent=1.0)
    (theta,), singular = lp_coefficients(x[None], data, fit)
    assert not singular[0]
    (value,), _ = lp_estimate(x[None], data, fit)
    assert np.allclose(theta[0], value, atol=1e-12)
    dfit = LocalPolyFit(degree=1, bandwidth=fit.bandwidth, deriv_order=1, directions=((1.0,),))
    (slope,), _ = lp_estimate(x[None], data, dfit)
    assert np.allclose(theta[1] / fit.bandwidth, slope, atol=1e-12)


def test_coefficients_take_a_stack_of_points_of_the_data_dimension():
    rng = np.random.default_rng(4)
    data, fit, x = random_instance(rng, 1, 1)
    assert data.sorted_times is None
    ranged = RegressionData(points=np.sort(data.points, axis=0), targets=data.targets, extent=1.0)
    for design in (data, ranged):
        for times in (x, x[None, :, None], np.zeros((2, 2))):
            for fn in (lp_coefficients, lp_estimate):
                for plans in (None, {}):
                    with pytest.raises(ValueError, match="stack"):
                        fn(times, design, fit, plans)


def test_pointwise_bandwidth_closed_form():
    got = optimal_bandwidth(n=1024, d=1, beta=1, sigma=1.0, T=1.0, L=1.0)
    assert abs(got - 0.09921256574801247) <= 1e-13


def test_supnorm_bandwidth_closed_form():
    got = optimal_bandwidth(n=1024, d=1, beta=1, sigma=1.0, T=1.0, L=1.0, mode="supnorm")
    assert abs(got - 0.18916545737198148) <= 1e-13


def test_bandwidth_rejects_bad_inputs():
    with pytest.raises(ValueError):
        optimal_bandwidth(n=1024, d=1, beta=1, sigma=0.0, T=1.0, L=1.0)
    with pytest.raises(ValueError):
        optimal_bandwidth(n=1, d=1, beta=1, sigma=1.0, T=1.0, L=1.0)
    with pytest.raises(ValueError):
        optimal_bandwidth(n=64, d=1, beta=1, sigma=1.0, T=1.0, L=1.0, mode="other")


def test_singular_design_far_from_data():
    pts = np.array([[0.1, 0.1], [0.12, 0.1], [0.1, 0.12]])
    data = RegressionData(points=pts, targets=np.zeros(3), extent=1.0)
    fit = LocalPolyFit(degree=1, bandwidth=0.1)
    with pytest.raises(SingularDesign) as err:
        lp_weights(np.array([0.9, 0.9]), data, fit)
    assert err.value.lambda_min == 0.0
    # in a stack the empty ball is flagged, and the ball holding all three points fits
    values, singular = lp_estimate(np.array([[0.9, 0.9], [0.11, 0.11]]), data, fit)
    assert singular.tolist() == [True, False]
    assert np.isnan(values[0]).all() and values[1].tolist() == [0.0]


@pytest.mark.parametrize("d", [1, 2])
def test_empty_data_is_singular(d):
    data = RegressionData(points=np.empty((0, d)), targets=np.empty((0, 2)), extent=1.0)
    fit = LocalPolyFit(degree=1, bandwidth=0.5)
    x = np.full((3, d), 0.5)
    with pytest.raises(SingularDesign):
        lp_weights(x[0], data, fit)
    theta, singular = lp_coefficients(x, data, fit)
    assert singular.tolist() == [True] * 3 and theta.shape == (3, d + 1, 2)
    assert np.all(np.isnan(theta))
    values, singular = lp_estimate(x, data, fit)
    assert singular.tolist() == [True] * 3 and np.all(np.isnan(values))


def test_kernel_values():
    # K(z) = (1 - z^2)_+: 1 at the centre, 0 on and past the edge of the support
    assert epanechnikov(np.array([0.0, 0.5, 1.0, 1.5])).tolist() == [1.0, 0.75, 0.0, 0.0]


# --- windowed fits on sorted 1-D points against a full scan -----------------


def reference_basis(z, ell):
    """The factorial-scaled basis built column by column from ones."""
    cols = []
    for alpha in multi_indices(z.shape[-1], ell):
        col = np.ones(z.shape[:-1])
        for j, a in enumerate(alpha):
            if a:
                col = col * z[..., j] ** a
        cols.append(col)
    return np.stack(cols, axis=-1) / factorials(z.shape[-1], ell)


def full_scan_solve(x, data, fit):
    """In-ball mask, basis rows, kernel values and ``B(x)^{-1}`` at ``x``
    with every point scanned.

    The same operations, in the same order, as the package applies to the
    in-ball points; raises SingularDesign in the same cases.
    """
    x = np.asarray(x, dtype=float)
    d = data.dim
    scale = data.extent ** d / (data.n * fit.bandwidth ** d)
    diffs = (data.points - x) / fit.bandwidth
    radii = np.linalg.norm(diffs, axis=1)
    inside = radii < 1.0
    psi = reference_basis(diffs[inside], fit.degree)
    kvals = epanechnikov(radii[inside])
    if psi.shape[0] == 0:
        raise SingularDesign(0.0, x)
    bmat = scale * (psi.T * kvals) @ psi
    eigvals, eigvecs = np.linalg.eigh(bmat)
    if eigvals[0] <= 1e-10 * np.trace(bmat) / n_basis(d, fit.degree):
        raise SingularDesign(float(eigvals[0]), x)
    return inside, psi, kvals, eigvecs @ (eigvecs / eigvals).T


def full_scan_fit(x, data, fit):
    """Coefficients and weights of the fit at ``x`` with every point scanned."""
    inside, psi, kvals, inv = full_scan_solve(x, data, fit)
    d = data.dim
    scale = data.extent ** d / (data.n * fit.bandwidth ** d)
    coef = inv @ (scale * (psi.T * kvals) @ data.targets[inside])
    dpsi0 = deriv_basis_at_zero(d, fit.degree, [np.asarray(v) for v in fit.directions])
    w = np.zeros(data.n)
    w[inside] = (
        data.extent ** d / (data.n * fit.bandwidth ** (d + fit.deriv_order))
        * ((inv @ dpsi0) @ psi.T) * kvals
    )
    return coef, w


def package_fit(x, data, fit):
    """Coefficients and weights of the package's fit at ``x``."""
    theta, singular = lp_coefficients(x[None], data, fit)
    if singular[0]:
        raise SingularDesign(0.0, x)
    return theta[0], lp_weights(x, data, fit)


def or_singular(fn, *args):
    try:
        return fn(*args)
    except SingularDesign:
        return "singular"


def assert_same_as_full_scan(x, data, fit):
    want = or_singular(full_scan_fit, x, data, fit)
    got = or_singular(package_fit, x, data, fit)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def make_fit(degree, bandwidth, slope):
    if slope and degree >= 1:
        return LocalPolyFit(degree=degree, bandwidth=bandwidth, deriv_order=1,
                            directions=((1.0,),))
    return LocalPolyFit(degree=degree, bandwidth=bandwidth)


@given(
    extent=st.sampled_from([1.0, 2 * math.pi, 10.0]),
    ticks=st.lists(st.integers(0, 60), min_size=3, max_size=40),
    step=st.integers(1, 20),
    at_tick=st.one_of(st.none(), st.integers(-10, 70)),
    where=st.floats(-0.3, 1.3),
    exact_edges=st.booleans(),
    degree=st.integers(0, 3),
    slope=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_windowed_fit_matches_full_scan(
    extent, ticks, step, at_tick, where, exact_edges, degree, slope, seed
):
    # times on a lattice of spacing extent / 60 with repeated ticks; the
    # bandwidth is a whole number of spacings, and a query on a tick puts
    # lattice points at x +- h up to rounding
    spacing = extent / 60
    h = step * spacing
    x = at_tick * spacing if at_tick is not None else where * extent
    times = np.array(ticks, dtype=float) * spacing
    if exact_edges:  # points at t +- h and one ulp inside
        edges = np.array([x - h, x + h])
        times = np.concatenate([times, edges, np.nextafter(edges, x)])
    times = np.sort(times)
    targets = np.random.default_rng(seed).standard_normal((times.size, 2))
    data = RegressionData(points=times[:, None], targets=targets, extent=extent)
    assert data.sorted_times is not None
    assert_same_as_full_scan(np.array([x]), data, make_fit(degree, h, slope))


@given(
    d=st.integers(1, 3),
    degree=st.integers(0, 2),
    bandwidth=st.floats(0.1, 0.8),
    seed=st.integers(0, 2**16),
)
def test_unsorted_and_multivariate_fits_match_full_scan(d, degree, bandwidth, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, size=(50, d))  # in d=1, unsorted: a full scan
    data = RegressionData(points=pts, targets=rng.standard_normal((50, 2)), extent=1.0)
    assert data.sorted_times is None
    x = rng.uniform(-0.2, 1.2, size=d)
    assert_same_as_full_scan(x, data, make_fit(degree, bandwidth, slope=d == 1))


@given(
    design=st.sampled_from(["sorted", "unsorted", "plane", "space"]),
    n=st.integers(0, 60),
    degree=st.integers(0, 2),
    slope=st.booleans(),
    bandwidth=st.floats(0.05, 0.8),
    num=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_stacked_estimates_match_single_points_and_weights(
    design, n, degree, slope, bandwidth, num, seed
):
    # each row of a stacked estimate has the bits of its point estimated alone,
    # agrees with sum_i w_i(x) Y_i up to rounding, and is flagged singular
    # exactly where `lp_weights` raises
    d = {"sorted": 1, "unsorted": 1, "plane": 2, "space": 3}[design]
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, size=(n, d))
    if d == 1:
        pts = np.sort(pts, axis=0)
        if design == "unsorted":  # the smallest time last
            pts = np.concatenate([rng.permutation(pts[1:]), pts[:1]])
    data = RegressionData(points=pts, targets=rng.standard_normal((n, 2)), extent=1.0)
    assert (data.sorted_times is None) == (design != "sorted" and (d > 1 or n > 1))
    dirs = ()
    if slope and degree >= 1:
        v = rng.standard_normal(d)
        dirs = (tuple(v / np.linalg.norm(v)),)
    fit = LocalPolyFit(degree=degree, bandwidth=bandwidth, deriv_order=len(dirs), directions=dirs)
    x = rng.uniform(-0.2, 1.2, size=(num, d))
    values, singular = lp_estimate(x, data, fit)
    assert values.shape == (num, 2) and singular.shape == (num,)
    # a design half reads no targets: stored by a fit on other targets, it gives
    # the same bits
    other = RegressionData(points=pts, targets=rng.standard_normal((n, 2)), extent=1.0)
    plans = {}
    lp_estimate(x, other, fit, plans)
    assert len(plans) == 1
    planned, flagged = lp_estimate(x, data, fit, plans)
    assert len(plans) == 1
    assert np.array_equal(planned, values, equal_nan=True)
    assert np.array_equal(flagged, singular)
    dpsi0 = np.abs(deriv_basis_at_zero(d, degree, [np.asarray(v) for v in dirs]))
    for q in range(num):
        alone, flag = lp_estimate(x[q:q + 1], data, fit)
        assert np.array_equal(alone[0], values[q], equal_nan=True) and flag[0] == singular[q]
        w = or_singular(lp_weights, x[q], data, fit)
        if isinstance(w, str) or singular[q]:
            assert isinstance(w, str) and singular[q] and np.all(np.isnan(values[q]))
            continue
        # rounding bound of dpsi0 . B^-1 (Psi^T K Y) / h^s in absolute values: it
        # holds |w| @ |Y|, and bounds both orders of the sums on a design near
        # the singular floor, where |w| @ |Y| alone does not
        inside, psi, kvals, inv = full_scan_solve(x[q], data, fit)
        scale = data.extent ** d / (data.n * bandwidth ** (d + fit.deriv_order))
        bound = scale * (dpsi0 @ np.abs(inv) @ (np.abs(psi).T * kvals)
                         @ np.abs(data.targets[inside]))
        assert np.all(np.abs(values[q] - w @ data.targets) <= 1e-12 * bound)


def test_nan_point_forces_a_full_scan():
    times = np.array([[0.0], [0.1], [np.nan], [0.3], [0.4]])
    data = RegressionData(points=times, targets=np.arange(5.0), extent=1.0)
    assert data.sorted_times is None
    assert_same_as_full_scan(np.array([0.2]), data, make_fit(0, 0.25, False))


@given(beta=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_curve_widening_at_both_ends_matches_full_scan(beta, seed):
    from flowfit.flow import make_field
    from flowfit.snake import MAX_WIDENINGS, WIDEN_FACTOR, fit_curve, flow_snake, observe_snake

    n = 48
    fld = make_field("rotation")
    (path,) = flow_snake(fld, np.array([1.0, 0.0]), [(n, 0.05)])
    ds = observe_snake(fld, path, 0.05, sigma=0.05, seed=seed)
    h0 = (beta - 0.5) * ds.dt  # a one-sided window holds beta points, one too few
    curve = fit_curve(ds, beta=beta, bandwidth=h0)
    data = RegressionData(points=ds.times[:, None], targets=ds.states[0], extent=ds.horizon)
    widened = 0
    for t in (0.0, 0.3 * ds.dt, ds.horizon - 0.3 * ds.dt, ds.horizon):
        h = h0
        for _ in range(MAX_WIDENINGS):
            fit = LocalPolyFit(degree=beta, bandwidth=h)
            want = or_singular(full_scan_fit, np.array([t]), data, fit)
            if not isinstance(want, str):
                break
            h *= WIDEN_FACTOR
        widened += h > h0
        theta = want[0]
        assert np.array_equal(curve.u(t), theta[0])
        assert np.array_equal(curve.du(t), theta[1] / h)
    assert widened == 4


def widened_full_scan(t, data, degree, bandwidth):
    """`full_scan_fit` coefficients at ``t``, widened as the curve fit widens,
    and the bandwidth that held."""
    from flowfit.snake import MAX_WIDENINGS, WIDEN_FACTOR

    h = bandwidth
    for _ in range(MAX_WIDENINGS):
        want = or_singular(full_scan_fit, np.array([t]), data,
                           LocalPolyFit(degree=degree, bandwidth=h))
        if not isinstance(want, str):
            return want[0], h
        h *= WIDEN_FACTOR
    raise AssertionError(f"no bandwidth held at t={t}")


@given(
    beta=st.integers(1, 3),
    window=st.sampled_from(["plug-in", "floor", "short"]),
    ticks=st.lists(st.integers(0, 64), max_size=4),
    where=st.lists(st.floats(0.0, 1.0), max_size=4),
    seed=st.integers(0, 2**16),
)
def test_stacked_curve_fits_match_full_scan(beta, window, ticks, where, seed):
    # "floor": noiseless data gets the floor 1.25 (beta + 1) dt, which at beta = 3
    # puts observations exactly on the window edge; "short" is one point short of
    # a one-sided window, so the ends widen
    from flowfit.flow import make_field
    from flowfit.snake import fit_curve, flow_snake, observe_snake

    n = 64
    sigma = 0.0 if window == "floor" else 0.05
    fld = make_field("rotation")
    (path,) = flow_snake(fld, np.array([1.0, 0.0]), [(n, 2 * math.pi / n)])
    ds = observe_snake(fld, path, 2 * math.pi / n, sigma=sigma, seed=seed)
    bandwidth = (beta - 0.5) * ds.dt if window == "short" else None
    curve = fit_curve(ds, beta=beta, bandwidth=bandwidth)
    times = np.concatenate([[0.0, ds.horizon, 0.3 * ds.dt, ds.horizon - 0.3 * ds.dt],
                            ds.times[ticks], np.array(where) * ds.horizon])
    data = RegressionData(points=ds.times[:, None], targets=ds.states[0], extent=ds.horizon)
    want = [widened_full_scan(t, data, beta, curve.bandwidth) for t in times]
    assert np.array_equal(curve.u(times), np.array([theta[0] for theta, _ in want]))
    assert np.array_equal(curve.du(times), np.array([theta[1] / h for theta, h in want]))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_padded_blocks_match_full_scan_on_a_long_trajectory(degree, dim):
    # n = 2^14 times with a gap of three bandwidths: windows of 301 to 601
    # points, mixed lengths in one padded block, more entries than one block
    # holds, and singular rows (a window of a few points at the gap's edge,
    # an empty one inside it) beside regular ones
    n = 2**14
    dt = 2 * math.pi / n
    h = 300.5 * dt
    times = np.arange(n + 1) * dt
    edge = times[n // 4]
    times = times[(times <= edge) | (times >= edge + 3 * h)]
    rng = np.random.default_rng(degree)
    data = RegressionData(points=times[:, None], targets=rng.standard_normal((times.size, dim)),
                          extent=2 * math.pi)
    query = np.concatenate([
        np.linspace(0.0, 2 * h, 9),  # one-sided windows growing from the left end
        times[-1] - np.linspace(0.0, 2 * h, 9),
        rng.uniform(2 * h, edge - 2 * h, 6),  # whole windows
        edge + h - (np.arange(degree + 2) + 0.5) * dt,  # 1 .. degree + 2 points
        [edge + 1.5 * h],  # no point
    ])
    query = rng.permutation(query)
    lengths = np.array([np.sum(np.abs((times - t) / h) < 1.0) for t in query])
    blocks, rest = [], np.sort(lengths[lengths > 0])[::-1]  # the padded blocks, widest first
    while rest.size:
        blocks.append(rest[:SOLVE_BLOCK // rest[0]])
        rest = rest[blocks[-1].size:]
    assert blocks[0][0] > 256 and len(blocks) > 2
    # a block mixes long windows with one of at most `degree` points, which is singular
    assert any(b[-1] <= degree and b[0] > 256 for b in blocks)
    fit = LocalPolyFit(degree=degree, bandwidth=h)
    theta, singular = lp_coefficients(query[:, None], data, fit)
    want = [or_singular(full_scan_fit, np.array([t]), data, fit) for t in query]
    assert singular.tolist() == [isinstance(w, str) for w in want]
    assert 0 < np.sum(singular & (lengths > 0)) and np.sum(~singular) > 20
    assert np.all(np.isnan(theta[singular]))
    assert np.array_equal(theta[~singular], np.array([w[0] for w in want if not isinstance(w, str)]))


@pytest.mark.parametrize("degree", [1, 2])
def test_multi_block_scanned_fits_match_full_scan(degree):
    # a d = 2 design scanned in full: balls of many sizes, more entries than one
    # block holds, and a far cluster of three points that a degree-2 fit cannot pin
    rng = np.random.default_rng(40 + degree)
    cluster = np.array([[2.0, 2.0], [2.01, 2.0], [2.0, 2.01]])
    pts = np.concatenate([rng.uniform(0.0, 1.0, size=(300, 2)), cluster])
    data = RegressionData(points=pts, targets=rng.standard_normal((pts.shape[0], 3)), extent=1.0)
    assert data.sorted_times is None
    fit = LocalPolyFit(degree=degree, bandwidth=0.45)
    query = np.concatenate([rng.uniform(-0.1, 1.1, size=(80, 2)), [[2.0, 2.0], [5.0, 5.0]]])
    counts = np.array([np.sum(np.linalg.norm((pts - x) / fit.bandwidth, axis=1) < 1.0)
                       for x in query])
    assert counts.sum() > 2 * SOLVE_BLOCK and np.unique(counts).size > 10
    theta, singular = lp_coefficients(query, data, fit)
    want = [or_singular(full_scan_fit, x, data, fit) for x in query]
    assert singular.tolist() == [isinstance(w, str) for w in want]
    assert singular[-1] and singular[-2] == (degree == 2) and np.sum(~singular) > 60
    assert np.all(np.isnan(theta[singular]))
    assert np.array_equal(theta[~singular], np.array([w[0] for w in want if not isinstance(w, str)]))
    for x, w in zip(query, want):  # a stack of one through the same block solve
        got = or_singular(lp_weights, x, data, fit)
        assert np.array_equal(got, w if isinstance(w, str) else w[1])
    with pytest.raises(ValueError, match="one point"):
        lp_weights(query[:1], data, fit)
