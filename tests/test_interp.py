"""Polynomial interpolation, normalization, and hull geometry."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from flowfit import interp
from flowfit.interp import (
    Stencil,
    in_hull,
    interp_multivariate,
    min_norm_point,
    normalize,
    psi_matrix,
    stability_norm,
)


# interp_multivariate in d = 1 is univariate interpolation through the nodes


def test_constant_values_give_constant_polynomial():
    nodes = np.array([[0.0], [0.5], [1.0]])
    for t in (0.0, 0.3, 0.9):
        assert abs(interp_multivariate(nodes, np.full(3, 2.5), np.array([t])) - 2.5) <= 1e-12


def test_two_point_line():
    nodes = np.array([[0.0], [1.0]])
    for t in (0.25, 2.0):
        assert abs(interp_multivariate(nodes, np.array([0.0, 1.0]), np.array([t])) - t) <= 1e-12


def test_recovers_random_polynomial_coefficients():
    # a polynomial of degree ell is its own interpolant through ell + 1 nodes
    rng = np.random.default_rng(14)
    for ell in range(6):
        coeffs = rng.standard_normal(ell + 1)
        ts = np.sort(rng.uniform(0.0, 1.0, size=ell + 1))
        while np.any(np.diff(ts) < 1e-3):
            ts = np.sort(rng.uniform(0.0, 1.0, size=ell + 1))
        ys = np.polynomial.polynomial.polyval(ts, coeffs)
        for t in np.linspace(0.0, 1.0, 11):
            got = interp_multivariate(ts[:, None], ys, np.array([t]))
            assert abs(got - np.polynomial.polynomial.polyval(t, coeffs)) <= 1e-9


def test_vector_valued_nodes():
    ts = np.array([0.0, 1.0, 2.0])
    ys = np.stack([ts**2, 3.0 * ts], axis=1)
    assert np.allclose(interp_multivariate(ts[:, None], ys, np.array([1.5])), [2.25, 4.5],
                       atol=1e-12)


def test_psi_matrix_example():
    got = psi_matrix(np.array([[0.0], [1.0]]), ell=1)
    assert np.array_equal(got, np.array([[1.0, 0.0], [1.0, 1.0]]))


def test_collinear_triple_is_singular():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    psi = psi_matrix(pts, ell=1)
    assert np.linalg.matrix_rank(psi) == 2
    assert stability_norm(pts, ell=1) == math.inf


def test_multivariate_interpolation_property():
    rng = np.random.default_rng(16)
    for _ in range(20):
        pts = rng.uniform(size=(3, 2))
        if stability_norm(pts, ell=1) >= 1e6:
            continue
        vals = rng.standard_normal(3)
        for k in range(3):
            got = interp_multivariate(pts, vals, pts[k])
            assert abs(got - vals[k]) <= 1e-9


def test_multivariate_singular_returns_zero():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    assert interp_multivariate(pts, np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.5])) == 0.0


def test_affine_invariance():
    rng = np.random.default_rng(17)
    for _ in range(20):
        pts = rng.uniform(size=(3, 2))
        if stability_norm(pts, ell=1) >= 1e4:
            continue
        vals = rng.standard_normal(3)
        x = pts.mean(axis=0)
        bmat = rng.standard_normal((2, 2))
        while abs(np.linalg.det(bmat)) < 0.3:
            bmat = rng.standard_normal((2, 2))
        shift = rng.standard_normal(2)
        before = interp_multivariate(pts, vals, x)
        after = interp_multivariate(pts @ bmat.T + shift, vals, bmat @ x + shift)
        assert abs(before - after) <= 1e-8 * (1.0 + abs(before))


def test_normalized_diameter_is_one():
    rng = np.random.default_rng(18)
    for npts, d in [(3, 2), (6, 2), (4, 3)]:
        pts = rng.uniform(size=(npts, d)) * rng.uniform(0.5, 20.0)
        out = normalize(pts)
        dists = np.linalg.norm(out[:, None, :] - out[None, :, :], axis=2)
        assert abs(dists.max() - 1.0) <= 1e-12
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7])
def test_diameter_is_scipy_pdist_bit_for_bit(d):
    from scipy.spatial.distance import pdist

    rng = np.random.default_rng(20 + d)
    for npts in (2, 3, 6, 10, 35):
        pts = rng.normal(size=(npts, d)) * rng.uniform(0.01, 100.0)
        assert interp._diameter(pts) == pdist(pts).max()


def test_stability_translation_and_scale_invariant():
    rng = np.random.default_rng(19)
    pts = rng.uniform(size=(3, 2))
    base = stability_norm(pts, ell=1)
    assert abs(stability_norm(4.2 * pts + 7.0, ell=1) - base) <= 1e-9 * base


def test_stability_frozen_example():
    # eta maps (0, 1) to (-1/2, 1/2); Psi = [[1, -1/2], [1, 1/2]] and
    # the operator norm of its inverse is sqrt(2)
    got = stability_norm(np.array([[0.0], [1.0]]), ell=1)
    assert abs(got - 1.4142135623730951) <= 1e-12


def test_convex_combinations_are_inside():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert in_hull(pts, pts.mean(axis=0))
    rng = np.random.default_rng(22)
    tri = np.array([[0.0, 0.0], [1.0, 0.1], [0.4, 0.9]])
    for _ in range(50):
        assert in_hull(tri, rng.dirichlet(np.ones(3)) @ tri)
    # six points in d = 4, more than a simplex: x is the midpoint of two of them
    cloud = np.vstack([np.eye(4), np.zeros(4), np.full(4, 0.2)])
    assert in_hull(cloud, np.full(4, 0.1))


def test_outside_hull_is_rejected():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert not in_hull(pts, np.array([0.8, 0.8]))
    assert not in_hull(pts, np.array([-0.2, 0.5]))


@pytest.mark.parametrize("d", [2, 3])
def test_point_just_off_a_flat_hull_is_outside(d):
    # collinear points in d = 2, coplanar in d = 3: a flat hull with no
    # interior, which the witness decides like any other
    rng = np.random.default_rng(d)
    basis = np.linalg.qr(rng.standard_normal((d, d)))[0]
    span, normal = basis[:, : d - 1], basis[:, d - 1]
    pts = 0.3 + rng.uniform(-1.0, 1.0, (d + 3, d - 1)) @ span.T
    for _ in range(20):
        inside = rng.dirichlet(np.ones(d + 3)) @ pts
        assert in_hull(pts, inside)
        assert not in_hull(pts, inside + 1e-9 * normal)
        along = span @ rng.standard_normal(d - 1)
        along /= np.linalg.norm(along)
        beyond = pts[np.argmax(pts @ along)] + 1e-9 * along
        assert not in_hull(pts, beyond)


def _barycentric_inside(tri, x, tol=0.0):
    mat = np.vstack([tri.T, np.ones(3)])
    lam = np.linalg.solve(mat, np.array([x[0], x[1], 1.0]))
    return np.all(lam >= -tol)


def test_simplex_membership_matches_barycentric_oracle():
    rng = np.random.default_rng(20)
    checked = 0
    for _ in range(200):
        tri = rng.uniform(size=(3, 2))
        if stability_norm(tri, ell=1) > 1e3:
            continue
        x = rng.uniform(-0.2, 1.2, size=2)
        lam_margin = 1e-7
        inside_strict = _barycentric_inside(tri, x, tol=-lam_margin)
        outside_strict = not _barycentric_inside(tri, x, tol=lam_margin)
        if not inside_strict and not outside_strict:
            continue  # too close to the boundary to compare
        assert in_hull(tri, x) == inside_strict
        checked += 1
    assert checked > 100


def _facet_slack(pts, x):
    """Largest signed distance from x to the planes of qhull's facets of
    the points: positive outside the hull, minus the distance to the
    boundary inside."""
    eq = ConvexHull(pts).equations
    return float(np.max(eq[:, :-1] @ x + eq[:, -1]))


def test_quadratic_stencil_membership_beyond_simplex():
    # six points, ell = 2: more points than a simplex has vertices
    pts = np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, -0.3], [0.5, 1.3]]
    )
    assert in_hull(pts, np.array([0.5, 0.5]))
    assert not in_hull(pts, np.array([1.4, 0.5]))
    # seeded random 6- and 10-point clouds against qhull's facet planes
    for num, d in [(6, 2), (10, 2), (6, 3), (10, 3)]:
        rng = np.random.default_rng(100 * num + d)
        checked = 0
        for _ in range(20):
            pts = rng.uniform(size=(num, d))
            for x in rng.uniform(-0.2, 1.2, size=(20, d)):
                slack = _facet_slack(pts, x)
                if abs(slack) <= 1e-7:
                    continue  # too close to the boundary to compare
                assert in_hull(pts, x) == (slack < 0)
                checked += 1
        assert checked >= 390


def test_stencil_from_points_records_certificate():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    st_ = Stencil.from_points(pts, times=np.array([0.0, 1.0, 2.0]), ell=1)
    assert abs(st_.diameter - math.sqrt(2.0)) <= 1e-12
    assert st_.stability == pytest.approx(stability_norm(pts, 1))


def test_interpolation_constant_bound():
    # sum_k sup_hull |I(x, e_k, .)| <= N^{3/2} * stability, checked on a
    # dense hull sample (Dirichlet draws plus the nodes themselves)
    rng = np.random.default_rng(23)
    for _ in range(10):
        pts = rng.uniform(size=(3, 2))
        stab = stability_norm(pts, ell=1)
        if stab > 50.0:
            continue
        weights = rng.dirichlet(np.ones(3), size=400)
        sample = np.vstack([weights @ pts, pts])
        total = 0.0
        for k in range(3):
            vals = np.zeros(3)
            vals[k] = 1.0
            total += max(abs(interp_multivariate(pts, vals, z)) for z in sample)
        assert total <= 3.0**1.5 * stab * 1.01


# --- the min-norm point of a hull (Wolfe's method), against scipy's nnls ---


def nnls_hull_distance(rel):
    """Distance from the origin to the hull of the rows of ``rel``, from the
    convex weights of one nonnegative least-squares solve."""
    from scipy.optimize import nnls

    target = np.zeros(rel.shape[1] + 1)
    target[-1] = 1.0
    w = nnls(np.vstack([rel.T, np.ones(rel.shape[0])]), target)[0]
    return float(np.linalg.norm(w / w.sum() @ rel))


COORD = st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False)


@st.composite
def clouds(draw, d):
    """Points and a query in the layouts of the stencil search's subsets:
    generic, on a lattice, with coincident points or collinear; the query
    on a vertex, just off one, a convex combination or anywhere."""
    num = draw(st.integers(1, 12))
    layout = draw(st.sampled_from(["generic", "lattice", "coincident", "collinear"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if layout == "lattice":
        pts = rng.integers(-2, 3, size=(num, d)).astype(float)
    else:
        pts = rng.uniform(-2.0, 2.0, size=(num, d))
    if layout == "coincident":
        pts[1:draw(st.integers(1, num))] = pts[0]
    elif layout == "collinear":
        pts = pts[0] + rng.uniform(-2.0, 2.0, size=(num, 1)) * pts[-1]
    where = draw(st.sampled_from(["vertex", "off-vertex", "combination", "free"]))
    if where == "free":
        return pts, np.array(draw(st.lists(COORD, min_size=d, max_size=d)))
    if where == "combination":
        return pts, rng.dirichlet(np.ones(num)) @ pts
    x = pts[draw(st.integers(0, num - 1))].copy()
    if where == "off-vertex":
        x += draw(st.sampled_from([2e-9, 1e-6, 1e-3])) * rng.standard_normal(d)
    return pts, x


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_min_norm_point_matches_nnls(d, data, affine_solves):
    pts, x = data.draw(clouds(d))
    affine_solves.clear()  # the fixture's count spans every example
    rel = pts - x
    w = min_norm_point(rel)
    assert np.all(w >= 0.0)
    assert abs(w.sum() - 1.0) <= 1e-12
    # 1e-12 relative, or 1e-14 absolute for a query inside the hull
    assert np.linalg.norm(w @ rel) == pytest.approx(nnls_hull_distance(rel), rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_min_norm_point_stop_test(d, data, affine_solves):
    pts, x = data.draw(clouds(d))
    affine_solves.clear()
    rel = pts - x
    seen = []

    def never(dots, z):
        seen.append(np.array_equal(dots, rel @ z))
        return False

    # a stop test that never holds changes nothing; one that holds at once
    # stops on the row nearest the origin
    assert np.array_equal(min_norm_point(rel, stop=never), min_norm_point(rel))
    assert seen and all(seen)
    nearest = np.zeros(rel.shape[0])
    nearest[np.einsum("ij,ij->i", rel, rel).argmin()] = 1.0
    assert np.array_equal(min_norm_point(rel, stop=lambda dots, z: True), nearest)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_min_norm_point_ends_on_repeated_points(d, affine_solves):
    # every point three times over, so a corral can take in a copy of its own
    # point and its affine system become singular
    rng = np.random.default_rng(70 + d)
    base = rng.uniform(-1.0, 1.0, size=(8, d))
    pts = np.repeat(base, 3, axis=0)
    for x in (base.mean(axis=0), base[0], 0.5 * (base[0] + base[1]), np.full(d, 3.0)):
        rel = pts - x
        w = min_norm_point(rel)
        assert np.all(w >= 0.0)
        assert np.linalg.norm(w @ rel) == pytest.approx(nnls_hull_distance(rel), rel=1e-12, abs=1e-14)
