"""Polynomial interpolation with normalization and stability certificates.

Multivariate interpolation on N-point stencils feeds the
trajectory-based estimator.  Stencils carry a stability certificate:
the spectral norm ``||Psi(eta(x))^{-1}||`` of the inverse of the
plain-monomial matrix after the points are normalized to centroid 0
and diameter 1.  Small certificates mean the interpolation operator is
well conditioned, and they are what the perturbation bound is stated
in terms of.

Multivariate interpolation follows the convention of returning the zero
polynomial when the node matrix is singular; callers that need a hard
failure should inspect :func:`psi_matrix` or :func:`stability_norm`
first.

:func:`mu_interior_contains` decides hull membership from qhull facets
(d <= 3) or simplex facets; it is what :func:`flowfit.snake.check_stencil`
re-certifies with.  The stencil search does not call it: it scores whole
stacks of candidates with its own plain-membership test (min/max in d = 1,
barycentric coordinates for simplices, nonnegative least squares
otherwise) and builds no hull.  scipy (qhull, and the HiGHS LP for flat
hulls) is imported inside these checks only, so the package loads it
only when one runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .localpoly import monomial_basis, n_basis

__all__ = [
    "Stencil",
    "ZeroDiameter",
    "DimensionUnsupported",
    "psi_matrix",
    "interp_multivariate",
    "normalize",
    "stability_norm",
    "mu_interior_contains",
]

# Relative singular-value threshold below which node matrices are treated
# as singular (the zero-polynomial branch of the interpolation operator).
SINGULAR_RTOL = 1e-12


class ZeroDiameter(ValueError):
    """Normalization requires at least two distinct points."""


class DimensionUnsupported(NotImplementedError):
    """:func:`mu_interior_contains` handles d <= 3 and simplex stencils.

    The stencil search in :mod:`flowfit.snake` never raises it: it
    decides plain membership itself, in every dimension.
    """


def psi_matrix(points: np.ndarray, ell: int) -> np.ndarray:
    """Node matrix with rows ``psi(x_k)^T`` in the plain monomial basis.

    In d = 1 this is the Vandermonde matrix.  Requires exactly
    ``N = C(ell + d, d)`` points.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    num = n_basis(pts.shape[1], ell)
    if pts.shape[0] != num:
        raise ValueError(f"need exactly N={num} points for d={pts.shape[1]}, ell={ell}")
    return monomial_basis(pts, ell, mode="plain")


def _svd_inverse(mat: np.ndarray) -> np.ndarray | None:
    """Inverse via SVD, or None when numerically singular."""
    u, sing, vt = np.linalg.svd(mat)
    if sing[-1] <= SINGULAR_RTOL * sing[0]:
        return None
    return (vt.T / sing) @ u.T


def interp_multivariate(points: np.ndarray, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Componentwise polynomial interpolation evaluated at ``x``.

    Solves ``Psi(points) c = values`` in the plain basis and returns
    ``psi(x)^T c``; when the node matrix is singular the interpolant is
    the zero polynomial, so the result is a zero vector.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    vals = np.asarray(values, dtype=float)
    squeeze = vals.ndim == 1
    if squeeze:
        vals = vals[:, None]
    d = pts.shape[1]
    ell = _degree_for(pts.shape[0], d)
    psi = monomial_basis(pts, ell, mode="plain")
    inv = _svd_inverse(psi)
    if inv is None:
        out = np.zeros(vals.shape[1])
    else:
        out = monomial_basis(np.asarray(x, dtype=float), ell, mode="plain") @ (inv @ vals)
    return out[0] if squeeze else out


def _degree_for(n_points: int, d: int) -> int:
    ell = 0
    while n_basis(d, ell) < n_points:
        ell += 1
    if n_basis(d, ell) != n_points:
        raise ValueError(f"{n_points} points do not match C(ell+{d}, {d}) for any ell")
    return ell


def _diameter(pts: np.ndarray) -> float:
    if pts.shape[0] < 2:
        return 0.0
    # equals scipy's pdist for d < 8: both add the squares in coordinate order
    return float(np.linalg.norm(pts[:, None] - pts[None], axis=-1).max())


def normalize(points: np.ndarray):
    """Map the points to centroid 0 and diameter 1.

    Returns ``(eta, normalized_points)`` where ``eta`` is the affine map
    ``x -> (x - centroid) / diameter`` as a callable, so the same
    normalization can be applied to query points.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    diam = _diameter(pts)
    if diam == 0.0:
        raise ZeroDiameter("all points coincide")
    centroid = pts.mean(axis=0)

    def eta(x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - centroid) / diam

    return eta, eta(pts)


def stability_norm(points: np.ndarray, ell: int) -> float:
    """Certificate ``||Psi(eta(x))^{-1}||`` (spectral norm), or inf.

    Invariant under translation and scaling of the stencil since the
    normalization removes both.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    _, normalized = normalize(pts)
    sing = np.linalg.svd(psi_matrix(normalized, ell), compute_uv=False)
    if sing[-1] <= SINGULAR_RTOL * sing[0]:
        return math.inf
    return float(1.0 / sing[-1])


@dataclass(frozen=True)
class Stencil:
    """Interpolation base points selected on a curve.

    `times` are the curve parameters the points came from; `diameter`
    is the max pairwise distance and `stability` the certificate
    ``||Psi(eta(x))^{-1}||`` (inf when the node matrix is singular) for
    interpolation of degree `ell`.
    """

    points: np.ndarray
    times: np.ndarray
    ell: int
    diameter: float
    stability: float

    @classmethod
    def from_points(cls, points: np.ndarray, times: np.ndarray, ell: int) -> "Stencil":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        diam = _diameter(pts)
        return cls(
            points=pts,
            times=np.asarray(times, dtype=float),
            ell=ell,
            diameter=diam,
            stability=stability_norm(pts, ell) if diam > 0 else math.inf,
        )


def _simplex_halfspaces(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Facet normals/offsets (unit normals, A x <= b inside) of a simplex.

    Returns None when the simplex is degenerate.
    """
    n_pts, d = pts.shape
    normals = []
    offsets = []
    for omit in range(n_pts):
        facet = np.delete(pts, omit, axis=0)
        base = facet[0]
        span = facet[1:] - base
        # Normal = null direction of the facet's span; a rank-deficient
        # span means the simplex is degenerate.
        _, sing, vt = np.linalg.svd(span, full_matrices=True)
        if sing.size and sing.min() <= 1e-12 * max(sing.max(), 1.0):
            return None
        normal = vt[-1]
        side = float(normal @ (pts[omit] - base))
        if abs(side) <= 1e-14 * max(1.0, float(np.abs(pts).max())):
            return None
        if side > 0:  # orient outward: omitted vertex on the inside
            normal = -normal
        normals.append(normal)
        offsets.append(float(normal @ base))
    return np.array(normals), np.array(offsets)


def _hull_membership_lp(pts: np.ndarray, x: np.ndarray) -> bool:
    """Exact membership x in conv(pts) via LP feasibility (any dimension).

    HiGHS accepts equality residuals up to its feasibility tolerance
    (~1e-7), which would let points just off a flat hull in; so its
    weights must also be nonnegative and meet every equality row,
    the weight sum included, to 1e-12 relative.
    """
    from scipy.optimize import linprog

    n_pts = pts.shape[0]
    a_eq = np.vstack([pts.T, np.ones(n_pts)])
    b_eq = np.append(np.asarray(x, dtype=float), 1.0)
    res = linprog(
        c=np.zeros(n_pts),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0.0, 1.0)] * n_pts,
        method="highs",
    )
    if not res.success:
        return False
    w = res.x
    tol = 1e-12 * (np.abs(a_eq) @ np.abs(w) + np.abs(b_eq))
    return bool(np.all(w >= -1e-12) and np.all(np.abs(a_eq @ w - b_eq) <= tol))


def mu_interior_contains(points: np.ndarray, mu: float, x: np.ndarray) -> bool:
    """Whether the ball of radius ``mu * diam(points)`` around ``x`` lies
    in the convex hull of the points.

    ``mu = 0`` is plain (closed) hull membership.  Decided by signed
    distances to hull facets: exact for simplex stencils in any
    dimension, and via hull facet enumeration for d <= 3; other cases
    raise :class:`DimensionUnsupported`.
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x = np.asarray(x, dtype=float)
    n_pts, d = pts.shape
    radius = mu * _diameter(pts)

    if d == 1:
        lo, hi = pts.min(), pts.max()
        return bool(lo <= x[0] - radius and x[0] + radius <= hi)

    halfspaces: tuple[np.ndarray, np.ndarray] | None = None
    if d <= 3:
        from scipy.spatial import ConvexHull, QhullError

        try:
            hull = ConvexHull(pts)
            # qhull equations are A x + b <= 0 with unit-norm rows.
            halfspaces = (hull.equations[:, :-1], -hull.equations[:, -1])
        except QhullError:
            halfspaces = None  # degenerate cloud: flat hull, empty interior
    elif n_pts == d + 1:
        halfspaces = _simplex_halfspaces(pts)
    else:
        raise DimensionUnsupported(
            f"hull membership for d={d} with {n_pts} > d+1 points is not supported"
        )

    if halfspaces is None:
        # Flat hull: no ball of positive radius fits; membership itself
        # is still decidable exactly.
        if radius > 0:
            return False
        return _hull_membership_lp(pts, x)

    normals, offsets = halfspaces
    slack = offsets - normals @ x
    return bool(np.all(slack >= radius - 1e-12 * max(1.0, float(np.abs(offsets).max()))))
