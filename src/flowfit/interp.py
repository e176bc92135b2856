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

:func:`in_hull` decides hull membership in any dimension by a witness:
convex weights, found by one nonnegative least-squares solve and verified
from the raw points.  It is what :func:`flowfit.snake.check_stencil`
re-certifies with.  The stencil search does not call it: it scores whole
stacks of candidates with its own membership test (min/max in d = 1,
barycentric coordinates for simplices, nonnegative least squares
otherwise), so the re-check stays independent of the search.  Both read
one tolerance, `HULL_RTOL`.  scipy's ``nnls`` is imported inside these
checks only, so the package loads it only when one runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .localpoly import monomial_basis, n_basis

__all__ = [
    "Stencil",
    "ZeroDiameter",
    "psi_matrix",
    "interp_multivariate",
    "normalize",
    "stability_norm",
    "in_hull",
]

# Relative singular-value threshold below which node matrices are treated
# as singular (the zero-polynomial branch of the interpolation operator).
SINGULAR_RTOL = 1e-12

# Distance outside a convex hull, relative to the hull's diameter, within
# which a point still counts as inside.
HULL_RTOL = 1e-12


class ZeroDiameter(ValueError):
    """Normalization requires at least two distinct points."""


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


def in_hull(points: np.ndarray, x: np.ndarray) -> bool:
    """Whether ``x`` lies in the convex hull of the points, by a witness.

    One nonnegative least-squares solve of ``sum_k w_k (p_k - x) = 0``,
    ``sum_k w_k = 1`` over ``w >= 0`` (the first rows scaled by the
    diameter) gives convex weights ``lambda = w / sum(w)``; ``x`` is inside
    when ``|sum_k lambda_k (p_k - x)| <= HULL_RTOL * diam``, recomputed
    from the raw points.  Such weights prove membership in any dimension,
    whatever found them; for ``x`` outside, the residual of any convex
    weights is at least the distance to the hull.
    """
    from scipy.optimize import nnls

    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rel = pts - np.asarray(x, dtype=float)
    diam = _diameter(pts)
    target = np.zeros(pts.shape[1] + 1)
    target[-1] = 1.0
    w = nnls(np.vstack([rel.T / (diam or 1.0), np.ones(pts.shape[0])]), target)[0]
    return bool(np.linalg.norm(w / w.sum() @ rel) <= HULL_RTOL * diam)
