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

:func:`min_norm_point` is the one hull algorithm: Wolfe's (1976) method
for the point of a hull nearest the origin.  :func:`in_hull` decides
membership in any dimension with its weights, which it verifies itself
from the raw points.  It is what :func:`flowfit.snake.check_stencil`
re-certifies with.  The stencil search does not call it: it scores whole
stacks of candidates with its own membership test (min/max in d = 1,
edge-line distances for triangles, barycentric coordinates for higher
simplices, the min-norm point otherwise), so
the re-check stays independent of the search's decision.  Both read one
tolerance, `HULL_RTOL`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .localpoly import monomial_basis, n_basis

__all__ = [
    "Stencil",
    "ZeroDiameter",
    "psi_matrix",
    "interp_multivariate",
    "normalize",
    "stability_norm",
    "min_norm_point",
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
    return monomial_basis(pts, ell)


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
    psi = monomial_basis(pts, ell)
    inv = _svd_inverse(psi)
    if inv is None:
        out = np.zeros(vals.shape[1])
    else:
        out = monomial_basis(np.asarray(x, dtype=float), ell) @ (inv @ vals)
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


def normalize(points: np.ndarray) -> np.ndarray:
    """The points under ``eta: x -> (x - centroid) / diameter``, the map to
    centroid 0 and diameter 1."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    diam = _diameter(pts)
    if diam == 0.0:
        raise ZeroDiameter("all points coincide")
    return (pts - pts.mean(axis=0)) / diam


def stability_norm(points: np.ndarray, ell: int) -> float:
    """Certificate ``||Psi(eta(x))^{-1}||`` (spectral norm), or inf.

    Invariant under translation and scaling of the stencil since the
    normalization removes both.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    sing = np.linalg.svd(psi_matrix(normalize(pts), ell), compute_uv=False)
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


def _affine_weights(pts: np.ndarray) -> np.ndarray:
    """Weights, summing to one, of the point of the affine hull of the rows
    nearest the origin; by least squares, so rows that are coincident or
    affinely dependent get the minimum-norm solution."""
    base = pts[0]
    alpha = np.linalg.lstsq((pts[1:] - base).T, -base, rcond=None)[0]
    return np.concatenate(([1.0 - alpha.sum()], alpha))


def min_norm_point(
    rel: np.ndarray, stop: Callable[[np.ndarray, np.ndarray], bool] | None = None
) -> np.ndarray:
    """Convex weights ``(M,)`` of the point of the hull of the rows of
    ``rel`` ``(M, d)`` nearest the origin, by Wolfe's (1976) method.

    A corral of rows holds the current point z as the nearest point of
    its affine hull, with positive weights.  Each major cycle adds the row
    least along z, if it lies strictly below the plane ``r . z = |z|^2``;
    minor cycles then move the weights towards the affine minimiser of the
    corral until all are positive, dropping the rows whose weight reaches
    zero.  In exact arithmetic every major cycle lowers ``|z|^2`` and no
    corral repeats, so the method ends without a step cap.  In floating
    point it also stops when a major cycle does not strictly lower
    ``|z|^2`` (keeping the corral before it), and when the corral holds
    d + 1 rows, whose hull then holds the origin.

    `stop`, if given, is called at the start of each major cycle with the
    products ``rel @ z`` of every row and the current point z; when it
    returns True, the weights of z are returned at once.  The first z is
    the row nearest the origin, with unit weight.
    """
    pts = np.atleast_2d(np.asarray(rel, dtype=float))
    num, d = pts.shape
    sq = np.einsum("ij,ij->i", pts, pts)
    corral = [int(sq.argmin())]
    lam = np.ones(1)
    z, zz = pts[corral[0]], sq[corral[0]]
    while len(corral) <= d:
        dots = pts @ z
        if stop is not None and stop(dots, z):
            break
        dots[corral] = np.inf
        j = int(dots.argmin())
        if not dots[j] < zz:
            break  # no row below the plane: z is the min-norm point
        trial, weights = corral + [j], np.concatenate((lam, [0.0]))
        mu = _affine_weights(pts[trial])
        while not (mu > 0.0).all():
            # move from the weights towards mu until the first one reaches zero
            gap = weights - mu
            ratio = np.where(mu <= 0.0, weights / np.where(gap > 0.0, gap, 1.0), np.inf)
            k = int(ratio.argmin())
            weights = weights + ratio[k] * (mu - weights)
            weights[k] = 0.0
            keep = np.flatnonzero(weights > 0.0)
            trial, weights = [trial[i] for i in keep], weights[keep]
            mu = _affine_weights(pts[trial])
        z_new = mu @ pts[trial]
        zz_new = z_new @ z_new
        if not zz_new < zz:
            break
        corral, lam, z, zz = trial, mu, z_new, zz_new
    w = np.zeros(num)
    w[corral] = lam
    return w


def in_hull(points: np.ndarray, x: np.ndarray) -> bool:
    """Whether ``x`` lies in the convex hull of the points, by a witness.

    The weights of :func:`min_norm_point` on ``p_k - x``, if nonnegative,
    give convex weights ``lambda = w / sum(w)``; ``x`` is inside when
    ``|sum_k lambda_k (p_k - x)| <= HULL_RTOL * diam``, recomputed from the
    raw points.  Such weights prove membership in any dimension, whatever
    found them, so wrong weights can only refuse; for ``x`` outside, the
    residual of any convex weights is at least the distance to the hull.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rel = pts - np.asarray(x, dtype=float)
    w = min_norm_point(rel)
    if not np.all(w >= 0.0):
        return False
    return bool(np.linalg.norm(w / w.sum() @ rel) <= HULL_RTOL * _diameter(pts))
