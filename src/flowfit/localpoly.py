"""Multivariate local polynomial regression for values and derivatives.

Fits, at a query point ``x``, the weighted least-squares polynomial of
degree ``ell`` in the scaled monomial basis and reads off either the
function value or an ``s``-fold directional derivative.  The estimate is
linear in the targets,

    g_hat(x) = sum_i w_i(x) Y_i ,

with weights

    w_i(x) = T^d / (n h^(d+s)) * Dpsi(0)^T B(x)^{-1} psi((x_i-x)/h) K(||x_i-x||/h)

where ``B(x)`` is the kernel-weighted second-moment matrix of the basis
and ``K`` is the Epanechnikov kernel, the one kernel of every fit.
Weights vanish identically outside the bandwidth ball and reproduce
polynomials of degree <= ell exactly: ``sum_i w_i q(x_i) = D_v q(x)``.

Fits use the ``factorial-scaled`` basis, which divides each monomial
``x^alpha`` by ``alpha!``; :func:`monomial_basis` also evaluates the
``plain`` basis of the interpolation module.  Basis entries are
ordered by total degree, then lexicographically with earlier coordinates
taking precedence, e.g. for d=2, ell=2: 1, a, b, a^2, ab, b^2.

Weights come from one solve of ``B(x)`` at one query point
(:func:`lp_weights`).  Estimates come from the batched coefficient solve
of :func:`lp_coefficients` over a stack of query points:
:func:`lp_estimate` reads ``D_v g`` off the fitted coefficients, with no
weight vector over the whole design.  Because the weights vanish outside
the bandwidth ball, a fit on 1-D design points that are nondecreasing
(every time grid of a long trajectory) scans only the index range that
can lie within one bandwidth of ``x``, found by bisection; any other
design is scanned in full.  Both paths apply the same exact
``radius < 1`` test to the points they scan and keep the full ``n`` in
the weight scale, so they return the same bits.  A stack is solved in
batches, padded blocks that mix windows of every length on sorted data
and groups of equal in-ball count elsewhere, with the same bits as
fitting each point alone.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Sequence

import numpy as np

__all__ = [
    "LocalPolyFit",
    "RegressionData",
    "SingularDesign",
    "epanechnikov",
    "multi_indices",
    "n_basis",
    "monomial_basis",
    "deriv_basis_at_zero",
    "lp_weights",
    "lp_estimate",
    "lp_coefficients",
    "optimal_bandwidth",
]

BASIS_MODES = ("factorial-scaled", "plain")


class SingularDesign(Exception):
    """Local design matrix is numerically singular at the query point.

    Carries the offending smallest eigenvalue; raised when the local
    data cannot pin down a degree-``ell`` fit (too few points in the
    bandwidth ball, or a degenerate configuration).
    """

    def __init__(self, lambda_min: float, x: np.ndarray):
        super().__init__(
            f"singular local design at x={np.asarray(x)}: lambda_min={lambda_min:.3e}"
        )
        self.lambda_min = lambda_min
        self.x = np.asarray(x)


def epanechnikov(z: np.ndarray) -> np.ndarray:
    """The fit kernel ``K(z) = (1 - z^2)_+`` at the scaled radii `z`.

    Nonnegative, at most 1, zero for ``z >= 1``, and Lipschitz on its
    support, as the sup-norm results need.
    """
    return np.clip(1.0 - np.square(z), 0.0, None) * (z <= 1.0)


def multi_indices(d: int, ell: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree <= ell in the documented order.

    Graded order: lower total degree first; within a degree,
    lexicographic with earlier coordinates taking precedence, so for
    d=2: (0,0), (1,0), (0,1), (2,0), (1,1), (0,2), ...
    """
    if d < 1 or ell < 0:
        raise ValueError("need d >= 1 and ell >= 0")
    out: list[tuple[int, ...]] = []
    for degree in range(ell + 1):
        for slots in itertools.combinations_with_replacement(range(d), degree):
            alpha = [0] * d
            for pos in slots:
                alpha[pos] += 1
            out.append(tuple(alpha))
    return out


def n_basis(d: int, ell: int) -> int:
    """Dimension ``N = C(ell + d, d)`` of degree-<=ell polynomials."""
    return math.comb(ell + d, d)


def _factorial_scale(indices: Sequence[tuple[int, ...]]) -> np.ndarray:
    return np.array([np.prod([math.factorial(a) for a in alpha]) for alpha in indices], dtype=float)


@functools.lru_cache(maxsize=None)
def _basis_plan(d: int, ell: int) -> tuple[tuple[tuple[tuple[int, int], ...], ...], np.ndarray]:
    """Per basis column its ``(coordinate, exponent)`` factors, and ``alpha!``."""
    indices = multi_indices(d, ell)
    factors = tuple(tuple((j, a) for j, a in enumerate(alpha) if a) for alpha in indices)
    scale = _factorial_scale(indices)
    scale.setflags(write=False)
    return factors, scale


def monomial_basis(x: np.ndarray, ell: int, mode: str = "factorial-scaled") -> np.ndarray:
    """Evaluate the monomial basis at points of shape ``(..., d)``.

    Returns shape ``(..., N)`` with columns following
    :func:`multi_indices`; ``factorial-scaled`` divides entry ``alpha``
    by ``alpha!``.
    """
    if mode not in BASIS_MODES:
        raise ValueError(f"mode must be one of {BASIS_MODES}")
    x = np.asarray(x, dtype=float)
    factors, scale = _basis_plan(x.shape[-1], ell)
    cols = []
    for column in factors:
        if not column:
            cols.append(np.ones(x.shape[:-1]))
            continue
        # start from the first factor rather than ones: 1.0 * v == v exactly
        (j, a), *rest = column
        col = x[..., j] ** a
        for j, a in rest:
            col = col * x[..., j] ** a
        cols.append(col)
    out = np.stack(cols, axis=-1)
    if mode == "factorial-scaled":
        out = out / scale
    return out


def deriv_basis_at_zero(d: int, ell: int, directions: Sequence[np.ndarray]) -> np.ndarray:
    """Exact ``s``-fold directional derivative of the fitting basis at 0.

    Entry ``alpha`` of ``D_{v_1} ... D_{v_s} psi`` at the origin is
    nonzero only for ``|alpha| = s``; its value is the sum over all ways
    to match differentiation slots to the coordinate multiset of
    ``alpha`` (a permanent), divided by ``alpha!``.
    """
    dirs = [np.asarray(v, dtype=float) for v in directions]
    s = len(dirs)
    indices = multi_indices(d, ell)
    out = np.zeros(len(indices))
    for pos, alpha in enumerate(indices):
        if sum(alpha) != s:
            continue
        coords = [j for j, a in enumerate(alpha) for _ in range(a)]
        total = 0.0
        for perm in itertools.permutations(coords):
            total += math.prod(dirs[r][perm[r]] for r in range(s))
        out[pos] = total / float(np.prod([math.factorial(a) for a in alpha]))
    return out


@dataclass(frozen=True)
class RegressionData:
    """Design points in ``[0, T]^d`` with vector targets.

    `sorted_times` is set once, at construction: the points as a flat
    array when they are 1-D and nondecreasing, else None.  Fits on such
    data scan only the points within reach of the bandwidth.
    """

    points: np.ndarray
    targets: np.ndarray
    extent: float
    sorted_times: np.ndarray | None = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        tgt = np.asarray(self.targets, dtype=float)
        if tgt.ndim == 1:
            tgt = tgt[:, None]
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "targets", tgt)
        if pts.shape[0] != tgt.shape[0]:
            raise ValueError("points and targets must have equal length")
        if self.extent <= 0:
            raise ValueError("extent must be positive")
        times = pts[:, 0] if pts.shape[1] == 1 else None
        if times is not None and not np.all(times[1:] >= times[:-1]):
            times = None  # unsorted, or NaN
        object.__setattr__(self, "sorted_times", times)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class LocalPolyFit:
    """Configuration of one local polynomial fit.

    ``deriv_order = 0`` estimates the function value; ``s >= 1``
    estimates the ``s``-fold directional derivative along `directions`
    (each a unit vector), which requires ``s <= degree``.
    """

    degree: int
    bandwidth: float
    deriv_order: int = 0
    directions: tuple[tuple[float, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.deriv_order > self.degree:
            raise ValueError("deriv_order must not exceed degree")
        if len(self.directions) != self.deriv_order:
            raise ValueError("need one direction per derivative order")
        for v in self.directions:
            if abs(np.linalg.norm(v) - 1.0) > 1e-9:
                raise ValueError("directions must be unit vectors")


def _reach(times: np.ndarray, t: float | np.ndarray, bandwidth: float) -> np.ndarray:
    """Bounds ``lo, hi`` of the index range of sorted `times` that can lie
    within `bandwidth` of the time `t`, or of each of a stack of times.

    Bisection; ``reach`` adds a relative 1e-12, far above the roundings
    in a radius, so no point that the exact ``radius < 1`` test keeps is
    cut.
    """
    reach = bandwidth + 1e-12 * (abs(t) + bandwidth)
    return np.searchsorted(times, (t - reach, t + reach))


def _window(x: np.ndarray, data: RegressionData, bandwidth: float) -> slice:
    """Index range of the points that can lie within `bandwidth` of ``x``:
    `_reach` on sorted 1-D points; other data is scanned in full."""
    if data.sorted_times is None:
        return slice(0, data.n)
    lo, hi = _reach(data.sorted_times, x.item(), bandwidth)
    return slice(int(lo), int(hi))


def _local_terms(
    x: np.ndarray, points: np.ndarray, fit: LocalPolyFit
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mask, basis rows, and kernel values of the in-bandwidth `points`."""
    diffs = (points - x) / fit.bandwidth
    radii = np.linalg.norm(diffs, axis=1)
    inside = radii < 1.0  # weights are exactly zero at radius >= bandwidth
    psi = monomial_basis(diffs[inside], fit.degree)
    kvals = epanechnikov(radii[inside])
    return inside, psi, kvals


def _solve_design(
    x: np.ndarray, data: RegressionData, fit: LocalPolyFit
) -> tuple[slice, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The solve of the weights at one point: (window, inside, psi, kvals, B(x)^{-1}).

    `inside` masks the in-bandwidth points of ``data.points[window]``;
    ``B^{-1}`` comes from the eigendecomposition of ``B(x)``.
    """
    x = np.asarray(x, dtype=float)
    d = data.dim
    window = _window(x, data, fit.bandwidth)
    inside, psi, kvals = _local_terms(x, data.points[window], fit)
    if psi.shape[0] == 0:
        raise SingularDesign(0.0, x)
    scale = data.extent ** d / (data.n * fit.bandwidth ** d)
    bmat = scale * (psi.T * kvals) @ psi
    eigvals, eigvecs = np.linalg.eigh(bmat)
    floor = 1e-10 * np.trace(bmat) / n_basis(d, fit.degree)
    if eigvals[0] <= floor:
        raise SingularDesign(float(eigvals[0]), x)
    inv = eigvecs @ (eigvecs / eigvals).T
    return window, inside, psi, kvals, inv


def lp_weights(x: np.ndarray, data: RegressionData, fit: LocalPolyFit) -> np.ndarray:
    """Estimation weights ``w_i(x)``, zero outside the bandwidth ball.

    For ``deriv_order = 0`` the weights sum to one; in general they
    reproduce degree-<=ell polynomials: ``sum_i w_i q(x_i) = D_v q(x)``.

    Raises
    ------
    SingularDesign
        When the smallest eigenvalue of ``B(x)`` falls at or below the
        scale-aware floor ``1e-10 * trace(B) / N``.
    """
    window, inside, psi, kvals, inv = _solve_design(x, data, fit)
    d = data.dim
    dpsi0 = deriv_basis_at_zero(d, fit.degree, [np.asarray(v) for v in fit.directions])
    scale = data.extent ** d / (data.n * fit.bandwidth ** (d + fit.deriv_order))
    w = np.zeros(data.n)
    w[window][inside] = scale * ((inv @ dpsi0) @ psi.T) * kvals
    return w


def lp_estimate(
    x: np.ndarray, data: RegressionData, fit: LocalPolyFit
) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise estimates of ``D_v g`` at a ``(Q, d)`` stack of points.

    Returns ``(values, singular)``: the ``(Q, dy)`` estimates, NaN in the
    rows whose design is singular, and those rows ``(Q,)``.  Each value is
    ``Dpsi(0) . theta / h^s`` read off the coefficients of
    :func:`lp_coefficients`, so it gets the bits of its point estimated
    alone; it equals ``sum_i w_i(x) Y_i`` with the :func:`lp_weights` up
    to rounding.
    """
    theta, singular = lp_coefficients(x, data, fit)
    read = deriv_basis_at_zero(data.dim, fit.degree, [np.asarray(v) for v in fit.directions])
    values = None
    for k in np.flatnonzero(read):  # one column at a time: the same bits in any stack
        term = read[k] * theta[:, k]
        values = term if values is None else values + term
    return values / fit.bandwidth ** fit.deriv_order, singular


# Largest number of window entries (times x points) one stacked solve gathers.
SOLVE_BLOCK = 4096


def lp_coefficients(
    x: np.ndarray, data: RegressionData, fit: LocalPolyFit
) -> tuple[np.ndarray, np.ndarray]:
    """Fitted coefficient blocks of the local fits at a stack of points.

    `x` is a ``(Q, d)`` stack of points in the dimension of `data`; any
    other shape raises ValueError.  Returns ``(theta, singular)``: the
    blocks ``(Q, N, dy)``, NaN in the rows whose design is singular, and
    those rows ``(Q,)``.  In the factorial-scaled basis, entry ``alpha``
    of a block approximates ``h^|alpha| D^alpha g(x)``, so one solve yields
    the value estimate (entry 0) and every derivative estimate up to the
    fitted degree.  ``fit.deriv_order`` is ignored.

    Every row takes the operations of `_solve_design` in the same order on
    the same points, so it gets the bits of a fit of that point alone,
    however the stack is batched.  On sorted 1-D data the in-bandwidth
    points of a time form one index range: `_reach`, trimmed at both ends
    by the exact ``radius < 1`` test (see `_range_fits`).  Any other
    design is scanned in full at each point by `_local_terms`, and the
    points with equally many in-ball points share one product and one
    batched eigendecomposition and solve.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != data.dim:
        raise ValueError(
            f"lp_coefficients takes a (Q, {data.dim}) stack of points, not shape {x.shape}")
    basis = n_basis(data.dim, fit.degree)
    theta = np.full((x.shape[0], basis, data.targets.shape[1]), np.nan)
    singular = np.ones(x.shape[0], dtype=bool)  # an empty ball is singular
    if data.n == 0:
        return theta, singular
    fits = _scanned_fits if data.sorted_times is None else _range_fits
    for rows, bmat, avec in fits(x, data, fit):
        eigvals, eigvecs = np.linalg.eigh(bmat)
        floor = 1e-10 * np.trace(bmat, axis1=1, axis2=2) / basis
        held = eigvals[:, 0] > floor
        singular[rows] = ~held
        eigvals, eigvecs = eigvals[held], eigvecs[held]
        inv = eigvecs @ (eigvecs / eigvals[:, None, :]).transpose(0, 2, 1)
        theta[rows[held]] = inv @ avec[held]
    return theta, singular


def _scanned_fits(x: np.ndarray, data: RegressionData, fit: LocalPolyFit):
    """``(rows, B, A)`` per group of the points of `x` whose balls hold
    equally many points: the stacked designs ``B(x)`` and their products
    ``A(x)`` with the targets, each point's terms from `_local_terms` over
    every point of `data`."""
    d = data.dim
    terms = [_local_terms(point, data.points, fit) for point in x]
    counts = np.array([kvals.size for _, _, kvals in terms])
    scale = data.extent ** d / (data.n * fit.bandwidth ** d)
    for m in np.unique(counts[counts > 0]):
        rows = np.flatnonzero(counts == m)
        psi = np.stack([terms[q][1] for q in rows])
        kvals = np.stack([terms[q][2] for q in rows])
        targets = np.stack([data.targets[terms[q][0]] for q in rows])
        weighted = scale * (psi.transpose(0, 2, 1) * kvals[:, None, :])
        yield rows, weighted @ psi, weighted @ targets


def _range_fits(x: np.ndarray, data: RegressionData, fit: LocalPolyFit):
    """``(rows, B, A)`` per padded block of the times of `x` on sorted 1-D data.

    The times are fitted in padded blocks of at most `SOLVE_BLOCK` entries,
    longest ranges first: each row of a block is as wide as the block's
    longest range and repeats its last index past its own, so the
    elementwise terms are made once per block.  The two window sums run
    once per distinct length on the unpadded rows.
    """
    h = fit.bandwidth
    times, t = data.sorted_times, x[:, 0]
    lo, hi = _reach(times, t, h)

    def outside(idx: np.ndarray) -> np.ndarray:
        # |z| is the 1-D norm sqrt(z * z) exactly wherever the test can fail
        return (lo < hi) & (np.abs((times[np.minimum(idx, data.n - 1)] - t) / h) >= 1.0)

    while (cut := outside(lo)).any():
        lo[cut] += 1
    while (cut := outside(hi - 1)).any():
        hi[cut] -= 1
    lengths = hi - lo
    scale = data.extent / (data.n * h)  # the weight scale at d = 1
    order = np.argsort(-lengths, kind="stable")[:np.count_nonzero(lengths)]
    while order.size:
        width = int(lengths[order[0]])
        rows, order = np.split(order, [max(1, SOLVE_BLOCK // width)])
        own = lengths[rows]
        idx = lo[rows, None] + np.minimum(np.arange(width), own[:, None] - 1)
        diffs = (data.points[idx] - x[rows, None, :]) / h
        psi = monomial_basis(diffs, fit.degree)
        kvals = epanechnikov(np.linalg.norm(diffs, axis=2))
        weighted = scale * (psi.transpose(0, 2, 1) * kvals[:, None, :])
        bmat = np.empty((rows.size, psi.shape[2], psi.shape[2]))
        avec = np.empty((rows.size, psi.shape[2], data.targets.shape[1]))
        cuts = np.flatnonzero(np.diff(own)) + 1
        for a, b in zip(np.append(0, cuts), np.append(cuts, rows.size)):  # rows of one length
            m = own[a]
            bmat[a:b] = weighted[a:b, :, :m] @ psi[a:b, :m]
            avec[a:b] = weighted[a:b, :, :m] @ data.targets[idx[a:b, :m]]
        yield rows, bmat, avec


def optimal_bandwidth(
    n: int,
    d: int,
    beta: int,
    sigma: float,
    T: float,
    L: float,
    mode: str = "pointwise",
) -> float:
    """Rate-optimal bandwidth for smoothness ``beta`` over ``[0, T]^d``.

    pointwise: ``h = (sigma^2 T^d / (L^2 n))^(1/(2 beta + d))``;
    supnorm multiplies the argument by ``log n``.  The theory fixes the
    bandwidth only up to a constant factor, which is taken as 1.
    """
    if min(n, d, beta) < 1 or n < 2:
        raise ValueError("need n >= 2, d >= 1, beta >= 1")
    if sigma <= 0 or T <= 0 or L <= 0:
        raise ValueError("sigma, T, L must be positive")
    arg = sigma ** 2 * T ** d / (L ** 2 * n)
    if mode == "supnorm":
        arg *= math.log(n)
    elif mode != "pointwise":
        raise ValueError("mode must be 'pointwise' or 'supnorm'")
    return arg ** (1.0 / (2 * beta + d))
