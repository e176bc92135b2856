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

Fits use the factorial-scaled basis, which divides each monomial
``x^alpha`` of :func:`monomial_basis` by ``alpha!``; the interpolation
module uses the plain monomials.  Basis entries are
ordered by total degree, then lexicographically with earlier coordinates
taking precedence, e.g. for d=2, ell=2: 1, a, b, a^2, ab, b^2.

Every fit takes one gather and one block solve.  The in-ball points of
a query are those that pass the exact ``radius < 1`` test: on 1-D design
points that are nondecreasing (every time grid of a long trajectory)
they form one index range, found by bisection and trimmed by the test,
and any other design is tested at every point (`_balls`).  A stack of
query points is fitted in padded blocks, with one batched
eigendecomposition of ``B(x)`` per block (`_block_solves`), and every
point gets the bits of its fit alone.  A fit splits into a design half
and a target half.  The design half reads no targets, so datasets that
share their design points and differ only in their targets can share
it: :func:`lp_coefficients` and :func:`lp_estimate` keep it in a store
that the caller passes, keyed by the fit's degree and bandwidth and the
bytes of the query stack.  The target half multiplies the inverses into
the kernel-weighted sums of the targets; :func:`lp_weights` is a stack
of one, spread over the design; and :func:`lp_estimate` reads ``D_v g``
off the coefficients, with no weight vector over the whole design.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple, Sequence

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


@functools.lru_cache(maxsize=None)
def _basis_plan(d: int, ell: int) -> tuple[tuple[tuple[tuple[int, int], ...], ...], np.ndarray]:
    """Per basis column its ``(coordinate, exponent)`` factors, and ``alpha!``."""
    indices = multi_indices(d, ell)
    factors = tuple(tuple((j, a) for j, a in enumerate(alpha) if a) for alpha in indices)
    scale = np.array([math.prod(math.factorial(a) for a in alpha) for alpha in indices],
                     dtype=float)
    scale.setflags(write=False)
    return factors, scale


def monomial_basis(x: np.ndarray, ell: int) -> np.ndarray:
    """Evaluate the monomials ``x^alpha`` at points of shape ``(..., d)``.

    Returns shape ``(..., N)`` with columns following
    :func:`multi_indices`.
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for column in _basis_plan(x.shape[-1], ell)[0]:
        if not column:
            cols.append(np.ones(x.shape[:-1]))
            continue
        # start from the first factor rather than ones: 1.0 * v == v exactly
        (j, a), *rest = column
        col = x[..., j] ** a
        for j, a in rest:
            col = col * x[..., j] ** a
        cols.append(col)
    return np.stack(cols, axis=-1)


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
    factorials = _basis_plan(d, ell)[1]
    out = np.zeros(len(indices))
    for pos, alpha in enumerate(indices):
        if sum(alpha) != s:
            continue
        coords = [j for j, a in enumerate(alpha) for _ in range(a)]
        total = 0.0
        for perm in itertools.permutations(coords):
            total += math.prod(dirs[r][perm[r]] for r in range(s))
        out[pos] = total / factorials[pos]
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


def _reach(times: np.ndarray, t: np.ndarray, bandwidth: float) -> np.ndarray:
    """Bounds ``lo, hi`` of the index ranges of sorted `times` that can lie
    within `bandwidth` of each of the times `t`.

    Bisection; ``reach`` adds a relative 1e-12, far above the roundings
    in a radius, so no point that the exact ``radius < 1`` test keeps is
    cut.
    """
    reach = bandwidth + 1e-12 * (abs(t) + bandwidth)
    return np.searchsorted(times, (t - reach, t + reach))


def _balls(x: np.ndarray, data: RegressionData, h: float):
    """In-ball counts of the ``(Q, d)`` stack `x`, and a gather of the indices.

    Returns ``(counts, gather)``: ``counts[q]`` is the number of points of
    `data` that pass the exact ``radius < 1`` test at ``x[q]``, and
    ``gather(rows, width)`` gives their indices, ascending, one row per
    entry of `rows`, each repeating its last index out to `width`.  On
    sorted 1-D data the balls are the `_reach` ranges trimmed at both ends
    by the test; any other design is tested at every point.
    """
    if data.sorted_times is None:
        hits = [np.flatnonzero(np.linalg.norm((data.points - p) / h, axis=1) < 1.0) for p in x]
        counts = np.array([ind.size for ind in hits], dtype=np.intp)
        return counts, lambda rows, width: np.stack(
            [hits[q][np.minimum(np.arange(width), counts[q] - 1)] for q in rows])
    times, t = data.sorted_times, x[:, 0]
    lo, hi = _reach(times, t, h)

    def outside(idx: np.ndarray) -> np.ndarray:
        # |z| is the 1-D norm sqrt(z * z) exactly wherever the test can fail
        return (lo < hi) & (np.abs((times[np.minimum(idx, data.n - 1)] - t) / h) >= 1.0)

    while (cut := outside(lo)).any():
        lo[cut] += 1
    while (cut := outside(hi - 1)).any():
        hi[cut] -= 1
    counts = hi - lo
    return counts, lambda rows, width: (
        lo[rows, None] + np.minimum(np.arange(width), counts[rows, None] - 1))


# Largest number of in-ball entries (points x ball size) one block solve gathers.
SOLVE_BLOCK = 4096


class _Block(NamedTuple):
    """One padded block of fits: row ``r`` fits the point ``rows[r]`` from the
    ``m`` points ``idx[r, :m]`` of a run ``(a, b, m)`` with ``a <= r < b``.

    The first six fields are all that the target half reads; the last
    three, which only :func:`lp_weights` reads, are None in a stored
    design half (`_design_half`)."""

    rows: np.ndarray  # (R,) stack positions, longest balls first
    idx: np.ndarray  # (R, width) in-ball indices into the design
    weighted: np.ndarray  # (R, N, width) psi^T K times the weight scale
    runs: list[tuple[int, int, int]]
    held: np.ndarray  # (R,) B(x) passes the floor test
    inv: np.ndarray  # B(x)^{-1} of the held rows
    psi: np.ndarray | None = None  # (R, width, N) basis rows of the scaled differences
    kvals: np.ndarray | None = None  # (R, width) kernel values
    eigmin: np.ndarray | None = None  # (R,) smallest eigenvalue of each B(x)


def _block_solves(x: np.ndarray, data: RegressionData, fit: LocalPolyFit):
    """The `_Block` solves of the ``(Q, d)`` stack `x`; an empty ball is in none.

    The points are fitted in padded blocks of at most `SOLVE_BLOCK`
    entries, longest balls first, so the elementwise terms are made once
    per block.  ``B(x)`` is summed once per run of equal counts, on the
    unpadded rows; one batched eigendecomposition per block gives the
    floor test ``lambda_min > 1e-10 * trace(B) / N`` and the inverses of
    the rows that pass it.  Each row takes the same operations on the same
    points in any stack, so it gets the bits of its point fitted alone.
    """
    if data.n == 0:
        return
    h, d = fit.bandwidth, data.dim
    counts, gather = _balls(x, data, h)
    scale = data.extent ** d / (data.n * h ** d)
    basis = n_basis(d, fit.degree)
    order = np.argsort(-counts, kind="stable")[:np.count_nonzero(counts)]
    while order.size:
        width = int(counts[order[0]])
        rows, order = np.split(order, [max(1, SOLVE_BLOCK // width)])
        own = counts[rows]
        idx = gather(rows, width)
        diffs = (data.points[idx] - x[rows, None, :]) / h
        psi = monomial_basis(diffs, fit.degree) / _basis_plan(d, fit.degree)[1]
        kvals = epanechnikov(np.linalg.norm(diffs, axis=2))
        weighted = scale * (psi.transpose(0, 2, 1) * kvals[:, None, :])
        cuts = np.flatnonzero(np.diff(own)) + 1
        starts, ends = np.append(0, cuts), np.append(cuts, rows.size)
        runs = [(a, b, int(own[a])) for a, b in zip(starts, ends)]
        bmat = np.empty((rows.size, basis, basis))
        for a, b, m in runs:
            bmat[a:b] = weighted[a:b, :, :m] @ psi[a:b, :m]
        eigvals, eigvecs = np.linalg.eigh(bmat)
        held = eigvals[:, 0] > 1e-10 * np.trace(bmat, axis1=1, axis2=2) / basis
        kept, vecs = eigvals[held], eigvecs[held]
        inv = vecs @ (vecs / kept[:, None, :]).transpose(0, 2, 1)
        yield _Block(rows, idx, weighted, runs, held, inv, psi, kvals, eigvals[:, 0])


def lp_weights(x: np.ndarray, data: RegressionData, fit: LocalPolyFit) -> np.ndarray:
    """Estimation weights ``w_i(x)`` at one point, zero outside the bandwidth ball.

    `x` has shape ``(d,)`` in the dimension of `data`; any other shape
    raises ValueError.  The fit is a stack of one through the block solve
    of :func:`lp_coefficients`, its weights spread over the in-ball
    indices.  For ``deriv_order = 0`` the weights sum to one; in general
    they reproduce degree-<=ell polynomials: ``sum_i w_i q(x_i) = D_v q(x)``.

    Raises
    ------
    SingularDesign
        When the smallest eigenvalue of ``B(x)`` falls at or below the
        scale-aware floor ``1e-10 * trace(B) / N``; ``lambda_min`` is 0.0
        for an empty ball.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (data.dim,):
        raise ValueError(
            f"lp_weights takes one point of shape ({data.dim},), not shape {x.shape}")
    block = next(_block_solves(x[None], data, fit), None)
    if block is None:
        raise SingularDesign(0.0, x)
    if not block.held[0]:
        raise SingularDesign(float(block.eigmin[0]), x)
    d = data.dim
    dpsi0 = deriv_basis_at_zero(d, fit.degree, [np.asarray(v) for v in fit.directions])
    scale = data.extent ** d / (data.n * fit.bandwidth ** (d + fit.deriv_order))
    w = np.zeros(data.n)
    w[block.idx[0]] = scale * ((block.inv[0] @ dpsi0) @ block.psi[0].T) * block.kvals[0]
    return w


def lp_estimate(
    x: np.ndarray, data: RegressionData, fit: LocalPolyFit, plans: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise estimates of ``D_v g`` at a ``(Q, d)`` stack of points.

    Returns ``(values, singular)``: the ``(Q, dy)`` estimates, NaN in the
    rows whose design is singular, and those rows ``(Q,)``.  Each value is
    ``Dpsi(0) . theta / h^s`` read off the coefficients of
    :func:`lp_coefficients` (with the store `plans`), so it gets the bits
    of its point estimated alone; it equals ``sum_i w_i(x) Y_i`` with the
    :func:`lp_weights` up to rounding.
    """
    theta, singular = lp_coefficients(x, data, fit, plans)
    read = deriv_basis_at_zero(data.dim, fit.degree, [np.asarray(v) for v in fit.directions])
    values = None
    for k in np.flatnonzero(read):  # one column at a time: the same bits in any stack
        term = read[k] * theta[:, k]
        values = term if values is None else values + term
    return values / fit.bandwidth ** fit.deriv_order, singular


def _design_half(x: np.ndarray, data: RegressionData, fit: LocalPolyFit, plans: dict | None):
    """The block solves of the stack `x`; with a store, the design half (the
    solves without what only :func:`lp_weights` reads) kept in `plans` under
    ``(degree, bandwidth, the bytes of x)``, made on its first use."""
    if plans is None:
        return _block_solves(x, data, fit)
    key = (fit.degree, fit.bandwidth, x.tobytes())
    if key not in plans:
        plans[key] = tuple(block._replace(psi=None, kvals=None, eigmin=None)
                           for block in _block_solves(x, data, fit))
    return plans[key]


def lp_coefficients(
    x: np.ndarray, data: RegressionData, fit: LocalPolyFit, plans: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fitted coefficient blocks of the local fits at a stack of points.

    `x` is a ``(Q, d)`` stack of points in the dimension of `data`; any
    other shape raises ValueError.  Returns ``(theta, singular)``: the
    blocks ``(Q, N, dy)``, NaN in the rows whose design is singular, and
    those rows ``(Q,)``.  In the factorial-scaled basis, entry ``alpha``
    of a block approximates ``h^|alpha| D^alpha g(x)``, so one solve yields
    the value estimate (entry 0) and every derivative estimate up to the
    fitted degree.  ``fit.deriv_order`` is ignored.

    Each row is ``B(x)^{-1} A(x)``: the inverse of the block solve that
    :func:`lp_weights` also takes (`_block_solves`) times the sum
    ``A(x)``, run once per run of equal in-ball counts on the unpadded
    rows.  So a row gets the bits of a fit of that point alone, however
    the stack is batched, and is singular exactly where `lp_weights` raises.
    `plans` is a store of design halves shared by the datasets on the
    design points and extent of `data` (they read no targets), or None to
    solve each block as it is used; the bits are the same either way.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != data.dim:
        raise ValueError(
            f"lp_coefficients takes a (Q, {data.dim}) stack of points, not shape {x.shape}")
    shape = (n_basis(data.dim, fit.degree), data.targets.shape[1])
    theta = np.full((x.shape[0], *shape), np.nan)
    singular = np.ones(x.shape[0], dtype=bool)  # an empty ball is singular
    for block in _design_half(x, data, fit, plans):
        singular[block.rows] = ~block.held
        avec = np.empty((block.rows.size, *shape))
        for a, b, m in block.runs:
            avec[a:b] = block.weighted[a:b, :, :m] @ data.targets[block.idx[a:b, :m]]
        theta[block.rows[block.held]] = block.inv @ avec[block.held]
    return theta, singular


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
