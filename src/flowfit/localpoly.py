"""Multivariate local polynomial regression for values and derivatives.

Fits, at a query point ``x``, the weighted least-squares polynomial of
degree ``ell`` in the scaled monomial basis and reads off either the
function value or an ``s``-fold directional derivative.  The estimate is
linear in the targets,

    g_hat(x) = sum_i w_i(x) Y_i ,

with weights

    w_i(x) = T^d / (n h^(d+s)) * Dpsi(0)^T B(x)^{-1} psi((x_i-x)/h) K(||x_i-x||/h)

where ``B(x)`` is the kernel-weighted second-moment matrix of the basis.
Weights vanish identically outside the bandwidth ball and reproduce
polynomials of degree <= ell exactly: ``sum_i w_i q(x_i) = D_v q(x)``.

Two basis conventions are supported: ``factorial-scaled`` divides each
monomial ``x^alpha`` by ``alpha!`` (the default here), ``plain`` does
not (the convention of the interpolation module).  Basis entries are
ordered by total degree, then lexicographically with earlier coordinates
taking precedence, e.g. for d=2, ell=2: 1, a, b, a^2, ab, b^2.

Because the weights vanish outside the bandwidth ball, a fit on 1-D
design points that are nondecreasing (every time grid of a long
trajectory) scans only the index range that can lie within one
bandwidth of ``x``, found by bisection; any other design is scanned in
full.  Both paths apply the same exact ``radius < 1`` test to the points
they scan and keep the full ``n`` in the weight scale, so they return
the same bits.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "KernelSpec",
    "LocalPolyFit",
    "RegressionData",
    "GridReport",
    "SingularDesign",
    "epanechnikov",
    "uniform_kernel",
    "multi_indices",
    "n_basis",
    "monomial_basis",
    "deriv_basis_at_zero",
    "design_matrix",
    "lp_weights",
    "lp_estimate",
    "lp_coefficients",
    "optimal_bandwidth",
    "check_grid_assumptions",
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


@dataclass(frozen=True)
class KernelSpec:
    """A nonnegative kernel supported on [0, 1].

    `func` is evaluated on ``z = ||x_i - x|| / h`` and must vanish for
    ``z > 1``, stay below `upper_bound`, and not be identically zero.
    `lipschitz` marks kernels that are Lipschitz on their support, the
    stronger assumption some sup-norm results need.
    """

    func: Callable[[np.ndarray], np.ndarray]
    upper_bound: float = 1.0
    lipschitz: bool = True
    name: str = "kernel"

    def __post_init__(self) -> None:
        if self.upper_bound <= 0:
            raise ValueError("upper_bound must be positive")
        probe = np.asarray(self.func(np.array([0.0, 0.5, 1.5, 3.0])), dtype=float)
        if np.any(probe < 0):
            raise ValueError("kernel must be nonnegative")
        if np.any(probe[2:] != 0.0):
            raise ValueError("kernel must vanish beyond z = 1")
        if np.all(probe == 0.0):
            raise ValueError("kernel must not be identically zero")
        if np.any(probe > self.upper_bound * (1 + 1e-12)):
            raise ValueError("kernel exceeds its declared upper bound")

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(self.func(np.asarray(z, dtype=float)), dtype=float)


def epanechnikov() -> KernelSpec:
    """Default kernel ``K(z) = (1 - z^2)_+``."""
    return KernelSpec(
        func=lambda z: np.clip(1.0 - np.square(z), 0.0, None) * (z <= 1.0),
        upper_bound=1.0,
        lipschitz=True,
        name="epanechnikov",
    )


def uniform_kernel() -> KernelSpec:
    """Indicator kernel on [0, 1); bounded but not Lipschitz."""
    return KernelSpec(
        func=lambda z: 1.0 * (z < 1.0),
        upper_bound=1.0,
        lipschitz=False,
        name="uniform",
    )


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


def deriv_basis_at_zero(
    d: int,
    ell: int,
    directions: Sequence[np.ndarray],
    mode: str = "factorial-scaled",
) -> np.ndarray:
    """Exact ``s``-fold directional derivative of the basis at 0.

    Entry ``alpha`` of ``D_{v_1} ... D_{v_s} psi`` at the origin is
    nonzero only for ``|alpha| = s``; its value is the sum over all ways
    to match differentiation slots to the coordinate multiset of
    ``alpha`` (a permanent), divided by ``alpha!`` in factorial mode.
    """
    if mode not in BASIS_MODES:
        raise ValueError(f"mode must be one of {BASIS_MODES}")
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
        if mode == "factorial-scaled":
            total /= float(np.prod([math.factorial(a) for a in alpha]))
        out[pos] = total
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
    basis_mode: str = "factorial-scaled"

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
        if self.basis_mode not in BASIS_MODES:
            raise ValueError(f"basis_mode must be one of {BASIS_MODES}")


def _window(x: np.ndarray, data: RegressionData, bandwidth: float) -> slice:
    """Index range of the points that can lie within `bandwidth` of ``x``.

    Bisection on sorted 1-D points; ``reach`` adds a relative 1e-12, far
    above the roundings in a radius, so no point that the exact
    ``radius < 1`` test keeps is cut.  Other data is scanned in full.
    """
    if data.sorted_times is None:
        return slice(0, data.n)
    t = x.item()
    reach = bandwidth + 1e-12 * (abs(t) + bandwidth)
    lo, hi = np.searchsorted(data.sorted_times, (t - reach, t + reach))
    return slice(int(lo), int(hi))


def _local_terms(
    x: np.ndarray, points: np.ndarray, fit: LocalPolyFit, kernel: KernelSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mask, basis rows, and kernel values of the in-bandwidth `points`."""
    diffs = (points - x) / fit.bandwidth
    radii = np.linalg.norm(diffs, axis=1)
    inside = radii < 1.0  # weights are exactly zero at radius >= bandwidth
    psi = monomial_basis(diffs[inside], fit.degree, fit.basis_mode)
    kvals = kernel(radii[inside])
    return inside, psi, kvals


def _local_design(
    x: np.ndarray, data: RegressionData, fit: LocalPolyFit, kernel: KernelSpec
) -> tuple[slice, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(window, inside, psi, kvals, B(x)) at ``x``; B is zero when no point is inside.

    `inside` masks the in-bandwidth points of ``data.points[window]``.
    """
    d = data.dim
    scale = data.extent ** d / (data.n * fit.bandwidth ** d)
    window = _window(x, data, fit.bandwidth)
    inside, psi, kvals = _local_terms(x, data.points[window], fit, kernel)
    return window, inside, psi, kvals, scale * (psi.T * kvals) @ psi


def design_matrix(
    x: np.ndarray, data: RegressionData, fit: LocalPolyFit, kernel: KernelSpec
) -> np.ndarray:
    """The symmetric matrix ``B(x)``; positive semidefinite by construction."""
    return _local_design(np.asarray(x, dtype=float), data, fit, kernel)[-1]


def _solve_design(
    x: np.ndarray, data: RegressionData, fit: LocalPolyFit, kernel: KernelSpec
) -> tuple[slice, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shared core: returns (window, inside, psi, kvals, B^{-1} applied via eigh)."""
    x = np.asarray(x, dtype=float)
    window, inside, psi, kvals, bmat = _local_design(x, data, fit, kernel)
    if psi.shape[0] == 0:
        raise SingularDesign(0.0, x)
    eigvals, eigvecs = np.linalg.eigh(bmat)
    floor = 1e-10 * np.trace(bmat) / n_basis(data.dim, fit.degree)
    if eigvals[0] <= floor:
        raise SingularDesign(float(eigvals[0]), x)
    inv = eigvecs @ (eigvecs / eigvals).T
    return window, inside, psi, kvals, inv


def lp_weights(
    x: np.ndarray, data: RegressionData, fit: LocalPolyFit, kernel: KernelSpec
) -> np.ndarray:
    """Estimation weights ``w_i(x)``, zero outside the bandwidth ball.

    For ``deriv_order = 0`` the weights sum to one; in general they
    reproduce degree-<=ell polynomials: ``sum_i w_i q(x_i) = D_v q(x)``.

    Raises
    ------
    SingularDesign
        When the smallest eigenvalue of ``B(x)`` falls at or below the
        scale-aware floor ``1e-10 * trace(B) / N``.
    """
    window, inside, psi, kvals, inv = _solve_design(x, data, fit, kernel)
    d = data.dim
    dpsi0 = deriv_basis_at_zero(
        d, fit.degree, [np.asarray(v) for v in fit.directions], fit.basis_mode
    )
    scale = data.extent ** d / (data.n * fit.bandwidth ** (d + fit.deriv_order))
    w = np.zeros(data.n)
    w[window][inside] = scale * ((inv @ dpsi0) @ psi.T) * kvals
    return w


def lp_estimate(
    x: np.ndarray, data: RegressionData, fit: LocalPolyFit, kernel: KernelSpec
) -> np.ndarray:
    """Componentwise estimate ``sum_i w_i(x) Y_i`` of ``D_v g(x)``."""
    return lp_weights(x, data, fit, kernel) @ data.targets


def lp_coefficients(
    x: np.ndarray, data: RegressionData, fit: LocalPolyFit, kernel: KernelSpec
) -> np.ndarray:
    """Fitted coefficient block ``theta`` of the local fit at ``x``.

    Shape ``(N, dy)``.  In the factorial-scaled basis, row ``k``
    approximates ``h^{|alpha_k|} D^{alpha_k} g(x)``, so one solve yields
    the value estimate (row of the zero index) and every derivative
    estimate up to the fitted degree.  ``fit.deriv_order`` is ignored.
    """
    window, inside, psi, kvals, inv = _solve_design(x, data, fit, kernel)
    d = data.dim
    scale = data.extent ** d / (data.n * fit.bandwidth ** d)
    avec = scale * (psi.T * kvals) @ data.targets[window][inside]
    return inv @ avec


def optimal_bandwidth(
    n: int,
    d: int,
    beta: int,
    sigma: float,
    T: float,
    L: float,
    mode: str = "pointwise",
    C: float = 1.0,
) -> float:
    """Rate-optimal bandwidth for smoothness ``beta`` over ``[0, T]^d``.

    pointwise: ``h = C (sigma^2 T^d / (L^2 n))^(1/(2 beta + d))``;
    supnorm multiplies the argument by ``log n``.  The constant ``C`` is
    not pinned down by the theory; it defaults to 1 and is exposed for
    calibration.
    """
    if min(n, d, beta) < 1 or n < 2:
        raise ValueError("need n >= 2, d >= 1, beta >= 1")
    if sigma <= 0 or T <= 0 or L <= 0 or C <= 0:
        raise ValueError("sigma, T, L, C must be positive")
    arg = sigma ** 2 * T ** d / (L ** 2 * n)
    if mode == "supnorm":
        arg *= math.log(n)
    elif mode != "pointwise":
        raise ValueError("mode must be 'pointwise' or 'supnorm'")
    return C * arg ** (1.0 / (2 * beta + d))


@dataclass(frozen=True)
class GridReport:
    """Diagnostic for the design assumptions of a point cloud.

    ``cover_constant`` is the smallest constant making the local point
    fraction obey ``(1/n) #(ball of radius r) <= max(1/n, c (r/T)^d)``
    over the probed (x, r) pairs; a uniform grid stays below ``4^d``.
    ``lambda_min`` is the worst design-matrix eigenvalue over the probe
    lattice (0 flags regions where local fits would be singular).
    """

    cover_constant: float
    lambda_min: float
    degenerate_fraction: float


def check_grid_assumptions(
    points: np.ndarray,
    T: float,
    kernel: KernelSpec,
    degree: int = 1,
    bandwidth: float | None = None,
    probes_per_dim: int = 5,
    radii: Sequence[float] | None = None,
) -> GridReport:
    """Empirically probe the covering and eigenvalue design assumptions.

    Purely diagnostic: estimates the covering constant over a probe
    lattice and radius sweep, and the minimal design-matrix eigenvalue
    at the probes for a degree-`degree` fit with the given (or a
    spacing-derived) bandwidth.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = pts.shape
    if bandwidth is None:
        bandwidth = max(2.0 * T / max(n, 2) ** (1.0 / d), 1e-6 * T)
    if radii is None:
        radii = np.linspace(0.05, 1.0, 8) * T
    axes = [np.linspace(0.0, T, probes_per_dim) for _ in range(d)]
    probes = np.stack([g.ravel() for g in np.meshgrid(*axes)], axis=1)
    dists = np.linalg.norm(probes[:, None, :] - pts[None, :, :], axis=2)

    cover = 0.0
    for r in radii:
        frac = np.mean(dists <= r, axis=1)
        active = frac > 1.0 / n  # below the 1/n branch the bound is vacuous
        if np.any(active):
            cover = max(cover, float(np.max(frac[active] * (T / r) ** d)))

    data = RegressionData(points=pts, targets=np.zeros((n, 1)), extent=T)
    fit = LocalPolyFit(degree=degree, bandwidth=bandwidth)
    lam_min = math.inf
    degenerate = 0
    for x in probes:
        bmat = design_matrix(x, data, fit, kernel)
        lam = float(np.linalg.eigvalsh(bmat)[0])
        lam_min = min(lam_min, lam)
        if lam <= 1e-10 * max(np.trace(bmat), 1e-300) / bmat.shape[0]:
            degenerate += 1
    return GridReport(
        cover_constant=cover,
        lambda_min=lam_min,
        degenerate_fraction=degenerate / probes.shape[0],
    )
