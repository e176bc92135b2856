"""End-to-end acceptance checks with pinned tolerances and budgets.

One test per criterion, each printing a single PASS/FAIL line with the
measured margin and wall time (run with ``pytest -s`` to see them).
The two heavyweight rate studies drive the public benchmark entry
point, so the determinism check reuses their output for free.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from flowfit import (
    ExperimentConfig,
    LocalPolyFit,
    QuerySpec,
    RegressionData,
    fit_rate,
    integrate_flow,
    make_field,
    run_experiment,
)
from flowfit.cli import main as cli_main
from flowfit.flow import ABS_TOL, REL_TOL
from flowfit.harness import read_results_csv
from flowfit.interp import (
    in_hull,
    normalize,
    psi_matrix,
    stability_norm,
)
from flowfit.localpoly import (
    deriv_basis_at_zero,
    epanechnikov,
    lp_estimate,
    lp_weights,
    monomial_basis,
    multi_indices,
    n_basis,
)
from flowfit.snake import CurveEstimate, StencilConfig, estimate_general
from flowfit.stubble import estimate_general as stubble_estimate
from flowfit.stubble import flow_stubble, horizon_regressions, observe_stubble


def _verdict(label: str, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] {label}: {detail} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert ok, f"{label}: {detail}"
    assert elapsed < budget, f"{label} took {elapsed:.1f}s, budget {budget:.0f}s"


def _poly_and_directional(rng, d: int, ell: int):
    """Random polynomial of degree <= ell with exact evaluators."""
    indices = multi_indices(d, ell)
    coeffs = rng.uniform(-1.0, 1.0, size=len(indices))

    def value(y: np.ndarray) -> float:
        return (monomial_basis(np.atleast_2d(y), ell) @ coeffs).item()

    def directional(y: np.ndarray, v: np.ndarray) -> float:
        total = 0.0
        for c, alpha in zip(coeffs, indices):
            for i, a in enumerate(alpha):
                if a == 0:
                    continue
                shifted = list(alpha)
                shifted[i] -= 1
                mono = math.prod(y[j] ** e for j, e in enumerate(shifted))
                total += c * a * v[i] * mono
        return total

    return value, directional


def test_criterion_01_polynomial_reproduction():
    rng = np.random.default_rng(101)
    combos = [
        (d, ell, s)
        for d in (1, 2, 3)
        for ell in (0, 1, 2)
        for s in (0, 1)
        if s <= ell
    ]
    t0 = time.time()
    worst = 0.0
    for trial in range(200):
        d, ell, s = combos[trial % len(combos)]
        points = rng.uniform(0.0, 1.0, size=(120, d))
        x = rng.uniform(0.3, 0.7, size=d)
        value, directional = _poly_and_directional(rng, d, ell)
        qvals = np.array([value(p) for p in points])
        dirs = ()
        if s == 1:
            v = rng.standard_normal(d)
            v /= np.linalg.norm(v)
            dirs = (tuple(v),)
        fit = LocalPolyFit(
            degree=ell,
            bandwidth=0.55 if d == 3 else 0.45,
            deriv_order=s,
            directions=dirs,
        )
        data = RegressionData(points=points, targets=qvals, extent=1.0)
        w = lp_weights(x, data, fit)
        want = directional(x, np.asarray(dirs[0])) if s == 1 else value(x)
        worst = max(worst, abs(float(w @ qvals) - want))
    elapsed = time.time() - t0
    _verdict(
        "polynomial reproduction (200 instances)",
        worst <= 1e-8,
        f"max |sum_i w_i q(x_i) - D_v q(x)| = {worst:.3e} <= 1e-08",
        elapsed,
        30.0,
    )


def test_criterion_02_weighted_ls_oracle():
    rng = np.random.default_rng(202)
    t0 = time.time()
    worst = 0.0
    checked = 0
    while checked < 100:
        d = int(rng.integers(1, 4))
        ell = int(rng.integers(0, 3))
        s = int(rng.integers(0, 2)) if ell >= 1 else 0
        dirs = ()
        if s == 1:
            v = rng.standard_normal(d)
            v /= np.linalg.norm(v)
            dirs = (tuple(v),)
        points = rng.uniform(0.0, 1.0, size=(100, d))
        targets = rng.standard_normal((100, 2))
        data = RegressionData(points=points, targets=targets, extent=1.0)
        x = rng.uniform(0.25, 0.75, size=d)
        fit = LocalPolyFit(degree=ell, bandwidth=0.5, deriv_order=s, directions=dirs)
        (got,), (singular,) = lp_estimate(x[None], data, fit)
        assert not singular

        z = (points - x) / fit.bandwidth
        radii = np.linalg.norm(z, axis=1)
        keep = radii < 1.0
        sqrtk = np.sqrt(epanechnikov(radii[keep]))
        # the fits' basis: each monomial divided by alpha!
        psi = monomial_basis(z[keep], ell) / np.array(
            [math.prod(math.factorial(a) for a in alpha) for alpha in multi_indices(d, ell)])
        theta, *_ = np.linalg.lstsq(
            psi * sqrtk[:, None], targets[keep] * sqrtk[:, None], rcond=None
        )
        read = deriv_basis_at_zero(d, ell, [np.asarray(v) for v in dirs])
        want = (read @ theta) / fit.bandwidth**s
        worst = max(worst, float(np.abs(got - want).max()))
        checked += 1
    elapsed = time.time() - t0
    _verdict(
        "weighted-LS oracle equivalence (100 instances)",
        worst <= 1e-9,
        f"max |lp_estimate - lstsq oracle| = {worst:.3e} <= 1e-09",
        elapsed,
        10.0,
    )


def test_criterion_03_flow_fidelity():
    t0 = time.time()
    quarter = integrate_flow(make_field("rotation"), np.array([1.0, 0.0]), math.pi / 2)
    quarter_err = float(np.linalg.norm(quarter - np.array([0.0, 1.0])))

    fields = [make_field("rotation"), make_field("pendulum"), make_field("cubic")]
    rng = np.random.default_rng(303)
    tol_unit = ABS_TOL + REL_TOL
    worst_ratio = 0.0
    for trial in range(100):
        fld = fields[trial % len(fields)]
        x = rng.uniform(-0.8, 0.8, size=fld.dim)
        s = float(rng.uniform(0.0, 0.75))
        t = float(rng.uniform(0.0, 0.75))
        direct = integrate_flow(fld, x, s + t)
        chained = integrate_flow(fld, integrate_flow(fld, x, s), t)
        tol = 10.0 * (ABS_TOL + REL_TOL * float(np.linalg.norm(direct)))
        resid = float(np.linalg.norm(chained - direct))
        worst_ratio = max(worst_ratio, resid / tol)
    elapsed = time.time() - t0
    _verdict(
        "flow fidelity (quarter turn + 100 semigroup draws)",
        quarter_err <= 1e-6 and worst_ratio <= 1.0,
        f"quarter-turn err {quarter_err:.2e} <= 1e-06, "
        f"max semigroup resid {worst_ratio:.3f}x of 10*(atol+rtol|u|), "
        f"tol unit {tol_unit:.0e}",
        elapsed,
        30.0,
    )


def test_criterion_04_bias_slope():
    field = make_field("rotation")
    dts = [0.04, 0.02, 0.01, 0.005]
    grid = np.linspace(0.25, 0.75, 3)
    queries = np.array([[a, b] for a in grid for b in grid])
    t0 = time.time()
    slopes = {}
    for beta in (1, 2):
        errors = []
        for dt in dts:
            states = flow_stubble(field, 16, dt, beta=beta)
            ds = observe_stubble(field, 16, states, dt, sigma=0.0, seed=7)
            regressions = horizon_regressions(ds, beta)
            worst = 0.0
            fhats, singular = stubble_estimate(regressions, queries)
            assert not singular.any()
            for x, fhat in zip(queries, fhats):
                worst = max(worst, float(np.linalg.norm(fhat - field(x))))
            errors.append(worst)
        slope, _ = fit_rate(dts, errors)
        slopes[beta] = slope
    elapsed = time.time() - t0
    ok = all(beta - 0.25 <= slopes[beta] <= beta + 0.35 for beta in (1, 2))
    _verdict(
        "zero-noise bias slope in dt (rotation, d=2)",
        ok,
        f"beta=1 slope {slopes[1]:.3f} in [0.75, 1.35]; "
        f"beta=2 slope {slopes[2]:.3f} in [1.75, 2.35]",
        elapsed,
        120.0,
    )


@pytest.fixture(scope="module")
def rate_study(tmp_path_factory):
    """Run the benchmark CLI twice with one config; share the outputs."""
    root = tmp_path_factory.mktemp("rate-study")
    cfg = {
        "model": "stubble-lip",
        "field": "cubic",
        "d": 1,
        "ns": [2**k for k in range(8, 15)],
        "dt_rule": "balanced",
        "sigma": 0.1,
        "replicates": 50,
        "seed": 2024,
        "queries": {"kind": "grid", "per_dim": 9, "margin": 0.15},
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    t0 = time.time()
    for name in ("first", "second"):
        out = root / name
        assert cli_main(["benchmark", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out)
    return {"outs": outs, "elapsed": time.time() - t0}


def test_criterion_05_stubble_statistical_rate(rate_study):
    _, rows = read_results_csv(rate_study["outs"][0] / "results.csv")
    ns = sorted({r.n for r in rows})
    rmse = []
    for n in ns:
        errs = np.array([r.error for r in rows if r.n == n and np.isfinite(r.error)])
        assert errs.size == 50
        rmse.append(float(np.sqrt(np.mean(errs**2))))
    slope, _ = fit_rate(ns, rmse)
    _verdict(
        "short-trajectory statistical rate (d=1, sigma=0.1, R=50)",
        -0.30 <= slope <= -0.10,
        f"RMSE slope {slope:.4f} in [-0.30, -0.10] over n=2^8..2^14 (theory -0.20)",
        rate_study["elapsed"] / 2,
        600.0,
    )


def test_criterion_06_snake_sup_error_decay():
    cfg = ExperimentConfig(
        model="snake-lip",
        field="rotation",
        d=2,
        ns=tuple(2**k for k in range(10, 15)),
        dt_rule="fixed-horizon",
        horizon=2 * math.pi,
        sigma=0.05,
        replicates=20,
        seed=2024,
        x1=(1.0, 0.0),
        queries=QuerySpec(kind="tube", count=40, delta=0.02),
    )
    t0 = time.time()
    result = run_experiment(cfg)
    elapsed = time.time() - t0
    means = [row.mean_error for row in result.summary]
    decreasing = all(a > b for a, b in zip(means, means[1:]))
    slope, _ = fit_rate([row.n for row in result.summary], means)
    _verdict(
        "single-trajectory sup-error decay (circle, tube queries)",
        decreasing and slope <= -0.10,
        f"mean sup-errors {', '.join(f'{m:.4f}' for m in means)} "
        f"strictly decreasing={decreasing}, slope {slope:.4f} <= -0.10",
        elapsed,
        900.0,
    )


def test_criterion_07_snake_affine_exactness():
    curve = CurveEstimate.from_functions(
        lambda t: np.array([math.cos(t), math.sin(t)]),
        lambda t: np.array([-math.sin(t), math.cos(t)]),
        degree=2,
        horizon=2 * math.pi,
        resolution=512,
    )
    field = make_field("rotation")
    cfg = StencilConfig()
    rng = np.random.default_rng(707)
    t0 = time.time()
    worst = 0.0
    certified = 0
    for _ in range(50):
        theta = rng.uniform(0, 2 * math.pi)
        x = rng.uniform(0.85, 0.97) * np.array([math.cos(theta), math.sin(theta)])
        est = estimate_general(x, curve, cfg)
        assert est.provenance == "interpolated"
        worst = max(worst, float(np.linalg.norm(est.value - field(x))))
        # independent certificate re-check, from the raw points
        recomputed = stability_norm(est.stencil.points, est.stencil.ell)
        assert recomputed <= 2 * cfg.s
        assert in_hull(est.stencil.points, x)
        certified += 1
    elapsed = time.time() - t0
    _verdict(
        "interpolated estimate exact on affine field (50 points)",
        worst <= 1e-8 and certified == 50,
        f"max |fhat - f| = {worst:.3e} <= 1e-08, {certified}/50 stencils re-certified",
        elapsed,
        60.0,
    )


def test_criterion_08_perturbed_inverse_bound():
    rng = np.random.default_rng(808)
    combos = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]
    t0 = time.time()
    checked = 0
    worst_ratio = 0.0
    while checked < 1000:
        d, ell = combos[checked % len(combos)]
        num = n_basis(d, ell)
        points = rng.standard_normal((num, d))
        s = stability_norm(points, ell)
        if not math.isfinite(s) or s > 1e6:
            continue
        delta0 = max(
            float(np.linalg.norm(points[i] - points[j]))
            for i in range(num)
            for j in range(i + 1, num)
        )
        gamma = rng.uniform(0.1, 1.0) * delta0 / max(4.0, 16.0 * num * ell * s)
        offsets = rng.standard_normal((num, d))
        offsets *= (gamma * rng.uniform(0.0, 1.0, size=num))[:, None] / np.linalg.norm(
            offsets, axis=1, keepdims=True
        )
        moved = points + offsets

        inv_base = np.linalg.inv(psi_matrix(normalize(points), ell))
        assert math.isfinite(stability_norm(moved, ell))
        inv_moved = np.linalg.inv(psi_matrix(normalize(moved), ell))
        diff = float(np.linalg.norm(inv_moved - inv_base, 2))
        bound = 16.0 * num * ell * s**2 * gamma / delta0
        worst_ratio = max(worst_ratio, diff / bound)
        checked += 1
    elapsed = time.time() - t0
    _verdict(
        "perturbed-node inverse bound (1000 admissible pairs)",
        worst_ratio <= 1.0,
        f"max ||inv(moved) - inv(base)|| / (16 N ell s^2 gamma / delta0) "
        f"= {worst_ratio:.4f} <= 1",
        elapsed,
        60.0,
    )


def test_criterion_09_rate_fit_exactness():
    t0 = time.time()
    ns = 2.0 ** np.arange(4, 12)
    worst = 0.0
    for exponent in (-2.0, -0.5, -0.2, 0.25):
        slope, intercept = fit_rate(ns, 3.7 * ns**exponent)
        worst = max(worst, abs(slope - exponent), abs(intercept - math.log(3.7)))
    elapsed = time.time() - t0
    _verdict(
        "rate-fit exactness on synthetic power laws",
        worst <= 1e-12,
        f"max |fit - truth| = {worst:.3e} <= 1e-12",
        elapsed,
        1.0,
    )


def test_criterion_10_benchmark_determinism(rate_study):
    t0 = time.time()
    first, second = rate_study["outs"]
    same = (first / "results.csv").read_bytes() == (second / "results.csv").read_bytes()
    elapsed = time.time() - t0
    _verdict(
        "benchmark determinism (same config + seed, byte-identical CSV)",
        same,
        "two runs byte-identical" if same else "results.csv bytes differ",
        elapsed,
        60.0,
    )
