"""Experiment orchestration: rates, replication, determinism, files."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowfit.harness import (
    ExperimentConfig,
    ExperimentError,
    NonPositiveError,
    QuerySpec,
    UnsupportedCombination,
    _aggregate,
    fit_rate,
    read_results_csv,
    reference_rate,
    run_experiment,
    write_plot_csv,
    write_report_json,
    write_results_csv,
)


def test_fit_rate_exact_power_law():
    ns = np.array([64, 128, 256, 512])
    slope, intercept = fit_rate(ns, ns ** -0.2)
    assert abs(slope + 0.2) <= 1e-12
    assert abs(intercept) <= 1e-12


def test_fit_rate_constant_errors():
    slope, _ = fit_rate([10, 100, 1000], [2.0, 2.0, 2.0])
    assert abs(slope) <= 1e-12


def test_fit_rate_perturbed_power_law():
    ns = np.array([2**k for k in range(6, 14)])
    wiggle = 1.0 + 0.01 * (-1.0) ** np.arange(len(ns))
    slope, _ = fit_rate(ns, 3.0 * ns ** -0.4 * wiggle)
    assert -0.41 <= slope <= -0.39


def test_fit_rate_input_validation():
    with pytest.raises(ValueError):
        fit_rate([10, 100], [1.0, 0.5])
    with pytest.raises(NonPositiveError):
        fit_rate([10, 100, 1000], [1.0, -0.5, 0.1])
    with pytest.raises(NonPositiveError):
        fit_rate([10, 100, 1000], [1.0, math.nan, 0.1])


def test_reference_rate_stubble_balanced_rmse():
    rate = reference_rate("stubble-lip", d=1, beta=1, regime="balanced")
    assert rate.exponent == Fraction(-1, 5)
    assert rate.log_power == 0
    assert rate.scale == "rmse"


def test_reference_rate_stubble_balanced_squared():
    rate = reference_rate("stubble-gen", d=2, beta=2, regime="balanced", scale="squared")
    assert rate.exponent == Fraction(-1, 2)


def test_reference_rate_snake_balanced_has_log():
    rate = reference_rate("snake-gen", d=2, beta=1, regime="balanced", scale="squared")
    assert rate.exponent == Fraction(-1, 3)
    assert rate.log_power == Fraction(1, 3)


def test_reference_rate_lip_ignores_beta():
    a = reference_rate("snake-lip", d=2, beta=3, regime="fixed-horizon")
    b = reference_rate("snake-lip", d=2, beta=1, regime="fixed-horizon")
    assert a.exponent == b.exponent == Fraction(-1, 5)


@given(
    model=st.sampled_from(["stubble-lip", "stubble-gen", "snake-lip", "snake-gen"]),
    d=st.integers(1, 4),
    beta=st.integers(1, 4),
    scale=st.sampled_from(["rmse", "squared"]),
)
def test_reference_exponent_always_negative(model, d, beta, scale):
    regime = "balanced"
    rate = reference_rate(model, d, beta, regime, scale)
    assert rate.exponent < 0
    assert rate.log_power >= 0


def test_reference_rate_rejects_unknown():
    with pytest.raises(UnsupportedCombination):
        reference_rate("stubble-lip", d=1, beta=1, regime="fixed-horizon")
    with pytest.raises(UnsupportedCombination):
        reference_rate("snake-lip", d=1, beta=1, regime="fixed-dt")
    with pytest.raises(UnsupportedCombination):
        reference_rate("other", d=1, beta=1, regime="balanced")


def test_rate_curve_shape():
    rate = reference_rate("snake-lip", d=2, beta=1, regime="fixed-horizon")
    ns = np.array([100, 1000])
    vals = rate.curve(ns)
    want = (ns ** float(rate.exponent)) * np.log(ns) ** float(rate.log_power)
    assert np.allclose(vals, want, rtol=1e-12)


def constant_config(**overrides):
    base = dict(
        model="stubble-lip",
        field="constant",
        ns=(16, 64, 256),
        d=2,
        sigma=0.0,
        dt_rule="fixed",
        dt_value=0.05,
        replicates=1,
        seed=7,
        queries=QuerySpec(kind="grid", per_dim=3, margin=0.25),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_constant_field_errors_vanish():
    result = run_experiment(constant_config())
    for row in result.rows:
        assert row.error <= 1e-8
        assert row.failures == 0


def test_deterministic_csv(tmp_path):
    cfg = constant_config(sigma=0.1, replicates=3)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results_csv(run_experiment(cfg), a)
    write_results_csv(run_experiment(cfg), b)
    assert a.read_bytes() == b.read_bytes()


def test_results_csv_round_trip(tmp_path):
    cfg = constant_config(sigma=0.1, replicates=2)
    result = run_experiment(cfg)
    path = tmp_path / "results.csv"
    write_results_csv(result, path)
    assert path.read_text().splitlines()[0] == "model,n,replicate,error,failures"
    model, rows = read_results_csv(path)
    assert model == cfg.model
    assert len(rows) == len(result.rows)
    for got, want in zip(rows, result.rows):
        assert got.n == want.n and got.replicate == want.replicate
        assert got.error == want.error and got.failures == want.failures


def test_aggregation_is_order_independent():
    cfg = constant_config(sigma=0.1, replicates=4)
    result = run_experiment(cfg)
    rows = list(result.rows)
    shuffled = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
    assert _aggregate(cfg, shuffled) == _aggregate(cfg, rows)


def test_failure_fraction_raises():
    # off-lattice queries with a vanishing bandwidth leave every window empty
    cfg = constant_config(
        sigma=0.1,
        bandwidth=1e-6,
        queries=QuerySpec(kind="points", points=((0.3, 0.7), (0.7, 0.3))),
    )
    with pytest.raises(ExperimentError):
        run_experiment(cfg)


def test_report_tracks_reference(tmp_path):
    cfg = ExperimentConfig(
        model="stubble-lip",
        field="cubic",
        ns=(64, 128, 256),
        sigma=0.05,
        dt_rule="balanced",
        replicates=3,
        seed=1,
        queries=QuerySpec(kind="grid", per_dim=5, margin=0.2),
    )
    result = run_experiment(cfg)
    report = result.report
    assert report is not None
    assert report.reference.exponent == Fraction(-1, 5)
    assert report.passed == (abs(report.slope - float(report.reference.exponent)) <= cfg.rate_tolerance)
    out = tmp_path / "report.json"
    write_report_json(result, out)
    payload = json.loads(out.read_text())
    assert payload["slope"] == report.slope
    assert payload["passed"] == report.passed

    plot = tmp_path / "plot.csv"
    write_plot_csv(result, plot)
    lines = plot.read_text().strip().splitlines()
    assert lines[0] == "n,mean_error,stderr,reference"
    first = lines[1].split(",")
    # reference curve is anchored at the first n
    assert float(first[1]) == pytest.approx(float(first[3]))


def test_config_round_trip():
    cfg = ExperimentConfig(
        model="snake-lip",
        field="rotation",
        ns=(1024, 2048),
        d=2,
        sigma=0.05,
        dt_rule="fixed-horizon",
        horizon=2 * math.pi,
        replicates=2,
        seed=3,
        x1=(1.0, 0.0),
        queries=QuerySpec(kind="tube", count=16, delta=0.02),
    )
    back = ExperimentConfig.from_dict(cfg.to_dict())
    assert back == cfg


def test_config_rejects_unknown_keys():
    data = constant_config().to_dict()
    data["bandwith"] = 0.2
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(data)


def test_config_validation():
    with pytest.raises(ValueError):
        constant_config(ns=(64, 64))
    with pytest.raises(ValueError):
        constant_config(model="nope")
    with pytest.raises(ValueError):
        constant_config(replicates=0)
    with pytest.raises(ValueError):
        ExperimentConfig(
            model="snake-lip",
            field="rotation",
            ns=(64, 128),
            d=2,
            sigma=0.0,
            dt_rule="fixed-horizon",
            horizon=1.0,
            queries=QuerySpec(kind="grid"),
        )  # snake needs x1


def snake_config(**overrides):
    base = dict(
        model="snake-lip",
        field="rotation",
        ns=(64, 128, 256),
        d=2,
        dt_rule="fixed-horizon",
        horizon=1.0,
        x1=(1.0, 0.0),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.mark.parametrize(
    "make, overrides",
    [
        (constant_config, dict(sigma=-0.1)),
        (constant_config, dict(noise="laplace")),
        (constant_config, dict(dt_value=-0.05)),
        (constant_config, dict(dt_rule="balanced", dt_coeff=0.0)),
        (constant_config, dict(beta=0)),
        (snake_config, dict(horizon=-1.0)),
        (snake_config, dict(x1=(1.0, 0.0, 0.0))),
        (constant_config, dict(seed=-1)),
        # tube queries follow one observed trajectory, which stubble data lacks
        (constant_config, dict(queries=QuerySpec(kind="tube"))),
        (constant_config, dict(queries=QuerySpec(kind="tube"), x1=(0.5, 0.5))),
    ],
    ids=["sigma", "noise", "dt_value", "dt_coeff", "beta", "horizon", "x1",
         "seed", "stubble-tube", "stubble-tube-x1"],
)
def test_config_rejects_bad_values(make, overrides):
    make()  # the base config is valid
    with pytest.raises(ValueError):
        make(**overrides)


def test_dt_rules():
    cfg = constant_config(dt_rule="fixed", dt_value=0.125)
    assert cfg.dt_for(100, beta=1, d=1) == 0.125
    cfg = constant_config(dt_rule="power", dt_power=0.5, dt_coeff=2.0)
    assert cfg.dt_for(16, beta=1, d=1) == pytest.approx(0.5)
    cfg = constant_config(dt_rule="balanced")
    assert cfg.dt_for(32, beta=1, d=1) == pytest.approx(32 ** (-1.0 / 5.0))


def test_query_specs_build():
    rng = np.random.default_rng(0)
    grid = QuerySpec(kind="grid", per_dim=3, margin=0.2).build(2, rng)
    assert grid.shape == (9, 2)
    box = QuerySpec(kind="box", lo=(0.0, 0.0), hi=(1.0, 2.0), count=5).build(2, rng)
    assert box.shape == (5, 2)
    assert box[:, 1].max() <= 2.0
    pts = QuerySpec(kind="points", points=((0.1, 0.2), (0.3, 0.4))).build(2, rng)
    assert np.array_equal(pts, np.array([[0.1, 0.2], [0.3, 0.4]]))
    curve = np.array([[math.cos(t), math.sin(t)] for t in np.linspace(0, 6, 100)])
    tube = QuerySpec(kind="tube", count=8, delta=0.05).build(2, rng, curve_points=curve)
    assert tube.shape == (8, 2)
    dists = np.linalg.norm(tube[:, None, :] - curve[None, :, :], axis=2).min(axis=1)
    assert dists.max() <= 0.05 + 1e-12


@pytest.mark.parametrize("model", ["stubble-lip", "snake-lip"])
def test_nonfinite_estimate_counts_as_failure(monkeypatch, model):
    import flowfit.harness as harness

    module = harness.stubble if model == "stubble-lip" else harness.snake
    real = module.estimate_lipschitz
    calls = []

    def nan_on_first_query(*args, **kwargs):
        calls.append(1)
        est = real(*args, **kwargs)
        return np.full_like(est, np.nan) if len(calls) == 1 else est

    monkeypatch.setattr(module, "estimate_lipschitz", nan_on_first_query)
    if model == "stubble-lip":
        cfg = constant_config(ns=(16,))
    else:
        cfg = ExperimentConfig(
            model="snake-lip", field="rotation", ns=(256,), d=2, sigma=0.05,
            dt_rule="fixed-horizon", horizon=2 * math.pi, replicates=1, seed=3,
            x1=(1.0, 0.0), queries=QuerySpec(kind="tube", count=9, delta=0.02),
        )
    (row,) = run_experiment(cfg).rows
    assert row.failures == 1
    assert math.isfinite(row.error)
