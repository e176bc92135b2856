"""Experiment orchestration: rates, replication, determinism, files."""

from __future__ import annotations

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowfit.harness as harness
from flowfit import localpoly, snake, stubble
from flowfit.flow import IntegrationError, make_field
from flowfit.harness import (
    ExperimentConfig,
    ExperimentError,
    NonPositiveError,
    QuerySpec,
    ReplicateRow,
    UnsupportedCombination,
    _aggregate,
    _row_norms,
    fit_rate,
    read_results_csv,
    reference_rate,
    run_experiment,
    write_plot_csv,
    write_report_json,
    write_results_csv,
)
from flowfit.localpoly import SingularDesign
from flowfit.models import FAILURES, MODELS, Predictor, stubble_grid_size


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
    assert rate.to_dict()["scale"] == "rmse"


def test_reference_rate_stubble_balanced_squared():
    assert MODELS["stubble-gen"].family.exponents["balanced"](2, 2) == Fraction(-1, 2)


def test_reference_rate_snake_balanced_has_log():
    family = MODELS["snake-gen"].family
    exponent = family.exponents["balanced"](1, 2)
    assert exponent == Fraction(-1, 3)
    assert family.log_rate and -exponent == Fraction(1, 3)  # the squared log power
    rate = reference_rate("snake-gen", d=2, beta=1, regime="balanced")
    assert (rate.exponent, rate.log_power) == (exponent / 2, -exponent / 2)


def test_reference_rate_lip_ignores_beta():
    a = reference_rate("snake-lip", d=2, beta=3, regime="fixed-horizon")
    b = reference_rate("snake-lip", d=2, beta=1, regime="fixed-horizon")
    assert a.exponent == b.exponent == Fraction(-1, 5)


@given(
    model=st.sampled_from(["stubble-lip", "stubble-gen", "snake-lip", "snake-gen"]),
    d=st.integers(1, 4),
    beta=st.integers(1, 4),
)
def test_reference_exponent_always_negative(model, d, beta):
    regime = "balanced"
    squared = MODELS[model].family.exponents[regime](beta, d)
    rate = reference_rate(model, d, beta, regime)
    assert squared < 0 and rate.exponent < 0
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
    assert _aggregate(cfg.ns, shuffled) == _aggregate(cfg.ns, rows)


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
    back = ExperimentConfig.from_dict(dataclasses.asdict(cfg))
    assert back == cfg


def test_config_rejects_unknown_keys():
    data = dataclasses.asdict(constant_config())
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


def from_json(make):
    # `make` with its overrides read as JSON, so a query spec is checked as the config is read
    return lambda **overrides: ExperimentConfig.from_dict(
        {**dataclasses.asdict(make()), **overrides})


@pytest.mark.parametrize(
    "make, overrides",
    [
        (constant_config, dict(sigma=-0.1)),
        (from_json(constant_config), dict(noise="laplace")),
        (constant_config, dict(dt_value=-0.05)),
        (constant_config, dict(beta=0)),
        (snake_config, dict(horizon=-1.0)),
        (from_json(snake_config), dict(horizon=math.inf)),
        (from_json(snake_config), dict(horizon=math.nan)),
        (from_json(constant_config), dict(dt_value=math.inf)),
        # finite, but its time grid overflows, which fails mid-run
        (snake_config, dict(dt_rule="fixed", dt_value=1e306)),
        (snake_config, dict(x1=(1.0, 0.0, 0.0))),
        (constant_config, dict(seed=-1)),
        # tube queries follow one observed trajectory, which stubble data lacks
        (constant_config, dict(queries=QuerySpec(kind="tube"))),
        (constant_config, dict(queries=QuerySpec(kind="tube"), x1=(0.5, 0.5))),
        (from_json(constant_config),
         dict(queries={"kind": "points", "points": [[0.5, 0.5, 0.5]]})),
        # a fixed point set is a points query; a box query is refused as an unknown kind
        (from_json(constant_config), dict(queries={"kind": "box", "lo": [0.0], "hi": [1.0]})),
        (from_json(constant_config), dict(queries={"kind": "grid", "margin": 0.5})),
        (from_json(constant_config), dict(queries={"kind": "grid", "per_dim": 0})),
        (from_json(constant_config), dict(queries={"kind": "grid", "per_dim": 2.5})),
        (from_json(snake_config), dict(queries={"kind": "tube", "count": 2.5})),
        (from_json(constant_config),
         dict(queries={"kind": "points", "points": [[math.nan, 0.5], [0.5, 0.5]]})),
        (from_json(snake_config), dict(queries={"kind": "tube", "delta": math.inf})),
        (from_json(snake_config), dict(queries={"kind": "tube", "delta": -0.5})),
        (from_json(snake_config), dict(queries={"kind": "tube", "delta": 0.0})),
        # a NaN or infinite noise level or initial state would fail mid-experiment
        (constant_config, dict(sigma=math.nan)),
        (constant_config, dict(sigma=math.inf)),
        (snake_config, dict(x1=(math.nan, 0.0))),
        (snake_config, dict(x1=(math.inf, 0.0))),
        # a negative or NaN tolerance fails every slope
        (constant_config, dict(rate_tolerance=-1.0)),
        (constant_config, dict(rate_tolerance=math.nan)),
        (constant_config, dict(rate_tolerance=math.inf)),
        # a negative bandwidth crashes the fit, a NaN or infinite one fails every query
        (constant_config, dict(bandwidth=-1.0)),
        (constant_config, dict(bandwidth=math.nan)),
        (constant_config, dict(bandwidth=math.inf)),
        # a sample size below 2 for stubble (the plug-in bandwidth's least) or below the
        # beta + 2 of a snake curve fit fails mid-run
        (constant_config, dict(ns=(0, 16, 64))),
        (constant_config, dict(ns=(1, 16, 64))),
        (constant_config, dict(ns=(-5, 16, 64))),
        (snake_config, dict(ns=(0, 64, 128))),
        (snake_config, dict(ns=(2, 64, 128))),
        (snake_config, dict(model="snake-gen", beta=2, ns=(3, 64, 128))),
    ],
    ids=["sigma", "noise", "dt_value", "beta", "horizon", "horizon-inf", "horizon-nan",
         "dt_value-inf", "dt_value-overflow", "x1", "seed", "stubble-tube",
         "stubble-tube-x1", "points-dimension", "box", "grid-margin",
         "grid-per-dim", "grid-per-dim-float", "tube-count-float", "points-nan",
         "tube-delta-inf", "tube-delta-negative", "tube-delta-zero",
         "sigma-nan", "sigma-inf", "x1-nan", "x1-inf",
         "rate-tolerance-negative", "rate-tolerance-nan", "rate-tolerance-inf",
         "bandwidth-negative", "bandwidth-nan", "bandwidth-inf", "ns-zero", "ns-one", "ns-negative",
         "snake-ns-zero", "snake-ns-below-beta-plus-2", "snake-gen-ns-below-beta-plus-2"],
)
def test_config_rejects_bad_values(make, overrides):
    make()  # the base config is valid
    with pytest.raises(ValueError):
        make(**overrides)


@pytest.mark.parametrize(
    "name, value",
    [
        ("replicates", "3"), ("replicates", 2.5), ("replicates", True), ("replicates", None),
        ("seed", 1.5), ("seed", "1"), ("d", 2.0), ("beta", "2"),
        ("sigma", "0.1"), ("sigma", False), ("dt_value", "0.05"), ("horizon", "1"),
        ("bandwidth", "0.2"), ("rate_tolerance", None),
        ("ns", (16.5, 64, 256)), ("ns", (True, 64, 256)), ("ns", (16, 64.0, 256)),
    ],
)
def test_config_rejects_wrong_types(name, value):
    with pytest.raises(TypeError, match=f"^{name} must be an? (integer|real number), not "):
        constant_config(**{name: value})


@pytest.mark.parametrize("ns", [[1024.7, 2048, 4096], [True, 1024, 2048]],
                         ids=["float", "bool"])
def test_config_from_dict_keeps_ns_as_read(ns):
    # read as JSON, a fractional or boolean size is refused, not rounded to an integer
    data = {**dataclasses.asdict(snake_config()), "ns": ns}
    with pytest.raises(TypeError, match="^ns must be an integer, not "):
        ExperimentConfig.from_dict(data)


def test_config_accepts_numpy_numbers():
    cfg = constant_config(replicates=np.int64(2), seed=np.int32(3), sigma=np.float64(0.1))
    assert cfg.replicates == 2 and cfg.seed == 3


def test_dt_rules():
    cfg = constant_config(dt_rule="fixed", dt_value=0.125)
    assert cfg.dt_for(100, beta=1, d=1) == 0.125
    cfg = constant_config(dt_rule="balanced")
    assert cfg.dt_for(32, beta=1, d=1) == pytest.approx(32 ** (-1.0 / 5.0))


def test_query_specs_build():
    rng = np.random.default_rng(0)
    grid = QuerySpec(kind="grid", per_dim=3, margin=0.2).build(2, rng)
    assert grid.shape == (9, 2)
    pts = QuerySpec(kind="points", points=((0.1, 0.2), (0.3, 0.4))).build(2, rng)
    assert np.array_equal(pts, np.array([[0.1, 0.2], [0.3, 0.4]]))
    curve = np.array([[math.cos(t), math.sin(t)] for t in np.linspace(0, 6, 100)])
    tube = QuerySpec(kind="tube", count=8, delta=0.05).build(2, rng, curve_points=curve)
    assert tube.shape == (8, 2)
    dists = np.linalg.norm(tube[:, None, :] - curve[None, :, :], axis=2).min(axis=1)
    assert dists.max() <= 0.05 + 1e-12


@pytest.mark.parametrize("model", ["stubble-lip", "snake-lip"])
def test_nonfinite_estimate_counts_as_failure(monkeypatch, model):
    module, name = ((stubble, "estimate_general") if model == "stubble-lip"
                    else (snake, "estimate_lipschitz"))
    real = getattr(module, name)
    calls = []

    def nan_on_first_query(*args, **kwargs):
        calls.append(1)
        out = real(*args, **kwargs)
        est = out[0] if model == "stubble-lip" else out  # stubble: (values, singular)
        if len(calls) == 1:  # the stack's first row
            est[0] = np.nan
        return out

    monkeypatch.setattr(module, name, nan_on_first_query)
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


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_row_norms_equal_the_norm_of_each_row_alone(d):
    rng = np.random.default_rng(d)
    rows = rng.normal(size=(4000, d)) * 10.0 ** rng.uniform(-8, 3, size=(4000, 1))
    rows[::37] = np.nan
    rows[5::41, 0] = np.nan  # a row with a NaN among finite entries
    want = np.array([np.linalg.norm(row) for row in rows])
    got = _row_norms(rows)
    assert np.array_equal(np.isnan(got), np.isnan(want)) and np.isnan(want).any()
    assert np.array_equal(got[~np.isnan(want)], want[~np.isnan(want)])


def test_singular_stacked_estimate_fails_every_query():
    def estimate(queries):  # as a stacked curve fit that no widening rescues
        raise SingularDesign(0.0, queries[:1])

    pred = Predictor(estimate)(np.zeros((3, 2)))
    assert pred.status == ("singular",) * 3 and pred.stencils == (None,) * 3
    assert pred.values.shape == (3, 2) and np.all(np.isnan(pred.values))


def reference_rows(cfg: ExperimentConfig) -> tuple[ReplicateRow, ...]:
    """The rows of `cfg`, simulating every replicate with the public flow
    and observe steps, so each one integrates its own noise-free flow."""
    fld = make_field(cfg.field, cfg.d)
    beta = cfg.effective_beta(fld)
    spec = MODELS[cfg.model]
    rows = []
    for n in cfg.ns:
        dt = cfg.dt_for(n, beta, fld.dim)
        queries = cfg.queries.build(fld.dim, np.random.default_rng([cfg.seed, 24301, n]))
        truth = fld(queries)
        for r in range(cfg.replicates):
            noise = dict(sigma=cfg.sigma, seed=cfg.seed + r)
            if spec.family.name == "snake":
                (path,) = snake.flow_snake(fld, cfg.x1, [(n, dt)])
                ds = snake.observe_snake(fld, path, dt, **noise)
            else:
                n0 = stubble_grid_size(n, fld.dim)
                states = stubble.flow_stubble(fld, n0, dt, beta=beta)
                ds = stubble.observe_stubble(fld, n0, states, dt, **noise)
            pred = spec.fit(cfg, ds, beta, {})(queries)  # a fresh plan store: its own design solve
            errs = np.array([np.linalg.norm(v - t) for v, t in zip(pred.values, truth)])
            valid = errs[np.isfinite(errs)]
            error = spec.family.error(valid) if valid.size else math.nan
            rows.append(ReplicateRow(n, r, error, sum(k in FAILURES for k in pred.status)))
    return tuple(rows)


SHARED_FLOW_CONFIGS = {
    "snake-lip": lambda: snake_config(
        ns=(128, 256), sigma=0.05, replicates=3, seed=11, horizon=2 * math.pi,
        queries=QuerySpec(kind="points", points=((0.99, 0.05), (-0.3, 0.96), (0.1, -1.01))),
    ),
    "snake-gen": lambda: snake_config(
        model="snake-gen", beta=2, ns=(256, 512), sigma=0.05, replicates=3, seed=11,
        horizon=2 * math.pi, queries=QuerySpec(kind="points", points=((0.7, 0.7), (-0.7, 0.1))),
    ),
    "stubble-lip": lambda: constant_config(
        field="cubic", d=1, ns=(16, 32, 64), sigma=0.1, replicates=3, dt_rule="balanced",
        queries=QuerySpec(kind="grid", per_dim=5, margin=0.2),
    ),
    "stubble-gen": lambda: constant_config(
        model="stubble-gen", field="cubic", d=1, beta=2, ns=(16, 32, 64), sigma=0.1,
        replicates=3, dt_rule="balanced", queries=QuerySpec(kind="grid", per_dim=5, margin=0.2),
    ),
}


@pytest.mark.parametrize("model", sorted(SHARED_FLOW_CONFIGS))
def test_shared_flow_rows_equal_per_replicate_simulation(monkeypatch, model):
    cfg = SHARED_FLOW_CONFIGS[model]()
    module = snake if MODELS[model].family.name == "snake" else stubble
    real, calls = module.integrate_flow_grid, []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "integrate_flow_grid", counted)
    rows = run_experiment(cfg).rows
    # one integration per trajectory: every snake n observes one path up to 2 pi,
    # every stubble n has an initial grid of its own
    assert len(calls) == (1 if module is snake else len(cfg.ns))
    assert rows == reference_rows(cfg)


# grid and points queries draw nothing from the rng, so a one-replicate run at
# seed s + r observes and queries what replicate r of a run at seed s does
PLAN_REUSE_CONFIGS = {
    "snake-lip": SHARED_FLOW_CONFIGS["snake-lip"],
    "snake-gen": SHARED_FLOW_CONFIGS["snake-gen"],
    "stubble-lip": lambda: constant_config(
        field="cubic", d=1, ns=(16, 32, 64), sigma=0.1, replicates=3, dt_rule="balanced",
        queries=QuerySpec(kind="grid", per_dim=5, margin=0.2),
    ),
    "stubble-gen": lambda: constant_config(
        model="stubble-gen", field="pendulum", d=2, beta=2, ns=(64, 144, 256), sigma=0.05,
        replicates=3, dt_rule="balanced", queries=QuerySpec(kind="grid", per_dim=3),
    ),
    # one bandwidth for both horizons: one design half per sample size
    "stubble-gen-bandwidth": lambda: dataclasses.replace(
        PLAN_REUSE_CONFIGS["stubble-gen"](), bandwidth=0.5),
}


def count_design_solves(monkeypatch, model: str) -> list:
    """Record each `_block_solves` pass that solves a run's design: all of
    them for the stubble models, and for the snake models those made inside
    `snake.fit_curve` (the fits of ``u`` and ``du`` at the query-dependent
    times come on top)."""
    real, calls = localpoly._block_solves, []
    counting = [MODELS[model].family.name == "stubble"]

    def counted(*args):
        if counting[0]:
            calls.append(1)
        return real(*args)

    monkeypatch.setattr(localpoly, "_block_solves", counted)
    if not counting[0]:
        fit_curve = snake.fit_curve

        def counted_fit(*args, **kwargs):
            counting[0] = True
            try:
                return fit_curve(*args, **kwargs)
            finally:
                counting[0] = False

        monkeypatch.setattr(snake, "fit_curve", counted_fit)
    return calls


@pytest.mark.parametrize("case", sorted(PLAN_REUSE_CONFIGS))
def test_replicates_share_one_design_solve_per_horizon(monkeypatch, tmp_path, case):
    cfg = PLAN_REUSE_CONFIGS[case]()
    calls = count_design_solves(monkeypatch, cfg.model)
    # the distinct (initial grid size, fit) pairs of the run's horizons
    real, fits = stubble.horizon_regressions, set()

    def recorded(ds, *args):
        regressions = real(ds, *args)
        fits.update((ds.initials.shape[0], fit) for _, _, fit in regressions.horizons)
        return regressions

    monkeypatch.setattr(stubble, "horizon_regressions", recorded)
    shared = run_experiment(cfg)
    solves = len(calls)
    if MODELS[cfg.model].family.name == "stubble":  # one per sample size and distinct fit
        assert solves == len(fits)

    def csv_rows(result, name):
        write_results_csv(result, tmp_path / name)
        return [line.split(",") for line in (tmp_path / name).read_text().splitlines()[1:]]

    alone = []
    for r in range(cfg.replicates):
        calls.clear()
        alone.append(csv_rows(
            run_experiment(dataclasses.replace(cfg, replicates=1, seed=cfg.seed + r)),
            f"alone{r}.csv"))
        # one design per sample size, whatever the replicate count
        assert len(calls) == solves
    want = [[model, n, str(r), error, failures]
            for per_n in zip(*alone) for r, (model, n, _, error, failures) in enumerate(per_n)]
    assert csv_rows(shared, "shared.csv") == want


# configs whose sample sizes each observe a trajectory of their own
OWN_FLOW_CONFIGS = {
    "stubble-lip": SHARED_FLOW_CONFIGS["stubble-lip"],
    # a fixed dt gives each n its own horizon n dt
    "snake-lip": lambda: dataclasses.replace(
        SHARED_FLOW_CONFIGS["snake-lip"](), dt_rule="fixed", dt_value=0.02),
}


@pytest.mark.parametrize("model", sorted(OWN_FLOW_CONFIGS))
def test_integration_failure_fails_every_replicate_at_that_n(monkeypatch, model):
    cfg = OWN_FLOW_CONFIGS[model]()
    want = run_experiment(cfg).rows
    module = snake if MODELS[model].family.name == "snake" else stubble
    name = "flow_snake" if module is snake else "flow_stubble"
    real, calls = getattr(module, name), []

    def stall_at_second_n(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise IntegrationError("stalled", reached_time=0.0)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, stall_at_second_n)
    monkeypatch.setattr(harness, "FAILURE_LIMIT", 1.0)
    q = cfg.queries.build(make_field(cfg.field, cfg.d).dim, np.random.default_rng(0)).shape[0]
    rows = run_experiment(cfg).rows
    assert len(calls) == len(cfg.ns)
    bad_n = cfg.ns[1]
    failed = [row for row in rows if row.n == bad_n]
    assert len(failed) == cfg.replicates
    assert all(row.failures == q and math.isnan(row.error) for row in failed)
    assert [row for row in rows if row.n != bad_n] == [row for row in want if row.n != bad_n]


def stalled(calls):
    def stall(*args, **kwargs):
        calls.append(1)
        raise IntegrationError("stalled", reached_time=0.0)

    return stall


# both n observe one path up to 2 pi; a tube's true curve is one more path of that solve
STALLED_QUERIES = {
    "points": (None, 3),
    "tube": (QuerySpec(kind="tube", count=7, delta=0.02), 7),
}


@pytest.mark.parametrize("kind", sorted(STALLED_QUERIES))
def test_stalled_shared_solve_fails_every_n_of_its_horizon(monkeypatch, kind):
    queries, count = STALLED_QUERIES[kind]
    cfg = SHARED_FLOW_CONFIGS["snake-lip"]()
    if queries is not None:
        cfg = dataclasses.replace(cfg, queries=queries)
    calls = []
    monkeypatch.setattr(snake, "flow_snake", stalled(calls))
    monkeypatch.setattr(harness, "FAILURE_LIMIT", 1.0)
    rows = run_experiment(cfg).rows
    assert len(calls) == 1
    assert [(row.n, row.replicate) for row in rows] == [
        (n, r) for n in cfg.ns for r in range(cfg.replicates)]
    assert all(row.failures == count and math.isnan(row.error) for row in rows)


def test_failure_at_first_n_costs_no_later_solve(monkeypatch):
    calls = []
    monkeypatch.setattr(stubble, "flow_stubble", stalled(calls))
    with pytest.raises(ExperimentError, match="at n=16 "):
        run_experiment(SHARED_FLOW_CONFIGS["stubble-lip"]())
    assert len(calls) == 1


@pytest.mark.parametrize("dt_rule, horizons", [("fixed-horizon", 1), ("fixed", 3)])
def test_true_curve_integrated_once_per_horizon(monkeypatch, dt_rule, horizons):
    cfg = snake_config(
        model="snake-gen", beta=2, ns=(128, 256, 512), sigma=0.05, replicates=1, seed=5,
        dt_rule=dt_rule, horizon=2 * math.pi, dt_value=0.01,
    )
    real, lengths = snake.integrate_flow_grid, []

    def counted(fld, x0s, times, *args, **kwargs):
        lengths.append(sorted(len(grid) for grid in times))
        return real(fld, x0s, times, *args, **kwargs)

    monkeypatch.setattr(snake, "integrate_flow_grid", counted)
    run_experiment(cfg)
    # one solve per horizon n * dt, whose grids hold the tube's 2049-point true curve
    assert len(lengths) == horizons
    assert all(2049 in grids for grids in lengths)
