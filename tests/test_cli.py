"""End-to-end runs of the four subcommands."""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from flowfit import stubble
from flowfit.cli import main
from flowfit.flow import TrajectoryData, make_field, read_dataset, write_dataset
from flowfit.harness import ExperimentConfig, read_results_csv
from flowfit.localpoly import LocalPolyFit, RegressionData, lp_estimate, lp_weights
from flowfit.models import MODELS, SUCCESSES


@pytest.fixture()
def stubble_config(tmp_path):
    cfg = {
        "model": "stubble-lip",
        "field": "constant",
        "ns": [64, 144, 256],
        "d": 2,
        "sigma": 0.02,
        "dt_rule": "fixed",
        "dt_value": 0.05,
        "replicates": 2,
        "seed": 11,
        "queries": {"kind": "grid", "per_dim": 3, "margin": 0.3},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture()
def snake_config(tmp_path):
    cfg = {
        "model": "snake-lip",
        "field": "rotation",
        "ns": [256, 512],
        "d": 2,
        "sigma": 0.0,
        "dt_rule": "fixed-horizon",
        "horizon": 2 * math.pi,
        "replicates": 1,
        "seed": 5,
        "x1": [1.0, 0.0],
        "queries": {"kind": "tube", "count": 8, "delta": 0.02},
    }
    path = tmp_path / "snake.json"
    path.write_text(json.dumps(cfg))
    return path


def test_simulate_writes_dataset(stubble_config, tmp_path):
    out = tmp_path / "data"
    assert main(["simulate", "--config", str(stubble_config), "--out", str(out)]) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["kind"] == "stubble"
    assert meta["sigma"] == 0.02
    header = (out / "observations.csv").read_text().splitlines()[0]
    assert header == "traj_id,obs_idx,t,y_1,y_2"


def test_set_overrides_config(stubble_config, tmp_path):
    out = tmp_path / "data"
    code = main(
        ["simulate", "--config", str(stubble_config), "--out", str(out),
         "--set", "sigma=0.3", "--set", "seed=99"]
    )
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["sigma"] == 0.3
    assert meta["seed"] == 99


def test_bad_override_exits(stubble_config, tmp_path):
    with pytest.raises(SystemExit):
        main(["simulate", "--config", str(stubble_config),
              "--out", str(tmp_path / "x"), "--set", "sigma0.3"])


@pytest.mark.parametrize("command", ["simulate", "estimate", "benchmark"])
@pytest.mark.parametrize("override, field", [
    ("sigma=-1", "sigma"),
    ("sigma=NaN", "sigma must be nonnegative and finite"),
    ("rate_tolerance=-1", "rate_tolerance must be nonnegative and finite"),
    ("bandwidth=-1", "bandwidth must be positive and finite"),
    ('queries={"kind": "tube"}', "tube queries"),
    ('replicates="3"', "config refused: replicates must be an integer"),
    ("replicates=2.5", "config refused: replicates must be an integer"),
    ('sigma="0.1"', "config refused: sigma must be a real number"),
    ("field=nope", "unknown field 'nope'"),
    ('queries={"kind": "points", "points": [[0.5, 0.5, 0.5]]}',
     "query points must have dimension 2"),
    ('queries={"kind": "box", "lo": [0], "hi": [1]}', "config refused: unknown query kind 'box'"),
    ('queries={"kind": "grid", "margin": 0.5}', "margin must be in [0, 0.5)"),
    ('queries={"kind": "grid", "per_dim": 0}', "per_dim must be a positive integer"),
    pytest.param(("field=rotation", "d=3"), "field 'rotation' has fixed dimension 2",
                 id="field=rotation,d=3"),
    pytest.param(("field=rotation", "d=2", "ns=[16,25,30]"), "sample size 30 is not a d-th power",
                 id="field=rotation,d=2,ns=[16,25,30]"),
    # the field declares bounds L0..L3, which a beta = 4 fit would overread
    pytest.param(("model=stubble-gen", "beta=4"),
                 "config refused: beta 4 is above the smoothness 3 of the field 'constant'",
                 id="model=stubble-gen,beta=4"),
])
def test_refused_config_exits_with_one_line(command, override, field, stubble_config, tmp_path):
    args = [command, "--config", str(stubble_config), "--out", str(tmp_path / "out")]
    for pair in [override] if isinstance(override, str) else override:
        args += ["--set", pair]
    if command == "estimate":
        args += ["--data", str(tmp_path)]
    with pytest.raises(SystemExit) as refused:
        main(args)
    message = refused.value.code
    assert isinstance(message, str) and field in message and "\n" not in message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "estimate", "benchmark"])
def test_overflowing_time_grid_is_refused_with_one_line(command, snake_config, tmp_path):
    # 512 steps of a finite 1e306 overflow the snake's time grid, which the flow solve refuses
    args = [command, "--config", str(snake_config), "--out", str(tmp_path / "out"),
            "--set", "dt_rule=fixed", "--set", "dt_value=1e306"]
    if command == "estimate":
        args += ["--data", str(tmp_path)]
    with pytest.raises(SystemExit) as refused:
        main(args)
    message = refused.value.code
    assert message.startswith("config refused: dt_value 1e+306 is too large")
    assert "\n" not in message
    assert not (tmp_path / "out").exists()


# settings that no workload used, removed from the config
@pytest.mark.parametrize("override", [
    "dt_power=0.5", "dt_coeff=2.0", "bandwidth_constant=2.0", "kernel=uniform",
    "fallback=false", 'stencil={"s": 10.0}', "regime=fixed-horizon",
    # the noise is Gaussian, with standard deviation sigma, and has no law to name
    "noise=gaussian", "noise=none", "noise=uniform-bounded",
])
def test_removed_config_keys_are_refused(override, stubble_config, tmp_path):
    with pytest.raises(SystemExit) as refused:
        main(["benchmark", "--config", str(stubble_config), "--out", str(tmp_path / "out"),
              "--set", override])
    key = override.partition("=")[0]
    assert refused.value.code == f"config refused: unknown config keys: [{key!r}]"
    assert not (tmp_path / "out").exists()


def load(data: Path, model: str) -> TrajectoryData:
    family = MODELS[model].family
    return read_dataset(data, family.name, family.initials, family.record)


def truncate(data: Path) -> None:
    """Drop the last row of the stored observations."""
    lines = (data / "observations.csv").read_text().splitlines(keepends=True)
    (data / "observations.csv").write_text("".join(lines[:-1]))


def rewrite_rows(data: Path, edit) -> None:
    """Replace the data rows of the stored observations by ``edit(rows)``."""
    path = data / "observations.csv"
    with path.open(newline="") as fh:
        header, *rows = csv.reader(fh)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows([header] + edit(rows))


def renumber_from_zero(data: Path) -> None:
    rewrite_rows(data, lambda rows: [[int(r[0]) - 1] + r[1:] for r in rows])


def drop_horizon_two(data: Path) -> None:
    rewrite_rows(data, lambda rows: [r for r in rows if r[1] != "2"])


def second_trajectory(data: Path) -> None:
    """Store a second snake trajectory: its rows shifted, its start appended to x1."""
    family = MODELS["snake-lip"].family
    ds = load(data, "snake-lip")
    two = TrajectoryData(np.vstack([ds.initials, ds.initials + 0.1]), ds.dt,
                         np.concatenate([ds.observations, ds.observations + 0.1]), ds.meta)
    write_dataset(data, two, {"kind": family.name, **family.record(two)})


def edit_meta(edit):
    def damage(data: Path) -> None:
        path = data / "meta.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return damage


def empty_observations(data: Path) -> None:
    (data / "observations.csv").write_text("")


# {meta} and {csv} stand for the dataset's files.  "stubble-gen" simulates a
# beta = 2 stubble-gen dataset, which the stubble config's stubble-lip reads.
@pytest.mark.parametrize("config, damage, message", [
    ("stubble", truncate, "trajectory ids must be exactly 1..64; first offending id 64"),
    ("stubble", renumber_from_zero, "trajectory ids must be exactly 1..64; first offending id 0"),
    ("snake", second_trajectory, "fit_curve fits one trajectory, but the dataset has K = 2"),
    ("snake", truncate, "the dataset read has n = 255, but {meta} says 256"),
    ("stubble-gen", drop_horizon_two, "the dataset read has beta = 1, but {meta} says 2"),
    ("snake", edit_meta(lambda m: {k: v for k, v in m.items() if k != "dt"}),
     "{meta} has no 'dt'"),
    ("snake", edit_meta(lambda m: {**m, "dt": None}), "{meta} has no 'dt'"),
    ("stubble", edit_meta(lambda m: {**m, "n0": None}), "{meta} has no 'n0'"),
    ("stubble", edit_meta(lambda m: [m]), "{meta} holds no JSON object"),
    ("snake", empty_observations, "{csv} is empty"),
], ids=["truncated", "renumbered", "two-snakes", "snake-truncated", "horizon-dropped",
        "no-dt", "null-dt", "null-n0", "meta-list", "empty-csv"])
def test_unreadable_dataset_exits_with_one_line(config, damage, message, stubble_config,
                                                snake_config, tmp_path):
    path = snake_config if config == "snake" else stubble_config
    sets = ["--set", "model=stubble-gen", "--set", "beta=2"] if config == "stubble-gen" else []
    data, out = tmp_path / "data", tmp_path / "est.csv"
    main(["simulate", "--config", str(path), "--out", str(data)] + sets)
    damage(data)
    with pytest.raises(SystemExit) as refused:
        main(["estimate", "--config", str(path), "--data", str(data), "--out", str(out)])
    files = {"meta": data / "meta.json", "csv": data / "observations.csv"}
    assert refused.value.code == "dataset refused: " + message.format(**files)
    assert not out.exists()


def test_estimate_stubble(stubble_config, tmp_path):
    data = tmp_path / "data"
    main(["simulate", "--config", str(stubble_config), "--out", str(data)])
    out = tmp_path / "estimates.csv"
    code = main(
        ["estimate", "--config", str(stubble_config), "--data", str(data), "--out", str(out)]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    ds = load(data, "stubble-lip")
    meta = ds.meta
    # the bandwidth estimate_general picks for beta = 1 when none is given
    fit = LocalPolyFit(degree=0, bandwidth=stubble._horizon_bandwidth(ds, 1, 1))
    reg = RegressionData(points=ds.initials, targets=ds.increments(1), extent=1.0)
    regressions = stubble.horizon_regressions(ds, 1)
    for row in rows:
        assert row["provenance"] == "regression"
        x = np.array([float(row["x_1"]), float(row["x_2"])])
        fhat = [row["fhat_1"], row["fhat_2"]]
        # the CLI writes exactly the library estimate on the stored dataset
        (alone,), _ = stubble.estimate_general(regressions, x[None])
        assert fhat == [repr(float(v)) for v in alone]
        # constant field (1, 0): the local constant fit is unbiased, and each
        # component's noise has standard deviation (sigma / dt) * ||w(x)||_2
        w = lp_weights(x, reg, fit)
        tol = 5 * meta["sigma"] / ds.dt * np.linalg.norm(w)
        assert np.all(np.abs(np.array(fhat, dtype=float) - [1.0, 0.0]) <= tol)


def test_estimate_reads_the_first_horizons(stubble_config, tmp_path):
    # stubble-lip on a beta = 2 dataset: exactly the local constant fit of horizon 1
    data = tmp_path / "data"
    main(["simulate", "--config", str(stubble_config), "--out", str(data),
          "--set", "model=stubble-gen", "--set", "beta=2"])
    out = tmp_path / "estimates.csv"
    main(["estimate", "--config", str(stubble_config), "--data", str(data), "--out", str(out)])
    ds = load(data, "stubble-gen")
    assert ds.n == 2
    fit = LocalPolyFit(degree=0, bandwidth=stubble._horizon_bandwidth(ds, 1, 1))
    reg = RegressionData(points=ds.initials, targets=ds.increments(1), extent=1.0)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    for row in rows:
        x = np.array([float(row["x_1"]), float(row["x_2"])])
        want = lp_estimate(x[None], reg, fit)[0][0] / ds.dt
        assert [row["fhat_1"], row["fhat_2"]] == [repr(float(v)) for v in want]
    # a model whose beta exceeds the dataset's horizons is refused
    refused = tmp_path / "refused.csv"
    with pytest.raises(SystemExit, match="needs 3 horizons, but the dataset has 2"):
        main(["estimate", "--config", str(stubble_config), "--data", str(data),
              "--out", str(refused), "--set", "model=stubble-gen", "--set", "beta=3"])
    assert not refused.exists()


def test_estimate_snake(snake_config, tmp_path):
    data = tmp_path / "snake-data"
    main(["simulate", "--config", str(snake_config), "--out", str(data)])
    out = tmp_path / "snake-estimates.csv"
    code = main(
        ["estimate", "--config", str(snake_config), "--data", str(data), "--out", str(out)]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    for row in rows:
        assert row["provenance"] == "nearest-neighbor"
        x = np.array([float(row["x_1"]), float(row["x_2"])])
        fhat = np.array([float(row["fhat_1"]), float(row["fhat_2"])])
        assert np.linalg.norm(fhat - np.array([-x[1], x[0]])) <= 0.1


def test_benchmark_outputs_and_determinism(stubble_config, tmp_path):
    out1, out2 = tmp_path / "b1", tmp_path / "b2"
    assert main(["benchmark", "--config", str(stubble_config), "--out", str(out1)]) == 0
    assert main(["benchmark", "--config", str(stubble_config), "--out", str(out2)]) == 0
    for name in ("results.csv", "plot.csv", "report.json"):
        assert (out1 / name).exists()
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_rates_from_results(stubble_config, tmp_path, capsys):
    out = tmp_path / "bench"
    main(["benchmark", "--config", str(stubble_config), "--out", str(out)])
    capsys.readouterr()
    code = main(["rates", "--results", str(out / "results.csv")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert "slope" in payload and "intercept" in payload

    code = main(
        ["rates", "--results", str(out / "results.csv"),
         "--d", "2", "--beta", "1", "--regime", "fixed-dt"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert "passed" in payload
    assert payload["reference"]["exponent"] == [-1, 4]


# A small stubble and a small snake study; `rates` given the config's d,
# beta, regime and tolerance must repeat the verdict of report.json.
RATE_AGREEMENT = {
    "stubble": ({"model": "stubble-lip", "field": "cubic", "d": 1, "ns": [64, 128, 256, 512],
                 "dt_rule": "balanced", "sigma": 0.1, "replicates": 3, "seed": 3,
                 "rate_tolerance": 0.05, "queries": {"kind": "grid", "per_dim": 5}},
                ["--d", "1", "--beta", "1", "--regime", "balanced", "--tolerance", "0.05"]),
    "snake": ({"model": "snake-lip", "field": "rotation", "d": 2, "ns": [256, 512, 1024],
               "dt_rule": "fixed-horizon", "horizon": 2 * math.pi, "sigma": 0.05,
               "replicates": 2, "seed": 3, "x1": [1.0, 0.0],
               "queries": {"kind": "tube", "count": 8, "delta": 0.02}},
              ["--d", "2", "--beta", "1", "--regime", "fixed-horizon", "--tolerance", "0.1"]),
}


@pytest.mark.parametrize("study", sorted(RATE_AGREEMENT))
def test_rates_agrees_with_benchmark(study, tmp_path, capsys):
    cfg, flags = RATE_AGREEMENT[study]
    path, out = tmp_path / "config.json", tmp_path / "bench"
    path.write_text(json.dumps(cfg))
    assert main(["benchmark", "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["rates", "--results", str(out / "results.csv")] + flags) == 0
    rates = json.loads(capsys.readouterr().out)
    report = json.loads((out / "report.json").read_text())
    assert report["reference"] is not None
    for key in ("ns", "mean_errors", "slope", "intercept", "reference", "passed"):
        assert rates[key] == report[key], key


def test_rates_regime_needs_dimensions(stubble_config, tmp_path):
    out = tmp_path / "bench2"
    main(["benchmark", "--config", str(stubble_config), "--out", str(out)])
    with pytest.raises(SystemExit):
        main(["rates", "--results", str(out / "results.csv"), "--regime", "fixed-dt"])


RESULTS_HEADER = "model,n,replicate,error,failures\n"


def power_law_results(ns) -> str:
    return RESULTS_HEADER + "".join(f"stubble-lip,{n},0,{n ** -0.25!r},0\n" for n in ns)


@pytest.mark.parametrize("text, regime, message", [
    (None, [], "No such file or directory"),
    (power_law_results([64, 144]), [], "need at least 3 (n, error) pairs"),
    (power_law_results([64, 144, 256]), ["--d", "1", "--beta", "1", "--regime", "fixed-horizon"],
     "stubble has no regime 'fixed-horizon'"),
    ("model,n,error\nstubble-lip,64,0.5\n", [], "lacks the columns ['replicate', 'failures']"),
    (RESULTS_HEADER + "stubble-lip,64,0\n", [], "does not have 5 fields"),
    (power_law_results([64, 144, 256]), ["--tolerance", "-1"],
     "--tolerance must be nonnegative and finite"),
    (power_law_results([64, 144, 256]), ["--tolerance", "nan"],
     "--tolerance must be nonnegative and finite"),
], ids=["missing-file", "two-sample-sizes", "no-reference", "missing-column", "short-row",
        "negative-tolerance", "nan-tolerance"])
def test_rates_refused_exits_with_one_line(text, regime, message, tmp_path):
    results = tmp_path / "results.csv"
    if text is not None:
        results.write_text(text)
    with pytest.raises(SystemExit) as refused:
        main(["rates", "--results", str(results)] + regime)
    code = refused.value.code
    assert code.startswith("rates refused: ") and message in code and "\n" not in code


STUBBLE_RATE = Path(__file__).resolve().parents[1] / "scripts" / "stubble-rate.json"


@pytest.mark.parametrize("points, sets, message", [
    # a NaN query point is refused with the config, before any work
    ("[[NaN], [0.5]]", [], "config refused: query points must be finite"),
    # with a vanishing bandwidth the window of a point off the initial grid is empty
    ("[[0.3141], [0.5]]", ["bandwidth=1e-6"],
     "benchmark refused: 50% of queries failed at n=256 (limit 20%)"),
], ids=["nan-point", "failure-limit"])
def test_benchmark_with_failing_points_exits_with_one_line(points, sets, message, tmp_path):
    args = ["benchmark", "--config", str(STUBBLE_RATE), "--out", str(tmp_path / "out"),
            "--set", "replicates=1", "--set", f'queries={{"kind": "points", "points": {points}}}']
    for pair in sets:
        args += ["--set", pair]
    with pytest.raises(SystemExit) as refused:
        main(args)
    assert refused.value.code == message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sets", [
    [],
    ['queries={"kind": "points", "points": [[0.5, 0.5], [0.1, 0.2]]}'],
], ids=["default-queries", "points"])
def test_estimate_refuses_a_dataset_of_another_dimension(sets, tmp_path):
    data, out = tmp_path / "data", tmp_path / "est.csv"
    main(["simulate", "--config", str(STUBBLE_RATE), "--out", str(data)])
    args = ["estimate", "--config", str(STUBBLE_RATE), "--data", str(data), "--out", str(out),
            "--set", "field=rotation", "--set", "d=2", "--set", "ns=[256,1024,4096]"]
    for pair in sets:
        args += ["--set", pair]
    with pytest.raises(SystemExit) as refused:
        main(args)
    assert refused.value.code == ("dataset refused: the dataset has dimension 1, "
                                  "but the field 'rotation' has dimension 2")
    assert not out.exists()


@pytest.mark.parametrize("script, n, sets, message", [
    # a size the config's own ns check would refuse
    ("snake-rate", 0, [], "simulate refused: --n must be at least 1, not 0"),
    ("snake-rate", -5, [], "simulate refused: --n must be at least 1, not -5"),
    ("stubble-rate", 300, ["field=rotation", "d=2", "ns=[256,1024]"],
     "simulate refused: sample size 300 is not a d-th power for d=2"),
    # a fixed step that the config's ns leave finite, but --n overflows
    ("snake-rate", 100000, ["dt_rule=fixed", "dt_value=1e304"],
     "simulate refused: dt_value 1e+304 is too large: 100000 steps of it overflow the time grid"),
], ids=["snake-zero", "snake-negative", "stubble-not-a-square", "snake-overflow"])
def test_simulate_refuses_a_size_the_scheme_cannot_draw(script, n, sets, message, tmp_path):
    args = ["simulate", "--config", str(STUBBLE_RATE.parent / f"{script}.json"),
            "--n", str(n), "--out", str(tmp_path / "out")]
    for pair in sets:
        args += ["--set", pair]
    with pytest.raises(SystemExit) as refused:
        main(args)
    assert refused.value.code == message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, message", [
    ("simulate", "simulate refused: integration of 'rotation' stopped at t="),
    # the failed solve fails every query of its horizon, and the failure limit stops the run
    # with a line that ends with the solve's message
    ("benchmark", "benchmark refused: 100% of queries failed at n=1024 (limit 20%)"),
])
def test_solve_out_of_steps_exits_with_one_line(command, message, tmp_path, monkeypatch):
    # rotation takes about 230 steps from one observation to the next 10 time units on
    monkeypatch.setattr("flowfit.flow.MAX_STEPS_PER_OUTPUT", 50)
    with pytest.raises(SystemExit) as refused:
        main([command, "--config", str(STUBBLE_RATE.parent / "snake-rate.json"),
              "--set", "replicates=1", "--set", "dt_rule=fixed", "--set", "dt_value=10",
              "--out", str(tmp_path / "out")])
    code = refused.value.code
    assert code.startswith(message) and "\n" not in code
    assert ": MAX_STEPS_PER_OUTPUT = 50 steps did not reach the next output time" in code
    assert not (tmp_path / "out").exists()


def test_balanced_snake_simulates_past_the_step_budget(tmp_path, monkeypatch):
    # the horizon n^(1 - 1/10) = 512 takes about 12,000 steps, at most 8 between observations
    monkeypatch.setattr("flowfit.flow.MAX_STEPS_PER_OUTPUT", 20)
    main(["simulate", "--config", str(STUBBLE_RATE.parent / "snake-rate.json"),
          "--set", "model=snake-gen", "--set", "dt_rule=balanced", "--n", "1024",
          "--out", str(tmp_path / "out")])
    assert load(tmp_path / "out", "snake-gen").observations.shape == (1, 1024, 2)


@pytest.mark.parametrize("sets", [[], ["model=snake-gen", "beta=2"]], ids=["snake-lip", "snake-gen"])
def test_estimate_refuses_a_curve_fit_it_cannot_make(sets, tmp_path):
    # no observation but the one at t lies within a vanishing bandwidth of t
    snake_rate = STUBBLE_RATE.parent / "snake-rate.json"
    data, out = tmp_path / "data", tmp_path / "est.csv"
    main(["simulate", "--config", str(snake_rate), "--out", str(data)])
    args = ["estimate", "--config", str(snake_rate), "--data", str(data), "--out", str(out),
            "--set", "bandwidth=1e-9"]
    for pair in sets:
        args += ["--set", pair]
    with pytest.raises(SystemExit) as refused:
        main(args)
    code = refused.value.code
    assert code.startswith("estimate refused: singular local design") and "\n" not in code
    assert not out.exists()


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_estimate_refuses_mismatched_dataset(stubble_config, snake_config, tmp_path):
    data = tmp_path / "data"
    main(["simulate", "--config", str(stubble_config), "--out", str(data)])
    with pytest.raises(SystemExit) as refused:
        main(["estimate", "--config", str(snake_config), "--data", str(data),
              "--out", str(tmp_path / "est.csv")])
    message = f"dataset refused: {data} holds 'stubble' data, but 'snake' data is needed"
    assert refused.value.code == message


def test_estimate_failed_rows_name_their_kind(stubble_config, tmp_path, monkeypatch):
    import flowfit.stubble as stubble

    real = stubble.estimate_general
    calls = []

    def nan_on_first_query(*args, **kwargs):
        calls.append(1)
        est, singular = real(*args, **kwargs)
        if len(calls) == 1:  # the stack's first row
            est[0] = np.nan
        return est, singular

    data = tmp_path / "data"
    main(["simulate", "--config", str(stubble_config), "--out", str(data)])
    monkeypatch.setattr(stubble, "estimate_general", nan_on_first_query)
    out = tmp_path / "estimates.csv"
    points = "queries=" + json.dumps({"kind": "points", "points": [[0.5, 0.5], [5.0, 5.0], [0.3, 0.3]]})
    main(["estimate", "--config", str(stubble_config), "--data", str(data),
          "--out", str(out), "--set", points])
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["provenance"] for row in rows] == ["non-finite", "singular", "regression"]
    assert [row["fhat_1"] == "" for row in rows] == [True, True, False]
    assert rows[2]["provenance"] in SUCCESSES


# Each model at seed 7 with one replicate: the CLI's estimates on a points
# query set must give the error that results.csv records at ns[0].
AGREEMENT = {
    "stubble-lip": ({"field": "cubic", "d": 1, "ns": [64, 128, 256], "dt_rule": "balanced"},
                    [[0.3], [0.5], [0.7]]),
    "stubble-gen": ({"field": "rotation", "d": 2, "beta": 2, "ns": [256, 576, 1024],
                     "dt_rule": "fixed", "dt_value": 0.05},
                    [[0.3, 0.4], [0.5, 0.5], [0.6, 0.7]]),
    "snake-lip": ({"field": "rotation", "d": 2, "ns": [256, 512, 1024],
                   "dt_rule": "fixed-horizon", "horizon": 2 * math.pi, "x1": [1.0, 0.0]},
                  [[1.0, 0.01], [0.0, 0.99], [-0.7, -0.7]]),
    "snake-gen": ({"field": "rotation", "d": 2, "beta": 2, "ns": [256, 512, 1024],
                   "dt_rule": "fixed-horizon", "horizon": 2 * math.pi, "x1": [1.0, 0.0]},
                  [[1.0, 0.01], [0.0, 0.99], [-0.7, -0.7]]),
}


@pytest.mark.parametrize("model", sorted(AGREEMENT))
def test_estimate_agrees_with_benchmark(model, tmp_path):
    settings, points = AGREEMENT[model]
    cfg = {"model": model, "sigma": 0.05, "replicates": 1, "seed": 7,
           "queries": {"kind": "points", "points": points}, **settings}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    data, est, bench = tmp_path / "data", tmp_path / "est.csv", tmp_path / "bench"
    main(["simulate", "--config", str(path), "--out", str(data)])
    main(["estimate", "--config", str(path), "--data", str(data), "--out", str(est)])
    main(["benchmark", "--config", str(path), "--out", str(bench)])

    with open(est, newline="") as fh:
        rows = list(csv.DictReader(fh))
    d = settings["d"]
    x = np.array([[float(r[f"x_{k + 1}"]) for k in range(d)] for r in rows])
    fhat = np.array([[float(r[f"fhat_{k + 1}"]) for k in range(d)] for r in rows])
    truth = make_field(settings["field"], d)(x)
    errs = np.array([np.linalg.norm(f - t) for f, t in zip(fhat, truth)])
    error = float(np.sqrt(np.mean(errs ** 2))) if model.startswith("stubble") else float(errs.max())
    _, results = read_results_csv(bench / "results.csv")
    (first,) = [r for r in results if r.n == settings["ns"][0] and r.replicate == 0]
    assert first.failures == 0
    assert repr(error) == repr(first.error)


@pytest.mark.parametrize("model", sorted(AGREEMENT))
def test_dataset_naming_its_noise_law_estimates_the_same(model, tmp_path):
    # datasets written while the config named a noise law carry it in meta.json
    settings, points = AGREEMENT[model]
    cfg = {"model": model, "sigma": 0.05, "replicates": 1, "seed": 7,
           "queries": {"kind": "points", "points": points}, **settings}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    new, old = tmp_path / "new", tmp_path / "old"
    main(["simulate", "--config", str(path), "--out", str(new)])
    main(["simulate", "--config", str(path), "--out", str(old)])
    meta = json.loads((old / "meta.json").read_text())
    assert "noise" not in meta
    meta["noise"] = "gaussian"
    (old / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    for data in (new, old):
        main(["estimate", "--config", str(path), "--data", str(data),
              "--out", str(tmp_path / f"{data.name}.csv")])
    estimates = (tmp_path / "new.csv").read_bytes()
    assert estimates == (tmp_path / "old.csv").read_bytes()
    assert estimates.count(b"\n") == len(points) + 1


def test_script_configs_load():
    paths = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.json"))
    assert len(paths) >= 2
    for path in paths:
        ExperimentConfig.from_dict(json.loads(path.read_text()))
