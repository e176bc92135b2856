"""End-to-end runs of the four subcommands."""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from flowfit.cli import main
from flowfit.flow import make_field, read_dataset_meta
from flowfit.harness import ExperimentConfig, read_results_csv
from flowfit.models import SUCCESSES


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
    meta = read_dataset_meta(out / "meta.json")
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
    meta = read_dataset_meta(out / "meta.json")
    assert meta["sigma"] == 0.3
    assert meta["seed"] == 99


def test_bad_override_exits(stubble_config, tmp_path):
    with pytest.raises(SystemExit):
        main(["simulate", "--config", str(stubble_config),
              "--out", str(tmp_path / "x"), "--set", "sigma0.3"])


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
    for row in rows:
        assert row["provenance"] == "regression"
        # constant field (1, 0) with light noise
        assert abs(float(row["fhat_1"]) - 1.0) <= 0.2
        assert abs(float(row["fhat_2"])) <= 0.2


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


def test_rates_regime_needs_dimensions(stubble_config, tmp_path):
    out = tmp_path / "bench2"
    main(["benchmark", "--config", str(stubble_config), "--out", str(out)])
    with pytest.raises(SystemExit):
        main(["rates", "--results", str(out / "results.csv"), "--regime", "fixed-dt"])


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_estimate_refuses_mismatched_dataset(stubble_config, snake_config, tmp_path):
    data = tmp_path / "data"
    main(["simulate", "--config", str(stubble_config), "--out", str(data)])
    with pytest.raises(SystemExit, match="'stubble' data.*'snake-lip'.*'snake' data"):
        main(["estimate", "--config", str(snake_config), "--data", str(data),
              "--out", str(tmp_path / "est.csv")])


def test_estimate_failed_rows_name_their_kind(stubble_config, tmp_path, monkeypatch):
    import flowfit.stubble as stubble

    real = stubble.estimate_lipschitz
    calls = []

    def nan_on_first_query(*args, **kwargs):
        calls.append(1)
        est = real(*args, **kwargs)
        return np.full_like(est, np.nan) if len(calls) == 1 else est

    data = tmp_path / "data"
    main(["simulate", "--config", str(stubble_config), "--out", str(data)])
    monkeypatch.setattr(stubble, "estimate_lipschitz", nan_on_first_query)
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


def test_script_configs_load():
    paths = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.json"))
    assert len(paths) >= 2
    for path in paths:
        ExperimentConfig.from_dict(json.loads(path.read_text()))
