"""Command line front end.

Four subcommands share one JSON config file describing the experiment
(see :class:`~flowfit.harness.ExperimentConfig` for the keys):

- ``simulate``   write one synthetic dataset (observations + meta)
- ``estimate``   evaluate the estimator of a stored dataset on queries
- ``benchmark``  full Monte Carlo run: results, report, plot CSVs
- ``rates``      fit a rate slope from an existing results CSV

Any config key can be overridden with ``--set key=value`` (the value
is parsed as JSON when possible, kept as a string otherwise).  All
outputs are deterministic for a fixed config.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import harness
from .flow import (
    make_field,
    read_dataset_meta,
    read_observation_csv,
    write_dataset_meta,
    write_observation_csv,
)
from .harness import ExperimentConfig, fit_rate, fmt_float, reference_rate
from .models import FAILURES, MODELS, Predictor

__all__ = ["main", "build_parser"]


def _apply_overrides(data: dict, pairs: list[str]) -> dict:
    out = dict(data)
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise SystemExit(f"override {pair!r} is not of the form key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        out[key] = value
    return out


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    data = {}
    if args.config is not None:
        data = json.loads(Path(args.config).read_text())
    data = _apply_overrides(data, args.set or [])
    return ExperimentConfig.from_dict(data)


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    fld = make_field(cfg.field, cfg.d)
    beta = cfg.effective_beta(fld)
    n = args.n if args.n is not None else cfg.ns[0]
    dt = cfg.dt_for(n, beta, fld.dim)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    family = MODELS[cfg.model].family
    obs, meta = family.to_records(family.simulate(cfg, fld, beta, n, dt, cfg.seed))
    write_observation_csv(out / "observations.csv", obs)
    write_dataset_meta(out / "meta.json", meta)
    print(f"wrote {len(obs)} trajectories to {out}")
    return 0


def _load_dataset(data_dir: Path, model: str):
    """The stored dataset, if its kind is the family of `model`."""
    family = MODELS[model].family
    meta = read_dataset_meta(data_dir / "meta.json")
    if meta.get("kind") != family.name:
        raise SystemExit(
            f"dataset {data_dir} holds {meta.get('kind')!r} data, "
            f"but model {model!r} needs {family.name!r} data"
        )
    return family.from_records(read_observation_csv(data_dir / "observations.csv"), meta)


def _estimate_queries(cfg: ExperimentConfig, d: int, predictor: Predictor) -> np.ndarray:
    qspec = cfg.queries or harness.QuerySpec(kind=MODELS[cfg.model].family.default_queries)
    rng = np.random.default_rng([cfg.seed, 24301, 0])
    if qspec.kind == "tube" and predictor.curve_points is None:
        raise SystemExit("tube queries are only available for snake datasets")
    return qspec.build(d, rng, predictor.curve_points)


def _cmd_estimate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    ds = _load_dataset(Path(args.data), cfg.model)
    d = ds.dim
    beta = cfg.effective_beta(make_field(cfg.field, cfg.d))
    predictor = MODELS[cfg.model].fit(cfg, ds, beta)
    queries = _estimate_queries(cfg, d, predictor)
    pred = predictor(queries)

    rows = []
    for x, value, status, stencil in zip(queries, pred.values, pred.status, pred.stencils):
        fhat = [""] * d if status in FAILURES else [fmt_float(v) for v in value]
        diam = stab = times = ""
        if stencil is not None:
            diam = fmt_float(stencil.diameter)
            stab = fmt_float(stencil.stability)
            times = ";".join(fmt_float(t) for t in stencil.times)
        rows.append([fmt_float(v) for v in x] + fhat + [status, diam, stab, times])

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    header = (
        [f"x_{k + 1}" for k in range(d)]
        + [f"fhat_{k + 1}" for k in range(d)]
        + ["provenance", "stencil_diameter", "stencil_stability", "stencil_times"]
    )
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {len(rows)} estimates to {out}")
    return 0


def _cmd_benchmark(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    result = harness.run_experiment(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    harness.write_results_csv(result, out / "results.csv")
    harness.write_plot_csv(result, out / "plot.csv")
    harness.write_report_json(result, out / "report.json")
    report = result.report
    if report is None:
        print(f"{cfg.model}: {len(result.summary)} sample sizes, no rate fit")
    else:
        ref = report.reference
        ref_txt = "none" if ref is None else f"{ref.exponent} ({ref.source})"
        verdict = "pass" if report.passed else "fail"
        print(f"{cfg.model}: slope {report.slope:.4f}, reference {ref_txt}: {verdict}")
    return 0


def _cmd_rates(args: argparse.Namespace) -> int:
    model, rows = harness.read_results_csv(Path(args.results))
    ns = sorted({r.n for r in rows})
    means = []
    for n in ns:
        errs = [r.error for r in rows if r.n == n and np.isfinite(r.error)]
        if not errs:
            raise SystemExit(f"no valid errors at n={n}")
        means.append(float(np.mean(errs)))
    slope, intercept = fit_rate(ns, means)
    out = {
        "model": model, "ns": ns, "mean_errors": means,
        "slope": slope, "intercept": intercept,
    }
    if args.regime is not None:
        ref = reference_rate(model, args.d, args.beta, args.regime, scale="rmse")
        out["reference"] = ref.to_dict()
        out["passed"] = abs(slope - float(ref.exponent)) <= args.tolerance
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowfit",
        description="Estimate the right-hand side of an ODE from noisy trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=str, default=None,
                       help="JSON experiment config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (value parsed as JSON)")

    p_sim = sub.add_parser("simulate", help="write one synthetic dataset")
    add_config_options(p_sim)
    p_sim.add_argument("--n", type=int, default=None,
                       help="sample size (default: first entry of the config grid)")
    p_sim.add_argument("--out", type=str, required=True, help="output directory")
    p_sim.set_defaults(func=_cmd_simulate)

    p_est = sub.add_parser("estimate", help="estimate the field on a stored dataset")
    add_config_options(p_est)
    p_est.add_argument("--data", type=str, required=True,
                       help="dataset directory written by simulate")
    p_est.add_argument("--out", type=str, required=True, help="output CSV path")
    p_est.set_defaults(func=_cmd_estimate)

    p_bench = sub.add_parser("benchmark", help="run the full Monte Carlo experiment")
    add_config_options(p_bench)
    p_bench.add_argument("--out", type=str, required=True, help="output directory")
    p_bench.set_defaults(func=_cmd_benchmark)

    p_rates = sub.add_parser("rates", help="fit a rate slope from a results CSV")
    p_rates.add_argument("--results", type=str, required=True,
                         help="results CSV written by benchmark")
    p_rates.add_argument("--d", type=int, default=None, help="state dimension")
    p_rates.add_argument("--beta", type=int, default=None, help="smoothness order")
    p_rates.add_argument("--regime", type=str, default=None,
                         help="reference regime (balanced, fixed-dt, fixed-horizon)")
    p_rates.add_argument("--tolerance", type=float, default=0.1,
                         help="pass tolerance on the slope")
    p_rates.set_defaults(func=_cmd_rates)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "rates" and args.regime is not None:
        if args.d is None or args.beta is None:
            raise SystemExit("--regime needs --d and --beta")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
