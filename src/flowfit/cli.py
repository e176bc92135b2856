"""Command line front end.

Four subcommands share one JSON config file describing the experiment
(see :class:`~flowfit.harness.ExperimentConfig` for the keys):

- ``simulate``   write one synthetic dataset (observations + meta)
- ``estimate``   evaluate the estimator of a stored dataset on queries
- ``benchmark``  full Monte Carlo run: results, report, plot CSVs
- ``rates``      fit a rate slope from an existing results CSV

Any config key can be overridden with ``--set key=value`` (the value
is parsed as JSON when possible, kept as a string otherwise).  All
outputs are deterministic for a fixed config, and do not depend on the
machine's core count: the package starts OpenBLAS with one thread (see
:mod:`flowfit`) unless ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
``OMP_NUM_THREADS`` is set.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import harness
from .flow import IntegrationError, make_field, read_dataset, write_dataset
from .harness import ExperimentConfig, ExperimentError, fmt_float, reference_rate
from .localpoly import SingularDesign
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
    try:
        data = {} if args.config is None else json.loads(Path(args.config).read_text())
        return ExperimentConfig.from_dict(_apply_overrides(data, args.set or []))
    except (OSError, TypeError, ValueError) as exc:  # a one-line refusal, not a traceback
        raise SystemExit(f"config refused: {exc}") from None


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    fld = make_field(cfg.field, cfg.d)
    beta = cfg.effective_beta(fld)
    n = args.n if args.n is not None else cfg.ns[0]
    family = MODELS[cfg.model].family
    try:  # the config checks its own ns, but not --n
        if n < 1:
            raise ValueError(f"--n must be at least 1, not {n}")
        family.check_n(n, fld.dim)
        cfg.check_steps(n, beta)
    except ValueError as exc:
        raise SystemExit(f"simulate refused: {exc}") from None
    dt = cfg.dt_for(n, beta, fld.dim)
    try:
        (paths,) = family.flow(cfg, fld, beta, [(n, dt)])
    except IntegrationError as exc:  # a collapsed step size or the step budget run out
        raise SystemExit(f"simulate refused: {exc}") from None
    ds = family.observe(cfg, fld, n, dt, paths, cfg.seed)
    write_dataset(args.out, ds, {"kind": family.name, **family.record(ds)})
    print(f"wrote {len(ds.initials)} trajectories to {Path(args.out)}")
    return 0


def _estimate_queries(cfg: ExperimentConfig, d: int, predictor: Predictor) -> np.ndarray:
    qspec = cfg.queries or harness.QuerySpec(kind=MODELS[cfg.model].family.default_queries)
    rng = np.random.default_rng([cfg.seed, 24301, 0])
    return qspec.build(d, rng, predictor.curve_points)


def _cmd_estimate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    fld = make_field(cfg.field, cfg.d)
    beta = cfg.effective_beta(fld)
    family = MODELS[cfg.model].family
    try:  # another family's, another field's or malformed data, too few horizons
        ds = read_dataset(args.data, family.name, family.initials, family.record)
        if ds.dim != fld.dim:
            raise ValueError(f"the dataset has dimension {ds.dim}, but the field "
                             f"{cfg.field!r} has dimension {fld.dim}")
        predictor = MODELS[cfg.model].fit(cfg, ds, beta, {})  # one dataset: a fresh plan store
        queries = _estimate_queries(cfg, ds.dim, predictor)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"dataset refused: {exc}") from None
    except SingularDesign as exc:  # a curve fit that cannot be made, as benchmark counts it
        raise SystemExit(f"estimate refused: {exc}") from None
    d = ds.dim
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
    try:
        result = harness.run_experiment(cfg)
    except ExperimentError as exc:  # too many failed queries: one line, not a traceback
        raise SystemExit(f"benchmark refused: {exc}") from None
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
    try:  # a missing file, too few sample sizes or no reference: one line, not a traceback
        if not 0 <= args.tolerance < math.inf:
            raise ValueError(f"--tolerance must be nonnegative and finite, not {args.tolerance!r}")
        model, rows = harness.read_results_csv(Path(args.results))
        summary = harness._aggregate(sorted({r.n for r in rows}), rows)
        for s in summary:
            if s.replicates_used == 0:
                raise ValueError(f"no valid errors at n={s.n}")
        reference = None
        if args.regime is not None:
            reference = reference_rate(model, args.d, args.beta, args.regime)
        report = harness._build_report(summary, reference, args.tolerance)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"rates refused: {exc}") from None
    out = {
        "model": model, "ns": [s.n for s in summary],
        "mean_errors": [s.mean_error for s in summary],
        "slope": report.slope, "intercept": report.intercept,
    }
    if reference is not None:
        out["reference"] = reference.to_dict()
        out["passed"] = report.passed
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
