"""Monte Carlo experiment orchestration and rate verification.

An :class:`ExperimentConfig` names one estimation model, a field, a
grid of sample sizes, and a replication plan.  :func:`run_experiment`
simulates data per replicate, estimates the field on a query set,
aggregates errors per sample size, fits a log-log slope, and compares
it with the theoretical exponent from :func:`reference_rate`.

Outputs are deterministic byte for byte given the same config: floats
are written via ``repr`` (shortest round-trip form), replicates run
sequentially with seeds ``seed + r``, and no timestamps are recorded.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field as dc_field, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import snake, stubble
from .flow import IntegrationError, VectorField, integrate_flow_grid, make_field
from .localpoly import SingularDesign
from .models import FAILURES, KERNELS, MODELS

__all__ = [
    "MODELS",
    "ExperimentConfig",
    "QuerySpec",
    "TheoreticalRate",
    "RateReport",
    "ReplicateRow",
    "SummaryRow",
    "ExperimentResult",
    "ExperimentError",
    "NonPositiveError",
    "UnsupportedCombination",
    "fit_rate",
    "fmt_float",
    "reference_rate",
    "run_experiment",
    "write_results_csv",
    "read_results_csv",
    "write_plot_csv",
    "write_report_json",
]

# The reference regime each dt rule implies, unless a config names one.
RULE_REGIMES = {"balanced": "balanced", "fixed-horizon": "fixed-horizon", "fixed": "fixed-dt"}

# Fraction of failed queries at a single sample size above which the
# whole experiment is considered invalid.
FAILURE_LIMIT = 0.2


class ExperimentError(RuntimeError):
    """Raised when estimator failures exceed the tolerated fraction."""


class NonPositiveError(ValueError):
    """Rate fitting requires strictly positive sample sizes and errors."""


class UnsupportedCombination(ValueError):
    """No theoretical rate is on record for the requested combination."""


def fit_rate(ns, errors) -> tuple[float, float]:
    """Least-squares slope and intercept of log error against log n.

    Exact on exact power laws.  Requires at least three points.
    """
    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if ns.size != errors.size or ns.size < 3:
        raise ValueError("need at least 3 (n, error) pairs")
    if np.any(ns <= 0) or np.any(errors <= 0) or not np.all(np.isfinite(errors)):
        raise NonPositiveError("sample sizes and errors must be positive and finite")
    slope, intercept = np.polyfit(np.log(ns), np.log(errors), 1)
    return float(slope), float(intercept)


@dataclass(frozen=True)
class TheoreticalRate:
    """Error-decay exponent of one model regime.

    The mean error behaves like ``n^exponent * (log n)^log_power`` up
    to constants; ``scale`` records whether the exponent is stated for
    the squared error or its square root.
    """

    exponent: Fraction
    source: str
    log_power: Fraction = Fraction(0)
    scale: str = "squared"

    def __post_init__(self) -> None:
        if self.exponent >= 0:
            raise ValueError("error-rate exponents must be negative")
        if self.scale not in ("squared", "rmse"):
            raise ValueError("scale must be 'squared' or 'rmse'")

    def curve(self, ns) -> np.ndarray:
        """Unnormalized reference values ``n^exponent (log n)^log_power``."""
        ns = np.asarray(ns, dtype=float)
        vals = ns ** float(self.exponent)
        if self.log_power != 0:
            vals = vals * np.log(ns) ** float(self.log_power)
        return vals

    def to_dict(self) -> dict:
        """JSON-ready form: fractions as ``[numerator, denominator]``."""
        return {
            "exponent": [self.exponent.numerator, self.exponent.denominator],
            "log_power": [self.log_power.numerator, self.log_power.denominator],
            "source": self.source,
            "scale": self.scale,
        }


def reference_rate(
    model: str, d: int, beta: int, regime: str, scale: str = "rmse"
) -> TheoreticalRate:
    """Theoretical exponent for a model/regime combination.

    Regimes: ``balanced`` (step size or horizon tuned to n so both
    error sources match), ``fixed-dt`` (stubble with a fixed step: the
    statistical branch only), ``fixed-horizon`` (snake with constant T;
    carries a positive log power).  The Lipschitz variants are rated at
    their design smoothness 1 regardless of ``beta``.
    """
    spec = MODELS.get(model)
    if spec is None:
        raise UnsupportedCombination(f"unknown model {model!r}")
    if d < 1 or beta < 1:
        raise UnsupportedCombination("need d >= 1 and beta >= 1")
    b = 1 if spec.lipschitz else beta
    if regime not in spec.family.exponents:
        raise UnsupportedCombination(f"{spec.family.name} has no regime {regime!r}")
    exponent = spec.family.exponents[regime](b, d)
    log_power = -exponent if spec.family.log_rate else Fraction(0)
    if scale == "rmse":
        exponent /= 2
        log_power /= 2
    elif scale != "squared":
        raise UnsupportedCombination("scale must be 'squared' or 'rmse'")
    source = f"{model} {regime} regime, beta={b}, d={d}"
    return TheoreticalRate(exponent=exponent, source=source,
                           log_power=log_power, scale=scale)


@dataclass(frozen=True)
class QuerySpec:
    """Where the field estimate is evaluated.

    kinds: ``points`` (explicit list), ``grid`` (uniform interior grid
    with a margin), ``box`` (uniform random points in a box), ``tube``
    (random points within ``delta`` of the true trajectory; available
    in simulation only).
    """

    kind: str
    points: tuple = ()
    per_dim: int = 5
    margin: float = 0.1
    lo: tuple = ()
    hi: tuple = ()
    delta: float = 0.02
    count: int = 64

    def __post_init__(self) -> None:
        if self.kind not in ("points", "grid", "box", "tube"):
            raise ValueError(f"unknown query kind {self.kind!r}")
        if self.kind == "points" and len(self.points) == 0:
            raise ValueError("explicit query spec needs points")
        if self.count < 1:
            raise ValueError("count must be positive")

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.kind == "points":
            out["points"] = [list(map(float, p)) for p in self.points]
        elif self.kind == "grid":
            out.update(per_dim=self.per_dim, margin=self.margin)
        elif self.kind == "box":
            out.update(lo=list(self.lo), hi=list(self.hi), count=self.count)
        else:
            out.update(delta=self.delta, count=self.count)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "QuerySpec":
        data = dict(data)
        if "points" in data:
            data["points"] = tuple(tuple(p) for p in data["points"])
        for key in ("lo", "hi"):
            if key in data:
                data[key] = tuple(data[key])
        return cls(**data)

    def build(self, d: int, rng: np.random.Generator,
              curve_points: np.ndarray | None = None) -> np.ndarray:
        if self.kind == "points":
            pts = np.array([list(p) for p in self.points], dtype=float)
            if pts.shape[1] != d:
                raise ValueError(f"query points must have dimension {d}")
            return pts
        if self.kind == "grid":
            return stubble.default_query_points(d, self.per_dim, self.margin)
        if self.kind == "box":
            lo = np.asarray(self.lo, dtype=float)
            hi = np.asarray(self.hi, dtype=float)
            if lo.size != d or hi.size != d:
                raise ValueError(f"box bounds must have dimension {d}")
            return lo + rng.uniform(size=(self.count, d)) * (hi - lo)
        if curve_points is None:
            raise ValueError("tube queries need the true trajectory")
        idx = rng.integers(0, curve_points.shape[0], size=self.count)
        direction = rng.normal(size=(self.count, d))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radius = self.delta * rng.uniform(size=self.count) ** (1.0 / d)
        return curve_points[idx] + direction * radius[:, None]


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one rate experiment.

    ``ns`` is the strictly increasing grid of sample sizes (trajectory
    count for stubble models, observation count for snake models).  The
    step size per n follows ``dt_rule``: ``fixed`` (``dt_value``),
    ``power`` (``dt_coeff * n^-dt_power``), ``balanced``
    (``dt_coeff * n^(-1/(2(beta+1)+d))``), or ``fixed-horizon``
    (``horizon / n``, snake only).  ``regime`` overrides the reference
    regime derived from the rule; ``queries = None`` selects a grid for
    stubble models and a tube for snake models.
    """

    model: str
    field: str
    ns: tuple[int, ...]
    d: int | None = None
    beta: int | None = None
    sigma: float = 0.0
    noise: str = "gaussian"
    dt_rule: str = "balanced"
    dt_value: float | None = None
    dt_power: float | None = None
    dt_coeff: float = 1.0
    horizon: float | None = None
    replicates: int = 1
    seed: int = 0
    x1: tuple[float, ...] | None = None
    queries: QuerySpec | None = None
    bandwidth: float | None = None
    bandwidth_constant: float = 1.0
    kernel: str = "epanechnikov"
    fallback: bool = True
    stencil: snake.StencilConfig = dc_field(default_factory=snake.StencilConfig)
    regime: str | None = None
    rate_tolerance: float = 0.1

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {tuple(MODELS)}")
        if len(self.ns) == 0 or any(b <= a for a, b in zip(self.ns, self.ns[1:])):
            raise ValueError("ns must be nonempty and strictly increasing")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if self.kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {tuple(KERNELS)}")
        if self.dt_rule not in ("fixed", "power", "balanced", "fixed-horizon"):
            raise ValueError(f"unknown dt rule {self.dt_rule!r}")
        if self.dt_rule == "fixed" and not self.dt_value:
            raise ValueError("dt_rule 'fixed' needs dt_value")
        if self.dt_rule == "power" and not self.dt_power:
            raise ValueError("dt_rule 'power' needs dt_power")
        if self.dt_rule == "fixed-horizon" and not self.horizon:
            raise ValueError("dt_rule 'fixed-horizon' needs horizon")
        if MODELS[self.model].family.needs_x1 and self.x1 is None:
            raise ValueError(f"{self.model} needs the initial state x1")

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(
            ns=list(self.ns),
            x1=None if self.x1 is None else list(self.x1),
            queries=None if self.queries is None else self.queries.to_dict(),
            stencil=asdict(self.stencil),
        )
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "ns" in data:
            data["ns"] = tuple(int(n) for n in data["ns"])
        if data.get("x1") is not None:
            data["x1"] = tuple(float(v) for v in data["x1"])
        if data.get("queries") is not None:
            data["queries"] = QuerySpec.from_dict(data["queries"])
        if isinstance(data.get("stencil"), dict):
            data["stencil"] = snake.StencilConfig(**data["stencil"])
        return cls(**data)

    def effective_beta(self, fld: VectorField) -> int:
        base = fld.smoothness if self.beta is None else self.beta
        return 1 if MODELS[self.model].lipschitz else base

    def dt_for(self, n: int, beta: int, d: int) -> float:
        if self.dt_rule == "fixed":
            return float(self.dt_value)
        if self.dt_rule == "power":
            return self.dt_coeff * n ** (-float(self.dt_power))
        if self.dt_rule == "balanced":
            return self.dt_coeff * n ** (-1.0 / (2 * (beta + 1) + d))
        return float(self.horizon) / n


@dataclass(frozen=True)
class RateReport:
    """Fitted log-log slope against the theoretical exponent."""

    ns: tuple[int, ...]
    mean_errors: tuple[float, ...]
    stderrs: tuple[float, ...]
    slope: float
    intercept: float
    reference: TheoreticalRate | None
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class ReplicateRow:
    n: int
    replicate: int
    error: float
    failures: int


@dataclass(frozen=True)
class SummaryRow:
    n: int
    mean_error: float
    stderr: float
    replicates_used: int
    failures: int


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    rows: tuple[ReplicateRow, ...]
    summary: tuple[SummaryRow, ...]
    report: RateReport | None


def _true_curve(fld: VectorField, x1, horizon: float, num: int = 2048) -> np.ndarray:
    times = np.linspace(0.0, horizon, num + 1)
    x1 = np.asarray(x1, dtype=float)
    return integrate_flow_grid(fld, x1[None, :], times)[:, 0, :]


def _replicate_errors(
    cfg: ExperimentConfig,
    fld: VectorField,
    beta: int,
    n: int,
    dt: float,
    seed: int,
    queries: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Per-query error norms (NaN where a query failed) and the failure count."""
    spec = MODELS[cfg.model]
    truth = fld(queries)
    try:
        ds = spec.family.simulate(cfg, fld, beta, n, dt, seed)
        predict = spec.fit(cfg, ds, beta)
    except (IntegrationError, SingularDesign):
        return np.full(queries.shape[0], np.nan), queries.shape[0]
    pred = predict(queries)
    # one norm per query: a batched norm may round differently
    errs = np.array([np.linalg.norm(value - t) for value, t in zip(pred.values, truth)])
    return errs, sum(kind in FAILURES for kind in pred.status)


def _aggregate(cfg: ExperimentConfig, rows: list[ReplicateRow]) -> list[SummaryRow]:
    summary = []
    for n in cfg.ns:
        at_n = sorted((r for r in rows if r.n == n), key=lambda r: r.replicate)
        errs = np.array([r.error for r in at_n if math.isfinite(r.error)])
        failures = sum(r.failures for r in at_n)
        mean = float(errs.mean()) if errs.size else math.nan
        stderr = float(errs.std(ddof=1) / math.sqrt(errs.size)) if errs.size > 1 else 0.0
        summary.append(SummaryRow(n, mean, stderr, int(errs.size), failures))
    return summary


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the full replication plan described by the config.

    Deterministic given the config; raises :class:`ExperimentError`
    when more than 20% of the queries fail at any sample size.
    """
    fld = make_field(cfg.field, cfg.d)
    beta = cfg.effective_beta(fld)
    family = MODELS[cfg.model].family
    qspec = cfg.queries or QuerySpec(kind=family.default_queries)

    rows: list[ReplicateRow] = []
    for n in cfg.ns:
        dt = cfg.dt_for(n, beta, fld.dim)
        rng = np.random.default_rng([cfg.seed, 24301, n])
        curve_pts = None
        if qspec.kind == "tube":
            if cfg.x1 is None:
                raise ValueError("tube queries need the initial state x1")
            curve_pts = _true_curve(fld, cfg.x1, n * dt)
        queries = qspec.build(fld.dim, rng, curve_pts)
        total_failures = 0
        for r in range(cfg.replicates):
            errs, failures = _replicate_errors(
                cfg, fld, beta, n, dt, cfg.seed + r, queries
            )
            valid = errs[np.isfinite(errs)]
            error = family.error(valid) if valid.size else math.nan
            rows.append(ReplicateRow(n=n, replicate=r, error=error, failures=failures))
            total_failures += failures
        frac = total_failures / (cfg.replicates * queries.shape[0])
        if frac > FAILURE_LIMIT:
            raise ExperimentError(
                f"{frac:.0%} of queries failed at n={n} (limit {FAILURE_LIMIT:.0%})"
            )

    summary = _aggregate(cfg, rows)
    report = _build_report(cfg, fld.dim, beta, summary)
    return ExperimentResult(
        config=cfg, rows=tuple(rows), summary=tuple(summary), report=report
    )


def _build_report(
    cfg: ExperimentConfig, d: int, beta: int, summary: list[SummaryRow]
) -> RateReport | None:
    ns = tuple(s.n for s in summary)
    means = tuple(s.mean_error for s in summary)
    stderrs = tuple(s.stderr for s in summary)
    usable = all(math.isfinite(m) and m > 0 for m in means)
    if len(ns) < 3 or not usable:
        return None
    slope, intercept = fit_rate(ns, means)
    regime = RULE_REGIMES.get(cfg.dt_rule) if cfg.regime is None else cfg.regime
    try:
        reference = reference_rate(cfg.model, d, beta, regime, scale="rmse")
    except UnsupportedCombination:  # no reference on record
        reference = None
    passed = reference is not None and abs(slope - float(reference.exponent)) <= cfg.rate_tolerance
    return RateReport(
        ns=ns, mean_errors=means, stderrs=stderrs, slope=slope,
        intercept=intercept, reference=reference,
        tolerance=cfg.rate_tolerance, passed=passed,
    )


def fmt_float(x: float) -> str:
    """Shortest round-trip text of a float, as every output file writes it."""
    return repr(float(x))


def write_results_csv(result: ExperimentResult, path: str | Path) -> None:
    """Raw replicate errors; one row per (n, replicate)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "n", "replicate", "error", "failures"])
        for row in result.rows:
            writer.writerow(
                [result.config.model, row.n, row.replicate, fmt_float(row.error), row.failures]
            )


def read_results_csv(path: str | Path) -> tuple[str, list[ReplicateRow]]:
    """Inverse of :func:`write_results_csv`; returns (model, rows)."""
    rows = []
    model = ""
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            model = rec["model"]
            rows.append(ReplicateRow(
                n=int(rec["n"]), replicate=int(rec["replicate"]),
                error=float(rec["error"]), failures=int(rec["failures"]),
            ))
    return model, rows


def write_plot_csv(result: ExperimentResult, path: str | Path) -> None:
    """Aggregated errors with a reference curve anchored at the first n."""
    ref_vals = None
    report = result.report
    if report is not None and report.reference is not None:
        shape = report.reference.curve([s.n for s in result.summary])
        anchor = result.summary[0].mean_error / shape[0]
        ref_vals = anchor * shape
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "mean_error", "stderr", "reference"])
        for k, s in enumerate(result.summary):
            ref = "" if ref_vals is None else fmt_float(ref_vals[k])
            writer.writerow([s.n, fmt_float(s.mean_error), fmt_float(s.stderr), ref])


def report_dict(result: ExperimentResult) -> dict:
    """JSON-ready summary of the aggregated experiment."""
    out = {
        "model": result.config.model,
        "field": result.config.field,
        "ns": [s.n for s in result.summary],
        "mean_errors": [float(s.mean_error) for s in result.summary],
        "stderrs": [float(s.stderr) for s in result.summary],
        "failures": [s.failures for s in result.summary],
        "slope": None,
        "intercept": None,
        "reference": None,
        "tolerance": result.config.rate_tolerance,
        "passed": None,
    }
    report = result.report
    if report is not None:
        out["slope"] = report.slope
        out["intercept"] = report.intercept
        out["passed"] = report.passed
        if report.reference is not None:
            out["reference"] = report.reference.to_dict()
    return out


def write_report_json(result: ExperimentResult, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(report_dict(result), fh, indent=2, sort_keys=True)
        fh.write("\n")
