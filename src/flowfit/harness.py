"""Monte Carlo experiment orchestration and rate verification.

An :class:`ExperimentConfig` names one estimation model, a field, a
grid of sample sizes, and a replication plan.  :func:`run_experiment`
integrates the noise-free paths once per trajectory (the sample sizes of
one snake horizon share one, with the true curve that ``tube`` queries
follow), adds each replicate's own noise, estimates the field on a query
set (the replicates of one sample size share the true field there and
the design of their fits), aggregates errors per n, fits a
log-log slope, and compares it with :func:`reference_rate`.

Outputs are deterministic byte for byte given the same config: floats
are written via ``repr`` (shortest round-trip form), replicate ``r``
draws its noise from seed ``seed + r``, and no timestamps are recorded.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import stubble
from .flow import IntegrationError, VectorField, make_field
from .localpoly import SingularDesign
from .models import FAILURES, MODELS

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

# The reference regime each dt rule implies.
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

    The reported error (root mean square for stubble, sup for snake)
    behaves like ``n^exponent * (log n)^log_power`` up to constants: half
    the squared-error exponent of :attr:`~flowfit.models.Family.exponents`.
    """

    exponent: Fraction
    source: str
    log_power: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if self.exponent >= 0:
            raise ValueError("error-rate exponents must be negative")

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
            "scale": "rmse",
        }


def reference_rate(model: str, d: int, beta: int, regime: str) -> TheoreticalRate:
    """Theoretical exponent of the reported error for a model/regime combination.

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
    squared = spec.family.exponents[regime](b, d)
    log_power = -squared / 2 if spec.family.log_rate else Fraction(0)
    source = f"{model} {regime} regime, beta={b}, d={d}"
    return TheoreticalRate(exponent=squared / 2, source=source, log_power=log_power)


def _is_a(value, kind) -> bool:
    # bool is an Integral, but never a count or a real number of a config
    return isinstance(value, kind) and not isinstance(value, bool)


_QUERY_KINDS = ("points", "grid", "tube")


@dataclass(frozen=True)
class QuerySpec:
    """Where the field estimate is evaluated.

    kinds: ``points`` (an explicit list), ``grid`` (a uniform interior
    grid with a margin), ``tube`` (random points within ``delta`` of the
    true trajectory; available in simulation only).
    """

    kind: str
    points: tuple = ()
    per_dim: int = 5
    margin: float = 0.1
    delta: float = 0.02
    count: int = 64

    def __post_init__(self) -> None:
        if self.kind not in _QUERY_KINDS:
            raise ValueError(f"unknown query kind {self.kind!r}")
        if self.kind == "points" and len(self.points) == 0:
            raise ValueError("explicit query spec needs points")
        for name in ("per_dim", "count"):
            value = getattr(self, name)
            if not _is_a(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be a positive integer, not {value!r}")
        if not 0 <= self.margin < 0.5:
            raise ValueError("margin must be in [0, 0.5)")
        for name, values in (("points", [v for p in self.points for v in p]),
                             ("delta", [self.delta])):
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"query {name} must be finite")
        if self.kind == "tube" and not self.delta > 0:
            raise ValueError(f"tube delta must be positive, not {self.delta!r}")

    def check_dim(self, d: int) -> None:
        """Raise ValueError unless explicit points have dimension `d`."""
        if self.kind == "points" and any(len(p) != d for p in self.points):
            raise ValueError(f"query points must have dimension {d}")

    @classmethod
    def from_dict(cls, data: dict) -> "QuerySpec":
        data = dict(data)
        # the kind first, so an unknown kind is named rather than the fields it brings
        if data.get("kind") not in _QUERY_KINDS:
            raise ValueError(f"unknown query kind {data.get('kind')!r}")
        if "points" in data:
            data["points"] = tuple(tuple(p) for p in data["points"])
        return cls(**data)

    def build(self, d: int, rng: np.random.Generator,
              curve_points: np.ndarray | None = None) -> np.ndarray:
        self.check_dim(d)
        if self.kind == "points":
            return np.array([list(p) for p in self.points], dtype=float)
        if self.kind == "grid":
            return stubble.default_query_points(d, self.per_dim, self.margin)
        if curve_points is None:
            raise ValueError("tube queries need the true trajectory")
        idx = rng.integers(0, curve_points.shape[0], size=self.count)
        direction = rng.normal(size=(self.count, d))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radius = self.delta * rng.uniform(size=self.count) ** (1.0 / d)
        return curve_points[idx] + direction * radius[:, None]


# Numeric config fields and the type each must have (None where that is the default).
_TYPED_FIELDS = (
    (("replicates", "seed", "d", "beta"), numbers.Integral, "an integer"),
    (("sigma", "dt_value", "horizon", "bandwidth", "rate_tolerance"), numbers.Real,
     "a real number"),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one rate experiment; its 15 fields are the
    config keys, and :meth:`from_dict` refuses any other key.

    - ``model``, ``field``, ``d``: the estimator (a key of
      :data:`~flowfit.models.MODELS`), the built-in field and, for the
      dimension-generic fields, its dimension.
    - ``ns``: the strictly increasing grid of sample sizes (trajectory
      count for stubble models, observation count for snake models).
    - ``beta``: the smoothness order, at most the field's own (None: the
      field's own).
    - ``sigma``: the standard deviation of the Gaussian observation noise.
    - ``dt_rule``, ``dt_value``, ``horizon``: the step size per n, one of
      ``fixed`` (``dt_value``), ``balanced`` (``n^(-1/(2(beta+1)+d))``)
      or ``fixed-horizon`` (``horizon / n``).  The rule also picks the
      reference regime of the rate report: ``fixed-dt``, ``balanced`` or
      ``fixed-horizon``.
    - ``replicates``, ``seed``: replicate ``r`` draws its noise from
      ``seed + r``.
    - ``x1``: the initial state of the one trajectory of a snake model.
    - ``queries``: where the estimate is evaluated (None: a grid for
      stubble models and a tube for snake models).
    - ``bandwidth``: one fixed bandwidth (None: the plug-in choice).
    - ``rate_tolerance``: the largest slope deviation that passes.
    """

    model: str
    field: str
    ns: tuple[int, ...]
    d: int | None = None
    beta: int | None = None
    sigma: float = 0.0
    dt_rule: str = "balanced"
    dt_value: float | None = None
    horizon: float | None = None
    replicates: int = 1
    seed: int = 0
    x1: tuple[float, ...] | None = None
    queries: QuerySpec | None = None
    bandwidth: float | None = None
    rate_tolerance: float = 0.1

    def __post_init__(self) -> None:
        for names, kind, what in _TYPED_FIELDS:
            for name in names:
                value = getattr(self, name)
                optional = value is None and self.__dataclass_fields__[name].default is None
                if not optional and not _is_a(value, kind):
                    raise TypeError(f"{name} must be {what}, not {value!r}")
        for n in self.ns:
            if not _is_a(n, numbers.Integral):
                raise TypeError(f"ns must be an integer, not {n!r}")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {tuple(MODELS)}")
        if len(self.ns) == 0 or any(b <= a for a, b in zip(self.ns, self.ns[1:])):
            raise ValueError("ns must be nonempty and strictly increasing")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if self.dt_rule not in RULE_REGIMES:
            raise ValueError(f"unknown dt rule {self.dt_rule!r}")
        if self.dt_rule == "fixed" and not self.dt_value:
            raise ValueError("dt_rule 'fixed' needs dt_value")
        if self.dt_rule == "fixed-horizon" and not self.horizon:
            raise ValueError("dt_rule 'fixed-horizon' needs horizon")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        family = MODELS[self.model].family
        if family.needs_x1 and self.x1 is None:
            raise ValueError(f"{self.model} needs the initial state x1")
        # a tube follows the one trajectory that only x1-started models observe
        if self.queries is not None and self.queries.kind == "tube" and not family.needs_x1:
            raise ValueError(f"tube queries need a single-trajectory model, not {self.model}")
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be nonnegative and finite, not {self.sigma!r}")
        for name in ("dt_value", "horizon", "bandwidth"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 <= self.rate_tolerance < math.inf:
            raise ValueError(
                f"rate_tolerance must be nonnegative and finite, not {self.rate_tolerance!r}")
        if self.beta is not None and self.beta < 1:
            raise ValueError("beta must be at least 1")
        try:
            fld = make_field(self.field, self.d)  # raises on a dimension the field lacks
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
        if self.beta is not None and self.beta > fld.smoothness:
            raise ValueError(f"beta {self.beta} is above the smoothness {fld.smoothness} "
                             f"of the field {self.field!r}")
        if self.x1 is not None and len(self.x1) != fld.dim:
            raise ValueError(f"x1 must have the dimension of the field {self.field!r}")
        if self.x1 is not None and not all(math.isfinite(v) for v in self.x1):
            raise ValueError(f"x1 must be finite, not {list(self.x1)}")
        if self.queries is not None:
            self.queries.check_dim(fld.dim)
        beta = self.effective_beta(fld)
        least = family.min_n(beta)
        for n in self.ns:
            if n < least:
                raise ValueError(f"sample size {n} is below {least}, the smallest "
                                 f"{self.model} fits at beta={beta}")
            family.check_n(n, fld.dim)
        self.check_steps(max(self.ns), beta)

    def check_steps(self, n: int, beta: int) -> None:
        """Refuse a fixed step whose time grid at sample size `n` overflows:
        a trajectory is observed n (snake) or beta (stubble) steps of
        dt_value."""
        steps = max(n, beta)
        if self.dt_rule == "fixed" and not math.isfinite(steps * self.dt_value):
            raise ValueError(f"dt_value {self.dt_value!r} is too large: "
                             f"{steps} steps of it overflow the time grid")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "ns" in data:
            data["ns"] = tuple(data["ns"])
        if data.get("x1") is not None:
            data["x1"] = tuple(float(v) for v in data["x1"])
        if data.get("queries") is not None:
            data["queries"] = QuerySpec.from_dict(data["queries"])
        return cls(**data)

    def effective_beta(self, fld: VectorField) -> int:
        base = fld.smoothness if self.beta is None else self.beta
        return 1 if MODELS[self.model].lipschitz else base

    def dt_for(self, n: int, beta: int, d: int) -> float:
        if self.dt_rule == "fixed":
            return float(self.dt_value)
        if self.dt_rule == "balanced":
            return n ** (-1.0 / (2 * (beta + 1) + d))
        return float(self.horizon) / n


@dataclass(frozen=True)
class RateReport:
    """Fitted log-log slope of the mean errors against the theoretical
    exponent; ``passed`` is False when there is no reference."""

    slope: float
    intercept: float
    reference: TheoreticalRate | None
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


def _replicate_errors(
    cfg: ExperimentConfig, beta: int, ds, queries: np.ndarray, truth: np.ndarray | None,
    plans: dict,
) -> tuple[np.ndarray, int]:
    """Per-query error norms against the field's values `truth` at the
    `queries` (NaN where a query failed) and the failure count.

    Every query fails when `ds` is None: its noise-free flow did not
    integrate.  `plans` is the plan store of the dataset's sample size
    (see :class:`~flowfit.models.Model`).
    """
    try:
        predict = None if ds is None else MODELS[cfg.model].fit(cfg, ds, beta, plans)
    except SingularDesign:
        predict = None
    if predict is None:
        return np.full(queries.shape[0], np.nan), queries.shape[0]
    pred = predict(queries)
    return _row_norms(pred.values - truth), sum(kind in FAILURES for kind in pred.status)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of a ``(Q, d)`` array, NaN where the
    row holds one.  Each is the square root of the row's own dot product,
    one ``ddot``, as :func:`numpy.linalg.norm` takes on that row alone, so
    it has that norm's bits; a norm along an axis may round differently."""
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def _aggregate(ns, rows: list[ReplicateRow]) -> list[SummaryRow]:
    """One row per sample size of `ns`: the mean and standard error of its
    finite replicate errors, in replicate order, and its failed queries."""
    summary = []
    for n in ns:
        at_n = sorted((r for r in rows if r.n == n), key=lambda r: r.replicate)
        errs = np.array([r.error for r in at_n if math.isfinite(r.error)])
        failures = sum(r.failures for r in at_n)
        mean = float(errs.mean()) if errs.size else math.nan
        stderr = float(errs.std(ddof=1) / math.sqrt(errs.size)) if errs.size > 1 else 0.0
        summary.append(SummaryRow(n, mean, stderr, int(errs.size), failures))
    return summary


def _build_report(
    summary: list[SummaryRow], reference: TheoreticalRate | None, tolerance: float
) -> RateReport:
    """The slope of the summary's mean errors and its verdict: it passes
    when it lies within `tolerance` of the reference exponent.

    Raises ValueError, as :func:`fit_rate`, on fewer than three sample
    sizes or a mean error that is not positive and finite.
    """
    slope, intercept = fit_rate([s.n for s in summary], [s.mean_error for s in summary])
    passed = reference is not None and abs(slope - float(reference.exponent)) <= tolerance
    return RateReport(slope=slope, intercept=intercept, reference=reference, passed=passed)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the full replication plan described by the config.

    Deterministic given the config; raises :class:`ExperimentError`
    when more than 20% of the queries fail at any sample size, ending
    with the message of the flow solve when that size's solve failed.
    """
    fld = make_field(cfg.field, cfg.d)
    beta = cfg.effective_beta(fld)
    family = MODELS[cfg.model].family
    qspec = cfg.queries or QuerySpec(kind=family.default_queries)

    sizes = [(n, cfg.dt_for(n, beta, fld.dim)) for n in cfg.ns]
    rows: list[ReplicateRow] = []
    curves: dict[float, np.ndarray | None] = {}  # true curve per horizon, for tube queries
    solved: dict[int, np.ndarray | None] = {}  # paths of solved trajectories, by n, until used
    unsolved: dict[float, str] = {}  # the message of each failed solve, by trajectory
    for n, dt in sizes:
        key = family.trajectory(n, dt)
        if n not in solved:  # the first size of its trajectory: one solve for all its sizes
            group = [(m, t) for m, t in sizes if family.trajectory(m, t) == key]
            # a tube follows the true curve, one more path of 2048 steps up to the horizon
            tube = [(2048, n * dt / 2048)] if qspec.kind == "tube" else []
            try:
                paths = family.flow(cfg, fld, beta, group + tube)
            except IntegrationError as exc:  # every replicate at these n fails all its queries
                paths = [None] * len(group + tube)
                unsolved[key] = str(exc)
            if tube:
                curve = paths.pop()
                curves[key] = None if curve is None else curve[:, 0, :]
            solved.update(zip([m for m, _ in group], paths))
        paths = solved.pop(n)
        rng = np.random.default_rng([cfg.seed, 24301, n])
        curve = curves.get(key)
        if qspec.kind == "tube" and curve is None:  # the solve failed: no curve to draw around
            queries = np.full((qspec.count, fld.dim), np.nan)  # each fails, as paths is None
        else:
            queries = qspec.build(fld.dim, rng, curve)
        truth = None if paths is None else fld(queries)
        plans: dict = {}  # the design halves of the fits at n, made by its first replicate
        total_failures = 0
        for r in range(cfg.replicates):
            ds = None if paths is None else family.observe(cfg, fld, n, dt, paths, cfg.seed + r)
            errs, failures = _replicate_errors(cfg, beta, ds, queries, truth, plans)
            valid = errs[np.isfinite(errs)]
            error = family.error(valid) if valid.size else math.nan
            rows.append(ReplicateRow(n=n, replicate=r, error=error, failures=failures))
            total_failures += failures
        frac = total_failures / (cfg.replicates * queries.shape[0])
        if frac > FAILURE_LIMIT:
            cause = f": {unsolved[key]}" if paths is None else ""
            raise ExperimentError(
                f"{frac:.0%} of queries failed at n={n} (limit {FAILURE_LIMIT:.0%}){cause}"
            )

    summary = _aggregate(cfg.ns, rows)
    try:
        reference = reference_rate(cfg.model, fld.dim, beta, RULE_REGIMES[cfg.dt_rule])
    except UnsupportedCombination:  # no reference on record
        reference = None
    try:
        report = _build_report(summary, reference, cfg.rate_tolerance)
    except ValueError:  # too few sample sizes, or one without a usable mean error
        report = None
    return ExperimentResult(
        config=cfg, rows=tuple(rows), summary=tuple(summary), report=report
    )


def fmt_float(x: float) -> str:
    """Shortest round-trip text of a float, as every output file writes it."""
    return repr(float(x))


RESULT_COLUMNS = ("model", "n", "replicate", "error", "failures")


def write_results_csv(result: ExperimentResult, path: str | Path) -> None:
    """Raw replicate errors; one row per (n, replicate)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for row in result.rows:
            writer.writerow(
                [result.config.model, row.n, row.replicate, fmt_float(row.error), row.failures]
            )


def read_results_csv(path: str | Path) -> tuple[str, list[ReplicateRow]]:
    """Inverse of :func:`write_results_csv`; returns (model, rows).

    Raises ValueError naming a missing column, or the line of a row with
    more or fewer fields than the header.
    """
    rows = []
    model = ""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in RESULT_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path} lacks the columns {missing}")
        for rec in reader:
            # DictReader keys extra fields by None and fills absent ones with None
            if None in rec or None in rec.values():
                raise ValueError(f"line {reader.line_num} of {path} does not have "
                                 f"{len(reader.fieldnames)} fields")
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
