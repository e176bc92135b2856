"""Where the traced run hooks into flowfit, and the per-layer metrics it yields.

``from .flow import noise_draw`` binds ``noise_draw`` in the importing
module, so a wrapper must go on the module that makes the call:
``flowfit.snake.noise_draw``, not ``flowfit.flow.noise_draw``.  `SITES`
lists each binding the benchmark workloads call through.  A binding that
a later version of the program no longer has is recorded as absent, and
every metric drawn from it is reported with ``"absent": true``.

Spans are named ``<module>.<function>`` after the module that defines the
function, whichever module's binding was wrapped.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect

from tracer import Tracer, median, percentile, summarize

# (module that makes the call, attribute there, span name)
SITES = (
    ("flowfit.stubble", "noise_draw", "flow.noise_draw"),
    ("flowfit.snake", "noise_draw", "flow.noise_draw"),
    ("flowfit.stubble", "integrate_flow_grid", "flow.integrate_flow_grid"),
    ("flowfit.snake", "integrate_flow_grid", "flow.integrate_flow_grid"),
    ("flowfit.stubble", "lp_estimate", "localpoly.lp_estimate"),
    ("flowfit.snake", "lp_coefficients", "localpoly.lp_coefficients"),
    ("flowfit.snake", "stability_norm", "interp.stability_norm"),
    ("flowfit.interp", "stability_norm", "interp.stability_norm"),
    ("flowfit.snake", "mu_interior_contains", "interp.mu_interior_contains"),
    ("flowfit.snake", "interp_multivariate", "interp.interp_multivariate"),
    ("flowfit.stubble", "generate_stubble", "stubble.generate_stubble"),
    ("flowfit.stubble", "estimate_lipschitz", "stubble.estimate_lipschitz"),
    ("flowfit.snake", "generate_snake", "snake.generate_snake"),
    ("flowfit.snake", "fit_curve", "snake.fit_curve"),
    ("flowfit.snake", "nn_time", "snake.nn_time"),
    ("flowfit.snake", "estimate_lipschitz", "snake.estimate_lipschitz"),
    ("flowfit.snake", "select_stencil", "snake.select_stencil"),
    ("flowfit.snake", "estimate_general", "snake.estimate_general"),
    ("flowfit.harness", "run_experiment", "harness.run_experiment"),
    ("flowfit.harness", "write_results_csv", "cli.write"),
    ("flowfit.harness", "write_plot_csv", "cli.write"),
    ("flowfit.harness", "write_report_json", "cli.write"),
)

# Bindings that only feed counters: every scored candidate subset of the
# stencil search, the in-bandwidth mask of each local fit, and the field the
# harness builds.
CANDIDATE_SITE = ("flowfit.snake", "_subset_key")
WINDOW_SITE = ("flowfit.localpoly", "_local_terms")
FIELD_SITE = ("flowfit.harness", "make_field")
RECHECK_SITE = ("flowfit.snake", "check_stencil")

# Span statistics reported per layer: ``calls`` (a count), ``self_s``
# (median over traced runs of the summed self time), ``ms.p50`` and
# ``ms.p99`` (per-call latency pooled over traced runs, with its count).
SPAN_STATS = {
    "flow.noise_draw": ("calls", "self_s"),
    "flow.integrate_flow_grid": ("calls", "self_s"),
    "localpoly.lp_estimate": ("calls", "self_s"),
    "localpoly.lp_coefficients": ("calls", "self_s"),
    "interp.stability_norm": ("calls", "self_s"),
    "interp.mu_interior_contains": ("calls", "self_s"),
    "interp.interp_multivariate": ("calls", "self_s"),
    "stubble.generate_stubble": ("self_s",),
    "stubble.estimate_lipschitz": ("calls", "ms.p50", "ms.p99"),
    "snake.generate_snake": ("self_s",),
    "snake.fit_curve": ("calls", "self_s"),
    "snake.nn_time": ("calls", "self_s"),
    "snake.estimate_lipschitz": ("ms.p50", "ms.p99"),
    "snake.select_stencil": ("calls", "self_s"),
    "snake.estimate_general": ("ms.p50", "ms.p99"),
    "harness.run_experiment": ("self_s",),
}
STAT_UNITS = {"calls": "count", "self_s": "s", "ms.p50": "ms", "ms.p99": "ms"}

# Metrics drawn from counters, with their unit and the spans (or counter
# sites) that must exist for them to be measured.
COUNTER_METRICS = {
    "flow.field_evals": ("count", ("field",)),
    "localpoly.lp_estimate.window_frac": ("frac", ("localpoly.lp_estimate", "window")),
    "localpoly.singular_design": (
        "count", ("localpoly.lp_estimate", "localpoly.lp_coefficients")),
    "snake.fit_curve.grid_points": ("count", ("snake.fit_curve",)),
    "snake.select_stencil.candidates_per_call": (
        "count", ("snake.select_stencil", "candidates")),
    "snake.estimate_general.fallback_frac": ("frac", ("snake.estimate_general",)),
}

# Metrics the benchmark's own process computes from the outputs and timings.
RUN_METRICS = {
    "harness.replicates": "count",
    "harness.queries": "count",
    "harness.query_fail_frac": "frac",
    "trace.overhead_frac": "frac",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {
        f"{span}.{stat}": STAT_UNITS[stat]
        for span, stats in SPAN_STATS.items()
        for stat in stats
    }
    out.update({name: unit for name, (unit, _) in COUNTER_METRICS.items()})
    out["cli.write_s"] = "s"
    out.update(RUN_METRICS)
    return out


def _binder(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


class Hooks:
    """The wrappers of one traced run and what they collected."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.present: set[str] = set()  # span names and counter sites found
        self.stencils: list = []  # (query, stencil, config) to re-certify
        self._originals: list = []  # (module, attribute, function) replaced

    def _replace(self, module, attr, fn, wrapper, present_as) -> None:
        self._originals.append((module, attr, fn))
        setattr(module, attr, wrapper)
        self.present.add(present_as)

    def install(self) -> None:
        for module_name, attr, name in SITES:
            module, fn = _lookup(module_name, attr)
            if fn is not None:
                self._replace(module, attr, fn, self._wrap(name, fn), name)
        module, fn = _lookup(*CANDIDATE_SITE)
        if fn is not None:
            self._replace(module, CANDIDATE_SITE[1], fn, self._counting(fn), "candidates")
        module, fn = _lookup(*WINDOW_SITE)
        if fn is not None:
            self._replace(module, WINDOW_SITE[1], fn, self._window_counting(fn), "window")
        module, fn = _lookup(*FIELD_SITE)
        if fn is not None:
            self._replace(module, FIELD_SITE[1], fn, self._field_factory(fn), "field")

    def uninstall(self) -> None:
        """Put the original functions back, so later checks record no spans."""
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _wrap(self, name, fn):
        t = self.tracer
        after = on_error = None
        if name in ("localpoly.lp_estimate", "localpoly.lp_coefficients"):
            def on_error(exc):
                if type(exc).__name__ == "SingularDesign":
                    t.count("singular_design")

        if name == "snake.fit_curve":
            def after(args, kwargs, out):
                t.count("grid_points", len(out.grid_times))

        if name == "snake.estimate_general":
            bind = _binder(fn)

            def after(args, kwargs, out):
                if out.provenance == "fallback":
                    t.count("fallbacks")
                if out.stencil is not None:
                    a = bind(args, kwargs)
                    self.stencils.append((a["x"], out.stencil, a["cfg"]))

        return t.wrap(name, fn, after=after, on_error=on_error)

    def _counting(self, fn):
        def counted(*args, **kwargs):
            self.tracer.count("candidates")
            return fn(*args, **kwargs)

        return counted

    def _window_counting(self, fn):
        """Points an ``lp_estimate`` call keeps and scans, read off its own mask.

        ``_local_terms`` returns the in-bandwidth mask over every point and
        the kernel values of the points inside, so both counts are lengths:
        no extra pass over the data.  Only calls made directly under an
        ``lp_estimate`` span count.
        """
        t = self.tracer

        def counted(*args, **kwargs):
            inside, _, kvals = out = fn(*args, **kwargs)
            if t.current() == "localpoly.lp_estimate":
                t.count("window.inside", len(kvals))
                t.count("window.scanned", len(inside))
            return out

        return counted

    def _field_factory(self, make_field):
        t = self.tracer

        def traced_make_field(*args, **kwargs):
            fld = make_field(*args, **kwargs)
            func, dim = fld.func, fld.dim

            def counted(x):
                t.count("field_evals", x.size // dim)
                return func(x)

            return dataclasses.replace(fld, func=counted)

        return traced_make_field

    def recertify(self) -> dict:
        """Re-check every returned stencil's certificate from its raw points."""
        recheck = _lookup(*RECHECK_SITE)[1]
        if recheck is None:
            return {"checked": 0, "failed": 0, "absent": True}
        failed = sum(1 for x, st, cfg in self.stencils if recheck(st, x, cfg))
        return {"checked": len(self.stencils), "failed": failed, "absent": False}

    def summary(self) -> dict:
        """Uninstall, re-certify the stencils and reduce the spans."""
        self.uninstall()
        keep = {span for span, stats in SPAN_STATS.items() if "ms.p50" in stats}
        return {
            "spans": summarize(self.tracer, keep_durations=keep),
            "counters": dict(self.tracer.counters),
            "present": sorted(self.present),
            "recertify": self.recertify(),
        }


def _lookup(module_name: str, attr: str):
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None, None
    return module, getattr(module, attr, None)


def _metric(value, unit, absent=False, samples=None) -> dict:
    out = {"value": value, "unit": unit}
    if samples is not None:
        out["samples"] = samples
    if absent:
        out["absent"] = True
    return out


def count_mismatches(summaries: list[dict]) -> list[str]:
    """Span calls and counters that differ between traced runs of one seed."""
    if not summaries:
        return []
    first = summaries[0]
    problems = []
    for other in summaries[1:]:
        for name in sorted(set(first["spans"]) | set(other["spans"])):
            a = first["spans"].get(name, {}).get("calls", 0)
            b = other["spans"].get(name, {}).get("calls", 0)
            if a != b:
                problems.append(f"{name} calls {a} != {b}")
        for name in sorted(set(first["counters"]) | set(other["counters"])):
            a, b = first["counters"].get(name, 0), other["counters"].get(name, 0)
            if a != b:
                problems.append(f"counter {name} {a} != {b}")
    return problems


def span_and_counter_metrics(summaries: list[dict]) -> dict:
    """Per-layer metrics from the summaries of the traced runs of one seed."""
    present = set(summaries[0]["present"])
    first = summaries[0]
    counters = first["counters"]

    def calls(span):
        return first["spans"].get(span, {}).get("calls", 0)

    out = {}
    for span, stats in SPAN_STATS.items():
        absent = span not in present
        for stat in stats:
            name, unit = f"{span}.{stat}", STAT_UNITS[stat]
            if stat == "calls":
                out[name] = _metric(calls(span), unit, absent)
            elif stat == "self_s":
                vals = [s["spans"].get(span, {}).get("self_s", 0.0) for s in summaries]
                out[name] = _metric(median(vals), unit, absent)
            else:
                pooled = [
                    ms for s in summaries
                    for ms in s["spans"].get(span, {}).get("durations_ms", [])
                ]
                value, n = percentile(pooled, 50.0 if stat == "ms.p50" else 99.0)
                out[name] = _metric(value, unit, absent, samples=n)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "flow.field_evals": counters.get("field_evals", 0),
        "localpoly.lp_estimate.window_frac": ratio(
            counters.get("window.inside", 0), counters.get("window.scanned", 0)),
        "localpoly.singular_design": counters.get("singular_design", 0),
        "snake.fit_curve.grid_points": counters.get("grid_points", 0),
        "snake.select_stencil.candidates_per_call": ratio(
            counters.get("candidates", 0), calls("snake.select_stencil")),
        "snake.estimate_general.fallback_frac": ratio(
            counters.get("fallbacks", 0), calls("snake.estimate_general")),
    }
    for name, (unit, needs) in COUNTER_METRICS.items():
        if name == "localpoly.singular_design":
            absent = not any(n in present for n in needs)
        else:
            absent = not all(n in present for n in needs)
        out[name] = _metric(values[name], unit, absent)

    writes = [s["spans"].get("cli.write", {}).get("total_s", 0.0) for s in summaries]
    out["cli.write_s"] = _metric(median(writes), "s", "cli.write" not in present)
    return out
