"""Fast checks of the benchmark's own logic; no flowfit run is started."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, percentile, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_direct_children():
    # outer [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    t = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    outer = t.open("outer")
    a = t.open("a")
    with t.span("b"):
        pass
    t.close(a)
    with t.span("c"):
        pass
    t.close(outer)
    s = summarize(t, keep_durations={"c"})
    assert s["outer"]["total_s"] == 10 and s["outer"]["self_s"] == 3
    assert s["a"]["total_s"] == 3 and s["a"]["self_s"] == 2
    assert s["b"]["self_s"] == 1 and s["c"]["self_s"] == 4
    assert s["c"]["durations_ms"] == [4000]
    assert "durations_ms" not in s["a"]


def test_repeated_spans_aggregate_by_name():
    t = Tracer(clock=FakeClock([0, 1, 1, 3, 3, 6]))
    for _ in range(3):
        with t.span("f"):
            pass
    s = summarize(t)["f"]
    assert (s["calls"], s["total_s"], s["self_s"]) == (3, 6, 6)


def test_wrap_closes_span_on_error_and_reports_it():
    t = Tracer(clock=FakeClock(range(100)))
    seen = []

    def boom(x):
        raise KeyError(x)

    wrapped = t.wrap("boom", boom, on_error=seen.append)
    with pytest.raises(KeyError):
        wrapped(1)
    assert isinstance(seen[0], KeyError)
    assert summarize(t)["boom"]["calls"] == 1


def test_window_counts_add_no_span_to_the_latencies():
    t = Tracer(clock=FakeClock([0, 1, 2, 3]))
    # a fit that keeps 2 of 4 points: (mask, basis rows, kernel values)
    terms = layers.Hooks(t)._window_counting(
        lambda: ([True, False, True, False], [[1.0], [1.0]], [0.5, 0.5]))
    terms()  # not under lp_estimate: not counted
    estimate = t.wrap("localpoly.lp_estimate", terms)
    with t.span("stubble.estimate_lipschitz"):  # [0, 3]
        estimate()  # [1, 2]
    assert t.counters == {"window.inside": 2, "window.scanned": 4}
    s = summarize(t, keep_durations={"stubble.estimate_lipschitz"})
    assert s["stubble.estimate_lipschitz"]["durations_ms"] == [3000]
    assert s["stubble.estimate_lipschitz"]["self_s"] == 2
    assert s["localpoly.lp_estimate"]["total_s"] == 1


def test_close_out_of_order_is_an_error():
    t = Tracer(clock=FakeClock(range(10)))
    a = t.open("a")
    t.open("b")
    with pytest.raises(RuntimeError):
        t.close(a)


def test_percentile_interpolates_and_counts():
    xs = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(xs, 50) == (3.0, 5)
    assert percentile(xs, 99) == (pytest.approx(4.96), 5)
    assert percentile([], 99) == (0.0, 0)
    assert percentile([2.0], 50) == (2.0, 1)


def test_tally_counts_failed_queries_against_attempted():
    rows = [(256, 0, 0.1, 2), (512, 0, 0.05, 1)]
    assert gates.tally(rows, 9, 2, ok=True) == (18, 3)
    # a run that fails a check loses every query it attempted,
    # including those of rows it never wrote
    assert gates.tally(rows[:1], 9, 2, ok=False) == (18, 18)


def test_log_slope_exact_on_power_law():
    ns = [2**k for k in range(8, 15)]
    assert gates.log_slope(ns, [3.0 * n**-0.2 for n in ns]) == pytest.approx(-0.2)


def _write_outputs(path: Path, errors) -> None:
    path.mkdir()
    lines = ["model,n,replicate,error,failures"]
    lines += [f"m,{n},0,{e!r},0" for n, e in errors]
    (path / "results.csv").write_text("\n".join(lines) + "\n")
    (path / "plot.csv").write_text("")
    (path / "report.json").write_text("{}")


def test_check_outputs_flags_each_problem(tmp_path):
    gate = ("mean", -math.inf, -0.10)
    good = [(2**k, 2.0 ** (-0.25 * k)) for k in range(10, 15)]
    _write_outputs(tmp_path / "good", good)
    problems, rows, data = gates.check_outputs(tmp_path / "good", gate, None)
    assert problems == [] and len(rows) == 5
    assert gates.check_outputs(tmp_path / "good", gate, data)[0] == []

    flat = [(n, 0.1) for n, _ in good]
    _write_outputs(tmp_path / "flat", flat)
    problems, _, _ = gates.check_outputs(tmp_path / "flat", gate, data)
    assert any("differs" in p for p in problems)
    assert any("slope" in p for p in problems)

    _write_outputs(tmp_path / "nan", [(1024, float("nan"))])
    assert any("finite" in p for p in gates.check_outputs(tmp_path / "nan", gate, None)[0])

    (tmp_path / "empty").mkdir()
    assert gates.check_outputs(tmp_path / "empty", None, None)[0][0].startswith("missing")


def _summary(present, calls=3, fallbacks=1):
    return {
        "spans": {
            "snake.estimate_general": {
                "calls": calls, "self_s": 0.5, "total_s": 2.0,
                "durations_ms": [1.0, 2.0, 3.0][:calls],
            },
            "cli.write": {"calls": 3, "self_s": 0.01, "total_s": 0.01},
        },
        "counters": {"fallbacks": fallbacks},
        "present": present,
    }


def test_layer_metrics_report_every_name_and_flag_absent_entry_points():
    present = [name for _, _, name in layers.SITES if name != "snake.select_stencil"]
    present += ["candidates", "field", "window"]
    out = layers.span_and_counter_metrics([_summary(present), _summary(present)])
    expected = set(layers.metric_units()) - set(layers.RUN_METRICS)
    assert set(out) == expected
    assert out["snake.estimate_general.fallback_frac"]["value"] == pytest.approx(1 / 3)
    assert out["snake.estimate_general.ms.p50"] == {"value": 2.0, "unit": "ms", "samples": 6}
    assert out["snake.select_stencil.calls"]["absent"] is True
    assert out["snake.select_stencil.candidates_per_call"]["absent"] is True
    assert "absent" not in out["snake.estimate_general.ms.p99"]


def test_result_line_holds_only_value_and_unit_per_metric():
    present = [name for _, _, name in layers.SITES if name != "snake.select_stencil"]
    out = run.result_metrics(layers.span_and_counter_metrics([_summary(present)]))
    assert all(set(m) == {"value", "unit"} for m in out.values())
    assert out["snake.estimate_general.ms.p50"] == {"value": 2.0, "unit": "ms"}
    assert out["snake.select_stencil.calls"] == {"value": 0, "unit": "count"}


def test_count_mismatches_between_traced_runs():
    same = [_summary([]), _summary([])]
    assert layers.count_mismatches(same) == []
    differ = [_summary([]), _summary([], calls=2, fallbacks=0)]
    assert len(layers.count_mismatches(differ)) == 2


def test_per_layer_skips_the_timing_of_a_traced_run_that_timed_out():
    summary = _summary(["cli.write"])
    plain = {"traced": False, "wall_s": 2.0, "rows": 5, "attempted": 200, "failed": 0}
    ok = {**plain, "traced": True, "wall_s": 2.2, "trace": summary}
    lost = {"traced": True, "error": "timed out", "rows": 0, "attempted": 200, "failed": 200}
    out = run.per_layer(WORKLOADS["snake-rate"], [plain, ok, plain, lost], [summary])
    assert out["trace.overhead_frac"]["value"] == pytest.approx(0.1)
    assert out["harness.replicates"]["value"] == 5
    assert out["harness.query_fail_frac"]["value"] == 0.5


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()


def test_circle_tube_lattice_lies_in_the_tube():
    from workloads import circle_tube_lattice

    points = circle_tube_lattice(40, 0.02)
    assert len(points) == 40
    gaps = [math.hypot(x, y) - 1.0 for x, y in points]
    assert max(abs(g) for g in gaps) == pytest.approx(0.02)
    assert {round(g, 6) for g in gaps} == {-0.02, -0.01, 0.0, 0.01, 0.02}


def test_workload_seeds_give_disjoint_replicate_streams():
    for w in WORKLOADS.values():
        a, b = w.make_config(0), w.make_config(1)
        assert a["seed"] + a["replicates"] <= b["seed"]
        assert w.make_config(3) == w.make_config(3)
    with pytest.raises(ValueError):
        WORKLOADS["snake-gen"].make_config(-1)
