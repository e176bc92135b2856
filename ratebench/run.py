"""Rate-study benchmark of ``flowfit benchmark``.

    python3 ratebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload's config is made
from the seed (see ``workloads.py``) and each measured run is a fresh
child process (``child.py``), one at a time, until ``S`` seconds are
spent (at least two untraced runs, or two untraced and two traced runs
alternating with ``--trace 1``).  Every run's outputs are checked
(``gates.py``).

The last line of standard output is one JSON object: with ``--trace 0``
the end-to-end metrics (medians over the runs), with ``--trace 1`` the
per-layer metrics of ``layers.py``, each metric only its value and unit.
The lines above it repeat the metrics with sample counts and absent entry
points.  A fuller record, with the machine it ran on, goes to
``.ratebench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
import layers  # noqa: E402
from tracer import median  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
WORK = ROOT / ".ratebench"
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "query_ok_frac": "frac",
}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30,
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    """Machine and library record; its child run also warms the bytecode cache."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--env"],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import flowfit from {ROOT / 'src'}:\n{proc.stderr}")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **json.loads(proc.stdout.splitlines()[-1]),
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(),
    }


def launch(work: Path, index: int, traced: bool, timeout: float) -> dict:
    """One child run; its record, with the output directory it wrote."""
    out, result = work / f"run{index}", work / f"run{index}.json"
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--config", str(work / "config.json"), "--out", str(out),
        "--result", str(result), "--launched", repr(now()),
    ]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "out": out, "error": f"timed out after {timeout:.0f}s"}
    if not result.is_file():
        return {"traced": traced, "out": out, "error": proc.stderr[-2000:] or "no record"}
    record = json.loads(result.read_text())
    record.update(traced=traced, out=out)
    return record


def measure(workload, seconds: float, trace: bool, work: Path) -> list[dict]:
    """Child runs, one at a time, until ``seconds`` are spent."""
    kinds = (False, True) if trace else (False,)
    min_runs = 4 if trace else 2
    runs: list[dict] = []
    start = now()
    while True:
        traced = kinds[len(runs) % len(kinds)]
        spent = now() - start
        same = [r["elapsed"] for r in runs if r["traced"] == traced]
        if len(runs) >= min_runs and spent + (median(same) if same else 0.0) > seconds:
            break
        remaining = DEADLINE_S - spent
        if remaining <= 0:
            break
        t0 = now()
        record = launch(work, len(runs), traced, remaining)
        record["elapsed"] = now() - t0
        runs.append(record)
        if "error" in record and "wall_s" not in record:
            break  # the program cannot run at all; more runs would not help
    return runs


def check(workload, runs: list[dict]) -> tuple[list[str], int, int, list[dict]]:
    """Correctness of every run; attempted and failed queries."""
    problems, attempted, failed = [], 0, 0
    reference = None
    for k, run in enumerate(runs):
        mine = []
        if run.get("error") or run.get("rc") != 0:
            mine.append(f"run failed: {(run.get('error') or '').strip()[-300:]}")
        found, rows, data = gates.check_outputs(run["out"], workload.gate, reference)
        mine += found
        if reference is None and data is not None:
            reference = data
        recert = run.get("trace", {}).get("recertify", {})
        if recert.get("failed"):
            mine.append(f"{recert['failed']} of {recert['checked']} stencils fail re-check")
        a, f = gates.tally(rows, workload.queries_per_row, workload.planned_rows, not mine)
        run.update(rows=len(rows), attempted=a, failed=f, problems=mine)
        attempted += a
        failed += f
        problems += [f"run {k}: {p}" for p in mine]
    traced = [r["trace"] for r in runs if r["traced"] and "trace" in r]
    problems += [f"traced runs disagree: {p}" for p in layers.count_mismatches(traced)]
    return problems, attempted, failed, traced


def end_to_end(runs: list[dict], attempted: int, failed: int) -> dict:
    plain = [r for r in runs if not r["traced"] and "wall_s" in r]
    out = {
        name: {"value": median([r[name] for r in plain]), "unit": unit}
        for name, unit in END_TO_END_UNITS.items() if name != "query_ok_frac"
    }
    out["query_ok_frac"] = {"value": 1.0 - failed / attempted, "unit": "frac"}
    return out


def per_layer(workload, runs: list[dict], traced: list[dict]) -> dict:
    out = layers.span_and_counter_metrics(traced)
    with_trace = [r for r in runs if r["traced"]]
    timed = [r for r in with_trace if "wall_s" in r]  # a timed-out run has none
    plain = [r["wall_s"] for r in runs if not r["traced"] and "wall_s" in r]
    rows = timed[0]["rows"]
    attempted = sum(r["attempted"] for r in with_trace)
    out["harness.replicates"] = {"value": rows, "unit": "count"}
    out["harness.queries"] = {"value": rows * workload.queries_per_row, "unit": "count"}
    out["harness.query_fail_frac"] = {
        "value": sum(r["failed"] for r in with_trace) / attempted, "unit": "frac"}
    out["trace.overhead_frac"] = {
        "value": median([r["wall_s"] for r in timed]) / median(plain) - 1.0,
        "unit": "frac",
    }
    units = layers.metric_units()
    return {name: out[name] for name in units}


def result_metrics(metrics: dict) -> dict:
    """The metrics as the result line holds them: each only its value and unit.

    Sample counts and absent flags stay in the printed lines and the record.
    """
    return {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "flowfit" / "cli.py").is_file():
        print(f"no flowfit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    config = workload.make_config(args.seed)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env = environment()
        (work / "config.json").write_text(json.dumps(config))
        runs = measure(workload, args.seconds, bool(args.trace), work)
        problems, attempted, failed, traced = check(workload, runs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    timed = [r for r in runs if "wall_s" in r]
    if not any(not r["traced"] for r in timed) or (args.trace and not traced):
        for p in problems:
            print(p, file=sys.stderr)
        print("no run reached a result; nothing to report", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer(workload, runs, traced)
    else:
        metrics = end_to_end(runs, attempted, failed)
    summary = {
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": result_metrics(metrics),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config": config, "environment": env,
        "problems": problems, **summary, "metrics": metrics,
        "runs": [
            {k: v for k, v in r.items() if k not in ("out", "trace")} for r in runs
        ],
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{work.name}-{stamp}.json"
    path.write_text(json.dumps(record, indent=1))

    for p in problems:
        print(f"FAILED CHECK {p}")
    if any(t["recertify"]["absent"] for t in traced):
        print("ABSENT snake.check_stencil: returned stencils were not re-certified")
    print(f"{args.workload} seed {args.seed}: {len(runs)} runs, "
          f"{failed}/{attempted} queries failed, record in {path.relative_to(ROOT)}")
    if not args.trace:
        print(f"  query_fail_frac = {failed / attempted:.6g} frac")
    for name, m in metrics.items():
        extra = f" (n={m['samples']})" if "samples" in m else ""
        extra += " ABSENT" if m.get("absent") else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{extra}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
