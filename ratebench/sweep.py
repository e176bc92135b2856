"""Run the benchmark over ten seeds and record medians, quartiles and spreads.

    python3 ratebench/sweep.py --out ratebench/baseline/seed-commit.json

For every workload this runs ``run.py`` once per seed 1 to 10 with
tracing off, then twice on seed 1 with tracing on, one run at a time, each
for the ``run_seconds`` of ``BENCHMARK.json``.  The output file holds, per
workload, every run's summary line and, per end-to-end metric, the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread ``(q3 - q1) / median``.  Each ``run.py`` invocation already fails
its ``correct`` flag when its traced runs disagree on a call count.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import environment  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = range(1, 11)
TRACED_SEEDS = (1, 1)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    report = {"seconds": seconds, "environment": environment(), "workloads": {}}
    for name in WORKLOADS:
        runs = []
        for seed in SEEDS:
            runs.append({"seed": seed, **one_run(name, seed, seconds, 0)})
            print(name, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        traced = [{"seed": seed, **one_run(name, seed, seconds, 1)} for seed in TRACED_SEEDS]
        metrics = {
            m: spread([r["metrics"][m]["value"] for r in runs]) for m in runs[0]["metrics"]
        }
        report["workloads"][name] = {
            "all_correct": all(r["correct"] for r in runs + traced),
            "end_to_end": metrics,
            "runs": runs,
            "traced": traced,
        }
        for m, s in metrics.items():
            print(f"{name} {m}: median {s['median']:.6g} spread {s['spread']}", flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
