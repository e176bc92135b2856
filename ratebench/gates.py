"""Correctness checks on one ``flowfit benchmark`` output, and query accounting.

Pure Python on purpose: the benchmark's own process never imports the
program or numpy, so its checks cannot share a defect with the code under
test.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

OUTPUT_FILES = ("results.csv", "plot.csv", "report.json")


def read_results(text: str) -> list[tuple[int, int, float, int]]:
    """Rows ``(n, replicate, error, failures)`` of a ``results.csv``."""
    return [
        (int(rec["n"]), int(rec["replicate"]), float(rec["error"]), int(rec["failures"]))
        for rec in csv.DictReader(io.StringIO(text))
    ]


def log_slope(ns, values) -> float:
    """Least-squares slope of ``log(values)`` against ``log(ns)``."""
    xs = [math.log(n) for n in ns]
    ys = [math.log(v) for v in values]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


def _per_n(rows) -> dict[int, list[float]]:
    out: dict[int, list[float]] = {}
    for n, _, error, _ in rows:
        out.setdefault(n, []).append(error)
    return dict(sorted(out.items()))


def rmse_slope(rows) -> float:
    """Slope of the per-n root mean square of replicate errors (criterion 05)."""
    by_n = _per_n(rows)
    return log_slope(
        list(by_n), [math.sqrt(sum(e * e for e in v) / len(v)) for v in by_n.values()]
    )


def mean_slope(rows) -> float:
    """Slope of the per-n mean of replicate errors (criterion 06)."""
    by_n = _per_n(rows)
    return log_slope(list(by_n), [sum(v) / len(v) for v in by_n.values()])


def rate_problem(gate: tuple | None, rows) -> str | None:
    """The rate gate's complaint about ``rows``, or None when it holds.

    ``gate`` is ``("rmse", lo, hi)`` or ``("mean", lo, hi)``: the slope
    of that statistic must lie in ``[lo, hi]``.  None means no rate gate.
    """
    if gate is None:
        return None
    stat, lo, hi = gate
    slope = rmse_slope(rows) if stat == "rmse" else mean_slope(rows)
    if lo <= slope <= hi:
        return None
    return f"{stat} slope {slope:.4f} outside [{lo}, {hi}]"


def check_outputs(
    out_dir: Path, gate: tuple | None, reference: bytes | None
) -> tuple[list[str], list, bytes | None]:
    """Check one run's output directory.

    Returns ``(problems, rows, results_bytes)``.  The run must have
    written all three files; every error must be finite and positive;
    ``results.csv`` must equal ``reference`` byte for byte when one is
    given; and the rate gate must hold.
    """
    missing = [name for name in OUTPUT_FILES if not (out_dir / name).is_file()]
    if missing:
        return [f"missing {', '.join(missing)}"], [], None
    data = (out_dir / "results.csv").read_bytes()
    rows = read_results(data.decode())
    problems = []
    if not rows:
        problems.append("results.csv has no rows")
    bad = [r for r in rows if not (math.isfinite(r[2]) and r[2] > 0)]
    if bad:
        problems.append(f"{len(bad)} errors not finite and positive")
    if reference is not None and data != reference:
        problems.append("results.csv differs from the first run of this seed")
    if rows and not bad:
        complaint = rate_problem(gate, rows)
        if complaint:
            problems.append(complaint)
    return problems, rows, data


def tally(rows, queries_per_row: int, planned_rows: int, ok: bool) -> tuple[int, int]:
    """Attempted and failed queries of one run.

    Attempted is ``planned_rows * queries_per_row``, the replication plan
    whether or not the run finished.  Failed is the ``failures`` column's
    sum, or every attempted query when the run failed a check.
    """
    attempted = planned_rows * queries_per_row
    if not ok:
        return attempted, attempted
    return attempted, min(attempted, sum(r[3] for r in rows))
