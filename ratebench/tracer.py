"""In-memory spans and counters, and the statistics the report draws from them.

A :class:`Tracer` records one span per wrapped call: its name, start, end
and the span that was open when it started.  Nothing is written while the
program runs; :func:`summarize` reduces the spans once at the end.

A span's self time is its duration minus the durations of its direct
children.  Calls run on one thread, so children never overlap and the
subtraction is exact.  Counters are read from what the program already
computes, so no span holds work of the benchmark's own.
"""

from __future__ import annotations

import contextlib
import functools
import math
import statistics
import time


class Tracer:
    """Span and counter store for one traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def current(self) -> str | None:
        """Name of the innermost open span, if any."""
        return self.names[self._stack[-1]] if self._stack else None

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, after=None, on_error=None):
        """``fn`` with a span around each call.

        ``after(args, kwargs, result)`` and ``on_error(exc)`` run once the
        span has closed.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.close(idx)
                if on_error is not None:
                    on_error(exc)
                raise
            self.close(idx)
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced


def summarize(tracer: Tracer, keep_durations=()) -> dict:
    """Per span name: calls, inclusive and self seconds.

    Names in ``keep_durations`` also keep every call's duration in
    milliseconds, for percentiles.
    """
    n = len(tracer.names)
    child_sum = [0.0] * n
    durations = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
    for i in range(n):
        if math.isnan(durations[i]):
            raise RuntimeError(f"span {tracer.names[i]!r} was never closed")
        parent = tracer.parents[i]
        if parent >= 0:
            child_sum[parent] += durations[i]
    out: dict[str, dict] = {}
    for i in range(n):
        name = tracer.names[i]
        rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["total_s"] += durations[i]
        rec["self_s"] += durations[i] - child_sum[i]
        if name in keep_durations:
            rec.setdefault("durations_ms", []).append(1e3 * durations[i])
    return out


def percentile(values, q: float) -> tuple[float, int]:
    """Linearly interpolated ``q``-th percentile and the sample count.

    Matches numpy's default method.  An empty sample gives ``(0.0, 0)``.
    """
    xs = sorted(values)
    if not xs:
        return 0.0, 0
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), len(xs)


def median(values) -> float:
    return float(statistics.median(values))
