"""In-memory spans around the benchmark's calls into srdual, and the
statistics the benchmark reports from them.

A span records ``name, start, end, parent, op, error``.  ``parent`` is
the index of the enclosing span (or -1) and ``op`` the id shared by the
spans of one checked operation (one complex, one search).  Nothing is
written while the workload runs; ``write_jsonl`` dumps the spans at the
end.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from typing import NamedTuple

clock = time.perf_counter


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    op: int
    error: bool


class NullTracer:
    """Tracing off: calls go straight through, nothing is recorded."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def op(self, name):
        yield


class Tracer:
    """Records one span per call; ``op`` opens a parent span with a new op id."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = 0
        self._next_op = 0

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, clock(), 0.0, parent, self._op, False))
        self._stack.append(idx)
        return idx

    def _close(self, idx, error):
        self._stack.pop()
        self.spans[idx] = self.spans[idx]._replace(end=clock(), error=error)

    def call(self, name, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self._close(idx, True)
            raise
        self._close(idx, False)
        return out

    @contextmanager
    def op(self, name):
        outer = self._op
        self._next_op += 1
        self._op = self._next_op
        idx = self._open(name)
        error = True
        try:
            yield
            error = False
        finally:
            self._close(idx, error)
            self._op = outer

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "op": s.op, "error": s.error}) + "\n")


def span_cost_s(samples=2000):
    """Mean cost of recording one span, measured on empty calls."""
    tr = Tracer()
    noop = int
    t0 = clock()
    for _ in range(samples):
        tr.call("calibrate", noop)
    traced = clock() - t0
    t0 = clock()
    for _ in range(samples):
        noop()
    bare = clock() - t0
    return max(traced - bare, 0.0) / samples


def self_times(spans):
    """Per span: duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def tail(samples, beyond=10):
    """Highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, samples_beyond)``.  Below
    ``2 * beyond + 1`` samples that percentile would not lie above the
    median, so the maximum is returned instead, with percentile 100 and
    0 samples beyond it.
    """
    if not samples:
        raise ValueError("no samples")
    s = sorted(samples)
    n = len(s)
    idx = n - 1 - beyond if n > 2 * beyond else n - 1
    return s[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def layer_stats(spans):
    """name -> calls, busy_s, self_s, p50_ms, max_ms, errors."""
    selfs = self_times(spans)
    per: dict[str, dict] = {}
    for s, own in zip(spans, selfs):
        row = per.setdefault(s.name, {"durs": [], "self_s": 0.0, "errors": 0})
        row["durs"].append(s.end - s.start)
        row["self_s"] += own
        row["errors"] += s.error
    out = {}
    for name, row in per.items():
        durs = row["durs"]
        out[name] = {"calls": len(durs), "busy_s": sum(durs),
                     "self_s": row["self_s"],
                     "p50_ms": 1e3 * statistics.median(durs),
                     "max_ms": 1e3 * max(durs), "errors": row["errors"]}
    return out
