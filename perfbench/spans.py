"""In-memory spans for the traced run, self times, and Ray operator stats.

A span is ``(name, start, end, parent, run)``: ``parent`` is the index of
the enclosing span (or -1) and ``run`` identifies the workload pass that
caused it.  Spans are recorded only by the benchmark's own wrappers around
calls into ``kgx``; nothing inside ``kgx`` is instrumented.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[tuple[str, str], float] = {}
        self._stack: list[int] = []
        self.run = ""

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            {"name": name, "start": time.perf_counter(), "end": None,
             "parent": parent, "run": self.run}
        )
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx]["end"] = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to the counter ``name`` of the current pass."""
        key = (self.run, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(result, *args, **kwargs)`` runs inside
        the same span and may replace the result (e.g. to execute a lazy
        Dataset where the span can see it)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
                if after is not None:
                    out = after(out, *args, **kwargs)
                return out

        return traced

    def durations(self, run: str, name: str) -> float:
        """Summed wall seconds of the spans ``name`` in pass ``run``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["run"] == run and s["name"] == name)

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        counts = [{"run": r, "name": n, "value": v} for (r, n), v in self.counts.items()]
        path.write_text(json.dumps(
            {**extra, "spans": self.spans, "self_times": self_times(self.spans),
             "counts": counts},
            indent=1,
        ))


@contextmanager
def patched(obj, attr: str, replacement):
    """Temporarily replace ``obj.attr`` (restored even if the body raises)."""
    original = getattr(obj, attr)
    setattr(obj, attr, replacement)
    try:
        yield original
    finally:
        setattr(obj, attr, original)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name, the summed self time: each span's duration minus the
    part of its interval that its direct children cover (overlapping
    children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(i, [])):
            a, b = max(a, s["start"]), min(b, s["end"])
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - covered
    return out


# ---------------------------------------------------------------------------
# Ray Data per-operator stats
# ---------------------------------------------------------------------------


def operator_stats(ds) -> list[dict] | None:
    """Executed operators of ``ds`` and its parent datasets, one dict each:
    ``name``, ``exchange`` (an all-to-all sub-stage), ``busy_s`` (summed
    task wall time) and ``out_bytes``.  A parent shared by several datasets
    appears once per dataset; ``exchange_totals`` removes the repeats.

    Reads the private ``Dataset._get_stats_summary()``; returns None when
    that API is missing or changed shape, so callers can report the
    exchange numbers as unavailable instead of failing the run."""
    try:
        summary = ds._get_stats_summary()
        out: list[dict] = []
        stack = [summary]
        while stack:
            s = stack.pop()
            for op in s.operators_stats:
                wall = op.wall_time or {}
                size = op.output_size_bytes or {}
                out.append({
                    "name": op.operator_name,
                    "exchange": bool(op.is_sub_operator),
                    "busy_s": float(wall.get("sum", op.time_total_s)),
                    "out_bytes": float(size.get("sum", 0)),
                })
            stack.extend(s.parents)
        return out
    except (AttributeError, TypeError, KeyError):
        return None


def exchange_totals(ops: list[dict]) -> dict:
    """All-to-all totals over de-duplicated operators: busy seconds of every
    sub-stage, bytes written by the map/split side (the shuffle's input),
    and the exchange count (one reduce side per exchange).

    Ray leaves most summaries without a dataset id, so an operator is known
    by its name and its measured numbers: the same execution reached through
    two datasets repeats them exactly."""
    uniq = {tuple(sorted(op.items())): op for op in ops}.values()
    ex = [op for op in uniq if op["exchange"]]
    return {
        "busy_s": sum(op["busy_s"] for op in ex),
        "bytes": sum(op["out_bytes"] for op in ex
                     if op["name"].endswith(("Map", "Split"))),
        "ops": sum(1 for op in ex if op["name"].endswith("Reduce")),
        "all_busy_s": sum(op["busy_s"] for op in uniq),
    }


def exchange_summary(datasets: list) -> dict | None:
    """Exchange totals over the datasets a pass executed, or None when Ray's
    per-operator stats are unavailable."""
    ops: list[dict] = []
    for ds in datasets:
        got = operator_stats(ds)
        if got is None:
            return None
        ops.extend(got)
    return exchange_totals(ops)
