"""Self time, span nesting, patching and exchange totals."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from spans import Tracer, exchange_totals, patched, self_times  # noqa: E402


def span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "run": "r"}


def test_self_time_on_hand_built_tree():
    # root [0,10] has children a [1,4] and b [3,6] (overlapping: union [1,6]);
    # a has child c [2,3]; a second root-level "a" [7,8] has no children.
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("b", 3.0, 6.0, 0),
        span("c", 2.0, 3.0, 1),
        span("a", 7.0, 8.0, 0),
    ]
    got = self_times(spans)
    assert got["root"] == pytest.approx(10 - 5 - 1)  # [1,6] and [7,8] covered
    assert got["a"] == pytest.approx((3 - 1) + 1)  # summed over both "a" spans
    assert got["b"] == pytest.approx(3)
    assert got["c"] == pytest.approx(1)


def test_child_outside_parent_is_clipped():
    spans = [span("p", 0.0, 2.0, -1), span("q", 1.0, 5.0, 0)]
    assert self_times(spans)["p"] == pytest.approx(1.0)


def test_tracer_records_parents_runs_and_counts():
    tr = Tracer()
    tr.run = "w#0"
    with tr.span("outer"):
        with tr.span("inner"):
            tr.count("rows", 3)
        tr.count("rows", 2)
    assert [s["parent"] for s in tr.spans] == [-1, 0]
    assert {s["run"] for s in tr.spans} == {"w#0"}
    assert all(s["end"] >= s["start"] for s in tr.spans)
    assert tr.counts == {("w#0", "rows"): 5}
    assert tr.durations("w#0", "outer") >= tr.durations("w#0", "inner")


def test_wrap_runs_after_inside_the_span_and_patched_restores():
    class Mod:
        @staticmethod
        def f(x):
            return x + 1

    tr = Tracer()
    wrapped = tr.wrap("f", Mod.f, after=lambda out, x: out * 10)
    with pytest.raises(RuntimeError):
        with patched(Mod, "f", wrapped):
            assert Mod.f(1) == 20
            raise RuntimeError
    assert Mod.f(1) == 2
    assert [s["name"] for s in tr.spans] == ["f"]


def test_exchange_totals_count_shared_parents_once():
    shared = {"name": "SortMap", "exchange": True, "busy_s": 0.5, "out_bytes": 100.0}
    ops = [
        shared, {"name": "SortReduce", "exchange": True, "busy_s": 0.25, "out_bytes": 90.0},
        dict(shared),  # the same execution reached through another dataset
        {"name": "MapBatches(f)", "exchange": False, "busy_s": 1.0, "out_bytes": 5.0},
    ]
    got = exchange_totals(ops)
    assert got == {"busy_s": 0.75, "bytes": 100.0, "ops": 1, "all_busy_s": 1.75}
