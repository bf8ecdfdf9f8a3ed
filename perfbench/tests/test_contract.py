"""The result line names exactly the metrics of BENCHMARK.json, with units.

    python3 -m pytest perfbench/tests -q

``PERFBENCH_E2E=1`` also runs the real benchmark briefly on every workload,
traced and untraced (a few minutes on one CPU).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, WrongOutput  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def names(kind: str) -> set[str]:
    return {m["name"] for m in SPEC[kind]}


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    all_names = [w["name"] for w in SPEC["workloads"]]
    for kind in ("end_to_end", "per_layer"):
        all_names += [m["name"] for m in SPEC[kind]]
        for m in SPEC[kind]:
            assert UNIT.match(m["unit"]), m
            assert m["better"] in ("higher", "lower"), m
            if kind == "end_to_end":
                assert set(m) == {"name", "unit", "better", "bound"}
                assert 0 < m["bound"] <= 0.25, m
            else:
                assert set(m) == {"name", "unit", "better"}
    assert all(NAME.match(n) for n in all_names)
    assert len(all_names) == len(set(all_names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_spec_workloads_are_implemented():
    # kg_job runs only inside traced runs (see NOTES.md), so the spec lists
    # a subset of the implemented workloads.
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert set(WORKLOADS) - {w["name"] for w in SPEC["workloads"]} == {"kg_job"}


def test_end_to_end_values_are_the_named_metrics():
    values = run.end_to_end_values(100, [1.0, 2.0, 3.0], [0.5, 0.4], [2 << 20, 3 << 20], 2, 0)
    line = json.loads(run.result_line(SPEC, "end_to_end", values, 2, 0))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == names("end_to_end")
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, m in line["metrics"].items():
        assert m["unit"] == units[name]
        assert isinstance(m["value"], float)
    assert line["metrics"]["setup_s"]["value"] == 2.0
    assert line["metrics"]["docs_per_s"]["value"] == pytest.approx(100 / 0.45)


def test_per_layer_values_are_the_named_metrics():
    tr = Tracer()
    passes = {}
    for wl in WORKLOADS:
        tr.run = f"{wl}#0"
        with tr.span("pipeline.phase_a"):
            tr.count("linked_rows", 4)
        passes[wl] = [{"run": tr.run, "wall_s": 1.1,
                       "exchange": {"busy_s": 0.1, "bytes": 10.0, "ops": 1, "all_busy_s": 0.2}}]
    values = run.layer_metrics(tr, passes, "kg_build", [1.0])
    line = json.loads(run.result_line(SPEC, "per_layer", values, 4, 0))
    assert set(line["metrics"]) == names("per_layer")
    assert line["metrics"]["trace.slowdown"]["value"] == pytest.approx(1.1)


class FakeWorkload:
    """Collects instantly, verifies slowly; ``wrong`` makes verification fail."""

    name = "fake"

    def __init__(self, wrong: bool):
        self.wrong = wrong

    def before_pass(self, env):
        pass

    def run(self, env, inputs):
        return {"out": 1}

    def verify(self, env, inputs, got):
        time.sleep(0.2)
        if self.wrong:
            raise WrongOutput("out: rows differ from the reference")


def test_pass_time_stops_before_verification():
    _, dt, ok, _ = run.one_pass(FakeWorkload(wrong=False), None, None)
    assert ok and dt < 0.1
    _, _, ok, _ = run.one_pass(FakeWorkload(wrong=True), None, None)
    assert not ok


def test_result_line_rejects_missing_and_unnamed():
    values = run.end_to_end_values(1, [1.0], [1.0], [1], 1, 0)
    with pytest.raises(ValueError):
        run.result_line(SPEC, "end_to_end", {**values, "extra": 1.0}, 1, 0)
    values.pop("setup_s")
    with pytest.raises(ValueError):
        run.result_line(SPEC, "end_to_end", values, 1, 0)


def test_fails_without_the_program(tmp_path):
    """In a tree holding only BENCHMARK.json and the benchmark it exits
    non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", SPEC["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""


@pytest.mark.skipif(os.environ.get("PERFBENCH_E2E") != "1",
                    reason="set PERFBENCH_E2E=1 to run the benchmark itself")
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(w["name"] for w in SPEC["workloads"]))
def test_real_run_emits_the_named_metrics(workload, trace):
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == units
