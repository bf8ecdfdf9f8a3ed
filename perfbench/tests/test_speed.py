"""The CPU speed sampler: samples in a window, their slowdown, clean stop."""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import speed  # noqa: E402


def test_slowdown_is_geometric_mean_of_kernel_slowdowns(tmp_path):
    log = tmp_path / "speed.log"
    log.write_text("10.0 0.0020 0.004\n11.0 0.0010 0.002\n12.0 0.0030 0.006\ntorn")
    probe = speed.SpeedProbe(log)
    assert probe.samples(10.5, 12.0) == [(0.0010, 0.002), (0.0030, 0.006)]
    compute = 0.0015 / speed.REF_COMPUTE_S
    stream = 0.003 / speed.REF_STREAM_S
    assert probe.slowdown(10.0, 11.0) == pytest.approx((compute * stream) ** 0.5)


def test_sampler_logs_while_running_and_stops(tmp_path):
    with speed.SpeedProbe(tmp_path / "speed.log") as probe:
        t0 = time.monotonic()
        time.sleep(1.0)
        t1 = time.monotonic()
        assert len(probe.samples(t0, t1)) >= 4
        assert probe.slowdown(t0, t1) > 0
        with pytest.raises(RuntimeError):
            probe.slowdown(t1 + 100, t1 + 101)
    assert probe.proc.poll() is not None
