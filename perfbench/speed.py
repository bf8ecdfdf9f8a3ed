"""Host CPU speed, sampled while the benchmark runs.

On a shared host the CPU that a run is pinned to changes speed within
seconds and for minutes, in CPU time as in wall time.  A fixed interpreter
kernel takes up to 1.7 times as long in one second as in the next, and a
sum over a few MiB of memory up to 3.7 times: neighbours contend for the
core and for the caches and memory behind it.  Pass times follow both.  So
while the passes run, a small process pinned to the same CPU times two
fixed kernels every ``INTERVAL`` seconds and logs their CPU time.  CPU
time, not wall time: waiting for the CPU while the program under test runs
does not count, only how fast the CPU runs.

A pass's slowdown is the geometric mean of the two kernels' slowdowns, each
its mean time sampled during the pass over its reference time.  ``run.py``
divides the pass time by it.

    python3 perfbench/speed.py <log file>    # the sampler (started by SpeedProbe)
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

INTERVAL = 0.1  # seconds of sleep between two samples
COMPUTE_ROUNDS = 1000  # about 1 ms of CPU when the CPU runs fast
STREAM_FLOATS = 1 << 19  # 4 MiB of float64, about 1 ms when the CPU runs fast
# Each kernel's CPU time at the speed a pass time is scaled to: about its
# time when the CPU runs fast on the 4-vCPU shared VM the benchmark was
# built on.  Constants, so that scaled times compare across runs.
REF_COMPUTE_S = 0.0010
REF_STREAM_S = 0.0010


def compute() -> None:
    """Fixed interpreter, hashing and dict work."""
    d: dict = {}
    for i in range(COMPUTE_ROUNDS):
        d[i & 63] = hashlib.md5(str(i).encode()).digest()


def sample(out) -> None:
    """Log ``<monotonic end> <compute CPU s> <stream CPU s>`` lines until
    the parent is gone."""
    import numpy as np

    floats = np.ones(STREAM_FLOATS)
    parent = os.getppid()
    while os.getppid() == parent:
        t = time.thread_time()
        compute()
        t1 = time.thread_time()
        floats.sum()
        t2 = time.thread_time()
        out.write(f"{time.monotonic():.6f} {t1 - t:.7f} {t2 - t1:.7f}\n")
        out.flush()
        time.sleep(INTERVAL)


def slowdown_of(samples: list[tuple[float, float]]) -> float:
    """Geometric mean of the compute and stream slowdowns of ``samples``."""
    c = statistics.fmean(s[0] for s in samples) / REF_COMPUTE_S
    m = statistics.fmean(s[1] for s in samples) / REF_STREAM_S
    return math.sqrt(c * m)


class SpeedProbe:
    """The sampler process, pinned to this process's CPUs (``with``
    starts it, leaving the block stops it and waits for it)."""

    def __init__(self, log: Path):
        self.log = log
        self.proc: subprocess.Popen | None = None

    def __enter__(self) -> "SpeedProbe":
        self.log.parent.mkdir(parents=True, exist_ok=True)
        self.log.write_text("")
        self.proc = subprocess.Popen([sys.executable, __file__, str(self.log)],
                                     stdin=subprocess.DEVNULL)
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        self.proc.wait()

    def samples(self, t0: float, t1: float) -> list[tuple[float, float]]:
        """(compute, stream) CPU times of the samples that ended in
        [t0, t1] (``time.monotonic`` clock)."""
        out = []
        for line in self.log.read_text().splitlines():
            parts = line.split()
            if len(parts) == 3 and t0 <= float(parts[0]) <= t1:
                out.append((float(parts[1]), float(parts[2])))
        return out

    def slowdown(self, t0: float, t1: float) -> float:
        """The CPU slowdown sampled in [t0, t1]."""
        got = self.samples(t0, t1)
        if not got:
            raise RuntimeError(f"speed sampler logged nothing in {t1 - t0:.3f} s "
                               f"(exit code {self.proc.poll()})")
        return slowdown_of(got)


if __name__ == "__main__":
    with open(sys.argv[1], "a") as log:
        sample(log)
