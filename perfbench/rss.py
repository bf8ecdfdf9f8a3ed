"""Peak summed RSS of this process and its Ray worker processes, and a
wait for the Ray processes to end.

A daemon thread samples ``/proc`` every ``interval`` seconds: it finds the
descendants of this process whose command name starts with ``ray::`` (Ray
workers re-title themselves so) and adds their resident set to ours.
"""

from __future__ import annotations

import os
import threading
import time

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _proc_table() -> dict[int, tuple[int, str, int, str]]:
    """pid -> (ppid, comm, rss bytes, state) for every readable process."""
    out = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as f:
                raw = f.read().decode("utf-8", "replace")
        except OSError:  # the process ended between listdir and open
            continue
        lpar, rpar = raw.index("("), raw.rindex(")")
        fields = raw[rpar + 2:].split()
        # fields[0] is the state (stat field 3): ppid is field 4, rss field 24
        out[int(entry)] = (int(fields[1]), raw[lpar + 1:rpar], int(fields[21]) * _PAGE,
                           fields[0])
    return out


def descendants(root: int, table: dict | None = None) -> list[int]:
    """Every live descendant of ``root`` (zombies excluded)."""
    table = _proc_table() if table is None else table
    children: dict[int, list[int]] = {}
    for pid, (ppid, _, _, state) in table.items():
        if state != "Z":
            children.setdefault(ppid, []).append(pid)
    out, stack = [], list(children.get(root, []))
    while stack:
        pid = stack.pop()
        out.append(pid)
        stack.extend(children.get(pid, []))
    return out


def own_and_worker_rss(root: int) -> int:
    table = _proc_table()
    total = table[root][2] if root in table else 0
    for pid in descendants(root, table):
        _, comm, rss, _ = table[pid]
        if comm.startswith("ray::"):
            total += rss
    return total


def wait_gone(pids: list[int], timeout: float) -> None:
    """Wait until none of ``pids`` is alive (or ``timeout`` seconds pass)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        table = _proc_table()
        if not any(p in table and table[p][3] != "Z" for p in pids):
            return
        time.sleep(0.05)


class PeakRss:
    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self._peak = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def _loop(self) -> None:
        root = os.getpid()
        while not self._stop.is_set():
            rss = own_and_worker_rss(root)
            with self._lock:
                self._peak = max(self._peak, rss)
            self._stop.wait(self.interval)

    def take(self) -> int:
        """Peak bytes since the previous ``take`` (one last sample included)."""
        rss = own_and_worker_rss(os.getpid())
        with self._lock:
            peak, self._peak = max(self._peak, rss), 0
        return peak
