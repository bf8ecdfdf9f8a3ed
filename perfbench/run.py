"""kgx benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload kg_build --seed 1 --seconds 16 --trace 0

Run from the root of a kgx source tree.  The seed goes to the input
generators only (``gen.py``); the program sees the Parquet files.  Inputs
and references are cached per seed under ``.pbw/`` in the tree.

``--trace 0``: ``SETUPS`` times, set up (Ray session, kgx import, knowledge
base broadcast, warm-up) and run untraced passes of the workload for a
``SETUPS``-th of ``--seconds``; every pass is verified against the
reference, and its time is scaled by the CPU slowdown sampled during it
(``speed.py``).  Prints the ``end_to_end`` metrics of ``BENCHMARK.json``.

``--trace 1``: set up once, then alternate untraced and traced passes of the
workload for ``--seconds`` and make one traced pass of every other
workload, so every layer is measured on the workload that exercises it.
Prints the ``per_layer`` metrics and writes spans and self times to
``.pbw/traces/<workload>-seed<n>.json``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

SETUPS = 2  # set-ups (Ray sessions) per untraced run; setup_s is their median
OBJECT_STORE_BYTES = 512 * 1024 * 1024
MIB = 1024 * 1024
RAY_SOCKET_SUFFIX = 64  # len("/session_2026-10-17_00-00-18_243439_1234567/sockets/plasma_store")


def nproc() -> int:
    """What ``nproc`` prints: OMP_NUM_THREADS if set, else the CPUs this
    process may run on."""
    omp = os.environ.get("OMP_NUM_THREADS", "")
    if omp.isdigit() and int(omp) > 0:
        return int(omp)
    return len(os.sched_getaffinity(0))


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def result_line(spec: dict, kind: str, values: dict, attempted: int,
                failed: int) -> str:
    """The final JSON line; ``values`` must name exactly the metrics of
    ``spec[kind]``, each gets its declared unit."""
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(values) != set(units):
        raise ValueError(
            f"{kind}: missing {sorted(set(units) - set(values))}, "
            f"unnamed {sorted(set(values) - set(units))}"
        )
    return json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(values[n]), "unit": units[n]} for n in units},
    })


def source_digest(root: Path) -> str:
    """sha256 over the program's sources (the tree is not a git checkout)."""
    h = hashlib.sha256()
    files = sorted((root / "kgx").rglob("*.py")) + sorted((root / "config").rglob("*.yaml"))
    for f in files + [root / "scripts" / "run_kg.py"]:
        h.update(str(f.relative_to(root)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def git_sha(root: Path) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


# ---------------------------------------------------------------------------
# Ray session
# ---------------------------------------------------------------------------


def start_ray(work: Path) -> None:
    import logging

    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=nproc(),
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        _temp_dir=os.environ["RAY_TMPDIR"],
    )
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def stop_ray(keep: set[int]) -> None:
    """Shut the session down and wait until every process it started ended
    (our other child processes, ``keep``, go on running)."""
    import ray

    from rss import descendants, wait_gone

    started = [p for p in descendants(os.getpid()) if p not in keep]
    ray.shutdown()
    wait_gone(started, timeout=30)


def set_up(work: Path, workloads: list, import_s: float):
    """Ray session, knowledge base + broadcast (KG workloads), one warm-up
    per workload.  Returns (env, seconds including the kgx import)."""
    from kgx import config_loader, pipeline, synth

    from workloads import Env

    t0 = time.perf_counter()
    start_ray(work)
    kb = refs = None
    if any(w.needs_kb for w in workloads):
        kb = synth.build_knowledge_base()
        refs = pipeline.broadcast_kb(kb)
    env = Env(work, config_loader.resolve_settings(), kb, refs)
    for w in workloads:
        w.warm_up(env)
    return env, import_s + time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def one_pass(w, env, inputs, tracer=None) -> tuple[float, float, bool, list]:
    """Time one pass up to its collected outputs, then verify them (untimed);
    returns (start on the ``time.monotonic`` clock, seconds, ok, executed
    datasets).  A traced pass is followed by the workload's untimed side
    measurements."""
    w.before_pass(env)
    executed: list = []
    t0 = time.monotonic()
    try:
        if tracer is None:
            got = w.run(env, inputs)
        else:
            with tracer.span(w.name):
                got, executed = w.traced(env, inputs, tracer)
        dt = time.monotonic() - t0
        w.verify(env, inputs, got)
        if tracer is not None:
            w.side(env, inputs, tracer)
        return t0, dt, True, executed
    except Exception:  # one failed pass is a counted failure, not a crash
        traceback.print_exc(file=sys.stderr)
        return t0, time.monotonic() - t0, False, executed


def run_untraced(w, inputs, work: Path, seconds: float, import_s: float, probe):
    """``SETUPS`` sessions, each set up and then measured for an equal share
    of ``seconds``: the passes of one run span several Ray sessions, so a
    slow or fast session moves the median less.  A session makes at least
    one pass, and no further pass that would end past its share.  Each
    pass time is divided by the CPU slowdown ``probe`` sampled during it."""
    from rss import PeakRss

    setups, times, peaks, attempted, failed = [], [], [], 0, 0
    raw, slowdowns, setup_slowdowns = [], [], []
    with PeakRss() as rss:
        for _ in range(SETUPS):
            began = time.monotonic()
            env, dt = set_up(work, [w], import_s)
            setups.append(dt)
            setup_slowdowns.append(probe.slowdown(began, time.monotonic()))
            start = time.perf_counter()
            while True:
                rss.take()
                t0 = time.perf_counter()
                began, dt, ok, _ = one_pass(w, env, inputs)
                peaks.append(rss.take())
                attempted += 1
                if ok:
                    slowdowns.append(probe.slowdown(began, began + dt))
                    raw.append(dt)
                    times.append(dt / slowdowns[-1])
                else:
                    failed += 1
                now = time.perf_counter()
                if now - start + (now - t0) > seconds / SETUPS:
                    break
            stop_ray({probe.proc.pid})
    values = end_to_end_values(w.docs(inputs), setups, times, peaks, attempted, failed)
    detail = {"setups_s": setups, "setup_slowdown": setup_slowdowns, "pass_s": raw,
              "slowdown": slowdowns, "scaled_pass_s": times,
              "peak_rss_mib": [p / MIB for p in peaks]}
    return values, attempted, failed, detail


def end_to_end_values(n_docs: int, setups: list[float], times: list[float],
                      peaks: list[int], attempted: int, failed: int) -> dict:
    """Medians over the set-ups and the verified passes of one run
    (``times``: the passes' scaled times)."""
    return {
        "docs_per_s": n_docs / statistics.median(times) if times else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(peaks) / MIB,
        "ok_ratio": (attempted - failed) / attempted,
    }


def run_traced(named, inputs, work: Path, seconds: float, import_s: float, probe):
    """Returns (per-layer values, attempted, failed, detail, tracer).  Span
    and pass times are as measured; the CPU slowdown ``probe`` sampled during
    each pass is recorded beside them."""
    from spans import Tracer, exchange_summary
    from workloads import WORKLOADS

    everyone = [named] + [w for n, w in WORKLOADS.items() if n != named.name]
    env, _ = set_up(work, everyone, import_s)
    tr = Tracer()
    passes: dict[str, list[dict]] = {w.name: [] for w in everyone}
    untraced_s: list[float] = []  # the named workload's untraced passes
    untraced_slowdown: list[float] = []
    attempted = failed = 0

    def untraced_pass(w) -> None:
        nonlocal attempted, failed
        began, dt, ok, _ = one_pass(w, env, inputs)
        attempted += 1
        if ok:
            untraced_s.append(dt)
            untraced_slowdown.append(probe.slowdown(began, began + dt))
        else:
            failed += 1

    def traced_pass(w) -> None:
        nonlocal attempted, failed
        tr.run = f"{w.name}#{attempted}"
        began, dt, ok, executed = one_pass(w, env, inputs, tr)
        attempted += 1
        if not ok:
            failed += 1
            return
        passes[w.name].append(
            {"run": tr.run, "wall_s": dt, "slowdown": probe.slowdown(began, began + dt),
             "exchange": exchange_summary(executed)}
        )

    # Pairs of the named workload while the next pair still ends within
    # ``seconds``, then one traced pass of each other workload.
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        untraced_pass(named)
        traced_pass(named)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    for w in everyone[1:]:
        traced_pass(w)
    stop_ray({probe.proc.pid})

    values = layer_metrics(tr, passes, named.name, untraced_s)
    detail = {"untraced_pass_s": untraced_s, "untraced_slowdown": untraced_slowdown,
              "passes": passes}
    return values, attempted, failed, detail, tr


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tr, passes: dict[str, list[dict]], named: str,
                  untraced_s: list[float]) -> dict:
    """Per-layer values: the median over the traced passes of the workload
    that exercises the layer; exchange and gap numbers and the tracing
    slowdown (traced over untraced pass time) come from the named workload,
    whose untraced pass times are ``untraced_s``."""
    from workloads import WORKLOADS

    def med(workload: str, fn) -> float:
        vals = [fn(p["run"], p) for p in passes[workload]]
        return _median(vals)

    def span(workload: str, name: str) -> float:
        return med(workload, lambda run, p: tr.durations(run, name))

    def count(workload: str, name: str) -> float:
        return med(workload, lambda run, p: tr.counts.get((run, name), 0))

    def ratio(workload: str, num: str, den: str) -> float:
        return med(workload, lambda run, p: _ratio(tr.counts.get((run, num), 0),
                                                   tr.counts.get((run, den), 0)))

    def exchange(key: str) -> float:
        return med(named, lambda run, p: (p["exchange"] or {}).get(key, 0.0))

    def gap(run: str, p: dict) -> float:
        wall = sum(tr.durations(run, s) for s in WORKLOADS[named].ray_spans)
        busy = (p["exchange"] or {}).get("all_busy_s", 0.0)
        return wall - busy

    def ray_vs_serial(run: str, p: dict) -> float:
        ray_s = tr.durations(run, "pipeline.phase_a") + tr.durations(run, "pipeline.phase_b")
        return _ratio(ray_s, tr.durations(run, "oracle.run"))

    kb, job, dd = "kg_build", "kg_job", "corpus_dedup"
    return {
        "kg_stages.extract_text.s": span(kb, "kg_stages.extract_text"),
        "kg_stages.segment.s": span(kb, "kg_stages.segment"),
        "kg_stages.triple_linker.s": span(kb, "kg_stages.triple_linker"),
        "kg_stages.segments_out": count(kb, "segments_out"),
        "kg_stages.linked_out": count(kb, "linked_out"),
        "pipeline.broadcast_kb.s": span(kb, "pipeline.broadcast_kb"),
        "pipeline.phase_a.s": span(kb, "pipeline.phase_a"),
        "pipeline.phase_b.s": span(kb, "pipeline.phase_b"),
        "wide.dedup_and_categorize.s": span(kb, "wide.dedup_and_categorize"),
        "wide.canonical_entities.s": span(kb, "wide.canonical_entities"),
        "wide.adjacency.s": span(kb, "wide.adjacency"),
        "wide.dedup_ratio": ratio(kb, "final_triples", "linked_rows"),
        "exchange.s": exchange("busy_s"),
        "exchange.bytes": exchange("bytes"),
        "exchange.ops": exchange("ops"),
        "ray.gap_s": med(named, gap),
        "dedup.exact.s": span(dd, "dedup.exact"),
        "corpus.ngram_topk.s": span(dd, "corpus.ngram_topk"),
        "dedup.minhash.s": span(dd, "dedup.minhash"),
        "dedup.minhash.candidates": count(dd, "minhash_candidates"),
        "dedup.minhash.verify_yield": ratio(dd, "minhash_pairs", "minhash_candidates"),
        "manifest.write.s": span(job, "manifest.write"),
        "manifest.write_bytes": count(job, "write_bytes"),
        "manifest.checksum.s": span(job, "manifest.checksum"),
        "manifest.checksum_rows": count(job, "checksum_rows"),
        "report.write.s": span(job, "report.write"),
        "run_kg.shard_scan.s": span(job, "run_kg.shard_scan"),
        "run_kg.scan_yield": ratio(job, "scan_kept", "scan_rows"),
        "run_kg.wall_s": med(job, lambda run, p: p["wall_s"]),
        "oracle.run.s": span(kb, "oracle.run"),
        "ray_vs_serial": med(kb, ray_vs_serial),
        "trace.slowdown": _ratio(med(named, lambda run, p: p["wall_s"]),
                                 _median(untraced_s)),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "kgx" / "__init__.py").is_file() or not (root / "scripts" / "run_kg.py").is_file():
        print("perfbench: run from the root of a kgx source tree "
              "(kgx/ and scripts/run_kg.py not found)", file=sys.stderr)
        return 2
    spec = load_spec(root)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work = root / ".pbw"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    # Ray puts Unix sockets up to 64 bytes below its temp dir, and AF_UNIX
    # paths stop at 107 bytes.  A tree whose path is too long for that gets
    # a short temp dir under /tmp instead, removed at exit.
    ray_dir = work / "r"
    if len(str(ray_dir).encode()) + RAY_SOCKET_SUFFIX > 107:
        ray_dir = Path(tempfile.mkdtemp(prefix="pbr", dir="/tmp"))
    try:
        return measure(args, root, spec, work, ray_dir)
    finally:
        if not ray_dir.is_relative_to(work):
            shutil.rmtree(ray_dir, ignore_errors=True)


def measure(args: argparse.Namespace, root: Path, spec: dict, work: Path,
            ray_dir: Path) -> int:
    # Ray workers inherit these: kgx importable, temp files inside the tree,
    # no usage reporting, one hash seed.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(root), str(root / "scripts"), os.environ.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ["RAY_TMPDIR"] = str(ray_dir)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    os.environ["PYTHONHASHSEED"] = "0"  # same set/dict order in every worker
    sys.path[:0] = [str(root), str(root / "scripts")]

    # Byte-compile the program first, so the first run in a fresh tree does
    # not pay for it inside set-up or the passes (workers import kgx too).
    compileall.compile_dir(str(root / "kgx"), quiet=1)

    import pyarrow
    import ray
    import ray.data  # noqa: F401  (imported before the timed kgx import)

    t0 = time.perf_counter()
    from kgx import config_loader, pipeline, queries, synth  # noqa: F401

    import_s = time.perf_counter() - t0

    import gen
    from speed import SpeedProbe
    from workloads import WORKLOADS

    named = WORKLOADS[args.workload]
    inputs = gen.Inputs(work, args.seed)
    # In a process of its own, so the memory of generating inputs and
    # references never counts in this process's peak RSS.
    kinds = sorted({w.input_rows for w in (WORKLOADS.values() if args.trace else [named])})
    subprocess.run([sys.executable, gen.__file__, str(work), str(args.seed), *kinds],
                   check=True, stdout=sys.stderr)

    # The benchmark and every Ray process it starts run on nproc CPUs.  On a
    # shared VM whose CPU share is below its vCPU count, spreading over idle
    # vCPUs turns into host steal and makes timings swing with the host.
    cpus = sorted(os.sched_getaffinity(0))[:nproc()]
    os.sched_setaffinity(0, cpus)

    # Started after the pin, so the sampler runs on the same CPU.
    with SpeedProbe(work / "tmp" / "speed.log") as probe:
        if args.trace:
            values, attempted, failed, detail, tr = run_traced(
                named, inputs, work, args.seconds, import_s, probe)
            kind = "per_layer"
        else:
            values, attempted, failed, detail = run_untraced(
                named, inputs, work, args.seconds, import_s, probe)
            kind = "end_to_end"

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "git_sha": git_sha(root),
        "source_sha256": source_digest(root), "nproc": nproc(), "cpus": cpus,
        "ray": ray.__version__, "pyarrow": pyarrow.__version__,
        "inputs": inputs.sizes(), "import_s": import_s,
    }
    tag = f"{args.workload}-seed{args.seed}"
    if args.trace:
        tr.dump(work / "traces" / f"{tag}.json", info)
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps({**info, "metrics": values, "detail": detail}, indent=1, default=str)
    )
    print("# " + json.dumps(info))
    print(result_line(spec, kind, values, attempted, failed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
