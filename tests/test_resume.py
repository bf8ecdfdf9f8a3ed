"""North-rule resumability: a killed job resumes from the checkpoint manifest
without recomputing committed shards, and the resumed output is identical to
an uninterrupted run."""

from __future__ import annotations

import pandas as pd
import pyarrow.dataset as pads
import pytest


def _read_sorted(dir_path, keys):
    # partitioning="hive": triples are laid out as category=<val>/ dirs
    df = (
        pads.dataset(str(dir_path), format="parquet", partitioning="hive")
        .to_table()
        .to_pandas()
    )
    for c in df.columns:
        if isinstance(df[c].dtype, pd.CategoricalDtype):
            df[c] = df[c].astype(str)
    return df[sorted(df.columns)].sort_values(keys).reset_index(drop=True)


@pytest.fixture(scope="module")
def small_pages(kb):
    from kgx import synth

    return synth.gen_pages(60, seed=7, kb=kb)


def test_interrupted_run_resumes_identically(ray_session, small_pages, cfg, kb, tmp_path_factory):
    from kgx import pipeline

    make = pipeline.shard_pages_table_factory(small_pages)
    full_dir = tmp_path_factory.mktemp("kg_full")
    resumed_dir = tmp_path_factory.mktemp("kg_resumed")

    # Uninterrupted reference run.
    man_full = pipeline.run_kg(make, full_dir, num_shards=4, cfg=cfg, kb=kb)
    assert man_full.phase_done("finalize")

    # Crash after 2 committed shards.
    with pytest.raises(RuntimeError, match="simulated crash"):
        pipeline.run_kg(make, resumed_dir, num_shards=4, cfg=cfg, kb=kb,
                        stop_after_shards=2)

    from kgx.manifest import Manifest

    man_mid = Manifest(resumed_dir)
    committed = set(man_mid.data["shards"])
    assert len(committed) == 2
    mtimes = {
        k: (resumed_dir / "linked" / f"shard={k}").stat().st_mtime_ns for k in committed
    }

    # Resume: skips committed shards, completes the job.
    man2 = pipeline.run_kg(make, resumed_dir, num_shards=4, cfg=cfg, kb=kb)
    assert man2.phase_done("finalize")
    for k, t in mtimes.items():
        assert (resumed_dir / "linked" / f"shard={k}").stat().st_mtime_ns == t, (
            f"shard {k} was recomputed on resume"
        )

    # Identical final outputs.
    for name, keys in [
        ("triples", ["subj", "pred", "obj"]),
        ("entities", ["entity_key"]),
        ("adjacency", ["subj"]),
    ]:
        a = _read_sorted(full_dir / name, keys)
        b = _read_sorted(resumed_dir / name, keys)
        pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_checkpointed_matches_oracle(ray_session, small_pages, cfg, kb, tmp_path_factory,
                                    each_route):
    """On both exchange routes (the small job fits the driver route)."""
    from kgx import oracle, pipeline

    def run():
        out_dir = tmp_path_factory.mktemp("kg_oracle_cmp")
        pipeline.run_kg(
            pipeline.shard_pages_table_factory(small_pages), out_dir,
            num_shards=3, cfg=cfg, kb=kb,
        )
        return _read_sorted(out_dir / "triples", ["subj", "pred", "obj"])

    ora = oracle.run(small_pages, cfg, kb)
    want = ora["triples"].to_pandas()
    want = (
        want[sorted(want.columns)]
        .sort_values(["subj", "pred", "obj"])
        .reset_index(drop=True)
    )
    for got in each_route(run):
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_manifest_counters_and_checksums(ray_session, small_pages, cfg, kb, tmp_path_factory):
    from kgx import pipeline
    from kgx.manifest import parquet_dir_checksum

    out_dir = tmp_path_factory.mktemp("kg_manifest")
    man = pipeline.run_kg(
        pipeline.shard_pages_table_factory(small_pages), out_dir,
        num_shards=2, cfg=cfg, kb=kb,
    )
    shards = man.data["shards"]
    assert set(shards) == {"0", "1"}
    for k, entry in shards.items():
        # lineage checksum is reproducible from the written bytes
        assert entry["checksum"] == parquet_dir_checksum(
            entry["path"], ["url", "seg_id", "subj", "pred", "obj"]
        )
        assert entry["rows"] >= 0
    counters = man.data["counters"]["finalize"]
    assert counters["linked"] == sum(s["rows"] for s in shards.values())
    assert counters["triples"] > 0


def test_checksum_is_order_free_and_sees_every_value(tmp_path):
    """The checksum ignores row order and file split, and changes with any
    key value, a null one included."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from kgx.manifest import parquet_dir_checksum

    keys = ["url", "seg_id"]
    rows = pa.table({"url": ["a", "b", "c"], "seg_id": pa.array([1, 2, 3], pa.int32())})

    def checksum(*tables):
        d = tmp_path / f"d{len(list(tmp_path.iterdir()))}"
        d.mkdir()
        for i, t in enumerate(tables):
            pq.write_table(t, d / f"{i}.parquet")
        return parquet_dir_checksum(d, keys)

    base = checksum(rows)
    assert checksum(rows.take([2, 0]), rows.slice(1, 1)) == base
    assert checksum(rows.slice(0, 0)) == "0" * 16
    changed = [
        rows.set_column(0, "url", pa.array(["a", None, "c"])),
        rows.set_column(1, "seg_id", pa.array([1, None, 3], pa.int32())),
        rows.set_column(0, "url", pa.array(["a", "", "c"])),
        rows.slice(0, 2),
    ]
    sums = [checksum(t) for t in changed]
    assert base not in sums and len(set(sums)) == len(sums)


def test_artifact_level_resume(ray_session, tmp_path, cfg, kb):
    """Phase B commits each output dir as its own phase: clearing one
    artifact's commit reruns only that artifact — committed ones are not
    rewritten (their files keep their identity)."""
    import json

    from kgx import synth
    from kgx.pipeline import run_kg, shard_pages_table_factory

    pages = synth.gen_pages(30, seed=11, kb=kb)
    out = tmp_path / "kg"
    run_kg(shard_pages_table_factory(pages), out, num_shards=2, cfg=cfg, kb=kb,
           run_id="r")
    trip_files = sorted((out / "triples").rglob("*.parquet"))
    trip_stat = {str(p): p.stat().st_mtime_ns for p in trip_files}

    # simulate a crash between artifact writes: entities write uncommitted
    mpath = out / "_manifest" / "manifest.json"
    man = json.loads(mpath.read_text())
    for phase in ("finalize", "write_entities", "report"):
        man["phases"].pop(phase, None)
    mpath.write_text(json.dumps(man))
    import shutil

    shutil.rmtree(out / "entities")

    man2 = run_kg(shard_pages_table_factory(pages), out, num_shards=2, cfg=cfg,
                  kb=kb, run_id="r")
    assert man2.phase_done("finalize") and man2.phase_done("write_entities")
    assert (out / "entities").exists()
    # committed triples untouched byte-for-byte (same files, same mtimes)
    assert {str(p): p.stat().st_mtime_ns
            for p in sorted((out / "triples").rglob("*.parquet"))} == trip_stat
