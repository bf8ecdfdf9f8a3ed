"""The three workloads: an untraced pass, a traced pass and a warm-up each.

Every pass reads only the Parquet inputs and consumes every output.  The
clock stops once the outputs are collected; ``verify`` then checks them
against the seed's reference (untimed) and raises ``WrongOutput`` on a
mismatch, which fails the pass.

* ``kg_build``     — ``rd.read_parquet(pages)`` -> ``kg_tables_in_memory``,
                     all three outputs consumed (phase A + phase B).
* ``kg_job``       — ``run_kg`` with the ``scripts/run_kg.py --input`` shard
                     factory, the configured shard count and a fresh output
                     directory per pass; outputs read back from disk.
* ``corpus_dedup`` — ``dedup_exact``, ``text_ngram_topk`` and
                     ``dedup_minhash_lsh`` over the documents table.
"""

from __future__ import annotations

import shutil
from contextlib import contextmanager
from pathlib import Path

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import gen
from spans import Tracer, patched

KG_OUTPUTS = ("triples", "entities", "adjacency")


class WrongOutput(Exception):
    pass


def collect(ds) -> pa.Table:
    """Execute ``ds`` to the end and return its rows."""
    batches = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    return pa.concat_tables(batches) if batches else pa.table({})


def check(name: str, got: pa.Table, ref: tuple[list[str], list[tuple]]) -> None:
    """``ref`` is a reference's columns and canonical rows (``Inputs.ref``)."""
    cols, rows = ref
    if got.num_rows != len(rows):
        raise WrongOutput(f"{name}: {got.num_rows} rows, reference has {len(rows)}")
    if not rows:
        return
    missing = [c for c in cols if c not in got.column_names]
    if missing:
        raise WrongOutput(f"{name}: missing columns {missing}")
    if gen.canon_rows(got, cols) != rows:
        raise WrongOutput(f"{name}: rows differ from the reference")


class Env:
    """What set-up leaves behind for the passes: config, knowledge base and
    its broadcast refs, and the work directory."""

    def __init__(self, work: Path, cfg: dict, kb: dict, refs: dict | None):
        self.work = work
        self.cfg = cfg
        self.kb = kb
        self.refs = refs
        self.warm = work / gen.WARM_DIR


class Workload:
    name = ""
    needs_kb = True
    outputs: tuple[str, ...] = KG_OUTPUTS  # reference names a pass must match
    input_rows = "pages"  # the input size (inputs.sizes() key) docs_per_s counts
    # spans whose wall time is Ray execution (ray.gap_s = their sum minus
    # the summed operator time)
    ray_spans: tuple[str, ...] = ()

    def docs(self, inputs: gen.Inputs) -> int:
        return inputs.sizes()[self.input_rows]

    def before_pass(self, env: Env) -> None:
        """Untimed preparation for the next pass."""

    def verify(self, env: Env, inputs: gen.Inputs, got: dict) -> None:
        """Untimed: every output of the pass against the seed's reference."""
        for name in self.outputs:
            check(name, got[name], inputs.ref(name))

    def side(self, env: Env, inputs: gen.Inputs, tr: Tracer) -> None:
        """Traced measurements outside the pass (baselines, derived counts)."""


# ---------------------------------------------------------------------------
# kg_build
# ---------------------------------------------------------------------------


class KgBuild(Workload):
    name = "kg_build"
    ray_spans = ("pipeline.phase_a", "pipeline.phase_b")

    def _outputs(self, env: Env, pages_path: Path) -> dict:
        import ray.data as rd

        from kgx import pipeline

        outs = pipeline.kg_tables_in_memory(
            rd.read_parquet(str(pages_path)), env.cfg, env.refs
        )
        return {name: collect(outs[name]) for name in KG_OUTPUTS}

    def warm_up(self, env: Env) -> None:
        self._outputs(env, env.warm / "pages.parquet")

    def run(self, env: Env, inputs: gen.Inputs) -> dict:
        return self._outputs(env, inputs.pages)

    def traced(self, env: Env, inputs: gen.Inputs, tr: Tracer) -> tuple[dict, list]:
        """The untraced pass's call under ``traced_phases``: phase A and
        phase B as separate spans, the ``wide`` chains inside phase B."""
        executed: list = []
        with traced_phases(tr, executed):
            got = self._outputs(env, inputs.pages)
        tr.count("final_triples", got["triples"].num_rows)
        return got, executed

    def side(self, env: Env, inputs: gen.Inputs, tr: Tracer) -> None:
        """The knowledge-base broadcast, the serial UDF split and the serial
        oracle on the same pages."""
        from kgx import oracle, pipeline

        # Timed, then released: the passes use set-up's broadcast (fresh
        # refs would rebuild the linker state in every worker).
        with tr.span("pipeline.broadcast_kb"):
            pipeline.broadcast_kb(env.kb)
        pages = pq.read_table(inputs.pages)
        serial_udfs(pages, env.cfg, env.refs, tr)
        with tr.span("oracle.run"):
            oracle.run(pages, env.cfg, env.kb)


@contextmanager
def traced_phases(tr: Tracer, executed: list):
    """Patch the pipeline's phase functions with spans, for ``kg_tables_in_memory``
    and ``run_kg`` alike (both look them up as module globals).  Each wrapper
    executes its lazy Datasets inside its span and appends them to
    ``executed`` (for the exchange stats):

    * ``pipeline.phase_a``: ``linked_triples_ds(...)``, materialized;
    * ``pipeline.phase_b``: ``finalize(...)``, all three outputs materialized,
      with ``wide.canonical_entities`` and ``wide.adjacency`` inside it;
    * ``wide.dedup_and_categorize``, materialized (``finalize`` pins it too).
    """
    from kgx import pipeline
    from kgx.stages import wide

    def phase_a(ds, *args, **kwargs):
        ds = ds.materialize()
        executed.append(ds)
        tr.count("linked_rows", ds.count())
        return ds

    def phase_b(outs, *args, **kwargs):
        got = {"triples": outs["triples"].materialize()}
        with tr.span("wide.canonical_entities"):
            got["entities"] = outs["entities"].materialize()
        with tr.span("wide.adjacency"):
            got["adjacency"] = outs["adjacency"].materialize()
        executed.extend(got.values())
        return got

    with patched(pipeline, "linked_triples_ds",
                 tr.wrap("pipeline.phase_a", pipeline.linked_triples_ds, phase_a)), \
         patched(pipeline, "finalize",
                 tr.wrap("pipeline.phase_b", pipeline.finalize, phase_b)), \
         patched(wide, "dedup_and_categorize",
                 tr.wrap("wide.dedup_and_categorize", wide.dedup_and_categorize,
                         after=lambda ds, *a, **k: ds.materialize())):
        yield


def serial_udfs(pages: pa.Table, cfg: dict, refs: dict, tr: Tracer) -> None:
    """The public phase-A UDFs called one after another in this process, on
    the whole pages table (Ray fuses them into one operator, so their split
    is only visible this way)."""
    from kgx.stages import kg_stages

    segment = kg_stages.SegmentPages(cfg)
    linker = kg_stages.TripleLinker(refs["alias_ref"], refs["emb_ref"], cfg)
    with tr.span("kg_stages.extract_text"):
        text = kg_stages.extract_text_batch(pages)
    with tr.span("kg_stages.segment"):
        segs = segment(text)
    with tr.span("kg_stages.triple_linker"):
        linked = linker(segs)
    tr.count("segments_out", segs.num_rows)
    tr.count("linked_out", linked.num_rows)


# ---------------------------------------------------------------------------
# kg_job
# ---------------------------------------------------------------------------


def shard_factory(pages_path: Path):
    """The shard factory ``scripts/run_kg.py --input`` uses."""
    from run_kg import shard_pages_parquet_factory

    return shard_pages_parquet_factory(str(pages_path))


def read_job_outputs(out_dir: Path) -> dict:
    triples = pads.dataset(str(out_dir / "triples"), format="parquet",
                           partitioning="hive").to_table()
    cat = triples.schema.get_field_index("category")
    triples = triples.set_column(cat, "category", triples["category"].cast(pa.string()))
    return {
        "triples": triples,
        "entities": pads.dataset(str(out_dir / "entities"), format="parquet").to_table(),
        "adjacency": pads.dataset(str(out_dir / "adjacency"), format="parquet").to_table(),
    }


class KgJob(Workload):
    name = "kg_job"
    ray_spans = ("run_kg.shard_scan", "pipeline.phase_a", "pipeline.phase_b")

    def out(self, env: Env) -> Path:
        return env.work / "job"

    def before_pass(self, env: Env) -> None:
        """A fresh output directory: run_kg must not find the last pass's
        manifest and skip its work."""
        shutil.rmtree(self.out(env), ignore_errors=True)

    def _run(self, env: Env, pages_path: Path, out: Path, make=None):
        from kgx import config_loader, pipeline

        shards = config_loader.get("settings", "pipeline.num_shards", 8)
        pipeline.run_kg(make or shard_factory(pages_path), out,
                        num_shards=shards, cfg=env.cfg, kb=env.kb)

    def warm_up(self, env: Env) -> None:
        self.before_pass(env)
        self._run(env, env.warm / "pages.parquet", self.out(env))

    def run(self, env: Env, inputs: gen.Inputs) -> dict:
        self._run(env, inputs.pages, self.out(env))
        return {}

    def verify(self, env: Env, inputs: gen.Inputs, got: dict) -> None:
        """The job's outputs are the directories it wrote."""
        super().verify(env, inputs, read_job_outputs(self.out(env)))

    def traced(self, env: Env, inputs: gen.Inputs, tr: Tracer) -> tuple[dict, list]:
        """``run_kg`` with the benchmark's wrappers around the public calls
        it makes.  The shard scan and both phases are executed inside their
        own spans, so the write spans time the Parquet writes alone."""
        from kgx import pipeline, report

        out = self.out(env)
        executed: list = []
        scanned = pq.ParquetFile(inputs.pages).metadata.num_rows
        factory = shard_factory(inputs.pages)

        def make(k: int, num_shards: int):
            with tr.span("run_kg.shard_scan"):
                ds = factory(k, num_shards).materialize()
            executed.append(ds)
            tr.count("scan_kept", ds.count())
            tr.count("scan_rows", scanned)
            return ds

        def written(rows, ds, final_dir, **kwargs):
            tr.count("write_bytes", sum(f.stat().st_size
                                        for f in Path(final_dir).rglob("*") if f.is_file()))
            return rows

        def checksummed(value, dir_path, key_cols):
            tr.count("checksum_rows", sum(pq.read_metadata(f).num_rows
                                          for f in Path(dir_path).rglob("*.parquet")))
            return value

        with traced_phases(tr, executed), \
             patched(pipeline, "atomic_write_dir",
                     tr.wrap("manifest.write", pipeline.atomic_write_dir, written)), \
             patched(pipeline, "parquet_dir_checksum",
                     tr.wrap("manifest.checksum", pipeline.parquet_dir_checksum,
                             checksummed)), \
             patched(report, "write_report",
                     tr.wrap("report.write", report.write_report)):
            self._run(env, inputs.pages, out, make=make)
        return {}, executed


# ---------------------------------------------------------------------------
# corpus_dedup
# ---------------------------------------------------------------------------

DEDUP_SPANS = {
    "dedup_exact": "dedup.exact",
    "text_ngram_topk": "corpus.ngram_topk",
    "dedup_minhash_lsh": "dedup.minhash",
}


class CorpusDedup(Workload):
    name = "corpus_dedup"
    needs_kb = False
    outputs = gen.DEDUP_QUERIES
    input_rows = "documents"
    ray_spans = tuple(DEDUP_SPANS.values())

    def _outputs(self, docs_dir: Path, tr: Tracer | None = None):
        from kgx import queries as Q

        got, executed = {}, []
        for name in gen.DEDUP_QUERIES:
            if tr is None:
                got[name] = collect(getattr(Q, name)(str(docs_dir)))
                continue
            with tr.span(DEDUP_SPANS[name]):
                ds = getattr(Q, name)(str(docs_dir))
                got[name] = collect(ds)
            executed.append(ds)
        return got, executed

    def warm_up(self, env: Env) -> None:
        self._outputs(env.warm / "docs")

    def run(self, env: Env, inputs: gen.Inputs) -> dict:
        return self._outputs(inputs.docs_dir)[0]

    def traced(self, env: Env, inputs: gen.Inputs, tr: Tracer) -> tuple[dict, list]:
        got, executed = self._outputs(inputs.docs_dir, tr)
        tr.count("minhash_pairs", got["dedup_minhash_lsh"].num_rows)
        return got, executed

    def side(self, env: Env, inputs: gen.Inputs, tr: Tracer) -> None:
        tr.count("minhash_candidates", minhash_candidates(inputs, env.cfg))


def minhash_candidates(inputs: gen.Inputs, cfg: dict) -> int:
    """Candidate pairs the LSH banding hands to verification: for every
    (band, band_hash) bucket of size s, s*(s-1)/2 pairs.  Computed in the
    benchmark process from the band rows the query builds; cached per seed."""
    path = inputs.dir / "minhash_candidates.txt"
    if path.exists():
        return int(path.read_text())
    import pyarrow.compute as pc

    from kgx.stages.dedup import _minhash_band_rows

    d = cfg["processing"]["dedup"]
    docs = pq.read_table(inputs.docs_dir / "documents.parquet", columns=["doc_id", "text"])
    rows = _minhash_band_rows(docs, d["minhash_num_perm"], d["minhash_bands"],
                              d["shingle_k"])
    sizes = rows.group_by(["band", "band_hash"]).aggregate([("doc_id", "count")])
    s = sizes["doc_id_count"]
    n = int(pc.sum(pc.divide(pc.multiply(s, pc.subtract(s, 1)), 2)).as_py() or 0)
    path.write_text(str(n))
    return n


WORKLOADS = {w.name: w for w in (KgBuild(), KgJob(), CorpusDedup())}
