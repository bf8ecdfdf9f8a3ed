"""Per-batch stage implementations for the KG pipeline.

Stage graph (SURVEY.md §3.1 KG equivalent):

    pages --extract_text_batch--> page_text (html dropped immediately)
          --segment_batch-------> segments   (junk/novelty/cap are page-local)
          --TripleLinker--------> linked triples [task UDF: a batch kernel
                                                  (alias automaton, predicate
                                                  rules, candidate and
                                                  embedding arrays) built
                                                  once per process]

The wide steps (canonicalize / dedup / adjacency) live in
``kgx.stages.wide``.  Every row-level computation delegates to
``kgx.functions`` so the serial oracle and this distributed pipeline cannot
drift (the P/R and byte-identity gates then measure distribution only).
The two phase-A stages after extraction run batch kernels instead of the
per-row functions, and each must equal the oracle's per-row functions row
for row, in order: SegmentPages runs ``pipeline_core.segment_batch``
(against ``segment_text``), and TripleLinker runs ``extract_kg.BatchLinker``,
which scans a whole batch at once and links column-wise (against
``raw_triples_for_segment`` + ``link_raw_triple``).
"""

from __future__ import annotations

import json

import pyarrow as pa
import pyarrow.compute as pc

from .. import schema as S
from ..functions.extract_kg import AliasMatcher, BatchLinker
from ..functions.pipeline_core import (
    mentions_for_segment,
    segment_batch,
    segment_text_adaptive,
)
from ..functions.text import extract_text_from_html
from ..functions.textstats import SQL_WS_CLASS


def _rows_to_table(rows: list[dict], schema: pa.Schema) -> pa.Table:
    if not rows:
        return schema.empty_table()
    return pa.table({f.name: [r[f.name] for r in rows] for f in schema}, schema=schema)


def extract_text_batch(batch: pa.Table) -> pa.Table:
    """pages -> (url, warc_ts, text, lang): html decoded to text and DROPPED
    so downstream blocks are narrow (SURVEY.md §7.4.6 wide-record handling).

    Reference semantics: binary-payload decode S2/M8 + whitespace
    normalization M1 (groq_backend.py:21-28, ocr/reader.py:10-40,
    transcriber.py:19-26), fail-open on null payloads.

    Equal to per-row ``page_text``: a non-null ``text`` is normalized in one
    Arrow call (``SQL_WS_CLASS`` is CPython's ``\\s`` as an RE2 class, so the
    collapse is ``normalize_ws``'s, and after it the only whitespace left at
    an end is one space); only null-text rows run the per-row HTML extractor.
    """
    text = batch["text"].combine_chunks()
    out_text = pc.utf8_trim(
        pc.replace_substring_regex(text, SQL_WS_CLASS + "+", " "), " ")
    if text.null_count:
        null = pc.is_null(text)
        htmls = batch["html"].filter(null).to_pylist()
        out_text = pc.replace_with_mask(
            out_text, null,
            pa.array([extract_text_from_html(h) for h in htmls], pa.string()))
    return pa.table(
        {
            "url": batch["url"],
            "warc_ts": batch["warc_ts"],
            "text": out_text,
            "lang": batch["lang"],
        },
        schema=S.PAGE_TEXT,
    )


class SegmentPages:
    """Page texts -> segments, a batch at a time: ``segment_batch`` (one
    sentence-boundary scan over the batch's texts joined into one buffer,
    the greedy packing for all pages at once, the junk filter as one search
    per pattern, the novelty gate only on pages with two or more segments
    left).  Its rows equal the per-page ``segment_text`` of the serial
    oracle, in order.  With ``processing.adaptive.enabled`` (G6), whose
    parameters change along a page, every page runs
    ``segment_text_adaptive`` instead.

    Reference semantics: chunk splitter M4/M5 + junk filter M7 + novelty
    gating M6 + per-window cap G5, all page-local (chunker.py:72-272,
    extractor.py:123-179,369-396).
    """

    def __init__(self, cfg: dict):
        self.cfg = cfg

    def __call__(self, batch: pa.Table) -> pa.Table:
        # text is page_text output already (extract_text_batch), so it is
        # segmented as is
        if self.cfg["processing"].get("adaptive", {}).get("enabled"):
            rows: list[dict] = []
            for url, text, lang in zip(batch["url"].to_pylist(), batch["text"].to_pylist(),
                                       batch["lang"].to_pylist()):
                rows.extend(segment_text_adaptive(url, text, lang, self.cfg))
            return _rows_to_table(rows, S.SEGMENTS)
        page, cols = segment_batch(batch["text"].fill_null("").to_pylist(), self.cfg)
        page = pa.array(page)
        return pa.table({
            "url": batch["url"].take(page),
            "seg_id": pa.array(cols["seg_id"], pa.int32()),
            "begin": pa.array(cols["begin"], pa.int32()),
            "end": pa.array(cols["end"], pa.int32()),
            "text": pa.array(cols["text"], pa.string()),
            "lang": batch["lang"].take(page),
        }, schema=S.SEGMENTS)


class MentionDetector:
    """Actor-pool stage: segments -> mentions.

    Alias automaton compiled ONCE per actor from the broadcast alias table
    (``ray.put`` ref resolved in ``__init__`` — never re-shipped per batch).
    Reference semantics: T1 spaCy NER loaded once per process
    (anonymizer.py:4-5) + T4 batched tagging (tagger.py:25-52).
    """

    def __init__(self, alias_ref):
        import ray

        alias_rows = ray.get(alias_ref)
        self.matcher = AliasMatcher(alias_rows)

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows: list[dict] = []
        for seg in batch.to_pylist():
            rows.extend(mentions_for_segment(seg, self.matcher))
        return _rows_to_table(rows, S.MENTIONS)


# Linked-triple schema incl. surfaces (needed by entity canonicalization).
LINKED_FULL = pa.schema(
    list(S.LINKED_TRIPLES)
    + [pa.field("subj_surface", pa.string()), pa.field("obj_surface", pa.string())]
)


class TripleLinker:
    """Fused stage: segments -> LINKED triples in one pass, a batch at a
    time (``kgx.functions.extract_kg.BatchLinker``: one sentence buffer per
    batch, one predicate and one alias scan over it, subject/object choice
    and candidate scoring as arrays).  Its rows equal the serial oracle's
    ``raw_triples_for_segment`` then ``link_raw_triple``, in order.

    Deployed as a TASK UDF with a per-worker-process state cache rather
    than an actor pool: the broadcast state here (alias automaton +
    candidate arrays) builds in milliseconds, and a pool of actors would
    RESERVE CPUs that the streaming executor then cannot give to the
    upstream extract/segment tasks — on a fixed-size cluster that split
    halves phase-A throughput.  ``state_for`` keeps the actor-pattern
    property that matters (state built once per process, broadcast refs
    resolved from the local object store), keyed by the refs AND the config
    values the kernel reads, so two linkers with different rules or weights
    in one process never share a kernel.  Swap back to
    ``map_batches(TripleLinker, concurrency=...)`` only when the stage
    state is heavy enough (a real NER/embedding model) to dwarf a CPU slot.
    """

    _CACHE: dict = {}

    def __init__(self, alias_ref, emb_ref, cfg: dict):
        self.alias_ref = alias_ref
        self.emb_ref = emb_ref
        self.cfg = cfg
        self.settings = json.dumps(BatchLinker.settings(cfg), sort_keys=True, default=repr)

    def state_for(self) -> BatchLinker:
        import ray

        key = (self.alias_ref.hex(), self.emb_ref.hex(), self.settings)
        state = TripleLinker._CACHE.get(key)
        if state is None:
            state = TripleLinker._CACHE[key] = BatchLinker(
                ray.get(self.alias_ref), ray.get(self.emb_ref), self.cfg)
        return state

    def __call__(self, batch: pa.Table) -> pa.Table:
        return linked_table(self.state_for(), batch)


def linked_table(kernel: BatchLinker, segments: pa.Table) -> pa.Table:
    """``kernel`` over a SEGMENTS table, as a LINKED_FULL table."""
    seg, cols = kernel(segments["text"].to_pylist())
    if not len(seg):
        return LINKED_FULL.empty_table()
    seg = pa.array(seg)
    cols["url"] = segments["url"].take(seg)
    cols["seg_id"] = segments["seg_id"].take(seg)
    return pa.table({f.name: cols[f.name] for f in LINKED_FULL}, schema=LINKED_FULL)


def entity_cooccurrence(mentions):
    """mentions (url, surface, ...) -> (surface_a, surface_b, n_pages):
    page-level entity co-occurrence counts — the KG-construction signal
    behind "related entities" edges and PMI-style link weighting
    (reference consumes its mention stream the same way when scoring
    candidate relations, extractor semantics).

    Scale shape: ONE url-keyed partition exchange; the kernel
    dedups (url, surface), generates within-page unordered pairs with the
    shared vectorized pair generator (page entity count is bounded by the
    KB alias inventory, so per-page pair volume is bounded), and
    pre-counts per partition; a (surface_a, surface_b)-keyed combiner
    exchange folds the partials.  Mentions cross the wire once; the
    pair-count table (<= |KB|^2 rows) is the only aggregate state."""
    import numpy as np
    import pandas as pd

    from .exchange import hash_partitioned_agg, hash_partitioned_apply
    from .triangles import _group_bounds, _pairs_within_groups

    # the exchange's partition count was measured on this operator: the
    # per-page kernel is uniform (page mention count is KB-bounded), and at
    # sf0.1 on 4 CPUs 4 partitions took 0.72 s, 32 took 1.03 s (medians of
    # 4 interleaved runs on the exchange route; see exchange.py)

    def pair_kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        d = df[["url", "surface"]].dropna().drop_duplicates()
        d = d.sort_values(["url", "surface"], kind="stable")
        urls = d["url"].to_numpy()
        surf = d["surface"].to_numpy()
        starts, sizes = _group_bounds(urls)
        li, ri = _pairs_within_groups(starts, sizes, len(urls))
        out = pd.DataFrame({"surface_a": surf[li], "surface_b": surf[ri]})
        out["n_pages"] = np.int64(1)
        return out.groupby(["surface_a", "surface_b"], sort=False,
                           as_index=False).agg(n_pages=("n_pages", "sum"))

    pairs = hash_partitioned_apply(mentions, ["url"], pair_kernel)

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby(["surface_a", "surface_b"], sort=False,
                          as_index=False).agg(n_pages=("n_pages", "sum"))

    return hash_partitioned_agg(pairs, ["surface_a", "surface_b"], combine)


ENTITY_PMI_K = 20
ENTITY_PMI_MIN_PAIR = 2


def entity_pmi(mentions, k: int = ENTITY_PMI_K,
               min_pair: int = ENTITY_PMI_MIN_PAIR):
    """mentions -> the k strongest entity associations (surface_a,
    surface_b, n_pages, pmi_score, rank): page-level PMI over the entity
    co-occurrence event space — the relation-candidate ranking signal
    (which entity pairs co-occur far beyond their individual page
    frequencies).  Integer fixed-point exp(PMI) via the shared
    ``pmi_scores_np`` kernel: score = (c12 * N * PMI_SCALE) // (cA * cB),
    N = pages with >= 1 mention; ``min_pair`` floors spurious rare pairs.

    Scale shape: ONE url-keyed exchange whose kernel emits
    kind-discriminated partials — within-page pair counts (kind 0),
    per-surface page counts (kind 1), and a distinct-page count (kind 2)
    — already combiner-compressed per partition and bounded by
    |KB aliases|^2 + |KB| + 1 rows each (the alias inventory is
    broadcast-scale by construction — it ships to every mention actor),
    so the merge, score and top-k run on the driver over that bounded
    collect; mention rows cross the wire exactly once and no second
    all-to-all barrier exists."""
    import numpy as np
    import pandas as pd

    from .corpus import PMI_SCALE, pmi_scores_np  # noqa: F401 (PMI_SCALE in doc)
    from .exchange import collect_arrow, hash_partitioned_apply
    from .triangles import _group_bounds, _pairs_within_groups

    def partial_kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        d = df[["url", "surface"]].dropna().drop_duplicates()
        d = d.sort_values(["url", "surface"], kind="stable")
        urls = d["url"].to_numpy()
        surf = d["surface"].to_numpy()
        starts, sizes = _group_bounds(urls)
        li, ri = _pairs_within_groups(starts, sizes, len(urls))
        pairs = pd.DataFrame({"ka": surf[li], "kb": surf[ri]})
        pairs["kind"] = np.int64(0)
        pairs["cnt"] = np.int64(1)
        pairs = pairs.groupby(["kind", "ka", "kb"], sort=False,
                              as_index=False).agg(cnt=("cnt", "sum"))
        singles = pd.DataFrame({"ka": surf})
        singles["kb"] = ""
        singles["kind"] = np.int64(1)
        singles["cnt"] = np.int64(1)
        singles = singles.groupby(["kind", "ka", "kb"], sort=False,
                                  as_index=False).agg(cnt=("cnt", "sum"))
        npages = pd.DataFrame(
            {"kind": [np.int64(2)], "ka": [""], "kb": [""],
             "cnt": [np.int64(len(starts))]}
        )
        cols = ["kind", "ka", "kb", "cnt"]
        return pd.concat(
            [pairs[cols], singles[cols], npages[cols]], ignore_index=True
        )

    partials = hash_partitioned_apply(mentions, ["url"], partial_kernel)

    # the partials are already combiner-compressed per partition and the
    # merged state is KB-bounded, so a second all-to-all exchange would be
    # pure barrier latency (A/B at sf0.1: 6.6 -> 3.9 s) — merge the
    # <= P x (|KB|^2 + |KB| + 1) rows on the driver instead
    tab = collect_arrow(
        partials,
        pa.schema([("kind", pa.int64()), ("ka", pa.string()),
                   ("kb", pa.string()), ("cnt", pa.int64())]),
    ).to_pandas()
    tab = tab.groupby(["kind", "ka", "kb"], sort=False,
                      as_index=False).agg(cnt=("cnt", "sum"))

    n_pages = int(tab[tab["kind"] == 2]["cnt"].sum())
    counts = dict(zip(tab[tab["kind"] == 1]["ka"],
                      tab[tab["kind"] == 1]["cnt"].astype(int)))
    pairs = tab[(tab["kind"] == 0)
                & (tab["cnt"] >= min_pair)].reset_index(drop=True)
    if not len(pairs) or n_pages == 0:
        return pd.DataFrame(
            {c: pd.Series([], dtype=t) for c, t in
             [("surface_a", "object"), ("surface_b", "object"),
              ("n_pages", "int64"), ("pmi_score", "int64"),
              ("rank", "int64")]}
        )
    import numpy as np2  # local alias keeps the kernel import explicit

    c12 = pairs["cnt"].to_numpy().astype(np2.int64)
    ca = pairs["ka"].map(counts).to_numpy().astype(np2.int64)
    cb = pairs["kb"].map(counts).to_numpy().astype(np2.int64)
    score = pmi_scores_np(c12, ca, cb, n_pages)
    out = pd.DataFrame(
        {"surface_a": pairs["ka"], "surface_b": pairs["kb"],
         "n_pages": c12, "pmi_score": score}
    ).sort_values(["pmi_score", "surface_a", "surface_b"],
                  ascending=[False, True, True], kind="stable").head(k)
    out["rank"] = np2.arange(1, len(out) + 1, dtype=np2.int64)
    return out.reset_index(drop=True)


def two_hop_paths(triples):
    """triples (subj, obj, ...) -> (subj, obj2, n_paths): the number of
    distinct intermediate entities m with edges subj->m and m->obj2 in the
    DISTINCT (subj, obj) edge projection of the final triple table — the
    KG "2-hop neighborhood" query behind related-entity expansion and
    link prediction features (reference consumes its adjacency the same
    way when expanding entity context, post_processor semantics).

    Scale shape: ONE mid-keyed kind-discriminated partition exchange —
    every edge ships twice (once keyed by its head as an IN row, once by
    its tail as an OUT row), so all paths through an intermediate m meet
    in exactly one partition; the kernel dedups each side (global dedup
    is free: all copies of an edge share its key) and emits the ragged
    A x B cross-join fully vectorized (no per-mid Python); a
    (subj, obj2)-keyed combiner exchange folds path counts across mids.

    Partitioning assumption: per-mid pair volume is in-degree(m) x
    out-degree(m) — quadratic on hub entities.  Here the entity
    vocabulary is KB-bounded; at open-web scale a hub cap (drop or
    sample mids past a degree bound, as in triangle counting) bounds the
    worst case."""
    import numpy as np
    import pandas as pd

    from .exchange import hash_partitioned_agg, hash_partitioned_apply

    def in_rows(t):
        import pyarrow as pa
        import pyarrow.compute as pc

        t = t.filter(pc.and_(pc.is_valid(t["subj"]),
                             pc.is_valid(t["obj"])))
        return pa.table({"mid": t["obj"], "other": t["subj"],
                         "kind": pa.array(
                             np.zeros(t.num_rows, dtype=np.int64))})

    def out_rows(t):
        import pyarrow as pa
        import pyarrow.compute as pc

        t = t.filter(pc.and_(pc.is_valid(t["subj"]),
                             pc.is_valid(t["obj"])))
        return pa.table({"mid": t["subj"], "other": t["obj"],
                         "kind": pa.array(
                             np.ones(t.num_rows, dtype=np.int64))})

    edges = triples.map_batches(in_rows, batch_format="pyarrow").union(
        triples.map_batches(out_rows, batch_format="pyarrow"))

    def path_kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        d = df.drop_duplicates(["mid", "other", "kind"])
        a = d[d["kind"] == 0].sort_values("mid", kind="stable")
        b = d[d["kind"] == 1].sort_values("mid", kind="stable")
        if not len(a) or not len(b):
            return pd.DataFrame()
        amid = a["mid"].to_numpy()
        asubj = a["other"].to_numpy()
        bmid = b["mid"].to_numpy()
        bobj = b["other"].to_numpy()
        # group bounds of the sorted B side
        bstart = np.flatnonzero(
            np.r_[True, bmid[1:] != bmid[:-1]]).astype(np.int64)
        bmids = bmid[bstart]
        bcount = np.diff(np.append(bstart, len(bmid))).astype(np.int64)
        # per-A-row B group (0 pairs when the mid has no outgoing edges)
        pos = np.searchsorted(bmids, amid).clip(max=max(len(bmids) - 1, 0))
        hit = (bmids[pos] == amid) if len(bmids) else \
            np.zeros(len(amid), dtype=bool)
        nb = np.where(hit, bcount[pos], 0)
        total = int(nb.sum())
        if not total:
            return pd.DataFrame()
        li = np.repeat(np.arange(len(amid)), nb)
        cum0 = np.concatenate(([0], np.cumsum(nb)[:-1]))
        ri = (np.arange(total) - np.repeat(cum0, nb)
              + np.repeat(bstart[pos], nb))
        out = pd.DataFrame({"subj": asubj[li], "obj2": bobj[ri]})
        out["n_paths"] = np.int64(1)
        return out.groupby(["subj", "obj2"], sort=False,
                           as_index=False).agg(n_paths=("n_paths", "sum"))

    pairs = hash_partitioned_apply(edges, ["mid"], path_kernel)

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby(["subj", "obj2"], sort=False,
                          as_index=False).agg(n_paths=("n_paths", "sum"))

    return hash_partitioned_agg(pairs, ["subj", "obj2"], combine)


def alias_stats(linked_ds):
    """linked triples -> (surface, entity_key, n_mentions, n_pages): the
    alias-dictionary usage/coverage table — which alias surface forms
    actually fire in the corpus, which canonical entity each resolves to,
    how often, and across how many distinct pages.  The reverse direction
    of kg_entities' per-entity n_aliases (reference analog: the alias
    report the linker config is tuned against, config/rules/aliases).

    Per batch: both mention sides explode into (surface, key, url, cnt)
    rows deduped by a single C-level groupby (volume bounded by distinct
    triples per batch, never mention rows); ONE (surface, entity_key)-keyed
    partition exchange — every copy of a pair co-resides, so the kernel's
    groupby IS the global n_mentions sum and its url nunique IS the global
    distinct-page count."""
    import pandas as pd

    from .exchange import hash_partitioned_apply

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        sm = pd.concat([
            df[["subj_surface", "subj_key", "url"]].set_axis(
                ["surface", "entity_key", "url"], axis=1),
            df[["obj_surface", "obj_key", "url"]].set_axis(
                ["surface", "entity_key", "url"], axis=1),
        ])
        return sm.groupby(["surface", "entity_key", "url"], sort=False,
                          as_index=False).agg(cnt=("url", "size"))

    def kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby(["surface", "entity_key"], sort=False,
                       as_index=False).agg(n_mentions=("cnt", "sum"),
                                           n_pages=("url", "nunique"))
        g["n_mentions"] = g["n_mentions"].astype("int64")
        g["n_pages"] = g["n_pages"].astype("int64")
        return g

    return hash_partitioned_apply(
        linked_ds.map_batches(partial, batch_format="pandas"),
        ["surface", "entity_key"], kernel,
    )


def predicate_stats(triples_ds):
    """deduped triples -> (pred, n_triples, n_subj, n_obj): the
    per-predicate schema-health table (which relations dominate the graph
    and how many distinct head/tail entities each touches — the KG
    equivalent of a column-cardinality profile).

    Two bounded exchanges over one pinned narrow projection: a pred-keyed
    count combiner (<= |preds| rows per batch) for n_triples, and an
    entity-keyed partition exchange of per-batch-deduped (pred, side,
    entity) rows — every copy of a (pred, side, entity) triple shares its
    entity, so per-partition dedup IS global dedup — folding to
    <= 2|preds| distinct-count rows per partition.  Both results are
    driver-scale and merge in a final pandas frame."""
    import pandas as pd

    from .exchange import collect_arrow, hash_partitioned_agg, \
        hash_partitioned_apply

    tri = triples_ds.select_columns(["subj", "pred", "obj"]).materialize()

    def count_partial(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby("pred", sort=False, as_index=False).agg(
            n_triples=("pred", "size"))
        g["n_triples"] = g["n_triples"].astype("int64")
        return g

    counts = hash_partitioned_agg(
        tri.map_batches(count_partial, batch_format="pandas"),
        ["pred"], lambda df: df.groupby("pred", sort=False,
                                        as_index=False).agg(
            n_triples=("n_triples", "sum")))

    def side_rows(df: "pd.DataFrame") -> "pd.DataFrame":
        sm = pd.concat([
            pd.DataFrame({"pred": df["pred"], "side": 0,
                          "entity": df["subj"]}),
            pd.DataFrame({"pred": df["pred"], "side": 1,
                          "entity": df["obj"]})])
        return sm.drop_duplicates()

    def distinct_kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        d = df.drop_duplicates()
        g = d.groupby(["pred", "side"], sort=False, as_index=False).agg(
            n=("entity", "size"))
        g["n"] = g["n"].astype("int64")
        return g

    sides = hash_partitioned_agg(
        hash_partitioned_apply(
            tri.map_batches(side_rows, batch_format="pandas"),
            ["entity"], distinct_kernel),
        ["pred", "side"],
        lambda df: df.groupby(["pred", "side"], sort=False,
                              as_index=False).agg(n=("n", "sum")))

    ct = collect_arrow(
        counts, pa.table({"pred": pa.array([], pa.string()),
                          "n_triples": pa.array([], pa.int64())})).to_pandas()
    sd = collect_arrow(
        sides, pa.table({"pred": pa.array([], pa.string()),
                         "side": pa.array([], pa.int64()),
                         "n": pa.array([], pa.int64())})).to_pandas()
    ns = sd[sd["side"] == 0].rename(columns={"n": "n_subj"})[
        ["pred", "n_subj"]]
    no = sd[sd["side"] == 1].rename(columns={"n": "n_obj"})[["pred", "n_obj"]]
    out = ct.merge(ns, on="pred", how="left").merge(no, on="pred", how="left")
    out["n_subj"] = out["n_subj"].fillna(0).astype("int64")
    out["n_obj"] = out["n_obj"].fillna(0).astype("int64")
    return out.reset_index(drop=True)


DAY_US = 86_400_000_000


def _page_days(ts_ds):
    """(url, day): the crawl day (warc_ts floored to epoch days) of every
    page of a (url, warc_ts) projection with a timestamp — the dimension
    the lineage attaches probe (url is unique per page)."""
    import numpy as np
    import pyarrow.compute as pc

    def days(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch["warc_ts"]))
        ts = batch["warc_ts"].cast(pa.int64()).to_numpy()
        return pa.table({"url": batch["url"],
                         "day": pa.array((ts // DAY_US).astype(np.int64))})

    return ts_ds.map_batches(days, batch_format="pyarrow")


def mention_timeline(pages_ds, cfg: dict, refs: dict, ts_ds=None):
    """pages + mention stream -> (ner_type, day, n_mentions): the
    crawl-freshness timeline (how entity-type mention volume moves with
    the page crawl date — the temporal-drift QA signal a continuously
    re-crawled KG build watches).

    The page's warc_ts never rides through the extraction chain; it
    re-attaches by LINEAGE: per-batch (url, ner_type, cnt) mention folds
    probe the cheap (url, day) projection in one ``lookup_join`` — the
    generic attach-source-metadata-to-derived-rows shape — whose fold
    sums to <= |types| x |days| rows per batch or partition; a
    pair-keyed combiner finishes.

    ``ts_ds`` optionally supplies the (url, warc_ts) projection from a
    CHEAPER source than re-running the page pipeline (at real scale this
    is a two-column pruned parquet read; the synth query path derives it
    vectorized from documents.parquet — the generator's per-row Python
    would otherwise run twice)."""
    import pandas as pd

    from ..pipeline import mentions_ds
    from .exchange import hash_partitioned_agg, lookup_join

    def mention_rows(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby(["url", "ner_type"], sort=False, as_index=False).agg(
            cnt=("ner_type", "size"))
        g["cnt"] = g["cnt"].astype("int64")
        return g

    def day_counts(t: pa.Table) -> "pd.DataFrame":
        return t.to_pandas().groupby(["ner_type", "day"], sort=False,
                                     as_index=False).agg(
            n_mentions=("cnt", "sum"))

    ts_src = ts_ds if ts_ds is not None \
        else pages_ds.select_columns(["url", "warc_ts"])
    partials = lookup_join(
        mentions_ds(pages_ds, cfg, refs).map_batches(mention_rows,
                                                     batch_format="pandas"),
        "url", _page_days(ts_src), "url", ["day"], then=day_counts)
    return hash_partitioned_agg(
        partials, ["ner_type", "day"],
        lambda df: df.groupby(["ner_type", "day"], sort=False,
                              as_index=False).agg(
            n_mentions=("n_mentions", "sum")))


def confidence_histogram(triples_ds):
    """deduped triples -> (conf_pct, n): extraction-confidence histogram —
    the calibration/QA curve a KG build watches when tuning predicate
    rules and linker weights.  Same explicit half-away float64 rounding
    as the kg_triples projection (floor(conf*100 + 0.5) — the r2 ADVICE
    convention), one np.unique fold per batch, pct-keyed combiner
    exchange (<= ~100 distinct rows ever cross the wire)."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    from .exchange import hash_partitioned_agg

    def partial(batch: pa.Table) -> "pd.DataFrame":
        batch = batch.filter(pc.is_valid(batch["conf"]))
        if not batch.num_rows:
            return pd.DataFrame()
        pct = np.floor(
            batch["conf"].to_numpy(zero_copy_only=False)
            .astype(np.float64) * 100.0 + 0.5).astype(np.int64)
        u, cnt = np.unique(pct, return_counts=True)
        return pd.DataFrame({"conf_pct": u, "n": cnt.astype(np.int64)})

    return hash_partitioned_agg(
        triples_ds.map_batches(partial, batch_format="pyarrow"),
        ["conf_pct"],
        lambda df: df.groupby("conf_pct", sort=False, as_index=False).agg(
            n=("n", "sum")))


def entity_freshness(linked_ds, ts_ds):
    """linked triples + (url, warc_ts) -> (entity_key, first_day,
    last_day, n_mentions): per-entity crawl-freshness span — which
    entities are stale vs actively re-mentioned, the per-entity dual of
    mention_timeline and a prune signal for incremental KG refresh.

    Same lineage-attach shape: per-batch (url, entity_key) count partials
    from BOTH mention sides probe the (url, day) projection in one
    ``lookup_join`` whose fold pre-folds each entity to (first, last, n);
    an entity-keyed min/max/sum combiner finishes."""
    import pandas as pd

    from .exchange import hash_partitioned_agg, lookup_join

    def mention_rows(df: "pd.DataFrame") -> "pd.DataFrame":
        sm = pd.concat([
            pd.DataFrame({"url": df["url"], "entity_key": df["subj_key"]}),
            pd.DataFrame({"url": df["url"], "entity_key": df["obj_key"]})])
        g = sm.groupby(["url", "entity_key"], sort=False,
                       as_index=False).agg(cnt=("entity_key", "size"))
        g["cnt"] = g["cnt"].astype("int64")
        return g

    def spans(t: pa.Table) -> "pd.DataFrame":
        return t.to_pandas().groupby("entity_key", sort=False,
                                     as_index=False).agg(
            first_day=("day", "min"), last_day=("day", "max"),
            n_mentions=("cnt", "sum"))

    partials = lookup_join(
        linked_ds.map_batches(mention_rows, batch_format="pandas"), "url",
        _page_days(ts_ds), "url", ["day"], then=spans)
    return hash_partitioned_agg(
        partials, ["entity_key"],
        lambda df: df.groupby("entity_key", sort=False, as_index=False).agg(
            first_day=("first_day", "min"), last_day=("last_day", "max"),
            n_mentions=("n_mentions", "sum")))


def type_matrix(linked_ds, kb: dict):
    """linked triples -> (pred, subj_type, obj_type, n): the predicate
    TYPE-SIGNATURE matrix — which NER type pairs each relation actually
    connects in the corpus.  The schema-validation artifact a KG build
    diffs against the rule file's declared signatures (an ORG-typed
    'founded_by' object is an extraction bug).

    The entity_id -> ner_type lookup is KB-sized (driver-scale by
    definition — it ships in the linker broadcast already), so it rides
    the task closure; each batch folds to <= |preds| x |types|^2 count
    rows via one C-level groupby and a triple-keyed combiner exchange
    merges.  Unknown ids (NIL fallback) map to 'UNK'."""
    import pandas as pd

    from .exchange import hash_partitioned_agg

    lut = {int(r["entity_id"]): str(r["ner_type"])
           for r in kb["alias_table"].to_pylist()}

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        g = pd.DataFrame(
            {"pred": df["pred"],
             "subj_type": df["subj_id"].map(lut).fillna("UNK"),
             "obj_type": df["obj_id"].map(lut).fillna("UNK")})
        g = g.groupby(["pred", "subj_type", "obj_type"], sort=False,
                      as_index=False).agg(n=("pred", "size"))
        g["n"] = g["n"].astype("int64")
        return g

    return hash_partitioned_agg(
        linked_ds.map_batches(partial, batch_format="pandas"),
        ["pred", "subj_type", "obj_type"],
        lambda df: df.groupby(["pred", "subj_type", "obj_type"], sort=False,
                              as_index=False).agg(n=("n", "sum")))


def kg_entity_edges(triples_ds):
    """deduped triples -> symmetric hashed-entity edge stream (src, dst):
    the SHARED edge construction under every KG graph consumer
    (pagerank, CC labels, cluster sizes).  Entity names hash to stable
    62-bit ids with the repo's stable_hash64 == md5_number_upper
    identity (md5 once per DISTINCT batch name — entities are
    KB-bounded, so this is a few hundred digests per batch, never per
    row); edges symmetrize both directions and the downstream src-keyed
    combiner dedups globally (subj->obj AND obj->subj triples collapse
    to one undirected edge, matching the SQL mirrors' UNION)."""
    import numpy as np
    import pandas as pd

    from ..functions.text import stable_hash64

    M62 = 1 << 62

    def to_edges(df: "pd.DataFrame") -> "pd.DataFrame":
        s = df["subj"].to_numpy()
        o = df["obj"].to_numpy()
        u, inv = np.unique(np.concatenate([s, o]), return_inverse=True)
        hs = np.fromiter((stable_hash64(x) % M62 for x in u),
                         dtype=np.int64, count=len(u))
        n = len(df)
        a, b = hs[inv[:n]], hs[inv[n:]]
        return pd.DataFrame({"src": np.concatenate([a, b]),
                             "dst": np.concatenate([b, a])})

    return triples_ds.select_columns(["subj", "obj"]).map_batches(
        to_edges, batch_format="pandas")


def kg_entity_pagerank(triples_ds, iterations: int = 3):
    """deduped triples -> (node, pr): entity importance over the
    constructed KG — the classic entity-ranking signal — via the SHARED
    partitioned-edge Pregel pagerank (sixth consumer) over the shared
    hashed symmetric edge stream (kg_entity_edges)."""
    from .graph import pagerank_ds

    return pagerank_ds(kg_entity_edges(triples_ds), iterations=iterations)


def kg_entity_clusters(triples_ds, rounds: int | None = None):
    """deduped triples -> (node, label): round-exact connected-component
    labels over the hashed-entity KG — entity community/cluster ids (the
    related-entity grouping a KG browse surface uses), the shared
    Pregel's SEVENTH consumer over the shared hashed symmetric edges
    (kg_entity_edges); the fixed-round min-propagation contract keeps
    the unrolled-CTE mirror bit-exact and equals true CC wherever
    component diameter <= rounds."""
    from .graph import CC_ROUNDS, cc_rounds_ds

    return cc_rounds_ds(kg_entity_edges(triples_ds),
                        rounds=rounds or CC_ROUNDS)


def kg_hub_entities(triples_ds, k: int = 15, iterations: int = 3):
    """deduped triples -> (entity, pr, rnk): the entity LEADERBOARD —
    top-k entities by KG pagerank with their names attached (the
    user-facing 'most important entities' artifact a KG browse surface
    shows first).

    Composition: the shared Pregel pagerank over hashed ids, the global
    top-k under (pr DESC, node ASC) (each node lives in one partition
    after the final rank exchange, so per-block top-ks are a sound
    prune), and the name attach AFTER the top-k via one
    kind-union hash-keyed exchange against the distinct entity names
    (only k rows ever need a name — the rank-then-join convention)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from ..functions.text import stable_hash64
    from .exchange import hash_partitioned_apply, top_k
    from .kg_stages import kg_entity_pagerank  # self-import safe at runtime

    pr = kg_entity_pagerank(triples_ds, iterations=iterations)

    top = top_k(pr, ["pr", "node"], [True, False], k,
                pa.schema([("node", pa.int64()), ("pr", pa.int64())]))

    M62 = 1 << 62

    def name_rows(df: "pd.DataFrame") -> "pd.DataFrame":
        names = np.unique(np.concatenate(
            [df["subj"].to_numpy(), df["obj"].to_numpy()]))
        hs = np.fromiter((stable_hash64(x) % M62 for x in names),
                         dtype=np.int64, count=len(names))
        return pd.DataFrame({"node": hs, "kind": np.zeros(len(hs), np.int64),
                             "entity": names, "pr": np.int64(0),
                             "rnk": np.int64(0)})

    top_rows = pd.DataFrame(
        {"node": top["node"].to_numpy(np.int64),
         "kind": np.ones(len(top), dtype=np.int64),
         "entity": "",
         "pr": top["pr"].to_numpy(np.int64),
         "rnk": np.arange(1, len(top) + 1, dtype=np.int64)})

    union = triples_ds.select_columns(["subj", "obj"]).map_batches(
        name_rows, batch_format="pandas").union(rd.from_pandas(top_rows))

    def attach(df: "pd.DataFrame") -> "pd.DataFrame":
        nm = df[df["kind"] == 0].drop_duplicates(subset=["node"])
        t = df[df["kind"] == 1]
        j = t.merge(nm[["node", "entity"]].rename(
            columns={"entity": "nm"}), on="node", how="inner")
        return pd.DataFrame(
            {"entity": j["nm"].astype(str),
             "pr": j["pr"].to_numpy(np.int64),
             "rnk": j["rnk"].to_numpy(np.int64)})

    return hash_partitioned_apply(union, ["node"], attach)


# ---------------------------------------------------------------------------
# Deterministic negative sampling for KG-embedding training (r5 batch 21)
# ---------------------------------------------------------------------------


def negative_samples(triples_ds):
    """deduped triples -> (subj, pred, obj, neg_obj): one deterministic
    corrupted-object negative per positive triple — the training-pair
    artifact a KG-embedding job (TransE-style margin loss) consumes next
    to the positive graph.  The corruption is CONSISTENT-HASHING on a
    2^62 ring: every entity key (normalized subject/object vocabulary of
    the deduped graph) hashes onto the ring at ``stable_hash64('ent:' +
    key)``, each triple probes at ``stable_hash64('neg:' + ns + US + pred
    + US + no)``, and the negative is the first entity clockwise from the
    probe (min (h, key) with h >= p, wrapping to the global min) — a
    uniform-ish, reproducible draw that needs NO random state and NO
    global rank table.  Probes that land on the true object are dropped
    (the standard filtered-negatives convention).  Display form per entity
    key is the min display string over all its occurrences (the
    kg_conflicts representative convention).

    Scale shape: the vocabulary crosses the wire exactly once (key-keyed
    min-display combiner), and the ring join is ONE bucket-keyed partition
    exchange — the ring splits into ``8 x cluster CPUs`` hash-range
    buckets, entities and probes co-locate by bucket, and each partition
    resolves its probes with one searchsorted over its sorted entities.
    Cross-bucket wrap (a probe past its bucket's last entity) resolves
    against the BOUNDED per-bucket-minimum table (<= 8 x CPUs rows,
    collected once and shipped via ray.put) — the vocabulary itself is
    never broadcast, so the operator holds at any entity count.  Hash
    cost is one md5 per entity + one per triple (the exact-dedup cost
    class).  DuckDB mirror: row_number over (h < p, h, key) per probe —
    the same ring ordering in one window."""
    import hashlib
    import struct

    import numpy as np
    import pandas as pd
    import ray

    from .exchange import (_default_partitions, collect_arrow,
                           hash_partitioned_agg, hash_partitioned_apply)
    from .wide import _norm_part_series

    M62 = 1 << 62
    NB = _default_partitions() * 8
    W = (M62 + NB - 1) // NB  # ring-bucket width: rb = h // W in [0, NB)

    def _h62(prefix: str, values) -> np.ndarray:
        out = np.empty(len(values), dtype=np.int64)
        for i, v in enumerate(values):
            d = hashlib.md5(f"0:{prefix}{v}".encode("utf-8")).digest()
            out[i] = struct.unpack("<Q", d[:8])[0] % M62
        return out

    # --- vocabulary: one (key, min display) row per entity ---------------
    def role_rows(df: "pd.DataFrame") -> "pd.DataFrame":
        subj = df["subj"].astype(str)
        obj = df["obj"].astype(str)
        return pd.DataFrame(
            {"key": pd.concat([_norm_part_series(subj),
                               _norm_part_series(obj)], ignore_index=True),
             "disp": pd.concat([subj, obj], ignore_index=True)})

    vocab = hash_partitioned_agg(
        triples_ds.select_columns(["subj", "obj"]).map_batches(
            role_rows, batch_format="pandas"),
        ["key"],
        lambda df: df.groupby("key", sort=False, as_index=False).agg(
            disp=("disp", "min")))

    def hash_vocab(df: "pd.DataFrame") -> "pd.DataFrame":
        h = _h62("ent:", df["key"].tolist())
        return pd.DataFrame(
            {"rb": (h // W).astype("int64"), "h": h,
             "key": df["key"].astype(str), "disp": df["disp"].astype(str),
             "subj": "", "pred": "", "obj": "", "no": "",
             "p": np.int64(-1)})

    ents = vocab.map_batches(hash_vocab, batch_format="pandas").materialize()

    # --- bounded per-bucket minima (wrap-resolution table) ----------------
    def bucket_min(df: "pd.DataFrame") -> "pd.DataFrame":
        d = df.sort_values(["rb", "h", "key"], kind="stable")
        return d.groupby("rb", sort=False, as_index=False).first()[
            ["rb", "h", "key", "disp"]]

    minima_ds = hash_partitioned_agg(
        ents.map_batches(
            lambda d: d[["rb", "h", "key", "disp"]], batch_format="pandas"),
        ["rb"], bucket_min)
    minima = collect_arrow(
        minima_ds,
        pa.table({"rb": pa.array([], pa.int64()),
                  "h": pa.array([], pa.int64()),
                  "key": pa.array([], pa.string()),
                  "disp": pa.array([], pa.string())})).to_pandas()
    minima = minima.sort_values("rb", kind="stable").reset_index(drop=True)
    minima_ref = ray.put(minima)

    # --- probes ------------------------------------------------------------
    def probe_rows(df: "pd.DataFrame") -> "pd.DataFrame":
        subj = df["subj"].astype(str)
        pred = df["pred"].astype(str)
        obj = df["obj"].astype(str)
        ns = _norm_part_series(subj)
        no = _norm_part_series(obj)
        keys = (ns + "\x1f" + pred + "\x1f" + no).tolist()
        p = _h62("neg:", keys)
        return pd.DataFrame(
            {"rb": (p // W).astype("int64"), "h": np.int64(-1),
             "key": "", "disp": "",
             "subj": subj, "pred": pred, "obj": obj, "no": no.astype(str),
             "p": p})

    probes = triples_ds.select_columns(["subj", "pred", "obj"]).map_batches(
        probe_rows, batch_format="pandas")

    def kernel(d: "pd.DataFrame") -> "pd.DataFrame":
        mn = ray.get(minima_ref)
        pr = d[d["p"] >= 0]
        if not len(pr) or not len(mn):
            return pd.DataFrame()
        e = d[d["p"] < 0].sort_values(["h", "key"], kind="stable")
        eh = e["h"].to_numpy()
        ekey = e["key"].to_numpy()
        edisp = e["disp"].to_numpy()
        p = pr["p"].to_numpy()
        rbp = pr["rb"].to_numpy()
        n = len(eh)
        lo = np.searchsorted(eh, p, side="left")
        safe = np.minimum(lo, max(n - 1, 0))
        in_bucket = (lo < n) & (eh[safe] // W == rbp) if n else np.zeros(
            len(p), dtype=bool)
        neg_key = np.empty(len(p), dtype=object)
        neg_disp = np.empty(len(p), dtype=object)
        neg_key[in_bucket] = ekey[safe[in_bucket]]
        neg_disp[in_bucket] = edisp[safe[in_bucket]]
        fb = ~in_bucket
        if fb.any():
            brb = mn["rb"].to_numpy()
            idx = np.searchsorted(brb, rbp[fb], side="right") % len(brb)
            neg_key[fb] = mn["key"].to_numpy()[idx]
            neg_disp[fb] = mn["disp"].to_numpy()[idx]
        out = pd.DataFrame(
            {"subj": pr["subj"].to_numpy(), "pred": pr["pred"].to_numpy(),
             "obj": pr["obj"].to_numpy(), "neg_obj": neg_disp,
             "_nk": neg_key, "_no": pr["no"].to_numpy()})
        out = out[out["_nk"] != out["_no"]]
        return out[["subj", "pred", "obj", "neg_obj"]].astype(str)

    return hash_partitioned_apply(
        ents.union(probes), ["rb"], kernel)


# ---------------------------------------------------------------------------
# Neighborhood function / effective-diameter curve (r5 batch 23)
# ---------------------------------------------------------------------------

NF_SEEDS = 16                  # seed entities (the 16 smallest node ids)
NF_ROUNDS = 4                  # truncated BFS horizon


def _nf_unpack(packed_i64: "np.ndarray", k: int) -> "np.ndarray":
    """(n,) int64 nibble-packed bit patterns -> (n, k) uint8 depths —
    module-level so every consumer of the shared BFS states decodes with
    the same lane layout."""
    import numpy as np

    u = packed_i64.view(np.uint64) if packed_i64.dtype == np.int64 \
        else packed_i64.astype(np.uint64)
    out = np.empty((len(u), k), dtype=np.uint8)
    for s in range(k):
        out[:, s] = ((u >> np.uint64(4 * s)) & np.uint64(15)).astype(
            np.uint8)
    return out


def _nf_state_parts(triples_ds, rounds: int = NF_ROUNDS,
                    n_seeds: int = NF_SEEDS):
    """Shared truncated per-seed nibble-BFS runner: executes the packed
    16-lane synchronous min-BFS described in ``neighborhood_function`` and
    returns ``(state_parts, seed_ids)`` — per-partition (node, packed)
    state object refs after ``rounds`` rounds, plus the seed id array
    (``(None, empty)`` on an empty graph).  Factored out so the ANF
    histogram and the per-seed closeness fold share ONE certified BFS
    (the Pregel machinery's eleventh-consumer pattern).

    deduped triples -> per-seed depth states: the NEIGHBORHOOD core of
    the hashed-entity KG — for the ``n_seeds`` deterministic seed
    entities (the smallest node ids), how many (seed, node) pairs sit at
    exact hop distance d for d = 0..rounds.  This is the ANF / effective-
    diameter curve (Palmer et al. '02) computed EXACTLY on a seed sample:
    the graph-connectivity health artifact a KG release reads next to
    kg_cluster_sizes (a flat curve = fragmentation; a steep one = a
    well-connected core), and a different artifact from graph_bfs's
    nearest-source ball (per-seed distances, bounded histogram output).

    Scale shape — the shared partitioned-edge Pregel's TENTH consumer,
    with a new state encoding: all ``n_seeds`` per-seed depths pack into
    ONE int64 per node as 4-bit saturating nibbles (depth 15 = INF), so
    every round still moves exactly one (node, packed) row per node and
    the nibble-wise min-merge is 16 vectorized shift/mask lanes — no
    per-seed state blowup, no per-seed rounds.  Seeds come from a
    driver-scale bottom-k fold (<= k rows per batch cross); the final
    depth histogram folds per partition to <= rounds+1 rows.  Round-
    exactness: after R synchronous min-rounds every nibble holds the
    true distance wherever it is <= R (the bfs_rounds_ds contract), so
    the unrolled-CTE DuckDB mirror is bit-exact."""
    import numpy as np
    import pandas as pd
    import ray
    import ray.data as rd

    from .exchange import collect_arrow
    from .graph import edge_keys
    from .pregel import (concat_parts, partition_edges, run_rounds,
                         split_by_owner)

    assert n_seeds * 4 <= 64, "nibble packing: at most 16 seeds"
    edges_ds = kg_entity_edges(triples_ds)

    # --- deterministic seeds: global bottom-k node ids -------------------
    def bottom_k(df: "pd.DataFrame") -> "pd.DataFrame":
        u = np.unique(df["src"].to_numpy())[:n_seeds]
        return pd.DataFrame({"node": u.astype("int64")})

    edges_mat = edges_ds.materialize()
    cand = collect_arrow(
        edges_mat.map_batches(bottom_k, batch_format="pandas"),
        pa.table({"node": pa.array([], pa.int64())}))
    seed_ids = np.unique(cand["node"].to_numpy())[:n_seeds]
    k = len(seed_ids)
    if k == 0:
        return None, seed_ids

    state_schema = pa.schema([("node", pa.int64()), ("packed", pa.int64())])
    INF_PACK = np.uint64(0)
    for s in range(k):
        INF_PACK |= np.uint64(15) << np.uint64(4 * s)

    edge_parts = partition_edges(edges_mat, edge_keys, "node")
    P = len(edge_parts)

    def _unpack(packed_i64: np.ndarray) -> np.ndarray:
        """(n,) int64 bit patterns -> (n, k) uint8 nibble depths."""
        return _nf_unpack(packed_i64, k)

    def _pack(mat: np.ndarray) -> np.ndarray:
        """(n, k) uint8 -> (n,) int64 bit patterns."""
        u = np.zeros(mat.shape[0], dtype=np.uint64)
        for s in range(k):
            u |= mat[:, s].astype(np.uint64) << np.uint64(4 * s)
        return u.view(np.int64)

    def seed_part(t: pa.Table) -> pa.Table:
        nodes = np.unique(t["node"].to_numpy())
        mat = np.full((len(nodes), k), 15, dtype=np.uint8)
        pos = np.searchsorted(nodes, seed_ids)
        for s in range(k):
            if pos[s] < len(nodes) and nodes[pos[s]] == seed_ids[s]:
                mat[pos[s], s] = 0
        return pa.table({"node": nodes.astype(np.int64),
                         "packed": _pack(mat)}, schema=state_schema)

    def _min_per_node(n: np.ndarray, mat: np.ndarray):
        if not len(n):
            return n, mat
        order = np.argsort(n, kind="stable")
        ns, ms = n[order], mat[order]
        starts = np.flatnonzero(np.r_[True, ns[1:] != ns[:-1]])
        out = np.minimum.reduceat(ms, starts, axis=0)
        return ns[starts], out

    def message_part(edges_t: pa.Table, state_t: pa.Table):
        src = edges_t["node"].to_numpy()
        sn = state_t["node"].to_numpy()
        order = np.argsort(sn)
        mat = _unpack(state_t["packed"].to_numpy())[order]
        cand = mat[np.searchsorted(sn[order], src)]
        cand = np.minimum(cand + 1, 15).astype(np.uint8)
        tgt, mm = _min_per_node(edges_t["other"].to_numpy(), cand)
        t = pa.table({"node": tgt.astype(np.int64), "packed": _pack(mm)},
                     schema=state_schema)
        return split_by_owner(t, t["node"].to_numpy(), P)

    def merge_part(state_t: pa.Table, *msg_pieces):
        inc = concat_parts(*msg_pieces) if msg_pieces else None
        n = state_t["node"].to_numpy()
        mat = _unpack(state_t["packed"].to_numpy())
        if inc is not None and inc.num_rows and len(n):
            order = np.argsort(n, kind="stable")
            n = n[order]
            mat = mat[order]
            mi = _unpack(inc["packed"].to_numpy())
            idx = np.searchsorted(n, inc["node"].to_numpy())
            np.minimum.at(mat, idx, mi)
        out = pa.table({"node": n.astype(np.int64), "packed": _pack(mat)},
                       schema=state_schema)
        return out, 0

    seed_r = ray.remote(seed_part)
    state_parts = [seed_r.remote(edge_parts[p]) for p in range(P)]
    state_parts, _ = run_rounds(edge_parts, state_parts, message_part,
                                merge_part, iterations=rounds)
    return state_parts, seed_ids


def neighborhood_function(triples_ds, rounds: int = NF_ROUNDS,
                          n_seeds: int = NF_SEEDS):
    """deduped triples -> (depth, n_pairs): the ANF / effective-diameter
    curve — exact (seed, node) pair counts per hop distance d = 0..rounds
    from the shared nibble-BFS states (``_nf_state_parts``); the final
    histogram folds per partition to <= rounds+1 rows."""
    import numpy as np
    import ray.data as rd

    from .exchange import collect_arrow

    state_parts, seed_ids = _nf_state_parts(triples_ds, rounds, n_seeds)
    k = len(seed_ids)
    if state_parts is None:
        return pa.table({"depth": pa.array([], pa.int64()),
                         "n_pairs": pa.array([], pa.int64())})

    def hist(t: pa.Table) -> pa.Table:
        mat = _nf_unpack(t["packed"].to_numpy(), k)
        flat = mat.ravel()
        flat = flat[flat <= rounds]
        counts = np.bincount(flat, minlength=rounds + 1).astype(np.int64)
        depths = np.arange(rounds + 1, dtype=np.int64)
        live = counts > 0
        return pa.table({"depth": pa.array(depths[live]),
                         "n_pairs": pa.array(counts[live])})

    parts_hist = rd.from_arrow_refs(list(state_parts)).map_batches(
        hist, batch_format="pyarrow")
    folded = collect_arrow(
        parts_hist, pa.table({"depth": pa.array([], pa.int64()),
                              "n_pairs": pa.array([], pa.int64())}))
    df = folded.to_pandas().groupby("depth", as_index=False).agg(
        n_pairs=("n_pairs", "sum")).sort_values("depth")
    return pa.table({"depth": df["depth"].astype("int64").to_numpy(),
                     "n_pairs": df["n_pairs"].astype("int64").to_numpy()})


def seed_closeness(triples_ds, rounds: int = NF_ROUNDS,
                   n_seeds: int = NF_SEEDS):
    """deduped triples -> (seed, n_reached, dist_sum): truncated
    CLOSENESS-CENTRALITY components of the ``n_seeds`` smallest-id
    entities in the hashed-entity KG — n_reached counts nodes at hop
    distance <= rounds INCLUDING the seed itself (depth 0 contributes 0
    to dist_sum), dist_sum is the exact integer distance total.  The
    Wasserman-Faust truncated closeness (n_reached - 1)^2 / ((N - 1) *
    dist_sum) is a downstream division over these exact components — the
    hub-importance artifact a KG release reads next to kg_hub_entities'
    PageRank view (distance-based vs flow-based centrality).

    Scale shape: the shared nibble-BFS Pregel's ELEVENTH consumer — the
    BFS itself is ``_nf_state_parts`` unchanged (one packed int64 row per
    node per round); this fold emits <= n_seeds rows per partition
    (lane, count, sum) and a driver-scale sum finishes.  Round-exact
    under the same bfs/cc contract as neighborhood_function, so the
    unrolled-CTE DuckDB mirror is bit-exact."""
    import numpy as np
    import ray.data as rd

    from .exchange import collect_arrow

    empty = pa.table({"seed": pa.array([], pa.int64()),
                      "n_reached": pa.array([], pa.int64()),
                      "dist_sum": pa.array([], pa.int64())})
    state_parts, seed_ids = _nf_state_parts(triples_ds, rounds, n_seeds)
    k = len(seed_ids)
    if state_parts is None:
        return empty

    def fold(t: pa.Table) -> pa.Table:
        mat = _nf_unpack(t["packed"].to_numpy(), k).astype(np.int64)
        reach = mat <= rounds
        return pa.table(
            {"lane": pa.array(np.arange(k, dtype=np.int64)),
             "n_reached": pa.array(reach.sum(axis=0).astype(np.int64)),
             "dist_sum": pa.array(
                 np.where(reach, mat, 0).sum(axis=0).astype(np.int64))})

    parts = rd.from_arrow_refs(list(state_parts)).map_batches(
        fold, batch_format="pyarrow")
    folded = collect_arrow(
        parts, pa.table({"lane": pa.array([], pa.int64()),
                         "n_reached": pa.array([], pa.int64()),
                         "dist_sum": pa.array([], pa.int64())}))
    df = folded.to_pandas().groupby("lane", as_index=False).agg(
        n_reached=("n_reached", "sum"), dist_sum=("dist_sum", "sum"))
    df["seed"] = seed_ids[df["lane"].to_numpy()].astype("int64")
    df = df.sort_values("seed")
    return pa.table({"seed": df["seed"].to_numpy(),
                     "n_reached": df["n_reached"].astype("int64").to_numpy(),
                     "dist_sum": df["dist_sum"].astype("int64").to_numpy()})


# ---------------------------------------------------------------------------
# Deterministic random-walk corpus (r5 batch-29): DeepWalk-style node
# sequences over the hashed-entity KG — the node-embedding training-data
# generator (walk corpora feed skip-gram the way token windows feed word2vec).
# ---------------------------------------------------------------------------

WALK_LEN = 3                   # steps per walk (4 nodes incl. the start)


def entity_walks(triples_ds, walk_len: int = WALK_LEN):
    """deduped triples -> (start, s1, .., s{L}) one deterministic walk per
    entity over the symmetric hashed-entity KG: from node u at step t the
    walk moves to the neighbor v minimizing (stable_hash64(f"{u}|{t}|{v}"),
    v) — a hash-seeded 'random' walk that is exactly reproducible across
    runs, workers and the SQL mirror (the kg_negative_samples determinism
    convention).  Every entity starts one walk, so the corpus is the
    node-embedding training input (DeepWalk / node2vec class) without any
    RNG state.

    Scale shape: ONE src-keyed partition exchange builds the per-(node,
    step) transition table T (argmin over the node's deduped neighbors,
    walk_len rows per node — md5 cost is walk_len x |edges|, the exact-
    dedup cost class); the walk then unrolls as walk_len chained node-keyed
    exchanges, each co-locating the current frontier row with its T rows
    and appending one step — node-grain volume per round, never an edge
    blowup, no broadcast of T (node-grain, unbroadcastable at scale)."""
    import numpy as np
    import pandas as pd

    from ..functions.text import stable_hash64
    from .exchange import hash_partitioned_apply

    edges = kg_entity_edges(triples_ds)

    def t_partial(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.drop_duplicates()

    def t_kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        d = df.drop_duplicates()
        u = d["src"].to_numpy()
        v = d["dst"].to_numpy()
        outs = []
        for t in range(walk_len):
            key = np.fromiter(
                (stable_hash64(f"{a}|{t}|{b}") for a, b in zip(u, v)),
                dtype=np.uint64, count=len(u))
            order = np.lexsort((v, key, u))
            us, vs = u[order], v[order]
            first = np.r_[True, us[1:] != us[:-1]]
            outs.append(pd.DataFrame(
                {"node": us[first].astype("int64"),
                 "t": np.full(first.sum(), t, dtype="int64"),
                 "nxt": vs[first].astype("int64")}))
        return pd.concat(outs, ignore_index=True)

    trans = hash_partitioned_apply(
        edges.map_batches(t_partial, batch_format="pandas"),
        ["src"], t_kernel).materialize()

    # walk state: kind 1 rows carry (start, s1..sL, cur); kind 0 rows are
    # the transition table re-keyed each round.  Fixed schema, -1 padding.
    step_cols = [f"s{i}" for i in range(1, walk_len + 1)]

    def starts(df: "pd.DataFrame") -> "pd.DataFrame":
        # exactly ONE t == 0 row exists per node globally, so deriving the
        # start set from those rows needs no dedup (a per-batch unique
        # would double-start a node whose walk_len rows straddle batches)
        u = df.loc[df["t"] == 0, "node"].to_numpy()
        out = pd.DataFrame({"key": u.astype("int64")})
        out["kind"] = np.int64(1)
        out["start"] = u.astype("int64")
        for c in step_cols:
            out[c] = np.int64(-1)
        out["t"] = np.int64(-1)
        out["nxt"] = np.int64(-1)
        return out

    def t_rows(df: "pd.DataFrame", r: int) -> "pd.DataFrame":
        df = df[df["t"] == r]  # ship only this round's hop rows
        out = pd.DataFrame({"key": df["node"].astype("int64")})
        out["kind"] = np.int64(0)
        out["start"] = np.int64(-1)
        for c in step_cols:
            out[c] = np.int64(-1)
        out["t"] = df["t"].astype("int64").to_numpy()
        out["nxt"] = df["nxt"].astype("int64").to_numpy()
        return out

    state = trans.map_batches(starts, batch_format="pandas")
    for r in range(walk_len):
        def advance(df: "pd.DataFrame", _r=r) -> "pd.DataFrame":
            cols = ["key", "kind", "start", *step_cols, "t", "nxt"]
            walks = df[df["kind"] == 1]
            hop = df[(df["kind"] == 0) & (df["t"] == _r)][["key", "nxt"]] \
                .rename(columns={"nxt": "_next"})
            m = walks.drop(columns=["t", "nxt"]).merge(hop, on="key")
            m[f"s{_r + 1}"] = m["_next"]
            m["key"] = m["_next"]
            m = m.drop(columns=["_next"])
            m["t"] = np.int64(-1)
            m["nxt"] = np.int64(-1)
            return m[cols]

        merged = state.union(trans.map_batches(
            lambda df, _r=r: t_rows(df, _r), batch_format="pandas"))
        state = hash_partitioned_apply(
            merged, ["key"], advance)

    def finish(df: "pd.DataFrame") -> "pd.DataFrame":
        out = df[["start", *step_cols]].copy()
        for c in ("start", *step_cols):
            out[c] = out[c].astype("int64")
        return out

    return state.map_batches(finish, batch_format="pandas")


# ---------------------------------------------------------------------------
# Inverse-relation mining (r5 batch-34): which predicate PAIRS behave as
# inverses — the AMIE-class schema-mining artifact complementing
# kg_pred_directionality's same-pred symmetry audit.
# ---------------------------------------------------------------------------


def inverse_pred_support(triples_ds):
    """deduped triples -> (pred_a, pred_b, n_ab, n_a, conf_pm): n_ab
    counts triples (s, pred_a, o) whose exact reverse (o, pred_b, s) also
    exists; conf_pm = 10000 * n_ab // n_a against pred_a's total.  A
    modeler reads high-confidence rows to collapse redundant inverse
    relations before publishing the graph.

    Scale shape: triples co-locate by UNORDERED normalized entity pair
    through ONE partition exchange; each group's direction-split pred
    lists cross-merge (<= |preds|^2 rows per pair — dedup guarantees at
    most one reverse per (triple, pred_b), so the group cross-product IS
    n_ab; self-loops are their own reverses, every ordered pred pair
    counts including p == p); bounded pred-pair combiner; the n_a
    marginal is a <= |preds| fold and the permyriad finish runs driver-
    side over the bounded |preds|^2 result (typed even when empty — the
    faithful 0-row case on corpora with no inverse pairs)."""
    import numpy as np
    import pandas as pd

    from .exchange import (collect_arrow, hash_partitioned_agg,
                           hash_partitioned_apply)
    from .wide import _norm_part_series

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        ns = _norm_part_series(df["subj"]).astype(str).to_numpy()
        no = _norm_part_series(df["obj"]).astype(str).to_numpy()
        fwd = ns <= no
        return pd.DataFrame(
            {"u": np.where(fwd, ns, no), "v": np.where(fwd, no, ns),
             "d": (~fwd).astype("int64"),
             "pred": df["pred"].astype(str).to_numpy()}).drop_duplicates()

    pair_schema = pa.schema([("pred_a", pa.string()), ("pred_b", pa.string()),
                             ("n_ab", pa.int64())])

    def kernel(df: "pd.DataFrame") -> pa.Table:
        # typed Arrow: an empty pandas block with object columns has no
        # size Ray can compute
        d = df.drop_duplicates()
        loops = d[d["u"] == d["v"]]
        outs = []
        if len(loops):
            m = loops[["u", "pred"]].merge(
                loops[["u", "pred"]].rename(columns={"pred": "pred_b"}),
                on="u")
            outs.append(m.rename(columns={"pred": "pred_a"})
                        [["pred_a", "pred_b"]])
        rest = d[d["u"] != d["v"]]
        if len(rest):
            f = rest[rest["d"] == 0][["u", "v", "pred"]]
            b = rest[rest["d"] == 1][["u", "v", "pred"]]
            m1 = f.merge(b.rename(columns={"pred": "pred_b"}),
                         on=["u", "v"]).rename(columns={"pred": "pred_a"})
            m2 = b.merge(f.rename(columns={"pred": "pred_b"}),
                         on=["u", "v"]).rename(columns={"pred": "pred_a"})
            outs.append(m1[["pred_a", "pred_b"]])
            outs.append(m2[["pred_a", "pred_b"]])
        g = pd.concat(outs, ignore_index=True)
        out = g.groupby(["pred_a", "pred_b"], sort=False,
                        as_index=False).size() \
            .rename(columns={"size": "n_ab"})
        return pa.Table.from_pandas(out, schema=pair_schema,
                                    preserve_index=False)

    tagged = triples_ds.select_columns(["subj", "pred", "obj"]).map_batches(
        partial, batch_format="pandas").materialize()
    pairs = collect_arrow(hash_partitioned_agg(
        hash_partitioned_apply(tagged, ["u", "v"], kernel),
        ["pred_a", "pred_b"],
        lambda df: df.groupby(["pred_a", "pred_b"], sort=False,
                              as_index=False).agg(n_ab=("n_ab", "sum"))
    ), pair_schema).to_pandas()

    marg = collect_arrow(hash_partitioned_agg(
        tagged.map_batches(
            lambda df: df.groupby("pred", sort=False, as_index=False)
            .size().rename(columns={"size": "n_a"}),
            batch_format="pandas"),
        ["pred"],
        lambda df: df.groupby("pred", sort=False, as_index=False).agg(
            n_a=("n_a", "sum"))
    ), pa.schema([("pred", pa.string()), ("n_a", pa.int64())]))
    n_a_map = dict(zip(marg["pred"].to_pylist(), marg["n_a"].to_pylist()))

    pairs["n_a"] = pairs["pred_a"].map(n_a_map).astype("int64")
    pairs["conf_pm"] = np.fromiter(
        ((10000 * int(ab)) // int(a)
         for ab, a in zip(pairs["n_ab"], pairs["n_a"])),
        dtype="int64", count=len(pairs))
    return pairs[["pred_a", "pred_b", "n_ab", "n_a", "conf_pm"]]
