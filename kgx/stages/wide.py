"""Wide (shuffle) stages: salted entity canonicalization, exact triple
dedup + categorization, and adjacency grouping.

These are the all-to-all exchanges of the pipeline (SURVEY.md §2 G2/G4/O3).
Skew strategy: head entity keys (popular orgs — in the synthetic corpus one
ORG receives ~30% of subject mentions) are handled with a SALTED two-phase
aggregate: phase 1 groups on (entity_key, salt) where salt is derived from
the row's lineage, producing one partial row per (key, salt); phase 2 groups
the tiny partial set on entity_key alone.  The merge function is associative
and commutative (kgx.functions.pipeline_core.merge_entity_group), so the
two-phase result equals the serial oracle's single-pass result exactly.
One Arrow kernel, :func:`merge_entities`, is that merge at every level: the
bundled per-batch combiner, phase 1 and phase 2.

The same partial/final pattern pre-shrinks the exact-dedup shuffle: most
duplicate (s,p,o) rows collapse in the combiner before any data moves, and
one Arrow kernel, :func:`merge_triples`, is that merge at both levels.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import schema as S

_SALTED = ["entity_key", "salt"]


def _run_starts(cols: list) -> np.ndarray:
    """True where a row of the sorted columns ``cols`` (numpy or Arrow
    arrays of one length) starts a run of equal values; a null equals a
    null and differs from every value."""
    n = len(cols[0])
    if n < 2:
        return np.ones(n, dtype=bool)
    same = np.ones(n - 1, dtype=bool)
    for c in cols:
        if isinstance(c, np.ndarray):
            same &= c[1:] == c[:-1]
            continue
        a, b = c.slice(1), c.slice(0, n - 1)
        eq = pc.equal(a, b)
        if c.null_count:
            eq = pc.if_else(pc.is_null(eq),
                            pc.and_(pc.is_null(a), pc.is_null(b)), eq)
        same &= eq.to_numpy(zero_copy_only=False)
    return np.r_[True, ~same]


def merge_entities(t: pa.Table, keys: list[str]) -> pa.Table:
    """Partial entity rows -> one row per distinct ``keys``: the one entity
    merge kernel (combiner, salted phase 1 and final phase alike), equal to
    ``merge_entity_group`` per key (property- and conformance-tested).

    Every aggregate is the first row of a key run under its own sort:
    the keys are sorted once and numbered by run (``gid``), and every other
    order sorts on ``gid`` first, so run ``i`` starts at the same position
    ``heads[i]`` in each order.  Min non-NIL id and summed mention count
    are ``reduceat`` over the runs; the canonical name sorts by code-point
    length descending, then by name ascending (UTF-8 byte order is
    code-point order, so this is ``merge_entity_group``'s ``(len, -ord)``
    rule); the lineage is the ``(url, seg_id)`` tuple-min; the aliases are
    the flattened lists sorted by (gid, alias) with adjacent duplicates
    dropped.  Output columns: ``keys``, entity_id, canonical_name, aliases,
    n_mentions, url, seg_id.

    Not ``Table.group_by``: its groups need not come out in key order
    (pyarrow 16.1 returned those of a key-sorted block out of order), so
    the results of several group-bys cannot be aligned by position."""
    t = t.combine_chunks()
    order = pc.sort_indices(
        t, sort_keys=[(k, "ascending") for k in keys]).to_numpy()
    start = _run_starts([t[k].take(order) for k in keys])
    heads = np.flatnonzero(start)
    gid = np.empty(len(order), dtype=np.int64)
    gid[order] = np.cumsum(start) - 1

    def firsts(**by) -> pa.Array:
        """Index of each run's first row when sorted by gid, then ``by``."""
        cols = {"gid": gid, **{c: v for c, (v, _) in by.items()}}
        sort = [("gid", "ascending")] + [(c, d) for c, (_, d) in by.items()]
        return pc.sort_indices(pa.table(cols), sort_keys=sort) \
            .take(pa.array(heads))

    name = t["canonical_name"]
    name_rows = firsts(n=(pc.utf8_length(name), "descending"),
                       name=(name, "ascending"))
    lin_rows = firsts(url=(t["url"], "ascending"),
                      seg=(t["seg_id"], "ascending"))

    big = np.iinfo(np.int64).max
    ids = t["entity_id"].to_numpy()
    ids = np.minimum.reduceat(np.where(ids >= 0, ids, big)[order], heads)
    ids[ids == big] = -1
    n = np.add.reduceat(t["n_mentions"].to_numpy()[order], heads)

    lens = pc.fill_null(pc.list_value_length(t["aliases"]), 0).to_numpy()
    ag = np.repeat(gid, lens)
    al = pc.list_flatten(t["aliases"]).combine_chunks()
    o = pc.sort_indices(pa.table({"gid": ag, "a": al}),
                        sort_keys=[("gid", "ascending"), ("a", "ascending")]
                        ).to_numpy()
    ag, al = ag[o], al.take(o)
    keep = _run_starts([ag, al])
    offsets = np.zeros(len(heads) + 1, dtype=np.int32)
    np.cumsum(np.bincount(ag[keep], minlength=len(heads)), out=offsets[1:])
    aliases = pa.ListArray.from_arrays(offsets, al.filter(pa.array(keep)))

    rows = pa.array(order[heads])
    return pa.table({
        **{k: t[k].take(rows) for k in keys},
        "entity_id": ids,
        "canonical_name": name.take(name_rows),
        "aliases": aliases,
        "n_mentions": n,
        "url": t["url"].take(lin_rows),
        "seg_id": t["seg_id"].take(lin_rows),
    })


def mention_partials(batch: pa.Table, salt_buckets: int) -> pa.Table:
    """linked triples -> partial entity rows merged per (entity_key, salt):
    the combiner that keeps the canonicalize exchange from moving every
    mention row.

    The explode makes 2 mention rows per triple (subject, then object),
    each with a one-element alias list (its surface), so the one kernel
    merges raw mentions and partial rows alike.  The salt is the
    exchange's value hash of ``"url|seg_id"`` modulo ``salt_buckets``; it
    only steers phase-1 partitioning, so any deterministic hash preserves
    the final entities exactly (conformance- and skew-tested)."""
    from .exchange import _value_hash

    def both(a: str, b: str) -> pa.ChunkedArray:
        return pa.chunked_array(batch[a].chunks + batch[b].chunks)

    n = batch.num_rows
    lineage = pc.binary_join_element_wise(
        batch["url"], pc.cast(batch["seg_id"], pa.string()), "|")
    salt = (_value_hash(lineage) % np.uint64(salt_buckets)).astype(np.int32)
    m = pa.table({
        "entity_key": both("subj_key", "obj_key"),
        "salt": np.concatenate([salt, salt]),
        "entity_id": both("subj_id", "obj_id"),
        "canonical_name": both("subj", "obj"),
        "aliases": pa.ListArray.from_arrays(
            np.arange(2 * n + 1, dtype=np.int32),
            both("subj_surface", "obj_surface").combine_chunks()),
        "n_mentions": np.ones(2 * n, dtype=np.int64),
        "url": both("url", "url"),
        "seg_id": both("seg_id", "seg_id"),
    })
    return merge_entities(m, _SALTED)


def _final_kernel(t: pa.Table) -> pa.Table:
    m = merge_entities(t.drop_columns(["salt"]), ["entity_key"])
    return m.rename_columns(S.ENTITIES.names).cast(S.ENTITIES)


def canonical_phase1(linked_ds, cfg: dict):
    """Combiner + phase-1 salted exchange: partial rows merged per
    (entity_key, salt), so a head key reaches the final exchange as at most
    ``salt_buckets`` rows (the skew bound, asserted in tests/test_skew.py).
    The combiner runs bundled (``batch_size=200_000``, as the dedup and
    adjacency combiners do): its cost is per call, not per row."""
    from .exchange import hash_partitioned_apply

    salt_buckets = cfg["processing"]["canonicalize"]["salt_buckets"]
    return hash_partitioned_apply(
        linked_ds, _SALTED, lambda t: merge_entities(t, _SALTED),
        kernel_format="pyarrow",
        combine=lambda b: mention_partials(b, salt_buckets),
        combine_batch_size=200_000)


def canonical_entities(linked_ds, cfg: dict):
    """ray.data.Dataset[LINKED_FULL] -> Dataset[ENTITIES] via the salted
    two-phase exchange described in the module docstring.  Both phases run
    :func:`merge_entities` once per partition (or once on the driver, on
    the exchange's driver route) over Arrow batches — no per-entity-key
    Python and no pandas frame."""
    from .exchange import hash_partitioned_apply

    phase1 = canonical_phase1(linked_ds, cfg)
    return hash_partitioned_apply(phase1, ["entity_key"], _final_kernel,
                                  kernel_format="pyarrow")


# ---------------------------------------------------------------------------
# Exact triple dedup + categorize
# ---------------------------------------------------------------------------
#
# One Arrow kernel, merge_triples, is merge_triple_group (pipeline_core) at
# every level: the bundled per-batch combiner and the final merge.  The key
# ``dkey`` is normalize_triple_part(subj) | pred | normalize_triple_part(obj)
# and stays its own column next to the lineage columns, so a url holding
# control characters can never corrupt the merge (a packed-\x1f-string
# encoding once crashed on data-controlled urls, ADVICE.md 2026-08-17).

_SEP = "\x1f"  # separator INSIDE dkey only: parts there are normalize_triple_part
# output (control chars stripped), so the key can never be ambiguous.
_LIN_COLS = ["url", "seg_id", "subj", "pred", "obj"]
# normalize_triple_part's classes after an ASCII lower, spelled out for
# RE2: (?a)\w is [0-9a-z_] once lowered, and RE2's \s lacks the \v of (?a)\s
_PUNCT_RE2 = "[^0-9a-z_ \t\n\x0b\x0c\r]"
_WS_RE2 = "[ \t\n\x0b\x0c\r]+"


def _norm_part_series(s):
    """Vectorized normalize_triple_part (lower, strip ASCII punct, collapse
    ws, strip) — (?a) mirrors the re.ASCII flag of the scalar version."""
    return (
        s.str.lower()
        .str.replace(r"(?a)[^\w\s]", "", regex=True)
        .str.replace(r"\s+", " ", regex=True)
        .str.strip()
    )


def _non_ascii_by(a, out, fn):
    """``out`` with ``fn(value)`` in place of every non-ASCII value of the
    string array ``a``: what Arrow's ASCII kernels cannot mirror (Python's
    ``lower`` maps some non-ASCII characters to ASCII ones, the Kelvin sign
    to ``k`` and ``İ`` to ``i̇``)."""
    slow = pc.invert(pc.fill_null(pc.string_is_ascii(a), True))
    if not pc.any(slow).as_py():
        return out
    vals = [fn(v) for v in a.filter(slow).to_pylist()]
    if isinstance(out, pa.ChunkedArray):  # replace_with_mask takes arrays
        out, slow = out.combine_chunks(), slow.combine_chunks()
    return pc.replace_with_mask(out, slow, pa.array(vals, pa.string()))


def _norm_parts(a):
    """``normalize_triple_part`` of every value of the string array ``a``."""
    from ..functions.text import normalize_triple_part

    out = pc.replace_substring_regex(pc.ascii_lower(a), _PUNCT_RE2, "")
    out = pc.utf8_trim(pc.replace_substring_regex(out, _WS_RE2, " "), " ")
    return _non_ascii_by(a, out, normalize_triple_part)


def merge_triples(t: pa.Table) -> pa.Table:
    """Partial dedup rows (dkey, url, seg_id, subj, pred, obj, conf,
    n_support) -> one row per ``dkey``: ``merge_triple_group`` per key, at
    any level and over any split of the rows (property-tested).

    One sort on (dkey, url, seg_id, subj, pred, obj) puts each key's
    tuple-min lineage at the head of its run (UTF-8 byte order is Python's
    code-point order); conf is the max and n_support the sum over the run
    (``reduceat``).  Rows come out in dkey order."""
    t = t.combine_chunks()
    by = ["dkey", *_LIN_COLS]
    order = pc.sort_indices(t, sort_keys=[(c, "ascending") for c in by]) \
        .to_numpy()
    heads = np.flatnonzero(_run_starts([t["dkey"].take(order)]))
    rows = pa.array(order[heads])
    return pa.table({
        **{c: t[c].take(rows) for c in by},
        "conf": np.maximum.reduceat(t["conf"].to_numpy()[order], heads),
        "n_support": np.add.reduceat(t["n_support"].to_numpy()[order],
                                     heads),
    })


def dedup_partials(t: pa.Table) -> pa.Table:
    """Linked rows -> partial dedup rows: the combiner of the exact-dedup
    exchange, so duplicate (s, p, o) collapse before any row moves."""
    dkey = pc.binary_join_element_wise(
        _norm_parts(t["subj"]), t["pred"], _norm_parts(t["obj"]), _SEP)
    return merge_triples(pa.table({
        "dkey": dkey, **{c: t[c] for c in _LIN_COLS}, "conf": t["conf"],
        "n_support": np.ones(t.num_rows, dtype=np.int64)}))


def categorize(t: pa.Table, cat_order: list[str], cat_kw: dict) -> pa.Array:
    """``categorize_triple`` of every row: per category, the number of its
    keywords found in the lowered "subj pred obj"; the first category of
    ``cat_order`` with the highest count wins, "general" when none hits."""
    hay = pc.binary_join_element_wise(t["subj"], t["pred"], t["obj"], " ")
    low = _non_ascii_by(hay, pc.ascii_lower(hay), str.lower)
    cats = [c for c in cat_order if c != "general"]
    scores = np.full((len(cats) + 1, len(low)), 0.5)  # last row: general
    for i, c in enumerate(cats):
        scores[i] = sum((pc.match_substring(low, kw).to_numpy(
            zero_copy_only=False) for kw in cat_kw.get(c) or []), 0)
    names = np.array([*cats, "general"], dtype=object)
    return pa.array(names[scores.argmax(axis=0)], pa.string())


def final_triples(t: pa.Table, cat_order: list[str], cat_kw: dict) -> pa.Table:
    """Partial dedup rows -> final TRIPLES rows: the last merge, then the
    category of each."""
    m = merge_triples(t)
    return pa.table({
        **{c: m[c] for c in ("subj", "pred", "obj", "url", "seg_id", "conf")},
        "category": categorize(m, cat_order, cat_kw),
        "n_support": m["n_support"],
    }).cast(S.TRIPLES)


def dedup_and_categorize(linked_ds, cfg: dict):
    """Dataset[LINKED_FULL] -> Dataset[TRIPLES].

    Exact dedup as one hash exchange (``exchange.hash_partitioned_apply``)
    on ``dkey``: :func:`dedup_partials` is the bundled combiner (one row
    per key per batch, so the shuffle moves partials, not triples), and
    each partition (one per cluster CPU, not per key) re-merges with
    :func:`merge_triples` and categorizes (G3) in the same call.  A pinned
    small input runs both once, on the driver.  Keys are wholly contained
    in one partition and the merge is associative/commutative, so the
    result equals the serial oracle for any block arrangement.  Skewed
    KEYS are harmless here (a key is one row per upstream batch after the
    combiner)."""
    from .exchange import hash_partitioned_apply

    cats = cfg["categories"]["order"], cfg["categories"]["keywords"]
    # A large combiner batch bundles several upstream blocks into one task:
    # partial output is ~#keys rows per TASK, so fewer/bigger combiner tasks
    # directly shrink the exchange.
    return hash_partitioned_apply(
        linked_ds, ["dkey"], lambda t: final_triples(t, *cats),
        kernel_format="pyarrow", combine=dedup_partials,
        combine_batch_size=200_000)


def adjacency_from_triples(triples_ds):
    """Dataset[TRIPLES] -> Dataset[ADJACENCY]: grouped edges per subject with
    deterministic (obj, pred) ordering (O3 sorted graph materialization).

    Same hash exchange as ``dedup_and_categorize``: a per-batch combiner
    shrinks edges to distinct (subj, obj, pred), then partitions keyed on
    ``subj``, each building all its adjacency lists in a single vectorized
    pandas pass — no per-subject Python map_groups (VERDICT r1 "What's
    wrong" #7).  Subjects are wholly contained in one partition, so output
    rows equal the serial ``adjacency_rows`` exactly (pytest
    test_conformance)."""
    import pandas as pd

    from .exchange import hash_partitioned_apply

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        return df[["subj", "obj", "pred"]].drop_duplicates()

    def build(df: "pd.DataFrame") -> pa.Table:
        e = df[["subj", "obj", "pred"]].drop_duplicates()
        e = e.sort_values(["subj", "obj", "pred"])
        g = e.groupby("subj", sort=True)
        neighbors = g["obj"].agg(list)
        preds = g["pred"].agg(list)
        deg = g.size()
        return pa.table(
            {
                "subj": pa.array(neighbors.index, type=pa.string()),
                "neighbors": pa.array(neighbors.tolist(), type=pa.list_(pa.string())),
                "preds": pa.array(preds.tolist(), type=pa.list_(pa.string())),
                "out_degree": pa.array(deg.tolist(), type=pa.int64()),
            },
            schema=S.ADJACENCY,
        )

    return hash_partitioned_apply(
        triples_ds, ["subj"], build, combine=partial,
        combine_batch_size=200_000)
