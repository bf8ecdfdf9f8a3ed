"""Corpus-level statistics operators for training-data curation:
deterministic hash sampling and global top-k n-gram counting.

Both are staple stages of an LLM-data pipeline (subsample a corpus
reproducibly; build a vocabulary / boilerplate-phrase list) expressed
Ray-Data-first, with the decision rules in pure integer arithmetic so the
DuckDB oracle reproduces them bit-exactly (the kgx driver-contract
convention; see kgx/sql_oracles.py for the HUGEINT wraparound technique).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

# Wraparound-multiply hash constants (Knuth-style multiplicative hashing).
# Mirrored verbatim in the SQL oracle: DuckDB computes the same product in
# HUGEINT and reduces mod 2^64, numpy wraps natively in uint64.
SAMPLE_MUL = 0x9E3779B97F4A7C15
SAMPLE_ADD = 0x632BE59BD9B4E019


def sample_bucket_np(ids: np.ndarray, buckets: int = 1000) -> np.ndarray:
    """Deterministic per-id sample bucket: top 32 bits of the wraparound
    product (the low bits of a multiplicative hash are weaker) mod buckets.
    Fully vectorized — no per-row Python, unlike an md5-based fingerprint."""
    with np.errstate(over="ignore"):
        h = ids.astype(np.uint64) * np.uint64(SAMPLE_MUL) + np.uint64(SAMPLE_ADD)
    return ((h >> np.uint64(32)) % np.uint64(buckets)).astype(np.int64)


def sample_documents(docs_ds, pct: int = 10, buckets: int = 1000):
    """documents -> the deterministic ``pct``% sample: rows whose hash bucket
    < pct * buckets / 100.  Reproducible across runs/cluster sizes (pure
    function of doc_id), stable under corpus growth (a kept doc stays kept),
    and embarrassingly parallel — one vectorized filter per batch, no
    shuffle.  Output carries the bucket so the oracle check pins the hash,
    not just the row count."""
    keep_below = pct * buckets // 100

    def kernel(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        bucket = sample_bucket_np(ids, buckets)
        mask = bucket < keep_below
        return pa.table(
            {
                "doc_id": pa.array(ids[mask]),
                "sample_bucket": pa.array(bucket[mask]),
            },
            schema=pa.schema(
                [("doc_id", pa.int64()), ("sample_bucket", pa.int64())]
            ),
        )

    return docs_ds.map_batches(kernel, batch_format="pyarrow")


def sql_sample_documents(pct: int = 10, buckets: int = 1000) -> str:
    """DuckDB oracle for sample_documents: the same wraparound multiply in
    HUGEINT, reduced mod 2^64, top-32-bits, mod buckets."""
    keep_below = pct * buckets // 100
    two64 = 1 << 64
    expr = (
        f"(((CAST(doc_id AS HUGEINT) * {SAMPLE_MUL} + {SAMPLE_ADD}) % {two64}) "
        f"// {1 << 32}) % {buckets}"
    )
    return (
        f"WITH b AS (SELECT doc_id, {expr} AS sample_bucket FROM documents) "
        "SELECT CAST(doc_id AS BIGINT) AS doc_id, "
        "CAST(sample_bucket AS BIGINT) AS sample_bucket "
        f"FROM b WHERE sample_bucket < {keep_below}"
    )


# ---------------------------------------------------------------------------
# Global top-k n-grams (vocabulary / boilerplate-phrase mining)
# ---------------------------------------------------------------------------


def ngram_topk(docs_ds, n: int = 2, k: int = 20):
    """documents -> the k most frequent word n-grams corpus-wide, tie-break
    gram asc; output (gram, n_occurrences, rank).

    Counts combine per batch BEFORE the shuffle (one row per distinct gram
    per batch), the keyed exchange merges per partition vectorized, and only
    each block's top k rows reach the driver — gram cardinality is unbounded
    at web scale but the exchange moves partial counts, never occurrences.

    Arrow end-to-end (VERDICT r3 #8): gram assembly is a flat token array
    with sentinel doc boundaries + numpy shifted-concat (no per-gram Python
    dict), counting is one ``pc.value_counts`` C call per batch, and the
    exchange merges with Arrow ``group_by`` — blocks never round-trip
    through pandas until the final k-row rank projection."""
    import pyarrow.compute as pc
    import ray.data as rd

    from ..functions.text import tokenize
    from .exchange import hash_partitioned_agg, top_k

    _SENT = "\x00"  # can never appear in a token (tokenizer is ASCII words)
    _EMPTY = pa.table(
        {"gram": pa.array([], pa.string()),
         "n_occurrences": pa.array([], pa.int64())}
    )

    def partial(batch: pa.Table) -> pa.Table:
        flat: list[str] = []
        sent_pos: list[int] = []
        for text in batch["text"].to_pylist():
            flat.extend(tokenize(text or ""))
            sent_pos.append(len(flat))
            flat.append(_SENT)
        if len(flat) < n:
            return _EMPTY
        toks = np.asarray(flat, dtype=object)
        m = len(toks) - n + 1
        grams = toks[:m]
        # positions tracked by INDEX, not string compare: numpy converts a
        # "\x00" comparison scalar to unicode and strips trailing NULs, so
        # `toks == _SENT` is silently all-False
        sent = np.zeros(len(toks), dtype=bool)
        sent[np.asarray(sent_pos, dtype=np.int64)] = True
        bad = sent[:m].copy()
        for j in range(1, n):
            grams = grams + " " + toks[j : j + m]
            bad |= sent[j : j + m]
        vc = pc.value_counts(pa.array(grams[~bad], pa.string()))
        if len(vc) == 0:
            return _EMPTY
        return pa.table(
            {"gram": vc.field("values"), "n_occurrences": vc.field("counts")}
        )

    def combine(t: pa.Table) -> pa.Table:
        out = t.group_by("gram").aggregate([("n_occurrences", "sum")])
        return out.rename_columns(["gram", "n_occurrences"])

    counts = hash_partitioned_agg(
        docs_ds.map_batches(partial, batch_format="pyarrow"), ["gram"], combine,
        kernel_format="pyarrow",
    )
    # the rank is computed once over the merged top-k, never per block: a
    # per-block rank restarts at 1 in every block (driver-caught r3 bug)
    top = top_k(counts, ["n_occurrences", "gram"], [True, False], k, _EMPTY)
    top["rank"] = np.arange(1, len(top) + 1, dtype=np.int64)
    return rd.from_pandas(top[["gram", "n_occurrences", "rank"]])


IDF_SCALE = 1000


def tfidf_topk(docs_ds, n_docs: int, k: int = 3):
    """documents -> the ``k`` highest-tf-idf tokens per doc:
    (doc_id, token, score, rank), score = tf * ((n_docs * IDF_SCALE) // df).

    The idf is integer fixed-point (floor) so the DuckDB oracle is
    bit-exact; ``n_docs`` comes from parquet metadata (no data read).
    ONE tokenization scan and two keyed exchanges, each vectorized:

    1. score: tf rows co-partition by hash(token); because each doc's
       counts are complete within its batch, (doc_id, token) rows are
       globally unique, so df(token) is simply the token's GROUP SIZE
       inside its partition — no separate df build, no repartition join
       (a prior layout spent an extra combiner exchange + a second
       tokenization scan shipping df rows to the same partitions);
    2. per-doc top-k: partition-only exchange on doc_id, one vectorized
       sort + groupby-head kernel (the same shape as rel_topk_per_group).
    """
    import pandas as pd

    from ..functions.text import tokenize
    from .exchange import hash_partitioned_apply

    def tf_rows(batch: pa.Table) -> pa.Table:
        # flat (doc_id, token) pairs; the per-doc counting dict becomes ONE
        # Arrow group_by count per batch (C hash table, VERDICT r3 #8)
        ids: list[int] = []
        toks: list[str] = []
        for did, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            tk = tokenize(text or "")
            toks.extend(tk)
            ids.extend([did] * len(tk))
        pairs = pa.table(
            {"doc_id": pa.array(ids, pa.int64()),
             "token": pa.array(toks, pa.string())}
        )
        tf = pairs.group_by(["doc_id", "token"]).aggregate([([], "count_all")])
        return tf.rename_columns(["doc_id", "token", "tf"])

    tf = docs_ds.map_batches(tf_rows, batch_format="pyarrow")

    def score_kernel(d: "pd.DataFrame") -> "pd.DataFrame":
        df = d.groupby("token", sort=False)["token"].transform("size").to_numpy()
        idf = (n_docs * IDF_SCALE) // df
        return pd.DataFrame(
            {
                "doc_id": d["doc_id"].astype("int64"),
                "token": d["token"],
                "score": (d["tf"].to_numpy() * idf).astype("int64"),
            }
        )

    scored = hash_partitioned_apply(tf, ["token"], score_kernel)

    def topk_kernel(d: "pd.DataFrame") -> "pd.DataFrame":
        d = d.sort_values(["doc_id", "score", "token"],
                          ascending=[True, False, True])
        out = d.groupby("doc_id", sort=False).head(k).copy()
        out["rank"] = out.groupby("doc_id", sort=False).cumcount() + 1
        out["rank"] = out["rank"].astype("int64")
        return out[["doc_id", "token", "score", "rank"]]

    return hash_partitioned_apply(scored, ["doc_id"], topk_kernel)


def sql_tfidf_topk(sql_token_list: str, k: int = 3) -> str:
    return f"""
WITH tok AS (
  SELECT doc_id, unnest({sql_token_list}) AS token FROM documents
), tf AS (
  SELECT doc_id, token, CAST(count(*) AS BIGINT) AS tf FROM tok GROUP BY 1, 2
), df AS (
  SELECT token, CAST(count(DISTINCT doc_id) AS BIGINT) AS df FROM tok GROUP BY 1
), n AS (SELECT count(*) AS n FROM documents
), s AS (
  SELECT tf.doc_id, tf.token,
         CAST(tf.tf * ((n.n * {IDF_SCALE}) // df.df) AS BIGINT) AS score
  FROM tf JOIN df USING (token) CROSS JOIN n
), r AS (
  SELECT *, row_number() OVER (
    PARTITION BY doc_id ORDER BY score DESC, token) AS rnk FROM s
)
SELECT CAST(doc_id AS BIGINT) AS doc_id, token, score,
       CAST(rnk AS BIGINT) AS "rank"
FROM r WHERE rnk <= {k}
"""


def inverted_index(docs_ds, postings_k: int = 5):
    """documents -> posting-list rows (token, df, doc_id, posting_rank):
    per token its document frequency and the first ``postings_k`` doc_ids
    ascending, one ROW per posting (no per-token string join — the list
    shape stays columnar and the oracle is a plain window function).

    Per-batch combiner bounds the exchange: each batch ships at most one
    count row plus ``postings_k`` candidate posting rows per distinct
    token (min-k is associative), so shuffle volume is O(batches x vocab),
    never O(corpus tokens).  Kind discriminator: count rows have
    doc_id = -1 and carry cnt; posting rows carry cnt = 0."""
    import pandas as pd

    from ..functions.text import tokenize
    from .exchange import hash_partitioned_apply

    def partial(batch: pa.Table) -> pa.Table:
        # distinct (token, doc_id) via Arrow group_by; per-token count rows
        # and min-k posting rows via ONE lexsort + group-start arithmetic
        # (no pandas round trip — VERDICT r3 #8 pattern)
        toks: list[str] = []
        ids: list[int] = []
        for did, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            seen = set(tokenize(text or ""))
            toks.extend(seen)
            ids.extend([did] * len(seen))
        if not toks:
            return pa.table({})
        tok_np = np.asarray(toks, dtype=object)
        doc_np = np.asarray(ids, dtype=np.int64)
        order = np.lexsort((doc_np, tok_np))
        tok_s, doc_s = tok_np[order], doc_np[order]
        starts = np.flatnonzero(np.r_[True, tok_s[1:] != tok_s[:-1]])
        sizes = np.diff(np.r_[starts, len(tok_s)])
        rank = np.arange(len(tok_s)) - np.repeat(starts, sizes)
        keep = rank < postings_k
        return pa.table(
            {
                "token": pa.array(
                    np.concatenate([tok_s[starts], tok_s[keep]]), pa.string()
                ),
                "doc_id": pa.array(
                    np.concatenate(
                        [np.full(len(starts), -1, dtype=np.int64), doc_s[keep]]
                    )
                ),
                "cnt": pa.array(
                    np.concatenate(
                        [sizes.astype(np.int64),
                         np.zeros(int(keep.sum()), dtype=np.int64)]
                    )
                ),
            }
        )

    def kernel(d: "pd.DataFrame") -> "pd.DataFrame":
        df_per_token = (
            d[d["doc_id"] < 0].groupby("token", sort=False, as_index=False)
            .agg(df=("cnt", "sum"))
        )
        post = d[d["doc_id"] >= 0].sort_values(["token", "doc_id"])
        post = post.groupby("token", sort=False).head(postings_k).copy()
        post["posting_rank"] = post.groupby("token", sort=False).cumcount() + 1
        m = post.merge(df_per_token, on="token", how="inner")
        return pd.DataFrame(
            {
                "token": m["token"],
                "df": m["df"].astype("int64"),
                "doc_id": m["doc_id"].astype("int64"),
                "posting_rank": m["posting_rank"].astype("int64"),
            }
        )

    rows = docs_ds.map_batches(partial, batch_format="pyarrow")
    return hash_partitioned_apply(rows, ["token"], kernel)


def sql_inverted_index(sql_token_list: str, postings_k: int = 5) -> str:
    return f"""
WITH tok AS (
  SELECT DISTINCT doc_id, token FROM (
    SELECT doc_id, unnest({sql_token_list}) AS token FROM documents
  )
), df AS (
  SELECT token, CAST(count(*) AS BIGINT) AS df FROM tok GROUP BY 1
), p AS (
  SELECT token, doc_id,
         row_number() OVER (PARTITION BY token ORDER BY doc_id) AS pr
  FROM tok
)
SELECT p.token, df.df, CAST(p.doc_id AS BIGINT) AS doc_id,
       CAST(p.pr AS BIGINT) AS posting_rank
FROM p JOIN df USING (token) WHERE p.pr <= {postings_k}
"""


def sql_ngram_topk(sql_token_list: str, n: int = 2, k: int = 20) -> str:
    """DuckDB oracle for ngram_topk over the shared tokenizer expression."""
    gram = " || ' ' || ".join(f"toks[i+{j}]" for j in range(n))
    return f"""
WITH tok AS (SELECT {sql_token_list} AS toks FROM documents),
g AS (
  SELECT unnest(list_transform(generate_series(1, len(toks) - {n - 1}),
                i -> {gram})) AS gram
  FROM tok WHERE len(toks) >= {n}
),
c AS (
  SELECT gram, CAST(count(*) AS BIGINT) AS n_occurrences FROM g GROUP BY gram
)
SELECT gram, n_occurrences,
       CAST(row_number() OVER (ORDER BY n_occurrences DESC, gram) AS BIGINT)
         AS "rank"
FROM c ORDER BY n_occurrences DESC, gram LIMIT {k}
"""


# ---------------------------------------------------------------------------
# Stratified sampling (per-source rates — curation rebalancing)
# ---------------------------------------------------------------------------

STRATA_PCTS = (25, 10, 5)  # source-tier keep rates (tier = source num % 3)


def stratified_sample_documents(docs_ds, buckets: int = 1000):
    """documents -> the deterministic per-SOURCE-tier sample: each source
    keeps STRATA_PCTS[tier]% of its docs (tier = trailing source number
    mod 3; unparseable sources fail open to tier 1), same hash-bucket rule
    as ``sample_documents`` — the corpus-rebalancing staple (oversample
    scarce high-quality sources, downsample boilerplate-heavy ones).

    Embarrassingly parallel: one vectorized filter per batch, no shuffle;
    kept docs stay kept under corpus growth, and per-source rates can be
    retuned without invalidating other sources' samples (the bucket is a
    pure function of doc_id)."""
    keep_below = np.array(
        [p * buckets // 100 for p in STRATA_PCTS], dtype=np.int64
    )

    def kernel(batch: pa.Table) -> pa.Table:
        import pandas as pd

        ids = batch["doc_id"].to_numpy()
        src = pd.Series(batch["source"].to_pylist(), dtype="object")
        num = pd.to_numeric(
            src.str.extract(r"(\d+)$", expand=False), errors="coerce"
        )
        tier = num.fillna(1).astype("int64").to_numpy() % 3
        bucket = sample_bucket_np(ids, buckets)
        mask = bucket < keep_below[tier]
        return pa.table(
            {
                "doc_id": pa.array(ids[mask], type=pa.int64()),
                "source": pa.array(src.to_numpy()[mask], type=pa.string()),
                "sample_bucket": pa.array(bucket[mask], type=pa.int64()),
            }
        )

    return docs_ds.map_batches(kernel, batch_format="pyarrow")


def sql_stratified_sample_documents(buckets: int = 1000) -> str:
    two64 = 1 << 64
    expr = (
        f"(((CAST(doc_id AS HUGEINT) * {SAMPLE_MUL} + {SAMPLE_ADD}) % {two64}) "
        f"// {1 << 32}) % {buckets}"
    )
    kb = [p * buckets // 100 for p in STRATA_PCTS]
    tier = (
        "CAST(coalesce(try_cast(regexp_extract(source, '([0-9]+)$', 1) "
        "AS BIGINT), 1) AS BIGINT) % 3"
    )
    return (
        f"WITH b AS (SELECT doc_id, source, {expr} AS sample_bucket, "
        f"CASE {tier} WHEN 0 THEN {kb[0]} WHEN 1 THEN {kb[1]} "
        f"ELSE {kb[2]} END AS kb FROM documents) "
        "SELECT CAST(doc_id AS BIGINT) AS doc_id, source, "
        "CAST(sample_bucket AS BIGINT) AS sample_bucket "
        "FROM b WHERE sample_bucket < kb"
    )


# ---------------------------------------------------------------------------
# Eval-split decontamination (train/test leakage detection)
# ---------------------------------------------------------------------------


def decontaminate(pairs_ds, eval_pct: int = 10, buckets: int = 1000):
    """near-dup pairs (id_a, id_b) -> (test_doc_id, corpus_doc_id): for
    each doc in the deterministic eval split (the same stable hash bucket
    as ``sample_documents``, bucket < eval_pct%), the min-id near-duplicate
    OUTSIDE the split — i.e. train/eval contamination, the check every
    training-data pipeline runs before publishing a held-out set.

    Composes with any pair generator from ``kgx.stages.dedup`` (exact /
    jaccard / minhash / simhash / embedding), so 'contaminated' is as
    strict or fuzzy as the chosen similarity.  One vectorized direction
    filter per pair batch, then a min combiner exchange keyed by the test
    doc — pair volume, never the corpus, crosses the wire."""
    import pandas as pd

    from .exchange import hash_partitioned_agg

    keep_below = eval_pct * buckets // 100
    out_schema = pa.schema(
        [("test_doc_id", pa.int64()), ("corpus_doc_id", pa.int64())]
    )

    def directed(batch: pa.Table) -> pa.Table:
        a = batch["id_a"].to_numpy().astype(np.int64)
        b = batch["id_b"].to_numpy().astype(np.int64)
        ba = sample_bucket_np(a, buckets)
        bb = sample_bucket_np(b, buckets)
        m1 = (ba < keep_below) & (bb >= keep_below)
        m2 = (bb < keep_below) & (ba >= keep_below)
        return pa.table(
            {
                "test_doc_id": np.concatenate([a[m1], b[m2]]),
                "corpus_doc_id": np.concatenate([b[m1], a[m2]]),
            },
            schema=out_schema,
        )

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby("test_doc_id", sort=False, as_index=False).agg(
            corpus_doc_id=("corpus_doc_id", "min")
        )

    return hash_partitioned_agg(
        pairs_ds.map_batches(directed, batch_format="pyarrow"),
        ["test_doc_id"], combine,
    )


def sql_decontaminate(pairs_sql: str, eval_pct: int = 10,
                      buckets: int = 1000) -> str:
    keep_below = eval_pct * buckets // 100
    two64 = 1 << 64

    def bucket(col: str) -> str:
        return (
            f"(((CAST({col} AS HUGEINT) * {SAMPLE_MUL} + {SAMPLE_ADD}) "
            f"% {two64}) // {1 << 32}) % {buckets}"
        )

    return (
        f"WITH pairs AS ({pairs_sql}), d AS ("
        f"SELECT id_a AS test_doc_id, id_b AS corpus_doc_id FROM pairs "
        f"WHERE {bucket('id_a')} < {keep_below} "
        f"AND {bucket('id_b')} >= {keep_below} "
        f"UNION ALL SELECT id_b, id_a FROM pairs "
        f"WHERE {bucket('id_b')} < {keep_below} "
        f"AND {bucket('id_a')} >= {keep_below}) "
        "SELECT CAST(test_doc_id AS BIGINT) AS test_doc_id, "
        "CAST(min(corpus_doc_id) AS BIGINT) AS corpus_doc_id "
        "FROM d GROUP BY test_doc_id"
    )


# ---------------------------------------------------------------------------
# Bigram LM quality score (perplexity-proxy quality filter)
# ---------------------------------------------------------------------------

LM_SCALE = 1000


def bigram_lm_score(docs_ds):
    """documents -> (doc_id, lm_score, n_bigrams): per-doc mean bigram
    probability under the corpus's own bigram model, integer fixed-point —
    the perplexity-proxy quality signal (docs whose word transitions are
    rare corpus-wide score low: boilerplate mashups, lorem-like noise).

    score(w1 w2) = (count(w1 w2) * LM_SCALE) // count(w1 *)
    lm_score(doc) = sum over doc occurrences of score // n_bigrams(doc)

    Two keyed exchanges, both vectorized:

    1. prefix-keyed: (doc_id, w1, w2, c) rows co-partition by hash(w1), so
       BOTH model counts — the bigram count and the prefix-unigram count —
       are in-partition transform-sums (every bigram with prefix w1 lives
       wholly here); emits per-row scaled scores;
    2. doc-keyed combiner: numerator/denominator partial sums per doc, the
       (non-associative) final division runs row-wise AFTER the merge.

    Skew note: a stopword prefix concentrates its bigrams in one partition
    (same class as the tfidf token exchange); the other partitions share
    the rest.  Docs with < 2 tokens have no bigrams and no output row
    (matches the SQL).
    """
    import pandas as pd

    from ..functions.text import tokenize
    from .exchange import hash_partitioned_agg, hash_partitioned_apply

    _SENT = "\x00"

    def bg_rows(batch: pa.Table) -> pa.Table:
        # sentinel-flat bigram assembly + ONE Arrow group_by count per batch
        # (same Arrow-end-to-end shape as ngram_topk, VERDICT r3 #8)
        flat: list[str] = []
        fids: list[int] = []
        sent_pos: list[int] = []
        for did, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            tk = tokenize(text or "")
            flat.extend(tk)
            sent_pos.append(len(flat))
            flat.append(_SENT)
            fids.extend([did] * (len(tk) + 1))
        if len(flat) < 2:
            return pa.table({})
        toks = np.asarray(flat, dtype=object)
        # index-tracked sentinel mask (a `== "\x00"` numpy compare strips
        # the NUL and is silently all-False; see ngram partial)
        sent = np.zeros(len(toks), dtype=bool)
        sent[np.asarray(sent_pos, dtype=np.int64)] = True
        ok = ~(sent[:-1] | sent[1:])
        ids_np = np.asarray(fids, dtype=np.int64)
        pairs = pa.table(
            {"doc_id": pa.array(ids_np[:-1][ok]),
             "w1": pa.array(toks[:-1][ok], pa.string()),
             "w2": pa.array(toks[1:][ok], pa.string())}
        )
        g = pairs.group_by(["doc_id", "w1", "w2"]).aggregate([([], "count_all")])
        return g.rename_columns(["doc_id", "w1", "w2", "c"])

    bg = docs_ds.map_batches(bg_rows, batch_format="pyarrow")

    def score_kernel(d: "pd.DataFrame") -> "pd.DataFrame":
        b = d.groupby(["w1", "w2"], sort=False)["c"].transform("sum").to_numpy()
        u = d.groupby("w1", sort=False)["c"].transform("sum").to_numpy()
        sc = (b * LM_SCALE) // u
        c = d["c"].to_numpy()
        return pd.DataFrame(
            {
                "doc_id": d["doc_id"].astype("int64"),
                "num": (c * sc).astype("int64"),
                "den": c.astype("int64"),
            }
        )

    scored = hash_partitioned_apply(bg, ["w1"], score_kernel)

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby("doc_id", sort=False, as_index=False).agg(
            num=("num", "sum"), den=("den", "sum")
        )

    summed = hash_partitioned_agg(scored, ["doc_id"], combine)

    def finalize(df: "pd.DataFrame") -> "pd.DataFrame":
        num = df["num"].to_numpy()
        den = df["den"].to_numpy()
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "lm_score": (num // den).astype("int64"),
                "n_bigrams": den.astype("int64"),
            }
        )

    # row-wise post-map is split-safe: after the merge each doc is ONE row
    return summed.map_batches(finalize, batch_format="pandas")


def sql_bigram_lm_score(sql_token_list: str) -> str:
    idx = "generate_series(1, len(toks) - 1)"
    return f"""
WITH tok AS (SELECT doc_id, {sql_token_list} AS toks FROM documents),
bg AS (
  SELECT doc_id,
         unnest(list_transform({idx}, i -> toks[i])) AS w1,
         unnest(list_transform({idx}, i -> toks[i + 1])) AS w2
  FROM tok WHERE len(toks) >= 2
), b AS (
  SELECT w1, w2, CAST(count(*) AS BIGINT) AS b FROM bg GROUP BY 1, 2
), u AS (
  SELECT w1, CAST(count(*) AS BIGINT) AS u FROM bg GROUP BY 1
), s AS (
  SELECT bg.doc_id, (b.b * {LM_SCALE}) // u.u AS sc
  FROM bg JOIN b USING (w1, w2) JOIN u USING (w1)
)
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(sum(sc) // count(*) AS BIGINT) AS lm_score,
       CAST(count(*) AS BIGINT) AS n_bigrams
FROM s GROUP BY doc_id
"""


# ---------------------------------------------------------------------------
# PMI collocations (log-free integer fixed-point)
# ---------------------------------------------------------------------------

PMI_SCALE = 1000
PMI_MIN_PAIR = 5


def pmi_scores_np(c12: np.ndarray, c1: np.ndarray, c2: np.ndarray,
                  n_bigrams: int) -> np.ndarray:
    """(c12 * N * PMI_SCALE) // (c1 * c2), exact: numpy int64 fast path with
    an automatic Python-big-int fallback when the numerator could exceed
    int64 (N beyond ~9e12 at PMI_SCALE=1000), or when the denominator
    c1 * c2 could (both marginals beyond ~3e9 — ADVICE r4)."""
    if c12.size and (
        int(c12.max()) * n_bigrams * PMI_SCALE >= 2**63
        or int(c1.max()) * int(c2.max()) >= 2**63
    ):
        num = c12.astype(object) * n_bigrams * PMI_SCALE
        return np.asarray(
            num // (c1.astype(object) * c2.astype(object)), dtype=np.int64
        )
    return (c12 * n_bigrams * PMI_SCALE) // (c1 * c2)


def pmi_topk(docs_ds, k: int = 20, min_pair: int = PMI_MIN_PAIR):
    """documents -> the k strongest collocations (gram, pair_count,
    pmi_score, rank): word pairs that co-occur far more than their parts'
    frequencies predict — the classic phrase-mining signal ("new york",
    "machine learning") for tokenizer vocab curation.

    PMI's log is monotone, so ranking needs no floats: over the corpus
    bigram event space (c1 = occurrences as first word, c2 = as second,
    N = total bigrams),

        pmi_score = (c12 * N * PMI_SCALE) // (c1 * c2)

    is integer fixed-point exp(PMI) and the DuckDB oracle reproduces it
    bit-exactly (HUGEINT product; the kernel flips to exact Python-int
    arithmetic if ``c12.max() * N * PMI_SCALE`` would exceed int64 —
    N <= ~9e12 stays on the numpy fast path at PMI_SCALE=1000).
    ``min_pair`` drops rare pairs whose PMI is spuriously high (the
    standard collocation floor).

    Shape: ONE tokenization scan emits combiner-compressed bigram partials
    (a, b, c) — O(batches x distinct bigrams) rows, never raw occurrences.
    The partials MATERIALIZE once: that pinned copy feeds the tiny
    N-reduction plus both keyed exchanges without re-running the scan
    (also the natural resume point).  Exchange on a attaches c1 (every
    (a, *) row co-locates), exchange on b attaches c2 and scores; only
    each block's top k rows reach the driver.
    """
    import pandas as pd
    import ray.data as rd

    from ..functions.text import tokenize
    from .exchange import hash_partitioned_apply, top_k

    _SENT = "\x00"

    def pair_rows(batch: pa.Table) -> pa.Table:
        flat: list[str] = []
        sent_pos: list[int] = []
        for text in batch["text"].to_pylist():
            flat.extend(tokenize(text or ""))
            sent_pos.append(len(flat))
            flat.append(_SENT)
        if len(flat) < 2:
            return pa.table({})
        toks = np.asarray(flat, dtype=object)
        # index-tracked sentinel mask (numpy strips trailing NULs in a
        # `== "\x00"` compare; see ngram partial)
        sent = np.zeros(len(toks), dtype=bool)
        sent[np.asarray(sent_pos, dtype=np.int64)] = True
        ok = ~(sent[:-1] | sent[1:])
        pairs = pa.table(
            {"a": pa.array(toks[:-1][ok], pa.string()),
             "b": pa.array(toks[1:][ok], pa.string())}
        )
        g = pairs.group_by(["a", "b"]).aggregate([([], "count_all")])
        return g.rename_columns(["a", "b", "c"])

    partials = docs_ds.map_batches(pair_rows, batch_format="pyarrow").materialize()
    n_bigrams = int(partials.sum("c") or 0)

    def c1_kernel(d: "pd.DataFrame") -> "pd.DataFrame":
        g = d.groupby(["a", "b"], sort=False, as_index=False).agg(
            c12=("c", "sum")
        )
        c1 = g.groupby("a", sort=False)["c12"].transform("sum")
        return pd.DataFrame(
            {"key": g["b"], "a": g["a"],
             "c12": g["c12"].astype("int64"), "c1": c1.astype("int64")}
        )

    e1 = hash_partitioned_apply(partials, ["a"], c1_kernel)

    def score_kernel(d: "pd.DataFrame") -> "pd.DataFrame":
        c2 = d.groupby("key", sort=False)["c12"].transform("sum").to_numpy()
        c12 = d["c12"].to_numpy()
        c1 = d["c1"].to_numpy()
        score = pmi_scores_np(c12, c1, c2, n_bigrams)
        out = pd.DataFrame(
            {"gram": d["a"].to_numpy(dtype=object) + " "
                     + d["key"].to_numpy(dtype=object),
             "pair_count": c12.astype("int64"),
             "pmi_score": score.astype("int64")}
        )
        return out[c12 >= min_pair]

    scored = hash_partitioned_apply(e1, ["key"], score_kernel)
    top = top_k(scored, ["pmi_score", "gram"], [True, False], k,
                pa.schema([("gram", pa.string()), ("pair_count", pa.int64()),
                           ("pmi_score", pa.int64())]))
    top["rank"] = np.arange(1, len(top) + 1, dtype=np.int64)
    return rd.from_pandas(top[["gram", "pair_count", "pmi_score", "rank"]])


def sql_pmi_topk(sql_token_list: str, k: int = 20,
                 min_pair: int = PMI_MIN_PAIR) -> str:
    idx = "generate_series(1, len(toks) - 1)"
    return f"""
WITH tok AS (SELECT {sql_token_list} AS toks FROM documents),
bg AS (
  SELECT unnest(list_transform({idx}, i -> toks[i])) AS w1,
         unnest(list_transform({idx}, i -> toks[i + 1])) AS w2
  FROM tok WHERE len(toks) >= 2
), b AS (
  SELECT w1, w2, CAST(count(*) AS BIGINT) AS c12 FROM bg GROUP BY 1, 2
), c1 AS (
  SELECT w1, CAST(count(*) AS BIGINT) AS c1 FROM bg GROUP BY 1
), c2 AS (
  SELECT w2, CAST(count(*) AS BIGINT) AS c2 FROM bg GROUP BY 1
), n AS (SELECT count(*) AS n FROM bg),
s AS (
  SELECT w1 || ' ' || w2 AS gram, c12,
         CAST((CAST(c12 AS HUGEINT) * n.n * {PMI_SCALE})
              // (CAST(c1 AS HUGEINT) * c2) AS BIGINT) AS pmi_score
  FROM b JOIN c1 USING (w1) JOIN c2 USING (w2) CROSS JOIN n
  WHERE c12 >= {min_pair}
)
SELECT gram, CAST(c12 AS BIGINT) AS pair_count, pmi_score,
       CAST(row_number() OVER (ORDER BY pmi_score DESC, gram) AS BIGINT)
         AS "rank"
FROM s ORDER BY pmi_score DESC, gram LIMIT {k}
"""


# ---------------------------------------------------------------------------
# Sequence packing (concatenate-and-chunk for LLM training batches)
# ---------------------------------------------------------------------------

PACK_WINDOW = 512


def pack_sequences(docs_ds, window: int = PACK_WINDOW):
    """documents -> (doc_id, n_tokens, seq_id, seq_offset): where each doc
    starts in the GPT-style concatenate-and-chunk token stream — docs in
    doc_id order, fixed ``window``-token training sequences, seq_id =
    exclusive-prefix-sum // window, seq_offset = prefix % window.

    The distributed prefix sum is the classic two-pass range scan, not a
    driver loop:

    1. token counts materialize once (two tiny int64 columns — the reuse
       point for both passes);
    2. pass A: docs range-bucket by ``(doc_id - lo) // bucket_w``; per-batch
       np.add.at bucket partials sum on the driver to 8 x CPUs rows, whose
       exclusive prefix (the per-bucket global offsets, a small array)
       broadcasts into pass B;
    3. pass B: one partition-only exchange on the bucket key — each kernel
       sorts its buckets locally, local exclusive cumsum + the bucket's
       global offset.  No stage ever sees token text twice or rows out of
       its own bucket.

    Docs straddle sequence boundaries by design (the packing stream is
    continuous); a doc's tokens begin at stream position
    ``seq_id * window + seq_offset``.
    """
    import pandas as pd

    from .exchange import (_default_partitions, collect_arrow,
                           hash_partitioned_apply)
    from .text_analysis import token_count_batch

    counts = docs_ds.map_batches(
        token_count_batch, batch_format="pandas"
    ).materialize()

    from ray.data.aggregate import Max, Min

    agg = counts.aggregate(Min("doc_id"), Max("doc_id"))
    if not agg or agg.get("min(doc_id)") is None:
        return counts.map_batches(
            lambda t: pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "n_tokens": pa.array([], pa.int64()),
                 "seq_id": pa.array([], pa.int64()),
                 "seq_offset": pa.array([], pa.int64())}
            ),
            batch_format="pyarrow",
        )
    lo, hi = int(agg["min(doc_id)"]), int(agg["max(doc_id)"])
    B = _default_partitions() * 8
    bucket_w = max(1, (hi - lo + B) // B)
    n_buckets = (hi - lo) // bucket_w + 1

    def bucket_sums(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        nt = t["n_tokens"].to_numpy(zero_copy_only=False)
        b = (ids - lo) // bucket_w
        ub, inv = np.unique(b, return_inverse=True)
        s = np.zeros(len(ub), dtype=np.int64)
        np.add.at(s, inv, nt)
        return pa.table({"bucket": pa.array(ub.astype(np.int64)),
                         "n_tokens": pa.array(s)})

    # per-batch partials, merged on the driver
    merged = collect_arrow(
        counts.map_batches(bucket_sums, batch_format="pyarrow"),
        pa.schema([("bucket", pa.int64()), ("n_tokens", pa.int64())]))
    totals = np.zeros(n_buckets, dtype=np.int64)
    np.add.at(totals, merged["bucket"].to_numpy(), merged["n_tokens"].to_numpy())
    bucket_pre = np.cumsum(totals) - totals  # exclusive global offsets

    def kernel(d: "pd.DataFrame") -> "pd.DataFrame":
        d = d.sort_values("doc_id")
        ids = d["doc_id"].to_numpy()
        nt = d["n_tokens"].to_numpy()
        b = (ids - lo) // bucket_w
        cs = np.cumsum(nt) - nt
        starts = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
        base = np.repeat(cs[starts], np.diff(np.r_[starts, len(b)]))
        pre = bucket_pre[b] + (cs - base)
        return pd.DataFrame(
            {"doc_id": ids.astype("int64"),
             "n_tokens": nt.astype("int64"),
             "seq_id": (pre // window).astype("int64"),
             "seq_offset": (pre % window).astype("int64")}
        )

    def add_bucket(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        return t.append_column(
            "bucket", pa.array(((ids - lo) // bucket_w).astype(np.int64))
        )

    tagged = counts.map_batches(add_bucket, batch_format="pyarrow")

    def drop_bucket_kernel(d: "pd.DataFrame") -> "pd.DataFrame":
        return kernel(d.drop(columns=["bucket"]))

    return hash_partitioned_apply(
        tagged, ["bucket"], drop_bucket_kernel
    )


def sql_pack_sequences(sql_n_tokens: str, window: int = PACK_WINDOW) -> str:
    return f"""
WITH t AS (
  SELECT doc_id, CAST({sql_n_tokens} AS BIGINT) AS n_tokens FROM documents
), p AS (
  SELECT doc_id, n_tokens,
         coalesce(sum(n_tokens) OVER (ORDER BY doc_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS pre
  FROM t
)
SELECT CAST(doc_id AS BIGINT) AS doc_id, n_tokens,
       CAST(pre // {window} AS BIGINT) AS seq_id,
       CAST(pre % {window} AS BIGINT) AS seq_offset
FROM p
"""


# ---------------------------------------------------------------------------
# Winnowing fingerprints (r5): Schleimer/Wilkerson/Aiken '03 — the MOSS
# local document fingerprinting scheme.
# ---------------------------------------------------------------------------

WIN_K = 3                       # token k-grams
WIN_W = 4                       # winnowing window over the gram-hash stream


def winnow_fingerprints(docs_ds, k: int = WIN_K, w: int = WIN_W):
    """documents -> DISTINCT (doc_id, fp): winnowing fingerprints — in each
    window of ``w`` consecutive k-gram hashes keep the minimum (docs with
    fewer than ``w`` grams keep their single overall minimum), then dedupe.
    The classic guarantee: any match of at least w + k - 1 consecutive
    tokens between two documents shares at least one selected fingerprint,
    with expected density 2/(w+1) of the gram stream — the robust
    counterpart of exact-substring fingerprinting at a fraction of the
    rows.

    Scale shape: a PURE MAP — each document is one input row, so selection
    is batch-local with no exchange at all.  Per batch the token stream is
    flattened once, k-grams become dense integer ids via chained
    ``pd.factorize`` packs (so the md5 — the ``stable_hash64`` identity the
    SQL oracle mirrors — is paid once per DISTINCT gram, not per
    occurrence), the sliding window minimum is one
    ``sliding_window_view(...).min`` over the concatenated hash stream
    with windows that straddle documents masked out by positional
    arithmetic, and short docs resolve via ``np.minimum.reduceat``.
    """
    import itertools

    import pandas as pd

    from ..functions.text import stable_hash64
    from ..functions.textstats import TOKEN_PATTERN

    _M62 = (1 << 62) - 1 + 1  # fp domain: stable_hash64 % 2^62

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        texts = df["text"].fillna("").str.lower()
        tok_lists = texts.str.findall(TOKEN_PATTERN)
        lens = tok_lists.str.len().to_numpy(dtype=np.int64)
        m = np.maximum(lens - (k - 1), 0)          # grams per doc
        flat = list(itertools.chain.from_iterable(tok_lists))
        L = len(flat)
        if L < k:
            return pd.DataFrame()
        codes = pd.factorize(np.asarray(flat, dtype=object))[0].astype(np.int64)
        kk = int(codes.max()) + 1
        Lm = L - k + 1
        acc = codes[:Lm]
        for j in range(1, k):                      # dense gram ids, no overflow
            acc = pd.factorize(acc * kk + codes[j : j + Lm])[0].astype(np.int64)
        doc_of = np.repeat(np.arange(len(df), dtype=np.int64), lens)
        starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        pos_in = np.arange(L, dtype=np.int64) - np.repeat(starts, lens)
        valid = pos_in[:Lm] + k <= lens[doc_of[:Lm]]
        vpos = np.flatnonzero(valid)
        if not len(vpos):
            return pd.DataFrame()
        vg = acc[vpos]
        uniq_g, first_idx = np.unique(vg, return_index=True)
        rep_pos = vpos[first_idx]
        fps_u = np.fromiter(
            (stable_hash64(" ".join(flat[p : p + k])) % _M62
             for p in rep_pos),
            dtype=np.int64, count=len(rep_pos),
        )
        lut = np.zeros(int(uniq_g.max()) + 1, dtype=np.int64)
        lut[uniq_g] = fps_u
        h = lut[vg]                                # per-doc hash streams, concatenated
        gstarts = np.concatenate(([0], np.cumsum(m)[:-1]))
        out_doc, out_fp = [], []
        if len(h) >= w:
            wm = np.lib.stride_tricks.sliding_window_view(h, w).min(axis=1)
            p = np.arange(len(h) - w + 1, dtype=np.int64)
            dd = np.repeat(np.arange(len(df), dtype=np.int64), m)
            fits = (p - gstarts[dd[p]]) + w <= m[dd[p]]
            out_doc.append(dd[p][fits])
            out_fp.append(wm[fits])
        nz = m > 0
        small_in_nz = m[nz] < w
        if small_in_nz.any():
            red = np.minimum.reduceat(h, gstarts[nz])
            out_doc.append(np.flatnonzero(nz)[small_in_nz])
            out_fp.append(red[small_in_nz])
        ids = df["doc_id"].to_numpy()
        out = pd.DataFrame(
            {"doc_id": ids[np.concatenate(out_doc)].astype("int64"),
             "fp": np.concatenate(out_fp)}
        ).drop_duplicates()
        return out.reset_index(drop=True)

    return docs_ds.map_batches(partial, batch_format="pandas")


def sql_winnow_fingerprints(sql_token_list: str, k: int = WIN_K,
                            w: int = WIN_W) -> str:
    """DuckDB oracle: same gram text / md5 fp as sql_substring_dup_pairs,
    list_min over each w-window (short docs: one overall min), DISTINCT."""
    m62 = f"{1 << 62}::HUGEINT"
    return f"""
WITH tok AS (SELECT doc_id, {sql_token_list} AS toks FROM documents),
h AS (
  SELECT doc_id,
         list_transform(generate_series(1, len(toks) - {k} + 1),
           i -> CAST(md5_number_upper('0:' ||
                  array_to_string(list_slice(toks, i, i + {k} - 1), ' '))
                % {m62} AS BIGINT)) AS hs
  FROM tok WHERE len(toks) >= {k}
), wmin AS (
  SELECT doc_id,
         CASE WHEN len(hs) < {w} THEN [list_min(hs)]
              ELSE list_transform(generate_series(1, len(hs) - {w} + 1),
                     i -> list_min(list_slice(hs, i, i + {w} - 1)))
         END AS fps
  FROM h
)
SELECT DISTINCT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(unnest(fps) AS BIGINT) AS fp
FROM wmin
"""


# ---------------------------------------------------------------------------
# Deterministic global shuffle + shard assignment (r5): the training-prep
# step that turns a corpus into S pseudo-randomly ordered output shards.
# ---------------------------------------------------------------------------

SHUFFLE_SHARDS = 8


def shuffle_shards(docs_ds, n_shards: int = SHUFFLE_SHARDS):
    """documents -> (doc_id, shard, pos): a DETERMINISTIC global shuffle —
    shard = top-32-bits of the wraparound-multiply hash mod ``n_shards``
    (the sample_documents hash family, so the SQL oracle mirrors it in
    HUGEINT), pos = the doc's rank within its shard under the
    (full-hash, doc_id) order.  Reproducible across runs and cluster
    sizes, stable assignment under corpus growth, and statistically a
    uniform shuffle (multiplicative hashing).

    Scale shape: one vectorized hash map per batch, then ONE
    partition-only exchange on shard (each shard's rank needs all its
    rows; S is small, rows-per-shard ~N/S) whose kernel is a single
    lexsort + per-shard cumcount — no global sort, no driver
    materialization.  At 100 TB the natural variant raises ``n_shards``
    to #output-files and writes each partition directly."""
    import pandas as pd

    from .exchange import hash_partitioned_apply

    def keyed(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        with np.errstate(over="ignore"):
            h = ids.astype(np.uint64) * np.uint64(SAMPLE_MUL) + np.uint64(
                SAMPLE_ADD
            )
        shard = ((h >> np.uint64(32)) % np.uint64(n_shards)).astype(np.int64)
        # full hash as the shuffle key, reduced to int64-safe range the
        # same way both sides ( % 2^62 )
        key = (h % np.uint64(1 << 62)).astype(np.int64)
        return pa.table(
            {"doc_id": pa.array(ids.astype(np.int64)),
             "shard": pa.array(shard), "key": pa.array(key)}
        )

    def rank_kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(["shard", "key", "doc_id"], kind="stable")
        pos = df.groupby("shard", sort=False).cumcount()
        return pd.DataFrame(
            {"doc_id": df["doc_id"].astype("int64"),
             "shard": df["shard"].astype("int64"),
             "pos": pos.astype("int64")}
        )

    return hash_partitioned_apply(
        docs_ds.map_batches(keyed, batch_format="pyarrow"),
        ["shard"], rank_kernel
    )


def sql_shuffle_shards(n_shards: int = SHUFFLE_SHARDS) -> str:
    two64 = 1 << 64
    h = f"((CAST(doc_id AS HUGEINT) * {SAMPLE_MUL} + {SAMPLE_ADD}) % {two64})"
    return f"""
WITH k AS (
  SELECT CAST(doc_id AS BIGINT) AS doc_id,
         CAST(({h} // {1 << 32}) % {n_shards} AS BIGINT) AS shard,
         CAST({h} % {1 << 62} AS BIGINT) AS key
  FROM documents
)
SELECT doc_id, shard,
       CAST(row_number() OVER (PARTITION BY shard ORDER BY key, doc_id) - 1
            AS BIGINT) AS pos
FROM k
"""


# ---------------------------------------------------------------------------
# Exact-proportion deterministic train/val/test split (r5): the training-
# prep step that partitions a corpus into fixed-ratio splits, stratified
# by source, with EXACT per-stratum counts (hash-threshold sampling like
# stratified_sample_documents only approximates the ratio).
# ---------------------------------------------------------------------------

SPLIT_TRAIN_PCT = 80
SPLIT_VAL_PCT = 10


def split_documents(docs_ds, train_pct: int = SPLIT_TRAIN_PCT,
                    val_pct: int = SPLIT_VAL_PCT):
    """documents -> (doc_id, source, split): per-source exact-proportion
    deterministic split — within each source, docs ordered by
    (shuffle-hash, doc_id) take the first ceil(train_pct% * n) slots as
    'train', the next ceil((train+val)% * n) - train as 'val', the rest
    'test'.  Pure function of (doc_id, source, corpus), reproducible
    across runs and cluster sizes.

    Scale shape — the pack_sequences two-pass range prefix sum, NOT a
    per-source co-location (strata are few and huge at 100 TB, so one
    kernel per source would be a straggler):

    1. each doc keys by its wraparound-multiply hash (the doc_shuffle
       family, SQL-mirrorable in HUGEINT) and range-buckets on the key's
       top bits;
    2. pass A: per-(source, bucket) counts sum on the driver to a tiny
       table, then per-source totals + per-bucket exclusive prefix
       offsets (sources x B rows — KB-scale, never corpus-scale);
    3. pass B: ONE partition-only exchange on (source, bucket) — each
       kernel sorts its buckets locally by (key, doc_id); local rank +
       the bucket's broadcast offset = the doc's exact global rank within
       its source, compared against the integer ceil thresholds.
    """
    import pandas as pd

    from .exchange import (_default_partitions, collect_arrow,
                           hash_partitioned_apply)

    B = _default_partitions() * 8
    bucket_w = ((1 << 62) + B - 1) // B

    key_schema = pa.schema(
        [("doc_id", pa.int64()), ("source", pa.string()),
         ("key", pa.int64()), ("bucket", pa.int64())]
    )

    def keyed(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        with np.errstate(over="ignore"):
            h = ids.astype(np.uint64) * np.uint64(SAMPLE_MUL) + np.uint64(
                SAMPLE_ADD
            )
        key = (h % np.uint64(1 << 62)).astype(np.int64)
        return pa.table(
            {"doc_id": pa.array(ids.astype(np.int64)),
             "source": batch["source"],
             "key": pa.array(key),
             "bucket": pa.array((key // bucket_w).astype(np.int64))},
            schema=key_schema,
        )

    # reused by pass A and pass B — pin once (the diamond-reuse trap)
    keyed_ds = docs_ds.map_batches(keyed, batch_format="pyarrow").materialize()

    # int key first: pyarrow 16's group_by splits a null-holding group into
    # several rows when a string key precedes an int key (a NULL source is
    # one stratum, as in the SQL mirror's PARTITION BY source)
    def bucket_counts(t: pa.Table) -> pa.Table:
        return t.select(["bucket", "source"]).group_by(
            ["bucket", "source"]
        ).aggregate([([], "count_all")]).rename_columns(
            ["bucket", "source", "n"]
        )

    cdf = collect_arrow(
        keyed_ds.map_batches(bucket_counts, batch_format="pyarrow"),
        pa.schema([("bucket", pa.int64()), ("source", pa.string()),
                   ("n", pa.int64())]),
    ).group_by(["bucket", "source"]).aggregate([("n", "sum")]) \
        .rename_columns(["bucket", "source", "n"]).to_pandas()
    cdf = cdf.sort_values(["source", "bucket"])
    cdf["offset"] = cdf.groupby("source", dropna=False)["n"].cumsum() \
        - cdf["n"]
    tdf = _null_source(cdf.groupby("source", dropna=False, as_index=False)
                       ["n"].sum())
    totals = dict(zip(tdf["source"], tdf["n"]))
    offsets = {
        (s, int(b)): int(o)
        for s, b, o in zip(cdf["source"], cdf["bucket"], cdf["offset"])
    }
    thresholds = {
        s: ((train_pct * n + 99) // 100,
            ((train_pct + val_pct) * n + 99) // 100)
        for s, n in totals.items()
    }

    def kernel(d: "pd.DataFrame") -> "pd.DataFrame":
        d = d.sort_values(["source", "bucket", "key", "doc_id"],
                          kind="stable")
        local = d.groupby(["source", "bucket"], sort=False,
                          dropna=False).cumcount()
        off = np.fromiter(
            (offsets[(s, int(b))] for s, b in zip(d["source"], d["bucket"])),
            dtype=np.int64, count=len(d),
        )
        rank = off + local.to_numpy()
        tr = np.fromiter((thresholds[s][0] for s in d["source"]),
                         dtype=np.int64, count=len(d))
        va = np.fromiter((thresholds[s][1] for s in d["source"]),
                         dtype=np.int64, count=len(d))
        split = np.where(rank < tr, "train",
                         np.where(rank < va, "val", "test"))
        return pd.DataFrame(
            {"doc_id": d["doc_id"].astype("int64"),
             "source": d["source"],
             "split": split}
        )

    return hash_partitioned_apply(
        keyed_ds, ["source", "bucket"], kernel
    )


def sql_split_documents(train_pct: int = SPLIT_TRAIN_PCT,
                        val_pct: int = SPLIT_VAL_PCT) -> str:
    """DuckDB oracle: same HUGEINT wraparound hash, per-source rank via
    row_number, integer ceil thresholds."""
    two64 = 1 << 64
    h = f"((CAST(doc_id AS HUGEINT) * {SAMPLE_MUL} + {SAMPLE_ADD}) % {two64})"
    return f"""
WITH k AS (
  SELECT CAST(doc_id AS BIGINT) AS doc_id, source,
         CAST({h} % {1 << 62} AS BIGINT) AS key
  FROM documents
), r AS (
  SELECT doc_id, source,
         row_number() OVER (PARTITION BY source ORDER BY key, doc_id) - 1
           AS rk,
         count(*) OVER (PARTITION BY source) AS n
  FROM k
)
SELECT doc_id, source,
       CASE WHEN rk < ({train_pct} * n + 99) // 100 THEN 'train'
            WHEN rk < ({train_pct + val_pct} * n + 99) // 100 THEN 'val'
            ELSE 'test' END AS split
FROM r
"""


# ---------------------------------------------------------------------------
# Cross-source contamination matrix (r5): near-dup pair counts per
# (source, source) cell — the provenance-level leakage report a corpus
# audit publishes (e.g. how much of source A is boilerplate shared with
# source B) before mixing sources into a training run.
# ---------------------------------------------------------------------------


XS_CELL_SCHEMA = pa.schema(
    [("source_a", pa.string()), ("source_b", pa.string()),
     ("n_pairs", pa.int64())]
)


def _xs_cell_combine(t: pa.Table) -> pa.Table:
    return t.group_by(["source_a", "source_b"]).aggregate(
        [("n_pairs", "sum")]
    ).rename_columns(["source_a", "source_b", "n_pairs"]).cast(
        XS_CELL_SCHEMA
    )


def cross_source_pairs(pairs_ds, docs_ds):
    """near-dup pairs (id_a, id_b) + documents (doc_id, source) ->
    (source_a, source_b, n_pairs) with source_a <= source_b — the
    contamination matrix over whatever similarity the chosen pair
    generator encodes.

    Two :func:`~kgx.stages.exchange.lookup_join` hops attach each
    endpoint's source (doc_id -> source); the second folds to per-cell
    pair counts (<= |sources|^2 rows per batch or partition), which the
    driver merges."""
    from .exchange import finish, lookup_join

    docs_ds = docs_ds.materialize()  # one scan serves both hops

    def cells(t: pa.Table) -> pa.Table:
        sa = t["source_a"].to_numpy(zero_copy_only=False)
        sb = t["source"].to_numpy(zero_copy_only=False)
        swap = sa > sb
        return pa.table(
            {"source_a": pa.array(np.where(swap, sb, sa), pa.string()),
             "source_b": pa.array(np.where(swap, sa, sb), pa.string())}
        ).group_by(["source_a", "source_b"]).aggregate(
            [([], "count_all")]
        ).rename_columns(["source_a", "source_b", "n_pairs"]).cast(
            XS_CELL_SCHEMA
        )

    half = lookup_join(
        pairs_ds, "id_a", docs_ds, "doc_id", ["source"],
        then=lambda t: pa.table({"id_b": t["id_b"],
                                 "source_a": t["source"]}))
    return finish(
        lookup_join(half, "id_b", docs_ds, "doc_id", ["source"], then=cells),
        _xs_cell_combine, "pyarrow", XS_CELL_SCHEMA)


def sql_cross_source_pairs(pairs_sql: str) -> str:
    return (
        f"WITH pairs AS ({pairs_sql}) "
        "SELECT least(da.source, db.source) AS source_a, "
        "greatest(da.source, db.source) AS source_b, "
        "CAST(count(*) AS BIGINT) AS n_pairs "
        "FROM pairs JOIN documents da ON da.doc_id = pairs.id_a "
        "JOIN documents db ON db.doc_id = pairs.id_b "
        "GROUP BY source_a, source_b"
    )


# ---------------------------------------------------------------------------
# Token-budget mixture sampling (r5): derive per-source keep rates from
# MEASURED token totals so the sampled corpus approaches a target mixture
# under a global token budget — the Pile/Dolma-style "data mixing" step,
# distinct from stratified_sample_documents whose rates are static config.
# ---------------------------------------------------------------------------

MIX_BUDGET_DEN = 2           # budget = total_tokens // 2
MIX_BUCKETS = 1000


def mixture_sample(docs_ds, budget_den: int = MIX_BUDGET_DEN,
                   buckets: int = MIX_BUCKETS):
    """documents -> (doc_id, source, n_tokens) of the kept docs: a
    uniform-mixture rebalance under a global token budget of
    ``total_tokens // budget_den`` — each source gets an equal token
    target ``budget // n_sources``, and keeps the deterministic
    hash-bucket fraction ``min(1, target / its_tokens)`` of its docs (a
    source with no tokens keeps everything: its docs are free).

    All-integer plan so the DuckDB oracle reproduces the kept set
    bit-exactly: ``keep_below(s) = min(buckets, target * buckets //
    tokens(s))`` with the doc_sample hash family deciding membership.

    Scale shape: ONE stats scan (token counts + source) pins; per-source
    totals are a tiny combiner exchange collected to the driver
    (|sources| rows — the plan is driver-scale by definition); the filter
    is one vectorized map over the pinned stats.  Doc-level bucket
    sampling approximates the token budget the way every sampler does —
    determinism, not exact token arithmetic, is the contract."""
    import pandas as pd

    from .exchange import collect_arrow, hash_partitioned_agg

    stats_schema = pa.schema(
        [("doc_id", pa.int64()), ("source", pa.string()),
         ("n_tokens", pa.int64())]
    )

    def stats(df: "pd.DataFrame") -> pa.Table:
        from ..functions import textstats as ts

        text = df["text"].fillna("")
        return pa.table(
            {"doc_id": df["doc_id"].astype("int64").to_numpy(),
             "source": pa.array(df["source"].astype(str), pa.string()),
             "n_tokens": text.str.count(ts.TOKEN_PATTERN)
                             .astype("int64").to_numpy()},
            schema=stats_schema,
        )

    stats_ds = docs_ds.map_batches(stats, batch_format="pandas").materialize()

    def tok_combine(t: pa.Table) -> pa.Table:
        # closed under its own output schema: the exchange runs it on raw
        # (source, n_tokens) partials AND on merged (source, toks) blocks
        col = "toks" if "toks" in t.column_names else "n_tokens"
        return t.select(["source", col]).group_by("source").aggregate(
            [(col, "sum")]
        ).rename_columns(["source", "toks"])

    totals = collect_arrow(
        hash_partitioned_agg(stats_ds, ["source"], tok_combine,
                             kernel_format="pyarrow"),
        pa.schema([("source", pa.string()), ("toks", pa.int64())]),
    )
    srcs = totals["source"].to_pylist()
    toks = [int(x) for x in totals["toks"].to_pylist()]
    if not srcs:  # no rows
        return stats_ds
    target = (sum(toks) // budget_den) // len(srcs)
    keep_below = {
        s: (buckets if t == 0 else min(buckets, target * buckets // t))
        for s, t in zip(srcs, toks)
    }

    def keep(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        src_arr = np.asarray(t["source"].to_pylist(), dtype=object)
        u, inv = np.unique(src_arr, return_inverse=True)
        kb = np.fromiter((keep_below[s] for s in u), dtype=np.int64,
                         count=len(u))[inv]
        mask = sample_bucket_np(ids, buckets) < kb
        return t.filter(pa.array(mask))

    return stats_ds.map_batches(keep, batch_format="pyarrow")


def sql_mixture_sample(sql_n_tokens: str, budget_den: int = MIX_BUDGET_DEN,
                       buckets: int = MIX_BUCKETS) -> str:
    two64 = 1 << 64
    bucket = (
        f"(((CAST(doc_id AS HUGEINT) * {SAMPLE_MUL} + {SAMPLE_ADD}) "
        f"% {two64}) // {1 << 32}) % {buckets}"
    )
    return f"""
WITH t AS (
  SELECT CAST(doc_id AS BIGINT) AS doc_id, source,
         CAST({sql_n_tokens} AS BIGINT) AS n_tokens,
         CAST({bucket} AS BIGINT) AS b
  FROM documents
), tot AS (
  SELECT source, sum(n_tokens) AS toks FROM t GROUP BY source
), g AS (
  SELECT (sum(toks) // {budget_den}) // count(*) AS target FROM tot
), plan AS (
  SELECT source,
         CASE WHEN toks = 0 THEN {buckets}
              ELSE least({buckets}, (SELECT target FROM g) * {buckets} // toks)
         END AS keep_below
  FROM tot
)
SELECT t.doc_id, t.source, t.n_tokens
FROM t JOIN plan USING (source)
WHERE t.b < plan.keep_below
"""


# ---------------------------------------------------------------------------
# Context-window chunking (r5): fixed token windows with overlap — the
# training-example construction step (complement of pack_sequences, which
# packs SHORT docs up; this splits LONG docs down).
# ---------------------------------------------------------------------------

CHUNK_WINDOW = 256
CHUNK_STRIDE = 192           # 64-token overlap between consecutive windows


def chunk_documents(docs_ds, window: int = CHUNK_WINDOW,
                    stride: int = CHUNK_STRIDE):
    """documents -> (doc_id, chunk_id, tok_start, tok_end): sliding token
    windows of ``window`` tokens advancing by ``stride`` (the context-
    window chunking every LLM data pipeline runs before tokenizer
    packing).  A doc with n tokens emits ``1 + max(0, ceil((n - window) /
    stride))`` chunks (0 for an empty doc); the final chunk is clipped to
    n, never padded.

    Map-only — chunk spans derive arithmetically from the per-doc token
    count inside one vectorized kernel (np.repeat + arange over batch
    totals); output volume ~ corpus_tokens / stride rows.  No exchange,
    no materialization; at 100 TB this stage is pure streaming."""
    import pandas as pd

    from ..functions import textstats as ts

    out_schema = pa.schema(
        [("doc_id", pa.int64()), ("chunk_id", pa.int64()),
         ("tok_start", pa.int64()), ("tok_end", pa.int64())]
    )

    def chunks(df: "pd.DataFrame") -> pa.Table:
        n = df["text"].fillna("").str.count(ts.TOKEN_PATTERN) \
                       .to_numpy(dtype=np.int64)
        extra = np.maximum(n - window, 0)
        n_chunks = np.where(
            n > 0, 1 + (extra + stride - 1) // stride, 0
        ).astype(np.int64)
        total = int(n_chunks.sum())
        if not total:
            return out_schema.empty_table()
        doc_ids = df["doc_id"].astype("int64").to_numpy()
        rep_doc = np.repeat(doc_ids, n_chunks)
        offsets = np.concatenate(([0], np.cumsum(n_chunks)[:-1]))
        cid = np.arange(total, dtype=np.int64) - np.repeat(offsets, n_chunks)
        starts = cid * stride
        ends = np.minimum(starts + window, np.repeat(n, n_chunks))
        return pa.table(
            {"doc_id": rep_doc, "chunk_id": cid,
             "tok_start": starts, "tok_end": ends},
            schema=out_schema,
        )

    return docs_ds.map_batches(chunks, batch_format="pandas")


def sql_chunk_documents(sql_n_tokens: str, window: int = CHUNK_WINDOW,
                        stride: int = CHUNK_STRIDE) -> str:
    return f"""
WITH t AS (
  SELECT CAST(doc_id AS BIGINT) AS doc_id,
         CAST({sql_n_tokens} AS BIGINT) AS n
  FROM documents
), c AS (
  SELECT doc_id, n,
         CASE WHEN n > 0
              THEN 1 + (greatest(n - {window}, 0) + {stride} - 1) // {stride}
              ELSE 0 END AS n_chunks
  FROM t
)
SELECT doc_id, CAST(u AS BIGINT) AS chunk_id,
       CAST(u * {stride} AS BIGINT) AS tok_start,
       CAST(least(u * {stride} + {window}, n) AS BIGINT) AS tok_end
FROM c, unnest(generate_series(0, n_chunks - 1)) AS s(u)
WHERE n_chunks > 0
"""


# ---------------------------------------------------------------------------
# Cross-document duplicated n-gram stats (r5): the Gopher/RefinedWeb
# "duplicate n-gram fraction" quality signal — for every document, how many
# of its DISTINCT k-grams also occur in at least one OTHER document.
# ---------------------------------------------------------------------------

DUPGRAM_K = 8                   # Gopher-style duplicate 8-grams


def dup_ngram_stats(docs_ds, k: int = DUPGRAM_K):
    """documents -> (doc_id, n_grams, n_dup): per-doc distinct k-gram count
    and how many of those grams appear in >= 2 distinct documents
    corpus-wide.  ``n_dup / n_grams`` is the classic duplicate-n-gram
    fraction filter; the compared output stays integer.

    Scale shape — two exchanges, both bounded:

    * the map emits per-batch DISTINCT (doc_id, fp) pairs using the
      winnow_fingerprints gram machinery (chained ``pd.factorize`` packs,
      md5 once per DISTINCT batch gram, fp = stable_hash64 % 2^62); a doc
      lives wholly in one batch, so batch-local dedup IS global dedup;
    * one fp-keyed partition exchange owns every gram wholly: its kernel
      marks grams seen in >= 2 docs (per-fp row count == distinct-doc
      count, pairs being distinct) and folds straight to per-(doc,
      partition) partials — at most P rows per doc leave it;
    * one doc-keyed combiner exchange sums the partials.

    Documents with fewer than ``k`` tokens carry no grams and emit no row
    (mirroring the SQL join)."""
    import itertools

    import pandas as pd

    from ..functions.text import stable_hash64
    from ..functions.textstats import TOKEN_PATTERN
    from .exchange import hash_partitioned_agg, hash_partitioned_apply

    _M62 = 1 << 62

    def pairs(df: "pd.DataFrame") -> "pd.DataFrame":
        texts = df["text"].fillna("").str.lower()
        tok_lists = texts.str.findall(TOKEN_PATTERN)
        lens = tok_lists.str.len().to_numpy(dtype=np.int64)
        flat = list(itertools.chain.from_iterable(tok_lists))
        L = len(flat)
        if L < k:
            return pd.DataFrame()
        codes = pd.factorize(np.asarray(flat, dtype=object))[0].astype(np.int64)
        kk = int(codes.max()) + 1
        Lm = L - k + 1
        acc = codes[:Lm]
        for j in range(1, k):
            acc = pd.factorize(acc * kk + codes[j:j + Lm])[0].astype(np.int64)
        doc_of = np.repeat(np.arange(len(df), dtype=np.int64), lens)
        starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        pos_in = np.arange(L, dtype=np.int64) - np.repeat(starts, lens)
        valid = pos_in[:Lm] + k <= lens[doc_of[:Lm]]
        vpos = np.flatnonzero(valid)
        if not len(vpos):
            return pd.DataFrame()
        vg = acc[vpos]
        dd = doc_of[vpos]
        uniq_g, first_idx = np.unique(vg, return_index=True)
        fps_u = np.fromiter(
            (stable_hash64(" ".join(flat[p:p + k])) % _M62
             for p in vpos[first_idx]),
            dtype=np.int64, count=len(uniq_g))
        lut = np.zeros(int(uniq_g.max()) + 1, dtype=np.int64)
        lut[uniq_g] = fps_u
        h = lut[vg]
        order = np.lexsort((h, dd))
        ds_, hs_ = dd[order], h[order]
        keep = np.ones(len(order), dtype=bool)
        keep[1:] = (ds_[1:] != ds_[:-1]) | (hs_[1:] != hs_[:-1])
        ids = df["doc_id"].to_numpy()
        return pd.DataFrame({"doc_id": ids[ds_[keep]].astype("int64"),
                             "fp": hs_[keep]})

    pair_ds = docs_ds.map_batches(pairs, batch_format="pandas")

    def dup_kernel(t: "pa.Table") -> "pa.Table":
        fp = t["fp"].to_numpy()
        d = t["doc_id"].to_numpy()
        _, inv, cnt = np.unique(fp, return_inverse=True, return_counts=True)
        dup = (cnt[inv] > 1).astype(np.int64)
        ud, dinv = np.unique(d, return_inverse=True)
        ng = np.bincount(dinv).astype(np.int64)
        nd = np.zeros(len(ud), dtype=np.int64)
        np.add.at(nd, dinv, dup)
        return pa.table({"doc_id": ud.astype("int64"),
                         "n_grams": ng, "n_dup": nd})

    partials = hash_partitioned_apply(pair_ds, ["fp"], dup_kernel,
                                      kernel_format="pyarrow")

    def combine(t: "pa.Table") -> "pa.Table":
        d = t["doc_id"].to_numpy()
        ud, dinv = np.unique(d, return_inverse=True)
        ng = np.zeros(len(ud), dtype=np.int64)
        nd = np.zeros(len(ud), dtype=np.int64)
        np.add.at(ng, dinv, t["n_grams"].to_numpy())
        np.add.at(nd, dinv, t["n_dup"].to_numpy())
        return pa.table({"doc_id": ud.astype("int64"),
                         "n_grams": ng, "n_dup": nd})

    return hash_partitioned_agg(partials, ["doc_id"], combine,
                                kernel_format="pyarrow")


def sql_dup_ngram_stats(sql_token_list: str, k: int = DUPGRAM_K) -> str:
    """DuckDB oracle: same gram text / md5 fp identity as the winnow and
    substring oracles; per-fp distinct-doc counts via the pair CTE."""
    m62 = f"{1 << 62}::HUGEINT"
    return f"""
WITH tok AS (SELECT doc_id, {sql_token_list} AS toks FROM documents),
g AS (
  SELECT DISTINCT doc_id,
         CAST(md5_number_upper('0:' ||
              array_to_string(list_slice(toks, i, i + {k} - 1), ' '))
              % {m62} AS BIGINT) AS fp
  FROM tok, unnest(generate_series(1, len(toks) - {k} + 1)) AS t(i)
  WHERE len(toks) >= {k}),
c AS (SELECT fp, count(*) AS nd FROM g GROUP BY fp)
SELECT CAST(g.doc_id AS BIGINT) AS doc_id,
       CAST(count(*) AS BIGINT) AS n_grams,
       CAST(sum(CASE WHEN c.nd > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_dup
FROM g JOIN c USING (fp)
GROUP BY g.doc_id
"""


LENGTH_FILTER_P = 90


def length_percentile_filter(sf_dir: str, p: int = LENGTH_FILTER_P):
    """documents -> (doc_id, n_chars) rows at or above the EXACT global
    p-th percentile of document length — the corpus-level quality-cut
    primitive ("keep the longest decile") that a fixed per-doc threshold
    cannot express because the cutoff depends on the whole corpus.

    Two bounded passes, no global sort:

    * pass 1: a value-keyed count histogram exchange over ``n_chars``
      (exchange volume = distinct lengths per batch — document lengths
      cluster, and a coarser ``bin_w`` swaps in unchanged if the distinct
      inventory ever grows); the single-block cumulative scan yields the
      exact ceil-rank cutoff value (= the ascending order statistic at
      rank ceil(N*p/100), reproduced verbatim by the oracle's
      row_number);
    * pass 2: the scalar cutoff broadcasts by closure and the pruned
      (doc_id, n_chars) scan filters vectorized.
    """
    import pandas as pd
    import pyarrow.compute as pc

    from ..pipelines.relational import _read
    from .exchange import collect_arrow, hash_partitioned_agg

    stats = _read(sf_dir, "documents", ["n_chars"])

    def partial(batch: pa.Table) -> "pd.DataFrame":
        v = batch["n_chars"].drop_null().to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        vals, cnt = np.unique(v, return_counts=True)
        return pd.DataFrame({"v": vals, "cnt": cnt.astype(np.int64)})

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby("v", sort=False, as_index=False).agg(
            cnt=("cnt", "sum"))

    hist = collect_arrow(
        hash_partitioned_agg(
            stats.map_batches(partial, batch_format="pyarrow"),
            ["v"], combine),
        pa.table({"v": pa.array([], pa.int64()),
                  "cnt": pa.array([], pa.int64())}),
    ).to_pandas().sort_values("v").reset_index(drop=True)

    docs = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    if not len(hist):
        return docs.map_batches(
            lambda t: pa.table({"doc_id": pa.array([], pa.int64()),
                                "n_chars": pa.array([], pa.int64())}),
            batch_format="pyarrow")
    cum = hist["cnt"].to_numpy().cumsum()
    n = int(cum[-1])
    target = (n * p + 99) // 100  # ceil(N*p/100)
    cutoff = int(hist["v"].iloc[
        int(np.searchsorted(cum, target, side="left"))])

    def keep(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.is_valid(t["n_chars"]),
                    pc.greater_equal(t["n_chars"], cutoff))
        t = t.filter(pc.fill_null(m, False))
        return pa.table({"doc_id": t["doc_id"].cast(pa.int64()),
                         "n_chars": t["n_chars"].cast(pa.int64())})

    return docs.map_batches(keep, batch_format="pyarrow")


def sql_length_percentile_filter(p: int = LENGTH_FILTER_P) -> str:
    return f"""
WITH v AS (
  SELECT doc_id, n_chars FROM documents WHERE n_chars IS NOT NULL
), r AS (
  SELECT n_chars,
         row_number() OVER (ORDER BY n_chars) AS rn,
         count(*) OVER () AS n
  FROM v
), cut AS (
  SELECT n_chars AS c FROM r WHERE rn = (n * {p} + 99) // 100
)
SELECT CAST(v.doc_id AS BIGINT) AS doc_id,
       CAST(v.n_chars AS BIGINT) AS n_chars
FROM v, cut
WHERE v.n_chars >= cut.c
"""


SEARCH_TERMS = ("hash", "join", "filter", "scan")
SEARCH_K = 10


def keyword_search(docs_ds, n_docs: int,
                   terms: tuple[str, ...] = SEARCH_TERMS,
                   k: int = SEARCH_K):
    """documents -> the ``k`` best (doc_id, score, rank) for a fixed query
    term set under additive tf-idf — the retrieval-side dual of the
    inverted-index build: score(d) = sum over query terms t of
    tf(d,t) * ((n_docs * IDF_SCALE) // df(t)), integer fixed-point
    throughout (the tfidf_topk convention) so the oracle is bit-exact.

    Scale shape (the query side never builds a vocabulary):

    * pass 1 (df): per-batch DISTINCT (doc, term) hits for the |terms|
      query terms only — a doc lives in one batch, so per-batch distinct
      is global — folded by one term-keyed combiner exchange to <= |terms|
      rows, collected as the broadcast idf table;
    * pass 2 (score): one tokenization scan emits per-doc query-term
      counts, scores them against the closure-broadcast idf vector, and
      keeps only score > 0 rows; because each doc_id is globally unique,
      a per-block local top-k under (score DESC, doc_id) is a sound prune
      and the driver ranks <= blocks * k rows."""
    import pandas as pd
    import ray.data as rd

    from ..functions.text import tokenize
    from .exchange import collect_arrow, hash_partitioned_agg, top_k

    qset = {t: i for i, t in enumerate(terms)}

    def term_counts(batch: pa.Table):
        """(doc_id row-aligned, |rows| x |terms| count matrix)."""
        dids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        cnt = np.zeros((len(dids), len(terms)), dtype=np.int64)
        for r, text in enumerate(texts):
            for t in tokenize(text or ""):
                j = qset.get(t)
                if j is not None:
                    cnt[r, j] += 1
        return np.asarray(dids, dtype=np.int64), cnt

    def df_partial(batch: pa.Table) -> "pd.DataFrame":
        _, cnt = term_counts(batch)
        return pd.DataFrame({"term": list(terms),
                             "df": (cnt > 0).sum(axis=0).astype(np.int64)})

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby("term", sort=False, as_index=False).agg(
            df=("df", "sum"))

    df_tab = collect_arrow(
        hash_partitioned_agg(
            docs_ds.map_batches(df_partial, batch_format="pyarrow"),
            ["term"], combine),
        pa.table({"term": pa.array([], pa.string()),
                  "df": pa.array([], pa.int64())}),
    ).to_pandas()
    dfv = dict(zip(df_tab["term"], df_tab["df"]))
    idf = np.array(
        [(n_docs * IDF_SCALE) // dfv[t] if dfv.get(t) else 0
         for t in terms], dtype=np.int64)

    def score_rows(batch: pa.Table) -> "pd.DataFrame":
        dids, cnt = term_counts(batch)
        score = cnt @ idf
        m = score > 0
        return pd.DataFrame({"doc_id": dids[m], "score": score[m]})

    top = top_k(docs_ds.map_batches(score_rows, batch_format="pyarrow"),
                ["score", "doc_id"], [True, False], k,
                pa.schema([("doc_id", pa.int64()), ("score", pa.int64())]))
    top["rank"] = np.arange(1, len(top) + 1, dtype=np.int64)
    return rd.from_pandas(top)


def sql_keyword_search(sql_token_list: str,
                       terms: tuple[str, ...] = SEARCH_TERMS,
                       k: int = SEARCH_K) -> str:
    vals = ", ".join(f"('{t}')" for t in terms)
    return f"""
WITH q(term) AS (VALUES {vals}),
tok AS (
  SELECT doc_id, unnest({sql_token_list}) AS token FROM documents
), hit AS (
  SELECT tok.doc_id, tok.token FROM tok JOIN q ON tok.token = q.term
), df AS (
  SELECT token, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
  FROM hit GROUP BY 1
), n AS (SELECT count(*) AS n FROM documents
), tf AS (
  SELECT doc_id, token, CAST(count(*) AS BIGINT) AS tf FROM hit GROUP BY 1, 2
), s AS (
  SELECT tf.doc_id,
         CAST(sum(tf.tf * ((n.n * {IDF_SCALE}) // df.df)) AS BIGINT)
           AS score
  FROM tf JOIN df USING (token) CROSS JOIN n
  GROUP BY tf.doc_id
), r AS (
  SELECT doc_id, score,
         row_number() OVER (ORDER BY score DESC, doc_id) AS rnk
  FROM s WHERE score > 0
)
SELECT CAST(doc_id AS BIGINT) AS doc_id, score,
       CAST(rnk AS BIGINT) AS "rank"
FROM r WHERE rnk <= {k}
"""


def source_stats(docs_ds):
    """documents -> (source, n_docs, total_chars, max_chars, n_langs):
    the per-source corpus inventory (who contributes what volume, with
    what language spread) — the first table a crawl-curation review
    reads.

    One (source, lang)-keyed combiner exchange: each batch folds to
    <= |sources| x |langs| partial rows (count / char-sum / char-max per
    pair), the merge is sum/sum/max, and the globally-unique pair rows —
    driver-scale by construction — collect for a final pandas rollup
    where count(pairs) IS the distinct-language count.  Null source
    drops at ingest; null lang folds as the '' bucket (still one
    language for the spread count, mirrored in the oracle)."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    from .exchange import collect_arrow, hash_partitioned_agg

    def partial(batch: "pa.Table") -> "pd.DataFrame":
        batch = batch.filter(pc.is_valid(batch["source"]))
        df = pd.DataFrame(
            {"source": batch["source"].to_pandas(),
             "lang": batch["lang"].to_pandas().fillna(""),
             "n_chars": pc.utf8_length(
                 pc.fill_null(batch["text"], "")).to_numpy()})
        g = df.groupby(["source", "lang"], sort=False, as_index=False).agg(
            n_docs=("n_chars", "size"), total_chars=("n_chars", "sum"),
            max_chars=("n_chars", "max"))
        for c in ("n_docs", "total_chars", "max_chars"):
            g[c] = g[c].astype("int64")
        return g

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby(["source", "lang"], sort=False,
                          as_index=False).agg(
            n_docs=("n_docs", "sum"), total_chars=("total_chars", "sum"),
            max_chars=("max_chars", "max"))

    pairs = collect_arrow(
        hash_partitioned_agg(
            docs_ds.map_batches(partial, batch_format="pyarrow"),
            ["source", "lang"], combine),
        pa.table({"source": pa.array([], pa.string()),
                  "lang": pa.array([], pa.string()),
                  "n_docs": pa.array([], pa.int64()),
                  "total_chars": pa.array([], pa.int64()),
                  "max_chars": pa.array([], pa.int64())})).to_pandas()
    out = pairs.groupby("source", sort=False, as_index=False).agg(
        n_docs=("n_docs", "sum"), total_chars=("total_chars", "sum"),
        max_chars=("max_chars", "max"), n_langs=("lang", "size"))
    for c in ("n_docs", "total_chars", "max_chars", "n_langs"):
        out[c] = out[c].astype("int64")
    return out.reset_index(drop=True)


def sql_source_stats(sql_n_chars: str = "length(coalesce(text, ''))") -> str:
    return f"""
SELECT source,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum({sql_n_chars}) AS BIGINT) AS total_chars,
       CAST(max({sql_n_chars}) AS BIGINT) AS max_chars,
       CAST(count(DISTINCT coalesce(lang, '')) AS BIGINT) AS n_langs
FROM documents WHERE source IS NOT NULL
GROUP BY 1
"""


def zipf_histogram(docs_ds):
    """documents -> (tf, n_tokens): the corpus frequency-of-frequencies
    table — how many DISTINCT tokens occur exactly tf times.  The Zipf /
    vocabulary-growth curve a web-crawl curation pass reads to pick
    min-count thresholds (hapax mass = the tf=1 row) and to sanity-check
    tokenizer health.

    Scale shape: per-batch token value_counts (ONE C call) emit
    combiner-compressed (token, cnt) partials into a token-keyed
    exchange — the vocabulary does cross the wire ONCE (same cost class
    as the inverted-index / tf-idf builds, unavoidable for exact global
    tf) — then each vocab partition folds to <= |distinct tf| histogram
    rows and a tf-keyed combiner sums them; the second exchange is tiny
    (distinct tf values ~ hundreds even at web scale)."""
    import pandas as pd
    import pyarrow.compute as pc

    from ..functions.text import tokenize
    from .exchange import hash_partitioned_agg

    tok_schema = pa.schema([("token", pa.string()), ("cnt", pa.int64())])

    def tok_partial(batch: pa.Table) -> pa.Table:
        flat: list[str] = []
        for text in batch["text"].to_pylist():
            flat.extend(tokenize(text or ""))
        if not flat:
            return pa.table({"token": [], "cnt": []}, schema=tok_schema)
        vc = pc.value_counts(pa.array(flat, pa.string()))
        return pa.table(
            {"token": vc.field("values"),
             "cnt": pc.cast(vc.field("counts"), pa.int64())},
            schema=tok_schema)

    vocab = hash_partitioned_agg(
        docs_ds.map_batches(tok_partial, batch_format="pyarrow"),
        ["token"],
        lambda df: df.groupby("token", sort=False, as_index=False).agg(
            cnt=("cnt", "sum")))

    def hist_partial(df: "pd.DataFrame") -> "pd.DataFrame":
        vc = df["cnt"].value_counts()
        return pd.DataFrame(
            {"tf": vc.index.to_numpy().astype("int64"),
             "n_tokens": vc.to_numpy().astype("int64")})

    return hash_partitioned_agg(
        vocab.map_batches(hist_partial, batch_format="pandas"),
        ["tf"],
        lambda df: df.groupby("tf", sort=False, as_index=False).agg(
            n_tokens=("n_tokens", "sum")))


def sql_zipf_histogram(sql_token_list_expr: str) -> str:
    return f"""
WITH toks AS (
  SELECT unnest({sql_token_list_expr}) AS token FROM documents
), tc AS (
  SELECT token, CAST(count(*) AS BIGINT) AS tf FROM toks GROUP BY token
)
SELECT tf, CAST(count(*) AS BIGINT) AS n_tokens FROM tc GROUP BY tf
"""

def word_length_histogram(docs_ds):
    """documents -> (wlen, n_tokens): token-length distribution over the
    corpus — the tokenizer-health curve (a heavy tail of very long
    'tokens' means markup or encoding junk leaked through cleaning; a
    spike at length 1 means over-splitting).  Read next to text_zipf
    when tuning the token regex / BPE pre-tokenizer.

    Scale shape: token LENGTHS need no vocabulary exchange at all —
    each batch folds straight to <= |distinct lengths| rows (one
    np.unique), and a tiny wlen-keyed combiner sums across batches.
    Embarrassingly parallel: strictly cheaper than every token-keyed
    corpus op."""
    import pandas as pd

    from ..functions.text import tokenize
    from .exchange import hash_partitioned_agg

    def partial(batch: pa.Table) -> "pd.DataFrame":
        lens: list[int] = []
        for text in batch["text"].to_pylist():
            lens.extend(len(t) for t in tokenize(text or ""))
        if not lens:
            return pd.DataFrame()
        u, cnt = np.unique(np.asarray(lens, dtype=np.int64),
                           return_counts=True)
        return pd.DataFrame({"wlen": u, "n_tokens": cnt.astype(np.int64)})

    return hash_partitioned_agg(
        docs_ds.map_batches(partial, batch_format="pyarrow"),
        ["wlen"],
        lambda df: df.groupby("wlen", sort=False, as_index=False).agg(
            n_tokens=("n_tokens", "sum")))


def sql_word_length_histogram(token_list_expr: str) -> str:
    return f"""
WITH toks AS (
  SELECT unnest({token_list_expr}) AS tok FROM documents
)
SELECT CAST(length(tok) AS BIGINT) AS wlen,
       CAST(count(*) AS BIGINT) AS n_tokens
FROM toks GROUP BY 1
"""

def token_novelty_curve(docs_ds, epoch_us: int, step_us: int = 37_000_000):
    """documents -> (day, n_new, n_distinct, novelty_pm): per crawl day,
    how many DISTINCT tokens appear at all (n_distinct), how many have
    their corpus-wide FIRST occurrence that day (n_new), and the exact
    permyriad novelty ratio — the content-novelty saturation curve read
    next to the entity growth curve when deciding whether continued
    crawling still adds vocabulary.  Crawl day derives from doc_id via
    the synth warc_ts formula (a real corpus reads its ingest date
    column instead).

    Scale shape: per-batch DISTINCT (token, day) pairs cross ONE
    token-keyed partition exchange (the vocabulary crosses once — the
    zipf / inverted-index cost class); the kernel re-dedups globally,
    anchors each token's min day, and folds to <= |days| rows per
    partition; a day-keyed combiner and a single bounded block finish
    the ratio."""
    import pandas as pd
    import pyarrow.compute as pc

    from ..functions.text import tokenize
    from .exchange import finish, hash_partitioned_agg, hash_partitioned_apply

    DAY_US = 86_400_000_000

    def pair_partial(batch: pa.Table) -> "pd.DataFrame":
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        days = (epoch_us + ids * step_us) // DAY_US
        toks: list[str] = []
        tdays: list[int] = []
        for text, day in zip(batch["text"].to_pylist(), days):
            seen = set(tokenize(text or ""))
            toks.extend(seen)
            tdays.extend([int(day)] * len(seen))
        if not toks:
            return pd.DataFrame()
        return pd.DataFrame({"token": toks, "day": np.asarray(
            tdays, dtype=np.int64)}).drop_duplicates()

    _DAY_EMPTY = pd.DataFrame({"day": pd.Series([], dtype="int64"),
                               "n_new": pd.Series([], dtype="int64"),
                               "n_distinct": pd.Series([], dtype="int64")})

    def novelty_kernel(d: "pd.DataFrame") -> "pd.DataFrame":
        d = d.drop_duplicates(["token", "day"])
        fday = d.groupby("token")["day"].transform("min").to_numpy(np.int64)
        day = d["day"].to_numpy(np.int64)
        new = (day == fday).astype(np.int64)
        g = pd.DataFrame({"day": day, "n_new": new,
                          "n_distinct": np.ones(len(d), np.int64)})
        return g.groupby("day", sort=False, as_index=False).agg(
            n_new=("n_new", "sum"), n_distinct=("n_distinct", "sum"))

    partials = hash_partitioned_apply(
        docs_ds.map_batches(pair_partial, batch_format="pyarrow"),
        ["token"], novelty_kernel)

    days = hash_partitioned_agg(
        partials, ["day"],
        lambda df: df.groupby("day", sort=False, as_index=False).agg(
            n_new=("n_new", "sum"), n_distinct=("n_distinct", "sum")))

    def ratio(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values("day").reset_index(drop=True)
        nn = df["n_new"].to_numpy(np.int64)
        nd = df["n_distinct"].to_numpy(np.int64)
        return pd.DataFrame({"day": df["day"].to_numpy(np.int64),
                             "n_new": nn, "n_distinct": nd,
                             "novelty_pm": 10_000 * nn // nd})

    return finish(days, ratio, schema=_DAY_EMPTY)


def sql_token_novelty_curve(token_list_expr: str, epoch_us: int,
                            step_us: int = 37_000_000) -> str:
    return f"""
WITH dts AS (
  SELECT ({epoch_us} + doc_id * {step_us}) // 86400000000 AS day,
         {token_list_expr} AS toks
  FROM documents
), td AS (
  SELECT DISTINCT day, tok FROM (
    SELECT day, unnest(toks) AS tok FROM dts) u
), fd AS (
  SELECT tok, min(day) AS fday FROM td GROUP BY tok
), per AS (
  SELECT td.day, count(*) AS n_distinct,
         sum(CASE WHEN td.day = fd.fday THEN 1 ELSE 0 END) AS n_new
  FROM td JOIN fd USING (tok) GROUP BY 1
)
SELECT CAST(day AS BIGINT) AS day, CAST(n_new AS BIGINT) AS n_new,
       CAST(n_distinct AS BIGINT) AS n_distinct,
       CAST(10000 * n_new // n_distinct AS BIGINT) AS novelty_pm
FROM per
"""


def vocab_overlap(docs_ds):
    """documents -> (src_a, src_b, n_common, n_a, n_b, jaccard_pm): exact
    vocabulary Jaccard for every crawl-source pair sharing at least one
    token — the source-mix / decontamination-planning artifact (a pair
    with high vocabulary overlap is a near-duplicate crawl slice; a pair
    with none is a genuinely new domain), the exact complement of the
    sketch_theta_sources estimate (reference analog: the source-level
    report sections, generator.py).

    Scale shape: per-batch DISTINCT (source, token) partials (one
    drop_duplicates) cross ONE token-keyed partition exchange — the
    vocabulary crosses the wire once, the text_zipf / inverted-index cost
    class, unavoidable for exact per-source distinct-token sets; each
    token partition re-dedups globally, folds per-source sizes (additive
    across partitions because tokens are partition-disjoint) and
    generates per-token source pairs with a C-level self-merge (sources
    are BOUNDED — ~dozens even at web scale — so pair volume per token is
    bounded); a tiny (src_a, src_b)-keyed combiner sums, and the final
    jaccard_pm = 10000*|A∩B| // |A∪B| is exact integer arithmetic over
    the <= |sources|^2 folded rows, on the driver."""
    import pandas as pd

    from ..functions.text import tokenize
    from .exchange import finish, hash_partitioned_agg, hash_partitioned_apply

    def st_partial(batch: pa.Table) -> "pd.DataFrame":
        srcs: list[str] = []
        toks: list[str] = []
        for src, text in zip(batch["source"].to_pylist(),
                             batch["text"].to_pylist()):
            if src is None:
                continue
            seen = set(tokenize(text or ""))
            toks.extend(seen)
            srcs.extend([src] * len(seen))
        if not toks:
            return pd.DataFrame()
        return pd.DataFrame({"source": srcs,
                             "token": toks}).drop_duplicates()

    def kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        d = df.drop_duplicates(["source", "token"])
        # per-source distinct-token sizes, emitted as self-pair rows
        # (additive across partitions: tokens are partition-disjoint)
        sz = d.groupby("source", sort=False, as_index=False).agg(
            n=("source", "size"))
        sizes = pd.DataFrame({"src_a": sz["source"], "src_b": sz["source"],
                              "n": sz["n"].astype("int64")})
        # per-token source pairs via one C-level self-merge (bounded fanout)
        m = d.merge(d, on="token")
        m = m[m["source_x"] < m["source_y"]]
        if len(m):
            pairs = m.groupby(["source_x", "source_y"], sort=False,
                              as_index=False).agg(n=("token", "size"))
            pairs = pairs.rename(
                columns={"source_x": "src_a", "source_y": "src_b"})
            pairs["n"] = pairs["n"].astype("int64")
            return pd.concat([sizes, pairs], ignore_index=True)
        return sizes

    folded = hash_partitioned_agg(
        hash_partitioned_apply(
            docs_ds.map_batches(st_partial, batch_format="pyarrow"),
            ["token"], kernel),
        ["src_a", "src_b"],
        lambda df: df.groupby(["src_a", "src_b"], sort=False,
                              as_index=False).agg(n=("n", "sum")))

    _OUT_EMPTY = pd.DataFrame(
        {"src_a": pd.Series([], dtype="object"),
         "src_b": pd.Series([], dtype="object"),
         "n_common": pd.Series([], dtype="int64"),
         "n_a": pd.Series([], dtype="int64"),
         "n_b": pd.Series([], dtype="int64"),
         "jaccard_pm": pd.Series([], dtype="int64")})

    def ratio(df: "pd.DataFrame") -> "pd.DataFrame":
        if not len(df):
            return _OUT_EMPTY
        sizes = df[df["src_a"] == df["src_b"]].set_index("src_a")["n"]
        out = df[df["src_a"] != df["src_b"]].copy()
        if not len(out):
            return _OUT_EMPTY
        out["n_common"] = out["n"].astype("int64")
        out["n_a"] = out["src_a"].map(sizes).astype("int64")
        out["n_b"] = out["src_b"].map(sizes).astype("int64")
        union = out["n_a"] + out["n_b"] - out["n_common"]
        out["jaccard_pm"] = (10_000 * out["n_common"]) // union
        return out[["src_a", "src_b", "n_common", "n_a", "n_b",
                    "jaccard_pm"]]

    # the folded table is <= |sources|^2 rows: one driver pass, so the size
    # lookup sees every self-pair row (ngram_topk layout-dependence class)
    return finish(folded, ratio)


def sql_vocab_overlap(token_list_expr: str) -> str:
    return f"""
WITH u AS (
  SELECT source, unnest({token_list_expr}) AS token
  FROM documents WHERE source IS NOT NULL
), st AS (
  SELECT DISTINCT source, token FROM u
), sz AS (
  SELECT source, CAST(count(*) AS BIGINT) AS n FROM st GROUP BY source
), pr AS (
  SELECT a.source AS src_a, b.source AS src_b,
         CAST(count(*) AS BIGINT) AS n_common
  FROM st a JOIN st b ON a.token = b.token AND a.source < b.source
  GROUP BY 1, 2
)
SELECT pr.src_a, pr.src_b, pr.n_common, za.n AS n_a, zb.n AS n_b,
       CAST(10000 * pr.n_common // (za.n + zb.n - pr.n_common) AS BIGINT)
         AS jaccard_pm
FROM pr
JOIN sz za ON za.source = pr.src_a
JOIN sz zb ON zb.source = pr.src_b
"""


# ---------------------------------------------------------------------------
# Per-source quality-ranked token-budget selection (r5 batch 21)
# ---------------------------------------------------------------------------

BUDGET_TOKENS = 600             # per-source token budget (cuts at every sf)


def token_budget(docs_ds, budget: int = BUDGET_TOKENS):
    """documents -> (doc_id, source, score, n_tokens, cum_tokens): fill each
    source's token budget with its best documents — the curation step a
    training-mix builder runs last ("give me <= B tokens per source, best
    first").  Selection order within a source is (score DESC, doc_id ASC)
    where score = how many of the three Gopher-style quality sub-rules the
    document passes (min-tokens, min-chars, stop-ratio — the exact
    ``quality_batch`` rules, so score is an integer in [0, 3]); a document
    is kept iff the INCLUSIVE running token total up to it is <= budget.
    ``cum_tokens`` is that running total — the seam a downstream packer
    reads.

    Scale shape — exact global ordered selection WITHOUT a global sort:

    1. one stats scan (vectorized counts, the quality_batch kernel's rules)
       materializes (doc_id, source, n_tokens, score) once;
    2. pass A: docs range-bucket by doc_id (the pack_sequences bucketing);
       per-batch (source, score, bucket) token sums merge on the driver
       to a BOUNDED table (|sources| x 4 x 8 x CPUs), whose exclusive prefix
       under (score DESC, bucket ASC) per source gives every group's
       global starting offset — and PRUNES: any group whose offset already
       exceeds the budget is dropped before the exchange, so at web scale
       only the budget-boundary sliver of the corpus ever crosses the
       wire;
    3. pass B: surviving rows co-locate via ONE (source, score, bucket)
       partition exchange; each partition sorts its groups locally
       (doc_id ASC inside a group), adds the broadcast offset, and keeps
       rows with inclusive cum <= budget.

    DuckDB mirror: a per-source window running sum ordered by
    (score DESC, doc_id) filtered at the same inclusive budget."""
    import pandas as pd
    import ray

    from ..functions import textstats as ts
    from .exchange import (_default_partitions, collect_arrow,
                           hash_partitioned_apply)
    from .text_analysis import _marker_count

    def stats(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.dropna(subset=["doc_id", "source"])
        text = df["text"].fillna("")
        nt = text.str.count(ts.TOKEN_PATTERN).astype("int64")
        nc = text.str.len().astype("int64")
        nstop = _marker_count(text.str.lower(), ts.QUALITY_STOPWORDS)
        score = (
            (nt >= ts.QUALITY_MIN_TOKENS).astype("int64")
            + (nc >= ts.QUALITY_MIN_CHARS).astype("int64")
            + (ts.QUALITY_STOP_RATIO_DEN * nstop
               <= ts.QUALITY_STOP_RATIO_NUM * nt).astype("int64")
        )
        return pd.DataFrame(
            {"doc_id": df["doc_id"].astype("int64"),
             "source": df["source"].astype(str),
             "n_tokens": nt, "score": score})

    st = docs_ds.map_batches(stats, batch_format="pandas").materialize()

    from ray.data.aggregate import Max, Min

    agg = st.aggregate(Min("doc_id"), Max("doc_id"))
    if not agg or agg.get("min(doc_id)") is None:  # no rows
        return st
    lo, hi = int(agg["min(doc_id)"]), int(agg["max(doc_id)"])
    B = _default_partitions() * 8
    bucket_w = max(1, (hi - lo + B) // B)

    def bucket_sums(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.copy()
        g["bucket"] = ((g["doc_id"].to_numpy() - lo) // bucket_w).astype(
            "int64")
        out = g.groupby(["source", "score", "bucket"], sort=False,
                        as_index=False).agg(n_tokens=("n_tokens", "sum"))
        out["n_tokens"] = out["n_tokens"].astype("int64")
        return out

    merged = collect_arrow(
        st.map_batches(bucket_sums, batch_format="pandas")).to_pandas() \
        .groupby(["source", "score", "bucket"], sort=False, as_index=False) \
        .agg(n_tokens=("n_tokens", "sum"))

    # exclusive global offsets under (score DESC, bucket ASC) per source
    merged = merged.sort_values(["source", "score", "bucket"],
                                ascending=[True, False, True], kind="stable")
    csum = merged.groupby("source", sort=False)["n_tokens"].cumsum()
    merged["off"] = (csum - merged["n_tokens"]).astype("int64")
    # prune: a group starting past the budget contributes nothing (one
    # starting AT it still keeps its zero-token documents: their inclusive
    # running total equals the budget)
    offsets = merged.loc[merged["off"] <= budget,
                         ["source", "score", "bucket", "off"]].reset_index(
        drop=True)
    off_ref = ray.put(offsets)
    pruned_schema = pa.schema(
        [("doc_id", pa.int64()), ("source", pa.string()),
         ("n_tokens", pa.int64()), ("score", pa.int64()),
         ("bucket", pa.int64()), ("off", pa.int64())])

    def attach_and_prune(df: "pd.DataFrame") -> pa.Table:
        off = ray.get(off_ref)
        g = df.copy()
        g["bucket"] = ((g["doc_id"].to_numpy() - lo) // bucket_w).astype(
            "int64")
        g = g.merge(off, on=["source", "score", "bucket"], how="inner")
        # typed Arrow, so a batch pruned to zero rows keeps its columns:
        # the pinned output has one schema, and the exchange drops its
        # zero-row blocks before tagging (no "different schema" warning)
        return pa.Table.from_pandas(g, schema=pruned_schema,
                                    preserve_index=False)

    def kernel(d: "pd.DataFrame") -> "pd.DataFrame":
        d = d.sort_values(["source", "score", "bucket", "doc_id"],
                          kind="stable")
        cum = d.groupby(["source", "score", "bucket"], sort=False)[
            "n_tokens"].cumsum()
        d = d.assign(cum_tokens=(cum + d["off"]).astype("int64"))
        d = d[d["cum_tokens"] <= budget]
        return d[["doc_id", "source", "score", "n_tokens",
                  "cum_tokens"]].reset_index(drop=True)

    pruned = st.map_batches(attach_and_prune,
                            batch_format="pandas").materialize()
    return hash_partitioned_apply(
        pruned, ["source", "score", "bucket"], kernel)


def sql_token_budget(budget: int = BUDGET_TOKENS) -> str:
    from ..functions import textstats as ts

    text = "coalesce(text, '')"
    nt = ts.sql_n_tokens(text)
    ns = ts.sql_n_stopwords(text)
    return f"""
WITH t AS (
  SELECT doc_id, source,
         CAST({nt} AS BIGINT) AS n_tokens,
         CAST(length({text}) AS BIGINT) AS n_chars,
         CAST({ns} AS BIGINT) AS n_stop
  FROM documents WHERE doc_id IS NOT NULL AND source IS NOT NULL
), s AS (
  SELECT doc_id, source, n_tokens,
         CAST((CASE WHEN n_tokens >= {ts.QUALITY_MIN_TOKENS}
                    THEN 1 ELSE 0 END)
            + (CASE WHEN n_chars >= {ts.QUALITY_MIN_CHARS}
                    THEN 1 ELSE 0 END)
            + (CASE WHEN {ts.QUALITY_STOP_RATIO_DEN} * n_stop
                         <= {ts.QUALITY_STOP_RATIO_NUM} * n_tokens
                    THEN 1 ELSE 0 END) AS BIGINT) AS score
  FROM t
), c AS (
  SELECT *, sum(n_tokens) OVER (
    PARTITION BY source ORDER BY score DESC, doc_id
    ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS cum
  FROM s
)
SELECT CAST(doc_id AS BIGINT) AS doc_id, source, score, n_tokens,
       CAST(cum AS BIGINT) AS cum_tokens
FROM c WHERE cum <= {budget}
"""


# ---------------------------------------------------------------------------
# Quality x duplication cross-tab + tokenizer fertility (r5 batch 24)
# ---------------------------------------------------------------------------


def quality_dup_matrix(docs_ds):
    """documents -> (score, is_dup, n_docs): the curation cross-tab that
    answers "are my low-quality documents also my duplicated ones?" —
    every document scored by the Gopher-style sub-rule count (0-3, the
    doc_token_budget scale) AND flagged as an exact duplicate (its
    normalized-text md5 fingerprint appears on more than one document),
    folded to the bounded 4x2 histogram.  Reading this next to
    dedup_exact / text_quality tells a curation pass whether dedup and
    quality filtering remove the SAME mass or different mass — which
    changes the filter ordering a 100-TB run should use (drop the
    cheaper-to-compute one first only if the overlap is high).

    Scale shape: ONE scan computes fingerprint + score per document
    (both already-certified kernels), and because the score RIDES ON the
    fingerprint row, a single fp-keyed partition exchange resolves the
    global duplicate flag (group size > 1) and folds straight to
    (score, is_dup) value-count partials — no second doc-keyed join
    exchange; a bounded 8-cell combiner finishes."""
    import pandas as pd

    from ..functions import textstats as ts
    from ..functions.text import md5_fingerprint
    from .exchange import hash_partitioned_agg, hash_partitioned_apply
    from .text_analysis import _marker_count

    def scan(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.dropna(subset=["doc_id"])
        text = df["text"].fillna("")
        nt = text.str.count(ts.TOKEN_PATTERN).astype("int64")
        nc = text.str.len().astype("int64")
        nstop = _marker_count(text.str.lower(), ts.QUALITY_STOPWORDS)
        score = (
            (nt >= ts.QUALITY_MIN_TOKENS).astype("int64")
            + (nc >= ts.QUALITY_MIN_CHARS).astype("int64")
            + (ts.QUALITY_STOP_RATIO_DEN * nstop
               <= ts.QUALITY_STOP_RATIO_NUM * nt).astype("int64")
        )
        return pd.DataFrame(
            {"fp": text.map(md5_fingerprint).astype(str), "score": score})

    def kernel(d: "pd.DataFrame") -> "pd.DataFrame":
        sizes = d.groupby("fp", sort=False)["fp"].transform("size")
        g = pd.DataFrame({"score": d["score"].astype("int64"),
                          "is_dup": (sizes > 1).astype("int64")})
        out = g.groupby(["score", "is_dup"], sort=False,
                        as_index=False).agg(n_docs=("score", "size"))
        out["n_docs"] = out["n_docs"].astype("int64")
        return out

    partials = hash_partitioned_apply(
        docs_ds.map_batches(scan, batch_format="pandas"), ["fp"], kernel)
    return hash_partitioned_agg(
        partials, ["score", "is_dup"],
        lambda df: df.groupby(["score", "is_dup"], sort=False,
                              as_index=False).agg(n_docs=("n_docs", "sum")))


def sql_quality_dup_matrix() -> str:
    from ..functions import textstats as ts

    text = "coalesce(text, '')"
    nt = ts.sql_n_tokens(text)
    ns = ts.sql_n_stopwords(text)
    return f"""
WITH t AS (
  SELECT {ts.sql_fingerprint(text)} AS fp,
         CAST({nt} AS BIGINT) AS n_tokens,
         CAST(length({text}) AS BIGINT) AS n_chars,
         CAST({ns} AS BIGINT) AS n_stop
  FROM documents WHERE doc_id IS NOT NULL
), s AS (
  SELECT fp,
         CAST((CASE WHEN n_tokens >= {ts.QUALITY_MIN_TOKENS}
                    THEN 1 ELSE 0 END)
            + (CASE WHEN n_chars >= {ts.QUALITY_MIN_CHARS}
                    THEN 1 ELSE 0 END)
            + (CASE WHEN {ts.QUALITY_STOP_RATIO_DEN} * n_stop
                         <= {ts.QUALITY_STOP_RATIO_NUM} * n_tokens
                    THEN 1 ELSE 0 END) AS BIGINT) AS score
  FROM t
), d AS (
  SELECT score,
         CAST(CASE WHEN count(*) OVER (PARTITION BY fp) > 1
              THEN 1 ELSE 0 END AS BIGINT) AS is_dup
  FROM s
)
SELECT score, is_dup, CAST(count(*) AS BIGINT) AS n_docs
FROM d GROUP BY 1, 2
"""


def tokenizer_fertility(docs_ds):
    """documents -> (lang, n_docs, n_chars, n_words, n_bpe): the
    tokenizer-FERTILITY profile by predicted language — bpe-tokens-per-
    word (n_bpe / n_words, the driver's one float) is the standard
    multilingual tokenizer-health metric (a language whose fertility is
    2x the others pays 2x the sequence length for the same content; read
    before choosing a vocab or a per-language sampling weight).  All
    four counters are exact int64 under the certified langid / token /
    BPE kernels.

    Scale shape: ONE scan folds each batch to <= |langs| partial rows
    (vectorized marker-count langid + two C-level regex counts), then a
    bounded lang-keyed combiner — strictly cheaper than every
    token-keyed corpus op (the text_word_len_hist cost class)."""
    import numpy as np
    import pandas as pd

    from ..functions import textstats as ts
    from .exchange import hash_partitioned_agg
    from .text_analysis import _marker_count

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.dropna(subset=["doc_id"])
        text = df["text"].fillna("")
        lower = text.str.lower()
        counts = {lang: _marker_count(lower, ts.LANG_MARKERS[lang])
                  for lang in ts.LANG_ORDER}
        stacked = np.stack([counts[lang].to_numpy()
                            for lang in ts.LANG_ORDER])
        best = stacked.argmax(axis=0)
        lang = np.array(ts.LANG_ORDER, dtype=object)[best]
        lang[stacked.max(axis=0) == 0] = ts.LANG_UNKNOWN
        g = pd.DataFrame(
            {"lang": lang,
             "n_docs": np.int64(1),
             "n_chars": text.str.len().astype("int64"),
             "n_words": text.str.count(ts.TOKEN_PATTERN).astype("int64"),
             "n_bpe": text.str.count(ts.BPE_PATTERN).astype("int64")})
        out = g.groupby("lang", sort=False, as_index=False).agg(
            n_docs=("n_docs", "sum"), n_chars=("n_chars", "sum"),
            n_words=("n_words", "sum"), n_bpe=("n_bpe", "sum"))
        for c in ("n_docs", "n_chars", "n_words", "n_bpe"):
            out[c] = out[c].astype("int64")
        return out

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby("lang", sort=False, as_index=False).agg(
            n_docs=("n_docs", "sum"), n_chars=("n_chars", "sum"),
            n_words=("n_words", "sum"), n_bpe=("n_bpe", "sum"))

    return hash_partitioned_agg(
        docs_ds.map_batches(partial, batch_format="pandas"),
        ["lang"], combine)


def sql_tokenizer_fertility() -> str:
    from ..functions import textstats as ts

    text = "coalesce(text, '')"
    counts = {lang: ts.sql_lang_count(text, lang) for lang in ts.LANG_ORDER}
    return f"""
WITH t AS (
  SELECT {ts.sql_predict_lang(counts)} AS lang,
         CAST(length({text}) AS BIGINT) AS n_chars,
         CAST({ts.sql_n_tokens(text)} AS BIGINT) AS n_words,
         CAST({ts.sql_n_bpe_tokens(text)} AS BIGINT) AS n_bpe
  FROM documents WHERE doc_id IS NOT NULL
)
SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS n_chars,
       CAST(sum(n_words) AS BIGINT) AS n_words,
       CAST(sum(n_bpe) AS BIGINT) AS n_bpe
FROM t GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Deterministic weighted interleave + shard balance (r5 batch 25)
# ---------------------------------------------------------------------------


def mix_order(docs_ds):
    """documents -> (doc_id, source, src_rank, mix_rank): the SOURCE-
    BALANCED INTERLEAVE — the deterministic global position of every
    document in the uniform-mixture training stream, where each source's
    documents (in doc_id order) spread evenly over the unit interval at
    keys (2i+1)/(2*n_s), so ANY prefix of the stream contains each
    source in near-equal proportion.  This is the data-mixing step that
    MATERIALIZES a mixture (doc_mixture decides keep-rates; this orders
    the kept stream) — a trainer reading mix_rank order consumes a
    balanced diet from record one.

    Scale shape — NO global sort, NO pairwise merge: because each
    source's keys form an arithmetic sequence, the global rank of key
    (2i+1)/(2*n_s) has a CLOSED FORM — for every other source t,
    #{j : (2j+1)/n_t < (2i+1)/n_s} = clamp((A - B - 1) // (2B) + 1,
    0, n_t) with A = (2i+1)*n_t, B = n_s, plus an exact-tie term for
    sources earlier in name order.  So the operator is: (1) the
    token_budget range-bucket two-pass assigns src_rank (per-source
    prefix COUNTS this time); (2) the bounded per-source totals
    broadcast; (3) one vectorized in-batch map computes mix_rank as a
    sum over the |sources|-bounded totals table.  Exact int64 while
    2 * n_s * n_t < 2^63 (~2.1e9 docs per source); beyond that the
    per-batch fold flips to Python-int arithmetic (the PMI convention).

    DuckDB mirror: row_number over the float key (2i+1)/n with
    (source, rank) tie-break — exact-equality-safe because two distinct
    rationals with denominators <= ~2^26 cannot collide in float64 at
    gate scales (the Ray side is exact integer arithmetic at any
    scale)."""
    import pandas as pd
    import ray

    from .exchange import (_default_partitions, collect_arrow,
                           hash_partitioned_apply)

    def keyed(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.dropna(subset=["doc_id", "source"])
        return pd.DataFrame(
            {"doc_id": df["doc_id"].astype("int64"),
             "source": df["source"].astype(str)})

    st = docs_ds.map_batches(keyed, batch_format="pandas").materialize()

    from ray.data.aggregate import Max, Min

    agg = st.aggregate(Min("doc_id"), Max("doc_id"))
    if not agg or agg.get("min(doc_id)") is None:  # no rows
        return st
    lo, hi = int(agg["min(doc_id)"]), int(agg["max(doc_id)"])
    B = _default_partitions() * 8
    bucket_w = max(1, (hi - lo + B) // B)

    def bucket_counts(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.copy()
        g["bucket"] = ((g["doc_id"].to_numpy() - lo) // bucket_w).astype(
            "int64")
        out = g.groupby(["source", "bucket"], sort=False,
                        as_index=False).agg(n=("doc_id", "size"))
        out["n"] = out["n"].astype("int64")
        return out

    merged = collect_arrow(
        st.map_batches(bucket_counts, batch_format="pandas")).to_pandas() \
        .groupby(["source", "bucket"], sort=False, as_index=False) \
        .agg(n=("n", "sum"))
    merged = merged.sort_values(["source", "bucket"], kind="stable")
    csum = merged.groupby("source", sort=False)["n"].cumsum()
    merged["off"] = (csum - merged["n"]).astype("int64")
    totals = merged.groupby("source", as_index=False).agg(n_s=("n", "sum")) \
        .sort_values("source").reset_index(drop=True)
    off_ref = ray.put(merged[["source", "bucket", "off"]])
    src_names = totals["source"].tolist()
    src_totals = totals["n_s"].to_numpy().astype("int64")

    def rank_kernel(d: "pd.DataFrame") -> "pd.DataFrame":
        import numpy as np

        off = ray.get(off_ref)
        d = d.sort_values(["source", "bucket", "doc_id"], kind="stable")
        local = d.groupby(["source", "bucket"], sort=False).cumcount()
        d = d.merge(off, on=["source", "bucket"], how="left")
        i = (local.to_numpy() + d["off"].to_numpy()).astype(np.int64)
        s_idx = np.searchsorted(np.array(src_names, dtype=object),
                                d["source"].to_numpy())
        n_s = src_totals[s_idx]
        K = 2 * i + 1
        if int(K.max(initial=1)) * int(src_totals.max(initial=1)) >= 2 ** 63:
            mix = np.fromiter(
                (_mix_rank_py(int(k), int(ns), int(si), src_totals)
                 for k, ns, si in zip(K, n_s, s_idx)),
                dtype=np.int64, count=len(K))
        else:
            mix = np.zeros(len(K), dtype=np.int64)
            for t, n_t in enumerate(src_totals):
                A = K * np.int64(n_t)
                Bv = n_s
                less = np.clip((A - Bv - 1) // (2 * Bv) + 1, 0, n_t)
                less[A <= Bv] = 0
                eq = ((A - Bv) % (2 * Bv) == 0) & (A >= Bv) \
                    & ((A - Bv) // (2 * Bv) < n_t)
                mix += less + np.where((t < s_idx) & eq, 1, 0)
        return pd.DataFrame(
            {"doc_id": d["doc_id"].astype("int64"),
             "source": d["source"].astype(str),
             "src_rank": i,
             "mix_rank": (mix + 1).astype("int64")})

    tagged = st.map_batches(
        lambda df: df.assign(
            bucket=((df["doc_id"].to_numpy() - lo) // bucket_w)
            .astype("int64")),
        batch_format="pandas")
    return hash_partitioned_apply(tagged, ["source", "bucket"], rank_kernel)


def _mix_rank_py(K: int, n_s: int, s_idx: int, src_totals) -> int:
    """Python-int fallback of the closed-form rank (overflow-safe)."""
    mix = 0
    for t, n_t in enumerate(int(x) for x in src_totals):
        A = K * n_t
        B = n_s
        if A > B:
            mix += min(n_t, (A - B - 1) // (2 * B) + 1)
        if A >= B and (A - B) % (2 * B) == 0 and (A - B) // (2 * B) < n_t \
                and t < s_idx:
            mix += 1
    return mix


def sql_mix_order() -> str:
    return """
WITH d AS (
  SELECT CAST(doc_id AS BIGINT) AS doc_id, source FROM documents
  WHERE doc_id IS NOT NULL AND source IS NOT NULL
), r AS (
  SELECT doc_id, source,
         CAST(row_number() OVER (PARTITION BY source ORDER BY doc_id) - 1
              AS BIGINT) AS src_rank,
         CAST(count(*) OVER (PARTITION BY source) AS BIGINT) AS n_s
  FROM d
)
SELECT doc_id, source, src_rank,
       CAST(row_number() OVER (
         ORDER BY (2 * src_rank + 1) / CAST(n_s AS DOUBLE), source, src_rank)
         AS BIGINT) AS mix_rank
FROM r
"""


def shard_skew(docs_ds, n_shards: int = SHUFFLE_SHARDS):
    """documents -> (shard, n_docs, n_tokens): training-shard BALANCE
    table under the doc_shuffle assignment — the shard-health diagnostic
    completing the index-balance family (emb_lsh_balance / emb_ivf_
    balance / dedup_lsh_balance for indexes, this for training shards):
    a skewed shard = one data-loader rank starving the others.

    Scale shape: a pure COMBINER — per-batch (shard, count, token-sum)
    partials (the same wraparound-multiply hash as doc_shuffle, one
    vectorized map) fold into a bounded shard-keyed exchange; doc rows
    never shuffle at all (strictly cheaper than doc_shuffle, which must
    rank within shards)."""
    import pandas as pd

    from ..functions import textstats as ts
    from .exchange import hash_partitioned_agg

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.dropna(subset=["doc_id"])
        ids = df["doc_id"].to_numpy()
        with np.errstate(over="ignore"):
            h = ids.astype(np.uint64) * np.uint64(SAMPLE_MUL) + np.uint64(
                SAMPLE_ADD)
        shard = ((h >> np.uint64(32)) % np.uint64(n_shards)).astype(np.int64)
        nt = df["text"].fillna("").str.count(ts.TOKEN_PATTERN) \
            .astype("int64")
        g = pd.DataFrame({"shard": shard, "n_docs": np.int64(1),
                          "n_tokens": nt.to_numpy()})
        out = g.groupby("shard", sort=False, as_index=False).agg(
            n_docs=("n_docs", "sum"), n_tokens=("n_tokens", "sum"))
        for c in ("n_docs", "n_tokens"):
            out[c] = out[c].astype("int64")
        return out

    return hash_partitioned_agg(
        docs_ds.map_batches(partial, batch_format="pandas"),
        ["shard"],
        lambda df: df.groupby("shard", sort=False, as_index=False).agg(
            n_docs=("n_docs", "sum"), n_tokens=("n_tokens", "sum")))


def sql_shard_skew(n_shards: int = SHUFFLE_SHARDS) -> str:
    from ..functions import textstats as ts

    two64 = 1 << 64
    h = f"((CAST(doc_id AS HUGEINT) * {SAMPLE_MUL} + {SAMPLE_ADD}) % {two64})"
    nt = ts.sql_n_tokens("coalesce(text, '')")
    return f"""
WITH k AS (
  SELECT CAST(({h} // {1 << 32}) % {n_shards} AS BIGINT) AS shard,
         CAST({nt} AS BIGINT) AS nt
  FROM documents WHERE doc_id IS NOT NULL
)
SELECT shard, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(nt) AS BIGINT) AS n_tokens
FROM k GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Exact token frequency moments per source (r5 batch-30): the AMS F0/F1/F2
# family computed exactly — the ground-truth baseline the sketch suite
# (hll/cms/theta) estimates, and the skew statistic (F2/F1^2) a shuffle
# planner reads per source.
# ---------------------------------------------------------------------------


def _null_source(df: "pd.DataFrame") -> "pd.DataFrame":
    """A ``groupby(dropna=False)`` labels the null source group NaN; put it
    back as None, the SQL NULL the DuckDB mirrors return."""
    df["source"] = df["source"].astype(object).where(df["source"].notna(),
                                                     None)
    return df


def _checked_sums(keys: "pd.Series", vals: "np.ndarray") -> "pd.Series":
    """Exact per-key sums of a non-negative int64 column, indexed by key.
    The high and low 32-bit words are summed separately (neither sum can
    wrap below 2^31 rows per key), so a total past int64 raises
    ``OverflowError`` instead of wrapping."""
    import pandas as pd

    v = np.asarray(vals, dtype=np.int64)
    words = pd.DataFrame({"k": keys.to_numpy(), "hi": v >> 32,
                          "lo": v & 0xFFFFFFFF})
    s = words.groupby("k", sort=False, dropna=False)[["hi", "lo"]].sum()
    totals = [(int(h) << 32) + int(lo) for h, lo in zip(s["hi"], s["lo"])]
    if totals and max(totals) >= 2 ** 63:
        raise OverflowError(
            "frequency_moments: a source's summed f2 passes 2^63 and "
            "overflows the int64 f2 column — split f2 into hi/lo words")
    return pd.Series(totals, index=s.index, dtype="int64")


def frequency_moments(docs_ds):
    """documents -> (source, f0, f1, f2): per-source token frequency
    moments — f0 = distinct tokens, f1 = total tokens, f2 = sum of squared
    token counts (the self-join size / skew moment of AMS '96).

    Scale shape: per-batch (source, token) value-count partials cross ONE
    (source, token)-keyed exchange (the vocabulary crosses once — the
    text_zipf / inverted-index cost class, unavoidable for exact global
    counts); each partition folds its complete groups to <= |sources|
    moment partials and a tiny source-keyed combiner sums.  f2 stays
    int64-exact while every (source, token) count is < ~3.04e9 (c^2 <
    2^63) and every source's summed f2 is < 2^63; beyond that a real corpus
    splits f2 into hi/lo words — the guards (on each count, and on the
    summed f2 in both the fold and the final combine) raise instead of
    wrapping (the PMI-denominator lesson, ADVICE r4)."""
    import pandas as pd

    from ..functions.text import tokenize
    from .exchange import hash_partitioned_agg, hash_partitioned_apply

    def tok_partial(df: "pd.DataFrame") -> "pd.DataFrame":
        srcs, toks = [], []
        for src, text in zip(df["source"].to_numpy(),
                             df["text"].to_numpy()):
            ts = tokenize(text or "")
            toks.extend(ts)
            srcs.extend([src] * len(ts))
        if not toks:
            return pd.DataFrame()
        g = pd.DataFrame({"source": srcs, "token": toks})
        return g.groupby(["source", "token"], sort=False, as_index=False,
                         dropna=False).size().rename(columns={"size": "cnt"})

    def moment_fold(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby(["source", "token"], sort=False, as_index=False,
                       dropna=False).agg(cnt=("cnt", "sum"))
        c = g["cnt"].to_numpy()
        if int(c.max()) ** 2 >= 2 ** 63:
            raise OverflowError(
                "frequency_moments: a (source, token) count >= ~3.04e9 "
                "overflows the int64 f2 column — split f2 into hi/lo words")
        out = g.groupby("source", sort=False, as_index=False,
                        dropna=False).agg(f0=("token", "size"),
                                          f1=("cnt", "sum"))
        f2 = _checked_sums(g["source"], c.astype(np.int64) ** 2)
        out["f2"] = f2.reindex(out["source"]).to_numpy()
        return out

    # partition-ONLY exchange: every (source, token) group lands whole in
    # one partition, so moment_fold sees exact global counts — a combiner
    # exchange would square per-batch partial counts ((a+b)^2 != a^2+b^2)
    folded = hash_partitioned_apply(
        docs_ds.map_batches(tok_partial, batch_format="pandas"),
        ["source", "token"], moment_fold)

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby("source", sort=False, as_index=False,
                       dropna=False).agg(f0=("f0", "sum"), f1=("f1", "sum"))
        for col in ("f0", "f1"):
            g[col] = g[col].astype("int64")
        g["f2"] = _checked_sums(df["source"], df["f2"]).reindex(
            g["source"]).to_numpy()
        return _null_source(g)

    return hash_partitioned_agg(folded, ["source"], combine)


def sql_frequency_moments(sql_token_list: str) -> str:
    """(source, f0, f1, f2) over the same token list expression as the
    zipf / vocab-overlap mirrors."""
    return f"""
WITH tok AS (
  SELECT source, unnest({sql_token_list}) AS token FROM documents
), cnt AS (
  SELECT source, token, count(*) AS c FROM tok GROUP BY 1, 2
)
SELECT source, CAST(count(*) AS BIGINT) AS f0,
       CAST(sum(c) AS BIGINT) AS f1,
       CAST(sum(c * c) AS BIGINT) AS f2
FROM cnt GROUP BY 1
"""


def quality_by_source(docs_ds):
    """documents -> (source, score, n_docs, n_tokens): the quality-mass
    cross-tab per crawl source — which sources produce high-quality token
    mass is the direct input to the mixture weights a training-data build
    assigns (read next to doc_mixture / doc_token_budget); score is the
    Gopher-style sub-rule count (0-3, the doc_token_budget scale).

    Scale shape: pure combiner — one scan scores each batch with the
    certified quality kernel and folds to <= |sources| x 4 value-count
    partials, one bounded (source, score)-keyed combiner exchange; doc
    rows never shuffle."""
    import pandas as pd

    from ..functions import textstats as ts
    from .exchange import hash_partitioned_agg
    from .text_analysis import _marker_count

    def scan(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.dropna(subset=["doc_id"])
        text = df["text"].fillna("")
        nt = text.str.count(ts.TOKEN_PATTERN).astype("int64")
        nc = text.str.len().astype("int64")
        nstop = _marker_count(text.str.lower(), ts.QUALITY_STOPWORDS)
        score = (
            (nt >= ts.QUALITY_MIN_TOKENS).astype("int64")
            + (nc >= ts.QUALITY_MIN_CHARS).astype("int64")
            + (ts.QUALITY_STOP_RATIO_DEN * nstop
               <= ts.QUALITY_STOP_RATIO_NUM * nt).astype("int64")
        )
        g = pd.DataFrame({"source": df["source"], "score": score, "nt": nt})
        out = g.groupby(["source", "score"], sort=False, as_index=False,
                        dropna=False) \
            .agg(n_docs=("nt", "size"), n_tokens=("nt", "sum"))
        for c in ("n_docs", "n_tokens"):
            out[c] = out[c].astype("int64")
        return out

    return hash_partitioned_agg(
        docs_ds.map_batches(scan, batch_format="pandas"),
        ["source", "score"],
        lambda df: _null_source(df.groupby(
            ["source", "score"], sort=False, as_index=False,
            dropna=False).agg(n_docs=("n_docs", "sum"),
                              n_tokens=("n_tokens", "sum"))))


def sql_quality_by_source() -> str:
    from ..functions import textstats as ts

    text = "coalesce(text, '')"
    nt = ts.sql_n_tokens(text)
    ns = ts.sql_n_stopwords(text)
    return f"""
WITH s AS (
  SELECT source,
         CAST({nt} >= {ts.QUALITY_MIN_TOKENS} AS BIGINT)
       + CAST(length({text}) >= {ts.QUALITY_MIN_CHARS} AS BIGINT)
       + CAST({ts.QUALITY_STOP_RATIO_DEN} * {ns}
              <= {ts.QUALITY_STOP_RATIO_NUM} * {nt} AS BIGINT) AS score,
         CAST({nt} AS BIGINT) AS nt
  FROM documents WHERE doc_id IS NOT NULL
)
SELECT source, score, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(nt) AS BIGINT) AS n_tokens
FROM s GROUP BY 1, 2
"""


def dup_by_source(docs_ds):
    """documents -> (source, n_docs, n_dup_docs, n_distinct_fps): the
    per-source exact-duplication impact report — how many of each
    source's documents are exact duplicates (their normalized-text md5
    fingerprint appears on more than one document CORPUS-WIDE) and how
    many distinct fingerprints the source contributes; the dedup-savings
    estimate a curation pass reads per source before ordering filters
    (read next to doc_quality_dup's corpus-level cross-tab and
    dedup_cross_source's near-dup matrix).

    Scale shape: the source rides the fingerprint row through ONE
    fp-keyed partition exchange (the doc_quality_dup shape), whose
    kernel resolves the global duplicate flag per group and folds to
    per-source partials — the distinct-fp credit goes to each source
    once per (fp, source) inside the complete group, so the fold is
    exact; a bounded source-keyed combiner finishes."""
    import pandas as pd

    from ..functions.text import md5_fingerprint
    from .exchange import hash_partitioned_agg, hash_partitioned_apply

    def scan(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.dropna(subset=["doc_id"])
        return pd.DataFrame(
            {"fp": df["text"].fillna("").map(md5_fingerprint).astype(str),
             "source": df["source"]})

    def kernel(d: "pd.DataFrame") -> "pd.DataFrame":
        sizes = d.groupby("fp", sort=False)["fp"].transform("size")
        dup = (sizes > 1).astype("int64")
        per_doc = pd.DataFrame({"source": d["source"], "dup": dup})
        docs = per_doc.groupby("source", sort=False, as_index=False,
                               dropna=False).agg(
            n_docs=("dup", "size"), n_dup_docs=("dup", "sum"))
        fps = d.drop_duplicates(["fp", "source"]).groupby(
            "source", sort=False, as_index=False, dropna=False).agg(
            n_distinct_fps=("fp", "size"))
        out = docs.merge(fps, on="source")
        for c in ("n_docs", "n_dup_docs", "n_distinct_fps"):
            out[c] = out[c].astype("int64")
        return out

    partials = hash_partitioned_apply(
        docs_ds.map_batches(scan, batch_format="pandas"), ["fp"], kernel)
    return hash_partitioned_agg(
        partials, ["source"],
        lambda df: _null_source(df.groupby(
            "source", sort=False, as_index=False, dropna=False).agg(
            n_docs=("n_docs", "sum"), n_dup_docs=("n_dup_docs", "sum"),
            n_distinct_fps=("n_distinct_fps", "sum"))))


def sql_dup_by_source(sql_fp: str) -> str:
    """(source, n_docs, n_dup_docs, n_distinct_fps) over the same
    fingerprint expression as the quality_dup / theta_sources mirrors."""
    return f"""
WITH f AS (
  SELECT source, {sql_fp} AS fp FROM documents WHERE doc_id IS NOT NULL
), sized AS (
  SELECT source, fp, count(*) OVER (PARTITION BY fp) AS sz FROM f
)
SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(CASE WHEN sz > 1 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_dup_docs,
       CAST(count(DISTINCT fp) AS BIGINT) AS n_distinct_fps
FROM sized GROUP BY 1
"""
