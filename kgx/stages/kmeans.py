"""Distributed k-means over an embedding column (list<float>) — the
centroid-based complement to the graph clustering in kgx.stages.cluster
(label propagation / union-find) for corpus organization and IVF-style
partition assignment.

Lloyd iterations in pure integer arithmetic so the DuckDB oracle (an
unrolled-CTE program, the graph_pagerank precedent) reproduces the fit
bit-exactly:

* vectors quantize once: ``q = floor(x * KM_SCALE + 0.5) + KM_OFFSET``.
  The OFFSET makes every coordinate non-negative — DuckDB's ``//``
  truncates toward zero while numpy floors, but they agree on
  non-negative operands; the shift cancels inside squared distances and
  passes through the centroid mean exactly
  (``floor((sum + n*OFF)/n) = OFF + floor(sum/n)``).
* assignment: integer squared-L2 argmin, tie-break lowest cluster id
  (numpy first-min == SQL ``row_number() ORDER BY dist, cluster``).
* update: elementwise ``sum // count`` floor mean; empty clusters keep
  their previous centroid.

Scale shape: centroids are a k x d int64 matrix (tiny) broadcast into
every task; each iteration is ONE streaming pass — per-batch partial
(cluster, cnt, sums) rows (k rows per batch via np.add.at, never raw
vectors) merge on the driver over at most blocks x k rows.  Seeds are the
k smallest vec_ids found by a min-k combiner (k rows per batch, then one
driver merge) — no global sort.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .exchange import collect_arrow

KM_SCALE = 1000
KM_OFFSET = 1 << 20            # makes quantized coords non-negative
KM_K = 8
KM_ITERS = 3


def quantized_matrix(batch: pa.Table):
    """(vec_ids int64[n], q int64[n, d]) — one flat-buffer reshape, no
    per-row Python (embedding dim is fixed per table)."""
    import pyarrow.compute as pc

    batch = batch.filter(pc.is_valid(batch["embedding"]))  # null vecs drop
    ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    col = batch["embedding"].combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    mat = flat.reshape(len(ids), -1) if len(ids) else flat.reshape(0, 1)
    q = np.floor(mat * KM_SCALE + 0.5).astype(np.int64) + KM_OFFSET
    return ids, q


def _argmin_cluster(q: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """Integer squared-L2 argmin; ties -> lowest cluster index (matches
    the SQL row_number tie-break)."""
    d2 = ((q[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def _seed_centroids(emb_ds, k: int) -> np.ndarray:
    """k x d quantized centroids from the k smallest vec_ids: min-k
    combiner per batch, final min-k on the driver — O(batches x k) rows
    move, no global sort."""
    def min_k(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        batch = batch.filter(pc.is_valid(batch["embedding"]))  # no null seeds
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        idx = np.argsort(ids, kind="stable")[:k]
        return batch.take(pa.array(idx))

    cands = collect_arrow(emb_ds.map_batches(min_k, batch_format="pyarrow"))
    rows = min_k(cands).to_pylist() if cands.num_rows else []
    rows.sort(key=lambda r: r["vec_id"])
    mat = np.asarray([r["embedding"] for r in rows] or np.zeros((0, 0)),
                     dtype=np.float64)
    return np.floor(mat * KM_SCALE + 0.5).astype(np.int64) + KM_OFFSET


def _update_centroids(emb_ds, cents: np.ndarray) -> np.ndarray:
    """One Lloyd iteration: per-batch (cluster, cnt, sums) partials
    (np.add.at fold — k rows per batch regardless of batch size), then
    merge and floor-mean on the driver over <= blocks x k rows."""
    k, d = cents.shape

    def partial(batch: pa.Table) -> pa.Table:
        ids, q = quantized_matrix(batch)
        if not len(ids):
            return pa.table({})
        best = _argmin_cluster(q, cents)
        sums = np.zeros((k, d), dtype=np.int64)
        np.add.at(sums, best, q)
        cnt = np.bincount(best, minlength=k).astype(np.int64)
        nz = cnt > 0
        return pa.table(
            {"cluster": pa.array(np.arange(k, dtype=np.int64)[nz]),
             "cnt": pa.array(cnt[nz]),
             "sums": pa.FixedSizeListArray.from_arrays(
                 pa.array(sums[nz].ravel()), d)}
        )

    def merge(batch: pa.Table) -> pa.Table:
        cl = batch["cluster"].to_numpy(zero_copy_only=False)
        cnt = batch["cnt"].to_numpy(zero_copy_only=False)
        s = batch["sums"].combine_chunks().flatten().to_numpy(
            zero_copy_only=False).reshape(len(cl), d)
        sums = np.zeros((k, d), dtype=np.int64)
        np.add.at(sums, cl, s)
        tot = np.zeros(k, dtype=np.int64)
        np.add.at(tot, cl, cnt)
        nz = tot > 0
        return pa.table(
            {"cluster": pa.array(np.arange(k, dtype=np.int64)[nz]),
             "cnt": pa.array(tot[nz]),
             "sums": pa.FixedSizeListArray.from_arrays(
                 pa.array(sums[nz].ravel()), d)}
        )

    parts = collect_arrow(emb_ds.map_batches(partial, batch_format="pyarrow"))
    rows = merge(parts).to_pylist() if parts.num_rows else []

    new = cents.copy()  # empty clusters keep their previous centroid
    for r in rows:
        c = int(r["cluster"])
        s = np.asarray(r["sums"], dtype=np.int64)
        new[c] = s // int(r["cnt"])  # non-negative: floor == truncate
    return new


def _fit(emb_ds, k: int, iters: int):
    """Pinned input + seeded Lloyd loop -> (pinned_ds, final centroids)."""
    # pin the input once: seeding + each Lloyd pass + the final assignment
    # would otherwise re-run the parquet read per consumer (iters + 2
    # scans; the Dataset diamond-reuse trap)
    emb_ds = emb_ds.materialize()
    cents = _seed_centroids(emb_ds, k)
    for _ in range(iters):
        cents = _update_centroids(emb_ds, cents)
    return emb_ds, cents


def kmeans_labels(emb_ds, k: int = KM_K, iters: int = KM_ITERS):
    """embeddings -> (vec_id, cluster): integer-exact Lloyd k-means;
    cluster ids are 1-based seed ranks, stable across iterations.
    ``iters`` centroid updates, then one final assignment pass: centroids
    broadcast as a tiny k x d matrix, one streaming pass per iteration
    (per-batch np.add.at partials, k rows per batch), floor-mean update.
    The DuckDB oracle is an unrolled-CTE Lloyd program."""
    emb_ds, cents = _fit(emb_ds, k, iters)

    def assign(batch: pa.Table) -> pa.Table:
        ids, q = quantized_matrix(batch)
        if not len(ids):
            return pa.table({})
        best = _argmin_cluster(q, cents)
        return pa.table(
            {"vec_id": pa.array(ids),
             "cluster": pa.array(best.astype(np.int64) + 1)}
        )

    return emb_ds.map_batches(assign, batch_format="pyarrow")


_SQL_DIST = (
    "list_sum(list_transform(generate_series(1, len(q.q)), "
    "i -> (q.q[i] - {c}.cq[i]) * (q.q[i] - {c}.cq[i])))"
)


def _sql_lloyd_prefix(k: int, iters: int):
    """Shared unrolled-CTE Lloyd prefix (the graph_pagerank oracle
    precedent): quantized vectors, seed centroids, then per iteration an
    assignment CTE (cross join + list_transform squared distance +
    row_number argmin) and an update CTE (parallel unnest of index/value,
    per-(cluster, i) floor mean, list(... ORDER BY i) rebuild, LEFT JOIN
    keeps empty clusters).  Returns (cte_parts, final_centroid_cte)."""
    quant = (
        f"list_transform(embedding, x -> CAST(floor(CAST(x AS DOUBLE) * "
        f"{KM_SCALE} + 0.5) AS BIGINT) + {KM_OFFSET})"
    )
    parts = [
        f"q AS (SELECT vec_id, {quant} AS q FROM embeddings)",
        ("c0 AS (SELECT CAST(row_number() OVER (ORDER BY vec_id) AS BIGINT)"
         f" AS cluster, q AS cq FROM q ORDER BY vec_id LIMIT {k})"),
    ]
    prev = "c0"
    for it in range(1, iters + 1):
        a, u, c = f"a{it}", f"u{it}", f"c{it}"
        parts.append(
            f"{a} AS (SELECT vec_id, cluster FROM ("
            f"SELECT q.vec_id, {prev}.cluster, row_number() OVER ("
            f"PARTITION BY q.vec_id ORDER BY {_SQL_DIST.format(c=prev)} ASC, "
            f"{prev}.cluster ASC) AS rn FROM q CROSS JOIN {prev}) "
            "WHERE rn = 1)"
        )
        parts.append(
            f"{u} AS (SELECT cluster, list(s ORDER BY i) AS cq FROM ("
            "SELECT cluster, i, sum(v) // count(*) AS s FROM ("
            f"SELECT {a}.cluster, unnest(generate_series(1, len(q.q))) AS i,"
            f" unnest(q.q) AS v FROM q JOIN {a} USING (vec_id)) "
            "GROUP BY cluster, i) GROUP BY cluster)"
        )
        parts.append(
            f"{c} AS (SELECT {prev}.cluster, "
            f"coalesce({u}.cq, {prev}.cq) AS cq "
            f"FROM {prev} LEFT JOIN {u} USING (cluster))"
        )
        prev = c
    return parts, prev


def sql_kmeans_labels(k: int = KM_K, iters: int = KM_ITERS) -> str:
    parts, prev = _sql_lloyd_prefix(k, iters)
    final = (
        "SELECT CAST(vec_id AS BIGINT) AS vec_id, "
        "CAST(cluster AS BIGINT) AS cluster FROM ("
        f"SELECT q.vec_id, {prev}.cluster, row_number() OVER ("
        f"PARTITION BY q.vec_id ORDER BY {_SQL_DIST.format(c=prev)} ASC, "
        f"{prev}.cluster ASC) AS rn FROM q CROSS JOIN {prev}) WHERE rn = 1"
    )
    return "WITH " + ",\n".join(parts) + "\n" + final


def kmeans_cost(emb_ds, k: int = KM_K, iters: int = KM_ITERS):
    """embeddings -> (cluster, n_vecs, sse): per-cluster size and integer
    sum of squared distances to the fitted centroid — the cluster-quality
    diagnostic (inertia) over the SAME fit as kmeans_labels.  One extra
    streaming pass (per-batch np.add.at partials, k rows/batch); empty
    clusters emit no row (matching the SQL group-by).  int64 headroom:
    per-vector sse is ~d * (2 * KM_SCALE)^2 (~2.6e8 at d=64), so a
    cluster overflows only past ~3e10 members."""
    import pandas as pd

    emb_ds, cents = _fit(emb_ds, k, iters)
    kk, d = cents.shape

    def partial(batch: pa.Table) -> pa.Table:
        ids, q = quantized_matrix(batch)
        if not len(ids):
            return pa.table({})
        d2 = ((q[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        best = d2.argmin(axis=1)
        dist = d2[np.arange(len(best)), best]
        sse = np.zeros(kk, dtype=np.int64)
        np.add.at(sse, best, dist)
        cnt = np.bincount(best, minlength=kk).astype(np.int64)
        nz = cnt > 0
        return pa.table(
            {"cluster": pa.array(np.arange(kk, dtype=np.int64)[nz] + 1),
             "n_vecs": pa.array(cnt[nz]),
             "sse": pa.array(sse[nz])}
        )

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby("cluster", sort=False, as_index=False).agg(
            n_vecs=("n_vecs", "sum"), sse=("sse", "sum")
        )

    from .exchange import hash_partitioned_agg

    return hash_partitioned_agg(
        emb_ds.map_batches(partial, batch_format="pyarrow"),
        ["cluster"], combine,
    )


def sql_kmeans_cost(k: int = KM_K, iters: int = KM_ITERS) -> str:
    parts, prev = _sql_lloyd_prefix(k, iters)
    final = (
        "SELECT CAST(cluster AS BIGINT) AS cluster, "
        "CAST(count(*) AS BIGINT) AS n_vecs, "
        "CAST(sum(dist) AS BIGINT) AS sse FROM ("
        f"SELECT q.vec_id, {prev}.cluster, "
        f"{_SQL_DIST.format(c=prev)} AS dist, row_number() OVER ("
        f"PARTITION BY q.vec_id ORDER BY {_SQL_DIST.format(c=prev)} ASC, "
        f"{prev}.cluster ASC) AS rn FROM q CROSS JOIN {prev}) "
        "WHERE rn = 1 GROUP BY cluster"
    )
    return "WITH " + ",\n".join(parts) + "\n" + final


# ---------------------------------------------------------------------------
# Supervised class prototypes (r5): per-label centroid sums over the
# embeddings table's label column — the "class prototype / nearest-centroid
# classifier build" companion to the unsupervised Lloyd fit above.
# ---------------------------------------------------------------------------


def label_centroids(emb_ds):
    """embeddings -> (label, dim, sum_q, n_vecs): integer-exact per-label
    prototype partials in LONG format (one row per label x dimension).

    Uses the same ``floor(x * KM_SCALE + 0.5)`` quantization as the Lloyd
    fit (without the non-negativity offset — sums may be negative), so the
    result is bit-exact under any batch order: per batch one flat-buffer
    reshape + np.unique + np.add.at fold emits at most labels x d rows,
    and the (label, dim)-keyed combiner exchange sums them.  The raw
    vectors never shuffle; the driver-side centroid is ``sum_q // n_vecs``
    (or a float mean) per (label, dim).  Null embeddings / labels drop at
    ingest (r4 hostile-null convention).
    """
    import pandas as pd
    import pyarrow.compute as pc

    from .exchange import hash_partitioned_agg

    def partial(batch: pa.Table) -> "pd.DataFrame":
        ok = pc.and_(pc.is_valid(batch["embedding"]),
                     pc.is_valid(batch["label"]))
        batch = batch.filter(ok)
        n = batch.num_rows
        if n == 0:
            return pd.DataFrame()
        labels = batch["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        col = batch["embedding"].combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        d = len(flat) // n
        q = np.floor(flat.reshape(n, d) * KM_SCALE + 0.5).astype(np.int64)
        u, inv = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(u), d), dtype=np.int64)
        np.add.at(sums, inv, q)
        cnt = np.bincount(inv).astype(np.int64)
        return pd.DataFrame(
            {"label": np.repeat(u, d),
             "dim": np.tile(np.arange(d, dtype=np.int64), len(u)),
             "sum_q": sums.ravel(),
             "n_vecs": np.repeat(cnt, d)}
        )

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby(["label", "dim"], sort=False, as_index=False).agg(
            sum_q=("sum_q", "sum"), n_vecs=("n_vecs", "sum")
        )

    return hash_partitioned_agg(
        emb_ds.map_batches(partial, batch_format="pyarrow"),
        ["label", "dim"], combine,
    )


def sql_label_centroids() -> str:
    """DuckDB oracle: same quantization expression as _sql_lloyd_prefix
    (minus the offset), parallel index/value unnest, group by label/dim."""
    return f"""
WITH q AS (
  SELECT CAST(label AS BIGINT) AS label,
         list_transform(embedding, x ->
           CAST(floor(CAST(x AS DOUBLE) * {KM_SCALE} + 0.5) AS BIGINT)) AS q
  FROM embeddings WHERE embedding IS NOT NULL AND label IS NOT NULL
), u AS (
  SELECT label,
         unnest(generate_series(1, len(q))) AS i,
         unnest(q) AS v
  FROM q
)
SELECT label, CAST(i - 1 AS BIGINT) AS dim,
       CAST(sum(v) AS BIGINT) AS sum_q,
       CAST(count(*) AS BIGINT) AS n_vecs
FROM u GROUP BY label, i
"""


# ---------------------------------------------------------------------------
# Embedding-space outlier flags (r5): vectors far from every fitted
# centroid — the embedding-quality filter a training-data build runs after
# clustering (off-manifold / garbage-embedding removal).
# ---------------------------------------------------------------------------

OUTLIER_THRESHOLD = 975_000   # quantized squared-L2; see kmeans_outliers


def kmeans_outliers(emb_ds, k: int = KM_K, iters: int = KM_ITERS,
                    threshold: int = OUTLIER_THRESHOLD):
    """embeddings -> (vec_id, dist): vectors whose integer squared
    distance to the NEAREST fitted centroid exceeds ``threshold`` — the
    same Lloyd fit as kmeans_labels (integer-exact, so the unrolled-CTE
    oracle reproduces the flag set bit-exactly), one extra streaming
    assignment pass, output is outlier-cardinality only.

    ``threshold`` is in quantized units: coordinates scale by KM_SCALE
    (1e3), so squared distance scales by 1e6 — 975_000 = true squared
    distance 0.975, the ~P85 of the synthetic corpus's min-centroid
    distance at every sf (measured 973k at sf0.001 and sf0.01), so the
    flag set is non-trivial without being the whole table."""

    emb_ds, cents = _fit(emb_ds, k, iters)

    def flag(batch: pa.Table) -> pa.Table:
        ids, q = quantized_matrix(batch)
        if not len(ids):
            return pa.table({})
        d2 = ((q[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        dist = d2.min(axis=1)
        mask = dist > threshold
        return pa.table(
            {"vec_id": pa.array(ids[mask]),
             "dist": pa.array(dist[mask].astype(np.int64))}
        )

    return emb_ds.map_batches(flag, batch_format="pyarrow")


def sql_kmeans_outliers(k: int = KM_K, iters: int = KM_ITERS,
                        threshold: int = OUTLIER_THRESHOLD) -> str:
    parts, prev = _sql_lloyd_prefix(k, iters)
    final = (
        "SELECT CAST(vec_id AS BIGINT) AS vec_id, "
        "CAST(dist AS BIGINT) AS dist FROM ("
        f"SELECT q.vec_id, {_SQL_DIST.format(c=prev)} AS dist, "
        "row_number() OVER (PARTITION BY q.vec_id ORDER BY "
        f"{_SQL_DIST.format(c=prev)} ASC, {prev}.cluster ASC) AS rn "
        f"FROM q CROSS JOIN {prev}) WHERE rn = 1 AND dist > {threshold}"
    )
    return "WITH " + ",\n".join(parts) + "\n" + final


# ---------------------------------------------------------------------------
# Integer Gram (scatter) matrix — the distributed PCA/covariance ingredient
# (r5): sum_v q_v q_v^T over CENTERED quantized embeddings.
# ---------------------------------------------------------------------------

GRAM_SCHEMA_COLS = ("dim_i", "dim_j", "gram")


def gram_matrix(emb_ds):
    """Upper-triangle integer Gram matrix ``G[i, j] = sum_v q_v[i] *
    q_v[j]`` (``i <= j``) over centered quantized embeddings ``q =
    floor(x * KM_SCALE + 0.5)`` — NO ``KM_OFFSET`` shift: unit-norm
    coordinates quantize to |q| <= ~1000, so a cell sum stays int64-safe
    past 10^12 vectors, where offset-shifted products (~2^40 each) would
    overflow near 10^5.

    Scale shape: per batch ONE d x d int64 ``q.T @ q`` matmul collapsed
    to d(d+1)/2 (dim_i, dim_j, gram) rows — partial volume is
    O(batches x d^2) regardless of batch size — merged by addition in a
    (dim_i, dim_j)-keyed combiner exchange.  The vectors themselves never
    shuffle; this is the one-pass scatter matrix a distributed PCA eigens
    on the driver (d x d is driver-scale by definition)."""
    import pyarrow.compute as pc

    from .exchange import hash_partitioned_agg

    schema = pa.schema([(c, pa.int64()) for c in GRAM_SCHEMA_COLS])

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch["embedding"]))
        n = batch.num_rows
        if not n:
            return schema.empty_table()
        col = batch["embedding"].combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        q = np.floor(flat.reshape(n, -1) * KM_SCALE + 0.5).astype(np.int64)
        g = q.T @ q
        iu, ju = np.triu_indices(g.shape[0])
        return pa.table(
            {"dim_i": iu.astype(np.int64), "dim_j": ju.astype(np.int64),
             "gram": g[iu, ju]},
            schema=schema,
        )

    def combine(t: pa.Table) -> pa.Table:
        # closed under its own output schema (runs on raw partials AND on
        # already-merged blocks — the doc_mixture lesson)
        return t.select(list(GRAM_SCHEMA_COLS)).group_by(
            ["dim_i", "dim_j"]
        ).aggregate([("gram", "sum")]).rename_columns(list(GRAM_SCHEMA_COLS))

    partials = emb_ds.map_batches(partial, batch_format="pyarrow")
    return hash_partitioned_agg(partials, ["dim_i", "dim_j"], combine,
                                kernel_format="pyarrow")


def sql_gram_matrix() -> str:
    """DuckDB mirror: same centered quantization, parallel unnest to
    (vec_id, dim, v), self-join on vec_id with dim_j >= dim_i.  Exact
    integer arithmetic on both sides -> bit-identical cells."""
    quant = (
        f"list_transform(embedding, x -> CAST(floor(CAST(x AS DOUBLE) * "
        f"{KM_SCALE} + 0.5) AS BIGINT))"
    )
    return f"""
WITH q AS (
  SELECT vec_id, {quant} AS q FROM embeddings WHERE embedding IS NOT NULL
), flat AS (
  SELECT vec_id,
         CAST(unnest(generate_series(1, len(q))) AS BIGINT) - 1 AS dim,
         CAST(unnest(q) AS BIGINT) AS v
  FROM q
)
SELECT a.dim AS dim_i, b.dim AS dim_j, CAST(sum(a.v * b.v) AS BIGINT) AS gram
FROM flat a JOIN flat b ON a.vec_id = b.vec_id AND b.dim >= a.dim
GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# PCA projection (r5): the gram_matrix consumer — eigen on the driver's
# exact integer Gram, one distributed projection pass.
# ---------------------------------------------------------------------------

PCA_COMPONENTS = 2


def pca_project(emb_ds, k: int = PCA_COMPONENTS):
    """(vec_id, pc1_q .. pck_q): project every embedding onto the top-k
    eigenvectors of the corpus scatter matrix.

    The distributed-PCA shape: the d x d integer Gram comes from
    :func:`gram_matrix` (only O(batches x d^2) rows ever moved), the
    eigendecomposition is a DRIVER-SIDE d x d solve (d x d is
    driver-scale by definition), and the projection is one streaming
    map over the pinned-nothing input — vectors are read once more and
    never shuffle.  Eigenvector sign is fixed deterministically (largest-
    magnitude component made positive, first index on ties); projections
    quantize to integer milli-units.  No SQL oracle — eigendecomposition
    is not SQL-expressible; the driver records the weaker rows-only
    check and pytest carries serial parity."""
    import numpy as np

    g_tab = collect_arrow(
        gram_matrix(emb_ds),
        pa.schema([(c, pa.int64()) for c in GRAM_SCHEMA_COLS]),
    )
    di = g_tab["dim_i"].to_numpy()
    dj = g_tab["dim_j"].to_numpy()
    gv = g_tab["gram"].to_numpy().astype(np.float64)
    if not len(di):
        return emb_ds.map_batches(
            lambda t: pa.schema(
                [("vec_id", pa.int64())]
                + [(f"pc{i + 1}_q", pa.int64()) for i in range(k)]
            ).empty_table(),
            batch_format="pyarrow",
        )
    d = int(max(di.max(), dj.max())) + 1
    G = np.zeros((d, d), dtype=np.float64)
    G[di, dj] = gv
    G[dj, di] = gv
    w, v = np.linalg.eigh(G)               # ascending eigenvalues
    comps = v[:, ::-1][:, :k]              # top-k columns
    for c in range(comps.shape[1]):        # deterministic sign
        j = int(np.argmax(np.abs(comps[:, c])))
        if comps[j, c] < 0:
            comps[:, c] = -comps[:, c]
    import ray

    comps_ref = ray.put(np.ascontiguousarray(comps))

    out_schema = pa.schema(
        [("vec_id", pa.int64())]
        + [(f"pc{i + 1}_q", pa.int64()) for i in range(k)]
    )

    def project(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        import ray as _ray

        batch = batch.filter(pc.is_valid(batch["embedding"]))
        n = batch.num_rows
        if not n:
            return out_schema.empty_table()
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        col = batch["embedding"].combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        q = np.floor(flat.reshape(n, -1) * KM_SCALE + 0.5)
        p = q @ _ray.get(comps_ref)
        cols = {"vec_id": ids}
        for i in range(p.shape[1]):
            cols[f"pc{i + 1}_q"] = np.floor(
                p[:, i] * KM_SCALE + 0.5
            ).astype(np.int64)
        return pa.table(cols, schema=out_schema)

    return emb_ds.map_batches(project, batch_format="pyarrow")


def kmeans_purity(emb_ds, k: int = KM_K, iters: int = KM_ITERS):
    """embeddings (vec_id, embedding, label) -> (cluster, label, n_vecs):
    the cluster x ground-truth-label contingency table over the SAME
    deterministic Lloyd fit as kmeans_labels — the standard external
    clustering-evaluation input (purity / NMI / homogeneity are
    driver-side scalars over its <= k x |labels| rows).

    One extra streaming pass after the fit: per batch, argmin assignment
    + one np.unique over packed (cluster, label) keys, so the exchange
    moves <= k x |labels| rows per batch; a pair-keyed combiner folds.
    Null labels drop at ingest (mirrored in the oracle's WHERE)."""
    import pandas as pd

    from .exchange import hash_partitioned_agg

    emb_ds, cents = _fit(emb_ds, k, iters)

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # both validity filters up front so lab stays row-aligned with the
        # ids/q that quantized_matrix would otherwise re-filter internally
        batch = batch.filter(pc.and_(pc.is_valid(batch["label"]),
                                     pc.is_valid(batch["embedding"])))
        ids, q = quantized_matrix(batch)
        if not len(ids):
            return pa.table({})
        lab = batch["label"].to_numpy().astype(np.int64)
        best = _argmin_cluster(q, cents).astype(np.int64)
        # pack (cluster, label) into one int64 key for a single np.unique
        lab_u, lab_inv = np.unique(lab, return_inverse=True)
        packed = best * len(lab_u) + lab_inv
        keys, cnt = np.unique(packed, return_counts=True)
        return pa.table(
            {"cluster": pa.array(keys // len(lab_u) + 1),
             "label": pa.array(lab_u[keys % len(lab_u)]),
             "n_vecs": pa.array(cnt.astype(np.int64))})

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby(["cluster", "label"], sort=False,
                          as_index=False).agg(n_vecs=("n_vecs", "sum"))

    return hash_partitioned_agg(
        emb_ds.map_batches(partial, batch_format="pyarrow"),
        ["cluster", "label"], combine,
    )


def sql_kmeans_purity(k: int = KM_K, iters: int = KM_ITERS) -> str:
    parts, prev = _sql_lloyd_prefix(k, iters)
    final = (
        "SELECT CAST(cluster AS BIGINT) AS cluster, "
        "CAST(label AS BIGINT) AS label, "
        "CAST(count(*) AS BIGINT) AS n_vecs FROM ("
        f"SELECT q.vec_id, {prev}.cluster, row_number() OVER ("
        f"PARTITION BY q.vec_id ORDER BY {_SQL_DIST.format(c=prev)} ASC, "
        f"{prev}.cluster ASC) AS rn FROM q CROSS JOIN {prev}) a "
        "JOIN embeddings e ON e.vec_id = a.vec_id "
        "WHERE a.rn = 1 AND e.label IS NOT NULL "
        "GROUP BY cluster, label"
    )
    return "WITH " + ",\n".join(parts) + "\n" + final


# ---------------------------------------------------------------------------
# Norm histogram (r5 batch-7): quantized squared-L2 norm distribution —
# the normalization-drift / zero-vector diagnostic a training-data build
# runs before cosine dedup or ANN (un-normalized embedders and garbage
# all-zero vectors show up as histogram mass far from the unit bucket).
# ---------------------------------------------------------------------------

NORM_BUCKET = 1_000_000  # quantized squared-L2 units per histogram bucket


def norm_histogram(emb_ds, bucket: int = NORM_BUCKET):
    """embeddings -> (bucket, n_vecs): histogram of quantized squared-L2
    norms.

    Same centered ``floor(x * KM_SCALE + 0.5)`` quantization as
    gram/label_centroids (no offset — squares are non-negative anyway), so
    the DuckDB oracle reproduces the buckets bit-exactly under any batch
    order.  Per batch: one flat-buffer reshape, one row-wise sum of
    squares, one ``np.unique`` fold to a handful of (bucket, count) rows;
    a bucket-keyed combiner exchange sums the partials.  The vectors never
    shuffle and the exchange is O(batches x buckets) rows.  Null
    embeddings drop at ingest (r4 hostile-null convention).  norm2 is
    bounded by d * (KM_SCALE * |x|_max)^2 — ~6.4e7 at d=64 for unit-scale
    inputs — far inside int64."""
    import pandas as pd
    import pyarrow.compute as pc

    from .exchange import hash_partitioned_agg

    def partial(batch: pa.Table) -> "pd.DataFrame":
        batch = batch.filter(pc.is_valid(batch["embedding"]))
        n = batch.num_rows
        if n == 0:
            return pd.DataFrame()
        col = batch["embedding"].combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        q = np.floor(flat.reshape(n, -1) * KM_SCALE + 0.5).astype(np.int64)
        norm2 = (q * q).sum(axis=1)
        b, cnt = np.unique(norm2 // bucket, return_counts=True)
        return pd.DataFrame({"bucket": b.astype(np.int64),
                             "n_vecs": cnt.astype(np.int64)})

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby("bucket", sort=False, as_index=False).agg(
            n_vecs=("n_vecs", "sum"))

    return hash_partitioned_agg(
        emb_ds.map_batches(partial, batch_format="pyarrow"),
        ["bucket"], combine,
    )


def sql_norm_histogram(bucket: int = NORM_BUCKET) -> str:
    """DuckDB oracle: same quantization as sql_label_centroids, list_sum
    of squares per vector, CAST to BIGINT BEFORE ``//`` (double-// is true
    division in DuckDB — the rel_cohorts lesson)."""
    return f"""
WITH q AS (
  SELECT list_transform(embedding, x ->
           CAST(floor(CAST(x AS DOUBLE) * {KM_SCALE} + 0.5) AS BIGINT)) AS qv
  FROM embeddings WHERE embedding IS NOT NULL
), n AS (
  SELECT CAST(list_sum(list_transform(qv, v -> v * v)) AS BIGINT) AS norm2
  FROM q
)
SELECT CAST(norm2 // {bucket} AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS n_vecs
FROM n GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Scalar quantization (r5 batch-7): per-dimension affine int8 codes — the
# storage-compression pass an embedding store runs before ANN serving.
# ---------------------------------------------------------------------------


def _sq8_params(emb_ds, mm_partial, mm_combine, hash_partitioned_agg,
                collect_arrow):
    """Shared SQ8 calibration: one dim-keyed min/max combiner exchange ->
    driver-side (minq, span) arrays (<= d rows; span floored at 1 so
    constant dims quantize to code 0).  Consumed by ``sq8_codes`` and
    ``quantize_error`` — both see the SAME affine grid."""
    params = collect_arrow(
        hash_partitioned_agg(
            emb_ds.map_batches(mm_partial, batch_format="pyarrow"),
            ["dim"], mm_combine),
        pa.table({"dim": pa.array([], pa.int64()),
                  "minq": pa.array([], pa.int64()),
                  "maxq": pa.array([], pa.int64())}))
    dims = params["dim"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(dims, kind="stable")
    minq = params["minq"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)[order]
    maxq = params["maxq"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)[order]
    span = np.maximum(maxq - minq, 1)   # constant dims -> code 0
    return minq, span


def sq8_codes(emb_ds):
    """embeddings -> (vec_id, code_sum, code_sq_sum): two-pass scalar
    quantization to 8-bit codes with per-dimension affine calibration.

    Pass A (calibration): per-batch per-dim min/max partials (<= d rows
    each) merge in ONE dim-keyed combiner exchange; the d-row parameter
    table collects driver-side and broadcasts by closure.  Pass B: one
    streaming map computes code_j = (q_j - min_j) * 255 // (max_j -
    min_j) per vector (exact integer affine, constant-dimension guard ->
    code 0) and emits the per-vector code checksum pair — raw vectors
    never shuffle, and the only exchange is O(batches x d) rows.  Same
    centered KM_SCALE quantization as gram/norm_hist, so the DuckDB
    mirror reproduces every code bit-exactly."""
    import pandas as pd
    import pyarrow.compute as pc

    from .exchange import collect_arrow, hash_partitioned_agg

    def _qmat(batch: pa.Table):
        batch = batch.filter(pc.is_valid(batch["embedding"]))
        n = batch.num_rows
        if n == 0:
            return np.zeros(0, dtype=np.int64), np.zeros((0, 1), np.int64)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        col = batch["embedding"].combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        q = np.floor(flat.reshape(n, -1) * KM_SCALE + 0.5).astype(np.int64)
        return ids, q

    def mm_partial(batch: pa.Table) -> "pd.DataFrame":
        ids, q = _qmat(batch)
        if not len(ids):
            return pd.DataFrame()
        return pd.DataFrame(
            {"dim": np.arange(q.shape[1], dtype=np.int64),
             "minq": q.min(axis=0), "maxq": q.max(axis=0)})

    def mm_combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby("dim", sort=False, as_index=False).agg(
            minq=("minq", "min"), maxq=("maxq", "max"))

    minq, span = _sq8_params(emb_ds, mm_partial, mm_combine,
                             hash_partitioned_agg, collect_arrow)

    out_schema = pa.schema([("vec_id", pa.int64()),
                            ("code_sum", pa.int64()),
                            ("code_sq_sum", pa.int64())])

    def code_map(batch: pa.Table) -> pa.Table:
        ids, q = _qmat(batch)
        if not len(ids):
            return pa.table({})
        codes = (q - minq[None, :]) * 255 // span[None, :]
        return pa.table({"vec_id": ids,
                         "code_sum": codes.sum(axis=1),
                         "code_sq_sum": (codes * codes).sum(axis=1)},
                        schema=out_schema)

    return emb_ds.map_batches(code_map, batch_format="pyarrow")


def sql_sq8_codes() -> str:
    """DuckDB oracle: per-dim min/max over the same quantization, exact
    integer affine code, per-vector checksum rollup."""
    return f"""
WITH q AS (
  SELECT vec_id,
         list_transform(embedding, x ->
           CAST(floor(CAST(x AS DOUBLE) * {KM_SCALE} + 0.5) AS BIGINT)) AS qv
  FROM embeddings WHERE embedding IS NOT NULL
), u AS (
  SELECT vec_id,
         unnest(generate_series(1, len(qv))) AS i,
         unnest(qv) AS v
  FROM q
), mm AS (
  SELECT i, min(v) AS minq,
         CASE WHEN max(v) - min(v) < 1 THEN 1
              ELSE max(v) - min(v) END AS span
  FROM u GROUP BY i
), c AS (
  SELECT u.vec_id, (u.v - mm.minq) * 255 // mm.span AS code
  FROM u JOIN mm USING (i)
)
SELECT CAST(vec_id AS BIGINT) AS vec_id,
       CAST(sum(code) AS BIGINT) AS code_sum,
       CAST(sum(code * code) AS BIGINT) AS code_sq_sum
FROM c GROUP BY vec_id
"""

def dim_stats(emb_ds):
    """embeddings -> (dim, n, sum_q, sumsq_q): per-dimension moment table
    over the centered KM_SCALE quantization — the feature-health profile
    read before quantization / PCA / ANN index builds (a zero-variance
    dim is dead weight in every distance computation; a huge-variance
    dim dominates unnormalized metrics).  Complements sq8_codes' min/max
    calibration with the first two moments.

    Scale shape: each batch folds its q-matrix to <= d rows (count, sum,
    sum-of-squares per dimension — three C-level axis reductions); ONE
    dim-keyed combiner exchange merges O(batches x d) partial rows.  Raw
    vectors never shuffle.  int64 headroom: |q| ~ KM_SCALE for unit-ish
    embeddings, so sumsq per dim stays < 9.2e18 up to ~9e12 vectors —
    beyond the 100-TB target's row count."""
    import pandas as pd
    import pyarrow.compute as pc

    from .exchange import hash_partitioned_agg

    def partial(batch: pa.Table) -> "pd.DataFrame":
        batch = batch.filter(pc.is_valid(batch["embedding"]))
        n = batch.num_rows
        if n == 0:
            return pd.DataFrame()
        col = batch["embedding"].combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        q = np.floor(flat.reshape(n, -1) * KM_SCALE + 0.5).astype(np.int64)
        d = q.shape[1]
        return pd.DataFrame(
            {"dim": np.arange(d, dtype=np.int64),
             "n": np.full(d, n, dtype=np.int64),
             "sum_q": q.sum(axis=0),
             "sumsq_q": (q * q).sum(axis=0)})

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby("dim", sort=False, as_index=False).agg(
            n=("n", "sum"), sum_q=("sum_q", "sum"),
            sumsq_q=("sumsq_q", "sum"))

    return hash_partitioned_agg(
        emb_ds.map_batches(partial, batch_format="pyarrow"),
        ["dim"], combine)


def sql_dim_stats() -> str:
    """DuckDB oracle: parallel unnest over the same quantization, grouped
    per 0-based dimension."""
    return f"""
WITH q AS (
  SELECT list_transform(embedding, x ->
           CAST(floor(CAST(x AS DOUBLE) * {KM_SCALE} + 0.5) AS BIGINT)) AS qv
  FROM embeddings WHERE embedding IS NOT NULL
), u AS (
  SELECT unnest(generate_series(0, len(qv) - 1)) AS dim,
         unnest(qv) AS v
  FROM q
)
SELECT CAST(dim AS BIGINT) AS dim, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(v) AS BIGINT) AS sum_q,
       CAST(sum(v * v) AS BIGINT) AS sumsq_q
FROM u GROUP BY 1
"""


def quantize_error(emb_ds):
    """embeddings -> (dim, n, sum_err_q, max_err_q): exact per-dimension
    SQ8 reconstruction-error profile in the KM_SCALE integer domain — the
    quantization-QUALITY eval read next to sq8_codes' calibration before
    shipping an 8-bit index (a dimension whose max_err dwarfs the others
    is under-resolved: widen its span handling or keep it float).  recon
    = minq + code * span // 255 with code = (q - minq) * 255 // span, so
    err = q - recon is always in [0, ceil(span/255)] and every compared
    column is an exact integer.

    Scale shape: the shared ``_sq8_params`` calibration exchange (<= d
    rows cross), then ONE streaming pass folds each batch to <= d
    (dim, n, sum_err, max_err) partial rows into a bounded dim-keyed
    combiner — raw vectors never shuffle (the dim_stats cost class)."""
    import pandas as pd
    import pyarrow.compute as pc

    from .exchange import collect_arrow, hash_partitioned_agg

    def _qmat(batch: pa.Table):
        batch = batch.filter(pc.is_valid(batch["embedding"]))
        n = batch.num_rows
        if n == 0:
            return np.zeros((0, 1), np.int64)
        col = batch["embedding"].combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        return np.floor(flat.reshape(n, -1) * KM_SCALE + 0.5).astype(np.int64)

    def mm_partial(batch: pa.Table) -> "pd.DataFrame":
        q = _qmat(batch)
        if not q.shape[0]:
            return pd.DataFrame()
        return pd.DataFrame(
            {"dim": np.arange(q.shape[1], dtype=np.int64),
             "minq": q.min(axis=0), "maxq": q.max(axis=0)})

    def mm_combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby("dim", sort=False, as_index=False).agg(
            minq=("minq", "min"), maxq=("maxq", "max"))

    minq, span = _sq8_params(emb_ds, mm_partial, mm_combine,
                             hash_partitioned_agg, collect_arrow)

    def err_partial(batch: pa.Table) -> "pd.DataFrame":
        q = _qmat(batch)
        n = q.shape[0]
        if not n:
            return pd.DataFrame()
        codes = (q - minq[None, :]) * 255 // span[None, :]
        recon = minq[None, :] + codes * span[None, :] // 255
        err = q - recon
        d = q.shape[1]
        return pd.DataFrame(
            {"dim": np.arange(d, dtype=np.int64),
             "n": np.full(d, n, dtype=np.int64),
             "sum_err_q": err.sum(axis=0),
             "max_err_q": err.max(axis=0)})

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby("dim", sort=False, as_index=False).agg(
            n=("n", "sum"), sum_err_q=("sum_err_q", "sum"),
            max_err_q=("max_err_q", "max"))

    return hash_partitioned_agg(
        emb_ds.map_batches(err_partial, batch_format="pyarrow"),
        ["dim"], combine)


def sql_quantize_error() -> str:
    """DuckDB oracle: the sq8 scaffold (q/u/mm CTEs repeated deliberately
    so the certified sql_sq8_codes text stays untouched) folded to the
    per-dimension reconstruction-error profile, 0-based dims."""
    return f"""
WITH q AS (
  SELECT vec_id,
         list_transform(embedding, x ->
           CAST(floor(CAST(x AS DOUBLE) * {KM_SCALE} + 0.5) AS BIGINT)) AS qv
  FROM embeddings WHERE embedding IS NOT NULL
), u AS (
  SELECT vec_id,
         unnest(generate_series(1, len(qv))) AS i,
         unnest(qv) AS v
  FROM q
), mm AS (
  SELECT i, min(v) AS minq,
         CASE WHEN max(v) - min(v) < 1 THEN 1
              ELSE max(v) - min(v) END AS span
  FROM u GROUP BY i
), c AS (
  SELECT u.i, u.v,
         mm.minq + ((u.v - mm.minq) * 255 // mm.span) * mm.span // 255
           AS recon
  FROM u JOIN mm USING (i)
)
SELECT CAST(i - 1 AS BIGINT) AS dim, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(v - recon) AS BIGINT) AS sum_err_q,
       CAST(max(v - recon) AS BIGINT) AS max_err_q
FROM c GROUP BY 1
"""


def centroid_drift(emb_ds):
    """embeddings -> (label, n_a, n_b, dot_q, na2_q, nb2_q): exact
    integer A/B drift profile of the per-label centroids between the two
    vec_id-parity halves of the corpus — the embedding-health monitor a
    recurring ingest runs (drift cosine = dot / sqrt(na2 * nb2) of the
    per-half prototype SUM vectors, which equals the cosine of the means;
    a label whose halves diverge flags upstream feature or labeling
    drift).  Every compared column is an exact int64 under the shared
    KM_SCALE quantization; the cosine itself is the driver's one float
    post-process.  Labels missing a half drop (no drift is defined).

    Scale shape: per-batch (label, half, dim) prototype-sum partials
    (<= 2 x labels x d rows) cross ONE (label, dim)-keyed partition
    exchange — both halves of a (label, dim) cell co-locate, so the
    kernel finishes the global sums and folds its resident dims straight
    to per-label PRODUCT partials (dot / norm-squares are additive over
    dims); a final bounded label-keyed combiner merges partitions.  Raw
    vectors never shuffle.  int64 headroom: |sum_q| <= n x KM_SCALE, so
    per-dim products stay < 2^63 up to ~2.4e6 vectors per (label, half)
    per 16-dim corpus slice x d — beyond that the partial fold flips to
    Python-int arithmetic (the PMI overflow convention) and raises if the
    TOTAL exceeds int64 (the artifact itself is then out of integer
    range)."""
    import pandas as pd
    import pyarrow.compute as pc

    from .exchange import hash_partitioned_agg, hash_partitioned_apply

    def partial(batch: pa.Table) -> "pd.DataFrame":
        ok = pc.and_(pc.and_(pc.is_valid(batch["embedding"]),
                             pc.is_valid(batch["label"])),
                     pc.is_valid(batch["vec_id"]))
        batch = batch.filter(ok)
        n = batch.num_rows
        if n == 0:
            return pd.DataFrame()
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        labels = batch["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        col = batch["embedding"].combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        d = len(flat) // n
        q = np.floor(flat.reshape(n, d) * KM_SCALE + 0.5).astype(np.int64)
        key = labels * 2 + (ids % 2)
        u, inv = np.unique(key, return_inverse=True)
        sums = np.zeros((len(u), d), dtype=np.int64)
        np.add.at(sums, inv, q)
        cnt = np.bincount(inv).astype(np.int64)
        return pd.DataFrame(
            {"label": np.repeat(u // 2, d),
             "half": np.repeat(u % 2, d),
             "dim": np.tile(np.arange(d, dtype=np.int64), len(u)),
             "sum_q": sums.ravel(),
             "n_vecs": np.repeat(cnt, d)})

    def kernel(d: "pd.DataFrame") -> "pd.DataFrame":
        g = d.groupby(["label", "half", "dim"], sort=False,
                      as_index=False).agg(sum_q=("sum_q", "sum"),
                                          n_vecs=("n_vecs", "sum"))
        a = g[g["half"] == 0]
        b = g[g["half"] == 1]
        m = a.merge(b, on=["label", "dim"], suffixes=("_a", "_b"))
        if not len(m):
            return pd.DataFrame()
        sa = m["sum_q_a"].to_numpy()
        sb = m["sum_q_b"].to_numpy()
        if (int(np.abs(sa).max(initial=0)) * int(np.abs(sb).max(initial=0))
                >= 2 ** 62):
            dot = np.fromiter((int(x) * int(y) for x, y in zip(sa, sb)),
                              dtype=object, count=len(sa))
            na2 = np.fromiter((int(x) * int(x) for x in sa),
                              dtype=object, count=len(sa))
            nb2 = np.fromiter((int(x) * int(x) for x in sb),
                              dtype=object, count=len(sb))
            out = pd.DataFrame(
                {"label": m["label"], "dot_p": dot, "na2_p": na2,
                 "nb2_p": nb2})
            out = out.groupby("label", as_index=False).agg(
                dot_q=("dot_p", "sum"), na2_q=("na2_p", "sum"),
                nb2_q=("nb2_p", "sum"))
            for c in ("dot_q", "na2_q", "nb2_q"):
                if (out[c].abs() >= 2 ** 63).any():
                    raise OverflowError(
                        "centroid_drift products exceed int64")
                out[c] = out[c].astype("int64")
        else:
            out = pd.DataFrame(
                {"label": m["label"], "dot_p": sa * sb, "na2_p": sa * sa,
                 "nb2_p": sb * sb})
            out = out.groupby("label", as_index=False).agg(
                dot_q=("dot_p", "sum"), na2_q=("na2_p", "sum"),
                nb2_q=("nb2_p", "sum"))
            for c in ("dot_q", "na2_q", "nb2_q"):
                out[c] = out[c].astype("int64")
        # n per (label, half): every batch-partial repeats its count on
        # ALL d resident dim rows — sum over exactly ONE resident dim
        # (the min) so each contributing batch counts once
        md = d.groupby(["label", "half"], sort=False)["dim"].transform("min")
        nn = d[d["dim"] == md].groupby(
            ["label", "half"], sort=False, as_index=False).agg(
            n_vecs=("n_vecs", "sum"))
        na = nn[nn["half"] == 0][["label", "n_vecs"]].rename(
            columns={"n_vecs": "n_a"})
        nb = nn[nn["half"] == 1][["label", "n_vecs"]].rename(
            columns={"n_vecs": "n_b"})
        out = out.merge(na, on="label", how="inner").merge(
            nb, on="label", how="inner")
        out["label"] = out["label"].astype("int64")
        out["n_a"] = out["n_a"].astype("int64")
        out["n_b"] = out["n_b"].astype("int64")
        return out[["label", "n_a", "n_b", "dot_q", "na2_q", "nb2_q"]]

    partials = hash_partitioned_apply(
        emb_ds.map_batches(partial, batch_format="pyarrow"),
        ["label", "dim"], kernel)

    return hash_partitioned_agg(
        partials, ["label"],
        lambda df: df.groupby("label", sort=False, as_index=False).agg(
            n_a=("n_a", "max"), n_b=("n_b", "max"), dot_q=("dot_q", "sum"),
            na2_q=("na2_q", "sum"), nb2_q=("nb2_q", "sum")))


def sql_centroid_drift() -> str:
    """DuckDB oracle: parallel unnest per (label, vec_id-parity half, dim)
    sum vectors, inner-joined across halves per (label, dim) — labels
    missing a half drop on both sides."""
    return f"""
WITH b AS (
  SELECT vec_id, label,
         list_transform(embedding, x ->
           CAST(floor(CAST(x AS DOUBLE) * {KM_SCALE} + 0.5) AS BIGINT)) AS qv
  FROM embeddings
  WHERE embedding IS NOT NULL AND label IS NOT NULL AND vec_id IS NOT NULL
), u AS (
  SELECT vec_id % 2 AS half, label,
         unnest(generate_series(0, len(qv) - 1)) AS dim,
         unnest(qv) AS v
  FROM b
), s AS (
  SELECT label, half, dim, CAST(sum(v) AS BIGINT) AS sq
  FROM u GROUP BY 1, 2, 3
), nn AS (
  SELECT label, vec_id % 2 AS half, CAST(count(*) AS BIGINT) AS n
  FROM b GROUP BY 1, 2
), p AS (
  SELECT a.label,
         CAST(sum(a.sq * b.sq) AS BIGINT) AS dot_q,
         CAST(sum(a.sq * a.sq) AS BIGINT) AS na2_q,
         CAST(sum(b.sq * b.sq) AS BIGINT) AS nb2_q
  FROM s a JOIN s b ON a.label = b.label AND a.dim = b.dim
  WHERE a.half = 0 AND b.half = 1
  GROUP BY 1
)
SELECT CAST(p.label AS BIGINT) AS label, na.n AS n_a, nb.n AS n_b,
       p.dot_q, p.na2_q, p.nb2_q
FROM p
JOIN nn na ON na.label = p.label AND na.half = 0
JOIN nn nb ON nb.label = p.label AND nb.half = 1
"""


# ---------------------------------------------------------------------------
# Matryoshka truncation-energy profile (r5 batch-28): how much of each
# vector's energy lives in the first half of its dimensions — the MRL
# (matryoshka representation) truncation-quality histogram an embedding
# service reads before serving shortened vectors.
# ---------------------------------------------------------------------------


def matryoshka_profile(emb_ds):
    """embeddings -> (ratio_pm, n_vecs): per-vector truncation-energy
    histogram — ratio_pm = 10000 * ss_half // ss_full over the KM_SCALE
    quantization, where ss_half sums squares of the FIRST d // 2
    dimensions.  cosine(full, zero-padded half-truncation) =
    sqrt(ss_half / ss_full), so ratio_pm is the exact monotone integer
    proxy for the truncation-cosine curve (a mass near 10000 = the
    embedding is matryoshka-safe at half width; a wide spread = halving
    loses rank fidelity for many vectors).

    Scale shape: pure combiner — one flat-buffer reshape + two row sums
    per batch folding to <= 10001 bounded (ratio_pm, count) rows, one
    ratio-keyed combiner exchange; vectors never shuffle.  Zero-norm
    vectors drop (no defined ratio — the norm_histogram ingest rule);
    10000 * ss_half <= 1e4 * d * KM_SCALE^2 * |x|max^2 ~ 6.4e11 at
    d = 64, far inside int64."""
    import pandas as pd
    import pyarrow.compute as pc

    from .exchange import hash_partitioned_agg

    def partial(batch: pa.Table) -> "pd.DataFrame":
        batch = batch.filter(pc.is_valid(batch["embedding"]))
        n = batch.num_rows
        if n == 0:
            return pd.DataFrame()
        col = batch["embedding"].combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        q = np.floor(flat.reshape(n, -1) * KM_SCALE + 0.5).astype(np.int64)
        sq = q * q
        ss_full = sq.sum(axis=1)
        ss_half = sq[:, : q.shape[1] // 2].sum(axis=1)
        live = ss_full > 0
        ratio = (10000 * ss_half[live]) // ss_full[live]
        b, cnt = np.unique(ratio, return_counts=True)
        return pd.DataFrame({"ratio_pm": b.astype(np.int64),
                             "n_vecs": cnt.astype(np.int64)})

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby("ratio_pm", sort=False, as_index=False).agg(
            n_vecs=("n_vecs", "sum"))

    return hash_partitioned_agg(
        emb_ds.map_batches(partial, batch_format="pyarrow"),
        ["ratio_pm"], combine,
    )


def sql_matryoshka_profile() -> str:
    """DuckDB oracle: same quantization as sql_norm_histogram; the half
    prefix is list_slice over len(qv) // 2 (len is per-row, so ragged
    dims stay correct); BIGINT casts before ``//`` (the rel_cohorts
    lesson)."""
    return f"""
WITH q AS (
  SELECT list_transform(embedding, x ->
           CAST(floor(CAST(x AS DOUBLE) * {KM_SCALE} + 0.5) AS BIGINT)) AS qv
  FROM embeddings WHERE embedding IS NOT NULL
), s AS (
  SELECT CAST(list_sum(list_transform(qv, v -> v * v)) AS BIGINT) AS ss_full,
         CAST(coalesce(list_sum(list_transform(
             list_slice(qv, 1, len(qv) // 2), v -> v * v)), 0) AS BIGINT)
           AS ss_half
  FROM q
)
SELECT CAST((10000 * ss_half) // ss_full AS BIGINT) AS ratio_pm,
       CAST(count(*) AS BIGINT) AS n_vecs
FROM s WHERE ss_full > 0 GROUP BY 1
"""


def sign_balance(emb_ds):
    """embeddings -> (dim, n_pos, n_zero, n_neg): per-dimension sign
    census in the KM_SCALE quantized domain — the binary-quantization
    calibration artifact a vector store reads before flipping to sign-bit
    codes (a dimension whose signs are heavily imbalanced carries almost
    no information in BQ; the fix is a rotation or per-dim threshold).
    Pure combiner: <= d rows per batch, one dim-keyed exchange, vectors
    never shuffle (the dim_stats cost class)."""
    import pandas as pd
    import pyarrow.compute as pc

    from .exchange import hash_partitioned_agg

    def partial(batch: pa.Table) -> "pd.DataFrame":
        batch = batch.filter(pc.is_valid(batch["embedding"]))
        n = batch.num_rows
        if n == 0:
            return pd.DataFrame()
        col = batch["embedding"].combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        q = np.floor(flat.reshape(n, -1) * KM_SCALE + 0.5).astype(np.int64)
        return pd.DataFrame(
            {"dim": np.arange(q.shape[1], dtype=np.int64),
             "n_pos": (q > 0).sum(axis=0).astype(np.int64),
             "n_zero": (q == 0).sum(axis=0).astype(np.int64),
             "n_neg": (q < 0).sum(axis=0).astype(np.int64)})

    return hash_partitioned_agg(
        emb_ds.map_batches(partial, batch_format="pyarrow"),
        ["dim"],
        lambda df: df.groupby("dim", sort=False, as_index=False).agg(
            n_pos=("n_pos", "sum"), n_zero=("n_zero", "sum"),
            n_neg=("n_neg", "sum")))


def sql_sign_balance() -> str:
    """DuckDB oracle: same quantization as sql_label_centroids, parallel
    index/value unnest, sign census per dimension."""
    return f"""
WITH q AS (
  SELECT list_transform(embedding, x ->
           CAST(floor(CAST(x AS DOUBLE) * {KM_SCALE} + 0.5) AS BIGINT)) AS qv
  FROM embeddings WHERE embedding IS NOT NULL
), u AS (
  SELECT unnest(generate_series(1, len(qv))) AS i, unnest(qv) AS v FROM q
)
SELECT CAST(i - 1 AS BIGINT) AS dim,
       CAST(sum(CASE WHEN v > 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_pos,
       CAST(sum(CASE WHEN v = 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_zero,
       CAST(sum(CASE WHEN v < 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_neg
FROM u GROUP BY 1
"""
