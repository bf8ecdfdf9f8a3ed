"""Exact distributed triangle counting — the standard graph-health /
community-density statistic over a CONSTRUCTED graph: suppliers are
connected when they co-supply the same order, so the operator exercises
both halves of the classic pipeline (relational -> graph projection, then
degree-ordered triangle enumeration).

Scale shape (all existing exchange machinery, no new primitives):

1. co-supplier edges: partition-only exchange on l_orderkey; the kernel
   builds per-order distinct supplier pairs with a fully-vectorized
   within-group pair generator (no per-order Python) — pair volume per
   order is C(lines, 2), bounded by the order's line count;
2. edge dedup + degree: combiner-pre-deduped exchanges (the dedup_exact /
   degree_histogram shapes);
3. DEGREE-ORDERED orientation: each undirected edge points from its
   lower-(degree, id) endpoint — the out-degree of any node is then
   O(sqrt(m)) (Chiba–Nishizeki), so per-source wedge generation cannot
   blow up on hubs the way id-only orientation does;
4. wedges + closure: per-source neighbor pairs (ordered by rank) meet the
   oriented edge set in ONE pair-keyed exchange; per-partition match
   counts tree-sum to a single (n_triangles) row.

Degrees attach to edge endpoints through ``lookup_join`` (a broadcast of
the node-sized degree table, or a node-keyed exchange when it is big).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _pairs_within_groups(starts: np.ndarray, sizes: np.ndarray, n: int):
    """All (i < j) GLOBAL index pairs within contiguous groups of a sorted
    array — fully vectorized: element idx pairs with the idx+1..group_end
    range that follows it."""
    if n == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, z
    ends = np.repeat(starts + sizes, sizes)
    idx = np.arange(n, dtype=np.int64)
    reps = ends - idx - 1
    total = int(reps.sum())
    if total == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, z
    left = np.repeat(idx, reps)
    block_starts = np.cumsum(reps) - reps
    right = (np.arange(total, dtype=np.int64)
             - np.repeat(block_starts, reps) + left + 1)
    return left, right


def _group_bounds(keys: np.ndarray):
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    sizes = np.diff(np.r_[starts, len(keys)])
    return starts, sizes


def cosupplier_triangles(lineitem_ds, per_edge: bool = False,
                         jaccard: bool = False, clustering: bool = False):
    """lineitem -> one row (n_triangles,): exact triangle count of the
    co-supplier graph (edge iff two suppliers share an order).

    With ``per_edge=True`` the SAME pipeline instead returns (a, b,
    n_common) — the common-neighbor count of every edge with >= 1 (the
    classic link-prediction feature): wedges carry their center c through
    the closure, each matched wedge is a triangle {c, u, w} whose THREE
    id-normalized edges gain one common neighbor, and a final
    (a, b)-keyed count combiner folds them.  Extra wire cost over the
    count mode is one int64 column on the wedge rows plus a
    triangle-volume count exchange.  Adding ``jaccard=True`` attaches both
    endpoint degrees (under the same cost gate as the orientation) and the
    neighbor-set Jaccard similarity jacc_pm = 10000 * n // (da + db - n),
    exact in integers.

    With ``clustering=True`` the pipeline instead returns the per-node
    LOCAL CLUSTERING COEFFICIENT table (node, deg, n_tri, cc_pm): each
    matched wedge is a triangle crediting its three nodes +1; a
    node-keyed count combiner folds the credits to T(v) together with
    every node's degree, and cc_pm = 10000 * T(v) // C(deg, 2) exactly in
    integers.  Nodes with deg >= 2 and ZERO triangles appear with
    cc_pm = 0 — every degree row enters that fold, not only the
    triangle credits."""
    import pandas as pd

    from .exchange import (finish, hash_partitioned_agg,
                           hash_partitioned_apply, lookup_join)

    if clustering:
        per_edge = True        # wedge rows must carry their center node

    # -- 1. per-order supplier pairs (a < b), combiner-deduped per batch --
    def order_pairs_kernel(d: "pd.DataFrame") -> "pd.DataFrame":
        d = d.dropna(subset=["l_orderkey", "l_suppkey"])
        d = d.drop_duplicates(subset=["l_orderkey", "l_suppkey"]).sort_values(
            ["l_orderkey", "l_suppkey"]
        )
        o = d["l_orderkey"].to_numpy()
        s = d["l_suppkey"].to_numpy().astype(np.int64)
        starts, sizes = _group_bounds(o)
        li, ri = _pairs_within_groups(starts, sizes, len(o))
        return pd.DataFrame(
            {"a": s[li], "b": s[ri]}
        ).drop_duplicates()

    pairs = hash_partitioned_apply(
        lineitem_ds, ["l_orderkey"], order_pairs_kernel
    )

    # -- 2. distinct edges ------------------------------------------------
    def edge_dedup(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.drop_duplicates(subset=["a", "b"])[["a", "b"]]

    # edges / deg / oriented are each consumed by TWO downstream branches;
    # Ray re-executes a lazy plan per consumer, so the shared graph-sized
    # intermediates pin once (the pagerank partition-pinning rationale —
    # without this the diamond reuse re-runs the edge build ~6x)
    edges = hash_partitioned_apply(
        pairs.map_batches(edge_dedup, batch_format="pandas"),
        ["a", "b"], edge_dedup
    ).materialize()

    # -- 3. degrees (undirected), then attach to both endpoints ----------
    def symmetrize(df: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd2

        return pd2.DataFrame(
            {"node": np.concatenate([df["a"].to_numpy(), df["b"].to_numpy()]),
             "cnt": np.ones(2 * len(df), dtype=np.int64)}
        )

    def deg_combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby("node", sort=False, as_index=False).agg(
            cnt=("cnt", "sum")
        )

    deg = hash_partitioned_agg(
        edges.map_batches(symmetrize, batch_format="pandas"),
        ["node"], deg_combine
    ).materialize()

    # -- 4. orient by (degree, id); wedges; closure -----------------------
    def with_degrees(rows, then):
        """``rows`` (a, b, ...) with deg(a) as da and deg(b) as db."""
        def deg_as(col):
            return deg.map_batches(lambda df: df.rename(columns={"cnt": col}),
                                   batch_format="pandas")

        return lookup_join(
            lookup_join(rows, "a", deg_as("da"), "node", ["da"]),
            "b", deg_as("db"), "node", ["db"], then=then)

    def orient(t: pa.Table) -> "pd.DataFrame":
        a, b = t["a"].to_numpy(), t["b"].to_numpy()
        da, db = t["da"].to_numpy(), t["db"].to_numpy()
        fwd = (da < db) | ((da == db) & (a < b))
        return pd.DataFrame(
            {"src": np.where(fwd, a, b), "dst": np.where(fwd, b, a),
             "ddst": np.where(fwd, db, da).astype(np.int64)}
        )

    oriented = with_degrees(edges, orient).materialize()

    def wedge_kernel(d: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd2

        # neighbors sorted by rank (ddst, dst) per src; all rank-ordered
        # pairs (u, w) — out-degree is O(sqrt(m)) under the orientation
        d = d.sort_values(["src", "ddst", "dst"])
        srcs = d["src"].to_numpy()
        dst = d["dst"].to_numpy()
        starts, sizes = _group_bounds(srcs)
        li, ri = _pairs_within_groups(starts, sizes, len(srcs))
        out = {"u": dst[li], "w": dst[ri],
               "kind": np.zeros(len(li), dtype=np.int64)}
        if per_edge:
            out["c"] = srcs[li]          # wedge center rides along
        return pd2.DataFrame(out)

    wedges = hash_partitioned_apply(
        oriented, ["src"], wedge_kernel
    )

    def edge_probe_rows(df: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd2

        out = {"u": df["src"], "w": df["dst"],
               "kind": np.ones(len(df), dtype=np.int64)}
        if per_edge:
            out["c"] = np.full(len(df), -1, dtype=np.int64)
        return pd2.DataFrame(out)

    probe = wedges.union(
        oriented.map_batches(edge_probe_rows, batch_format="pandas")
    )

    if clustering:
        def node_sums(df: "pd.DataFrame") -> "pd.DataFrame":
            return df.groupby("node", sort=False, as_index=False).agg(
                cnt=("cnt", "sum"), n_tri=("n_tri", "sum"))

        def close_nodes_kernel(d: "pd.DataFrame") -> "pd.DataFrame":
            w = d[d["kind"] == 0]
            e = d[d["kind"] == 1].drop_duplicates(subset=["u", "w"])
            m = w.merge(e[["u", "w"]], on=["u", "w"], how="inner")
            # triangle {c, u, v}: each of the three nodes gains one
            # triangle; pre-count per partition (the combiner)
            nodes = np.concatenate([m["u"].to_numpy(), m["w"].to_numpy(),
                                    m["c"].to_numpy()])
            return node_sums(pd.DataFrame({"node": nodes.astype(np.int64),
                                           "cnt": np.int64(0),
                                           "n_tri": np.int64(1)}))

        # triangle credits (cnt 0) and every node's degree (n_tri 0) fold
        # in one node-keyed combiner, so zero-triangle nodes keep their row
        credits = hash_partitioned_apply(
            probe, ["u", "w"], close_nodes_kernel)
        degrees = deg.map_batches(lambda df: df.assign(n_tri=np.int64(0)),
                                  batch_format="pandas")
        nodes = hash_partitioned_agg(credits.union(degrees), ["node"],
                                     node_sums)

        def cc_cols(df: "pd.DataFrame") -> "pd.DataFrame":
            df = df[df["cnt"] >= 2]
            dg = df["cnt"].to_numpy().astype(np.int64)
            t = df["n_tri"].to_numpy().astype(np.int64)
            return pd.DataFrame(
                {"node": df["node"].to_numpy().astype(np.int64), "deg": dg,
                 "n_tri": t, "cc_pm": 10_000 * t // (dg * (dg - 1) // 2)})

        return nodes.map_batches(cc_cols, batch_format="pandas")

    if per_edge:
        def close_edges_kernel(d: "pd.DataFrame") -> "pd.DataFrame":
            import pandas as pd2

            w = d[d["kind"] == 0]
            e = d[d["kind"] == 1].drop_duplicates(subset=["u", "w"])
            m = w.merge(e[["u", "w"]], on=["u", "w"], how="inner")
            u = m["u"].to_numpy()
            v = m["w"].to_numpy()
            c = m["c"].to_numpy()
            # triangle {c, u, v}: all three id-normalized edges gain one
            # common neighbor; pre-count per partition (the combiner)
            a = np.concatenate([np.minimum(u, v), np.minimum(c, u),
                                np.minimum(c, v)])
            b = np.concatenate([np.maximum(u, v), np.maximum(c, u),
                                np.maximum(c, v)])
            out = pd2.DataFrame({"a": a, "b": b})
            out["n_common"] = np.int64(1)
            return out.groupby(["a", "b"], sort=False, as_index=False).agg(
                n_common=("n_common", "sum")
            )

        tri_edges = hash_partitioned_apply(
            probe, ["u", "w"], close_edges_kernel
        )

        def cn_combine(df: "pd.DataFrame") -> "pd.DataFrame":
            return df.groupby(["a", "b"], sort=False, as_index=False).agg(
                n_common=("n_common", "sum")
            )

        cn = hash_partitioned_agg(
            tri_edges, ["a", "b"], cn_combine
        )
        if not jaccard:
            return cn

        # -- Jaccard mode: attach deg(a), deg(b) and emit the exact
        # integer permyriad score 10000 * |N(a) n N(b)| // |N(a) u N(b)|
        # (union = da + db - n_common; b in N(a) and a in N(b), so the
        # union counts both endpoints — the standard link-prediction
        # convention).
        def jacc_cols(t: pa.Table) -> "pd.DataFrame":
            n = t["n_common"].to_numpy().astype(np.int64)
            da = t["da"].to_numpy().astype(np.int64)
            db = t["db"].to_numpy().astype(np.int64)
            return pd.DataFrame(
                {"a": t["a"].to_numpy().astype(np.int64),
                 "b": t["b"].to_numpy().astype(np.int64),
                 "n_common": n, "jacc_pm": 10_000 * n // (da + db - n)})

        return with_degrees(cn, jacc_cols)

    def close_kernel(d: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd2

        w = d[d["kind"] == 0]
        e = d[d["kind"] == 1].drop_duplicates(subset=["u", "w"])
        n = len(w.merge(e[["u", "w"]], on=["u", "w"], how="inner"))
        return pd2.DataFrame({"n_triangles": [np.int64(n)]})

    counts = hash_partitioned_apply(
        probe, ["u", "w"], close_kernel
    )

    def total(df: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd2

        return pd2.DataFrame(
            {"n_triangles": [np.int64(df["n_triangles"].sum())]}
        )

    # per-partition counts are tiny: one driver fold sums them (zero
    # partitions -> 0 triangles)
    return finish(counts, total,
                  schema=pa.schema([("n_triangles", pa.int64())]))


def sql_cosupplier_triangles() -> str:
    """DuckDB oracle: same graph, same count — rank-DAG triple join (each
    triangle counted once)."""
    return """
WITH ls AS (
  SELECT DISTINCT l_orderkey AS o, CAST(l_suppkey AS BIGINT) AS s
  FROM lineitem
), e AS (
  SELECT DISTINCT x.s AS a, y.s AS b
  FROM ls x JOIN ls y ON x.o = y.o AND x.s < y.s
), und AS (
  SELECT a AS node, b AS other FROM e
  UNION ALL SELECT b AS node, a AS other FROM e
), deg AS (
  SELECT node, CAST(count(*) AS BIGINT) AS d FROM und GROUP BY node
), o AS (
  SELECT CASE WHEN (da.d, e.a) < (db.d, e.b) THEN e.a ELSE e.b END AS src,
         CASE WHEN (da.d, e.a) < (db.d, e.b) THEN e.b ELSE e.a END AS dst
  FROM e JOIN deg da ON da.node = e.a JOIN deg db ON db.node = e.b
)
SELECT CAST(count(*) AS BIGINT) AS n_triangles
FROM o e1 JOIN o e2 ON e2.src = e1.dst
JOIN o e3 ON e3.src = e1.src AND e3.dst = e2.dst
"""


def sql_common_neighbors() -> str:
    """DuckDB oracle for per_edge mode: common neighbors of edge (a, b)
    directly — symmetric adjacency self-joined through the shared
    neighbor.  c = a / c = b are impossible (no self-loops), so no extra
    filter is needed; only edges with >= 1 common neighbor appear,
    matching the Ray side's count-of-matched-triangles semantics."""
    return """
WITH ls AS (
  SELECT DISTINCT l_orderkey AS o, CAST(l_suppkey AS BIGINT) AS s
  FROM lineitem
), e AS (
  SELECT DISTINCT x.s AS a, y.s AS b
  FROM ls x JOIN ls y ON x.o = y.o AND x.s < y.s
), und AS (
  SELECT a AS node, b AS other FROM e
  UNION ALL SELECT b AS node, a AS other FROM e
)
SELECT e.a, e.b, CAST(count(*) AS BIGINT) AS n_common
FROM e
JOIN und n1 ON n1.node = e.a
JOIN und n2 ON n2.node = e.b AND n2.other = n1.other
GROUP BY e.a, e.b
"""


def sql_local_clustering() -> str:
    """DuckDB oracle for clustering mode: per-node triangle count derived
    from the common-neighbor counts (sum over a node's incident edges of
    n_common = 2 * T(v), always even), LEFT-joined onto the full degree
    table so zero-triangle deg>=2 nodes appear with cc_pm = 0; integer
    permyriad floor division mirrors 10000 * T // (deg*(deg-1)//2)."""
    return """
WITH ls AS (
  SELECT DISTINCT l_orderkey AS o, CAST(l_suppkey AS BIGINT) AS s
  FROM lineitem
), e AS (
  SELECT DISTINCT x.s AS a, y.s AS b
  FROM ls x JOIN ls y ON x.o = y.o AND x.s < y.s
), und AS (
  SELECT a AS node, b AS other FROM e
  UNION ALL SELECT b AS node, a AS other FROM e
), deg AS (
  SELECT node, CAST(count(*) AS BIGINT) AS d FROM und GROUP BY node
), cn AS (
  SELECT e.a, e.b, CAST(count(*) AS BIGINT) AS n_common
  FROM e
  JOIN und n1 ON n1.node = e.a
  JOIN und n2 ON n2.node = e.b AND n2.other = n1.other
  GROUP BY e.a, e.b
), creds AS (
  SELECT a AS node, n_common FROM cn
  UNION ALL SELECT b AS node, n_common FROM cn
), tri AS (
  SELECT node, CAST(sum(n_common) // 2 AS BIGINT) AS n_tri
  FROM creds GROUP BY node
)
SELECT d.node, d.d AS deg,
       CAST(COALESCE(t.n_tri, 0) AS BIGINT) AS n_tri,
       CAST(10000 * COALESCE(t.n_tri, 0) // (d.d * (d.d - 1) // 2)
            AS BIGINT) AS cc_pm
FROM deg d LEFT JOIN tri t ON t.node = d.node
WHERE d.d >= 2
"""


def sql_cosupplier_jaccard() -> str:
    """DuckDB oracle for jaccard mode: the common-neighbor oracle joined
    to the degree CTE; integer permyriad floor division mirrors the Ray
    side's 10000 * n // (da + db - n)."""
    return """
WITH ls AS (
  SELECT DISTINCT l_orderkey AS o, CAST(l_suppkey AS BIGINT) AS s
  FROM lineitem
), e AS (
  SELECT DISTINCT x.s AS a, y.s AS b
  FROM ls x JOIN ls y ON x.o = y.o AND x.s < y.s
), und AS (
  SELECT a AS node, b AS other FROM e
  UNION ALL SELECT b AS node, a AS other FROM e
), deg AS (
  SELECT node, CAST(count(*) AS BIGINT) AS d FROM und GROUP BY node
), cn AS (
  SELECT e.a, e.b, CAST(count(*) AS BIGINT) AS n_common
  FROM e
  JOIN und n1 ON n1.node = e.a
  JOIN und n2 ON n2.node = e.b AND n2.other = n1.other
  GROUP BY e.a, e.b
)
SELECT cn.a, cn.b, cn.n_common,
       CAST(10000 * cn.n_common // (da.d + db.d - cn.n_common) AS BIGINT)
         AS jacc_pm
FROM cn JOIN deg da ON da.node = cn.a JOIN deg db ON db.node = cn.b
"""


def _distinct_pair_weights(lineitem_ds):
    """lineitem -> globally distinct weighted co-supplier pairs (a, b, w):
    stage 1 is the triangle pipeline's orderkey exchange KEEPING one row
    per (order, pair) with an in-partition pre-fold (an order lives wholly
    in one partition, so nothing is lost); stage 2 sums weights in an
    (a, b)-keyed combiner — after it each pair exists exactly once."""
    import pandas as pd

    from .exchange import hash_partitioned_agg, hash_partitioned_apply

    def order_pair_weights(d: "pd.DataFrame") -> "pd.DataFrame":
        d = d.dropna(subset=["l_orderkey", "l_suppkey"])
        d = d.drop_duplicates(subset=["l_orderkey", "l_suppkey"]).sort_values(
            ["l_orderkey", "l_suppkey"])
        o = d["l_orderkey"].to_numpy()
        s = d["l_suppkey"].to_numpy().astype(np.int64)
        starts, sizes = _group_bounds(o)
        li, ri = _pairs_within_groups(starts, sizes, len(o))
        g = pd.DataFrame({"a": s[li], "b": s[ri]})
        g["w"] = np.int64(1)
        return g.groupby(["a", "b"], sort=False, as_index=False).agg(
            w=("w", "sum"))

    pair_w = hash_partitioned_apply(
        lineitem_ds, ["l_orderkey"], order_pair_weights)

    return hash_partitioned_agg(
        pair_w, ["a", "b"],
        lambda df: df.groupby(["a", "b"], sort=False, as_index=False).agg(
            w=("w", "sum")))


def cosupplier_edge_weights(lineitem_ds):
    """lineitem -> (weight, n_edges): histogram of co-supplier edge
    multiplicities — weight = number of DISTINCT orders a supplier pair
    shares, the graph's edge-strength distribution (the thresholding
    signal for pruning weak co-occurrence edges before the expensive
    wedge pipelines).

    Stages 1-2 are the shared distinct-pair build; stage 3 folds the
    bounded weight histogram.  No wedges, no orientation — strictly
    cheaper than any triangle-family query."""
    import pandas as pd

    from .exchange import hash_partitioned_agg

    weights = _distinct_pair_weights(lineitem_ds)

    def hist_partial(df: "pd.DataFrame") -> "pd.DataFrame":
        vc = df["w"].value_counts()
        return pd.DataFrame(
            {"weight": vc.index.to_numpy().astype("int64"),
             "n_edges": vc.to_numpy().astype("int64")})

    return hash_partitioned_agg(
        weights.map_batches(hist_partial, batch_format="pandas"),
        ["weight"],
        lambda df: df.groupby("weight", sort=False, as_index=False).agg(
            n_edges=("n_edges", "sum")))


def cosupplier_degree_moments(lineitem_ds):
    """lineitem -> ONE row (n_nodes, n_edges, n_wedges, max_deg): exact
    degree-distribution moments of the co-supplier graph — the pre-flight
    a scheduler reads BEFORE launching the wedge pipelines (n_wedges =
    sum C(d, 2) is exactly the candidate volume cosupplier_triangles will
    generate; max_deg bounds the hottest partition).

    Stages 1-2 are the shared distinct-pair build; stage 3 emits both
    endpoints of each distinct edge into a node-keyed degree combiner;
    stage 4 folds per-batch scalar moment partials on the driver (an
    edge-free graph still gives its one all-zero row).  n_edges =
    sum(d) // 2 by the handshake lemma."""
    import pandas as pd

    from .exchange import finish, hash_partitioned_agg

    weights = _distinct_pair_weights(lineitem_ds)

    def node_partial(df: "pd.DataFrame") -> "pd.DataFrame":
        nodes = pd.concat([df["a"], df["b"]], ignore_index=True)
        vc = nodes.value_counts()
        return pd.DataFrame({"node": vc.index.to_numpy().astype("int64"),
                             "d": vc.to_numpy().astype("int64")})

    degrees = hash_partitioned_agg(
        weights.map_batches(node_partial, batch_format="pandas"),
        ["node"],
        lambda df: df.groupby("node", sort=False, as_index=False).agg(
            d=("d", "sum")))

    def moment_partial(df: "pd.DataFrame") -> "pd.DataFrame":
        d = df["d"].to_numpy()
        return pd.DataFrame(
            {"n_nodes": np.int64(len(d)),
             "sum_d": d.sum(dtype=np.int64),
             "n_wedges": (d * (d - 1) // 2).sum(dtype=np.int64),
             "max_deg": np.int64(d.max()) if len(d) else np.int64(0)},
            index=[0])

    def fold(df: "pd.DataFrame") -> "pd.DataFrame":
        return pd.DataFrame(
            {"n_nodes": [np.int64(df["n_nodes"].sum())],
             "n_edges": [np.int64(df["sum_d"].sum() // 2)],
             "n_wedges": [np.int64(df["n_wedges"].sum())],
             "max_deg": [np.int64(df["max_deg"].max()) if len(df)
                         else np.int64(0)]})

    return finish(
        degrees.map_batches(moment_partial, batch_format="pandas"), fold,
        schema=pa.schema([(c, pa.int64()) for c in
                          ("n_nodes", "sum_d", "n_wedges", "max_deg")]))


def sql_degree_moments() -> str:
    """DuckDB oracle: same graph, moments straight off the degree CTE."""
    return """
WITH ls AS (
  SELECT DISTINCT l_orderkey AS o, CAST(l_suppkey AS BIGINT) AS s
  FROM lineitem WHERE l_orderkey IS NOT NULL AND l_suppkey IS NOT NULL
), e AS (
  SELECT DISTINCT x.s AS a, y.s AS b
  FROM ls x JOIN ls y ON x.o = y.o AND x.s < y.s
), und AS (
  SELECT a AS node, b AS other FROM e
  UNION ALL SELECT b AS node, a AS other FROM e
), deg AS (
  SELECT node, CAST(count(*) AS BIGINT) AS d FROM und GROUP BY node
)
SELECT CAST(count(*) AS BIGINT) AS n_nodes,
       CAST(sum(d) // 2 AS BIGINT) AS n_edges,
       CAST(sum(d * (d - 1) // 2) AS BIGINT) AS n_wedges,
       CAST(max(d) AS BIGINT) AS max_deg
FROM deg
"""


def sql_edge_weights() -> str:
    """DuckDB oracle: distinct (order, supplier) pairs self-joined within
    the order, counted per pair, histogrammed per weight."""
    return """
WITH ls AS (
  SELECT DISTINCT l_orderkey AS o, CAST(l_suppkey AS BIGINT) AS s
  FROM lineitem
), ew AS (
  SELECT x.s AS a, y.s AS b, CAST(count(*) AS BIGINT) AS w
  FROM ls x JOIN ls y ON x.o = y.o AND x.s < y.s
  GROUP BY 1, 2
)
SELECT w AS weight, CAST(count(*) AS BIGINT) AS n_edges
FROM ew GROUP BY 1
"""
