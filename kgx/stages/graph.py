"""Iterative graph analytics over Ray Data: integer fixed-point PageRank.

The KG the reference extracts is consumed as a graph (entities/adjacency,
reference ``src/graph/builder.py`` semantics); ranking its nodes is the
canonical downstream analytics step, and at 100 TB the graph lives in the
object store, not on the driver.  This module runs power iteration as a
PARTITIONED-EDGE PREGEL: the static edge set is hash-partitioned into P
pinned object-store partitions once (Ray Data builds them: dedup +
outdegree via the keyed exchanges), then each round is P contribute tasks
+ P sum tasks over raw Ray ``ObjectRef`` handles — only rank data moves
per round, the graph itself never re-shuffles (the same reason GraphX
keeps a partitioned edge RDD).  The driver holds P refs, never data.

All arithmetic is INTEGER fixed-point so the DuckDB oracle reproduces it
bit-exactly (the kgx driver-contract convention):

    r_0(v)     = R0                            (1e9 per node)
    r_{t+1}(v) = BASE + sum over in-edges u->v of (r_t(u) * DAMP_NUM)
                                               // (DAMP_DEN * outdeg(u))

with BASE = R0 * (DAMP_DEN - DAMP_NUM) // DAMP_DEN.  Floor division on
non-negative ints is identical in numpy and DuckDB ``//``; sums of int64
are order-independent, so the result is exact regardless of partitioning.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

R0 = 1_000_000_000
DAMP_NUM = 85
DAMP_DEN = 100
BASE = R0 * (DAMP_DEN - DAMP_NUM) // DAMP_DEN

_RANK_SCHEMA = pa.schema([("node", pa.int64()), ("pr", pa.int64())])
EDGE_KEYS = pa.schema([("node", pa.int64()), ("other", pa.int64())])


def edge_keys(t: pa.Table) -> pa.Table:
    """A (src, dst) edge block as the (node, other) rows that
    ``pregel.partition_edges`` owner-partitions on ``node``.  It
    sees raw materialized blocks, and an empty one can come without
    columns, so zero rows map to the typed empty table."""
    if t.num_rows == 0:
        return EDGE_KEYS.empty_table()
    return pa.table({"node": t["src"], "other": t["dst"]}, schema=EDGE_KEYS)


def pagerank_ds(edges_ds, iterations: int = 3):
    """edges (src:int64, dst:int64) -> (node, pr) after ``iterations`` rounds
    of integer power iteration.  Nodes are the distinct edge endpoints.

    Per round: each edge partition joins its co-resident rank partition
    (vectorized searchsorted — both are local by the shared owner hash),
    pre-sums contributions per dst and splits them by owner; P sum tasks
    reduce the incoming partials into the next rank vector — no per-node
    Python at unbounded node counts, and the edge set itself never moves
    after the initial partitioning.
    Dangling nodes cannot occur when the caller supplies a symmetrized
    edge set (every endpoint has outdegree >= 1); isolated nodes are out of
    scope (they hold the closed-form rank BASE + 0 forever).
    """
    import pandas as pd
    import ray

    from .exchange import hash_partitioned_agg, hash_partitioned_apply

    # ---- distinct edges + outdegree, built once ----------------------------
    def edge_combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.drop_duplicates(subset=["src", "dst"])[["src", "dst"]]

    dedup_edges = hash_partitioned_agg(edges_ds, ["src"], edge_combine)

    def degree_kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        deg = df.groupby("src", sort=False)["dst"].transform("size")
        return pd.DataFrame(
            {
                "src": df["src"].astype("int64"),
                "dst": df["dst"].astype("int64"),
                "outdeg": deg.astype("int64"),
            }
        )

    # src-keyed exchange: outdeg attaches where the per-round kernel needs
    # it anyway, so the iteration ships no degree table separately
    keyed_edges = hash_partitioned_apply(dedup_edges, ["src"], degree_kernel)

    # ---- partitioned-edge Pregel rounds ------------------------------------
    # The shared machinery (kgx.stages.pregel): the static edge set is
    # hash-partitioned by src ONCE into P pinned object-store partitions;
    # each round moves ONLY rank data — P contribute tasks (edge part ⋈
    # co-resident rank part, pre-summed per dst, split by owner) and P sum
    # tasks (concat + reduce + BASE).  Partitioning assumption: node n is
    # OWNED by partition mix(n) % P; with a symmetrized edge set every node
    # appears as a src, so ownership is derivable from the edge partitions
    # alone and every node receives at least one in-contribution per round.
    import ray.data as rd

    from .pregel import concat_parts, partition_edges, run_rounds, \
        split_by_owner

    edge_schema = pa.schema(
        [("src", pa.int64()), ("dst", pa.int64()), ("outdeg", pa.int64())]
    )

    def norm_edges(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "src" not in t.schema.names:
            return pa.table(
                {"src": [], "dst": [], "outdeg": []}, schema=edge_schema
            )
        return pa.table(
            {c: t[c] for c in ("src", "dst", "outdeg")}, schema=edge_schema
        )

    edge_parts = partition_edges(keyed_edges, norm_edges, "src")
    P = len(edge_parts)

    def seed_part(t: pa.Table) -> pa.Table:
        src = np.unique(t["src"].to_numpy().astype(np.int64))
        return pa.table(
            {"node": src, "pr": np.full(len(src), R0, dtype=np.int64)},
            schema=_RANK_SCHEMA,
        )

    def contribute_part(edges_t: pa.Table, ranks_t: pa.Table):
        e_src = edges_t["src"].to_numpy()
        rn = ranks_t["node"].to_numpy()
        rp = ranks_t["pr"].to_numpy()
        order = np.argsort(rn)
        pr = rp[order][np.searchsorted(rn[order], e_src)]
        # divide-first with exact remainder handling: pr*85 would overflow
        # int64 once a hub's rank passes ~1.08e8 * R0 (possible beyond ~1e8
        # nodes at the 100 TB target).  With pr = q*den + r,
        # (pr*85)//den == q*85 + (r*85)//den exactly; q*85 < pr (den >= 100)
        # and r*85 < 8500*outdeg, so the rewrite is overflow-safe for any
        # graph whose TOTAL mass N*R0 fits int64 (N <= ~9.2e9 nodes).
        den = DAMP_DEN * edges_t["outdeg"].to_numpy()
        q, r = np.divmod(pr, den)
        contrib = q * DAMP_NUM + (r * DAMP_NUM) // den
        dst = edges_t["dst"].to_numpy()
        o = np.argsort(dst, kind="stable")
        d, c = dst[o], contrib[o]
        starts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]]) if len(d) else d
        sums = np.add.reduceat(c, starts) if len(d) else c
        t = pa.table(
            {"node": d[starts] if len(d) else d, "partial": sums},
            schema=pa.schema([("node", pa.int64()), ("partial", pa.int64())]),
        )
        return split_by_owner(t, t["node"].to_numpy(), P)

    def sum_part(_state_t: pa.Table, *pieces):
        t = concat_parts(*pieces)
        n = t["node"].to_numpy()
        s = t["partial"].to_numpy()
        o = np.argsort(n, kind="stable")
        n, s = n[o], s[o]
        starts = np.flatnonzero(np.r_[True, n[1:] != n[:-1]]) if len(n) else n
        sums = np.add.reduceat(s, starts) if len(n) else s
        out = pa.table(
            {
                "node": (n[starts] if len(n) else n).astype(np.int64),
                "pr": (BASE + sums).astype(np.int64),
            },
            schema=_RANK_SCHEMA,
        )
        return out, 0  # power iteration runs a fixed round count

    seed_r = ray.remote(seed_part)
    rank_parts = [seed_r.remote(edge_parts[p]) for p in range(P)]
    rank_parts, _ = run_rounds(
        edge_parts, rank_parts, contribute_part, sum_part,
        iterations=iterations,
    )

    ranks = rd.from_arrow_refs(rank_parts)

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"node": batch["node"], "pr": batch["pr"]}, schema=_RANK_SCHEMA
        )

    return ranks.map_batches(finalize, batch_format="pyarrow")


def supplier_part_edges(sf_dir: str):
    """Symmetrized supplier<->part incidence edges from lineitem
    (node = 2*suppkey for suppliers, 2*partkey+1 for parts) — the shared
    relational stand-in for a KG's entity graph."""
    from ..pipelines.relational import _read

    li = _read(sf_dir, "lineitem", ["l_suppkey", "l_partkey"])

    def to_edges(batch: pa.Table) -> pa.Table:
        supp = batch["l_suppkey"].to_numpy().astype(np.int64) * 2
        part = batch["l_partkey"].to_numpy().astype(np.int64) * 2 + 1
        return pa.table(
            {
                "src": np.concatenate([supp, part]),
                "dst": np.concatenate([part, supp]),
            },
            schema=pa.schema([("src", pa.int64()), ("dst", pa.int64())]),
        )

    return li.map_batches(to_edges, batch_format="pyarrow")


def supplier_part_pagerank(sf_dir: str, iterations: int = 3):
    """Integer fixed-point PageRank over the symmetrized supplier<->part
    incidence graph — the relational stand-in for ranking a KG's entity
    graph: iterative labels-as-a-Dataset compute reusing the pinned-round
    machinery of the clustering stage."""
    return pagerank_ds(supplier_part_edges(sf_dir), iterations=iterations)


def supplier_part_degree_stats(sf_dir: str):
    """Degree distribution (degree, n_nodes) of the symmetrized
    supplier<->part graph — two bounded exchanges, histogram keyed by
    degree (tiny cardinality)."""
    return degree_histogram(supplier_part_edges(sf_dir))


def sql_supplier_part_degree_stats() -> str:
    return (
        "WITH e0 AS (SELECT DISTINCT CAST(l_suppkey AS BIGINT)*2 AS src, "
        "CAST(l_partkey AS BIGINT)*2+1 AS dst FROM lineitem), "
        "edges AS (SELECT src, dst FROM e0 UNION ALL SELECT dst, src FROM e0), "
        "deg AS (SELECT src, CAST(count(*) AS BIGINT) AS degree "
        "FROM edges GROUP BY src) "
        "SELECT degree, CAST(count(*) AS BIGINT) AS n_nodes "
        "FROM deg GROUP BY degree"
    )


def sql_supplier_part_pagerank(iterations: int = 3) -> str:
    """DuckDB oracle: the same integer fixed-point power iteration, one CTE
    level per round (aggregation is illegal in a recursive term, so the
    fixed iteration count unrolls statically)."""
    prev = "r0"
    lines = [
        "WITH e0 AS (SELECT DISTINCT CAST(l_suppkey AS BIGINT)*2 AS src, "
        "CAST(l_partkey AS BIGINT)*2+1 AS dst FROM lineitem), "
        "edges AS (SELECT src, dst FROM e0 UNION ALL SELECT dst, src FROM e0), "
        "deg AS (SELECT src, CAST(count(*) AS BIGINT) AS outdeg "
        "FROM edges GROUP BY src), "
        "nodes AS (SELECT DISTINCT src AS node FROM edges), "
        f"r0 AS (SELECT node, CAST({R0} AS BIGINT) AS pr FROM nodes)",
    ]
    for i in range(1, iterations + 1):
        lines.append(
            f", r{i} AS (SELECT e.dst AS node, "
            f"CAST({BASE} + sum((p.pr * {DAMP_NUM}) // ({DAMP_DEN} * d.outdeg)) "
            "AS BIGINT) AS pr "
            f"FROM edges e JOIN {prev} p ON p.node = e.src "
            "JOIN deg d ON d.src = e.src GROUP BY e.dst)"
        )
        prev = f"r{i}"
    lines.append(
        f" SELECT CAST(node AS BIGINT) AS node, CAST(pr AS BIGINT) AS pr "
        f"FROM {prev}"
    )
    return "".join(lines)


def degree_histogram(edges_ds):
    """edges (src:int64, dst:int64) -> the graph's degree distribution
    (degree, n_nodes) — the first diagnostic anyone runs on an extracted
    KG (hub detection, power-law sanity; reference consumes its adjacency
    the same way, ``src/graph/builder.py`` semantics).

    Two bounded exchanges, no per-node Python:

    1. distinct-neighbor counting: per-batch (src, dst) drop_duplicates
       pre-combine, then ONE partition-only exchange on src whose kernel
       finishes the dedup AND emits (degree, 1) rows in the same pass —
       degree must be computed INSIDE the partition kernel (a downstream
       map_batches could see a partition's output split across block
       boundaries and undercount);
    2. histogram: (degree, n_nodes) partials -> combiner exchange keyed by
       degree (degree cardinality is tiny relative to nodes, so this
       exchange is near-constant).
    """
    import pandas as pd

    from .exchange import hash_partitioned_agg, hash_partitioned_apply

    def pre_dedup(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.drop_duplicates(subset=["src", "dst"])[["src", "dst"]]

    partial = edges_ds.map_batches(pre_dedup, batch_format="pandas")

    def degree_kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.drop_duplicates(subset=["src", "dst"]).groupby(
            "src", sort=False
        ).size()
        return pd.DataFrame(
            {"degree": g.to_numpy().astype("int64"),
             "n_nodes": np.ones(len(g), dtype="int64")}
        )

    deg = hash_partitioned_apply(partial, ["src"], degree_kernel)

    def hist_combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby("degree", sort=False, as_index=False).agg(
            n_nodes=("n_nodes", "sum")
        )

    return hash_partitioned_agg(deg, ["degree"], hist_combine)


# ---------------------------------------------------------------------------
# Round-exact connected-component labels (shared Pregel, third consumer)
# ---------------------------------------------------------------------------

CC_ROUNDS = 6
_CC_SCHEMA = pa.schema([("node", pa.int64()), ("label", pa.int64())])


def cc_rounds_ds(edges_ds, rounds: int = CC_ROUNDS):
    """edges (src,dst; symmetric) -> (node, label) after EXACTLY ``rounds``
    synchronous min-label propagation rounds from label(n) = n.

    The contract is round-exact (not converged-CC): the label set after a
    fixed round count is a deterministic function of the graph, so the
    DuckDB oracle (one unrolled CTE level per round) reproduces it
    bit-exactly — and it EQUALS the true component min-id wherever the
    component diameter is <= rounds.  This is deliberately the plain
    synchronous recurrence (no pointer doubling — doubling's extra edges
    depend on intermediate state and would put the oracle out of reach);
    the converging variant with doubling is
    ``kgx.stages.cluster.label_propagation_ds``.

    Third consumer of the shared partitioned-edge Pregel: the edge set
    pins once, each round moves only label rows, duplicate edges are
    harmless under the min-merge (so no dedup pass is spent)."""
    import ray
    import ray.data as rd

    from .pregel import (
        concat_parts,
        partition_edges,
        run_rounds,
        split_by_owner,
    )

    edge_parts = partition_edges(edges_ds, edge_keys, "node")
    P = len(edge_parts)

    def _min_per_node(n: np.ndarray, l: np.ndarray):
        o = np.lexsort((l, n))
        n, l = n[o], l[o]
        starts = np.flatnonzero(np.r_[True, n[1:] != n[:-1]]) if len(n) else n
        return (n[starts] if len(n) else n), (l[starts] if len(n) else l)

    def seed_part(t: pa.Table) -> pa.Table:
        nodes = np.unique(t["node"].to_numpy())
        return pa.table(
            {"node": nodes.astype(np.int64), "label": nodes.astype(np.int64)},
            schema=_CC_SCHEMA,
        )

    def message_part(edges_t: pa.Table, labels_t: pa.Table):
        src = edges_t["node"].to_numpy()
        rn = labels_t["node"].to_numpy()
        rl = labels_t["label"].to_numpy()
        order = np.argsort(rn)
        lab = rl[order][np.searchsorted(rn[order], src)]
        tgt, msg = _min_per_node(edges_t["other"].to_numpy(), lab)
        t = pa.table(
            {"node": tgt.astype(np.int64), "label": msg.astype(np.int64)},
            schema=_CC_SCHEMA,
        )
        return split_by_owner(t, t["node"].to_numpy(), P)

    def merge_part(labels_t: pa.Table, *msg_pieces):
        inc = concat_parts(*msg_pieces) if msg_pieces else None
        n = labels_t["node"].to_numpy()
        l = labels_t["label"].to_numpy()
        if inc is not None and inc.num_rows:
            mn = inc["node"].to_numpy()
            ml = inc["label"].to_numpy()
            order = np.argsort(n)
            ns, ls = n[order], l[order].copy()
            np.minimum.at(ls, np.searchsorted(ns, mn), ml)
            n, l = ns, ls
        out = pa.table(
            {"node": n.astype(np.int64), "label": l.astype(np.int64)},
            schema=_CC_SCHEMA,
        )
        return out, 0

    seed_r = ray.remote(seed_part)
    label_parts = [seed_r.remote(edge_parts[p]) for p in range(P)]
    label_parts, _ = run_rounds(
        edge_parts, label_parts, message_part, merge_part,
        iterations=rounds,
    )
    return rd.from_arrow_refs(list(label_parts))


def supplier_part_cc(sf_dir: str, rounds: int = CC_ROUNDS):
    """Round-exact CC labels (``rounds`` synchronous min-label rounds) over
    the symmetrized supplier<->part graph — a consumer of the shared
    partitioned-edge Pregel; the oracle is the unrolled-CTE recurrence."""
    return cc_rounds_ds(supplier_part_edges(sf_dir), rounds=rounds)


def sql_supplier_part_cc(rounds: int = CC_ROUNDS) -> str:
    """Unrolled min-propagation: one CTE level per round (the pagerank
    oracle precedent)."""
    lines = [
        "WITH e0 AS (SELECT DISTINCT CAST(l_suppkey AS BIGINT)*2 AS src, "
        "CAST(l_partkey AS BIGINT)*2+1 AS dst FROM lineitem), "
        "edges AS (SELECT src, dst FROM e0 UNION ALL SELECT dst, src FROM e0), "
        "l0 AS (SELECT DISTINCT src AS node, src AS lab FROM edges)",
    ]
    prev = "l0"
    for i in range(1, rounds + 1):
        lines.append(
            f", l{i} AS (SELECT l.node, least(l.lab, min(p.lab)) AS lab "
            f"FROM {prev} l JOIN edges e ON e.src = l.node "
            f"JOIN {prev} p ON p.node = e.dst GROUP BY l.node, l.lab)"
        )
        prev = f"l{i}"
    lines.append(
        f" SELECT CAST(node AS BIGINT) AS node, CAST(lab AS BIGINT) AS label "
        f"FROM {prev}"
    )
    return "".join(lines)


# ---------------------------------------------------------------------------
# Round-exact k-core peeling (shared Pregel, fourth consumer)
# ---------------------------------------------------------------------------

KCORE_K = 4
KCORE_ROUNDS = 4
_KC_SCHEMA = pa.schema([("node", pa.int64()), ("alive", pa.int64())])
_KC_MSG = pa.schema([("node", pa.int64()), ("cnt", pa.int64())])
_KC_OUT = pa.schema([("node", pa.int64()), ("core_deg", pa.int64())])


def kcore_rounds_ds(edges_ds, k: int = KCORE_K, rounds: int = KCORE_ROUNDS):
    """edges (src, dst; symmetric) -> surviving (node, core_deg) after
    EXACTLY ``rounds`` synchronous k-core peeling rounds: each round every
    node counts its still-alive neighbors and dies when the count is below
    ``k``; ``core_deg`` is the within-survivor degree after the final
    round.

    The contract is round-exact (the cc_rounds_ds precedent): a fixed
    round count makes the survivor set a deterministic function of the
    graph, so the DuckDB oracle (one HAVING-count CTE level per round)
    reproduces it bit-exactly — and it EQUALS the true k-core wherever
    peeling converges within ``rounds``.

    Fourth consumer of the shared partitioned-edge Pregel.  Unlike CC's
    min-merge (idempotent, so duplicate edges are free), peeling COUNTS
    edges — each pinned edge partition therefore dedups its (node, other)
    rows ONCE at build time; per round only alive-flag rows and per-node
    count messages move."""
    import ray
    import ray.data as rd

    from .pregel import (
        concat_parts,
        partition_edges,
        run_rounds,
        split_by_owner,
    )

    def dedup_part(t: pa.Table) -> pa.Table:
        n = t["node"].to_numpy()
        o = t["other"].to_numpy()
        order = np.lexsort((o, n))
        ns, os_ = n[order], o[order]
        keep = np.r_[True, (ns[1:] != ns[:-1]) | (os_[1:] != os_[:-1])] \
            if len(ns) else np.zeros(0, dtype=bool)
        return pa.table(
            {"node": ns[keep].astype(np.int64),
             "other": os_[keep].astype(np.int64)},
            schema=EDGE_KEYS,
        )

    raw_parts = partition_edges(edges_ds, edge_keys, "node")
    P = len(raw_parts)
    dedup_r = ray.remote(dedup_part)
    edge_parts = [dedup_r.remote(p) for p in raw_parts]

    def seed_part(t: pa.Table) -> pa.Table:
        nodes = np.unique(t["node"].to_numpy())
        return pa.table(
            {"node": nodes.astype(np.int64),
             "alive": np.ones(len(nodes), dtype=np.int64)},
            schema=_KC_SCHEMA,
        )

    def message_part(edges_t: pa.Table, state_t: pa.Table):
        """For every edge (v, u) with alive(v): +1 toward deg(u) — the
        symmetric edge set makes per-target sums the alive-neighbor count."""
        src = edges_t["node"].to_numpy()
        sn = state_t["node"].to_numpy()
        sa = state_t["alive"].to_numpy()
        order = np.argsort(sn)
        alive_src = sa[order][np.searchsorted(sn[order], src)] == 1
        tgt = edges_t["other"].to_numpy()[alive_src]
        u, c = (np.unique(tgt, return_counts=True) if len(tgt)
                else (np.zeros(0, np.int64), np.zeros(0, np.int64)))
        t = pa.table(
            {"node": u.astype(np.int64), "cnt": c.astype(np.int64)},
            schema=_KC_MSG,
        )
        return split_by_owner(t, t["node"].to_numpy(), P)

    def _counts_for(state_t: pa.Table, pieces) -> np.ndarray:
        inc = concat_parts(*pieces) if pieces else None
        n = state_t["node"].to_numpy()
        cnt = np.zeros(len(n), dtype=np.int64)
        if inc is not None and inc.num_rows:
            order = np.argsort(n)
            pos = order[np.searchsorted(n[order], inc["node"].to_numpy())]
            np.add.at(cnt, pos, inc["cnt"].to_numpy())
        return cnt

    def merge_part(state_t: pa.Table, *msg_pieces):
        cnt = _counts_for(state_t, msg_pieces)
        alive = state_t["alive"].to_numpy()
        new_alive = ((alive == 1) & (cnt >= k)).astype(np.int64)
        out = pa.table(
            {"node": state_t["node"], "alive": pa.array(new_alive)},
            schema=_KC_SCHEMA,
        )
        return out, 0

    seed_r = ray.remote(seed_part)
    state_parts = [seed_r.remote(edge_parts[p]) for p in range(P)]
    state_parts, _ = run_rounds(
        edge_parts, state_parts, message_part, merge_part,
        iterations=rounds,
    )

    # final within-core degrees: one more message pass over the FINAL alive
    # set, merged per partition into (node, core_deg) survivor rows
    msg_r = ray.remote(num_returns=P)(message_part)
    pieces = [msg_r.remote(edge_parts[p], state_parts[p]) for p in range(P)]

    def final_part(state_t: pa.Table, *msg_pieces) -> pa.Table:
        cnt = _counts_for(state_t, msg_pieces)
        alive = state_t["alive"].to_numpy() == 1
        return pa.table(
            {"node": state_t["node"].to_numpy()[alive].astype(np.int64),
             "core_deg": cnt[alive].astype(np.int64)},
            schema=_KC_OUT,
        )

    final_r = ray.remote(final_part)
    out_parts = [
        final_r.remote(state_parts[q], *[pieces[p][q] for p in range(P)])
        for q in range(P)
    ]
    return rd.from_arrow_refs(list(out_parts))


def supplier_part_kcore(sf_dir: str, k: int = KCORE_K,
                        rounds: int = KCORE_ROUNDS):
    """Round-exact k-core survivors (``rounds`` synchronous peeling rounds)
    of the symmetrized supplier<->part graph — a consumer of the shared
    partitioned-edge Pregel; the oracle is the unrolled HAVING-count
    recurrence."""
    return kcore_rounds_ds(supplier_part_edges(sf_dir), k=k, rounds=rounds)


def sql_supplier_part_kcore(k: int = KCORE_K,
                            rounds: int = KCORE_ROUNDS) -> str:
    """Unrolled peeling: one HAVING-count CTE level per round, then the
    within-survivor degree of the final set."""
    lines = [
        "WITH e0 AS (SELECT DISTINCT CAST(l_suppkey AS BIGINT)*2 AS src, "
        "CAST(l_partkey AS BIGINT)*2+1 AS dst FROM lineitem), "
        "edges AS (SELECT src, dst FROM e0 UNION ALL SELECT dst, src FROM e0), "
        "a0 AS (SELECT DISTINCT src AS node FROM edges)",
    ]
    prev = "a0"
    for i in range(1, rounds + 1):
        lines.append(
            f", a{i} AS (SELECT e.src AS node FROM edges e "
            f"JOIN {prev} s ON s.node = e.src "
            f"JOIN {prev} t ON t.node = e.dst "
            f"GROUP BY e.src HAVING count(*) >= {k})"
        )
        prev = f"a{i}"
    lines.append(
        # LEFT JOINs so a survivor whose neighbors all died in the final
        # round still appears with core_deg = 0 (the Ray side emits it)
        f" SELECT CAST(s.node AS BIGINT) AS node, "
        f"CAST(count(t.node) AS BIGINT) AS core_deg "
        f"FROM {prev} s LEFT JOIN edges e ON e.src = s.node "
        f"LEFT JOIN {prev} t ON t.node = e.dst GROUP BY s.node"
    )
    return "".join(lines)


# ---------------------------------------------------------------------------
# Round-exact multi-source BFS distances (shared Pregel, fifth consumer)
# ---------------------------------------------------------------------------

BFS_ROUNDS = 4
BFS_SRC_MOD = 7          # sources: supplier nodes with suppkey % MOD == REM
BFS_SRC_REM = 1
_BFS_INF = np.int64(1) << np.int64(40)   # > any reachable distance
_BFS_SCHEMA = pa.schema([("node", pa.int64()), ("dist", pa.int64())])


def bfs_rounds_ds(edges_ds, rounds: int = BFS_ROUNDS):
    """edges (src, dst; symmetric) -> (node, dist) for every node whose
    BFS distance from the source set is <= ``rounds`` — multi-source
    shortest hop counts (the KG 'neighborhood expansion' primitive; see
    reference extractor.py:302-353 for the analog entity-neighborhood
    walk the reference performs serially per document).

    Sources are supplier nodes with ``suppkey % BFS_SRC_MOD ==
    BFS_SRC_REM`` (node ids are 2*suppkey — the supplier_part_edges
    encoding).  The contract is round-exact Bellman-Ford: after R
    synchronous min-plus rounds every node at true distance d <= R holds
    exactly d (induction on hop count), and every farther node holds a
    value > R — so filtering ``dist <= rounds`` yields the exact
    truncated BFS ball deterministically, which keeps the unrolled-CTE
    DuckDB oracle bit-exact (the cc_rounds_ds precedent).

    Fifth consumer of the shared partitioned-edge Pregel: edges pin once,
    each round moves only (node, dist) rows, duplicate edges are harmless
    under the min-merge (no dedup pass spent)."""
    import ray
    import ray.data as rd

    from .pregel import (
        concat_parts,
        partition_edges,
        run_rounds,
        split_by_owner,
    )

    edge_parts = partition_edges(edges_ds, edge_keys, "node")
    P = len(edge_parts)

    def _min_per_node(n: np.ndarray, d: np.ndarray):
        o = np.lexsort((d, n))
        n, d = n[o], d[o]
        starts = np.flatnonzero(np.r_[True, n[1:] != n[:-1]]) if len(n) else n
        return (n[starts] if len(n) else n), (d[starts] if len(n) else d)

    def seed_part(t: pa.Table) -> pa.Table:
        nodes = np.unique(t["node"].to_numpy())
        is_src = (nodes % 2 == 0) & ((nodes // 2) % BFS_SRC_MOD == BFS_SRC_REM)
        dist = np.where(is_src, np.int64(0), _BFS_INF)
        return pa.table(
            {"node": nodes.astype(np.int64), "dist": dist.astype(np.int64)},
            schema=_BFS_SCHEMA,
        )

    def message_part(edges_t: pa.Table, state_t: pa.Table):
        src = edges_t["node"].to_numpy()
        sn = state_t["node"].to_numpy()
        sd = state_t["dist"].to_numpy()
        order = np.argsort(sn)
        d = sd[order][np.searchsorted(sn[order], src)] + 1
        tgt, msg = _min_per_node(edges_t["other"].to_numpy(), d)
        t = pa.table(
            {"node": tgt.astype(np.int64), "dist": msg.astype(np.int64)},
            schema=_BFS_SCHEMA,
        )
        return split_by_owner(t, t["node"].to_numpy(), P)

    def merge_part(state_t: pa.Table, *msg_pieces):
        inc = concat_parts(*msg_pieces) if msg_pieces else None
        n = state_t["node"].to_numpy()
        d = state_t["dist"].to_numpy()
        if inc is not None and inc.num_rows:
            mn = inc["node"].to_numpy()
            md = inc["dist"].to_numpy()
            order = np.argsort(n)
            ns, ds = n[order], d[order].copy()
            np.minimum.at(ds, np.searchsorted(ns, mn), md)
            n, d = ns, ds
        out = pa.table(
            {"node": n.astype(np.int64), "dist": d.astype(np.int64)},
            schema=_BFS_SCHEMA,
        )
        return out, 0

    seed_r = ray.remote(seed_part)
    state_parts = [seed_r.remote(edge_parts[p]) for p in range(P)]
    state_parts, _ = run_rounds(
        edge_parts, state_parts, message_part, merge_part,
        iterations=rounds,
    )

    def finalize(t: pa.Table) -> pa.Table:
        d = t["dist"].to_numpy()
        return t.filter(pa.array(d <= rounds))

    return rd.from_arrow_refs(list(state_parts)).map_batches(
        finalize, batch_format="pyarrow"
    )


def supplier_part_bfs(sf_dir: str, rounds: int = BFS_ROUNDS):
    """Truncated multi-source BFS ball (``rounds`` min-plus rounds from the
    suppkey % 7 == 1 source set) over the supplier<->part graph — a
    consumer of the shared partitioned-edge Pregel; round-exact
    Bellman-Ford keeps the unrolled-CTE oracle bit-exact."""
    return bfs_rounds_ds(supplier_part_edges(sf_dir), rounds=rounds)


def sql_supplier_part_bfs(rounds: int = BFS_ROUNDS) -> str:
    """Unrolled min-plus propagation: one CTE level per round (the
    cc_rounds_ds oracle shape), sources seeded at 0, sentinel elsewhere."""
    inf = int(_BFS_INF)
    lines = [
        "WITH e0 AS (SELECT DISTINCT CAST(l_suppkey AS BIGINT)*2 AS src, "
        "CAST(l_partkey AS BIGINT)*2+1 AS dst FROM lineitem), "
        "edges AS (SELECT src, dst FROM e0 UNION ALL SELECT dst, src FROM e0), "
        "d0 AS (SELECT DISTINCT src AS node, "
        f"CASE WHEN src % 2 = 0 AND (src // 2) % {BFS_SRC_MOD} = "
        f"{BFS_SRC_REM} THEN 0 ELSE {inf} END AS dist FROM edges)",
    ]
    prev = "d0"
    for i in range(1, rounds + 1):
        lines.append(
            f", d{i} AS (SELECT l.node, least(l.dist, min(p.dist) + 1) "
            f"AS dist FROM {prev} l JOIN edges e ON e.src = l.node "
            f"JOIN {prev} p ON p.node = e.dst GROUP BY l.node, l.dist)"
        )
        prev = f"d{i}"
    lines.append(
        f" SELECT CAST(node AS BIGINT) AS node, CAST(dist AS BIGINT) AS dist "
        f"FROM {prev} WHERE dist <= {rounds}"
    )
    return "".join(lines)


# ---------------------------------------------------------------------------
# Degree assortativity moments (r5): exact integer degree-mixing sums over
# the symmetrized edge list — the "do hubs link to hubs?" diagnostic.
# ---------------------------------------------------------------------------

def assortativity_moments(edges_ds):
    """edges (src, dst; symmetric) -> ONE row of exact integer moments of
    (deg(src), deg(dst)) over the distinct directed edge list:
    (n_edges, sum_ds, sum_dd, sum_dsdd, sum_ds2, sum_dd2).  Pearson
    degree assortativity is a driver-side scalar from these six numbers;
    keeping the OUTPUT in integer moment space keeps the oracle
    bit-exact (int64-safe while m * dmax^2 < 2^63 — fine to ~30k-degree
    hubs at 10^10 edges; beyond that the moments need a wider type).

    Scale shape: distinct edges pin once (combiner-pre-deduped exchange);
    degrees come from the same partition kernel as degree_histogram;
    both endpoints' degrees attach through ``lookup_join``; per-batch
    moment partials (one row each) fold into the single output row on the
    driver."""
    import pandas as pd

    from .exchange import (finish, hash_partitioned_agg,
                           hash_partitioned_apply, lookup_join)

    def pre_dedup(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.drop_duplicates(subset=["src", "dst"])[["src", "dst"]]

    edges = hash_partitioned_apply(
        edges_ds.map_batches(pre_dedup, batch_format="pandas"),
        ["src", "dst"], pre_dedup
    ).materialize()

    def node_deg(df: "pd.DataFrame") -> "pd.DataFrame":
        return pd.DataFrame(
            {"node": df["src"].to_numpy().astype(np.int64),
             "cnt": np.ones(len(df), dtype=np.int64)}
        )

    def deg_combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby("node", sort=False, as_index=False).agg(
            cnt=("cnt", "sum")
        )

    deg = hash_partitioned_agg(
        edges.map_batches(node_deg, batch_format="pandas"),
        ["node"], deg_combine,
    ).materialize()

    MOMENTS = ["n_edges", "sum_ds", "sum_dd", "sum_dsdd", "sum_ds2",
               "sum_dd2"]

    def moments(t: pa.Table) -> "pd.DataFrame":
        ds_ = t["ds"].to_numpy().astype(np.int64)
        dd_ = t["dd"].to_numpy().astype(np.int64)
        return pd.DataFrame(
            {"n_edges": [np.int64(len(ds_))],
             "sum_ds": [ds_.sum()], "sum_dd": [dd_.sum()],
             "sum_dsdd": [(ds_ * dd_).sum()],
             "sum_ds2": [(ds_ * ds_).sum()],
             "sum_dd2": [(dd_ * dd_).sum()]}
        ).astype("int64")

    def deg_as(col):
        return deg.map_batches(lambda df: df.rename(columns={"cnt": col}),
                               batch_format="pandas")

    partials = lookup_join(
        lookup_join(edges, "src", deg_as("ds"), "node", ["ds"]),
        "dst", deg_as("dd"), "node", ["dd"], then=moments)

    def total(df: "pd.DataFrame") -> "pd.DataFrame":
        return pd.DataFrame({c: [np.int64(df[c].sum())] for c in MOMENTS})

    return finish(partials, total,
                  schema=pa.schema([(c, pa.int64()) for c in MOMENTS]))


def sql_assortativity() -> str:
    return """
WITH e0 AS (
  SELECT DISTINCT CAST(l_suppkey AS BIGINT)*2 AS src,
         CAST(l_partkey AS BIGINT)*2+1 AS dst FROM lineitem
), edges AS (
  SELECT src, dst FROM e0 UNION ALL SELECT dst, src FROM e0
), deg AS (
  SELECT src AS node, CAST(count(*) AS BIGINT) AS d FROM edges GROUP BY src
), j AS (
  SELECT da.d AS ds, db.d AS dd
  FROM edges JOIN deg da ON da.node = edges.src
             JOIN deg db ON db.node = edges.dst
)
SELECT CAST(count(*) AS BIGINT) AS n_edges,
       CAST(sum(ds) AS BIGINT) AS sum_ds,
       CAST(sum(dd) AS BIGINT) AS sum_dd,
       CAST(sum(ds * dd) AS BIGINT) AS sum_dsdd,
       CAST(sum(ds * ds) AS BIGINT) AS sum_ds2,
       CAST(sum(dd * dd) AS BIGINT) AS sum_dd2
FROM j
"""


# ---------------------------------------------------------------------------
# Deterministic k-neighbor sampling (r5): the GNN mini-batch prep step —
# every node keeps its K lowest-hash-ranked distinct neighbors.
# ---------------------------------------------------------------------------

NBR_SAMPLE_K = 8


def neighbor_sample(edges_ds, k: int = NBR_SAMPLE_K):
    """edges (src, dst; symmetric) -> (node, neighbor, rank): each node's
    K lowest-ranked distinct neighbors under the deterministic
    wraparound-multiply hash of the (node, neighbor) pair — the
    GraphSAGE-style neighbor sampler, reproducible across runs and
    cluster sizes and stable under graph growth (a node's sample only
    changes where new neighbors hash below its current ones).

    Pair key packs (node << 32) | neighbor before the multiplicative
    hash — exact while ids < 2^32 (already assumed by the even/odd node
    encoding); the SQL oracle mirrors it in HUGEINT.  Scale shape: per-
    batch (src, dst) pre-dedup combiner, ONE node-keyed partition
    exchange, per-partition lexsort + cumcount — no global sort, and
    only edge rows (never adjacency lists) cross the wire."""
    import pandas as pd

    from ..stages.corpus import SAMPLE_ADD, SAMPLE_MUL
    from .exchange import hash_partitioned_apply

    def pre_dedup(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.drop_duplicates(subset=["src", "dst"])[["src", "dst"]]

    def kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.drop_duplicates(subset=["src", "dst"])
        src = df["src"].to_numpy().astype(np.int64)
        dst = df["dst"].to_numpy().astype(np.int64)
        with np.errstate(over="ignore"):
            pair = (src.astype(np.uint64) << np.uint64(32)) | dst.astype(
                np.uint64
            )
            h = pair * np.uint64(SAMPLE_MUL) + np.uint64(SAMPLE_ADD)
        key = (h % np.uint64(1 << 62)).astype(np.int64)
        d2 = pd.DataFrame({"node": src, "neighbor": dst, "key": key})
        d2 = d2.sort_values(["node", "key", "neighbor"], kind="stable")
        d2["rank"] = d2.groupby("node", sort=False).cumcount().astype("int64")
        return d2[d2["rank"] < k][["node", "neighbor", "rank"]]

    partial = edges_ds.map_batches(pre_dedup, batch_format="pandas")
    return hash_partitioned_apply(partial, ["src"], kernel)


def sql_neighbor_sample(k: int = NBR_SAMPLE_K) -> str:
    from ..stages.corpus import SAMPLE_ADD, SAMPLE_MUL

    two64 = 1 << 64
    pair = "(CAST(src AS HUGEINT) * 4294967296 + dst)"
    h = f"(({pair} * {SAMPLE_MUL} + {SAMPLE_ADD}) % {two64})"
    return f"""
WITH e0 AS (
  SELECT DISTINCT CAST(l_suppkey AS BIGINT)*2 AS src,
         CAST(l_partkey AS BIGINT)*2+1 AS dst FROM lineitem
), edges AS (
  SELECT src, dst FROM e0 UNION ALL SELECT dst, src FROM e0
), keyed AS (
  SELECT src, dst, CAST({h} % {1 << 62} AS BIGINT) AS key FROM edges
), r AS (
  SELECT src, dst,
         row_number() OVER (PARTITION BY src ORDER BY key, dst) - 1 AS rank
  FROM keyed
)
SELECT CAST(src AS BIGINT) AS node, CAST(dst AS BIGINT) AS neighbor,
       CAST(rank AS BIGINT) AS rank
FROM r WHERE rank < {k}
"""


def cc_size_histogram(edges_ds, rounds: int = CC_ROUNDS):
    """(size, n_components): the component-size distribution over the
    round-exact CC labels — the standard near-dup-cluster / graph-health
    diagnostic (how many singleton-ish islands vs giant components).

    Composes cc_rounds_ds (shared partitioned-edge Pregel) with two
    bounded combiner exchanges: label-keyed member counts (one row per
    (batch, label)), then a size-keyed histogram fold (cardinality =
    distinct sizes).  Node rows move once; sizes are tiny."""
    import pandas as pd

    from .exchange import hash_partitioned_agg

    labels = cc_rounds_ds(edges_ds, rounds=rounds)

    def label_partial(t: pa.Table) -> "pd.DataFrame":
        lab = t["label"].to_numpy()
        ul, cnt = np.unique(lab, return_counts=True)
        return pd.DataFrame({"label": ul.astype(np.int64),
                             "n": cnt.astype(np.int64)})

    def label_combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby("label", sort=False, as_index=False).agg(
            n=("n", "sum"))

    sizes = hash_partitioned_agg(
        labels.map_batches(label_partial, batch_format="pyarrow"),
        ["label"], label_combine)

    def size_partial(df: "pd.DataFrame") -> "pd.DataFrame":
        us, cnt = np.unique(df["n"].to_numpy(), return_counts=True)
        return pd.DataFrame({"size": us.astype(np.int64),
                             "n_components": cnt.astype(np.int64)})

    def size_combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby("size", sort=False, as_index=False).agg(
            n_components=("n_components", "sum"))

    # size_partial folds a merged label partition to distinct sizes; the
    # second exchange then sums across partitions
    tagged = sizes.map_batches(size_partial, batch_format="pandas")
    return hash_partitioned_agg(tagged, ["size"], size_combine)


def sql_cc_size_histogram(rounds: int = CC_ROUNDS) -> str:
    base = sql_supplier_part_cc(rounds)
    return f"""
WITH cc AS ({base}),
s AS (SELECT label, CAST(count(*) AS BIGINT) AS size FROM cc GROUP BY 1)
SELECT CAST(size AS BIGINT) AS size,
       CAST(count(*) AS BIGINT) AS n_components
FROM s GROUP BY 1
"""
