"""Round-5 batch-3 operators: truncated multi-source BFS, exact-proportion
stratified train/val/test split, embedding outlier flags, cross-source
contamination matrix — serial-parity +
edge-case tests."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _collect(ds) -> pd.DataFrame:
    import ray.data

    if isinstance(ds, ray.data.Dataset):
        return ds.to_pandas()
    return ds


# ---------------------------------------------------------------------------
# truncated multi-source BFS
# ---------------------------------------------------------------------------


def _is_source(node: int) -> bool:
    from kgx.stages.graph import BFS_SRC_MOD, BFS_SRC_REM

    return node % 2 == 0 and (node // 2) % BFS_SRC_MOD == BFS_SRC_REM


def _serial_bfs(edges: set[tuple[int, int]], rounds: int) -> dict[int, int]:
    adj: dict[int, set[int]] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    dist = {n: 0 for n in adj if _is_source(n)}
    frontier = set(dist)
    for d in range(1, rounds + 1):
        nxt = set()
        for n in frontier:
            for m in adj[n]:
                if m not in dist:
                    dist[m] = d
                    nxt.add(m)
        frontier = nxt
    return dist


def _edge_table(edges, dup: int = 0) -> pa.Table:
    sym = list(edges) + [(b, a) for a, b in edges]
    sym = sym + sym[:dup]  # duplicate rows: min-merge must not care
    return pa.table(
        {"src": pa.array([a for a, _ in sym], pa.int64()),
         "dst": pa.array([b for _, b in sym], pa.int64())}
    )


def test_bfs_matches_serial_chain_and_unreached(ray_session):
    import ray.data as rd

    from kgx.stages.graph import bfs_rounds_ds

    # node 2 (= 2*1, 1 % 7 == 1) is a source; the chain extends to depth 6
    # so rounds=4 must truncate; odd nodes 101..107 form a sourceless
    # island (odd ids can never satisfy the even-node source predicate).
    chain = [2, 4, 5, 6, 8, 10, 12]
    edges = {(chain[i], chain[i + 1]) for i in range(len(chain) - 1)}
    edges |= {(101, 103), (103, 105), (105, 107)}
    for rounds in (1, 2, 4):
        got = _collect(bfs_rounds_ds(
            rd.from_arrow(_edge_table(edges, dup=5)).repartition(5),
            rounds=rounds,
        ))
        want = {n: d for n, d in _serial_bfs(edges, rounds).items()
                if d <= rounds}
        assert {r.node: r.dist for r in got.itertuples()} == want, rounds
    # sanity: the island never appears
    got = _collect(bfs_rounds_ds(rd.from_arrow(_edge_table(edges)), rounds=4))
    assert not (set(got["node"]) & {101, 103, 105, 107})


def test_bfs_multi_source_takes_min(ray_session):
    import ray.data as rd

    from kgx.stages.graph import bfs_rounds_ds

    # sources 2 (=2*1) and 16 (=2*8): node 9 sits 1 hop from 16 and
    # 3 hops from 2 — the min (1) must win.
    edges = {(2, 3), (3, 5), (5, 9), (9, 16), (16, 20)}
    got = _collect(bfs_rounds_ds(rd.from_arrow(_edge_table(edges)), rounds=4))
    m = {r.node: r.dist for r in got.itertuples()}
    assert m[2] == 0 and m[16] == 0
    assert m[9] == 1 and m[20] == 1
    assert m[5] == 2 and m[3] == 1


def test_bfs_oracle_shape_matches_ray(ray_session):
    """The supplier<->part wiring end-to-end at sf0.001 against DuckDB
    (belt over the check_queries gate — BFS is new this round)."""
    import duckdb

    from kgx.queries import graph_bfs, oracle_sql

    got = _collect(graph_bfs("/root/testdata/sf0.001"))
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW lineitem AS SELECT * FROM "
        "'/root/testdata/sf0.001/lineitem.parquet'"
    )
    want = con.execute(oracle_sql()["graph_bfs"]).fetchdf()
    g = got.sort_values(["node"]).reset_index(drop=True)
    w = want.sort_values(["node"]).reset_index(drop=True)
    assert g["node"].tolist() == w["node"].tolist()
    assert g["dist"].tolist() == w["dist"].tolist()


# ---------------------------------------------------------------------------
# exact-proportion stratified split
# ---------------------------------------------------------------------------


def _serial_split(ids, sources, train_pct=80, val_pct=10):
    from kgx.stages.corpus import SAMPLE_ADD, SAMPLE_MUL

    ids = np.asarray(ids, dtype=np.uint64)
    with np.errstate(over="ignore"):
        key = (ids * np.uint64(SAMPLE_MUL) + np.uint64(SAMPLE_ADD)) % np.uint64(
            1 << 62
        )
    df = pd.DataFrame(
        {"doc_id": ids.astype(np.int64), "source": sources,
         "key": key.astype(np.int64)}
    ).sort_values(["source", "key", "doc_id"])
    out = {}
    for s, grp in df.groupby("source", sort=False):
        n = len(grp)
        tr = (train_pct * n + 99) // 100
        va = ((train_pct + val_pct) * n + 99) // 100
        for rk, doc in enumerate(grp["doc_id"]):
            out[int(doc)] = "train" if rk < tr else ("val" if rk < va else "test")
    return out


def test_doc_split_matches_serial_exact_proportions(ray_session):
    import ray.data as rd

    from kgx.stages.corpus import split_documents

    rng = np.random.default_rng(11)
    # stratum sizes deliberately NOT divisible by 10 (ceil edges matter)
    sizes = {"web": 23, "wiki": 17, "books": 7, "code": 1}
    ids, srcs = [], []
    base = 1000
    for s, n in sizes.items():
        pick = rng.choice(np.arange(base, base + 10 * n), size=n, replace=False)
        ids.extend(int(x) for x in pick)
        srcs.extend([s] * n)
        base += 10_000
    tbl = pa.table({"doc_id": pa.array(ids, pa.int64()), "source": srcs})
    got = _collect(split_documents(rd.from_arrow(tbl).repartition(6)))
    want = _serial_split(ids, srcs)
    assert len(got) == len(ids)
    assert {int(r.doc_id): r.split for r in got.itertuples()} == want
    # exact ceil proportions per stratum
    counts = got.groupby(["source", "split"]).size()
    for s, n in sizes.items():
        tr = (80 * n + 99) // 100
        va = (90 * n + 99) // 100
        assert counts.get((s, "train"), 0) == tr, s
        assert counts.get((s, "val"), 0) == va - tr, s
        assert counts.get((s, "test"), 0) == n - va, s


def test_doc_split_is_stable_and_pure(ray_session):
    """Same corpus twice -> identical assignment (pure function of ids)."""
    import ray.data as rd

    from kgx.stages.corpus import split_documents

    tbl = pa.table(
        {"doc_id": pa.array(range(100), pa.int64()),
         "source": ["a" if i % 3 else "b" for i in range(100)]}
    )
    a = _collect(split_documents(rd.from_arrow(tbl).repartition(3)))
    b = _collect(split_documents(rd.from_arrow(tbl).repartition(9)))
    ka = {int(r.doc_id): r.split for r in a.itertuples()}
    kb = {int(r.doc_id): r.split for r in b.itertuples()}
    assert ka == kb


def test_doc_split_empty_corpus(ray_session):
    import ray.data as rd

    from kgx.stages.corpus import split_documents

    tbl = pa.table(
        {"doc_id": pa.array([], pa.int64()), "source": pa.array([], pa.string())}
    )
    got = _collect(split_documents(rd.from_arrow(tbl)))
    assert len(got) == 0


# ---------------------------------------------------------------------------
# embedding outlier flags
# ---------------------------------------------------------------------------


def _emb_table(vecs: np.ndarray) -> pa.Table:
    n, d = vecs.shape
    return pa.table(
        {"vec_id": np.arange(n, dtype=np.int64),
         "embedding": pa.FixedSizeListArray.from_arrays(
             pa.array(vecs.ravel()), d).cast(pa.list_(pa.float32()))}
    )


def _serial_outlier_dists(vecs, k, iters):
    from kgx.stages.kmeans import KM_OFFSET, KM_SCALE

    q = np.floor(np.asarray(vecs, dtype=np.float64) * KM_SCALE + 0.5)
    q = q.astype(np.int64) + KM_OFFSET
    cents = q[:k].copy()  # first-k seeding by vec_id (ids are 0..n-1 here)
    for _ in range(iters):
        d2 = ((q[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        best = d2.argmin(axis=1)
        new = cents.copy()
        for c in range(k):
            m = best == c
            if m.any():
                new[c] = q[m].sum(axis=0) // int(m.sum())
        cents = new
    d2 = ((q[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    return d2.min(axis=1)


def test_outliers_match_serial(ray_session):
    import ray.data as rd

    from kgx.stages.kmeans import kmeans_outliers

    rng = np.random.RandomState(23)
    blobs = [rng.normal(loc, 0.05, size=(40, 6)) for loc in (-1.0, 0.0, 1.0)]
    vecs = np.stack(blobs, axis=1).reshape(-1, 6)
    # plant 4 far-away junk vectors that must flag (offset 7 keeps the
    # planted rows clear of the first-k Lloyd seeds)
    vecs[7::31] = rng.normal(8.0, 0.01, size=(len(vecs[7::31]), 6))
    vecs = vecs.astype(np.float32)
    dist = _serial_outlier_dists(vecs, 3, 2)
    thr = int(np.percentile(dist, 80))
    got = _collect(kmeans_outliers(
        rd.from_arrow(_emb_table(vecs)).repartition(5),
        k=3, iters=2, threshold=thr,
    )).sort_values("vec_id")
    want_ids = np.flatnonzero(dist > thr)
    assert got["vec_id"].tolist() == want_ids.tolist()
    assert got["dist"].tolist() == dist[want_ids].tolist()
    # the planted junk is in the flag set
    assert set(range(7, len(vecs), 31)) <= set(got["vec_id"])


def test_outliers_threshold_boundary_is_strict(ray_session):
    """dist == threshold must NOT flag (strict >, matching the SQL)."""
    import ray.data as rd

    from kgx.stages.kmeans import kmeans_outliers

    vecs = np.array(
        [[0.0, 0.0], [0.0, 0.0], [3.0, 4.0]], dtype=np.float32
    )
    dist = _serial_outlier_dists(vecs, 2, 1)
    # vec 2 keeps some distance to its nearest centroid; use it as the bound
    thr = int(dist.max())
    got = _collect(kmeans_outliers(
        rd.from_arrow(_emb_table(vecs)), k=2, iters=1, threshold=thr
    ))
    assert len(got) == 0


# ---------------------------------------------------------------------------
# cross-source contamination matrix
# ---------------------------------------------------------------------------


def _random_cross_source_input(rng, n=120, n_sources=4, n_pairs=300):
    sources = [f"s{int(x)}" for x in rng.integers(0, n_sources, size=n)]
    docs = pa.table(
        {"doc_id": pa.array(range(n), pa.int64()), "source": sources}
    )
    a = rng.integers(0, n, size=n_pairs)
    b = rng.integers(0, n, size=n_pairs)
    keep = a != b
    a, b = np.minimum(a, b)[keep], np.maximum(a, b)[keep]
    pairs = pa.table(
        {"id_a": pa.array(a.astype(np.int64)),
         "id_b": pa.array(b.astype(np.int64))}
    )
    return docs, sources, pairs, a, b


def test_cross_source_matches_brute(ray_session, each_route):
    import ray.data as rd

    from kgx.stages.corpus import cross_source_pairs

    rng = np.random.default_rng(3)
    docs, sources, pairs, a, b = _random_cross_source_input(rng)
    want: dict[tuple[str, str], int] = {}
    for x, y in zip(a, b):
        sa, sb = sources[int(x)], sources[int(y)]
        cell = (min(sa, sb), max(sa, sb))
        want[cell] = want.get(cell, 0) + 1
    for got in each_route(lambda: _collect(cross_source_pairs(
            rd.from_arrow(pairs).repartition(5),
            rd.from_arrow(docs).repartition(3)))):
        got_map = {
            (r.source_a, r.source_b): int(r.n_pairs) for r in got.itertuples()
        }
        assert got_map == want


def test_cross_source_broadcast_route_agrees(ray_session, each_route):
    """Both lookup routes return identical cells (the repo's standard
    both-paths agreement convention)."""
    import ray.data as rd

    from kgx.stages.corpus import cross_source_pairs

    rng = np.random.default_rng(17)
    docs, _, pairs, _, _ = _random_cross_source_input(rng, n=80, n_sources=3)
    key = ["source_a", "source_b"]
    bc, ex = each_route(lambda: _collect(cross_source_pairs(
        rd.from_arrow(pairs).repartition(4),
        rd.from_arrow(docs).repartition(2),
    )).sort_values(key).reset_index(drop=True))
    pd.testing.assert_frame_equal(bc, ex, check_dtype=False)


def test_cross_source_empty_pairs(ray_session, each_route):
    import ray.data as rd

    from kgx.stages.corpus import cross_source_pairs

    docs = pa.table(
        {"doc_id": pa.array(range(10), pa.int64()),
         "source": ["a"] * 10}
    )
    pairs = pa.table(
        {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}
    )
    for got in each_route(lambda: _collect(cross_source_pairs(
            rd.from_arrow(pairs), rd.from_arrow(docs)))):
        assert len(got) == 0


# ---------------------------------------------------------------------------
# split invariant properties (serial — the Ray path is covered above)
# ---------------------------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st


class TestSplitProperties:
    @given(
        st.dictionaries(
            st.sampled_from(["web", "wiki", "books", "code", "law"]),
            st.sets(st.integers(min_value=0, max_value=2**40),
                    min_size=1, max_size=60),
            min_size=1, max_size=5,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_ceil_proportions_and_purity(self, strata):
        # flatten (dedupe ids across strata: doc_ids are globally unique)
        seen: set[int] = set()
        ids, srcs = [], []
        for s, group in sorted(strata.items()):
            for i in sorted(group):
                if i not in seen:
                    seen.add(i)
                    ids.append(i)
                    srcs.append(s)
        assignment = _serial_split(ids, srcs)
        df = pd.DataFrame({"doc_id": ids, "source": srcs})
        df["split"] = [assignment[i] for i in ids]
        for s, grp in df.groupby("source"):
            n = len(grp)
            tr = (80 * n + 99) // 100
            va = (90 * n + 99) // 100
            c = grp["split"].value_counts()
            assert c.get("train", 0) == tr
            assert c.get("val", 0) == va - tr
            assert c.get("test", 0) == n - va
        # purity: assignment depends only on (doc_id, own stratum
        # membership) given the stratum's id set — recompute == identical
        assert _serial_split(ids, srcs) == assignment


# ---------------------------------------------------------------------------
# token-budget mixture sampling
# ---------------------------------------------------------------------------


def _serial_mixture(ids, srcs, texts, budget_den=2, buckets=1000):
    import re

    from kgx.functions.textstats import TOKEN_PATTERN
    from kgx.stages.corpus import sample_bucket_np

    pat = re.compile(TOKEN_PATTERN)
    ntok = [len(pat.findall(t or "")) for t in texts]
    tot: dict[str, int] = {}
    for s, n in zip(srcs, ntok):
        tot[s] = tot.get(s, 0) + n
    target = (sum(tot.values()) // budget_den) // len(tot)
    keep_below = {
        s: (buckets if t == 0 else min(buckets, target * buckets // t))
        for s, t in tot.items()
    }
    b = sample_bucket_np(np.asarray(ids, dtype=np.int64), buckets)
    kept = [
        (i, s, n) for i, s, n, bk in zip(ids, srcs, ntok, b)
        if bk < keep_below[s]
    ]
    return sorted(kept)


def test_mixture_matches_serial_skewed(ray_session):
    import ray.data as rd

    from kgx.stages.corpus import mixture_sample

    # one token-heavy source, one light, one empty-text source
    ids, srcs, texts = [], [], []
    for i in range(300):
        ids.append(i)
        srcs.append("heavy")
        texts.append("alpha beta gamma delta " * 40)
    for i in range(300, 360):
        ids.append(i)
        srcs.append("light")
        texts.append("one two")
    for i in range(360, 380):
        ids.append(i)
        srcs.append("empty")
        texts.append("")
    docs = rd.from_arrow(
        pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": texts, "source": srcs})
    ).repartition(7)
    out = _collect(mixture_sample(docs))
    got = sorted(zip(out["doc_id"].astype(int), out["source"],
                     out["n_tokens"].astype(int)))
    exp = _serial_mixture(ids, srcs, texts)
    assert got == exp
    # zero-token source keeps everything (its docs cost nothing)
    assert sum(1 for _, s, _ in got if s == "empty") == 20
    # heavy source was down-sampled, light source fully kept
    assert sum(1 for _, s, _ in got if s == "heavy") < 300
    assert sum(1 for _, s, _ in got if s == "light") == 60


def test_mixture_empty_corpus(ray_session):
    import ray.data as rd

    from kgx.stages.corpus import mixture_sample

    docs = rd.from_arrow(
        pa.table({"doc_id": pa.array([], pa.int64()),
                  "text": pa.array([], pa.string()),
                  "source": pa.array([], pa.string())})
    )
    out = _collect(mixture_sample(docs))
    assert len(out) == 0


# ---------------------------------------------------------------------------
# integer Gram matrix over embeddings
# ---------------------------------------------------------------------------


def test_gram_matches_serial(ray_session):
    import ray.data as rd

    from kgx.stages.kmeans import KM_SCALE, gram_matrix

    rng = np.random.default_rng(7)
    vecs = (rng.standard_normal((40, 5)) * 0.4).astype(np.float32)
    tbl = pa.table(
        {"vec_id": np.arange(40, dtype=np.int64),
         "embedding": pa.array(list(vecs), pa.list_(pa.float32()))}
    )
    out = _collect(gram_matrix(rd.from_arrow(tbl).repartition(6)))
    q = np.floor(vecs.astype(np.float64) * KM_SCALE + 0.5).astype(np.int64)
    g = q.T @ q
    got = {(r.dim_i, r.dim_j): r.gram for r in out.itertuples()}
    iu, ju = np.triu_indices(5)
    assert got == {(int(i), int(j)): int(g[i, j]) for i, j in zip(iu, ju)}
    assert len(out) == 15  # upper triangle only


def test_gram_drops_null_vectors(ray_session):
    import ray.data as rd

    from kgx.stages.kmeans import KM_SCALE, gram_matrix

    vecs = [[0.5, -0.25], None, [0.1, 0.2]]
    tbl = pa.table(
        {"vec_id": pa.array([0, 1, 2], pa.int64()),
         "embedding": pa.array(vecs, pa.list_(pa.float32()))}
    )
    out = _collect(gram_matrix(rd.from_arrow(tbl)))
    m = np.array([[0.5, -0.25], [0.1, 0.2]], dtype=np.float64)
    q = np.floor(m * KM_SCALE + 0.5).astype(np.int64)
    g = q.T @ q
    got = {(r.dim_i, r.dim_j): r.gram for r in out.itertuples()}
    assert got == {(0, 0): int(g[0, 0]), (0, 1): int(g[0, 1]),
                   (1, 1): int(g[1, 1])}


# ---------------------------------------------------------------------------
# type-token ratio stats
# ---------------------------------------------------------------------------


def test_ttr_matches_serial():
    import re

    from kgx.functions.textstats import TOKEN_PATTERN
    from kgx.stages.text_analysis import ttr_batch

    pat = re.compile(TOKEN_PATTERN)
    texts = ["the the THE cat", "", None, "a b c a_b 9 9 a", "solo"]
    df = pd.DataFrame({"doc_id": np.arange(5, dtype=np.int64), "text": texts})
    out = ttr_batch(df)
    for i, t in enumerate(texts):
        toks = pat.findall((t or "").lower())
        assert out["n_tokens"][i] == len(toks), t
        assert out["n_types"][i] == len(set(toks)), t


# ---------------------------------------------------------------------------
# context-window chunking
# ---------------------------------------------------------------------------


def _serial_chunks(n, window, stride):
    if n <= 0:
        return []
    k = 1 + max(0, -(-(n - window) // stride)) if n > window else 1
    return [(c, c * stride, min(c * stride + window, n)) for c in range(k)]


def test_doc_chunks_matches_serial(ray_session):
    import ray.data as rd

    from kgx.stages.corpus import chunk_documents

    # token counts straddling every edge: 0, 1, window, window+1,
    # exact multi-stride, ragged tail
    W, S = 10, 7
    counts = [0, 1, 9, 10, 11, 17, 18, 24, 100]
    texts = ["w " * c for c in counts]
    tbl = pa.table(
        {"doc_id": pa.array(range(len(counts)), pa.int64()), "text": texts}
    )
    out = _collect(chunk_documents(
        rd.from_arrow(tbl).repartition(4), window=W, stride=S
    ))
    got = sorted(zip(out["doc_id"].astype(int), out["chunk_id"].astype(int),
                     out["tok_start"].astype(int), out["tok_end"].astype(int)))
    exp = sorted(
        (d, c, s, e)
        for d, n in enumerate(counts)
        for c, s, e in _serial_chunks(n, W, S)
    )
    assert got == exp
    # overlap property: consecutive chunks of one doc overlap by W - S
    big = [r for r in got if r[0] == 8]
    for a, b in zip(big, big[1:]):
        assert a[3] - b[2] == W - S or b[3] == 100


# ---------------------------------------------------------------------------
# per-edge common neighbors
# ---------------------------------------------------------------------------


def test_common_neighbors_matches_brute(ray_session):
    import ray.data as rd

    from kgx.stages.triangles import cosupplier_triangles

    # sparse co-supplier graph from synthetic orders
    rng = np.random.default_rng(3)
    orders, supps = [], []
    for o in range(60):
        members = rng.choice(np.arange(1, 25), size=rng.integers(1, 5),
                             replace=False)
        for s in members:
            orders.append(o)
            supps.append(int(s))
    li = pa.table(
        {"l_orderkey": pa.array(orders, pa.int64()),
         "l_suppkey": pa.array(supps, pa.int64())}
    )
    out = _collect(cosupplier_triangles(
        rd.from_arrow(li).repartition(5), per_edge=True
    ))
    # brute force
    from collections import defaultdict

    by_order = defaultdict(set)
    for o, s in zip(orders, supps):
        by_order[o].add(s)
    edges = set()
    for mem in by_order.values():
        mem = sorted(mem)
        for i in range(len(mem)):
            for j in range(i + 1, len(mem)):
                edges.add((mem[i], mem[j]))
    adj = defaultdict(set)
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    want = {}
    for a, b in edges:
        n = len(adj[a] & adj[b])
        if n:
            want[(a, b)] = n
    got = {(int(r.a), int(r.b)): int(r.n_common) for r in out.itertuples()}
    assert got == want
    assert want  # non-degenerate fixture


def test_common_neighbors_consistent_with_triangle_count(ray_session):
    """sum(n_common) over edges == 3 x n_triangles (each triangle credits
    its three edges) — ties the per_edge mode to the counted mode."""
    import ray.data as rd

    from kgx.stages.triangles import cosupplier_triangles

    orders = [1, 1, 1, 2, 2, 2, 3, 3]
    supps = [10, 11, 12, 11, 12, 13, 10, 13]
    li = pa.table(
        {"l_orderkey": pa.array(orders, pa.int64()),
         "l_suppkey": pa.array(supps, pa.int64())}
    )
    per_edge = _collect(cosupplier_triangles(
        rd.from_arrow(li), per_edge=True
    ))
    count = _collect(cosupplier_triangles(rd.from_arrow(li)))
    assert per_edge["n_common"].sum() == 3 * int(count["n_triangles"][0])


# ---------------------------------------------------------------------------
# per-user inter-event gap stats
# ---------------------------------------------------------------------------


def test_event_gaps_matches_serial(ray_session, tmp_path):
    import ray.data as rd  # noqa: F401  (ray_session provides the cluster)

    from kgx.pipelines.relational import event_gap_stats

    rng = np.random.default_rng(5)
    n = 400
    users = rng.integers(1, 20, size=n)
    # microsecond timestamps with deliberate ties
    base = np.datetime64("2024-01-01T00:00:00", "us")
    offs = rng.integers(0, 10_000_000, size=n) * 17
    offs[::50] = offs[1::50][: len(offs[::50])]  # some exact ties
    ts = base + offs.astype("timedelta64[us]")
    tbl = pa.table(
        {"event_id": pa.array(np.arange(n, dtype=np.int64)),
         "ts": pa.array(ts),
         "user_id": pa.array(users.astype(np.int64))}
    )
    import pyarrow.parquet as pq

    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(tbl, sf / "events.parquet")
    out = _collect(event_gap_stats(str(sf)))
    # serial
    df = pd.DataFrame({"event_id": np.arange(n), "ts": ts, "user_id": users})
    df = df.sort_values(["user_id", "ts", "event_id"])
    want = {}
    for u, grp in df.groupby("user_id"):
        if len(grp) < 2:
            continue
        g = np.diff(grp["ts"].astype("datetime64[us]").astype("int64"))
        g.sort()
        want[int(u)] = (len(g), int(g[0]), int(g[-1]), int(g[(len(g) - 1) // 2]))
    got = {int(r.user_id): (int(r.n_gaps), int(r.min_gap_us),
                            int(r.max_gap_us), int(r.p50_gap_us))
           for r in out.itertuples()}
    assert got == want


def test_event_gaps_single_event_users_omitted(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from kgx.pipelines.relational import event_gap_stats

    ts = np.array(["2024-01-01T00:00:00", "2024-01-01T01:00:00",
                   "2024-01-01T02:00:00"], dtype="datetime64[us]")
    tbl = pa.table(
        {"event_id": pa.array([1, 2, 3], pa.int64()),
         "ts": pa.array(ts),
         "user_id": pa.array([7, 7, 9], pa.int64())}
    )
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(tbl, sf / "events.parquet")
    out = _collect(event_gap_stats(str(sf)))
    assert len(out) == 1
    r = out.iloc[0]
    assert (int(r.user_id), int(r.n_gaps), int(r.min_gap_us)) == \
        (7, 1, 3_600_000_000)


# ---------------------------------------------------------------------------
# degree assortativity moments
# ---------------------------------------------------------------------------


def _serial_assort(edges_sym):
    from collections import Counter

    deg = Counter()
    for a, b in edges_sym:
        deg[a] += 1
    n = len(edges_sym)
    ds = [deg[a] for a, _ in edges_sym]
    dd = [deg[b] for _, b in edges_sym]
    return (n, sum(ds), sum(dd), sum(x * y for x, y in zip(ds, dd)),
            sum(x * x for x in ds), sum(y * y for y in dd))


def test_assortativity_matches_serial_both_paths(ray_session, each_route):
    import ray.data as rd

    from kgx.stages.graph import assortativity_moments

    rng = np.random.default_rng(13)
    und = {tuple(sorted(p)) for p in rng.integers(1, 30, size=(80, 2))
           if p[0] != p[1]}
    sym = sorted(und | {(b, a) for a, b in und})
    # duplicate rows: the distinct-edge dedup must ignore them
    dup = sym + sym[:10]
    tbl = pa.table(
        {"src": pa.array([a for a, _ in dup], pa.int64()),
         "dst": pa.array([b for _, b in dup], pa.int64())}
    )
    want = _serial_assort(sym)
    for route, out in zip(("driver", "exchange"), each_route(
            lambda: _collect(assortativity_moments(
                rd.from_arrow(tbl).repartition(5))))):
        got = tuple(int(out[c][0]) for c in
                    ["n_edges", "sum_ds", "sum_dd", "sum_dsdd",
                     "sum_ds2", "sum_dd2"])
        assert got == want, route
    # symmetry invariants
    assert want[1] == want[2] and want[4] == want[5]


# ---------------------------------------------------------------------------
# PCA projection (gram consumer)
# ---------------------------------------------------------------------------


def test_pca_project_matches_serial_and_layout_stable(ray_session):
    import ray.data as rd

    from kgx.stages.kmeans import KM_SCALE, pca_project

    rng = np.random.default_rng(21)
    vecs = (rng.standard_normal((60, 6)) * 0.3).astype(np.float32)
    tbl = pa.table(
        {"vec_id": np.arange(60, dtype=np.int64),
         "embedding": pa.array(list(vecs), pa.list_(pa.float32()))}
    )
    out = _collect(pca_project(rd.from_arrow(tbl).repartition(7)))
    # serial reference
    q = np.floor(vecs.astype(np.float64) * KM_SCALE + 0.5)
    G = q.T @ q
    w, v = np.linalg.eigh(G)
    comps = v[:, ::-1][:, :2]
    for c in range(2):
        j = int(np.argmax(np.abs(comps[:, c])))
        if comps[j, c] < 0:
            comps[:, c] = -comps[:, c]
    p = np.floor(q @ comps * KM_SCALE + 0.5).astype(np.int64)
    got = {int(r.vec_id): (int(r.pc1_q), int(r.pc2_q))
           for r in out.itertuples()}
    assert got == {i: (int(p[i, 0]), int(p[i, 1])) for i in range(60)}
    # layout independence: different partitioning -> identical output
    out2 = _collect(pca_project(rd.from_arrow(tbl).repartition(2)))
    got2 = {int(r.vec_id): (int(r.pc1_q), int(r.pc2_q))
            for r in out2.itertuples()}
    assert got2 == got
    # variance ordering: pc1 spread >= pc2 spread
    arr = np.array(list(got.values()), dtype=np.float64)
    assert arr[:, 0].var() >= arr[:, 1].var()


# ---------------------------------------------------------------------------
# deterministic k-neighbor sampling
# ---------------------------------------------------------------------------


def test_neighbor_sample_matches_serial(ray_session):
    import ray.data as rd

    from kgx.stages.corpus import SAMPLE_ADD, SAMPLE_MUL
    from kgx.stages.graph import neighbor_sample

    rng = np.random.default_rng(17)
    und = {tuple(sorted(p)) for p in rng.integers(1, 40, size=(120, 2))
           if p[0] != p[1]}
    sym = sorted(und | {(b, a) for a, b in und})
    dup = sym + sym[:15]
    tbl = pa.table(
        {"src": pa.array([a for a, _ in dup], pa.int64()),
         "dst": pa.array([b for _, b in dup], pa.int64())}
    )
    k = 3
    out = _collect(neighbor_sample(
        rd.from_arrow(tbl).repartition(5), k=k
    ))
    # serial
    def key(a, b):
        pair = (np.uint64(a) << np.uint64(32)) | np.uint64(b)
        with np.errstate(over="ignore"):
            h = pair * np.uint64(SAMPLE_MUL) + np.uint64(SAMPLE_ADD)
        return int(h % np.uint64(1 << 62))

    from collections import defaultdict

    adj = defaultdict(set)
    for a, b in sym:
        adj[a].add(b)
    want = set()
    for a, nbrs in adj.items():
        ranked = sorted(nbrs, key=lambda b: (key(a, b), b))[:k]
        for r, b in enumerate(ranked):
            want.add((a, b, r))
    got = {(int(r.node), int(r.neighbor), int(r.rank))
           for r in out.itertuples()}
    assert got == want
    # every node emits min(deg, k) rows
    counts = out.groupby("node").size()
    for a, nbrs in adj.items():
        assert counts[a] == min(len(nbrs), k)


# ---------------------------------------------------------------------------
# multimodal resolution histogram
# ---------------------------------------------------------------------------


def test_resolution_hist_matches_serial_and_drops_corrupt(ray_session):
    import ray.data as rd

    from kgx.stages.multimodal import resolution_histogram

    # width = id % 640 + 16, height = (7 id) % 480 + 16 — verified against
    # a serial recomputation (ids include wrap-around values past 640)
    ids = np.array([0, 1, 2, 640, 641, 961, 4480, 8960], dtype=np.int64)
    texts = ["abc", "", None, "xy", "zz", "q", "longer text", "t"]
    docs = rd.from_arrow(pa.table(
        {"doc_id": pa.array(ids), "text": texts,
         "source": ["s"] * len(ids)}
    )).repartition(3)
    out = _collect(resolution_histogram(docs))
    from collections import defaultdict

    agg = defaultdict(lambda: [0, 0])
    for i, t in zip(ids, texts):
        w, h = int(i % 640 + 16), int((i * 7) % 480 + 16)
        agg[(w, h)][0] += 1
        agg[(w, h)][1] += len((t or "").encode())
    got = {(int(r.width), int(r.height)): (int(r.n_payloads),
                                           int(r.sum_bytes))
           for r in out.itertuples()}
    assert got == {k: tuple(v) for k, v in agg.items()}
    assert sum(v[0] for v in got.values()) == len(ids)  # total mass


def test_event_gaps_null_ts_dropped(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from kgx.pipelines.relational import event_gap_stats

    ts = pa.array(
        [None, np.datetime64("2024-01-01T00:00:00", "us"),
         np.datetime64("2024-01-01T00:01:00", "us"), None],
        pa.timestamp("us"),
    )
    tbl = pa.table(
        {"event_id": pa.array([1, 2, 3, 4], pa.int64()),
         "ts": ts,
         "user_id": pa.array([7, 7, 7, 7], pa.int64())}
    )
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(tbl, sf / "events.parquet")
    out = _collect(event_gap_stats(str(sf)))
    assert len(out) == 1
    assert int(out.iloc[0].n_gaps) == 1  # only the two real timestamps
    assert int(out.iloc[0].min_gap_us) == 60_000_000


# ---------------------------------------------------------------------------
# composed Q5-shape region revenue
# ---------------------------------------------------------------------------


def test_region_revenue_both_paths_match_duckdb(ray_session,
                                                each_route):
    import duckdb

    from kgx.pipelines.relational import region_revenue, sql_region_revenue

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    for t in ["lineitem", "orders", "customer", "nation", "region"]:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'"
        )
    want = {r[0]: int(r[1])
            for r in con.execute(sql_region_revenue()).fetchall()}
    for route, out in zip(("broadcast", "exchange"),
                          each_route(lambda: _collect(region_revenue(sf)))):
        got = {r.r_name: int(r.revenue_cp) for r in out.itertuples()}
        assert got == want, route
    assert len(want) >= 1


# ---------------------------------------------------------------------------
# hypothesis properties for the batch-4 kernels (pure serial parts)
# ---------------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


class TestChunkProperties:
    @given(st.integers(min_value=0, max_value=5000),
           st.integers(min_value=2, max_value=64))
    @settings(max_examples=60, deadline=None)
    def test_chunks_tile_the_doc(self, n, window):
        stride = max(1, window * 3 // 4)
        chunks = _serial_chunks(n, window, stride)
        if n == 0:
            assert chunks == []
            return
        # coverage: every token position falls in >= 1 chunk
        assert chunks[0][1] == 0
        assert chunks[-1][2] == n
        for (c0, s0, e0), (c1, s1, e1) in zip(chunks, chunks[1:]):
            assert c1 == c0 + 1
            assert s1 == s0 + stride
            assert s1 < e0 or s1 == e0  # no gap (stride <= window)
            assert e1 >= e0
        # all but the last chunk are full-width
        for _, s, e in chunks[:-1]:
            assert e - s == window
        assert 0 < chunks[-1][2] - chunks[-1][1] <= window


class TestMixtureProperties:
    @given(
        st.dictionaries(
            st.sampled_from(["web", "wiki", "code", "law"]),
            st.lists(st.tuples(st.integers(0, 2**40), st.integers(0, 400)),
                     min_size=1, max_size=40, unique_by=lambda t: t[0]),
            min_size=1, max_size=4,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_budget_rebalance_invariants(self, strata):
        # flatten, dedup ids across strata
        seen = set()
        ids, srcs, toks = [], [], []
        for s, rows in sorted(strata.items()):
            for i, t in rows:
                if i not in seen:
                    seen.add(i)
                    ids.append(i)
                    srcs.append(s)
                    toks.append(t)
        texts = ["w " * t for t in toks]
        kept = _serial_mixture(ids, srcs, texts)
        kept_ids = {i for i, _, _ in kept}
        assert kept_ids <= set(ids)
        # per-source: zero-token sources keep everything
        tot = {}
        for s, t in zip(srcs, toks):
            tot[s] = tot.get(s, 0) + t
        for i, s, t in zip(ids, srcs, toks):
            if tot[s] == 0:
                assert i in kept_ids, (i, s)
        # determinism
        assert _serial_mixture(ids, srcs, texts) == kept


# ---------------------------------------------------------------------------
# entity co-occurrence
# ---------------------------------------------------------------------------


def test_entity_cooccurrence_matches_brute(ray_session):
    import ray.data as rd

    from kgx.stages.kg_stages import entity_cooccurrence

    rows = [
        ("u1", "Acme"), ("u1", "Bolt"), ("u1", "Acme"),  # dup mention
        ("u1", "Carbon"),
        ("u2", "Acme"), ("u2", "Bolt"),
        ("u3", "Delta"),                                  # singleton page
        ("u4", "Bolt"), ("u4", "Acme"),
    ]
    tbl = pa.table(
        {"url": [r[0] for r in rows], "surface": [r[1] for r in rows],
         "ner_type": ["ORG"] * len(rows)}
    )
    out = _collect(entity_cooccurrence(rd.from_arrow(tbl).repartition(4)))
    got = {(r.surface_a, r.surface_b): int(r.n_pages)
           for r in out.itertuples()}
    assert got == {
        ("Acme", "Bolt"): 3,
        ("Acme", "Carbon"): 1,
        ("Bolt", "Carbon"): 1,
    }


def test_entity_pmi_matches_brute(ray_session):
    import ray.data as rd

    from kgx.stages.corpus import PMI_SCALE
    from kgx.stages.kg_stages import entity_pmi

    rows = [
        ("u1", "A"), ("u1", "B"),
        ("u2", "A"), ("u2", "B"),
        ("u3", "A"), ("u3", "C"),
        ("u4", "B"), ("u4", "C"),
        ("u5", "A"), ("u5", "B"), ("u5", "C"),
        ("u6", "D"),
    ]
    tbl = pa.table(
        {"url": [r[0] for r in rows], "surface": [r[1] for r in rows],
         "ner_type": ["ORG"] * len(rows)}
    )
    out = entity_pmi(rd.from_arrow(tbl).repartition(3), k=10, min_pair=2)
    # brute force
    from collections import Counter, defaultdict

    by_url = defaultdict(set)
    for u, s in rows:
        by_url[u].add(s)
    n = len(by_url)
    cs = Counter()
    c12 = Counter()
    for mem in by_url.values():
        for s in mem:
            cs[s] += 1
        mem = sorted(mem)
        for i in range(len(mem)):
            for j in range(i + 1, len(mem)):
                c12[(mem[i], mem[j])] += 1
    want = sorted(
        ((a, b, c, (c * n * PMI_SCALE) // (cs[a] * cs[b]))
         for (a, b), c in c12.items() if c >= 2),
        key=lambda t: (-t[3], t[0], t[1]),
    )
    got = [(r.surface_a, r.surface_b, int(r.n_pages), int(r.pmi_score))
           for r in out.itertuples()]
    assert got == want
    assert list(out["rank"]) == list(range(1, len(want) + 1))


# ---------------------------------------------------------------------------
# hashing-trick features
# ---------------------------------------------------------------------------


def test_hash_features_matches_serial():
    import re
    from collections import Counter

    from kgx.functions.text import stable_hash64
    from kgx.functions.textstats import TOKEN_PATTERN
    from kgx.stages.text_analysis import HASH_FEATURE_DIMS, \
        hash_features_batch

    pat = re.compile(TOKEN_PATTERN)
    texts = ["the cat the dog", "", None, "a a a b", "unique words only"]
    df = pd.DataFrame({"doc_id": np.arange(5, dtype=np.int64) + 100,
                       "text": texts})
    out = hash_features_batch(df)
    got = {(int(r.doc_id), int(r.dim)): int(r.cnt) for r in out.itertuples()}
    want = {}
    for i, t in enumerate(texts):
        c = Counter(
            stable_hash64(tok) % HASH_FEATURE_DIMS
            for tok in pat.findall((t or "").lower())
        )
        for d, n in c.items():
            want[(i + 100, d)] = n
    assert got == want
    # total mass: sum of counts == total tokens
    assert out["cnt"].sum() == sum(
        len(pat.findall((t or "").lower())) for t in texts
    )


# ---------------------------------------------------------------------------
# full Q1 pricing summary
# ---------------------------------------------------------------------------


def test_q1_pricing_matches_serial(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from kgx.pipelines.relational import q1_pricing_summary

    rng = np.random.default_rng(23)
    n = 500
    flags = rng.choice(["A", "N", "R"], size=n)
    status = rng.choice(["F", "O"], size=n)
    qty = rng.integers(1, 50, size=n).astype(float)
    price = rng.uniform(100, 90_000, size=n).round(2)
    disc = rng.integers(0, 11, size=n) / 100.0
    tax = rng.integers(0, 9, size=n) / 100.0
    tbl = pa.table(
        {"l_orderkey": pa.array(np.arange(n, dtype=np.int64)),
         "l_returnflag": flags, "l_linestatus": status,
         "l_quantity": qty, "l_extendedprice": price,
         "l_discount": disc, "l_tax": tax,
         "l_shipdate": pa.array(
             np.full(n, np.datetime64("2024-01-01", "us")))}
    )
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(tbl, sf / "lineitem.parquet")
    out = _collect(q1_pricing_summary(str(sf)))
    # serial
    from collections import defaultdict

    agg = defaultdict(lambda: [0, 0, 0, 0, 0])
    for f, s, q, p, d, t in zip(flags, status, qty, price, disc, tax):
        c = int(np.floor(p * 100 + 0.5))
        dp = int(np.floor(d * 100 + 0.5))
        tp = int(np.floor(t * 100 + 0.5))
        a = agg[(f, s)]
        a[0] += 1
        a[1] += int(np.floor(q + 0.5))
        a[2] += c
        a[3] += c * (100 - dp) // 100
        a[4] += c * (100 - dp) * (100 + tp) // 10_000
    got = {(r.l_returnflag, r.l_linestatus):
           (int(r.n_rows), int(r.sum_qty), int(r.sum_base_cents),
            int(r.sum_disc_cents), int(r.sum_charge_cents))
           for r in out.itertuples()}
    assert got == {k: tuple(v) for k, v in agg.items()}


# ---------------------------------------------------------------------------
# Q4-shaped late-order EXISTS semi-join
# ---------------------------------------------------------------------------


def _late_fixture(tmp_path):
    import pyarrow.parquet as pq

    from kgx.pipelines.relational import Q4_LATE_DAYS

    rng = np.random.default_rng(31)
    n_orders, n_lines = 200, 900
    base = np.datetime64("2020-01-01", "us")
    odate = base + rng.integers(0, 365, size=n_orders) * np.timedelta64(
        86_400_000_000, "us")
    pri = rng.choice(["1-URGENT", "2-HIGH", "3-MEDIUM"], size=n_orders)
    orders = pa.table(
        {"o_orderkey": pa.array(np.arange(n_orders, dtype=np.int64)),
         "o_custkey": pa.array(np.zeros(n_orders, dtype=np.int64)),
         "o_orderdate": pa.array(odate),
         "o_orderpriority": pri})
    lok = rng.integers(0, n_orders, size=n_lines).astype(np.int64)
    # ship 0..120 days after the order date so ~half the orders are late
    ship = odate[lok] + rng.integers(0, 121, size=n_lines) * np.timedelta64(
        86_400_000_000, "us")
    lines = pa.table(
        {"l_orderkey": pa.array(lok), "l_shipdate": pa.array(ship)})
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(orders, sf / "orders.parquet")
    pq.write_table(lines, sf / "lineitem.parquet")
    # serial expectation
    lag = np.timedelta64(Q4_LATE_DAYS * 86_400_000_000, "us")
    mx: dict[int, np.datetime64] = {}
    for k, s in zip(lok, ship):
        if k not in mx or s > mx[k]:
            mx[k] = s
    from collections import Counter

    want = Counter(
        str(pri[k]) for k, s in mx.items() if s > odate[k] + lag)
    return sf, dict(want)


def test_late_orders_matches_serial(ray_session, tmp_path):
    from kgx.pipelines.relational import late_order_counts

    sf, want = _late_fixture(tmp_path)
    out = _collect(late_order_counts(str(sf)))
    got = {r.o_orderpriority: int(r.n_late) for r in out.itertuples()}
    assert got == want
    assert want  # fixture produces a non-trivial late set


def test_late_orders_both_routes_agree(ray_session, each_route, tmp_path):
    from kgx.pipelines.relational import late_order_counts

    sf, want = _late_fixture(tmp_path)
    for out in each_route(lambda: _collect(late_order_counts(str(sf)))):
        got = {r.o_orderpriority: int(r.n_late) for r in out.itertuples()}
        assert got == want


# ---------------------------------------------------------------------------
# Q13-shaped orders-per-customer distribution
# ---------------------------------------------------------------------------


def _custdist_fixture(tmp_path):
    import pyarrow.parquet as pq

    rng = np.random.default_rng(37)
    n_cust, n_orders = 80, 400
    ckeys = np.arange(n_cust, dtype=np.int64) * 3  # sparse keys
    # ~1/4 of customers get no orders; one order points at a ghost custkey
    ock = rng.choice(ckeys[: (3 * n_cust) // 4], size=n_orders).astype(
        np.int64)
    ock[0] = 999_999  # no matching customer: must be dropped
    cust = pa.table({"c_custkey": pa.array(ckeys)})
    orders = pa.table(
        {"o_custkey": pa.array(ock),
         "o_orderkey": pa.array(np.arange(n_orders, dtype=np.int64))})
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(cust, sf / "customer.parquet")
    pq.write_table(orders, sf / "orders.parquet")
    from collections import Counter

    per = Counter(int(k) for k in ock if k in set(ckeys.tolist()))
    want = Counter(per.get(int(k), 0) for k in ckeys)
    return sf, dict(want)


def test_custdist_matches_serial(ray_session, tmp_path):
    from kgx.pipelines.relational import customer_order_distribution

    sf, want = _custdist_fixture(tmp_path)
    out = _collect(customer_order_distribution(str(sf)))
    got = {int(r.n_orders): int(r.c_count) for r in out.itertuples()}
    assert got == want
    assert 0 in want and want[0] > 0  # zero bucket exercised


def test_custdist_both_routes_agree(ray_session, each_route, tmp_path):
    from kgx.pipelines.relational import customer_order_distribution

    sf, want = _custdist_fixture(tmp_path)
    for out in each_route(
            lambda: _collect(customer_order_distribution(str(sf)))):
        got = {int(r.n_orders): int(r.c_count) for r in out.itertuples()}
        assert got == want


# ---------------------------------------------------------------------------
# duplicate n-gram stats
# ---------------------------------------------------------------------------


def test_dup_ngrams_matches_bruteforce(ray_session, tmp_path):
    import re

    import pyarrow.parquet as pq
    import ray.data as rd

    from kgx.functions.textstats import TOKEN_PATTERN
    from kgx.stages.corpus import DUPGRAM_K, dup_ngram_stats

    rng = np.random.default_rng(41)
    vocab = [f"w{i}" for i in range(30)]
    texts = []
    for i in range(60):
        toks = rng.choice(vocab, size=rng.integers(2, 40)).tolist()
        texts.append(" ".join(toks))
    # plant an exact duplicate pair and a shared-run pair
    texts[10] = texts[3]
    texts[20] = "x y " + texts[5] + " z"
    texts[30] = ""                       # no tokens at all
    tbl = pa.table({"doc_id": pa.array(np.arange(60, dtype=np.int64) + 7),
                    "text": texts})
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(tbl, sf / "documents.parquet")

    out = _collect(dup_ngram_stats(
        rd.read_parquet(str(sf / "documents.parquet"))))
    got = {int(r.doc_id): (int(r.n_grams), int(r.n_dup))
           for r in out.itertuples()}

    pat = re.compile(TOKEN_PATTERN)
    k = DUPGRAM_K
    grams = {}
    for i, t in enumerate(texts):
        toks = pat.findall(t.lower())
        grams[i + 7] = {" ".join(toks[j:j + k])
                        for j in range(len(toks) - k + 1)}
    from collections import Counter

    cnt = Counter(g for s in grams.values() for g in s)
    want = {d: (len(s), sum(1 for g in s if cnt[g] > 1))
            for d, s in grams.items() if s}
    assert got == want
    assert any(v[1] > 0 for v in want.values())   # planted dups counted
    assert (7 + 30) not in got                    # empty doc emits no row


# ---------------------------------------------------------------------------
# IVF-restricted k-NN graph
# ---------------------------------------------------------------------------


def _knn_serial(ids, mat, cent, k):
    """Serial reference: assign by argmax cosine (first max wins), exact
    top-k within each list with (cos DESC, neighbor ASC) tie-break."""
    norm = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True),
                            1e-300)
    assign = (norm @ cent.T).argmax(axis=1)
    want = set()
    for ci in np.unique(assign):
        sel = np.flatnonzero(assign == ci)
        for i in sel:
            sims = [(-(norm[i] @ norm[j]), ids[j]) for j in sel if j != i]
            for r, (_, nid) in enumerate(sorted(sims)[:k], start=1):
                want.add((int(ids[i]), int(nid), r))
    return want


def test_knn_graph_matches_serial(ray_session):
    import ray
    import ray.data as rd

    from kgx.stages.similarity import knn_graph_ivf

    rng = np.random.default_rng(43)
    n, d, k = 120, 16, 4
    mat = rng.normal(size=(n, d))
    mat[17] = mat[5]          # exact duplicate: tie broken by neighbor id
    ids = np.arange(n, dtype=np.int64) * 7
    cent = rng.normal(size=(6, d))
    cent /= np.linalg.norm(cent, axis=1, keepdims=True)
    tbl = pa.table({"vec_id": pa.array(ids),
                    "embedding": pa.array([list(map(float, r)) for r in mat],
                                          pa.list_(pa.float32()))})
    # float32 storage: serial side must see the same quantized values
    mat32 = np.stack([np.asarray(r, dtype=np.float32).astype(np.float64)
                      for r in mat])
    out = _collect(knn_graph_ivf(rd.from_arrow(tbl), ray.put(cent), k=k))
    got = {(int(r.vec_id), int(r.neighbor_id), int(r.rank))
           for r in out.itertuples()}
    assert got == _knn_serial(ids, mat32, cent, k)


def test_knn_graph_recall_on_clusters(ray_session):
    import ray
    import ray.data as rd

    from kgx.stages.similarity import ivf_centroids, knn_graph_ivf

    rng = np.random.default_rng(47)
    n_clu, per, d, k = 8, 25, 16, 5
    centers = rng.normal(size=(n_clu, d)) * 4
    pts = np.concatenate(
        [centers[c] + rng.normal(size=(per, d)) * 0.2 for c in range(n_clu)])
    ids = np.arange(n_clu * per, dtype=np.int64)
    tbl = pa.table({"vec_id": pa.array(ids),
                    "embedding": pa.array([list(map(float, r)) for r in pts],
                                          pa.list_(pa.float32()))})
    cent = ivf_centroids(tbl, n_lists=n_clu)
    out = _collect(knn_graph_ivf(rd.from_arrow(tbl), ray.put(cent), k=k))
    got = {(int(r.vec_id), int(r.neighbor_id))
           for r in out.itertuples()}
    # brute-force true top-k
    norm = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    sims = norm @ norm.T
    np.fill_diagonal(sims, -np.inf)
    hits = total = 0
    for i in range(len(ids)):
        top = np.argsort(-sims[i], kind="stable")[:k]
        total += k
        hits += sum((int(ids[i]), int(ids[j])) in got for j in top)
    assert hits / total >= 0.6


# ---------------------------------------------------------------------------
# Q10-shaped returned-item revenue top-k
# ---------------------------------------------------------------------------


def _q10_fixture(tmp_path):
    import pyarrow.parquet as pq

    rng = np.random.default_rng(53)
    n_cust, n_orders, n_lines, k = 30, 120, 600, 20
    ckeys = np.arange(n_cust, dtype=np.int64) + 100
    cust = pa.table(
        {"c_custkey": pa.array(ckeys),
         "c_name": [f"Customer#{k}" for k in ckeys],
         "c_nationkey": pa.array((ckeys % 5).astype(np.int64))})
    nation = pa.table(
        {"n_nationkey": pa.array(np.arange(5, dtype=np.int64)),
         "n_name": [f"NATION_{i}" for i in range(5)]})
    ock = rng.choice(ckeys, size=n_orders).astype(np.int64)
    orders = pa.table(
        {"o_orderkey": pa.array(np.arange(n_orders, dtype=np.int64)),
         "o_custkey": pa.array(ock)})
    lok = rng.integers(0, n_orders, size=n_lines).astype(np.int64)
    price = rng.uniform(100, 9000, size=n_lines).round(2)
    disc = rng.integers(0, 11, size=n_lines) / 100.0
    flag = rng.choice(["R", "N", "A"], size=n_lines)
    lines = pa.table(
        {"l_orderkey": pa.array(lok),
         "l_returnflag": flag,
         "l_extendedprice": price, "l_discount": disc})
    sf = tmp_path / "sf"
    sf.mkdir()
    for name, t in [("customer", cust), ("nation", nation),
                    ("orders", orders), ("lineitem", lines)]:
        pq.write_table(t, sf / f"{name}.parquet")
    # serial expectation
    from collections import defaultdict

    rev = defaultdict(int)
    for o, f, p, d in zip(lok, flag, price, disc):
        if f != "R":
            continue
        c = int(np.floor(p * 100 + 0.5))
        dp = int(np.floor(d * 100 + 0.5))
        rev[int(ock[o])] += c * (100 - dp)
    ranked = sorted(rev.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    want = {(ck, f"Customer#{ck}", f"NATION_{ck % 5}", rv, r)
            for r, (ck, rv) in enumerate(ranked, start=1)}
    return sf, want


def test_returned_revenue_matches_serial(ray_session, tmp_path):
    from kgx.pipelines.relational import returned_item_revenue

    sf, want = _q10_fixture(tmp_path)
    out = _collect(returned_item_revenue(str(sf)))
    got = {(int(r.c_custkey), r.c_name, r.n_name, int(r.revenue_cp),
            int(r.rank)) for r in out.itertuples()}
    assert got == want and len(want) == 20


def test_returned_revenue_both_routes_agree(ray_session, each_route,
                                           tmp_path):
    from kgx.pipelines.relational import returned_item_revenue

    sf, want = _q10_fixture(tmp_path)
    for out in each_route(lambda: _collect(returned_item_revenue(str(sf)))):
        got = {(int(r.c_custkey), r.c_name, r.n_name, int(r.revenue_cp),
                int(r.rank)) for r in out.itertuples()}
        assert got == want


# ---------------------------------------------------------------------------
# daily active users
# ---------------------------------------------------------------------------


def test_dau_matches_serial(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from kgx.pipelines.relational import daily_active_users

    rng = np.random.default_rng(59)
    n = 800
    base = np.datetime64("2024-03-01", "us")
    ts = base + rng.integers(0, 10 * 86_400_000_000, size=n).astype(
        "timedelta64[us]")
    uid = rng.integers(0, 25, size=n).astype(np.int64)
    tbl = pa.table({"event_id": pa.array(np.arange(n, dtype=np.int64)),
                    "ts": pa.array(ts), "user_id": pa.array(uid)})
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(tbl, sf / "events.parquet")
    out = _collect(daily_active_users(str(sf)))
    got = {int(r.day): (int(r.n_users), int(r.n_events))
           for r in out.itertuples()}
    days = ts.astype("datetime64[D]").astype(np.int64)
    from collections import defaultdict

    users, events = defaultdict(set), defaultdict(int)
    for d, u in zip(days, uid):
        users[int(d)].add(int(u))
        events[int(d)] += 1
    want = {d: (len(users[d]), events[d]) for d in users}
    assert got == want


# ---------------------------------------------------------------------------
# Q14-shaped promo revenue share
# ---------------------------------------------------------------------------


def _promo_fixture(tmp_path):
    import pyarrow.parquet as pq

    rng = np.random.default_rng(61)
    n_parts, n_lines = 60, 700
    ptype = rng.choice(["PROMO", "STANDARD", "LARGE"], size=n_parts)
    parts = pa.table(
        {"p_partkey": pa.array(np.arange(n_parts, dtype=np.int64)),
         "p_type": ptype})
    # partkeys 0..n_parts+9: the last 10 dangle (inner-join drops them)
    lpk = rng.integers(0, n_parts + 10, size=n_lines).astype(np.int64)
    ep = np.round(rng.uniform(1.0, 900.0, size=n_lines), 2)
    disc = np.round(rng.uniform(0.0, 0.1, size=n_lines), 2)
    base = np.datetime64("1996-06-01", "us")
    ship = base + rng.integers(0, 900, size=n_lines) * np.timedelta64(
        86_400_000_000, "us")
    lines = pa.table(
        {"l_partkey": pa.array(lpk), "l_extendedprice": pa.array(ep),
         "l_discount": pa.array(disc), "l_shipdate": pa.array(ship)})
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(parts, sf / "part.parquet")
    pq.write_table(lines, sf / "lineitem.parquet")
    t0 = np.datetime64("1997-01-01", "us")
    t1 = np.datetime64("1998-01-01", "us")
    pr = tot = 0
    for k, e, d, s in zip(lpk, ep, disc, ship):
        if not (t0 <= s < t1) or k >= n_parts:
            continue
        c = int(np.floor(e * 100 + 0.5))
        dp = int(np.floor(d * 100 + 0.5))
        cents = c * (100 - dp) // 100
        tot += cents
        if ptype[k] == "PROMO":
            pr += cents
    return sf, (pr, tot, pr * 10_000 // tot if tot else 0)


def test_promo_revenue_matches_serial(ray_session, tmp_path):
    from kgx.pipelines.relational import promo_revenue

    sf, want = _promo_fixture(tmp_path)
    out = _collect(promo_revenue(str(sf)))
    assert len(out) == 1
    r = out.iloc[0]
    assert (int(r.promo_cents), int(r.total_cents),
            int(r.promo_permyriad)) == want
    assert want[1] > 0 and 0 < want[0] < want[1]


def test_promo_revenue_both_routes_agree(ray_session, each_route, tmp_path):
    from kgx.pipelines.relational import promo_revenue

    sf, want = _promo_fixture(tmp_path)
    for out in each_route(lambda: _collect(promo_revenue(str(sf)))):
        r = out.iloc[0]
        assert (int(r.promo_cents), int(r.total_cents),
                int(r.promo_permyriad)) == want


def test_promo_revenue_empty_window(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from kgx.pipelines.relational import promo_revenue

    parts = pa.table({"p_partkey": pa.array([0, 1], pa.int64()),
                      "p_type": pa.array(["PROMO", "LARGE"])})
    lines = pa.table(
        {"l_partkey": pa.array([0, 1], pa.int64()),
         "l_extendedprice": pa.array([10.0, 20.0]),
         "l_discount": pa.array([0.0, 0.0]),
         "l_shipdate": pa.array(
             [np.datetime64("1990-01-01", "us")] * 2)})
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(parts, sf / "part.parquet")
    pq.write_table(lines, sf / "lineitem.parquet")
    out = _collect(promo_revenue(str(sf)))
    assert len(out) == 1
    r = out.iloc[0]
    assert (int(r.promo_cents), int(r.total_cents),
            int(r.promo_permyriad)) == (0, 0, 0)


# ---------------------------------------------------------------------------
# Q18-shaped large-volume orders
# ---------------------------------------------------------------------------


def test_big_volume_orders_matches_serial(ray_session, each_route,
                                          tmp_path):
    import pyarrow.parquet as pq

    from kgx.pipelines.relational import big_volume_orders

    rng = np.random.default_rng(67)
    n_orders, n_lines = 120, 1500
    odate = np.datetime64("1998-05-01", "us") + rng.integers(
        0, 200, size=n_orders) * np.timedelta64(86_400_000_000, "us")
    ocust = rng.integers(0, 30, size=n_orders).astype(np.int64)
    orders = pa.table(
        {"o_orderkey": pa.array(np.arange(n_orders, dtype=np.int64)),
         "o_custkey": pa.array(ocust), "o_orderdate": pa.array(odate)})
    cust = pa.table(
        {"c_custkey": pa.array(np.arange(30, dtype=np.int64)),
         "c_name": pa.array([f"Customer#{i:09d}" for i in range(30)])})
    # orderkey n_orders..n_orders+4 dangle (rank-then-join drops them)
    lok = rng.integers(0, n_orders + 5, size=n_lines).astype(np.int64)
    qty = rng.integers(1, 51, size=n_lines).astype(np.float64)
    lines = pa.table({"l_orderkey": pa.array(lok),
                      "l_quantity": pa.array(qty)})
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(orders, sf / "orders.parquet")
    pq.write_table(cust, sf / "customer.parquet")
    pq.write_table(lines, sf / "lineitem.parquet")

    thr, k = 150, 10
    sums: dict[int, int] = {}
    for o, q in zip(lok, qty):
        sums[int(o)] = sums.get(int(o), 0) + int(np.floor(q + 0.5))
    qual = sorted(((s, o) for o, s in sums.items() if s > thr),
                  key=lambda t: (-t[0], t[1]))[:k]
    want = {}
    for r, (s, o) in enumerate(qual, start=1):
        if o >= n_orders:
            continue  # dangling orderkey drops at the attach
        day = int(odate[o].astype("datetime64[D]").astype(np.int64))
        want[o] = (s, int(ocust[o]), f"Customer#{int(ocust[o]):09d}",
                   day, r)
    for out in each_route(lambda: _collect(
            big_volume_orders(str(sf), qty_threshold=thr, k=k))):
        got = {int(r.o_orderkey): (int(r.total_qty), int(r.o_custkey),
                                   str(r.c_name), int(r.o_orderdate_day),
                                   int(r.rank))
               for r in out.itertuples()}
        assert got == want
    assert len(qual) == k  # threshold actually selective in the fixture


# ---------------------------------------------------------------------------
# Q22-shaped dormant above-average customers
# ---------------------------------------------------------------------------


def _dormant_fixture(tmp_path):
    import pyarrow.parquet as pq

    rng = np.random.default_rng(71)
    n_cust, n_orders = 150, 600
    bal = np.round(rng.uniform(-500.0, 5000.0, size=n_cust), 2)
    seg = rng.choice(["AUTO", "HOUSE", "MACH"], size=n_cust)
    cust = pa.table(
        {"c_custkey": pa.array(np.arange(n_cust, dtype=np.int64)),
         "c_mktsegment": seg, "c_acctbal": pa.array(bal)})
    ock = rng.integers(0, n_cust, size=n_orders).astype(np.int64)
    odate = np.datetime64("2000-01-01", "us") + rng.integers(
        0, 700, size=n_orders) * np.timedelta64(86_400_000_000, "us")
    orders = pa.table(
        {"o_custkey": pa.array(ock), "o_orderdate": pa.array(odate)})
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(cust, sf / "customer.parquet")
    pq.write_table(orders, sf / "orders.parquet")

    cut = np.datetime64("2001-01-01", "us")
    b = np.floor(bal * 100 + 0.5).astype(np.int64)
    pos = b[b > 0]
    s, n = int(pos.sum()), len(pos)
    recent = {int(k) for k, d in zip(ock, odate) if d >= cut}
    from collections import defaultdict

    agg = defaultdict(lambda: [0, 0])
    for i in range(n_cust):
        if int(b[i]) * n > s and i not in recent:
            agg[str(seg[i])][0] += 1
            agg[str(seg[i])][1] += int(b[i])
    return sf, {k: tuple(v) for k, v in agg.items()}


def test_dormant_rich_matches_serial(ray_session, tmp_path):
    from kgx.pipelines.relational import dormant_rich_customers

    sf, want = _dormant_fixture(tmp_path)
    out = dormant_rich_customers(str(sf))
    got = {r.c_mktsegment: (int(r.n_cust), int(r.sum_bal_cents))
           for r in out.itertuples()}
    assert got == want and want


def test_dormant_rich_both_routes_agree(ray_session, each_route, tmp_path):
    from kgx.pipelines.relational import dormant_rich_customers

    sf, want = _dormant_fixture(tmp_path)
    for out in each_route(lambda: dormant_rich_customers(str(sf))):
        got = {r.c_mktsegment: (int(r.n_cust), int(r.sum_bal_cents))
               for r in out.itertuples()}
        assert got == want


def test_dormant_rich_empty_result_keeps_schema(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from kgx.pipelines.relational import dormant_rich_customers

    # every customer ordered recently -> empty result, typed columns
    cust = pa.table({"c_custkey": pa.array([0, 1], pa.int64()),
                     "c_mktsegment": pa.array(["A", "B"]),
                     "c_acctbal": pa.array([10.0, 20.0])})
    orders = pa.table(
        {"o_custkey": pa.array([0, 1], pa.int64()),
         "o_orderdate": pa.array(
             [np.datetime64("2001-06-01", "us")] * 2)})
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(cust, sf / "customer.parquet")
    pq.write_table(orders, sf / "orders.parquet")
    out = dormant_rich_customers(str(sf))
    assert list(out.columns) == ["c_mktsegment", "n_cust", "sum_bal_cents"]
    assert len(out) == 0


# ---------------------------------------------------------------------------
# KG two-hop path counts
# ---------------------------------------------------------------------------


def test_two_hop_paths_bruteforce(ray_session):
    import ray.data as rd

    from kgx.stages.kg_stages import two_hop_paths

    rng = np.random.default_rng(73)
    nodes = [f"e{i}" for i in range(12)]
    n_edges = 120
    subj = rng.choice(nodes, size=n_edges)
    obj = rng.choice(nodes, size=n_edges)
    tbl = pa.table({"subj": pa.array(subj), "obj": pa.array(obj)})
    out = _collect(two_hop_paths(rd.from_arrow(tbl)))
    got = {(r.subj, r.obj2): int(r.n_paths) for r in out.itertuples()}

    edges = sorted({(s, o) for s, o in zip(subj, obj)})
    from collections import Counter, defaultdict

    outs = defaultdict(list)
    for s, o in edges:
        outs[s].append(o)
    want = Counter()
    for s, m in edges:
        for o2 in outs[m]:
            want[(s, o2)] += 1
    assert got == dict(want) and len(want) > 50


# ---------------------------------------------------------------------------
# Exact global-percentile length filter
# ---------------------------------------------------------------------------


def test_length_percentile_filter_matches_serial(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from kgx.stages.corpus import length_percentile_filter

    rng = np.random.default_rng(79)
    n = 400
    # heavy ties around the cutoff region
    lens = rng.integers(10, 60, size=n).astype(np.int64)
    tbl = pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)),
                    "n_chars": pa.array(lens)})
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(tbl, sf / "documents.parquet")

    p = 90
    s = np.sort(lens)
    cutoff = int(s[(n * p + 99) // 100 - 1])  # ascending ceil-rank value
    want = {(int(i), int(l)) for i, l in enumerate(lens) if l >= cutoff}
    out = _collect(length_percentile_filter(str(sf), p=p))
    got = {(int(r.doc_id), int(r.n_chars)) for r in out.itertuples()}
    assert got == want
    assert n // 20 < len(want) < n // 5  # ties make it > exactly 10%


# ---------------------------------------------------------------------------
# keyword search (query-side tf-idf)
# ---------------------------------------------------------------------------


def test_keyword_search_matches_serial(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from kgx.functions.text import tokenize
    from kgx.stages.corpus import IDF_SCALE, keyword_search

    rng = np.random.default_rng(83)
    vocab = ["hash", "join", "filter", "scan", "table", "row", "col"]
    n = 120
    texts = [" ".join(rng.choice(vocab, size=rng.integers(5, 40)))
             for _ in range(n)]
    tbl = pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)),
                    "text": pa.array(texts)})
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(tbl, sf / "documents.parquet")

    terms, k = ("hash", "join"), 7
    from collections import Counter

    dfv = Counter()
    tfs = []
    for t in texts:
        c = Counter(tok for tok in tokenize(t) if tok in terms)
        tfs.append(c)
        for term in set(c):
            dfv[term] += 1
    idf = {t: (n * IDF_SCALE) // dfv[t] if dfv[t] else 0 for t in terms}
    scores = [(i, sum(c[t] * idf[t] for t in terms))
              for i, c in enumerate(tfs)]
    ranked = sorted([s for s in scores if s[1] > 0],
                    key=lambda x: (-x[1], x[0]))[:k]
    want = [(i, s, r) for r, (i, s) in enumerate(ranked, start=1)]

    import ray.data as rd

    out = _collect(keyword_search(
        rd.read_parquet(str(sf / "documents.parquet")), n,
        terms=terms, k=k))
    got = [(int(r.doc_id), int(r.score), int(r.rank))
           for r in out.sort_values("rank").itertuples()]
    assert got == want and len(want) == k


# ---------------------------------------------------------------------------
# Q11-shaped part-type value share
# ---------------------------------------------------------------------------


def _value_share_fixture(tmp_path):
    import pyarrow.parquet as pq

    rng = np.random.default_rng(89)
    n_parts, n_lines = 40, 900
    ptype = rng.choice(["A", "B", "C", "D"], size=n_parts,
                       p=[0.55, 0.25, 0.15, 0.05])
    parts = pa.table(
        {"p_partkey": pa.array(np.arange(n_parts, dtype=np.int64)),
         "p_type": ptype})
    lpk = rng.integers(0, n_parts + 5, size=n_lines).astype(np.int64)
    ep = np.round(rng.uniform(1.0, 400.0, size=n_lines), 2)
    lines = pa.table({"l_partkey": pa.array(lpk),
                      "l_extendedprice": pa.array(ep)})
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(parts, sf / "part.parquet")
    pq.write_table(lines, sf / "lineitem.parquet")

    from collections import defaultdict

    sums = defaultdict(int)
    for k, e in zip(lpk, ep):
        if k < n_parts:
            sums[str(ptype[k])] += int(np.floor(e * 100 + 0.5))
    tot = sum(sums.values())
    num, den = 1, 5
    want = {t: (v, v * 10_000 // tot) for t, v in sums.items()
            if v * den > tot * num}
    return sf, want, (num, den)


def test_value_share_matches_serial(ray_session, tmp_path):
    from kgx.pipelines.relational import part_value_share

    sf, want, (num, den) = _value_share_fixture(tmp_path)
    out = part_value_share(str(sf), num=num, den=den)
    got = {r.p_type: (int(r.value_cents), int(r.share_permyriad))
           for r in out.itertuples()}
    assert got == want
    assert 0 < len(want) < 4  # the HAVING actually filters


def test_value_share_both_routes_agree(ray_session, each_route, tmp_path):
    from kgx.pipelines.relational import part_value_share

    sf, want, (num, den) = _value_share_fixture(tmp_path)
    for out in each_route(
            lambda: part_value_share(str(sf), num=num, den=den)):
        got = {r.p_type: (int(r.value_cents), int(r.share_permyriad))
               for r in out.itertuples()}
        assert got == want


# ---------------------------------------------------------------------------
# cluster x label contingency (purity input)
# ---------------------------------------------------------------------------


def test_kmeans_purity_matches_serial(ray_session, tmp_path):
    import pyarrow.parquet as pq
    import ray.data as rd

    from kgx.stages.kmeans import (KM_ITERS, KM_K, _argmin_cluster, _fit,
                                   kmeans_purity, quantized_matrix)

    rng = np.random.default_rng(97)
    n, d = 300, 8
    emb = rng.normal(0, 1, size=(n, d)).astype(np.float32)
    lab = rng.integers(0, 4, size=n).astype(np.int32)
    tbl = pa.table({"vec_id": pa.array(np.arange(n, dtype=np.int64)),
                    "embedding": pa.array(list(emb),
                                          pa.list_(pa.float32())),
                    "label": pa.array(lab)})
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(tbl, sf / "embeddings.parquet")

    ds = rd.read_parquet(str(sf / "embeddings.parquet"))
    out = _collect(kmeans_purity(ds))
    got = {(int(r.cluster), int(r.label)): int(r.n_vecs)
           for r in out.itertuples()}

    # serial replica over the same fit
    ds2 = rd.read_parquet(str(sf / "embeddings.parquet"))
    pinned, cents = _fit(ds2, KM_K, KM_ITERS)
    ids, q = quantized_matrix(tbl)
    best = _argmin_cluster(q, cents) + 1
    from collections import Counter

    want = Counter((int(c), int(l)) for c, l in zip(best, lab))
    assert got == dict(want)
    assert sum(got.values()) == n and len(got) > KM_K


# ---------------------------------------------------------------------------
# every-Nth-frame explode
# ---------------------------------------------------------------------------


def test_frame_sample_matches_scalar(ray_session):
    import ray.data as rd

    from kgx.stages.multimodal import (FRAME_BYTES, FRAME_EVERY,
                                       FrameSampleStage,
                                       attach_payload_batch)

    rng = np.random.default_rng(101)
    texts = ["".join(chr(rng.integers(32, 127)) for _ in
                     range(rng.integers(0, 300))) for _ in range(40)]
    tbl = pa.table({"doc_id": pa.array(np.arange(40, dtype=np.int64)),
                    "text": pa.array(texts)})
    out = FrameSampleStage()(attach_payload_batch(tbl)).to_pandas()
    got = {(int(r.doc_id), int(r.frame_idx)):
           (int(r.frame_len), int(r.frame_sum))
           for r in out.itertuples()}

    want = {}
    for i, t in enumerate(texts):
        body = t.encode()
        n_frames = (len(body) + FRAME_BYTES - 1) // FRAME_BYTES
        for fi in range(0, n_frames, FRAME_EVERY):
            chunk = body[fi * FRAME_BYTES:(fi + 1) * FRAME_BYTES]
            want[(i, fi)] = (len(chunk), sum(chunk))
    assert got == want and len(want) > 40


# ---------------------------------------------------------------------------
# Q16-shaped distinct suppliers per part type
# ---------------------------------------------------------------------------


def _supplier_types_fixture(tmp_path):
    import pyarrow.parquet as pq

    rng = np.random.default_rng(103)
    n_parts, n_lines = 30, 800
    ptype = rng.choice(["A", "B", "C"], size=n_parts)
    parts = pa.table(
        {"p_partkey": pa.array(np.arange(n_parts, dtype=np.int64)),
         "p_type": ptype})
    lpk = rng.integers(0, n_parts + 4, size=n_lines).astype(np.int64)
    sup = rng.integers(0, 25, size=n_lines).astype(np.int64)
    lines = pa.table({"l_partkey": pa.array(lpk),
                      "l_suppkey": pa.array(sup)})
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(parts, sf / "part.parquet")
    pq.write_table(lines, sf / "lineitem.parquet")
    from collections import defaultdict

    pairs = defaultdict(set)
    for k, s in zip(lpk, sup):
        if k < n_parts:
            pairs[str(ptype[k])].add(int(s))
    return sf, {t: len(v) for t, v in pairs.items()}


def test_supplier_types_matches_serial(ray_session, tmp_path):
    from kgx.pipelines.relational import supplier_type_counts

    sf, want = _supplier_types_fixture(tmp_path)
    out = supplier_type_counts(str(sf))
    got = {r.p_type: int(r.n_suppliers) for r in out.itertuples()}
    assert got == want and want


def test_supplier_types_both_routes_agree(ray_session, each_route,
                                         tmp_path):
    from kgx.pipelines.relational import supplier_type_counts

    sf, want = _supplier_types_fixture(tmp_path)
    for out in each_route(lambda: supplier_type_counts(str(sf))):
        got = {r.p_type: int(r.n_suppliers) for r in out.itertuples()}
        assert got == want


# ---------------------------------------------------------------------------
# cohort retention matrix
# ---------------------------------------------------------------------------


def test_cohort_matrix_matches_serial(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from kgx.pipelines.relational import cohort_matrix

    rng = np.random.default_rng(107)
    n = 1200
    base = np.datetime64("2023-01-02", "us")
    ts = base + rng.integers(0, 90 * 86_400_000_000, size=n).astype(
        "timedelta64[us]")
    uid = rng.integers(0, 60, size=n).astype(np.int64)
    tbl = pa.table({"event_id": pa.array(np.arange(n, dtype=np.int64)),
                    "ts": pa.array(ts), "user_id": pa.array(uid)})
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(tbl, sf / "events.parquet")

    wk = (ts.astype("datetime64[D]").astype(np.int64)) // 7
    from collections import defaultdict

    weeks = defaultdict(set)
    for u, w in zip(uid, wk):
        weeks[int(u)].add(int(w))
    want = defaultdict(int)
    for u, ws in weeks.items():
        c = min(ws)
        for w in ws:
            want[(c, w - c)] += 1
    out = _collect(cohort_matrix(str(sf)))
    got = {(int(r.cohort_week), int(r.weeks_since)): int(r.n_users)
           for r in out.itertuples()}
    assert got == dict(want)
    assert len(want) > 20  # a real triangle, not a degenerate strip


def test_cohort_matrix_batch_without_users(ray_session, tmp_path):
    """A batch whose rows all lack a user_id has no rows after the null
    filter and contributes no cohort (the mirror drops null users)."""
    import pyarrow.parquet as pq

    from kgx.pipelines.relational import cohort_matrix

    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(pa.table(
        {"event_id": pa.array([1, 2], pa.int64()),
         "ts": pa.array(np.array(["2023-01-02", "2023-01-09"],
                                 "datetime64[us]")),
         "user_id": pa.array([None, None], pa.int64())}),
        sf / "events.parquet")
    assert len(_collect(cohort_matrix(str(sf)))) == 0


# ---------------------------------------------------------------------------
# component-size histogram
# ---------------------------------------------------------------------------


def test_cc_size_histogram_islands(ray_session):
    import ray.data as rd

    from kgx.stages.graph import cc_size_histogram

    # three islands: a path of 4, a triangle of 3, an edge of 2 (undirected
    # input convention: both directions present, like supplier_part_edges)
    und = [(0, 1), (1, 2), (2, 3), (10, 11), (11, 12), (12, 10), (20, 21)]
    src = [a for a, b in und] + [b for a, b in und]
    dst = [b for a, b in und] + [a for a, b in und]
    edges = rd.from_arrow(pa.table(
        {"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())}))
    out = _collect(cc_size_histogram(edges, rounds=6))
    got = {int(r.size): int(r.n_components) for r in out.itertuples()}
    assert got == {4: 1, 3: 1, 2: 1}
