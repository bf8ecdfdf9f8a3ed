"""Round-4 operators: mergeable histogram quantile sketch, PMI
collocations, k-means over embeddings — property-tested against serial
brute force (the driver's SQL oracle is the other gate;
scripts/check_queries.py).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from kgx.stages.sketch import QUANT_BIN_W, quantile_histogram


def _collect(ds):
    frames = [
        b.to_pandas()
        for b in ds.iter_batches(batch_size=None, batch_format="pyarrow")
    ]
    return (
        pd.concat(frames, ignore_index=True) if frames else pd.DataFrame()
    )


# ---------------------------------------------------------------------------
# quantile histogram sketch
# ---------------------------------------------------------------------------


def _serial_quantile_hist(prices, bin_w, ps):
    cents = np.floor(np.asarray(prices) * 100.0 + 0.5).astype(np.int64)
    bins, cnt = np.unique(cents // bin_w, return_counts=True)
    cum = cnt.cumsum()
    n = int(cum[-1])
    out = {}
    for p in ps:
        target = (n * p + 99) // 100
        i = int(np.searchsorted(cum, target, side="left"))
        out[p] = int(bins[i]) * bin_w + bin_w // 2
    return out


def test_quantile_histogram_matches_serial_and_bounds_error(ray_session):
    import ray.data as rd

    rng = np.random.RandomState(11)
    prices = np.round(rng.lognormal(7.0, 1.0, size=20_000), 2)
    ds = rd.from_arrow(pa.table({"l_extendedprice": prices})).repartition(16)
    got = _collect(quantile_histogram(ds)).set_index("p")["est_cents"]

    want = _serial_quantile_hist(prices, QUANT_BIN_W, (50, 90, 99))
    for p, est in want.items():
        assert got[p] == est  # merge order cannot change the histogram
        exact = np.percentile(
            np.floor(prices * 100.0 + 0.5).astype(np.int64), p,
            method="inverted_cdf",
        )
        # estimate lands in the exact value's bin: error <= bin width
        assert abs(got[p] - exact) <= QUANT_BIN_W


def test_quantile_histogram_empty_input(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(
        pa.table({"l_extendedprice": pa.array([], pa.float64())})
    )
    got = _collect(quantile_histogram(ds))
    assert len(got) == 0


def test_quantile_histogram_single_bin(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(pa.table({"l_extendedprice": [5.0] * 100}))
    got = _collect(quantile_histogram(ds))
    assert (got["est_cents"] == QUANT_BIN_W // 2).all()
    assert sorted(got["p"]) == [50, 90, 99]


# ---------------------------------------------------------------------------
# PMI collocations
# ---------------------------------------------------------------------------


def _brute_pmi(texts, k, min_pair):
    import collections

    from kgx.functions.text import tokenize
    from kgx.stages.corpus import PMI_SCALE

    bg = []
    for t in texts:
        toks = tokenize(t)
        bg.extend(zip(toks, toks[1:]))
    n = len(bg)
    c12 = collections.Counter(bg)
    c1 = collections.Counter(a for a, _ in bg)
    c2 = collections.Counter(b for _, b in bg)
    rows = [
        (f"{a} {b}", c, (c * n * PMI_SCALE) // (c1[a] * c2[b]))
        for (a, b), c in c12.items() if c >= min_pair
    ]
    rows.sort(key=lambda r: (-r[2], r[0]))
    return rows[:k]


def test_pmi_topk_matches_brute_force(ray_session):
    import ray.data as rd

    from kgx.stages.corpus import pmi_topk

    rng = np.random.RandomState(5)
    vocab = [f"w{i}" for i in range(12)]
    texts = [" ".join(rng.choice(vocab, size=rng.randint(0, 25)))
             for _ in range(250)]
    # plant a strong collocation: "neural nets" always adjacent
    texts += ["filler neural nets filler"] * 8
    ds = rd.from_arrow(
        pa.table({"doc_id": list(range(len(texts))), "text": texts})
    ).repartition(8)
    got = _collect(pmi_topk(ds, k=15, min_pair=3))
    want = _brute_pmi(texts, 15, 3)
    assert (
        list(zip(got["gram"], got["pair_count"], got["pmi_score"])) == want
    )
    assert got["rank"].tolist() == list(range(1, len(want) + 1))
    assert "neural nets" in set(got["gram"])


def test_pmi_scores_bigint_fallback_matches_fastpath():
    from kgx.stages.corpus import PMI_SCALE, pmi_scores_np

    c12 = np.array([3, 7, 2], dtype=np.int64)
    c1 = np.array([10, 14, 9], dtype=np.int64)
    c2 = np.array([5, 7, 3], dtype=np.int64)
    small = pmi_scores_np(c12, c1, c2, 1000)
    expect = [(int(a) * 1000 * PMI_SCALE) // (int(x) * int(y))
              for a, x, y in zip(c12, c1, c2)]
    assert small.tolist() == expect
    # force the big-int branch: numerator would overflow int64
    n_huge = 2**52
    big = pmi_scores_np(c12, c1, c2, n_huge)
    expect_big = [(int(a) * n_huge * PMI_SCALE) // (int(x) * int(y))
                  for a, x, y in zip(c12, c1, c2)]
    assert big.tolist() == expect_big


def test_pmi_topk_empty_and_single_token_corpus(ray_session):
    import ray.data as rd

    from kgx.stages.corpus import pmi_topk

    ds = rd.from_arrow(
        pa.table({"doc_id": [0, 1], "text": ["solo", ""]})
    )
    got = _collect(pmi_topk(ds, k=5, min_pair=1))
    assert len(got) == 0


# ---------------------------------------------------------------------------
# k-means over embeddings
# ---------------------------------------------------------------------------


def _serial_kmeans(vecs, k, iters):
    from kgx.stages.kmeans import KM_OFFSET, KM_SCALE

    q = np.floor(np.asarray(vecs, dtype=np.float64) * KM_SCALE + 0.5)
    q = q.astype(np.int64) + KM_OFFSET
    cents = q[:k].copy()  # rows pre-sorted by vec_id in callers
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
    return d2.argmin(axis=1) + 1


def test_kmeans_matches_serial_lloyd(ray_session):
    import ray.data as rd

    from kgx.stages.kmeans import kmeans_labels

    rng = np.random.RandomState(17)
    # three separated blobs INTERLEAVED so the first-k seeds span all
    # blobs (first-k seeding with clumped ids degenerates by design)
    blobs = [rng.normal(loc, 0.05, size=(60, 8)) for loc in (-1.0, 0.0, 1.0)]
    vecs = np.stack(blobs, axis=1).reshape(-1, 8).astype(np.float32)
    blob_of = np.tile(np.arange(3), 60)
    ids = np.arange(len(vecs), dtype=np.int64)
    tbl = pa.table(
        {"vec_id": ids,
         "embedding": pa.FixedSizeListArray.from_arrays(
             pa.array(vecs.ravel()), 8).cast(pa.list_(pa.float32()))}
    )
    ds = rd.from_arrow(tbl).repartition(7)
    got = _collect(kmeans_labels(ds, k=3, iters=3)).sort_values("vec_id")
    want = _serial_kmeans(vecs, 3, 3)
    assert got["cluster"].tolist() == want.tolist()
    # each blob lands in exactly one internally-consistent cluster
    lab = got["cluster"].to_numpy()
    for b in range(3):
        assert len(np.unique(lab[blob_of == b])) == 1


def test_kmeans_empty_cluster_keeps_seed(ray_session):
    import ray.data as rd

    from kgx.stages.kmeans import kmeans_labels

    # two tight groups, k=3: the third seed goes empty and must not crash
    vecs = np.array([[0.0, 0.0], [0.01, 0.0], [0.0, 0.01],
                     [1.0, 1.0], [1.01, 1.0], [1.0, 1.01]], dtype=np.float32)
    tbl = pa.table(
        {"vec_id": np.arange(6, dtype=np.int64),
         "embedding": pa.FixedSizeListArray.from_arrays(
             pa.array(vecs.ravel()), 2).cast(pa.list_(pa.float32()))}
    )
    got = _collect(kmeans_labels(rd.from_arrow(tbl), k=3, iters=2))
    want = _serial_kmeans(vecs, 3, 2)
    assert got.sort_values("vec_id")["cluster"].tolist() == want.tolist()


def test_kmeans_quantize_offset_nonnegative():
    from kgx.stages.kmeans import quantized_matrix

    tbl = pa.table(
        {"vec_id": np.arange(2, dtype=np.int64),
         "embedding": pa.array([[-0.9, 0.3], [0.0, -0.0001]],
                               pa.list_(pa.float32()))}
    )
    ids, q = quantized_matrix(tbl)
    assert (q >= 0).all()  # DuckDB // truncates; non-negative => floor==trunc
    assert ids.tolist() == [0, 1]


# ---------------------------------------------------------------------------
# sequence packing (global prefix sum)
# ---------------------------------------------------------------------------


def test_pack_sequences_matches_serial_prefix_sum(ray_session):
    import ray.data as rd

    from kgx.functions.text import tokenize
    from kgx.stages.corpus import pack_sequences

    rng = np.random.RandomState(23)
    texts = [" ".join(f"w{j}" for j in range(rng.randint(0, 40)))
             for _ in range(400)]
    # non-dense, shuffled doc_ids: the range bucketing must not assume
    # density or order
    ids = (np.arange(400, dtype=np.int64) * 7 + 13)
    perm = rng.permutation(400)
    ds = rd.from_arrow(
        pa.table({"doc_id": ids[perm], "text": [texts[i] for i in perm]})
    ).repartition(9)
    got = _collect(pack_sequences(ds, window=64)).sort_values("doc_id")

    nt = np.array([len(tokenize(t)) for t in texts], dtype=np.int64)
    pre = np.cumsum(nt) - nt  # exclusive, in doc_id order
    assert got["doc_id"].tolist() == ids.tolist()
    assert got["n_tokens"].tolist() == nt.tolist()
    assert got["seq_id"].tolist() == (pre // 64).tolist()
    assert got["seq_offset"].tolist() == (pre % 64).tolist()


def test_pack_sequences_empty_corpus(ray_session):
    import ray.data as rd

    from kgx.stages.corpus import pack_sequences

    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array([], pa.int64()),
                  "text": pa.array([], pa.string())})
    )
    assert len(_collect(pack_sequences(ds))) == 0


def test_mention_ord_assigned_at_producer():
    """Layout-independence regression (r4 --small-blocks sweep): the
    per-segment scan ordinal is assigned by mentions_for_segment itself,
    not by a downstream per-block cumcount."""
    from kgx.functions.extract_kg import AliasMatcher
    from kgx.functions.pipeline_core import mentions_for_segment
    from kgx.synth import build_knowledge_base

    kb = build_knowledge_base()
    aliases = AliasMatcher(kb["alias_table"].to_pylist())
    surf = kb["alias_table"]["alias"][0].as_py()
    seg = {"url": "u", "seg_id": 0,
           "text": f"{surf} filler {surf} filler {surf}", "lang": "en"}
    rows = mentions_for_segment(seg, aliases)
    assert [r["mention_ord"] for r in rows] == list(range(len(rows)))
    assert len(rows) >= 3


# ---------------------------------------------------------------------------
# triangle counting
# ---------------------------------------------------------------------------


def test_pairs_within_groups_vectorized():
    from kgx.stages.triangles import _group_bounds, _pairs_within_groups

    keys = np.array([1, 1, 1, 2, 3, 3])
    starts, sizes = _group_bounds(keys)
    li, ri = _pairs_within_groups(starts, sizes, len(keys))
    got = sorted(zip(li.tolist(), ri.tolist()))
    assert got == [(0, 1), (0, 2), (1, 2), (4, 5)]
    # empty + singleton groups
    li, ri = _pairs_within_groups(*_group_bounds(np.array([7])), 1)
    assert len(li) == 0


def _brute_triangles(order_supp):
    import itertools

    edges = set()
    by_order = {}
    for o, s in order_supp:
        by_order.setdefault(o, set()).add(s)
    for supps in by_order.values():
        for a, b in itertools.combinations(sorted(supps), 2):
            edges.add((a, b))
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    n = 0
    for a, b in edges:
        n += len(adj[a] & adj[b])
    return n // 3  # each triangle is counted once per its 3 edges


def test_triangles_match_brute_force(ray_session):
    import ray.data as rd

    from kgx.stages.triangles import cosupplier_triangles

    rng = np.random.RandomState(29)
    rows = [(int(o), int(rng.randint(0, 25)))
            for o in rng.randint(0, 120, size=600)]
    tbl = pa.table(
        {"l_orderkey": [o for o, _ in rows],
         "l_suppkey": [s for _, s in rows]}
    )
    ds = rd.from_arrow(tbl).repartition(6)
    got = _collect(cosupplier_triangles(ds))
    want = _brute_triangles(rows)
    assert got["n_triangles"].tolist() == [want]
    assert want > 0  # the corpus is dense enough to have triangles


def test_triangles_empty_and_triangle_free(ray_session):
    import ray.data as rd

    from kgx.stages.triangles import cosupplier_triangles

    # a pure star (orders sharing supplier 0 with ONE other) is
    # triangle-free
    tbl = pa.table(
        {"l_orderkey": [1, 1, 2, 2, 3, 3],
         "l_suppkey": [0, 1, 0, 2, 0, 3]}
    )
    got = _collect(cosupplier_triangles(rd.from_arrow(tbl)))
    assert got["n_triangles"].tolist() == [0]


def test_triangles_exchange_path_agrees_with_broadcast(ray_session,
                                                       each_route):
    import ray.data as rd

    from kgx.stages.triangles import cosupplier_triangles

    rng = np.random.RandomState(31)
    rows = [(int(o), int(rng.randint(0, 20)))
            for o in rng.randint(0, 80, size=400)]
    tbl = pa.table(
        {"l_orderkey": [o for o, _ in rows],
         "l_suppkey": [s for _, s in rows]}
    )
    ds = rd.from_arrow(tbl).repartition(5)
    bcast, forced = each_route(lambda: _collect(cosupplier_triangles(ds)))
    assert bcast["n_triangles"].tolist() == forced["n_triangles"].tolist()
    assert _brute_triangles(rows) == bcast["n_triangles"].iloc[0]


# ---------------------------------------------------------------------------
# composed Q3-shape pipeline
# ---------------------------------------------------------------------------


def test_top_revenue_orders_vs_pandas(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from kgx.pipelines.relational import top_revenue_orders

    rng = np.random.RandomState(37)
    n_cust, n_ord, n_line = 40, 200, 900
    cust = pa.table(
        {"c_custkey": np.arange(n_cust, dtype=np.int64),
         "c_mktsegment": [("BUILDING" if i % 3 == 0 else "AUTO")
                          for i in range(n_cust)]}
    )
    orders = pa.table(
        {"o_orderkey": np.arange(n_ord, dtype=np.int64),
         "o_custkey": rng.randint(0, n_cust, n_ord).astype(np.int64)}
    )
    line = pa.table(
        {"l_orderkey": rng.randint(0, n_ord, n_line).astype(np.int64),
         "l_extendedprice": np.round(rng.uniform(1, 1000, n_line), 2),
         "l_discount": np.round(rng.choice([0.0, 0.05, 0.1], n_line), 2)}
    )
    for name, t in [("customer", cust), ("orders", orders),
                    ("lineitem", line)]:
        pq.write_table(t, tmp_path / f"{name}.parquet")

    got = _collect(top_revenue_orders(str(tmp_path), k=7))

    seg_cust = set(np.flatnonzero(np.arange(n_cust) % 3 == 0).tolist())
    keep = {int(o) for o, c in zip(orders["o_orderkey"].to_numpy(),
                                   orders["o_custkey"].to_numpy())
            if int(c) in seg_cust}
    cents = np.floor(line["l_extendedprice"].to_numpy() * 100 + 0.5)
    dpct = np.floor(line["l_discount"].to_numpy() * 100 + 0.5)
    rev = (cents * (100 - dpct)).astype(np.int64)
    agg: dict[int, int] = {}
    for o, r in zip(line["l_orderkey"].to_numpy(), rev):
        if int(o) in keep:
            agg[int(o)] = agg.get(int(o), 0) + int(r)
    want = sorted(agg.items(), key=lambda kv: (-kv[1], kv[0]))[:7]
    assert list(zip(got["o_orderkey"], got["revenue_cp"])) == want
    assert got["rank"].tolist() == list(range(1, len(want) + 1))


# ---------------------------------------------------------------------------
# round-exact CC (shared Pregel, third consumer)
# ---------------------------------------------------------------------------


def _serial_cc_rounds(edges, rounds):
    nodes = sorted({n for e in edges for n in e})
    lab = {n: n for n in nodes}
    adj = {}
    for s, d in edges:
        adj.setdefault(s, []).append(d)
    for _ in range(rounds):
        new = dict(lab)
        for n in nodes:
            m = min((lab[x] for x in adj.get(n, [])), default=lab[n])
            new[n] = min(lab[n], m)
        lab = new
    return lab


def test_cc_rounds_matches_serial_recurrence(ray_session):
    import ray.data as rd

    from kgx.stages.graph import cc_rounds_ds

    rng = np.random.RandomState(41)
    # two components: a long chain (diameter > rounds, so labels must
    # match the ROUND-EXACT recurrence, not converged CC) + a clique
    chain = [(i, i + 1) for i in range(100, 130)]
    clique = [(a, b) for a in range(0, 6) for b in range(0, 6) if a != b]
    und = chain + [(b, a) for a, b in chain] + clique
    tbl = pa.table(
        {"src": [a for a, _ in und], "dst": [b for _, b in und]}
    )
    ds = rd.from_arrow(tbl).repartition(4)
    got = _collect(cc_rounds_ds(ds, rounds=5)).sort_values("node")
    want = _serial_cc_rounds(und, 5)
    assert dict(zip(got["node"], got["label"])) == want
    # the clique (diameter 1) fully converged to its min id
    assert all(want[n] == 0 for n in range(6))
    # the chain did NOT fully converge in 5 rounds — the round-exact
    # contract is what the oracle checks
    assert want[129] == 124


def test_grouped_quantile_histogram_vs_serial(ray_session):
    import ray.data as rd

    from kgx.stages.sketch import grouped_quantile_histogram

    rng = np.random.RandomState(43)
    flags = rng.choice(["A", "N", "R"], size=8000)
    prices = np.round(rng.lognormal(6.5, 0.8, size=8000), 2)
    ds = rd.from_arrow(
        pa.table({"l_returnflag": flags, "l_extendedprice": prices})
    ).repartition(11)
    got = _collect(grouped_quantile_histogram(ds))
    for flag in "ANR":
        sub = prices[flags == flag]
        want = _serial_quantile_hist(sub, QUANT_BIN_W, (50, 90, 99))
        g = got[got["l_returnflag"] == flag].set_index("p")["est_cents"]
        for p, est in want.items():
            assert g[p] == est


# ---------------------------------------------------------------------------
# hostile nulls (the r3 hostile-input tradition: null ingest must DROP,
# never NaN-poison — floor(nan).astype(int64) is INT64_MIN garbage)
# ---------------------------------------------------------------------------


def test_round4_ops_drop_nulls(ray_session):
    import ray.data as rd

    from kgx.stages.kmeans import kmeans_labels
    from kgx.stages.sketch import grouped_quantile_histogram
    from kgx.stages.triangles import cosupplier_triangles

    # global quantile: null price rows contribute nothing
    got = _collect(quantile_histogram(rd.from_arrow(
        pa.table({"l_extendedprice": pa.array([5.0, None, 5.0],
                                              pa.float64())})
    )))
    assert (got["est_cents"] == QUANT_BIN_W // 2).all()

    # grouped: null flag / null price rows drop (no INT64_MIN bins)
    got = _collect(grouped_quantile_histogram(rd.from_arrow(
        pa.table({"l_returnflag": pa.array(["A", None, "A"]),
                  "l_extendedprice": pa.array([5.0, 2.0, None],
                                              pa.float64())})
    )))
    assert got["l_returnflag"].tolist() == ["A"] * 3
    assert (got["est_cents"] == QUANT_BIN_W // 2).all()

    # kmeans: null embedding rows drop from seeds AND assignment
    tbl = pa.table(
        {"vec_id": pa.array([0, 1, 2, 3], pa.int64()),
         "embedding": pa.array([[0.1, 0.2], None, [0.9, 0.8], [0.11, 0.2]],
                               pa.list_(pa.float32()))}
    )
    got = _collect(kmeans_labels(rd.from_arrow(tbl), k=2, iters=1))
    assert sorted(got["vec_id"]) == [0, 2, 3]

    # triangles: null lineitem keys drop before pair generation
    got = _collect(cosupplier_triangles(rd.from_arrow(pa.table(
        {"l_orderkey": pa.array([1, 1, 1, None], pa.int64()),
         "l_suppkey": pa.array([0, 1, 2, 3], pa.int64())}
    ))))
    assert got["n_triangles"].tolist() == [1]


def test_top_revenue_null_rows_drop(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from kgx.pipelines.relational import top_revenue_orders

    pq.write_table(pa.table(
        {"c_custkey": pa.array([1, 2], pa.int64()),
         "c_mktsegment": ["BUILDING", "BUILDING"]}), tmp_path / "customer.parquet")
    pq.write_table(pa.table(
        {"o_orderkey": pa.array([10, 11, None], pa.int64()),
         "o_custkey": pa.array([1, 2, 1], pa.int64())}), tmp_path / "orders.parquet")
    pq.write_table(pa.table(
        {"l_orderkey": pa.array([10, 10, 11, None], pa.int64()),
         "l_extendedprice": pa.array([1.0, None, 2.0, 3.0], pa.float64()),
         "l_discount": pa.array([0.0, 0.0, 0.1, 0.0], pa.float64())}),
        tmp_path / "lineitem.parquet")
    got = _collect(top_revenue_orders(str(tmp_path), k=5))
    # order 10: one valid line 1.00 at 0% = 100*100; order 11: 2.00 at 10%
    assert dict(zip(got["o_orderkey"], got["revenue_cp"])) == {
        10: 100 * 100, 11: 200 * 90}


def test_top_revenue_orders_exchange_route(ray_session, each_route,
                                           tmp_path):
    """A segment key set too big to broadcast takes the exchange route and
    returns the broadcast route's rows (it raised NotImplementedError)."""
    import duckdb
    import pyarrow.parquet as pq

    from kgx.pipelines.relational import (sql_top_revenue_orders,
                                          top_revenue_orders)

    rng = np.random.RandomState(5)
    n_cust, n_ord, n_line = 30, 150, 600
    tables = {
        "customer": pa.table(
            {"c_custkey": np.arange(n_cust, dtype=np.int64),
             "c_mktsegment": [("BUILDING" if i % 2 else "AUTO")
                              for i in range(n_cust)]}),
        "orders": pa.table(
            {"o_orderkey": np.arange(n_ord, dtype=np.int64),
             "o_custkey": rng.randint(0, n_cust, n_ord).astype(np.int64)}),
        "lineitem": pa.table(
            {"l_orderkey": rng.randint(0, n_ord, n_line).astype(np.int64),
             "l_extendedprice": np.round(rng.uniform(1, 1000, n_line), 2),
             "l_discount": np.round(rng.choice([0.0, 0.05], n_line), 2)}),
    }
    con = duckdb.connect()
    for name, t in tables.items():
        pq.write_table(t, tmp_path / f"{name}.parquet")
        con.execute(f"CREATE VIEW {name} AS SELECT * FROM "
                    f"'{tmp_path / name}.parquet'")
    want = con.execute(sql_top_revenue_orders()).df().astype("int64")
    for got in each_route(lambda: _collect(top_revenue_orders(str(tmp_path)))):
        assert got.astype("int64").values.tolist() == want.values.tolist()
    assert len(want) == 10


# ---------------------------------------------------------------------------
# exact-substring dedup
# ---------------------------------------------------------------------------


def test_substring_dup_pairs_vs_brute_force(ray_session):
    import ray.data as rd

    from kgx.functions.text import tokenize
    from kgx.stages.dedup import substring_dup_pairs

    boiler = "this content is provided under the standard licence terms ok"
    texts = [
        f"alpha doc one {boiler} tail a",
        f"beta doc two {boiler} tail b",
        "gamma unrelated text with nothing shared at all here folks",
        f"delta doc four {boiler} and another shared run {boiler}",
    ]
    ds = rd.from_arrow(
        pa.table({"doc_id": list(range(len(texts))), "text": texts})
    ).repartition(3)
    got = _collect(substring_dup_pairs(ds, w=6)).sort_values(
        ["doc_a", "doc_b"]).reset_index(drop=True)

    # brute force: distinct 6-token windows per doc, pairwise intersection
    wins = [
        {" ".join(tokenize(t)[i:i + 6])
         for i in range(len(tokenize(t)) - 5)}
        for t in texts
    ]
    want = []
    for a in range(len(texts)):
        for b in range(a + 1, len(texts)):
            n = len(wins[a] & wins[b])
            if n:
                want.append((a, b, n))
    assert (
        list(zip(got["doc_a"], got["doc_b"], got["n_shared_windows"]))
        == want
    )
    assert len(want) >= 3  # the boilerplate block links 0-1, 0-3, 1-3


def test_substring_dup_pairs_short_and_empty_docs(ray_session):
    import ray.data as rd

    from kgx.stages.dedup import substring_dup_pairs

    ds = rd.from_arrow(
        pa.table({"doc_id": [0, 1, 2],
                  "text": ["too short", "", None]})
    )
    assert len(_collect(substring_dup_pairs(ds, w=8))) == 0


def test_kmeans_cost_matches_serial(ray_session):
    import ray.data as rd

    from kgx.stages.kmeans import KM_OFFSET, KM_SCALE, kmeans_cost

    rng = np.random.RandomState(47)
    vecs = np.concatenate(
        [rng.normal(-1, 0.05, (40, 6)), rng.normal(1, 0.05, (40, 6))]
    )[rng.permutation(80)].astype(np.float32)
    tbl = pa.table(
        {"vec_id": np.arange(80, dtype=np.int64),
         "embedding": pa.FixedSizeListArray.from_arrays(
             pa.array(vecs.ravel()), 6).cast(pa.list_(pa.float32()))}
    )
    got = _collect(kmeans_cost(rd.from_arrow(tbl).repartition(5),
                               k=2, iters=2)).sort_values("cluster")

    # serial replica: same fit, then per-cluster sse/size
    q = np.floor(vecs.astype(np.float64) * KM_SCALE + 0.5).astype(np.int64) \
        + KM_OFFSET
    cents = q[:2].copy()
    for _ in range(2):
        d2 = ((q[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        best = d2.argmin(axis=1)
        for c in range(2):
            m = best == c
            if m.any():
                cents[c] = q[m].sum(axis=0) // int(m.sum())
    d2 = ((q[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    best = d2.argmin(axis=1)
    dist = d2[np.arange(80), best]
    for c in range(2):
        m = best == c
        row = got[got["cluster"] == c + 1]
        assert row["n_vecs"].tolist() == [int(m.sum())]
        assert row["sse"].tolist() == [int(dist[m].sum())]

