"""Round-5 batch-11 operators: TPC-H Q9 product-type profit and TPC-H Q2
minimum-cost supplier — both-paths, serial-parity, tie-set and cap tests."""

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
# rel_q9: product-type profit
# ---------------------------------------------------------------------------


def test_q9_both_paths_agree(ray_session, each_route):
    from kgx.pipelines.relational import product_profit

    sf = "/root/testdata/sf0.001"
    key = ["o_year", "n_name"]
    fast, slow = each_route(lambda: _collect(product_profit(sf))
                            .sort_values(key).reset_index(drop=True))
    pd.testing.assert_frame_equal(fast, slow)
    assert len(fast) > 0


def test_q9_matches_serial(ray_session, each_route, tmp_path):
    import pyarrow.parquet as pq

    from kgx.pipelines.relational import product_profit

    rng = np.random.default_rng(23)
    n = 400
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(pa.table(
        {"n_nationkey": pa.array([0, 1, 2], pa.int32()),
         "n_name": pa.array(["AAA", "BBB", "CCC"])}),
        sf / "nation.parquet")
    pq.write_table(pa.table(
        {"s_suppkey": np.arange(1, 7, dtype=np.int64),
         "s_nationkey": pa.array(rng.integers(0, 3, 6), pa.int32())}),
        sf / "supplier.parquet")
    # parts: half match the 'rod' substring filter, half don't; high
    # retail prices force NEGATIVE profit rows through the serial ref
    names = ["red rod", "blue bolt", "cold rod", "small widget",
             "iron rod", "green gear"]
    pq.write_table(pa.table(
        {"p_partkey": np.arange(1, 7, dtype=np.int64),
         "p_name": pa.array(names),
         "p_retailprice": np.round(rng.uniform(100, 2000, 6), 2)}),
        sf / "part.parquet")
    days = rng.integers(0, 900, 20)
    odate = (np.datetime64("1995-01-01", "us")
             + days.astype("timedelta64[D]").astype("timedelta64[us]"))
    pq.write_table(pa.table(
        {"o_orderkey": np.arange(1, 21, dtype=np.int64),
         "o_orderdate": pa.array(odate, pa.timestamp("us"))}),
        sf / "orders.parquet")
    li = pa.table(
        {"l_partkey": rng.integers(1, 8, n).astype(np.int64),   # 7 dangles
         "l_suppkey": rng.integers(1, 8, n).astype(np.int64),   # 7 dangles
         "l_orderkey": rng.integers(1, 22, n).astype(np.int64),  # 21 dangles
         "l_extendedprice": np.round(rng.uniform(1, 500, n), 2),
         "l_discount": np.round(rng.integers(0, 11, n) / 100.0, 2),
         "l_quantity": rng.integers(1, 50, n).astype(np.float64)})
    pq.write_table(li, sf / "lineitem.parquet")

    # serial reference
    ldf = li.to_pandas()
    part = pq.read_table(sf / "part.parquet").to_pandas()
    part = part[part["p_name"].str.contains("rod")]
    part["cost"] = (np.floor(part["p_retailprice"] * 100 + 0.5)
                    .astype(np.int64) // 100)
    sup = pq.read_table(sf / "supplier.parquet").to_pandas()
    orders = pq.read_table(sf / "orders.parquet").to_pandas()
    orders["o_year"] = orders["o_orderdate"].dt.year.astype(np.int64)
    nnames = {0: "AAA", 1: "BBB", 2: "CCC"}
    ldf["cents"] = (np.floor(ldf["l_extendedprice"] * 100 + 0.5)
                    .astype(np.int64)
                    * (100 - np.floor(ldf["l_discount"] * 100 + 0.5)
                       .astype(np.int64)) // 100)
    j = ldf.merge(part, left_on="l_partkey", right_on="p_partkey") \
        .merge(sup, left_on="l_suppkey", right_on="s_suppkey") \
        .merge(orders, left_on="l_orderkey", right_on="o_orderkey")
    j["amt"] = j["cents"] - j["l_quantity"].astype(np.int64) * j["cost"]
    ref = {(int(y), nnames[nk]): int(v) for (y, nk), v in
           j.groupby(["o_year", "s_nationkey"])["amt"].sum().items()}
    assert any(v < 0 for v in ref.values()), "planted data must exercise " \
        "the negative-amount branch"

    for route, out in zip(("broadcast", "exchange"), each_route(
            lambda: _collect(product_profit(str(sf))))):
        got = {(int(r.o_year), r.n_name): int(r.profit_cents)
               for r in out.itertuples()}
        assert got == ref, route


# ---------------------------------------------------------------------------
# rel_q2: minimum-cost supplier (region-scoped grouped-argmin tie set)
# ---------------------------------------------------------------------------


def test_q2_both_paths_agree(ray_session, each_route):
    from kgx.pipelines.relational import min_cost_supplier

    sf = "/root/testdata/sf0.001"
    key = ["p_partkey", "s_name"]
    fast, slow = each_route(lambda: _collect(min_cost_supplier(sf))
                            .sort_values(key).reset_index(drop=True))
    pd.testing.assert_frame_equal(fast, slow)
    assert len(fast) > 0


def _q2_fixture(tmp_path):
    """One part ('tiny widget'), three suppliers: A and B in the region
    TIED at the regional minimum, C outside the region strictly cheaper
    — the region-scoped min must ignore C and keep BOTH A and B."""
    import pyarrow.parquet as pq

    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(pa.table(
        {"r_regionkey": pa.array([0, 1], pa.int32()),
         "r_name": pa.array(["EUROPE", "ASIA"])}), sf / "region.parquet")
    pq.write_table(pa.table(
        {"n_nationkey": pa.array([0, 1, 2], pa.int32()),
         "n_name": pa.array(["AAA", "BBB", "CCC"]),
         "n_regionkey": pa.array([0, 0, 1], pa.int32())}),
        sf / "nation.parquet")
    pq.write_table(pa.table(
        {"s_suppkey": pa.array([1, 2, 3], pa.int64()),
         "s_nationkey": pa.array([0, 1, 2], pa.int32()),
         "s_acctbal": pa.array([100.0, 900.0, 50.0]),
         "s_name": pa.array(["SuppA", "SuppB", "SuppC"])}),
        sf / "supplier.parquet")
    pq.write_table(pa.table(
        {"p_partkey": pa.array([7, 8], pa.int64()),
         "p_name": pa.array(["tiny widget", "big bolt"]),
         "p_size": pa.array([5, 5], pa.int32())}), sf / "part.parquet")
    # unit costs: A -> 1000//2 = 500, B -> 2000//4 = 500 (tie),
    # C -> 100//1 = 100 (global min, but OUTSIDE the region);
    # part 8 fails the name filter despite a cheaper pair
    pq.write_table(pa.table(
        {"l_partkey": pa.array([7, 7, 7, 8], pa.int64()),
         "l_suppkey": pa.array([1, 2, 3, 1], pa.int64()),
         "l_extendedprice": pa.array([10.0, 20.0, 1.0, 0.5]),
         "l_quantity": pa.array([2.0, 4.0, 1.0, 1.0])}),
        sf / "lineitem.parquet")
    return sf


def test_q2_region_scoped_min_keeps_ties(ray_session, each_route,
                                         tmp_path):
    from kgx.pipelines.relational import min_cost_supplier

    sf = _q2_fixture(tmp_path)
    for route, out in zip(("broadcast", "exchange"), each_route(
            lambda: _collect(min_cost_supplier(str(sf)))
            .sort_values("s_name").reset_index(drop=True))):
        assert list(out["s_name"]) == ["SuppA", "SuppB"], route
        assert list(out["unit_cents"]) == [500, 500]
        assert list(out["n_name"]) == ["AAA", "BBB"]
        assert list(out["acctbal_cents"]) == [10_000, 90_000]
        assert list(out["p_partkey"]) == [7, 7]


def test_q2_cap_orders_by_acctbal_desc(ray_session, each_route,
                                       tmp_path):
    """k=1 must keep the tie row with the HIGHER acctbal (SuppB)."""
    from kgx.pipelines.relational import min_cost_supplier

    sf = _q2_fixture(tmp_path)
    for route, out in zip(("broadcast", "exchange"), each_route(
            lambda: _collect(min_cost_supplier(str(sf), k=1)))):
        assert list(out["s_name"]) == ["SuppB"], route


# ---------------------------------------------------------------------------
# kg_cluster_sizes + kg_pagerank_share: KG graph-health artifacts
# ---------------------------------------------------------------------------


def test_kg_cluster_sizes_planted_islands(ray_session):
    """Two planted islands {A,B,C} and {D,E} -> sizes {3: 1, 2: 1}."""
    import ray.data as rd

    from kgx.stages.graph import cc_size_histogram
    from kgx.stages.kg_stages import kg_entity_edges

    tri = pd.DataFrame({"subj": ["A", "B", "D"],
                        "obj": ["B", "C", "E"]})
    out = _collect(cc_size_histogram(kg_entity_edges(rd.from_pandas(tri))))
    got = dict(zip(out["size"], out["n_components"]))
    assert got == {3: 1, 2: 1}


def test_kg_cluster_sizes_mass_conservation(ray_session):
    """sum(size * n_components) == number of labeled KG nodes."""
    from kgx.queries import kg_cluster_sizes, kg_entity_clusters

    sf = "/root/testdata/sf0.001"
    hist = _collect(kg_cluster_sizes(sf))
    nodes = _collect(kg_entity_clusters(sf))
    assert int((hist["size"] * hist["n_components"]).sum()) == len(nodes)


def test_kg_pagerank_share_consistent_with_rank_vector(ray_session):
    """The scalar fold must equal the direct top-k/total arithmetic over
    the full pagerank output (and stay within (0, 10000])."""
    from kgx.queries import kg_pagerank, kg_pagerank_share

    sf = "/root/testdata/sf0.001"
    out = _collect(kg_pagerank_share(sf))
    pr = _collect(kg_pagerank(sf))["pr"].to_numpy()
    total = int(pr.sum())
    top = int(np.sort(pr)[-15:].sum())
    assert out.iloc[0]["pr_total"] == total
    assert out.iloc[0]["pr_top"] == top
    assert out.iloc[0]["share_pm"] == 10_000 * top // total
    assert 0 < out.iloc[0]["share_pm"] <= 10_000


# ---------------------------------------------------------------------------
# kg_boilerplate: cross-page repeated-segment histogram
# ---------------------------------------------------------------------------


def test_kg_boilerplate_matches_serial(ray_session):
    """Brute-force (segment-key -> distinct-url count -> histogram) over
    the same SQL-checkable config variant must match exactly, and the
    corpus must actually exercise the cross-page branch (n_urls >= 2)."""
    import collections
    import re

    from kgx.functions.pipeline_core import segments_for_page
    from kgx.queries import _kg_sql_cfg, _kg_sql_pages, kg_boilerplate

    sf = "/root/testdata/sf0.001"
    cfg2 = _kg_sql_cfg()
    tok_re = re.compile(r"[a-z0-9_]+")
    urlmap = collections.defaultdict(set)
    for r in _kg_sql_pages(sf).take_all():
        _, segs = segments_for_page(
            r["url"], r["html"], r["text"], r["lang"], cfg2)
        for s in segs:
            k = " ".join(tok_re.findall(s["text"].lower()))
            if k:
                urlmap[k].add(r["url"])
    ref = collections.Counter(len(u) for u in urlmap.values())

    out = _collect(kg_boilerplate(sf))
    got = dict(zip(out["n_urls"], out["n_segments"]))
    assert got == dict(ref)
    assert any(n >= 2 for n in got), "corpus must contain cross-page repeats"
    assert sum(got.values()) == len(urlmap)


# ---------------------------------------------------------------------------
# rel_part_concentration: per-part lead-supplier share histogram
# ---------------------------------------------------------------------------


def test_part_concentration_planted(ray_session, tmp_path):
    """Part 1: 3-vs-1 split -> share 7500; part 2 sole-sourced -> 10000;
    part 3: even 1-1 split -> 5000; a null row drops."""
    import pyarrow.parquet as pq

    from kgx.pipelines.relational import part_concentration

    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(pa.table(
        {"l_partkey": pa.array([1, 1, 2, 3, 3, None], pa.int64()),
         "l_suppkey": pa.array([10, 11, 10, 10, 11, 10], pa.int64()),
         "l_quantity": pa.array([3.0, 1.0, 5.0, 1.0, 1.0, 9.0])}),
        sf / "lineitem.parquet")
    out = _collect(part_concentration(str(sf)))
    got = dict(zip(out["share_pm"], out["n_parts"]))
    assert got == {7500: 1, 10_000: 1, 5000: 1}


def test_part_concentration_mass(ray_session):
    """sum(n_parts) == number of distinct parts appearing in lineitem."""
    import duckdb

    from kgx.pipelines.relational import part_concentration

    sf = "/root/testdata/sf0.001"
    out = _collect(part_concentration(sf))
    n_parts = duckdb.sql(
        f"SELECT count(DISTINCT l_partkey) FROM '{sf}/lineitem.parquet' "
        "WHERE l_partkey IS NOT NULL AND l_suppkey IS NOT NULL "
        "AND l_quantity IS NOT NULL").fetchone()[0]
    assert int(out["n_parts"].sum()) == n_parts
    assert (out["share_pm"] <= 10_000).all() and (out["share_pm"] > 0).all()


# ---------------------------------------------------------------------------
# kg_growth_curve: cumulative entity growth by crawl day
# ---------------------------------------------------------------------------


def test_kg_growth_curve_consistent_with_freshness(ray_session):
    import collections

    from kgx.queries import kg_entity_freshness, kg_growth_curve

    sf = "/root/testdata/sf0.001"
    out = _collect(kg_growth_curve(sf)).sort_values("day") \
        .reset_index(drop=True)
    fresh = _collect(kg_entity_freshness(sf))
    ref = collections.Counter(int(d) for d in fresh["first_day"])
    got = dict(zip(out["day"], out["n_new"]))
    assert got == dict(ref)
    assert (out["n_cum"].to_numpy() == out["n_new"].to_numpy().cumsum()).all()
    assert int(out["n_cum"].iloc[-1]) == len(fresh)


# ---------------------------------------------------------------------------
# emb_dim_stats: per-dimension moment table
# ---------------------------------------------------------------------------


def test_emb_dim_stats_matches_serial(ray_session):
    import pyarrow.parquet as pq

    from kgx.queries import emb_dim_stats
    from kgx.stages.kmeans import KM_SCALE

    sf = "/root/testdata/sf0.001"
    t = pq.read_table(f"{sf}/embeddings.parquet", columns=["embedding"])
    mat = np.array([v for v in t["embedding"].to_pylist() if v is not None],
                   dtype=np.float64)
    q = np.floor(mat * KM_SCALE + 0.5).astype(np.int64)
    out = _collect(emb_dim_stats(sf)).sort_values("dim") \
        .reset_index(drop=True)
    assert len(out) == q.shape[1]
    assert (out["n"].to_numpy() == q.shape[0]).all()
    np.testing.assert_array_equal(out["sum_q"].to_numpy(), q.sum(axis=0))
    np.testing.assert_array_equal(out["sumsq_q"].to_numpy(),
                                  (q * q).sum(axis=0))


def test_emb_dim_stats_null_vectors_drop(ray_session, tmp_path):
    import pyarrow.parquet as pq
    import ray.data as rd

    from kgx.stages.kmeans import dim_stats

    tbl = pa.table(
        {"vec_id": pa.array([1, 2, 3], pa.int64()),
         "embedding": pa.array([[1.0, -2.0], None, [0.5, 0.25]],
                               pa.list_(pa.float32()))})
    p = tmp_path / "e.parquet"
    pq.write_table(tbl, p)
    out = _collect(dim_stats(rd.read_parquet(str(p))))
    got = out.sort_values("dim").reset_index(drop=True)
    # q rows: [1000, -2000], [500, 250]
    assert list(got["n"]) == [2, 2]
    assert list(got["sum_q"]) == [1500, -1750]
    assert list(got["sumsq_q"]) == [1000**2 + 500**2, 2000**2 + 250**2]


# ---------------------------------------------------------------------------
# text_word_len_hist + rel_order_size_hist
# ---------------------------------------------------------------------------


def test_word_len_hist_matches_serial(ray_session):
    import collections

    import duckdb

    from kgx.functions.text import tokenize
    from kgx.queries import text_word_len_hist

    sf = "/root/testdata/sf0.001"
    ref = collections.Counter()
    for (t,) in duckdb.sql(
            f"SELECT text FROM '{sf}/documents.parquet'").fetchall():
        ref.update(len(w) for w in tokenize(t or ""))
    out = _collect(text_word_len_hist(sf))
    assert dict(zip(out["wlen"], out["n_tokens"])) == dict(ref)


def test_order_size_hist_mass(ray_session):
    import duckdb

    from kgx.queries import rel_order_size_hist

    sf = "/root/testdata/sf0.001"
    out = _collect(rel_order_size_hist(sf))
    n_orders, n_lines = duckdb.sql(
        f"SELECT count(DISTINCT l_orderkey), count(*) "
        f"FROM '{sf}/lineitem.parquet' WHERE l_orderkey IS NOT NULL"
    ).fetchone()
    assert int(out["n_orders"].sum()) == n_orders
    assert int((out["n_lines"] * out["n_orders"]).sum()) == n_lines


# ---------------------------------------------------------------------------
# emb_lsh_balance: LSH bucket-size histogram
# ---------------------------------------------------------------------------


def test_lsh_balance_matches_serial(ray_session):
    import collections

    import pyarrow.parquet as pq

    from kgx.queries import emb_lsh_balance
    from kgx.stages.similarity import _bucket_codes, lsh_planes

    sf = "/root/testdata/sf0.001"
    t = pq.read_table(f"{sf}/embeddings.parquet", columns=["embedding"])
    mat = np.array([v for v in t["embedding"].to_pylist() if v is not None],
                   dtype=np.float64)
    codes = _bucket_codes(mat, lsh_planes(mat.shape[1], 8, 4))
    ref = collections.Counter()
    for ti in range(4):
        sizes = collections.Counter(codes[:, ti]).values()
        ref.update((ti, s) for s in sizes)
    out = _collect(emb_lsh_balance(sf))
    got = {(int(r.t), int(r.size)): int(r.n_buckets)
           for r in out.itertuples()}
    assert got == dict(ref)
    # mass: sizes weighted by counts recover the corpus per table
    per_t = out.groupby("t").apply(
        lambda g: int((g["size"] * g["n_buckets"]).sum()))
    assert (per_t == len(mat)).all()


# ---------------------------------------------------------------------------
# text_novelty_curve: per-crawl-day token novelty
# ---------------------------------------------------------------------------


def test_novelty_curve_matches_serial(ray_session):
    import collections

    import duckdb

    from kgx.functions.text import tokenize
    from kgx.queries import text_novelty_curve
    from kgx.synth import EPOCH_US

    sf = "/root/testdata/sf0.001"
    seen_by_day = collections.defaultdict(set)
    for doc_id, t in duckdb.sql(
            f"SELECT doc_id, text FROM '{sf}/documents.parquet'").fetchall():
        day = (EPOCH_US + int(doc_id) * 37_000_000) // 86_400_000_000
        seen_by_day[day].update(tokenize(t or ""))
    first = {}
    for day in sorted(seen_by_day):
        for tok in seen_by_day[day]:
            first.setdefault(tok, day)
    out = _collect(text_novelty_curve(sf)).sort_values("day") \
        .reset_index(drop=True)
    for r in out.itertuples():
        toks = seen_by_day[int(r.day)]
        n_new = sum(1 for t in toks if first[t] == int(r.day))
        assert int(r.n_distinct) == len(toks)
        assert int(r.n_new) == n_new
        assert int(r.novelty_pm) == 10_000 * n_new // len(toks)
    # every token is new on the first crawl day by definition
    assert int(out.iloc[0]["novelty_pm"]) == 10_000


# ---------------------------------------------------------------------------
# kg_comention_clusters: co-mention communities
# ---------------------------------------------------------------------------


def test_comention_clusters_matches_union_find(ray_session):
    """With rounds >= diameter, the round-exact label partition must
    equal true connected components (driver union-find over the same
    thresholded co-mention pairs), and the default query's node set
    must equal the thresholded edge endpoints."""
    import collections

    from kgx.functions.text import stable_hash64
    from kgx.queries import kg_comention_clusters, kg_cooccurrence
    from kgx.stages.graph import cc_rounds_ds
    from kgx.stages.kg_stages import kg_entity_edges

    sf = "/root/testdata/sf0.001"
    cooc = _collect(kg_cooccurrence(sf))
    pairs = cooc[cooc["n_pages"] >= 2]
    M62 = 1 << 62
    hs = {s: stable_hash64(s) % M62
          for s in set(pairs["surface_a"]) | set(pairs["surface_b"])}

    # driver union-find ground truth
    parent = {h: h for h in hs.values()}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["surface_a"], pairs["surface_b"]):
        ra, rb = find(hs[a]), find(hs[b])
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    ref = collections.defaultdict(set)
    for h in hs.values():
        ref[find(h)].add(h)
    ref_partition = {frozenset(v) for v in ref.values()}

    out = _collect(kg_comention_clusters(sf))
    assert set(out["node"]) == set(hs.values())

    # converged run: enough rounds for any component diameter here
    tri = pairs.rename(columns={"surface_a": "subj", "surface_b": "obj"})
    import ray.data as rd

    conv = _collect(cc_rounds_ds(
        kg_entity_edges(rd.from_pandas(tri[["subj", "obj"]])), rounds=20))
    got = collections.defaultdict(set)
    for r in conv.itertuples():
        got[int(r.label)].add(int(r.node))
    assert {frozenset(v) for v in got.values()} == ref_partition
