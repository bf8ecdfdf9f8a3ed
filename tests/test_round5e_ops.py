"""Round-5 batch-10 operators (this session): TPC-H Q5 local supplier
volume + the batch's later additions — serial-parity, both-paths and
hostile-input tests."""

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
# rel_q5: local supplier volume
# ---------------------------------------------------------------------------


def test_q5_both_paths_agree(ray_session, each_route):
    from kgx.pipelines.relational import local_supplier_volume

    sf = "/root/testdata/sf0.001"
    fast, slow = each_route(lambda: _collect(local_supplier_volume(sf))
                            .sort_values("n_name").reset_index(drop=True))
    pd.testing.assert_frame_equal(fast, slow)
    assert len(fast) > 0 and (fast["revenue_cents"] > 0).all()


def test_q5_matches_serial(ray_session, each_route, tmp_path):
    import pyarrow.parquet as pq

    from kgx.pipelines.relational import local_supplier_volume

    rng = np.random.default_rng(11)
    n = 300
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(pa.table(
        {"n_nationkey": pa.array([0, 1, 2], pa.int32()),
         "n_name": pa.array(["AAA", "BBB", "CCC"])}),
        sf / "nation.parquet")
    pq.write_table(pa.table(
        {"s_suppkey": np.arange(1, 9, dtype=np.int64),
         "s_nationkey": pa.array(rng.integers(0, 3, 8), pa.int32())}),
        sf / "supplier.parquet")
    pq.write_table(pa.table(
        {"c_custkey": np.arange(1, 13, dtype=np.int64),
         "c_nationkey": pa.array(rng.integers(0, 3, 12), pa.int32())}),
        sf / "customer.parquet")
    # order dates straddle the 1996 window: in-window, before, after,
    # and exactly-at-boundary rows
    days = rng.integers(-200, 600, 30)          # days from 1996-01-01
    odate = (np.datetime64("1996-01-01", "us")
             + days.astype("timedelta64[D]").astype("timedelta64[us]"))
    pq.write_table(pa.table(
        {"o_orderkey": np.arange(1, 31, dtype=np.int64),
         "o_custkey": rng.integers(1, 13, 30).astype(np.int64),
         "o_orderdate": pa.array(odate, pa.timestamp("us"))}),
        sf / "orders.parquet")
    li = pa.table(
        {"l_suppkey": rng.integers(1, 10, n).astype(np.int64),   # 9 dangles
         "l_orderkey": rng.integers(1, 32, n).astype(np.int64),  # 31 dangles
         "l_extendedprice": np.round(rng.uniform(1, 500, n), 2),
         "l_discount": np.round(rng.integers(0, 11, n) / 100.0, 2)})
    pq.write_table(li, sf / "lineitem.parquet")

    # serial reference
    ldf = li.to_pandas()
    sup = pq.read_table(sf / "supplier.parquet").to_pandas()
    orders = pq.read_table(sf / "orders.parquet").to_pandas()
    in_win = ((orders["o_orderdate"] >= pd.Timestamp("1996-01-01"))
              & (orders["o_orderdate"] < pd.Timestamp("1997-01-01")))
    orders = orders[in_win]
    cust = pq.read_table(sf / "customer.parquet").to_pandas()
    names = {0: "AAA", 1: "BBB", 2: "CCC"}
    ldf["cents"] = (np.floor(ldf["l_extendedprice"] * 100 + 0.5)
                    .astype(np.int64)
                    * (100 - np.floor(ldf["l_discount"] * 100 + 0.5)
                       .astype(np.int64)) // 100)
    j = ldf.merge(sup, left_on="l_suppkey", right_on="s_suppkey") \
        .merge(orders, left_on="l_orderkey", right_on="o_orderkey") \
        .merge(cust, left_on="o_custkey", right_on="c_custkey")
    j = j[j["s_nationkey"] == j["c_nationkey"]]
    ref = {names[k]: int(v)
           for k, v in j.groupby("s_nationkey")["cents"].sum().items()}

    for route, out in zip(("broadcast", "exchange"), each_route(
            lambda: _collect(local_supplier_volume(str(sf))))):
        got = {r.n_name: int(r.revenue_cents) for r in out.itertuples()}
        assert got == ref, route


def test_q5_empty_window(ray_session, each_route, tmp_path):
    """No orders inside the window -> empty result on both routes."""
    import pyarrow.parquet as pq

    from kgx.pipelines.relational import local_supplier_volume

    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(pa.table(
        {"n_nationkey": pa.array([0], pa.int32()),
         "n_name": pa.array(["AAA"])}), sf / "nation.parquet")
    pq.write_table(pa.table(
        {"s_suppkey": pa.array([1], pa.int64()),
         "s_nationkey": pa.array([0], pa.int32())}),
        sf / "supplier.parquet")
    pq.write_table(pa.table(
        {"c_custkey": pa.array([1], pa.int64()),
         "c_nationkey": pa.array([0], pa.int32())}),
        sf / "customer.parquet")
    pq.write_table(pa.table(
        {"o_orderkey": pa.array([1], pa.int64()),
         "o_custkey": pa.array([1], pa.int64()),
         "o_orderdate": pa.array([np.datetime64("1995-06-01", "us")],
                                 pa.timestamp("us"))}),
        sf / "orders.parquet")
    pq.write_table(pa.table(
        {"l_suppkey": pa.array([1], pa.int64()),
         "l_orderkey": pa.array([1], pa.int64()),
         "l_extendedprice": pa.array([100.0]),
         "l_discount": pa.array([0.05])}), sf / "lineitem.parquet")

    for out in each_route(lambda: _collect(local_supplier_volume(str(sf)))):
        assert len(out) == 0


# ---------------------------------------------------------------------------
# kg_conflicts: functional-predicate contradiction detection
# ---------------------------------------------------------------------------


def test_kg_conflicts_matches_serial(ray_session):
    import kgx.queries as Q
    from kgx.sql_oracles import FUNCTIONAL_PREDS
    from kgx.stages.wide import _norm_part_series

    sf = "/root/testdata/sf0.001"
    out = _collect(Q.kg_conflicts(sf)).sort_values(
        ["subj", "pred"]).reset_index(drop=True)

    # serial reference over the deduped triples
    tri = _collect(Q.kg_triples(sf))
    tri = tri[tri["pred"].isin(FUNCTIONAL_PREDS)].copy()
    tri["ns"] = _norm_part_series(tri["subj"])
    tri = tri.sort_values(["ns", "pred", "obj"], kind="stable")
    ref = tri.groupby(["ns", "pred"], as_index=False).agg(
        subj=("subj", "min"), n_objs=("obj", "size"),
        objs=("obj", "|".join))
    ref = ref[ref["n_objs"] > 1][["subj", "pred", "n_objs", "objs"]] \
        .sort_values(["subj", "pred"]).reset_index(drop=True)
    ref["n_objs"] = ref["n_objs"].astype("int64")

    pd.testing.assert_frame_equal(out, ref)
    assert len(out) > 0               # the sf0.001 KB plants real conflicts
    assert (out["n_objs"] > 1).all()
    # every conflict row's object list is sorted and '|'-consistent
    for r in out.itertuples():
        parts = r.objs.split("|")
        assert len(parts) == r.n_objs and parts == sorted(parts)


def test_kg_conflicts_kernel_merges_normalized_subjects(ray_session):
    """Two display forms of one subject ('Acme Corp' / 'acme corp') under a
    functional pred must merge into ONE conflict group via ns."""
    import kgx.queries as Q
    from kgx.stages.wide import _norm_part_series

    # piggyback on the library normalizer semantics the kernel uses
    s = pd.Series(["Acme Corp.", "acme   corp", "ACME CORP"])
    assert _norm_part_series(s).nunique() == 1


# ---------------------------------------------------------------------------
# graph_clustering: per-node local clustering coefficient
# ---------------------------------------------------------------------------


def _li(pairs):
    """[(orderkey, suppkey), ...] -> lineitem frame."""
    return pd.DataFrame(
        {"l_orderkey": np.array([p[0] for p in pairs], dtype=np.int64),
         "l_suppkey": np.array([p[1] for p in pairs], dtype=np.int64)})


def test_clustering_planted_graph(ray_session):
    import ray.data as rd

    from kgx.stages.triangles import cosupplier_triangles

    # triangle 1-2-3, pendant 4 on 3, disconnected path 5-6-7
    pairs = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 1), (3, 3),
             (4, 3), (4, 4), (5, 5), (5, 6), (6, 6), (6, 7)]
    out = _collect(cosupplier_triangles(
        rd.from_pandas(_li(pairs)).repartition(3), clustering=True)) \
        .sort_values("node").reset_index(drop=True)
    ref = pd.DataFrame(
        {"node": [1, 2, 3, 6],
         "deg": [2, 2, 3, 2],
         "n_tri": [1, 1, 1, 0],
         "cc_pm": [10_000, 10_000, 3_333, 0]})
    got = out.astype({"node": "int64", "deg": "int64",
                      "n_tri": "int64", "cc_pm": "int64"})
    pd.testing.assert_frame_equal(got, ref.astype(got.dtypes.to_dict()))


def test_clustering_both_paths_agree(ray_session, each_route):
    import ray.data as rd

    from kgx.stages.triangles import cosupplier_triangles

    rng = np.random.default_rng(3)
    pairs = list({(int(o), int(s))
                  for o, s in zip(rng.integers(1, 40, 300),
                                  rng.integers(1, 25, 300))})
    fast, slow = each_route(lambda: _collect(cosupplier_triangles(
        rd.from_pandas(_li(pairs)).repartition(4), clustering=True))
        .sort_values("node").reset_index(drop=True))
    pd.testing.assert_frame_equal(fast, slow)
    assert len(fast) > 0 and (fast["cc_pm"] <= 10_000).all()


# ---------------------------------------------------------------------------
# text_zipf: frequency-of-frequencies
# ---------------------------------------------------------------------------


def test_zipf_matches_serial(ray_session):
    import ray.data as rd

    from kgx.functions.text import tokenize
    from kgx.stages.corpus import zipf_histogram

    docs = pd.DataFrame(
        {"doc_id": np.arange(6, dtype=np.int64),
         "text": ["a a a b b c", "b c d", None, "", "A a", "d d d d"]})
    out = _collect(zipf_histogram(rd.from_pandas(docs).repartition(3))) \
        .sort_values("tf").reset_index(drop=True)

    from collections import Counter
    tc = Counter()
    for t in docs["text"]:
        tc.update(tokenize(t or ""))
    ff = Counter(tc.values())
    ref = pd.DataFrame(
        {"tf": sorted(ff), "n_tokens": [ff[t] for t in sorted(ff)]}
    ).astype({"tf": "int64", "n_tokens": "int64"})
    pd.testing.assert_frame_equal(
        out.astype({"tf": "int64", "n_tokens": "int64"}), ref)
    # invariant: sum(tf * n_tokens) == total token occurrences
    assert int((out["tf"] * out["n_tokens"]).sum()) == sum(tc.values())


def test_zipf_empty_corpus(ray_session):
    import ray.data as rd

    from kgx.stages.corpus import zipf_histogram

    docs = pd.DataFrame({"doc_id": np.array([0], dtype=np.int64),
                         "text": [None]})
    out = _collect(zipf_histogram(rd.from_pandas(docs)))
    assert len(out) == 0


# ---------------------------------------------------------------------------
# kg_pred_cooccurrence: predicate co-occurrence matrix
# ---------------------------------------------------------------------------


def test_pred_cooccurrence_matches_serial(ray_session):
    import kgx.queries as Q
    from kgx.pipeline import broadcast_kb, linked_triples_ds
    from kgx.stages.wide import _norm_part_series

    sf = "/root/testdata/sf0.001"
    out = _collect(Q.kg_pred_cooccurrence(sf)).sort_values(
        ["pred_a", "pred_b"]).reset_index(drop=True)

    linked = _collect(linked_triples_ds(
        Q._kg_sql_pages(sf), Q._kg_sql_cfg(), broadcast_kb()))
    sp = pd.DataFrame({"ns": _norm_part_series(linked["subj"]),
                       "pred": linked["pred"]}).drop_duplicates()
    j = sp.merge(sp, on="ns", suffixes=("_a", "_b"))
    j = j[j["pred_a"] < j["pred_b"]]
    ref = j.groupby(["pred_a", "pred_b"], as_index=False).agg(
        n_subjects=("ns", "size")).sort_values(
        ["pred_a", "pred_b"]).reset_index(drop=True)
    ref["n_subjects"] = ref["n_subjects"].astype("int64")

    pd.testing.assert_frame_equal(out, ref)
    assert len(out) > 0 and (out["pred_a"] < out["pred_b"]).all()


# ---------------------------------------------------------------------------
# rel_q8: national market share (percent-of-total)
# ---------------------------------------------------------------------------


def test_q8_both_paths_agree(ray_session, each_route):
    from kgx.pipelines.relational import national_market_share

    sf = "/root/testdata/sf0.001"
    fast, slow = each_route(
        lambda: _collect(national_market_share(sf))
        .sort_values(["o_year", "n_name"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(fast, slow)
    assert len(fast) > 0
    # shares within a year sum to <= 10000 (floor division loses at most
    # |nations|-1 permyriad) and are never negative
    s = fast.groupby("o_year")["share_pm"].sum()
    assert ((s <= 10_000) & (s > 10_000 - 30)).all()
    assert (fast["share_pm"] >= 0).all()


def test_q8_share_arithmetic(ray_session, each_route, tmp_path):
    """Hand-built case: one year, two nations at 3:1 revenue -> 7500/2500
    permyriad; non-member part rows drop."""
    import pyarrow.parquet as pq

    from kgx.pipelines.relational import national_market_share

    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(pa.table(
        {"n_nationkey": pa.array([0, 1], pa.int32()),
         "n_name": pa.array(["AAA", "BBB"])}), sf / "nation.parquet")
    pq.write_table(pa.table(
        {"s_suppkey": pa.array([1, 2], pa.int64()),
         "s_nationkey": pa.array([0, 1], pa.int32())}),
        sf / "supplier.parquet")
    pq.write_table(pa.table(
        {"p_partkey": pa.array([10, 11], pa.int64()),
         "p_type": pa.array(["PROMO", "ECONOMY"])}), sf / "part.parquet")
    pq.write_table(pa.table(
        {"o_orderkey": pa.array([100], pa.int64()),
         "o_orderdate": pa.array([np.datetime64("1997-05-01", "us")],
                                 pa.timestamp("us"))}),
        sf / "orders.parquet")
    pq.write_table(pa.table(
        {"l_partkey": pa.array([10, 10, 11], pa.int64()),
         "l_suppkey": pa.array([1, 2, 1], pa.int64()),
         "l_orderkey": pa.array([100, 100, 100], pa.int64()),
         "l_extendedprice": pa.array([300.0, 100.0, 999.0]),
         "l_discount": pa.array([0.0, 0.0, 0.0])}),
        sf / "lineitem.parquet")

    for out in each_route(
            lambda: _collect(national_market_share(str(sf)))
            .sort_values("n_name").reset_index(drop=True)):
        assert list(out["o_year"]) == [1997, 1997]
        assert list(out["n_name"]) == ["AAA", "BBB"]
        assert list(out["revenue_cents"]) == [30_000, 10_000]
        assert list(out["share_pm"]) == [7_500, 2_500]


# ---------------------------------------------------------------------------
# rel_session_hist: session-size histogram
# ---------------------------------------------------------------------------


def test_session_hist_matches_sessionize(ray_session):
    import kgx.queries as Q
    from kgx.pipelines.relational import sessionize_events

    sf = "/root/testdata/sf0.001"
    out = _collect(Q.rel_session_hist(sf)).sort_values(
        "n_events").reset_index(drop=True)
    sess = _collect(sessionize_events(sf))
    vc = sess["n_events"].value_counts().sort_index()
    ref = pd.DataFrame({"n_events": vc.index.to_numpy().astype("int64"),
                        "n_sessions": vc.to_numpy().astype("int64")})
    pd.testing.assert_frame_equal(
        out.astype({"n_events": "int64", "n_sessions": "int64"}), ref)
    # total mass == session count
    assert int(out["n_sessions"].sum()) == len(sess)


# ---------------------------------------------------------------------------
# kg_new_entities: incremental-crawl delta
# ---------------------------------------------------------------------------


def test_new_entities_matches_freshness(ray_session):
    import kgx.queries as Q
    from kgx.pipeline import broadcast_kb, linked_triples_ds
    from kgx.stages.kg_stages import entity_freshness

    sf = "/root/testdata/sf0.001"
    out = _collect(Q.kg_new_entities(sf)).sort_values(
        "entity_key").reset_index(drop=True)

    fresh = _collect(entity_freshness(
        linked_triples_ds(Q._kg_sql_pages(sf), Q._kg_sql_cfg(),
                          broadcast_kb()),
        Q._pages_ts_ds(sf)))
    ts = _collect(Q._pages_ts_ds(sf))
    max_day = int((ts["warc_ts"] // 86_400_000_000).max())
    ref = fresh[fresh["first_day"] > max_day - 2] \
        [["entity_key", "first_day", "n_mentions"]] \
        .sort_values("entity_key").reset_index(drop=True)
    ref = ref.astype({"first_day": "int64", "n_mentions": "int64"})
    pd.testing.assert_frame_equal(out, ref)
    assert len(out) > 0
    # a wider window can only grow the cohort
    wide = _collect(Q.kg_new_entities(sf, window_days=10_000))
    assert len(wide) >= len(out) and len(wide) == len(fresh)


# ---------------------------------------------------------------------------
# graph_edge_weights: co-supplier edge multiplicity histogram
# ---------------------------------------------------------------------------


def test_edge_weights_planted(ray_session):
    import ray.data as rd

    from kgx.stages.triangles import cosupplier_edge_weights

    # pair (1,2) shares orders 1,2,3 -> weight 3; (1,3) shares order 1;
    # (2,3) shares order 1 -> two edges of weight 1
    pairs = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (3, 2)]
    out = _collect(cosupplier_edge_weights(
        rd.from_pandas(_li(pairs)).repartition(3))) \
        .sort_values("weight").reset_index(drop=True)
    ref = pd.DataFrame({"weight": [1, 3], "n_edges": [2, 1]})
    pd.testing.assert_frame_equal(
        out.astype({"weight": "int64", "n_edges": "int64"}),
        ref.astype({"weight": "int64", "n_edges": "int64"}))


def test_edge_weights_mass_equals_edges(ray_session):
    import ray.data as rd

    from kgx.stages.triangles import cosupplier_edge_weights

    rng = np.random.default_rng(5)
    pairs = list({(int(o), int(s))
                  for o, s in zip(rng.integers(1, 30, 200),
                                  rng.integers(1, 20, 200))})
    out = _collect(cosupplier_edge_weights(
        rd.from_pandas(_li(pairs)).repartition(4)))
    # total histogram mass == number of distinct edges (serial)
    df = _li(pairs).drop_duplicates()
    j = df.merge(df, on="l_orderkey")
    e = j[j["l_suppkey_x"] < j["l_suppkey_y"]][
        ["l_suppkey_x", "l_suppkey_y"]].drop_duplicates()
    assert int(out["n_edges"].sum()) == len(e)
