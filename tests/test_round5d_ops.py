"""Round-5 batch-7 operators: embedding-norm histogram (+ the batch's
later additions) — serial-parity + hostile-input tests."""

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
# embedding-norm histogram
# ---------------------------------------------------------------------------


def test_norm_hist_matches_serial(ray_session):
    import ray.data as rd

    from kgx.stages.kmeans import KM_SCALE, norm_histogram

    rng = np.random.default_rng(11)
    vecs = (rng.standard_normal((60, 6)) * 0.5).astype(np.float32)
    tbl = pa.table(
        {"vec_id": np.arange(60, dtype=np.int64),
         "embedding": pa.array(list(vecs), pa.list_(pa.float32()))}
    )
    bucket = 100_000
    out = _collect(
        norm_histogram(rd.from_arrow(tbl).repartition(7), bucket=bucket))
    q = np.floor(vecs.astype(np.float64) * KM_SCALE + 0.5).astype(np.int64)
    norm2 = (q * q).sum(axis=1)
    b, cnt = np.unique(norm2 // bucket, return_counts=True)
    got = dict(zip(out["bucket"], out["n_vecs"]))
    assert got == {int(k): int(v) for k, v in zip(b, cnt)}
    assert int(out["n_vecs"].sum()) == 60  # total mass = row count


def test_norm_hist_null_and_zero_vectors(ray_session):
    import ray.data as rd

    from kgx.stages.kmeans import norm_histogram

    vecs = [[0.0, 0.0], None, [1.0, 0.0], [0.6, 0.8]]
    tbl = pa.table(
        {"vec_id": pa.array([0, 1, 2, 3], pa.int64()),
         "embedding": pa.array(vecs, pa.list_(pa.float32()))}
    )
    out = _collect(norm_histogram(rd.from_arrow(tbl), bucket=1_000_000))
    got = dict(zip(out["bucket"], out["n_vecs"]))
    # zero vector -> bucket 0; unit vectors 1e6 -> bucket 1; null drops
    assert got == {0: 1, 1: 2}


# ---------------------------------------------------------------------------
# TPC-H-Q17-shaped small-quantity revenue
# ---------------------------------------------------------------------------


def _q17_sf(tmp_path, n_parts=6, n_rows=400):
    """Planted lineitem/part tables: parts alternate brands; quantities
    deterministic so some rows fall under 0.2x the part average."""
    import pyarrow.parquet as pq

    rng = np.random.default_rng(23)
    pk = np.arange(1, n_parts + 1, dtype=np.int64)
    brand = ["Brand#23" if i % 2 == 0 else "Brand#7" for i in range(n_parts)]
    part = pa.table({"p_partkey": pk, "p_brand": pa.array(brand)})
    lk = rng.integers(1, n_parts + 1, n_rows).astype(np.int64)
    qty = rng.integers(1, 51, n_rows).astype(np.float64)
    # a few extreme rows so the 0.2x-avg mask is non-empty
    qty[: n_rows // 10] = 1.0
    price = np.round(rng.uniform(10.0, 900.0, n_rows), 2)
    line = pa.table({"l_orderkey": np.arange(n_rows, dtype=np.int64),
                     "l_partkey": lk, "l_quantity": qty,
                     "l_extendedprice": price})
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(part, sf / "part.parquet")
    pq.write_table(line, sf / "lineitem.parquet")
    return str(sf), part, line


def _q17_serial(part, line, brand="Brand#23"):
    pdf = part.to_pandas()
    ldf = line.to_pandas()
    keys = set(pdf.loc[pdf["p_brand"] == brand, "p_partkey"])
    ldf = ldf[ldf["l_partkey"].isin(keys)].copy()
    ldf["qty"] = np.floor(ldf["l_quantity"] + 0.5).astype(np.int64)
    ldf["cents"] = np.floor(
        ldf["l_extendedprice"] * 100 + 0.5).astype(np.int64)
    st = ldf.groupby("l_partkey").agg(n=("qty", "size"), sumq=("qty", "sum"))
    j = ldf.join(st, on="l_partkey")
    m = 5 * j["n"] * j["qty"] < j["sumq"]
    total = int(j.loc[m, "cents"].sum())
    return total, int(m.sum())


def test_small_qty_matches_serial(ray_session, tmp_path):
    from kgx.pipelines.relational import small_qty_revenue

    sf, part, line = _q17_sf(tmp_path)
    total, n = _q17_serial(part, line)
    out = _collect(small_qty_revenue(sf))
    assert out.iloc[0]["total_cents"] == total
    assert out.iloc[0]["n_small"] == n
    assert out.iloc[0]["avg_yearly_cents"] == total // 7
    assert n > 0  # the planted extremes made the mask non-trivial


def test_small_qty_both_paths_agree(ray_session, each_route, tmp_path):
    from kgx.pipelines.relational import small_qty_revenue

    sf, part, line = _q17_sf(tmp_path, n_parts=9, n_rows=300)
    fast, slow = each_route(lambda: _collect(small_qty_revenue(sf)))
    pd.testing.assert_frame_equal(fast, slow)


def test_small_qty_empty_brand(ray_session, each_route, tmp_path):
    from kgx.pipelines.relational import small_qty_revenue

    sf, part, line = _q17_sf(tmp_path, n_parts=4, n_rows=50)
    for out in each_route(
            lambda: _collect(small_qty_revenue(sf, brand="Brand#99"))):
        assert list(out.iloc[0]) == [0, 0, 0]


# ---------------------------------------------------------------------------
# alias-dictionary usage table
# ---------------------------------------------------------------------------


def test_alias_stats_matches_serial(ray_session):
    import ray.data as rd

    from kgx.stages.kg_stages import alias_stats

    rows = pd.DataFrame({
        "url": ["u1", "u1", "u2", "u2", "u3"],
        "subj_surface": ["Acme", "Acme", "Acme Corp", "Globex", "Acme"],
        "subj_key": ["acme", "acme", "acme", "globex", "acme"],
        "obj_surface": ["Globex", "Initech", "Globex", "Initech", "Globex"],
        "obj_key": ["globex", "initech", "globex", "initech", "globex"],
    })
    out = _collect(alias_stats(rd.from_pandas(rows).repartition(3)))
    got = {(r.surface, r.entity_key): (r.n_mentions, r.n_pages)
           for r in out.itertuples()}
    # serial reference
    sm = pd.concat([
        rows[["subj_surface", "subj_key", "url"]].set_axis(
            ["surface", "entity_key", "url"], axis=1),
        rows[["obj_surface", "obj_key", "url"]].set_axis(
            ["surface", "entity_key", "url"], axis=1)])
    ref = sm.groupby(["surface", "entity_key"]).agg(
        n_mentions=("url", "size"), n_pages=("url", "nunique"))
    assert got == {(s, k): (int(r.n_mentions), int(r.n_pages))
                   for (s, k), r in ref.iterrows()}
    # the same surface twice on one page counts 2 mentions / 1 page
    assert got[("Acme", "acme")] == (3, 2)
    assert got[("Globex", "globex")] == (4, 3)


# ---------------------------------------------------------------------------
# TPC-H-Q12-shaped priority split counts
# ---------------------------------------------------------------------------


def _q12_sf(tmp_path):
    import pyarrow.parquet as pq

    rng = np.random.default_rng(12)
    n_orders, n_rows = 40, 300
    ok = np.arange(1, n_orders + 1, dtype=np.int64)
    pris = np.array(["1-URGENT", "2-HIGH", "3-MEDIUM", "5-LOW"])
    opri = pris[rng.integers(0, 4, n_orders)]
    orders = pa.table({"o_orderkey": ok, "o_orderpriority": pa.array(opri)})
    lk = rng.integers(1, n_orders + 3, n_rows).astype(np.int64)  # danglers
    # ship dates straddling the [1996, 1998) window incl. exact boundaries
    base = np.datetime64("1995-06-01", "us")
    ship = base + rng.integers(0, 1400, n_rows) * np.timedelta64(1, "D")
    ship[0] = np.datetime64("1996-01-01T00:00:00", "us")   # in
    ship[1] = np.datetime64("1998-01-01T00:00:00", "us")   # out
    st = np.array(["O", "F"])[rng.integers(0, 2, n_rows)]
    line = pa.table({"l_orderkey": lk,
                     "l_shipdate": pa.array(ship, pa.timestamp("us")),
                     "l_linestatus": pa.array(st)})
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(orders, sf / "orders.parquet")
    pq.write_table(line, sf / "lineitem.parquet")
    return str(sf), orders.to_pandas(), line.to_pandas()


def _q12_serial(odf, ldf):
    lo = pd.Timestamp("1996-01-01")
    hi = pd.Timestamp("1998-01-01")
    j = ldf.merge(odf, left_on="l_orderkey", right_on="o_orderkey")
    j = j[(j["l_shipdate"] >= lo) & (j["l_shipdate"] < hi)]
    j["high"] = j["o_orderpriority"].isin(["1-URGENT", "2-HIGH"])
    g = j.groupby("l_linestatus").agg(
        high_count=("high", "sum"), low_count=("high", lambda s: (~s).sum()))
    return {s: (int(r.high_count), int(r.low_count))
            for s, r in g.iterrows()}


def test_shipmode_matches_serial(ray_session, tmp_path):
    from kgx.pipelines.relational import shipmode_priority_counts

    sf, odf, ldf = _q12_sf(tmp_path)
    ref = _q12_serial(odf, ldf)
    out = _collect(shipmode_priority_counts(sf))
    got = {r.l_linestatus: (int(r.high_count), int(r.low_count))
           for r in out.itertuples()}
    assert got == ref and sum(v[0] + v[1] for v in got.values()) > 0


def test_shipmode_both_paths_agree(ray_session, each_route, tmp_path):
    from kgx.pipelines.relational import shipmode_priority_counts

    sf, _, _ = _q12_sf(tmp_path)
    fast, slow = each_route(lambda: _collect(shipmode_priority_counts(sf))
                            .sort_values("l_linestatus")
                            .reset_index(drop=True))
    pd.testing.assert_frame_equal(fast, slow)


# ---------------------------------------------------------------------------
# per-edge neighbor-set Jaccard
# ---------------------------------------------------------------------------


def _jacc_li():
    # co-supplier graph from shared orders: triangle {10,11,12} plus
    # pendant edges 12-13 and 10-14
    orders = [1, 1, 1, 2, 2, 3, 3, 4, 4]
    supps = [10, 11, 12, 12, 13, 10, 14, 11, 12]
    return pa.table({"l_orderkey": pa.array(orders, pa.int64()),
                     "l_suppkey": pa.array(supps, pa.int64())})


def _jacc_serial(li):
    df = li.to_pandas().drop_duplicates()
    edges = set()
    for _, g in df.groupby("l_orderkey"):
        s = sorted(g["l_suppkey"].unique())
        for i in range(len(s)):
            for j in range(i + 1, len(s)):
                edges.add((s[i], s[j]))
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    ref = {}
    for a, b in edges:
        n = len(adj[a] & adj[b])
        if n >= 1:
            ref[(a, b)] = (n, 10_000 * n // (len(adj[a]) + len(adj[b]) - n))
    return ref


def test_jaccard_matches_serial(ray_session):
    import ray.data as rd

    from kgx.stages.triangles import cosupplier_triangles

    li = _jacc_li()
    out = _collect(cosupplier_triangles(rd.from_arrow(li), per_edge=True,
                                        jaccard=True))
    got = {(r.a, r.b): (int(r.n_common), int(r.jacc_pm))
           for r in out.itertuples()}
    ref = _jacc_serial(li)
    assert got == ref and len(ref) >= 3


def test_jaccard_both_degree_paths_agree(ray_session, each_route):
    import ray.data as rd

    from kgx.stages.triangles import cosupplier_triangles

    li = _jacc_li()
    fast, slow = each_route(lambda: _collect(cosupplier_triangles(
        rd.from_arrow(li), per_edge=True, jaccard=True))
        .sort_values(["a", "b"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(fast, slow)
    assert len(fast) >= 3


# ---------------------------------------------------------------------------
# TPC-H-Q21-shaped blame counts
# ---------------------------------------------------------------------------


def _q21_sf(tmp_path, n_orders=60, n_rows=400):
    import pyarrow.parquet as pq

    rng = np.random.default_rng(21)
    lk = rng.integers(1, n_orders + 1, n_rows).astype(np.int64)
    sk = rng.integers(1, 15, n_rows).astype(np.int64)
    base = np.datetime64("1996-01-01", "us")
    ship = base + rng.integers(0, 700, n_rows) * np.timedelta64(1, "D")
    line = pa.table({"l_orderkey": lk, "l_suppkey": sk,
                     "l_shipdate": pa.array(ship, pa.timestamp("us"))})
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(line, sf / "lineitem.parquet")
    return str(sf), line.to_pandas()


def _q21_serial(ldf, k=20):
    sm = ldf.groupby(["l_orderkey", "l_suppkey"])["l_shipdate"].max() \
        .reset_index()
    blame: dict[int, int] = {}
    for o, g in sm.groupby("l_orderkey"):
        if len(g) < 2:
            continue
        omax = g["l_shipdate"].max()
        at_max = g[g["l_shipdate"] == omax]
        if len(at_max) == 1:
            s = int(at_max["l_suppkey"].iloc[0])
            blame[s] = blame.get(s, 0) + 1
    rows = sorted(blame.items(), key=lambda x: (-x[1], x[0]))[:k]
    return {s: (n, i + 1) for i, (s, n) in enumerate(rows)}


def test_blame_suppliers_matches_serial(ray_session, tmp_path):
    from kgx.pipelines.relational import blame_supplier_counts

    sf, ldf = _q21_sf(tmp_path)
    ref = _q21_serial(ldf)
    out = _collect(blame_supplier_counts(sf))
    got = {int(r.s_suppkey): (int(r.numwait), int(r.rnk))
           for r in out.itertuples()}
    assert got == ref and len(ref) > 3


def test_blame_suppliers_tie_at_max_not_blamed(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from kgx.pipelines.relational import blame_supplier_counts

    d = np.datetime64("1996-06-01", "us")
    line = pa.table({
        # order 1: suppliers 7 and 8 tie at the max -> nobody blamed
        # order 2: supplier 9 unique at max with 7 earlier -> blamed
        # order 3: single supplier -> nobody blamed
        "l_orderkey": pa.array([1, 1, 2, 2, 3], pa.int64()),
        "l_suppkey": pa.array([7, 8, 9, 7, 7], pa.int64()),
        "l_shipdate": pa.array([d, d, d + np.timedelta64(5, "D"), d, d],
                               pa.timestamp("us"))})
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(line, sf / "lineitem.parquet")
    out = _collect(blame_supplier_counts(str(sf)))
    assert len(out) == 1
    assert (int(out.iloc[0]["s_suppkey"]), int(out.iloc[0]["numwait"]),
            int(out.iloc[0]["rnk"])) == (9, 1, 1)


# ---------------------------------------------------------------------------
# per-asset media stats (decode -> explode -> aggregate composition)
# ---------------------------------------------------------------------------


def test_media_stats_consistent_with_frame_explode(ray_session):
    import ray.data as rd

    from kgx.stages.multimodal import frame_samples, media_stats

    docs = rd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                           columns=["doc_id", "text"]).limit(80)
    fr = _collect(frame_samples(docs))
    ref = fr.groupby("doc_id").agg(
        n_frames=("frame_idx", "size"), total_bytes=("frame_len", "sum"),
        body_checksum=("frame_sum", "sum"))
    out = _collect(media_stats(docs)).set_index("doc_id").sort_index()
    assert (out["n_frames"] == ref["n_frames"].sort_index()).all()
    assert (out["total_bytes"] == ref["total_bytes"].sort_index()).all()
    assert (out["body_checksum"] == ref["body_checksum"].sort_index()).all()
    assert (out["mean_frame_len"]
            == out["total_bytes"] // out["n_frames"]).all()


# ---------------------------------------------------------------------------
# TPC-H-Q7-shaped nation trade matrix
# ---------------------------------------------------------------------------


def test_nation_trade_both_paths_agree(ray_session, each_route):
    from kgx.pipelines.relational import nation_trade_matrix

    sf = "/root/testdata/sf0.001"
    fast, slow = each_route(
        lambda: _collect(nation_trade_matrix(sf))
        .sort_values(["supp_nation", "cust_nation"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(fast, slow)
    assert len(fast) > 20 and (fast["revenue_cents"] > 0).all()


def test_nation_trade_matches_serial(ray_session, each_route, tmp_path):
    import pyarrow.parquet as pq

    from kgx.pipelines.relational import nation_trade_matrix

    rng = np.random.default_rng(7)
    n = 200
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
    pq.write_table(pa.table(
        {"o_orderkey": np.arange(1, 31, dtype=np.int64),
         "o_custkey": rng.integers(1, 13, 30).astype(np.int64)}),
        sf / "orders.parquet")
    li = pa.table(
        {"l_suppkey": rng.integers(1, 10, n).astype(np.int64),  # 9 dangles
         "l_orderkey": rng.integers(1, 32, n).astype(np.int64),  # 31 dangles
         "l_extendedprice": np.round(rng.uniform(1, 500, n), 2),
         "l_discount": np.round(rng.integers(0, 11, n) / 100.0, 2)})
    pq.write_table(li, sf / "lineitem.parquet")

    # serial reference
    ldf = li.to_pandas()
    sup = pq.read_table(sf / "supplier.parquet").to_pandas()
    orders = pq.read_table(sf / "orders.parquet").to_pandas()
    cust = pq.read_table(sf / "customer.parquet").to_pandas()
    names = {0: "AAA", 1: "BBB", 2: "CCC"}
    ldf["cents"] = (np.floor(ldf["l_extendedprice"] * 100 + 0.5).astype(np.int64)
                    * (100 - np.floor(ldf["l_discount"] * 100 + 0.5)
                       .astype(np.int64)) // 100)
    j = ldf.merge(sup, left_on="l_suppkey", right_on="s_suppkey") \
        .merge(orders, left_on="l_orderkey", right_on="o_orderkey") \
        .merge(cust, left_on="o_custkey", right_on="c_custkey")
    ref = j.groupby(["s_nationkey", "c_nationkey"])["cents"].sum()
    ref = {(names[a], names[b]): int(v) for (a, b), v in ref.items()}

    for out in each_route(lambda: _collect(nation_trade_matrix(str(sf)))):
        got = {(r.supp_nation, r.cust_nation): int(r.revenue_cents)
               for r in out.itertuples()}
        assert got == ref


# ---------------------------------------------------------------------------
# int8 scalar quantization
# ---------------------------------------------------------------------------


def test_sq8_matches_serial(ray_session):
    import ray.data as rd

    from kgx.stages.kmeans import KM_SCALE, sq8_codes

    rng = np.random.default_rng(8)
    vecs = (rng.standard_normal((50, 5)) * 0.3).astype(np.float32)
    vecs[:, 3] = 0.25  # constant dimension -> span guard, code 0
    tbl = pa.table(
        {"vec_id": np.arange(50, dtype=np.int64),
         "embedding": pa.array(list(vecs), pa.list_(pa.float32()))})
    out = _collect(sq8_codes(rd.from_arrow(tbl).repartition(6))) \
        .set_index("vec_id").sort_index()
    q = np.floor(vecs.astype(np.float64) * KM_SCALE + 0.5).astype(np.int64)
    minq = q.min(axis=0)
    span = np.maximum(q.max(axis=0) - minq, 1)
    codes = (q - minq[None, :]) * 255 // span[None, :]
    assert (codes >= 0).all() and (codes <= 255).all()
    assert (codes[:, 3] == 0).all()
    assert (out["code_sum"].to_numpy() == codes.sum(axis=1)).all()
    assert (out["code_sq_sum"].to_numpy() == (codes * codes).sum(axis=1)).all()


def test_sq8_null_vectors_drop(ray_session):
    import ray.data as rd

    from kgx.stages.kmeans import sq8_codes

    tbl = pa.table(
        {"vec_id": pa.array([0, 1, 2], pa.int64()),
         "embedding": pa.array([[0.1, 0.9], None, [0.5, 0.4]],
                               pa.list_(pa.float32()))})
    out = _collect(sq8_codes(rd.from_arrow(tbl)))
    assert sorted(out["vec_id"]) == [0, 2]


# ---------------------------------------------------------------------------
# per-predicate KG stats
# ---------------------------------------------------------------------------


def test_pred_stats_matches_serial(ray_session):
    import ray.data as rd

    from kgx.stages.kg_stages import predicate_stats

    tri = pd.DataFrame({
        "subj": ["A", "A", "B", "C", "A", "B"],
        "pred": ["acquired", "acquired", "acquired", "hired", "hired",
                 "sued"],
        "obj": ["X", "Y", "X", "P", "P", "A"],
    })
    out = predicate_stats(rd.from_pandas(tri).repartition(3))
    got = {r.pred: (int(r.n_triples), int(r.n_subj), int(r.n_obj))
           for r in out.itertuples()}
    assert got == {"acquired": (3, 2, 2), "hired": (2, 2, 1),
                   "sued": (1, 1, 1)}


# ---------------------------------------------------------------------------
# TPC-H-Q19-shaped disjunctive predicate
# ---------------------------------------------------------------------------


def test_disjunctive_matches_serial_and_both_paths(ray_session, each_route,
                                                  tmp_path):
    import pyarrow.parquet as pq

    from kgx.pipelines.relational import (Q19_CLAUSES, disjunctive_revenue)

    rng = np.random.default_rng(19)
    n_parts, n = 40, 500
    brands = np.array(["Brand#12", "Brand#23", "Brand#3", "Brand#9"])
    pb = brands[rng.integers(0, 4, n_parts)]
    ps = rng.integers(1, 51, n_parts).astype(np.int32)
    part = pa.table({"p_partkey": np.arange(1, n_parts + 1, dtype=np.int64),
                     "p_brand": pa.array(pb), "p_size": pa.array(ps)})
    lk = rng.integers(1, n_parts + 2, n).astype(np.int64)
    qty = rng.integers(1, 35, n).astype(np.float64)
    price = np.round(rng.uniform(10, 500, n), 2)
    disc = np.round(rng.integers(0, 11, n) / 100.0, 2)
    line = pa.table({"l_partkey": lk, "l_quantity": qty,
                     "l_extendedprice": price, "l_discount": disc})
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(part, sf / "part.parquet")
    pq.write_table(line, sf / "lineitem.parquet")

    # serial reference
    ldf = line.to_pandas().merge(part.to_pandas(), left_on="l_partkey",
                                 right_on="p_partkey")
    cents = (np.floor(ldf["l_extendedprice"] * 100 + 0.5).astype(np.int64)
             * (100 - np.floor(ldf["l_discount"] * 100 + 0.5)
                .astype(np.int64)) // 100)
    q = np.floor(ldf["l_quantity"] + 0.5).astype(np.int64)
    m = np.zeros(len(ldf), dtype=bool)
    for b, slo, shi, qlo, qhi in Q19_CLAUSES:
        m |= ((ldf["p_brand"] == b) & ldf["p_size"].between(slo, shi)
              & (q >= qlo) & (q <= qhi)).to_numpy()
    ref = (int(cents[m].sum()), int(m.sum()))
    assert ref[1] > 0

    fast, slow = each_route(lambda: _collect(disjunctive_revenue(str(sf))))
    assert (int(fast.iloc[0]["revenue_cents"]),
            int(fast.iloc[0]["n_rows"])) == ref
    pd.testing.assert_frame_equal(fast, slow)


# ---------------------------------------------------------------------------
# crawl-freshness mention timeline (lineage attach)
# ---------------------------------------------------------------------------


def test_mention_timeline_attaches_page_dates(ray_session):
    import ray.data as rd

    from kgx import config_loader, synth
    from kgx.pipeline import broadcast_kb, mentions_ds
    from kgx.stages.kg_stages import DAY_US, mention_timeline

    pages = synth.gen_pages(120, seed=42)
    cfg = config_loader.resolve_settings()
    refs = broadcast_kb()
    out = _collect(mention_timeline(rd.from_arrow(pages), cfg, refs))
    # serial reference: mention stream joined to page ts in pandas
    m = _collect(mentions_ds(rd.from_arrow(pages), cfg, refs))
    pts = pages.to_pandas()[["url", "warc_ts"]]
    pts["day"] = (pts["warc_ts"].astype("int64") // DAY_US).astype("int64")
    j = m.merge(pts[["url", "day"]], on="url")
    ref = j.groupby(["ner_type", "day"]).size()
    got = {(r.ner_type, int(r.day)): int(r.n_mentions)
           for r in out.itertuples()}
    assert got == {(t, int(d)): int(v) for (t, d), v in ref.items()}
    assert len(got) > 1


# ---------------------------------------------------------------------------
# TPC-H-Q15-shaped max-with-ties
# ---------------------------------------------------------------------------


def test_top_supplier_keeps_all_ties(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from kgx.pipelines.relational import top_supplier_revenue

    d = np.datetime64("1996-02-01", "us")
    out_win = np.datetime64("1995-02-01", "us")
    # suppliers 1 and 2 tie at 200.00 inside the window; 3 is lower;
    # 4 would win but ships outside the window
    line = pa.table({
        "l_suppkey": pa.array([1, 1, 2, 3, 4], pa.int64()),
        "l_shipdate": pa.array([d, d, d, d, out_win], pa.timestamp("us")),
        "l_extendedprice": pa.array([120.0, 80.0, 200.0, 50.0, 999.0]),
        "l_discount": pa.array([0.0, 0.0, 0.0, 0.0, 0.0])})
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(line, sf / "lineitem.parquet")
    out = _collect(top_supplier_revenue(str(sf)))
    got = {int(r.s_suppkey): int(r.revenue_cents) for r in out.itertuples()}
    assert got == {1: 20000, 2: 20000}


# ---------------------------------------------------------------------------
# extraction-confidence histogram
# ---------------------------------------------------------------------------


def test_confidence_hist_matches_serial(ray_session):
    import ray.data as rd

    from kgx.stages.kg_stages import confidence_histogram

    tri = pa.table({"conf": pa.array([0.9, 0.9, 0.85, None, 0.955, 0.95],
                                     pa.float32())})
    out = _collect(confidence_histogram(rd.from_arrow(tri).repartition(3)))
    got = dict(zip(out["conf_pct"], out["n"]))
    # float32 0.955 widens to ~0.954999... -> floor(95.49..+0.5) = 95
    assert got == {90: 2, 85: 1, 95: 2}


# ---------------------------------------------------------------------------
# TPC-H-Q6 zero-shuffle scan
# ---------------------------------------------------------------------------


def test_q6_matches_serial(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from kgx.pipelines.relational import forecast_revenue

    rng = np.random.default_rng(6)
    n = 300
    base = np.datetime64("1995-06-01", "us")
    ship = base + rng.integers(0, 900, n) * np.timedelta64(1, "D")
    disc = np.round(rng.integers(0, 11, n) / 100.0, 2)
    qty = rng.integers(1, 50, n).astype(np.float64)
    price = np.round(rng.uniform(10, 900, n), 2)
    line = pa.table({"l_shipdate": pa.array(ship, pa.timestamp("us")),
                     "l_discount": disc, "l_quantity": qty,
                     "l_extendedprice": price})
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(line, sf / "lineitem.parquet")

    df = line.to_pandas()
    dpct = np.floor(df["l_discount"] * 100 + 0.5).astype(np.int64)
    q = np.floor(df["l_quantity"] + 0.5).astype(np.int64)
    cents = np.floor(df["l_extendedprice"] * 100 + 0.5).astype(np.int64)
    m = ((df["l_shipdate"] >= pd.Timestamp("1996-01-01"))
         & (df["l_shipdate"] < pd.Timestamp("1997-01-01"))
         & (dpct >= 5) & (dpct <= 7) & (q < 24)).to_numpy()
    ref = (int((cents[m] * dpct[m] // 100).sum()), int(m.sum()))
    assert ref[1] > 0

    out = forecast_revenue(str(sf))
    assert (int(out.iloc[0]["revenue_cents"]),
            int(out.iloc[0]["n_rows"])) == ref


# ---------------------------------------------------------------------------
# per-entity freshness span
# ---------------------------------------------------------------------------


def test_entity_freshness_matches_serial(ray_session):
    import ray.data as rd

    from kgx.stages.kg_stages import DAY_US, entity_freshness

    linked = pd.DataFrame({
        "url": ["u1", "u2", "u3", "u3"],
        "subj_key": ["acme", "acme", "globex", "acme"],
        "obj_key": ["globex", "initech", "initech", "initech"],
    })
    ts = pa.table({"url": pa.array(["u1", "u2", "u3"]),
                   "warc_ts": pa.array(
                       [0 * DAY_US, 5 * DAY_US, 9 * DAY_US], pa.int64())})
    out = _collect(entity_freshness(
        rd.from_pandas(linked).repartition(2), rd.from_arrow(ts)))
    got = {r.entity_key: (int(r.first_day), int(r.last_day),
                          int(r.n_mentions)) for r in out.itertuples()}
    assert got == {"acme": (0, 9, 3), "globex": (0, 9, 2),
                   "initech": (5, 9, 3)}


# ---------------------------------------------------------------------------
# langid confusion matrix
# ---------------------------------------------------------------------------


def test_langid_eval_matches_serial(ray_session):
    import ray.data as rd

    from kgx.stages.text_analysis import langid_batch, langid_confusion

    docs = pd.DataFrame({
        "doc_id": np.arange(6, dtype=np.int64),
        "text": ["the quick fox and the dog", "der hund und die katze",
                 "le chat et le chien", "xyzzy qqq", None,
                 "the cat und the dog"],
        "lang": ["en", "de", "fr", "en", "de", None],
    })
    out = _collect(langid_confusion(rd.from_pandas(docs).repartition(3)))
    got = {(r.lang, r.pred_lang): int(r.n_docs) for r in out.itertuples()}
    keep = docs.dropna(subset=["lang"])
    pred = langid_batch(keep)["pred_lang"].to_numpy()
    ref = pd.DataFrame({"lang": keep["lang"].to_numpy(),
                        "pred": pred}).groupby(["lang", "pred"]).size()
    assert got == {(a, b): int(v) for (a, b), v in ref.items()}
    assert sum(got.values()) == 5  # null ground truth dropped


# ---------------------------------------------------------------------------
# ANN recall evaluation harness
# ---------------------------------------------------------------------------


def test_recall_eval_counts_overlap_and_zero_rows(ray_session):
    import ray.data as rd

    from kgx.stages.similarity import recall_eval

    exact = pa.table({"query_id": pa.array([1, 1, 1, 2, 2, 2], pa.int64()),
                      "neighbor_id": pa.array([10, 11, 12, 20, 21, 22],
                                              pa.int64()),
                      "rank": pa.array([1, 2, 3, 1, 2, 3], pa.int64())})
    # query 1: 2 of 3 recovered; query 2: nothing recovered
    approx = pa.table({"query_id": pa.array([1, 1, 1], pa.int64()),
                       "neighbor_id": pa.array([11, 12, 99], pa.int64()),
                       "rank": pa.array([1, 2, 3], pa.int64())})
    out = _collect(recall_eval(rd.from_arrow(exact).repartition(2),
                               rd.from_arrow(approx), k=3))
    got = {int(r.query_id): (int(r.n_common), int(r.recall_pm))
           for r in out.itertuples()}
    assert got == {1: (2, 6666), 2: (0, 0)}


# ---------------------------------------------------------------------------
# predicate type-signature matrix
# ---------------------------------------------------------------------------


def test_type_matrix_matches_serial(ray_session):
    import ray.data as rd

    from kgx.stages.kg_stages import type_matrix

    kb = {"alias_table": pa.table(
        {"alias": pa.array(["A", "B", "P"]),
         "entity_id": pa.array([0, 1, 2], pa.int64()),
         "canonical_name": pa.array(["A", "B", "P"]),
         "ner_type": pa.array(["ORG", "ORG", "PER"]),
         "prior": pa.array([1.0, 1.0, 1.0])})}
    linked = pd.DataFrame({
        "pred": ["acquired", "acquired", "founded_by", "hired"],
        "subj_id": [0, 1, 0, 0],
        "obj_id": [1, 0, 2, 99],   # 99 -> UNK
    })
    out = _collect(type_matrix(rd.from_pandas(linked).repartition(2), kb))
    got = {(r.pred, r.subj_type, r.obj_type): int(r.n)
           for r in out.itertuples()}
    assert got == {("acquired", "ORG", "ORG"): 2,
                   ("founded_by", "ORG", "PER"): 1,
                   ("hired", "ORG", "UNK"): 1}


# ---------------------------------------------------------------------------
# event-type co-engagement matrix
# ---------------------------------------------------------------------------


def test_event_cooccurrence_matches_serial(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from kgx.pipelines.relational import event_type_cooccurrence

    rng = np.random.default_rng(33)
    n = 400
    users = rng.integers(1, 30, n).astype(np.int64)
    types = np.array(["view", "click", "buy", "share"])[
        rng.integers(0, 4, n)]
    ev = pa.table({"user_id": users, "event_type": pa.array(types)})
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(ev, sf / "events.parquet")

    df = ev.to_pandas().drop_duplicates()
    ref: dict[tuple, int] = {}
    for _, g in df.groupby("user_id"):
        ts = sorted(g["event_type"].unique())
        for i in range(len(ts)):
            for j in range(i + 1, len(ts)):
                ref[(ts[i], ts[j])] = ref.get((ts[i], ts[j]), 0) + 1
    out = _collect(event_type_cooccurrence(str(sf)))
    got = {(r.type_a, r.type_b): int(r.n_users) for r in out.itertuples()}
    assert got == ref and len(ref) >= 5


# ---------------------------------------------------------------------------
# per-source corpus inventory
# ---------------------------------------------------------------------------


def test_source_stats_matches_serial(ray_session):
    import ray.data as rd

    from kgx.stages.corpus import source_stats

    docs = pd.DataFrame({
        "text": ["aaa", "bbbbb", "cc", None, "dddd", "e"],
        "lang": ["en", "de", "en", "en", None, "en"],
        "source": ["web", "web", "web", "news", "news", None],
    })
    out = source_stats(rd.from_pandas(docs).repartition(3))
    got = {r.source: (int(r.n_docs), int(r.total_chars), int(r.max_chars),
                      int(r.n_langs)) for r in out.itertuples()}
    # null source drops; null text counts 0 chars; null lang = '' bucket
    assert got == {"web": (3, 10, 5, 2), "news": (2, 4, 4, 2)}


# ---------------------------------------------------------------------------
# KG out-degree distribution
# ---------------------------------------------------------------------------


def test_kg_degree_dist_total_mass(ray_session):
    import kgx.queries as Q

    sf = "/root/testdata/sf0.001"
    out = _collect(Q.kg_degree_dist(sf))
    # total entity mass equals adjacency row count; degrees positive
    n_adj = _collect(Q._kg_sql_outputs(sf)["adjacency"]).shape[0]
    assert int(out["n_entities"].sum()) == n_adj
    assert (out["out_degree"] >= 1).all()


# ---------------------------------------------------------------------------
# character-class profile
# ---------------------------------------------------------------------------


def test_char_classes_matches_serial(ray_session, tmp_path):
    import pyarrow.parquet as pq

    import kgx.queries as Q

    docs = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                     "text": pa.array(["abc 12 x!", None, "Z9 ?"])})
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(docs, sf / "documents.parquet")
    out = Q.text_char_classes(str(sf))
    row = out.iloc[0]
    # "abc 12 x!" -> 4 alpha, 2 digit, 2 space, 1 other (9 chars)
    # "Z9 ?"      -> 1 alpha, 1 digit, 1 space, 1 other (4 chars)
    assert (int(row["n_alpha"]), int(row["n_digit"]), int(row["n_space"]),
            int(row["n_other"]), int(row["n_chars"])) == (5, 3, 3, 2, 13)


# ---------------------------------------------------------------------------
# cross-method dedup agreement
# ---------------------------------------------------------------------------


def test_dedup_agreement_masks(ray_session):
    import duckdb

    import kgx.queries as Q

    sf = "/root/testdata/sf0.001"
    out = _collect(Q.dedup_agreement(sf))
    got = {int(r.mask): int(r.n_pairs) for r in out.itertuples()}
    # serial reference from the three oracle pair sets
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    sqls = Q.oracle_sql()
    sets = {}
    for name, bit in [("dedup_ngram_jaccard", 1), ("dedup_minhash_lsh", 2),
                      ("dedup_simhash", 4)]:
        df = con.execute(sqls[name]).df()
        sets[bit] = set(zip(df["id_a"], df["id_b"]))
    ref: dict[int, int] = {}
    for pair in set().union(*sets.values()):
        mask = sum(bit for bit, s in sets.items() if pair in s)
        ref[mask] = ref.get(mask, 0) + 1
    assert got == ref and sum(got.values()) > 0


# ---------------------------------------------------------------------------
# KG entity pagerank
# ---------------------------------------------------------------------------


def test_kg_pagerank_matches_serial_power_iteration(ray_session):
    import ray.data as rd

    from kgx.functions.text import stable_hash64
    from kgx.stages.graph import BASE, DAMP_DEN, DAMP_NUM, R0
    from kgx.stages.kg_stages import kg_entity_pagerank

    tri = pd.DataFrame({
        "subj": ["A", "A", "B", "C", "B"],
        "pred": ["p"] * 5,
        "obj": ["B", "C", "C", "A", "A"],  # B->A and A->B both present
    })
    out = _collect(kg_entity_pagerank(rd.from_pandas(tri).repartition(2),
                                      iterations=3))
    got = {int(r.node): int(r.pr) for r in out.itertuples()}

    # serial reference over the hashed symmetric distinct edge set
    M62 = 1 << 62
    h = {n: stable_hash64(n) % M62 for n in ["A", "B", "C"]}
    e0 = {(h[a], h[b]) for a, b in
          [("A", "B"), ("A", "C"), ("B", "C"), ("C", "A"), ("B", "A")]}
    edges = set()
    for a, b in e0:
        edges.add((a, b))
        edges.add((b, a))
    nodes = {a for a, _ in edges}
    outdeg = {n: sum(1 for a, _ in edges if a == n) for n in nodes}
    pr = {n: R0 for n in nodes}
    for _ in range(3):
        nxt = {n: 0 for n in nodes}
        for a, b in edges:
            nxt[b] += (pr[a] * DAMP_NUM) // (DAMP_DEN * outdeg[a])
        pr = {n: BASE + v for n, v in nxt.items()}
    assert got == pr


# ---------------------------------------------------------------------------
# KG entity clusters (round-exact CC)
# ---------------------------------------------------------------------------


def test_kg_entity_clusters_islands(ray_session):
    import ray.data as rd

    from kgx.functions.text import stable_hash64
    from kgx.stages.kg_stages import kg_entity_clusters

    tri = pd.DataFrame({
        "subj": ["A", "B", "X", "B"],
        "pred": ["p"] * 4,
        "obj": ["B", "C", "Y", "A"],   # island {A,B,C}, island {X,Y}
    })
    out = _collect(kg_entity_clusters(rd.from_pandas(tri).repartition(2)))
    M62 = 1 << 62
    h = {n: stable_hash64(n) % M62 for n in "ABCXY"}
    got = {int(r.node): int(r.label) for r in out.itertuples()}
    assert len(got) == 5
    l1 = min(h[n] for n in "ABC")
    l2 = min(h[n] for n in "XY")
    assert all(got[h[n]] == l1 for n in "ABC")
    assert all(got[h[n]] == l2 for n in "XY")


# ---------------------------------------------------------------------------
# KG hub-entity leaderboard
# ---------------------------------------------------------------------------


def test_hub_entities_rank_and_names(ray_session):
    import ray.data as rd

    from kgx.stages.kg_stages import kg_entity_pagerank, kg_hub_entities

    tri = pd.DataFrame({
        "subj": ["Hub", "Hub", "Hub", "A", "B"],
        "pred": ["p"] * 5,
        "obj": ["A", "B", "C", "B", "C"],
    })
    out = _collect(kg_hub_entities(rd.from_pandas(tri).repartition(2), k=2)) \
        .sort_values("rnk").reset_index(drop=True)
    pr = _collect(kg_entity_pagerank(rd.from_pandas(tri)))
    top = pr.sort_values(["pr", "node"], ascending=[False, True]).head(2)
    assert list(out["pr"]) == list(top["pr"])
    assert len(out) == 2 and list(out["rnk"]) == [1, 2]
    assert set(out["entity"]) <= {"Hub", "A", "B", "C"}


# ---------------------------------------------------------------------------
# KG provenance per source
# ---------------------------------------------------------------------------


def test_source_contrib_counts(ray_session):
    import kgx.queries as Q

    sf = "/root/testdata/sf0.001"
    out = _collect(Q.kg_source_contrib(sf))
    # total triples across sources == linked row count
    from kgx.pipeline import broadcast_kb, linked_triples_ds

    linked = _collect(linked_triples_ds(
        Q._kg_sql_pages(sf), Q._kg_sql_cfg(), broadcast_kb()))
    assert int(out["n_triples"].sum()) == len(linked)
    ref = linked["url"].str.split("/").str[3].value_counts()
    got = dict(zip(out["source"], out["n_triples"]))
    assert got == {k: int(v) for k, v in ref.items()}
    assert (out["n_pages"] <= out["n_triples"]).all()
