"""Round-3 batch-2 operators: HLL distinct sketch, exact two-pass heavy
hitters, anti-join, pivot, running total, rollup — property-tested against
serial brute force (the driver's SQL oracle is the other gate;
scripts/check_queries.py).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from kgx.stages.sketch import (
    HLL_B,
    HLL_M,
    _bit_length_u64,
    heavy_hitter_tokens,
    hll_estimate,
    hll_partial_registers,
    hll_token_registers,
)


def _collect(ds):
    frames = [
        b.to_pandas()
        for b in ds.iter_batches(batch_size=None, batch_format="pyarrow")
    ]
    return (
        pd.concat(frames, ignore_index=True) if frames else pd.DataFrame()
    )


# ---------------------------------------------------------------------------
# HLL
# ---------------------------------------------------------------------------


def test_bit_length_u64_exact():
    """The shift-based bit_length matches Python's int.bit_length on
    boundary-hostile values (float log2 would misround above 2^53)."""
    vals = [0, 1, 2, 3, (1 << 53) - 1, 1 << 53, (1 << 53) + 1,
            (1 << 56) - 1, 1 << 55, 12345678901234567]
    got = _bit_length_u64(np.array(vals, dtype=np.uint64))
    assert got.tolist() == [v.bit_length() for v in vals]


def test_hll_partial_registers_serial():
    """Register/rank split matches the per-value serial definition."""
    rng = np.random.RandomState(3)
    hs = rng.randint(0, 1 << 63, size=500, dtype=np.int64).astype(np.uint64)
    t = hll_partial_registers(hs)
    regs = dict(zip(t["register"].to_pylist(), t["max_rank"].to_pylist()))
    expect: dict[int, int] = {}
    for h in hs.tolist():
        reg = h >> (64 - HLL_B)
        w = h & ((1 << (64 - HLL_B)) - 1)
        rank = (64 - HLL_B) + 1 - w.bit_length()
        expect[reg] = max(expect.get(reg, 0), rank)
    assert regs == expect


def test_hll_merge_and_estimate(ray_session):
    """Distributed sketch == serial sketch over the same corpus, and the
    estimate lands within the documented ~6.5% (3 sigma ~ 20%) of truth."""
    import ray.data as rd

    from kgx.functions.text import stable_hash64, tokenize

    rng = np.random.RandomState(11)
    vocab = [f"w{i}" for i in range(400)]
    texts = [
        " ".join(rng.choice(vocab, size=rng.randint(5, 40)))
        for _ in range(300)
    ]
    docs = pa.table({"doc_id": list(range(300)), "text": texts})
    ds = rd.from_arrow(docs).repartition(7)

    out = _collect(hll_token_registers(ds))
    got = dict(zip(out["register"], out["max_rank"]))

    pairs = {
        (t, i) for i, txt in enumerate(texts) for t in set(tokenize(txt))
    }
    expect: dict[int, int] = {}
    for t, i in pairs:
        h = stable_hash64(f"{t}:{i}")
        reg = h >> (64 - HLL_B)
        w = h & ((1 << (64 - HLL_B)) - 1)
        expect[reg] = max(expect.get(reg, 0), (64 - HLL_B) + 1 - w.bit_length())
    assert got == expect

    dense = np.zeros(HLL_M, dtype=np.int64)
    for r, m in got.items():
        dense[r] = m
    est = hll_estimate(dense)
    assert abs(est - len(pairs)) / len(pairs) < 0.20


def test_decontaminate_vs_brute_force(ray_session):
    """Directed split filter + min combiner == serial enumeration over a
    synthetic pair list spanning both sides of the split."""
    import ray.data as rd

    from kgx.stages.corpus import decontaminate, sample_bucket_np

    rng = np.random.RandomState(31)
    pairs = np.unique(rng.randint(0, 3000, size=(800, 2)), axis=0)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    ds = rd.from_arrow(
        pa.table(
            {"id_a": pairs[:, 0].astype("int64"),
             "id_b": pairs[:, 1].astype("int64")},
        )
    ).repartition(6)
    got = _collect(decontaminate(ds, eval_pct=10))
    got_map = dict(zip(got["test_doc_id"], got["corpus_doc_id"]))

    kb = 100
    expect: dict[int, int] = {}
    for a, b in pairs.tolist():
        ba = int(sample_bucket_np(np.array([a]))[0])
        bb = int(sample_bucket_np(np.array([b]))[0])
        if ba < kb <= bb:
            expect[a] = min(expect.get(a, b), b)
        if bb < kb <= ba:
            expect[b] = min(expect.get(b, a), a)
    assert {int(k): int(v) for k, v in got_map.items()} == expect
    assert expect  # split must actually be straddled


# ---------------------------------------------------------------------------
# Bloom filter
# ---------------------------------------------------------------------------


def test_bloom_positions_match_serial_hugeint():
    """numpy uint64 wraparound == the HUGEINT mod-2^64 arithmetic the SQL
    oracle embeds (guards the oracle assumption directly)."""
    from kgx.stages.sketch import BLOOM_K, BLOOM_M, _bloom_family, bloom_positions_np

    muls, adds = _bloom_family()
    keys = np.array([0, 1, 7, 499, 123456789, 2**62 + 11], dtype=np.int64)
    got = bloom_positions_np(keys).reshape(BLOOM_K, -1)
    for i, (mul, add) in enumerate(zip(muls, adds)):
        for j, key in enumerate(keys.tolist()):
            h = (key * mul + add) % (1 << 64)
            assert got[i, j] == (h >> 32) % BLOOM_M


def test_bloom_no_false_negatives_and_fp_rate(ray_session):
    """Every build key passes the membership mask; FP rate on disjoint
    probes stays near the analytic (1-e^(-kn/m))^k."""
    import ray.data as rd

    from kgx.stages.sketch import (
        BLOOM_K,
        BLOOM_M,
        bloom_build,
        bloom_membership_mask,
    )

    rng = np.random.RandomState(23)
    build = np.unique(rng.randint(0, 10**9, size=2000)).astype(np.int64)
    ds = rd.from_arrow(pa.table({"k": build})).repartition(6)
    bits_df = _collect(bloom_build(ds, "k"))
    bitset = np.zeros(BLOOM_M, dtype=bool)
    bitset[bits_df["bit"].to_numpy()] = True

    assert bloom_membership_mask(build, bitset).all()  # no false negatives

    probes = np.setdiff1d(
        rng.randint(0, 10**9, size=20000).astype(np.int64), build
    )
    fp = bloom_membership_mask(probes, bitset).mean()
    analytic = (1 - np.exp(-BLOOM_K * len(build) / BLOOM_M)) ** BLOOM_K
    assert fp < max(4 * analytic, 0.02)


# ---------------------------------------------------------------------------
# Count-min sketch
# ---------------------------------------------------------------------------


def test_cms_matches_serial_and_estimates_bound(ray_session):
    """Distributed CMS grid == serial fold, and point estimates obey
    true <= est <= true + eps*N for every token."""
    import collections

    import ray.data as rd

    from kgx.functions.text import stable_hash64, tokenize
    from kgx.stages.sketch import (
        CMS_D,
        CMS_W,
        cms_build,
        cms_cells_np,
        cms_estimate,
    )

    rng = np.random.RandomState(17)
    vocab = [f"v{i}" for i in range(300)]
    texts = [
        " ".join(rng.choice(vocab, size=rng.randint(3, 25)))
        for _ in range(250)
    ]
    docs = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    out = _collect(cms_build(rd.from_arrow(docs).repartition(8)))
    grid = np.zeros((CMS_D, CMS_W), dtype=np.int64)
    grid[out["d_row"].to_numpy(), out["cell"].to_numpy()] = out["cnt"].to_numpy()

    counts = collections.Counter(t for txt in texts for t in tokenize(txt))
    serial = np.zeros((CMS_D, CMS_W), dtype=np.int64)
    for t, c in counts.items():
        cells = cms_cells_np(np.array([stable_hash64(t)], dtype=np.uint64))
        for i in range(CMS_D):
            serial[i, cells[i, 0]] += c
    assert (grid == serial).all()

    n = sum(counts.values())
    eps_bound = int(np.ceil(np.e / CMS_W * n))
    for t, c in counts.items():
        est = cms_estimate(grid, t)
        assert c <= est <= c + eps_bound


# ---------------------------------------------------------------------------
# Heavy hitters
# ---------------------------------------------------------------------------


def test_heavy_hitters_exact_vs_brute_force(ray_session):
    """Two-pass pigeonhole result == full GROUP BY ... HAVING, on a skewed
    corpus where most tokens are NOT candidates in most batches."""
    import collections

    import ray.data as rd

    from kgx.functions.text import tokenize

    rng = np.random.RandomState(5)
    head = ["alpha", "beta"]
    tail = [f"t{i}" for i in range(500)]
    texts = []
    for _ in range(200):
        toks = list(rng.choice(tail, size=rng.randint(5, 15)))
        if rng.rand() < 0.7:
            toks += [rng.choice(head)] * rng.randint(1, 4)
        texts.append(" ".join(toks))
    docs = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    ds = rd.from_arrow(docs).repartition(9)

    k = 50
    got = _collect(heavy_hitter_tokens(ds, k=k))
    got_map = dict(zip(got["token"], got["cnt"]))

    counts = collections.Counter(
        t for txt in texts for t in tokenize(txt)
    )
    n = sum(counts.values())
    expect = {t: c for t, c in counts.items() if c * k > n}
    assert got_map == expect
    assert expect  # the test corpus must actually produce hitters


def test_stratified_sample_rates_and_stability(ray_session):
    """Per-tier keep rates hold, kept docs stay kept under growth, and the
    serial brute force agrees row-for-row (incl. unparseable sources
    failing open to tier 1)."""
    import ray.data as rd

    from kgx.stages.corpus import (
        STRATA_PCTS,
        sample_bucket_np,
        stratified_sample_documents,
    )

    n = 6000
    srcs = [f"site{i % 9}" for i in range(n - 10)] + ["weird-src"] * 10
    docs = pa.table({"doc_id": list(range(n)), "source": srcs})
    got = _collect(
        stratified_sample_documents(rd.from_arrow(docs).repartition(7))
    )

    buckets = sample_bucket_np(np.arange(n, dtype=np.int64))
    tiers = np.array(
        [i % 9 % 3 for i in range(n - 10)] + [1] * 10, dtype=np.int64
    )
    kb = np.array([p * 1000 // 100 for p in STRATA_PCTS])[tiers]
    expect_ids = np.flatnonzero(buckets < kb)
    assert sorted(got["doc_id"]) == expect_ids.tolist()

    # rate sanity per tier (binomial tolerance)
    for t, p in enumerate(STRATA_PCTS):
        in_tier = np.flatnonzero(tiers == t)
        kept = np.intersect1d(in_tier, expect_ids)
        assert abs(len(kept) / len(in_tier) - p / 100) < 0.03

    # growth stability: the 2x corpus keeps a superset on the shared prefix
    docs2 = pa.table(
        {"doc_id": list(range(2 * n)),
         "source": [f"site{i % 9}" for i in range(2 * n)]}
    )
    got2 = set(
        _collect(stratified_sample_documents(rd.from_arrow(docs2)))["doc_id"]
    )
    shared = [d for d in got["doc_id"] if d < n - 10]
    assert set(shared) <= got2


# ---------------------------------------------------------------------------
# Relational batch-2 (anti-join / pivot / running total / rollup)
# ---------------------------------------------------------------------------

SF = "/root/testdata/sf0.001"


def test_anti_join_vs_pandas(ray_session):
    from kgx.pipelines.relational import customers_without_urgent

    got = set(_collect(customers_without_urgent(SF))["c_custkey"])
    cust = pd.read_parquet(f"{SF}/customer.parquet", columns=["c_custkey"])
    orders = pd.read_parquet(
        f"{SF}/orders.parquet", columns=["o_custkey", "o_orderpriority"]
    )
    urgent = set(orders[orders["o_orderpriority"] == "1-URGENT"]["o_custkey"])
    expect = set(cust["c_custkey"]) - urgent
    assert got == expect and got


def test_anti_join_native_path_agrees(ray_session, each_route):
    """The exchange route of the anti-join agrees with the broadcast
    route."""
    from kgx.pipelines.relational import customers_without_urgent

    a, b = each_route(lambda: set(
        _collect(customers_without_urgent(SF))["c_custkey"]))
    assert a == b and a


def test_pivot_vs_pandas(ray_session):
    from kgx.pipelines.relational import EVENT_TYPES, event_type_pivot

    got = (
        _collect(event_type_pivot(SF))
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    ev = pd.read_parquet(f"{SF}/events.parquet", columns=["user_id", "event_type"])
    expect = (
        pd.crosstab(ev["user_id"], ev["event_type"])
        .reindex(columns=list(EVENT_TYPES), fill_value=0)
        .reset_index()
    )
    expect.columns = ["user_id"] + [f"n_{t}" for t in EVENT_TYPES]
    for c in expect.columns:
        assert got[c].astype("int64").tolist() == expect[c].astype("int64").tolist()


def test_running_total_vs_pandas(ray_session):
    from kgx.pipelines.relational import running_order_total

    got = (
        _collect(running_order_total(SF))
        .sort_values(["o_custkey", "o_orderkey"])
        .reset_index(drop=True)
    )
    o = pd.read_parquet(f"{SF}/orders.parquet").sort_values(
        ["o_custkey", "o_orderdate", "o_orderkey"]
    )
    o["cents"] = np.floor(o["o_totalprice"].to_numpy() * 100.0 + 0.5).astype(
        "int64"
    )
    o["cum"] = o.groupby("o_custkey")["cents"].cumsum()
    o = o.sort_values(["o_custkey", "o_orderkey"]).reset_index(drop=True)
    assert got["cum_cents"].tolist() == o["cum"].tolist()
    assert got["o_orderkey"].tolist() == o["o_orderkey"].tolist()


def test_degree_histogram_vs_brute_force(ray_session):
    """Distributed degree histogram == serial dict counting, with duplicate
    edge rows in the input (must not inflate degrees)."""
    import collections

    import ray.data as rd

    from kgx.stages.graph import degree_histogram

    rng = np.random.RandomState(13)
    raw = {(int(a), int(b)) for a, b in rng.randint(0, 60, size=(400, 2))
           if a != b}
    edges = sorted(raw | {(b, a) for a, b in raw})
    dup_edges = edges + edges[::3]  # planted duplicates
    ds = rd.from_arrow(
        pa.table(
            {"src": [e[0] for e in dup_edges], "dst": [e[1] for e in dup_edges]},
            schema=pa.schema([("src", pa.int64()), ("dst", pa.int64())]),
        )
    ).repartition(5)
    got = dict(
        zip(*(lambda d: (d["degree"], d["n_nodes"]))(_collect(degree_histogram(ds))))
    )
    deg = collections.Counter(s for s, _ in edges)
    expect = collections.Counter(deg.values())
    assert {int(k): int(v) for k, v in got.items()} == dict(expect)


def test_grouped_mode_vs_pandas(ray_session):
    from kgx.pipelines.relational import priority_mode_per_segment

    got = (
        _collect(priority_mode_per_segment(SF))
        .sort_values("c_mktsegment")
        .reset_index(drop=True)
    )
    o = pd.read_parquet(f"{SF}/orders.parquet",
                        columns=["o_custkey", "o_orderpriority"])
    c = pd.read_parquet(f"{SF}/customer.parquet",
                        columns=["c_custkey", "c_mktsegment"])
    cells = (
        o.merge(c, left_on="o_custkey", right_on="c_custkey")
        .groupby(["c_mktsegment", "o_orderpriority"])
        .size()
        .reset_index(name="n")
        .sort_values(["c_mktsegment", "n", "o_orderpriority"],
                     ascending=[True, False, True])
    )
    expect = cells.groupby("c_mktsegment").head(1).reset_index(drop=True)
    assert got["c_mktsegment"].tolist() == expect["c_mktsegment"].tolist()
    assert got["mode_priority"].tolist() == expect["o_orderpriority"].tolist()
    assert got["n_orders"].tolist() == expect["n"].astype("int64").tolist()


def test_rollup_vs_pandas(ray_session):
    from kgx.pipelines.relational import lineitem_rollup

    got = _collect(lineitem_rollup(SF))
    li = pd.read_parquet(
        f"{SF}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity"],
    )
    li["q"] = np.floor(li["l_quantity"].to_numpy() + 0.5).astype("int64")
    total_rows = len(li)
    total_qty = int(li["q"].sum())

    g = dict(
        got.set_index(["l_returnflag", "l_linestatus"])[
            ["n_rows", "sum_qty"]
        ].agg(tuple, axis=1)
    )
    # grand total row
    assert g[("ALL", "ALL")] == (total_rows, total_qty)
    # per-flag subtotals sum to the grand total
    flags = [k for k in g if k[1] == "ALL" and k[0] != "ALL"]
    assert sum(g[k][0] for k in flags) == total_rows
    # level-0 cells match pandas exactly
    l0 = li.groupby(["l_returnflag", "l_linestatus"]).agg(
        n=("q", "size"), s=("q", "sum")
    )
    for (f, s), row in l0.iterrows():
        assert g[(f, s)] == (int(row["n"]), int(row["s"]))


# ---------------------------------------------------------------------------
# Hostile inputs for the round-3 batch-2 operators
# ---------------------------------------------------------------------------


def _empty_docs():
    import ray.data as rd

    return rd.from_arrow(
        pa.table(
            {"doc_id": pa.array([], type=pa.int64()),
             "text": pa.array([], type=pa.string())}
        )
    )


def _null_docs():
    import ray.data as rd

    return rd.from_arrow(
        pa.table(
            {"doc_id": pa.array([1, 2, 3], type=pa.int64()),
             "text": pa.array([None, "", "   "], type=pa.string())}
        )
    )


def test_sketches_on_empty_and_null_corpora(ray_session):
    from kgx.stages.sketch import cms_build, heavy_hitter_tokens, hll_token_registers

    for docs in (_empty_docs(), _null_docs()):
        assert _collect(hll_token_registers(docs)).empty
        assert _collect(cms_build(docs)).empty
        hh = _collect(heavy_hitter_tokens(docs, k=10))
        assert hh.empty


def test_decontaminate_empty_pairs(ray_session):
    import ray.data as rd

    from kgx.stages.corpus import decontaminate

    pairs = rd.from_arrow(
        pa.table(
            {"id_a": pa.array([], type=pa.int64()),
             "id_b": pa.array([], type=pa.int64())}
        )
    )
    assert _collect(decontaminate(pairs)).empty


def test_pagerank_two_node_cycle(ray_session):
    """Smallest valid graph: labels/ranks flow both ways, integer identity
    holds (each node keeps exactly R0 every round)."""
    import ray.data as rd

    from kgx.stages.graph import R0, pagerank_ds

    ds = rd.from_arrow(
        pa.table(
            {"src": pa.array([1, 2], type=pa.int64()),
             "dst": pa.array([2, 1], type=pa.int64())}
        )
    )
    got = _collect(pagerank_ds(ds, iterations=4)).set_index("node")["pr"]
    assert dict(got) == {1: R0, 2: R0}


def test_semi_join_bloom_agrees_with_exact(ray_session):
    """The Bloom-prefiltered plan returns exactly the exact semi-join's
    rows (false positives removed by the verify join, no false negatives
    by Bloom's guarantee)."""
    from kgx.pipelines.relational import (
        customers_with_orders,
        customers_with_orders_bloom,
    )

    exact = set(_collect(customers_with_orders(SF))["c_custkey"])
    bloom = set(
        _collect(customers_with_orders_bloom(SF, force="bloom"))["c_custkey"]
    )
    assert bloom == exact and exact


def test_semi_join_bloom_cost_gate(ray_session):
    """The cost gate routes sub-threshold probe sides down the plain path
    (identical rows), and a tiny threshold re-engages the Bloom plan."""
    from kgx.pipelines.relational import (
        customers_with_orders,
        customers_with_orders_bloom,
    )

    exact = set(_collect(customers_with_orders(SF))["c_custkey"])
    # default gate at testdata scale: plain path
    gated = set(_collect(customers_with_orders_bloom(SF))["c_custkey"])
    assert gated == exact
    # force the gate itself (not the override) to pick bloom
    low_gate = set(
        _collect(customers_with_orders_bloom(SF, gate_bytes=1))["c_custkey"]
    )
    assert low_gate == exact


def test_grouped_mode_join_path_agrees(ray_session, each_route):
    """priority_mode_per_segment on the exchange route (the segment
    attach of a dimension too big to broadcast) returns the same table as
    the broadcast route."""
    from kgx.pipelines.relational import priority_mode_per_segment

    a, b = each_route(lambda: (
        _collect(priority_mode_per_segment(SF))
        .sort_values("c_mktsegment")
        .reset_index(drop=True)
    ))
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_lm_score_vs_brute_force(ray_session):
    """Distributed two-exchange LM score == serial counting, including
    bigram-less docs being absent from the output."""
    import collections

    import ray.data as rd

    from kgx.functions.text import tokenize
    from kgx.stages.corpus import LM_SCALE, bigram_lm_score

    rng = np.random.RandomState(41)
    vocab = ["aa", "bb", "cc", "dd", "ee"]
    texts = [
        " ".join(rng.choice(vocab, size=rng.randint(0, 20)))
        for _ in range(150)
    ] + ["single"]
    docs = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    got = _collect(bigram_lm_score(rd.from_arrow(docs).repartition(6)))
    got_map = {
        int(r.doc_id): (int(r.lm_score), int(r.n_bigrams))
        for r in got.itertuples()
    }

    bg = collections.Counter()
    uni = collections.Counter()
    doc_bgs = {}
    for i, txt in enumerate(texts):
        toks = tokenize(txt)
        pairs = list(zip(toks, toks[1:]))
        doc_bgs[i] = pairs
        for p in pairs:
            bg[p] += 1
            uni[p[0]] += 1
    expect = {}
    for i, pairs in doc_bgs.items():
        if not pairs:
            continue
        total = sum((bg[p] * LM_SCALE) // uni[p[0]] for p in pairs)
        expect[i] = (total // len(pairs), len(pairs))
    assert got_map == expect
    assert len(texts) - 1 not in got_map or doc_bgs[len(texts) - 1]
