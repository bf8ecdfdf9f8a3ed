"""Relational operators expressed Ray-Data-first over the driver's TPC-H-ish
tables — the generic forms of the reference's joins/aggregations (SURVEY.md
§2.4/§2.5/§2.6): partial+final aggregation, dimension lookup, semi- and
anti-join, top-k with deterministic tie-break, tumbling-window counts,
distinct.

Design rules applied throughout (the 100 TB contract):
* reads prune columns at the source (``read_parquet(columns=[...])``);
* every aggregation is combined inside ``map_batches`` BEFORE the groupby so
  the shuffle moves one row per (batch, key), not per input row;
* every key join is one ``exchange.lookup_join`` hop: the fact side
  streams, the dimension side is broadcast when it is small and meets the
  facts in a hash exchange when it is not (the route is measured, never a
  per-operator option), and every key-partitioned shuffle is one of
  ``exchange.py``'s;
* compared outputs carry integers (counts, keys, epoch seconds) or integral
  sums only — no float round-trip ambiguity against the SQL oracle.
"""

from __future__ import annotations

from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc


def _read(sf_dir: str, table: str, columns: list[str]):
    """``columns`` of ``{sf_dir}/{table}.parquet``, read without the file's
    pandas metadata: a block schema that carries it (a dict) cannot be
    hashed, so Ray logs a warning and runs its full schema unify on every
    block concat."""
    import pyarrow.parquet as pq
    import ray.data as rd

    path = str(Path(sf_dir) / f"{table}.parquet")
    schema = pq.read_schema(path)
    return rd.read_parquet(path, columns=columns, schema=pa.schema(
        [schema.field(c) for c in columns]))


def _nonnull(ds, cols: list[str]):
    """``ds`` without the rows that hold a null in any of ``cols``."""
    def keep(t: pa.Table) -> pa.Table:
        m = pc.is_valid(t[cols[0]])
        for c in cols[1:]:
            m = pc.and_(m, pc.is_valid(t[c]))
        return t.filter(m)

    return ds.map_batches(keep, batch_format="pyarrow")


def _disc_cents(batch: pa.Table) -> pa.Table:
    """``batch`` without its null-price / null-discount lineitems, the two
    columns replaced by integer disc-cents ``cents = floor(price * 100 +
    0.5) * (100 - floor(discount * 100 + 0.5)) // 100`` (the per-row
    formula the DuckDB mirrors use)."""
    import numpy as np

    batch = batch.filter(pc.and_(pc.is_valid(batch["l_extendedprice"]),
                                 pc.is_valid(batch["l_discount"])))
    cents = np.floor(
        batch["l_extendedprice"].to_numpy() * 100.0 + 0.5).astype(np.int64)
    dpct = np.floor(
        batch["l_discount"].to_numpy() * 100.0 + 0.5).astype(np.int64)
    return batch.drop_columns(["l_extendedprice", "l_discount"]) \
        .append_column("cents", pa.array(cents * (100 - dpct) // 100))


def _order_years(sf_dir: str):
    """(o_orderkey, o_year) of every order with a date."""
    import numpy as np

    def year(batch: "pa.Table") -> "pa.Table":
        batch = batch.filter(pc.is_valid(batch["o_orderdate"]))
        ts = batch["o_orderdate"].cast(pa.int64()).to_numpy()
        yr = (ts.astype("datetime64[us]").astype("datetime64[Y]")
              .astype(np.int64) + 1970)
        return pa.table({"o_orderkey": batch["o_orderkey"], "o_year": yr})

    return _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"]) \
        .map_batches(year, batch_format="pyarrow")


def _year_nation_fold(col: str):
    """A ``lookup_join`` fold of (o_year, s_nationkey, cents) rows to
    per-(year, nation) sums of ``cents``, named ``col``."""
    import numpy as np
    import pandas as pd

    def fold(t: "pa.Table") -> "pd.DataFrame":
        # nationkey < 1000 by TPC-H shape
        packed = t["o_year"].to_numpy().astype(np.int64) * 1_000 \
            + t["s_nationkey"].to_numpy().astype(np.int64)
        u, inv = np.unique(packed, return_inverse=True)
        s = np.zeros(len(u), dtype=np.int64)
        np.add.at(s, inv, t["cents"].to_numpy())
        return pd.DataFrame({"o_year": (u // 1_000).astype(np.int64),
                             "nat": (u % 1_000).astype(np.int64),
                             col: s})

    return fold


def _customer_nations(sf_dir: str):
    """The (c_custkey, c_nationkey) dimension, both int64."""
    schema = pa.schema([("c_custkey", pa.int64()), ("c_nationkey", pa.int64())])
    return _read(sf_dir, "customer", schema.names) \
        .map_batches(lambda t: t.select(schema.names).cast(schema),
                     batch_format="pyarrow")


def _count_by(key: str, col: str):
    """A fold of Arrow rows to their count per ``key``, named ``col`` (a
    NULL ``key`` is one group, as in SQL ``GROUP BY``)."""
    def fold(t: pa.Table) -> pa.Table:
        g = t.group_by(key).aggregate([([], "count_all")])
        return pa.table({key: g[key], col: g["count_all"]})

    return fold


def _sum_by(key: str, col: str):
    """The Arrow combiner of :func:`_count_by` partials: ``col`` summed per
    ``key``, a NULL ``key`` kept as one group."""
    def combine(t: pa.Table) -> pa.Table:
        g = t.group_by(key).aggregate([(col, "sum")])
        return pa.table({key: g[key], col: g[f"{col}_sum"]})

    return combine


def _run_starts(col) -> "np.ndarray":
    """Positions where a run of equal values starts in a sorted Arrow
    column; its NULLs (sorted together) are one run."""
    import numpy as np

    valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
    neq = pc.fill_null(pc.not_equal(col[1:], col[:-1]), True) \
        .to_numpy(zero_copy_only=False)
    return np.flatnonzero(np.r_[True, neq & (valid[1:] | valid[:-1])])


# ---------------------------------------------------------------------------
# Partial+final aggregation (TPC-H Q1 shape; reference G7 counters)
# ---------------------------------------------------------------------------


def lineitem_agg(sf_dir: str):
    """sum(l_quantity), count(*) per (l_returnflag, l_linestatus) — TPC-H Q1
    shape via the reusable hash-partitioned aggregate exchange."""
    import pandas as pd

    from ..stages.exchange import hash_partitioned_agg

    keys = ["l_returnflag", "l_linestatus"]

    def to_agg_form(df: "pd.DataFrame") -> "pd.DataFrame":
        return pd.DataFrame(
            {
                "l_returnflag": df["l_returnflag"],
                "l_linestatus": df["l_linestatus"],
                "sum_qty": df["l_quantity"],
                "n_rows": 1,
            }
        )

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return (
            df.groupby(keys, sort=False)
            .agg(sum_qty=("sum_qty", "sum"), n_rows=("n_rows", "sum"))
            .reset_index()
        )

    ds = _read(sf_dir, "lineitem", keys + ["l_quantity"])
    return hash_partitioned_agg(
        ds.map_batches(to_agg_form, batch_format="pandas"), keys, combine
    )


# ---------------------------------------------------------------------------
# Dimension attach (reference J7 dict lookup)
# ---------------------------------------------------------------------------


def orders_per_segment(sf_dir: str):
    """orders ⋈ customer on custkey -> order count per c_mktsegment: one
    ``lookup_join`` (customer broadcast while it is small) whose fold
    counts segments per batch or partition, then a segment-keyed combiner
    exchange.  A NULL segment is one group, as in SQL ``GROUP BY``."""
    from ..stages.exchange import hash_partitioned_agg, lookup_join

    return hash_partitioned_agg(
        lookup_join(_read(sf_dir, "orders", ["o_custkey"]), "o_custkey",
                    _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]),
                    "c_custkey", ["c_mktsegment"],
                    then=_count_by("c_mktsegment", "n_orders")),
        ["c_mktsegment"], _sum_by("c_mktsegment", "n_orders"),
        kernel_format="pyarrow")


# ---------------------------------------------------------------------------
# Semi-join (reference J5: QA ⋉ surviving breakdowns)
# ---------------------------------------------------------------------------


def customers_with_orders(sf_dir: str):
    """customer ⋉ orders: custkeys having >= 1 order — one semi
    :func:`~kgx.stages.exchange.lookup_join` of the customer keys against
    the order custkeys (a null custkey never matches, as in SQL ``IN``)."""
    from ..stages.exchange import lookup_join

    return lookup_join(_read(sf_dir, "customer", ["c_custkey"]), "c_custkey",
                       _read(sf_dir, "orders", ["o_custkey"]), "o_custkey",
                       how="semi")


# ---------------------------------------------------------------------------
# Top-k with deterministic tie-break (reference O4/O6 argmax + caps)
# ---------------------------------------------------------------------------


def top_customers_by_orders(sf_dir: str, k: int = 10):
    """Top-k custkeys by order count; tie-break custkey asc.  Partial counts
    combine per batch; the final sort sees one row per custkey."""

    import pandas as pd
    import ray.data as rd

    from ..stages.exchange import hash_partitioned_agg, top_k

    def to_agg_form(df: "pd.DataFrame") -> "pd.DataFrame":
        return pd.DataFrame({"o_custkey": df["o_custkey"], "n_orders": 1})

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return (
            df.groupby("o_custkey", sort=False)
            .agg(n_orders=("n_orders", "sum"))
            .reset_index()
        )

    ds = _read(sf_dir, "orders", ["o_custkey"])
    counts = hash_partitioned_agg(
        ds.map_batches(to_agg_form, batch_format="pandas"), ["o_custkey"], combine
    )
    return rd.from_pandas(
        top_k(counts, ["n_orders", "o_custkey"], [True, False], k))


# ---------------------------------------------------------------------------
# Tumbling-window count (reference G5 per-minute cap / G6 sliding analysis)
# ---------------------------------------------------------------------------


def events_per_user_hour(sf_dir: str):
    """(user_id, hour_epoch, n_events): tumbling 1-hour windows per user."""

    import pandas as pd

    from ..stages.exchange import hash_partitioned_agg

    keys = ["user_id", "hour_epoch"]

    def to_agg_form(df: "pd.DataFrame") -> "pd.DataFrame":
        hour_us = df["ts"].astype("datetime64[us]").astype("int64")
        return pd.DataFrame(
            {
                "user_id": df["user_id"],
                "hour_epoch": hour_us // 3_600_000_000 * 3600,
                "n_events": 1,
            }
        )

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return (
            df.groupby(keys, sort=False)
            .agg(n_events=("n_events", "sum"))
            .reset_index()
        )

    ds = _read(sf_dir, "events", ["ts", "user_id"])
    return hash_partitioned_agg(
        ds.map_batches(to_agg_form, batch_format="pandas"), keys, combine
    )


# ---------------------------------------------------------------------------
# Range join (reference J1: interval containment — segments within a frame's
# display window, gemini_backend.py:79-92 — generalized to rows within a
# per-key time window)
# ---------------------------------------------------------------------------


def lineitems_in_order_window(sf_dir: str, days: int = 90):
    """lineitem ⋈ orders on orderkey WHERE shipdate ∈ [orderdate,
    orderdate + days): count qualifying items per o_orderpriority.

    Range join as equi-join + vectorized window predicate: one
    ``lookup_join`` attaches each lineitem's order date and priority (the
    orders dimension meets the lineitems in a keyed exchange once it is
    too big to broadcast), its fold applies the containment predicate and
    counts per priority, and a tiny keyed exchange sums the partials."""
    import pandas as pd

    from ..stages.exchange import hash_partitioned_agg, lookup_join

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"])
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    window_ns = days * 86_400 * 1_000_000_000

    def window_counts(t: pa.Table) -> "pd.DataFrame":
        df = t.to_pandas()
        ship = pd.to_datetime(df["l_shipdate"]).astype("datetime64[ns]").astype("int64")
        start = pd.to_datetime(df["o_orderdate"]).astype("datetime64[ns]").astype("int64")
        mask = (ship.values >= start.values) & (ship.values < start.values + window_ns)
        vc = df["o_orderpriority"][mask].value_counts()
        return pd.DataFrame(
            {"o_orderpriority": vc.index.astype(str), "n_items": vc.values.astype("int64")}
        )

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return (
            df.groupby("o_orderpriority", sort=False)
            .agg(n_items=("n_items", "sum"))
            .reset_index()
        )

    part = lookup_join(li, "l_orderkey", orders, "o_orderkey",
                       ["o_orderdate", "o_orderpriority"], then=window_counts)
    return hash_partitioned_agg(part, ["o_orderpriority"], combine)


# ---------------------------------------------------------------------------
# Gap-based sessionization (reference G1 run-length grouping, base.py:30-51:
# a new group starts whenever the ordered stream changes state — here, when
# the inter-event gap exceeds the timeout)
# ---------------------------------------------------------------------------


def sessionize_events(sf_dir: str, gap_minutes: int = 30):
    """events -> (user_id, session_start_us, n_events): per-user sessions
    split where the gap to the previous event exceeds ``gap_minutes``.

    Order-dependent semantics are PER KEY; users co-locate via the part_id
    exchange and each partition runs ONE vectorized kernel over all its
    users: sort by (user, ts, event_id), boundary-aware gap test (a user
    change always opens a session), cumulative session ids — no per-user
    Python anywhere (user count is unbounded at web scale; reference G1
    run-length semantics, base.py:30-51)."""
    import pandas as pd

    from ..stages.exchange import hash_partitioned_apply

    gap_us = gap_minutes * 60 * 1_000_000

    def sessions(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(["user_id", "ts", "event_id"])
        us = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        users = df["user_id"].to_numpy()
        import numpy as np

        new_s = np.ones(len(df), dtype=bool)
        if len(df) > 1:
            same_user = users[1:] == users[:-1]
            small_gap = (us[1:] - us[:-1]) <= gap_us
            new_s[1:] = ~(same_user & small_gap)
        sid = np.cumsum(new_s)
        out = (
            pd.DataFrame({"user_id": users, "sid": sid, "us": us})
            .groupby("sid", sort=False)
            .agg(user_id=("user_id", "first"), session_start_us=("us", "min"),
                 n_events=("us", "size"))
        )
        return out.reset_index(drop=True)[["user_id", "session_start_us", "n_events"]]

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id"])
    return hash_partitioned_apply(ds, ["user_id"], sessions)


# ---------------------------------------------------------------------------
# Distinct (reference D4/G4 set semantics)
# ---------------------------------------------------------------------------


def events_trailing_hour(sf_dir: str):
    """(event_id, n_last_hour): per event, how many of the same user's
    events fall in the trailing 1-hour window INCLUDING this one — the
    sliding-window analog of the reference's activity analysis (G6,
    extractor.py:241-299: frames/min over a trailing window).

    Users co-locate via the partition-only exchange; ONE vectorized kernel
    per partition handles all its users: rows sort by (user, ts, event_id)
    and the searchsorted probe runs on a per-user OFFSET KEY (user_rank *
    huge_base + ts) so a window can never bleed into the previous user —
    no per-user Python loop (unbounded user cardinality at web scale)."""
    import numpy as np
    import pandas as pd

    from ..stages.exchange import hash_partitioned_apply

    window_us = 3600 * 1_000_000

    def kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(["user_id", "ts", "event_id"])
        us = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        users = df["user_id"].to_numpy()
        # per-user blocks (sorted by ts within each): tight cumulative base
        # offsets make one GLOBAL monotone key where windows cannot bleed
        # across users — a single searchsorted for the whole partition
        starts = np.flatnonzero(np.r_[True, users[1:] != users[:-1]])
        ends = np.r_[starts[1:] - 1, len(users) - 1]
        spans = us[ends] - us[starts]
        base = np.zeros(len(starts), dtype=np.int64)
        if len(starts) > 1:
            base[1:] = np.cumsum(spans[:-1] + window_us + 1)
        rank = np.cumsum(np.r_[0, (users[1:] != users[:-1]).astype(np.int64)])
        keyed = base[rank] + (us - us[starts][rank])
        assert keyed[-1] < (1 << 62), "offset-key overflow; partition too wide"
        lo = np.searchsorted(keyed, keyed - window_us, side="left")
        n = np.arange(len(us)) - lo + 1
        return pd.DataFrame({"event_id": df["event_id"], "n_last_hour": n})

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id"])
    return hash_partitioned_apply(ds, ["user_id"], kernel)


def orders_per_nation_native_join(sf_dir: str):
    """Order count per customer nation: one ``lookup_join`` of the orders
    against the customer dimension, folded per batch or partition to
    per-nation counts, then a nation-keyed combiner exchange.  The
    dimension meets the orders in a keyed exchange once it is too big to
    broadcast; a NULL nation is one group, as in SQL ``GROUP BY``."""
    from ..stages.exchange import hash_partitioned_agg, lookup_join

    return hash_partitioned_agg(
        lookup_join(_read(sf_dir, "orders", ["o_custkey"]), "o_custkey",
                    _customer_nations(sf_dir), "c_custkey", ["c_nationkey"],
                    then=_count_by("c_nationkey", "n_orders")),
        ["c_nationkey"], _sum_by("c_nationkey", "n_orders"),
        kernel_format="pyarrow")


def event_json_values(sf_dir: str):
    """(event_id, k_value) extracted from the JSON ``props`` column with a
    fail-open regex parse (reference M13 defensive LLM-JSON parsing,
    gemini_backend.py:131-139: malformed -> dropped, never a crash)."""
    import pandas as pd

    def extract(df: "pd.DataFrame") -> "pd.DataFrame":
        k = df["props"].fillna("").str.extract(r'"k":\s*(\d+)', expand=False)
        out = pd.DataFrame({"event_id": df["event_id"], "k_value": k})
        out = out.dropna(subset=["k_value"])
        out["k_value"] = out["k_value"].astype("int64")
        return out

    ds = _read(sf_dir, "events", ["event_id", "props"])
    return ds.map_batches(extract, batch_format="pandas")


def top_orders_per_segment(sf_dir: str, k: int = 3):
    """Per-group top-N (reference O6 per-window caps + O4 argmax): the k
    highest-value orders per market segment, tie-break orderkey asc.

    One ``lookup_join`` attaches each order's segment and its fold keeps
    each batch's (or partition's) top k per segment, so the segment-keyed
    exchange moves k rows per (segment, batch); the same vectorized kernel
    then ranks each segment's survivors.  A NULL segment is one group, as
    in SQL ``PARTITION BY``."""
    import numpy as np

    from ..stages.exchange import hash_partitioned_apply, lookup_join

    order = [("c_mktsegment", "ascending"), ("o_totalprice", "descending"),
             ("o_orderkey", "ascending")]

    def ranked(t: pa.Table) -> pa.Table:
        t = t.sort_by(order)
        starts = _run_starts(t["c_mktsegment"])
        sizes = np.diff(np.r_[starts, t.num_rows])
        rnk = np.arange(t.num_rows) - np.repeat(starts, sizes) + 1
        keep = pa.array(rnk <= k)
        return pa.table({"c_mktsegment": t["c_mktsegment"].filter(keep),
                         "o_orderkey": t["o_orderkey"].filter(keep),
                         "o_totalprice": t["o_totalprice"].filter(keep),
                         "rnk": pa.array(rnk).filter(keep)})

    part = lookup_join(
        _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"]),
        "o_custkey", _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]),
        "c_custkey", ["c_mktsegment"], then=ranked)
    return hash_partitioned_apply(
        part, ["c_mktsegment"],
        lambda t: ranked(t).drop_columns(["o_totalprice"]),
        kernel_format="pyarrow")


def prev_order_asof(sf_dir: str):
    """As-of self-join: each order joined to the SAME customer's most recent
    strictly-earlier order (tie among equal earlier dates -> max orderkey);
    emits (o_orderkey, prev_orderkey | -1, gap_days | -1).

    The as-of join Ray Data lacks natively, realized as the documented
    composition: partition-only exchange on the key, then ONE vectorized
    kernel per partition over all its customers (per-customer blocks under a
    (cust, date, key) sort; a single global searchsorted on tight cumulative
    offset keys so probes never cross customers) — no per-customer Python
    (the generic form of the linker's as-of candidate step J2, reference
    aligner.py:44-50)."""
    import numpy as np
    import pandas as pd

    from ..stages.exchange import hash_partitioned_apply

    def kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(["o_custkey", "o_orderdate", "o_orderkey"])
        dates = (
            pd.to_datetime(df["o_orderdate"]).astype("datetime64[us]").astype("int64").to_numpy()
        )
        keys = df["o_orderkey"].to_numpy()
        custs = df["o_custkey"].to_numpy()
        n = len(df)
        if n == 0:
            return pd.DataFrame(
                {"o_orderkey": keys, "prev_orderkey": keys, "gap_days": keys}
            )
        starts = np.flatnonzero(np.r_[True, custs[1:] != custs[:-1]])
        ends = np.r_[starts[1:] - 1, n - 1]
        spans = dates[ends] - dates[starts]
        base = np.zeros(len(starts), dtype=np.int64)
        if len(starts) > 1:
            base[1:] = np.cumsum(spans[:-1] + 1)
        rank = np.cumsum(np.r_[0, (custs[1:] != custs[:-1]).astype(np.int64)])
        block_start = starts[rank]
        keyed = base[rank] + (dates - dates[starts][rank])
        assert keyed[-1] < (1 << 62), "offset-key overflow; partition too wide"
        # first row with the SAME (cust, date) -> rows before it in the same
        # block are strictly earlier; the last of them is the as-of match
        # (max (date, orderkey) among earlier, by the sort order)
        lo = np.searchsorted(keyed, keyed, side="left")
        has_prev = lo > block_start
        prev_idx = np.maximum(lo - 1, 0)
        prev = np.where(has_prev, keys[prev_idx], -1)
        gap = np.where(
            has_prev, (dates - dates[prev_idx]) // (86_400 * 1_000_000), -1
        )
        return pd.DataFrame(
            {
                "o_orderkey": keys.astype("int64"),
                "prev_orderkey": prev.astype("int64"),
                "gap_days": gap.astype("int64"),
            }
        )

    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderdate"])
    return hash_partitioned_apply(ds, ["o_custkey"], kernel)


def _order_count_quantiles(sf_dir: str, cols: dict[str, int]):
    """(c_nationkey, *cols): per customer nation, the lower order
    statistic at index (n-1)*q//100 of the order counts of its customers
    with >= 1 order, for each column name -> q of ``cols``.

    Three stages, none per-key Python: (1) order counts per custkey via the
    combiner exchange; (2) the nation attached by one ``lookup_join``;
    (3) nations co-locate via the partition-only exchange and ONE
    vectorized kernel per partition picks each nation's order statistics
    from its sorted counts via group offsets.  A NULL nation is one group,
    as in SQL ``GROUP BY``."""
    import numpy as np
    import pandas as pd

    from ..stages.exchange import (hash_partitioned_agg,
                                   hash_partitioned_apply, lookup_join)

    def to_agg_form(df: "pd.DataFrame") -> "pd.DataFrame":
        return pd.DataFrame({"o_custkey": df["o_custkey"], "cnt": 1})

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return (
            df.groupby("o_custkey", sort=False, as_index=False)
            .agg(cnt=("cnt", "sum"))
        )

    counts = hash_partitioned_agg(
        _read(sf_dir, "orders", ["o_custkey"])
        .map_batches(to_agg_form, batch_format="pandas"),
        ["o_custkey"], combine,
    )
    attached = lookup_join(counts, "o_custkey", _customer_nations(sf_dir),
                           "c_custkey", ["c_nationkey"])

    def kernel(t: pa.Table) -> pa.Table:
        t = t.sort_by([("c_nationkey", "ascending"), ("cnt", "ascending")])
        starts = _run_starts(t["c_nationkey"])
        n = np.diff(np.r_[starts, t.num_rows])
        return pa.table(
            {"c_nationkey": t["c_nationkey"].take(pa.array(starts)),
             **{c: t["cnt"].take(pa.array(starts + (n - 1) * q // 100))
                for c, q in cols.items()}})

    return hash_partitioned_apply(attached, ["c_nationkey"], kernel,
                                  kernel_format="pyarrow")


def median_orders_per_nation(sf_dir: str):
    """Exact per-group MEDIAN (lower median of a holistic distribution):
    per customer nation, the median order count among customers with >= 1
    order — the distributed form of a holistic aggregate no combiner can
    express (contrast with the algebraic sums above).  Index (n-1)//2 of
    the sorted counts, so :func:`_order_count_quantiles` at q = 50."""
    return _order_count_quantiles(sf_dir, {"median_orders": 50})


def distinct_event_types(sf_dir: str):
    """Distinct event_type values, one column out: a per-batch distinct,
    then the same distinct per partition of an event_type-keyed exchange
    (a NULL type is one value, as in SQL ``DISTINCT``)."""
    from ..stages.exchange import hash_partitioned_agg

    return hash_partitioned_agg(
        _read(sf_dir, "events", ["event_type"]), ["event_type"],
        lambda t: pa.table({"event_type": pc.unique(t["event_type"])}),
        kernel_format="pyarrow")


def event_funnel(sf_dir: str, a: str = "click", b: str = "purchase",
                 window_minutes: int = 30):
    """Funnel / sequence-pattern detection: per user, how many ``a`` events
    are followed by at least one ``b`` event within ``window_minutes``
    (conversions), alongside the user's total ``a`` count — the
    MATCH_RECOGNIZE-lite streaming analytics the reference's session
    analysis implies (G1/G6 family; cf. sessionize_events).

    Users co-locate via the partition-only exchange; ONE vectorized kernel
    per partition: both event streams sort by (user, ts), per-user offset
    keys (cumulative bases wider than the window, same trick as
    events_trailing_hour) make a single global searchsorted of each A
    timestamp against the B stream — windows cannot bleed across users, no
    per-user Python at unbounded user cardinality.  Only users with >= 1
    ``a`` event appear."""
    import numpy as np
    import pandas as pd

    from ..stages.exchange import hash_partitioned_apply

    window_us = window_minutes * 60 * 1_000_000

    def kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df[df["event_type"].isin([a, b])]
        if len(df) == 0:
            return pd.DataFrame()
        df = df.sort_values(["user_id", "ts", "event_id"])
        us = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        users = df["user_id"].to_numpy()
        # per-user offset key: windows cannot reach the previous user
        starts = np.flatnonzero(np.r_[True, users[1:] != users[:-1]])
        ends = np.r_[starts[1:] - 1, len(users) - 1]
        spans = us[ends] - us[starts]
        base = np.zeros(len(starts), dtype=np.int64)
        if len(starts) > 1:
            base[1:] = np.cumsum(spans[:-1] + window_us + 1)
        rank = np.cumsum(np.r_[0, (users[1:] != users[:-1]).astype(np.int64)])
        keyed = base[rank] + (us - us[starts][rank])
        assert keyed[-1] < (1 << 62), "offset-key overflow; partition too wide"
        is_a = (df["event_type"] == a).to_numpy()
        a_keys, b_keys = keyed[is_a], keyed[~is_a]
        # an A converts iff some B lands in (a_ts, a_ts + window]
        lo = np.searchsorted(b_keys, a_keys, side="right")
        hi = np.searchsorted(b_keys, a_keys + window_us, side="right")
        converted = (hi > lo).astype(np.int64)
        out = pd.DataFrame({"user_id": users[is_a], "converted": converted})
        g = out.groupby("user_id", sort=False, as_index=False).agg(
            n_a=("converted", "size"), n_converted=("converted", "sum")
        )
        return pd.DataFrame(
            {
                "user_id": g["user_id"].astype("int64"),
                "n_a": g["n_a"].astype("int64"),
                "n_converted": g["n_converted"].astype("int64"),
            }
        )

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
    return hash_partitioned_apply(ds, ["user_id"], kernel)


def sql_event_funnel(a: str = "click", b: str = "purchase",
                     window_minutes: int = 30) -> str:
    window_us = window_minutes * 60 * 1_000_000
    return f"""
WITH ev AS (
  SELECT user_id, event_type, epoch_us(ts) AS us FROM events
  WHERE event_type IN ('{a}', '{b}')
), conv AS (
  SELECT x.user_id,
         CASE WHEN EXISTS (
           SELECT 1 FROM ev y WHERE y.user_id = x.user_id
             AND y.event_type = '{b}'
             AND y.us > x.us AND y.us <= x.us + {window_us}
         ) THEN 1 ELSE 0 END AS converted
  FROM ev x WHERE x.event_type = '{a}'
)
SELECT CAST(user_id AS BIGINT) AS user_id,
       CAST(count(*) AS BIGINT) AS n_a,
       CAST(sum(converted) AS BIGINT) AS n_converted
FROM conv GROUP BY user_id
"""


def quantile_orders_per_nation(sf_dir: str):
    """Exact per-group QUANTILES (p25/p50/p75, lower order statistic at
    index (n-1)*q//100) of per-customer order counts by nation — the
    multi-point generalization of median_orders_per_nation, sharing its
    plan (:func:`_order_count_quantiles`)."""
    return _order_count_quantiles(sf_dir, {f"p{q}": q for q in (25, 50, 75)})


def sql_quantile_orders_per_nation() -> str:
    idx = {q: f"((count(*) - 1) * {q}) // 100 + 1" for q in (25, 50, 75)}
    cols = ", ".join(
        f"CAST((array_agg(cnt ORDER BY cnt))[{i}] AS BIGINT) AS p{q}"
        for q, i in idx.items()
    )
    return (
        "WITH counts AS (SELECT o_custkey, CAST(count(*) AS BIGINT) AS cnt "
        "FROM orders GROUP BY o_custkey), "
        "j AS (SELECT c.c_nationkey, counts.cnt FROM counts "
        "JOIN customer c ON c.c_custkey = counts.o_custkey) "
        f"SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey, {cols} "
        "FROM j GROUP BY c_nationkey"
    )


# ---------------------------------------------------------------------------
# Anti-join (reference J5's complement: exclusion filtering — the "drop
# everything already processed/linked" shape, post_processor.py:62-63)
# ---------------------------------------------------------------------------


def customers_without_urgent(sf_dir: str):
    """customer ▷ orders[o_orderpriority = '1-URGENT']: custkeys having NO
    urgent order (anti-join; the exclusion dual of
    ``customers_with_orders``) — one anti ``lookup_join`` against the
    urgent orders, so a null custkey is kept (SQL ``NOT EXISTS``)."""
    from ..stages.exchange import lookup_join

    urgent = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"]) \
        .map_batches(lambda t: t.filter(
            pc.equal(t["o_orderpriority"], "1-URGENT")),
            batch_format="pyarrow")
    return lookup_join(_read(sf_dir, "customer", ["c_custkey"]), "c_custkey",
                       urgent, "o_custkey", how="anti")


# ---------------------------------------------------------------------------
# Pivot / crosstab (reshape: long event stream -> wide per-user profile,
# the feature-table shape every training pipeline materializes)
# ---------------------------------------------------------------------------

EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def event_type_pivot(sf_dir: str):
    """events -> one row per user with one count column per event type
    (long-to-wide crosstab).  The column set is the FIXED type vocabulary
    (pivot requires a stable output schema; unknown types would go to an
    explicit overflow column in a schema-evolving deployment).

    Partial crosstabs combine per batch — one row per user per batch with 5
    int columns — so the exchange moves pre-aggregated wide rows, never raw
    events; the keyed combiner merge is a single vectorized sum per
    partition."""
    import pandas as pd

    from ..stages.exchange import hash_partitioned_agg

    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def to_agg_form(df: "pd.DataFrame") -> "pd.DataFrame":
        out = {"user_id": df["user_id"].astype("int64")}
        et = df["event_type"]
        for t in EVENT_TYPES:
            out[f"n_{t}"] = (et == t).astype("int64")
        return pd.DataFrame(out)

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return (
            df.groupby("user_id", sort=False, as_index=False)
            .agg(**{f"n_{t}": (f"n_{t}", "sum") for t in EVENT_TYPES})
        )

    return hash_partitioned_agg(
        ds.map_batches(to_agg_form, batch_format="pandas"), ["user_id"], combine
    )


def sql_event_type_pivot() -> str:
    cols = ", ".join(
        f"CAST(count(*) FILTER (WHERE event_type = '{t}') AS BIGINT) AS n_{t}"
        for t in EVENT_TYPES
    )
    return f"SELECT user_id, {cols} FROM events GROUP BY user_id"


# ---------------------------------------------------------------------------
# Running total (per-key prefix sum — the ordered-window dual of the
# tumbling/sliding windows; reference §2.9 ordering semantics)
# ---------------------------------------------------------------------------


def running_order_total(sf_dir: str):
    """orders -> per-customer cumulative revenue over date-ordered orders:
    (o_custkey, o_orderkey, cum_cents).

    Money is integer cents (``floor(p*100 + 0.5)`` — the conf_pct
    half-away convention shared with the SQL oracle) so the prefix sum is
    exact under any execution order.  One partition-only exchange on
    custkey, then a single vectorized sort + grouped cumsum kernel per
    partition — no per-key Python at unbounded customer counts, windows
    cannot bleed across keys because partitioning is by key hash."""
    import numpy as np
    import pandas as pd

    from ..stages.exchange import hash_partitioned_apply

    ds = _read(
        sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"]
    )

    def kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        d = df.sort_values(["o_custkey", "o_orderdate", "o_orderkey"])
        cents = np.floor(d["o_totalprice"].to_numpy() * 100.0 + 0.5).astype(
            "int64"
        )
        d = d.assign(cents=cents)
        cum = d.groupby("o_custkey", sort=False)["cents"].cumsum()
        return pd.DataFrame(
            {
                "o_custkey": d["o_custkey"].astype("int64"),
                "o_orderkey": d["o_orderkey"].astype("int64"),
                "cum_cents": cum.astype("int64"),
            }
        )

    return hash_partitioned_apply(ds, ["o_custkey"], kernel)


def sql_running_order_total() -> str:
    return (
        "SELECT o_custkey, o_orderkey, "
        "CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) OVER ("
        "PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey "
        "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS BIGINT) "
        "AS cum_cents FROM orders"
    )


# ---------------------------------------------------------------------------
# Rollup (multi-granularity aggregate in ONE pass — the report-summary
# shape; reference G9 batch summary emits per-batch AND per-run totals)
# ---------------------------------------------------------------------------


def lineitem_rollup(sf_dir: str):
    """lineitem -> (l_returnflag, l_linestatus) aggregates PLUS per-flag
    subtotals and the grand total, 'ALL' as the rolled-up sentinel (NULL
    would be hash-hostile in the driver compare).

    All three levels come out of the one combiner exchange: each batch
    partial emits its level-0 rows and locally rolled-up level-1/2 rows
    (a few extra rows per batch — group cardinality here is bounded), and
    the keyed merge sums each (flag, status) cell once.  One scan, one
    exchange, no second aggregation pass over the data."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from ..stages.exchange import hash_partitioned_agg

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_quantity"])
    # the grand total exists over no rows too (SQL's aggregate without
    # GROUP BY): one zero partial seeds it
    total0 = rd.from_pandas(pd.DataFrame(
        {"l_returnflag": ["ALL"], "l_linestatus": ["ALL"], "n_rows": [0],
         "sum_qty": [0]}))

    def levels(df: "pd.DataFrame") -> "pd.DataFrame":
        qty = np.floor(df["l_quantity"].to_numpy() + 0.5).astype("int64")
        base = pd.DataFrame(
            {
                "l_returnflag": df["l_returnflag"],
                "l_linestatus": df["l_linestatus"],
                "n_rows": np.ones(len(df), dtype="int64"),
                "sum_qty": qty,
            }
        )
        g0 = base.groupby(
            ["l_returnflag", "l_linestatus"], sort=False, as_index=False
        ).agg(n_rows=("n_rows", "sum"), sum_qty=("sum_qty", "sum"))
        g1 = g0.groupby("l_returnflag", sort=False, as_index=False).agg(
            n_rows=("n_rows", "sum"), sum_qty=("sum_qty", "sum")
        )
        g1.insert(1, "l_linestatus", "ALL")
        g2 = pd.DataFrame(
            {
                "l_returnflag": ["ALL"],
                "l_linestatus": ["ALL"],
                "n_rows": [g0["n_rows"].sum()],
                "sum_qty": [g0["sum_qty"].sum()],
            }
        )
        return pd.concat([g0, g1, g2], ignore_index=True)

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby(
            ["l_returnflag", "l_linestatus"], sort=False, as_index=False
        ).agg(n_rows=("n_rows", "sum"), sum_qty=("sum_qty", "sum"))

    return hash_partitioned_agg(
        ds.map_batches(levels, batch_format="pandas").union(total0),
        ["l_returnflag", "l_linestatus"], combine,
    )


def sql_lineitem_rollup() -> str:
    q = "CAST(floor(l_quantity + 0.5) AS BIGINT)"
    lvl0 = (
        "SELECT l_returnflag, l_linestatus, "
        f"CAST(count(*) AS BIGINT) AS n_rows, CAST(sum({q}) AS BIGINT) AS sum_qty "
        "FROM lineitem GROUP BY l_returnflag, l_linestatus"
    )
    lvl1 = (
        "SELECT l_returnflag, 'ALL' AS l_linestatus, "
        f"CAST(count(*) AS BIGINT) AS n_rows, CAST(sum({q}) AS BIGINT) AS sum_qty "
        "FROM lineitem GROUP BY l_returnflag"
    )
    lvl2 = (
        "SELECT 'ALL' AS l_returnflag, 'ALL' AS l_linestatus, "
        f"CAST(count(*) AS BIGINT) AS n_rows, CAST(sum({q}) AS BIGINT) AS sum_qty "
        "FROM lineitem"
    )
    return f"{lvl0} UNION ALL {lvl1} UNION ALL {lvl2}"


# ---------------------------------------------------------------------------
# Grouped mode (holistic argmax aggregate; reference G3 keyword-argmax
# generalized to the most-frequent-value-per-group shape)
# ---------------------------------------------------------------------------


def priority_mode_per_segment(sf_dir: str):
    """(c_mktsegment, mode_priority, n_orders): each segment's most common
    order priority, tie-break priority asc.

    Orders pick up their customer's segment in one ``lookup_join`` whose
    fold counts (segment, priority) cells BEFORE the shuffle (one row per
    cell per batch or partition — the cell count is bounded, 25 here and
    segments x priorities in general), the keyed exchange merges them, and
    the argmax runs over the merged cell table, which is group-cardinality
    scale by construction (never row scale)."""
    import pandas as pd

    from ..stages.exchange import (hash_partitioned_agg,
                                   hash_partitioned_apply, lookup_join)

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby(
            ["c_mktsegment", "o_orderpriority"], sort=False, as_index=False
        ).agg(n_orders=("n_orders", "sum"))

    def count_cells(t: "pa.Table") -> "pa.Table":
        g = t.group_by(["c_mktsegment", "o_orderpriority"]).aggregate(
            [([], "count_all")])
        return pa.table({"c_mktsegment": g["c_mktsegment"],
                         "o_orderpriority": g["o_orderpriority"],
                         "n_orders": g["count_all"]})

    cell_src = lookup_join(
        _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"]),
        "o_custkey",
        _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]),
        "c_custkey", ["c_mktsegment"], then=count_cells)
    cells = hash_partitioned_agg(cell_src, ["c_mktsegment"], combine)

    def argmax_kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        d = df.sort_values(
            ["c_mktsegment", "n_orders", "o_orderpriority"],
            ascending=[True, False, True],
        )
        top = d.groupby("c_mktsegment", sort=False).head(1)
        return pd.DataFrame(
            {
                "c_mktsegment": top["c_mktsegment"],
                "mode_priority": top["o_orderpriority"],
                "n_orders": top["n_orders"].astype("int64"),
            }
        )

    # keyed by segment: every segment's cells land whole in one partition
    return hash_partitioned_apply(cells, ["c_mktsegment"], argmax_kernel)


def sql_priority_mode_per_segment() -> str:
    return (
        "WITH cells AS (SELECT c.c_mktsegment, o.o_orderpriority, "
        "CAST(count(*) AS BIGINT) AS n_orders "
        "FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey "
        "GROUP BY 1, 2), r AS (SELECT *, row_number() OVER ("
        "PARTITION BY c_mktsegment "
        "ORDER BY n_orders DESC, o_orderpriority) AS rnk FROM cells) "
        "SELECT c_mktsegment, o_orderpriority AS mode_priority, n_orders "
        "FROM r WHERE rnk = 1"
    )


# ---------------------------------------------------------------------------
# Bloom-prefiltered semi-join (the sketch-in-a-pipeline pattern: the ~8 KB
# bitset broadcasts where an exact key set could not, the probe side
# shrinks BEFORE the exchange, exact verify removes the false positives)
# ---------------------------------------------------------------------------


def customers_with_orders_bloom(
    sf_dir: str,
    gate_bytes: int = 64 * 1024 * 1024,
    force: str | None = None,
):
    """Same result set as ``customers_with_orders``, different scale
    strategy: the orders key set is summarized into the fixed-size Bloom
    bitset (one combiner exchange over bit rows, never keys), the bitset
    broadcasts once, the customer probe side filters vectorized BEFORE any
    join exchange (no false negatives, so no customer is lost), and one
    semi ``lookup_join`` of the surviving probes against the orders drops
    the Bloom false positives exactly.

    Why it matters at 100 TB: once the orders' custkeys are too big to
    broadcast, the semi-join's keyed exchange ships the WHOLE probe side;
    the Bloom path always broadcasts O(BLOOM_M) bits and ships only probe
    rows that (almost all correctly) claim a match — for selective
    semi-joins the probe exchange shrinks by the selectivity factor at an
    8 KB fixed cost.

    COST GATE: the prefilter saves shuffle bytes proportional to the probe
    side's size, but costs three fixed setup stages (bitset exchange,
    collect, broadcast). When the probe side's metadata byte estimate is
    under ``gate_bytes`` the savings can't cover the setup, so the plain
    semi-join path runs instead — identical result set either way
    (``force='bloom'|'plain'`` pins a path for tests)."""
    import numpy as np
    import ray

    from ..stages.exchange import collect_arrow, lookup_join
    from ..stages.sketch import BLOOM_M, bloom_build, bloom_membership_mask

    probe_bytes = _read(sf_dir, "customer", ["c_custkey"]).size_bytes() or 0
    path = force or ("bloom" if probe_bytes > gate_bytes else "plain")
    if path == "plain":
        return customers_with_orders(sf_dir)

    orders = _read(sf_dir, "orders", ["o_custkey"]).materialize()
    bits = collect_arrow(bloom_build(orders, "o_custkey"),
                         pa.schema([("bit", pa.int64())]))
    bitset = np.zeros(BLOOM_M, dtype=bool)  # <= BLOOM_M bit rows
    bitset[bits["bit"].to_numpy()] = True
    bits_ref = ray.put(bitset)

    def prefilter(batch: pa.Table) -> pa.Table:
        bs = ray.get(bits_ref)
        keys = batch["c_custkey"].to_numpy()
        return batch.filter(pa.array(bloom_membership_mask(keys, bs)))

    survivors = _read(sf_dir, "customer", ["c_custkey"]) \
        .map_batches(prefilter, batch_format="pyarrow")
    return lookup_join(survivors, "c_custkey", orders, "o_custkey",
                       how="semi")


# ---------------------------------------------------------------------------
# Composed multi-table pipeline (TPC-H Q3 shape): segment filter ->
# revenue aggregate -> order attach -> global top-k
# ---------------------------------------------------------------------------

Q3_SEGMENT = "BUILDING"
Q3_K = 10


def top_revenue_orders(sf_dir: str, segment: str = Q3_SEGMENT,
                       k: int = Q3_K):
    """The classic three-table analytics composition, end-to-end streaming:
    customers in one market segment -> their orders -> per-order lineitem
    revenue -> global top-k; (o_orderkey, revenue_cp, rank).

    Revenue is integer "cent-percent" units so the whole plan is
    hash-exact: ``floor(price*100+0.5) * (100 - floor(discount*100+0.5))``
    summed per order (no float accumulation-order ambiguity).

    Plan shape (each piece is an already-measured primitive):
    * two semi ``lookup_join`` hops: orders of the segment's customers,
      then the lineitems of those orders, folded per batch (or partition)
      to per-order revenue partials;
    * one orderkey-keyed combiner exchange finishes the per-order sums;
    * only each block's top k rows cross to the driver, which ranks them
      once (the ngram_topk rule)."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc
    import ray.data as rd

    from ..stages.exchange import hash_partitioned_agg, lookup_join, top_k

    seg = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]) \
        .map_batches(lambda t: t.filter(pc.equal(t["c_mktsegment"], segment)),
                     batch_format="pyarrow")
    qual = lookup_join(_read(sf_dir, "orders", ["o_orderkey", "o_custkey"]),
                       "o_custkey", seg, "c_custkey", how="semi")

    def revenue_partial(batch: "pa.Table") -> "pd.DataFrame":
        ok = pc.and_(pc.is_valid(batch["l_extendedprice"]),
                     pc.is_valid(batch["l_discount"]))
        batch = batch.filter(ok)  # NaN revenue would poison the order's sum
        okey = batch["l_orderkey"].to_numpy()
        cents = np.floor(
            batch["l_extendedprice"].to_numpy() * 100.0 + 0.5
        ).astype(np.int64)
        dpct = np.floor(
            batch["l_discount"].to_numpy() * 100.0 + 0.5
        ).astype(np.int64)
        rev = cents * (100 - dpct)
        uk, inv = np.unique(okey, return_inverse=True)
        s = np.zeros(len(uk), dtype=np.int64)
        np.add.at(s, inv, rev)
        return pd.DataFrame(
            {"o_orderkey": uk.astype("int64"), "revenue_cp": s}
        )

    def rev_combine(d: "pd.DataFrame") -> "pd.DataFrame":
        return d.groupby("o_orderkey", sort=False, as_index=False).agg(
            revenue_cp=("revenue_cp", "sum")
        )

    line = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"]
    )
    per_order = hash_partitioned_agg(
        lookup_join(line, "l_orderkey", qual, "o_orderkey", how="semi",
                    then=revenue_partial),
        ["o_orderkey"], rev_combine,
    )
    top = top_k(per_order, ["revenue_cp", "o_orderkey"], [True, False], k,
                pa.schema([("o_orderkey", pa.int64()),
                           ("revenue_cp", pa.int64())]))
    top["rank"] = np.arange(1, len(top) + 1, dtype=np.int64)
    return rd.from_pandas(top[["o_orderkey", "revenue_cp", "rank"]])


def sql_top_revenue_orders(segment: str = Q3_SEGMENT, k: int = Q3_K) -> str:
    return f"""
WITH rev AS (
  SELECT l_orderkey AS o_orderkey,
         sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
             * (100 - CAST(floor(l_discount * 100 + 0.5) AS BIGINT)))
           AS revenue_cp
  FROM lineitem GROUP BY 1
), q AS (
  SELECT r.o_orderkey, r.revenue_cp
  FROM rev r JOIN orders o ON o.o_orderkey = r.o_orderkey
  JOIN customer c ON c.c_custkey = o.o_custkey
  WHERE c.c_mktsegment = '{segment}'
)
SELECT CAST(o_orderkey AS BIGINT) AS o_orderkey,
       CAST(revenue_cp AS BIGINT) AS revenue_cp,
       CAST(row_number() OVER (ORDER BY revenue_cp DESC, o_orderkey)
            AS BIGINT) AS "rank"
FROM q ORDER BY revenue_cp DESC, o_orderkey LIMIT {k}
"""


# ---------------------------------------------------------------------------
# User retention (r5): per-user lifetime span + activity count
# ---------------------------------------------------------------------------

RETAIN_DAYS = 30
RETAIN_US = RETAIN_DAYS * 86_400 * 1_000_000


def user_retention(sf_dir: str, retain_us: int = RETAIN_US):
    """events -> (user_id, n_events, span_us, retained): per-user event
    count, first-to-last timestamp span, and the cohort-retention flag
    (span >= ``retain_us``, default 30 days) — the "did the user come back"
    signal behind retention curves.

    Pure combiner shape: per batch one groupby emits (user, n, min_us,
    max_us) partials — min/max/count are associative, so the user-keyed
    exchange merges them without ever co-locating raw events; output is
    user-cardinality, never event-cardinality.  Null user/ts rows drop at
    ingest (hostile-null convention)."""
    import pandas as pd

    from ..stages.exchange import hash_partitioned_agg

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        if "min_us" not in df.columns:  # first application: raw event rows
            df = df.dropna(subset=["user_id", "ts"])
            us = df["ts"].astype("datetime64[us]").astype("int64")
            df = pd.DataFrame(
                {"user_id": df["user_id"].astype("int64"), "n_events": 1,
                 "min_us": us, "max_us": us}
            )
        return df.groupby("user_id", sort=False, as_index=False).agg(
            n_events=("n_events", "sum"), min_us=("min_us", "min"),
            max_us=("max_us", "max")
        )

    agg = hash_partitioned_agg(
        _read(sf_dir, "events", ["user_id", "ts"]), ["user_id"], combine
    )

    def finalize(df: "pd.DataFrame") -> "pd.DataFrame":
        span = (df["max_us"] - df["min_us"]).astype("int64")
        return pd.DataFrame(
            {"user_id": df["user_id"].astype("int64"),
             "n_events": df["n_events"].astype("int64"),
             "span_us": span,
             "retained": (span >= retain_us).astype("int64")}
        )

    return agg.map_batches(finalize, batch_format="pandas")


def sql_user_retention(retain_us: int = RETAIN_US) -> str:
    return f"""
SELECT CAST(user_id AS BIGINT) AS user_id,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(max(epoch_us(ts)) - min(epoch_us(ts)) AS BIGINT) AS span_us,
       CAST(max(epoch_us(ts)) - min(epoch_us(ts)) >= {retain_us}
            AS BIGINT) AS retained
FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL
GROUP BY user_id
"""


# ---------------------------------------------------------------------------
# Per-user inter-event gap statistics (r5): holistic ordered per-key stats
# with an exact integer order statistic — the engagement-cadence shape.
# ---------------------------------------------------------------------------


def event_gap_stats(sf_dir: str):
    """events -> (user_id, n_gaps, min_gap_us, max_gap_us, p50_gap_us):
    statistics of the microsecond gaps between a user's consecutive
    events (ordered by ts, event_id tie-break).  p50 is the LOWER median
    (the 0-indexed (n-1)//2-th order statistic) so both sides stay
    integer-exact; users with a single event have no gaps and are
    omitted.

    Users co-locate via the partition-only exchange; ONE vectorized
    kernel per partition handles all its users: sort by (user, ts,
    event_id), adjacent diff masked at user boundaries, then a second
    lexsort by (user, gap) so per-user min / max / median all fall out of
    group bounds + reduceat-free indexing — no per-user Python (user
    cardinality is unbounded at web scale)."""
    import numpy as np
    import pandas as pd

    from ..stages.exchange import hash_partitioned_apply

    def kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.dropna(subset=["ts", "user_id"])  # NaT would poison diffs
        if len(df) < 2:
            return pd.DataFrame()
        df = df.sort_values(["user_id", "ts", "event_id"])
        us = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        users = df["user_id"].to_numpy().astype(np.int64)
        same = users[1:] == users[:-1]
        gu = users[1:][same]
        gv = (us[1:] - us[:-1])[same]
        if not len(gu):
            return pd.DataFrame()
        order = np.lexsort((gv, gu))       # sort by (user, gap)
        gu, gv = gu[order], gv[order]
        starts = np.flatnonzero(np.r_[True, gu[1:] != gu[:-1]])
        sizes = np.diff(np.r_[starts, len(gu)])
        return pd.DataFrame(
            {"user_id": gu[starts],
             "n_gaps": sizes.astype(np.int64),
             "min_gap_us": gv[starts],
             "max_gap_us": gv[starts + sizes - 1],
             "p50_gap_us": gv[starts + (sizes - 1) // 2]}
        )

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id"])
    return hash_partitioned_apply(ds, ["user_id"], kernel)


def sql_event_gap_stats() -> str:
    return """
WITH g AS (
  SELECT user_id,
         epoch_us(ts) - lag(epoch_us(ts)) OVER (
           PARTITION BY user_id ORDER BY ts, event_id) AS gap
  FROM events WHERE ts IS NOT NULL AND user_id IS NOT NULL
), gg AS (
  SELECT user_id, gap FROM g WHERE gap IS NOT NULL
), r AS (
  SELECT user_id, gap,
         row_number() OVER (PARTITION BY user_id ORDER BY gap) AS rk,
         count(*) OVER (PARTITION BY user_id) AS n
  FROM gg
)
SELECT CAST(user_id AS BIGINT) AS user_id,
       CAST(max(n) AS BIGINT) AS n_gaps,
       CAST(min(gap) AS BIGINT) AS min_gap_us,
       CAST(max(gap) AS BIGINT) AS max_gap_us,
       CAST(max(CASE WHEN rk = (n + 1) // 2 THEN gap END) AS BIGINT)
         AS p50_gap_us
FROM r GROUP BY user_id
"""


# ---------------------------------------------------------------------------
# Composed Q5-shape snowflake (r5): revenue per region through a two-dim
# chain — region <- nation <- customer <- orders <- lineitem.
# ---------------------------------------------------------------------------

Q5_DATE_LO = "1995-01-01"
Q5_DATE_HI = "1996-01-01"


def region_revenue(sf_dir: str):
    """(r_name, revenue_cp): one year of order revenue rolled up to the
    customer's region — the TPC-H-Q5-shaped snowflake composition
    (two dimension hops + a fact join), end-to-end streaming.

    Revenue uses the repo's integer cent-percent convention (hash-exact,
    see top_revenue_orders).  Plan shape:

    * nation/region are DRIVER-SCALE dims (25 / 5 rows): nationkey ->
      regionkey resolves inside the customer kernel via a tiny dense
      lookup array, r_name attaches to the <= 5-row result at the end;
    * date-filtered orders pick up the customer's regionkey in one
      ``lookup_join`` hop;
    * lineitems pick up the order's regionkey in a second hop whose fold
      emits (regionkey, revenue) partials — only <= |regions| rows per
      batch or partition leave it."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from ..stages.exchange import finish, lookup_join

    nation = pq.read_table(
        str(Path(sf_dir) / "nation.parquet"),
        columns=["n_nationkey", "n_regionkey"],
    )
    region = pq.read_table(
        str(Path(sf_dir) / "region.parquet"), columns=["r_regionkey", "r_name"]
    )
    nkey = nation["n_nationkey"].to_numpy().astype(np.int64)
    nreg = nation["n_regionkey"].to_numpy().astype(np.int64)
    lut = np.full(int(nkey.max()) + 1 if len(nkey) else 1, -1, dtype=np.int64)
    lut[nkey] = nreg
    rname = {int(k): str(v) for k, v in zip(
        region["r_regionkey"].to_numpy(), region["r_name"].to_pylist()
    )}

    lo = np.datetime64(Q5_DATE_LO, "us").astype("int64")
    hi = np.datetime64(Q5_DATE_HI, "us").astype("int64")

    def cust_region(batch: "pa.Table") -> "pd.DataFrame":
        batch = batch.filter(
            pc.and_(pc.is_valid(batch["c_custkey"]),
                    pc.is_valid(batch["c_nationkey"]))
        )
        ck = batch["c_custkey"].to_numpy().astype(np.int64)
        nk = batch["c_nationkey"].to_numpy().astype(np.int64)
        ok = (nk >= 0) & (nk < len(lut))
        ck, nk = ck[ok], nk[ok]
        rg = lut[nk]
        keep = rg >= 0
        return pd.DataFrame({"c_custkey": ck[keep], "regionkey": rg[keep]})

    def order_filter(batch: "pa.Table"):
        batch = batch.filter(pc.and_(
            pc.is_valid(batch["o_orderkey"]), pc.is_valid(batch["o_orderdate"])
        ))
        d = batch["o_orderdate"].cast(pa.int64()).to_numpy()
        m = (d >= lo) & (d < hi)
        return batch.filter(pa.array(m)).select(["o_orderkey", "o_custkey"])

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]) \
        .map_batches(cust_region, batch_format="pyarrow")
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"]) \
        .map_batches(order_filter, batch_format="pyarrow")
    oreg = lookup_join(orders, "o_custkey", cust, "c_custkey", ["regionkey"])

    def region_partial(batch: "pa.Table") -> "pd.DataFrame":
        batch = batch.filter(pc.and_(pc.is_valid(batch["l_extendedprice"]),
                                     pc.is_valid(batch["l_discount"])))
        cents = np.floor(
            batch["l_extendedprice"].to_numpy() * 100.0 + 0.5
        ).astype(np.int64)
        dpct = np.floor(
            batch["l_discount"].to_numpy() * 100.0 + 0.5
        ).astype(np.int64)
        sub = pd.DataFrame({"regionkey": batch["regionkey"].to_numpy(),
                            "revenue_cp": cents * (100 - dpct)})
        return sub.groupby("regionkey", sort=False, as_index=False).agg(
            revenue_cp=("revenue_cp", "sum")
        ).astype("int64")

    line = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"]
    )
    partials = lookup_join(line, "l_orderkey", oreg, "o_orderkey",
                           ["regionkey"], then=region_partial)

    def final(d: "pd.DataFrame") -> "pd.DataFrame":
        g = d.groupby("regionkey", sort=False, as_index=False).agg(
            revenue_cp=("revenue_cp", "sum")
        )
        g["r_name"] = g["regionkey"].map(rname)
        return pd.DataFrame(
            {"r_name": g["r_name"].astype(str),
             "revenue_cp": g["revenue_cp"].astype("int64")}
        )

    return finish(partials, final, schema=pa.schema(
        [("regionkey", pa.int64()), ("revenue_cp", pa.int64())]))


def sql_region_revenue() -> str:
    return f"""
SELECT r.r_name,
       CAST(sum(CAST(floor(l.l_extendedprice * 100 + 0.5) AS BIGINT)
                * (100 - CAST(floor(l.l_discount * 100 + 0.5) AS BIGINT)))
            AS BIGINT) AS revenue_cp
FROM lineitem l
JOIN orders o ON o.o_orderkey = l.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
JOIN region r ON r.r_regionkey = n.n_regionkey
WHERE o.o_orderdate >= TIMESTAMP '{Q5_DATE_LO}'
  AND o.o_orderdate < TIMESTAMP '{Q5_DATE_HI}'
GROUP BY r.r_name
"""


def q1_pricing_summary(sf_dir: str):
    """The FULL TPC-H-Q1 pricing summary per (l_returnflag, l_linestatus):
    n_rows, sum_qty, sum_base_cents, sum_disc_cents, sum_charge_cents —
    one scan, one combiner exchange (the lineitem_agg shape widened to
    the four Q1 measures).

    Integer units are chosen for SCALE-SAFETY, not just hash-exactness:
    disc price and charge floor back to CENTS per row
    (cents * (100-d) // 100, cents * (100-d) * (100+t) // 10000), so a
    per-group sum stays int64-safe past 10^10 rows — keeping the raw
    cent-percent(-squared) units would overflow a big group's int64 sum
    near 5 * 10^7 rows.  The DuckDB oracle mirrors the same per-row floor
    divisions, so both sides stay bit-identical."""
    import numpy as np
    import pandas as pd

    from ..stages.exchange import hash_partitioned_agg

    keys = ["l_returnflag", "l_linestatus"]
    measures = ["n_rows", "sum_qty", "sum_base_cents", "sum_disc_cents",
                "sum_charge_cents"]

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.dropna(subset=keys + ["l_quantity", "l_extendedprice",
                                      "l_discount", "l_tax"])
        cents = np.floor(
            df["l_extendedprice"].to_numpy() * 100.0 + 0.5
        ).astype(np.int64)
        dpct = np.floor(df["l_discount"].to_numpy() * 100.0 + 0.5) \
            .astype(np.int64)
        tpct = np.floor(df["l_tax"].to_numpy() * 100.0 + 0.5) \
            .astype(np.int64)
        qty = np.floor(df["l_quantity"].to_numpy() + 0.5).astype(np.int64)
        disc = cents * (100 - dpct) // 100
        charge = cents * (100 - dpct) * (100 + tpct) // 10_000
        out = pd.DataFrame(
            {"l_returnflag": df["l_returnflag"].to_numpy(),
             "l_linestatus": df["l_linestatus"].to_numpy(),
             "n_rows": np.ones(len(df), dtype=np.int64),
             "sum_qty": qty, "sum_base_cents": cents,
             "sum_disc_cents": disc, "sum_charge_cents": charge}
        )
        return out.groupby(keys, sort=False, as_index=False).agg(
            **{m: (m, "sum") for m in measures}
        )

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby(keys, sort=False, as_index=False).agg(
            **{m: (m, "sum") for m in measures}
        )

    ds = _read(sf_dir, "lineitem",
               keys + ["l_quantity", "l_extendedprice", "l_discount",
                       "l_tax"])
    return hash_partitioned_agg(
        ds.map_batches(partial, batch_format="pandas"), keys, combine
    )


def sql_q1_pricing_summary() -> str:
    c = "CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)"
    d = "CAST(floor(l_discount * 100 + 0.5) AS BIGINT)"
    t = "CAST(floor(l_tax * 100 + 0.5) AS BIGINT)"
    return f"""
SELECT l_returnflag, l_linestatus,
       CAST(count(*) AS BIGINT) AS n_rows,
       CAST(sum(CAST(floor(l_quantity + 0.5) AS BIGINT)) AS BIGINT)
         AS sum_qty,
       CAST(sum({c}) AS BIGINT) AS sum_base_cents,
       CAST(sum({c} * (100 - {d}) // 100) AS BIGINT) AS sum_disc_cents,
       CAST(sum({c} * (100 - {d}) * (100 + {t}) // 10000) AS BIGINT)
         AS sum_charge_cents
FROM lineitem
WHERE l_returnflag IS NOT NULL AND l_linestatus IS NOT NULL
  AND l_quantity IS NOT NULL AND l_extendedprice IS NOT NULL
  AND l_discount IS NOT NULL AND l_tax IS NOT NULL
GROUP BY l_returnflag, l_linestatus
"""


Q4_LATE_DAYS = 60


def late_order_counts(sf_dir: str):
    """(o_orderpriority, n_late): how many orders per priority class have at
    least one line item shipped more than ``Q4_LATE_DAYS`` days after the
    order date — the TPC-H-Q4-shaped EXISTS semi-join whose predicate
    crosses tables (l_shipdate vs o_orderdate), so a plain key semi-join
    (customers_with_orders) cannot express it.

    EXISTS is evaluated WITHOUT materializing a per-order max: lineitems
    pick up their order's date and priority in one ``lookup_join`` whose
    fold keeps the DISTINCT late (orderkey, priority) pairs of its batch
    or partition; one orderkey-keyed partition exchange then finishes the
    global distinct and folds straight to <= |priorities| rows per
    partition.

    Both timestamps compare as exact int64 microseconds, mirroring the
    DuckDB INTERVAL arithmetic bit-for-bit."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    from ..stages.exchange import finish, hash_partitioned_apply, lookup_join

    lag_us = np.int64(Q4_LATE_DAYS) * 86_400 * 1_000_000

    orders = _nonnull(_read(sf_dir, "orders",
                            ["o_orderkey", "o_orderdate", "o_orderpriority"]),
                      ["o_orderdate", "o_orderpriority"])
    line = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])

    def late_keys(batch: "pa.Table") -> "pa.Table":
        batch = batch.filter(pc.is_valid(batch["l_shipdate"]))
        s = batch["l_shipdate"].cast(pa.int64()).to_numpy()
        od = batch["o_orderdate"].cast(pa.int64()).to_numpy()
        late = batch.filter(pa.array(s > od + lag_us))
        return late.select(["l_orderkey", "o_orderpriority"]) \
            .group_by(["l_orderkey", "o_orderpriority"]).aggregate([])

    def count_kernel(t: "pa.Table") -> "pd.DataFrame":
        d = t.to_pandas().drop_duplicates("l_orderkey")
        return d.groupby("o_orderpriority", sort=False, as_index=False) \
            .size().rename(columns={"size": "n_late"})

    partials = hash_partitioned_apply(
        lookup_join(line, "l_orderkey", orders, "o_orderkey",
                    ["o_orderdate", "o_orderpriority"], then=late_keys),
        ["l_orderkey"], count_kernel, kernel_format="pyarrow",
    )

    def final(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby("o_orderpriority", sort=False, as_index=False).agg(
            n_late=("n_late", "sum"))
        return pd.DataFrame(
            {"o_orderpriority": g["o_orderpriority"].astype(str),
             "n_late": g["n_late"].astype("int64")})

    return finish(partials, final, schema=pa.schema(
        [("o_orderpriority", pa.string()), ("n_late", pa.int64())]))


def sql_late_order_counts() -> str:
    return f"""
SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n_late
FROM orders o
WHERE o.o_orderkey IS NOT NULL AND o.o_orderdate IS NOT NULL
  AND o.o_orderpriority IS NOT NULL
  AND EXISTS (
    SELECT 1 FROM lineitem l
    WHERE l.l_orderkey = o.o_orderkey AND l.l_shipdate IS NOT NULL
      AND l.l_shipdate > o.o_orderdate + INTERVAL {Q4_LATE_DAYS} DAY)
GROUP BY o_orderpriority
"""


def customer_order_distribution(sf_dir: str):
    """(n_orders, c_count): how many customers placed exactly n orders,
    INCLUDING the zero-order bucket — the TPC-H-Q13-shaped double
    aggregation (LEFT JOIN customer -> orders, count per customer, then a
    histogram of the counts).

    Plan: orders fold to one (custkey, n) row per custkey in a combiner
    exchange (10:1 at sf0.1; the fan-in only grows with scale).  A semi
    ``lookup_join`` against the customer keys keeps existing customers
    and folds to histogram partials; the driver-side final adds the zero
    bucket as ``n_cust - sum(c_count)`` — LEFT JOIN semantics without
    ever materializing zero rows.

    Orders whose custkey has no customer row are dropped (inner semantics
    of the LEFT JOIN's right side)."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    from ..stages.exchange import finish, hash_partitioned_agg, lookup_join

    cust = _nonnull(_read(sf_dir, "customer", ["c_custkey"]),
                    ["c_custkey"]).materialize()
    n_cust = cust.count()
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderkey"])

    def count_partial(batch: "pa.Table") -> "pa.Table":
        # combiner closed under its own output schema: the merge pass
        # sees (ck, n), the partial pass sees (o_custkey, o_orderkey)
        if "n" in batch.column_names:
            ck = batch["ck"].to_numpy()
            w = batch["n"].to_numpy()
        else:
            batch = batch.filter(
                pc.and_(pc.is_valid(batch["o_custkey"]),
                        pc.is_valid(batch["o_orderkey"])))
            ck = batch["o_custkey"].to_numpy().astype(np.int64)
            w = np.ones(len(ck), dtype=np.int64)
        uk, inv = np.unique(ck, return_inverse=True)
        s = np.zeros(len(uk), dtype=np.int64)
        np.add.at(s, inv, w)
        return pa.table({"ck": uk.astype("int64"), "n": s})

    percust = hash_partitioned_agg(orders, ["ck"], count_partial,
                                   kernel_format="pyarrow")

    def hist_partial(t: "pa.Table") -> "pa.Table":
        un, cnt = np.unique(t["n"].to_numpy(), return_counts=True)
        return pa.table({"n_orders": un.astype("int64"),
                         "c_count": cnt.astype("int64")})

    partials = lookup_join(percust, "ck", cust, "c_custkey", how="semi",
                           then=hist_partial)

    def final(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby("n_orders", sort=False, as_index=False).agg(
            c_count=("c_count", "sum"))
        zero = n_cust - int(g["c_count"].sum())
        if zero > 0:
            g = pd.concat(
                [g, pd.DataFrame({"n_orders": [0], "c_count": [zero]})],
                ignore_index=True)
        return g.astype("int64")

    return finish(partials, final, schema=pa.schema(
        [("n_orders", pa.int64()), ("c_count", pa.int64())]))


def sql_customer_order_distribution() -> str:
    return """
WITH c_orders AS (
  SELECT c.c_custkey, count(o.o_orderkey) AS n_orders
  FROM customer c
  LEFT JOIN orders o
    ON o.o_custkey = c.c_custkey AND o.o_orderkey IS NOT NULL
  WHERE c.c_custkey IS NOT NULL
  GROUP BY c.c_custkey)
SELECT CAST(n_orders AS BIGINT) AS n_orders,
       CAST(count(*) AS BIGINT) AS c_count
FROM c_orders GROUP BY n_orders
"""


Q10_K = 20


def returned_item_revenue(sf_dir: str, k: int = Q10_K):
    """Top-``k`` customers by revenue on RETURNED items (l_returnflag='R')
    with their nation name — the TPC-H-Q10-shaped composition: fact filter
    -> per-customer rollup -> global top-k with deterministic tie-break ->
    dimension attach.  Revenue in integer cent-percent (hash-exact).

    Plan shape:

    * R-filtered lineitems pick up the order's custkey in one
      ``lookup_join`` whose fold emits per-custkey partials;
    * one custkey-keyed combiner exchange, then the global top-k — the
      driver merges <= blocks * k rows, never the customer dimension;
    * the name/nation attach happens AFTER top-k: the customer scan
      semi-joins the k winning custkeys and collects <= k rows, nation is
      a driver-scale dim.  Ranking happens BEFORE the attach on both
      sides, so a winner with no customer row drops identically in Ray
      and in the oracle's rank-then-join."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data as rd

    from ..stages.exchange import (collect_arrow, hash_partitioned_agg,
                                   lookup_join, top_k)

    orders = _nonnull(_read(sf_dir, "orders", ["o_orderkey", "o_custkey"]),
                      ["o_custkey"])
    line = _read(sf_dir, "lineitem",
                 ["l_orderkey", "l_returnflag", "l_extendedprice",
                  "l_discount"])

    def returned(batch: "pa.Table") -> "pa.Table":
        return batch.filter(pc.and_(
            pc.and_(pc.is_valid(batch["l_extendedprice"]),
                    pc.is_valid(batch["l_discount"])),
            pc.equal(batch["l_returnflag"], "R")))

    def cust_partial(batch: "pa.Table") -> "pd.DataFrame":
        cents = np.floor(
            batch["l_extendedprice"].to_numpy() * 100.0 + 0.5
        ).astype(np.int64)
        dpct = np.floor(
            batch["l_discount"].to_numpy() * 100.0 + 0.5).astype(np.int64)
        uk, inv = np.unique(batch["o_custkey"].to_numpy(),
                            return_inverse=True)
        s = np.zeros(len(uk), dtype=np.int64)
        np.add.at(s, inv, cents * (100 - dpct))
        return pd.DataFrame({"ck": uk.astype("int64"), "revenue_cp": s})

    percust_in = lookup_join(
        line.map_batches(returned, batch_format="pyarrow"), "l_orderkey",
        orders, "o_orderkey", ["o_custkey"], then=cust_partial)

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby("ck", sort=False, as_index=False).agg(
            revenue_cp=("revenue_cp", "sum"))

    percust = hash_partitioned_agg(percust_in, ["ck"], combine)
    tpd = top_k(percust, ["revenue_cp", "ck"], [True, False], k,
                pa.schema([("ck", pa.int64()), ("revenue_cp", pa.int64())]))

    cust = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_nationkey"])
    wt = collect_arrow(
        lookup_join(cust, "c_custkey", rd.from_pandas(tpd[["ck"]]), "ck",
                    how="semi"),
        pa.table({"c_custkey": pa.array([], pa.int64()),
                  "c_name": pa.array([], pa.string()),
                  "c_nationkey": pa.array([], pa.int64())}),
    ).to_pandas()

    nation = pq.read_table(str(Path(sf_dir) / "nation.parquet"),
                           columns=["n_nationkey", "n_name"]).to_pandas()

    out = tpd.copy()
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
    out = out.merge(wt, left_on="ck", right_on="c_custkey", how="inner")
    out = out.merge(nation, left_on="c_nationkey", right_on="n_nationkey",
                    how="inner")
    res = pd.DataFrame(
        {"c_custkey": out["c_custkey"].astype("int64"),
         "c_name": out["c_name"].astype(str),
         "n_name": out["n_name"].astype(str),
         "revenue_cp": out["revenue_cp"].astype("int64"),
         "rank": out["rank"].astype("int64")})
    return rd.from_pandas(res)


def sql_returned_item_revenue(k: int = Q10_K) -> str:
    return f"""
WITH rev AS (
  SELECT o.o_custkey AS ck,
         sum(CAST(floor(l.l_extendedprice * 100 + 0.5) AS BIGINT)
             * (100 - CAST(floor(l.l_discount * 100 + 0.5) AS BIGINT)))
           AS revenue_cp
  FROM lineitem l
  JOIN orders o ON o.o_orderkey = l.l_orderkey
  WHERE l.l_returnflag = 'R' AND l.l_extendedprice IS NOT NULL
    AND l.l_discount IS NOT NULL AND o.o_custkey IS NOT NULL
  GROUP BY o.o_custkey),
top AS (
  SELECT ck, revenue_cp,
         row_number() OVER (ORDER BY revenue_cp DESC, ck) AS r
  FROM rev)
SELECT CAST(c.c_custkey AS BIGINT) AS c_custkey, c.c_name, n.n_name,
       CAST(top.revenue_cp AS BIGINT) AS revenue_cp,
       CAST(top.r AS BIGINT) AS "rank"
FROM top
JOIN customer c ON c.c_custkey = top.ck
JOIN nation n ON n.n_nationkey = c.c_nationkey
WHERE top.r <= {k}
"""


def daily_active_users(sf_dir: str):
    """(day, n_users, n_events): daily active users + event volume — the
    COUNT(DISTINCT) rollup every usage pipeline needs.  day is integer
    epoch-days (ts floor-divided as int64 microseconds, matching DuckDB's
    epoch(date_trunc('day', ts)) // 86400 bit-for-bit).

    Scale shape: per-batch (day, user) dedup WITH counts cuts the shuffle
    to one row per (batch, day, user); ONE day-keyed partition exchange
    then finishes distinctness per day in a single lexsort kernel — the
    partition key grows with calendar time, so width is bounded by
    per-day volume, and no (day,user)-keyed global exchange is needed."""
    import numpy as np
    import pyarrow.compute as pc

    from ..stages.exchange import hash_partitioned_apply

    US_DAY = np.int64(86_400_000_000)

    def pair_partial(batch: "pa.Table") -> "pa.Table":
        batch = batch.filter(pc.and_(pc.is_valid(batch["ts"]),
                                     pc.is_valid(batch["user_id"])))
        day = batch["ts"].cast(pa.int64()).to_numpy() // US_DAY
        u = batch["user_id"].to_numpy().astype(np.int64)
        order = np.lexsort((u, day))
        d_, u_ = day[order], u[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (d_[1:] != d_[:-1]) | (u_[1:] != u_[:-1])
        starts = np.flatnonzero(new)
        n = np.diff(np.append(starts, len(order))).astype(np.int64)
        return pa.table({"day": d_[starts], "u": u_[starts], "n": n})

    events = _read(sf_dir, "events", ["ts", "user_id"])
    pairs = events.map_batches(pair_partial, batch_format="pyarrow")

    def day_kernel(t: "pa.Table") -> "pa.Table":
        day = t["day"].to_numpy()
        u = t["u"].to_numpy()
        n = t["n"].to_numpy()
        order = np.lexsort((u, day))
        d_, u_, n_ = day[order], u[order], n[order]
        new_pair = np.ones(len(order), dtype=bool)
        new_pair[1:] = (d_[1:] != d_[:-1]) | (u_[1:] != u_[:-1])
        pd_starts = np.flatnonzero(new_pair)
        pair_day = d_[pd_starts]
        pair_n = np.add.reduceat(n_, pd_starts) if len(pd_starts) else \
            np.array([], dtype=np.int64)
        new_day = np.ones(len(pair_day), dtype=bool)
        new_day[1:] = pair_day[1:] != pair_day[:-1]
        d_starts = np.flatnonzero(new_day)
        days = pair_day[d_starts]
        n_users = np.diff(np.append(d_starts, len(pair_day))).astype(np.int64)
        n_events = np.add.reduceat(pair_n, d_starts) if len(d_starts) else \
            np.array([], dtype=np.int64)
        return pa.table({"day": days.astype("int64"), "n_users": n_users,
                         "n_events": n_events.astype("int64")})

    return hash_partitioned_apply(pairs, ["day"], day_kernel,
                                  kernel_format="pyarrow")


def sql_daily_active_users() -> str:
    return """
SELECT CAST(epoch(date_trunc('day', ts)) // 86400 AS BIGINT) AS day,
       CAST(count(DISTINCT user_id) AS BIGINT) AS n_users,
       CAST(count(*) AS BIGINT) AS n_events
FROM events
WHERE ts IS NOT NULL AND user_id IS NOT NULL
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Promo revenue share (TPC-H Q14 shape; reference J7 broadcast lookup +
# G7 counters composed — src/extractor.py:302-353's gated-scoring idiom
# generalized to a dimension-flag rollup)
# ---------------------------------------------------------------------------

Q14_START = "1997-01-01"
Q14_END = "1998-01-01"


def promo_revenue(sf_dir: str):
    """One row (promo_cents, total_cents, promo_permyriad): discounted
    revenue of lineitems shipped inside the ``[Q14_START, Q14_END)`` window
    that joined a part row, split by whether that part is a 'PROMO' part —
    the TPC-H-Q14 promo-revenue share.

    In-window lineitems pick up the part's promo flag in one
    ``lookup_join`` whose fold emits a SINGLE (promo, total) row per batch
    or partition; the final sum is one driver pass over those rows.

    Revenue is integer CENTS with the per-row floor division
    ``cents * (100 - d) // 100`` (int64-safe past 10^10 rows, mirrored
    bit-for-bit by the DuckDB oracle); the share is an integer permyriad
    (basis points) so no float crosses the comparison boundary."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    from ..stages.exchange import finish, lookup_join

    t0 = int(np.datetime64(Q14_START, "us").astype(np.int64))
    t1 = int(np.datetime64(Q14_END, "us").astype(np.int64))

    line = _read(sf_dir, "lineitem",
                 ["l_partkey", "l_extendedprice", "l_discount",
                  "l_shipdate"])
    part = _read(sf_dir, "part", ["p_partkey", "p_type"])

    def li_rows(batch: "pa.Table") -> "pa.Table":
        """(l_partkey, disc_cents) of the in-window rows."""
        ship = batch["l_shipdate"].cast(pa.int64())
        win = pc.and_(pc.greater_equal(ship, t0), pc.less(ship, t1))
        return _disc_cents(batch.filter(pc.fill_null(win, False))) \
            .select(["l_partkey", "cents"])

    def part_flags(batch: "pa.Table") -> "pa.Table":
        return pa.table({
            "p_partkey": batch["p_partkey"],
            "is_promo": pc.fill_null(
                pc.equal(batch["p_type"], "PROMO"), False),
        })

    def fold(t: "pa.Table") -> "pa.Table":
        cents = t["cents"].to_numpy()
        promo = t["is_promo"].to_numpy(zero_copy_only=False)
        return pa.table({"promo_cents": [int(cents[promo].sum())],
                         "total_cents": [int(cents.sum())]})

    def final(df: "pd.DataFrame") -> "pd.DataFrame":
        p = int(df["promo_cents"].sum()) if len(df) else 0
        t = int(df["total_cents"].sum()) if len(df) else 0
        return pd.DataFrame(
            {"promo_cents": pd.Series([p], dtype="int64"),
             "total_cents": pd.Series([t], dtype="int64"),
             "promo_permyriad": pd.Series(
                 [p * 10_000 // t if t else 0], dtype="int64")})

    partials = lookup_join(
        line.map_batches(li_rows, batch_format="pyarrow"), "l_partkey",
        part.map_batches(part_flags, batch_format="pyarrow"), "p_partkey",
        ["is_promo"], then=fold)
    return finish(partials, final)


def sql_promo_revenue() -> str:
    c = "CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)"
    d = "CAST(floor(l_discount * 100 + 0.5) AS BIGINT)"
    return f"""
WITH li AS (
  SELECT l_partkey, {c} * (100 - {d}) // 100 AS cents
  FROM lineitem
  WHERE l_partkey IS NOT NULL AND l_extendedprice IS NOT NULL
    AND l_discount IS NOT NULL AND l_shipdate IS NOT NULL
    AND l_shipdate >= TIMESTAMP '{Q14_START}'
    AND l_shipdate < TIMESTAMP '{Q14_END}'
), j AS (
  SELECT li.cents,
         CASE WHEN p.p_type = 'PROMO' THEN li.cents ELSE 0 END AS pcents
  FROM li JOIN part p ON p.p_partkey = li.l_partkey
)
SELECT CAST(coalesce(sum(pcents), 0) AS BIGINT) AS promo_cents,
       CAST(coalesce(sum(cents), 0) AS BIGINT) AS total_cents,
       CAST(CASE WHEN coalesce(sum(cents), 0) = 0 THEN 0
            ELSE coalesce(sum(pcents), 0) * 10000 // sum(cents)
            END AS BIGINT) AS promo_permyriad
FROM j
"""


# ---------------------------------------------------------------------------
# Large-volume orders (TPC-H Q18 shape; reference O4 argmax/top-1 +
# J7 broadcast lookup composed — the HAVING-threshold rollup then
# dimension attach)
# ---------------------------------------------------------------------------

Q18_QTY = 250
Q18_K = 100


def big_volume_orders(sf_dir: str, qty_threshold: int = Q18_QTY,
                      k: int = Q18_K):
    """Top-``k`` orders whose total line quantity exceeds
    ``qty_threshold``, with custkey / customer name / order day attached —
    the TPC-H-Q18-shaped composition: per-key rollup -> HAVING filter ->
    global top-k with deterministic tie-break -> post-top-k dimension
    attach.

    Plan shape (every stage bounded):

    * one orderkey-keyed Arrow combiner exchange folds lineitem to
      per-order quantity sums (per-batch ``np.add.at`` partials, so the
      shuffle moves one row per (batch, orderkey));
    * the HAVING filter + LOCAL top-k run per merged partition — each
      orderkey lives in exactly one partition post-exchange, so the
      driver merges <= P*k rows, never the order fact;
    * ranking happens BEFORE the attach (rank-then-join, the Q10
      convention), then the orders / customer scans semi-join the k
      winners (a k-row dimension) — <= k rows collect, the dimensions
      never shuffle.

    Quantities floor to int64 units per row; the order date lands as
    integer epoch DAYS so no timestamp crosses the comparison boundary."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc
    import ray.data as rd

    from ..stages.exchange import (collect_arrow, hash_partitioned_agg,
                                   lookup_join, top_k)

    line = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def qty_partial(batch: "pa.Table") -> "pa.Table":
        # combiner must accept its own output schema (merge pass)
        if "total_qty" in batch.column_names:
            ok = batch["okey"].to_numpy().astype(np.int64)
            q = batch["total_qty"].to_numpy().astype(np.int64)
        else:
            batch = batch.filter(pc.and_(
                pc.is_valid(batch["l_orderkey"]),
                pc.is_valid(batch["l_quantity"])))
            ok = batch["l_orderkey"].to_numpy().astype(np.int64)
            q = np.floor(batch["l_quantity"].to_numpy() + 0.5) \
                .astype(np.int64)
        uk, inv = np.unique(ok, return_inverse=True)
        s = np.zeros(len(uk), dtype=np.int64)
        np.add.at(s, inv, q)
        return pa.table({"okey": uk.astype("int64"), "total_qty": s})

    sums = hash_partitioned_agg(line, ["okey"], qty_partial,
                                kernel_format="pyarrow")

    big = sums.map_batches(
        lambda t: t.filter(pc.greater(t["total_qty"], qty_threshold)),
        batch_format="pyarrow")
    tpd = top_k(big, ["total_qty", "okey"], [True, False], k,
                pa.schema([("okey", pa.int64()), ("total_qty", pa.int64())]))
    tpd["rank"] = np.arange(1, len(tpd) + 1, dtype=np.int64)

    orders = _nonnull(_read(sf_dir, "orders",
                            ["o_orderkey", "o_custkey", "o_orderdate"]),
                      ["o_custkey", "o_orderdate"])
    ot = collect_arrow(
        lookup_join(orders, "o_orderkey", rd.from_pandas(tpd[["okey"]]),
                    "okey", how="semi"),
        pa.table({"o_orderkey": pa.array([], pa.int64()),
                  "o_custkey": pa.array([], pa.int64()),
                  "o_orderdate": pa.array([], pa.timestamp("us"))}),
    )
    opd = pd.DataFrame(
        {"o_orderkey": ot["o_orderkey"].to_numpy().astype(np.int64),
         "o_custkey": ot["o_custkey"].to_numpy().astype(np.int64),
         "o_orderdate_day":
             ot["o_orderdate"].cast(pa.int64()).to_numpy()
             // 86_400_000_000})

    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    wt = collect_arrow(
        lookup_join(cust, "c_custkey", rd.from_pandas(opd[["o_custkey"]]),
                    "o_custkey", how="semi"),
        pa.table({"c_custkey": pa.array([], pa.int64()),
                  "c_name": pa.array([], pa.string())}),
    ).to_pandas()

    out = tpd.merge(opd, left_on="okey", right_on="o_orderkey",
                    how="inner")
    out = out.merge(wt, left_on="o_custkey", right_on="c_custkey",
                    how="inner")
    res = pd.DataFrame(
        {"o_orderkey": out["okey"].astype("int64"),
         "total_qty": out["total_qty"].astype("int64"),
         "o_custkey": out["o_custkey"].astype("int64"),
         "c_name": out["c_name"].astype(str),
         "o_orderdate_day": out["o_orderdate_day"].astype("int64"),
         "rank": out["rank"].astype("int64")})
    return rd.from_pandas(res)


def sql_big_volume_orders(qty_threshold: int = Q18_QTY,
                          k: int = Q18_K) -> str:
    return f"""
WITH q AS (
  SELECT l_orderkey AS okey,
         sum(CAST(floor(l_quantity + 0.5) AS BIGINT)) AS total_qty
  FROM lineitem
  WHERE l_orderkey IS NOT NULL AND l_quantity IS NOT NULL
  GROUP BY 1
  HAVING sum(CAST(floor(l_quantity + 0.5) AS BIGINT)) > {qty_threshold}
), top AS (
  SELECT okey, total_qty,
         row_number() OVER (ORDER BY total_qty DESC, okey) AS r
  FROM q
)
SELECT CAST(t.okey AS BIGINT) AS o_orderkey,
       CAST(t.total_qty AS BIGINT) AS total_qty,
       CAST(o.o_custkey AS BIGINT) AS o_custkey,
       c.c_name,
       CAST(epoch(o.o_orderdate) // 86400 AS BIGINT) AS o_orderdate_day,
       CAST(t.r AS BIGINT) AS "rank"
FROM top t
JOIN orders o ON o.o_orderkey = t.okey
  AND o.o_custkey IS NOT NULL AND o.o_orderdate IS NOT NULL
JOIN customer c ON c.c_custkey = o.o_custkey
WHERE t.r <= {k}
"""


# ---------------------------------------------------------------------------
# Above-average dormant customers (TPC-H Q22 shape; reference D4 set-diff +
# G7 counters composed — the global-scalar-subquery then anti-join rollup)
# ---------------------------------------------------------------------------


Q22_CUTOFF = "2001-01-01"


def dormant_rich_customers(sf_dir: str, cutoff: str = Q22_CUTOFF):
    """(c_mktsegment, n_cust, sum_bal_cents): customers whose account
    balance exceeds the GLOBAL average positive balance and who placed NO
    order on/after ``cutoff`` (dormant) — the TPC-H-Q22-shaped
    composition: global scalar subquery -> threshold filter -> anti-join
    -> rollup.

    Exactness without floats: the average never materializes — the
    predicate is the cross-multiplied rational ``bal_cents * n > sum_cents``
    (int64-safe: cents < 2^40 x n < 2^23 at a 10^7-customer scale still
    fits; past that the partials themselves stay exact and only this
    compare needs the object-int fallback).  The DuckDB oracle mirrors the
    same cross-multiply so no float average crosses the boundary.

    Plan shape:

    * pass 1: one driver fold of per-batch (sum, n) partials over
      positive balances — a 2-int scalar, broadcast by closure;
    * pass 2: threshold candidates anti-join the recent order custkeys
      (per-batch distinct) in one ``lookup_join`` whose fold emits
      per-segment partials; one segment-keyed combiner exchange
      finishes."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    from ..stages.exchange import (collect_arrow, hash_partitioned_agg,
                                   lookup_join)

    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_mktsegment", "c_acctbal"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])
    cut_us = int(np.datetime64(cutoff, "us").astype(np.int64))

    def recent_keys(t: "pa.Table") -> "pa.Table":
        m = pc.greater_equal(t["o_orderdate"].cast(pa.int64()), cut_us)
        return pa.table({"o_custkey": pc.unique(
            t.filter(pc.fill_null(m, False))["o_custkey"])})

    def bal_cents(batch: "pa.Table"):
        batch = batch.filter(pc.and_(
            pc.and_(pc.is_valid(batch["c_custkey"]),
                    pc.is_valid(batch["c_mktsegment"])),
            pc.is_valid(batch["c_acctbal"])))
        b = np.floor(
            batch["c_acctbal"].to_numpy() * 100.0 + 0.5).astype(np.int64)
        return batch, b

    # pass 1: global (sum, n) over positive balances — a 2-int scalar
    def stat_partial(batch: "pa.Table") -> "pa.Table":
        _, b = bal_cents(batch)
        pos = b[b > 0]
        return pa.table({"s": np.array([pos.sum()], dtype=np.int64),
                         "n": np.array([len(pos)], dtype=np.int64)})

    st = collect_arrow(
        cust.map_batches(stat_partial, batch_format="pyarrow"),
        pa.table({"s": pa.array([], pa.int64()),
                  "n": pa.array([], pa.int64())}),
    )
    tot_s = int(pc.sum(st["s"]).as_py() or 0)
    tot_n = int(pc.sum(st["n"]).as_py() or 0)

    def candidates(batch: "pa.Table") -> "pa.Table":
        """(custkey, segment, bal) rows passing the rational threshold."""
        batch, b = bal_cents(batch)
        m = b * tot_n > tot_s if tot_n else np.zeros(len(b), dtype=bool)
        return batch.select(["c_custkey", "c_mktsegment"]).filter(
            pa.array(m)).append_column("b", pa.array(b[m]))

    def seg_fold(t: "pa.Table") -> "pd.DataFrame":
        df = t.select(["c_mktsegment", "b"]).to_pandas()
        return df.groupby("c_mktsegment", sort=False, as_index=False).agg(
            n_cust=("b", "size"), sum_bal_cents=("b", "sum"))

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby("c_mktsegment", sort=False, as_index=False).agg(
            n_cust=("n_cust", "sum"),
            sum_bal_cents=("sum_bal_cents", "sum"))

    partials = lookup_join(
        cust.map_batches(candidates, batch_format="pyarrow"), "c_custkey",
        orders.map_batches(recent_keys, batch_format="pyarrow"), "o_custkey",
        how="anti", then=seg_fold)
    # driver collect of the <= |segments| folded rows with a TYPED empty
    # fallback (an all-empty exchange otherwise yields a schema-less
    # dataset — the r5 empty-block trap)
    t = collect_arrow(
        hash_partitioned_agg(partials, ["c_mktsegment"], combine),
        pa.table({"c_mktsegment": pa.array([], pa.string()),
                  "n_cust": pa.array([], pa.int64()),
                  "sum_bal_cents": pa.array([], pa.int64())})).to_pandas()
    return pd.DataFrame(
        {"c_mktsegment": t["c_mktsegment"].astype(str),
         "n_cust": t["n_cust"].astype("int64"),
         "sum_bal_cents": t["sum_bal_cents"].astype("int64")})


def sql_dormant_rich_customers(cutoff: str = Q22_CUTOFF) -> str:
    b = "CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT)"
    return f"""
WITH tot AS (
  SELECT CAST(sum({b}) AS BIGINT) AS s, CAST(count(*) AS BIGINT) AS n
  FROM customer
  WHERE c_acctbal IS NOT NULL AND c_custkey IS NOT NULL
    AND c_mktsegment IS NOT NULL AND {b} > 0
)
SELECT c.c_mktsegment,
       CAST(count(*) AS BIGINT) AS n_cust,
       CAST(sum({b}) AS BIGINT) AS sum_bal_cents
FROM customer c, tot
WHERE c.c_acctbal IS NOT NULL AND c.c_custkey IS NOT NULL
  AND c.c_mktsegment IS NOT NULL
  AND {b} * tot.n > tot.s
  AND NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = c.c_custkey
                    AND o.o_orderdate >= TIMESTAMP '{cutoff}')
GROUP BY c.c_mktsegment
"""


# ---------------------------------------------------------------------------
# Part-type value share (TPC-H Q11 shape; reference G3 keyword-argmax's
# share-threshold cousin — groupby with a HAVING against the GLOBAL total)
# ---------------------------------------------------------------------------

Q11_NUM = 1
Q11_DEN = 6


def part_value_share(sf_dir: str, num: int = Q11_NUM, den: int = Q11_DEN):
    """(p_type, value_cents, share_permyriad): lineitem extended-price
    value rolled up per part type, keeping only types whose share of the
    GLOBAL total exceeds ``num/den`` — the TPC-H-Q11-shaped rollup whose
    HAVING references a scalar over ALL groups.

    The share test is the exact cross-multiplied rational
    ``value * den > total * num`` (no float division anywhere; the
    reported share is integer permyriad, both SQL-mirrored).

    Lineitems pick up the part type in one ``lookup_join`` whose fold
    emits <= |types| rows per batch or partition; one type-keyed combiner
    exchange, then a driver-scale finalize (<= |types| rows) applies the
    global-total HAVING."""
    import numpy as np
    import pandas as pd

    from ..stages.exchange import (collect_arrow, hash_partitioned_agg,
                                   lookup_join)

    line = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice"])
    part = _nonnull(_read(sf_dir, "part", ["p_partkey", "p_type"]),
                    ["p_type"])

    def li_rows(batch: "pa.Table") -> "pa.Table":
        batch = batch.filter(pc.is_valid(batch["l_extendedprice"]))
        cents = np.floor(
            batch["l_extendedprice"].to_numpy() * 100.0 + 0.5
        ).astype(np.int64)
        return pa.table({"l_partkey": batch["l_partkey"], "cents": cents})

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby("p_type", sort=False, as_index=False).agg(
            value_cents=("value_cents", "sum"))

    def fold(t: "pa.Table") -> "pa.Table":
        g = t.group_by("p_type").aggregate([("cents", "sum")])
        return pa.table({"p_type": g["p_type"], "value_cents": g["cents_sum"]})

    rows = collect_arrow(
        hash_partitioned_agg(
            lookup_join(line.map_batches(li_rows, batch_format="pyarrow"),
                        "l_partkey", part, "p_partkey", ["p_type"],
                        then=fold),
            ["p_type"], combine),
        pa.table({"p_type": pa.array([], pa.string()),
                  "value_cents": pa.array([], pa.int64())}),
    ).to_pandas()
    g = rows.groupby("p_type", sort=False, as_index=False).agg(
        value_cents=("value_cents", "sum"))
    tot = int(g["value_cents"].sum())
    if tot:
        g = g[g["value_cents"] * den > tot * num]
        share = g["value_cents"].to_numpy() * 10_000 // tot
    else:
        g = g.iloc[:0]
        share = np.array([], dtype=np.int64)
    return pd.DataFrame(
        {"p_type": g["p_type"].astype(str),
         "value_cents": g["value_cents"].astype("int64"),
         "share_permyriad": share.astype("int64")}) \
        .reset_index(drop=True)


def sql_part_value_share(num: int = Q11_NUM, den: int = Q11_DEN) -> str:
    c = "CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)"
    return f"""
WITH j AS (
  SELECT p.p_type, {c} AS cents
  FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
  WHERE l.l_partkey IS NOT NULL AND l.l_extendedprice IS NOT NULL
    AND p.p_type IS NOT NULL
), g AS (
  SELECT p_type, CAST(sum(cents) AS BIGINT) AS value_cents FROM j GROUP BY 1
), t AS (SELECT CAST(sum(value_cents) AS BIGINT) AS tot FROM g)
SELECT g.p_type, g.value_cents,
       CAST(g.value_cents * 10000 // t.tot AS BIGINT) AS share_permyriad
FROM g, t
WHERE g.value_cents * {den} > t.tot * {num}
"""


# ---------------------------------------------------------------------------
# Distinct suppliers per part type (TPC-H Q16 shape; reference G4/D3
# exact-distinct composed THROUGH a join — count(DISTINCT) over a
# resolved dimension attribute)
# ---------------------------------------------------------------------------


def supplier_type_counts(sf_dir: str):
    """(p_type, n_suppliers): how many DISTINCT suppliers ship parts of
    each type, via the lineitem bridge — the TPC-H-Q16-shaped
    count(DISTINCT) through a join.

    Distinctness is resolved WITHOUT a global sort: lineitems pick up the
    part type in one ``lookup_join`` whose fold keeps the distinct
    (type, suppkey) pairs of its batch or partition, then ONE
    suppkey-keyed partition exchange — every copy of a (type, suppkey)
    pair shares its suppkey, so per-partition dedup IS global dedup —
    whose kernel folds straight to <= |types| count rows per partition;
    a type-keyed combiner finishes.  Exchange volume is distinct pairs
    per batch, never lineitem rows."""
    import pandas as pd

    from ..stages.exchange import (collect_arrow, hash_partitioned_agg,
                                   hash_partitioned_apply, lookup_join)

    line = _nonnull(_read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"]),
                    ["l_suppkey"])
    part = _nonnull(_read(sf_dir, "part", ["p_partkey", "p_type"]),
                    ["p_type"])

    def distinct_pairs(t: "pa.Table") -> "pa.Table":
        return t.group_by(["p_type", "l_suppkey"]).aggregate([])

    def count_kernel(t: "pa.Table") -> "pd.DataFrame":
        d = t.to_pandas().drop_duplicates(["p_type", "l_suppkey"])
        return d.groupby("p_type", sort=False, as_index=False).agg(
            n_suppliers=("l_suppkey", "size"))

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby("p_type", sort=False, as_index=False).agg(
            n_suppliers=("n_suppliers", "sum"))

    typed = lookup_join(line, "l_partkey", part, "p_partkey", ["p_type"],
                        then=distinct_pairs)
    partials = hash_partitioned_apply(typed, ["l_suppkey"], count_kernel,
                                      kernel_format="pyarrow")
    t = collect_arrow(
        hash_partitioned_agg(partials, ["p_type"], combine),
        pa.table({"p_type": pa.array([], pa.string()),
                  "n_suppliers": pa.array([], pa.int64())})).to_pandas()
    return pd.DataFrame(
        {"p_type": t["p_type"].astype(str),
         "n_suppliers": t["n_suppliers"].astype("int64")})


def sql_supplier_type_counts() -> str:
    return """
SELECT p.p_type,
       CAST(count(DISTINCT l.l_suppkey) AS BIGINT) AS n_suppliers
FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
WHERE l.l_partkey IS NOT NULL AND l.l_suppkey IS NOT NULL
  AND p.p_type IS NOT NULL
GROUP BY p.p_type
"""


# ---------------------------------------------------------------------------
# Cohort retention matrix (reference G1 run-length grouping + G7 counters
# composed — the week-0-anchored activity triangle every growth dashboard
# computes)
# ---------------------------------------------------------------------------


def cohort_matrix(sf_dir: str):
    """(cohort_week, weeks_since, n_users): for every signup cohort (a
    user's first active epoch-week), how many of its users were active
    again ``weeks_since`` weeks later — the classic cohort retention
    triangle (weeks_since = 0 row is the cohort size).

    ONE user-keyed partition exchange does all the holistic work: the
    per-batch partial dedups (user, week) pairs (so exchange volume is
    active user-weeks, not events), and the partition kernel — a single
    lexsort + group-bounds pass, no per-user Python — finds each user's
    min week (the cohort anchor is EXACT because every row of a user
    co-locates) and emits one (cohort, delta) row per distinct active
    week; a (cohort, delta)-keyed count combiner folds users.  Weeks are
    integer ``epoch_days // 7``, mirrored bit-for-bit in the oracle."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    from ..stages.exchange import hash_partitioned_agg, \
        hash_partitioned_apply

    events = _read(sf_dir, "events", ["user_id", "ts"])

    def pairs(batch: "pa.Table") -> "pa.Table":
        batch = batch.filter(pc.and_(pc.is_valid(batch["user_id"]),
                                     pc.is_valid(batch["ts"])))
        if not batch.num_rows:
            return pa.table({})
        u = batch["user_id"].to_numpy().astype(np.int64)
        wk = (batch["ts"].cast(pa.int64()).to_numpy()
              // 86_400_000_000) // 7
        order = np.lexsort((wk, u))
        u, wk = u[order], wk[order]
        keep = np.r_[True, (u[1:] != u[:-1]) | (wk[1:] != wk[:-1])]
        return pa.table({"user_id": u[keep], "wk": wk[keep]})

    def cohort_kernel(t: "pa.Table") -> "pa.Table":
        u = t["user_id"].to_numpy().astype(np.int64)
        wk = t["wk"].to_numpy().astype(np.int64)
        order = np.lexsort((wk, u))
        u, wk = u[order], wk[order]
        keep = np.r_[True, (u[1:] != u[:-1]) | (wk[1:] != wk[:-1])]
        u, wk = u[keep], wk[keep]
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        sizes = np.diff(np.append(starts, len(u)))
        cohort = np.repeat(wk[starts], sizes)  # sorted: first wk = min
        delta = wk - cohort
        order2 = np.lexsort((delta, cohort))
        c2, d2 = cohort[order2], delta[order2]
        grp = np.flatnonzero(np.r_[True, (c2[1:] != c2[:-1])
                                   | (d2[1:] != d2[:-1])])
        cnt = np.diff(np.append(grp, len(c2))).astype(np.int64)
        return pa.table({"cohort_week": c2[grp], "weeks_since": d2[grp],
                         "n_users": cnt})

    partials = hash_partitioned_apply(
        events.map_batches(pairs, batch_format="pyarrow"),
        ["user_id"], cohort_kernel, kernel_format="pyarrow")

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby(["cohort_week", "weeks_since"], sort=False,
                          as_index=False).agg(n_users=("n_users", "sum"))

    return hash_partitioned_agg(partials, ["cohort_week", "weeks_since"],
                                combine)


def sql_cohort_matrix() -> str:
    # epoch() is DOUBLE and double-// is TRUE division in DuckDB (the
    # subsequent CAST would round-half-up) — days must go integer FIRST
    wk = "(CAST(epoch(date_trunc('day', ts)) // 86400 AS BIGINT) // 7)"
    return f"""
WITH a AS (
  SELECT DISTINCT user_id, {wk} AS wk FROM events
  WHERE ts IS NOT NULL AND user_id IS NOT NULL
), c AS (
  SELECT user_id, min(wk) AS cohort FROM a GROUP BY 1
)
SELECT CAST(c.cohort AS BIGINT) AS cohort_week,
       CAST(a.wk - c.cohort AS BIGINT) AS weeks_since,
       CAST(count(*) AS BIGINT) AS n_users
FROM a JOIN c USING (user_id)
GROUP BY 1, 2
"""


def small_qty_revenue(sf_dir: str, brand: str = "Brand#23"):
    """(total_cents, n_small, avg_yearly_cents): TPC-H-Q17-shaped
    correlated per-part average — revenue from lineitems whose quantity
    is below 0.2x their own part's average quantity, restricted to one
    brand (the small-quantity-order revenue probe).

    The correlated average never divides: ``qty < sum_qty / (5 n)`` is
    evaluated as the exact integer cross-multiplication
    ``5 * n * qty < sum_qty`` (qty units / cents per the q1_pricing
    convention), so the DuckDB mirror is bit-exact and no float ever
    crosses the comparison boundary.

    Two ``lookup_join`` hops over two pruned lineitem scans: pass A
    semi-joins the brand's partkeys and folds to per-part (n, sum_qty)
    partials, which ONE partkey-keyed combiner exchange merges (<= |brand
    parts| rows); pass B attaches those stats to every lineitem and folds
    to ONE (total_cents, n_small) row per batch or partition."""
    import numpy as np
    import pandas as pd

    from ..stages.exchange import (collect_arrow, hash_partitioned_agg,
                                   lookup_join)

    def units(batch: "pa.Table") -> "pa.Table":
        """valid rows -> (l_partkey, qty units, cents)."""
        batch = batch.filter(pc.and_(pc.is_valid(batch["l_quantity"]),
                                     pc.is_valid(batch["l_extendedprice"])))
        qty = np.floor(batch["l_quantity"].to_numpy() + 0.5).astype(np.int64)
        cents = np.floor(
            batch["l_extendedprice"].to_numpy() * 100.0 + 0.5
        ).astype(np.int64)
        return pa.table({"l_partkey": batch["l_partkey"], "qty": qty,
                         "cents": cents})

    line = _read(sf_dir, "lineitem",
                 ["l_partkey", "l_quantity", "l_extendedprice"]) \
        .map_batches(units, batch_format="pyarrow")
    brand_parts = _read(sf_dir, "part", ["p_partkey", "p_brand"]) \
        .map_batches(lambda t: t.filter(pc.equal(t["p_brand"], brand)),
                     batch_format="pyarrow")

    def stats_partial(t: "pa.Table") -> "pd.DataFrame":
        u, inv = np.unique(t["l_partkey"].to_numpy(), return_inverse=True)
        sq = np.zeros(len(u), dtype=np.int64)
        np.add.at(sq, inv, t["qty"].to_numpy())
        return pd.DataFrame(
            {"partkey": u.astype(np.int64),
             "n": np.bincount(inv, minlength=len(u)).astype(np.int64),
             "sum_qty": sq})

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby("partkey", sort=False, as_index=False).agg(
            n=("n", "sum"), sum_qty=("sum_qty", "sum"))

    stats = hash_partitioned_agg(
        lookup_join(line, "l_partkey", brand_parts, "p_partkey", how="semi",
                    then=stats_partial),
        ["partkey"], combine)

    def small(t: "pa.Table") -> "pa.Table":
        m = 5 * t["n"].to_numpy() * t["qty"].to_numpy() \
            < t["sum_qty"].to_numpy()
        return pa.table(
            {"total_cents": [int(t["cents"].to_numpy()[m].sum())],
             "n_small": [int(m.sum())]})

    t = collect_arrow(
        lookup_join(line, "l_partkey", stats, "partkey", ["n", "sum_qty"],
                    then=small),
        pa.table({"total_cents": pa.array([], pa.int64()),
                  "n_small": pa.array([], pa.int64())}))
    total = int(t["total_cents"].to_numpy().sum())
    return pd.DataFrame(
        {"total_cents": pd.Series([total], dtype="int64"),
         "n_small": pd.Series([int(t["n_small"].to_numpy().sum())],
                              dtype="int64"),
         "avg_yearly_cents": pd.Series([total // 7], dtype="int64")})


def sql_small_qty_revenue(brand: str = "Brand#23") -> str:
    return f"""
WITH li AS (
  SELECT l_partkey,
         CAST(floor(l_quantity + 0.5) AS BIGINT) AS qty,
         CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT) AS cents
  FROM lineitem JOIN part ON l_partkey = p_partkey
  WHERE p_brand = '{brand}' AND l_partkey IS NOT NULL
    AND l_quantity IS NOT NULL AND l_extendedprice IS NOT NULL
), st AS (
  SELECT l_partkey, CAST(count(*) AS BIGINT) AS n,
         CAST(sum(qty) AS BIGINT) AS sumq
  FROM li GROUP BY 1
)
SELECT CAST(COALESCE(sum(cents), 0) AS BIGINT) AS total_cents,
       CAST(count(*) AS BIGINT) AS n_small,
       CAST(COALESCE(sum(cents), 0) // 7 AS BIGINT) AS avg_yearly_cents
FROM li JOIN st ON li.l_partkey = st.l_partkey
WHERE 5 * st.n * li.qty < st.sumq
"""


Q12_LO_US = 820_454_400 * 1_000_000       # 1996-01-01 UTC in microseconds
Q12_HI_US = 883_612_800 * 1_000_000       # 1998-01-01 UTC in microseconds
Q12_HIGH = ("1-URGENT", "2-HIGH")


def shipmode_priority_counts(sf_dir: str):
    """(l_linestatus, high_count, low_count): TPC-H-Q12-shaped conditional
    split counts through a join — per line status (the schema's shipmode
    stand-in), how many lineitems shipped inside a two-year window belong
    to critical-priority orders vs everything else.

    Window-filtered lineitems pick up the order's priority flag in one
    ``lookup_join`` whose fold emits <= |statuses| partial rows per batch
    or partition; a status-keyed combiner finishes.  Timestamps compare as
    exact int64 microseconds (the late_orders convention), so the
    TIMESTAMP-literal DuckDB mirror is bit-exact."""
    import numpy as np
    import pandas as pd

    from ..stages.exchange import hash_partitioned_agg, lookup_join

    def li_rows(batch: "pa.Table") -> "pa.Table":
        """window-filtered (l_orderkey, l_linestatus) rows."""
        batch = batch.filter(pc.and_(pc.is_valid(batch["l_shipdate"]),
                                     pc.is_valid(batch["l_linestatus"])))
        s = batch["l_shipdate"].cast(pa.int64()).to_numpy()
        win = (s >= Q12_LO_US) & (s < Q12_HI_US)
        return batch.select(["l_orderkey", "l_linestatus"]).filter(
            pa.array(win))

    def order_flags(batch: "pa.Table") -> "pa.Table":
        batch = batch.filter(pc.is_valid(batch["o_orderpriority"]))
        return pa.table({"o_orderkey": batch["o_orderkey"],
                         "high": pc.is_in(batch["o_orderpriority"],
                                          value_set=pa.array(Q12_HIGH))})

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby("l_linestatus", sort=False, as_index=False).agg(
            high_count=("high_count", "sum"), low_count=("low_count", "sum"))

    def fold(t: "pa.Table") -> "pd.DataFrame":
        high = t["high"].to_numpy(zero_copy_only=False)
        return combine(pd.DataFrame(
            {"l_linestatus": t["l_linestatus"].to_numpy(),
             "high_count": high.astype(np.int64),
             "low_count": (~high).astype(np.int64)}))

    line = _read(sf_dir, "lineitem",
                 ["l_orderkey", "l_shipdate", "l_linestatus"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    return hash_partitioned_agg(
        lookup_join(line.map_batches(li_rows, batch_format="pyarrow"),
                    "l_orderkey",
                    orders.map_batches(order_flags, batch_format="pyarrow"),
                    "o_orderkey", ["high"], then=fold),
        ["l_linestatus"], combine)


def sql_shipmode_priority_counts() -> str:
    hi = ", ".join(f"'{p}'" for p in Q12_HIGH)
    return f"""
SELECT l_linestatus,
       CAST(sum(CASE WHEN o_orderpriority IN ({hi}) THEN 1 ELSE 0 END)
            AS BIGINT) AS high_count,
       CAST(sum(CASE WHEN o_orderpriority IN ({hi}) THEN 0 ELSE 1 END)
            AS BIGINT) AS low_count
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
WHERE l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate < TIMESTAMP '1998-01-01'
  AND l_linestatus IS NOT NULL AND o_orderpriority IS NOT NULL
GROUP BY 1
"""


def blame_supplier_counts(sf_dir: str, k: int = 20):
    """(s_suppkey, numwait, rnk): TPC-H-Q21-shaped "who held up the
    order" counts — for every multi-supplier order, the supplier is
    blamed iff it is the UNIQUE holder of the order's latest ship date
    and at least one other supplier shipped strictly earlier; top-k
    suppliers by blame count.

    Shape: per-batch (orderkey, suppkey) -> max-shipdate combiner
    partials (associative, so the scan folds before any shuffle), ONE
    orderkey-keyed partition exchange whose kernel resolves the
    per-order max / uniqueness / multi-supplier tests with three
    C-level transforms and folds to per-partition (suppkey, numwait)
    partials, a suppkey-keyed count combiner, then the standard sound
    local top-k prune (each suppkey lives in exactly one partition
    after the combiner) + one driver rank under
    (numwait DESC, suppkey ASC).  Ship dates compare as exact int64
    microseconds."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from ..stages.exchange import (hash_partitioned_agg,
                                   hash_partitioned_apply, top_k)

    line = _read(sf_dir, "lineitem",
                 ["l_orderkey", "l_suppkey", "l_shipdate"])

    def partial(batch: "pa.Table") -> "pd.DataFrame":
        ok = pc.and_(pc.and_(pc.is_valid(batch["l_orderkey"]),
                             pc.is_valid(batch["l_suppkey"])),
                     pc.is_valid(batch["l_shipdate"]))
        batch = batch.filter(ok)
        d = pd.DataFrame(
            {"k": batch["l_orderkey"].to_numpy().astype(np.int64),
             "s": batch["l_suppkey"].to_numpy().astype(np.int64),
             "smax": batch["l_shipdate"].cast(pa.int64()).to_numpy()})
        return d.groupby(["k", "s"], sort=False, as_index=False).agg(
            smax=("smax", "max"))

    def kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby(["k", "s"], sort=False, as_index=False).agg(
            smax=("smax", "max"))
        if not len(g):
            return pd.DataFrame()
        byk = g.groupby("k")["smax"]
        omax = byk.transform("max")
        n_supp = g.groupby("k")["s"].transform("size")  # rows are distinct
        at_max = g["smax"].to_numpy() == omax.to_numpy()
        n_at_max = pd.Series(at_max).groupby(g["k"].to_numpy()) \
            .transform("sum").to_numpy()
        blame = at_max & (n_at_max == 1) & (n_supp.to_numpy() >= 2)
        u, cnt = np.unique(g.loc[blame, "s"].to_numpy(), return_counts=True)
        return pd.DataFrame({"s_suppkey": u.astype(np.int64),
                             "numwait": cnt.astype(np.int64)})

    partials = hash_partitioned_apply(
        line.map_batches(partial, batch_format="pyarrow"), ["k"], kernel)

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby("s_suppkey", sort=False, as_index=False).agg(
            numwait=("numwait", "sum"))

    nw = hash_partitioned_agg(partials, ["s_suppkey"], combine)

    top = top_k(nw, ["numwait", "s_suppkey"], [True, False], k,
                pa.schema([("s_suppkey", pa.int64()),
                           ("numwait", pa.int64())]))
    top["rnk"] = np.arange(1, len(top) + 1, dtype=np.int64)
    return rd.from_pandas(top)


def sql_blame_supplier_counts(k: int = 20) -> str:
    return f"""
WITH sm AS (
  SELECT l_orderkey AS o, CAST(l_suppkey AS BIGINT) AS s,
         max(l_shipdate) AS smax
  FROM lineitem
  WHERE l_orderkey IS NOT NULL AND l_suppkey IS NOT NULL
    AND l_shipdate IS NOT NULL
  GROUP BY 1, 2
), om AS (
  SELECT o, max(smax) AS omax, count(*) AS n_supp FROM sm GROUP BY 1
), atmax AS (
  SELECT sm.o, count(*) AS n_at_max
  FROM sm JOIN om USING (o) WHERE sm.smax = om.omax GROUP BY 1
), nw AS (
  SELECT sm.s AS s_suppkey, CAST(count(*) AS BIGINT) AS numwait
  FROM sm JOIN om USING (o) JOIN atmax USING (o)
  WHERE sm.smax = om.omax AND atmax.n_at_max = 1 AND om.n_supp >= 2
  GROUP BY 1
)
SELECT s_suppkey, numwait,
       CAST(row_number() OVER (ORDER BY numwait DESC, s_suppkey)
            AS BIGINT) AS rnk
FROM nw QUALIFY rnk <= {k}
"""


def nation_trade_matrix(sf_dir: str):
    """(supp_nation, cust_nation, revenue_cents): TPC-H-Q7-shaped trade
    volume between every (supplier nation, customer nation) pair — the
    5-table snowflake (lineitem -> supplier -> nation, lineitem -> orders
    -> customer -> nation) as a <= |nations|^2-row matrix.

    Revenue is the integer disc-cents convention (cents * (100-d) // 100
    per row), so the DuckDB mirror is bit-exact.  nation is a
    DRIVER-SCALE dim (names attach to the tiny final matrix).

    Lineitems walk the snowflake in three chained ``lookup_join`` hops
    (suppkey -> supplier nation, orderkey -> custkey, custkey -> customer
    nation); the last hop folds to <= |nations|^2 packed-key partial rows
    per batch or partition, and one pair-keyed combiner exchange
    finishes."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq

    from ..stages.exchange import hash_partitioned_agg, lookup_join

    nation = pq.read_table(str(Path(sf_dir) / "nation.parquet"),
                           columns=["n_nationkey", "n_name"])
    nname = {int(k): str(v) for k, v in zip(
        nation["n_nationkey"].to_numpy(), nation["n_name"].to_pylist())}
    PACK = max(nname) + 1 if nname else 1

    line = _read(sf_dir, "lineitem",
                 ["l_suppkey", "l_orderkey", "l_extendedprice", "l_discount"])
    supplier = _nonnull(_read(sf_dir, "supplier",
                              ["s_suppkey", "s_nationkey"]), ["s_nationkey"])
    orders = _nonnull(_read(sf_dir, "orders", ["o_orderkey", "o_custkey"]),
                      ["o_custkey"])
    customer = _nonnull(_read(sf_dir, "customer",
                              ["c_custkey", "c_nationkey"]), ["c_nationkey"])

    def pair_fold(t: "pa.Table") -> "pd.DataFrame":
        packed = t["s_nationkey"].to_numpy().astype(np.int64) * PACK \
            + t["c_nationkey"].to_numpy().astype(np.int64)
        u, inv = np.unique(packed, return_inverse=True)
        s = np.zeros(len(u), dtype=np.int64)
        np.add.at(s, inv, t["cents"].to_numpy())
        return pd.DataFrame({"sn": (u // PACK).astype(np.int64),
                             "cn": (u % PACK).astype(np.int64),
                             "revenue_cents": s})

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby(["sn", "cn"], sort=False, as_index=False).agg(
            revenue_cents=("revenue_cents", "sum"))

    def name_map(df: "pd.DataFrame") -> "pd.DataFrame":
        return pd.DataFrame(
            {"supp_nation": df["sn"].map(nname).astype(str),
             "cust_nation": df["cn"].map(nname).astype(str),
             "revenue_cents": df["revenue_cents"].to_numpy().astype(np.int64)})

    s1 = lookup_join(line.map_batches(_disc_cents, batch_format="pyarrow"),
                     "l_suppkey", supplier, "s_suppkey", ["s_nationkey"])
    s2 = lookup_join(s1, "l_orderkey", orders, "o_orderkey", ["o_custkey"])
    s3 = lookup_join(s2, "o_custkey", customer, "c_custkey", ["c_nationkey"],
                     then=pair_fold)
    return hash_partitioned_agg(s3, ["sn", "cn"], combine).map_batches(
        name_map, batch_format="pandas")


def sql_nation_trade_matrix() -> str:
    c = "CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)"
    d = "CAST(floor(l_discount * 100 + 0.5) AS BIGINT)"
    return f"""
WITH li AS (
  SELECT l_suppkey, l_orderkey, {c} * (100 - {d}) // 100 AS cents
  FROM lineitem
  WHERE l_suppkey IS NOT NULL AND l_orderkey IS NOT NULL
    AND l_extendedprice IS NOT NULL AND l_discount IS NOT NULL
)
SELECT sn.n_name AS supp_nation, cn.n_name AS cust_nation,
       CAST(sum(li.cents) AS BIGINT) AS revenue_cents
FROM li
JOIN supplier ON li.l_suppkey = s_suppkey
JOIN nation sn ON s_nationkey = sn.n_nationkey
JOIN orders ON li.l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN nation cn ON c_nationkey = cn.n_nationkey
GROUP BY 1, 2
"""


# (brand, size_lo, size_hi, qty_lo, qty_hi) OR-clauses — the Q19 shape
Q19_CLAUSES = (("Brand#12", 1, 5, 1, 11),
               ("Brand#23", 1, 10, 10, 20),
               ("Brand#3", 1, 15, 20, 30))


def disjunctive_revenue(sf_dir: str, clauses=Q19_CLAUSES):
    """(revenue_cents, n_rows): TPC-H-Q19-shaped OR-of-ANDs predicate
    crossing both tables — each clause constrains the part's brand AND
    size range AND the lineitem's quantity range; revenue in integer
    disc-cents over the union of the clauses.

    Lineitems pick up the part's brand and size in one ``lookup_join``
    whose fold evaluates the whole disjunction as a stack of vectorized
    boolean ANDs and emits ONE row per batch or partition."""
    import numpy as np
    import pandas as pd

    from ..stages.exchange import collect_arrow, lookup_join

    line = _read(sf_dir, "lineitem",
                 ["l_partkey", "l_quantity", "l_extendedprice",
                  "l_discount"])
    part = _nonnull(_read(sf_dir, "part", ["p_partkey", "p_brand", "p_size"]),
                    ["p_brand", "p_size"])

    def li_rows(batch: "pa.Table") -> "pa.Table":
        batch = batch.filter(pc.is_valid(batch["l_quantity"]))
        qty = np.floor(batch["l_quantity"].to_numpy() + 0.5).astype(np.int64)
        return _disc_cents(batch.append_column("qty", pa.array(qty)))

    def clause_fold(t: "pa.Table") -> "pa.Table":
        size = t["p_size"].to_numpy().astype(np.int64)
        qty = t["qty"].to_numpy()
        m = np.zeros(t.num_rows, dtype=bool)
        for brand, slo, shi, qlo, qhi in clauses:
            m |= (pc.equal(t["p_brand"], brand).to_numpy(zero_copy_only=False)
                  & (size >= slo) & (size <= shi)
                  & (qty >= qlo) & (qty <= qhi))
        cents = t["cents"].to_numpy()
        return pa.table({"revenue_cents": [int(cents[m].sum())],
                         "n_rows": [int(m.sum())]})

    t = collect_arrow(
        lookup_join(line.map_batches(li_rows, batch_format="pyarrow"),
                    "l_partkey", part, "p_partkey", ["p_brand", "p_size"],
                    then=clause_fold),
        pa.table({"revenue_cents": pa.array([], pa.int64()),
                  "n_rows": pa.array([], pa.int64())}))
    return pd.DataFrame(
        {"revenue_cents": pd.Series(
            [int(t["revenue_cents"].to_numpy().sum())], dtype="int64"),
         "n_rows": pd.Series(
             [int(t["n_rows"].to_numpy().sum())], dtype="int64")})


def sql_disjunctive_revenue(clauses=Q19_CLAUSES) -> str:
    c = "CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)"
    d = "CAST(floor(l_discount * 100 + 0.5) AS BIGINT)"
    q = "CAST(floor(l_quantity + 0.5) AS BIGINT)"
    ors = " OR ".join(
        f"(p_brand = '{b}' AND p_size BETWEEN {slo} AND {shi} "
        f"AND {q} BETWEEN {qlo} AND {qhi})"
        for b, slo, shi, qlo, qhi in clauses)
    return f"""
SELECT CAST(COALESCE(sum({c} * (100 - {d}) // 100), 0) AS BIGINT)
         AS revenue_cents,
       CAST(count(*) AS BIGINT) AS n_rows
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE l_quantity IS NOT NULL AND l_extendedprice IS NOT NULL
  AND l_discount IS NOT NULL AND p_brand IS NOT NULL
  AND p_size IS NOT NULL AND ({ors})
"""


Q15_LO_US = 820_454_400 * 1_000_000       # 1996-01-01 UTC (shares Q12 window)
Q15_HI_US = 828_316_800 * 1_000_000       # 1996-04-01 UTC


def top_supplier_revenue(sf_dir: str):
    """(s_suppkey, revenue_cents): TPC-H-Q15-shaped max-with-TIES — every
    supplier whose windowed disc-cents revenue equals the global maximum
    (the create-view + correlated max shape; ties are the point, unlike
    top-k's rank cut).

    One suppkey-keyed combiner exchange folds the windowed scan to one
    revenue row per supplier (each suppkey lives in exactly one partition
    afterwards); each partition then emits only ITS max-revenue rows
    (sound prune: the global max is the max of partition maxima), the
    <= P survivor rows meet on the driver, and one final scan keeps the
    global argmax set.  Revenue is exact integer disc-cents, so
    ties are bit-exact against the DuckDB mirror."""
    import numpy as np
    import pandas as pd

    from ..stages.exchange import finish, hash_partitioned_agg

    line = _read(sf_dir, "lineitem",
                 ["l_suppkey", "l_shipdate", "l_extendedprice",
                  "l_discount"])

    def partial(batch: "pa.Table") -> "pd.DataFrame":
        ok = pc.and_(pc.and_(pc.is_valid(batch["l_suppkey"]),
                             pc.is_valid(batch["l_shipdate"])),
                     pc.and_(pc.is_valid(batch["l_extendedprice"]),
                             pc.is_valid(batch["l_discount"])))
        batch = batch.filter(ok)
        s = batch["l_shipdate"].cast(pa.int64()).to_numpy()
        win = (s >= Q15_LO_US) & (s < Q15_HI_US)
        k = batch["l_suppkey"].to_numpy().astype(np.int64)[win]
        cents = np.floor(
            batch["l_extendedprice"].to_numpy() * 100.0 + 0.5
        ).astype(np.int64)[win]
        dpct = np.floor(
            batch["l_discount"].to_numpy() * 100.0 + 0.5
        ).astype(np.int64)[win]
        disc = cents * (100 - dpct) // 100
        u, inv = np.unique(k, return_inverse=True)
        rv = np.zeros(len(u), dtype=np.int64)
        np.add.at(rv, inv, disc)
        return pd.DataFrame({"s_suppkey": u, "revenue_cents": rv})

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby("s_suppkey", sort=False, as_index=False).agg(
            revenue_cents=("revenue_cents", "sum"))

    rev = hash_partitioned_agg(
        line.map_batches(partial, batch_format="pyarrow"),
        ["s_suppkey"], combine)

    def local_max(df: "pd.DataFrame") -> "pd.DataFrame":
        return df[df["revenue_cents"] == df["revenue_cents"].max()] \
            .reset_index(drop=True)

    return finish(rev.map_batches(local_max, batch_format="pandas"),
                  local_max, schema=pa.schema([("s_suppkey", pa.int64()),
                                               ("revenue_cents", pa.int64())]))


def sql_top_supplier_revenue() -> str:
    c = "CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)"
    d = "CAST(floor(l_discount * 100 + 0.5) AS BIGINT)"
    return f"""
WITH rev AS (
  SELECT CAST(l_suppkey AS BIGINT) AS s_suppkey,
         CAST(sum({c} * (100 - {d}) // 100) AS BIGINT) AS revenue_cents
  FROM lineitem
  WHERE l_suppkey IS NOT NULL AND l_shipdate IS NOT NULL
    AND l_extendedprice IS NOT NULL AND l_discount IS NOT NULL
    AND l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate < TIMESTAMP '1996-04-01'
  GROUP BY 1
)
SELECT s_suppkey, revenue_cents FROM rev
WHERE revenue_cents = (SELECT max(revenue_cents) FROM rev)
"""


def forecast_revenue(sf_dir: str):
    """(revenue_cents, n_rows): TPC-H-Q6 — the canonical ZERO-SHUFFLE
    plan: one pruned scan, a three-way vectorized predicate (one-year
    int64-microsecond ship window, discount band, quantity cap), each
    batch folds to ONE row, and the driver sums <= |batches| rows.  No
    exchange of any kind; at 100 TB this is embarrassingly parallel.
    Revenue is the Q6 definition sum(extendedprice * discount) in exact
    integer cent-percent // 100 per row."""
    import numpy as np
    import pandas as pd

    from ..stages.exchange import collect_arrow

    line = _read(sf_dir, "lineitem",
                 ["l_shipdate", "l_discount", "l_quantity",
                  "l_extendedprice"])

    def partial(batch: "pa.Table") -> "pa.Table":
        ok = pc.and_(pc.and_(pc.is_valid(batch["l_shipdate"]),
                             pc.is_valid(batch["l_discount"])),
                     pc.and_(pc.is_valid(batch["l_quantity"]),
                             pc.is_valid(batch["l_extendedprice"])))
        batch = batch.filter(ok)
        s = batch["l_shipdate"].cast(pa.int64()).to_numpy()
        dpct = np.floor(
            batch["l_discount"].to_numpy() * 100.0 + 0.5).astype(np.int64)
        qty = np.floor(batch["l_quantity"].to_numpy() + 0.5).astype(np.int64)
        m = ((s >= Q12_LO_US) & (s < Q12_LO_US + 366 * 86_400_000_000)
             & (dpct >= 5) & (dpct <= 7) & (qty < 24))
        cents = np.floor(
            batch["l_extendedprice"].to_numpy() * 100.0 + 0.5
        ).astype(np.int64)[m]
        rev = int((cents * dpct[m] // 100).sum())
        return pa.table({"revenue_cents": pa.array([rev], pa.int64()),
                         "n_rows": pa.array([int(m.sum())], pa.int64())})

    t = collect_arrow(
        line.map_batches(partial, batch_format="pyarrow"),
        pa.table({"revenue_cents": pa.array([], pa.int64()),
                  "n_rows": pa.array([], pa.int64())}))
    return pd.DataFrame(
        {"revenue_cents": pd.Series(
            [int(t["revenue_cents"].to_numpy(zero_copy_only=False).sum())],
            dtype="int64"),
         "n_rows": pd.Series(
             [int(t["n_rows"].to_numpy(zero_copy_only=False).sum())],
             dtype="int64")})


def sql_forecast_revenue() -> str:
    c = "CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)"
    d = "CAST(floor(l_discount * 100 + 0.5) AS BIGINT)"
    q = "CAST(floor(l_quantity + 0.5) AS BIGINT)"
    return f"""
SELECT CAST(COALESCE(sum({c} * {d} // 100), 0) AS BIGINT) AS revenue_cents,
       CAST(count(*) AS BIGINT) AS n_rows
FROM lineitem
WHERE l_shipdate IS NOT NULL AND l_discount IS NOT NULL
  AND l_quantity IS NOT NULL AND l_extendedprice IS NOT NULL
  AND l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate < TIMESTAMP '1997-01-01'
  AND {d} BETWEEN 5 AND 7 AND {q} < 24
"""


def event_type_cooccurrence(sf_dir: str):
    """(type_a, type_b, n_users): event-type co-engagement matrix — how
    many distinct users perform BOTH event types (a < b lexically), the
    feature-adoption overlap table product analytics keeps.

    Per-batch (user, type) dedup partials, ONE user-keyed partition
    exchange whose kernel re-dedups (global: all copies of a (user,
    type) pair share the user), generates each user's within-partition
    type pairs with the shared vectorized pair generator (per-user pair
    volume bounded by |types|^2), and pre-folds to pair counts; a
    pair-keyed combiner finishes.  Exchange volume is distinct (user,
    type) rows per batch — never event rows."""
    import numpy as np
    import pandas as pd

    from ..stages.exchange import hash_partitioned_agg, hash_partitioned_apply
    from ..stages.triangles import _group_bounds, _pairs_within_groups

    ev = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.dropna(subset=["user_id", "event_type"])
        return df.drop_duplicates()

    def kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        d = df.drop_duplicates().sort_values(["user_id", "event_type"])
        u = d["user_id"].to_numpy()
        t = d["event_type"].to_numpy()
        starts, sizes = _group_bounds(u)
        li, ri = _pairs_within_groups(starts, sizes, len(u))
        g = pd.DataFrame({"type_a": t[li], "type_b": t[ri],
                          "n_users": np.ones(len(li), dtype=np.int64)})
        return g.groupby(["type_a", "type_b"], sort=False,
                         as_index=False).agg(n_users=("n_users", "sum"))

    partials = hash_partitioned_apply(
        ev.map_batches(partial, batch_format="pandas"),
        ["user_id"], kernel)
    return hash_partitioned_agg(
        partials, ["type_a", "type_b"],
        lambda df: df.groupby(["type_a", "type_b"], sort=False,
                              as_index=False).agg(
            n_users=("n_users", "sum")))


def sql_event_type_cooccurrence() -> str:
    return """
WITH ut AS (
  SELECT DISTINCT user_id, event_type FROM events
  WHERE user_id IS NOT NULL AND event_type IS NOT NULL
)
SELECT a.event_type AS type_a, b.event_type AS type_b,
       CAST(count(*) AS BIGINT) AS n_users
FROM ut a JOIN ut b
  ON a.user_id = b.user_id AND a.event_type < b.event_type
GROUP BY 1, 2
"""


def local_supplier_volume(sf_dir: str):
    """(n_name, revenue_cents): TPC-H-Q5-shaped local-supplier volume —
    revenue from lineitems whose supplier and ordering customer live in
    the SAME nation, for orders placed inside a one-year window, grouped
    by that nation.  The reference analog is the J2/J5 weighted-join
    family (src/align/aligner.py:23-81) composed with the G2 groupby;
    here it is the canonical 5-table snowflake with an equality
    constraint BETWEEN the two dimension paths (c_nationkey ==
    s_nationkey), which TPC-H calls "local supplier volume".

    Revenue is the integer disc-cents convention (cents * (100-d) // 100
    per row) so the DuckDB mirror is bit-exact.  The order-date window
    is evaluated on the DIM side (orders), so out-of-window orders never
    match.

    Lineitems walk three chained ``lookup_join`` hops (suppkey ->
    supplier nation, orderkey -> custkey of an in-window order, custkey
    -> customer nation); the last hop keeps sn == cn rows and folds to
    <= |nations| partial rows, and one nation-keyed combiner exchange
    finishes."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq

    from ..stages.exchange import hash_partitioned_agg, lookup_join

    nation = pq.read_table(str(Path(sf_dir) / "nation.parquet"),
                           columns=["n_nationkey", "n_name"])
    nname = {int(k): str(v) for k, v in zip(
        nation["n_nationkey"].to_numpy(), nation["n_name"].to_pylist())}

    line = _read(sf_dir, "lineitem",
                 ["l_suppkey", "l_orderkey", "l_extendedprice", "l_discount"])
    supplier = _nonnull(_read(sf_dir, "supplier",
                              ["s_suppkey", "s_nationkey"]), ["s_nationkey"])
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"])
    customer = _nonnull(_read(sf_dir, "customer",
                              ["c_custkey", "c_nationkey"]), ["c_nationkey"])

    HI_US = Q12_LO_US + 366 * 86_400_000_000   # 1996 is a leap year

    def orders_window(batch: "pa.Table") -> "pa.Table":
        batch = batch.filter(pc.and_(pc.is_valid(batch["o_custkey"]),
                                     pc.is_valid(batch["o_orderdate"])))
        ts = batch["o_orderdate"].cast(pa.int64()).to_numpy()
        m = (ts >= Q12_LO_US) & (ts < HI_US)
        return batch.filter(pa.array(m)).select(["o_orderkey", "o_custkey"])

    def local_fold(t: "pa.Table") -> "pd.DataFrame":
        sn = t["s_nationkey"].to_numpy().astype(np.int64)
        m = sn == t["c_nationkey"].to_numpy().astype(np.int64)
        u, inv = np.unique(sn[m], return_inverse=True)
        s = np.zeros(len(u), dtype=np.int64)
        np.add.at(s, inv, t["cents"].to_numpy()[m])
        return pd.DataFrame({"nat": u.astype(np.int64), "revenue_cents": s})

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby(["nat"], sort=False, as_index=False).agg(
            revenue_cents=("revenue_cents", "sum"))

    def name_map(df: "pd.DataFrame") -> "pd.DataFrame":
        return pd.DataFrame(
            {"n_name": df["nat"].map(nname).astype(str),
             "revenue_cents": df["revenue_cents"].to_numpy().astype(np.int64)})

    s1 = lookup_join(line.map_batches(_disc_cents, batch_format="pyarrow"),
                     "l_suppkey", supplier, "s_suppkey", ["s_nationkey"])
    s2 = lookup_join(s1, "l_orderkey",
                     orders.map_batches(orders_window, batch_format="pyarrow"),
                     "o_orderkey", ["o_custkey"])
    s3 = lookup_join(s2, "o_custkey", customer, "c_custkey", ["c_nationkey"],
                     then=local_fold)
    return hash_partitioned_agg(s3, ["nat"], combine).map_batches(
        name_map, batch_format="pandas")


def sql_local_supplier_volume() -> str:
    c = "CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)"
    d = "CAST(floor(l_discount * 100 + 0.5) AS BIGINT)"
    return f"""
WITH li AS (
  SELECT l_suppkey, l_orderkey, {c} * (100 - {d}) // 100 AS cents
  FROM lineitem
  WHERE l_suppkey IS NOT NULL AND l_orderkey IS NOT NULL
    AND l_extendedprice IS NOT NULL AND l_discount IS NOT NULL
), ow AS (
  SELECT o_orderkey, o_custkey FROM orders
  WHERE o_orderkey IS NOT NULL AND o_custkey IS NOT NULL
    AND o_orderdate IS NOT NULL
    AND o_orderdate >= TIMESTAMP '1996-01-01'
    AND o_orderdate < TIMESTAMP '1997-01-01'
)
SELECT n_name, CAST(sum(li.cents) AS BIGINT) AS revenue_cents
FROM li
JOIN supplier ON li.l_suppkey = s_suppkey
JOIN ow ON li.l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey AND c_nationkey = s_nationkey
JOIN nation ON c_nationkey = n_nationkey
GROUP BY 1
"""


def national_market_share(sf_dir: str, part_type: str = "PROMO"):
    """(o_year, n_name, revenue_cents, share_pm): TPC-H-Q8-shaped national
    market share — for lineitems of parts of one type, each supplier
    nation's share of every order-year's revenue, exact integer permyriad
    (10000 * nation_cents // year_total_cents).  The percent-of-total is
    the new composed shape here: the (year, nation) matrix is BOUNDED
    (|years| x |nations|), so after the keyed combiner it coalesces to
    one block where the window-sum share is a single vectorized kernel —
    the unbounded streams never see a second pass.

    Lineitems walk three chained ``lookup_join`` hops (a semi hop on the
    type's partkeys, orderkey -> year, suppkey -> nation); the last hop
    folds to <= |years| x |nations| rows per batch or partition."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq

    from ..stages.exchange import finish, hash_partitioned_agg, lookup_join

    nation = pq.read_table(str(Path(sf_dir) / "nation.parquet"),
                           columns=["n_nationkey", "n_name"])
    nname = {int(k): str(v) for k, v in zip(
        nation["n_nationkey"].to_numpy(), nation["n_name"].to_pylist())}

    line = _read(sf_dir, "lineitem",
                 ["l_partkey", "l_suppkey", "l_orderkey",
                  "l_extendedprice", "l_discount"])
    members = _read(sf_dir, "part", ["p_partkey", "p_type"]).map_batches(
        lambda t: t.filter(pc.equal(t["p_type"], part_type)),
        batch_format="pyarrow")
    supplier = _nonnull(_read(sf_dir, "supplier",
                              ["s_suppkey", "s_nationkey"]), ["s_nationkey"])

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby(["o_year", "nat"], sort=False, as_index=False).agg(
            revenue_cents=("revenue_cents", "sum"))

    # the (year, nation) matrix is bounded: one driver pass computes the
    # within-year percent-of-total and attaches names
    def share(df: "pd.DataFrame") -> "pd.DataFrame":
        tot = df.groupby("o_year")["revenue_cents"].transform("sum") \
            .to_numpy().astype(np.int64)
        c = df["revenue_cents"].to_numpy().astype(np.int64)
        return pd.DataFrame(
            {"o_year": df["o_year"].to_numpy().astype(np.int64),
             "n_name": df["nat"].map(nname).astype(str),
             "revenue_cents": c,
             "share_pm": 10_000 * c // tot})

    s1 = lookup_join(line.map_batches(_disc_cents, batch_format="pyarrow"),
                     "l_partkey", members, "p_partkey", how="semi")
    s2 = lookup_join(s1, "l_orderkey", _order_years(sf_dir), "o_orderkey",
                     ["o_year"])
    s3 = lookup_join(s2, "l_suppkey", supplier, "s_suppkey", ["s_nationkey"],
                     then=_year_nation_fold("revenue_cents"))
    return finish(hash_partitioned_agg(s3, ["o_year", "nat"], combine),
                  share, schema=pa.schema([("o_year", pa.int64()),
                                           ("nat", pa.int64()),
                                           ("revenue_cents", pa.int64())]))


def sql_national_market_share(part_type: str = "PROMO") -> str:
    c = "CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)"
    d = "CAST(floor(l_discount * 100 + 0.5) AS BIGINT)"
    return f"""
WITH li AS (
  SELECT l_partkey, l_suppkey, l_orderkey,
         {c} * (100 - {d}) // 100 AS cents
  FROM lineitem
  WHERE l_partkey IS NOT NULL AND l_suppkey IS NOT NULL
    AND l_orderkey IS NOT NULL AND l_extendedprice IS NOT NULL
    AND l_discount IS NOT NULL
), m AS (
  SELECT CAST(year(o_orderdate) AS BIGINT) AS o_year, n_name,
         CAST(sum(li.cents) AS BIGINT) AS revenue_cents
  FROM li
  JOIN part ON li.l_partkey = p_partkey AND p_type = '{part_type}'
  JOIN orders ON li.l_orderkey = o_orderkey
    AND o_orderdate IS NOT NULL
  JOIN supplier ON li.l_suppkey = s_suppkey
  JOIN nation ON s_nationkey = n_nationkey
  GROUP BY 1, 2
)
SELECT o_year, n_name, revenue_cents,
       CAST(10000 * revenue_cents
            // sum(revenue_cents) OVER (PARTITION BY o_year)
            AS BIGINT) AS share_pm
FROM m
"""

def product_profit(sf_dir: str, name_sub: str = "rod"):
    """(o_year, n_name, profit_cents): TPC-H-Q9-shaped product-type profit
    — for lineitems of parts whose name contains ``name_sub``, each
    supplier nation's yearly profit, where profit is disc-revenue minus a
    deterministic per-unit cost derived from the part's retail price
    (``retail_cents // 100``; the schema has no partsupp table, so the
    part row itself supplies the cost side — same join topology, same
    negative-amount semantics as Q9).  The reference analog is the
    J2/J5 weighted-join family (src/align/aligner.py:23-81) composed
    with the G2 groupby.

    All arithmetic is int64 cents so the DuckDB mirror is bit-exact;
    amounts can be negative (cost exceeds discounted revenue on
    high-quantity cheap lines), which distinguishes this from the
    revenue-only Q5/Q8 shapes.

    Lineitems walk three chained ``lookup_join`` hops (partkey -> unit
    cost of a matching part, orderkey -> year, suppkey -> nation); the
    first converts to profit so quantity never travels past it, the last
    folds to <= |years| x |nations| rows per batch or partition."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq

    from ..stages.exchange import hash_partitioned_agg, lookup_join

    nation = pq.read_table(str(Path(sf_dir) / "nation.parquet"),
                           columns=["n_nationkey", "n_name"])
    nname = {int(k): str(v) for k, v in zip(
        nation["n_nationkey"].to_numpy(), nation["n_name"].to_pylist())}

    line = _read(sf_dir, "lineitem",
                 ["l_partkey", "l_suppkey", "l_orderkey",
                  "l_extendedprice", "l_discount", "l_quantity"])
    part = _read(sf_dir, "part", ["p_partkey", "p_name", "p_retailprice"])
    supplier = _nonnull(_read(sf_dir, "supplier",
                              ["s_suppkey", "s_nationkey"]), ["s_nationkey"])

    def part_cost(batch: "pa.Table") -> "pa.Table":
        ok = pc.and_(pc.is_valid(batch["p_retailprice"]),
                     pc.match_substring(pc.fill_null(batch["p_name"], ""),
                                        name_sub))
        batch = batch.filter(pc.fill_null(ok, False))
        rc = np.floor(batch["p_retailprice"].to_numpy() * 100.0 + 0.5) \
            .astype(np.int64)
        return pa.table({"p_partkey": batch["p_partkey"], "cost": rc // 100})

    def li_rows(batch: "pa.Table") -> "pa.Table":
        batch = batch.filter(pc.is_valid(batch["l_quantity"]))
        qty = batch["l_quantity"].to_numpy().astype(np.int64)
        return _disc_cents(batch.append_column("qty", pa.array(qty)))

    def profit(t: "pa.Table") -> "pa.Table":
        amt = t["cents"].to_numpy() - t["qty"].to_numpy() \
            * t["cost"].to_numpy()
        return t.select(["l_suppkey", "l_orderkey"]).append_column(
            "cents", pa.array(amt))

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby(["o_year", "nat"], sort=False, as_index=False).agg(
            profit_cents=("profit_cents", "sum"))

    def name_map(df: "pd.DataFrame") -> "pd.DataFrame":
        return pd.DataFrame(
            {"o_year": df["o_year"].to_numpy().astype(np.int64),
             "n_name": df["nat"].map(nname).astype(str),
             "profit_cents": df["profit_cents"].to_numpy().astype(np.int64)})

    s1 = lookup_join(line.map_batches(li_rows, batch_format="pyarrow"),
                     "l_partkey",
                     part.map_batches(part_cost, batch_format="pyarrow"),
                     "p_partkey", ["cost"], then=profit)
    s2 = lookup_join(s1, "l_orderkey", _order_years(sf_dir), "o_orderkey",
                     ["o_year"])
    s3 = lookup_join(s2, "l_suppkey", supplier, "s_suppkey", ["s_nationkey"],
                     then=_year_nation_fold("profit_cents"))
    return hash_partitioned_agg(s3, ["o_year", "nat"], combine).map_batches(
        name_map, batch_format="pandas")


def sql_product_profit(name_sub: str = "rod") -> str:
    c = "CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)"
    d = "CAST(floor(l_discount * 100 + 0.5) AS BIGINT)"
    rc = "CAST(floor(p_retailprice * 100 + 0.5) AS BIGINT)"
    return f"""
WITH li AS (
  SELECT l_partkey, l_suppkey, l_orderkey,
         {c} * (100 - {d}) // 100 AS cents,
         CAST(l_quantity AS BIGINT) AS qty
  FROM lineitem
  WHERE l_partkey IS NOT NULL AND l_suppkey IS NOT NULL
    AND l_orderkey IS NOT NULL AND l_extendedprice IS NOT NULL
    AND l_discount IS NOT NULL AND l_quantity IS NOT NULL
), pf AS (
  SELECT p_partkey, {rc} // 100 AS cost
  FROM part
  WHERE p_name LIKE '%{name_sub}%' AND p_partkey IS NOT NULL
    AND p_retailprice IS NOT NULL
)
SELECT CAST(year(o_orderdate) AS BIGINT) AS o_year, n_name,
       CAST(sum(li.cents - li.qty * pf.cost) AS BIGINT) AS profit_cents
FROM li
JOIN pf ON li.l_partkey = p_partkey
JOIN orders ON li.l_orderkey = o_orderkey AND o_orderdate IS NOT NULL
JOIN supplier ON li.l_suppkey = s_suppkey
JOIN nation ON s_nationkey = n_nationkey
GROUP BY 1, 2
"""

def min_cost_supplier(sf_dir: str, region_name: str = "EUROPE",
                      name_suffix: str = "widget", max_size: int = 25,
                      k: int = 100):
    """(acctbal_cents, s_name, n_name, p_partkey, unit_cents): TPC-H-Q2-
    shaped minimum-cost supplier — for parts matching a name-suffix +
    size filter, every REGION-scoped supplier that achieves the per-part
    MINIMUM unit cost (ties kept, the correlated-min-subquery semantics),
    ordered by (acctbal DESC, n_name, s_name, p_partkey) and capped at
    ``k``.  The schema has no partsupp table, so the part-supplier cost
    relation is derived from lineitem: unit cost = min observed
    ``disc-free cents // quantity`` per (part, supplier) pair — same
    grouped-argmin-with-tie-set topology as Q2.  Reference analog: the
    O4 argmax/top-1 family (src/rank/ranker.py) with G2 grouping.

    The per-group tie-set is the composed shape here: unlike
    rel_top_supplier's single global max, the min is PER PART, and the
    survivors then face a global ordered cap — per-partition local
    top-k prune under the FULL sort key (sound: the global top-k is a
    subset of the union of per-partition top-ks), <= k*P rows coalesce
    to one block for the final sort.

    Lineitem (part, supplier) pairs take two ``lookup_join`` hops — a
    semi hop on the filtered partkeys, then the region-scoped supplier
    attributes, folded per batch or partition to per-pair min partials —
    and ONE partkey-keyed partition exchange computes the tie sets."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq

    from ..stages.exchange import finish, hash_partitioned_apply, lookup_join

    region = pq.read_table(str(Path(sf_dir) / "region.parquet"),
                           columns=["r_regionkey", "r_name"])
    rkeys = {int(rk) for rk, rn in zip(
        region["r_regionkey"].to_numpy(), region["r_name"].to_pylist())
        if str(rn) == region_name}
    nation = pq.read_table(str(Path(sf_dir) / "nation.parquet"),
                           columns=["n_nationkey", "n_name", "n_regionkey"])
    nat_in = {int(nk): str(nn) for nk, nn, nr in zip(
        nation["n_nationkey"].to_numpy(), nation["n_name"].to_pylist(),
        nation["n_regionkey"].to_numpy()) if int(nr) in rkeys}

    line = _read(sf_dir, "lineitem",
                 ["l_partkey", "l_suppkey", "l_extendedprice", "l_quantity"])
    part = _read(sf_dir, "part", ["p_partkey", "p_name", "p_size"])
    supplier = _read(sf_dir, "supplier",
                     ["s_suppkey", "s_nationkey", "s_acctbal", "s_name"])

    nat_arr = np.array(sorted(nat_in), dtype=np.int64)

    def part_member(batch: "pa.Table") -> "pa.Table":
        ok = pc.and_(pc.is_valid(batch["p_size"]),
                     pc.and_(pc.ends_with(pc.fill_null(batch["p_name"], ""),
                                          name_suffix),
                             pc.less_equal(batch["p_size"], max_size)))
        return batch.filter(pc.fill_null(ok, False)).select(["p_partkey"])

    def supp_attrs(batch: "pa.Table") -> "pa.Table":
        df = batch.to_pandas()
        df = df.dropna(subset=["s_suppkey", "s_nationkey", "s_acctbal",
                               "s_name"])
        nk = df["s_nationkey"].to_numpy().astype(np.int64)
        m = np.isin(nk, nat_arr)
        df = df[m]
        return pa.table(
            {"sk": pa.array(df["s_suppkey"].to_numpy().astype(np.int64)),
             "acctbal_cents": pa.array(np.floor(
                 df["s_acctbal"].to_numpy() * 100.0 + 0.5).astype(np.int64)),
             "s_name": pa.array(df["s_name"].astype(str), pa.string()),
             "n_name": pa.array(df["s_nationkey"].astype("int64").map(
                 nat_in).astype(str), pa.string())})

    def li_pairs(batch: "pa.Table") -> "pa.Table":
        ok = pc.and_(pc.and_(pc.is_valid(batch["l_extendedprice"]),
                             pc.is_valid(batch["l_quantity"])),
                     pc.greater(batch["l_quantity"], 0))
        batch = batch.filter(pc.fill_null(ok, False))
        cents = np.floor(
            batch["l_extendedprice"].to_numpy() * 100.0 + 0.5
        ).astype(np.int64)
        qty = batch["l_quantity"].to_numpy().astype(np.int64)
        return pa.table({"pk": batch["l_partkey"], "sk": batch["l_suppkey"],
                         "unit_cents": cents // qty})

    def pair_min(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby(["pk", "sk"], sort=False, as_index=False).agg(
            unit_cents=("unit_cents", "min"),
            acctbal_cents=("acctbal_cents", "first"),
            s_name=("s_name", "first"), n_name=("n_name", "first"))

    _SORT = dict(by=["acctbal_cents", "n_name", "s_name", "p_partkey"],
                 ascending=[False, True, True, True], kind="stable")

    def tie_prune(df: "pd.DataFrame") -> "pd.DataFrame":
        """Per-pair global min -> per-part min -> tie set -> local top-k
        under the full sort key."""
        g = pair_min(df)
        mn = g.groupby("pk")["unit_cents"].transform("min")
        g = g[g["unit_cents"].to_numpy() == mn.to_numpy()]
        g = pd.DataFrame(
            {"acctbal_cents": g["acctbal_cents"].to_numpy(np.int64),
             "s_name": g["s_name"].astype(str),
             "n_name": g["n_name"].astype(str),
             "p_partkey": g["pk"].to_numpy(np.int64),
             "unit_cents": g["unit_cents"].to_numpy(np.int64)})
        return g.sort_values(**_SORT).head(k)

    def cap(df: "pd.DataFrame") -> "pd.DataFrame":
        if not len(df):
            return pd.DataFrame(
                {"acctbal_cents": pd.Series([], dtype="int64"),
                 "s_name": pd.Series([], dtype="object"),
                 "n_name": pd.Series([], dtype="object"),
                 "p_partkey": pd.Series([], dtype="int64"),
                 "unit_cents": pd.Series([], dtype="int64")})
        return df.sort_values(**_SORT).head(k).reset_index(drop=True)

    members = lookup_join(
        line.map_batches(li_pairs, batch_format="pyarrow"), "pk",
        part.map_batches(part_member, batch_format="pyarrow"), "p_partkey",
        how="semi")
    pairs = lookup_join(members, "sk",
                        supplier.map_batches(supp_attrs,
                                             batch_format="pyarrow"),
                        "sk", ["acctbal_cents", "s_name", "n_name"],
                        then=lambda t: pair_min(t.to_pandas()))
    return finish(hash_partitioned_apply(pairs, ["pk"], tie_prune), cap)


def sql_min_cost_supplier(region_name: str = "EUROPE",
                          name_suffix: str = "widget", max_size: int = 25,
                          k: int = 100) -> str:
    c = "CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)"
    return f"""
WITH pairs AS (
  SELECT l_partkey AS pk, l_suppkey AS sk,
         min({c} // CAST(l_quantity AS BIGINT)) AS unit_cents
  FROM lineitem
  WHERE l_partkey IS NOT NULL AND l_suppkey IS NOT NULL
    AND l_extendedprice IS NOT NULL AND l_quantity IS NOT NULL
    AND l_quantity > 0
  GROUP BY 1, 2
), eu AS (
  SELECT s_suppkey, s_name,
         CAST(floor(s_acctbal * 100 + 0.5) AS BIGINT) AS acctbal_cents,
         n_name
  FROM supplier
  JOIN nation ON s_nationkey = n_nationkey
  JOIN region ON n_regionkey = r_regionkey
  WHERE r_name = '{region_name}' AND s_acctbal IS NOT NULL
    AND s_name IS NOT NULL
), pf AS (
  SELECT p_partkey FROM part
  WHERE p_name LIKE '%{name_suffix}' AND p_size IS NOT NULL
    AND p_size <= {max_size}
), reg AS (
  SELECT pk, sk, unit_cents, acctbal_cents, s_name, n_name
  FROM pairs
  JOIN eu ON sk = s_suppkey
  JOIN pf ON pk = p_partkey
)
SELECT acctbal_cents, s_name, n_name, pk AS p_partkey, unit_cents
FROM (SELECT *, min(unit_cents) OVER (PARTITION BY pk) AS mn FROM reg)
WHERE unit_cents = mn
ORDER BY acctbal_cents DESC, n_name, s_name, p_partkey
LIMIT {k}
"""

def part_concentration(sf_dir: str):
    """(share_pm, n_parts): supply-concentration histogram — for every
    part, the LEAD supplier's exact integer-permyriad share of the
    part's total shipped quantity (10000 * max_pair_qty // total_qty),
    folded to how many parts sit at each concentration level.  The
    single-source-risk curve a supply-chain review reads (share_pm
    10000 = sole-sourced part; ~10000/n = perfectly diversified).
    Reference analog: the G2 grouped merge composed with the O4 argmax
    family.

    The new composed shape vs rel_q8's bounded matrix: the
    percent-of-total here is per PART — unbounded key cardinality — so
    the share needs pair sums and part totals CO-LOCATED: per-batch
    (part, supplier) quantity partials cross ONE partkey-keyed
    partition exchange whose kernel folds global pair sums, forms
    per-part totals and maxima with two C-level groupby reductions, and
    pre-folds to <= |distinct shares| histogram rows.  A share_pm-keyed
    combiner finishes; only bounded histogram rows take the second
    hop."""
    import numpy as np
    import pandas as pd

    from ..stages.exchange import hash_partitioned_agg, hash_partitioned_apply

    line = _read(sf_dir, "lineitem",
                 ["l_partkey", "l_suppkey", "l_quantity"])

    def pair_partial(batch: "pa.Table") -> "pd.DataFrame":
        cols = ["l_partkey", "l_suppkey", "l_quantity"]
        ok = pc.is_valid(batch[cols[0]])
        for c in cols[1:]:
            ok = pc.and_(ok, pc.is_valid(batch[c]))
        batch = batch.filter(ok)
        if not batch.num_rows:
            return pd.DataFrame()
        g = pd.DataFrame(
            {"pk": batch["l_partkey"].to_numpy().astype(np.int64),
             "sk": batch["l_suppkey"].to_numpy().astype(np.int64),
             "q": batch["l_quantity"].to_numpy().astype(np.int64)})
        return g.groupby(["pk", "sk"], sort=False, as_index=False).agg(
            q=("q", "sum"))

    def share_kernel(d: "pd.DataFrame") -> "pd.DataFrame":
        g = d.groupby(["pk", "sk"], sort=False, as_index=False).agg(
            q=("q", "sum"))
        per = g.groupby("pk", sort=False, as_index=False).agg(
            mx=("q", "max"), tot=("q", "sum"))
        share = (10_000 * per["mx"].to_numpy(np.int64)
                 // per["tot"].to_numpy(np.int64))
        u, cnt = np.unique(share, return_counts=True)
        return pd.DataFrame({"share_pm": u.astype(np.int64),
                             "n_parts": cnt.astype(np.int64)})

    partials = hash_partitioned_apply(
        line.map_batches(pair_partial, batch_format="pyarrow"),
        ["pk"], share_kernel)

    return hash_partitioned_agg(
        partials, ["share_pm"],
        lambda df: df.groupby("share_pm", sort=False, as_index=False).agg(
            n_parts=("n_parts", "sum")))


def sql_part_concentration() -> str:
    return """
WITH pairs AS (
  SELECT l_partkey AS pk, l_suppkey AS sk,
         CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS q
  FROM lineitem
  WHERE l_partkey IS NOT NULL AND l_suppkey IS NOT NULL
    AND l_quantity IS NOT NULL
  GROUP BY 1, 2
), per_part AS (
  SELECT pk, CAST(10000 * max(q) // sum(q) AS BIGINT) AS share_pm
  FROM pairs GROUP BY pk
)
SELECT share_pm, CAST(count(*) AS BIGINT) AS n_parts
FROM per_part GROUP BY 1
"""


def event_transitions(sf_dir: str):
    """events -> (prev_type, next_type, n_pairs): counts of consecutive
    event-type transitions per user in (ts, event_id) order — the
    first-order Markov / behavioral-model matrix a product-analytics pass
    fits (reference analog: the G1/G6 per-user ordered-scan family recast
    as an adjacent-pair count).

    Scale shape: users co-locate via the int-keyed partition-only exchange
    (the sessionize topology — rows cross ONCE); each partition runs one
    vectorized kernel over ALL its users (lexsort, shift, same-user mask,
    one value_counts) and folds straight to <= |types|^2 partial rows, so
    the second exchange is a bounded pair-keyed combiner.  No per-user
    Python anywhere (user cardinality is unbounded at web scale)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from ..stages.exchange import hash_partitioned_agg, hash_partitioned_apply

    def valid(batch: "pa.Table") -> "pa.Table":
        import pyarrow.compute as pc

        mask = pc.and_(
            pc.and_(pc.is_valid(batch["user_id"]), pc.is_valid(batch["ts"])),
            pc.is_valid(batch["event_type"]))
        return batch.filter(mask)

    def kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        if len(df) < 2:
            return pd.DataFrame()
        df = df.sort_values(["user_id", "ts", "event_id"])
        users = df["user_id"].to_numpy()
        types = df["event_type"].to_numpy()
        same = users[1:] == users[:-1]
        if not same.any():
            return pd.DataFrame()
        g = pd.DataFrame({"prev_type": types[:-1][same],
                          "next_type": types[1:][same]})
        out = g.groupby(["prev_type", "next_type"], sort=False,
                        as_index=False).agg(n_pairs=("prev_type", "size"))
        out["n_pairs"] = out["n_pairs"].astype("int64")
        return out

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
    partials = hash_partitioned_apply(
        ds.map_batches(valid, batch_format="pyarrow"),
        ["user_id"], kernel)
    return hash_partitioned_agg(
        partials, ["prev_type", "next_type"],
        lambda df: df.groupby(["prev_type", "next_type"], sort=False,
                              as_index=False).agg(n_pairs=("n_pairs", "sum")))


def sql_event_transitions() -> str:
    return """
WITH e AS (
  SELECT user_id, ts, event_id, event_type FROM events
  WHERE ts IS NOT NULL AND user_id IS NOT NULL AND event_type IS NOT NULL
), p AS (
  SELECT event_type AS next_type,
         lag(event_type) OVER (
           PARTITION BY user_id ORDER BY ts, event_id) AS prev_type
  FROM e
)
SELECT prev_type, next_type, CAST(count(*) AS BIGINT) AS n_pairs
FROM p WHERE prev_type IS NOT NULL GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Market-basket association rules (r5 batch 21)
# ---------------------------------------------------------------------------

BASKET_MINSUP = 2               # min distinct orders a part pair must share


def basket_rules(sf_dir: str, minsup: int = BASKET_MINSUP):
    """lineitem -> (part_a, part_b, n_ab, n_a, n_b, lift_pm): classic
    market-basket association mining over order baskets — every unordered
    part pair co-occurring in >= ``minsup`` distinct orders, with both
    marginal order counts and the exact integer-permyriad lift
    ``10000 * n_ab * n_orders // (n_a * n_b)`` (lift > 10000 = the pair
    co-occurs MORE than independence predicts).  Distinct semantics from
    ``graph_edge_weights`` (edge-multiplicity histogram): this is the
    association-RULE artifact — supports, marginals and a normalized
    strength score per pair (reference analog: the G2/J2 weighted-pair
    family recast as co-purchase mining).

    Scale shape: ONE orderkey-keyed partition exchange co-locates each
    basket (the triangle pipeline's stage-1 topology); a single vectorized
    kernel per partition dedups (order, part), pair-generates with the
    shared ``_pairs_within_groups``, and emits THREE kind-tagged bounded
    partial streams in one all-int64 schema — pair counts (kind 0), part
    marginals (kind 1, additive because orders are partition-disjoint) and
    the partition's distinct-order count (kind 2, one row).  Pairs fold in
    an (a, b)-keyed combiner and take the support filter EARLY; marginals
    then attach through two chained kind-union part-keyed exchanges (no
    broadcast of the part table is ever required), and the n_orders
    scalar is a driver-scale collect of
    <= |partitions| rows.  The lift product ``10000 * n_ab * n_orders``
    falls back to Python-int arithmetic when it could exceed int64 (the
    PMI overflow convention, ADVICE r4)."""
    import numpy as np
    import pandas as pd

    from ..stages.exchange import (collect_arrow, hash_partitioned_agg,
                                   hash_partitioned_apply)
    from ..stages.triangles import _group_bounds, _pairs_within_groups

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def kernel(d: "pd.DataFrame") -> "pd.DataFrame":
        d = d.dropna(subset=["l_orderkey", "l_partkey"])
        d = d.drop_duplicates(subset=["l_orderkey", "l_partkey"]).sort_values(
            ["l_orderkey", "l_partkey"])
        o = d["l_orderkey"].to_numpy().astype(np.int64)
        p = d["l_partkey"].to_numpy().astype(np.int64)
        starts, sizes = _group_bounds(o)
        li_, ri_ = _pairs_within_groups(starts, sizes, len(o))
        pairs = pd.DataFrame({"a": p[li_], "b": p[ri_]})
        pairs["n"] = np.int64(1)
        pairs = pairs.groupby(["a", "b"], sort=False, as_index=False).agg(
            n=("n", "sum"))
        pairs.insert(0, "kind", np.int64(0))
        vc = pd.Series(p).value_counts()
        marg = pd.DataFrame(
            {"kind": np.int64(1), "a": vc.index.to_numpy().astype("int64"),
             "b": np.int64(-1), "n": vc.to_numpy().astype("int64")})
        scal = pd.DataFrame(
            {"kind": [np.int64(2)], "a": [np.int64(-1)], "b": [np.int64(-1)],
             "n": [np.int64(len(starts))]})
        out = pd.concat([pairs[["kind", "a", "b", "n"]], marg, scal],
                        ignore_index=True)
        for c in out.columns:
            out[c] = out[c].astype("int64")
        return out

    tagged = hash_partitioned_apply(
        li, ["l_orderkey"], kernel).materialize()

    def _only(kind: int):
        import pyarrow.compute as _pc

        def f(t: "pa.Table") -> "pa.Table":
            return t.filter(_pc.equal(t["kind"], kind)).drop_columns(["kind"])

        return f

    marg = hash_partitioned_agg(
        tagged.map_batches(_only(1), batch_format="pyarrow"), ["a"],
        lambda df: df.groupby("a", sort=False, as_index=False).agg(
            n=("n", "sum")))

    n_orders = int(pa.Table.to_pandas(collect_arrow(
        tagged.map_batches(_only(2), batch_format="pyarrow"),
        pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
                  "n": pa.array([], pa.int64())})))["n"].sum())

    # dual-key marginal attach in ONE exchange: every pair PARTIAL ships
    # twice — once keyed by each endpoint (sentinel-fill union with the
    # marginal rows, all int64).  All partials of a pair co-locate with
    # each endpoint key, so the kernel re-sums the GLOBAL n_ab on both
    # copies independently, takes the support filter EARLY, and attaches
    # that endpoint's marginal; a final (a, b)-keyed combiner merges the
    # two half-rows.  Same total pair-row wire volume as combiner + two
    # chained attaches (3x), one barrier fewer.
    def dual_tag(t: "pa.Table") -> "pa.Table":
        a = t["a"].to_numpy().astype(np.int64)
        b = t["b"].to_numpy().astype(np.int64)
        n = t["n"].to_numpy().astype(np.int64)
        return pa.table(
            {"key": pa.array(np.concatenate([a, b])),
             "side": pa.array(np.concatenate(
                 [np.zeros(len(a), dtype=np.int64),
                  np.ones(len(b), dtype=np.int64)])),
             "part_a": pa.array(np.concatenate([a, a])),
             "part_b": pa.array(np.concatenate([b, b])),
             "n": pa.array(np.concatenate([n, n]))})

    def marg_tag(t: "pa.Table") -> "pa.Table":
        k = t["a"].to_numpy().astype(np.int64)
        n = t["n"].to_numpy().astype(np.int64)
        s = np.full(len(k), -1, dtype=np.int64)
        return pa.table({"key": pa.array(k), "side": pa.array(s),
                         "part_a": pa.array(s.copy()),
                         "part_b": pa.array(s.copy()), "n": pa.array(n)})

    u = tagged.map_batches(_only(0), batch_format="pyarrow")         .map_batches(dual_tag, batch_format="pyarrow")         .union(marg.map_batches(marg_tag, batch_format="pyarrow"))

    def attach_kernel(d: "pd.DataFrame") -> "pd.DataFrame":
        m = d[d["side"] < 0][["key", "n"]].rename(columns={"n": "mn"})
        p = d[d["side"] >= 0]
        g = p.groupby(["key", "side", "part_a", "part_b"], sort=False,
                      as_index=False).agg(n_ab=("n", "sum"))
        g = g[g["n_ab"] >= minsup]
        g = g.merge(m, on="key", how="inner")
        side = g["side"].to_numpy()
        mn = g["mn"].to_numpy()
        out = pd.DataFrame(
            {"part_a": g["part_a"], "part_b": g["part_b"],
             "n_ab": g["n_ab"],
             "na_part": np.where(side == 0, mn, -1),
             "nb_part": np.where(side == 1, mn, -1)})
        for c in out.columns:
            out[c] = out[c].astype("int64")
        return out

    halves = hash_partitioned_apply(u, ["key"], attach_kernel)

    with_b = hash_partitioned_agg(
        halves, ["part_a", "part_b"],
        lambda df: df.groupby(["part_a", "part_b"], sort=False,
                              as_index=False).agg(
            n_ab=("n_ab", "max"), na_part=("na_part", "max"),
            nb_part=("nb_part", "max")))

    def finish(d: "pd.DataFrame") -> "pd.DataFrame":
        n_ab = d["n_ab"].to_numpy()
        n_a = d["na_part"].to_numpy()
        n_b = d["nb_part"].to_numpy()
        num_max = 10000 * int(n_ab.max()) * n_orders
        den_max = int(n_a.max()) * int(n_b.max())
        if num_max >= 2 ** 63 or den_max >= 2 ** 63:
            lift = np.fromiter(
                ((10000 * int(x) * n_orders) // (int(y) * int(z))
                 for x, y, z in zip(n_ab, n_a, n_b)),
                dtype="int64", count=len(n_ab))
        else:
            lift = (10000 * n_ab.astype(np.int64) * n_orders) // (
                n_a.astype(np.int64) * n_b.astype(np.int64))
        out = d[["part_a", "part_b", "n_ab"]].copy()
        out["n_a"] = n_a.astype("int64")
        out["n_b"] = n_b.astype("int64")
        out["lift_pm"] = lift.astype("int64")
        return out

    return with_b.map_batches(finish, batch_format="pandas")


def sql_basket_rules(minsup: int = BASKET_MINSUP) -> str:
    return f"""
WITH op AS (
  SELECT DISTINCT l_orderkey AS ok, l_partkey AS pk FROM lineitem
  WHERE l_orderkey IS NOT NULL AND l_partkey IS NOT NULL
), cnt AS (
  SELECT pk, CAST(count(*) AS BIGINT) AS n FROM op GROUP BY pk
), no AS (
  SELECT CAST(count(DISTINCT ok) AS BIGINT) AS n_orders FROM op
), pr AS (
  SELECT a.pk AS part_a, b.pk AS part_b, CAST(count(*) AS BIGINT) AS n_ab
  FROM op a JOIN op b ON a.ok = b.ok AND a.pk < b.pk
  GROUP BY 1, 2 HAVING count(*) >= {minsup}
)
SELECT CAST(part_a AS BIGINT) AS part_a, CAST(part_b AS BIGINT) AS part_b,
       n_ab, ca.n AS n_a, cb.n AS n_b,
       CAST(10000 * n_ab * (SELECT n_orders FROM no) // (ca.n * cb.n)
            AS BIGINT) AS lift_pm
FROM pr JOIN cnt ca ON ca.pk = part_a JOIN cnt cb ON cb.pk = part_b
"""


# ---------------------------------------------------------------------------
# RFM customer segmentation (r5 batch 22)
# ---------------------------------------------------------------------------

# bucket thresholds sit at the synthetic corpus's quartiles (stable across
# sf0.001-0.1), so every cell is populated at every test scale
RFM_R_DAYS = (60, 180, 365)            # recency: days since last order
RFM_F_ORDERS = (8, 10, 12)             # frequency: lifetime order count
RFM_M_CENTS = (180_000_000, 250_000_000, 315_000_000)  # monetary: cents


def _bucket3(v, t):
    """Tier index under the SQL rule ``v < t[i] -> i`` (else 3): side=
    'right' counts thresholds <= v, which matches the strict-< CASE chain
    exactly at the boundary values."""
    import numpy as np

    return (np.searchsorted(np.asarray(t, dtype=np.int64), v,
                            side="right")).astype("int64")


def rfm_segments(sf_dir: str):
    """orders -> (r, f, m, n_customers): the classic RFM segmentation
    histogram — each customer scored by Recency (days between their last
    order and the corpus's last order), Frequency (lifetime order count)
    and Monetary (lifetime spend in exact cents, half-away rounding per
    order), each bucketed into 4 quartile-anchored tiers, then counted
    per (r, f, m) cell (<= 64 rows).  The marketing-segmentation artifact
    a CRM pass publishes; distinct from rel_user_retention (per-user
    spans over EVENTS) and rel_cohorts (signup-cohort funnel): this is
    the bounded 3-axis behavioral histogram over ORDERS.

    Scale shape: per-batch per-customer partials (max day, count, cents
    sum) fold into ONE custkey-keyed combiner exchange (customer rows
    cross once, pre-compressed); the global max day is a driver-scale
    scalar fold of per-batch maxima; bucketing is a vectorized in-batch
    map over the already-global per-customer rows, and the final
    exchange is the bounded (r, f, m)-keyed histogram combiner."""
    import numpy as np
    import pandas as pd

    from ..stages.exchange import (collect_arrow, hash_partitioned_agg)

    ds = _read(sf_dir, "orders",
               ["o_custkey", "o_orderdate", "o_totalprice"])

    def clean(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.dropna(subset=["o_custkey", "o_orderdate", "o_totalprice"])
        day = (pd.to_datetime(df["o_orderdate"]).astype("datetime64[us]")
               .astype("int64") // 86_400_000_000)
        cents = np.floor(
            df["o_totalprice"].to_numpy(dtype=np.float64) * 100 + 0.5
        ).astype(np.int64)
        return pd.DataFrame(
            {"c": df["o_custkey"].astype("int64").to_numpy(),
             "day": day.to_numpy(), "cents": cents})

    cleaned = ds.map_batches(clean, batch_format="pandas").materialize()

    def cust_partial(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby("c", sort=False, as_index=False).agg(
            md=("day", "max"), n=("day", "size"), tc=("cents", "sum"))
        for col in g.columns:
            g[col] = g[col].astype("int64")
        return g

    def cust_combine(df: "pd.DataFrame") -> "pd.DataFrame":
        # self-applicable: partial pass sees (c, day, cents) never — the
        # stream is pre-projected to (c, md, n, tc) rows by cust_partial
        return df.groupby("c", sort=False, as_index=False).agg(
            md=("md", "max"), n=("n", "sum"), tc=("tc", "sum"))

    percust = hash_partitioned_agg(
        cleaned.map_batches(cust_partial, batch_format="pandas"),
        ["c"], cust_combine)

    # None only when there are no rows, and then bucketize never runs
    gd = pc.max(collect_arrow(
        cleaned.map_batches(
            lambda df: pd.DataFrame({"gd": [np.int64(df["day"].max())]}),
            batch_format="pandas"),
        pa.table({"gd": pa.array([], pa.int64())}))["gd"]).as_py()

    def bucketize(df: "pd.DataFrame") -> "pd.DataFrame":
        r = _bucket3(gd - df["md"].to_numpy(), RFM_R_DAYS)
        f = _bucket3(df["n"].to_numpy(), RFM_F_ORDERS)
        m = _bucket3(df["tc"].to_numpy(), RFM_M_CENTS)
        g = pd.DataFrame({"r": r, "f": f, "m": m})
        out = g.groupby(["r", "f", "m"], sort=False, as_index=False).agg(
            n_customers=("r", "size"))
        out["n_customers"] = out["n_customers"].astype("int64")
        return out

    return hash_partitioned_agg(
        percust.map_batches(bucketize, batch_format="pandas"),
        ["r", "f", "m"],
        lambda df: df.groupby(["r", "f", "m"], sort=False,
                              as_index=False).agg(
            n_customers=("n_customers", "sum")))


def sql_rfm_segments() -> str:
    def case3(expr: str, t) -> str:
        return (f"CASE WHEN {expr} < {t[0]} THEN 0 "
                f"WHEN {expr} < {t[1]} THEN 1 "
                f"WHEN {expr} < {t[2]} THEN 2 ELSE 3 END")

    return f"""
WITH o AS (
  SELECT o_custkey AS c,
         epoch_us(o_orderdate) // 86400000000 AS day,
         CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
  FROM orders
  WHERE o_custkey IS NOT NULL AND o_orderdate IS NOT NULL
    AND o_totalprice IS NOT NULL
), g AS (
  SELECT c, max(day) AS md, CAST(count(*) AS BIGINT) AS n,
         CAST(sum(cents) AS BIGINT) AS tc
  FROM o GROUP BY 1
), mx AS (SELECT max(day) AS gd FROM o)
SELECT CAST({case3('gd - md', RFM_R_DAYS)} AS BIGINT) AS r,
       CAST({case3('n', RFM_F_ORDERS)} AS BIGINT) AS f,
       CAST({case3('tc', RFM_M_CENTS)} AS BIGINT) AS m,
       CAST(count(*) AS BIGINT) AS n_customers
FROM g, mx GROUP BY 1, 2, 3
"""


# ---------------------------------------------------------------------------
# Activation-time (conversion-lag) histogram (r5 batch 23)
# ---------------------------------------------------------------------------

LAG_FROM = "signup"
LAG_TO = "purchase"
LAG_BUCKET_US = 3_600_000_000          # 1 hour


def conversion_lag(sf_dir: str, from_type: str = LAG_FROM,
                   to_type: str = LAG_TO,
                   bucket_us: int = LAG_BUCKET_US):
    """events -> (lag_hours, n_users): the ACTIVATION-TIME distribution —
    for every user with at least one ``from_type`` event and a
    ``to_type`` event at-or-after their first ``from_type``, the lag
    between the FIRST from-event and the FIRST to-event at-or-after it,
    floor-bucketed to hours.  The time-to-convert curve a growth team
    reads next to rel_event_funnel (windowed conversion counts) and
    rel_event_gaps (adjacent-gap stats): first-touch -> first-conversion
    at user grain, bounded histogram output.

    Scale shape: ONE user-keyed partition exchange.  The from side is
    min-composable, so it pre-compresses to one (user, min ts) row per
    batch.  The to side is NOT min-composable against an unknown global
    first_from (a batch's single min-to row below first_from would hide
    a larger same-batch to-ts that is the true answer), so to-events
    ship as DISTINCT (user, ts) rows per batch — at web scale the
    conversion events are the rare side of the stream, so this is the
    small volume by construction.  The partition kernel then resolves
    exactly (first_from = min of from rows; first_to = min of to rows >=
    first_from) and folds to <= |lags| histogram partials; a bounded
    lag-keyed combiner finishes."""
    import numpy as np
    import pandas as pd

    from ..stages.exchange import hash_partitioned_agg, hash_partitioned_apply

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.dropna(subset=["user_id", "ts", "event_type"])
        us = (pd.to_datetime(df["ts"]).astype("datetime64[us]")
              .astype("int64"))
        d = pd.DataFrame({"u": df["user_id"].astype("int64").to_numpy(),
                          "t": df["event_type"].to_numpy(),
                          "ts": us.to_numpy()})
        fr = d[d["t"] == from_type].groupby("u", as_index=False).agg(
            ts=("ts", "min"))
        fr["kind"] = np.int64(0)
        to = d[d["t"] == to_type][["u", "ts"]].drop_duplicates()
        to = to.copy()
        to["kind"] = np.int64(1)
        out = pd.concat([fr[["u", "kind", "ts"]], to[["u", "kind", "ts"]]],
                        ignore_index=True)
        for c in out.columns:
            out[c] = out[c].astype("int64")
        return out

    def kernel(d: "pd.DataFrame") -> "pd.DataFrame":
        fr = d[d["kind"] == 0].groupby("u", as_index=False).agg(
            f=("ts", "min"))
        to = d[d["kind"] == 1].merge(fr, on="u", how="inner")
        to = to[to["ts"] >= to["f"]]
        if not len(to):
            return pd.DataFrame()
        g = to.groupby("u", as_index=False).agg(ts=("ts", "min"),
                                                f=("f", "min"))
        lag = ((g["ts"] - g["f"]) // bucket_us).astype("int64")
        vc = lag.value_counts()
        return pd.DataFrame(
            {"lag_hours": vc.index.to_numpy().astype("int64"),
             "n_users": vc.to_numpy().astype("int64")})

    partials = hash_partitioned_apply(
        ds.map_batches(partial, batch_format="pandas"), ["u"], kernel)
    return hash_partitioned_agg(
        partials, ["lag_hours"],
        lambda df: df.groupby("lag_hours", sort=False, as_index=False).agg(
            n_users=("n_users", "sum")))


def sql_conversion_lag(from_type: str = LAG_FROM, to_type: str = LAG_TO,
                       bucket_us: int = LAG_BUCKET_US) -> str:
    return f"""
WITH e AS (
  SELECT user_id AS u, epoch_us(ts) AS us, event_type AS t FROM events
  WHERE user_id IS NOT NULL AND ts IS NOT NULL AND event_type IS NOT NULL
), fr AS (
  SELECT u, min(us) AS f FROM e WHERE t = '{from_type}' GROUP BY 1
), to_first AS (
  SELECT e.u, min(e.us) AS s
  FROM e JOIN fr ON fr.u = e.u
  WHERE e.t = '{to_type}' AND e.us >= fr.f
  GROUP BY 1
)
SELECT CAST((tf.s - fr.f) // {bucket_us} AS BIGINT) AS lag_hours,
       CAST(count(*) AS BIGINT) AS n_users
FROM to_first tf JOIN fr ON fr.u = tf.u
GROUP BY 1
"""


def decile_report(sf_dir: str):
    """orders -> (decile, n_customers, revenue_cents): exact customer
    lifetime-revenue deciles — the Lorenz / Pareto concentration audit
    (what share of revenue does the top tenth hold) a BI pass publishes;
    every customer is globally ranked by (cents ASC, custkey ASC) and
    decile = rank * 10 // n (0 = poorest tenth, 9 = richest).

    Scale shape — the canonical DISTRIBUTED RANK without a global sort
    (the doc_token_budget / doc_mix_order two-pass family applied to an
    unbounded value domain): per-customer cents fold in ONE custkey
    combiner exchange (customer rows cross once, pre-compressed); a
    bounded 4096-cell value-range histogram over the driver-folded
    [min, max] cents span gives every cell's exclusive global offset
    (cells partition the ORDER, so offsets are exact); a second
    cell-keyed partition exchange ranks locally within each cell by
    (cents, custkey) and adds the offset — only customer-grain rows ever
    cross the wire, and the final decile fold is a bounded 10-row
    combiner.  rank * 10 stays far inside int64 at any customer count."""
    import numpy as np
    import pandas as pd

    from ..stages.exchange import (collect_arrow, hash_partitioned_agg,
                                   hash_partitioned_apply)

    CELLS = 4096
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def per_cust(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.dropna(subset=["o_custkey", "o_totalprice"])
        cents = np.floor(
            df["o_totalprice"].to_numpy(dtype=np.float64) * 100 + 0.5
        ).astype(np.int64)
        g = pd.DataFrame({"k": df["o_custkey"].astype("int64").to_numpy(),
                          "cents": cents})
        return g.groupby("k", sort=False, as_index=False).agg(
            cents=("cents", "sum"))

    cust = hash_partitioned_agg(
        orders.map_batches(per_cust, batch_format="pandas"),
        ["k"],
        lambda df: df.groupby("k", sort=False, as_index=False).agg(
            cents=("cents", "sum"))).materialize()

    # driver-scale scalar folds: [min, max] span + total customer count
    stats = collect_arrow(cust.map_batches(
        lambda df: pd.DataFrame(
            {"lo": [df["cents"].min()], "hi": [df["cents"].max()],
             "n": [len(df)]}),
        batch_format="pandas")).to_pandas()
    if not len(stats):  # no customers
        return pd.DataFrame(
            {"decile": pd.Series([], dtype="int64"),
             "n_customers": pd.Series([], dtype="int64"),
             "revenue_cents": pd.Series([], dtype="int64")})
    lo, hi = int(stats["lo"].min()), int(stats["hi"].max())
    n_total = int(stats["n"].sum())
    span = hi - lo + 1

    def cell_of(c: "np.ndarray") -> "np.ndarray":
        return (c - lo) * CELLS // span

    # bounded cell histogram -> exclusive global offsets (cells partition
    # the (cents, custkey) order because cell is monotone in cents)
    hist = hash_partitioned_agg(
        cust.map_batches(
            lambda df: pd.DataFrame({"cell": cell_of(
                df["cents"].to_numpy())}).groupby(
                "cell", sort=False, as_index=False).size().rename(
                columns={"size": "n"}),
            batch_format="pandas"),
        ["cell"],
        lambda df: df.groupby("cell", sort=False, as_index=False).agg(
            n=("n", "sum")))
    hist = collect_arrow(hist).to_pandas()  # not empty: stats had rows
    offsets = np.zeros(CELLS, dtype=np.int64)
    np.add.at(offsets, hist["cell"].to_numpy(dtype=np.int64),
              hist["n"].to_numpy(dtype=np.int64))
    offsets = np.r_[0, np.cumsum(offsets)[:-1]]

    def rank_kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        cell = cell_of(df["cents"].to_numpy())
        d = df.assign(cell=cell).sort_values(
            ["cell", "cents", "k"], kind="stable")
        local = d.groupby("cell", sort=False).cumcount().to_numpy()
        rank = offsets[d["cell"].to_numpy()] + local
        decile = rank * 10 // n_total
        g = pd.DataFrame({"decile": decile.astype("int64"),
                          "cents": d["cents"].to_numpy()})
        out = g.groupby("decile", sort=False, as_index=False).agg(
            n_customers=("cents", "size"), revenue_cents=("cents", "sum"))
        for c in ("n_customers", "revenue_cents"):
            out[c] = out[c].astype("int64")
        return out

    partials = hash_partitioned_apply(cust.map_batches(
        lambda df: df.assign(cell=cell_of(df["cents"].to_numpy())),
        batch_format="pandas"), ["cell"], rank_kernel)
    return hash_partitioned_agg(
        partials, ["decile"],
        lambda df: df.groupby("decile", sort=False, as_index=False).agg(
            n_customers=("n_customers", "sum"),
            revenue_cents=("revenue_cents", "sum")))


def sql_decile_report() -> str:
    return """
WITH c AS (
  SELECT o_custkey AS k,
         CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
              AS BIGINT) AS cents
  FROM orders
  WHERE o_custkey IS NOT NULL AND o_totalprice IS NOT NULL
  GROUP BY 1
), r AS (
  SELECT k, cents,
         row_number() OVER (ORDER BY cents, k) - 1 AS rnk,
         count(*) OVER () AS n
  FROM c
)
SELECT CAST(rnk * 10 // n AS BIGINT) AS decile,
       CAST(count(*) AS BIGINT) AS n_customers,
       CAST(sum(cents) AS BIGINT) AS revenue_cents
FROM r GROUP BY 1
"""
