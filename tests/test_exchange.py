"""The exchanges (kgx.stages.exchange).

The hash exchange — one key tagger behind ``hash_partitioned_apply`` and
``hash_partitioned_agg`` — must keep keys disjoint: every key value lands
wholly in one partition, whatever format (Arrow / pandas) or dtype its
blocks have, so a per-partition group-by returns each key exactly once.
Its driver route (a small input: the kernel runs once over all rows) must
return the same rows; the ``each_route`` fixture runs a test on both.

The all-to-one finish — ``finish`` and ``top_k`` — must see every row
once on the driver, whatever the block layout, zero rows included."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from kgx.stages import exchange as X

FORMATS = ["pandas", "pyarrow"]


def _sum_kernel(keys: list[str], fmt: str):
    """Group-by-sum of ``v`` over ``keys`` (null keys kept as a group)."""
    if fmt == "pyarrow":
        def k(t: pa.Table) -> pa.Table:
            return t.group_by(keys).aggregate([("v", "sum")]).rename_columns(
                keys + ["v"])
    else:
        def k(df: pd.DataFrame) -> pd.DataFrame:
            return df.groupby(keys, dropna=False, as_index=False, sort=False
                              ).agg(v=("v", "sum"))
    return k


def _run(ds, mode: str, keys: list[str], fmt: str) -> pd.DataFrame:
    kernel = _sum_kernel(keys, fmt)
    fn = X.hash_partitioned_agg if mode == "agg" else X.hash_partitioned_apply
    # pandas is the default kernel_format: leave it implicit so the pandas
    # cases exercise the default call
    kw = {} if fmt == "pandas" else {"kernel_format": fmt}
    out = fn(ds, keys, kernel, **kw)
    return out.to_pandas()


@pytest.mark.parametrize("P", [16, 64])
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("mode", ["agg", "apply"])
def test_int_key_not_split_by_null_in_another_block(ray_session, each_route,
                                                    monkeypatch, mode, fmt, P):
    """Blocks k=[5,6] and k=[5,null]: pandas widens the second block's k to
    float64, which must not move key 5 to another partition, whatever the
    partition count."""
    import ray.data as rd

    monkeypatch.setattr(X, "_default_partitions", lambda: P)
    blocks = [
        pa.table({"k": pa.array([5, 6], pa.int64()), "v": [1, 10]}),
        pa.table({"k": pa.array([5, None], pa.int64()), "v": [2, 100]}),
    ]
    for got in each_route(
            lambda: _run(rd.from_arrow(blocks), mode, ["k"], fmt)):
        live = got[got["k"].notna()]
        assert sorted(live["k"].astype(int)) == [5, 6]
        assert dict(zip(live["k"].astype(int), live["v"])) == {5: 3, 6: 10}
        assert got.loc[got["k"].isna(), "v"].tolist() == [100]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("mode", ["agg", "apply"])
def test_two_keys_string_and_int(ray_session, each_route, mode, fmt):
    import ray.data as rd

    blocks = [
        pa.table({"s": ["a", "a", "b"], "k": pa.array([1, 2, 1], pa.int64()),
                  "v": [1, 2, 3]}),
        pa.table({"s": ["a", "b", "b"], "k": pa.array([1, 1, None], pa.int64()),
                  "v": [10, 20, 30]}),
    ]
    for got in each_route(
            lambda: _run(rd.from_arrow(blocks), mode, ["s", "k"], fmt)):
        live = got[got["k"].notna()]
        assert {(s, int(k)): v
                for s, k, v in zip(live["s"], live["k"], live["v"])} \
            == {("a", 1): 11, ("a", 2): 2, ("b", 1): 23}
        assert got.loc[got["k"].isna(), "v"].tolist() == [30]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("mode", ["agg", "apply"])
def test_pandas_upstream_blocks(ray_session, each_route, mode, fmt):
    """Pandas producers: the same key values arrive as int64, float64 with
    NaN (a null-holding batch) and object blocks in ONE exchange."""
    import ray.data as rd

    def run():
        ds = rd.from_pandas([
            pd.DataFrame({"k": np.array([7, 8], np.int64), "v": [1, 2]}),
            pd.DataFrame({"k": [7.0, np.nan], "v": [4, 8]}),
            pd.DataFrame({"k": pd.Series([8, 7], dtype=object),
                          "v": [16, 32]}),
        ])
        return _run(ds, mode, ["k"], fmt)

    for got in each_route(run):
        live = got[got["k"].notna()]
        assert dict(zip(live["k"].astype(int), live["v"])) == {7: 37, 8: 18}
        assert len(live) == 2


def test_null_keys_share_one_partition_and_kernel_sees_values(ray_session,
                                                              each_route):
    import ray.data as rd

    blocks = [
        pa.table({"k": pa.array([None, 1, None], pa.int64()),
                  "s": pa.array([None, "x", "y"], pa.string()),
                  "v": [1, 2, 3]}),
        pa.table({"k": pa.array([None, 2], pa.int64()),
                  "s": pa.array(["y", None], pa.string()),
                  "v": [4, 5]}),
    ]

    def kernel(t: pa.Table) -> pa.Table:
        null = t.filter(t["k"].is_null())
        return pa.table({"n_null": [null.num_rows],
                         "null_vals": [sorted(null["v"].to_pylist())],
                         "vals": [sorted(t["v"].to_pylist())]})

    for keys in (["k"], ["k", "s"]):
        for out in each_route(lambda: X.hash_partitioned_apply(
                rd.from_arrow(blocks), keys, kernel,
                kernel_format="pyarrow").to_pandas()):
            with_null = out[out["n_null"] > 0]
            if keys == ["k"]:
                assert len(with_null) == 1
                assert list(with_null["null_vals"].iloc[0]) == [1, 3, 4]
            assert with_null["n_null"].sum() == 3
            assert sorted(v for vs in out["vals"] for v in vs) \
                == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("mode", ["agg", "apply"])
@pytest.mark.parametrize("empty", ["some_blocks", "all_blocks"])
def test_kernels_never_see_zero_rows(ray_session, each_route, mode, fmt,
                                     empty):
    """A kernel or combine never runs on zero rows, so it needs no
    typed-empty guard: Ray passes empty blocks through ``map_batches``
    without calling the function, ``map_groups`` calls it only on
    non-empty groups, and the driver route runs only on at least one row
    (a zero-row input takes the exchange route on any threshold)."""
    import pyarrow.compute as pc
    import ray.data as rd

    blocks = [pa.table({"k": pa.array([i % 3, 5], pa.int64()),
                        "v": pa.array([i, 100], pa.int64())})
              for i in range(6)]

    def thin(t: pa.Table):
        if empty == "all_blocks" or t["v"][0].as_py() % 2:
            t = t.filter(pc.less(t["v"], 0))
        return t if fmt == "pyarrow" else t.to_pandas()

    ds = rd.from_arrow(blocks).map_batches(thin, batch_format="pyarrow")
    inner = _sum_kernel(["k"], fmt)

    def kernel(b):
        if not len(b):
            raise AssertionError("kernel called on zero rows")
        return inner(b)

    fn = X.hash_partitioned_agg if mode == "agg" else X.hash_partitioned_apply
    kept = [t for t in blocks if t["v"][0].as_py() % 2 == 0]
    want = pa.concat_tables(kept).to_pandas().groupby("k")["v"].sum()
    for got in each_route(lambda: X.collect_arrow(
            fn(ds, ["k"], kernel, kernel_format=fmt)).to_pandas()):
        if empty == "all_blocks":
            assert len(got) == 0
        else:
            assert dict(zip(got["k"], got["v"])) == want.to_dict()


def test_tag_depends_only_on_key_values():
    """Same values, six representations: identical part_id for every
    non-null row; the format of the batch is preserved."""
    P = 97
    vals = [3, 5, 2**30, 0, 12345]
    reps = [
        pa.table({"k": pa.array(vals, pa.int64())}),
        pa.table({"k": pa.array(vals + [None], pa.int64())}),
        pa.table({"k": pa.array(vals, pa.int32())}),
        pd.DataFrame({"k": np.array(vals, np.float64)}),
        pd.DataFrame({"k": pd.array(vals + [None], dtype="Int64")}),
        pd.DataFrame({"k": pd.Series(vals + [None], dtype=object)}),
    ]
    parts = []
    for r in reps:
        tagged = X._tag(r, ["k"], P)
        assert type(tagged) is type(r)
        col = tagged["part_id"]
        parts.append(list(col.to_pylist() if isinstance(col, pa.ChunkedArray)
                          else col.tolist())[: len(vals)])
    assert all(p == parts[0] for p in parts)
    assert len(set(parts[0])) > 1  # the hash spreads distinct keys

    strs = [pa.table({"s": ["a", "b", None]}),
            pd.DataFrame({"s": ["a", "b", None]}),
            pd.DataFrame({"s": pd.Series(["a", "b", None], dtype="string")})]
    sp = [list(np.asarray(X._tag(r, ["s"], P)["part_id"])) for r in strs]
    assert all(p == sp[0] for p in sp)


def _keyed_blocks(n_blocks: int = 6, rows: int = 30) -> list[pa.Table]:
    """Int key ``k`` and string key ``s``, both with nulls, over blocks."""
    rng = np.random.default_rng(5)
    out = []
    for _ in range(n_blocks):
        k = rng.integers(0, 8, rows).astype(object)
        k[rng.random(rows) < 0.15] = None
        s = rng.choice(np.array(["a", "b", "c"], dtype=object), rows)
        s[rng.random(rows) < 0.15] = None
        out.append(pa.table({"k": pa.array(list(k), pa.int64()),
                             "s": pa.array(list(s), pa.string()),
                             "v": rng.integers(0, 100, rows)}))
    return out


def _canon(df: pd.DataFrame, keys: list[str]) -> list:
    """Rows as sorted tuples, nulls as None and numbers as float."""
    def cell(x):
        if pd.isna(x):
            return None
        return float(x) if isinstance(x, (int, float, np.number)) else x

    return sorted((tuple(cell(x) for x in r)
                   for r in df[keys + ["v"]].itertuples(index=False)),
                  key=repr)


# int key first: pyarrow 16's Table.group_by splits a null-holding group
# into several output rows when a string key precedes an int key
@pytest.mark.parametrize("keys", [["k"], ["k", "s"]])
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("mode", ["agg", "apply"])
def test_both_routes_return_equal_rows(ray_session, each_route, mode, fmt,
                                       keys):
    """The driver route (one kernel call over all rows) and the exchange
    route return the reference group-by rows, null keys included."""
    import ray.data as rd

    blocks = _keyed_blocks()
    ref = pa.concat_tables(blocks).to_pandas().groupby(
        keys, dropna=False, as_index=False).agg(v=("v", "sum"))
    driver, exchange = each_route(
        lambda: _run(rd.from_arrow(blocks), mode, keys, fmt))
    assert _canon(driver, keys) == _canon(exchange, keys) == _canon(ref, keys)


@pytest.mark.parametrize("producer", FORMATS)
def test_arrow_kernel_gets_one_chunk_per_column(ray_session, each_route,
                                                producer):
    """Many input blocks still reach an Arrow kernel as ONE chunk per
    column: a per-key ``take`` on a many-chunk table re-concatenates every
    chunk on each call."""
    import ray.data as rd

    blocks = _keyed_blocks(n_blocks=12, rows=10)

    def kernel(t: pa.Table) -> pa.Table:  # reports what it was given
        return pa.table({"rows": [t.num_rows], "chunks": [
            max(t[c].num_chunks for c in t.column_names)]})

    def run():
        ds = rd.from_arrow(blocks) if producer == "pyarrow" else \
            rd.from_pandas([t.to_pandas() for t in blocks])
        return X.hash_partitioned_apply(ds, ["k"], kernel,
                                        kernel_format="pyarrow").to_pandas()

    driver, exchange = each_route(run)
    assert driver["rows"].tolist() == [120]
    assert exchange["rows"].sum() == 120
    assert set(driver["chunks"]) == set(exchange["chunks"]) == {1}


def test_pandas_kernel_gets_pandas_blocks_unchanged(ray_session, each_route):
    """A pandas producer's object column that Arrow cannot hold (ints and
    strings mixed) reaches a pandas kernel as the same Python objects."""
    import ray.data as rd

    def kernel(df: pd.DataFrame) -> pd.DataFrame:  # reports what it saw
        return pd.DataFrame({"k": df["k"], "x": [
            f"{type(x).__name__}:{x}" for x in df["x"]]})

    def run():
        ds = rd.from_pandas([
            pd.DataFrame({"k": [1, 2], "x": pd.Series([1, "a"], dtype=object)}),
            pd.DataFrame({"k": [1, 3], "x": pd.Series(["b", 2], dtype=object)}),
        ])
        out = X.hash_partitioned_apply(ds, ["k"], kernel).to_pandas()
        return sorted(zip(out["k"].astype(int), out["x"]))

    want = [(1, "int:1"), (1, "str:b"), (2, "str:a"), (3, "int:2")]
    assert each_route(run) == [want, want]


def test_route_is_chosen_by_bytes_not_rows(ray_session, monkeypatch):
    """Two inputs with the same rows and keys: the narrow one fits under
    the byte bound and runs one driver call; the wide one (a 64 x int64
    list per row, like a MinHash signature) does not and takes the
    exchange, whatever its row count."""
    import ray.data as rd

    n, W = 400, 64
    k = np.arange(n, dtype=np.int64) % 40
    narrow = pa.table({"k": k, "v": np.ones(n, np.int64)})
    wide = narrow.append_column("pay", pa.ListArray.from_arrays(
        pa.array(np.arange(0, n * W + 1, W, dtype=np.int32)),
        pa.array(np.zeros(n * W, np.int64))))
    assert narrow.nbytes < 64 << 10 < wide.nbytes

    def kernel(t: pa.Table) -> pa.Table:  # one row per call
        return pa.table({"rows": [t.num_rows]})

    monkeypatch.setattr(X, "DRIVER_BYTES", 64 << 10)
    calls = {}
    for name, t in [("narrow", narrow), ("wide", wide)]:
        out = X.hash_partitioned_apply(rd.from_arrow(t).repartition(4),
                                       ["k"], kernel,
                                       kernel_format="pyarrow")
        calls[name] = sorted(out.to_pandas()["rows"])
    assert calls["narrow"] == [n]
    assert len(calls["wide"]) > 1 and sum(calls["wide"]) == n


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("pinned", [True, False], ids=["pinned", "lazy"])
def test_combine_then_kernel(ray_session, each_route, monkeypatch, fmt,
                             pinned):
    """``combine=`` shrinks the rows before the kernel.  A small pinned
    input runs it ONCE over all rows and the kernel once over its output,
    on the driver, with no Ray Data execution; a lazy one runs it per
    block in the workers, then takes the route.  Same rows on every
    path."""
    import ray.data as rd
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    blocks = _keyed_blocks()
    ref = pa.concat_tables(blocks).to_pandas().groupby(
        ["k"], dropna=False, as_index=False).agg(v=("v", "sum"))
    combine, combined = _counting(_sum_kernel(["k"], fmt))
    kernel, kerneled = _counting(_sum_kernel(["k"], fmt))
    runs = []
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        runs.append(1)
        return execute(self, *args, **kwargs)

    def run():
        ds = rd.from_arrow(blocks)
        if not pinned:
            ds = ds.map_batches(lambda t: t, batch_format="pyarrow")
        combined.clear(), kerneled.clear(), runs.clear()
        monkeypatch.setattr(StreamingExecutor, "execute", counted)
        out = X.hash_partitioned_apply(ds, ["k"], kernel, kernel_format=fmt,
                                       combine=combine)
        monkeypatch.setattr(StreamingExecutor, "execute", execute)
        return (_canon(X.collect_arrow(out).to_pandas(), ["k"]),
                list(combined), list(kerneled), len(runs))

    # calls made in Ray workers (the per-block combiner, the exchange
    # route's kernel) are not seen here; the driver route's are
    (driver, d_comb, d_kern, d_runs), (exchange, *_) = each_route(run)
    assert driver == exchange == _canon(ref, ["k"])
    if pinned:
        assert (d_comb, d_kern, d_runs) == ([180], [len(ref)], 0)
    else:
        assert not d_comb and len(d_kern) == 1 and d_runs


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("pinned", [True, False], ids=["pinned", "lazy"])
def test_combine_to_zero_rows_calls_no_kernel(ray_session, each_route, fmt,
                                              pinned):
    """A combiner that leaves zero rows: the kernel is not called, and
    every route returns the same column-less empty."""
    import pyarrow.compute as pc
    import ray.data as rd

    def combine(b):
        if fmt == "pyarrow":
            return b.filter(pc.less(b["v"], 0))
        return b[b["v"] < 0]

    def kernel(b):
        raise AssertionError("kernel called on a combiner's zero rows")

    def run():
        ds = rd.from_arrow(_keyed_blocks())
        if not pinned:
            ds = ds.map_batches(lambda t: t, batch_format="pyarrow")
        out = X.hash_partitioned_apply(ds, ["k"], kernel, kernel_format=fmt,
                                       combine=combine)
        return out.count(), X.collect_arrow(out).num_columns

    assert each_route(run) == [(0, 0), (0, 0)]


@pytest.mark.parametrize("combined", [False, True], ids=["raw", "combine"])
def test_partition_count_is_the_cpu_count(ray_session, monkeypatch,
                                          combined):
    """The exchange route makes ``_default_partitions()`` partitions (the
    CPU count), with a combiner or without: over many keys the kernel runs
    once per partition, each call seeing its keys' rows."""
    import ray.data as rd

    n, P = 2000, 5
    monkeypatch.setattr(X, "DRIVER_BYTES", -1)
    monkeypatch.setattr(X, "_default_partitions", lambda: P)
    t = pa.table({"k": np.arange(n, dtype=np.int64),
                  "v": np.ones(n, np.int64)})

    def kernel(b: pa.Table) -> pa.Table:  # one row per call
        return pa.table({"rows": [b.num_rows]})

    kw = {"combine": lambda b: b} if combined else {}
    out = X.hash_partitioned_apply(rd.from_arrow(t).repartition(4), ["k"],
                                   kernel, kernel_format="pyarrow", **kw)
    rows = X.collect_arrow(out)["rows"].to_pylist()
    assert len(rows) == P and sum(rows) == n


# ---------------------------------------------------------------------------
# all-to-one finish
# ---------------------------------------------------------------------------


def _blocks(n_blocks: int, rows: int, seed: int) -> list[pa.Table]:
    rng = np.random.default_rng(seed)
    return [pa.table({"id": np.arange(b * rows, (b + 1) * rows, dtype=np.int64),
                      "score": rng.integers(0, 5, rows),
                      "gram": [f"g{i % 7}" for i in range(rows)]})
            for b in range(n_blocks)]


def _counting(fn):
    calls = []

    def wrapped(batch):
        calls.append(len(batch))
        return fn(batch)

    return wrapped, calls


def test_collect_runs_the_plan_once(ray_session, tmp_path):
    """One execution per collect, pandas blocks among Arrow ones converted:
    ``ray.get(ds.to_arrow_refs())`` ran the plan again to fetch the schema
    and passed the pandas blocks through as DataFrames."""
    import ray.data as rd

    log = tmp_path / "calls"

    def mixed(t: pa.Table):
        with open(log, "a") as fh:
            fh.write("x")
        return t.to_pandas() if t["id"][0].as_py() // 4 % 2 else t

    blocks = _blocks(8, 4, seed=5)
    got = X.collect_arrow(rd.from_arrow(blocks).map_batches(
        mixed, batch_format="pyarrow"))
    assert len(log.read_text()) == 8
    assert got.sort_by("id").equals(pa.concat_tables(blocks))


@pytest.mark.parametrize("fmt", FORMATS)
def test_finish_runs_once_over_every_block(ray_session, fmt):
    import ray.data as rd

    blocks = _blocks(9, 11, seed=1)
    ds = rd.from_arrow(blocks)
    assert ds.num_blocks() >= 8

    def total(b):
        v = int(np.asarray(b["score"]).sum())
        return pa.table({"n": [len(b)], "s": [v]}) if fmt == "pyarrow" \
            else pd.DataFrame({"n": [len(b)], "s": [v]})

    fn, calls = _counting(total)
    got = X.finish(ds, fn, fmt).to_pandas()
    assert calls == [99]
    want = sum(int(np.asarray(t["score"]).sum()) for t in blocks)
    assert got.to_dict("list") == {"n": [99], "s": [want]}


@pytest.mark.parametrize("schema", ["given", "from_blocks"])
def test_finish_runs_once_over_zero_rows(ray_session, schema):
    """A fold over nothing still returns its typed total row: the
    one-partition ``repartition`` + ``map_batches`` tail never called
    ``fn`` on zero rows and returned a column-less Dataset."""
    import pyarrow.compute as pc
    import ray.data as rd

    ds = rd.from_arrow(_blocks(8, 5, seed=2)).map_batches(
        lambda t: t.filter(pc.greater(t["score"], 100)),
        batch_format="pyarrow")

    def total(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n": pd.Series([len(df)], dtype="int64"),
                             "s": pd.Series([df["score"].sum()],
                                            dtype="int64")})

    fn, calls = _counting(total)
    kw = {"schema": pa.schema([("score", pa.int64())])} \
        if schema == "given" else {}
    got = X.finish(ds, fn, **kw).to_pandas()
    assert calls == [0]
    assert got.to_dict("list") == {"n": [0], "s": [0]}
    assert got.dtypes.astype(str).tolist() == ["int64", "int64"]


@pytest.mark.parametrize("by,desc", [
    (["score", "id"], [True, False]),
    (["score", "gram", "id"], [False, True, True]),
    (["gram", "score", "id"], [True, True, False]),
])
@pytest.mark.parametrize("k", [1, 7, 40, 1000])
def test_top_k_equals_pandas_sort_head(ray_session, by, desc, k):
    """Scores 0-4 and grams g0-g6 repeat across 12 blocks, so the k-th row
    of ``by`` order is decided by the trailing key."""
    import ray.data as rd

    blocks = _blocks(12, 23, seed=3)
    got = X.top_k(rd.from_arrow(blocks), by, desc, k)
    want = pa.concat_tables(blocks).to_pandas().sort_values(
        by, ascending=[not d for d in desc]).head(k).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)


def test_top_k_zero_rows_keeps_schema(ray_session):
    import pyarrow.compute as pc
    import ray.data as rd

    ds = rd.from_arrow(_blocks(8, 3, seed=4)).map_batches(
        lambda t: t.filter(pc.greater(t["score"], 100)),
        batch_format="pyarrow")
    schema = pa.schema([("id", pa.int64()), ("score", pa.int64()),
                        ("gram", pa.string())])
    got = X.top_k(ds, ["score", "id"], [True, False], 5, schema)
    assert len(got) == 0 and list(got.columns) == ["id", "score", "gram"]


def _ray_get_calls(src: str):
    """The argument text of every ``ray.get(...)`` call (any alias ending
    in ``ray``), parentheses balanced."""
    for m in re.finditer(r"ray\.get\(", src):
        depth, i = 1, m.end()
        while depth and i < len(src):
            depth += {"(": 1, ")": -1}.get(src[i], 0)
            i += 1
        yield src[m.end():i]


def test_small_results_finish_only_through_the_exchange_module():
    """No one-partition repartition anywhere in the package, and no
    hand-rolled ``ray.get(ds.to_arrow_refs())`` collect outside
    exchange.py: small results finish through ``finish`` / ``top_k`` /
    ``collect_arrow``."""
    root = Path(__file__).resolve().parent.parent / "kgx"
    one_part = re.compile(r"repartition\(\s*(num_blocks\s*=\s*)?1\s*[,)]")
    bad = []
    for path in sorted(root.rglob("*.py")):
        src = path.read_text()
        rel = path.relative_to(root.parent).as_posix()
        bad += [f"{rel}: repartition(1)" for _ in one_part.finditer(src)]
        if rel != "kgx/stages/exchange.py":
            bad += [f"{rel}: ray.get(...to_arrow_refs())"
                    for arg in _ray_get_calls(src) if "to_arrow_refs" in arg]
    assert bad == []


# ---------------------------------------------------------------------------
# lookup_join: one key lookup, two routes, one semantics
# ---------------------------------------------------------------------------


def _fact_blocks(fmt: str):
    """Fact rows over keys 0-9 with nulls, in three blocks."""
    import ray.data as rd

    rng = np.random.default_rng(11)
    blocks = []
    for b in range(3):
        k = rng.integers(0, 10, 20).astype(object)
        k[rng.random(20) < 0.2] = None
        blocks.append(pa.table({"k": pa.array(list(k), pa.int64()),
                                "v": pa.array(np.arange(20) + 100 * b)}))
    if fmt == "pandas":
        return rd.from_pandas([t.to_pandas() for t in blocks]), blocks
    return rd.from_arrow(blocks), blocks


def _dim(keys, dup=False):
    import ray.data as rd

    keys = list(keys) + ([keys[0]] if dup else []) + [None]
    return rd.from_arrow(pa.table({
        "dk": pa.array(keys, pa.int64()),
        "name": [None if k is None else f"n{k}" for k in keys]}))


def _join_ref(blocks, keys, how):
    f = pa.concat_tables(blocks).to_pandas()
    keyset = set(keys)
    hit = f["k"].map(lambda x: x == x and int(x) in keyset).astype(bool)
    if how == "anti":
        return f[~hit]
    f = f[hit].copy()
    if how == "inner":
        f["name"] = [f"n{int(x)}" for x in f["k"]]
    return f


def _rows(df: pd.DataFrame) -> list:
    cols = sorted(df.columns)
    return sorted(map(tuple, df[cols].astype(object).where(
        df[cols].notna(), None).to_numpy().tolist()), key=repr)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("how", ["inner", "semi", "anti"])
def test_lookup_join_routes_match_reference(ray_session, each_route, how,
                                            fmt):
    """Null fact keys never match (anti keeps them), a null dimension key
    is ignored, and both routes return the reference rows."""
    keys = [1, 3, 4, 8, 11]
    cols = ["name"] if how == "inner" else []

    def run():
        fact, _ = _fact_blocks(fmt)
        return X.collect_arrow(X.lookup_join(
            fact, "k", _dim(keys), "dk", cols, how)).to_pandas()

    _, blocks = _fact_blocks(fmt)
    want = _rows(_join_ref(blocks, keys, how))
    bc, ex = each_route(run)
    assert _rows(bc) == want
    assert _rows(ex) == want
    if how == "anti":
        assert bc["k"].isna().sum() > 0


@pytest.mark.parametrize("how", ["inner", "semi", "anti"])
def test_lookup_join_then_folds_identically(ray_session, each_route, how):
    """``then`` runs per batch on one route and per partition on the other;
    merged partials agree, and it never sees zero rows."""
    cols = ["name"] if how == "inner" else []

    def then(t: pa.Table) -> pd.DataFrame:
        assert t.num_rows
        return pd.DataFrame({"n": [t.num_rows],
                             "s": [int(np.nansum(t["v"].to_numpy(
                                 zero_copy_only=False)))]})

    def run():
        fact, _ = _fact_blocks("pyarrow")
        out = X.lookup_join(fact.repartition(6), "k", _dim([2, 5, 7]), "dk",
                            cols, how, then)
        t = X.collect_arrow(out).to_pandas()
        return int(t["n"].sum()), int(t["s"].sum())

    _, blocks = _fact_blocks("pyarrow")
    ref = _join_ref(blocks, [2, 5, 7], how)
    assert each_route(run) == [(len(ref), int(ref["v"].sum()))] * 2


@pytest.mark.parametrize("how", ["inner", "semi", "anti"])
def test_lookup_join_empty_sides(ray_session, each_route, how):
    import pyarrow.compute as pc
    import ray.data as rd

    cols = ["name"] if how == "inner" else []
    _, blocks = _fact_blocks("pyarrow")
    n_all = sum(t.num_rows for t in blocks)

    def empty_dim():
        fact, _ = _fact_blocks("pyarrow")
        dim = _dim([1]).map_batches(lambda t: t.slice(0, 0),
                                    batch_format="pyarrow")
        return X.collect_arrow(X.lookup_join(
            fact, "k", dim, "dk", cols, how)).num_rows

    def empty_fact():
        fact = rd.from_arrow(blocks).map_batches(
            lambda t: t.filter(pc.less(t["v"], -1)), batch_format="pyarrow")
        return X.collect_arrow(X.lookup_join(
            fact, "k", _dim([1, 2]), "dk", cols, how)).num_rows

    assert each_route(empty_dim) == [n_all if how == "anti" else 0] * 2
    assert each_route(empty_fact) == [0, 0]


def test_lookup_join_duplicate_dim_key_raises(ray_session, each_route):
    """A duplicate dimension key under ``inner`` raises on both routes;
    ``semi`` accepts it."""

    def inner():
        fact, _ = _fact_blocks("pyarrow")
        with pytest.raises(ValueError, match="duplicate"):
            X.lookup_join(fact, "k", _dim([1, 2], dup=True), "dk",
                          ["name"]).materialize()
        return True

    def semi():
        fact, _ = _fact_blocks("pyarrow")
        return X.collect_arrow(X.lookup_join(
            fact, "k", _dim([1, 2], dup=True), "dk", how="semi")).num_rows

    assert each_route(inner) == [True, True]
    _, blocks = _fact_blocks("pyarrow")
    assert each_route(semi) == [len(_join_ref(blocks, [1, 2], "semi"))] * 2


def test_one_lookup_join():
    """Key lookups go through ``lookup_join``: no per-operator broadcast
    threshold anywhere in the package (``DRIVER_BYTES`` is the one
    driver-vs-exchange bound), no native ``Dataset.join`` and no raw
    ``map_groups`` outside the exchange module, no partition-sizing or
    payload-resolve helper, and no hand-written sorted-array probe or
    kind-union helper left in the relational operators."""
    root = Path(__file__).resolve().parent.parent / "kgx"
    gate = re.compile(r"broadcast_limit|broadcast_deg_limit|BCAST_LIMIT"
                      r"|join_type=|def (_join_partitions|_parts_for_bytes"
                      r"|pairs_with_payloads)\(")
    gated = [f"{f.relative_to(root)}: {m.group()}"
             for f in sorted(root.rglob("*.py"))
             for m in gate.finditer(f.read_text())]
    assert not gated, f"per-operator join plan in {gated}"
    grouped = [str(f.relative_to(root)) for f in sorted(root.rglob("*.py"))
               if f.name != "exchange.py" and "map_groups(" in f.read_text()]
    assert not grouped, f"map_groups outside exchange.py in {grouped}"
    rel = (root / "pipelines" / "relational.py").read_text()
    helpers = re.findall(r"def (_lookup|_sorted_map|_ku)\(", rel)
    assert not helpers, f"relational.py defines {helpers}"
    assert ".clip(max=len(" not in rel, "hand-written probe in relational.py"


LAYOUT_KNOBS = {"num_partitions", "num_buckets", "edge_limit", "brute_limit"}


def layout_parameters(root: Path) -> list[str]:
    """Every parameter of a ``def`` under ``root`` named like a layout knob,
    as ``file:function(name)``.  ``pregel.py`` is skipped: its internal
    owner-split helpers take the P that ``partition_edges`` chose."""
    found = []
    for f in sorted(root.rglob("*.py")):
        if f.name == "pregel.py":
            continue
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
                found += [f"{f.relative_to(root)}:{node.name}({k})"
                          for k in sorted(names & LAYOUT_KNOBS)]
    return found


def test_layout_is_the_engines_decision():
    """No function in the package takes a partition count, a bucket count
    or a route limit: the exchange's P is ``_default_partitions()``,
    Pregel's is ``pregel.partition_edges``'s, bucket counts derive from P,
    and every exact driver-vs-distributed choice reads ``DRIVER_BYTES``."""
    found = layout_parameters(Path(__file__).resolve().parent.parent / "kgx")
    assert not found, f"layout parameters: {found}"


# ---------------------------------------------------------------------------
# Zero rows have one owner: what the operators' deleted guards rely on
# ---------------------------------------------------------------------------


def _thinned(fmt: str, empty: str):
    """Six two-row blocks in ``fmt``; odd blocks (or all) lose their rows."""
    import pyarrow.compute as pc
    import ray.data as rd

    blocks = [pa.table({"k": pa.array([i % 3, 5], pa.int64()),
                        "v": pa.array([i, 100], pa.int64())})
              for i in range(6)]

    def thin(t: pa.Table):
        if empty == "all_blocks" or t["v"][0].as_py() % 2:
            t = t.filter(pc.less(t["v"], 0))
        return t if fmt == "pyarrow" else t.to_pandas()

    return rd.from_arrow(blocks).map_batches(thin, batch_format="pyarrow")


@pytest.mark.parametrize("batch_size", [None, 1, 200_000])
@pytest.mark.parametrize("udf_format", FORMATS)
@pytest.mark.parametrize("fmt", FORMATS)
def test_map_batches_never_calls_udf_on_zero_rows(ray_session, fmt,
                                                  udf_format, batch_size):
    """Ray passes a zero-row block through a pandas or Arrow
    ``map_batches`` without calling the function, typed or column-less,
    alone or bundled with full blocks; so a UDF needs no guard on its own
    input."""
    import ray.data as rd

    def udf(b):
        if not len(b):
            raise AssertionError("map_batches UDF called on zero rows")
        return b

    for ds in (_thinned(fmt, "some_blocks"), _thinned(fmt, "all_blocks"),
               rd.from_pandas([pd.DataFrame(), pd.DataFrame({"k": [1]})]),
               rd.from_arrow([pa.table({}), pa.table({"k": [1]})])):
        out = ds.map_batches(udf, batch_format=udf_format,
                             batch_size=batch_size)
        assert out.count() == ds.count()


@pytest.mark.parametrize("how", ["inner", "semi", "anti"])
def test_lookup_join_then_never_runs_on_zero_rows(ray_session, each_route,
                                                  how):
    """``then`` is not called where a batch or partition joins to no row
    (here: fact blocks with no rows, and fact rows that all miss or all
    hit the dimension), on either route."""
    import pyarrow.compute as pc
    import ray.data as rd

    keys = [0, 1] if how == "anti" else [7]
    fact = rd.from_arrow(
        [pa.table({"k": pa.array([7, 7], pa.int64()), "v": [1, 2]}),
         pa.table({"k": pa.array([0, 1], pa.int64()), "v": [3, 4]})]
    ).map_batches(lambda t: t.filter(pc.greater(t["v"], 2)) if
                  t["v"][0].as_py() == 1 else t, batch_format="pyarrow")
    cols = ["name"] if how == "inner" else []

    def then(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            raise AssertionError("then called on zero rows")
        return pa.table({"n": [t.num_rows]})

    def run():
        out = X.lookup_join(fact, "k", _dim(keys), "dk", cols, how, then)
        return int(pc.sum(X.collect_arrow(out, pa.schema(
            [("n", pa.int64())]))["n"]).as_py() or 0)

    assert each_route(run) == [0, 0]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("mode", ["agg", "apply"])
@pytest.mark.parametrize("empty", ["some_blocks", "all_blocks"])
def test_column_less_partials_equal_typed_ones(ray_session, each_route,
                                               mode, fmt, empty):
    """A partial that returns ``pd.DataFrame()`` / ``pa.table({})`` where
    it has no rows gives the exchange result of one that returns a typed
    empty, on both routes and in both formats (all-empty: no rows,
    whatever the partials' types)."""
    import pyarrow.compute as pc

    def partial(typed: bool):
        def f(t: pa.Table):
            t = t.filter(pc.greater_equal(t["v"], 0))
            if t.num_rows and t["v"][0].as_py() % 2 == 0:
                out = t
            elif typed:
                out = t.slice(0, 0)
            else:
                out = pa.table({})
            return out if fmt == "pyarrow" else out.to_pandas()
        return f

    fn = X.hash_partitioned_agg if mode == "agg" else X.hash_partitioned_apply
    kw = {"kernel_format": fmt}

    def run(typed: bool):
        ds = _thinned(fmt, empty).map_batches(partial(typed),
                                              batch_format="pyarrow")
        out = fn(ds, ["k"], _sum_kernel(["k"], fmt), **kw)
        df = X.collect_arrow(out).to_pandas()
        return sorted(zip(df["k"], df["v"])) if len(df) else []

    typed, column_less = (each_route(lambda: run(t)) for t in (True, False))
    assert column_less == typed
    assert (typed[0] == []) == (empty == "all_blocks")


@pytest.mark.parametrize("fmt", FORMATS)
def test_pinned_zero_row_blocks_reach_no_operator(ray_session, each_route,
                                                  fmt):
    """A pinned input's zero-row blocks are dropped before tagging (on the
    exchange route the tagged input's too, before the sort), so no operator
    logs Ray's "RefBundle with a different schema" warning, on either
    route; the result is unchanged."""
    import logging

    class Count(logging.Handler):
        n = 0

        def emit(self, record):
            Count.n += "different schema" in record.getMessage()

    ds = _thinned(fmt, "some_blocks").materialize()

    def run():
        out = X.hash_partitioned_apply(ds, ["k"], _sum_kernel(["k"], fmt),
                                       kernel_format=fmt)
        df = X.collect_arrow(out).to_pandas()
        return sorted(zip(df["k"].tolist(), df["v"].tolist()))

    log = logging.getLogger("ray.data")
    handler = Count()
    log.addHandler(handler)
    try:
        assert each_route(run) == [[(0, 0), (1, 4), (2, 2), (5, 300)]] * 2
    finally:
        log.removeHandler(handler)
    assert Count.n == 0


def _no_rows_test(test: "ast.expr", p: str) -> bool:
    """``test`` asks whether ``p`` has no rows: ``not len(p)``,
    ``len(p) == 0``, ``not p.num_rows``, ``p.num_rows == 0``, ``p.empty``
    (also inside an ``or``), or, as an ``x if test else y`` lambda body,
    ``len(p)`` / ``p.num_rows`` alone."""
    import ast

    def rows(n):
        return (isinstance(n, ast.Call) and getattr(n.func, "id", "") == "len"
                and len(n.args) == 1 and getattr(n.args[0], "id", "") == p) \
            or (isinstance(n, ast.Attribute) and n.attr == "num_rows"
                and getattr(n.value, "id", "") == p)

    for n in ast.walk(test):
        if n is test and rows(n):
            return True
        if isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.Not) \
                and rows(n.operand):
            return True
        if isinstance(n, ast.Compare) and rows(n.left) \
                and isinstance(n.ops[0], ast.Eq) \
                and getattr(n.comparators[0], "value", None) == 0:
            return True
        if isinstance(n, ast.Attribute) and n.attr == "empty" \
                and getattr(n.value, "id", "") == p:
            return True
    return False


def _guard_line(fn) -> int | None:
    """Line of a no-rows guard on ``fn``'s first parameter that runs
    before the parameter is rebound, else None."""
    import ast

    args = [a.arg for a in fn.args.args if a.arg != "self"]
    if not args:
        return None
    p = args[0]
    if isinstance(fn, ast.Lambda):
        b = fn.body
        return fn.lineno if isinstance(b, ast.IfExp) \
            and _no_rows_test(b.test, p) else None
    for st in fn.body:
        if isinstance(st, ast.If) and _no_rows_test(st.test, p):
            return st.lineno
        if any(isinstance(t, ast.Name) and t.id == p and
               isinstance(t.ctx, ast.Store) for t in ast.walk(st)):
            return None
    return None


def _udfs(tree):
    """(call line, function node) of every function passed to
    ``map_batches``, as an exchange ``kernel``/``combine`` or as
    ``lookup_join``'s ``then=``: a lambda, a def in an enclosing scope,
    ``partial(f, ...)``, a factory's returned functions or a class's
    ``__call__``."""
    import ast

    parent = {c: n for n in ast.walk(tree) for c in ast.iter_child_nodes(n)}

    def scopes(n):
        while n in parent:
            n = parent[n]
            if isinstance(n, (ast.FunctionDef, ast.ClassDef, ast.Module)):
                yield n

    def defs(name, at):
        for s in scopes(at):
            hits = [d for d in ast.walk(s) if getattr(d, "name", None) == name
                    and isinstance(d, (ast.FunctionDef, ast.ClassDef))]
            if hits:
                return [d for d in hits if next(scopes(d)) is s] or hits[:1]
        return []

    def resolve(a, at):
        if isinstance(a, ast.Lambda):
            return [a]
        if isinstance(a, ast.Name):
            return [d for d in defs(a.id, at)
                    if isinstance(d, ast.FunctionDef)]
        if isinstance(a, ast.Call):
            name = getattr(a.func, "id", getattr(a.func, "attr", None))
            if name == "partial" and a.args:
                return resolve(a.args[0], at)
            out = []
            for d in defs(name, at):
                if isinstance(d, ast.ClassDef):
                    out += [m for m in d.body if getattr(m, "name", "")
                            == "__call__"]
                else:
                    out += [f for r in ast.walk(d) if isinstance(r, ast.Return)
                            and r.value is not None
                            for f in resolve(r.value, r)]
            return out
        return []

    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        name = getattr(call.func, "attr", getattr(call.func, "id", None))
        passed = []
        if name == "map_batches" and call.args:
            passed.append(call.args[0])
        if name in ("hash_partitioned_apply", "hash_partitioned_agg",
                    "lookup_join"):
            if name != "lookup_join" and len(call.args) > 2:
                passed.append(call.args[2])
            passed += [k.value for k in call.keywords
                       if k.arg in ("kernel", "combine", "then")]
        for a in passed:
            for fn in resolve(a, call):
                yield call.lineno, fn


def test_udfs_carry_no_zero_row_guard():
    """No function that the engine only ever calls on rows — a
    ``map_batches`` UDF, an exchange ``kernel``/``combine``, a
    ``lookup_join`` ``then=`` — guards against zero rows on its own input
    (see "Zero rows" in the exchange module docstring).  A ``finish`` fn,
    which runs on zero rows by contract, is not such a function."""
    import ast

    root = Path(__file__).resolve().parent.parent / "kgx"
    bad, n = [], 0
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        seen = set()
        for call_line, fn in _udfs(tree):
            if fn.lineno in seen:
                continue
            seen.add(fn.lineno)
            n += 1
            line = _guard_line(fn)
            if line is not None:
                bad.append(f"{path.relative_to(root.parent)}:{line} "
                           f"(passed at line {call_line})")
    assert n > 400  # the scan resolves the package's UDFs
    assert bad == []


def test_zero_row_guard_scan_sees_each_shape():
    """The scan above flags each guard shape it names and nothing else."""
    import ast

    src = '''
def op(ds, rd):
    def a(df):
        """doc"""
        if not len(df):
            return df
        return df
    def b(t):
        cols = ["x"]
        if t.num_rows == 0 or "x" not in t.column_names:
            return t
        return t
    def c(df):
        df = df[df["x"] > 0]
        if not len(df):
            return df
        return df
    def d(df):
        if len(df) < 2:
            return df
        return df
    class E:
        def __call__(self, batch):
            if batch.empty:
                return batch
            return batch
    ds.map_batches(a)
    ds.map_batches(lambda df: df if len(df) else None)
    ds.map_batches(E())
    hash_partitioned_apply(ds, ["k"], b)
    hash_partitioned_agg(ds, ["k"], c)
    lookup_join(ds, "k", ds, "k", then=d)
'''
    flagged = sorted(line for _, fn in _udfs(ast.parse(src))
                     if (line := _guard_line(fn)) is not None)
    assert flagged == [5, 10, 24, 28]
