"""The hash exchange (kgx.stages.exchange): one key tagger behind
``hash_partitioned_apply`` and ``hash_partitioned_agg``.

The invariant under test is key disjointness: every key value lands wholly
in one partition, whatever format (Arrow / pandas) or dtype its blocks have,
so a per-partition group-by returns each key exactly once."""

from __future__ import annotations

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


def _run(ds, mode: str, keys: list[str], fmt: str, P: int) -> pd.DataFrame:
    kernel = _sum_kernel(keys, fmt)
    fn = X.hash_partitioned_agg if mode == "agg" else X.hash_partitioned_apply
    # pandas is the default kernel_format: leave it implicit so the pandas
    # cases exercise the default call
    kw = {} if fmt == "pandas" else {"kernel_format": fmt}
    out = fn(ds, keys, kernel, P, **kw)
    return out.to_pandas()


@pytest.mark.parametrize("P", [16, 64])
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("mode", ["agg", "apply"])
def test_int_key_not_split_by_null_in_another_block(ray_session, mode, fmt, P):
    """Blocks k=[5,6] and k=[5,null]: pandas widens the second block's k to
    float64, which must not move key 5 to another partition."""
    import ray.data as rd

    blocks = [
        pa.table({"k": pa.array([5, 6], pa.int64()), "v": [1, 10]}),
        pa.table({"k": pa.array([5, None], pa.int64()), "v": [2, 100]}),
    ]
    got = _run(rd.from_arrow(blocks), mode, ["k"], fmt, P)
    live = got[got["k"].notna()]
    assert sorted(live["k"].astype(int)) == [5, 6]
    assert dict(zip(live["k"].astype(int), live["v"])) == {5: 3, 6: 10}
    assert got.loc[got["k"].isna(), "v"].tolist() == [100]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("mode", ["agg", "apply"])
def test_two_keys_string_and_int(ray_session, mode, fmt):
    import ray.data as rd

    blocks = [
        pa.table({"s": ["a", "a", "b"], "k": pa.array([1, 2, 1], pa.int64()),
                  "v": [1, 2, 3]}),
        pa.table({"s": ["a", "b", "b"], "k": pa.array([1, 1, None], pa.int64()),
                  "v": [10, 20, 30]}),
    ]
    got = _run(rd.from_arrow(blocks), mode, ["s", "k"], fmt, 32)
    live = got[got["k"].notna()]
    assert {(s, int(k)): v for s, k, v in zip(live["s"], live["k"], live["v"])} \
        == {("a", 1): 11, ("a", 2): 2, ("b", 1): 23}
    assert got.loc[got["k"].isna(), "v"].tolist() == [30]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("mode", ["agg", "apply"])
def test_pandas_upstream_blocks(ray_session, mode, fmt):
    """Pandas producers: the same key values arrive as int64, float64 with
    NaN (a null-holding batch) and object blocks in ONE exchange."""
    import ray.data as rd

    ds = rd.from_pandas([
        pd.DataFrame({"k": np.array([7, 8], np.int64), "v": [1, 2]}),
        pd.DataFrame({"k": [7.0, np.nan], "v": [4, 8]}),
        pd.DataFrame({"k": pd.Series([8, 7], dtype=object), "v": [16, 32]}),
    ])
    got = _run(ds, mode, ["k"], fmt, 64)
    live = got[got["k"].notna()]
    assert dict(zip(live["k"].astype(int), live["v"])) == {7: 37, 8: 18}
    assert len(live) == 2


def test_null_keys_share_one_partition_and_kernel_sees_values(ray_session):
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
        out = X.hash_partitioned_apply(
            rd.from_arrow(blocks), keys, kernel, 16, kernel_format="pyarrow",
        ).to_pandas()
        with_null = out[out["n_null"] > 0]
        if keys == ["k"]:
            assert len(with_null) == 1
            assert list(with_null["null_vals"].iloc[0]) == [1, 3, 4]
        assert with_null["n_null"].sum() == 3
        assert sorted(v for vs in out["vals"] for v in vs) == [1, 2, 3, 4, 5]


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
