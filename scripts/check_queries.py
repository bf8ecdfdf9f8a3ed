"""Local replica of the driver's correctness gate: run every registry query
at a given sf_dir and compare row-count + schema-names + sorted values
against the DuckDB oracle SQL.  Exit 1 on any mismatch.

Usage: python scripts/check_queries.py [--small-blocks] [sf_dir] [name ...]

Runs at the driver's num_cpus=32 by default (override KGX_CHECK_CPUS) —
the r3 ngram_topk bug only manifested at high parallelism, so a low-CPU
replica is NOT a faithful gate.  ``--small-blocks`` additionally caps
``DataContext.target_max_block_size`` at 64 KiB to force every sort/limit/
groupby output into multi-block layouts, flushing out per-block projections
that assume single-block results (the r3 bug class).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import duckdb
import pandas as pd


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(by=list(df.columns)).reset_index(drop=True)


def mismatch(ours: pd.DataFrame, theirs: pd.DataFrame) -> str | None:
    """Why a query result differs from its oracle's, or None: same column
    names, same row count, same sorted values (floats compare with NULL
    as 0, everything else as strings)."""
    ours, theirs = canon(ours), canon(theirs)
    if list(ours.columns) != list(theirs.columns):
        return f"columns {list(ours.columns)} != {list(theirs.columns)}"
    if len(ours) != len(theirs):
        return f"rows {len(ours)} != {len(theirs)}"
    for c in ours.columns:
        a, b = ours[c], theirs[c]
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            same = (a.astype(float).fillna(0) == b.astype(float).fillna(0)).all()
        else:
            same = (a.astype(str) == b.astype(str)).all()
        if not same:
            return (f"column {c} differs "
                    f"(ours={a.head(3).tolist()} theirs={b.head(3).tolist()})")
    return None


def main() -> int:
    argv = [a for a in sys.argv[1:] if a != "--small-blocks"]
    small_blocks = "--small-blocks" in sys.argv[1:]
    sf_dir = argv[0] if argv else "/root/testdata/sf0.001"
    only = set(argv[1:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("KGX_CHECK_CPUS", "32")),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    if small_blocks:
        DataContext.get_current().target_max_block_size = 64 * 1024

    from kgx import queries as Q

    con = duckdb.connect()
    for t in ["region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"]:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'"
        )

    reg = Q.registry()
    sqls = Q.oracle_sql()
    failed = []
    for name, fn in reg.items():
        if only and name not in only:
            continue
        import time

        t0 = time.time()
        try:
            raw = to_pandas(fn(sf_dir))
        except Exception as e:  # noqa: BLE001
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            failed.append(name)
            continue
        dt = time.time() - t0
        if name not in sqls:
            print(f"ok   {name}: {len(raw)} rows (rows-only, no SQL) [{dt:.1f}s]")
            continue
        why = mismatch(raw, con.execute(sqls[name]).fetchdf())
        if why:
            print(f"FAIL {name}: {why}")
            failed.append(name)
        else:
            print(f"ok   {name}: {len(raw)} rows match oracle [{dt:.1f}s]")
    if failed:
        print("FAILED:", failed)
        return 1
    print("all queries match")
    return 0


if __name__ == "__main__":
    rc = main()
    import ray

    ray.shutdown()
    sys.exit(rc)
