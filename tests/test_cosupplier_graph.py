"""Co-supplier graph operators (kgx.stages.triangles) on an edge-free
graph: every order has one supplier, so the graph has no edges.  The
global folds still owe their one row, equal to the DuckDB mirror under
scripts/check_queries.py's comparison."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import duckdb
import pandas as pd
import pytest

_spec = importlib.util.spec_from_file_location(
    "check_queries",
    Path(__file__).resolve().parent.parent / "scripts" / "check_queries.py")
CQ = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(CQ)

EDGE_FREE = pd.DataFrame({"l_orderkey": [1, 2], "l_suppkey": [10, 11]})


def _sql(query: str) -> pd.DataFrame:
    con = duckdb.connect()
    con.register("lineitem", EDGE_FREE)
    return con.execute(query).fetchdf()


@pytest.mark.parametrize("op", ["triangles", "degree_moments"])
def test_edge_free_graph_matches_sql_mirror(ray_session, op):
    import ray.data as rd

    from kgx.stages import triangles as T

    run, sql = {
        "triangles": (T.cosupplier_triangles, T.sql_cosupplier_triangles),
        "degree_moments": (T.cosupplier_degree_moments,
                           T.sql_degree_moments),
    }[op]
    got = CQ.to_pandas(run(rd.from_pandas(EDGE_FREE)))
    assert len(got) == 1
    assert CQ.mismatch(got, _sql(sql())) is None
    if op == "triangles":
        assert got["n_triangles"].tolist() == [0]
