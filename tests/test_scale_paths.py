"""Tests for the round-2 scale-path fixes (VERDICT r1 "What's wrong" #2-#5):
partitioned semi-join, join-based range join, distributed label propagation,
and bounded hot-bucket verification.
"""

from __future__ import annotations

import pyarrow as pa
import pytest


def _pairs_set(ds):
    return {
        (r["id_a"], r["id_b"])
        for b in ds.iter_batches(batch_size=None, batch_format="pyarrow")
        for r in b.to_pylist()
    }


class TestSemiJoinPartitionedPath:
    def test_partitioned_equals_broadcast(self, ray_session, each_route):
        from kgx.pipelines.relational import customers_with_orders

        sf = "/root/testdata/sf0.001"
        broadcast, partitioned = each_route(lambda: sorted(
            customers_with_orders(sf).to_pandas()["c_custkey"].tolist()))
        assert partitioned == broadcast
        assert len(broadcast) > 0


class TestDistributedClustering:
    def _edges(self):
        # two components {1,2,3,4} (chain) and {10, 11}; singleton 20 absent
        return pa.table(
            {"id_a": [1, 2, 3, 10], "id_b": [2, 3, 4, 11]},
            schema=pa.schema([("id_a", pa.int64()), ("id_b", pa.int64())]),
        )

    def test_label_propagation_ds_equals_union_find(self, ray_session):
        import ray.data as rd

        from kgx.stages.cluster import _components, label_propagation_labels

        tab = self._edges()
        want = _components([(1, 2), (2, 3), (3, 4), (10, 11)])
        got = label_propagation_labels(rd.from_arrow(tab))
        assert got == want

    def test_cluster_ids_distributed_path_matches_driver(self, ray_session,
                                                         each_route):
        import ray.data as rd

        from kgx.stages.cluster import cluster_ids

        docs = pa.table(
            {"doc_id": [1, 2, 3, 4, 10, 11, 20]},
            schema=pa.schema([("doc_id", pa.int64())]),
        )

        def run():
            stats = {}
            res = (
                cluster_ids(rd.from_arrow(docs), rd.from_arrow(self._edges()),
                            stats=stats)
                .to_pandas()
                .sort_values("doc_id")
                .reset_index(drop=True)
            )
            return list(zip(res["doc_id"], res["cluster_id"])), stats

        # driver union-find first, then distributed label propagation (the
        # only route that fills ``stats``)
        (driver, d_stats), (dist, x_stats) = each_route(run)
        assert not d_stats and x_stats["converged"]
        assert dist == driver
        assert dict(dist)[20] == 20  # singleton keeps its own id
        assert dict(dist)[4] == 1 and dict(dist)[11] == 10


class TestBoundedHotBucketVerify:
    def test_degenerate_identical_band_bounded_and_connected(self, ray_session):
        import time

        import ray.data as rd

        from kgx.stages import dedup as D
        from kgx.stages.cluster import _components

        n = 3000  # > VERIFY_GROUP_CAP -> capped window path
        assert n > D.VERIFY_GROUP_CAP
        docs = pa.table(
            {
                "doc_id": list(range(n)),
                "text": ["identical template page content here"] * n,
            },
            schema=pa.schema([("doc_id", pa.int64()), ("text", pa.string())]),
        )
        t0 = time.time()
        pairs = D.minhash_lsh_pairs(
            rd.from_arrow(docs), num_perm=16, bands=4, threshold=0.7, shingle_k=5
        )
        got = _pairs_set(pairs)
        elapsed = time.time() - t0
        # capped: O(n * window) pairs, not O(n^2) = 4.5M
        assert 0 < len(got) < n * (D._CAP_WINDOW + 1)
        # connectivity preserved: all docs form ONE component
        labels = _components(sorted(got))
        roots = {labels.get(d, d) for d in range(n)}
        assert roots == {0}
        assert elapsed < 120

    def test_small_groups_remain_exact(self):
        from kgx.stages.dedup import _bounded_index_pairs

        got = list(_bounded_index_pairs(5))
        assert got == [(i, j) for i in range(5) for j in range(i + 1, 5)]
