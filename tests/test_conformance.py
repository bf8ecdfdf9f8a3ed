"""Conformance gates (north rule): byte-identical extracted text per url and
P/R >= 0.95 on (subj, pred, obj) — Ray pipeline vs serial oracle, on the
deterministic synthetic pages corpus including all FIXTURES.md edge rows.
"""

from __future__ import annotations

import pandas as pd
import pytest


@pytest.fixture(scope="module")
def ray_outputs(ray_session, pages_small, cfg, kb):
    """The pipeline's outputs on each exchange route, driver route first
    (see ``each_route``: the small corpus fits the driver route, so the
    exchange route, the only one at scale, is forced too)."""
    import ray.data as rd

    from kgx import pipeline
    from kgx.stages import exchange

    refs = pipeline.broadcast_kb(kb)
    routes = []
    for bound in (1 << 62, -1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exchange, "DRIVER_BYTES", bound)
            outs = pipeline.kg_tables_in_memory(rd.from_arrow(pages_small),
                                                cfg, refs)
            routes.append({k: v.to_pandas() for k, v in outs.items()})
    return routes


def _norm(df: pd.DataFrame, keys: list[str]) -> pd.DataFrame:
    return df.sort_values(keys).reset_index(drop=True)


def _exactly_equal(ray_outputs, oracle_small, name: str, keys: list[str]):
    want = _norm(oracle_small[name].to_pandas(), keys)
    for outs in ray_outputs:
        pd.testing.assert_frame_equal(_norm(outs[name], keys), want,
                                      check_dtype=False)


class TestByteIdentity:
    def test_extracted_text_byte_identical(self, ray_session, pages_small, cfg, oracle_small):
        import ray.data as rd

        from kgx import pipeline

        got = (
            pipeline.page_text_ds(rd.from_arrow(pages_small), cfg)
            .to_pandas()[["url", "text"]]
            .sort_values("url")
            .reset_index(drop=True)
        )
        want = oracle_small["text"].to_pandas().sort_values("url").reset_index(drop=True)
        assert len(got) == len(want)
        # byte-identity per url, not just frame equality
        for g, w in zip(got.itertuples(), want.itertuples()):
            assert g.url == w.url
            assert g.text.encode("utf-8") == w.text.encode("utf-8"), g.url


class TestTripleConformance:
    def test_precision_recall(self, ray_outputs, oracle_small):
        want = {tuple(r) for r in oracle_small["triples"].to_pandas()[["subj", "pred", "obj"]].itertuples(index=False)}
        assert want, "oracle produced no triples — fixture broken"
        for outs in ray_outputs:
            got = {tuple(r) for r in outs["triples"][["subj", "pred", "obj"]].itertuples(index=False)}
            tp = len(got & want)
            precision = tp / max(len(got), 1)
            recall = tp / len(want)
            assert precision >= 0.95, f"precision {precision}"
            assert recall >= 0.95, f"recall {recall}"

    def test_triples_exactly_equal(self, ray_outputs, oracle_small):
        _exactly_equal(ray_outputs, oracle_small, "triples",
                       ["subj", "pred", "obj"])

    def test_entities_exactly_equal(self, ray_outputs, oracle_small):
        _exactly_equal(ray_outputs, oracle_small, "entities", ["entity_key"])

    def test_adjacency_exactly_equal(self, ray_outputs, oracle_small):
        _exactly_equal(ray_outputs, oracle_small, "adjacency", ["subj"])


class TestEdgeRowBehavior:
    """The FIXTURES.md edge rows flow through without crashing and with the
    expected per-row outcomes."""

    def test_boilerplate_only_page_has_no_segments(self, oracle_small):
        segs = oracle_small["segments"].to_pandas()
        assert not (segs.url == "https://edge.example/boilerplate-only").any()

    def test_twin_pages_both_survive_exact_dedup_lineage(self, oracle_small):
        # twin-a and twin-b are byte-identical bodies under two urls; their
        # triples dedup to ONE representative with min url (twin-a).
        trips = oracle_small["triples"].to_pandas()
        assert not (trips.url == "https://edge.example/twin-b").any()

    def test_within_page_duplicate_collapses(self, oracle_small):
        trips = oracle_small["triples"].to_pandas()
        dup = trips[trips.url == "https://edge.example/within-dup"]
        # three identical sentences -> one triple row (n_support folds them)
        assert len(dup) <= 1
