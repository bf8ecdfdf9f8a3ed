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


@pytest.fixture(scope="module")
def linked_small(pages_small, cfg, kb):
    """The phase-A output of the small corpus, built serially, in 4 blocks."""
    from kgx.functions.extract_kg import BatchLinker
    from kgx.stages import kg_stages

    segs = kg_stages.SegmentPages(cfg)(kg_stages.extract_text_batch(pages_small))
    emb = {r["entity_id"]: r["embedding"] for r in kb["embedding_table"].to_pylist()}
    t = kg_stages.linked_table(
        BatchLinker(kb["alias_table"].to_pylist(), emb, cfg), segs)
    step = -(-t.num_rows // 4)
    return [t.slice(i, step) for i in range(0, t.num_rows, step)]


def _input(blocks, pinned: bool):
    """A pinned Dataset of ``blocks``, or a lazy chain over them."""
    import ray.data as rd

    ds = rd.from_arrow(blocks)
    return ds if pinned else ds.map_batches(lambda t: t, batch_format="pyarrow")


@pytest.mark.parametrize("pinned", [True, False], ids=["pinned", "lazy"])
class TestWideStagesOnEachRoute:
    """Each wide stage equals the serial oracle on both exchange routes,
    from a pinned input (the driver route runs without an execution) and
    from a lazy one (combiner, tag, then the route)."""

    def test_dedup_and_categorize(self, ray_session, each_route, linked_small,
                                  oracle_small, cfg, pinned):
        from kgx.stages import wide

        want = _norm(oracle_small["triples"].to_pandas(), ["subj", "pred", "obj"])
        for got in each_route(lambda: wide.dedup_and_categorize(
                _input(linked_small, pinned), cfg).to_pandas()):
            pd.testing.assert_frame_equal(_norm(got, ["subj", "pred", "obj"]), want)

    def test_canonical_entities(self, ray_session, each_route, linked_small,
                                oracle_small, cfg, pinned):
        from kgx.stages import wide

        want = _norm(oracle_small["entities"].to_pandas(), ["entity_key"])
        for got in each_route(lambda: wide.canonical_entities(
                _input(linked_small, pinned), cfg).to_pandas()):
            pd.testing.assert_frame_equal(_norm(got, ["entity_key"]), want)

    def test_adjacency_from_triples(self, ray_session, each_route, oracle_small,
                                    pinned):
        from kgx.stages import wide

        triples = oracle_small["triples"]
        step = -(-triples.num_rows // 3)
        blocks = [triples.slice(i, step) for i in range(0, triples.num_rows, step)]
        want = _norm(oracle_small["adjacency"].to_pandas(), ["subj"])
        for got in each_route(lambda: wide.adjacency_from_triples(
                _input(blocks, pinned)).to_pandas()):
            pd.testing.assert_frame_equal(_norm(got, ["subj"]), want)


def test_finalize_on_pinned_input_runs_no_execution(ray_session, monkeypatch,
                                                    linked_small, oracle_small,
                                                    cfg):
    """Phase B over a pinned small linked Dataset runs its kernels on the
    driver when it is called: no Ray Data execution starts, and the
    outputs equal the oracle's.  Forced onto the exchange route, the same
    call executes."""
    import ray.data as rd
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    from kgx import pipeline
    from kgx.stages import exchange

    runs = []
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        runs.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    linked = rd.from_arrow(linked_small)
    outs = pipeline.finalize(linked, cfg, sort_output=False)
    assert not runs
    got = {k: exchange.collect_arrow(v).to_pandas() for k, v in outs.items()}
    assert not runs  # collecting driver-route results executes nothing
    for name, keys in [("triples", ["subj", "pred", "obj"]),
                       ("entities", ["entity_key"]), ("adjacency", ["subj"])]:
        pd.testing.assert_frame_equal(
            _norm(got[name], keys), _norm(oracle_small[name].to_pandas(), keys))

    monkeypatch.setattr(exchange, "DRIVER_BYTES", -1)
    pipeline.finalize(linked, cfg, sort_output=False)
    assert runs
