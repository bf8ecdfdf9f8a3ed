"""The batch segmenter (``pipeline_core.segment_batch``, the kernel behind
``kg_stages.SegmentPages``) against the per-page ``segment_text`` of the
serial oracle: equal tables, row for row and in order (no Ray, except the
segment-count query test)."""

from __future__ import annotations

import copy

import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgx import config_loader, schema, synth
from kgx.functions.pipeline_core import segment_text, segment_text_adaptive
from kgx.stages import kg_stages

CFG = config_loader.resolve_settings()


def _page_text(texts: list[str]) -> pa.Table:
    n = len(texts)
    return pa.table({"url": [f"u{i}" for i in range(n)], "warc_ts": [0] * n,
                     "text": texts, "lang": ["en"] * n}, schema=schema.PAGE_TEXT)


def _assert_equals_per_page(pages: pa.Table, cfg: dict, per_page=segment_text) -> pa.Table:
    rows = [s for url, text, lang in zip(*(pages[c].to_pylist() for c in ("url", "text", "lang")))
            for s in per_page(url, text, lang, cfg)]
    want = kg_stages._rows_to_table(rows, schema.SEGMENTS)
    got = kg_stages.SegmentPages(cfg)(pages)
    assert got.to_pylist() == want.to_pylist()  # rows and their order
    assert got.equals(want)
    return got


def _cfg(target=200, max_chars=2000, novelty=0.95, cap=500, junk=None) -> dict:
    cfg = copy.deepcopy(CFG)
    cfg["processing"]["segment"].update(target_chars=target, max_chars=max_chars,
                                        novelty_threshold=novelty, max_per_page=cap)
    if junk is not None:
        cfg["filters"]["junk_patterns"] = junk
    return cfg


def test_generated_pages():
    kb = synth.build_knowledge_base()
    pages = kg_stages.extract_text_batch(synth.gen_pages(2000, seed=9, kb=kb))
    got = _assert_equals_per_page(pages, CFG)
    assert got.num_rows > 1000


HOSTILE = {
    "empty": "",
    "whitespace": " \t\xa0\u2028 ",
    "long_sentence": "word " * 90 + "end.",  # over max_chars, no boundary
    "over_the_cap": " ".join(f"Sentence number {i} about topic {i * 7}." for i in range(40)),
    "unicode_space": "First one.\xa0Second one.\u2028Third İstanbul one.\u2029Fourth.",
    "dotted_i": "İSTANBUL BANK. İ İ İ. ACCEPT ALL COOKİES now.",
    "punct_runs": "Wait!?. Really?!  Yes... No!!! ?! . ! end",
    "junk_only": "Accept all cookies. Privacy Policy. Click here to see. ADVERTISEMENT.",
    "repeats": "The same words here. " * 6 + "Something else entirely now.",
    "nul": "Before a NUL.\0 After it. Kelvin \u212a and long \u017f.",
    "leading_space": "   Starts with spaces. Then more text here.",
}


@pytest.mark.parametrize("cfg", [
    _cfg(target=30, max_chars=60, cap=5),
    _cfg(target=1, max_chars=7, novelty=0.5, cap=3, junk=["cookies", "İ", "polic", "\0 a"]),
    _cfg(target=0, max_chars=1, novelty=2.0, cap=1 << 30, junk=[]),
    _cfg(target=500, max_chars=2000, junk=["", "x"]),  # "" is in every text
    CFG,
], ids=["small", "tiny", "zero_target", "empty_pattern", "default"])
def test_hostile_pages(cfg):
    _assert_equals_per_page(_page_text(list(HOSTILE.values())), cfg)


def test_hostile_pages_each_alone():
    cfg = _cfg(target=30, max_chars=60, cap=5)
    for text in HOSTILE.values():
        _assert_equals_per_page(_page_text([text]), cfg)


def test_the_gates_drop_what_they_should():
    cfg = _cfg(target=10, max_chars=60, cap=5)
    got = _assert_equals_per_page(_page_text(list(HOSTILE.values())), cfg).to_pylist()
    by_url = {}
    for r in got:
        by_url.setdefault(r["url"], []).append(r)
    names = list(HOSTILE)
    assert "u%d" % names.index("junk_only") not in by_url
    assert len(by_url["u%d" % names.index("over_the_cap")]) == 5
    repeats = by_url["u%d" % names.index("repeats")]
    assert [r["seg_id"] for r in repeats] == [0, 6]  # the novelty gate drops 1..5


def test_batch_of_pages_without_segments():
    pages = _page_text(["", "  ", "\u2028", "Accept all cookies."])
    got = _assert_equals_per_page(pages, CFG)
    assert got.num_rows == 0 and got.schema == schema.SEGMENTS


def test_adaptive_keeps_the_per_page_path():
    cfg = copy.deepcopy(CFG)
    cfg["processing"]["adaptive"] = {**cfg["processing"].get("adaptive", {}), "enabled": True,
                                     "window": 2, "coarse_target_chars": 60}
    kb = synth.build_knowledge_base()
    pages = kg_stages.extract_text_batch(synth.gen_pages(100, seed=4, kb=kb))
    _assert_equals_per_page(pages, cfg, per_page=segment_text_adaptive)


_ALPHABET = ["a", "b", "C", " ", ".", "!", "?", "\xa0", "\u2028", "İ", "Σ", "\0", "\t"]


@given(texts=st.lists(st.text(alphabet=st.sampled_from(_ALPHABET), max_size=60), max_size=8),
       target=st.integers(0, 25), max_chars=st.integers(1, 30),
       novelty=st.sampled_from([0.0, 0.5, 0.95, 2.0]), cap=st.integers(1, 6),
       junk=st.lists(st.text(alphabet=st.sampled_from(_ALPHABET), min_size=1, max_size=3),
                     max_size=3))
@settings(max_examples=200, deadline=None)
def test_text_column(texts, target, max_chars, novelty, cap, junk):
    _assert_equals_per_page(_page_text(texts), _cfg(target, max_chars, novelty, cap, junk))


def test_segment_count_reports_empty_pages(ray_session, tmp_path):
    """``kg_segment_count`` counts a page with no segment as 0, like its
    DuckDB mirror."""
    import sys
    from pathlib import Path

    import duckdb
    import pyarrow.parquet as pq

    from kgx import queries

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
    from check_queries import mismatch, to_pandas

    texts = ["", "   ", None, "x" * 1000, "Short one.", "\xa0\u2028"]
    n = len(texts)
    pq.write_table(pa.table({
        "doc_id": pa.array(range(n), pa.int64()), "text": texts, "lang": ["en"] * n,
        "source": ["s"] * n, "n_chars": pa.array([len(t or "") for t in texts], pa.int64()),
    }), tmp_path / "documents.parquet")
    got = to_pandas(queries.kg_segment_count(str(tmp_path)))
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM read_parquet("
                f"'{tmp_path / 'documents.parquet'}')")
    want = con.execute(queries.oracle_sql()["kg_segment_count"]).df()
    assert (want["n_segments"] == 0).sum() == 4
    assert mismatch(got, want) is None
