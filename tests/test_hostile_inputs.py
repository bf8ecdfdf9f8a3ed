"""Fail-open robustness on hostile page payloads (reference contract M13 /
fail-open OCR, extractor.py:393-394: bad input yields empty output, never an
exception) — and the Ray pipeline must still agree byte-for-byte with the
serial oracle on every such row."""

from __future__ import annotations

import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgx.functions.text import WS_CODEPOINTS, extract_text_from_html, page_text
from kgx import schema as S

HOSTILE_HTML = [
    b"",                                        # empty payload
    b"<html><body><p>unclosed everywhere",      # never-closed tags
    b"<p>" + b"<div>" * 2000 + b"deep" ,        # pathological nesting
    b"\xff\xfe\x00broken utf8 \x80\x81",        # invalid UTF-8
    b"<script>while(1){}</script>plain",        # script dropped, text kept
    b"<nav><nav><nav>x</nav></nav></nav>done",  # nested drop-blocks
    b"a < b and c > d & e",                     # bare specials, no tags
    "<p>café ☃ \U0001f600</p>".encode("utf-8"),  # multibyte
    b"<!-- unterminated comment <p>hidden",
    b"<STYLE>x{}</STYLE><P>CAPS TAGS</P>",
]


class TestExtractFailOpen:
    @pytest.mark.parametrize("html", HOSTILE_HTML)
    def test_never_raises(self, html):
        out = extract_text_from_html(html)
        assert isinstance(out, str)

    def test_script_content_dropped(self):
        assert extract_text_from_html(b"<script>while(1){}</script>plain") == "plain"

    def test_caps_tags_stripped(self):
        assert extract_text_from_html(b"<STYLE>x{}</STYLE><P>CAPS</P>") == "CAPS"

    def test_none_inputs(self):
        assert page_text(None, None) == ""
        assert extract_text_from_html(None) == ""


# whitespace that CPython's \\s matches and RE2's does not, and look-alikes
# that are not whitespace at all
HOSTILE_TEXT = [
    "".join(chr(c) for c in WS_CODEPOINTS),
    "a" + "".join(chr(c) for c in WS_CODEPOINTS) + "b",
    "\xa0\xa0NBSP\xa0\xa0run\xa0",
    "zero\u200bwidth \u200b \ufeffbom",
    "\U0001f600\u3000\U00010348  \U0001f600",
    "",
    " ",
    "\t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85",
    "  plain  ascii  ",
    "caf\u00e9\u2028line\u2029para",
]


def _pages(texts, htmls):
    n = len(texts)
    return pa.table({"url": [f"u{i}" for i in range(n)], "warc_ts": [0] * n,
                     "html": htmls, "text": texts, "lang": ["en"] * n},
                    schema=S.PAGES)


class TestExtractTextBatch:
    """``extract_text_batch`` (one Arrow normalize, per-row HTML only for
    null text) equals per-row ``page_text``."""

    @staticmethod
    def _check(pages):
        from kgx.stages.kg_stages import extract_text_batch

        got = extract_text_batch(pages)
        want = [page_text(h, t) for h, t in zip(pages["html"].to_pylist(),
                                                pages["text"].to_pylist())]
        assert got["text"].to_pylist() == want
        assert got["url"].equals(pages["url"])

    def test_hostile_text_and_html(self):
        texts = HOSTILE_TEXT + [None] * len(HOSTILE_HTML)
        htmls = [b"<p>ignored</p>"] * len(HOSTILE_TEXT) + HOSTILE_HTML
        self._check(_pages(texts, htmls))
        self._check(_pages([None, None], [None, b"<b>x</b>"]))  # all null

    @given(st.lists(st.one_of(
        st.none(),
        st.text(alphabet=st.sampled_from(
            [chr(c) for c in WS_CODEPOINTS] + ["a", "\u00e9", "\u200b",
                                               "\U0001f600", "<", "&"])),
        st.text()), min_size=1, max_size=12), st.integers(0, 12))
    @settings(max_examples=150, deadline=None)
    def test_text_column(self, texts, cut):
        htmls = [None if t else b"<p>a &amp;\xa0b</p>" for t in texts]
        pages = _pages(texts, htmls)
        cut = min(cut, pages.num_rows)
        # two chunks per column, the second a slice with an offset
        self._check(pa.concat_tables([pages.slice(0, cut), pages.slice(cut)]))


class TestHostilePagesThroughPipeline:
    def test_pipeline_matches_oracle_on_hostile_rows(self, ray_session, cfg, kb):
        import ray.data as rd

        from kgx import oracle, pipeline

        rows = {
            "url": [f"https://hostile.example/{i}" for i in range(len(HOSTILE_HTML))],
            "warc_ts": [0] * len(HOSTILE_HTML),
            "html": HOSTILE_HTML,
            "text": [None] * len(HOSTILE_HTML),
            "lang": ["en"] * len(HOSTILE_HTML),
        }
        pages = pa.table(rows, schema=S.PAGES)
        ora = oracle.extract_text(pages)
        got = (
            pipeline.page_text_ds(rd.from_arrow(pages), cfg)
            .select_columns(["url", "text"])
            .to_pandas()
            .sort_values("url")
            .reset_index(drop=True)
        )
        want = ora.to_pandas().sort_values("url").reset_index(drop=True)
        assert got.equals(want)


class TestNullSourceMatchesMirror:
    """A document with a NULL source forms its own NULL group in the
    DuckDB mirrors; the per-source operators must keep that group too (not
    drop it, not rename it to the string 'None')."""

    @pytest.mark.parametrize("name", ["sketch_f2", "doc_quality_by_source",
                                      "doc_dup_by_source", "doc_split"])
    def test_null_source_group(self, ray_session, tmp_path, name):
        import sys
        from pathlib import Path

        import duckdb
        import pyarrow.parquet as pq

        from kgx import queries

        sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                               / "scripts"))
        from check_queries import mismatch, to_pandas

        import numpy as np

        rng = np.random.default_rng(7)
        words = ["the", "a", "of", "graph", "ray", "data", "node", "edge",
                 "and", "to"]
        n = 80
        texts = [" ".join(rng.choice(words, rng.integers(5, 120)))
                 for _ in range(n)]
        texts[3] = texts[4]  # one exact duplicate pair
        docs = pa.table({
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "text": texts,
            "lang": ["en"] * n,
            "source": [None if i % 7 == 0 else f"src{i % 3}"
                       for i in range(n)],
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        })
        pq.write_table(docs, tmp_path / "documents.parquet")

        got = to_pandas(queries.registry()[name](str(tmp_path)))
        con = duckdb.connect()
        con.execute("CREATE VIEW documents AS SELECT * FROM read_parquet("
                    f"'{tmp_path / 'documents.parquet'}')")
        want = con.execute(queries.oracle_sql()[name]).df()
        assert want["source"].isna().any()
        assert got["source"].isna().any(), "NULL source group lost"
        assert mismatch(got, want) is None


class TestNullDimensionMatchesMirror:
    """A customer with a NULL c_mktsegment or c_nationkey forms a NULL group
    in the DuckDB mirrors; the operators that attach those columns to the
    orders must keep that group too (not drop its rows), on both routes."""

    @pytest.mark.parametrize("name,col", [
        ("rel_broadcast_join", "c_mktsegment"),
        ("rel_topk_per_group", "c_mktsegment"),
        ("rel_native_join", "c_nationkey"),
        ("rel_grouped_median", "c_nationkey"),
        ("rel_grouped_quantiles", "c_nationkey"),
    ])
    def test_null_attached_group(self, ray_session, each_route, tmp_path,
                                 name, col):
        import shutil
        import sys
        from pathlib import Path

        import duckdb
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        from kgx import queries

        sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                               / "scripts"))
        from check_queries import mismatch, to_pandas

        sf = Path("/root/testdata/sf0.001")
        shutil.copy(sf / "orders.parquet", tmp_path / "orders.parquet")
        cust = pq.read_table(sf / "customer.parquet")
        key = cust["c_custkey"].to_numpy()
        for c, r in (("c_mktsegment", 0), ("c_nationkey", 3)):
            i = cust.schema.get_field_index(c)
            cust = cust.set_column(i, c, pc.if_else(
                pa.array(key % 7 == r), pa.nulls(len(key), cust[c].type),
                cust[c]))
        pq.write_table(cust, tmp_path / "customer.parquet")

        con = duckdb.connect()
        for t in ("orders", "customer"):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet("
                        f"'{tmp_path / f'{t}.parquet'}')")
        want = con.execute(queries.oracle_sql()[name]).df()
        assert want[col].isna().any()
        for got in each_route(
                lambda: to_pandas(queries.registry()[name](str(tmp_path)))):
            assert got[col].isna().any(), "NULL group lost"
            assert mismatch(got, want) is None


class TestTokenBudgetBoundary:
    """``token_budget`` keeps a document iff its inclusive running token
    total is within the budget, as the DuckDB mirror does.  A zero-token
    document whose (source, score, bucket) group starts exactly at the
    budget has a total equal to it, so its group must survive the prune."""

    def test_zero_token_group_at_the_budget(self, ray_session, each_route, tmp_path):
        import duckdb
        import pyarrow.parquet as pq
        import ray.data as rd

        from kgx.stages.corpus import sql_token_budget, token_budget

        path = tmp_path / "documents.parquet"
        pq.write_table(pa.table({"doc_id": pa.array([1, 100], pa.int64()),
                                 "text": ["aaa bbb ccc", ""],
                                 "source": ["s", "s"]}), path)
        con = duckdb.connect()
        con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{path}')")
        cols = ["doc_id", "source", "score", "n_tokens", "cum_tokens"]
        want = sorted(con.execute(sql_token_budget(budget=3)).fetchall())
        assert [r[0] for r in want] == [1, 100]
        for got in each_route(lambda: token_budget(
                rd.read_parquet(str(path)), budget=3).to_pandas()):
            assert sorted(map(tuple, got[cols].itertuples(index=False))) == want
