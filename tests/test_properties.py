"""Property-based tests (hypothesis) over the pure shared functions — the
invariants the distributed engine's correctness rests on.  The reference has
no property tests (SURVEY.md §5); these guard the properties the Ray
pipeline EXPLOITS: idempotent normalization, span-cover segmentation,
associative/commutative merges, bounded similarity measures, codec
roundtrips."""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgx.functions import text as T
from kgx.functions.pipeline_core import merge_entity_group, merge_triple_group
from kgx.stages.multimodal import decode_payload, encode_payload

texts = st.text(max_size=400)
small_texts = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FF), max_size=200
)


class TestNormalization:
    @given(texts)
    def test_normalize_ws_idempotent(self, s):
        once = T.normalize_ws(s)
        assert T.normalize_ws(once) == once

    @given(texts)
    def test_extract_html_never_raises_and_is_normalized(self, s):
        out = T.extract_text_from_html(s.encode("utf-8", "ignore"))
        assert out == T.normalize_ws(out)

    @given(texts)
    def test_entity_key_idempotent(self, s):
        k = T.normalize_entity_key(s)
        assert T.normalize_entity_key(k) == k

    @given(texts)
    def test_triple_part_idempotent(self, s):
        k = T.normalize_triple_part(s)
        assert T.normalize_triple_part(k) == k


class TestSegmentation:
    @given(small_texts, st.integers(20, 100), st.integers(100, 300))
    def test_spans_ordered_bounded_nonoverlapping(self, s, target, max_chars):
        spans = T.segment_spans(s, target, max_chars)
        prev_end = 0
        for b, e in spans:
            assert 0 <= b < e <= len(s)
            assert b >= prev_end  # ordered, non-overlapping
            assert e - b <= max_chars
            assert s[b:e].strip()
            prev_end = e

    @given(small_texts)
    def test_nonblank_text_is_covered(self, s):
        spans = T.segment_spans(s, 50, 100)
        covered = "".join(s[b:e] for b, e in spans)
        # dropped chars are whitespace-only trailing bits
        assert T.normalize_ws(covered) == T.normalize_ws(s) or not s.strip()


class TestSimilarity:
    sets = st.sets(st.text(max_size=6), max_size=30)

    @given(sets, sets)
    def test_jaccard_bounds_and_symmetry(self, a, b):
        j = T.jaccard(a, b)
        assert 0.0 <= j <= 1.0
        assert j == T.jaccard(b, a)
        assert T.jaccard(a, a) == 1.0

    @given(texts)
    def test_simhash_self_distance_zero(self, s):
        assert T.hamming64(T.simhash64(s), T.simhash64(s)) == 0

    @given(st.text(max_size=100))
    def test_shingle_codes_unique_and_sorted(self, s):
        codes = T.shingle_codes(s)
        assert list(codes) == sorted(set(codes.tolist()))

    @given(st.text(min_size=5, max_size=100))
    @settings(max_examples=30)
    def test_minhash_identical_inputs_agree(self, s):
        c = T.shingle_codes(s)
        if len(c):
            a = T.minhash_from_codes(c)
            b = T.minhash_from_codes(T.shingle_codes(s))
            assert (a == b).all()


def _mention(key, eid, name, surface, url, seg):
    return {"entity_key": key, "entity_id": eid, "canonical_name": name,
            "surface": surface, "url": url, "seg_id": seg}


class TestMergeAlgebra:
    ments = st.lists(
        st.builds(
            _mention,
            st.just("k"),
            st.integers(-1, 5),
            st.text(min_size=1, max_size=8),
            st.text(min_size=1, max_size=8),
            st.text(min_size=1, max_size=6),
            st.integers(0, 9),
        ),
        min_size=1,
        max_size=8,
    )

    @given(ments, st.randoms())
    def test_entity_merge_order_free(self, rows, rnd):
        base = merge_entity_group(rows)
        shuffled = list(rows)
        rnd.shuffle(shuffled)
        assert merge_entity_group(shuffled) == base

    @given(ments, st.integers(1, 3))
    def test_entity_merge_associative_via_partials(self, rows, cut):
        """merge(all) == merge(merge(part1) + merge(part2)) — the property
        the salted two-phase canonicalization shuffle relies on."""
        k = max(1, min(cut, len(rows) - 1)) if len(rows) > 1 else 1
        full = merge_entity_group(rows)
        if len(rows) == 1:
            return
        p1 = dict(merge_entity_group(rows[:k]))
        p2 = dict(merge_entity_group(rows[k:]))
        for p in (p1, p2):
            p["url"], p["seg_id"] = p.pop("first_url"), p.pop("first_seg_id")
        two_phase = merge_entity_group([p1, p2])
        assert two_phase == full

    triples = st.lists(
        st.fixed_dictionaries(
            {
                "subj": st.text(min_size=1, max_size=6),
                "pred": st.just("p"),
                "obj": st.text(min_size=1, max_size=6),
                "url": st.text(min_size=1, max_size=6),
                "seg_id": st.integers(0, 9),
                "conf": st.floats(0.1, 1.0, allow_nan=False),
            }
        ),
        min_size=1,
        max_size=8,
    )

    @given(triples, st.randoms())
    def test_triple_merge_order_free(self, rows, rnd):
        base = merge_triple_group(rows)
        shuffled = list(rows)
        rnd.shuffle(shuffled)
        assert merge_triple_group(shuffled) == base


# equal-length non-ASCII names (code-point order != any locale order),
# case variants of one surface, and arbitrary text
_names = st.one_of(st.sampled_from(["\u00e9a", "e\u00e9", "\u00fcb", "zz",
                                    "\u20acx", "\U0001f600a", "Acme"]),
                   st.text(min_size=1, max_size=4))
_surfaces = st.one_of(st.sampled_from(["acme", "Acme", "ACME", "\u00c9cole",
                                       "\u00e9cole", "\u0130"]),
                      st.text(min_size=1, max_size=4))


def _side(prefix):
    return st.fixed_dictionaries({
        f"{prefix}_key": st.sampled_from(["k1", "k2", "K1"]),
        f"{prefix}_id": st.integers(-1, 3),  # -1 = NIL; a key may be all-NIL
        prefix: _names,
        f"{prefix}_surface": _surfaces,
    })


_linked = st.lists(
    st.tuples(_side("subj"), _side("obj"),
              st.sampled_from(["u", "\u00fc", "a/b"]), st.integers(0, 3)).map(
        lambda t: {**t[0], **t[1], "url": t[2], "seg_id": t[3]}),
    min_size=1, max_size=30)


class TestEntityKernel:
    """``wide.merge_entities`` (the Arrow entity kernel) over linked rows
    split into arbitrary batches, through combiner -> re-combined partials
    -> salted phase 1 -> final, equals ``merge_entity_group`` per key."""

    @given(_linked, st.lists(st.integers(0, 30), max_size=4),
           st.integers(0, 60), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_equals_merge_entity_group(self, rows, cuts, recut, salts):
        import pyarrow as pa

        from kgx.functions.pipeline_core import mention_rows_from_linked
        from kgx.stages import wide

        t = pa.Table.from_pylist(rows).cast(pa.schema(
            [(c, pa.int32() if c == "seg_id" else
              pa.int64() if c.endswith("_id") else pa.string())
             for c in rows[0]]))
        bounds = sorted({0, t.num_rows, *(min(c, t.num_rows) for c in cuts)})
        partials = pa.concat_tables(
            [wide.mention_partials(t.slice(a, b - a), salts)
             for a, b in zip(bounds, bounds[1:]) if b > a])
        cut = min(recut, partials.num_rows)
        parts = [p for p in (partials.slice(0, cut), partials.slice(cut))
                 if p.num_rows]
        phase1 = wide.merge_entities(
            pa.concat_tables([wide.merge_entities(p, wide._SALTED)
                              for p in parts]), wide._SALTED)
        assert max(phase1["salt"].to_pylist()) < salts
        got = wide._final_kernel(phase1).to_pylist()
        by_key: dict[str, list] = {}
        for m in mention_rows_from_linked(rows):
            by_key.setdefault(m["entity_key"], []).append(m)
        want = [merge_entity_group(by_key[k]) for k in sorted(by_key)]
        assert got == want


# dedup-key parts that Arrow's ASCII kernels cannot take as they are: the
# Kelvin sign and 'İ' lower to ASCII, \v is (?a)\s but not RE2's \s,
# \x1c-\x1f are Unicode but not ASCII whitespace, NBSP, punctuation only;
# each next to an ASCII part it must (or must not) share a key with
_parts = st.one_of(
    st.sampled_from(["\u212a", "k", "\u212aelvin", "Kelvin", "\u0130", "i",
                     "\u0130stanbul", "istanbul", "a\vb", "a b", "ab",
                     "a\x1cb\x1f", "\x1f", "a\xa0b", "!!", "...", "",
                     "Acme Corp", "acme  corp!", "ACME\tCORP", "\u00df", "ss",
                     "\u03a3", "\u0391\u03a3 x", "caf\u00e9", "caf"]),
    st.text(max_size=5))
_triple_rows = st.lists(st.fixed_dictionaries({
    "url": st.sampled_from(["u", "\u00fc", "a/b"]),
    "seg_id": st.integers(0, 2),  # many (url, seg_id) ties
    "subj": _parts,
    "pred": st.sampled_from(["acquired", "p"]),
    "obj": st.one_of(st.sampled_from(["Globex", "GLOBEX.", "k", "\u212a"]),
                     _parts),
    "conf": st.floats(0.0, 1.0, width=32),
}), min_size=1, max_size=30)
# keywords that only Python's lower() finds ('İ' -> 'i̇', final sigma),
# that are non-ASCII, or that match everything
_HOSTILE_CATS = (["marks", "acts", "general", "empty"],
                 {"marks": ["i\u0307", "\u03c2", "\u00df", "\x1f"],
                  "acts": ["acquired", "k", "i"], "empty": [""]})


def _linked_row(subj, obj="Globex", url="u", seg_id=0, conf=0.5):
    return {"url": url, "seg_id": seg_id, "subj": subj, "pred": "p",
            "obj": obj, "conf": conf}


# each hostile part next to the ASCII part it shares a key with, and
# same-key rows tied on (url, seg_id)
_HOSTILE_ROWS = [
    _linked_row("a\vb"), _linked_row("a b"), _linked_row("a\x1cb\x1f"),
    _linked_row("ab"), _linked_row("a\xa0b", conf=0.75),
    _linked_row("\u212a", obj="\u212a"), _linked_row("k", obj="K"),
    _linked_row("\u0130stanbul"), _linked_row("istanbul", seg_id=1),
    _linked_row("!!"), _linked_row("..."), _linked_row(""),
    _linked_row("acme  corp!", url="\u00fc"), _linked_row("Acme Corp", url="\u00fc"),
    _linked_row("\u0391\u03a3 x", url="a/b", seg_id=2),
]


class TestTripleKernel:
    """``wide.dedup_partials`` -> ``wide.merge_triples`` -> ``wide.final_triples``
    (the Arrow dedup + categorize kernels) over linked rows split into
    arbitrary batches, the partials re-merged in any split, equals
    ``merge_triple_group`` + ``categorize_triple`` per dedup key."""

    @given(_triple_rows, st.lists(st.integers(0, 30), max_size=4),
           st.integers(0, 30), st.booleans())
    @example(_HOSTILE_ROWS, [4, 9], 5, True)
    @example(_HOSTILE_ROWS, [], 0, False)
    @settings(max_examples=150, deadline=None)
    def test_equals_merge_triple_group(self, rows, cuts, recut, hostile):
        import pyarrow as pa

        from kgx import config_loader
        from kgx.functions.pipeline_core import (categorize_triple,
                                                 triple_dedup_key)
        from kgx.stages import wide

        if hostile:
            cat_order, cat_kw = _HOSTILE_CATS
        else:
            c = config_loader.resolve_settings()["categories"]
            cat_order, cat_kw = c["order"], c["keywords"]
        t = pa.Table.from_pylist(rows, schema=pa.schema([
            ("url", pa.string()), ("seg_id", pa.int32()), ("subj", pa.string()),
            ("pred", pa.string()), ("obj", pa.string()), ("conf", pa.float32())]))
        bounds = sorted({0, t.num_rows, *(min(c, t.num_rows) for c in cuts)})
        partials = pa.concat_tables(
            [wide.dedup_partials(t.slice(a, b - a))
             for a, b in zip(bounds, bounds[1:]) if b > a])
        cut = min(recut, partials.num_rows)
        merged = pa.concat_tables(
            [wide.merge_triples(p) for p in (partials.slice(0, cut),
                                             partials.slice(cut)) if p.num_rows])
        got = wide.final_triples(merged, cat_order, cat_kw).to_pylist()

        groups: dict[tuple, list] = {}
        for r in rows:
            groups.setdefault(triple_dedup_key(r), []).append(r)
        want = []
        for g in groups.values():
            m = merge_triple_group(g)
            want.append({**m, "category": categorize_triple(m, cat_order, cat_kw)})

        def key(r):
            return r["subj"], r["pred"], r["obj"]

        assert sorted(got, key=key) == sorted(want, key=key)


class TestPayloadCodec:
    @given(st.binary(max_size=500), st.integers(0, 65535), st.integers(0, 65535))
    def test_roundtrip(self, body, w, h):
        assert decode_payload(encode_payload(body, w, h)) == (w, h, len(body))

    @given(st.binary(max_size=50))
    def test_garbage_fails_open(self, junk):
        out = decode_payload(junk)
        assert out is None or junk[:4] == b"KX1\x00"


class TestRound2Properties:
    """Property tests for the round-2 operators: BPE tokenizer parity with
    DuckDB, repetition-stat parity, and sessionization kernel vs a serial
    brute force."""

    ascii_texts = st.text(
        alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E),
        max_size=120,
    )

    @settings(max_examples=60, deadline=None)
    @given(ascii_texts)
    def test_bpe_count_python_equals_duckdb(self, s):
        import duckdb

        from kgx.functions import textstats as ts

        con = duckdb.connect()
        got = con.execute(f"select {ts.sql_n_bpe_tokens('?')}", [s]).fetchone()[0]
        assert int(got) == ts.n_bpe_tokens(s), repr(s)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from("aa bb cc dd ee".split()), max_size=30))
    def test_repetition_python_equals_duckdb(self, words):
        import duckdb

        from kgx.functions import textstats as ts

        text = " ".join(words)
        con = duckdb.connect()
        con.execute("CREATE TABLE documents(doc_id BIGINT, text VARCHAR)")
        con.execute("INSERT INTO documents VALUES (0, ?)", [text])
        row = con.execute(ts.sql_repetition("coalesce(text,'')")).fetchone()
        want = ts.repetition_row(text)
        assert (row[1], row[2], row[3]) == (
            want["n_tri"], want["n_uniq"], want["rep_pass"]
        ), text

    def _brute_sessions(self, events, gap_us):
        by_user = {}
        for eid, ts_us, uid in events:
            by_user.setdefault(uid, []).append((ts_us, eid))
        out = []
        for uid, evs in by_user.items():
            evs.sort()
            cur = None
            for ts_us, _ in evs:
                if cur is None or ts_us - cur[-1] > gap_us:
                    if cur:
                        out.append((uid, cur[0], len(cur)))
                    cur = [ts_us]
                else:
                    cur.append(ts_us)
            if cur:
                out.append((uid, cur[0], len(cur)))
        return sorted(out)

    @settings(max_examples=10, deadline=None)
    @given(
        raw=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 10_000)),
            min_size=1, max_size=60, unique=True,
        )
    )
    def test_sessionize_matches_brute_force(self, tmp_path_factory, ray_session, raw):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from kgx.pipelines.relational import sessionize_events

        gap_min = 1  # 60s gap on a seconds-scale synthetic stream
        events = [
            (i, ts_s * 1_000_000, uid) for i, (uid, ts_s) in enumerate(raw)
        ]
        tbl = pa.table(
            {
                "event_id": [e[0] for e in events],
                "ts": pa.array([e[1] for e in events], type=pa.timestamp("us")),
                "user_id": [e[2] for e in events],
            }
        )
        d = tmp_path_factory.mktemp("sess")
        pq.write_table(tbl, d / "events.parquet")
        out = sessionize_events(str(d), gap_minutes=gap_min).to_pandas()
        got = sorted(
            (int(r.user_id), int(r.session_start_us), int(r.n_events))
            for r in out.itertuples()
        )
        assert got == self._brute_sessions(events, gap_min * 60 * 1_000_000)
