"""Unit tests for mention matching, triple extraction and linking, and
for the batch kernel against the per-row functions (no Ray, except the
stage-cache test)."""

from __future__ import annotations

import copy
import re

import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgx import config_loader, schema, synth
from kgx.functions.extract_kg import (
    AliasMatcher,
    BatchLinker,
    PredicateMatcher,
    _alternation,
    _trie,
    extract_raw_triples,
    link_surface,
)
from kgx.functions.pipeline_core import link_raw_triple, raw_triples_for_segment
from kgx.functions.text import hash_embed, tokenize
from kgx.stages import kg_stages

ALIASES = [
    {"alias": "Acme Corp", "entity_id": 0, "canonical_name": "Acme Corp", "ner_type": "ORG", "prior": 1.0},
    {"alias": "Acme", "entity_id": 0, "canonical_name": "Acme Corp", "ner_type": "ORG", "prior": 0.7},
    {"alias": "Acme", "entity_id": 1, "canonical_name": "Acme Systems", "ner_type": "ORG", "prior": 0.3},
    {"alias": "Acme Systems", "entity_id": 1, "canonical_name": "Acme Systems", "ner_type": "ORG", "prior": 1.0},
    {"alias": "Globex", "entity_id": 2, "canonical_name": "Globex Corp", "ner_type": "ORG", "prior": 1.0},
    {"alias": "Springfield", "entity_id": 3, "canonical_name": "Springfield", "ner_type": "LOC", "prior": 1.0},
]
RULES = [
    {"phrase": "acquired", "pred": "acquired", "conf": 0.9},
    {"phrase": "is headquartered in", "pred": "headquartered_in", "conf": 0.95},
]


class TestAliasMatcher:
    def test_leftmost_longest(self):
        m = AliasMatcher(ALIASES)
        found = m.find("Acme Systems acquired Globex.")
        assert found[0][2] == "Acme Systems"  # not the shorter "Acme"

    def test_case_insensitive_and_boundaries(self):
        m = AliasMatcher(ALIASES)
        assert m.find("ACME CORP rocks")[0][2] == "ACME CORP"
        assert m.find("Acmeish things") == []  # word boundary respected

    def test_empty_dict(self):
        assert AliasMatcher([]).find("anything") == []


class TestTripleExtraction:
    def setup_method(self):
        self.am = AliasMatcher(ALIASES)
        self.pm = PredicateMatcher(RULES)

    def test_simple_svo(self):
        rows = extract_raw_triples("Acme Corp acquired Globex.", self.am, self.pm)
        assert len(rows) == 1
        r = rows[0]
        assert (r["subj_surface"], r["pred"], r["obj_surface"]) == ("Acme Corp", "acquired", "Globex")

    def test_longest_predicate_phrase_wins(self):
        rows = extract_raw_triples(
            "Globex is headquartered in Springfield.", self.am, self.pm
        )
        assert rows[0]["pred"] == "headquartered_in"

    def test_no_mentions_fail_open(self):
        assert extract_raw_triples("Nothing acquired nothing.", self.am, self.pm) == []
        assert extract_raw_triples("", self.am, self.pm) == []

    def test_two_sentences_two_triples(self):
        rows = extract_raw_triples(
            "Acme Corp acquired Globex. Globex is headquartered in Springfield.",
            self.am, self.pm,
        )
        assert [r["pred"] for r in rows] == ["acquired", "headquartered_in"]

    def test_subject_is_nearest_preceding_mention(self):
        rows = extract_raw_triples(
            "Springfield Acme Systems acquired Globex.", self.am, self.pm
        )
        assert rows[0]["subj_surface"] == "Acme Systems"


class TestLinking:
    def setup_method(self):
        self.am = AliasMatcher(ALIASES)
        self.emb = {
            0: hash_embed(tokenize("Acme Corp"), 32),
            1: hash_embed(tokenize("Acme Systems"), 32),
            2: hash_embed(tokenize("Globex Corp"), 32),
        }

    def _link(self, surface, ctx):
        toks = set(tokenize(ctx))
        vec = hash_embed(sorted(toks), 32)
        return link_surface(surface, toks, vec, self.am, self.emb,
                            w_alias=0.5, w_embed=0.3, w_ctx=0.2, min_score=0.15)

    def test_unambiguous(self):
        name, key, eid = self._link("Globex", "Globex did a thing")
        assert (name, eid) == ("Globex Corp", 2)

    def test_ambiguous_prior_wins_without_context(self):
        name, _, eid = self._link("Acme", "something happened")
        assert eid == 0  # higher prior

    def test_context_can_flip_ambiguous(self):
        name, _, eid = self._link("Acme", "Acme Systems shipped new systems hardware")
        assert eid in (0, 1)  # deterministic either way
        # and deterministic across calls
        assert self._link("Acme", "Acme Systems shipped new systems hardware")[2] == eid

    def test_nil_fallback(self):
        name, key, eid = self._link("Unknown Startup", "ctx")
        assert eid == -1
        assert name == "Unknown Startup"
        assert key == "unknown startup"


class TestCaseFolding:
    """``AliasMatcher.find`` scans ASCII the fast way (lowered text, lowered
    pattern) and must equal the plain ``IGNORECASE`` scan everywhere."""

    TEXTS = [
        "ACME CORP bought acme systems; Acme.",
        "Acmeish ACME\0acme corp\0",
        "\u212aelvin Labs met kelvin labs and KELVIN LABS",  # Kelvin sign K
        "\u0130stanbul Bank, istanbul bank and \u0130STANBUL BANK",  # dotted capital I
        "Z\u00fcrich Re and Z\u00dcRICH RE\0Acme Corp\0stra\u00dfe haus",
        "Ha\u017ft AG and HAST AG and hast ag",  # long s
        "HAST AG and hast ag",  # ASCII that a folding alias matches
        "",
    ]

    @pytest.mark.parametrize("extra", [[], ["ha\u017ft ag"]], ids=["ascii_fast", "folding_alias"])
    def test_find_equals_ignorecase_scan(self, extra):
        names = ["Acme Corp", "Acme", "Acme Systems", "Kelvin Labs", "Istanbul Bank",
                 "\u0130stanbul Bank", "Z\u00fcrich Re", "Stra\u00dfe Haus", *extra]
        m = AliasMatcher([{"alias": a, "entity_id": i, "canonical_name": a,
                           "ner_type": "ORG", "prior": 1.0} for i, a in enumerate(names)])
        assert m.lexicon._fast == (not extra)  # a folding alias turns the fast scan off
        keys = sorted(m.index, key=len, reverse=True)
        plain = re.compile(r"\b(?:" + "|".join(map(re.escape, keys)) + r")\b", re.IGNORECASE)
        for text in self.TEXTS:
            want = [(x.start(), x.end(), x.group(0)) for x in plain.finditer(text)]
            assert m.find(text) == want, text


    def test_predicate_matched_through_dotted_capital_i(self):
        """IGNORECASE matches 'İ' to 'i', but 'İ'.lower() is two code
        points, so the lowered surface is no phrase."""
        m = PredicateMatcher([{"phrase": "acquired", "pred": "acquired", "conf": 0.9}])
        assert m.find("Acme ACQU\u0130RED Globex") == [(5, 13, "acquired", 0.9)]
        assert m.find("Acme acquired Globex") == [(5, 13, "acquired", 0.9)]


class TestTrie:
    """The prefix-tree pattern of the lowered ASCII scan finds the spans of
    the longest-first alternation it replaced."""

    @given(keys=st.lists(st.text(alphabet="ab .-", max_size=5), min_size=1, max_size=8),
           text=st.text(alphabet="ab .-\0", max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_equals_alternation(self, keys, text):
        keys = sorted(set(keys), key=len, reverse=True)
        want = [m.span() for m in _alternation(keys, 0).finditer(text)]
        assert [m.span() for m in _trie(keys).finditer(text)] == want

    LEXICON = ["bank", "bank of x", "bank of xy", "acme sys", "acme", "ha\u017ft ag",
               "\u0130stanbul bank", "kelvin", "kelvin labs", "z\u00fcrich"]
    TEXTS = [
        "Bank of X and bank of xylophones, BANK OF XY, banks of x",
        "Acme Systems met ACME SYS and acme syste",  # an alias ending inside a word
        "\u212aelvin Labs, KELVIN LABS\0kelvin labsx, \u212aELVIN",  # Kelvin sign
        "Ha\u017ft AG, HAST AG\0hast ag \u017f",  # long s
        "\u0130stanbul Bank, istanbul bank, \u0130STANBUL BANK",  # dotted capital I
        "bank\0of x\0bank of x\0\0Z\u00fcrich\0zurich",  # NUL pieces
        "",
    ]

    @pytest.mark.parametrize("ascii_only", [True, False])
    def test_hostile_lexicon(self, ascii_only):
        names = [k for k in self.LEXICON if k.isascii() or not ascii_only]
        m = AliasMatcher([{"alias": a, "entity_id": i, "canonical_name": a,
                           "ner_type": "ORG", "prior": 1.0} for i, a in enumerate(names)])
        assert m.lexicon._fast == ascii_only  # the long s turns the fast scan off
        plain = _alternation(sorted(m.index, key=len, reverse=True), re.IGNORECASE)
        for text in self.TEXTS:
            want = [(x.start(), x.end(), x.group(0)) for x in plain.finditer(text)]
            assert m.find(text) == want, text

    def test_deep_nesting_falls_back(self):
        keys = ["a" * i for i in range(1500, 0, -1)]  # each a prefix of the next
        assert [m.span() for m in _trie(keys).finditer("a" * 20 + " " + "a" * 1501)] == [(0, 20)]


def _serial_table(segs: list[dict], alias_rows, embeddings, cfg) -> pa.Table:
    """The serial oracle's per-row extraction and linking."""
    am = AliasMatcher(alias_rows)
    pm = PredicateMatcher(cfg["rules"]["predicates"])
    rows = [link_raw_triple(raw, am, embeddings, cfg)
            for seg in segs for raw in raw_triples_for_segment(seg, am, pm, cfg)]
    return kg_stages._rows_to_table(rows, kg_stages.LINKED_FULL)


def _assert_batch_equals_serial(segs: list[dict], alias_rows, embeddings, cfg) -> pa.Table:
    want = _serial_table(segs, alias_rows, embeddings, cfg)
    table = pa.Table.from_pylist(segs, schema=schema.SEGMENTS)
    got = kg_stages.linked_table(BatchLinker(alias_rows, embeddings, cfg), table)
    assert got.schema == want.schema
    assert got.to_pylist() == want.to_pylist()  # rows and their order
    assert got.equals(want)
    return got


def _segments(texts: list[str]) -> list[dict]:
    return [{"url": f"u{i % 3}", "seg_id": i, "begin": 0, "end": len(t), "text": t,
             "lang": "en"} for i, t in enumerate(texts)]


@pytest.fixture(scope="module")
def cfg():
    return config_loader.resolve_settings()


@pytest.fixture(scope="module")
def kb():
    return synth.build_knowledge_base()


class TestBatchLinkerEqualsPerRow:
    def test_generated_pages(self, cfg, kb):
        pages = synth.gen_pages(2000, seed=3, kb=kb)
        segs = kg_stages.SegmentPages(cfg)(kg_stages.extract_text_batch(pages)).to_pylist()
        alias_rows = kb["alias_table"].to_pylist()
        emb = {r["entity_id"]: r["embedding"] for r in kb["embedding_table"].to_pylist()}
        got = _assert_batch_equals_serial(segs, alias_rows, emb, cfg)
        assert got.num_rows > 1000

    def test_hostile_segments(self, cfg):
        cfg = copy.deepcopy(cfg)
        cfg["processing"]["triples"].update(min_conf=0.1, max_obj_chars=12)
        cfg["processing"]["linker"].update(w_alias=0.5, w_embed=0.3, w_ctx=0.5)
        cfg["filters"]["min_valuable_text_length"] = 3
        cfg["rules"]["predicates"] = [
            {"phrase": "acquired", "pred": "acquired", "conf": 0.9},
            {"phrase": "met with", "pred": "met", "conf": 0.8},
            {"phrase": "mentioned", "pred": "mentioned", "conf": 0.05},  # below min_conf
        ]
        names = {
            1: "Ada Doe", 2: "Globex Corp", 3: "Kelvin Labs", 4: "Istanbul Bank",
            5: "Zurich Re Holdings", 6: "AB", 7: "Twin Alpha", 8: "Acme Systems International",
            9: "Gemini One",
        }
        alias_rows = [{"alias": a, "entity_id": e, "canonical_name": names[e],
                       "ner_type": "ORG", "prior": p} for a, e, p in [
            ("Dr. Ada Doe", 1, 1.0), ("Ada Doe", 1, 0.9), ("Globex", 2, 1.0),
            ("Kelvin Labs", 3, 1.0), ("Istanbul Bank", 4, 1.0),
            ("Z\u00fcrich Re", 5, 1.0), ("AB", 6, 1.0),
            # a score tie, prior against name overlap: 0.5 * 1.0 + 0.5 * 0
            # == 0.5 * 0 + 0.5 * 1.0; entity 7, second in candidate order,
            # must win on its lower entity_id
            ("Twin", 9, 1.0), ("Twin", 7, 0.0),
            ("Acme Systems International", 8, 1.0),
        ]]
        emb = {1: hash_embed(["ada", "doe"], 32),
               2: [],  # empty: scores as cos 0.0
               3: hash_embed(["kelvin"], 8),  # shorter than the context vector
               4: hash_embed(["istanbul", "bank"], 48),  # longer
               }  # 5..9: no embedding at all
        texts = [
            "Dr. Ada Doe acquired Globex. Ada Doe met with Globex today.",  # alias across a break
            "\u212aelvin Labs acquired Globex and Kelvin Labs met with Ada Doe.",  # Kelvin sign
            "\u0130stanbul Bank acquired Globex. Istanbul Bank acquired AB.",  # dotted I; short surface
            "Z\u00fcrich Re acquired Globex \u2014 caf\u00e9 news.",
            "Globex acquired nothing at all.",  # one mention
            "Ada Doe mentioned Globex.",  # conf below min_conf
            "Globex acquired Acme Systems International.",  # object truncated to 12 chars
            "Ada Doe acquired Twin alpha.",  # score tie
            "Ada Doe acquired Globex\0and Ada Doe met with Globex.",  # a NUL inside a segment
            "",
            "Globex acquired Ada Doe. Ada Doe acquired Globex acquired Kelvin Labs!",
            "Globex ACQU\u0130RED Kelvin Labs.",  # a phrase matched through 'İ'
        ]
        got = _assert_batch_equals_serial(_segments(texts), alias_rows, emb, cfg)
        rows = got.to_pylist()
        assert [r["pred"] for r in rows if r["seg_id"] == len(texts) - 1] == ["acquired"]
        assert {"acquired", "met"} == {r["pred"] for r in rows}
        assert any(r["obj_surface"] == "Acme Systems" for r in rows)
        tie = [r for r in rows if r["obj_surface"] == "Twin"]
        assert tie and tie[0]["obj_id"] == 7
        assert any(r["subj_surface"] == "\u212aelvin Labs" for r in rows)

    def test_one_non_ascii_context(self, cfg, kb):
        """The context features of a batch whose contexts are all ASCII but
        a few in the middle ('İ' and the Kelvin sign lower to ASCII, final
        sigma does not) equal ``_ctx_features`` per context: the ASCII
        contexts are lowered at once, the others one by one."""
        from kgx.functions.pipeline_core import _ctx_features

        pages = synth.gen_pages(300, seed=5, kb=kb)
        texts = kg_stages.SegmentPages(cfg)(kg_stages.extract_text_batch(pages))["text"]
        contexts = texts.to_pylist()
        i = len(contexts) // 2
        contexts[i:i] = ["\u212aelvin \u0130stanbul Labs", "\u0391\u03a3 \u03a3\u0391\0Acme"]
        emb = {r["entity_id"]: r["embedding"] for r in kb["embedding_table"].to_pylist()}
        linker = BatchLinker(kb["alias_table"].to_pylist(), emb, cfg)
        vecs, keys = linker._contexts(contexts)
        dim = cfg["processing"]["linker"]["embed_dim"]
        want = []
        for c, text in enumerate(contexts):
            toks, vec = _ctx_features(text.replace("\0", " "), dim)
            assert vecs[c].tolist() == list(vec)
            want += [c * len(linker.vocab) + linker.vocab[t] for t in toks if t in linker.vocab]
        assert sorted(keys.tolist()) == sorted(want)

    def test_scores_at_min_score(self, cfg):
        """A score exactly at ``min_score`` links and one ulp under it does
        not, so any change in how the kernel sums or orders the score
        (``.sum(axis=1)``, ``@``, regrouped terms) flips some row."""
        import numpy as np

        from kgx.functions.pipeline_core import _ctx_features
        from kgx.functions.text import overlap_asym

        rng = np.random.default_rng(7)
        n = 24
        cfg = copy.deepcopy(cfg)
        cfg["processing"]["linker"].update(w_alias=0.37, w_embed=0.29, w_ctx=0.23)
        alias_rows = [{"alias": f"Ent{i}", "entity_id": i, "canonical_name": f"Ent{i} Holdings",
                       "ner_type": "ORG", "prior": float(rng.random())} for i in range(n)]
        emb = {i: rng.standard_normal(32).tolist() for i in range(n)}
        texts = [f"Ent{i} acquired Ent{(i + 1) % n} {i}." for i in range(n)]
        lk = cfg["processing"]["linker"]
        for i, r in enumerate(alias_rows):  # Ent{i} is the subject of row i
            ctx_toks, ctx_vec = _ctx_features(texts[i], lk["embed_dim"])
            cos = 0.0
            for x, y in zip(ctx_vec, emb[i]):
                cos += x * y
            ctx = overlap_asym(set(tokenize(r["canonical_name"])), set(ctx_toks))
            score = lk["w_alias"] * r["prior"] + lk["w_embed"] * cos + lk["w_ctx"] * ctx
            for min_score in (score, np.nextafter(score, np.inf)):
                c = copy.deepcopy(cfg)
                c["processing"]["linker"]["min_score"] = float(min_score)
                got = _assert_batch_equals_serial(_segments(texts), alias_rows, emb, c)
                assert (got["subj_id"][i].as_py() == i) == (min_score == score)

    def test_nul_in_a_phrase_is_rejected(self, cfg):
        """A NUL separates the sentences of the batch buffer, so a phrase
        holding one could match across two sentences."""
        bad = dict(ALIASES[0], alias="Acme\0Corp")
        with pytest.raises(ValueError, match="NUL"):
            BatchLinker([bad], {}, cfg)

    def test_empty_batch(self, cfg, kb):
        got = _assert_batch_equals_serial([], kb["alias_table"].to_pylist(), {}, cfg)
        assert got.num_rows == 0

    def test_empty_alias_and_predicate_tables(self, cfg):
        cfg = copy.deepcopy(cfg)
        texts = ["Acme Corp acquired Globex.", "", "Nothing here."]
        got = _assert_batch_equals_serial(_segments(texts), [], {}, cfg)
        assert got.num_rows == 0
        cfg["rules"]["predicates"] = []
        got = _assert_batch_equals_serial(_segments(texts), ALIASES, {}, cfg)
        assert got.num_rows == 0


def test_linker_state_is_keyed_by_config(ray_session, cfg, kb):
    """Two TripleLinkers with the same broadcast refs and different
    predicate rules, in one process, must not share a kernel."""
    from kgx import pipeline

    refs = pipeline.broadcast_kb(kb)
    pages = synth.gen_pages(50, seed=5, kb=kb)
    segs = kg_stages.SegmentPages(cfg)(kg_stages.extract_text_batch(pages))
    only_first = copy.deepcopy(cfg)
    only_first["rules"]["predicates"] = cfg["rules"]["predicates"][:1]
    full = kg_stages.TripleLinker(refs["alias_ref"], refs["emb_ref"], cfg)(segs)
    narrow = kg_stages.TripleLinker(refs["alias_ref"], refs["emb_ref"], only_first)(segs)
    assert set(narrow["pred"].to_pylist()) == {cfg["rules"]["predicates"][0]["pred"]}
    assert set(full["pred"].to_pylist()) > set(narrow["pred"].to_pylist())
