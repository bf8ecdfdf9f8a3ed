"""Knowledge-graph extraction core: alias-dictionary mention matching,
OpenIE-style (subj, pred, obj) extraction, and weighted entity linking.

The per-row functions are pure Python and define the serial oracle
(kgx.oracle); the Ray stages run them too, except TripleLinker, which runs
the batch kernel ``BatchLinker`` that must equal them row for row.
Reference semantics inherited (SURVEY.md §2):

* mention detection  — T1/T4 stateful model stages (anonymizer.py:4-5 NER
  loaded once; tagger.py:25-52 batched tagging): here a compiled
  leftmost-longest alias automaton built once per actor.
* triple extraction  — T3 synthesizer + M13 fail-open parse
  (gemini_backend.py:51-139): rule-file-driven, malformed input yields an
  empty result, never an exception.
* entity linking     — J2/J3/J4 weighted as-of/fuzzy join (aligner.py:23-110):
  candidate generation -> bounded candidate set -> weighted combination
  w_alias*prior + w_embed*cos + w_ctx*overlap -> argmax, NIL fallback.

Batch scan (``BatchLinker``, the TripleLinker stage's kernel): a batch of
segments is split into sentences with ``_SENT_END_RE`` (the ends of
``_SENT_BOUND_RE``) and the sentences are joined into one buffer with a
NUL sentinel, which no alias, predicate or sentence boundary can match.
One predicate scan and one alias scan cover
the whole buffer; matches map back to sentences with ``np.searchsorted``,
subject/object choice and the filters run as arrays, and every
(side, alias candidate) pair is scored as one array.  The per-row functions
below stay the serial oracle's definition, and the batch kernel must equal
them row for row, in order.  The exactness rules it keeps:

* scan sentences, never whole segments — aliases such as ``Dr. Ada Doe``
  contain ``". "``, which ``_SENT_BOUND_RE`` splits;
* dot products accumulate in index order, one vector add per dimension
  starting from 0.0 (row-wise ``@``/``np.dot``, ``einsum`` and
  ``.sum(axis=1)`` reorder the additions and differ in the last bit);
* the score adds in ``link_surface``'s order, ``(w_alias*prior +
  w_embed*cos) + w_ctx*overlap``; the argmax is a lexsort on
  (-score, entity_id) with candidate order breaking exact ties;
* context vectors are ``hash_embed``'s: entries are sums of +-1.0, exact in
  any order, and the norm is Python's ``** 0.5`` of each row's sum;
* case folding has one rule, ``_Lexicon.spans``: a lowered pattern on
  lowered text only for ASCII text (``'İ'.lower()`` is two code points and
  would shift offsets; ``IGNORECASE`` also matches the Kelvin sign to
  ``k``), else the ``IGNORECASE`` pattern, decided per NUL-delimited piece
  of the buffer; surfaces are always sliced from the original text.

The alias automaton is a prefix-tree regex (``_trie``): for the lowered
ASCII scan, which finds nearly every span, the phrases are factored by
common prefix, so the scan tries one branch per character where a sorted
alternation tries every phrase at each position; the rare ``IGNORECASE``
scan keeps the sorted alternation, which case folding cannot make
ambiguous.  Both find the same spans.  At web scale an Aho-Corasick
automaton could replace both behind ``_Lexicon.spans``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

import numpy as np

from .text import (
    _SENT_BOUND_RE,
    _SENT_END_RE,
    _TOKEN_RE,
    hash_bucket,
    normalize_entity_key,
    overlap_asym,
    tokenize,
)

_ASCII = "".join(map(chr, range(128)))


def _alternation(keys: list[str], flags: int) -> re.Pattern:
    return re.compile(r"\b(?:" + "|".join(re.escape(k) for k in keys) + r")\b", flags)


def _trie(keys: list[str]) -> re.Pattern:
    """``_alternation(keys, 0)``, ``keys`` longest first, as a prefix tree:
    ``ab|a`` becomes ``a(?:b)?``, and the scan tries one child per character
    instead of every phrase at each position.

    At each node the children are tried before ending there, so the deepest
    phrase followed by ``\\b`` wins.  When each text character can match at
    most one child of a node, every phrase matching at a position lies on
    the one path the text spells, so deepest is longest and the spans equal
    the alternation's.  Without ``IGNORECASE`` a character matches only
    itself, so that always holds; with it, case folding can match one
    character to two children (``s`` and the long s), which is why the
    ``IGNORECASE`` pattern stays an alternation.  Phrases nested about a
    thousand deep (each a prefix of the next) exceed the recursion limit of
    the tree and of ``re``, and get the alternation too."""
    root: dict = {}
    for k in keys:
        node = root
        for ch in k:
            node = node.setdefault(ch, {})
        node[""] = {}  # a phrase ends here

    def body(node: dict) -> str:
        out = ""
        while len(node) == 1 and "" not in node:  # a chain: no group
            (ch, node), = node.items()
            out += re.escape(ch)
        alts = [re.escape(ch) + body(child) for ch, child in sorted(node.items()) if ch]
        if not alts:
            return out
        group = "(?:" + "|".join(alts) + ")"
        return out + (group + "?" if "" in node else group)

    try:
        return re.compile(r"\b(?:" + body(root) + r")\b")
    except RecursionError:
        return _alternation(keys, 0)


class _Lexicon:
    """Leftmost-longest, word-bounded, case-insensitive scan over lowercased
    phrases: the one case-folding rule of the aliases and the predicates.

    ``IGNORECASE`` over the original text is the definition.  ASCII text is
    instead lowered and scanned with a lowered pattern without the flag,
    which finds the same spans about 4x faster; that pattern is a prefix
    tree (``_trie``), about 3x faster again than the alternation.  It keeps
    only the ASCII phrases: a non-ASCII phrase can match ASCII text only
    through a character that case-folds to ASCII (the long s, the Kelvin
    sign, the dotless i), and any such phrase turns the fast scan off
    altogether.

    A NUL matches no phrase and is a non-word character, so no match
    crosses one and a scan may restart after it: ``spans`` scans each
    NUL-delimited run of pieces that is ASCII the fast way, and only the
    pieces holding a non-ASCII character with ``IGNORECASE``.
    """

    def __init__(self, keys):
        alts = sorted(keys, key=len, reverse=True)  # longest first
        self.pattern = _alternation(alts, re.IGNORECASE) if alts else None
        self._fast = not any(
            "\0" in k
            or not k.isascii() and all(ch.isascii() or _folds_to_ascii(ch) for ch in k)
            for k in alts
        )
        ascii_alts = [k for k in alts if k.isascii()]
        self._ascii = _trie(ascii_alts) if ascii_alts else None
        self._alts = alts

    def key(self, surface: str) -> str:
        """The phrase a span of ``spans`` matched: its ``lower()``, or when
        that is no phrase (``IGNORECASE`` matches 'İ' to 'i', but
        'İ'.lower() is two code points) the first phrase, longest first,
        that matches the whole span — the alternation's own choice, since
        any phrase matching the whole span would have matched at its
        start."""
        low = surface.lower()
        if low in self._alts:
            return low
        return next(k for k in self._alts
                    if re.fullmatch(re.escape(k), surface, re.IGNORECASE))

    def spans(self, text: str) -> list[tuple[int, int]]:
        """Non-overlapping (begin, end) matches, left to right."""
        if self.pattern is None:
            return []
        if not self._fast:
            return [m.span() for m in self.pattern.finditer(text)]
        out: list[tuple[int, int]] = []
        pos, n = 0, len(text)
        while pos < n:
            m = _NON_ASCII_RE.search(text, pos)
            if m is None:
                cut = end = n
            else:  # [cut, end): the NUL-delimited piece around m
                cut = max(text.rfind("\0", pos, m.start()), pos)
                end = text.find("\0", m.end())
                end = n if end < 0 else end
            if cut > pos and self._ascii is not None:
                out += _shifted(self._ascii.finditer(text[pos:cut].lower()), pos)
            if end > cut:
                out += _shifted(self.pattern.finditer(text[cut:end]), cut)
            pos = end
        return out


def _shifted(matches, by: int) -> list[tuple[int, int]]:
    return [(m.start() + by, m.end() + by) for m in matches]


_NON_ASCII_RE = re.compile(r"[^\x00-\x7f]")


@lru_cache(maxsize=None)
def _folds_to_ascii(ch: str) -> bool:
    return re.compile(re.escape(ch), re.IGNORECASE).search(_ASCII) is not None


@dataclass(frozen=True)
class AliasCandidate:
    entity_id: int
    canonical_name: str
    ner_type: str
    prior: float


class AliasMatcher:
    """Case-insensitive leftmost-longest surface matcher over an alias dict.

    Built ONCE per actor (``__init__`` of the stage class) from the broadcast
    alias table; matching per batch is a single compiled-regex scan.
    """

    def __init__(self, alias_rows: list[dict]):
        # alias_rows: [{alias, entity_id, canonical_name, ner_type, prior}]
        self.index: dict[str, list[AliasCandidate]] = {}
        for r in alias_rows:
            self.index.setdefault(r["alias"].lower(), []).append(
                AliasCandidate(int(r["entity_id"]), r["canonical_name"],
                               r["ner_type"], float(r["prior"]))
            )
        for v in self.index.values():
            # deterministic candidate order: prior desc, entity_id asc
            v.sort(key=lambda c: (-c.prior, c.entity_id))
        self.lexicon = _Lexicon(self.index)

    def find(self, text: str) -> list[tuple[int, int, str]]:
        """Non-overlapping (begin, end, surface) matches, left to right."""
        return [(b, e, text[b:e]) for b, e in self.lexicon.spans(text)]

    def candidates(self, surface: str) -> list[AliasCandidate]:
        return self.index.get(surface.lower(), [])


class PredicateMatcher:
    """Leftmost-longest matcher over the predicate phrase lexicon
    (config/rules/predicates.yaml — the reference's editable prompt-file
    analog, SURVEY.md §2.10)."""

    def __init__(self, rules: list[dict]):
        self.by_phrase = {r["phrase"].lower(): (r["pred"], float(r["conf"])) for r in rules}
        self.lexicon = _Lexicon(self.by_phrase)

    def find(self, text: str) -> list[tuple[int, int, str, float]]:
        """(begin, end, canonical_pred, conf) occurrences."""
        spans = self.lexicon.spans(text)
        try:
            return [(b, e, *self.by_phrase[text[b:e].lower()]) for b, e in spans]
        except KeyError:
            return [(b, e, *self.by_phrase[self.lexicon.key(text[b:e])])
                    for b, e in spans]


def sentence_bounds(text: str) -> list[tuple[int, int]]:
    starts = [0]
    for m in _SENT_BOUND_RE.finditer(text):
        starts.append(m.end())
    starts.append(len(text))
    return [(starts[i], starts[i + 1]) for i in range(len(starts) - 1)]


def extract_raw_triples(
    seg_text: str,
    aliases: AliasMatcher,
    predicates: PredicateMatcher,
    min_conf: float = 0.0,
    max_obj_chars: int = 500,
) -> list[dict]:
    """SVO extraction within one segment, sentence by sentence.

    Per sentence: for each predicate occurrence, subject = the nearest
    mention ending at or before the predicate, object = the nearest mention
    starting at or after it (bounded candidate window — the reference's
    ±3-frame candidate window semantics, processing.yaml:53-58).  Fail-open:
    a sentence with no parse emits nothing (M13 contract).
    """
    out: list[dict] = []
    for sb, se in sentence_bounds(seg_text):
        sent = seg_text[sb:se]
        preds = predicates.find(sent)
        if not preds:
            continue
        ments = aliases.find(sent)
        if len(ments) < 2:
            continue
        for pb, pe, pred, conf in preds:
            if conf < min_conf:
                continue
            subj = None
            for mb, me, msurf in ments:
                if me <= pb:
                    subj = (mb, me, msurf)  # last mention before the predicate
                elif mb >= pe:
                    break
            obj = None
            for mb, me, msurf in ments:
                if mb >= pe:
                    obj = (mb, me, msurf)  # first mention after the predicate
                    break
            if subj is None or obj is None:
                continue
            out.append(
                {
                    "subj_surface": subj[2],
                    "pred": pred,
                    "obj_surface": obj[2][:max_obj_chars],
                    "conf": conf,
                    "context": sent.strip(),
                }
            )
    return out


# ---------------------------------------------------------------------------
# Entity linking
# ---------------------------------------------------------------------------


def link_surface(
    surface: str,
    ctx_tokens: set[str],
    ctx_vec: list[float],
    aliases: AliasMatcher,
    embeddings: dict[int, list[float]],
    w_alias: float,
    w_embed: float,
    w_ctx: float,
    min_score: float,
) -> tuple[str, str, int]:
    """Resolve a surface form -> (canonical_name, entity_key, entity_id).

    Weighted argmax over alias candidates (J2 semantics, aligner.py:59-81);
    deterministic tie-break (score desc, entity_id asc); fallback = NIL:
    canonical name is the surface itself, key its normalized form, id -1
    (the reference's closest-frame-text fallback, aligner.py:77-81).
    """
    cands = aliases.candidates(surface)
    best: tuple[float, int, AliasCandidate] | None = None
    for c in cands:
        emb = embeddings.get(c.entity_id)
        if emb:
            # both sides come out of hash_embed L2-normalized, so the
            # cosine IS the dot product — skips two norm recomputations
            # per candidate on the hottest loop of phase A
            cos = 0.0
            for x, y in zip(ctx_vec, emb):
                cos += x * y
        else:
            cos = 0.0
        name_toks = set(tokenize(c.canonical_name))
        ctx = overlap_asym(name_toks, ctx_tokens)
        score = w_alias * c.prior + w_embed * cos + w_ctx * ctx
        keyed = (-score, c.entity_id)
        if best is None or keyed < (-best[0], best[1]):
            best = (score, c.entity_id, c)
    if best is not None and best[0] >= min_score:
        c = best[2]
        return c.canonical_name, normalize_entity_key(c.canonical_name), c.entity_id
    return surface, normalize_entity_key(surface), -1


# ---------------------------------------------------------------------------
# Batch kernel
# ---------------------------------------------------------------------------


class BatchLinker:
    """Segments -> linked triples, a batch at a time: the TripleLinker
    stage's kernel.  Its rows equal, in value and order,
    ``raw_triples_for_segment`` then ``link_raw_triple`` over each segment
    (the serial oracle); the module docstring lists the exactness rules.

    Built once per process.  It holds the alias candidates as flat arrays in
    ``AliasMatcher.candidates`` order: entity id, prior, embedding row, name
    token ids.
    """

    def __init__(self, alias_rows: list[dict], embeddings: dict[int, list[float]], cfg: dict):
        st = self.settings(cfg)
        self.aliases = AliasMatcher(alias_rows)
        self.predicates = PredicateMatcher(st["predicates"])
        self.min_conf = st["triples"]["min_conf"]
        self.max_obj_chars = st["triples"]["max_obj_chars"]
        self.min_len = st["min_valuable_text_length"]
        lk = st["linker"]
        self.w_alias, self.w_embed, self.w_ctx = lk["w_alias"], lk["w_embed"], lk["w_ctx"]
        self.min_score, self.dim = lk["min_score"], lk["embed_dim"]

        by_phrase = self.predicates.by_phrase
        self.pred_of = {phrase: i for i, phrase in enumerate(by_phrase)}
        self.pred_name = [pred for pred, _ in by_phrase.values()]
        self.pred_conf = np.array([conf for _, conf in by_phrase.values()], dtype=np.float64)

        if any("\0" in k for k in (*self.aliases.index, *by_phrase)):
            raise ValueError("an alias or predicate phrase holds a NUL, the "
                             "character that separates sentences in the batch buffer")

        self.span: dict[str, tuple[int, int]] = {}  # alias key -> (first, count)
        cands: list[AliasCandidate] = []
        for key, cs in self.aliases.index.items():
            self.span[key] = (len(cands), len(cs))
            cands.extend(cs)
        self.eid = np.array([c.entity_id for c in cands], dtype=np.int64)
        self.prior = np.array([c.prior for c in cands], dtype=np.float64)
        self.name = [c.canonical_name for c in cands]
        self.name_key = [normalize_entity_key(c.canonical_name) for c in cands]
        # link_surface scores a missing or empty embedding as cos 0.0, and
        # its zip() stops at the shorter vector: zero rows and zero padding
        # add only +-0.0 to the running sum, so both are reproduced
        self.emb = np.zeros((len(cands), self.dim))
        for i, c in enumerate(cands):
            v = embeddings.get(c.entity_id)
            if v:
                v = list(v)[: self.dim]
                self.emb[i, : len(v)] = v
        self.vocab: dict[str, int] = {}
        toks = [sorted({self.vocab.setdefault(t, len(self.vocab))
                        for t in tokenize(c.canonical_name)}) for c in cands]
        self.n_tok = np.array([len(t) for t in toks], dtype=np.int64)
        self.tok_first = np.cumsum(self.n_tok) - self.n_tok
        self.tok_id = np.array([i for t in toks for i in t], dtype=np.int64)

    @staticmethod
    def settings(cfg: dict) -> dict:
        """Every config value the kernel reads, so a per-process cache of
        kernels can key on exactly these."""
        return {
            "predicates": cfg["rules"]["predicates"],
            "triples": cfg["processing"]["triples"],
            "linker": cfg["processing"]["linker"],
            "min_valuable_text_length": cfg["filters"].get("min_valuable_text_length", 0),
        }

    def __call__(self, texts: list[str]) -> tuple[np.ndarray, dict]:
        """Linked triples of the segment texts: the index of each row's
        segment, and the LINKED_FULL columns other than url and seg_id."""
        buf, sent_start, sent_seg = _sentence_buffer(texts)
        pspan = self.predicates.lexicon.spans(buf)
        aspan = self.aliases.lexicon.spans(buf) if pspan else []
        if len(aspan) < 2:  # no sentence holds two mentions
            none = np.zeros(0, np.int64)
            return none, _columns([], [], ([], [], none), [], np.zeros(0, np.float32))
        pb, pe = np.array(pspan, dtype=np.int64).reshape(-1, 2).T
        ab, ae = np.array(aspan, dtype=np.int64).reshape(-1, 2).T
        try:
            pid = np.fromiter((self.pred_of[buf[b:e].lower()] for b, e in pspan),
                              np.int64, len(pspan))
        except KeyError:
            pid = np.fromiter((self.pred_of[self.predicates.lexicon.key(buf[b:e])]
                               for b, e in pspan), np.int64, len(pspan))
        conf = self.pred_conf[pid]

        # subject: the last mention ending at or before the predicate;
        # object: the first starting at or after it; both in its sentence
        p_sent = np.searchsorted(sent_start, pb, "right") - 1
        a_sent = np.searchsorted(sent_start, ab, "right") - 1
        subj = np.searchsorted(ae, pb, "right") - 1
        obj = np.searchsorted(ab, pe, "left")
        last = len(ab) - 1
        # (a sentence with one mention has no subject-object pair, so the
        # oracle's "fewer than 2 mentions" skip needs no test of its own)
        keep = (
            ~(conf < self.min_conf)
            & (subj >= 0) & (a_sent[np.maximum(subj, 0)] == p_sent)
            & (obj <= last) & (a_sent[np.minimum(obj, last)] == p_sent)
        )
        subj, obj = np.maximum(subj, 0), np.minimum(obj, last)
        obj_len = ae[obj] - ab[obj]
        m = self.max_obj_chars  # the length of s[:m]
        obj_len = np.minimum(obj_len, m) if m >= 0 else np.maximum(obj_len + m, 0)
        keep &= ~(ae[subj] - ab[subj] < self.min_len) & ~(obj_len < self.min_len)
        rows = np.flatnonzero(keep)
        subj, obj, obj_len = subj[rows], obj[rows], obj_len[rows]
        subj_s = [buf[b:e] for b, e in zip(ab[subj].tolist(), ae[subj].tolist())]
        obj_s = [buf[b:b + n] for b, n in zip(ab[obj].tolist(), obj_len.tolist())]

        sents, ctx = np.unique(p_sent[rows], return_inverse=True)
        sent_end = np.append(sent_start[1:] - 1, len(buf))
        bounds = zip(sent_start[sents].tolist(), sent_end[sents].tolist())
        vecs, ctx_keys = self._contexts([buf[b:e].strip() for b, e in bounds])
        linked = self._link(subj_s + obj_s, np.concatenate([ctx, ctx]), vecs, ctx_keys)
        preds = [self.pred_name[i] for i in pid[rows].tolist()]
        return sent_seg[p_sent[rows]], _columns(subj_s, obj_s, linked, preds,
                                                 conf[rows].astype(np.float32))

    def _contexts(self, contexts: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """``_ctx_features`` of every context at once: the hash_embed
        vectors, one row per context, and the keys ``context * len(vocab) +
        token id`` of the context tokens that occur in a candidate name.

        The vector entries are sums of +-1.0, exact in any order, and the
        norm is taken with Python's ``** 0.5``, as in ``hash_embed``.  The
        ASCII contexts are lowered at once, as in ``_Lexicon.spans``: one
        non-ASCII character would put the whole buffer on ``lower()``'s
        Unicode path, so such contexts are lowered one by one, after the
        others (``at`` maps buffer order back to context order)."""
        texts = [c.replace("\0", " ") for c in contexts]  # NUL ends a context
        text, at = "\0".join(texts), None
        if text.isascii():
            text = text.lower()
        else:
            fast = np.fromiter(map(str.isascii, texts), bool, len(texts))
            at = np.r_[np.flatnonzero(fast), np.flatnonzero(~fast)]
            low = [t.lower() for t in compress(texts, ~fast)]
            if fast.any():
                low.insert(0, "\0".join(compress(texts, fast)).lower())
            text = "\0".join(low)
        words = _WORD_OR_NUL_RE.findall(text)
        ids: dict[str, int] = {"\0": 0}
        wid = np.fromiter((ids.setdefault(w, len(ids)) for w in words), np.int64, len(words))
        word = wid != 0
        n_ids = len(ids)
        pairs = np.unique(np.cumsum(~word)[word] * n_ids + wid[word])  # distinct (context, token)
        ctx, tok = pairs // n_ids, pairs % n_ids
        if at is not None:
            ctx = at[ctx]
        words = list(ids)  # by id; words[0] is the NUL
        bucket, sign = np.array([(0, 0.0)] + [hash_bucket(w, self.dim) for w in words[1:]]).T
        vecs = np.bincount(ctx * self.dim + bucket[tok].astype(np.int64), weights=sign[tok],
                           minlength=len(contexts) * self.dim).reshape(-1, self.dim)
        norm = np.array([x ** 0.5 for x in (vecs * vecs).sum(axis=1).tolist()])
        np.divide(vecs, norm[:, None], out=vecs, where=norm[:, None] != 0.0)
        name_tok = np.array([-1] + [self.vocab.get(w, -1) for w in words[1:]], dtype=np.int64)[tok]
        return vecs, ctx[name_tok >= 0] * len(self.vocab) + name_tok[name_tok >= 0]

    def _link(self, surfaces: list[str], ctx: np.ndarray, vecs: np.ndarray,
              ctx_keys: np.ndarray) -> tuple:
        """``link_surface`` over every surface at once; surface i's context
        is row ``ctx[i]`` of ``_contexts``'s result."""
        n = len(surfaces)
        first, count = np.array([self.span.get(s.lower(), (0, 0)) for s in surfaces],
                                dtype=np.int64).reshape(-1, 2).T
        side = np.repeat(np.arange(n), count)  # one entry per (surface, candidate)
        cand = first[side] + np.arange(len(side)) - (np.cumsum(count) - count)[side]
        pair_ctx = ctx[side]

        prod = vecs[pair_ctx] * self.emb[cand]
        cos = np.zeros(len(side))
        for d in range(self.dim):  # index order, as link_surface sums
            cos += prod[:, d]

        # |name tokens & context tokens| / |name tokens|, via token ids
        n_tok = self.n_tok[cand]
        pair = np.repeat(np.arange(len(side)), n_tok)
        tok = self.tok_id[self.tok_first[cand][pair] + np.arange(len(pair))
                          - (np.cumsum(n_tok) - n_tok)[pair]]
        hits = np.bincount(pair[np.isin(pair_ctx[pair] * len(self.vocab) + tok, ctx_keys)],
                           minlength=len(side))
        overlap = np.zeros(len(side))
        np.divide(hits, n_tok, out=overlap, where=n_tok > 0)

        score = self.w_alias * self.prior[cand] + self.w_embed * cos + self.w_ctx * overlap
        ids = np.full(n, -1, dtype=np.int64)
        names = list(surfaces)
        keys = [None] * n
        if len(side):
            order = np.lexsort((np.arange(len(side)), self.eid[cand], -score, side))
            lead = order[np.r_[True, side[order][1:] != side[order][:-1]]]
            lead = lead[score[lead] >= self.min_score]
            ids[side[lead]] = self.eid[cand[lead]]
            for s, c in zip(side[lead].tolist(), cand[lead].tolist()):
                names[s], keys[s] = self.name[c], self.name_key[c]
        for s in range(n):
            if keys[s] is None:  # NIL: the surface and its normalized key
                keys[s] = normalize_entity_key(surfaces[s])
        return names, keys, ids


def _columns(subj_s: list, obj_s: list, linked: tuple, preds: list, conf) -> dict:
    """The LINKED_FULL columns but url and seg_id; ``linked`` is
    ``BatchLinker._link``'s result over subject then object surfaces."""
    r = len(subj_s)
    names, keys, ids = linked
    return {
        "subj": names[:r], "subj_key": keys[:r], "subj_id": ids[:r],
        "pred": preds,
        "obj": names[r:], "obj_key": keys[r:], "obj_id": ids[r:],
        "conf": conf,
        "subj_surface": subj_s, "obj_surface": obj_s,
    }


def _sentence_buffer(texts: list[str]) -> tuple[str, np.ndarray, np.ndarray]:
    """The sentences of ``texts`` (``sentence_bounds`` of each) joined into
    one buffer with a NUL between any two: the buffer, each sentence's start
    in it, and each sentence's index in ``texts``."""
    n = len(texts)
    seg_start = np.zeros(n, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, texts), np.int64, n)[:-1] + 1, out=seg_start[1:])
    joined = "\0".join(texts)
    cuts = np.fromiter((m.end() for m in _SENT_END_RE.finditer(joined)), np.int64)
    starts = np.sort(np.concatenate([seg_start, cuts]))
    sent_seg = np.searchsorted(seg_start, starts, "right") - 1
    # one NUL goes in at every cut, so a start moves by the cuts at or before it
    sent_start = starts + np.searchsorted(cuts, starts, "right")
    edges = [0, *cuts.tolist(), len(joined)]
    return "\0".join([joined[b:e] for b, e in zip(edges, edges[1:])]), sent_start, sent_seg


_WORD_OR_NUL_RE = re.compile(_TOKEN_RE.pattern + "|\0")
