"""Composable KG-pipeline pieces shared by the Ray stages and the serial
oracle: per-page processing (extract -> segment -> filter -> raw triples) and
the global, order-free merge/dedup/categorize functions.

Every global operation here is ASSOCIATIVE and COMMUTATIVE with explicit
deterministic tie-breaks (min lineage, longest-then-lexicographic names,
sorted set unions) — deliberately unlike the reference, whose merge results
depend on arrival order (post_processor.py:136 first-frame-as-base,
:210-218 seen-set first-wins).  Under distribution, partition order varies,
so order-free semantics are what keep P/R at 1.0 run-to-run (SURVEY.md §7.4.2
/ §7.4.3: the " | ".join order-dependent concat is replaced by sorted-unique
union; "first" means min (url, seg_id), not arrival order).
"""

from __future__ import annotations

import numpy as np

from .extract_kg import (
    AliasMatcher,
    PredicateMatcher,
    extract_raw_triples,
    link_surface,
)
from .text import (
    _SENT_END_RE,
    first_segment_span,
    hash_embed,
    is_junk_segment,
    jaccard,
    junk_mask,
    normalize_triple_part,
    novelty_keep_mask,
    page_text,
    segment_spans,
    sentence_starts,
    stable_hash64,
    tokenize,
)

# ---------------------------------------------------------------------------
# Per-page (embarrassingly parallel; page-local state only — T7 pattern)
# ---------------------------------------------------------------------------


def segments_for_page(url: str, html, text, lang: str, cfg: dict) -> tuple[str, list[dict]]:
    """extract -> segment -> junk filter -> novelty gate -> per-page cap:
    :func:`page_text`, then :func:`segment_text`."""
    ptext = page_text(html, text)
    return ptext, segment_text(url, ptext, lang, cfg)


def segment_text(url: str, ptext: str, lang: str, cfg: dict) -> list[dict]:
    """Segments of one page's canonical text (``page_text`` output):
    segment -> junk filter -> novelty gate -> per-page cap.

    ``seg_id`` is the ordinal of the span BEFORE filtering, so lineage offsets
    are stable no matter which filters run (the reference's never-renumber
    frame_id invariant, CLAUDE.md:163 / SURVEY.md §1.1).
    """
    seg_cfg = cfg["processing"]["segment"]
    junk = [p.lower() for p in cfg["filters"]["junk_patterns"]]
    spans = segment_spans(ptext, seg_cfg["target_chars"], seg_cfg["max_chars"])
    segs = []
    for seg_id, (b, e) in enumerate(spans):
        st = ptext[b:e].strip()
        segs.append({"url": url, "seg_id": seg_id, "begin": b, "end": e,
                     "text": st, "lang": lang})
    segs = [s for s in segs if not is_junk_segment(s["text"], junk)]
    mask = novelty_keep_mask([s["text"] for s in segs], seg_cfg["novelty_threshold"])
    segs = [s for s, keep in zip(segs, mask) if keep]
    return segs[: seg_cfg["max_per_page"]]


def segment_batch(texts: list[str], cfg: dict) -> tuple[np.ndarray, dict]:
    """:func:`segment_text` of every text at once, equal to the per-text
    calls in value and order: the index in ``texts`` of each segment's
    page, and the seg_id, begin, end and text columns.

    The texts are joined into one buffer with a NUL between any two.  A NUL
    is not ``\\s``, so no sentence boundary crosses into the next text, and
    one ``_SENT_END_RE`` scan finds them all.  The greedy packing then runs
    for every page at once: each step closes, on each page still open, the
    segment at the first boundary or page end at least ``target_chars``
    past its begin (one ``np.searchsorted``), so there are as many steps as
    the longest page has spans.  The ``max_chars`` split, the drop of spans
    that strip to nothing, the junk filter (``junk_mask``) and the per-page
    cap are array operations.  Only pages with more than one segment left
    run the sequential novelty gate: it always keeps a page's first one.
    """
    seg_cfg = cfg["processing"]["segment"]
    target, max_chars = seg_cfg["target_chars"], seg_cfg["max_chars"]
    lens = np.fromiter(map(len, texts), np.int64, len(texts))
    start = np.cumsum(lens + 1) - (lens + 1)  # each page's offset in the buffer
    end = start + lens
    buf = "\0".join(texts)
    cuts = np.fromiter((m.end() for m in _SENT_END_RE.finditer(buf)), np.int64)
    bounds = np.sort(np.concatenate([cuts, end]))  # every page's sentence starts but 0
    last = np.searchsorted(bounds, start) - 1  # the bound a page's open segment began at
    stop = np.searchsorted(bounds, end, "right")  # past the page's own bounds
    begin = start.copy()
    none = np.zeros(0, np.int64)
    spans = [(none, none, none)]  # (page, begin, end) of each step
    open_ = np.flatnonzero(lens)  # an empty text has no span
    while len(open_):
        b = begin[open_]
        j = np.maximum(np.searchsorted(bounds, b + target), last[open_] + 1)
        more = j < stop[open_]
        done = open_[~more]
        open_, b, j = open_[more], b[more], j[more]
        # a closed page's last span runs to its end (empty if the last bound
        # taken was the end: the blank-span drop below removes it)
        spans += [(open_, b, bounds[j]), (done, begin[done], end[done])]
        begin[open_], last[open_] = bounds[j], j
    page, b, e = (np.concatenate(c) for c in zip(*spans))
    order = np.argsort(page, kind="stable")  # steps are in span order
    page, b, e = page[order], b[order], e[order]

    # hard split: ceil(len / max_chars) pieces, the last one ending at e
    pieces = np.maximum(-(-(e - b) // max_chars), 1)
    span = np.repeat(np.arange(len(b)), pieces)
    page, b = page[span], b[span] + _rank(span) * max_chars
    e = np.minimum(b + max_chars, e[span])

    text = [buf[x:y].strip() for x, y in zip(b.tolist(), e.tolist())]
    rows = np.flatnonzero(np.fromiter(map(len, text), np.int64, len(text)))
    page, b, e = page[rows], b[rows], e[rows]
    text = [text[i] for i in rows.tolist()]
    seg_id = _rank(page)  # the ordinal before the filters

    junk = [p.lower() for p in cfg["filters"]["junk_patterns"]]
    rows = np.flatnonzero(~junk_mask(text, junk))
    p = page[rows]
    novel = np.ones(len(rows), dtype=bool)
    first = np.flatnonzero(np.r_[True, p[1:] != p[:-1]])
    size = np.diff(np.r_[first, len(p)])
    for f, n in zip(first[size > 1].tolist(), size[size > 1].tolist()):
        novel[f:f + n] = novelty_keep_mask([text[i] for i in rows[f:f + n].tolist()],
                                           seg_cfg["novelty_threshold"])
    rows = rows[novel]
    rows = rows[_rank(page[rows]) < seg_cfg["max_per_page"]]
    page = page[rows]
    return page, {"seg_id": seg_id[rows], "begin": b[rows] - start[page],
                  "end": e[rows] - start[page], "text": [text[i] for i in rows.tolist()]}


def _rank(keys: np.ndarray) -> np.ndarray:
    """Each entry's ordinal within its run of equal, sorted ``keys``."""
    return np.arange(len(keys)) - np.searchsorted(keys, keys)


def segments_for_page_adaptive(url: str, html, text, lang: str, cfg: dict) -> tuple[str, list[dict]]:
    """:func:`page_text`, then :func:`segment_text_adaptive`."""
    ptext = page_text(html, text)
    return ptext, segment_text_adaptive(url, ptext, lang, cfg)


def segment_text_adaptive(url: str, ptext: str, lang: str, cfg: dict) -> list[dict]:
    """Adaptive segmentation of one page's canonical text (reference G6,
    AdaptiveFrameTracker ``extractor.py:204-299``: sliding-window rate ->
    mode switch with hysteresis, parameters change FORWARD from the switch
    point).

    KG realization: scan the page's segments in order tracking the
    novelty-keep rate over a trailing window of ``window`` candidate
    segments.  When the keep rate exceeds ``hi_keep_rate`` the page is
    "dense" (every segment novel — e.g. a long varied article) and
    segmentation switches to COARSE parameters (bigger target/max chars) for
    the REMAINING text, capping downstream per-page cost; when it falls
    below ``lo_keep_rate`` it switches back to fine.  Hysteresis: inside
    the band the current mode holds.  Page-local scan state only (T7) —
    deterministic and embarrassingly parallel across pages.
    """
    seg_cfg = cfg["processing"]["segment"]
    ad = cfg["processing"].get("adaptive", {})
    if not ad.get("enabled"):
        return segment_text(url, ptext, lang, cfg)
    junk = [p.lower() for p in cfg["filters"]["junk_patterns"]]
    window = ad.get("window", 8)
    hi = ad.get("hi_keep_rate", 0.8)
    lo = ad.get("lo_keep_rate", 0.3)
    params = {
        "fine": (seg_cfg["target_chars"], seg_cfg["max_chars"]),
        "coarse": (
            ad.get("coarse_target_chars", seg_cfg["target_chars"] * 2),
            ad.get("coarse_max_chars", seg_cfg["max_chars"] * 2),
        ),
    }
    starts = sentence_starts(ptext)
    mode = "fine"
    pos = 0
    seg_id = 0
    kept: list[dict] = []
    recent: list[bool] = []  # trailing keep/drop decisions (candidate segs)
    prev_tokens: set[str] | None = None
    while pos < len(ptext):
        tgt, mx = params[mode]
        b, e = first_segment_span(ptext, pos, starts, tgt, mx)
        if e <= b:
            break
        st = ptext[b:e].strip()
        keep = bool(st) and not is_junk_segment(st, junk)
        if keep:
            toks = set(tokenize(st))
            if prev_tokens is not None and jaccard(toks, prev_tokens) >= seg_cfg["novelty_threshold"]:
                keep = False
            else:
                prev_tokens = toks
        if keep:
            kept.append({"url": url, "seg_id": seg_id, "begin": b,
                         "end": e, "text": st, "lang": lang})
        seg_id += 1
        recent.append(keep)
        if len(recent) > window:
            recent.pop(0)
        if len(recent) == window:  # analysis tick (extractor.py:241-259)
            rate = sum(recent) / window
            if mode == "fine" and rate > hi:
                mode = "coarse"
            elif mode == "coarse" and rate < lo:
                mode = "fine"
        pos = e
        if len(kept) >= seg_cfg["max_per_page"]:
            break
    return kept


def mentions_for_segment(seg: dict, aliases: AliasMatcher) -> list[dict]:
    out = []
    # mention_ord (scan ordinal within the segment) is assigned HERE, where
    # the segment's mentions exist as one unit — a downstream per-block
    # cumcount silently restarts when target_max_block_size slices a
    # segment's rows across blocks (r4 --small-blocks sweep finding)
    for ord_, (b, e, surf) in enumerate(aliases.find(seg["text"])):
        cands = aliases.candidates(surf)
        ner = cands[0].ner_type if cands else "UNK"
        out.append(
            {
                "url": seg["url"],
                "seg_id": seg["seg_id"],
                "mention_id": stable_hash64(f"{seg['url']}|{seg['seg_id']}|{b}") & ((1 << 63) - 1),
                "mention_ord": ord_,
                "begin": b,
                "end": e,
                "surface": surf,
                "ner_type": ner,
                "context": seg["text"],
            }
        )
    return out


def raw_triples_for_segment(seg: dict, aliases: AliasMatcher, predicates: PredicateMatcher, cfg: dict) -> list[dict]:
    t_cfg = cfg["processing"]["triples"]
    rows = extract_raw_triples(
        seg["text"], aliases, predicates,
        min_conf=t_cfg["min_conf"], max_obj_chars=t_cfg["max_obj_chars"],
    )
    min_len = cfg["filters"].get("min_valuable_text_length", 0)
    out = []
    for r in rows:
        # M11 value predicate: reject degenerate subject/object strings.
        if len(r["subj_surface"]) < min_len or len(r["obj_surface"]) < min_len:
            continue
        r["url"] = seg["url"]
        r["seg_id"] = seg["seg_id"]
        out.append(r)
    return out


from functools import lru_cache


@lru_cache(maxsize=4096)
def _ctx_features(context: str, embed_dim: int) -> tuple[frozenset, tuple]:
    """Memoized context featurization: several triples share one sentence
    context, and tokenize + hash_embed dominate the linker's row cost.
    Pure function of its arguments — identical values with or without the
    cache, so oracle/pipeline parity is unaffected."""
    toks = frozenset(tokenize(context))
    return toks, tuple(hash_embed(sorted(toks), dim=embed_dim))


def _link_memoized(surface: str, context: str, aliases: AliasMatcher,
                   embeddings: dict[int, list[float]], l_cfg: dict):
    """link_surface memoized per (surface, context, weights) on the matcher
    instance: one sentence context yields several triples and popular
    surfaces repeat across a corpus, so the weighted-argmax scoring loop
    re-runs constantly on identical inputs.  Pure function of its inputs —
    results are bit-identical with or without the memo.  The memo lives on
    the AliasMatcher (whose lifetime pairs it with one embeddings dict at
    every construction site); weights are part of the key so one worker can
    serve several linker configs."""
    memo = getattr(aliases, "_link_memo", None)
    if memo is None:
        memo = aliases._link_memo = {}
    key = (surface, context, l_cfg["w_alias"], l_cfg["w_embed"],
           l_cfg["w_ctx"], l_cfg["min_score"], l_cfg["embed_dim"])
    hit = memo.get(key)
    if hit is not None:
        return hit
    ctx_tokens, ctx_vec = _ctx_features(context, l_cfg["embed_dim"])
    res = link_surface(
        surface, set(ctx_tokens), list(ctx_vec), aliases, embeddings,
        l_cfg["w_alias"], l_cfg["w_embed"], l_cfg["w_ctx"], l_cfg["min_score"],
    )
    if len(memo) >= 200_000:  # bound per-worker growth on huge corpora
        memo.clear()
    memo[key] = res
    return res


def link_raw_triple(row: dict, aliases: AliasMatcher, embeddings: dict[int, list[float]], cfg: dict) -> dict:
    l_cfg = cfg["processing"]["linker"]
    s_name, s_key, s_id = _link_memoized(
        row["subj_surface"], row["context"], aliases, embeddings, l_cfg
    )
    o_name, o_key, o_id = _link_memoized(
        row["obj_surface"], row["context"], aliases, embeddings, l_cfg
    )
    return {
        "url": row["url"],
        "seg_id": row["seg_id"],
        "subj": s_name,
        "subj_key": s_key,
        "subj_id": s_id,
        "subj_surface": row["subj_surface"],
        "pred": row["pred"],
        "obj": o_name,
        "obj_key": o_key,
        "obj_id": o_id,
        "obj_surface": row["obj_surface"],
        "conf": row["conf"],
    }


# ---------------------------------------------------------------------------
# Global, order-free merges (the shuffle semantics)
# ---------------------------------------------------------------------------


def mention_rows_from_linked(linked: list[dict]) -> list[dict]:
    """Explode linked triples into entity-mention rows for canonicalization."""
    out = []
    for t in linked:
        for side in ("subj", "obj"):
            out.append(
                {
                    "entity_key": t[f"{side}_key"],
                    "entity_id": t[f"{side}_id"],
                    "canonical_name": t[side],
                    "surface": t[f"{side}_surface"],
                    "url": t["url"],
                    "seg_id": t["seg_id"],
                }
            )
    return out


def merge_entity_group(rows: list[dict]) -> dict:
    """Canonical entity from all mention rows sharing one entity_key.

    Aggregates are all associative/commutative (G2 semantics made
    distribution-safe): representative id = min non-NIL id (else -1);
    canonical_name = longest, tie -> lexicographic min; aliases = sorted
    surface set; provenance = min (url, seg_id); n_mentions = count.
    Safe to apply in a salted partial pass then a final pass — the partial
    result carries (aliases set, count, min lineage) which re-merge exactly.
    """
    ids = [r["entity_id"] for r in rows if r["entity_id"] >= 0]
    names = [r["canonical_name"] for r in rows]
    best_name = max(names, key=lambda n: (len(n), [-ord(c) for c in n]))
    first = min((r["url"], r["seg_id"]) for r in rows)
    aliases: set[str] = set()
    n = 0
    for r in rows:
        if "aliases" in r:  # partial row from the salted phase
            aliases.update(r["aliases"])
            n += r["n_mentions"]
        else:
            aliases.add(r["surface"])
            n += 1
    return {
        "entity_key": rows[0]["entity_key"],
        "entity_id": min(ids) if ids else -1,
        "canonical_name": best_name,
        "aliases": sorted(aliases),
        "n_mentions": n,
        "first_url": first[0],
        "first_seg_id": first[1],
    }


def triple_dedup_key(t: dict) -> tuple[str, str, str]:
    return (
        normalize_triple_part(t["subj"]),
        t["pred"],
        normalize_triple_part(t["obj"]),
    )


def merge_triple_group(rows: list[dict]) -> dict:
    """Exact-dedup representative for one normalized (s, p, o) key (G4/D3):
    lineage = min (url, seg_id); conf = max; n_support = count.  Associative
    (partial rows carry n_support).  The tie-break includes the raw
    (subj, pred, obj) so two same-key rows in the SAME segment still pick an
    order-free representative (the distributed path computes exactly this
    tuple-min as the head of a sorted run — stages/wide.py merge_triples)."""
    rep = min(
        rows, key=lambda r: (r["url"], r["seg_id"], r["subj"], r["pred"], r["obj"])
    )
    return {
        "subj": rep["subj"],
        "pred": rep["pred"],
        "obj": rep["obj"],
        "url": rep["url"],
        "seg_id": rep["seg_id"],
        "conf": max(r["conf"] for r in rows),
        "n_support": sum(r.get("n_support", 1) for r in rows),
    }


def categorize_triple(t: dict, cat_order: list[str], cat_keywords: dict[str, list[str]]) -> str:
    """Keyword-argmax categorization (G3, post_processor.py:178-201): count
    keyword substrings in "subj pred obj" lowercase; strict `>` so ties keep
    the FIRST category in the explicit order list; fallback "general"."""
    hay = f"{t['subj']} {t['pred']} {t['obj']}".lower()
    best_cat = "general"
    best_score = 0
    for cat in cat_order:
        if cat == "general":
            continue
        score = sum(1 for kw in cat_keywords.get(cat, []) if kw in hay)
        if score > best_score:
            best_score = score
            best_cat = cat
    return best_cat


def adjacency_rows(final_triples: list[dict]) -> list[dict]:
    """Grouped edges per subject, deterministically ordered: (obj, pred)
    pairs sorted, neighbors/preds columns aligned (O3 sorted materialization)."""
    by_subj: dict[str, set[tuple[str, str]]] = {}
    for t in final_triples:
        by_subj.setdefault(t["subj"], set()).add((t["obj"], t["pred"]))
    out = []
    for subj in sorted(by_subj):
        pairs = sorted(by_subj[subj])
        out.append(
            {
                "subj": subj,
                "neighbors": [o for o, _ in pairs],
                "preds": [p for _, p in pairs],
                "out_degree": len(pairs),
            }
        )
    return out
