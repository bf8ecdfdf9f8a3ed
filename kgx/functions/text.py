"""Deterministic text primitives: HTML -> text extraction, normalization,
tokenization, segmentation, similarity measures, hashing / fingerprinting.

These inherit the *semantics* of the reference's string operators
(SURVEY.md §2.2/§2.8; reference files cited per function) but are brand-new
implementations.  All functions are pure and deterministic — no wall clock,
no process state, no randomness — because they run inside retryable Ray
tasks and inside the serial oracle and must agree byte-for-byte.
"""

from __future__ import annotations

import hashlib
import re
import struct

# --------------------------------------------------------------------------
# HTML -> text extraction (reference analog: OCR/audio decode, S2/M8 —
# groq_backend.py:21-28, ocr/reader.py:10-40: binary payload -> text).
# --------------------------------------------------------------------------

# Container elements that are pure boilerplate on web pages; their entire
# subtree is dropped (reference analog: junk frame filter M7,
# extractor.py:369-396 — drop UI chrome before downstream stages see it).
# Innermost-first: the body may not contain another opening tag of the SAME
# name, so a fixpoint loop peels nested blocks outside-in correctly.
_DROP_BLOCK_RE = re.compile(
    r"<(script|style|head|title|nav|header|footer|aside|noscript)\b[^>]*>"
    r"(?:(?!<\1\b).)*?</\1\s*>",
    re.IGNORECASE | re.DOTALL,
)
_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)
# Block-level tags become a space so words in adjacent blocks don't fuse.
_TAG_RE = re.compile(r"<[^>]+>")

# The EXACT codepoint set CPython's str-pattern ``\s`` matches (derived by
# scanning all of Unicode; guarded by tests/test_text_functions.py).  DuckDB's
# RE2 ``\s`` is ASCII-only, so the generated SQL (textstats.sql_norm_text)
# builds its whitespace class from THIS list — one constant, two engines, no
# drift on real web text full of NBSPs (ADVICE.md 2026-08-17).
WS_CODEPOINTS: tuple[int, ...] = (
    0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E, 0x1F, 0x20,
    0x85, 0xA0, 0x1680,
    0x2000, 0x2001, 0x2002, 0x2003, 0x2004, 0x2005, 0x2006, 0x2007,
    0x2008, 0x2009, 0x200A, 0x2028, 0x2029, 0x202F, 0x205F, 0x3000,
)
_WS_RE = re.compile("[" + "".join(chr(c) for c in WS_CODEPOINTS) + "]+")

_ENTITIES = [
    ("&nbsp;", " "),
    ("&lt;", "<"),
    ("&gt;", ">"),
    ("&quot;", '"'),
    ("&#39;", "'"),
    ("&apos;", "'"),
    ("&amp;", "&"),  # must be last: "&amp;lt;" -> "&lt;" stays literal
]


def extract_text_from_html(html: bytes | str | None) -> str:
    """Boilerplate-stripped plain text from an HTML payload.

    Deterministic, dependency-free analog of a trafilatura-style extractor:
    drop script/style/nav/header/footer/aside subtrees and comments, strip
    remaining tags, unescape the common entities, collapse whitespace runs to
    a single space, strip ends.  Byte-identical output per input is the
    north-rule invariant (BASELINE.json input_hint).
    """
    if html is None:
        return ""
    if isinstance(html, (bytes, bytearray, memoryview)):
        html = bytes(html).decode("utf-8", errors="replace")
    s = _COMMENT_RE.sub(" ", html)
    # Repeated pass: nested drop-blocks (<nav><nav>..</nav></nav>) need a
    # fixpoint; bounded because each pass strictly shrinks the string.
    while True:
        s2 = _DROP_BLOCK_RE.sub(" ", s)
        if s2 == s:
            break
        s = s2
    s = _TAG_RE.sub(" ", s)
    for ent, rep in _ENTITIES:
        if ent in s:
            s = s.replace(ent, rep)
    return normalize_ws(s)


def normalize_ws(s: str) -> str:
    """Collapse all whitespace runs to a single space and strip the ends."""
    return _WS_RE.sub(" ", s).strip()


def page_text(html: bytes | None, text: str | None) -> str:
    """Canonical text of a page row: prefer the pre-extracted ``text`` column,
    else extract from ``html`` (exactly one may be null — input_hint)."""
    if text is not None:
        return normalize_ws(text)
    return extract_text_from_html(html)


# --------------------------------------------------------------------------
# Tokenization & normalization (reference: aligner.py:39-40,
# post_processor.py:110-115, 204-219).
# --------------------------------------------------------------------------

# ASCII-explicit so the DuckDB oracle regexp '[A-Za-z0-9_]+' (RE2) and this
# CPython regex agree on every input.
_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")
_DIGIT_RE = re.compile(r"\d+")
_SEP_RE = re.compile(r"[\s\-_/|.,:;]+")


def tokenize(s: str) -> list[str]:
    """Lowercased ASCII-word tokens."""
    return _TOKEN_RE.findall(s.lower())


def normalize_entity_key(surface: str) -> str:
    """Canonicalization key for an entity surface form.

    Inherits the reference's title-normalization semantics
    (post_processor.py:110-115): digits stripped, lowercased, separator runs
    collapsed to single spaces, stripped.  Two surface forms with the same
    key are merged by the canonicalization shuffle (SURVEY.md §2 G2).
    """
    s = _DIGIT_RE.sub("", surface.lower())
    s = _SEP_RE.sub(" ", s)
    return s.strip()


def normalize_triple_part(s: str) -> str:
    """Normalization used for the exact-dedup key of (subj, pred, obj)
    (reference G4 seen-set semantics, post_processor.py:204-219):
    lowercase, collapse whitespace, strip ASCII punctuation."""
    s = s.lower()
    s = re.sub(r"[^\w\s]", "", s, flags=re.ASCII)
    return _WS_RE.sub(" ", s).strip()


# --------------------------------------------------------------------------
# Segmentation (reference: chunk splitter M4 + merge M5, chunker.py:72-272 —
# split at a natural boundary nearest to the target size).
# --------------------------------------------------------------------------

_SENT_BOUND_RE = re.compile(r"(?<=[.!?])\s+")
# The same match ends as _SENT_BOUND_RE (a punctuation mark is not
# whitespace, so each boundary is one [.!?] and the whole whitespace run
# after it) in half the time: the lookbehind form is tried at every
# position, this one only at a punctuation mark.  The batch kernels scan
# with it; the per-row functions keep the lookbehind form.
_SENT_END_RE = re.compile(r"[.!?]\s+")


def segment_spans(text: str, target_chars: int = 200, max_chars: int = 400) -> list[tuple[int, int]]:
    """Split ``text`` into (begin, end) char spans.

    Sentences (split at ``[.!?]`` + whitespace) are greedily packed into
    segments of ~``target_chars``; a sentence longer than ``max_chars`` is
    hard-split.  Mirrors the reference's "split at the silence boundary
    nearest to i*(total/n)" semantics (chunker.py:112,147-157) with sentence
    boundaries playing the role of silences.  Offsets index into ``text`` so
    lineage (url, seg_id, begin, end) survives every downstream stage.
    """
    if not text:
        return []
    # Sentence boundaries: positions where a new sentence starts.
    starts = [0]
    for m in _SENT_BOUND_RE.finditer(text):
        starts.append(m.end())
    starts.append(len(text))

    spans: list[tuple[int, int]] = []
    seg_begin = starts[0]
    for i in range(1, len(starts)):
        sent_end = starts[i]
        if sent_end - seg_begin >= target_chars:
            spans.append((seg_begin, sent_end))
            seg_begin = sent_end
    if seg_begin < len(text):
        spans.append((seg_begin, len(text)))

    # Hard-split any span that still exceeds max_chars (no sentence bounds).
    out: list[tuple[int, int]] = []
    for b, e in spans:
        while e - b > max_chars:
            out.append((b, b + max_chars))
            b += max_chars
        out.append((b, e))
    # Trim trailing whitespace from each span's text view.
    return [(b, e) for b, e in out if text[b:e].strip()]


def sentence_starts(text: str) -> list[int]:
    """All sentence-start offsets (0, after each [.!?]+ws boundary, len)."""
    starts = [0]
    for m in _SENT_BOUND_RE.finditer(text):
        starts.append(m.end())
    starts.append(len(text))
    return starts


def first_segment_span(
    text: str, begin: int, starts: list[int], target_chars: int, max_chars: int
) -> tuple[int, int]:
    """The next single segment span starting at ``begin``: closes at the
    first sentence start >= begin + target_chars (greedy packing, same rule
    as ``segment_spans``), hard-capped at ``max_chars``.  ``starts`` is the
    page's precomputed ``sentence_starts`` — O(log n) per call, so adaptive
    segmentation stays O(page) overall."""
    import bisect

    i = bisect.bisect_right(starts, begin)
    end = len(text)
    for s in starts[i:]:
        if s - begin >= target_chars:
            end = s
            break
    if end - begin > max_chars:
        end = begin + max_chars
    return (begin, end)


def is_junk_segment(seg_text: str, junk_patterns: list[str]) -> bool:
    """True if the segment is boilerplate (reference M7 semantics,
    extractor.py:369-396: substring match against a configured junk list;
    fail-open — an empty pattern list keeps everything)."""
    low = seg_text.lower()
    return any(p in low for p in junk_patterns)


def junk_mask(texts: list[str], junk_patterns: list[str]):
    """``is_junk_segment`` of every text, as a bool array.

    The ASCII texts are joined with a NUL between any two and lowered at
    once (``lower()`` maps each ASCII character to one), and each pattern is
    searched in that buffer with ``str.find``: a hit marks its text, and the
    search goes on from the next text.  A pattern without a NUL cannot match
    across the separator.  Texts holding a non-ASCII character (``lower()``
    may change their length) and patterns holding a NUL take the per-text
    test.  (One regex alternation over the buffer was measured slower than
    the per-pattern ``find``, which skips the rest of a text after a hit.)
    """
    import bisect

    import numpy as np

    n = len(texts)
    fast = np.fromiter(map(str.isascii, texts), bool, n)
    if any("\0" in p for p in junk_patterns):
        fast[:] = False
    mask = np.zeros(n, dtype=bool)
    slow = np.flatnonzero(~fast)
    mask[slow] = [is_junk_segment(texts[i], junk_patterns) for i in slow.tolist()]
    rows = np.flatnonzero(fast)
    if not len(rows) or not junk_patterns:
        return mask
    asc = [texts[i] for i in rows.tolist()]
    low = "\0".join(asc).lower()
    lens = np.fromiter(map(len, asc), np.int64, len(asc))
    starts = (np.cumsum(lens + 1) - (lens + 1)).tolist()
    hit = np.zeros(len(asc), dtype=bool)
    for p in junk_patterns:
        i = low.find(p)
        while i >= 0:
            t = bisect.bisect_right(starts, i) - 1
            hit[t] = True
            i = low.find(p, starts[t] + len(asc[t]) + 1)
    mask[rows] = hit
    return mask


def novelty_keep_mask(seg_texts: list[str], threshold: float) -> list[bool]:
    """Sequential novelty gating within one page (reference M6 frame-change
    detection, extractor.py:123-179: keep a frame only if it differs enough
    from the previous *kept* frame; always keep the first).

    Keeps segment i iff Jaccard(token set, last-kept token set) < threshold.
    Page-local scan state only (T7 pattern) — never crosses rows/pages.
    """
    keep: list[bool] = []
    prev: set[str] | None = None
    for t in seg_texts:
        toks = set(tokenize(t))
        if prev is None or jaccard(toks, prev) < threshold:
            keep.append(True)
            prev = toks
        else:
            keep.append(False)
    return keep


# --------------------------------------------------------------------------
# Similarity measures (reference: aligner.py:84-110, extractor.py:356-367).
# --------------------------------------------------------------------------


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    u = len(a | b)
    return len(a & b) / u if u else 0.0


def overlap_asym(a: set, b: set) -> float:
    """|A∩B| / |A| — the reference's *asymmetric* text-similarity denominator
    (aligner.py:98-110 divides by the left side); reproduced exactly because
    the linker's weighted score depends on it."""
    if not a:
        return 0.0
    return len(a & b) / len(a)


# --------------------------------------------------------------------------
# Hashing / fingerprints / sketches.
# --------------------------------------------------------------------------


def md5_fingerprint(s: str) -> str:
    """Hex md5 of the whitespace-normalized, lowercased text — the document
    fingerprint used for exact dedup; matches DuckDB
    ``md5(regexp_replace(lower(trim(text)), '\\s+', ' ', 'g'))``."""
    return hashlib.md5(normalize_ws(s.lower()).encode("utf-8")).hexdigest()


def stable_hash64(s: str, seed: int = 0) -> int:
    """64-bit deterministic string hash (md5-based; NOT Python's salted
    ``hash``).  Used for salting, bucketing and id assignment — must be
    stable across processes and Ray workers."""
    h = hashlib.md5((f"{seed}:" + s).encode("utf-8")).digest()
    return struct.unpack("<Q", h[:8])[0]


def char_shingles(text: str, k: int = 5) -> set[str]:
    """k-char shingles over the normalized lowercase text (standard MinHash
    preprocessing; k=5 per Broder '97 resemblance estimation)."""
    t = normalize_ws(text.lower())
    if len(t) < k:
        return {t} if t else set()
    return {t[i : i + k] for i in range(len(t) - k + 1)}


_MERSENNE = (1 << 61) - 1


def _minhash_params(num_perm: int, seed: int) -> list[tuple[int, int]]:
    params = []
    for i in range(num_perm):
        a = stable_hash64(f"mh-a-{seed}-{i}") % _MERSENNE or 1
        b = stable_hash64(f"mh-b-{seed}-{i}") % _MERSENNE
        params.append((a, b))
    return params


_MINHASH_CACHE: dict[tuple[int, int], list[tuple[int, int]]] = {}


def minhash_signature(shingles: set[str], num_perm: int = 64, seed: int = 7) -> list[int]:
    """MinHash signature (universal hashing mod a Mersenne prime).  Empty
    shingle set -> all-max signature (never collides with real content)."""
    key = (num_perm, seed)
    params = _MINHASH_CACHE.get(key)
    if params is None:
        params = _MINHASH_CACHE[key] = _minhash_params(num_perm, seed)
    if not shingles:
        return [_MERSENNE] * num_perm
    hs = [stable_hash64(s) % _MERSENNE for s in shingles]
    sig = []
    for a, b in params:
        sig.append(min((a * h + b) % _MERSENNE for h in hs))
    return sig


def simhash64(text: str) -> int:
    """64-bit SimHash over word tokens (Charikar '02): sum ±1 per bit of each
    token's stable 64-bit hash, take the sign vector.  Vectorized: unique
    tokens hashed once, bit matrix unpacked in numpy, counts as weights."""
    from collections import Counter

    import numpy as np

    counts = Counter(tokenize(text))
    if not counts:
        return 0
    hs = np.array([stable_hash64(t) for t in counts], dtype=np.uint64)
    w = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
    bits = ((hs[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)).astype(
        np.int64
    )
    acc = ((2 * bits - 1) * w[:, None]).sum(axis=0)
    return int(((acc > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum())


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


def shingle_codes(text: str, k: int = 5):
    """Sorted unique uint64 codes of the byte k-grams of the normalized
    lowercase text — each code IS the packed k bytes (k <= 8), so codes are
    collision-FREE and need no per-shingle hashing.  The numpy-fast
    replacement for ``char_shingles`` + per-shingle md5 in the MinHash hot
    path (byte-grams == char-grams on ASCII corpora; on multibyte text the
    sketch remains deterministic, just byte- instead of char-windowed)."""
    import numpy as np

    if k > 8:
        raise ValueError("shingle_codes packs bytes into uint64: k <= 8")
    t = normalize_ws(text.lower()).encode("utf-8")
    if not t:
        return np.empty(0, dtype=np.uint64)
    if len(t) < k:
        t = t.ljust(k, b"\x00")
    a = np.frombuffer(t, dtype=np.uint8)
    windows = np.lib.stride_tricks.sliding_window_view(a, k).astype(np.uint64)
    weights = (np.uint64(256) ** np.arange(k, dtype=np.uint64)).astype(np.uint64)
    return np.unique(windows @ weights)


def minhash_from_codes(codes, num_perm: int = 64, seed: int = 7):
    """Vectorized MinHash over uint64 shingle codes: multiply-add hash family
    ``(a*x + b) mod 2^64`` with odd ``a`` (Dietzfelbinger et al. universal
    hashing via natural uint64 wraparound).  Empty input -> all-max sentinel
    signature (never collides with real content).  Deterministic: parameters
    derive from stable_hash64, no RNG state."""
    import numpy as np

    a, b = _minhash_v2_params(num_perm, seed)
    if len(codes) == 0:
        return np.full(num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
    with np.errstate(over="ignore"):
        hashed = a[:, None] * codes[None, :] + b[:, None]  # uint64 wrap
    return hashed.min(axis=1)


def _minhash_v2_params(num_perm: int, seed: int):
    """The (a, b) uint64 vectors of ``minhash_from_codes``'s hash family."""
    import numpy as np

    key = ("v2", num_perm, seed)
    params = _MINHASH_CACHE.get(key)
    if params is None:
        a = np.array(
            [stable_hash64(f"mhv-a-{seed}-{i}") | 1 for i in range(num_perm)],
            dtype=np.uint64,
        )
        b = np.array(
            [stable_hash64(f"mhv-b-{seed}-{i}") for i in range(num_perm)],
            dtype=np.uint64,
        )
        params = _MINHASH_CACHE[key] = (a, b)
    return params


_MINHASH_CHUNK = 1 << 19  # (perm, code) cells hashed per step: 4 MiB of uint64


def minhash_matrix(texts, num_perm: int = 64, k: int = 5, seed: int = 7):
    """``minhash_from_codes(shingle_codes(t, k))`` for a whole batch of
    texts at once: ``(rows, sig)``, the indices of the texts whose
    normalized form is non-empty (the others have no shingle) and their
    signatures as a ``(len(rows), num_perm)`` uint64 matrix, equal bit for
    bit to the per-text calls.

    The normalized texts go into one byte buffer, each followed by ``k-1``
    NULs, so the window at a text's start is ``shingle_codes``'s
    NUL-padded code when the text is shorter than ``k``, and no other
    window crosses into the next text.  Codes are hashed in chunks of
    about ``_MINHASH_CHUNK`` cells and reduced per text with
    ``np.minimum.reduceat``; a duplicate code changes no minimum, so the
    per-text ``np.unique`` is not needed."""
    import numpy as np

    if k > 8:
        raise ValueError("shingle_codes packs bytes into uint64: k <= 8")
    enc = [normalize_ws((t or "").lower()).encode("utf-8") for t in texts]
    lens = np.fromiter(map(len, enc), dtype=np.int64, count=len(enc))
    rows = np.flatnonzero(lens)
    sig = np.full((len(rows), num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
    if len(rows) == 0:
        return rows, sig
    lens = lens[rows]
    pad = b"\0" * (k - 1)
    buf = np.frombuffer(pad.join(e for e in enc if e) + pad, dtype=np.uint8)
    n_win = np.maximum(lens - k + 1, 1)
    first = np.cumsum(n_win) - n_win  # each text's first window
    doc_start = np.cumsum(lens + (k - 1)) - (lens + (k - 1))
    pos = np.arange(int(n_win.sum())) + np.repeat(doc_start - first, n_win)
    codes = np.zeros(len(pos), dtype=np.uint64)
    for j in range(k):
        codes |= buf[pos + j].astype(np.uint64) << np.uint64(8 * j)

    a, b = _minhash_v2_params(num_perm, seed)
    step = max(1, _MINHASH_CHUNK // num_perm)
    for lo in range(0, len(codes), step):
        hi = min(lo + step, len(codes))
        d0 = int(np.searchsorted(first, lo, "right")) - 1
        d1 = int(np.searchsorted(first, hi, "left"))
        seg = np.maximum(first[d0:d1], lo) - lo
        hashed = a[:, None] * codes[None, lo:hi]  # uint64 wrap
        hashed += b[:, None]
        sig[d0:d1] = np.minimum(sig[d0:d1], np.minimum.reduceat(hashed, seg, axis=1).T)
    return rows, sig


# Per-token (bucket, sign) memo for hash_embed: the md5 in stable_hash64 is
# the hot cost and token vocabularies repeat heavily.  Pure function of the
# token, so results are bit-identical with or without the cache; bounded so a
# web-scale per-worker vocabulary cannot grow it without limit.
_HE_CACHE: dict[tuple[str, int], tuple[int, float]] = {}
_HE_CACHE_MAX = 1_000_000


def hash_bucket(token: str, dim: int) -> tuple[int, float]:
    """The (bucket, +-1.0) that ``token`` adds to a ``hash_embed`` vector."""
    key = (token, dim)
    bs = _HE_CACHE.get(key)
    if bs is None:
        if len(_HE_CACHE) >= _HE_CACHE_MAX:
            _HE_CACHE.clear()
        h = stable_hash64(token, seed=13)
        bs = _HE_CACHE[key] = (h % dim, 1.0 if (h >> 63) & 1 else -1.0)
    return bs


def hash_embed(tokens: list[str], dim: int = 32) -> list[float]:
    """Deterministic hash-based text featurizer: each token adds ±1 to a
    hashed bucket; L2-normalized.  Shared by pipeline and oracle so linker
    cosine scores are bit-reproducible (FIXTURES.md §3)."""
    v = [0.0] * dim
    for t in tokens:
        b, sign = hash_bucket(t, dim)
        v[b] += sign
    norm = sum(x * x for x in v) ** 0.5
    if norm == 0.0:
        return v
    return [x / norm for x in v]
