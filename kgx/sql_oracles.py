"""DuckDB oracle-SQL generators for the non-trivially-SQL queries.

Round-1's driver gate certified 25/33 registry queries; the 8 remaining
(`kg_triples/entities/adjacency/mentions`, `dedup_minhash_lsh`,
`dedup_simhash`, `ann_topk_lsh`, `ann_topk_ivf`) were `no_oracle`.  This
module closes that gap: every generator builds ANSI-ish DuckDB SQL that
recomputes the SAME operator from the raw parquet views, sharing constants
with the Python implementation (embedded VALUES for config-like state: the
alias dictionary, predicate lexicon, enrichment templates, hash-family
parameters, LSH hyperplanes — all deterministic functions of the same seeds
the Python side uses).

Key identities the SQL relies on (each verified empirically and/or gated by
tests/test_kg_sql_queries.py):

* ``md5_number_upper('0:' || s)`` == ``kgx.functions.text.stable_hash64(s)``
  (little-endian uint64 of the first 8 md5 bytes; DuckDB >= 1.0).
* uint64 wraparound multiply (the MinHash hash family) is expressible in
  HUGEINT via a 32-bit split: ``lo64(a*c) = a_lo*c_lo +
  ((a_lo*c_hi + a_hi*c_lo) mod 2^32) * 2^32  (mod 2^64)``.
* Over single-space-normalized text whose alias/predicate phrases contain
  only ``[A-Za-z ]``, Python's case-insensitive ``\\b``-bounded
  leftmost-longest regex scan equals token-sequence adjacency with
  longest-match-per-start — which SQL expresses with ``lead()`` windows
  (no two matches overlap except at a shared start for this KB; asserted in
  tests).

The kg_* family runs against ``enrich="sql"`` pages (synth.sql_templates) and
the ``_kg_sql_cfg`` config variant: 400-char hard chunking, junk/novelty
gates off, alias-prior-only linker (w_alias=1) — the established
config-override technique (kg_segment_count precedent) that keeps every
operator real while making the chain exactly reproducible in SQL.  The
full-config chain (weighted linker, sentence packing, novelty gating) stays
exactness-gated in pytest against kgx.oracle.
"""

from __future__ import annotations

from . import synth
from .functions import textstats as ts
from .functions.text import stable_hash64

DOC_URL_SQL = "'https://synth.example/' || source || '/' || doc_id"
_MIN_I64 = "(-9223372036854775807 - 1)"
_TWO32 = "4294967296::HUGEINT"
_TWO64 = "18446744073709551616::HUGEINT"
_M62P1 = f"{1 << 62}::HUGEINT"


def _q(s: str) -> str:
    """SQL string literal."""
    return "'" + s.replace("'", "''") + "'"


# ---------------------------------------------------------------------------
# dedup_simhash
# ---------------------------------------------------------------------------


def sql_dedup_simhash(max_hamming: int) -> str:
    """Full 64-bit SimHash in SQL: per-token md5 hash, weighted ±1 bit sums,
    signature packed into a SIGNED BIGINT (bit 63 = sign bit, mirroring the
    engine's lossless two's-complement carry), pairs via
    ``bit_count(xor(...)) <= h``."""
    norm = ts.sql_norm_text("coalesce(text,'')")
    return f"""
WITH d AS (
  SELECT doc_id, coalesce(text,'') AS t FROM documents WHERE {norm} <> ''
), tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(t), '[a-z0-9_]+')) AS tok FROM d
), tw AS (
  SELECT doc_id, tok, CAST(count(*) AS BIGINT) AS w FROM tok GROUP BY 1, 2
), th AS (
  SELECT doc_id, w, md5_number_upper('0:' || tok) AS h FROM tw
), bits AS (
  SELECT doc_id, b, sum(w * (2 * CAST((h >> b) & 1 AS BIGINT) - 1)) AS acc
  FROM th, generate_series(0, 63) g(b) GROUP BY 1, 2
), sig AS (
  SELECT doc_id, CAST(sum(CASE WHEN acc > 0 THEN
      CASE WHEN b = 63 THEN {_MIN_I64} ELSE (CAST(1 AS BIGINT) << CAST(b AS INT)) END
    ELSE 0 END) AS BIGINT) AS sim
  FROM bits GROUP BY 1
), s2 AS (
  SELECT d.doc_id, coalesce(sig.sim, 0) AS sim FROM d LEFT JOIN sig USING (doc_id)
)
SELECT CAST(a.doc_id AS BIGINT) AS id_a, CAST(b.doc_id AS BIGINT) AS id_b
FROM s2 a, s2 b
WHERE a.doc_id < b.doc_id AND bit_count(xor(a.sim, b.sim)) <= {max_hamming}
"""


# ---------------------------------------------------------------------------
# dedup_minhash_lsh
# ---------------------------------------------------------------------------


def _sql_minhash_bh(
    num_perm: int, bands: int, threshold: float, shingle_k: int
) -> tuple[str, int]:
    """Shared WITH-chain through the per-doc band hashes (bh CTE) plus the
    verification threshold — the byte-identical prefix of
    sql_dedup_minhash_lsh, split out so the band-balance mirror reuses the
    certified text untouched."""
    """Byte-k-gram shingle codes, the (a*x+b mod 2^64) hash family (constants
    embedded from the same stable_hash64 derivation as minhash_from_codes),
    band hashing via md5, in-bucket verification on the signature Jaccard
    estimate.  Exact parity assumes single-byte characters (the driver
    corpora are pure ASCII; the Python side windows over utf-8 BYTES)."""
    k = shingle_k
    rows_per_band = num_perm // bands
    min_eq = min(c for c in range(num_perm + 1) if c / num_perm >= threshold)
    perms = []
    for i in range(num_perm):
        a = stable_hash64(f"mhv-a-7-{i}") | 1
        b = stable_hash64(f"mhv-b-7-{i}")
        perms.append(f"({i}, {a % (1 << 32)}::HUGEINT, {a >> 32}::HUGEINT, {b}::HUGEINT)")
    perm_vals = ", ".join(perms)
    norm = ts.sql_norm_text("lower(coalesce(text,''))")

    def byte(j: int) -> str:
        if j == 0:
            return "ord(substr(t, i, 1))"
        return f"CASE WHEN i+{j} <= length(t) THEN ord(substr(t, i+{j}, 1)) ELSE 0 END"

    code_expr = " + ".join(
        f"({byte(j)})::HUGEINT * {256 ** j}::HUGEINT" for j in range(k)
    )
    prefix = f"""
WITH d AS (
  SELECT doc_id, {norm} AS t FROM documents
), d2 AS (SELECT doc_id, t FROM d WHERE length(t) > 0),
pos AS (
  SELECT doc_id, t, unnest(generate_series(1, greatest(length(t) - {k - 1}, 1))) AS i
  FROM d2
), codes AS (
  SELECT DISTINCT doc_id, {code_expr} AS code FROM pos
), cc AS (
  SELECT doc_id, code % {_TWO32} AS c_lo, code // {_TWO32} AS c_hi FROM codes
), perms(i, a_lo, a_hi, b) AS (VALUES {perm_vals}),
hashed AS (
  SELECT doc_id, i,
    ((a_lo * c_lo) + ((a_lo * c_hi + a_hi * c_lo) % {_TWO32}) * {_TWO32} + b) % {_TWO64} AS h
  FROM cc, perms
), sig AS (
  SELECT doc_id, i, CAST(min(h) % {_M62P1} AS BIGINT) AS s FROM hashed GROUP BY 1, 2
), bandstr AS (
  SELECT doc_id, i // {rows_per_band} AS band,
         string_agg(CAST(s AS VARCHAR), '|' ORDER BY i) AS bs
  FROM sig GROUP BY 1, 2
), bh AS (
  SELECT doc_id, band,
         CAST(md5_number_upper('0:' || bs) % {_M62P1} AS BIGINT) AS band_hash
  FROM bandstr
)"""
    return prefix, min_eq


def sql_dedup_minhash_lsh(
    num_perm: int, bands: int, threshold: float, shingle_k: int
) -> str:
    """Byte-k-gram shingle codes, the (a*x+b mod 2^64) hash family (constants
    embedded from the same stable_hash64 derivation as minhash_from_codes),
    band hashing via md5, in-bucket verification on the signature Jaccard
    estimate.  Exact parity assumes single-byte characters (the driver
    corpora are pure ASCII; the Python side windows over utf-8 BYTES)."""
    prefix, min_eq = _sql_minhash_bh(num_perm, bands, threshold, shingle_k)
    return prefix + f"""
, cand AS (
  SELECT DISTINCT a.doc_id AS id_a, b.doc_id AS id_b
  FROM bh a JOIN bh b
    ON a.band = b.band AND a.band_hash = b.band_hash AND a.doc_id < b.doc_id
), verified AS (
  SELECT c.id_a, c.id_b
  FROM cand c
  JOIN sig sa ON sa.doc_id = c.id_a
  JOIN sig sb ON sb.doc_id = c.id_b AND sb.i = sa.i
  GROUP BY 1, 2
  HAVING CAST(sum(CASE WHEN sa.s = sb.s THEN 1 ELSE 0 END) AS BIGINT) >= {min_eq}
)
SELECT CAST(id_a AS BIGINT) AS id_a, CAST(id_b AS BIGINT) AS id_b FROM verified
"""


def sql_minhash_band_balance(
    num_perm: int, bands: int, threshold: float, shingle_k: int
) -> str:
    """(band, size, n_buckets): bucket-size histogram per LSH band over the
    per-doc band hashes — the byte-identical bh prefix folded twice."""
    prefix, _ = _sql_minhash_bh(num_perm, bands, threshold, shingle_k)
    return prefix + """
, bsz AS (
  SELECT band, band_hash, count(*) AS size FROM bh GROUP BY 1, 2
)
SELECT CAST(band AS BIGINT) AS band, CAST(size AS BIGINT) AS size,
       CAST(count(*) AS BIGINT) AS n_buckets
FROM bsz GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# ann_topk_lsh / ann_topk_ivf
# ---------------------------------------------------------------------------


def sql_ann_topk_lsh(every: int, k: int, nbits: int, tables: int, dim: int = 64) -> str:
    """Random-hyperplane LSH: the deterministic planes (pure function of the
    seed, same irwin-hall construction as similarity.lsh_planes) are embedded
    as exact float literals; bucket codes are sign patterns of raw dot
    products (sign is scale-invariant, so raw == normalized); candidates are
    scored with list_cosine_similarity exactly like the green ann_topk
    oracle."""
    from .stages.similarity import lsh_planes

    planes = lsh_planes(dim, nbits, tables)
    # float() before repr: numpy 2.x reprs scalars as "np.float64(x)", which
    # is not SQL; Python float repr is the exact shortest round-trip literal
    plane_vals = ", ".join(
        f"({t}, {b}, {d}, {float(planes[t, b, d])!r})"
        for t in range(tables) for b in range(nbits) for d in range(dim)
    )
    return f"""
WITH emb AS (
  SELECT CAST(vec_id AS BIGINT) AS vec_id, CAST(embedding AS DOUBLE[]) AS e
  FROM embeddings
), planes(t, b, d, val) AS (VALUES {plane_vals}),
proj AS (
  SELECT emb.vec_id, p.t, p.b, sum(emb.e[p.d + 1] * p.val) AS pr
  FROM emb, planes p GROUP BY 1, 2, 3
), code AS (
  SELECT vec_id, t,
    CAST(sum(CASE WHEN pr > 0 THEN (CAST(1 AS BIGINT) << CAST(b AS INT)) ELSE 0 END) AS BIGINT) AS c
  FROM proj GROUP BY 1, 2
), q AS (SELECT vec_id AS query_id, e AS qe FROM emb WHERE vec_id % {every} = 0),
cand AS (
  SELECT DISTINCT qc.vec_id AS query_id, vc.vec_id AS vec_id
  FROM code qc JOIN code vc ON qc.t = vc.t AND qc.c = vc.c
  WHERE qc.vec_id % {every} = 0 AND vc.vec_id <> qc.vec_id
), scored AS (
  SELECT c.query_id, c.vec_id AS neighbor_id,
    row_number() OVER (PARTITION BY c.query_id ORDER BY
      list_cosine_similarity(q.qe, e.e) DESC, c.vec_id) AS r
  FROM cand c JOIN q ON q.query_id = c.query_id JOIN emb e ON e.vec_id = c.vec_id
)
SELECT query_id, neighbor_id, CAST(r AS BIGINT) AS "rank" FROM scored WHERE r <= {k}
"""


def sql_lsh_balance(nbits: int, tables: int, dim: int = 64) -> str:
    """(t, size, n_buckets): LSH bucket-size histogram per hash table —
    same plane literals / sign-pattern codes as sql_ann_topk_lsh (the
    CTE scaffold is repeated rather than factored so the green LSH
    oracle's SQL text stays untouched), with an explicit null-embedding
    filter matching the Ray side's is_valid drop."""
    from .stages.similarity import lsh_planes

    planes = lsh_planes(dim, nbits, tables)
    plane_vals = ", ".join(
        f"({t}, {b}, {d}, {float(planes[t, b, d])!r})"
        for t in range(tables) for b in range(nbits) for d in range(dim)
    )
    return f"""
WITH emb AS (
  SELECT CAST(vec_id AS BIGINT) AS vec_id, CAST(embedding AS DOUBLE[]) AS e
  FROM embeddings WHERE embedding IS NOT NULL
), planes(t, b, d, val) AS (VALUES {plane_vals}),
proj AS (
  SELECT emb.vec_id, p.t, p.b, sum(emb.e[p.d + 1] * p.val) AS pr
  FROM emb, planes p GROUP BY 1, 2, 3
), code AS (
  SELECT vec_id, t,
    CAST(sum(CASE WHEN pr > 0 THEN (CAST(1 AS BIGINT) << CAST(b AS INT)) ELSE 0 END) AS BIGINT) AS c
  FROM proj GROUP BY 1, 2
), bc AS (
  SELECT t, c, count(*) AS sz FROM code GROUP BY 1, 2
)
SELECT CAST(t AS BIGINT) AS t, CAST(sz AS BIGINT) AS size,
       CAST(count(*) AS BIGINT) AS n_buckets
FROM bc GROUP BY 1, 2
"""


def sql_ann_topk_ivf(every: int, k: int, n_lists: int, nprobe: int) -> str:
    """IVF with the sample coarse quantizer (ivf_train iters=0) trained on
    the DISTRIBUTED stride sample (r5: the full corpus never reaches the
    driver): centroids = evenly-strided rows of the vec_id %% every sample in
    vec_id order, index wrapping ``(i*stride) %% n`` when the sample is
    smaller than n_lists (duplicate centroid vectors, distinct list ids);
    assignment/probing by cosine with (sim DESC, centroid ASC) tie-breaks
    matching numpy first-max argmax / stable argsort."""
    return f"""
WITH emb AS (
  SELECT CAST(vec_id AS BIGINT) AS vec_id, CAST(embedding AS DOUBLE[]) AS e
  FROM embeddings
), qs AS (
  SELECT vec_id, e,
         CAST(row_number() OVER (ORDER BY vec_id) - 1 AS BIGINT) AS rn
  FROM emb WHERE vec_id % {every} = 0
), qm AS (
  SELECT count(*) AS n, greatest(count(*) // {n_lists}, 1) AS stride FROM qs
), cidx AS (
  SELECT CAST(g.c AS BIGINT) AS c,
         (CAST(g.c AS BIGINT) * qm.stride) % qm.n AS idx
  FROM generate_series(0, {n_lists - 1}) g(c), qm
), cent AS (
  SELECT cidx.c, qs.e AS ce FROM cidx JOIN qs ON qs.rn = cidx.idx
), assign AS (
  SELECT vec_id, c FROM (
    SELECT emb.vec_id, cent.c,
      row_number() OVER (PARTITION BY emb.vec_id
        ORDER BY list_cosine_similarity(emb.e, cent.ce) DESC, cent.c) AS rr
    FROM emb, cent) WHERE rr = 1
), q AS (SELECT vec_id AS query_id, e AS qe FROM emb WHERE vec_id % {every} = 0),
probes AS (
  SELECT query_id, c FROM (
    SELECT q.query_id, cent.c,
      row_number() OVER (PARTITION BY q.query_id
        ORDER BY list_cosine_similarity(q.qe, cent.ce) DESC, cent.c) AS rr
    FROM q, cent) WHERE rr <= {nprobe}
), cand AS (
  SELECT p.query_id, a.vec_id FROM probes p JOIN assign a ON a.c = p.c
  WHERE a.vec_id <> p.query_id
), scored AS (
  SELECT c.query_id, c.vec_id AS neighbor_id,
    row_number() OVER (PARTITION BY c.query_id ORDER BY
      list_cosine_similarity(q.qe, e.e) DESC, c.vec_id) AS r
  FROM cand c JOIN q ON q.query_id = c.query_id JOIN emb e ON e.vec_id = c.vec_id
)
SELECT query_id, neighbor_id, CAST(r AS BIGINT) AS "rank" FROM scored WHERE r <= {k}
"""


# ---------------------------------------------------------------------------
# kg chain (enrich="sql" pages + _kg_sql_cfg overrides)
# ---------------------------------------------------------------------------

KG_SEG_CHARS = 400  # hard-chunk width of the SQL-checkable config variant


def _kb_state():
    kb = synth.build_knowledge_base()
    templates = synth.sql_templates(kb)
    return kb, templates


def _alias_top_rows(kb: dict) -> list[tuple[str, int, str, str, int]]:
    """(alias_lower, ntoks, canonical_name, ner_type, entity_id) for the TOP
    candidate per alias under the linker's (prior DESC, entity_id ASC) order
    — the alias-prior-only linker resolves every surface to exactly this
    row, so the choice is embeddable config, not computation."""
    by_alias: dict[str, list] = {}
    for r in kb["alias_table"].to_pylist():
        by_alias.setdefault(r["alias"].lower(), []).append(r)
    rows = []
    for al, cands in sorted(by_alias.items()):
        top = sorted(cands, key=lambda c: (-c["prior"], c["entity_id"]))[0]
        rows.append(
            (al, len(al.split()), top["canonical_name"], top["ner_type"],
             int(top["entity_id"]))
        )
    return rows


def _predicate_rows() -> list[tuple[str, int, str, float]]:
    from . import config_loader

    rules = config_loader.load("rules/predicates")["predicates"]
    return [
        (r["phrase"].lower(), len(r["phrase"].split()), r["pred"], float(r["conf"]))
        for r in rules
    ]


def _sql_norm_entity_key(col: str) -> str:
    """normalize_entity_key: digits stripped, lowercased, separator runs
    collapsed to single spaces, trimmed."""
    sep = r"[\t\n\x0b\x0c\r \-_/|.,:;]+"
    inner = f"regexp_replace(regexp_replace(lower({col}), '[0-9]+', '', 'g'), '{sep}', ' ', 'g')"
    return f"trim({inner})"


def _sql_norm_triple_part(col: str) -> str:
    """normalize_triple_part: lower, strip ASCII punctuation, collapse ws."""
    inner = f"regexp_replace(lower({col}), '[^a-z0-9_ \\t\\n\\x0b\\x0c\\r]', '', 'g')"
    return f"trim(regexp_replace({inner}, '{ts.SQL_WS_CLASS}+', ' ', 'g'))"


def _sql_categorize(hay: str) -> str:
    """Keyword-argmax categorization (G3): substring-count per category from
    the same categories.yaml, strict-> first-wins via a CASE chain."""
    from . import config_loader

    cats_cfg = config_loader.load("categories")
    order = [c for c in cats_cfg["order"] if c != "general"]
    kw = cats_cfg["keywords"]
    counts = {}
    for c in order:
        kws = kw.get(c) or []
        if kws:
            terms = " + ".join(
                f"CASE WHEN contains({hay}, {_q(w.lower())}) THEN 1 ELSE 0 END"
                for w in kws
            )
            counts[c] = f"({terms})"
        else:
            counts[c] = "0"
    allc = ", ".join(counts[c] for c in order)
    branches = " ".join(
        f"WHEN {counts[c]} = greatest({allc}) THEN {_q(c)}" for c in order[:-1]
    )
    return (
        f"CASE WHEN greatest({allc}) = 0 THEN 'general' {branches} "
        f"ELSE {_q(order[-1])} END"
    )


def _kg_common_ctes() -> str:
    """Shared WITH-chain: documents -> enriched page text -> 400-char chunks
    -> positioned tokens -> alias matches (am) -> predicate matches (pm) ->
    linked triples (linked).  Token-sequence matching via lead() windows;
    longest-match-per-start; see module docstring for why this equals the
    engine's regex scan on this corpus."""
    kb, templates = _kb_state()
    tmpl_vals = ", ".join(f"({i}, {_q(t)})" for i, t in enumerate(templates))
    alias_rows = _alias_top_rows(kb)
    alias_vals = ", ".join(
        f"({_q(al)}, {n}, {_q(cn)}, {_q(nt)}, {eid})"
        for al, n, cn, nt, eid in alias_rows
    )
    pred_rows = _predicate_rows()
    pred_vals = ", ".join(
        f"({_q(ph)}, {n}, {_q(pred)}, {conf!r})" for ph, n, pred, conf in pred_rows
    )
    alias_lens = sorted({n for _, n, _, _, _ in alias_rows})
    pred_lens = sorted({n for _, n, _, _ in pred_rows})
    max_lead = max(alias_lens + pred_lens) - 1
    norm = ts.sql_norm_text(
        f"(coalesce(text,'') || ' ' || tmpl.body)"
    )
    W = KG_SEG_CHARS

    def joined(col: str, n: int) -> str:
        parts = [col if j == 0 else f"{col}{j}" for j in range(n)]
        return " || ' ' || ".join(parts)

    leads = ", ".join(
        f"lead(tl, {j}) OVER w AS tl{j}, lead(torig, {j}) OVER w AS torig{j}"
        for j in range(1, max_lead + 1)
    ) or ""
    leads = (", " + leads) if leads else ""
    am_branches = " UNION ALL ".join(
        f"SELECT t.url, t.seg_id, t.p, {n} AS ntoks, {joined('torig', n)} AS surface, "
        f"a.canonical_name, a.ner_type, a.entity_id "
        f"FROM tok2 t JOIN aliases a ON a.ntoks = {n} AND a.alias_l = {joined('tl', n)}"
        for n in alias_lens
    )
    pm_branches = " UNION ALL ".join(
        f"SELECT t.url, t.seg_id, t.p, {n} AS ntoks, pr.pred, pr.conf "
        f"FROM tok2 t JOIN preds pr ON pr.ntoks = {n} AND pr.phrase_l = {joined('tl', n)}"
        for n in pred_lens
    )
    min_len = 3  # filters.min_valuable_text_length (M11)
    return f"""
WITH tmpl(tid, body) AS (VALUES {tmpl_vals}),
aliases(alias_l, ntoks, canonical_name, ner_type, entity_id) AS (VALUES {alias_vals}),
preds(phrase_l, ntoks, pred, conf) AS (VALUES {pred_vals}),
base AS (
  SELECT doc_id, {DOC_URL_SQL} AS url, {norm} AS t
  FROM documents JOIN tmpl ON tmpl.tid = doc_id % {len(templates)}
), segpos AS (
  SELECT url, t,
    unnest(generate_series(0, CAST(ceil(length(t) / {W}.0) AS BIGINT) - 1)) AS seg_id
  FROM base WHERE length(t) > 0
), seg AS (
  SELECT url, CAST(seg_id AS BIGINT) AS seg_id,
         substr(t, CAST(seg_id * {W} + 1 AS BIGINT), {W}) AS raw
  FROM segpos
), tokl AS (
  SELECT url, seg_id,
         regexp_extract_all(lower(raw), '[a-z0-9_]+') AS tls,
         regexp_extract_all(raw, '[A-Za-z0-9_]+') AS tos
  FROM seg
), tokp AS (
  SELECT url, seg_id, tls, tos,
         unnest(generate_series(1, len(tls))) AS pp
  FROM tokl WHERE len(tls) > 0
), tok AS (
  SELECT url, seg_id, CAST(pp - 1 AS BIGINT) AS p, tls[pp] AS tl, tos[pp] AS torig
  FROM tokp
), tok2 AS (
  SELECT *{leads} FROM tok WINDOW w AS (PARTITION BY url, seg_id ORDER BY p)
), am_all AS ({am_branches}),
am AS (
  SELECT * FROM (
    SELECT *, row_number() OVER (PARTITION BY url, seg_id, p ORDER BY ntoks DESC) AS rr
    FROM am_all) WHERE rr = 1
), pm_all AS ({pm_branches}),
pm AS (
  SELECT * FROM (
    SELECT *, row_number() OVER (PARTITION BY url, seg_id, p ORDER BY ntoks DESC) AS rr
    FROM pm_all) WHERE rr = 1
), subj_pick AS (
  SELECT pm.url, pm.seg_id, pm.p AS pm_p, pm.pred, pm.conf,
         am.surface AS s_surface, am.canonical_name AS s_name,
         am.entity_id AS s_id,
         row_number() OVER (PARTITION BY pm.url, pm.seg_id, pm.p, pm.pred
                            ORDER BY am.p DESC) AS rr
  FROM pm JOIN am ON am.url = pm.url AND am.seg_id = pm.seg_id
                 AND am.p + am.ntoks <= pm.p
), obj_pick AS (
  SELECT pm.url, pm.seg_id, pm.p AS pm_p, pm.pred,
         am.surface AS o_surface, am.canonical_name AS o_name,
         am.entity_id AS o_id,
         row_number() OVER (PARTITION BY pm.url, pm.seg_id, pm.p, pm.pred
                            ORDER BY am.p ASC) AS rr
  FROM pm JOIN am ON am.url = pm.url AND am.seg_id = pm.seg_id
                 AND am.p >= pm.p + pm.ntoks
), linked AS (
  SELECT s.url, s.seg_id, s.pred, s.conf,
         s.s_name AS subj, {_sql_norm_entity_key('s.s_name')} AS subj_key,
         s.s_id AS subj_id, s.s_surface AS subj_surface,
         o.o_name AS obj, {_sql_norm_entity_key('o.o_name')} AS obj_key,
         o.o_id AS obj_id, o.o_surface AS obj_surface
  FROM subj_pick s
  JOIN obj_pick o ON o.url = s.url AND o.seg_id = s.seg_id
                 AND o.pm_p = s.pm_p AND o.pred = s.pred AND o.rr = 1
  WHERE s.rr = 1 AND s.conf >= 0.10
    AND length(s.s_surface) >= {min_len} AND length(o.o_surface) >= {min_len}
)"""


def sql_kg_mentions() -> str:
    """(url, seg_id, mention_ord, surface, ner_type): every alias-automaton
    match per segment in scan order."""
    return (
        _kg_common_ctes()
        + """
SELECT url, seg_id,
       CAST(row_number() OVER (PARTITION BY url, seg_id ORDER BY p) - 1 AS BIGINT)
         AS mention_ord,
       surface, ner_type
FROM am
"""
    )


def sql_kg_triples() -> str:
    """Final deduped + categorized triples of the SQL-checkable chain:
    group by normalized (s,p,o); representative = tuple-min lineage;
    conf_pct = floor(max conf * 100 + 0.5) — an EXPLICIT half-away-from-zero
    rule shared with the Ray projection, so no engine/oracle divergence if a
    conf ever lands exactly on .5 (pandas .round is half-to-even while
    DuckDB round() is half-away; ADVICE.md r2); n_support = count;
    keyword-argmax category."""
    cat = _sql_categorize("lower(subj || ' ' || pred || ' ' || obj)")
    return (
        _kg_common_ctes()
        + f"""
, keyed AS (
  SELECT *, {_sql_norm_triple_part('subj')} AS ns, {_sql_norm_triple_part('obj')} AS no
  FROM linked
), ranked AS (
  SELECT *,
    row_number() OVER (PARTITION BY ns, pred, no
                       ORDER BY url, seg_id, subj, pred, obj) AS rr,
    CAST(count(*) OVER (PARTITION BY ns, pred, no) AS BIGINT) AS n_support,
    max(conf) OVER (PARTITION BY ns, pred, no) AS max_conf
  FROM keyed
)
SELECT subj, pred, obj, url, CAST(seg_id AS BIGINT) AS seg_id,
       CAST(floor(max_conf * 100 + 0.5) AS BIGINT) AS conf_pct,
       {cat} AS category, n_support
FROM ranked WHERE rr = 1
"""
    )


def sql_kg_entities() -> str:
    """Canonical entities from the exploded linked-triple mention rows:
    min id, longest-name representative, distinct-surface count, mention
    count, min lineage."""
    return (
        _kg_common_ctes()
        + """
, ment AS (
  SELECT subj_key AS entity_key, subj_id AS eid, subj AS name,
         subj_surface AS surf, url, seg_id FROM linked
  UNION ALL
  SELECT obj_key, obj_id, obj, obj_surface, url, seg_id FROM linked
), ranked AS (
  SELECT *,
    row_number() OVER (PARTITION BY entity_key
                       ORDER BY length(name) DESC, name ASC) AS name_rr,
    row_number() OVER (PARTITION BY entity_key ORDER BY url, seg_id) AS lin_rr
  FROM ment
), agg AS (
  SELECT entity_key,
         CAST(min(eid) AS BIGINT) AS entity_id,
         CAST(count(DISTINCT surf) AS BIGINT) AS n_aliases,
         CAST(count(*) AS BIGINT) AS n_mentions
  FROM ment GROUP BY 1
)
SELECT a.entity_key, a.entity_id,
       n.name AS canonical_name, a.n_aliases, a.n_mentions,
       l.url AS first_url, CAST(l.seg_id AS BIGINT) AS first_seg_id
FROM agg a
JOIN ranked n ON n.entity_key = a.entity_key AND n.name_rr = 1
JOIN ranked l ON l.entity_key = a.entity_key AND l.lin_rr = 1
"""
    )


def sql_kg_adjacency() -> str:
    """Adjacency from the deduped triples: per subject, '|'-joined neighbor
    and predicate lists in deterministic (obj, pred) order."""
    return (
        _kg_common_ctes()
        + f"""
, keyed AS (
  SELECT *, {_sql_norm_triple_part('subj')} AS ns, {_sql_norm_triple_part('obj')} AS no
  FROM linked
), ranked AS (
  SELECT *, row_number() OVER (PARTITION BY ns, pred, no
                               ORDER BY url, seg_id, subj, pred, obj) AS rr
  FROM keyed
), final_t AS (
  SELECT subj, pred, obj FROM ranked WHERE rr = 1
), adj AS (
  SELECT DISTINCT subj, obj, pred FROM final_t
)
SELECT subj,
       string_agg(obj, '|' ORDER BY obj, pred) AS neighbors,
       string_agg(pred, '|' ORDER BY obj, pred) AS preds,
       CAST(count(*) AS BIGINT) AS out_degree
FROM adj GROUP BY subj
"""
    )


def sql_kg_cooccurrence() -> str:
    """(surface_a, surface_b, n_pages): page-level co-occurrence of
    distinct mention surfaces, a < b in binary string order (both engines
    compare ASCII alias surfaces codepoint-wise)."""
    return (
        _kg_common_ctes()
        + """
, ents AS (
  SELECT DISTINCT url, surface FROM am
)
SELECT a.surface AS surface_a, b.surface AS surface_b,
       CAST(count(*) AS BIGINT) AS n_pages
FROM ents a JOIN ents b ON a.url = b.url AND a.surface < b.surface
GROUP BY 1, 2
"""
    )


def sql_kg_entity_pmi(k: int = 20, min_pair: int = 2,
                      pmi_scale: int = 1000) -> str:
    """Top-k integer fixed-point exp(PMI) entity associations over the
    page co-occurrence event space; HUGEINT product mirrors the engine's
    overflow-safe kernel, rank ties break (score desc, a, b)."""
    return (
        _kg_common_ctes()
        + f"""
, ents AS (
  SELECT DISTINCT url, surface FROM am
), npages AS (
  SELECT count(DISTINCT url) AS n FROM ents
), scount AS (
  SELECT surface, CAST(count(*) AS BIGINT) AS c FROM ents GROUP BY surface
), pairs AS (
  SELECT a.surface AS sa, b.surface AS sb, CAST(count(*) AS BIGINT) AS c12
  FROM ents a JOIN ents b ON a.url = b.url AND a.surface < b.surface
  GROUP BY 1, 2
), scored AS (
  SELECT sa, sb, c12,
         CAST((CAST(c12 AS HUGEINT) * (SELECT n FROM npages) * {pmi_scale})
              // (CAST(ca.c AS HUGEINT) * cb.c) AS BIGINT) AS pmi_score
  FROM pairs
  JOIN scount ca ON ca.surface = pairs.sa
  JOIN scount cb ON cb.surface = pairs.sb
  WHERE c12 >= {min_pair}
)
SELECT sa AS surface_a, sb AS surface_b, c12 AS n_pages, pmi_score,
       CAST(row_number() OVER (ORDER BY pmi_score DESC, sa, sb)
            AS BIGINT) AS "rank"
FROM scored ORDER BY pmi_score DESC, sa, sb LIMIT {k}
"""
    )


def sql_knn_graph_ivf(every: int, k: int, n_lists: int) -> str:
    """k-NN graph within IVF coarse lists — same sample coarse quantizer as
    sql_ann_topk_ivf (centroids = evenly-strided rows of the vec_id %% every
    stride sample in vec_id order, wrapping when the sample is smaller than
    n_lists), assignment by (cosine DESC, centroid ASC), neighbor rank by
    (cosine DESC, neighbor ASC) within each vector's list."""
    return f"""
WITH emb AS (
  SELECT CAST(vec_id AS BIGINT) AS vec_id, CAST(embedding AS DOUBLE[]) AS e
  FROM embeddings WHERE embedding IS NOT NULL
), qs AS (
  SELECT vec_id, e,
         CAST(row_number() OVER (ORDER BY vec_id) - 1 AS BIGINT) AS rn
  FROM emb WHERE vec_id % {every} = 0
), qm AS (
  SELECT count(*) AS n, greatest(count(*) // {n_lists}, 1) AS stride FROM qs
), cidx AS (
  SELECT CAST(g.c AS BIGINT) AS c,
         (CAST(g.c AS BIGINT) * qm.stride) % qm.n AS idx
  FROM generate_series(0, {n_lists - 1}) g(c), qm
), cent AS (
  SELECT cidx.c, qs.e AS ce FROM cidx JOIN qs ON qs.rn = cidx.idx
), assign AS (
  SELECT vec_id, c FROM (
    SELECT emb.vec_id, cent.c,
      row_number() OVER (PARTITION BY emb.vec_id
        ORDER BY list_cosine_similarity(emb.e, cent.ce) DESC, cent.c) AS rr
    FROM emb, cent) WHERE rr = 1
), scored AS (
  SELECT a1.vec_id, a2.vec_id AS neighbor_id,
    row_number() OVER (PARTITION BY a1.vec_id ORDER BY
      list_cosine_similarity(e1.e, e2.e) DESC, a2.vec_id) AS r
  FROM assign a1
  JOIN assign a2 ON a1.c = a2.c AND a1.vec_id <> a2.vec_id
  JOIN emb e1 ON e1.vec_id = a1.vec_id
  JOIN emb e2 ON e2.vec_id = a2.vec_id
)
SELECT vec_id, neighbor_id, CAST(r AS BIGINT) AS "rank"
FROM scored WHERE r <= {k}
"""


def sql_kg_two_hop() -> str:
    """2-hop path counts over the distinct (subj, obj) projection of the
    deduped triples (mirrors kgx.stages.kg_stages.two_hop_paths)."""
    return (
        _kg_common_ctes()
        + f"""
, keyed AS (
  SELECT *, {_sql_norm_triple_part('subj')} AS ns, {_sql_norm_triple_part('obj')} AS no
  FROM linked
), ranked AS (
  SELECT *, row_number() OVER (PARTITION BY ns, pred, no
                               ORDER BY url, seg_id, subj, pred, obj) AS rr
  FROM keyed
), final_t AS (
  SELECT subj, pred, obj FROM ranked WHERE rr = 1
), e AS (
  SELECT DISTINCT subj, obj FROM final_t
)
SELECT a.subj AS subj, b.obj AS obj2, CAST(count(*) AS BIGINT) AS n_paths
FROM e a JOIN e b ON a.obj = b.subj
GROUP BY a.subj, b.obj
"""
    )


def sql_kg_alias_stats() -> str:
    """(surface, entity_key, n_mentions, n_pages): alias-dictionary usage
    over both mention sides of the linked triples — the coverage table the
    linker's alias config is tuned against."""
    return (
        _kg_common_ctes()
        + """
, sm AS (
  SELECT subj_surface AS surface, subj_key AS entity_key, url FROM linked
  UNION ALL
  SELECT obj_surface, obj_key, url FROM linked
)
SELECT surface, entity_key,
       CAST(count(*) AS BIGINT) AS n_mentions,
       CAST(count(DISTINCT url) AS BIGINT) AS n_pages
FROM sm GROUP BY 1, 2
"""
    )


def sql_kg_pred_stats() -> str:
    """Per-predicate triple count + distinct head/tail entity counts over
    the deduped triples (same ranked/final_t chain as sql_kg_two_hop)."""
    return (
        _kg_common_ctes()
        + f"""
, keyed AS (
  SELECT *, {_sql_norm_triple_part('subj')} AS ns, {_sql_norm_triple_part('obj')} AS no
  FROM linked
), ranked AS (
  SELECT *, row_number() OVER (PARTITION BY ns, pred, no
                               ORDER BY url, seg_id, subj, pred, obj) AS rr
  FROM keyed
), final_t AS (
  SELECT subj, pred, obj FROM ranked WHERE rr = 1
)
SELECT pred, CAST(count(*) AS BIGINT) AS n_triples,
       CAST(count(DISTINCT subj) AS BIGINT) AS n_subj,
       CAST(count(DISTINCT obj) AS BIGINT) AS n_obj
FROM final_t GROUP BY 1
"""
    )


def sql_kg_mention_timeline() -> str:
    """(ner_type, day, n_mentions): the am mention stream joined back to
    the page crawl date by lineage; warc_ts reconstructs from doc_id via
    the synth formula (EPOCH_US + doc_id * 37_000_000, rep = 0)."""
    return (
        _kg_common_ctes()
        + f"""
, dts AS (
  SELECT {DOC_URL_SQL} AS url,
         (1700000000000000 + doc_id * 37000000) // 86400000000 AS day
  FROM documents
)
SELECT am.ner_type, CAST(dts.day AS BIGINT) AS day,
       CAST(count(*) AS BIGINT) AS n_mentions
FROM am JOIN dts USING (url)
GROUP BY 1, 2
"""
    )


def sql_kg_entity_freshness() -> str:
    """(entity_key, first_day, last_day, n_mentions): per-entity crawl
    span over both mention sides, warc_ts reconstructed from doc_id."""
    return (
        _kg_common_ctes()
        + f"""
, sm AS (
  SELECT subj_key AS entity_key, url FROM linked
  UNION ALL
  SELECT obj_key, url FROM linked
), dts AS (
  SELECT {DOC_URL_SQL} AS url,
         (1700000000000000 + doc_id * 37000000) // 86400000000 AS day
  FROM documents
)
SELECT entity_key, CAST(min(day) AS BIGINT) AS first_day,
       CAST(max(day) AS BIGINT) AS last_day,
       CAST(count(*) AS BIGINT) AS n_mentions
FROM sm JOIN dts USING (url)
GROUP BY 1
"""
    )


def sql_kg_type_matrix() -> str:
    """(pred, subj_type, obj_type, n): predicate type-signature matrix
    over the linked triples, types resolved from the alias inventory."""
    return (
        _kg_common_ctes()
        + """
, et AS (SELECT DISTINCT entity_id, ner_type FROM aliases)
SELECT linked.pred, s.ner_type AS subj_type, o.ner_type AS obj_type,
       CAST(count(*) AS BIGINT) AS n
FROM linked
JOIN et s ON s.entity_id = linked.subj_id
JOIN et o ON o.entity_id = linked.obj_id
GROUP BY 1, 2, 3
"""
    )


def sql_kg_pagerank(iterations: int = 3) -> str:
    """Integer fixed-point pagerank over the hashed-entity KG edge set —
    the supplier-part unrolled-CTE oracle re-based on the kg chain; node
    ids via the stable_hash64 == md5_number_upper identity % 2^62."""
    from .stages.graph import BASE, DAMP_DEN, DAMP_NUM, R0

    def h(col: str) -> str:
        return (f"CAST(md5_number_upper('0:' || {col}) "
                f"% {1 << 62}::HUGEINT AS BIGINT)")

    prev = "r0"
    parts = [
        _kg_common_ctes()
        + f"""
, keyed AS (
  SELECT *, {_sql_norm_triple_part('subj')} AS ns, {_sql_norm_triple_part('obj')} AS no
  FROM linked
), ranked AS (
  SELECT *, row_number() OVER (PARTITION BY ns, pred, no
                               ORDER BY url, seg_id, subj, pred, obj) AS rr
  FROM keyed
), final_t AS (
  SELECT subj, pred, obj FROM ranked WHERE rr = 1
), e0 AS MATERIALIZED (
  SELECT DISTINCT {h('subj')} AS a, {h('obj')} AS b FROM final_t
), edges AS MATERIALIZED (
  SELECT a AS src, b AS dst FROM e0 UNION SELECT b, a FROM e0
), deg AS (
  SELECT src, CAST(count(*) AS BIGINT) AS outdeg FROM edges GROUP BY src
), nodes AS (SELECT DISTINCT src AS node FROM edges),
r0 AS (SELECT node, CAST({R0} AS BIGINT) AS pr FROM nodes)"""
    ]
    for i in range(1, iterations + 1):
        parts.append(
            f", r{i} AS (SELECT e.dst AS node, "
            f"CAST({BASE} + sum((p.pr * {DAMP_NUM}) // "
            f"({DAMP_DEN} * d.outdeg)) AS BIGINT) AS pr "
            f"FROM edges e JOIN {prev} p ON p.node = e.src "
            "JOIN deg d ON d.src = e.src GROUP BY e.dst)"
        )
        prev = f"r{i}"
    parts.append(
        f" SELECT CAST(node AS BIGINT) AS node, CAST(pr AS BIGINT) AS pr "
        f"FROM {prev}")
    return "".join(parts)


def sql_kg_cc(rounds: int | None = None) -> str:
    """Unrolled min-propagation CC over the hashed-entity KG edges (the
    supplier-part CC oracle re-based on the kg chain); UNION (distinct)
    because subj<->obj double triples collapse to one undirected edge."""
    from .stages.graph import CC_ROUNDS

    rounds = rounds or CC_ROUNDS

    def h(col: str) -> str:
        return (f"CAST(md5_number_upper('0:' || {col}) "
                f"% {1 << 62}::HUGEINT AS BIGINT)")

    parts = [
        _kg_common_ctes()
        + f"""
, keyed AS (
  SELECT *, {_sql_norm_triple_part('subj')} AS ns, {_sql_norm_triple_part('obj')} AS no
  FROM linked
), ranked AS (
  SELECT *, row_number() OVER (PARTITION BY ns, pred, no
                               ORDER BY url, seg_id, subj, pred, obj) AS rr
  FROM keyed
), final_t AS (
  SELECT subj, pred, obj FROM ranked WHERE rr = 1
), e0 AS MATERIALIZED (
  SELECT DISTINCT {h('subj')} AS a, {h('obj')} AS b FROM final_t
), edges AS MATERIALIZED (
  SELECT a AS src, b AS dst FROM e0 UNION SELECT b, a FROM e0
), l0 AS (SELECT DISTINCT src AS node, src AS lab FROM edges)"""
    ]
    prev = "l0"
    for i in range(1, rounds + 1):
        parts.append(
            f", l{i} AS (SELECT l.node, least(l.lab, min(p.lab)) AS lab "
            f"FROM {prev} l JOIN edges e ON e.src = l.node "
            f"JOIN {prev} p ON p.node = e.dst GROUP BY l.node, l.lab)"
        )
        prev = f"l{i}"
    parts.append(
        f" SELECT CAST(node AS BIGINT) AS node, CAST(lab AS BIGINT) AS label "
        f"FROM {prev}")
    return "".join(parts)


def sql_kg_comention_clusters(min_pages: int = 2,
                              rounds: int | None = None) -> str:
    """Round-exact CC over the thresholded co-mention graph: the
    co-occurrence pair CTE (HAVING >= min_pages) hashed with the same
    md5 identity, then the sql_kg_cc unrolled min-propagation (the
    8-line loop is repeated rather than factored so the certified
    sql_kg_cc text stays untouched)."""
    from .stages.graph import CC_ROUNDS

    rounds = rounds or CC_ROUNDS

    def h(col: str) -> str:
        return (f"CAST(md5_number_upper('0:' || {col}) "
                f"% {1 << 62}::HUGEINT AS BIGINT)")

    parts = [
        _kg_common_ctes()
        + f"""
, ents AS (
  SELECT DISTINCT url, surface FROM am
), prs AS (
  SELECT a.surface AS sa, b.surface AS sb
  FROM ents a JOIN ents b ON a.url = b.url AND a.surface < b.surface
  GROUP BY 1, 2
  HAVING count(*) >= {min_pages}
), e0 AS MATERIALIZED (
  SELECT DISTINCT {h('sa')} AS a, {h('sb')} AS b FROM prs
), edges AS MATERIALIZED (
  SELECT a AS src, b AS dst FROM e0 UNION SELECT b, a FROM e0
), l0 AS (SELECT DISTINCT src AS node, src AS lab FROM edges)"""
    ]
    prev = "l0"
    for i in range(1, rounds + 1):
        parts.append(
            f", l{i} AS (SELECT l.node, least(l.lab, min(p.lab)) AS lab "
            f"FROM {prev} l JOIN edges e ON e.src = l.node "
            f"JOIN {prev} p ON p.node = e.dst GROUP BY l.node, l.lab)"
        )
        prev = f"l{i}"
    parts.append(
        f" SELECT CAST(node AS BIGINT) AS node, CAST(lab AS BIGINT) AS label "
        f"FROM {prev}")
    return "".join(parts)


def sql_kg_hub_entities(k: int = 15, iterations: int = 3) -> str:
    """Top-k pagerank entities with names: the pagerank oracle as a
    derived table, ranked, then joined back to the distinct entity-name
    set (one more chain run, names unnested from [subj, obj]) through
    the same md5 hash."""
    pr = sql_kg_pagerank(iterations)
    tri = sql_kg_triples()
    h = (f"CAST(md5_number_upper('0:' || entity) "
         f"% {1 << 62}::HUGEINT AS BIGINT)")
    return f"""
SELECT nm.entity, CAST(p.pr AS BIGINT) AS pr, CAST(p.rnk AS BIGINT) AS rnk
FROM (
  SELECT node, pr, row_number() OVER (ORDER BY pr DESC, node) AS rnk
  FROM ({pr}) b
) p
JOIN (
  SELECT DISTINCT entity, {h} AS node
  FROM (SELECT unnest([subj, obj]) AS entity FROM ({tri}) t) u
) nm ON nm.node = p.node
WHERE p.rnk <= {k}
"""


def sql_kg_boilerplate() -> str:
    """(n_urls, n_segments): cross-page boilerplate histogram — distinct
    token-normalized segments by how many DISTINCT urls carry them,
    under the SQL-checkable 400-char chunk variant.  Segments are keyed
    by their token join (regexp_extract_all on lower(raw)) — the same
    token-sequence equivalence the am/pm match chains rely on, immune to
    strip/whitespace differences between the engine's spans and substr
    chunks.  Duplicates the tmpl/base/segpos/seg prefix of
    _kg_common_ctes verbatim rather than refactoring it: reordering the
    shared chain's CTEs would change the SQL text of every kg oracle and
    force a full-family re-certification for zero functional gain."""
    _, templates = _kb_state()
    tmpl_vals = ", ".join(f"({i}, {_q(t)})" for i, t in enumerate(templates))
    norm = ts.sql_norm_text("(coalesce(text,'') || ' ' || tmpl.body)")
    W = KG_SEG_CHARS
    return f"""
WITH tmpl(tid, body) AS (VALUES {tmpl_vals}),
base AS (
  SELECT doc_id, {DOC_URL_SQL} AS url, {norm} AS t
  FROM documents JOIN tmpl ON tmpl.tid = doc_id % {len(templates)}
), segpos AS (
  SELECT url, t,
    unnest(generate_series(0, CAST(ceil(length(t) / {W}.0) AS BIGINT) - 1)) AS seg_id
  FROM base WHERE length(t) > 0
), seg AS (
  SELECT url, substr(t, CAST(seg_id * {W} + 1 AS BIGINT), {W}) AS raw
  FROM segpos
), keyed AS (
  SELECT url,
         array_to_string(regexp_extract_all(lower(raw), '[a-z0-9_]+'), ' ')
             AS key
  FROM seg
), per_seg AS (
  SELECT key, count(DISTINCT url) AS n_urls
  FROM keyed WHERE key <> '' GROUP BY key
)
SELECT CAST(n_urls AS BIGINT) AS n_urls,
       CAST(count(*) AS BIGINT) AS n_segments
FROM per_seg GROUP BY 1
"""


def sql_kg_growth_curve() -> str:
    """(day, n_new, n_cum): entities first seen per crawl day + running
    cumulative — the freshness oracle folded by first_day with a window
    prefix sum."""
    fresh = sql_kg_entity_freshness()
    return f"""
WITH d AS (
  SELECT first_day AS day, count(*) AS n_new
  FROM ({fresh}) f GROUP BY 1
)
SELECT CAST(day AS BIGINT) AS day, CAST(n_new AS BIGINT) AS n_new,
       CAST(sum(n_new) OVER (ORDER BY day) AS BIGINT) AS n_cum
FROM d
"""


def sql_kg_cluster_sizes(rounds: int | None = None) -> str:
    """(size, n_components) over the round-exact KG CC labels: the CC
    oracle as a derived table, folded label -> size -> histogram."""
    cc = sql_kg_cc(rounds)
    return f"""
SELECT CAST(sz AS BIGINT) AS size,
       CAST(count(*) AS BIGINT) AS n_components
FROM (SELECT label, count(*) AS sz FROM ({cc}) c GROUP BY label) g
GROUP BY 1
"""


def sql_kg_pagerank_share(k: int = 15, iterations: int = 3) -> str:
    """(k_top, pr_top, pr_total, share_pm): top-k pagerank mass share —
    single scan over the ranked pagerank oracle (the chain runs once)."""
    pr = sql_kg_pagerank(iterations)
    top = f"sum(CASE WHEN rnk <= {k} THEN pr ELSE 0 END)"
    return f"""
SELECT CAST({k} AS BIGINT) AS k_top,
       CAST({top} AS BIGINT) AS pr_top,
       CAST(sum(pr) AS BIGINT) AS pr_total,
       CAST(10000 * {top} // sum(pr) AS BIGINT) AS share_pm
FROM (SELECT pr, row_number() OVER (ORDER BY pr DESC, node) AS rnk
      FROM ({pr}) b) r
"""


# Predicates whose object is semantically single-valued per subject —
# more than one distinct object for the same (normalized) subject is an
# extraction contradiction the KG QA pass must surface.
FUNCTIONAL_PREDS = ("headquartered_in", "located_in", "ceo_of",
                    "merged_with", "subsidiary_of")


def sql_kg_conflicts() -> str:
    """(subj, pred, n_objs, objs): functional-predicate contradictions over
    the deduped triples — group by (normalized subj, pred), keep groups
    with >1 distinct normalized object, min display subj as representative,
    '|'-joined display objects in obj order."""
    preds = ", ".join(_q(p) for p in FUNCTIONAL_PREDS)
    return (
        _kg_common_ctes()
        + f"""
, keyed AS (
  SELECT *, {_sql_norm_triple_part('subj')} AS ns, {_sql_norm_triple_part('obj')} AS no
  FROM linked
), ranked AS (
  SELECT *,
    row_number() OVER (PARTITION BY ns, pred, no
                       ORDER BY url, seg_id, subj, pred, obj) AS rr
  FROM keyed
), final_t AS (
  SELECT ns, pred, subj, obj FROM ranked
  WHERE rr = 1 AND pred IN ({preds})
)
SELECT min(subj) AS subj, pred, CAST(count(*) AS BIGINT) AS n_objs,
       string_agg(obj, '|' ORDER BY obj) AS objs
FROM final_t GROUP BY ns, pred HAVING count(*) > 1
"""
    )


def sql_kg_new_entities(window_days: int = 2) -> str:
    """(entity_key, first_day, n_mentions): entities first seen within the
    trailing window of the crawl — the freshness mirror filtered on the
    max-day scalar (same synth warc_ts reconstruction)."""
    return (
        f"WITH f AS ({sql_kg_entity_freshness()}) "
        "SELECT entity_key, first_day, n_mentions FROM f "
        "WHERE first_day > "
        "(SELECT max((1700000000000000 + doc_id * 37000000) "
        f"// 86400000000) FROM documents) - {window_days}"
    )


def sql_kg_pred_cooccurrence() -> str:
    """(pred_a, pred_b, n_subjects): distinct normalized subjects holding
    both predicates (a < b lexically) — distinct (ns, pred) over the
    linked stream self-joined on ns."""
    return (
        _kg_common_ctes()
        + f"""
, sp AS (
  SELECT DISTINCT {_sql_norm_triple_part('subj')} AS ns, pred FROM linked
)
SELECT a.pred AS pred_a, b.pred AS pred_b,
       CAST(count(*) AS BIGINT) AS n_subjects
FROM sp a JOIN sp b ON a.ns = b.ns AND a.pred < b.pred
GROUP BY 1, 2
"""
    )


def sql_kg_source_contrib() -> str:
    """(source, n_triples, n_pages): triple provenance per crawl source,
    source parsed from the url path (the doc_url convention)."""
    return (
        _kg_common_ctes()
        + """
, src AS (
  SELECT split_part(url, '/', 4) AS source, url FROM linked
)
SELECT source, CAST(count(*) AS BIGINT) AS n_triples,
       CAST(count(DISTINCT url) AS BIGINT) AS n_pages
FROM src GROUP BY 1
"""
    )


def sql_kg_pred_directionality() -> str:
    """(pred, n_triples, n_sym, sym_pm): per-predicate symmetry profile over
    the deduped triple set — a directed triple is 'symmetric' when its
    reverse (obj, pred, subj) also exists under normalization; self-loops
    (ns == no) are trivially symmetric.  sym_pm is the exact integer
    permyriad 10000 * n_sym // n_triples."""
    return (
        _kg_common_ctes()
        + f"""
, keyed AS (
  SELECT *, {_sql_norm_triple_part('subj')} AS ns, {_sql_norm_triple_part('obj')} AS no
  FROM linked
), ranked AS (
  SELECT *,
    row_number() OVER (PARTITION BY ns, pred, no
                       ORDER BY url, seg_id, subj, pred, obj) AS rr
  FROM keyed
), t AS (
  SELECT ns, pred, no FROM ranked WHERE rr = 1
), pairs AS (
  SELECT pred, least(ns, no) AS a, greatest(ns, no) AS b,
         max(CASE WHEN ns <= no THEN 1 ELSE 0 END) AS fwd,
         max(CASE WHEN ns > no THEN 1 ELSE 0 END) AS rev
  FROM t GROUP BY 1, 2, 3
), folded AS (
  SELECT pred,
    sum(CASE WHEN a = b THEN 1 ELSE fwd + rev END) AS n_triples,
    sum(CASE WHEN a = b THEN 1
             WHEN fwd = 1 AND rev = 1 THEN 2 ELSE 0 END) AS n_sym
  FROM pairs GROUP BY pred
)
SELECT pred, CAST(n_triples AS BIGINT) AS n_triples,
       CAST(n_sym AS BIGINT) AS n_sym,
       CAST((10000 * n_sym) // n_triples AS BIGINT) AS sym_pm
FROM folded
"""
    )


def sql_kg_entity_cards() -> str:
    """(entity_key, name, n_as_subj, n_as_obj, n_preds, top_pred): the
    per-entity summary card over the deduped triples — role counts, distinct
    predicates across both roles, most-frequent predicate (count DESC, pred
    ASC tie-break), min display name as representative."""
    return (
        _kg_common_ctes()
        + f"""
, keyed AS (
  SELECT *, {_sql_norm_triple_part('subj')} AS ns, {_sql_norm_triple_part('obj')} AS no
  FROM linked
), ranked AS (
  SELECT *,
    row_number() OVER (PARTITION BY ns, pred, no
                       ORDER BY url, seg_id, subj, pred, obj) AS rr
  FROM keyed
), t AS (
  SELECT ns, no, subj, obj, pred FROM ranked WHERE rr = 1
), roles AS (
  SELECT ns AS k, subj AS nm, pred, 1 AS is_s FROM t
  UNION ALL
  SELECT no AS k, obj AS nm, pred, 0 AS is_s FROM t
), kp AS (
  SELECT k, min(nm) AS nm, pred,
         sum(is_s) AS n_s, count(*) - sum(is_s) AS n_o
  FROM roles GROUP BY k, pred
), tops AS (
  SELECT k, pred,
    row_number() OVER (PARTITION BY k ORDER BY n_s + n_o DESC, pred) AS rr
  FROM kp
), agg AS (
  SELECT k, min(nm) AS name, sum(n_s) AS n_as_subj, sum(n_o) AS n_as_obj,
         count(*) AS n_preds
  FROM kp GROUP BY k
)
SELECT a.k AS entity_key, a.name,
       CAST(a.n_as_subj AS BIGINT) AS n_as_subj,
       CAST(a.n_as_obj AS BIGINT) AS n_as_obj,
       CAST(a.n_preds AS BIGINT) AS n_preds,
       tp.pred AS top_pred
FROM agg a JOIN tops tp ON tp.k = a.k AND tp.rr = 1
"""
    )


def sql_kg_lang_yield() -> str:
    """(lang, n_pages, n_linked_pages, n_triples): per-document-language KG
    extraction yield — pages per ground-truth lang (null lang drops on both
    sides), pages that produced at least one linked triple, and total linked
    triples (pre-dedup, the kg_source_contrib convention)."""
    return (
        _kg_common_ctes()
        + f"""
, docs AS (
  SELECT {DOC_URL_SQL} AS url, lang FROM documents WHERE lang IS NOT NULL
), per_url AS (
  SELECT url, count(*) AS n FROM linked GROUP BY url
)
SELECT d.lang, CAST(count(*) AS BIGINT) AS n_pages,
       CAST(sum(CASE WHEN p.n IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT)
         AS n_linked_pages,
       CAST(coalesce(sum(p.n), 0) AS BIGINT) AS n_triples
FROM docs d LEFT JOIN per_url p ON p.url = d.url
GROUP BY d.lang
"""
    )


def sql_kg_category_stats() -> str:
    """(category, n_triples, n_subjects, support_total): per-category size of
    the final graph — the S6 report-section size table; keyword-argmax
    category over the deduped triples, distinct normalized subjects, summed
    duplicate support."""
    cat = _sql_categorize("lower(subj || ' ' || pred || ' ' || obj)")
    return (
        _kg_common_ctes()
        + f"""
, keyed AS (
  SELECT *, {_sql_norm_triple_part('subj')} AS ns, {_sql_norm_triple_part('obj')} AS no
  FROM linked
), ranked AS (
  SELECT *,
    row_number() OVER (PARTITION BY ns, pred, no
                       ORDER BY url, seg_id, subj, pred, obj) AS rr,
    CAST(count(*) OVER (PARTITION BY ns, pred, no) AS BIGINT) AS n_support
  FROM keyed
), t AS (
  SELECT ns, subj, pred, obj, n_support, {cat} AS category
  FROM ranked WHERE rr = 1
)
SELECT category, CAST(count(*) AS BIGINT) AS n_triples,
       CAST(count(DISTINCT ns) AS BIGINT) AS n_subjects,
       CAST(sum(n_support) AS BIGINT) AS support_total
FROM t GROUP BY 1
"""
    )


def sql_kg_pred_trend() -> str:
    """(pred, day, n_triples): per-predicate extraction volume by crawl day
    over the linked stream — warc_ts reconstructed from the doc_id in the
    url path (a real corpus reads its ingest-date column)."""
    return (
        _kg_common_ctes()
        + """
, days AS (
  SELECT pred,
    (1700000000000000
     + CAST(split_part(url, '/', 5) AS BIGINT) * 37000000)
    // 86400000000 AS day
  FROM linked
)
SELECT pred, CAST(day AS BIGINT) AS day,
       CAST(count(*) AS BIGINT) AS n_triples
FROM days GROUP BY 1, 2
"""
    )


def sql_kg_entity_types() -> str:
    """(ner_type, n_entities, n_aliases, n_mentions): NER-type composition
    of the canonical entity table — the agg scaffold of sql_kg_entities with
    the type attached from the embedded alias config (entity_id -> ner_type
    is functional in the KB)."""
    return (
        _kg_common_ctes()
        + """
, ment AS (
  SELECT subj_key AS entity_key, subj_id AS eid, subj_surface AS surf
  FROM linked
  UNION ALL
  SELECT obj_key, obj_id, obj_surface FROM linked
), agg AS (
  SELECT entity_key, min(eid) AS entity_id,
         count(DISTINCT surf) AS n_aliases, count(*) AS n_mentions
  FROM ment GROUP BY 1
), et AS (
  SELECT DISTINCT entity_id, ner_type FROM aliases
)
SELECT et.ner_type, CAST(count(*) AS BIGINT) AS n_entities,
       CAST(sum(a.n_aliases) AS BIGINT) AS n_aliases,
       CAST(sum(a.n_mentions) AS BIGINT) AS n_mentions
FROM agg a JOIN et ON et.entity_id = a.entity_id
GROUP BY 1
"""
    )


def sql_kg_publish(min_conf_pct: int = 50) -> str:
    """(subj, pred, obj, conf_pct, category): the publishable triple set —
    the deduped + categorized triples after the release gate: conf_pct >=
    threshold FIRST, then whole (subj, pred) groups under a functional
    predicate are DROPPED when the surviving objects still contradict
    (>1 distinct normalized object) — the composed publish step a KG build
    runs last (kg_confidence_hist picks the threshold, kg_conflicts
    explains what this gate removed)."""
    cat = _sql_categorize("lower(subj || ' ' || pred || ' ' || obj)")
    preds = ", ".join(_q(p) for p in FUNCTIONAL_PREDS)
    return (
        _kg_common_ctes()
        + f"""
, keyed AS (
  SELECT *, {_sql_norm_triple_part('subj')} AS ns, {_sql_norm_triple_part('obj')} AS no
  FROM linked
), ranked AS (
  SELECT *,
    row_number() OVER (PARTITION BY ns, pred, no
                       ORDER BY url, seg_id, subj, pred, obj) AS rr,
    max(conf) OVER (PARTITION BY ns, pred, no) AS max_conf
  FROM keyed
), t AS (
  SELECT ns, no, subj, pred, obj,
         CAST(floor(max_conf * 100 + 0.5) AS BIGINT) AS conf_pct
  FROM ranked WHERE rr = 1
), conf_ok AS (
  SELECT * FROM t WHERE conf_pct >= {min_conf_pct}
), grp AS (
  SELECT *, count(DISTINCT no) OVER (PARTITION BY ns, pred) AS n_objs
  FROM conf_ok
)
SELECT subj, pred, obj, conf_pct, {cat} AS category
FROM grp
WHERE NOT (pred IN ({preds}) AND n_objs > 1)
"""
    )


def sql_ivf_balance(every: int, n_lists: int) -> str:
    """(c, size): occupancy of every non-empty IVF cell under the sample
    coarse quantizer — the assign scaffold of sql_ann_topk_ivf (repeated
    deliberately so the certified text stays untouched) folded to a
    per-cell count."""
    return f"""
WITH emb AS (
  SELECT CAST(vec_id AS BIGINT) AS vec_id, CAST(embedding AS DOUBLE[]) AS e
  FROM embeddings
), qs AS (
  SELECT vec_id, e,
         CAST(row_number() OVER (ORDER BY vec_id) - 1 AS BIGINT) AS rn
  FROM emb WHERE vec_id % {every} = 0
), qm AS (
  SELECT count(*) AS n, greatest(count(*) // {n_lists}, 1) AS stride FROM qs
), cidx AS (
  SELECT CAST(g.c AS BIGINT) AS c,
         (CAST(g.c AS BIGINT) * qm.stride) % qm.n AS idx
  FROM generate_series(0, {n_lists - 1}) g(c), qm
), cent AS (
  SELECT cidx.c, qs.e AS ce FROM cidx JOIN qs ON qs.rn = cidx.idx
), assign AS (
  SELECT vec_id, c FROM (
    SELECT emb.vec_id, cent.c,
      row_number() OVER (PARTITION BY emb.vec_id
        ORDER BY list_cosine_similarity(emb.e, cent.ce) DESC, cent.c) AS rr
    FROM emb, cent) WHERE rr = 1
)
SELECT c, CAST(count(*) AS BIGINT) AS size FROM assign GROUP BY 1
"""


def sql_kg_seg_yield() -> str:
    """(seg_id, n_segments, n_mentions, n_triples): corpus-wide extraction
    yield by SEGMENT ORDINAL — do mentions and triples concentrate in the
    leading chunks of a page?  The chunk-budget signal an extraction
    scheduler reads when deciding a per-page segment cap (M4/G5)."""
    return (
        _kg_common_ctes()
        + """
, segc AS (
  SELECT seg_id, CAST(count(*) AS BIGINT) AS n_segments FROM seg GROUP BY seg_id
), mc AS (
  SELECT seg_id, CAST(count(*) AS BIGINT) AS n_mentions FROM am GROUP BY seg_id
), tc AS (
  SELECT seg_id, CAST(count(*) AS BIGINT) AS n_triples FROM linked GROUP BY seg_id
)
SELECT s.seg_id, s.n_segments,
       CAST(coalesce(mc.n_mentions, 0) AS BIGINT) AS n_mentions,
       CAST(coalesce(tc.n_triples, 0) AS BIGINT) AS n_triples
FROM segc s LEFT JOIN mc USING (seg_id) LEFT JOIN tc USING (seg_id)
"""
    )


def sql_kg_negative_samples() -> str:
    """(subj, pred, obj, neg_obj): one deterministic consistent-hashing
    negative per deduped triple — the negative is the entity with min
    (h, key) such that h >= probe, wrapping to the global min (the ring
    semantics in ONE window: ORDER BY (h < p), h, key); probes landing on
    the true object drop.  Mirrors kg_stages.negative_samples under the
    stable_hash64 == md5_number_upper identity."""
    m62 = f"{1 << 62}::HUGEINT"
    return (
        _kg_common_ctes()
        + f"""
, keyed AS (
  SELECT *, {_sql_norm_triple_part('subj')} AS ns, {_sql_norm_triple_part('obj')} AS no
  FROM linked
), ranked AS (
  SELECT *,
    row_number() OVER (PARTITION BY ns, pred, no
                       ORDER BY url, seg_id, subj, pred, obj) AS rr
  FROM keyed
), final_t AS (
  SELECT ns, no, subj, pred, obj FROM ranked WHERE rr = 1
), roles AS (
  SELECT ns AS key, subj AS disp FROM final_t
  UNION ALL SELECT no AS key, obj AS disp FROM final_t
), ents AS (
  SELECT key, min(disp) AS disp,
         CAST(md5_number_upper('0:ent:' || key) % {m62} AS BIGINT) AS h
  FROM roles GROUP BY key
), pr AS (
  SELECT ns, no, subj, pred, obj,
         CAST(md5_number_upper(
           '0:neg:' || ns || chr(31) || pred || chr(31) || no) % {m62}
           AS BIGINT) AS p
  FROM final_t
), cand AS (
  SELECT pr.subj, pr.pred, pr.obj, pr.no, e.key AS nkey, e.disp,
         row_number() OVER (PARTITION BY pr.ns, pr.pred, pr.no
                            ORDER BY (e.h < pr.p), e.h, e.key) AS rn
  FROM pr CROSS JOIN ents e
)
SELECT subj, pred, obj, disp AS neg_obj
FROM cand WHERE rn = 1 AND nkey <> no
"""
    )


def sql_kg_neighborhood_function(rounds: int | None = None,
                                 n_seeds: int | None = None) -> str:
    """(depth, n_pairs): exact truncated per-seed BFS depth histogram over
    the hashed-entity KG edges — seeds = the n_seeds smallest node ids;
    unrolled UNION-ALL expansion with a min-dist fold per round (min dist
    after R rounds == true distance wherever it is <= R, the bfs/cc
    round-exactness contract).  Mirrors kg_stages.neighborhood_function."""
    from .stages.kg_stages import NF_ROUNDS, NF_SEEDS

    rounds = rounds or NF_ROUNDS
    n_seeds = n_seeds or NF_SEEDS

    def h(col: str) -> str:
        return (f"CAST(md5_number_upper('0:' || {col}) "
                f"% {1 << 62}::HUGEINT AS BIGINT)")

    parts = [
        _kg_common_ctes()
        + f"""
, keyed AS (
  SELECT *, {_sql_norm_triple_part('subj')} AS ns, {_sql_norm_triple_part('obj')} AS no
  FROM linked
), ranked AS (
  SELECT *, row_number() OVER (PARTITION BY ns, pred, no
                               ORDER BY url, seg_id, subj, pred, obj) AS rr
  FROM keyed
), final_t AS (
  SELECT subj, pred, obj FROM ranked WHERE rr = 1
), e0 AS MATERIALIZED (
  SELECT DISTINCT {h('subj')} AS a, {h('obj')} AS b FROM final_t
), edges AS MATERIALIZED (
  SELECT a AS src, b AS dst FROM e0 UNION SELECT b, a FROM e0
), seeds AS (
  SELECT DISTINCT src AS node FROM edges ORDER BY src LIMIT {n_seeds}
), d0 AS (SELECT node AS seed, node, 0 AS dist FROM seeds)"""
    ]
    prev = "d0"
    for i in range(1, rounds + 1):
        parts.append(
            f", d{i} AS (SELECT seed, node, min(dist) AS dist FROM ("
            f"SELECT seed, node, dist FROM {prev} "
            f"UNION ALL "
            f"SELECT x.seed, e.dst AS node, x.dist + 1 AS dist "
            f"FROM {prev} x JOIN edges e ON e.src = x.node"
            f") GROUP BY 1, 2)"
        )
        prev = f"d{i}"
    parts.append(
        f" SELECT CAST(dist AS BIGINT) AS depth, "
        f"CAST(count(*) AS BIGINT) AS n_pairs FROM {prev} GROUP BY 1")
    return "".join(parts)


def sql_kg_seed_closeness(rounds: int | None = None,
                          n_seeds: int | None = None) -> str:
    """(seed, n_reached, dist_sum): truncated closeness components per
    seed over the same unrolled BFS chain as the neighborhood-function
    mirror (byte-identical prefix, per-seed fold instead of the depth
    histogram; the seed's own depth-0 row counts with dist 0)."""
    base = sql_kg_neighborhood_function(rounds, n_seeds)
    prefix, _final = base.rsplit(" SELECT CAST(dist AS BIGINT)", 1)
    from .stages.kg_stages import NF_ROUNDS

    prev = f"d{rounds or NF_ROUNDS}"
    return prefix + (
        f" SELECT CAST(seed AS BIGINT) AS seed, "
        f"CAST(count(*) AS BIGINT) AS n_reached, "
        f"CAST(sum(dist) AS BIGINT) AS dist_sum FROM {prev} GROUP BY 1")


def sql_kg_pred_paths() -> str:
    """(pred_in, pred_out, n_paths): directional predicate-composition
    matrix — the number of length-2 directed walks x -pred_in-> m
    -pred_out-> y over the deduped triple set, endpoint-unconstrained;
    equals sum over middles of in_count(m, pred_in) * out_count(m,
    pred_out), mirrored here as the factored count-product join (never the
    pair-exploded self-join)."""
    return (
        _kg_common_ctes()
        + f"""
, keyed AS (
  SELECT *, {_sql_norm_triple_part('subj')} AS ns, {_sql_norm_triple_part('obj')} AS no
  FROM linked
), ranked AS (
  SELECT *, row_number() OVER (PARTITION BY ns, pred, no
                               ORDER BY url, seg_id, subj, pred, obj) AS rr
  FROM keyed
), t AS (
  SELECT ns, pred, no FROM ranked WHERE rr = 1
), inn AS (
  SELECT no AS m, pred, count(*) AS c FROM t GROUP BY 1, 2
), outt AS (
  SELECT ns AS m, pred, count(*) AS c FROM t GROUP BY 1, 2
)
SELECT i.pred AS pred_in, o.pred AS pred_out,
       CAST(sum(i.c * o.c) AS BIGINT) AS n_paths
FROM inn i JOIN outt o ON i.m = o.m
GROUP BY 1, 2
"""
    )


def sql_kg_pred_object_concentration() -> str:
    """(pred, n_triples, n_distinct_obj, top_obj, top_pm): per-predicate
    object-side selectivity over the deduped triples; top_obj is the
    normalized most-attested object (count DESC, obj ASC tie-break),
    top_pm the exact integer permyriad 10000 * top_count // n_triples."""
    return (
        _kg_common_ctes()
        + f"""
, keyed AS (
  SELECT *, {_sql_norm_triple_part('subj')} AS ns, {_sql_norm_triple_part('obj')} AS no
  FROM linked
), ranked AS (
  SELECT *, row_number() OVER (PARTITION BY ns, pred, no
                               ORDER BY url, seg_id, subj, pred, obj) AS rr
  FROM keyed
), t AS (
  SELECT ns, pred, no FROM ranked WHERE rr = 1
), cnt AS (
  SELECT pred, no, count(*) AS c FROM t GROUP BY 1, 2
), top AS (
  SELECT pred, no AS top_obj, c AS top_c,
         row_number() OVER (PARTITION BY pred ORDER BY c DESC, no ASC) AS rr
  FROM cnt
), agg AS (
  SELECT pred, sum(c) AS n_triples, count(*) AS n_distinct_obj
  FROM cnt GROUP BY 1
)
SELECT a.pred, CAST(a.n_triples AS BIGINT) AS n_triples,
       CAST(a.n_distinct_obj AS BIGINT) AS n_distinct_obj,
       tp.top_obj,
       CAST((10000 * tp.top_c) // a.n_triples AS BIGINT) AS top_pm
FROM agg a JOIN (SELECT pred, top_obj, top_c FROM top WHERE rr = 1) tp
  ON a.pred = tp.pred
"""
    )


def sql_dedup_edit(num_perm: int, bands: int, threshold: float,
                   shingle_k: int, prefix_len: int, max_dist: int) -> str:
    """(id_a, id_b): fuzzy-dup pairs under prefix edit distance — the
    byte-identical minhash bh candidate prefix (same bands, same hash
    family), verified by DuckDB's levenshtein over the first ``prefix_len``
    chars of the normalized text (substr and levenshtein are char-based,
    like the Ray side's code-point payload).
    The jaccard threshold is unused here (candidates only) but keeps the
    shared prefix text identical."""
    prefix, _ = _sql_minhash_bh(num_perm, bands, threshold, shingle_k)
    return prefix + f"""
, cand AS (
  SELECT DISTINCT a.doc_id AS id_a, b.doc_id AS id_b
  FROM bh a JOIN bh b
    ON a.band = b.band AND a.band_hash = b.band_hash AND a.doc_id < b.doc_id
), pfx AS (
  SELECT doc_id, substr(t, 1, {prefix_len}) AS p FROM d2
)
SELECT CAST(c.id_a AS BIGINT) AS id_a, CAST(c.id_b AS BIGINT) AS id_b
FROM cand c
JOIN pfx fa ON fa.doc_id = c.id_a
JOIN pfx fb ON fb.doc_id = c.id_b
WHERE levenshtein(fa.p, fb.p) <= {max_dist}
"""


def sql_kg_walks(walk_len: int | None = None) -> str:
    """(start, s1..sL): one deterministic hash-seeded walk per entity —
    same edge construction as the BFS mirrors, transition = argmin over
    neighbors of (md5h(src|t|dst), dst) via a window row_number, then L
    chained joins unroll the walk.  The hash string uses decimal int64
    renderings on both sides (stable_hash64 == md5_number_upper('0:'||s)
    identity)."""
    from .stages.kg_stages import WALK_LEN

    L = walk_len or WALK_LEN

    def h(col: str) -> str:
        return (f"CAST(md5_number_upper('0:' || {col}) "
                f"% {1 << 62}::HUGEINT AS BIGINT)")

    key = ("md5_number_upper('0:' || CAST(src AS VARCHAR) || '|' || "
           "CAST(t AS VARCHAR) || '|' || CAST(dst AS VARCHAR))")
    step_vals = ", ".join(f"({t})" for t in range(L))
    parts = [
        _kg_common_ctes()
        + f"""
, keyed AS (
  SELECT *, {_sql_norm_triple_part('subj')} AS ns, {_sql_norm_triple_part('obj')} AS no
  FROM linked
), ranked AS (
  SELECT *, row_number() OVER (PARTITION BY ns, pred, no
                               ORDER BY url, seg_id, subj, pred, obj) AS rr
  FROM keyed
), final_t AS (
  SELECT subj, pred, obj FROM ranked WHERE rr = 1
), e0 AS MATERIALIZED (
  SELECT DISTINCT {h('subj')} AS a, {h('obj')} AS b FROM final_t
), edges AS MATERIALIZED (
  SELECT a AS src, b AS dst FROM e0 UNION SELECT b, a FROM e0
), steps(t) AS (VALUES {step_vals}),
wr AS (
  SELECT src, t, dst,
         row_number() OVER (PARTITION BY src, t ORDER BY {key}, dst) AS rw
  FROM edges CROSS JOIN steps
), tt AS (
  SELECT src, t, dst FROM wr WHERE rw = 1
), w0 AS (SELECT DISTINCT src AS start FROM edges)"""
    ]
    cols = ["start"]
    for i in range(1, L + 1):
        src_expr = "start" if i == 1 else f"s{i - 1}"
        sel = ", ".join(f"w{i - 1}.{c}" for c in cols)
        parts.append(
            f", w{i} AS (SELECT {sel}, t{i}.dst AS s{i} "
            f"FROM w{i - 1} JOIN tt t{i} "
            f"ON t{i}.src = w{i - 1}.{src_expr} AND t{i}.t = {i - 1})")
        cols.append(f"s{i}")
    final = ", ".join(f"CAST({c} AS BIGINT) AS {c}" for c in cols)
    parts.append(f" SELECT {final} FROM w{L}")
    return "".join(parts)


def sql_kg_split() -> str:
    """(pred, split, n_triples): deterministic 80/10/10 split counts —
    split = md5h(ns|pred|no) % 10 over the deduped triple set (the
    stable_hash64 identity), 0-7 train / 8 valid / 9 test."""
    return (
        _kg_common_ctes()
        + f"""
, keyed AS (
  SELECT *, {_sql_norm_triple_part('subj')} AS ns, {_sql_norm_triple_part('obj')} AS no
  FROM linked
), ranked AS (
  SELECT *, row_number() OVER (PARTITION BY ns, pred, no
                               ORDER BY url, seg_id, subj, pred, obj) AS rr
  FROM keyed
), t AS (
  SELECT ns, pred, no,
         md5_number_upper('0:' || ns || '|' || pred || '|' || no) % 10 AS s
  FROM ranked WHERE rr = 1
)
SELECT pred,
       CASE WHEN s < 8 THEN 'train' WHEN s = 8 THEN 'valid'
            ELSE 'test' END AS split,
       CAST(count(*) AS BIGINT) AS n_triples
FROM t GROUP BY 1, 2
"""
    )


def sql_kg_walk_pairs(walk_len: int | None = None, window: int = 2) -> str:
    """(a, b, n_pairs): skip-gram position pairs with |i - j| <= window
    over the walk mirror's (start, s1..sL) rows — a UNION ALL of the
    fixed offset column pairs folded to counts."""
    from .stages.kg_stages import WALK_LEN

    L = walk_len or WALK_LEN
    cols = ["start"] + [f"s{i}" for i in range(1, L + 1)]
    arms = " UNION ALL ".join(
        f"SELECT {cols[i]} AS a, {cols[j]} AS b FROM w"
        for i in range(len(cols)) for j in range(len(cols))
        if i != j and abs(i - j) <= window)
    return (f"WITH w AS ({sql_kg_walks(L)}) "
            f"SELECT CAST(a AS BIGINT) AS a, CAST(b AS BIGINT) AS b, "
            f"CAST(count(*) AS BIGINT) AS n_pairs FROM ({arms}) "
            f"GROUP BY 1, 2")


def sql_kg_temporal_conflicts() -> str:
    """(subj, pred, day, n_objs, objs): functional-pred contradictions
    WITHIN one crawl day over the linked stream — per-normalized-object
    min displays joined sorted, min display subj as representative; day
    from the url doc_id under the synth warc_ts formula (the
    kg_pred_trend convention)."""
    preds = ", ".join(_q(p) for p in FUNCTIONAL_PREDS)
    return (
        _kg_common_ctes()
        + f"""
, f AS (
  SELECT {_sql_norm_triple_part('subj')} AS ns,
         {_sql_norm_triple_part('obj')} AS no,
         pred, subj, obj,
         (1700000000000000
          + CAST(split_part(url, '/', 5) AS BIGINT) * 37000000)
         // 86400000000 AS day
  FROM linked WHERE pred IN ({preds})
), om AS (
  SELECT ns, pred, day, no, min(subj) AS subj, min(obj) AS obj
  FROM f GROUP BY 1, 2, 3, 4
)
SELECT min(subj) AS subj, pred, CAST(day AS BIGINT) AS day,
       CAST(count(*) AS BIGINT) AS n_objs,
       string_agg(obj, '|' ORDER BY obj) AS objs
FROM om GROUP BY ns, pred, day HAVING count(*) > 1
"""
    )


def sql_kg_inverse_preds() -> str:
    """(pred_a, pred_b, n_ab, n_a, conf_pm): AMIE-class inverse-relation
    support over the deduped triples — n_ab = triples of pred_a whose
    exact reverse exists under pred_b (dedup guarantees at most one
    reverse per (triple, pred_b), so the join count IS the support);
    confidence = exact integer permyriad against pred_a's total."""
    return (
        _kg_common_ctes()
        + f"""
, keyed AS (
  SELECT *, {_sql_norm_triple_part('subj')} AS ns, {_sql_norm_triple_part('obj')} AS no
  FROM linked
), ranked AS (
  SELECT *, row_number() OVER (PARTITION BY ns, pred, no
                               ORDER BY url, seg_id, subj, pred, obj) AS rr
  FROM keyed
), t AS (
  SELECT ns, pred, no FROM ranked WHERE rr = 1
), ab AS (
  SELECT a.pred AS pred_a, b.pred AS pred_b, count(*) AS n_ab
  FROM t a JOIN t b ON b.ns = a.no AND b.no = a.ns
  GROUP BY 1, 2
), na AS (
  SELECT pred, count(*) AS n_a FROM t GROUP BY 1
)
SELECT ab.pred_a, ab.pred_b, CAST(ab.n_ab AS BIGINT) AS n_ab,
       CAST(na.n_a AS BIGINT) AS n_a,
       CAST((10000 * ab.n_ab) // na.n_a AS BIGINT) AS conf_pm
FROM ab JOIN na ON na.pred = ab.pred_a
"""
    )
