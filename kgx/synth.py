"""Deterministic synthetic data: knowledge base (entities / aliases /
embeddings) and Common-Crawl-style ``pages`` tables (FIXTURES.md).

Everything is seeded via ``stable_hash64`` — no ``random`` module state, no
wall clock — so the pipeline, the serial oracle, pytest and the bench all see
the *same* bytes, in any process, in any order.  This mirrors the reference's
fixture strategy of generated synthetic media with known structure
(tests/test_transcription.py:34-95) rather than external data.
"""

from __future__ import annotations

from pathlib import Path

import pyarrow as pa

from .functions.text import hash_embed, stable_hash64, tokenize

EPOCH_US = 1_700_000_000_000_000  # fixed epoch for warc_ts (no wall clock)

# ---------------------------------------------------------------------------
# Knowledge base
# ---------------------------------------------------------------------------

_COMPANY_HEADS = [
    "Acme", "Globex", "Initech", "Umbrella", "Stark", "Wayne", "Hooli",
    "Vandelay", "Wonka", "Cyberdyne", "Tyrell", "Aperture", "Bluesun",
    "Oscorp", "Momcorp", "Soylent", "Virtucon", "Gringotts", "Duff",
    "Zorg",
]
_COMPANY_SUFFIXES = ["Corp", "Systems", "Industries", "Labs", "Holdings", "Group"]

_FIRST_NAMES = ["Jane", "John", "Ada", "Grace", "Alan", "Edsger", "Barbara",
                "Donald", "Radia", "Margaret", "Linus", "Guido"]
_LAST_NAMES = ["Smith", "Doe", "Lovelace", "Hopper", "Turing", "Dijkstra",
               "Liskov", "Knuth", "Perlman", "Hamilton"]

_PLACES = ["Springfield", "Gotham", "Metropolis", "Rivertown", "Lakeside",
           "Hill Valley", "Sunnydale", "Twin Peaks", "Arkham", "Eastwick"]

# (phrase, canonical predicate, subj type, obj type, base conf) — must agree
# with config/rules/predicates.yaml; the generator only EMITS phrases the
# extractor knows, plus decoy sentences it must ignore.
RELATIONS = [
    ("acquired", "acquired", "ORG", "ORG", 0.90),
    ("merged with", "merged_with", "ORG", "ORG", 0.95),
    ("partnered with", "partner_of", "ORG", "ORG", 0.90),
    ("competes with", "competitor_of", "ORG", "ORG", 0.85),
    ("supplies", "supplies", "ORG", "ORG", 0.80),
    ("is a subsidiary of", "subsidiary_of", "ORG", "ORG", 0.95),
    ("invested in", "invested_in", "ORG", "ORG", 0.90),
    ("sued", "sued", "ORG", "ORG", 0.90),
    ("is headquartered in", "headquartered_in", "ORG", "LOC", 0.95),
    ("opened offices in", "located_in", "ORG", "LOC", 0.85),
    ("was founded by", "founded_by", "ORG", "PER", 0.95),
    ("hired", "hired", "ORG", "PER", 0.85),
    ("was appointed ceo of", "ceo_of", "PER", "ORG", 0.95),
]

_JUNK_SENTENCES = [
    "Accept all cookies to continue reading this article.",
    "Subscribe to our newsletter for weekly updates.",
    "All rights reserved worldwide.",
    "Click here to read the privacy policy.",
    "Advertisement brought to you by our sponsors.",
]

_DECOY_SENTENCES = [
    "The quarterly numbers were broadly in line with expectations.",
    "Analysts remain cautious about the wider sector outlook.",
    "Markets closed mixed on light trading volume.",
    "The weather in the region stayed unusually mild this week.",
]


def build_knowledge_base() -> dict:
    """Entities with aliases, priors and deterministic embeddings.

    Returns ``{"entities": [...], "alias_rows": pa.Table(ALIAS_DICT),
    "embedding_rows": pa.Table(ENTITY_EMBEDDINGS)}``.  Includes deliberately
    ambiguous aliases (bare company head -> 2 entities) to exercise the
    weighted argmax of the linker (SURVEY.md §2 J2; FIXTURES.md §2).
    """
    from . import schema as S

    entities = []
    eid = 0
    for head in _COMPANY_HEADS:
        for si, suf in enumerate(_COMPANY_SUFFIXES[: 2 + stable_hash64(head) % 3]):
            name = f"{head} {suf}"
            aliases = [name, name.lower()]
            if si == 0:
                # The bare head is an ambiguous alias shared with suffix #1.
                aliases.append(head)
            entities.append(
                {"entity_id": eid, "canonical_name": name, "ner_type": "ORG",
                 "aliases": sorted(set(aliases))}
            )
            eid += 1
    for i, first in enumerate(_FIRST_NAMES):
        last = _LAST_NAMES[stable_hash64(f"person-{i}") % len(_LAST_NAMES)]
        name = f"{first} {last}"
        entities.append(
            {"entity_id": eid, "canonical_name": name, "ner_type": "PER",
             "aliases": sorted({name, f"Dr. {name}", last and name})}
        )
        eid += 1
    for place in _PLACES:
        entities.append(
            {"entity_id": eid, "canonical_name": place, "ner_type": "LOC",
             "aliases": [place]}
        )
        eid += 1

    # Alias rows with priors: an alias shared by k entities splits its prior
    # mass deterministically (first entity by id gets the larger share).
    by_alias: dict[str, list[dict]] = {}
    for ent in entities:
        for al in ent["aliases"]:
            by_alias.setdefault(al, []).append(ent)
    alias_rows = {k: [] for k in ("alias", "entity_id", "canonical_name", "ner_type", "prior")}
    for al in sorted(by_alias):
        ents = sorted(by_alias[al], key=lambda e: e["entity_id"])
        for rank, ent in enumerate(ents):
            prior = 1.0 if len(ents) == 1 else (0.7 if rank == 0 else 0.3 / (len(ents) - 1))
            alias_rows["alias"].append(al)
            alias_rows["entity_id"].append(ent["entity_id"])
            alias_rows["canonical_name"].append(ent["canonical_name"])
            alias_rows["ner_type"].append(ent["ner_type"])
            alias_rows["prior"].append(prior)

    emb_rows = {"entity_id": [], "embedding": []}
    for ent in entities:
        toks = []
        for al in ent["aliases"]:
            toks.extend(tokenize(al))
        emb_rows["entity_id"].append(ent["entity_id"])
        emb_rows["embedding"].append(hash_embed(toks, dim=32))

    return {
        "entities": entities,
        "alias_table": pa.table(alias_rows, schema=S.ALIAS_DICT),
        "embedding_table": pa.table(emb_rows, schema=S.ENTITY_EMBEDDINGS),
    }


# ---------------------------------------------------------------------------
# Sentence / page generation
# ---------------------------------------------------------------------------


def _pick(seq, key: str) -> object:
    return seq[stable_hash64(key) % len(seq)]


def _entity_sentence(kb: dict, key: str) -> str:
    """One entity-bearing sentence "{surfA} {phrase} {surfB}." — surfaces are
    drawn from alias lists; subject skewed toward entity 0 (head-entity skew
    for the canonicalization shuffle, FIXTURES.md §1)."""
    phrase, _pred, st, ot, _conf = _pick(RELATIONS, key + "-rel")
    ents = kb["entities"]
    typed = {"ORG": [], "PER": [], "LOC": []}
    # cache the typed index on the kb dict (driver-side, built once)
    if "_typed" not in kb:
        for e in ents:
            typed[e["ner_type"]].append(e)
        kb["_typed"] = typed
    typed = kb["_typed"]
    if st == "ORG" and stable_hash64(key + "-skew") % 100 < 30:
        subj = typed["ORG"][0]  # head entity: ~30% of ORG subjects
    else:
        subj = _pick(typed[st], key + "-s")
    obj = _pick(typed[ot], key + "-o")
    if obj["entity_id"] == subj["entity_id"]:
        obj = typed[ot][(typed[ot].index(obj) + 1) % len(typed[ot])]
    surf_s = _pick(subj["aliases"], key + "-ss")
    surf_o = _pick(obj["aliases"], key + "-so")
    return f"{surf_s} {phrase} {surf_o}."


def gen_body(key: str, kb: dict, n_sentences: int | None = None) -> str:
    """Deterministic page body: a mix of entity sentences, decoys and junk."""
    n = n_sentences if n_sentences is not None else 3 + stable_hash64(key + "-n") % 6
    parts = []
    for i in range(n):
        r = stable_hash64(f"{key}-mix-{i}") % 10
        if r < 6:
            parts.append(_entity_sentence(kb, f"{key}-s{i}"))
        elif r < 8:
            parts.append(str(_pick(_DECOY_SENTENCES, f"{key}-d{i}")))
        else:
            parts.append(str(_pick(_JUNK_SENTENCES, f"{key}-j{i}")))
    return " ".join(parts)


def wrap_html(body: str, title: str, pad_bytes: int = 0) -> bytes:
    """HTML wrapper whose extraction (functions.text.extract_text_from_html)
    yields exactly ``normalize_ws(body)`` — nav/footer boilerplate included so
    the extractor has something to strip.

    ``pad_bytes`` appends that much deterministic boilerplate inside an extra
    ``<nav>`` block (a dropped subtree), so the PAYLOAD grows to web-page
    size while the extracted text — and every downstream table — stays
    byte-identical to the unpadded run (the wide-record stress invariant,
    SURVEY.md §7.4.6; exercised by ``bench.py --wide``)."""
    pad = ""
    if pad_bytes > 0:
        unit = "<li>sponsored navigation filler item</li>"
        pad = "<nav><ul>" + unit * (pad_bytes // len(unit) + 1) + "</ul></nav>"
    return (
        "<html><head><title>" + title + "</title>"
        "<style>body{font:12px}</style></head>"
        "<body><nav>Home | News | Accept all cookies</nav>"
        "<header>Site header</header>"
        "<p>" + body + "</p>" + pad +
        "<footer>All rights reserved. <a href='/tos'>Terms of service</a></footer>"
        "</body></html>"
    ).encode("utf-8")


_DOMAINS = ["news.example", "blog.example", "wiki.example", "forum.example",
            "press.example", "daily.example", "herald.example", "post.example"]
_HEAD_DOMAINS = ["big.example", "huge.example"]  # ~5% of rows (url skew)
_LANGS = ["en", "en", "en", "en", "en", "en", "es", "de", "fr", "zh"]


def gen_pages(n: int, seed: int = 42, kb: dict | None = None) -> pa.Table:
    """``pages`` table of ``n`` rows (schema.PAGES) with the FIXTURES.md edge
    rows appended at fixed positions (see ``_edge_rows``)."""
    from . import schema as S

    kb = kb or build_knowledge_base()
    cols = {"url": [], "warc_ts": [], "html": [], "text": [], "lang": []}

    def add(url, ts, html, text, lang):
        cols["url"].append(url)
        cols["warc_ts"].append(ts)
        cols["html"].append(html)
        cols["text"].append(text)
        cols["lang"].append(lang)

    for i in range(n):
        key = f"p{seed}-{i}"
        if stable_hash64(key + "-hd") % 100 < 5:
            domain = str(_pick(_HEAD_DOMAINS, key + "-dom"))
        else:
            domain = str(_pick(_DOMAINS, key + "-dom"))
        url = f"https://{domain}/a/{i}"
        ts = EPOCH_US + i * 37_000_000
        lang = str(_pick(_LANGS, key + "-lang"))
        body = gen_body(key, kb)
        mode = stable_hash64(key + "-mode") % 5
        if mode < 2:  # html-only
            add(url, ts, wrap_html(body, f"page {i}"), None, lang)
        elif mode < 4:  # text-only
            add(url, ts, None, body, lang)
        else:  # both present (text wins in page_text)
            add(url, ts, wrap_html(body, f"page {i}"), body, lang)

    _edge_rows(add, kb, seed)
    return pa.table(cols, schema=S.PAGES)


def _edge_rows(add, kb: dict, seed: int) -> None:
    """FIXTURES.md §1 mandated edge rows (fixed urls so tests can target them)."""
    ts = EPOCH_US
    add("https://edge.example/empty", ts, None, "", "en")
    add("https://edge.example/ws-only", ts, None, "   \t\n  ", "en")
    add("https://edge.example/pii", ts, None,
        "Contact Jane Smith at jane.smith@acme.example or call 555-123-4567. "
        "Acme Corp acquired Globex Corp.", "en")
    add("https://edge.example/boilerplate-only", ts,
        wrap_html("Accept all cookies to continue reading this article.", "junk"),
        None, "en")
    dup_sent = _entity_sentence(kb, f"edge-{seed}-dup")
    add("https://edge.example/within-dup", ts, None,
        f"{dup_sent} {dup_sent} {dup_sent}", "en")
    twin_body = gen_body(f"edge-{seed}-twin", kb)
    add("https://edge.example/twin-a", ts, None, twin_body, "en")
    add("https://edge.example/twin-b", ts + 1, None, twin_body, "en")
    big = " ".join(gen_body(f"edge-{seed}-big-{j}", kb) for j in range(900))
    add("https://edge.example/mega", ts, None, big, "en")  # ~1 MB wide row
    add("https://edge.example/multibyte", ts, None,
        "Acme Corp acquired Globex Corp. Überraschung naïve façade — 東京 привет. ", "en")


# ---------------------------------------------------------------------------
# Deriving pages from the driver's documents table (TESTDATA.md) — used by
# the __ray_entry__ queries so the DuckDB oracle can see the same rows.
# ---------------------------------------------------------------------------


def doc_url(source: str, doc_id: int) -> str:
    return f"https://synth.example/{source}/{doc_id}"


# SQL-checkable enrichment (enrich="sql"): a fixed list of entity-relation
# templates appended per doc as ``TEMPLATES[doc_id % N]``.  Constraints that
# keep the FULL kg chain reproducible in the DuckDB oracle (sql_oracles.py):
# * no sentence punctuation ([.!?]) — so segmentation under the 400-char
#   hard-split override is pure fixed-width chunking, and a segment is one
#   "sentence" for the extractor;
# * surfaces contain only [A-Za-z ] (no "Dr." aliases) — so \b-regex alias
#   matching over single-spaced normalized text equals token-sequence
#   adjacency, which SQL can express;
# * with this KB no two alias matches overlap except at a shared start
#   (longest wins), asserted by tests/test_kg_sql_queries.py.
_SQL_TEMPLATE_COUNT = 40


def sql_templates(kb: dict | None = None) -> list[str]:
    kb = kb or build_knowledge_base()
    typed: dict[str, list[dict]] = {"ORG": [], "PER": [], "LOC": []}
    for e in kb["entities"]:
        typed[e["ner_type"]].append(e)
    out = []
    for ti in range(_SQL_TEMPLATE_COUNT):
        n_clauses = 2 + stable_hash64(f"sqlt-{ti}-n") % 2
        clauses = []
        for ci in range(n_clauses):
            key = f"sqlt-{ti}-{ci}"
            phrase, _pred, st, ot, _conf = _pick(RELATIONS, key + "-rel")
            subj = _pick(typed[st], key + "-s")
            obj = _pick(typed[ot], key + "-o")
            if obj["entity_id"] == subj["entity_id"]:
                obj = typed[ot][(typed[ot].index(obj) + 1) % len(typed[ot])]
            s_surfs = [a for a in subj["aliases"] if "." not in a]
            o_surfs = [a for a in obj["aliases"] if "." not in a]
            surf_s = _pick(s_surfs, key + "-ss")
            surf_o = _pick(o_surfs, key + "-so")
            clauses.append(f"{surf_s} {phrase} {surf_o}")
        out.append(" ".join(clauses))
    return out


def pages_batch_from_documents(
    batch: pa.Table, enrich, kb: dict | None, expand: int = 1,
    templates: list[str] | None = None, pad_bytes: int = 0,
) -> pa.Table:
    """Vectorizable per-batch map: documents rows -> pages rows.

    ``enrich=False``: body == documents.text exactly (so the SQL oracle is
    ``SELECT url_expr, text FROM documents`` — byte-identity check).
    ``enrich=True``: deterministic entity sentences are appended per doc_id so
    the KG pipeline has real mentions/triples to find.
    ``enrich="sql"``: appends ``templates[doc_id % len(templates)]`` (see
    ``sql_templates``) — the variant whose full kg chain the DuckDB oracle
    reproduces (kgx.sql_oracles).
    ``expand=E``: each doc yields E page rows (rep 0 byte-identical to the
    E=1 output; reps 1.. get distinct urls and enrichment keys) — used by the
    scaling bench to grow the corpus without new input data.
    """
    from . import schema as S

    doc_ids = batch["doc_id"].to_pylist()
    texts = batch["text"].to_pylist()
    sources = batch["source"].to_pylist()
    langs = batch["lang"].to_pylist()
    cols = {"url": [], "warc_ts": [], "html": [], "text": [], "lang": []}
    for doc_id, text, source, lang in zip(doc_ids, texts, sources, langs):
        for rep in range(expand):
            body = text or ""
            if enrich == "sql":
                body = (body + " " + templates[doc_id % len(templates)]).strip()
            elif enrich:
                rk = f"enr-{doc_id}" if rep == 0 else f"enr-{doc_id}-r{rep}"
                n = 2 + stable_hash64(rk) % 5
                sents = [_entity_sentence(kb, f"{rk}-{i}") for i in range(n)]
                body = (body + " " + " ".join(sents)).strip()
            mode = doc_id % 5
            url = doc_url(source, doc_id)
            if rep > 0:
                url = f"{url}?rep={rep}"
            cols["url"].append(url)
            cols["warc_ts"].append(EPOCH_US + doc_id * 37_000_000 + rep)
            if mode < 2:
                cols["html"].append(wrap_html(body, f"doc {doc_id}", pad_bytes))
                cols["text"].append(None)
            elif mode < 4:
                cols["html"].append(None)
                cols["text"].append(body)
            else:
                cols["html"].append(wrap_html(body, f"doc {doc_id}", pad_bytes))
                cols["text"].append(body)
            cols["lang"].append(lang)
    return pa.table(cols, schema=S.PAGES)


def pages_dataset_from_documents(
    sf_dir: str, enrich: bool = True, expand: int = 1,
    num_blocks: int | None = None, pad_bytes: int = 0,
):
    """Streaming Ray Dataset of pages derived from ``{sf_dir}/documents.parquet``.

    The kb is built once on the driver and captured in the closure — it is
    small (a few hundred entities) so per-task pickling is cheap; heavyweight
    shared state goes through ``ray.put`` instead (see stages.link).
    """
    import ray.data as rd

    kb = build_knowledge_base() if enrich else None
    if kb is not None:
        kb.pop("_typed", None)
        kb2 = {"entities": kb["entities"]}
    else:
        kb2 = None
    templates = sql_templates(kb) if enrich == "sql" else None
    if expand > 1:
        # Expanded (bench/scaling) path: the documents file is tiny but the
        # generated corpus is not — reading the file in ONE task and fanning
        # out from it would serialize the head of the pipeline.  Instead the
        # driver reads the 2 MB table once, ray.puts it, and N generator
        # tasks each expand a disjoint row slice — the single-node stand-in
        # for a file-sharded read (at real scale read_parquet over many
        # shards gives this structure for free).
        import pyarrow.parquet as pq
        import ray

        tbl = pq.read_table(
            str(Path(sf_dir) / "documents.parquet"),
            columns=["doc_id", "text", "source", "lang"],
        )
        tbl_ref = ray.put(tbl)
        n_tasks = num_blocks or max(
            64, int(ray.cluster_resources().get("CPU", 8)) * 4
        )

        def gen_slice(batch: pa.Table) -> pa.Table:
            docs = ray.get(tbl_ref)
            out = []
            for k in batch["id"].to_pylist():
                lo = len(docs) * k // n_tasks
                hi = len(docs) * (k + 1) // n_tasks
                out.append(
                    pages_batch_from_documents(
                        docs.slice(lo, hi - lo), enrich, kb2, expand, templates,
                        pad_bytes,
                    )
                )
            return pa.concat_tables(out)

        # One block per task id: downstream stage fusion bundles whole
        # blocks, so a single-block id table would serialize the pipeline.
        ids = rd.range(n_tasks, override_num_blocks=n_tasks)
        return ids.map_batches(gen_slice, batch_format="pyarrow", batch_size=1)

    # Single-file reads default to the file's row-group count (16 here),
    # which caps the fused extract->segment->link chain at 16 tasks on a
    # 32-CPU box.  Split the read to one block per CPU — measured at sf0.1:
    # flagship 4.47 s -> 2.96 s median; 64/128 blocks regress (per-task
    # overhead).  At real scale read_parquet over many file shards gives
    # this parallelism for free and the override is a no-op floor.
    import pyarrow.parquet as pq
    import ray

    nb = max(16, int(ray.cluster_resources().get("CPU", 16))) \
        if ray.is_initialized() else 16
    path = str(Path(sf_dir) / "documents.parquet")
    # without the file's pandas metadata: a schema carrying it (a dict)
    # cannot be hashed, so Ray logs a warning and runs its full schema
    # unify on every batch concat
    ds = rd.read_parquet(path, override_num_blocks=nb,
                         schema=pq.read_schema(path).remove_metadata())
    pages = ds.map_batches(
        lambda b: pages_batch_from_documents(b, enrich, kb2, expand, templates,
                                             pad_bytes),
        batch_format="pyarrow",
        batch_size=256,
    )
    if num_blocks:
        pages = pages.repartition(num_blocks)
    return pages
