"""Declared Arrow schemas for every logical table (SURVEY.md §1.2).

The reference is duck-typed ``list[dict]`` with implicit schemas (SURVEY.md
§1.1); here every table is a fixed ``pyarrow.schema`` so blocks are zero-copy
Arrow and Parquet round-trips are exact — the one deliberate departure from
the reference's data model.
"""

from __future__ import annotations

import pyarrow as pa

# Primary input (BASELINE.json input_hint): Common-Crawl-style web pages.
PAGES = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("html", pa.binary()),     # nullable: exactly one of html/text may be null
        pa.field("text", pa.string()),
        pa.field("lang", pa.string()),
    ]
)

# pages after extract_text (html dropped immediately — SURVEY.md §7.4.6).
PAGE_TEXT = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("text", pa.string()),
        pa.field("lang", pa.string()),
    ]
)

SEGMENTS = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("seg_id", pa.int32()),
        pa.field("begin", pa.int32()),
        pa.field("end", pa.int32()),
        pa.field("text", pa.string()),
        pa.field("lang", pa.string()),
    ]
)

MENTIONS = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("seg_id", pa.int32()),
        pa.field("mention_id", pa.int64()),
        pa.field("mention_ord", pa.int64()),
        pa.field("begin", pa.int32()),
        pa.field("end", pa.int32()),
        pa.field("surface", pa.string()),
        pa.field("ner_type", pa.string()),
        pa.field("context", pa.string()),
    ]
)

# Linked triples (phase-A checkpoint payload).
LINKED_TRIPLES = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("seg_id", pa.int32()),
        pa.field("subj", pa.string()),        # canonical name (or NIL surface key)
        pa.field("subj_key", pa.string()),
        pa.field("subj_id", pa.int64()),      # -1 = NIL
        pa.field("pred", pa.string()),
        pa.field("obj", pa.string()),
        pa.field("obj_key", pa.string()),
        pa.field("obj_id", pa.int64()),
        pa.field("conf", pa.float32()),
    ]
)

TRIPLES = pa.schema(
    [
        pa.field("subj", pa.string()),
        pa.field("pred", pa.string()),
        pa.field("obj", pa.string()),
        pa.field("url", pa.string()),
        pa.field("seg_id", pa.int32()),
        pa.field("conf", pa.float32()),
        pa.field("category", pa.string()),
        pa.field("n_support", pa.int64()),
    ]
)

ENTITIES = pa.schema(
    [
        pa.field("entity_key", pa.string()),
        pa.field("entity_id", pa.int64()),
        pa.field("canonical_name", pa.string()),
        pa.field("aliases", pa.list_(pa.string())),
        pa.field("n_mentions", pa.int64()),
        pa.field("first_url", pa.string()),
        pa.field("first_seg_id", pa.int32()),
    ]
)

ADJACENCY = pa.schema(
    [
        pa.field("subj", pa.string()),
        pa.field("neighbors", pa.list_(pa.string())),
        pa.field("preds", pa.list_(pa.string())),
        pa.field("out_degree", pa.int64()),
    ]
)

ALIAS_DICT = pa.schema(
    [
        pa.field("alias", pa.string()),
        pa.field("entity_id", pa.int64()),
        pa.field("canonical_name", pa.string()),
        pa.field("ner_type", pa.string()),
        pa.field("prior", pa.float32()),
    ]
)

ENTITY_EMBEDDINGS = pa.schema(
    [
        pa.field("entity_id", pa.int64()),
        pa.field("embedding", pa.list_(pa.float32())),
    ]
)


def empty_table(schema: pa.Schema) -> pa.Table:
    return schema.empty_table()
