"""Seeded benchmark inputs and their cached references.

The seed reaches the generators only; the program under test sees the
Parquet files written here.  Inputs and references are computed once per
seed into ``<work>/inputs/seed=<n>-p<pages>-d<docs>/`` and reused by every later run with the
same seed, outside every timed region and outside ``setup_s``.  The
benchmark runs this file as a script (``main``) in a process of its own.

* ``pages.parquet`` — Common-Crawl-style pages from ``kgx.synth.gen_pages``
  (input of ``kg_build`` and ``kg_job``); reference = the serial
  ``kgx.oracle.run`` on the same pages (triples, entities, adjacency).
* ``docs/documents.parquet`` — a ``documents`` table in the testdata shape
  ``(doc_id, text, lang, source, n_chars)`` with planted exact and near
  duplicates plus a few large template clusters (input of
  ``corpus_dedup``); reference = the DuckDB mirror in
  ``kgx.queries.oracle_sql()`` for each of its three queries.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute  # noqa: F401  (pa.compute)
import pyarrow.parquet as pq

# Input sizes (fixed; the seed changes content, never size).
N_PAGES = 20000  # kg_build / kg_job: gen_pages(N_PAGES, seed) + its edge rows
N_DOCS = 1500  # corpus_dedup documents

# corpus_dedup duplicate plan.  Copies are made of unique docs only and the
# template clusters have fixed sizes, so the number of verified pairs (and
# the quadratic in-bucket verification work) barely moves between seeds.
EXACT_DUP_SHARE = 0.04  # verbatim copies of a unique doc
NEAR_DUP_SHARE = 0.08  # a unique doc with one word substituted
N_TEMPLATES = 2  # large template clusters ...
TEMPLATE_SIZE = 25  # ... of this many members, each one word off the template

# Small fixed warm-up inputs (part of set-up; never depend on --seed).
WARM_PAGES = 60
WARM_DOCS = 200
WARM_SEED = 0
WARM_DIR = "warm"

DEDUP_QUERIES = ("dedup_exact", "text_ngram_topk", "dedup_minhash_lsh")

_VOCAB = (
    "river stone market signal harbor engine garden letter window silver "
    "marble thunder canvas orbit pepper lantern meadow copper violet anchor "
    "basket candle desert ember falcon glacier hollow island jungle kettle "
    "ladder mirror needle ocean pillar quartz ribbon saddle timber umbrella "
    "valley walnut yarrow zephyr beacon cobalt dune fable grove harvest "
    "ivory jasper kindle lumen mosaic nectar opal prism quiver rustle"
).split()
_LANGS = ["en", "en", "en", "en", "es", "de", "fr", "zh"]
_N_SOURCES = 16

# The documents table of the testdata corpora.
DOCS_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.int64()),
        pa.field("text", pa.string()),
        pa.field("lang", pa.string()),
        pa.field("source", pa.string()),
        pa.field("n_chars", pa.int64()),
    ]
)


def gen_documents(n: int, seed: int) -> pa.Table:
    """``n`` documents with planted duplicates, deterministic in ``seed``.

    Unique docs are 8-24 words drawn from a 60-word vocabulary; the
    planted near-dups (one substituted word) keep most of their 5-byte
    shingles, so they land above the 0.7 verify threshold, and each
    template cluster turns into a dense block of verified pairs."""
    rng = np.random.default_rng(seed % (1 << 64))  # any int, negatives too
    vocab = np.asarray(_VOCAB)
    n_exact = int(n * EXACT_DUP_SHARE)
    n_near = int(n * NEAR_DUP_SHARE)
    n_tmpl = N_TEMPLATES * TEMPLATE_SIZE
    kinds = np.array(
        ["unique"] * (n - n_exact - n_near - n_tmpl)
        + ["exact"] * n_exact + ["near"] * n_near
        + [f"t{t}" for t in range(N_TEMPLATES) for _ in range(TEMPLATE_SIZE)]
    )
    rng.shuffle(kinds)
    kinds[0] = "unique"  # every copy needs an earlier unique doc to copy
    templates = [
        list(vocab[rng.integers(0, len(vocab), rng.integers(20, 30))])
        for _ in range(N_TEMPLATES)
    ]

    def substitute(words: list[str]) -> list[str]:
        out = list(words)
        out[int(rng.integers(0, len(out)))] = str(vocab[rng.integers(0, len(vocab))])
        return out

    texts: list[str] = []
    unique: list[int] = []
    for i, kind in enumerate(kinds):
        if kind == "unique":
            words = list(vocab[rng.integers(0, len(vocab), rng.integers(8, 24))])
            unique.append(i)
        elif kind == "exact":
            words = texts[unique[int(rng.integers(0, len(unique)))]].split(" ")
        elif kind == "near":
            words = substitute(texts[unique[int(rng.integers(0, len(unique)))]].split(" "))
        else:
            words = substitute(templates[int(kind[1:])])
        texts.append(" ".join(words))
    return pa.table(
        {
            "doc_id": np.arange(n, dtype=np.int64),
            "text": texts,
            "lang": [_LANGS[j] for j in rng.integers(0, len(_LANGS), n)],
            "source": [f"src{j}" for j in rng.integers(0, _N_SOURCES, n)],
            "n_chars": np.array([len(t) for t in texts], dtype=np.int64),
        },
        schema=DOCS_SCHEMA,
    )


# ---------------------------------------------------------------------------
# Order-insensitive comparison
# ---------------------------------------------------------------------------


def canon_rows(table: pa.Table, columns: list[str]) -> list[tuple]:
    """Rows of ``columns`` as sorted tuples (list cells become tuples), so
    two tables compare equal regardless of row order or block layout."""
    cols = [table.column(c).to_pylist() for c in columns]
    rows = [
        tuple(tuple(v) if isinstance(v, list) else v for v in row)
        for row in zip(*cols)
    ]
    return sorted(rows, key=repr)


# ---------------------------------------------------------------------------
# Cached inputs + references
# ---------------------------------------------------------------------------


class Inputs:
    """Paths of one seed's inputs and their reference tables.

    ``build(kind)`` writes the ``"pages"`` or ``"documents"`` input and its
    references if missing; later runs with the same seed only read.
    References are stored as Parquet beside the inputs, so each is computed
    once per seed."""

    def __init__(self, work: Path, seed: int):
        self.seed = seed
        # the sizes are in the name, so a size change never reuses old inputs
        self.dir = work / "inputs" / f"seed={seed}-p{N_PAGES}-d{N_DOCS}"
        self.pages = self.dir / "pages.parquet"
        self.docs_dir = self.dir / "docs"
        self.ref_dir = self.dir / "ref"
        self._refs: dict[str, tuple[list[str], list[tuple]]] = {}

    def ref(self, name: str) -> tuple[list[str], list[tuple]]:
        """Columns and canonical rows of reference ``name``, read and
        canonicalized once per run."""
        if name not in self._refs:
            table = pq.read_table(self.ref_dir / f"{name}.parquet")
            self._refs[name] = (table.column_names, canon_rows(table, table.column_names))
        return self._refs[name]

    def sizes(self) -> dict:
        out: dict = {}
        for f in sorted(self.dir.glob("sizes_*.json")):
            out.update(json.loads(f.read_text()))
        return out

    def build(self, kind: str, kb: dict, cfg: dict) -> None:
        marker = self.dir / f"sizes_{kind}.json"
        if marker.exists():
            return
        self.ref_dir.mkdir(parents=True, exist_ok=True)
        if kind == "pages":
            pages = build_pages(self.pages, N_PAGES, self.seed, kb)
            write_kg_reference(pages, cfg, kb, self.ref_dir)
            sizes = {"pages": pages.num_rows, "pages_bytes": pages.nbytes}
        else:
            self.docs_dir.mkdir(parents=True, exist_ok=True)
            docs = gen_documents(N_DOCS, self.seed)
            pq.write_table(docs, self.docs_dir / "documents.parquet")
            write_dedup_reference(self.docs_dir, self.ref_dir)
            sizes = {"documents": docs.num_rows, "documents_bytes": docs.nbytes,
                     "documents_chars": int(pa.compute.sum(docs["n_chars"]).as_py())}
        marker.write_text(json.dumps(sizes))


def build_pages(path: Path, n: int, seed: int, kb: dict) -> pa.Table:
    from kgx import synth

    pages = synth.gen_pages(n, seed=seed, kb=kb)
    pq.write_table(pages, path)
    return pages


def write_kg_reference(pages: pa.Table, cfg: dict, kb: dict, ref_dir: Path) -> None:
    from kgx import oracle

    out = oracle.run(pages, cfg, kb)
    for name in ("triples", "entities", "adjacency"):
        pq.write_table(out[name], ref_dir / f"{name}.parquet")


def write_dedup_reference(docs_dir: Path, ref_dir: Path) -> None:
    import duckdb

    from kgx import queries as Q

    sqls = Q.oracle_sql()
    con = duckdb.connect()
    try:
        con.execute("SET enable_progress_bar = false")
        con.execute(
            "CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{docs_dir / 'documents.parquet'}')"
        )
        for name in DEDUP_QUERIES:
            pq.write_table(con.execute(sqls[name]).arrow(), ref_dir / f"{name}.parquet")
    finally:
        con.close()


def write_warm_inputs(work: Path, kb: dict) -> None:
    """The fixed warm-up inputs, written once per tree."""
    warm = work / WARM_DIR
    if (warm / "done").exists():
        return
    (warm / "docs").mkdir(parents=True, exist_ok=True)
    build_pages(warm / "pages.parquet", WARM_PAGES, WARM_SEED, kb)
    pq.write_table(gen_documents(WARM_DOCS, WARM_SEED), warm / "docs" / "documents.parquet")
    (warm / "done").write_text("")


def main(argv: list[str]) -> None:
    """``gen.py <work> <seed> <kind>...``: build the seed's inputs and
    references of each kind (``pages``, ``documents``) and the warm-up
    inputs, where missing."""
    from kgx import config_loader, synth

    work, seed, kinds = Path(argv[0]), int(argv[1]), argv[2:]
    kb = synth.build_knowledge_base()
    cfg = config_loader.resolve_settings()
    inputs = Inputs(work, seed)
    for kind in kinds:
        inputs.build(kind, kb, cfg)
    write_warm_inputs(work, kb)


if __name__ == "__main__":
    main(sys.argv[1:])
