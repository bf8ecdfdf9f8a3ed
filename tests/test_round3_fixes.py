"""Regression tests for the round-3 ADVICE fixes: capped-window
connectivity under a gram-set sort, pointer-doubling label propagation on
chain graphs (+ loud exhaustion warning), and the report heap's
prefix-string tie-break."""

from __future__ import annotations

import pyarrow as pa
import pytest


# ---------------------------------------------------------------------------
# ADVICE #1: jaccard verifier must keep identical docs adjacent over the cap
# ---------------------------------------------------------------------------


def test_jaccard_capped_bucket_connects_identical_docs(monkeypatch):
    """Over-cap prefix bucket: identical docs far apart in doc_id order must
    still pair (gram-set sort places them adjacent; a doc_id sort would
    window them apart and silently split the duplicate component)."""
    from kgx.stages import dedup as D

    monkeypatch.setattr(D, "VERIFY_GROUP_CAP", 8)
    monkeypatch.setattr(D, "_CAP_WINDOW", 2)
    checked = []  # pairs verified per bucket
    bounded = D._bounded_index_pairs

    def counted(*args):
        pairs = list(bounded(*args))
        checked.append(len(pairs))
        return pairs

    monkeypatch.setattr(D, "_bounded_index_pairs", counted)

    # 12 docs in one bucket: two identical gram sets at doc_id 0 and 11
    # (maximally separated), ten unrelated-but-bucket-sharing fillers.
    base = [5, 100, 200, 300]
    rows = {"pfx_hash": [], "doc_id": [], "grams": []}
    for d in range(12):
        grams = base if d in (0, 11) else [5, 1000 + 7 * d, 2000 + 11 * d, 3000 + d]
        rows["pfx_hash"].append(5)
        rows["doc_id"].append(d)
        rows["grams"].append(sorted(grams))
    t = pa.table(
        rows,
        schema=pa.schema(
            [("pfx_hash", pa.int64()), ("doc_id", pa.int64()),
             ("grams", pa.list_(pa.int64()))]
        ),
    )
    out = D._verify_jaccard_kernel(t, threshold=0.9)
    pairs = set(zip(out["id_a"].to_pylist(), out["id_b"].to_pylist()))
    assert (0, 11) in pairs
    # the over-cap window path ran: 10 x 2 + 1 pairs, not all 66
    assert checked == [21]


# ---------------------------------------------------------------------------
# ADVICE #2: pointer doubling on chain graphs + exhaustion warning
# ---------------------------------------------------------------------------


def _chain_pairs_ds(n: int):
    import ray.data as rd

    return rd.from_arrow(
        pa.table(
            {"id_a": list(range(n - 1)), "id_b": list(range(1, n))},
            schema=pa.schema([("id_a", pa.int64()), ("id_b", pa.int64())]),
        )
    )


def test_label_propagation_chain_converges_logarithmically(ray_session):
    """A 64-node chain has diameter 63; plain min-label propagation needs
    ~63 rounds, pointer doubling O(log)."""
    from kgx.stages.cluster import label_propagation_ds

    stats: dict = {}
    labels = {}
    for batch in label_propagation_ds(
        _chain_pairs_ds(64), max_rounds=12, stats=stats
    ).iter_batches(batch_size=None, batch_format="pyarrow"):
        for r in batch.to_pylist():
            labels[r["node"]] = r["label"]
    assert stats["converged"] is True
    assert stats["rounds"] <= 10
    assert all(labels[n] == 0 for n in range(1, 64))


def test_label_propagation_warns_on_exhaustion(ray_session):
    from kgx.stages.cluster import label_propagation_ds

    stats: dict = {}
    with pytest.warns(RuntimeWarning, match="fixpoint NOT reached"):
        label_propagation_ds(_chain_pairs_ds(256), max_rounds=1, stats=stats)
    assert stats["converged"] is False


# ---------------------------------------------------------------------------
# ADVICE #4: report heap inverted-tuple must reverse prefix strings too
# ---------------------------------------------------------------------------


def test_report_heap_prefix_tiebreak(tmp_path):
    """Equal-conf rows where one (s,p,o) string is a strict prefix of the
    other: the heap must keep the lexicographically SMALLER one when
    truncating to DISPLAY_CAP."""
    import pyarrow.parquet as pq

    from kgx import report as R

    rows = {"subj": [], "pred": [], "obj": [], "conf": [], "category": []}
    # DISPLAY_CAP distinct fillers with higher conf, then the tied pair —
    # "ab" (smaller) and "abx" (its extension) at the cap boundary.
    for i in range(R.DISPLAY_CAP - 1):
        rows["subj"].append(f"f{i:02d}")
        rows["pred"].append("p")
        rows["obj"].append("o")
        rows["conf"].append(0.9)
        rows["category"].append("general")
    for s in ["abx", "ab"]:  # insertion order adversarial: extension first
        rows["subj"].append(s)
        rows["pred"].append("p")
        rows["obj"].append("o")
        rows["conf"].append(0.5)
        rows["category"].append("general")
    tdir = tmp_path / "triples"
    tdir.mkdir()
    pq.write_table(pa.table(rows), tdir / "part0.parquet")
    top = R._top_triples_by_category(tmp_path / "triples")
    kept = [r["subj"] for r in top["general"] if r["conf"] == 0.5]
    assert kept == ["ab"]  # the prefix (lex-smaller) row survives the cap
