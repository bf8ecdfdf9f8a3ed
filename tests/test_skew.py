"""Skew handling: the salted two-phase canonicalization (SURVEY.md §4.2 /
§7.4.3) must stay correct AND bounded when one entity key receives almost
all mentions (the head-entity hot key of the north rule), on the driver
route and on the exchange route of the key-partitioned exchange."""

from __future__ import annotations

import pyarrow as pa
import pytest

from kgx.stages import wide
from kgx.functions.pipeline_core import merge_entity_group, mention_rows_from_linked


def skewed_linked(n: int = 20_000, head_frac: float = 0.9) -> pa.Table:
    """LINKED_FULL-shaped table where head_frac of subject mentions hit ONE
    entity key."""
    rows = {k: [] for k in (
        "url", "seg_id", "subj", "subj_key", "subj_id", "subj_surface",
        "pred", "obj", "obj_key", "obj_id", "obj_surface", "conf",
    )}
    for i in range(n):
        hot = i % 10 < int(head_frac * 10)
        subj = "Mega Corp" if hot else f"Tail Corp {i % 97}"
        key = "mega corp" if hot else f"tail corp {i % 97}"
        rows["url"].append(f"https://s.example/{i % 999}")
        rows["seg_id"].append(i % 7)
        rows["subj"].append(subj)
        rows["subj_key"].append(key)
        rows["subj_id"].append(0 if hot else 100 + i % 97)
        rows["subj_surface"].append(subj.lower() if i % 3 else subj)
        rows["pred"].append("supplies")
        rows["obj"].append(f"Obj {i % 53}")
        rows["obj_key"].append(f"obj {i % 53}")
        rows["obj_id"].append(1000 + i % 53)
        rows["obj_surface"].append(f"Obj {i % 53}")
        rows["conf"].append(0.9)
    t = pa.table(rows)
    return t.cast(
        pa.schema([(f.name, t.schema.field(f.name).type) for f in t.schema])
    )


@pytest.fixture(scope="module")
def linked_ds(ray_session):
    import ray.data as rd

    # many small blocks so the salted partial pass actually fans out
    return rd.from_arrow(skewed_linked()).repartition(16).materialize()


def serial_entities(tbl: pa.Table) -> dict[str, dict]:
    by_key: dict[str, list] = {}
    for m in mention_rows_from_linked(tbl.to_pylist()):
        by_key.setdefault(m["entity_key"], []).append(m)
    return {k: merge_entity_group(v) for k, v in by_key.items()}


def test_salted_canonicalization_correct_under_skew(ray_session, each_route,
                                                    linked_ds, cfg):
    want = serial_entities(skewed_linked())
    for out in each_route(
            lambda: wide.canonical_entities(linked_ds, cfg).to_pandas()):
        got = {r["entity_key"]: r for r in out.to_dict("records")}
        assert set(got) == set(want)
        hot = got["mega corp"]
        assert hot["n_mentions"] == want["mega corp"]["n_mentions"] == 18_000
        assert hot["entity_id"] == 0
        assert sorted(hot["aliases"]) == want["mega corp"]["aliases"]
        # spot-check a tail key end-to-end too
        k = "tail corp 13"
        assert got[k]["n_mentions"] == want[k]["n_mentions"]


def test_salting_bounds_hot_key_partials(ray_session, each_route, linked_ds,
                                         cfg):
    """After the phase-1 salted merge, the hot key contributes at most
    salt_buckets rows to the final (unsalted) exchange — the skew bound."""
    salt_buckets = cfg["processing"]["canonicalize"]["salt_buckets"]

    def phase1_counts() -> dict[str, int]:
        counts: dict[str, int] = {}
        phase1 = wide.canonical_phase1(linked_ds, cfg)
        for batch in phase1.iter_batches(batch_size=None,
                                         batch_format="pyarrow"):
            for k in batch["entity_key"].to_pylist():
                counts[k] = counts.get(k, 0) + 1
        return counts

    for counts in each_route(phase1_counts):
        assert 1 < counts["mega corp"] <= salt_buckets
        assert max(counts.values()) <= salt_buckets


def test_canonicalization_on_sliced_multichunk_blocks(ray_session, each_route,
                                                      cfg):
    """Blocks that are two chunks each, both slices with nonzero offsets,
    reach the same entities as the serial merge on both routes."""
    import ray.data as rd

    from kgx.stages.exchange import collect_arrow

    t = skewed_linked(3_000)
    blocks = [pa.concat_tables([t.slice(i + 7, 150), t.slice(i + 301, 97)])
              for i in range(0, 2_400, 400)]
    assert all(b.column(0).num_chunks == 2 for b in blocks)
    want = serial_entities(pa.concat_tables(blocks))
    ds = rd.from_arrow(blocks)
    for out in each_route(
            lambda: collect_arrow(wide.canonical_entities(ds, cfg))):
        assert {r["entity_key"]: r for r in out.to_pylist()} == want
