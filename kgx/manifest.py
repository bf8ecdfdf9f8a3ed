"""Checkpoint manifest: per-shard lineage + counters with atomic commit.

North-rule resumability: phase A (the heavy per-page work) is sharded; each
shard's linked-triple output is written to a temp dir and atomically renamed,
then recorded in the manifest with row counts and a content checksum.  A
rerun skips every shard already present (hardened skip-existing semantics,
reference batch_compress.py:116-135).  Phase B (global shuffles over the
much smaller linked triples) is recorded as a single commit flag.

No wall-clock in the manifest body (SURVEY.md §4.1 determinism hazards);
``run_id`` is supplied by the caller.
"""

from __future__ import annotations

import json
import os
from pathlib import Path


class Manifest:
    def __init__(self, out_dir: str | Path, run_id: str = "run-0"):
        self.out_dir = Path(out_dir)
        self.path = self.out_dir / "_manifest" / "manifest.json"
        self.run_id = run_id
        self.data: dict = {"run_id": run_id, "shards": {}, "phases": {}, "counters": {}}
        if self.path.exists():
            with open(self.path, "r", encoding="utf-8") as f:
                self.data = json.load(f)

    def _flush(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(self.data, f, indent=2, sort_keys=True)
        os.replace(tmp, self.path)  # atomic on POSIX

    # -- phase A shards ------------------------------------------------
    def shard_done(self, shard: int) -> bool:
        return str(shard) in self.data["shards"]

    def commit_shard(self, shard: int, path: str, rows: int, checksum: str,
                     counters: dict | None = None) -> None:
        self.data["shards"][str(shard)] = {
            "path": path,
            "rows": rows,
            "checksum": checksum,
            **({"counters": counters} if counters else {}),
        }
        self._flush()

    # -- phase B -------------------------------------------------------
    def phase_done(self, name: str) -> bool:
        return self.data["phases"].get(name, False)

    def commit_phase(self, name: str, counters: dict | None = None) -> None:
        self.data["phases"][name] = True
        if counters:
            self.data["counters"][name] = counters
        self._flush()


def atomic_write_dir(ds, final_dir: str | Path, **write_kwargs) -> int:
    """Write a Dataset to ``<final_dir>.tmp`` then atomically rename.

    Ray tasks may be retried and a driver may die mid-write; readers only
    ever see fully written directories.  Returns the row count from the
    written Parquet footers (no re-execution of the pipeline).
    """
    import shutil

    import pyarrow.parquet as pq

    final_dir = Path(final_dir)
    tmp = final_dir.parent / (final_dir.name + ".tmp")
    if tmp.exists():
        shutil.rmtree(tmp)  # debris from a previous crashed attempt
    tmp.mkdir(parents=True, exist_ok=True)
    ds.write_parquet(str(tmp), **write_kwargs)
    if final_dir.exists():
        shutil.rmtree(final_dir)
    os.replace(tmp, final_dir)
    rows = 0
    for f in final_dir.rglob("*.parquet"):  # rglob: partition_cols nest dirs
        rows += pq.read_metadata(f).num_rows
    return rows


def parquet_dir_checksum(dir_path: str | Path, key_cols: list[str]) -> str:
    """Order-insensitive content checksum of the key columns of a Parquet
    dir: XOR of per-row hashes, column-wise.  A batch's key strings
    (``key_cols`` as strings joined by ``\x1f``, a null as ``\x00``, so a
    null key changes the checksum) are built in Arrow and hashed at once
    with pandas' stable object hasher, the exchange's."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    acc = np.uint64(0)
    dset = pads.dataset(str(dir_path), format="parquet")
    for batch in dset.to_batches(columns=key_cols):
        cols = [pc.cast(batch.column(c), pa.string()) for c in key_cols]
        keys = pc.binary_join_element_wise(
            *cols, "\x1f", null_handling="replace", null_replacement="\x00")
        h = pd.util.hash_array(keys.to_numpy(zero_copy_only=False))
        acc ^= np.bitwise_xor.reduce(h)
    return f"{int(acc):016x}"
