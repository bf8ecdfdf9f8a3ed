"""The hash exchange: every key-partitioned shuffle in this engine.

One shape, two entry points:

    tag part_id = hash(key values) % P      # ONE tagger, format-preserving
      -> groupby(part_id).map_groups(       # ONE exchange, P groups,
             kernel)                        #   one vectorized call each

* :func:`hash_partitioned_apply` — partition-only: ``kernel`` runs exactly
  once per partition over every key the partition holds (holistic per-key
  work that admits no combiner: sessionization, bucket verification,
  ordered windows).
* :func:`hash_partitioned_agg` — the same exchange run over
  ``ds.map_batches(combine)``, so an associative/commutative ``combine``
  runs once per input batch (the combiner: one partial row per key per
  batch) and once per partition (the re-merge).

Compared with ``groupby(keys).map_groups(fn)`` this removes the per-group
Python call (10^4-10^6 groups -> 10^1-10^2 partitions) while keeping key
disjointness: every key lands wholly in one partition, so the result equals
the single-pass one for any block arrangement.

Tagging keeps each block in its producer's format (Arrow stays Arrow, pandas
stays pandas), so list columns cross the shuffle without a pandas round
trip.  The blocks entering one exchange must therefore share a format:
Ray's sort sampler asserts it, so a union of an Arrow and a pandas producer
converts one side before the exchange.

``part_id`` depends only on key VALUES, never on block format or dtype:
numeric keys (any int/uint/float/bool width, nullable or not) hash as
float64, other keys through pandas' object hasher, and every null key maps
to one fixed hash.  Key 5 therefore gets the same ``part_id`` in an int64
Arrow block, a null-holding batch (which pandas widens to float64) and an
object column.  Values that merely collide — large ints that round to the
same float64 — share a partition, which stays correct: the kernel groups on
the real key values.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np


def _default_partitions() -> int:
    import ray

    return int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8


_NUMERIC_OBJECTS = ("integer", "floating", "mixed-integer-float", "boolean",
                    "decimal")


def _value_hash(col) -> np.ndarray:
    """uint64 hash of one key column's values (see the module docstring)."""
    import pandas as pd

    s = col if isinstance(col, pd.Series) else col.to_pandas()
    null = s.isna().to_numpy()
    if s.dtype == object:  # numbers held as Python objects hash as numbers
        numeric = pd.api.types.infer_dtype(s, skipna=True) in _NUMERIC_OBJECTS
    else:
        numeric = pd.api.types.is_numeric_dtype(s.dtype)
    if numeric:
        vals = s.to_numpy(dtype=np.float64, na_value=0.0) + 0.0  # -0.0 -> 0.0
    else:
        vals = s.to_numpy(dtype=object)
    h = pd.util.hash_array(vals)
    h[null] = 0
    return h


def _tag(batch, keys: list[str], P: int):
    """Append ``part_id = hash(key values) % P`` to an Arrow or pandas batch,
    returning the same format."""
    import pyarrow as pa

    h = _value_hash(batch[keys[0]])
    with np.errstate(over="ignore"):
        for k in keys[1:]:
            h = (h * np.uint64(0x9E3779B97F4A7C15)) ^ _value_hash(batch[k])
    part = (h % np.uint64(P)).astype(np.int64)
    if isinstance(batch, pa.Table):
        return batch.append_column("part_id", pa.array(part))
    return batch.assign(part_id=part)


def hash_partitioned_apply(
    ds,
    keys: list[str],
    kernel: Callable,
    num_partitions: int | None = None,
    kernel_format: str = "pandas",
):
    """Partition-ONLY exchange: rows co-locate by hash(keys) and ``kernel``
    (a ``kernel_format`` batch -> batch function) runs EXACTLY ONCE per
    partition over all its keys, so it may sort and scan freely.

    Default P is 8x the CPU count, NOT the CPU count: the exchange is a
    range-partitioned sort on part_id, and more distinct values give it
    cleaner quantile boundaries and smooth stragglers across
    heterogeneously-sized kernels (per-key disjointness is unaffected by P)."""
    P = num_partitions or _default_partitions() * 8

    if kernel_format == "pyarrow":
        def run(t):
            return kernel(t.drop_columns(["part_id"]))
    else:
        def run(df):
            return kernel(df.drop(columns=["part_id"]))

    tagged = ds.map_batches(lambda b: _tag(b, keys, P), batch_format=None)
    return tagged.groupby("part_id").map_groups(run, batch_format=kernel_format)


def hash_partitioned_agg(
    ds,
    keys: list[str],
    combine: Callable,
    num_partitions: int | None = None,
    kernel_format: str = "pandas",
):
    """``combine`` must be an associative/commutative aggregation over
    ``keys`` (groupby + sum/min/max/first-on-sorted...) taking and returning
    ``kernel_format`` batches.  It runs once per input batch (the combiner)
    and once per partition (the re-merge); output columns must be stable
    across both applications.  Default P is the CPU count: after the
    combiner a partition holds partials, not rows."""
    return hash_partitioned_apply(
        ds.map_batches(combine, batch_format=kernel_format), keys, combine,
        num_partitions or _default_partitions(), kernel_format,
    )


def collect_arrow(ds, schema: "pa.Table | None" = None):
    """Driver-side collect of a SMALL Dataset as one Arrow table.

    Skips empty blocks before the concat: a ``groupby(part_id).map_groups``
    partition with no rows can emit an empty block carrying NO schema (the
    recurring empty-block trap — at high partition counts over tiny inputs
    most partitions are empty), and ``pa.concat_tables`` raises on the
    mixed schemas.  Falls back to ``schema.empty_table()`` when every block
    is empty.  Caller asserts the collected result is driver-scale (gated
    key sets, stride samples, sketch grids)."""
    import pyarrow as pa
    import ray

    tabs = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if tabs:
        return pa.concat_tables(tabs).combine_chunks()
    if schema is not None:
        # accept either a pa.Schema or a typed empty pa.Table exemplar
        if isinstance(schema, pa.Table):
            return schema.schema.empty_table()
        return schema.empty_table()
    return pa.table({})
