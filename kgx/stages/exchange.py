"""The exchanges: every key-partitioned shuffle in this engine, and the one
all-to-one finish of a driver-scale result.

Key-partitioned: one shape, two entry points, two routes

    pinned input, rows > 0, bytes <= DRIVER_BYTES:   # driver route, at once
        kernel(combine(all rows))                    #   no tag, no execution
    otherwise:
        combine per batch, tag part_id = hash(key values) % P
        pin the tagged input, measure it             # ONE tagger,
        rows > 0 and bytes <= DRIVER_BYTES:          #   format-preserving
            kernel(all rows)                         # driver route
        otherwise:                                   # exchange route
            groupby(part_id).map_groups(kernel)      #   ONE exchange, P
                                                     #   groups, one call each

* :func:`hash_partitioned_apply` — partition-only: ``kernel`` runs exactly
  once per partition over every key the partition holds (holistic per-key
  work that admits no combiner: sessionization, bucket verification,
  ordered windows).
  Given ``combine=``, an associative/commutative combiner that shrinks
  the rows before they move (one partial row per key per batch), it runs
  once per input batch, or once over all rows on the driver route.
* :func:`hash_partitioned_agg` — ``hash_partitioned_apply`` whose kernel
  is its ``combine``: the combiner, then the re-merge.

Compared with ``groupby(keys).map_groups(fn)`` this removes the per-group
Python call (10^4-10^6 groups -> 10^1-10^2 partitions) while keeping key
disjointness: every key lands wholly in one partition, so the result equals
the single-pass one for any block arrangement.

The route.  A kernel that is correct on every key-complete row set is
correct on all rows at once, so a small input (the usual case after a
combiner: 10^4 partials for 10^2 keys) skips the all-to-all, whose cost is
its stages and their scheduling, not its bytes.  The route is chosen
when the function is CALLED, from block metadata, so it costs no pass:

* A PINNED input (a ``MaterializedDataset``: ``materialize()``,
  ``from_arrow``, a driver-route result) already knows its rows and bytes.
  With at least one row and at most :data:`DRIVER_BYTES`, the combiner
  runs once over all its rows and the kernel once over the combiner's
  output, then and there: no tag pass, no Ray execution.  (A chain of
  such calls, like the pipeline's phase B over its pinned linked table,
  runs no execution at all.)  This route makes no tagged copy, so it
  holds nothing past the call but its one-block result.
* Any other input (lazy, or pinned and larger) runs the combiner per
  batch and the tagger, and the TAGGED output is pinned and measured.
  Small, it takes the driver route over the tagged blocks; otherwise the
  exchange route stays lazy over them.  Those are exactly the blocks the
  exchange's sort buffers in full before it partitions, so pinning them
  adds no copy while one exchange runs; what it adds is lifetime: they
  live as long as the result Dataset does, so a chain of exchanges whose
  earlier results are still referenced holds one tagged input per live
  result.  (Materializing the exchange output to release the input sooner
  costs more: the output then lives on in the caller.)

One constant, :data:`DRIVER_BYTES`, bounds every driver-vs-exchange choice
in this module (this route and :func:`lookup_join`'s).  It is a byte bound
derived from driver memory, not a measured crossover: the driver route
holds the collected blocks, one combined copy and the kernel's working
set, so the bound is 64 MiB: input and copy then take about the 128 MiB
that one Ray Data task targets for a block by default
(``DataContext.target_max_block_size``), so the driver holds about what
one worker task holds.  Rows do not bound memory (a MinHash band row
carries a 512-byte signature).  Where the single driver call starts to
lose against P parallel kernels on a many-CPU cluster has not been
measured.

On the driver route the kernel gets one batch in its producer's format
where it can: pandas blocks for a pandas kernel are one ``pd.concat`` (no
Arrow round trip, so object columns Arrow cannot hold pass unchanged);
anything else is one Arrow table with a SINGLE chunk per column
(``combine_chunks``: a per-key ``take`` on a many-chunk table
re-concatenates every chunk, which made MinHash bucket verification about
14x slower).  The result is a one-block Dataset.

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

Partition count

P is the engine's decision, made in this module alone and for every
exchange: the cluster's CPU count (:func:`_default_partitions`), with a
combiner or without.  No operator takes a partition count.  P decides only
which keys share a kernel call, never which rows a key's kernel sees, so no
result depends on it.  One partition per CPU gives every CPU one kernel
call; more partitions add sort boundaries and tasks that buy no
parallelism.  More partitions than CPUs, to smooth stragglers between uneven
kernels, measured slower: ``kg_cooccurrence`` on the exchange route (sf0.1,
4 Ray CPUs on a 1-vCPU host, 4 interleaved runs) took 0.66-0.75 s at P=4
and 0.95-1.10 s at P=32.

All-to-one: a small result is finished once, on the driver

A total, a top-k or a small report is driver-scale by construction (the
caller's bound: per-partition partials, k rows per block, a KB-sized
table).  It takes no second all-to-all barrier (a one-partition
repartition); the driver collects it instead.

* :func:`collect_arrow` — the only driver collect: every block as one
  Arrow table, typed by ``schema`` (or an empty block's own schema) when
  there are no rows.
* :func:`finish` — ``fn`` runs EXACTLY ONCE, on the driver, over every
  row of ``ds``, and ALSO when ``ds`` has zero rows: a fold over nothing
  still owes its one total row.  (A one-partition repartition followed by
  ``map_batches(fn)`` never calls ``fn`` on zero rows and returns a
  column-less Dataset.)  The result is a one-block Dataset.
* :func:`top_k` — the global top-k: a per-block local top-k, then one
  driver merge, in ``by`` order (so a rank column is ``arange(1, n + 1)``).

Zero rows: one rule for the whole engine

The engine, not the function, owns zero rows.  A function the engine
calls per batch or partition (a ``map_batches`` UDF, a ``kernel`` or
``combine`` of :func:`hash_partitioned_apply` / :func:`hash_partitioned_agg`,
a :func:`lookup_join` ``then``) is never called on zero rows, so it neither
guards its input against them nor builds a typed empty for them.  Where
its rows become zero inside it (after a filter), its body runs on if it
handles zero rows, else it returns ``pd.DataFrame()`` / ``pa.table({})``.
The schema of an empty result is typed only where a caller sees it: the
``schema`` of :func:`collect_arrow`, :func:`finish` and :func:`top_k`; the
return of a ``finish`` fn, which runs on zero rows by contract (a fold over
nothing still owes its total row); and an operator that returns a pandas
frame or an Arrow table.  The rule rests on four facts of Ray 2.49:

1. ``map_batches`` passes a zero-row pandas or Arrow block through
   unchanged, without calling the function.  A zero-row input takes the
   exchange route, where ``map_groups`` calls the kernel only on non-empty
   groups; the driver route runs only on at least one row, and its kernel
   only on a non-empty combiner output; ``then`` runs only on a non-empty
   join output.
2. A typed empty fed to an exchange is thrown away: the tagger is skipped
   on a zero-row block, so the block arrives without ``part_id`` whatever
   its type, and all-empty partials give a column-less result on both
   routes (on the driver route of a pinned input, a combiner output of
   zero rows gives the same column-less one-block result).
3. A zero-row Dataset shows its caller no columns (``to_pandas`` of
   ``from_arrow(<typed empty>)``, a ``read_parquet`` of a zero-row file):
   only a driver collect with a ``schema`` types it.
4. Column-less zero-row blocks (``pd.DataFrame()``, ``pa.table({})``) are
   correct next to typed ones: both exchange routes in both formats,
   ``to_pandas``, ``write_parquet``, ``count`` and a bundling
   ``map_batches``.  A typed pandas empty with an object column is not:
   Ray cannot compute its size and logs an error.

Correct is not quiet: Ray logs "Operator produced a RefBundle with a
different schema" for an operator whose output bundles differ in schema,
and a zero-row block that skipped the tagger sits untagged next to tagged
ones.  So :func:`hash_partitioned_apply` drops the zero-row blocks of a
PINNED input (a ``MaterializedDataset``) before it tags (its driver route
tags nothing), and on the exchange route those of the tagged input before
the sort.  A zero-row block that a lazy producer hands to the tagger in
one fused operator still reaches it; a producer that can filter a batch
to zero rows and wants no warning returns a typed empty (one schema for
all its blocks) and pins its output (``corpus.token_budget``).

Lookup join: a fact stream probes a keyed dimension

:func:`lookup_join` attaches dimension columns to fact rows (``inner``) or
filters fact rows by key membership (``semi`` / ``anti``).  The route is
chosen once, from the pinned dimension's size in bytes:

* at most :data:`DRIVER_BYTES` — broadcast: the dimension is
  collected, sorted by key, put in the object store once, and every fact
  batch is probed with one vectorized ``searchsorted``;
* more — exchange: fact and dimension rows are tagged by side and meet in
  one :func:`hash_partitioned_apply` on the key, where each partition runs
  the same probe over its own dimension rows.

Both routes return the same rows.  ``then`` folds the join output; it runs
per output batch on the broadcast route and per partition on the exchange
route, so it must be a combiner (any split of the rows gives partials that
the caller merges), and it never sees zero rows.  Semantics:

* a null fact key never matches: ``inner`` and ``semi`` drop the row,
  ``anti`` keeps it (SQL ``NOT EXISTS``); a null dimension key is ignored;
* ``inner`` needs a unique dimension key — a duplicate raises
  ``ValueError`` on both routes (at the call on the broadcast route, when
  the plan runs on the exchange route).  ``semi`` and ``anti`` accept
  duplicates.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np


DRIVER_BYTES = 64 << 20  # see "The route" in the module docstring
_DIM = "__dim"  # side tag of a dimension row on the exchange route


def _default_partitions() -> int:
    """P of every hash exchange: the cluster's CPU count (see "Partition
    count" in the module docstring)."""
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
    *,
    kernel_format: str = "pandas",
    combine: Callable | None = None,
    combine_batch_size: int | None = None,
):
    """Partition-ONLY exchange: rows co-locate by hash(keys) and ``kernel``
    (a ``kernel_format`` batch -> batch function) runs EXACTLY ONCE per
    partition over all its keys, so it may sort and scan freely.

    ``combine`` (optional, ``kernel_format`` batch -> batch, associative
    and commutative over ``keys``) shrinks the rows before they move: it
    runs on every input batch of ``combine_batch_size`` rows (None: one
    call per block) and the kernel sees its output.

    The route is chosen NOW (see "The route" in the module docstring): a
    pinned input of at least one row and at most :data:`DRIVER_BYTES` runs
    ``combine`` once over every row and ``kernel`` once over its output, on
    the driver; otherwise the combiner output is tagged, pinned and
    measured (a pinned input loses its zero-row blocks first, see "Zero
    rows"), and a small one takes the same driver route, anything else the
    exchange, lazily, over the pinned tagged blocks.  The kernel gets one
    single-chunk batch on the driver."""
    from ray.data.dataset import MaterializedDataset

    pinned = isinstance(ds, MaterializedDataset)
    if pinned and ds.count() and ds.size_bytes() <= DRIVER_BYTES:
        return _on_driver(ds, kernel, kernel_format, combine)
    P = _default_partitions()
    if pinned:
        ds = _nonempty(ds)
    if combine is not None:
        ds = ds.map_batches(combine, batch_format=kernel_format,
                            batch_size=combine_batch_size)
    tagged = ds.map_batches(lambda b: _tag(b, keys, P),
                            batch_format=None).materialize()
    if tagged.count() and tagged.size_bytes() <= DRIVER_BYTES:
        return _on_driver(tagged, kernel, kernel_format, drop="part_id")
    tagged = _nonempty(tagged)

    if kernel_format == "pyarrow":
        def run(t):
            return kernel(t.drop_columns(["part_id"]))
    else:
        def run(df):
            return kernel(df.drop(columns=["part_id"]))

    return tagged.groupby("part_id").map_groups(run,
                                                batch_format=kernel_format)


def _nonempty(ds):
    """The pinned ``ds`` without its zero-row blocks; ``ds`` itself when it
    has none, or when every block is empty (so zero rows keep their path).
    A zero-row block skips the tagger (fact 1 of "Zero rows"), so next to
    tagged blocks it lacks ``part_id``, and every operator that passes it
    on logs Ray's "RefBundle with a different schema" warning."""
    from ray.data._internal.execution.interfaces import RefBundle
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.input_data_operator import \
        InputData
    from ray.data._internal.plan import ExecutionPlan
    from ray.data.dataset import MaterializedDataset

    blocks = [(b.schema, rm) for b in _bundles(ds) for rm in b.blocks]
    full = [RefBundle([rm], owns_blocks=False, schema=s)
            for s, rm in blocks if rm[1].num_rows != 0]
    if not full or len(full) == len(blocks):
        return ds
    # the same construction as Dataset.materialize(), over fewer bundles
    out = MaterializedDataset(
        ExecutionPlan(ds._plan.stats(), data_context=ds.context),
        LogicalPlan(InputData(input_data=full), ds.context))
    out._plan.execute()
    return out


def _on_driver(ds, kernel: Callable, kernel_format: str,
               combine: Callable | None = None, drop: str | None = None):
    """``kernel`` (after ``combine``, if given) once over every row of the
    pinned Dataset ``ds`` less its ``drop`` column, as a one-block Dataset;
    a combiner output of zero rows gives a column-less one (the kernel is
    not called)."""
    import pyarrow as pa
    import ray.data as rd
    from ray.data.block import BlockAccessor

    batch = _one_batch([b for b in _blocks(ds) if len(b)], kernel_format,
                       drop)
    if combine is not None:
        part = BlockAccessor.batch_to_block(combine(batch))
        if not len(part):
            return rd.from_blocks([pa.table({})])
        batch = _one_batch([part], kernel_format)
    return rd.from_blocks([BlockAccessor.batch_to_block(kernel(batch))])


def _one_batch(blocks: list, kernel_format: str, drop: str | None = None):
    """Non-empty ``blocks`` as one ``kernel_format`` batch without its
    ``drop`` column.  Pandas blocks reach a pandas kernel through one
    ``pd.concat`` (object columns Arrow cannot hold pass unchanged);
    otherwise they become one Arrow table with a SINGLE chunk per column (a
    per-key ``take`` on a chunked table re-concatenates every chunk)."""
    import pandas as pd
    import pyarrow as pa
    from ray.data.block import BlockAccessor

    cut = [drop] if drop else []
    if kernel_format == "pandas" and all(
            isinstance(b, pd.DataFrame) for b in blocks):
        return pd.concat(blocks, ignore_index=True).drop(columns=cut)
    t = pa.concat_tables(
        [BlockAccessor.for_block(b).to_arrow() for b in blocks],
        promote_options="permissive").drop_columns(cut)
    return BlockAccessor.for_block(t.combine_chunks()) \
        .to_batch_format(kernel_format)


def hash_partitioned_agg(
    ds,
    keys: list[str],
    combine: Callable,
    *,
    kernel_format: str = "pandas",
):
    """``combine`` must be an associative/commutative aggregation over
    ``keys`` (groupby + sum/min/max/first-on-sorted...) taking and returning
    ``kernel_format`` batches.  It runs as the combiner (once per input
    block, or once over all rows of a small pinned input) and once per
    partition (the re-merge); output columns must be stable across both
    applications."""
    return hash_partitioned_apply(ds, keys, combine,
                                  kernel_format=kernel_format,
                                  combine=combine)


def _bundles(ds) -> list:
    """The RefBundles of ``ds``.  A pinned Dataset's are read from its plan:
    ``iter_internal_ref_bundles`` starts a Ray Data execution even over
    blocks that are already in the object store."""
    from ray.data._internal.logical.interfaces import SourceOperator

    dag = ds._logical_plan.dag
    if isinstance(dag, SourceOperator) and dag.output_data() is not None:
        return list(dag.output_data())
    return list(ds.iter_internal_ref_bundles())


def _blocks(ds) -> list:
    """Every block of ``ds``, in its producer's format, on the driver."""
    import ray

    # not ray.get(ds.to_arrow_refs()): that runs the plan a second time (a
    # limit(1) pass for the schema, which cancels tasks when it stops) and
    # hands a pandas block among Arrow ones over unconverted
    return ray.get([r for b in _bundles(ds) for r in b.block_refs])


def collect_arrow(ds, schema=None):
    """Every block of a SMALL Dataset as one Arrow table on the driver.

    Empty blocks are skipped before the concat: an exchange partition with
    no rows can emit an empty block with NO schema, which a strict concat
    rejects.  With no rows at all the result is ``schema`` (a ``pa.Schema``
    or a typed empty Arrow table or pandas frame) as an empty table, else
    the first empty block's own columns, else a column-less table.  The
    caller asserts the result is driver-scale."""
    import pyarrow as pa
    from ray.data.block import BlockAccessor

    tabs = [BlockAccessor.for_block(b).to_arrow() for b in _blocks(ds)]
    full = [t for t in tabs if t.num_rows]
    if full:
        return pa.concat_tables(full, promote_options="permissive") \
            .combine_chunks()
    if isinstance(schema, pa.Table):
        return schema.schema.empty_table()
    if schema is not None:  # a pa.Schema, or a typed empty pandas exemplar
        return (schema if isinstance(schema, pa.Schema) else
                pa.Schema.from_pandas(schema, preserve_index=False)
                ).empty_table()
    typed = [t for t in tabs if t.num_columns]
    return typed[0].schema.empty_table() if typed else pa.table({})


def finish(ds, fn: Callable, batch_format: str = "pandas", schema=None):
    """Run ``fn`` EXACTLY ONCE, on the driver, over every row of ``ds`` as
    one ``batch_format`` batch — also when there are zero rows, typed by
    ``schema`` (see :func:`collect_arrow`).  ``fn`` returns a pandas
    frame or an Arrow table; the result is a one-block Dataset of it."""
    import pyarrow as pa
    import ray.data as rd

    t = collect_arrow(ds, schema)
    out = fn(t.to_pandas() if batch_format == "pandas" else t)
    return rd.from_arrow(out) if isinstance(out, pa.Table) \
        else rd.from_pandas(out)


def top_k(ds, by: list[str], descending: list[bool], k: int, schema=None):
    """The global top-k of ``ds`` under ``by`` (stable: full ties keep
    input order) as a pandas frame of at most ``k`` rows in ``by`` order.

    Each block keeps its own top-k (the global top-k is a subset of their
    union), then one driver merge ranks the <= blocks x k survivors, so
    the row order is the rank order whatever the block layout.  Zero rows
    give an empty frame typed as in :func:`collect_arrow`."""
    import pyarrow.compute as pc

    order = [(c, "descending" if d else "ascending")
             for c, d in zip(by, descending)]

    def local(t):
        return t.take(pc.sort_indices(t, sort_keys=order)[:k])

    df = collect_arrow(ds.map_batches(local, batch_format="pyarrow"),
                       schema).to_pandas()
    if len(df):
        df = df.sort_values(by, ascending=[not d for d in descending],
                            kind="stable").head(k)
    return df.reset_index(drop=True)


def _sorted_dim(t, key: str, cols, how: str):
    """(sorted non-null keys, ``cols`` in that order) of a dimension table;
    keys are unique (``inner`` raises on a duplicate, the rest dedup)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if not t.num_rows:  # may carry no columns
        return np.array([]), pa.table({c: pa.nulls(0) for c in cols})
    t = t.filter(pc.is_valid(t[key]))
    dk = t[key].to_numpy()
    order = np.argsort(dk, kind="stable")
    dk = dk[order]
    dup = dk[1:] == dk[:-1]
    if how != "inner":
        return dk[np.r_[True, ~dup]] if len(dk) else dk, None
    if dup.any():
        raise ValueError(
            f"lookup_join: duplicate dimension key {dk[1:][dup][0]!r}")
    return dk, t.select(list(cols)).take(pa.array(order))


def _probe(t, key: str, dk: np.ndarray, dv, how: str):
    """One vectorized lookup of ``t[key]`` in the sorted keys ``dk``."""
    import pyarrow as pa
    import pyarrow.compute as pc

    col = t[key]
    hit = np.zeros(t.num_rows, dtype=bool)
    pos = np.zeros(t.num_rows, dtype=np.int64)
    if col.null_count:  # probe only the non-null keys
        idx = np.flatnonzero(pc.is_valid(col).to_numpy(zero_copy_only=False))
        kv = col.take(pa.array(idx)).to_numpy()
    else:
        idx, kv = slice(None), col.to_numpy()
    if len(dk) and len(kv):
        p = np.searchsorted(dk, kv).clip(max=len(dk) - 1)
        hit[idx] = dk[p] == kv
        pos[idx] = p
    if how == "anti":
        return t.filter(pa.array(~hit))
    out = t.filter(pa.array(hit))
    if how == "inner":
        rows = pa.array(pos[hit])
        for c in dv.column_names:
            out = out.append_column(c, dv[c].take(rows))
    return out


def lookup_join(fact, key: str, dim, dim_key: str, cols=(),
                how: str = "inner", then: Callable | None = None):
    """Fact rows of ``fact`` probed on ``key`` against ``dim[dim_key]``
    (see "Lookup join" in the module docstring): ``inner`` appends the
    dimension's ``cols``, ``semi`` keeps matching rows, ``anti`` keeps the
    rest.  ``then`` (an Arrow table -> Arrow table or pandas frame
    combiner) folds the output; without it the result is the joined Arrow
    rows."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    if how not in ("inner", "semi", "anti"):
        raise ValueError(f"lookup_join: unknown how={how!r}")
    cols = list(cols)
    if cols and how != "inner":
        raise ValueError("lookup_join: only an inner join attaches cols")
    dim = dim.materialize()

    def folded(out):
        if then is None:
            return out
        return then(out) if out.num_rows else pa.table({})

    def checked(t):
        clash = set(t.column_names) & {*cols, _DIM}
        if clash:
            raise ValueError(f"lookup_join: fact already has {sorted(clash)}")
        return t

    if dim.size_bytes() <= DRIVER_BYTES:
        ref = ray.put(_sorted_dim(collect_arrow(dim), dim_key, cols, how))

        def probe(b):
            dk, dv = ray.get(ref)
            return folded(_probe(checked(b), key, dk, dv, how))

        return fact.map_batches(probe, batch_format="pyarrow")

    def fact_rows(b):
        b = checked(b)
        if how != "anti":  # a null key never matches: no need to ship it
            b = b.filter(pc.is_valid(b[key]))
        return b.append_column(_DIM, pa.array(np.zeros(b.num_rows, bool)))

    def dim_rows(b):
        b = b.select([dim_key, *cols]).rename_columns([key, *cols])
        return b.append_column(_DIM, pa.array(np.ones(b.num_rows, bool)))

    def kernel(t):
        side = t[_DIM].to_numpy(zero_copy_only=False)
        d = t.filter(pa.array(side))
        f = t.filter(pa.array(~side)).drop_columns(
            [c for c in (*cols, _DIM) if c in t.column_names])
        dk, dv = _sorted_dim(d, key, cols, how)
        return folded(_probe(f, key, dk, dv, how))

    u = fact.map_batches(fact_rows, batch_format="pyarrow").union(
        dim.map_batches(dim_rows, batch_format="pyarrow"))
    return hash_partitioned_apply(u, [key], kernel, kernel_format="pyarrow")
