"""Distributed sketch operators for corpus statistics: HyperLogLog
distinct-count registers and exact two-pass heavy hitters.

Both are canonical 100-TB shapes: the driver never sees per-key state —
only a fixed-size register table (HLL) or a pigeonhole-bounded candidate
list (heavy hitters) crosses the exchange.  Decision rules are pure
integer arithmetic so the DuckDB oracle reproduces them bit-exactly
(driver-contract convention; the register content IS the query result,
the float estimate is a deterministic driver-side post-process).

Reference provenance: the reference keeps corpus-level quality counters
and per-run distinct statistics on its report path
(``src/pipeline/post_processor.py`` G7 counters, ``README.md`` run
summaries); these sketches are the scale-safe generalization of those
counters to unbounded key cardinality.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

HLL_B = 8                       # 2^8 = 256 registers
HLL_M = 1 << HLL_B
_W_BITS = 64 - HLL_B            # rank runs over the low 56 bits
_W_MASK = np.uint64((1 << _W_BITS) - 1)

_REG_SCHEMA = pa.schema([("register", pa.int64()), ("max_rank", pa.int64())])


def _bit_length_u64(w: np.ndarray) -> np.ndarray:
    """Vectorized bit_length for uint64 (exact — float log2 loses the
    boundary cases above 2^53, so binary-search with shifts instead)."""
    v = w.copy()
    bl = np.zeros(len(w), dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        big = v >= (np.uint64(1) << np.uint64(s))
        bl += s * big
        v >>= big.astype(np.uint64) * np.uint64(s)
    return bl + (v > 0)


def hll_partial_registers(hashes: np.ndarray) -> "pa.Table":
    """uint64 hashes -> non-empty (register, max_rank) rows.  register is
    the top HLL_B bits; rank = (bits after the register) leading-zero count
    + 1 = _W_BITS + 1 - bit_length(w), exactly ``57 - length(bin(w))`` in
    DuckDB for w > 0 (bin() strips leading zeros) and 57 for w = 0."""
    reg = (hashes >> np.uint64(_W_BITS)).astype(np.int64)
    w = hashes & _W_MASK
    rank = (_W_BITS + 1) - _bit_length_u64(w)
    regs = np.zeros(HLL_M, dtype=np.int64)
    np.maximum.at(regs, reg, rank)
    nz = np.nonzero(regs)[0]
    return pa.table(
        {"register": nz.astype(np.int64), "max_rank": regs[nz]},
        schema=_REG_SCHEMA,
    )


def hll_token_registers(docs_ds):
    """documents -> the merged 256-register HLL sketch of DISTINCT
    (token, doc_id) pairs corpus-wide — i.e. an approximate inverted-index
    size — as (register, max_rank) rows (non-empty registers only).

    Per batch: tokenize, hash each doc's distinct tokens qualified by
    doc_id, fold into a local 256-slot register array; the keyed exchange
    then merges at most 256 rows per batch with a vectorized max — shuffle
    volume is O(batches x 256) regardless of corpus size, and register-max
    is associative / commutative / idempotent, so the result is exact
    under any partitioning (double-counting a pair is harmless)."""
    import pandas as pd

    from ..functions.text import stable_hash64, tokenize
    from .exchange import hash_partitioned_agg

    def partial(batch: pa.Table) -> pa.Table:
        hs: list[int] = []
        ids = batch["doc_id"].to_pylist()
        for doc_id, text in zip(ids, batch["text"].to_pylist()):
            for t in set(tokenize(text or "")):
                hs.append(stable_hash64(f"{t}:{doc_id}"))
        return hll_partial_registers(np.asarray(hs, dtype=np.uint64))

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return (
            df.groupby("register", sort=False, as_index=False)
            .agg(max_rank=("max_rank", "max"))
        )

    return hash_partitioned_agg(
        docs_ds.map_batches(partial, batch_format="pyarrow"),
        ["register"], combine,
    )


def hll_estimate(registers: "np.ndarray | list[int]", b: int = HLL_B) -> float:
    """Flajolet et al. '07 estimate from a DENSE m-length rank array
    (missing registers = 0).  Driver-side post-process of the sketch query
    result; relative error ~ 1.04/sqrt(m) ~ 6.5% at m=256."""
    m = 1 << b
    regs = np.asarray(registers, dtype=np.float64)
    assert len(regs) == m
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.exp2(-regs))
    if est <= 2.5 * m:
        zeros = int(np.sum(regs == 0))
        if zeros:
            est = m * np.log(m / zeros)  # linear counting for small n
    return float(est)


def sql_hll_token_registers(sql_token_list: str) -> str:
    """DuckDB oracle: same hash (md5_number_upper('0:'||t) ==
    stable_hash64), same register/rank split; length(bin(w)) is
    bit_length for w > 0."""
    two_w = 1 << _W_BITS
    return f"""
WITH tok AS (
  SELECT DISTINCT doc_id, token FROM (
    SELECT doc_id, unnest({sql_token_list}) AS token FROM documents
  )
), h AS (
  SELECT md5_number_upper('0:' || token || ':' || CAST(doc_id AS VARCHAR)) AS h
  FROM tok
), r AS (
  SELECT CAST(h // {two_w} AS BIGINT) AS register,
         CAST(h % {two_w} AS BIGINT) AS w
  FROM h
)
SELECT register,
       max(CASE WHEN w = 0 THEN {_W_BITS + 1}
                ELSE {_W_BITS + 1} - length(bin(w)) END) AS max_rank
FROM r GROUP BY register
"""


def hll_grouped_registers(events_ds):
    """events -> (event_type, register, max_rank): one HLL sketch of
    DISTINCT user_ids PER GROUP — the grouped form of the mergeable
    distinct-count sketch (approximate "unique users per event type" at
    unbounded user cardinality).

    Per batch: distinct (event_type, user_id) via one Arrow group_by, md5
    hash of the user id (``stable_hash64`` == the oracle's
    ``md5_number_upper``), register/rank split, per-(group, register) max
    fold — so the exchange carries at most groups x 256 rows per batch no
    matter how many users appear, and max-merge keeps the result exact
    under any partitioning (the sketch_hll contract, partitioned by key).
    Driver post-process: ``hll_estimate`` per group over the densified
    registers.
    """
    import pandas as pd

    from ..functions.text import stable_hash64
    from .exchange import hash_partitioned_agg

    def partial(batch: pa.Table) -> "pd.DataFrame":
        import pyarrow.compute as pc

        ok = pc.and_(pc.is_valid(batch["event_type"]),
                     pc.is_valid(batch["user_id"]))
        dd = (
            batch.filter(ok).select(["event_type", "user_id"])
            .group_by(["event_type", "user_id"]).aggregate([])
        )
        uids = dd["user_id"].to_pylist()
        hs = np.fromiter(
            (stable_hash64(str(u)) for u in uids), dtype=np.uint64,
            count=len(uids),
        )
        reg = (hs >> np.uint64(_W_BITS)).astype(np.int64)
        w = hs & _W_MASK
        rank = (_W_BITS + 1) - _bit_length_u64(w)
        df = pd.DataFrame(
            {"event_type": dd["event_type"].to_pylist(), "register": reg,
             "max_rank": rank}
        )
        return df.groupby(["event_type", "register"], sort=False,
                          as_index=False).agg(max_rank=("max_rank", "max"))

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby(["event_type", "register"], sort=False,
                          as_index=False).agg(max_rank=("max_rank", "max"))

    return hash_partitioned_agg(
        events_ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type", "register"], combine,
    )


def sql_hll_grouped_registers() -> str:
    """DuckDB oracle: identical hash / register / rank arithmetic as
    sql_hll_token_registers, partitioned by event_type."""
    two_w = 1 << _W_BITS
    return f"""
WITH du AS (
  SELECT DISTINCT event_type, user_id FROM events
  WHERE event_type IS NOT NULL AND user_id IS NOT NULL
), h AS (
  SELECT event_type,
         md5_number_upper('0:' || CAST(user_id AS VARCHAR)) AS h
  FROM du
), r AS (
  SELECT event_type, CAST(h // {two_w} AS BIGINT) AS register,
         CAST(h % {two_w} AS BIGINT) AS w
  FROM h
)
SELECT event_type, register,
       max(CASE WHEN w = 0 THEN {_W_BITS + 1}
                ELSE {_W_BITS + 1} - length(bin(w)) END) AS max_rank
FROM r GROUP BY event_type, register
"""


# ---------------------------------------------------------------------------
# Exact heavy hitters (two-pass candidate-generate + verify)
# ---------------------------------------------------------------------------


def heavy_hitter_tokens(docs_ds, k: int = 100):
    """documents -> EXACTLY the tokens whose corpus-wide occurrence count
    satisfies cnt * k > N (N = total token occurrences), as (token, cnt).

    Pass 1 (one scan): per-batch local counts emit a candidate row only for
    tokens with local_cnt * k > batch_tokens — by pigeonhole every global
    heavy hitter exceeds the threshold in at least one batch, and at most
    k-1 tokens can do so per batch, so the candidate exchange is bounded by
    O(k x batches) rows no matter how large the vocabulary; the same scan
    folds batch token totals into N (a driver scalar).  Pass 2 (one scan):
    the merged candidate list broadcasts once (ray.put), each batch counts
    ONLY candidates, and one combiner exchange plus the exact N filter
    yields the same rows as the full GROUP BY ... HAVING — without ever
    shuffling the full vocabulary.
    """
    import pandas as pd
    import pyarrow.compute as pc
    import ray

    from ..functions.text import tokenize
    from .exchange import collect_arrow, hash_partitioned_agg

    part_schema = pa.schema(
        [("token", pa.string()), ("cnt", pa.int64()), ("is_total", pa.int64())]
    )

    def pass1(batch: pa.Table) -> pa.Table:
        # flat token list + ONE value_counts C call (the sentinel-flat
        # vectorization pattern; the dict loop was the hot cost of pass 1)
        flat: list[str] = []
        for text in batch["text"].to_pylist():
            flat.extend(tokenize(text or ""))
        n_b = len(flat)
        if n_b:
            vc = pc.value_counts(pa.array(flat, pa.string()))
            toks_np = vc.field("values")
            cnts_np = vc.field("counts").to_numpy()
            keep = cnts_np * k > n_b
            toks = toks_np.filter(pa.array(keep)).to_pylist()
            cnts = cnts_np[keep].tolist()
        else:
            toks, cnts = [], []
        return pa.table(
            {"token": toks + [""], "cnt": cnts + [n_b],
             "is_total": [0] * len(toks) + [1]}, schema=part_schema
        )

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return (
            df.groupby(["token", "is_total"], sort=False, as_index=False)
            .agg(cnt=("cnt", "sum"))
        )

    merged = collect_arrow(hash_partitioned_agg(
        docs_ds.map_batches(pass1, batch_format="pyarrow"),
        ["token", "is_total"], combine,
    ), part_schema)
    total = pc.equal(merged["is_total"], 1)
    n_total = int(pc.sum(merged.filter(total)["cnt"]).as_py() or 0)
    # bounded: < k rows per pass-1 batch
    cand_ref = ray.put(
        merged.filter(pc.invert(total))["token"].combine_chunks())

    def pass2(batch: pa.Table) -> "pd.DataFrame":
        # vectorized candidate-only recount: one value_counts + one is_in
        flat: list[str] = []
        for text in batch["text"].to_pylist():
            flat.extend(tokenize(text or ""))
        if not flat:
            return pd.DataFrame()
        vc = pc.value_counts(pa.array(flat, pa.string()))
        toks = vc.field("values")
        keep = pc.is_in(toks, value_set=ray.get(cand_ref))
        return pd.DataFrame(
            {"token": toks.filter(keep).to_pylist(),
             "cnt": vc.field("counts").filter(keep).to_numpy()}
        )

    def combine2(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby("token", sort=False, as_index=False).agg(
            cnt=("cnt", "sum")
        )

    exact = hash_partitioned_agg(
        docs_ds.map_batches(pass2, batch_format="pyarrow"), ["token"], combine2
    )

    def final(df: "pd.DataFrame") -> "pd.DataFrame":
        out = df[df["cnt"].to_numpy() * k > n_total].copy()
        out["cnt"] = out["cnt"].astype("int64")
        return out[["token", "cnt"]]

    return exact.map_batches(final, batch_format="pandas")


def sql_heavy_hitter_tokens(sql_token_list: str, k: int = 100) -> str:
    return f"""
WITH tok AS (
  SELECT unnest({sql_token_list}) AS token FROM documents
), tot AS (SELECT count(*) AS n FROM tok),
c AS (
  SELECT token, CAST(count(*) AS BIGINT) AS cnt FROM tok GROUP BY token
)
SELECT token, cnt FROM c, tot WHERE cnt * {k} > tot.n
"""


# ---------------------------------------------------------------------------
# Bloom filter (set-membership sketch; shuffle-avoiding join prefilter)
# ---------------------------------------------------------------------------

BLOOM_M = 1 << 16   # bits
BLOOM_K = 4         # hash functions

# Wraparound-multiply hash family (Knuth multiplicative; same technique as
# the MinHash family — numpy uint64 wraps natively, DuckDB reproduces the
# product in HUGEINT mod 2^64).  Seeds derive from stable_hash64 so both
# sides embed identical constants.
def _bloom_family():
    from ..functions.text import stable_hash64

    muls = [stable_hash64(f"bloom-a-11-{i}") | 1 for i in range(BLOOM_K)]
    adds = [stable_hash64(f"bloom-b-11-{i}") for i in range(BLOOM_K)]
    return muls, adds


def bloom_positions_np(keys: "np.ndarray") -> "np.ndarray":
    """int64 keys -> flat array of BLOOM_K bit positions per key (top-32
    bits of each wraparound product mod BLOOM_M — low multiplicative-hash
    bits are weak)."""
    muls, adds = _bloom_family()
    k = keys.astype(np.uint64)
    out = []
    with np.errstate(over="ignore"):
        for mul, add in zip(muls, adds):
            h = k * np.uint64(mul) + np.uint64(add)
            out.append(((h >> np.uint64(32)) % np.uint64(BLOOM_M)).astype(np.int64))
    return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


def bloom_build(ds, key: str):
    """Dataset -> the set Bloom filter of its ``key`` column, as sorted
    DISTINCT (bit,) rows — the mergeable sketch form (bit-set union is a
    row-level distinct, so the per-batch combiner bounds the exchange to
    O(batches x min(4·keys, BLOOM_M)) and partitions merge exactly).

    Scale use (documented, exercised in tests): when a semi-join's build
    side has too many distinct keys to broadcast exactly but the ~8 KB
    bitset fits anywhere, broadcast the bitset and pre-filter the probe
    side BEFORE its exchange — no false negatives, false-positive rate
    (1-e^(-kn/m))^k, exact verify afterwards only over survivors."""
    import pandas as pd

    from .exchange import hash_partitioned_agg

    bit_schema = pa.schema([("bit", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keys = pc.unique(pc.fill_null(batch[key], 0)).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        bits = np.unique(bloom_positions_np(keys))
        return pa.table({"bit": bits}, schema=bit_schema)

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.drop_duplicates(subset=["bit"])[["bit"]]

    return hash_partitioned_agg(
        ds.map_batches(partial, batch_format="pyarrow"), ["bit"], combine
    )


def bloom_membership_mask(keys: "np.ndarray", bitset: "np.ndarray") -> "np.ndarray":
    """Vectorized probe: True where ALL BLOOM_K positions of a key are set
    in ``bitset`` (a dense bool array of length BLOOM_M).  No false
    negatives; positives must be exact-verified downstream."""
    pos = bloom_positions_np(keys).reshape(BLOOM_K, -1)
    mask = np.ones(len(keys), dtype=bool)
    for i in range(BLOOM_K):
        mask &= bitset[pos[i]]
    return mask


def sql_bloom_build(key_expr: str, table: str) -> str:
    muls, adds = _bloom_family()
    two64 = 1 << 64
    parts = [
        f"SELECT ((CAST({key_expr} AS HUGEINT) * {mul} + {add}) % {two64}) "
        f"// {1 << 32} % {BLOOM_M} AS bit FROM {table}"
        for mul, add in zip(muls, adds)
    ]
    return (
        "SELECT DISTINCT CAST(bit AS BIGINT) AS bit FROM ("
        + " UNION ALL ".join(parts)
        + ")"
    )


# ---------------------------------------------------------------------------
# Count-min sketch (frequency estimation; completes the sketch triad:
# Bloom = membership, HLL = cardinality, CMS = frequency)
# ---------------------------------------------------------------------------

CMS_D = 4           # hash rows
CMS_W = 256         # cells per row


def _cms_family():
    from ..functions.text import stable_hash64

    muls = [stable_hash64(f"cms-a-13-{i}") | 1 for i in range(CMS_D)]
    adds = [stable_hash64(f"cms-b-13-{i}") for i in range(CMS_D)]
    return muls, adds


def cms_cells_np(token_hashes: "np.ndarray") -> "np.ndarray":
    """uint64 token hashes -> (CMS_D, n) cell indices (top-32 bits of each
    wraparound product mod CMS_W)."""
    muls, adds = _cms_family()
    out = np.empty((CMS_D, len(token_hashes)), dtype=np.int64)
    with np.errstate(over="ignore"):
        for i, (mul, add) in enumerate(zip(muls, adds)):
            h = token_hashes * np.uint64(mul) + np.uint64(add)
            out[i] = ((h >> np.uint64(32)) % np.uint64(CMS_W)).astype(np.int64)
    return out


def cms_build(docs_ds):
    """documents -> the merged count-min sketch of token OCCURRENCES, as
    (d_row, cell, cnt) rows — the mergeable sketch form (cell-wise sums are
    associative/commutative, so partitioning cannot change the result).

    Per batch: local token counts fold into a d x w counter array
    (np.add.at), so the exchange moves at most d*w = 1024 rows per batch
    regardless of vocabulary; the keyed combiner sums cells.  Point
    estimate (driver-side ``cms_estimate``): min over the d cells — always
    >= the true count, <= true + eps*N with eps = e/w at the usual
    failure probability e^-d."""
    import pandas as pd

    from ..functions.text import stable_hash64, tokenize
    from .exchange import hash_partitioned_agg

    cms_schema = pa.schema(
        [("d_row", pa.int64()), ("cell", pa.int64()), ("cnt", pa.int64())]
    )

    def partial(batch: pa.Table) -> pa.Table:
        counts: dict[str, int] = {}
        for text in batch["text"].to_pylist():
            for t in tokenize(text or ""):
                counts[t] = counts.get(t, 0) + 1
        if not counts:
            return pa.table({"d_row": [], "cell": [], "cnt": []},
                            schema=cms_schema)
        hs = np.array([stable_hash64(t) for t in counts], dtype=np.uint64)
        cs = np.array(list(counts.values()), dtype=np.int64)
        cells = cms_cells_np(hs)
        grid = np.zeros((CMS_D, CMS_W), dtype=np.int64)
        for i in range(CMS_D):
            np.add.at(grid[i], cells[i], cs)
        rows, cols = np.nonzero(grid)
        return pa.table(
            {"d_row": rows.astype(np.int64), "cell": cols.astype(np.int64),
             "cnt": grid[rows, cols]},
            schema=cms_schema,
        )

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby(["d_row", "cell"], sort=False, as_index=False).agg(
            cnt=("cnt", "sum")
        )

    return hash_partitioned_agg(
        docs_ds.map_batches(partial, batch_format="pyarrow"),
        ["d_row", "cell"], combine,
    )


def cms_estimate(grid: "np.ndarray", token: str) -> int:
    """Point frequency estimate from a DENSE (CMS_D, CMS_W) grid."""
    from ..functions.text import stable_hash64

    h = np.array([stable_hash64(token)], dtype=np.uint64)
    cells = cms_cells_np(h)[:, 0]
    return int(min(grid[i, c] for i, c in enumerate(cells.tolist())))


def sql_cms_build(sql_token_list: str) -> str:
    """The 64-bit hash x 64-bit multiplier product overflows INT128, so the
    wraparound multiply uses the 32-bit split identity from
    kgx/sql_oracles.py: lo64(a*c) = a_lo*c_lo +
    ((a_lo*c_hi + a_hi*c_lo) mod 2^32) * 2^32  (mod 2^64)."""
    muls, adds = _cms_family()
    two32 = "4294967296::HUGEINT"
    two64 = f"{1 << 64}::HUGEINT"
    parts = []
    for i, (mul, add) in enumerate(zip(muls, adds)):
        a_lo, a_hi = mul % (1 << 32), mul >> 32
        prod = (
            f"((c_lo * {a_lo} + ((c_lo * {a_hi} + c_hi * {a_lo}) % {two32}) "
            f"* {two32} + {add}) % {two64})"
        )
        parts.append(
            f"SELECT {i} AS d_row, {prod} // {1 << 32} % {CMS_W} AS cell "
            "FROM h"
        )
    return (
        f"WITH tok AS (SELECT unnest({sql_token_list}) AS token "
        "FROM documents), "
        "h AS (SELECT md5_number_upper('0:' || token) % "
        f"{two32} AS c_lo, md5_number_upper('0:' || token) // {two32} AS c_hi "
        "FROM tok) "
        "SELECT CAST(d_row AS BIGINT) AS d_row, CAST(cell AS BIGINT) AS cell, "
        "CAST(count(*) AS BIGINT) AS cnt FROM ("
        + " UNION ALL ".join(parts)
        + ") GROUP BY d_row, cell"
    )


# ---------------------------------------------------------------------------
# Mergeable quantile sketch (fixed-width histogram)
# ---------------------------------------------------------------------------

QUANT_BIN_W = 10_000            # cents per bin ($100) — data-independent
QUANT_PS = (50, 90, 99)


def quantile_histogram(lineitem_ds, bin_w: int = QUANT_BIN_W,
                       ps: tuple[int, ...] = QUANT_PS):
    """lineitem -> (p, est_cents): approximate percentiles of
    l_extendedprice from a MERGEABLE fixed-width histogram — the
    bounded-state alternative to the exact order-statistics path
    (rel_grouped_quantiles) when a global sort is off the table at corpus
    scale.

    Values quantize to integer cents (floor(v*100 + 0.5), the repo's money
    convention) and bin by ``cents // bin_w`` — bins are keyed by value
    range, NOT by data-dependent boundaries, so per-batch partial
    histograms merge by plain addition in any order.  Exchange volume is
    O(batches x occupied_bins) regardless of row count; the final
    cumulative scan runs over one partition of at most value_range/bin_w
    rows.  Estimate = bin midpoint (error <= bin_w/2 cents by
    construction), target rank = ceil(N * p / 100) — all integer, so the
    DuckDB oracle reproduces the sketch bit-exactly.
    """
    import pandas as pd

    from .exchange import finish, hash_partitioned_agg

    def partial(batch: pa.Table) -> "pd.DataFrame":
        col = batch["l_extendedprice"].drop_null()  # NaN floors to INT64_MIN
        v = col.to_numpy(zero_copy_only=False)
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        bins, cnt = np.unique(cents // bin_w, return_counts=True)
        return pd.DataFrame({"bin": bins, "cnt": cnt.astype(np.int64)})

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby("bin", sort=False, as_index=False).agg(
            cnt=("cnt", "sum")
        )

    hist = hash_partitioned_agg(
        lineitem_ds.map_batches(partial, batch_format="pyarrow"),
        ["bin"], combine,
    )

    def finalize(df: "pd.DataFrame") -> "pd.DataFrame":
        d = df.sort_values("bin").reset_index(drop=True)
        cum = d["cnt"].to_numpy().cumsum()
        if len(cum) == 0:  # hostile input: empty table has no percentiles
            return pd.DataFrame(
                {"p": pd.Series([], dtype="int64"),
                 "est_cents": pd.Series([], dtype="int64")}
            )
        n = int(cum[-1])
        out_p, out_est = [], []
        for p in ps:
            target = (n * p + 99) // 100  # ceil(N*p/100)
            i = int(np.searchsorted(cum, target, side="left"))
            b = int(d["bin"].iloc[i])
            out_p.append(p)
            out_est.append(b * bin_w + bin_w // 2)
        return pd.DataFrame(
            {"p": np.asarray(out_p, dtype=np.int64),
             "est_cents": np.asarray(out_est, dtype=np.int64)}
        )

    # the histogram is bounded (value_range/bin_w rows): the cumulative
    # scan sees every bin at once on the driver (a per-block scan would be
    # layout-dependent, the ngram_topk rank bug class)
    return finish(hist, finalize,
                  schema=pa.schema([("bin", pa.int64()), ("cnt", pa.int64())]))


def sql_quantile_histogram(bin_w: int = QUANT_BIN_W,
                           ps: tuple[int, ...] = QUANT_PS) -> str:
    """DuckDB oracle: the SAME histogram estimate (not the exact
    percentile) — bin counts, cumulative scan, ceil-rank target, bin
    midpoint."""
    pvals = ", ".join(f"({p})" for p in ps)
    return f"""
WITH cents AS (
  SELECT CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT) AS c
  FROM lineitem WHERE l_extendedprice IS NOT NULL
), b AS (
  SELECT c // {bin_w} AS bin, count(*) AS cnt FROM cents GROUP BY 1
), cum AS (
  SELECT bin, sum(cnt) OVER (ORDER BY bin) AS cum FROM b
), n AS (SELECT count(*) AS n FROM cents)
SELECT CAST(p AS BIGINT) AS p,
       CAST(min(cum.bin) * {bin_w} + {bin_w // 2} AS BIGINT) AS est_cents
FROM (VALUES {pvals}) v(p) CROSS JOIN n
JOIN cum ON cum.cum >= (n.n * p + 99) // 100
GROUP BY p
"""


def grouped_quantile_histogram(lineitem_ds, bin_w: int = QUANT_BIN_W,
                               ps: tuple[int, ...] = QUANT_PS):
    """lineitem -> (l_returnflag, p, est_cents): the per-GROUP form of the
    mergeable histogram sketch — partials key by (group, bin), so the
    exchange stays O(batches x groups x occupied_bins) and the final
    per-group cumulative scans run inside ONE partition-only exchange on
    the group key (each group's full histogram co-locates; no global
    sort, no per-group Python)."""
    import pandas as pd

    from .exchange import hash_partitioned_agg, hash_partitioned_apply

    def partial(batch: pa.Table) -> "pd.DataFrame":
        import pyarrow.compute as pc

        ok = pc.and_(pc.is_valid(batch["l_returnflag"]),
                     pc.is_valid(batch["l_extendedprice"]))
        batch = batch.filter(ok)  # null flag/price rows carry no percentile
        g = batch["l_returnflag"].to_pandas()
        v = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        d = pd.DataFrame({"l_returnflag": g, "bin": cents // bin_w})
        out = d.groupby(["l_returnflag", "bin"], sort=False).size()
        out = out.rename("cnt").reset_index()
        out["cnt"] = out["cnt"].astype("int64")
        return out

    def combine(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby(["l_returnflag", "bin"], sort=False,
                          as_index=False).agg(cnt=("cnt", "sum"))

    hist = hash_partitioned_agg(
        lineitem_ds.map_batches(partial, batch_format="pyarrow"),
        ["l_returnflag", "bin"], combine,
    )

    def finalize(df: "pd.DataFrame") -> "pd.DataFrame":
        rows_g, rows_p, rows_e = [], [], []
        d = df.sort_values(["l_returnflag", "bin"])
        for flag, grp in d.groupby("l_returnflag", sort=False):
            cum = grp["cnt"].to_numpy().cumsum()
            n = int(cum[-1])
            bins = grp["bin"].to_numpy()
            for p in ps:
                target = (n * p + 99) // 100
                i = int(np.searchsorted(cum, target, side="left"))
                rows_g.append(flag)
                rows_p.append(p)
                rows_e.append(int(bins[i]) * bin_w + bin_w // 2)
        return pd.DataFrame(
            {"l_returnflag": pd.Series(rows_g, dtype="object"),
             "p": np.asarray(rows_p, dtype=np.int64),
             "est_cents": np.asarray(rows_e, dtype=np.int64)}
        )

    # group-keyed partition-only exchange: a group's histogram co-locates,
    # the per-partition kernel scans ALL its groups in one call (the
    # len(ps)-per-group Python loop is over GROUPS, whose cardinality is
    # tiny — returnflag has 3 values)
    return hash_partitioned_apply(hist, ["l_returnflag"], finalize)


def sql_grouped_quantile_histogram(bin_w: int = QUANT_BIN_W,
                                   ps: tuple[int, ...] = QUANT_PS) -> str:
    pvals = ", ".join(f"({p})" for p in ps)
    return f"""
WITH cents AS (
  SELECT l_returnflag,
         CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT) AS c
  FROM lineitem
  WHERE l_extendedprice IS NOT NULL AND l_returnflag IS NOT NULL
), b AS (
  SELECT l_returnflag, c // {bin_w} AS bin, count(*) AS cnt
  FROM cents GROUP BY 1, 2
), cum AS (
  SELECT l_returnflag, bin,
         sum(cnt) OVER (PARTITION BY l_returnflag ORDER BY bin) AS cum
  FROM b
), n AS (
  SELECT l_returnflag, count(*) AS n FROM cents GROUP BY 1
)
SELECT n.l_returnflag, CAST(p AS BIGINT) AS p,
       CAST(min(cum.bin) * {bin_w} + {bin_w // 2} AS BIGINT) AS est_cents
FROM (VALUES {pvals}) v(p) CROSS JOIN n
JOIN cum ON cum.l_returnflag = n.l_returnflag
        AND cum.cum >= (n.n * p + 99) // 100
GROUP BY n.l_returnflag, p
"""


# ---------------------------------------------------------------------------
# Theta (bottom-k / KMV) sketch — mergeable distinct-count + INTERSECTION
# ---------------------------------------------------------------------------

THETA_K = 64
_M62 = 1 << 62


def theta_sketches(events_ds, k: int = THETA_K):
    """events -> (event_type, rnk, h): the bottom-k (KMV / theta) sketch of
    DISTINCT user_ids per event type — the k smallest 62-bit hashes in rank
    order.  Unlike HLL (union-only), theta sketches support set
    INTERSECTION estimation (cross-type audience overlap, cross-source
    contamination overlap) via a deterministic driver post-process
    (:func:`theta_intersection_estimate`); the integer hash table IS the
    result, so it is value-hash checkable and mergeable.

    Per batch: distinct (event_type, user_id) via one Arrow group_by, the
    shared ``stable_hash64 == md5_number_upper`` identity, then a per-type
    bottom-k prune — at most groups x k rows leave any task, and bottom-k
    of a union of deduped bottom-ks equals the global bottom-k (the
    min-merge is associative/commutative), so ONE type-keyed partition
    exchange finishes with an in-kernel global dedup + rank."""
    import pandas as pd

    from ..functions.text import stable_hash64
    from .exchange import hash_partitioned_apply

    def partial(batch: pa.Table) -> "pd.DataFrame":
        import pyarrow.compute as pc

        ok = pc.and_(pc.is_valid(batch["event_type"]),
                     pc.is_valid(batch["user_id"]))
        dd = (
            batch.filter(ok).select(["event_type", "user_id"])
            .group_by(["event_type", "user_id"]).aggregate([])
        )
        uids = dd["user_id"].to_pylist()
        hs = np.fromiter(
            (stable_hash64(str(u)) % _M62 for u in uids), dtype=np.int64,
            count=len(uids),
        )
        df = pd.DataFrame(
            {"event_type": dd["event_type"].to_pylist(), "h": hs})
        df = df.drop_duplicates()
        return df.sort_values(["event_type", "h"], kind="stable") \
            .groupby("event_type", sort=False).head(k) \
            .reset_index(drop=True)

    def kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.drop_duplicates().sort_values(
            ["event_type", "h"], kind="stable") \
            .groupby("event_type", sort=False).head(k) \
            .reset_index(drop=True)
        g["rnk"] = g.groupby("event_type", sort=False).cumcount() + 1
        g["rnk"] = g["rnk"].astype("int64")
        return g[["event_type", "rnk", "h"]]

    return hash_partitioned_apply(
        events_ds.map_batches(partial, batch_format="pyarrow"),
        ["event_type"], kernel)


def theta_intersection_estimate(sketch_df, type_a: str, type_b: str,
                                k: int = THETA_K) -> float:
    """Deterministic driver post-process over the theta table: KMV
    distinct-count and intersection estimates for two types.  theta =
    k-th smallest hash / 2^62 (1.0 when the set has < k members and the
    sketch is exact); |A ∩ B| ~= |{h in both sketches, h < min(theta)}| /
    min(theta_frac)."""
    import pandas as pd  # noqa: F401  (type hint clarity)

    M = float(1 << 62)

    def side(t):
        s = sketch_df[sketch_df["event_type"] == t].sort_values("rnk")
        hs = s["h"].to_numpy()
        theta = hs[-1] / M if len(hs) >= k else 1.0
        exact = len(hs) < k
        return set(int(x) for x in hs), theta, exact

    ha, ta, ea = side(type_a)
    hb, tb, eb = side(type_b)
    theta = min(ta, tb)
    cut = theta * M
    common = [h for h in ha & hb if h <= cut or (ea and eb)]
    if ea and eb:
        return float(len(ha & hb))
    return len(common) / theta if theta > 0 else 0.0


def sql_theta_sketches(k: int = THETA_K) -> str:
    """DuckDB oracle: identical hash + bottom-k rank per event type."""
    m62 = f"{1 << 62}::HUGEINT"
    return f"""
WITH du AS (
  SELECT DISTINCT event_type, user_id FROM events
  WHERE event_type IS NOT NULL AND user_id IS NOT NULL
), h AS (
  SELECT DISTINCT event_type,
    CAST(md5_number_upper('0:' || CAST(user_id AS VARCHAR))
         % {m62} AS BIGINT) AS h
  FROM du
), r AS (
  SELECT event_type, h,
    row_number() OVER (PARTITION BY event_type ORDER BY h) AS rnk
  FROM h
)
SELECT event_type, CAST(rnk AS BIGINT) AS rnk, h
FROM r WHERE rnk <= {k}
"""


def theta_source_sketches(docs_ds, k: int = THETA_K):
    """documents -> (source, rnk, h): the bottom-k theta sketch of DISTINCT
    content fingerprints per crawl source — feed any source pair to
    :func:`theta_intersection_estimate` (with ``event_type`` read as
    ``source``) to estimate CROSS-SOURCE CONTENT OVERLAP without an
    all-pairs join: the crawl-planning / decontamination artifact ('how
    much of source B is already in source A') at any corpus size.

    Per batch: the exact-dedup content fingerprint (``md5_fingerprint`` ==
    the oracle's md5-of-normalized-text identity) hashes once more through
    the shared ``stable_hash64 == md5_number_upper`` identity, then the
    same dedup + per-key bottom-k prune as :func:`theta_sketches` —
    <= sources x k rows leave any task, ONE source-keyed exchange."""
    import pandas as pd

    from ..functions.text import md5_fingerprint, stable_hash64
    from .exchange import hash_partitioned_apply

    def partial(batch: pa.Table) -> "pd.DataFrame":
        rows: dict[tuple, None] = {}
        for src, text in zip(batch["source"].to_pylist(),
                             batch["text"].to_pylist()):
            if src is None:
                continue
            fp = md5_fingerprint(text or "")
            rows[(str(src), stable_hash64(fp) % _M62)] = None
        df = pd.DataFrame(list(rows), columns=["source", "h"])
        df["h"] = df["h"].astype("int64")
        return df.sort_values(["source", "h"], kind="stable") \
            .groupby("source", sort=False).head(k).reset_index(drop=True)

    def kernel(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.drop_duplicates().sort_values(
            ["source", "h"], kind="stable") \
            .groupby("source", sort=False).head(k).reset_index(drop=True)
        g["rnk"] = (g.groupby("source", sort=False).cumcount() + 1) \
            .astype("int64")
        return g[["source", "rnk", "h"]]

    return hash_partitioned_apply(
        docs_ds.map_batches(partial, batch_format="pyarrow"),
        ["source"], kernel)
