"""Round-3 corpus operators: deterministic hash sampling, global top-k
n-grams, exact per-group median — property-tested against serial brute
force (the driver's SQL oracle is the other gate; scripts/check_queries.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from kgx.stages.corpus import ngram_topk, sample_bucket_np, sample_documents


def _collect(ds):
    import pandas as pd

    return pd.concat(
        [b.to_pandas() for b in ds.iter_batches(batch_size=None, batch_format="pyarrow")],
        ignore_index=True,
    ) if ds.count() else pd.DataFrame()


def test_sample_bucket_matches_serial_hugeint():
    """numpy uint64 wraparound == the HUGEINT mod-2^64 arithmetic the SQL
    oracle embeds (guards the oracle assumption directly)."""
    from kgx.stages.corpus import SAMPLE_ADD, SAMPLE_MUL

    ids = np.array([0, 1, 7, 499, 123456789, 2**62 + 11], dtype=np.int64)
    got = sample_bucket_np(ids, 1000)
    for i, v in zip(ids.tolist(), got.tolist()):
        h = (i * SAMPLE_MUL + SAMPLE_ADD) % (1 << 64)
        assert v == (h >> 32) % 1000


def test_sample_stability_and_rate(ray_session):
    """Growing the corpus never flips a previously kept doc (hash is a pure
    function of doc_id), and the kept fraction is ~pct."""
    import ray.data as rd

    small = rd.from_arrow(pa.table({"doc_id": list(range(2000)),
                                    "text": [""] * 2000}))
    big = rd.from_arrow(pa.table({"doc_id": list(range(6000)),
                                  "text": [""] * 6000}))
    kept_small = set(_collect(sample_documents(small, pct=10))["doc_id"])
    kept_big = set(_collect(sample_documents(big, pct=10))["doc_id"])
    assert kept_small == {d for d in kept_big if d < 2000}
    assert 0.06 < len(kept_big) / 6000 < 0.14


def test_ngram_topk_matches_brute_force(ray_session):
    import collections

    import ray.data as rd

    from kgx.functions.text import tokenize

    rng = np.random.RandomState(7)
    vocab = ["ant", "bee", "cat", "dog", "elk"]
    texts = [" ".join(rng.choice(vocab, size=rng.randint(0, 30)))
             for _ in range(300)]
    ds = rd.from_arrow(pa.table({"doc_id": list(range(300)), "text": texts}))
    got = _collect(ngram_topk(ds, n=2, k=10))

    counter: collections.Counter = collections.Counter()
    for t in texts:
        toks = tokenize(t)
        counter.update(" ".join(toks[i : i + 2]) for i in range(len(toks) - 1))
    want = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert list(zip(got["gram"], got["n_occurrences"])) == want
    assert got["rank"].tolist() == list(range(1, len(want) + 1))


def test_ngram_topk_rank_survives_multiblock_limit(ray_session):
    """Regression for the r3 driver failure: at driver parallelism the
    sort().limit(k) output spans >1 block and a per-block rank projection
    restarts at 1 per block.  Force the layout with a tiny
    target_max_block_size and assert ranks are globally 1..k."""
    import ray.data as rd
    from ray.data import DataContext

    rng = np.random.RandomState(3)
    vocab = [f"w{i}" for i in range(40)]
    texts = [" ".join(rng.choice(vocab, size=60)) for _ in range(400)]
    ds = rd.from_arrow(pa.table({"doc_id": list(range(400)), "text": texts}))

    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 1024  # ~a handful of rows per block
    try:
        got = _collect(ngram_topk(ds, n=2, k=20))
    finally:
        ctx.target_max_block_size = old
    assert got["rank"].tolist() == list(range(1, 21))
    occ = got.sort_values("rank")["n_occurrences"].tolist()
    assert occ == sorted(occ, reverse=True)


def test_ngram_topk_no_cross_doc_or_sentinel_grams(ray_session):
    """Regression for the sentinel-mask bug: numpy converts a "\\x00"
    comparison scalar to unicode and STRIPS trailing NULs, so a
    `toks == sentinel` mask is silently all-False and boundary grams
    (word, SENT) / (SENT, word) get counted.  Make those junk grams the
    dominant count (many single-token docs) so they'd win top-k if
    present, and assert the real gram is the only output."""
    import ray.data as rd

    texts = ["solo"] * 200 + ["alpha beta"] * 3
    ds = rd.from_arrow(
        pa.table({"doc_id": list(range(len(texts))), "text": texts})
    )
    got = _collect(ngram_topk(ds, n=2, k=5))
    assert got["gram"].tolist() == ["alpha beta"]
    assert got["n_occurrences"].tolist() == [3]
    assert not any("\x00" in g for g in got["gram"])


def test_bigram_lm_score_single_token_docs_excluded(ray_session):
    """Same sentinel-mask class for bigram_lm_score: single-token docs have
    no bigrams and must produce NO output row (a boundary bigram would
    both emit a row for the doc and pollute the w1 prefix counts)."""
    import ray.data as rd

    from kgx.stages.corpus import LM_SCALE, bigram_lm_score

    texts = ["solo"] * 50 + ["solo run"] * 2
    ds = rd.from_arrow(
        pa.table({"doc_id": list(range(len(texts))), "text": texts})
    )
    got = _collect(bigram_lm_score(ds)).sort_values("doc_id")
    # only the two-token docs emit rows; "solo run" is the ONLY bigram with
    # prefix "solo" (count 2 of 2), so the score is exactly LM_SCALE
    assert got["doc_id"].tolist() == [50, 51]
    assert got["lm_score"].tolist() == [LM_SCALE, LM_SCALE]


def test_grouped_median_matches_brute_force(ray_session, tmp_path):
    """Random orders/customer tables -> per-nation lower median equals the
    serial computation."""
    import pyarrow.parquet as pq

    from kgx.pipelines.relational import median_orders_per_nation

    rng = np.random.RandomState(11)
    n_cust, n_orders = 120, 2000
    cust = pa.table(
        {
            "c_custkey": list(range(1, n_cust + 1)),
            "c_nationkey": rng.randint(0, 7, size=n_cust).tolist(),
        }
    )
    orders = pa.table(
        {
            "o_custkey": rng.randint(1, n_cust + 1, size=n_orders).tolist(),
        }
    )
    pq.write_table(cust, tmp_path / "customer.parquet")
    pq.write_table(orders, tmp_path / "orders.parquet")

    got = (
        _collect(median_orders_per_nation(str(tmp_path)))
        .sort_values("c_nationkey")
        .reset_index(drop=True)
    )

    import collections

    cnt = collections.Counter(orders["o_custkey"].to_pylist())
    nation_of = dict(zip(cust["c_custkey"].to_pylist(), cust["c_nationkey"].to_pylist()))
    per_nation: dict[int, list[int]] = collections.defaultdict(list)
    for ck, c in cnt.items():
        per_nation[nation_of[ck]].append(c)
    want = {
        n: sorted(v)[(len(v) - 1) // 2] for n, v in per_nation.items()
    }
    assert dict(zip(got["c_nationkey"], got["median_orders"])) == want


def test_frequency_moment_sums_raise_instead_of_wrapping():
    """The f2 sums in ``frequency_moments`` (fold and final combine) are
    exact up to 2^63 - 1 and raise past it, where an int64 sum would wrap
    to a negative f2."""
    import pandas as pd

    from kgx.stages.corpus import _checked_sums

    big = 2 ** 62
    src = pd.Series(["a", "b", "a", "b", "c"])
    ok = _checked_sums(src, np.array([big, 5, big - 1, 7, 0], np.int64))
    assert ok.to_dict() == {"a": 2 ** 63 - 1, "b": 12, "c": 0}
    assert ok.dtype == np.int64

    wraps = np.array([big, big], np.int64)
    assert wraps.sum() < 0  # what a plain int64 sum would report
    with pytest.raises(OverflowError):
        _checked_sums(pd.Series(["a", "a"]), wraps)
    many = np.full(5, 2 ** 61, np.int64)  # the sum passes 2^63 mid-way
    with pytest.raises(OverflowError):
        _checked_sums(pd.Series(["s"] * 5), many)
