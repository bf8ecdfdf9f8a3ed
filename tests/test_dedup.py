"""Dedup-suite correctness: each distributed operator vs a serial
brute-force reference built from the same shared primitives (the oracle
pattern of SURVEY.md §5 — distribution is the only thing under test)."""

from __future__ import annotations

import itertools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from kgx.functions.text import (
    hamming64,
    md5_fingerprint,
    minhash_from_codes,
    shingle_codes,
    simhash64,
)
from kgx.stages import dedup as D


def docs_table() -> pa.Table:
    """Synthetic corpus with planted exact + near dups."""
    base = (
        "the quick brown fox jumps over the lazy dog while the cat watches "
        "from the warm windowsill and the birds sing in the garden trees"
    )
    rows = {
        0: base,
        1: base,                                   # exact dup of 0
        2: base.replace("lazy", "sleepy"),         # near dup of 0
        3: "completely different content about databases and query engines",
        4: "completely different content about databases and query planners",
        5: "",                                     # empty
        6: "short text",
        7: base + " with an extra trailing clause about the evening light",
    }
    return pa.table(
        {"doc_id": list(rows), "text": list(rows.values())},
        schema=pa.schema([("doc_id", pa.int64()), ("text", pa.string())]),
    )


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data as rd

    return rd.from_arrow(docs_table())


def pairs_set(ds) -> set[tuple[int, int]]:
    t = ds.to_pandas()
    return set(zip(t["id_a"], t["id_b"]))


def ngram_brute(tab: pa.Table, n: int, t: float) -> set[tuple[int, int]]:
    """All pairs with word-n-gram Jaccard >= t, by comparing every pair."""
    sets = {
        d: D.ngram_set(x, n)
        for d, x in zip(tab["doc_id"].to_pylist(), tab["text"].to_pylist())
    }
    out = set()
    for a, b in itertools.combinations(sorted(sets), 2):
        sa, sb = sets[a], sets[b]
        if not sa or not sb:
            continue
        inter = len(sa & sb)
        if inter and inter / (len(sa) + len(sb) - inter) >= t:
            out.add((a, b))
    return out


def minhash_brute(tab: pa.Table, num_perm: int, bands: int, t: float,
                  k: int) -> set[tuple[int, int]]:
    """All pairs sharing a band whose signature estimate is >= t."""
    sigs = {}
    for d, x in zip(tab["doc_id"].to_pylist(), tab["text"].to_pylist()):
        codes = shingle_codes(x, k=k)
        if len(codes):
            sigs[d] = minhash_from_codes(codes, num_perm=num_perm)
    rows_per_band = num_perm // bands
    out = set()
    for a, b in itertools.combinations(sorted(sigs), 2):
        sa, sb = sigs[a], sigs[b]
        shares_band = any(
            np.array_equal(
                sa[i * rows_per_band : (i + 1) * rows_per_band],
                sb[i * rows_per_band : (i + 1) * rows_per_band],
            )
            for i in range(bands)
        )
        est = float((sa == sb).mean())
        if shares_band and est >= t:
            out.add((a, b))
    return out


class TestExactDedup:
    def test_representative_is_min_doc_id(self, docs_ds):
        out = D.exact_dedup(docs_ds).to_pandas()
        by_fp = {r.fp: r for r in out.itertuples()}
        fp0 = md5_fingerprint(docs_table()["text"][0].as_py())
        assert by_fp[fp0].doc_id == 0
        assert by_fp[fp0].group_size == 2
        assert len(out) == 7  # 8 docs, one exact-dup pair

    def test_total_group_size_equals_corpus(self, docs_ds):
        out = D.exact_dedup(docs_ds).to_pandas()
        assert out["group_size"].sum() == 8


class TestNgramJaccard:
    @pytest.mark.parametrize("n,t", [(3, 0.8), (3, 0.5), (1, 0.9), (2, 0.6)])
    def test_matches_brute_force(self, docs_ds, n, t):
        got = pairs_set(D.ngram_jaccard_pairs(docs_ds, n=n, threshold=t))
        assert got == ngram_brute(docs_table(), n, t)

    def test_prefix_bound_math(self):
        # Jaccard >= 0.8 on |S|=10 requires sharing one of the first 3 under
        # any total order: 10 - ceil(0.8*10) + 1 = 3.
        assert D._prefix_len(10, 0.8) == 3
        assert D._prefix_len(1, 0.8) == 1


def minhash_kernel_reference(t: pa.Table, threshold: float, cap: int,
                             window: int) -> set[tuple[int, int]]:
    """The per-pair bucket loop the vectorized ``_verify_minhash_kernel``
    replaced: per (band, band_hash) bucket, one row per doc_id (the last),
    sorted by (signature, doc_id); all pairs of an exact bucket, the window
    pairs of an over-cap one; estimate >= threshold."""
    t, buckets = D._multi_buckets(t, ["band", "band_hash"])
    out = set()
    for idx in buckets:
        g = t.take(pa.array(idx))
        docs = sorted(
            {d: tuple(s) for d, s in
             zip(g["doc_id"].to_pylist(), g["sig"].to_pylist())}.items(),
            key=lambda kv: (kv[1], kv[0]),
        )
        for i, j in D._bounded_index_pairs(len(docs), cap, window):
            sa, sb = docs[i][1], docs[j][1]
            if sum(x == y for x, y in zip(sa, sb)) / len(sa) >= threshold:
                a, b = docs[i][0], docs[j][0]
                out.add((min(a, b), max(a, b)))
    return out


def band_rows_of(ids, sig: np.ndarray, bands: int) -> pa.Table:
    """``_minhash_band_rows``'s layout over given signatures."""
    ids = np.asarray(ids, dtype=np.int64)
    return pa.table(
        {"band": np.tile(np.arange(bands, dtype=np.int32), len(ids)),
         "band_hash": D._band_hashes(sig, bands, sig.shape[1] // bands).reshape(-1),
         "doc_id": np.repeat(ids, bands),
         "sig": D._list_column(np.repeat(sig, bands, axis=0))},
        schema=D._BAND_ROWS,
    )


def kernel_rows(t: pa.Table) -> list[tuple[int, int]]:
    return list(zip(t["id_a"].to_pylist(), t["id_b"].to_pylist()))


HOSTILE_TEXTS = [None, "", " \t\n ", "abc", "x", "Stra\u00dfe \u0130stanbul caf\u00e9",
                 "\u65e5\u672c\u8a9e\u306e\u30c6\u30ad\u30b9\u30c8",
                 "the quick brown fox", "THE  quick\u00a0brown fox", "a" * 3000]


class TestMinhashBatchBuilders:
    @pytest.mark.parametrize("chunk", [None, 7], ids=["default_chunk", "tiny_chunk"])
    @pytest.mark.parametrize("texts", [HOSTILE_TEXTS, ["one doc only"], []],
                             ids=["hostile", "one_doc", "empty_batch"])
    def test_signatures_equal_per_doc(self, monkeypatch, texts, chunk):
        from kgx.functions import text as T

        if chunk is not None:
            monkeypatch.setattr(T, "_MINHASH_CHUNK", chunk)
        batch = pa.table({"doc_id": pa.array(range(10, 10 + len(texts)), pa.int64()),
                          "text": pa.array(texts, pa.string())})
        want = {}
        for d, x in zip(batch["doc_id"].to_pylist(), texts):
            codes = shingle_codes(x or "", k=5)
            if len(codes):
                sig = minhash_from_codes(codes, num_perm=64) & np.uint64((1 << 62) - 1)
                want[d] = sig.astype(np.int64).tolist()
        pays = D._minhash_sig_rows(batch, 64, 5)
        assert dict(zip(pays["doc_id"].to_pylist(), pays["pay"].to_pylist())) == want
        assert pays["doc_id"].to_pylist() == list(want)
        rows = D._minhash_band_rows(batch, 64, 16, 5)
        assert rows.num_rows == 16 * len(want)
        assert rows["doc_id"].to_pylist() == [d for d in want for _ in range(16)]
        assert rows["sig"].to_pylist() == [want[d] for d in want for _ in range(16)]
        slim = D._band_rows_slim(pays, 16, 4)
        assert slim["band_hash"].equals(rows["band_hash"])
        assert slim["band"].equals(rows["band"])

    def test_band_hashes_bucket_like_the_chunks(self):
        """Two docs share a band hash exactly when their band's four
        signature values are equal."""
        rng = np.random.default_rng(5)
        sig = rng.integers(0, 3, size=(300, 64)).astype(np.int64)
        h = D._band_hashes(sig, 16, 4)
        chunks = sig.reshape(300, 16, 4)
        for b in range(16):
            same_hash = h[:, b][:, None] == h[:, b][None, :]
            same_chunk = (chunks[:, b][:, None] == chunks[:, b][None, :]).all(axis=2)
            assert np.array_equal(same_hash, same_chunk)
        assert h.min() >= 0 and h.max() < (1 << 62)


class TestMinhashKernel:
    def test_no_overcap_bucket_emits_each_pair_once(self):
        tab = dup_cluster_table()
        rows = D._minhash_band_rows(tab, 64, 16, 5)
        got = kernel_rows(D._verify_minhash_kernel(rows, 0.7))
        assert len(got) == len(set(got))
        assert set(got) == minhash_kernel_reference(rows, 0.7, D.VERIFY_GROUP_CAP,
                                                    D._CAP_WINDOW)
        assert len(got) > 120  # the 12 five-doc cliques at least

    def test_score_at_min_eq(self):
        """threshold 0.7 over 64 values: 45 equal values (0.703) match,
        44 (0.6875) do not."""
        assert D._min_eq(64, 0.7) == 45
        base = np.arange(64, dtype=np.int64)
        at, below = base.copy(), base.copy()
        at[45:] += 1000
        below[44:] += 2000
        rows = band_rows_of([1, 2, 3], np.stack([base, at, below]), 16)
        assert set(kernel_rows(D._verify_minhash_kernel(rows, 0.7))) == {(1, 2)}

    @pytest.mark.parametrize("cap,window", [(3, 1), (4, 2), (6, 3), (2048, 64)])
    def test_equals_reference_over_cap(self, cap, window):
        """Small-alphabet signatures: many buckets, some over the cap, and
        pairs whose earlier shared bucket is over the cap and a later one
        exact.  Also with doc_ids repeated across and within buckets."""
        rng = np.random.default_rng(cap)
        sig = rng.integers(0, 2, size=(60, 16)).astype(np.int64)
        sig[30:40] = sig[0]  # identical docs: one bucket per band, over cap
        rows = band_rows_of(range(60), sig, 4)
        want = minhash_kernel_reference(rows, 0.5, cap, window)
        assert set(kernel_rows(D._verify_minhash_kernel(rows, 0.5, cap, window))) == want
        dup = pa.concat_tables([rows, band_rows_of([3, 5, 7], sig[[10, 11, 12]], 4)])
        assert (set(kernel_rows(D._verify_minhash_kernel(dup, 0.5, cap, window)))
                == minhash_kernel_reference(dup, 0.5, cap, window))

    def test_repeated_doc_id(self):
        """Doc 1 twice: its later row replaces the earlier in their shared
        band-0 bucket (estimate 0.5 with doc 2), while the earlier row pairs
        with doc 2 in band 1 (estimate 1.0), so band 1 must still emit."""
        v1 = np.arange(8, dtype=np.int64)
        v2 = np.r_[v1[:4], v1[4:] + 100]
        rows = band_rows_of([1, 2, 1], np.stack([v1, v1, v2]), 2)
        assert minhash_kernel_reference(rows, 0.75, 2048, 64) == {(1, 2)}
        assert kernel_rows(D._verify_minhash_kernel(rows, 0.75)) == [(1, 2)]


class TestMinhashLSH:
    def test_matches_serial_reference(self, docs_ds):
        got = pairs_set(
            D.minhash_lsh_pairs(docs_ds, num_perm=64, bands=16, threshold=0.5)
        )
        assert got == minhash_brute(docs_table(), 64, 16, 0.5, 5)

    def test_both_routes(self, ray_session, each_route, monkeypatch):
        """Both exchange routes equal the brute-force reference, and with a
        small bucket cap the per-pair reference kernel over all band rows."""
        import ray.data as rd

        small = docs_table()
        small = small.set_column(0, "doc_id", pc.add(small["doc_id"], 1000))
        tab = pa.concat_tables([dup_cluster_table(), small.cast(dup_cluster_table().schema)])
        ds = rd.from_arrow(tab).repartition(3)
        want = minhash_brute(tab, 64, 16, 0.7, 5)
        for got in each_route(lambda: pairs_set(D.minhash_lsh_pairs(ds))):
            assert got == want
        monkeypatch.setattr(D, "VERIFY_GROUP_CAP", 3)
        monkeypatch.setattr(D, "_CAP_WINDOW", 1)
        want = minhash_kernel_reference(D._minhash_band_rows(tab, 64, 16, 5), 0.7, 3, 1)
        assert want != minhash_brute(tab, 64, 16, 0.7, 5)
        for got in each_route(lambda: pairs_set(D.minhash_lsh_pairs(ds))):
            assert got == want

    def test_planted_near_dups_found(self, docs_ds):
        got = pairs_set(
            D.minhash_lsh_pairs(docs_ds, num_perm=64, bands=16, threshold=0.5)
        )
        assert (0, 1) in got  # exact dup always survives


def dup_cluster_table() -> pa.Table:
    """60 docs in 12 clusters of 5 identical members + 40 filler docs."""
    rows = {"doc_id": [], "text": []}
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]
    for c in range(12):
        base = " ".join(words[(c + i) % len(words)] for i in range(30))
        for m in range(5):
            rows["doc_id"].append(c * 5 + m)
            rows["text"].append(base)  # jaccard 1.0, minhash est 1.0
    for f in range(40):
        rows["doc_id"].append(100 + f)
        rows["text"].append(
            " ".join(words[(f * (i + 3)) % len(words)] for i in range(25))
            + f" unique{f} marker{f * 7}"
        )
    return pa.table(rows)


class TestDupClusters:
    def test_pair_joins_match_reference(self, ray_session):
        import ray.data as rd

        tab = dup_cluster_table()
        ds = rd.from_arrow(tab)
        minhash = pairs_set(D.minhash_lsh_pairs(ds))
        ngram = pairs_set(D.ngram_jaccard_pairs(ds, n=3, threshold=0.8))
        assert minhash == minhash_brute(tab, 64, 16, 0.7, 5)
        assert ngram == ngram_brute(tab, 3, 0.8)
        # every 5-clique must be fully connected (10 pairs x 12 clusters)
        clique = {(c * 5 + i, c * 5 + j) for c in range(12)
                  for i in range(5) for j in range(i + 1, 5)}
        assert clique <= minhash and clique <= ngram


class TestSimhash:
    def test_matches_brute_force(self, docs_ds):
        got = pairs_set(D.simhash_pairs(docs_ds, max_hamming=3))
        tab = docs_table()
        sims = {
            d: simhash64(x)
            for d, x in zip(tab["doc_id"].to_pylist(), tab["text"].to_pylist())
            if x.strip()
        }
        want = {
            (a, b)
            for a, b in itertools.combinations(sorted(sims), 2)
            if hamming64(sims[a], sims[b]) <= 3
        }
        assert got == want
        assert (0, 1) in got

    def test_pigeonhole_guard(self, docs_ds):
        with pytest.raises(ValueError):
            D.simhash_pairs(docs_ds, max_hamming=5, bands=4)


class TestEmbeddingDup:
    def test_matches_brute_force(self, ray_session):
        import ray
        import ray.data as rd

        rng = [
            [((i * 7 + j * 13) % 17 - 8) / 8.0 for j in range(8)] for i in range(30)
        ]
        rng[5] = rng[3]  # planted duplicate vector
        tab = pa.table(
            {"vec_id": list(range(30)), "embedding": rng},
            schema=pa.schema(
                [("vec_id", pa.int64()), ("embedding", pa.list_(pa.float32()))]
            ),
        )
        ids, mat = D.normalized_matrix(tab)
        want = {
            (int(ids[i]), int(ids[j]))
            for i, j in itertools.combinations(range(len(ids)), 2)
            if float(mat[i] @ mat[j]) >= 0.95
        }
        ref = ray.put((ids, mat))
        got = pairs_set(
            D.embedding_dup_pairs(rd.from_arrow(tab), ref, threshold=0.95)
        )
        assert got == want
        assert (3, 5) in got


class TestEmbeddingDedupGate:
    """r5: the cost-gated default (brute below EMB_BRUTE_LIMIT, LSH-bucketed
    banded path above) — both-paths agreement on planted near-dups, recall
    vs brute at the near-dup threshold, and the hot-bucket window path."""

    @staticmethod
    def _corpus(n=120, dim=16, n_dups=8):
        """Well-separated pseudo-random vectors + planted exact/near dups."""
        rng = np.random.default_rng(11)
        mat = rng.normal(size=(n, dim))
        planted = set()
        for i in range(n_dups):
            a, b = 2 * i, 2 * i + 1
            mat[b] = mat[a] + rng.normal(scale=1e-3, size=dim)  # near-identical
            planted.add((a, b))
        tab = pa.table(
            {"vec_id": list(range(n)),
             "embedding": [[float(x) for x in row] for row in mat]},
            schema=pa.schema(
                [("vec_id", pa.int64()), ("embedding", pa.list_(pa.float32()))]
            ),
        )
        return tab, planted

    def _brute(self, tab, threshold):
        ids, mat = D.normalized_matrix(tab)
        return {
            (int(ids[i]), int(ids[j]))
            for i, j in itertools.combinations(range(len(ids)), 2)
            if float(mat[i] @ mat[j]) >= threshold
        }

    def test_gate_takes_brute_below_limit(self, ray_session):
        import ray.data as rd

        tab, planted = self._corpus()
        got = pairs_set(
            D.embedding_dup_pairs_gated(rd.from_arrow(tab), threshold=0.95)
        )
        assert got == self._brute(tab, 0.95)
        assert planted <= got

    def test_forced_lsh_path_agrees_on_planted_dups(self, ray_session,
                                                    monkeypatch):
        import ray.data as rd

        tab, planted = self._corpus()
        want = self._brute(tab, 0.95)
        monkeypatch.setattr(D, "EMB_BRUTE_LIMIT", 0)
        got = pairs_set(
            D.embedding_dup_pairs_gated(rd.from_arrow(tab), threshold=0.95)
        )
        # exact in-bucket verify: no false positives, ever
        assert got <= want
        # deterministic planes + near-identical planted vectors: every
        # planted pair lands in a shared bucket
        assert planted <= got
        # recall vs brute at the near-dup threshold
        assert len(got) >= 0.9 * len(want)

    def test_lsh_hot_bucket_window_path_keeps_identical_pairs(self, ray_session):
        import ray.data as rd

        # one degenerate bucket: > VERIFY_GROUP_CAP copies of the SAME vector
        # (every table's bucket is identical) — the sorted-window path must
        # still chain all of them (connectivity preservation)
        n = D.VERIFY_GROUP_CAP + 10
        tab = pa.table(
            {"vec_id": list(range(n)), "embedding": [[1.0, 0.5, -0.25]] * n},
            schema=pa.schema(
                [("vec_id", pa.int64()), ("embedding", pa.list_(pa.float32()))]
            ),
        )
        got = pairs_set(D.embedding_dup_pairs_lsh(
            rd.from_arrow(tab), threshold=0.99
        ))
        # windowed, not all-pairs: adjacent chain must be present
        chain = {(i, i + 1) for i in range(n - 1)}
        assert chain <= got
        assert len(got) < n * (n - 1) // 2  # the cap actually bounded work


class TestEditPrefixPayload:
    def test_accented_prefixes_count_characters(self):
        """The padded kernel over ``_prefix_payload_rows`` payloads equals a
        plain Python char Levenshtein on the first ``prefix_len`` chars of
        the normalized text, also where a char is several UTF-8 bytes."""
        from kgx.functions.text import normalize_ws

        def lev(s: str, t: str) -> int:
            d = list(range(len(t) + 1))
            for i in range(1, len(s) + 1):
                prev, d[0] = d[0], i
                for j in range(1, len(t) + 1):
                    prev, d[j] = d[j], min(d[j] + 1, d[j - 1] + 1,
                                           prev + (s[i - 1] != t[j - 1]))
            return d[len(t)]

        L = 12
        texts = ["Café crème brûlée", "Cafe creme brulee", "Ça  va, Élodie?",
                 "ça va, elodie?", "日本語のテキスト", "日本語テキスト",
                 "naïve façade déjà", "plain ascii text"]
        tab = pa.table({"doc_id": list(range(len(texts))), "text": texts})
        pay = np.asarray(D._prefix_payload_rows(tab, L)["pay"].to_pylist())
        pre = [normalize_ws(t.lower())[:L] for t in texts]
        ia, ib = zip(*itertools.combinations(range(len(texts)), 2))
        A, B = pay[list(ia)], pay[list(ib)]
        got = D._levenshtein_padded(A[:, 1:], A[:, 0], B[:, 1:], B[:, 0])
        assert got.tolist() == [lev(pre[a], pre[b]) for a, b in zip(ia, ib)]
        assert lev(pre[0], pre[1]) == 2  # é and è: one edit each
