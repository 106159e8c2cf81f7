"""A3 — the concurrent batch query engine with per-model memoization.

The ROADMAP's scaling direction: realistic workloads (fleet audits, legal
compliance suites) ask dozens of queries against one ``PolicyModel``.
``query_batch`` fans the suite out over the job runner's worker threads
and shares repeated work through the model's translation/subgraph/
verification caches.

Measures a repeated-term suite (the audit pattern: the same handful of
compliance questions asked across report sections) sequentially with
memoization disabled — the pre-batch behaviour — against ``query_batch``
with 8 workers, and asserts:

* verdicts are identical query-for-query (the engine is a pure
  performance optimization), and
* the memoized batch is at least 2x faster on the repeated-term suite,
  with the cache hit/miss counts that explain why visible in
  ``PipelineMetrics``.
"""

import time

from conftest import print_table, write_bench_json

from repro import PipelineConfig, PolicyPipeline

DISTINCT_QUERIES = [
    "The user provides email to TikTak.",
    "The user provides phone number to TikTak.",
    "TikTak collects email address.",
    "TikTak shares biometric identifiers with data brokers.",
    "TikTak collects the location information.",
]
REPEATS = 8  # 5 distinct x 8 = 40 queries, the repeated-term audit suite
BATCH_WORKERS = 8


def _sequential_baseline(model, questions):
    """Pre-batch behaviour: one-at-a-time queries, no Phase 3 memoization."""
    pipeline = PolicyPipeline(config=PipelineConfig(enable_query_caches=False))
    start = time.perf_counter()
    outcomes = [pipeline.query(model, q) for q in questions]
    return outcomes, time.perf_counter() - start


def test_a3_batch_queries(pipeline, tiktak_model, benchmark):
    suite = DISTINCT_QUERIES * REPEATS
    assert len(suite) >= 20

    sequential, seq_seconds = _sequential_baseline(tiktak_model, suite)

    tiktak_model.caches.clear()
    start = time.perf_counter()
    batch = pipeline.query_batch(tiktak_model, suite, max_workers=BATCH_WORKERS)
    batch_seconds = time.perf_counter() - start

    # A pure performance optimization: verdict-identical, query for query.
    assert batch.verdicts == [o.verdict for o in sequential]
    assert [o.subgraph.num_edges for o in batch.outcomes] == [
        o.subgraph.num_edges for o in sequential
    ]

    metrics = batch.metrics
    speedup = seq_seconds / batch_seconds if batch_seconds > 0 else float("inf")
    print_table(
        f"A3: batch query engine ({len(suite)} queries, "
        f"{len(DISTINCT_QUERIES)} distinct, {BATCH_WORKERS} workers)",
        ["mode", "seconds", "speedup", "verif hits/misses", "transl hits/misses"],
        [
            ["sequential, no caches", f"{seq_seconds:.2f}", "1.0x", "-", "-"],
            [
                f"query_batch({BATCH_WORKERS})",
                f"{batch_seconds:.2f}",
                f"{speedup:.1f}x",
                f"{metrics.verification_hits}/{metrics.verification_misses}",
                f"{metrics.translation_hits}/{metrics.translation_misses}",
            ],
        ],
    )

    # The memoization must carry the repeated-term suite: every repeat of a
    # distinct problem is a cache hit, and the whole batch runs >= 2x
    # faster than the one-at-a-time, memoization-free baseline.
    assert metrics.verification_hits >= len(suite) - 2 * len(DISTINCT_QUERIES)
    assert metrics.verification_misses >= len(DISTINCT_QUERIES)
    assert metrics.cache_hits > 0 and metrics.cache_misses > 0
    assert speedup >= 2.0, (
        f"expected >= 2x speedup on the repeated-term suite, got {speedup:.2f}x "
        f"({seq_seconds:.2f}s sequential vs {batch_seconds:.2f}s batched)"
    )

    write_bench_json(
        "a3_batch_queries",
        {
            "queries": len(suite),
            "distinct_queries": len(DISTINCT_QUERIES),
            "workers": BATCH_WORKERS,
            "sequential_seconds": round(seq_seconds, 6),
            "batch_seconds": round(batch_seconds, 6),
            "speedup": round(speedup, 2),
            "verification_hits": metrics.verification_hits,
            "verification_misses": metrics.verification_misses,
            "translation_hits": metrics.translation_hits,
            "translation_misses": metrics.translation_misses,
        },
    )

    # Steady-state benchmark: the warm-cache batch the audit loop would run.
    benchmark.pedantic(
        pipeline.query_batch,
        args=(tiktak_model, suite),
        kwargs={"max_workers": BATCH_WORKERS},
        rounds=3,
        iterations=1,
    )
