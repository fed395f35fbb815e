"""Serving-path gates: prepared hot path and thread ceiling.

Two gates behind the serving layer:

1. **Prepared hot path**: running a prepared query
   (``session.prepare(...)`` once, then ``prepared.run(node)`` per
   request) must be **at least 3x faster** than the per-call one-shot
   path (``session.query(node).using(...).expand_patterns(...).top(k)``)
   on the same warm session, with identical rankings.  The per-call
   path re-runs Algorithm 1, re-constructs the algorithm, and re-probes
   the plan compiler on every request — exactly the overhead
   preparation hoists out of the loop.

2. **Thread ceiling**: 8 threads hammering one prepared query must
   return results identical to the single-threaded run and must not
   degrade past the single-thread wall time (the locks guard, they
   must not serialize).

Set ``REPRO_BENCH_SCALE=smoke`` (the CI smoke job does) to run on the
reduced DBLP workload; the thresholds are ratios, so they hold at
either size.
"""

import time
from concurrent.futures import ThreadPoolExecutor

from repro.api import SimilaritySession
from repro.datasets import sample_queries_by_degree
from repro.graph.matrices import usable_cores

PREPARED_SPEEDUP_GATE = 3.0
THREADS = 8
CONCURRENT_SLOWDOWN_GATE = 2.0
SIMPLE_PATTERN = "r-a-.p-in.p-in-.r-a"
MAX_EXPAND = 16
NUM_QUERIES = 30
TOP_K = 10


def _serving_setup(bundle):
    database = bundle.database
    session = SimilaritySession(database)
    # SIMPLE_PATTERN relates areas to areas: area queries rank non-empty.
    queries = sample_queries_by_degree(database, "area", NUM_QUERIES, seed=0)
    prepared = session.prepare(
        algorithm="relsim",
        pattern=SIMPLE_PATTERN,
        expand={"max_patterns": MAX_EXPAND},
        top_k=TOP_K,
    )
    return session, queries, prepared


def test_prepared_hot_path_speedup(emit, dblp_large_bundle):
    session, queries, prepared = _serving_setup(dblp_large_bundle)

    def per_call(node):
        return (
            session.query(node)
            .using("relsim", pattern=SIMPLE_PATTERN)
            .expand_patterns(max_patterns=MAX_EXPAND)
            .top(TOP_K)
        )

    per_call(queries[0])  # both sides start from warm matrices
    prepared.run(queries[0])

    start = time.perf_counter()
    baseline = {node: per_call(node) for node in queries}
    per_call_seconds = time.perf_counter() - start

    start = time.perf_counter()
    served = {node: prepared.run(node) for node in queries}
    prepared_seconds = time.perf_counter() - start

    speedup = per_call_seconds / max(prepared_seconds, 1e-9)
    emit(
        "serving_prepared",
        "\n".join(
            [
                "Prepared-query hot path vs per-call session.query "
                "({} queries, Algorithm-1 expansion x{})".format(
                    len(queries), len(prepared.patterns)
                ),
                "  per-call (parse+expand+build each time): "
                "{:.2f} ms/query".format(
                    1000.0 * per_call_seconds / len(queries)
                ),
                "  prepared.run (warm engine cache):        "
                "{:.2f} ms/query".format(
                    1000.0 * prepared_seconds / len(queries)
                ),
                "  speedup: {:.1f}x (gate: >= {:.1f}x)".format(
                    speedup, PREPARED_SPEEDUP_GATE
                ),
            ]
        ),
    )

    for node in queries:
        assert baseline[node].items(), node
        assert served[node].items() == baseline[node].items(), node
    assert speedup >= PREPARED_SPEEDUP_GATE, (
        "prepared path {:.2f}x over per-call; gate is {}x".format(
            speedup, PREPARED_SPEEDUP_GATE
        )
    )


def test_concurrent_serving_scales_with_identical_results(
    emit, dblp_large_bundle
):
    """8 threads on one prepared query: identical results, bounded wall."""
    session, queries, prepared = _serving_setup(dblp_large_bundle)
    rounds = 4
    workload = queries * rounds

    prepared.run(queries[0])
    start = time.perf_counter()
    sequential = {node: prepared.run(node) for node in queries}
    for _ in range(rounds - 1):
        for node in queries:
            prepared.run(node)
    sequential_seconds = time.perf_counter() - start

    with ThreadPoolExecutor(max_workers=THREADS) as dispatch:
        start = time.perf_counter()
        concurrent = list(dispatch.map(prepared.run, workload))
        concurrent_seconds = time.perf_counter() - start

    # Identical results: every concurrent ranking matches the
    # single-threaded reference bit for bit.
    assert all(ranking.items() for ranking in sequential.values())
    for node, ranking in zip(workload, concurrent):
        assert ranking.items() == sequential[node].items(), node

    sequential_qps = len(workload) / max(sequential_seconds, 1e-9)
    concurrent_qps = len(workload) / max(concurrent_seconds, 1e-9)
    cores = usable_cores()
    lines = [
        "Concurrent prepared-query serving "
        "({} requests, {} usable cores)".format(len(workload), cores),
        "  1 thread            : {:.0f} queries/s".format(sequential_qps),
        "  {} threads, one GIL  : {:.0f} queries/s ({:.2f}x)".format(
            THREADS, concurrent_qps,
            concurrent_qps / max(sequential_qps, 1e-9),
        ),
        "  results identical across threads: yes",
    ]
    emit("serving_concurrent", "\n".join(lines))

    # The locks must not serialize the thread path into a slowdown.
    assert concurrent_seconds <= sequential_seconds * CONCURRENT_SLOWDOWN_GATE, (
        "{} threads took {:.3f}s vs {:.3f}s single-threaded".format(
            THREADS, concurrent_seconds, sequential_seconds
        )
    )
