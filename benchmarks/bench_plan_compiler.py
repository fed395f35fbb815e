"""Plan compiler vs per-pattern cold evaluation (the CSE payoff).

The gate behind the plan layer: evaluating an Algorithm-1-expanded
pattern set (>= 16 patterns) through the engine's ``matrices_many``
batch path must be **at least 2x faster** than evaluating each pattern
cold (one fresh memo per pattern — the seed's recursive semantics via
``naive_matrix``), with bitwise-identical commuting matrices and
identical rankings.  Both sides read per-label adjacencies from the
same pre-warmed ``MatrixView``, so the comparison isolates pattern
evaluation: the speedup is cross-pattern CSE (shared prefixes and
skip/nested cores evaluated once) plus cost-ordered chain
multiplication, not adjacency extraction.

Set ``REPRO_BENCH_SCALE=smoke`` (the CI smoke job does) to run on the
reduced DBLP workload; the gate threshold is the same.  Beside the
ratio it prints the planned side's multiply-adds, counted on a fresh
engine as ``tests/test_planner_work.py`` counts them: an exact measure
of planner work that no host noise moves.
"""

import time

import numpy as np

import repro.lang.matrix_semantics as matrix_semantics
from repro.core import RelSim
from repro.datasets import sample_queries_by_degree
from repro.graph.matrices import MatrixView
from repro.lang.matrix_semantics import CommutingMatrixEngine
from repro.lang.semantics import naive_matrix
from repro.patterns import generate_patterns

SPEEDUP_GATE = 2.0
SIMPLE_PATTERN = "r-a-.p-in.p-in-.r-a"
MIN_PATTERNS = 16


def _expanded_patterns(database):
    generated = generate_patterns(
        SIMPLE_PATTERN,
        database.schema.constraints,
        max_patterns=64,
    )
    patterns = list(generated.patterns)
    assert len(patterns) >= MIN_PATTERNS
    return patterns


def _multiply_adds(view, patterns):
    """Multiply-adds of ``matrices_many(patterns)`` on a fresh engine."""
    product = matrix_semantics.csr_product
    total = 0

    def counting(left, right):
        nonlocal total
        total += int(np.diff(right.indptr)[left.indices].sum())
        return product(left, right)

    matrix_semantics.csr_product = counting
    try:
        CommutingMatrixEngine(view).matrices_many(patterns)
    finally:
        matrix_semantics.csr_product = product
    return total


def test_plan_vs_naive_speedup(emit, dblp_large_bundle):
    database = dblp_large_bundle.database
    patterns = _expanded_patterns(database)

    view = MatrixView(database)
    for label in sorted(database.used_labels()):
        view.adjacency(label)  # both sides start from warm adjacencies

    start = time.perf_counter()
    naive = [naive_matrix(view, pattern, cache={}) for pattern in patterns]
    naive_seconds = time.perf_counter() - start

    engine = CommutingMatrixEngine(view)
    start = time.perf_counter()
    planned = engine.matrices_many(patterns)
    plan_seconds = time.perf_counter() - start

    speedup = naive_seconds / max(plan_seconds, 1e-9)
    info = engine.cache_info()
    multiply_adds = _multiply_adds(view, patterns)
    emit(
        "plan_compiler",
        "\n".join(
            [
                "Plan compiler vs per-pattern cold evaluation "
                "({} patterns from Algorithm 1)".format(len(patterns)),
                "  naive (fresh memo per pattern): {:.3f}s".format(
                    naive_seconds
                ),
                "  matrices_many (plan + CSE):     {:.3f}s".format(
                    plan_seconds
                ),
                "  speedup: {:.1f}x (gate: >= {:.1f}x)".format(
                    speedup, SPEEDUP_GATE
                ),
                "  planned multiply-adds: {:,d}".format(multiply_adds),
                "  plan cache: {} matrices, {} nnz, {} hits / {} "
                "misses".format(
                    info["matrices"],
                    info["nnz"],
                    info["hits"],
                    info["misses"],
                ),
            ]
        ),
    )

    # Bitwise-identical commuting matrices: counts are integer-valued,
    # so reassociated products are float64-exact.
    for pattern, cold, warm in zip(patterns, naive, planned):
        assert (cold != warm).nnz == 0, str(pattern)

    # Identical rankings through the plan-backed RelSim.
    queries = sample_queries_by_degree(database, "proc", 10, seed=0)
    relsim = RelSim(database, patterns, engine=engine)
    fast = relsim.rank_many(queries, top_k=10)
    reference = relsim.rank_many_via_scores(queries, top_k=10)
    for query in queries:
        assert fast[query].items() == reference[query].items()

    assert speedup >= SPEEDUP_GATE, (
        "plan path {:.2f}x over naive; gate is {}x".format(
            speedup, SPEEDUP_GATE
        )
    )
