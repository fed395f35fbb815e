"""Delta-maintenance gate: incremental apply speed and exactness.

The serving layer absorbs live updates by building the next snapshot
off the serving path.  Without delta maintenance every update would
pay a **full session rebuild** — re-parse, re-run Algorithm 1,
re-compile, re-materialize every cached commuting matrix — even for a
single-edge delta; ``SimilarityService.swap`` still does, because a
replacement database carries no delta.  ``SimilarityService.apply``
instead forks the serving engine and *patches* its cached plan-DAG
products with sparse delta propagation (:mod:`repro.lang.delta`; a
chain changes by ``ΔL·R_new + L_old·ΔR``), updating each shared
sub-chain exactly once.

Two things are gated, per single-edge delta:

1. **Speed**: ``apply()`` must be **at least 3x faster** than
   rebuilding with the same delta on an identically-loaded service
   (same prepared queries, same warm caches): taking a private copy of
   the serving graph (``service.database``, an export), applying the
   delta to it and ``swap()``-ing it in, all timed.
2. **Exactness**: after every delta, the rankings served by the
   patched service must be **bitwise identical** to those of the
   rebuilt service *and* of a session built from scratch on a
   reference database that the benchmark writes itself — patching is
   integer-exact, never approximate.

Unlike the other benchmarks, this one runs on a fixed mid-size DBLP
regardless of ``REPRO_BENCH_SCALE``: the gate compares patch
propagation against full re-materialization, and on the smoke-scale
graph a sparse product costs about the same as the Python/SciPy per-op
*overhead*, so a shrunken run would measure interpreter constants
rather than the algorithm (the measured ratio only grows with graph
size — ~4x at this scale, ~20x at 2x this scale).  A handful of
rebuild applies at this size still finishes in CI seconds.
"""

import time

import pytest

from repro.api import SimilarityService, SimilaritySession
from repro.datasets import generate_dblp, sample_queries_by_degree

INCREMENTAL_SPEEDUP_GATE = 3.0
SIMPLE_PATTERN = "r-a-.p-in.p-in-.r-a"
MAX_EXPAND = 16
NUM_QUERIES = 20
TOP_K = 10
ROUNDS = 4


@pytest.fixture(scope="module")
def delta_bundle():
    """Fixed-size DBLP for the delta gate (see module docstring)."""
    return generate_dblp(
        num_areas=15, num_procs=120, num_papers=2000, num_authors=900, seed=0
    )


def _service_setup(database):
    service = SimilarityService(database)
    prepared = service.prepare(
        algorithm="relsim",
        pattern=SIMPLE_PATTERN,
        expand={"max_patterns": MAX_EXPAND},
        top_k=TOP_K,
    )
    return service, prepared


def _rankings(prepared, queries):
    return {query: prepared.run(query).items() for query in queries}


def _fresh_rankings(database, queries):
    session = SimilaritySession(database)
    prepared = session.prepare(
        algorithm="relsim",
        pattern=SIMPLE_PATTERN,
        expand={"max_patterns": MAX_EXPAND},
        top_k=TOP_K,
    )
    rankings = _rankings(prepared, queries)
    # An empty reference would make every identity check vacuous.
    assert all(rankings.values()), "empty reference ranking"
    return rankings


def test_incremental_apply_speedup_with_identical_rankings(
    emit, delta_bundle
):
    database = delta_bundle.database
    # SIMPLE_PATTERN relates areas to areas: area queries rank non-empty.
    queries = sample_queries_by_degree(database, "area", NUM_QUERIES, seed=0)
    # Two identically-loaded services: one patches every delta in with
    # apply(), the other rebuilds it in with swap().
    incremental_service, incremental_prepared = _service_setup(database)
    rebuild_service, rebuild_prepared = _service_setup(database)
    incremental_prepared.run(queries[0])
    rebuild_prepared.run(queries[0])

    # Toggle existing p-in edges: each round removes one edge and adds
    # it back, so every apply is a genuine single-edge delta and the
    # database ends each round back in its start state.
    edges = sorted(database.edges("p-in"))[:ROUNDS]
    assert len(edges) == ROUNDS
    # The services never write ``database``: a copy of it, written with
    # every delta, is the independent reference.
    reference = database.copy()

    incremental_seconds = 0.0
    rebuild_seconds = 0.0
    applies = 0
    for edge in edges:
        for delta in ({"edges_removed": [edge]}, {"edges_added": [edge]}):
            start = time.perf_counter()
            incremental_service.apply(**delta)
            incremental_seconds += time.perf_counter() - start

            start = time.perf_counter()
            replacement = rebuild_service.database
            replacement.apply_delta(**delta)
            rebuild_service.swap(replacement)
            rebuild_seconds += time.perf_counter() - start
            applies += 1

            reference.apply_delta(**delta)
            assert incremental_service.database.same_content(reference)
            served = _rankings(incremental_prepared, queries)
            assert served == _rankings(rebuild_prepared, queries)
            assert served == _fresh_rankings(reference, queries)

    assert incremental_service.delta_stats["incremental_applies"] == applies
    assert rebuild_service.delta_stats["full_rebuilds"] == applies

    speedup = rebuild_seconds / max(incremental_seconds, 1e-9)
    emit(
        "delta_maintenance",
        "\n".join(
            [
                "Incremental delta maintenance vs full rebuild "
                "({} single-edge applies, {} prepared patterns, "
                "{} verification queries)".format(
                    applies, len(incremental_prepared.patterns), len(queries)
                ),
                "  full rebuild swap  : {:8.2f} ms/delta".format(
                    1000.0 * rebuild_seconds / applies
                ),
                "  incremental apply  : {:8.2f} ms/delta  ({:.1f}x)".format(
                    1000.0 * incremental_seconds / applies, speedup
                ),
                "  rankings: bitwise identical to rebuild and to a "
                "fresh session after every delta",
            ]
        ),
    )
    assert speedup >= INCREMENTAL_SPEEDUP_GATE, (
        "incremental apply {:.2f}x over full rebuild; gate is {}x".format(
            speedup, INCREMENTAL_SPEEDUP_GATE
        )
    )
