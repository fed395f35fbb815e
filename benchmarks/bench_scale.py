"""Honest scale curves: latency and memory at 10^5..10^7 edges.

The paper argues structural generalizability has to survive real
database sizes; the figure-scale benches top out around 10^3 edges.
This bench generates power-law DBLP-like databases at 10^5 / 10^6 /
10^7 edges (``generate_dblp_scale``), runs a degree-biased RelSim
workload at each tier twice — once unbudgeted to record the true peak
cache footprint, once under ``memory_budget = peak // 3`` — and emits
two tables:

* ``scale_latency`` — nodes vs per-query seconds, budgeted and not;
* ``scale_rss``     — nodes vs process RSS and cache bytes.

Gates, not just curves: the budgeted run must hold ``cache_info()
["bytes"] <= budget`` with a budget provably smaller than the
unbudgeted peak, and its rankings must be bitwise-identical to the
unbudgeted run at every tier (eviction and spill may change *where*
work happens, never the answer).

Tier selection — ``REPRO_BENCH_SCALE``: ``smoke`` runs 10^5 only (the
CI scale-smoke job, which also sets an RSS ceiling via
``REPRO_SCALE_RSS_MB``), unset/``default`` runs 10^5 and 10^6,
``full`` adds 10^7.
"""

import gc
import os
import time

from repro.api import SimilaritySession
from repro.datasets import generate_dblp_scale
from repro.eval import format_table

PATTERNS = ["w-.w", "w-.w.w-.w", "w-.w.p-in"]
NUM_QUERIES = 8


def _tiers():
    scale = os.environ.get("REPRO_BENCH_SCALE", "default")
    if scale == "smoke":
        return [100_000]
    if scale == "full":
        return [100_000, 1_000_000, 10_000_000]
    return [100_000, 1_000_000]


def _rss_bytes():
    """Current resident set (VmRSS); ru_maxrss (peak) as the fallback."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _rss_ceiling_bytes():
    configured = os.environ.get("REPRO_SCALE_RSS_MB")
    if configured:
        return int(configured) * 1024 * 1024
    if os.environ.get("REPRO_BENCH_SCALE") == "smoke":
        return 1024 * 1024 * 1024
    return None


def _run_workload(session, queries):
    """``{pattern: {query: Ranking}}`` plus per-query seconds."""
    start = time.perf_counter()
    rankings = {
        pattern: session.rank_many(
            queries, algorithm="relsim", pattern=pattern, scoring="count"
        )
        for pattern in PATTERNS
    }
    elapsed = time.perf_counter() - start
    return rankings, elapsed / (len(queries) * len(PATTERNS))


def _assert_same_rankings(budgeted, unbudgeted):
    for pattern in PATTERNS:
        for query in unbudgeted[pattern]:
            assert (
                budgeted[pattern][query].items()
                == unbudgeted[pattern][query].items()
            ), (pattern, query)


def _run_tier(num_edges):
    start = time.perf_counter()
    bundle = generate_dblp_scale(num_edges, seed=0)
    build_seconds = time.perf_counter() - start
    database = bundle.database
    queries = bundle.info["suggested_queries"][:NUM_QUERIES]

    plain = SimilaritySession(database)
    reference, plain_latency = _run_workload(plain, queries)
    peak = plain.cache_info()["bytes"]
    assert peak > 0

    budget = max(peak // 3, 1)
    budgeted = SimilaritySession(database, memory_budget=budget)
    rankings, budgeted_latency = _run_workload(budgeted, queries)
    info = budgeted.cache_info()

    # The gates: a budget provably smaller than the unbudgeted peak is
    # honored byte-for-byte, and never changes a single ranking bit.
    assert budget < peak
    assert info["bytes"] <= budget
    assert info["spilled"] > 0
    _assert_same_rankings(rankings, reference)

    row = {
        "edges": bundle.info["num_edges"],
        "nodes": bundle.info["num_nodes"],
        "build_seconds": build_seconds,
        "plain_latency": plain_latency,
        "budgeted_latency": budgeted_latency,
        "peak_bytes": peak,
        "budget_bytes": budget,
        "spilled": info["spilled"],
        "rss_bytes": _rss_bytes(),
    }
    del plain, budgeted, reference, rankings, bundle, database
    gc.collect()
    return row


def test_scale_curves(benchmark, emit):
    tiers = _tiers()

    def run():
        return [_run_tier(num_edges) for num_edges in tiers]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    mib = 1024.0 * 1024.0
    emit(
        "scale_latency",
        format_table(
            ["edges", "nodes", "build s", "s/query", "s/query (budget)",
             "spilled"],
            [
                [row["edges"], row["nodes"], row["build_seconds"],
                 row["plain_latency"], row["budgeted_latency"],
                 row["spilled"]]
                for row in rows
            ],
            title="Scale - nodes vs per-query latency "
            "(RelSim count scoring, patterns {})".format(PATTERNS),
            float_format="{:.4f}",
        ),
    )
    emit(
        "scale_rss",
        format_table(
            ["edges", "nodes", "RSS MiB", "peak cache MiB", "budget MiB"],
            [
                [row["edges"], row["nodes"], row["rss_bytes"] / mib,
                 row["peak_bytes"] / mib, row["budget_bytes"] / mib]
                for row in rows
            ],
            title="Scale - nodes vs resident memory "
            "(budget = unbudgeted peak // 3)",
            float_format="{:.1f}",
        ),
    )

    # Latency must grow sanely: the top tier pays at most ~3 orders of
    # magnitude over the bottom one for 10-100x the data, never more.
    assert rows[-1]["plain_latency"] < rows[0]["plain_latency"] * 1e3 + 1.0

    ceiling = _rss_ceiling_bytes()
    if ceiling is not None:
        final = rows[-1]["rss_bytes"]
        assert final <= ceiling, (
            "RSS {} MiB over the {} MiB ceiling".format(
                int(final / mib), int(ceiling / mib)
            )
        )
