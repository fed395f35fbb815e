"""Standing-query gate: maintained top-k exactness and pruning payoff.

The subscription layer (``service.subscribe``) keeps a top-k ranking
current under live deltas with two maintenance rungs: footprint
pruning (O(1) label intersection), or a full re-rank fallback.  Two
claims are gated:

1. **Exactness** — after every applied delta, each live subscription's
   maintained ranking must be **bitwise identical** to a fresh
   ``prepared.run()`` on a session built from scratch, for every
   registered algorithm.  Pruning is an optimization of *when* to
   recompute, never of *what* the ranking is.
2. **Pruning payoff** — maintaining a subscription through a
   footprint-disjoint (irrelevant) single-edge delta must be at least
   **10x cheaper** than rescoring the subscription's query once.  This
   is the fan-out economics of standing queries: thousands of
   subscriptions can ride a delta stream when the irrelevant ones cost
   a frozenset intersection, not a re-rank.
"""

import statistics
import time

import pytest

from repro.api import SimilarityService, SimilaritySession
from repro.datasets import generate_dblp, sample_queries_by_degree
from repro.streaming import DeltaReport

IRRELEVANT_CHEAPNESS_GATE = 10.0
TOP_K = 10
PARITY_EDGES = 3
PRUNE_ITERATIONS = 200
#: Both sides of the pruning payoff are timed this many times,
#: alternating, and compared by their medians: a single pass per side
#: swings with the host.
PRUNE_REPEATS = 5

#: One prepared-query spec per registered algorithm (including
#: RelSim's Algorithm-1 expansion variant), each with the node type it
#: is subscribed at: a pattern only ranks nodes of the type it relates
#: (``p-in-.r-a.r-a-.p-in`` procs, ``p-in.p-in-`` papers), and no two
#: procs share a neighbour.
SPECS = [
    ("relsim", {"pattern": "p-in-.r-a.r-a-.p-in"}, "proc"),
    (
        "relsim",
        {
            "pattern": "p-in-.r-a.r-a-.p-in",
            "expand": {"max_patterns": 8},
        },
        "proc",
    ),
    ("pathsim", {"pattern": "p-in.p-in-"}, "paper"),
    (
        "hetesim",
        {"pattern": "p-in-.r-a.r-a-.p-in", "answer_type": "proc"},
        "proc",
    ),
    ("rwr", {}, "proc"),
    ("simrank", {}, "proc"),
    ("pattern-rwr", {"pattern": "p-in.p-in-"}, "paper"),
    ("pattern-simrank", {"pattern": "p-in.p-in-"}, "paper"),
    ("common-neighbors", {}, "paper"),
    ("katz", {}, "proc"),
]


@pytest.fixture(scope="module")
def parity_bundle():
    """Small DBLP: SimRank's dense solve keeps per-delta checks quick."""
    return generate_dblp(
        num_areas=3, num_procs=8, num_papers=80, num_authors=40, seed=0
    )


def _prepare_all(target):
    return [
        target.prepare(algorithm=name, top_k=TOP_K, **options)
        for name, options, _ in SPECS
    ]


def test_maintained_topk_matches_fresh_run_for_every_algorithm(
    emit, parity_bundle
):
    database = parity_bundle.database
    service = SimilarityService(database)
    prepared = _prepare_all(service)
    # Toggle existing p-in edges so every apply is a genuine
    # single-edge delta and the graph ends where it started.
    edges = sorted(database.edges("p-in"))[:PARITY_EDGES]
    assert len(edges) == PARITY_EDGES
    # A toggled paper loses its only proc and would rank nothing, so
    # subscriptions sit on untoggled nodes.
    toggled = {source for source, _, _ in edges}
    nodes = [
        next(
            node
            for node in sorted(database.nodes_of_type(node_type))
            if node not in toggled
        )
        for _, _, node_type in SPECS
    ]
    subscriptions = [
        service.subscribe(handle, node)
        for handle, node in zip(prepared, nodes)
    ]
    checks = 0
    # The service never writes ``database``: a copy of it, written with
    # every delta, is the independent reference.
    reference_database = database.copy()
    for edge in edges:
        for delta in ({"edges_removed": [edge]}, {"edges_added": [edge]}):
            service.apply(**delta)
            reference_database.apply_delta(**delta)
            assert service.database.same_content(reference_database)
            fresh = SimilaritySession(reference_database)
            for (name, options, _), node, subscription in zip(
                SPECS, nodes, subscriptions
            ):
                reference = fresh.prepare(
                    algorithm=name, top_k=TOP_K, **options
                ).run(node).items()
                assert reference, "algorithm {!r}: empty reference".format(
                    name
                )
                assert subscription.items() == reference, (
                    "algorithm {!r}: maintained subscription diverged "
                    "from a fresh run after {!r}".format(name, delta)
                )
                checks += 1

    stats = service.subscription_stats
    maintained = stats["pruned"] + stats["fallbacks"]
    assert maintained == len(SPECS) * 2 * PARITY_EDGES
    emit(
        "subscription_parity",
        "\n".join(
            [
                "Standing-query exactness ({} algorithms x {} single-"
                "edge deltas, top_k={})".format(
                    len(SPECS), 2 * PARITY_EDGES, TOP_K
                ),
                "  maintained top-k == fresh prepared.run(): {}/{} "
                "checks bitwise identical".format(checks, checks),
                "  maintenance: {} pruned, {} full fallbacks".format(
                    stats["pruned"], stats["fallbacks"]
                ),
            ]
        ),
    )


def test_irrelevant_delta_is_cheaper_than_one_rescore(
    emit, dblp_large_bundle
):
    database = dblp_large_bundle.database
    service = SimilarityService(database)
    prepared = service.prepare(
        algorithm="pathsim", pattern="p-in.p-in-", top_k=TOP_K
    )
    assert prepared.footprint() == (frozenset({"p-in"}), False)
    node = sample_queries_by_degree(database, "paper", 1, seed=0)[0]
    subscription = service.subscribe(prepared, node)

    # The author-writes label is disjoint from the pattern footprint:
    # exactly the delta shape standing queries must shrug off.
    irrelevant = DeltaReport(labels=frozenset({"w"}), grew=False)
    subscription.poll(irrelevant)  # warm
    assert prepared.run(node, top_k=TOP_K).items()  # warm, non-empty

    polls, rescores = [], []
    for _ in range(PRUNE_REPEATS):
        start = time.perf_counter()
        for _ in range(PRUNE_ITERATIONS):
            subscription.poll(irrelevant)
        polls.append(time.perf_counter() - start)
        start = time.perf_counter()
        for _ in range(PRUNE_ITERATIONS):
            prepared.run(node, top_k=TOP_K)
        rescores.append(time.perf_counter() - start)
    poll_seconds = statistics.median(polls)
    rescore_seconds = statistics.median(rescores)

    polled = PRUNE_REPEATS * PRUNE_ITERATIONS
    assert subscription.stats()["pruned"] == polled + 1
    assert subscription.stats()["fallbacks"] == 0

    # End to end: a real footprint-disjoint apply takes the same rung.
    author = sorted(database.nodes_of_type("author"))[0]
    paper = next(
        p
        for p in sorted(database.nodes_of_type("paper"))
        if not database.has_edge(author, "w", p)
    )
    service.apply(edges_added=[(author, "w", paper)])
    assert subscription.stats()["pruned"] == polled + 2

    ratio = rescore_seconds / max(poll_seconds, 1e-12)
    emit(
        "subscription_pruning",
        "\n".join(
            [
                "Irrelevant-delta cost per subscription (median of {} "
                "alternating repeats of {} iterations, pathsim "
                "top_k={})".format(PRUNE_REPEATS, PRUNE_ITERATIONS, TOP_K),
                "  rescore one query  : {:10.2f} us".format(
                    1e6 * rescore_seconds / PRUNE_ITERATIONS
                ),
                "  footprint pruning  : {:10.2f} us  ({:.0f}x cheaper)".format(
                    1e6 * poll_seconds / PRUNE_ITERATIONS, ratio
                ),
            ]
        ),
    )
    assert ratio >= IRRELEVANT_CHEAPNESS_GATE, (
        "pruned maintenance only {:.1f}x cheaper than a rescore; gate "
        "is {}x".format(ratio, IRRELEVANT_CHEAPNESS_GATE)
    )
