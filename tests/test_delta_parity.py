"""Delta-fuzz parity: incremental maintenance == fresh build, bitwise.

The live-update path (:meth:`SimilarityService.apply`) patches cached
commuting matrices, diagonals, norms, candidate indexes, and prepared
scoring state instead of rebuilding them.  The claim backing it is
*exactness*: commuting matrices hold integer counts (exact in float64),
so sparse delta propagation produces bitwise-identical state — and
therefore bitwise-identical rankings — to a session built from scratch.

This suite fuzzes that claim: seeded random sequences of add-edge /
remove-edge / add-node deltas are applied through
:meth:`SimilarityService.apply`, and after **every** step the rankings
served by every registered algorithm's live prepared handle must equal
— item for item, score bit for score bit — those of a fresh
:class:`SimilaritySession` built on the same database.  Every fifth
step is a bulk batch that rewrites a third of one label's edges, dense
enough that the engine drops and lazily recomputes the products it
touches instead of patching them.

Tunables (the CI ``delta-fuzz`` job raises them):

* ``REPRO_DELTA_FUZZ_STEPS`` — delta steps per run (default 6)
* ``REPRO_DELTA_FUZZ_SEED``  — base RNG seed (default 0)
"""

import os
import random

import numpy as np
import pytest

from repro.api import SimilarityService, SimilaritySession, available_algorithms
from repro.datasets import generate_dblp

STEPS = int(os.environ.get("REPRO_DELTA_FUZZ_STEPS", "6"))
SEED = int(os.environ.get("REPRO_DELTA_FUZZ_SEED", "0"))
TOP_K = 10
BULK_EVERY = 5

#: Endpoint types of each DBLP edge label.
ENDPOINTS = {"w": ("author", "paper"), "p-in": ("paper", "proc"),
             "r-a": ("paper", "area")}

#: One prepared-query spec per registered algorithm (plus the
#: Algorithm-1 expansion variant of RelSim, which exercises the
#: expansion-reuse path of incremental re-binding).  Patterns are
#: area-to-area or proc-to-proc relationships over the DBLP schema.
SPECS = [
    ("relsim", {"pattern": "r-a-.p-in.p-in-.r-a"}),
    (
        "relsim",
        {
            "pattern": "r-a-.p-in.p-in-.r-a",
            "expand": {"max_patterns": 8},
        },
    ),
    ("pathsim", {"pattern": "p-in.p-in-"}),
    ("hetesim", {"pattern": "p-in-.p-in", "answer_type": "proc"}),
    ("rwr", {}),
    ("simrank", {}),
    ("pattern-rwr", {"pattern": "p-in.p-in-"}),
    ("pattern-simrank", {"pattern": "p-in.p-in-"}),
    ("common-neighbors", {}),
    ("katz", {}),
]


def _tiny_dblp(seed):
    return generate_dblp(
        num_areas=3, num_procs=6, num_papers=36, num_authors=20, seed=seed
    ).database


def _bulk_delta(rng, database, label):
    """Remove a third of ``label``'s edges and add as many absent ones."""
    present = sorted(database.edges(label))
    sources, targets = (
        sorted(database.nodes_of_type(kind)) for kind in ENDPOINTS[label]
    )
    absent = [
        (source, label, target)
        for source in sources
        for target in targets
        if not database.has_edge(source, label, target)
    ]
    count = len(present) // 3
    return {
        "edges_added": rng.sample(absent, min(count, len(absent))),
        "edges_removed": rng.sample(present, count),
        "nodes_added": [],
    }


def _random_delta(rng, database, step):
    """1-3 random mutations (a bulk batch every ``BULK_EVERY`` steps).

    Returns ``apply`` keywords valid against the current database.
    """
    if step % BULK_EVERY == BULK_EVERY - 1:
        # Cycle the labels, so a long run bulk-rewrites each of them.
        labels = sorted(ENDPOINTS)
        return _bulk_delta(
            rng, database, labels[step // BULK_EVERY % len(labels)]
        )
    procs = database.nodes_of_type("proc")
    edges_added, edges_removed, nodes_added = [], [], []
    for _ in range(rng.randint(1, 3)):
        operation = rng.choice(("add", "add", "remove", "node"))
        if operation == "add":
            label = rng.choice(("w", "p-in", "r-a"))
            source_type, target_type = ENDPOINTS[label]
            edge = (
                rng.choice(database.nodes_of_type(source_type)),
                label,
                rng.choice(database.nodes_of_type(target_type)),
            )
            if not database.has_edge(*edge) and edge not in edges_added:
                edges_added.append(edge)
        elif operation == "remove":
            label = rng.choice(("w", "p-in", "r-a"))
            edges = sorted(database.edges(label))
            if edges:
                edge = rng.choice(edges)
                if edge not in edges_removed:
                    edges_removed.append(edge)
        else:
            node_type = rng.choice(("paper", "proc", "area", None))
            node = "fuzz:{}:{}".format(step, len(nodes_added))
            nodes_added.append((node, node_type))
            if node_type == "paper":
                # Wire the newcomer in so it can influence rankings.
                edges_added.append((node, "p-in", rng.choice(procs)))
    return {
        "edges_added": edges_added,
        "edges_removed": edges_removed,
        "nodes_added": nodes_added,
    }


def _swap_with(service, delta):
    """``swap`` in a copy of the serving database with ``delta`` applied."""
    replacement = service.database.copy()
    replacement.apply_delta(**delta)
    return service.swap(replacement)


def _prepare_all(target):
    return [
        target.prepare(algorithm=name, top_k=TOP_K, **options)
        for name, options in SPECS
    ]


def _queries(database, rng):
    procs = sorted(database.nodes_of_type("proc"))
    areas = sorted(database.nodes_of_type("area"))
    return rng.sample(areas, min(2, len(areas))) + rng.sample(
        procs, min(3, len(procs))
    )


def _assert_cache_canonical(service, step):
    """Every cached matrix is canonical CSR with no stored zero.

    Scanned from the buffers, not read from SciPy's flag: the delta
    pass flags patched sums canonical without checking, prepared
    scoring reads the buffers directly, and no caller may sort a cached
    matrix in place because forked engines share it.
    """
    for text, entry in service.session.engine.export_cache():
        matrix = entry.matrix
        rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
        same_row = rows[1:] == rows[:-1]
        assert (np.diff(matrix.indices)[same_row] > 0).all(), (step, text)
        assert (matrix.data != 0).all(), (step, text)


def _expected_queries(spec_options, queries, database):
    # HeteSim's proc-to-proc meta-path only answers proc queries; every
    # other spec answers any typed query.
    if spec_options.get("answer_type") == "proc":
        return [q for q in queries if database.node_type(q) == "proc"]
    return queries


def test_all_specs_cover_every_registered_algorithm():
    assert {name for name, _ in SPECS} == set(available_algorithms())


@pytest.mark.parametrize(
    "seed, budgeted",
    [(SEED, False), (SEED + 1, False), (SEED, True), (SEED + 1, True)],
    ids=[str(SEED), str(SEED + 1)]
    + ["{}-budget".format(seed) for seed in (SEED, SEED + 1)],
)
def test_delta_fuzz_incremental_parity_all_algorithms(seed, budgeted):
    rng = random.Random(seed)
    database = _tiny_dblp(seed)
    budget = None
    if budgeted:
        # A third of what the prepared specs hold unbudgeted: every
        # delta lands on a cache that is evicting and recomputing.
        peak = SimilaritySession(database)
        _prepare_all(peak)
        budget = peak.cache_info()["bytes"] // 3
    service = SimilarityService(database, memory_budget=budget)
    prepared = _prepare_all(service)

    for step in range(STEPS):
        version = service.apply(**_random_delta(rng, service.database, step))
        assert version == step + 2
        assert service.delta_stats["last_path"] == "incremental"
        _assert_cache_canonical(service, step)

        fresh = SimilaritySession(service.database)
        fresh_prepared = _prepare_all(fresh)
        queries = _queries(service.database, rng)
        for (name, options), live, reference in zip(
            SPECS, prepared, fresh_prepared
        ):
            for query in _expected_queries(
                options, queries, service.database
            ):
                live_items = live.run(query).items()
                reference_items = reference.run(query).items()
                assert live_items == reference_items, (
                    "step {} algorithm {!r} query {!r}: incremental "
                    "ranking diverged from fresh build".format(
                        step, name, query
                    )
                )
        if budget is not None:
            assert service.session.cache_info()["bytes"] <= budget, step
    if budget is not None:
        assert service.session.cache_info()["spilled"] > 0


@pytest.mark.parametrize(
    "budgeted", [False, True], ids=["unbudgeted", "budget"]
)
def test_delta_fuzz_parity_with_split_products(split_products, budgeted):
    """The fuzz above with every chain product run as threaded blocks."""
    test_delta_fuzz_incremental_parity_all_algorithms(SEED, budgeted)


def test_delta_fuzz_subscriptions_track_fresh_rankings():
    """Standing queries stay bitwise-exact under random deltas.

    One live subscription per registered algorithm, each delta either
    pruned or re-ranked by a fallback run; after every random delta
    (alternating ``apply`` with a ``swap`` of a copy carrying the same
    delta) each maintained top-k must equal a fresh session's
    ``prepared.run`` — item for item, score bit for score bit.
    """
    rng = random.Random(SEED + 29)
    database = _tiny_dblp(SEED + 29)
    service = SimilarityService(database)
    prepared = _prepare_all(service)
    node = sorted(database.nodes_of_type("proc"))[0]
    subscriptions = [service.subscribe(handle, node) for handle in prepared]

    for step in range(STEPS):
        delta = _random_delta(rng, service.database, step)
        if step % 2 == 0:
            service.apply(**delta)
        else:
            _swap_with(service, delta)
        _assert_cache_canonical(service, step)
        fresh = SimilaritySession(service.database)
        fresh_prepared = _prepare_all(fresh)
        for (name, _), live, reference in zip(
            SPECS, subscriptions, fresh_prepared
        ):
            assert live.items() == reference.run(node).items(), (
                "step {} algorithm {!r}: maintained subscription "
                "diverged from fresh build".format(step, name)
            )
            assert live.version == service.version

    stats = service.subscription_stats
    assert stats["active"] == len(SPECS)
    maintained = stats["pruned"] + stats["fallbacks"]
    assert maintained == len(SPECS) * STEPS


def test_delta_fuzz_mixed_incremental_and_rebuild_paths():
    """Interleaving ``swap`` rebuilds with patched applies stays exact."""
    rng = random.Random(SEED + 17)
    database = _tiny_dblp(SEED + 17)
    service = SimilarityService(database)
    prepared = service.prepare(
        algorithm="relsim",
        pattern="r-a-.p-in.p-in-.r-a",
        expand={"max_patterns": 8},
        top_k=TOP_K,
    )
    for step in range(STEPS):
        delta = _random_delta(rng, service.database, step)
        if step % 2 == 0:
            service.apply(**delta)
        else:
            _swap_with(service, delta)
        _assert_cache_canonical(service, step)
        fresh = SimilaritySession(service.database)
        reference = fresh.prepare(
            algorithm="relsim",
            pattern="r-a-.p-in.p-in-.r-a",
            expand={"max_patterns": 8},
            top_k=TOP_K,
        )
        for query in sorted(service.database.nodes_of_type("area")):
            assert prepared.run(query).items() == reference.run(query).items()
    stats = service.delta_stats
    assert stats["incremental_applies"] == (STEPS + 1) // 2
    assert stats["full_rebuilds"] == STEPS // 2
