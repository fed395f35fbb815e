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
:class:`SimilaritySession` built on the same graph.  Every fifth
step is a bulk batch that rewrites a third of one label's edges, dense
enough that the engine drops and lazily recomputes the products it
touches instead of patching them.

The fresh session is built on an independent reference
``GraphDatabase``, written with :meth:`GraphDatabase.apply_delta` beside
every service write (the service never writes a database); the
service's export, ``service.database``, must equal it but is never its
own oracle.  The isolation fuzz keeps every published version and
checks that none of them ever sees a later write.

Tunables (the CI ``delta-fuzz`` job raises them):

* ``REPRO_DELTA_FUZZ_STEPS`` — delta steps per run (default 6)
* ``REPRO_DELTA_FUZZ_SEED``  — base RNG seed (default 0)
"""

import os
import random
import threading

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


def _retype_delta(database, step, proc):
    """Deltas that give an untyped node with edges the type "proc".

    The node is an untyped ``p-in`` target.  Where the graph has none,
    a first delta wires a new untyped one in, from a paper of ``proc``.
    A retype adds no node and touches no edge, yet the node joins the
    proc candidates.
    """
    untyped = sorted(
        (
            target
            for _, _, target in database.edges("p-in")
            if database.node_type(target) is None
        ),
        key=str,
    )
    deltas = []
    if untyped:
        node = untyped[0]
    else:
        node = "fuzz:untyped:{}".format(step)
        papers = sorted(database.predecessors(proc, "p-in")) or sorted(
            database.nodes_of_type("paper")
        )
        deltas.append({"edges_added": [(papers[0], "p-in", node)]})
    deltas.append({"nodes_added": [(node, "proc")]})
    return deltas


def _swap_with(service, delta):
    """``swap`` in the serving graph's export with ``delta`` applied."""
    replacement = service.database
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

    # ``database`` is the reference: the service never writes it.
    for step in range(STEPS):
        delta = _random_delta(rng, database, step)
        version = service.apply(**delta)
        database.apply_delta(**delta)
        assert version == step + 2
        assert service.delta_stats["last_path"] == "incremental"
        assert service.database.same_content(database)
        _assert_cache_canonical(service, step)

        fresh = SimilaritySession(database)
        fresh_prepared = _prepare_all(fresh)
        queries = _queries(database, rng)
        for (name, options), live, reference in zip(
            SPECS, prepared, fresh_prepared
        ):
            for query in _expected_queries(options, queries, database):
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


#: The step after which a node wired in untyped is given a type.  An
#: even step: the subscription fuzz sends it through ``apply``, as a
#: ``swap`` re-ranks every subscription anyway.
RETYPE_STEP = 2


def _delta_steps(rng, database, steps, proc):
    """``(step, delta)`` pairs, each drawn after the last was applied.

    :data:`RETYPE_STEP` is followed by :func:`_retype_delta`'s deltas
    around ``proc``.
    """
    for step in range(steps):
        yield step, _random_delta(rng, database, step)
        if step == RETYPE_STEP:
            for delta in _retype_delta(database, step, proc):
                yield step, delta


def test_delta_fuzz_subscriptions_track_fresh_rankings():
    """Standing queries stay bitwise-exact under random deltas.

    One live subscription per registered algorithm, each delta either
    pruned or re-ranked by a fallback run; after every random delta
    (alternating ``apply`` with a ``swap`` of a copy carrying the same
    delta) each maintained top-k must equal a fresh session's
    ``prepared.run`` — item for item, score bit for score bit.  One
    step also gives an untyped node with edges a type.
    """
    rng = random.Random(SEED + 29)
    database = _tiny_dblp(SEED + 29)
    service = SimilarityService(database)
    prepared = _prepare_all(service)
    node = sorted(database.nodes_of_type("proc"))[0]
    subscriptions = [service.subscribe(handle, node) for handle in prepared]

    applied = 0
    for step, delta in _delta_steps(rng, database, STEPS, node):
        if step % 2 == 0:
            service.apply(**delta)
        else:
            _swap_with(service, delta)
        database.apply_delta(**delta)
        applied += 1
        assert service.database.same_content(database)
        _assert_cache_canonical(service, step)
        fresh = SimilaritySession(database)
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
    assert maintained == len(SPECS) * applied


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
        delta = _random_delta(rng, database, step)
        if step % 2 == 0:
            service.apply(**delta)
        else:
            _swap_with(service, delta)
        database.apply_delta(**delta)
        assert service.database.same_content(database)
        _assert_cache_canonical(service, step)
        fresh = SimilaritySession(database)
        reference = fresh.prepare(
            algorithm="relsim",
            pattern="r-a-.p-in.p-in-.r-a",
            expand={"max_patterns": 8},
            top_k=TOP_K,
        )
        for query in sorted(database.nodes_of_type("area")):
            assert prepared.run(query).items() == reference.run(query).items()
    stats = service.delta_stats
    assert stats["incremental_applies"] == (STEPS + 1) // 2
    assert stats["full_rebuilds"] == STEPS // 2


def _version_facts(session, probes, query, handle):
    """What one version reports: the record the isolation fuzz keeps."""
    view = session.view
    return {
        "edges": [view.has_edge(*edge) for edge in probes],
        "nnz": {label: view.adjacency(label).nnz for label in ENDPOINTS},
        "num_edges": view.num_edges(),
        "types": {node: view.node_type(node) for node in view.nodes()},
        "ranking": handle.run(query).items(),
    }


def test_isolation_fuzz_old_versions_never_see_later_writes():
    """Every published version keeps reporting what it did when published.

    Random writes run along a chain of versions.  Every published
    session is kept with a RelSim handle prepared on it (a session
    handle, which the service never re-binds).  After each write, every
    kept version must report the edge presence of every edge any write
    touches, per-label nnz, ``num_edges``, node types and the handle's
    ranking exactly as at its publication, while a reader thread keeps
    re-reading version 1 as the newer versions publish.
    """
    rng = random.Random(SEED + 41)
    database = _tiny_dblp(SEED + 41)
    reference = database.copy()
    deltas = []
    for step in range(STEPS):
        deltas.append(_random_delta(rng, reference, step))
        reference.apply_delta(**deltas[-1])
    probes = sorted(
        {
            edge
            for delta in deltas
            for edge in delta["edges_added"] + delta["edges_removed"]
        },
        key=str,
    )
    query = sorted(database.nodes_of_type("area"))[0]
    service = SimilarityService(database)
    # A live handle, so every write also re-binds and re-warms.
    service.prepare(algorithm="relsim", pattern=SPECS[0][1]["pattern"])

    def published():
        session = service.session
        handle = session.prepare(
            algorithm="relsim", pattern=SPECS[0][1]["pattern"], top_k=TOP_K
        )
        return session, handle, _version_facts(session, probes, query, handle)

    versions = [published()]
    failures = []
    reads = []
    first_read = threading.Event()
    stop = threading.Event()

    def reader():
        session, handle, facts = versions[0]
        try:
            while not stop.is_set():
                if _version_facts(session, probes, query, handle) != facts:
                    failures.append("version 1 changed under its reader")
                reads.append(1)
                first_read.set()
        except Exception as error:  # pragma: no cover - surfaced below
            failures.append(error)
            first_read.set()

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        assert first_read.wait(timeout=60)
        for step, delta in enumerate(deltas):
            service.apply(**delta)
            versions.append(published())
            for number, (session, handle, facts) in enumerate(versions, 1):
                now = _version_facts(session, probes, query, handle)
                assert now == facts, (
                    "step {}: version {} saw a later write".format(
                        step, number
                    )
                )
    finally:
        stop.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert not failures, failures[:3]
    assert reads
    assert service.database.same_content(reference)
    fresh = SimilaritySession(reference).prepare(
        algorithm="relsim", pattern=SPECS[0][1]["pattern"], top_k=TOP_K
    )
    assert versions[-1][2]["ranking"] == fresh.run(query).items()
