"""Tests for SimilarityService: live updates, concurrency, freshness."""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.api import SimilarityService, SimilaritySession
from repro.datasets import figure1_dblp, generate_dblp
from repro.exceptions import (
    EvaluationError,
    NodeTypeConflictError,
    UnknownEdgeError,
)
from repro.graph import GraphDatabase, Schema, matrices
from repro.lang import CommutingMatrixEngine, parse_pattern
from repro.patterns.generator import generate_patterns
from repro.server import load_service, save_snapshot

PATTERN = "r-a-.p-in.p-in-.r-a"
QUERIES = ("DataMining", "Databases", "SoftwareEngineering")

# Adding this edge gives SoftwareEngineering a VLDB paper, which
# reshapes every area-to-area ranking under PATTERN.
DELTA_EDGE = ("CodeMining", "p-in", "VLDB")


def _expected(database, top_k=10):
    session = SimilaritySession(database)
    prepared = session.prepare(
        algorithm="relsim", pattern=PATTERN, top_k=top_k
    )
    return {query: prepared.run(query).items() for query in QUERIES}


# ----------------------------------------------------------------------
# Basics
# ----------------------------------------------------------------------
def test_service_versions_and_snapshot_copy(fig1):
    service = SimilarityService(fig1)
    prepared = service.prepare(algorithm="relsim", pattern=PATTERN, top_k=10)
    before = {q: prepared.run(q).items() for q in QUERIES}
    assert service.version == 1
    assert service.database is not fig1
    assert service.database.same_content(fig1)
    # Mutating the caller's database never touches the snapshot.
    fig1.add_edge("LeakMining", "p-in", "SIGKDD")
    fig1.add_edge(*DELTA_EDGE)
    assert not service.database.has_node("LeakMining")
    assert not service.database.has_edge(*DELTA_EDGE)
    assert {q: prepared.run(q).items() for q in QUERIES} == before


def _held_databases(session):
    """GraphDatabase objects a session, its engine or its view holds."""
    return [
        value
        for owner in (session, session.engine, session.view)
        for value in vars(owner).values()
        if isinstance(value, GraphDatabase)
    ]


def test_served_versions_hold_no_database(fig1, tmp_path):
    service = SimilarityService(fig1)
    assert not _held_databases(service.session)
    service.apply(edges_added=[DELTA_EDGE])
    assert not _held_databases(service.session)
    service.swap(figure1_dblp())
    assert not _held_databases(service.session)
    path = str(tmp_path / "serving.npz")
    save_snapshot(path, service)
    warm, _ = load_service(path)
    assert not _held_databases(warm.session)


def test_applies_release_the_first_version(fig1):
    # Every fork shares the plan compiler, so nothing it holds may pin
    # an earlier version's view and that view's label matrices.
    service = SimilarityService(fig1)
    prepared = service.prepare(algorithm="relsim", pattern=PATTERN, top_k=10)
    first = weakref.ref(service.session.view)
    for delta in ("edges_added", "edges_removed", "edges_added"):
        service.apply(**{delta: [DELTA_EDGE]})
    gc.collect()
    assert first() is None
    fig1.add_edge(*DELTA_EDGE)
    assert {q: prepared.run(q).items() for q in QUERIES} == _expected(fig1)


def test_estimates_follow_the_served_view():
    # Forks share plan nodes, so an estimate made on one version must
    # not answer for the next: the served engine plans, budgets and
    # explains against its own view, as a fresh session would.
    database = GraphDatabase(Schema(["a"]))
    nodes = ["n{}".format(position) for position in range(11)]
    for node in nodes:
        database.add_node(node)
    pairs = [(u, v) for u in nodes for v in nodes if u != v]
    database.add_edges((u, "a", v) for u, v in pairs[:10])
    service = SimilarityService(database, memory_budget=1000)
    pattern = parse_pattern("a.a-")

    def estimates(session):
        return [
            line
            for line in session.explain([pattern]).splitlines()
            if "est nnz" in line
        ]

    assert "est nnz ~ 1, est cost ~ 10 flops" in estimates(service.session)[0]
    service.apply(edges_added=[(u, "a", v) for u, v in pairs[10:]])
    fresh = SimilaritySession(service.database, memory_budget=1000)
    assert fresh.view.label_nnz("a") == 110
    assert estimates(service.session) == estimates(fresh)
    assert "est nnz ~ 121, est cost ~ 1100 flops" in estimates(fresh)[0]
    assert service.session.engine.warm_exceeds_limits([pattern])
    assert fresh.engine.warm_exceeds_limits([pattern])


def test_apply_and_swap_never_copy_a_database(fig1, monkeypatch):
    def refuse(self, schema=None):
        raise AssertionError("GraphDatabase.copy on the serving path")

    reference = fig1.copy()
    monkeypatch.setattr(GraphDatabase, "copy", refuse)
    service = SimilarityService(fig1)
    prepared = service.prepare(algorithm="relsim", pattern=PATTERN, top_k=10)
    for delta in (
        {"edges_added": [DELTA_EDGE]},
        {"edges_removed": [DELTA_EDGE], "nodes_added": [("New", "area")]},
    ):
        service.apply(**delta)
        reference.apply_delta(**delta)
    assert service.database.same_content(reference)
    service.swap(reference)
    monkeypatch.undo()
    assert {q: prepared.run(q).items() for q in QUERIES} == _expected(
        reference
    )


def test_service_prepare_and_run(fig1):
    service = SimilarityService(fig1)
    prepared = service.prepare(
        algorithm="relsim", pattern=PATTERN, top_k=10
    )
    for query, items in _expected(fig1).items():
        assert prepared.run(query).items() == items
    assert service.prepared_queries() == [prepared]


def test_service_query_and_rank_many_passthrough(fig1):
    service = SimilarityService(fig1)
    fluent = service.query("DataMining").using(
        "relsim", pattern=PATTERN
    ).top(5)
    batch = service.rank_many(
        ["DataMining"], algorithm="relsim", pattern=PATTERN, top_k=5
    )
    assert fluent.items() == batch["DataMining"].items()


def test_service_rejects_instance_prepare(fig1):
    service = SimilarityService(fig1)
    instance = service.session.algorithm("relsim", pattern=PATTERN)
    with pytest.raises(EvaluationError):
        service.prepare(algorithm=instance)


# ----------------------------------------------------------------------
# Live updates
# ----------------------------------------------------------------------
def test_apply_rebinds_prepared_queries(fig1):
    service = SimilarityService(fig1)
    prepared = service.prepare(
        algorithm="relsim", pattern=PATTERN, top_k=10
    )
    before = {q: prepared.run(q).items() for q in QUERIES}

    version = service.apply(edges_added=[DELTA_EDGE])
    assert version == 2
    assert service.version == 2
    assert service.database.has_edge(*DELTA_EDGE)

    mutated = fig1.copy()
    mutated.add_edge(*DELTA_EDGE)
    expected = _expected(mutated)
    after = {q: prepared.run(q).items() for q in QUERIES}
    assert after == expected
    assert after != before  # the delta was chosen to change rankings


def test_apply_removal_and_unknown_edge(fig1):
    service = SimilarityService(fig1)
    edge = ("CodeMining", "p-in", "SIGKDD")
    service.apply(edges_removed=[edge])
    assert not service.database.has_edge(*edge)
    with pytest.raises(UnknownEdgeError):
        service.apply(edges_removed=[("ghost", "r-a", "nowhere")])
    # A failed apply must not have swapped or bumped the version.
    assert service.version == 2


def test_swap_whole_database(fig1):
    service = SimilarityService(fig1)
    prepared = service.prepare(
        algorithm="relsim", pattern=PATTERN, top_k=5
    )
    replacement = figure1_dblp()
    replacement.add_edge("ExtraMining", "r-a", "SoftwareEngineering")
    replacement.add_edge("ExtraMining", "p-in", "VLDB")
    reference = replacement.copy()
    version = service.swap(replacement)
    assert version == 2
    assert service.database.has_node("ExtraMining")
    # The service detached: mutating the caller's replacement afterwards
    # does not leak into the serving snapshot.
    replacement.add_edge("LaterMining", "p-in", "VLDB")
    assert not service.database.has_node("LaterMining")
    assert service.database.same_content(reference)
    expected = _expected(reference, top_k=5)
    for query, items in expected.items():
        assert prepared.run(query).items() == items


def test_transient_handles_are_pruned_on_prepare(fig1):
    service = SimilarityService(fig1)
    for _ in range(10):
        transient = service.prepare(algorithm="relsim", pattern=PATTERN)
        transient.run("DataMining")
        del transient
    kept = service.prepare(algorithm="relsim", pattern=PATTERN)
    # Dead weakrefs are pruned as new handles register, not only on
    # swap: a read-mostly service must not grow the list unboundedly.
    assert len(service._handles) == 1
    assert service.prepared_queries() == [kept]


def test_versions_increase_monotonically(fig1):
    service = SimilarityService(fig1)
    versions = [
        service.apply(
            edges_added=[("FreshMining{}".format(i), "p-in", "SIGKDD")]
        )
        for i in range(4)
    ]
    assert versions == [2, 3, 4, 5]


def test_dropped_handles_are_not_rebound(fig1):
    service = SimilarityService(fig1)
    keep = service.prepare(algorithm="relsim", pattern=PATTERN)
    drop = service.prepare(algorithm="relsim", pattern="r-a-.r-a")
    assert len(service.prepared_queries()) == 2
    del drop
    service.apply(edges_added=[DELTA_EDGE])
    assert service.prepared_queries() == [keep]


def test_incremental_apply_routes_and_stats(fig1):
    service = SimilarityService(fig1)
    prepared = service.prepare(
        algorithm="relsim", pattern=PATTERN, top_k=10
    )
    before = {q: prepared.run(q).items() for q in QUERIES}
    version = service.apply(edges_added=[DELTA_EDGE])
    assert version == 2
    stats = service.delta_stats
    assert stats["last_path"] == "incremental"
    assert (stats["incremental_applies"], stats["full_rebuilds"]) == (1, 0)
    mutated = fig1.copy()
    mutated.add_edge(*DELTA_EDGE)
    after = {q: prepared.run(q).items() for q in QUERIES}
    assert after == _expected(mutated)
    assert after != before
    # swap() is the rebuild route, and the rebuilt state is the same.
    service.swap(fig1)
    stats = service.delta_stats
    assert stats["last_path"] == "rebuild"
    assert (stats["incremental_applies"], stats["full_rebuilds"]) == (1, 1)
    assert {q: prepared.run(q).items() for q in QUERIES} == before


def test_bulk_apply_patches_and_prunes_disjoint_subscriptions():
    # 66 r-a changes, most of the label, are still one patched apply:
    # it ranks bitwise like a fresh session, and a standing query over
    # p-in alone is pruned, not re-ranked.
    database = generate_dblp(
        num_areas=3, num_procs=6, num_papers=36, num_authors=20, seed=0
    ).database
    service = SimilarityService(database)
    prepared = service.prepare(
        algorithm="relsim", pattern=PATTERN, top_k=10
    )
    paper_to_paper = service.prepare(
        algorithm="pathsim", pattern="p-in.p-in-", top_k=5
    )
    subscription = service.subscribe(paper_to_paper, "paper:0")
    present = sorted(database.edges("r-a"))
    absent = [
        (paper, "r-a", area)
        for paper in sorted(database.nodes_of_type("paper"))
        for area in sorted(database.nodes_of_type("area"))
        if not database.has_edge(paper, "r-a", area)
    ]
    removed, added = present[::2], absent[:25]
    assert len(removed) + len(added) == 66
    service.apply(edges_added=added, edges_removed=removed)
    # The service never writes the caller's database: it stays the
    # independent reference, written here with the same delta.
    database.apply_delta(edges_added=added, edges_removed=removed)
    assert service.database.same_content(database)

    stats = service.delta_stats
    assert stats["last_path"] == "incremental"
    assert (stats["incremental_applies"], stats["full_rebuilds"]) == (1, 0)
    assert stats["invalidated"] > 0  # too dense to patch: recomputed
    fresh = SimilaritySession(database).prepare(
        algorithm="relsim", pattern=PATTERN, top_k=10
    )
    areas = sorted(database.nodes_of_type("area"))
    assert all(fresh.run(area).items() for area in areas)
    for area in areas:
        assert prepared.run(area).items() == fresh.run(area).items()
    service.subscriptions.flush()
    assert subscription.stats()["pruned"] == 1
    assert subscription.stats()["fallbacks"] == 0
    assert subscription.items() == paper_to_paper.run("paper:0").items()
    service.subscriptions.close()


def test_apply_nodes_added_and_failed_incremental_never_swaps(fig1):
    service = SimilarityService(fig1)
    version = service.apply(nodes_added=[("FreshArea", "area")])
    assert version == 2
    assert service.database.node_type("FreshArea") == "area"
    with pytest.raises(UnknownEdgeError):
        service.apply(edges_removed=[("ghost", "r-a", "nowhere")])
    assert service.version == 2  # failed incremental delta never swaps


def test_prepared_handles_survive_apply_cycles_with_gc(fig1):
    # Weakref rebinding across many apply() cycles interleaved with
    # explicit collections: live handles must keep being refreshed,
    # dropped handles must not be resurrected or leak registry slots.
    service = SimilarityService(fig1)
    keep_a = service.prepare(algorithm="relsim", pattern=PATTERN, top_k=10)
    keep_b = service.prepare(
        algorithm="relsim", pattern="r-a-.r-a", top_k=10
    )
    transient = service.prepare(algorithm="pathsim", pattern=PATTERN)
    for cycle in range(6):
        if cycle == 2:
            del transient
        delta = (
            {"edges_added": [DELTA_EDGE]}
            if cycle % 2 == 0
            else {"edges_removed": [DELTA_EDGE]}
        )
        if cycle % 3 == 2:
            replacement = service.database  # an export the test owns
            replacement.apply_delta(**delta)
            service.swap(replacement)
        else:
            service.apply(**delta)
        live = None  # drop the previous cycle's references first
        gc.collect()
        live = service.prepared_queries()
        if cycle >= 2:
            assert set(live) == {keep_a, keep_b}
        # Every surviving handle serves the *current* snapshot.  (A
        # plain computed list: assertion-rewriting temporaries inside
        # the loop would otherwise pin the handles across iterations.)
        stale = [h for h in live if h.session is not service.session]
        assert not stale
        live = None
    gc.collect()
    assert len(service._handles) == 2
    mutated = fig1.copy()  # 6 cycles net out to the original database
    assert {q: keep_a.run(q).items() for q in QUERIES} == _expected(mutated)


def test_version_strictly_monotone_under_concurrent_apply_and_query(fig1):
    service = SimilarityService(fig1)
    prepared = service.prepare(
        algorithm="relsim", pattern=PATTERN, top_k=10
    )
    applied_versions = []
    observed = {i: [] for i in range(4)}
    failures = []
    stop = threading.Event()
    barrier = threading.Barrier(5)

    def mutate():
        try:
            barrier.wait(timeout=30)
            for round_ in range(8):
                applied_versions.append(
                    service.apply(edges_added=[DELTA_EDGE])
                )
                applied_versions.append(
                    service.apply(edges_removed=[DELTA_EDGE])
                )
        except Exception as error:  # pragma: no cover - surfaced below
            failures.append(error)
        finally:
            stop.set()

    def query(slot):
        try:
            barrier.wait(timeout=30)
            while not stop.is_set():
                observed[slot].append(service.version)
                prepared.run("DataMining")
        except Exception as error:  # pragma: no cover - surfaced below
            failures.append(error)

    threads = [threading.Thread(target=mutate)] + [
        threading.Thread(target=query, args=(i,)) for i in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not failures, failures[:3]
    # Applies return strictly increasing versions...
    assert applied_versions == list(range(2, 18))
    # ...and no reader ever observes the version moving backwards.
    for slot, versions in observed.items():
        assert versions == sorted(versions), "reader {} saw {}".format(
            slot, versions[:20]
        )


def test_add_node_type_conflict_for_programmatic_mutation(fig1):
    # add_node conflicts matter once services mutate graphs
    # programmatically: re-typing must fail loudly, not silently.
    database = fig1.copy()
    database.add_node("typed", "proc")
    database.add_node("typed", "proc")  # same type: idempotent
    database.add_node("typed")          # None: no-op
    with pytest.raises(NodeTypeConflictError):
        database.add_node("typed", "paper")


# ----------------------------------------------------------------------
# Concurrency: the 8-thread hammer
# ----------------------------------------------------------------------
def test_eight_thread_hammer_results_identical(dblp_small):
    database = dblp_small.database
    session = SimilaritySession(database)
    prepared = session.prepare(
        algorithm="relsim", pattern=PATTERN, top_k=10
    )
    queries = list(database.nodes_of_type("area"))
    reference = session.algorithm("relsim", pattern=PATTERN)
    expected = {
        query: reference.rank(query, top_k=10).items() for query in queries
    }

    rounds = 5
    failures = []
    barrier = threading.Barrier(8)

    def hammer(offset):
        try:
            barrier.wait(timeout=30)
            for round_ in range(rounds):
                for query in queries[offset::2]:
                    observed = prepared.run(query).items()
                    if observed != expected[query]:
                        failures.append((query, round_, offset))
        except Exception as error:  # pragma: no cover - surfaced below
            failures.append(error)

    threads = [
        threading.Thread(target=hammer, args=(i % 2,)) for i in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not failures, failures[:3]


def test_eight_thread_cold_engine_shares_one_matrix(dblp_small):
    # Double-checked publication: concurrent cold computes of the same
    # pattern must converge on one cached matrix object.
    session = SimilaritySession(dblp_small.database)
    pattern = parse_pattern(PATTERN)
    results = []
    failures = []
    barrier = threading.Barrier(8)

    def compute():
        try:
            barrier.wait(timeout=30)
            results.append(session.engine.matrix(pattern))
        except Exception as error:  # pragma: no cover - surfaced below
            failures.append(error)

    threads = [threading.Thread(target=compute) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not failures, failures
    assert len(results) == 8
    assert all(matrix is results[0] for matrix in results)


def test_eight_threads_split_products_publish_one_matrix_per_plan(
    dblp_small, split_products
):
    # Every product runs as three threaded row blocks inside each of 8
    # threads materializing one pattern set on one cold engine, with
    # the interpreter switching threads as often as it can.  A block
    # written into another product's buffer, or a lost publish, shows
    # as a matrix that differs from the serial one or is not the one
    # object the engine published.
    database = dblp_small.database
    patterns = generate_patterns(
        parse_pattern(PATTERN), database.schema.constraints, max_patterns=16
    ).patterns + [parse_pattern("w-.w.w-.w"), parse_pattern("w.w-.w.w-")]
    engine = CommutingMatrixEngine(database)
    results = [None] * 8
    failures = []
    barrier = threading.Barrier(8)

    def materialize(slot):
        try:
            barrier.wait(timeout=30)
            results[slot] = engine.matrices_many(patterns)
        except Exception as error:  # pragma: no cover - surfaced below
            failures.append(error)

    threads = [
        threading.Thread(target=materialize, args=(slot,)) for slot in range(8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures

    serial = CommutingMatrixEngine(database)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrices, "PARALLEL_PRODUCT_FLOPS", float("inf"))
        expected = serial.matrices_many(patterns)
    for position, pattern in enumerate(patterns):
        published = results[0][position]
        assert all(result[position] is published for result in results)
        reference = expected[position]
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(
                getattr(published, name), getattr(reference, name)
            ), (str(pattern), name)
            assert (
                getattr(published, name).dtype
                == getattr(reference, name).dtype
            )


def test_eight_thread_vector_publishes_share_one_record(dblp_small):
    # Norm and diagonal publishes race on the same plan records; each
    # replaces its record under the lock, so neither may drop the other.
    # A dropped vector is recomputed as a second object, which the
    # identity check below catches.
    patterns = [
        parse_pattern(text)
        for text in ("w-.w", "p-in.p-in-", "r-a-.r-a", PATTERN)
    ]

    def race(engine):
        readers = (engine.column_norms, engine.diagonal)
        results = []
        failures = []
        barrier = threading.Barrier(8)

        def publish(read):
            try:
                barrier.wait(timeout=30)
                for pattern in patterns:
                    results.append((read, pattern, read(pattern)))
            except Exception as error:  # pragma: no cover - surfaced below
                failures.append(error)

        threads = [
            threading.Thread(target=publish, args=(readers[i % 2],))
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures
        info = engine.cache_info()
        assert info["column_norms"] == info["diagonals"] == len(patterns)
        assert len(results) == 8 * len(patterns)
        for read, pattern, vector in results:
            assert read(pattern) is vector

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(8):
            race(SimilaritySession(dblp_small.database).engine)
    finally:
        sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# Freshness: no torn snapshots during swap
# ----------------------------------------------------------------------
def test_queries_during_swap_never_see_torn_snapshot(fig1):
    service = SimilarityService(fig1)
    prepared = service.prepare(
        algorithm="relsim", pattern=PATTERN, top_k=10
    )
    old_expected = {q: prepared.run(q).items() for q in QUERIES}

    mutated = fig1.copy()
    mutated.add_edge(*DELTA_EDGE)
    new_expected = _expected(mutated)
    assert new_expected != old_expected

    stop = threading.Event()
    anomalies = []

    def hammer():
        while not stop.is_set():
            for query in QUERIES:
                observed = prepared.run(query).items()
                if (
                    observed != old_expected[query]
                    and observed != new_expected[query]
                ):
                    anomalies.append((query, observed))

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for thread in threads:
        thread.start()
    try:
        for _ in range(5):
            service.apply(edges_added=[DELTA_EDGE])
            assert {
                q: prepared.run(q).items() for q in QUERIES
            } == new_expected
            service.apply(edges_removed=[DELTA_EDGE])
            assert {
                q: prepared.run(q).items() for q in QUERIES
            } == old_expected
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
    assert not anomalies, anomalies[:3]
    assert service.version == 11


# ----------------------------------------------------------------------
# Serving integration: session adoption, checkpoints, last_error
# ----------------------------------------------------------------------
def test_service_adopts_existing_session(fig1):
    session = SimilaritySession(fig1)
    warm = session.prepare(algorithm="relsim", pattern=PATTERN, top_k=10)
    expected = {q: warm.run(q).items() for q in QUERIES}
    service = SimilarityService(session=session)
    assert service.version == 1
    assert service.session is session  # adopted, not copied
    prepared = service.prepare(algorithm="relsim", pattern=PATTERN, top_k=10)
    assert {q: prepared.run(q).items() for q in QUERIES} == expected


def test_service_constructor_validation(fig1):
    with pytest.raises(EvaluationError, match="not both"):
        SimilarityService(fig1, session=SimilaritySession(fig1))
    with pytest.raises(EvaluationError, match="database= or session="):
        SimilarityService()


def test_checkpoint_fires_after_apply_and_swap(fig1):
    calls = []
    service = SimilarityService(
        fig1,
        checkpoint=lambda svc, version: calls.append(
            (version, svc.version, svc.database.has_edge(*DELTA_EDGE))
        ),
    )
    service.apply(edges_added=[DELTA_EDGE])
    replacement = figure1_dblp()
    service.swap(replacement)
    # Each checkpoint saw the *published* post-mutation state.
    assert calls == [(2, 2, True), (3, 3, False)]


def test_checkpoint_failure_is_recorded_not_raised(fig1):
    def explode(service_, version):
        raise OSError("disk full")

    service = SimilarityService(fig1, checkpoint=explode)
    version = service.apply(edges_added=[DELTA_EDGE])  # must not raise
    assert version == 2
    assert service.version == 2
    assert service.database.has_edge(*DELTA_EDGE)
    record = service.last_error
    assert record["operation"] == "checkpoint"
    assert "disk full" in record["message"]
    assert isinstance(record["error"], OSError)
    assert record["version"] == 2
    service.clear_last_error()
    assert service.last_error is None


def test_checkpoint_failure_is_sticky_until_cleared(fig1):
    failures = [OSError("disk full")]

    def checkpoint(service_, version):
        if failures:
            raise failures.pop()

    service = SimilarityService(fig1, checkpoint=checkpoint)
    assert service.last_error is None
    assert service.apply(edges_added=[DELTA_EDGE]) == 2
    # A failing delta raises to its caller and records nothing.
    with pytest.raises(UnknownEdgeError):
        service.apply(edges_removed=[("ghost", "r-a", "nowhere")])
    # Sticky: a later success, its checkpoint included, does not
    # silently erase the evidence.
    assert service.swap(figure1_dblp()) == 3
    record = service.last_error
    assert record["operation"] == "checkpoint"
    assert record["version"] == 2
    assert "disk full" in record["message"]
    service.clear_last_error()
    assert service.last_error is None
