"""Delta maintenance below the service: database, view, and engine.

The parity fuzz suite (``test_delta_parity.py``) checks end-to-end
rankings; these tests pin down the layer contracts it rests on —
batch-delta validation atomicity, views and engines whose
``apply_delta`` returns the next version and leaves the receiver
serving its own, scoped candidate invalidation, exact engine
propagation with shared sub-plans resolved once, threshold-based
invalidation, and live ``cache_info`` accounting after patches and
invalidations.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.datasets import generate_dblp
from repro.exceptions import (
    EvaluationError,
    NodeTypeConflictError,
    UnknownEdgeError,
    UnknownLabelError,
)
from repro.graph import GraphDatabase, Schema
from repro.graph.matrices import MatrixView, resized
from repro.lang.matrix_semantics import CommutingMatrixEngine, PlanEntry
from repro.lang.parser import parse_pattern

PATTERNS = [
    "r-a-.p-in.p-in-.r-a",
    "p-in.p-in-",
    "w-.w",
    "<<p-in.p-in->>",
    "[r-a-.p-in]",
    "w*",
    "r-a-.r-a + p-in.p-in-",
    "r-a-.<<p-in.p-in->>.r-a",
    # Conjunction and epsilon shapes: the pass's Hadamard and eps
    # rules, and sums and nested nodes over an unchanged input.
    "w-.w & p-in.p-in-",
    "(w-.w & p-in.p-in-).p-in",
    "[w-.w & p-in.p-in-]",
    "<<w-.w>> & p-in.p-in-",
    "eps + w-.w",
    "(eps + w-.w).p-in",
    "<<w-.w>> + p-in.p-in-",
]


@pytest.fixture
def dblp():
    return generate_dblp(
        num_areas=4, num_procs=8, num_papers=60, num_authors=30, seed=3
    ).database


def _structurally_equal(a, b):
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


def _apply_both(target, database, **delta):
    """``target.apply_delta(**delta)``, then the same on ``database``.

    Returns the target's ``(next version, report)``.  Views and engines
    never write their database, so a test keeps ``database`` as its
    reference by applying each delta to it too — after the target,
    whose lazy view refuses to read a database written since it was
    made.
    """
    result = target.apply_delta(**delta)
    database.apply_delta(**delta)
    return result


def _graphs(database):
    """The database and a lazy view over a copy: one validator, two graphs."""
    return [database, MatrixView(database.copy())]


def _apply(graph, **delta):
    """``graph.apply_delta`` as ``(graph, (added, removed, new_nodes))``.

    A database is written and returned; a view returns its next
    version.
    """
    if isinstance(graph, MatrixView):
        graph, report = graph.apply_delta(**delta)
        return graph, (report.added, report.removed, report.added_nodes)
    return graph, graph.apply_delta(**delta)


def _content(graph):
    """``(nodes, edges)`` of a database or of a view's export."""
    if isinstance(graph, MatrixView):
        graph = graph.to_database()
    return set(graph.nodes()), graph.edge_set()


def _some_missing_edge(database, label, sources, targets):
    for source in sources:
        for target in targets:
            if not database.has_edge(source, label, target):
                return (source, label, target)
    raise AssertionError("no missing edge found")


# ----------------------------------------------------------------------
# GraphDatabase.apply_delta and MatrixView.apply_delta share plan_delta:
# each case runs on the database and on a view, with the same outcome.
# ----------------------------------------------------------------------
def test_database_apply_delta_validates_before_mutating(dblp):
    present = sorted(dblp.edges("p-in"))[0]
    for graph in _graphs(dblp):
        before = _content(graph)
        # Unknown label in additions: nothing applied.
        with pytest.raises(UnknownLabelError):
            graph.apply_delta(
                edges_added=[("a", "no-such-label", "b")],
                edges_removed=[present],
            )
        # Absent (and doubly-removed) edges: nothing applied.
        with pytest.raises(UnknownEdgeError):
            graph.apply_delta(
                edges_added=[("x", "p-in", "y")],
                edges_removed=[("ghost", "p-in", "nowhere")],
            )
        with pytest.raises(UnknownEdgeError):
            graph.apply_delta(edges_removed=[present, present])
        # Node-type conflicts: nothing applied.
        with pytest.raises(NodeTypeConflictError):
            graph.apply_delta(nodes_added=[(present[0], "area")])
        assert _content(graph) == before


def test_database_apply_delta_reports_effective_changes(dblp):
    papers = dblp.nodes_of_type("paper")
    procs = dblp.nodes_of_type("proc")
    present = sorted(dblp.edges("p-in"))[0]
    missing = _some_missing_edge(dblp, "p-in", papers, procs)
    for graph in _graphs(dblp):
        graph, (added, removed, new_nodes) = _apply(
            graph,
            # A present edge is a set-semantics no-op and not reported;
            # an edge with fresh endpoints reports them as new nodes.
            edges_added=[missing, sorted(dblp.edges("w"))[0],
                         ("fresh:paper", "p-in", procs[0])],
            edges_removed=[present],
            nodes_added=["loose", ("typed", "proc")],
        )
        assert added == [missing, ("fresh:paper", "p-in", procs[0])]
        assert removed == [present]
        assert new_nodes == ["loose", "typed", "fresh:paper"]
        assert not graph.has_edge(*present)
        assert graph.has_edge(*missing)
        assert graph.node_type("typed") == "proc"
        # Removing and re-adding in one batch nets out.
        graph, (added, removed, _) = _apply(
            graph, edges_added=[missing], edges_removed=[missing]
        )
        assert added == [missing] and removed == [missing]
        assert graph.has_edge(*missing)


def test_database_apply_delta_self_loop_on_new_node_reported_once(dblp):
    for graph in _graphs(dblp):
        _, (added, _, new_nodes) = _apply(
            graph, edges_added=[("loop:new", "w", "loop:new")]
        )
        assert added == [("loop:new", "w", "loop:new")]
        assert new_nodes == ["loop:new"]


def test_lazy_view_apply_delta_on_a_node_its_database_gained_later(dblp):
    # A node the database gains after a view was detached is no node of
    # the view: a delta naming it adds it to the view's next version,
    # as it would to a copy of the database taken when the view was
    # made.  A lazy view would have to read the written database to
    # build its labels, so it raises instead.
    lazy = MatrixView(dblp)
    view = MatrixView(dblp).detach()
    reference = dblp.copy()
    dblp.add_node("late")
    grown = _content(dblp)
    delta = dict(
        edges_added=[("late", "w", dblp.nodes_of_type("paper")[0])],
        nodes_added=[("late", "author")],
    )
    with pytest.raises(EvaluationError, match="detach"):
        lazy.apply_delta(**delta)
    view, report = view.apply_delta(**delta)
    assert (
        report.added, report.removed, report.added_nodes
    ) == reference.apply_delta(**delta)
    assert _content(view) == _content(reference)
    assert view.node_type("late") == reference.node_type("late") == "author"
    assert _content(dblp) == grown and dblp.node_type("late") is None


# ----------------------------------------------------------------------
# MatrixView.apply_delta
# ----------------------------------------------------------------------
def test_view_apply_delta_self_loop_on_new_node(dblp):
    view = MatrixView(dblp)
    view.adjacency("w")
    view, delta = _apply_both(
        view, dblp, edges_added=[("loop:new", "w", "loop:new")]
    )
    assert delta.added_nodes == ["loop:new"]
    fresh = MatrixView(dblp)
    assert view.indexer.ids == fresh.indexer.ids
    assert _structurally_equal(view.adjacency("w"), fresh.adjacency("w"))


def test_view_apply_delta_matches_fresh_adjacency(dblp):
    view = MatrixView(dblp)
    for label in ("w", "p-in", "r-a"):
        view.adjacency(label)
    present = sorted(dblp.edges("p-in"))[0]
    missing = _some_missing_edge(
        dblp, "r-a", dblp.nodes_of_type("paper"), dblp.nodes_of_type("area")
    )
    view, delta = _apply_both(
        view,
        dblp,
        edges_added=[missing, ("new:paper", "p-in", present[2])],
        edges_removed=[present],
    )
    assert sorted(delta.patches) == ["p-in", "r-a"]
    assert delta.grew and delta.added_nodes == ["new:paper"]
    fresh = MatrixView(dblp)
    assert view.indexer.ids == fresh.indexer.ids
    for label in ("w", "p-in", "r-a"):
        assert _structurally_equal(
            view.adjacency(label), fresh.adjacency(label)
        )


def test_detached_view_patches_the_first_edge_of_an_unused_label():
    # A detached view has no database to build an unused label from:
    # its first edge patches an empty matrix, as a fresh build reads it.
    # The edge's new endpoint keeps validation from building the label.
    database = GraphDatabase(Schema(["a", "b"]))
    database.add_edges([(1, "a", 2), (2, "a", 3)])
    view = MatrixView(database).detach()
    view, delta = _apply_both(view, database, edges_added=[(3, "b", 4)])
    assert sorted(delta.patches) == ["b"] and delta.added_nodes == [4]
    assert view.used_labels() == {"a", "b"} and view.has_edge(3, "b", 4)
    fresh = MatrixView(database)
    for label in ("a", "b"):
        assert _structurally_equal(
            view.adjacency(label), fresh.adjacency(label)
        )


def test_view_candidate_invalidation_scoped_to_affected_types(dblp):
    view = MatrixView(dblp)
    paper_index = view.candidate_index("paper")
    proc_index = view.candidate_index("proc")
    all_index = view.candidate_index(None)
    # Edge-only delta: every candidate list untouched (same objects).
    edge = sorted(dblp.edges("p-in"))[0]
    view, _ = view.apply_delta(edges_removed=[edge])
    assert view.candidate_index("paper") is paper_index
    assert view.candidate_index("proc") is proc_index
    assert view.candidate_index(None) is all_index
    # Adding a proc node: proc and all-nodes lists drop, paper survives.
    view, _ = view.apply_delta(nodes_added=[("proc:new", "proc")])
    assert view.candidate_index("paper") is paper_index
    assert view.candidate_index("proc") is not proc_index
    assert view.candidate_index(None) is not all_index
    assert "proc:new" in view.candidate_index("proc")[0]


def test_view_retyping_untyped_node_invalidates_new_types_candidates(dblp):
    dblp.add_node("untyped:0")
    view = MatrixView(dblp)
    proc_index = view.candidate_index("proc")
    paper_index = view.candidate_index("paper")
    assert "untyped:0" not in proc_index[0]
    # Upgrading the untyped node to "proc" changes no node count, but
    # it joins the proc candidate list — the list must be rebuilt.
    view, _ = _apply_both(view, dblp, nodes_added=[("untyped:0", "proc")])
    assert "untyped:0" in view.candidate_index("proc")[0]
    assert view.candidate_index("paper") is paper_index  # still scoped
    fresh = MatrixView(dblp)
    assert view.candidate_index("proc")[0] == fresh.candidate_index("proc")[0]


def test_view_apply_delta_isolates_the_original(dblp):
    # The receiver keeps serving the old version: the same matrix
    # objects, node table and candidate lists.
    view = MatrixView(dblp)
    original = view.adjacency("p-in")
    procs = view.candidate_index("proc")
    edge = sorted(dblp.edges("p-in"))[0]
    nxt, _ = view.apply_delta(
        edges_removed=[edge], nodes_added=[("proc:new", "proc")]
    )
    assert view.adjacency("p-in") is original  # untouched, same object
    assert dblp.has_edge(*edge) and view.has_edge(*edge)
    assert view.candidate_index("proc") is procs
    assert not view.has_node("proc:new")
    assert view.num_nodes() == original.shape[0]
    assert not nxt.has_edge(*edge)
    assert nxt.adjacency("p-in").nnz == original.nnz - 1
    assert nxt.node_type("proc:new") == "proc"
    assert "proc:new" in nxt.candidate_index("proc")[0]


# ----------------------------------------------------------------------
# CommutingMatrixEngine.apply_delta
# ----------------------------------------------------------------------
def _loaded_engine(database, **engine_options):
    engine = CommutingMatrixEngine(database, **engine_options)
    patterns = [parse_pattern(text) for text in PATTERNS]
    engine.matrices_many(patterns)
    for pattern in patterns[:4]:
        engine.diagonal(pattern)
        engine.column_norms(pattern)
    return engine, patterns


def test_engine_apply_delta_matches_fresh_engine(dblp):
    engine, patterns = _loaded_engine(dblp)
    present = sorted(dblp.edges("p-in"))[0]
    missing = _some_missing_edge(
        dblp, "r-a", dblp.nodes_of_type("paper"), dblp.nodes_of_type("area")
    )
    entries = engine.cache_size()
    engine, stats = _apply_both(
        engine,
        dblp,
        edges_added=[missing, ("new:paper", "p-in", present[2])],
        edges_removed=[present],
        nodes_added=[("new:proc", "proc")],
    )
    assert stats["patched"] + stats["kept"] + stats["invalidated"] == entries
    assert stats["nodes_added"] == 2
    fresh = CommutingMatrixEngine(dblp)
    for pattern in patterns:
        assert _structurally_equal(
            engine.matrix(pattern), fresh.matrix(pattern)
        )
        assert np.array_equal(
            engine.diagonal(pattern), fresh.diagonal(pattern)
        )
        assert np.array_equal(
            engine.column_norms(pattern), fresh.column_norms(pattern)
        )


def _mixed_delta(engine, database):
    """Apply a delta that removes and adds edges and adds a node.

    Applied to ``engine`` and to its reference ``database``; returns
    the engine's ``(next version, stats)``.
    """
    present = sorted(database.edges("p-in"))[0]
    missing = _some_missing_edge(
        database,
        "w",
        database.nodes_of_type("author"),
        database.nodes_of_type("paper"),
    )
    return _apply_both(
        engine,
        database,
        edges_added=[missing, ("new:paper", "p-in", present[2])],
        edges_removed=[present],
    )


def _assert_matches_fresh_engine(engine, database, patterns):
    fresh = CommutingMatrixEngine(database)
    for pattern in patterns:
        assert _structurally_equal(
            engine.matrix(pattern), fresh.matrix(pattern)
        )
        assert np.array_equal(
            engine.diagonal(pattern), fresh.diagonal(pattern)
        )


def test_engine_delta_after_preload_matches_fresh_engine(dblp):
    # Preloaded chains were never ordered; the pass orders them.
    engine, patterns = _loaded_engine(dblp)
    database = dblp.copy()
    target = CommutingMatrixEngine(database)
    target.preload(engine.export_cache())
    target, stats = _mixed_delta(target, database)
    assert stats["patched"] > 0
    _assert_matches_fresh_engine(target, database, patterns)


def test_engine_delta_with_evicted_subplans_matches_fresh_engine(dblp):
    # Only the patterns' own records and chain products stay cached, as
    # after LRU eviction: a rule missing an input's record recomputes
    # it or invalidates, and never serves a stale matrix.
    engine = CommutingMatrixEngine(dblp)
    patterns = [
        parse_pattern(text)
        for text in (
            "(w-.w & p-in.p-in-).p-in",
            "[w-.w & p-in.p-in-]",
            "(eps + w-.w).p-in",
            "<<w-.w>> + p-in.p-in-",
        )
    ]
    for pattern in patterns:
        engine.diagonal(pattern)
    kept = {engine.compile(pattern) for pattern in patterns}
    with engine._lock:
        for plan in list(engine._cache):
            if plan not in kept and plan.kind != "chain":
                del engine._cache[plan]
    engine, stats = _mixed_delta(engine, dblp)
    assert stats["patched"] > 0 and stats["invalidated"] > 0
    _assert_matches_fresh_engine(engine, dblp, patterns)


def test_engine_delta_resolves_shared_subchains_once(dblp):
    engine, _ = _loaded_engine(dblp)
    entries = engine.cache_size()
    edge = sorted(dblp.edges("p-in"))[0]
    engine, stats = engine.apply_delta(edges_removed=[edge])
    # Every cache entry is accounted exactly once per delta pass.
    assert stats["patched"] + stats["kept"] + stats["invalidated"] == entries
    assert stats["entries"] == entries - stats["invalidated"]
    assert engine.cache_size() == stats["entries"]


def test_engine_zero_threshold_invalidates_then_recomputes_exactly(
    dblp, monkeypatch
):
    monkeypatch.setattr("repro.lang.delta.DELTA_REBUILD_THRESHOLD", 0.0)
    engine, patterns = _loaded_engine(dblp)
    edge = sorted(dblp.edges("p-in"))[0]
    engine, stats = _apply_both(engine, dblp, edges_removed=[edge])
    assert stats["invalidated"] > 0  # every touched product is dropped
    fresh = CommutingMatrixEngine(dblp)
    for pattern in patterns:  # lazily recomputed entries are exact
        assert _structurally_equal(
            engine.matrix(pattern), fresh.matrix(pattern)
        )


def test_engine_delta_frees_pre_delta_matrices_without_gc(dblp):
    # The delta pass must leave no reference cycle behind: once the
    # old version is dropped, the pre-delta matrix of a patched plan is
    # freed by reference counting alone, not at the next full
    # collection.
    engine = CommutingMatrixEngine(dblp)
    pattern = parse_pattern("p-in.p-in-")
    engine.diagonal(pattern)
    before = weakref.ref(engine.matrix(pattern))
    edge = sorted(dblp.edges("p-in"))[0]
    gc.disable()
    try:
        engine, stats = engine.apply_delta(edges_removed=[edge])
        assert stats["patched"] > 0
        assert before() is None
    finally:
        gc.enable()


def test_engine_star_with_changed_base_is_invalidated_not_stale(dblp):
    engine = CommutingMatrixEngine(dblp)
    star = parse_pattern("w*")
    engine.matrix(star)
    authors = dblp.nodes_of_type("author")
    papers = dblp.nodes_of_type("paper")
    missing = _some_missing_edge(dblp, "w", authors, papers)
    engine, stats = _apply_both(engine, dblp, edges_added=[missing])
    assert stats["invalidated"] >= 1
    assert _structurally_equal(
        engine.matrix(star), CommutingMatrixEngine(dblp).matrix(star)
    )


def test_engine_fork_leaves_parent_serving_old_snapshot(dblp):
    # apply_delta forks its receiver and patches only the fork: the
    # receiver keeps its view and the same record objects.
    engine, patterns = _loaded_engine(dblp)
    reference = {
        p: (engine.matrix(p), engine.diagonal(p), engine.column_norms(p))
        for p in patterns
    }
    view = engine.view
    edge = sorted(dblp.edges("p-in"))[0]
    fork, _ = engine.apply_delta(edges_removed=[edge])
    assert engine.view is view and fork.view is not view
    for pattern in patterns:
        matrix, diagonal, norms = reference[pattern]
        assert engine.matrix(pattern) is matrix
        assert engine.diagonal(pattern) is diagonal
        assert engine.column_norms(pattern) is norms
    assert dblp.has_edge(*edge) and view.has_edge(*edge)
    assert not fork.view.has_edge(*edge)
    assert engine.cache_info()["delta_applies"] == 0
    assert fork.cache_info()["delta_applies"] == 1
    changed = parse_pattern("p-in.p-in-")
    assert not _structurally_equal(
        fork.matrix(changed), engine.matrix(changed)
    )


# ----------------------------------------------------------------------
# cache_info accuracy (no stale accounting after patches/evictions)
# ----------------------------------------------------------------------
def _expected_accounting(engine):
    """``(nnz, bytes)`` recounted from every buffer the cache exports."""
    records = [entry for _, entry in engine.export_cache()]
    matrices = [entry.matrix for entry in records]
    vectors = [
        vector
        for entry in records
        for vector in (entry.norms, entry.diagonal)
        if vector is not None
    ]
    nnz = sum(matrix.nnz for matrix in matrices)
    size = sum(
        matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        for matrix in matrices
    ) + sum(vector.nbytes for vector in vectors)
    return nnz, size


def test_cache_info_accurate_after_patches_and_invalidations(
    dblp, monkeypatch
):
    engine, patterns = _loaded_engine(dblp)
    present = sorted(dblp.edges("p-in"))[0]
    engine, _ = _apply_both(engine, dblp, edges_removed=[present])
    info = engine.cache_info()
    nnz, size = _expected_accounting(engine)
    assert info["nnz"] == nnz
    assert info["bytes"] == size
    assert info["delta_applies"] == 1
    assert info["patched"] > 0
    # The patched totals must equal what a fresh engine would hold for
    # the same cached plans — no phantom nonzeros from cancelled
    # entries, no stale buffers from replaced matrices.
    fresh = CommutingMatrixEngine(dblp)
    fresh_total = 0
    with engine._lock:
        plans = list(engine._cache)
    for plan in plans:
        fresh_total += fresh._plan_matrix(plan).nnz
    assert info["nnz"] == fresh_total
    # Invalidated entries drop out of the figures immediately.
    monkeypatch.setattr("repro.lang.delta.DELTA_REBUILD_THRESHOLD", 0.0)
    strict = _loaded_engine(dblp)[0]
    before = strict.cache_info()
    strict, stats = strict.apply_delta(edges_added=[present])
    after = strict.cache_info()
    assert stats["invalidated"] > 0
    assert after["matrices"] == before["matrices"] - stats["invalidated"]
    nnz, size = _expected_accounting(strict)
    assert after["nnz"] == nnz and after["bytes"] == size


def test_cache_info_accurate_after_lru_eviction(dblp):
    texts = ("p-in.p-in-", "w-.w", "r-a-.r-a")
    probe = CommutingMatrixEngine(dblp)
    records = []
    for text in texts:
        before = probe.cache_info()["bytes"]
        probe.matrix(parse_pattern(text))
        probe.diagonal(parse_pattern(text))
        records.append(probe.cache_info()["bytes"] - before)
    # Room for the last two patterns' records (sub-plans included), so
    # the first pattern's must be evicted.
    budget = sum(records[1:])
    engine = CommutingMatrixEngine(dblp, memory_budget=budget)
    for text in texts:
        engine.matrix(parse_pattern(text))
        engine.diagonal(parse_pattern(text))
    info = engine.cache_info()
    assert info["bytes"] <= budget and info["diagonals"] <= 2
    assert info["spilled"] > 0
    nnz, size = _expected_accounting(engine)
    assert info["nnz"] == nnz and info["bytes"] == size


def test_cache_info_accurate_after_preload(dblp):
    engine, _ = _loaded_engine(dblp)
    records = engine.export_cache()
    target = CommutingMatrixEngine(dblp)
    target.matrix(parse_pattern("w-.w"))  # replaced by the preload
    loaded = target.preload(records)
    assert loaded["skipped"] == 0
    info = target.cache_info()
    assert info["column_norms"] == loaded["column_norms"] == sum(
        entry.norms is not None for _, entry in records
    )
    assert info["diagonals"] == loaded["diagonals"] == sum(
        entry.diagonal is not None for _, entry in records
    )
    nnz, size = _expected_accounting(target)
    assert info["nnz"] == nnz and info["bytes"] == size
    assert info["bytes"] == engine.cache_info()["bytes"]


def test_preload_skips_records_that_no_longer_fit(dblp):
    engine, _ = _loaded_engine(dblp)
    records = engine.export_cache()
    n = engine.view.num_nodes()
    entry = dict(records)["p-in.p-in-"]
    wrong_shape = PlanEntry.of(resized(entry.matrix, n + 1))
    short_vector = PlanEntry.of(entry.matrix, diagonal=entry.diagonal[:-1])
    target = CommutingMatrixEngine(dblp)
    loaded = target.preload(
        [
            ("p-in.(", entry),  # no longer parses
            ("w-.w", wrong_shape),
            ("p-in.p-in-", short_vector),
        ]
        + records
    )
    assert loaded["skipped"] == 3
    assert loaded["matrices"] == len(records)
    for text, record in records:
        assert target.matrix(parse_pattern(text)) is record.matrix
    assert target.cache_info()["misses"] == 0


def test_resized_preserves_values_and_shares_buffers(dblp):
    view = MatrixView(dblp)
    matrix = view.adjacency("p-in")
    grown = resized(matrix, matrix.shape[0] + 5)
    assert grown.shape == (matrix.shape[0] + 5, matrix.shape[0] + 5)
    assert grown.data is matrix.data  # no copy of the entry buffers
    assert np.array_equal(
        grown.toarray()[: matrix.shape[0], : matrix.shape[1]],
        matrix.toarray(),
    )
    assert grown.toarray()[matrix.shape[0]:, :].sum() == 0
