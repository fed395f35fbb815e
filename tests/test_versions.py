"""A version never changes after it is made.

A :class:`~repro.graph.matrices.MatrixView` answers for the version of
the database it was made at, or it raises
:class:`~repro.exceptions.EvaluationError`; it never answers for a mix
of two versions.  ``apply_delta`` on a view or an engine returns the
next version and leaves its receiver serving its own.

Tunables (the CI ``delta-fuzz`` job raises them, as for the parity
fuzz):

* ``REPRO_DELTA_FUZZ_STEPS`` — versions in the engine chain, and the
  fewest operations per drawn property run (default 6)
* ``REPRO_DELTA_FUZZ_SEED``  — base seed of both (default 0)
"""

import os
import random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, seed, settings
from test_delta_parity import _delta_steps, _tiny_dblp
from test_graph_matrices import _assert_bitwise

from repro.datasets import generate_dblp
from repro.exceptions import EvaluationError
from repro.graph import GraphDatabase, MatrixView, Schema
from repro.lang.matrix_semantics import CommutingMatrixEngine
from repro.lang.parser import parse_pattern

STEPS = int(os.environ.get("REPRO_DELTA_FUZZ_STEPS", "6"))
SEED = int(os.environ.get("REPRO_DELTA_FUZZ_SEED", "0"))

#: Patterns each engine of the chain warms, so the next version patches
#: chains, sums, stars and nested nodes.
PATTERNS = [
    "r-a-.p-in.p-in-.r-a",
    "p-in.p-in-",
    "w-.w",
    "[r-a-.p-in]",
    "w*",
    "eps + w-.w",
]


def _missing_edge(database, label, sources, targets):
    return next(
        (source, label, target)
        for source in sorted(database.nodes_of_type(sources))
        for target in sorted(database.nodes_of_type(targets))
        if not database.has_edge(source, label, target)
    )


# ----------------------------------------------------------------------
# A lazy view never mixes two versions
# ----------------------------------------------------------------------
def test_lazy_view_raises_instead_of_mixing_two_versions():
    database = generate_dblp(4, 10, 60, 30).database
    view = MatrixView(database)
    assert view.adjacency("w").nnz == 78
    database.add_edge(*_missing_edge(database, "w", "author", "paper"))
    database.add_edge(*_missing_edge(database, "p-in", "paper", "proc"))
    assert sum(1 for _ in database.edges("w")) == 79
    with pytest.raises(EvaluationError, match="detach"):
        view.adjacency("p-in")
    assert view.adjacency("w").nnz == 78


def test_a_type_added_to_the_database_does_not_show_through_an_older_view():
    database = GraphDatabase(Schema(["a", "b"]))
    database.add_edges([(1, "a", 2), (2, "b", 3)])
    view = MatrixView(database)
    database.add_node(1, "kind")
    assert view.node_type(1) is None
    assert view.nodes_of_type("kind") == []
    assert MatrixView(database).node_type(1) == "kind"


def test_no_op_writes_leave_a_lazy_view_current():
    database = GraphDatabase(Schema(["a", "b"]))
    database.add_edges([(1, "a", 2), (2, "b", 3)])
    database.add_node(3, "kind")
    view = MatrixView(database)
    # Writes that change nothing move no counter.
    database.add_edge(1, "a", 2)
    database.add_edges_bulk("b", [(2, 3)])
    database.add_node(3, "kind")
    database.add_node(1)
    assert view.used_labels() == {"a", "b"}
    assert view.candidate_index("kind")[0] == [3]
    database.remove_edge(1, "a", 2)
    with pytest.raises(EvaluationError):
        view.used_labels()


# ----------------------------------------------------------------------
# Engine version chain
# ----------------------------------------------------------------------
def _version(engine):
    """What one engine answers: node table, adjacency and records."""
    view = engine.view
    nodes = list(view.nodes())
    return {
        "nodes": nodes,
        "types": [view.node_type(node) for node in nodes],
        "adjacency": {
            label: view.adjacency(label) for label in ("w", "p-in", "r-a")
        },
        "records": {
            text: (engine.matrix(pattern), engine.diagonal(pattern))
            for text, pattern in (
                (text, parse_pattern(text)) for text in PATTERNS
            )
        },
    }


def test_engine_version_chain_keeps_every_version():
    rng = random.Random(SEED + 53)
    database = _tiny_dblp(SEED + 53)
    first = CommutingMatrixEngine(database.copy())
    facts = _version(first)
    buffers = {
        text: matrix.data.copy()
        for text, (matrix, _) in facts["records"].items()
    }
    engines, graphs = [first], [database.copy()]
    proc = sorted(database.nodes_of_type("proc"))[0]
    for _, delta in _delta_steps(rng, database, max(STEPS, 6), proc):
        engine, _ = engines[-1].apply_delta(**delta)
        database.apply_delta(**delta)
        _version(engine)  # warm, so the next version patches
        engines.append(engine)
        graphs.append(database.copy())
    # Every kept engine answers bitwise like a fresh one over its own
    # version of the graph.
    for number, (engine, graph) in enumerate(zip(engines, graphs)):
        fresh = _version(CommutingMatrixEngine(graph))
        kept = _version(engine)
        assert kept["nodes"] == fresh["nodes"], number
        assert kept["types"] == fresh["types"], number
        for label, matrix in fresh["adjacency"].items():
            _assert_bitwise(kept["adjacency"][label], matrix)
        for text, (matrix, diagonal) in fresh["records"].items():
            _assert_bitwise(kept["records"][text][0], matrix)
            assert np.array_equal(kept["records"][text][1], diagonal), text
    # The first engine still holds the very objects it answered with.
    after = _version(first)
    assert first.view is engines[0].view
    assert after["nodes"] == facts["nodes"]
    assert after["types"] == facts["types"]
    for label, matrix in facts["adjacency"].items():
        assert after["adjacency"][label] is matrix
    for text, (matrix, diagonal) in facts["records"].items():
        assert after["records"][text][0] is matrix
        assert after["records"][text][1] is diagonal
        assert np.array_equal(matrix.data, buffers[text])
    assert first.cache_info()["delta_applies"] == 0


# ----------------------------------------------------------------------
# Property: every read answers for the view's version, or raises
# ----------------------------------------------------------------------
_IDS = [0, 1, 2, 3, "x", "y"]
_LABELS = ["a", "b", "c"]
_TYPES = [None, "s", "t"]

_node = st.sampled_from(_IDS)
_label = st.sampled_from(_LABELS)
_view_at = st.integers(0, 7)
_operation = st.one_of(
    st.tuples(st.just("view"), st.booleans()),
    st.tuples(st.just("add_edge"), _node, _label, _node),
    st.tuples(st.just("remove_edge"), st.integers(0, 40)),
    st.tuples(st.just("add_node"), _node, st.sampled_from(_TYPES)),
    st.tuples(st.just("adjacency"), _view_at, _label),
    st.tuples(st.just("candidates"), _view_at, st.sampled_from(_TYPES)),
    st.tuples(st.just("used_labels"), _view_at),
    st.tuples(st.just("node_type"), _view_at, _node),
    st.tuples(st.just("has_edge"), _view_at, _node, _label, _node),
)


def _content(database):
    return (
        [(node, database.node_type(node)) for node in database.nodes()],
        database.edge_set(),
    )


def _write(database, name, args):
    if name == "add_edge":
        database.add_edge(*args)
    elif name == "remove_edge":
        edges = sorted(database.edges(), key=str)
        if edges:
            database.remove_edge(*edges[args[0] % len(edges)])
    else:
        node, node_type = args
        if database.has_node(node) and database.node_type(node) not in (
            None,
            node_type,
        ):
            return
        database.add_node(node, node_type)


def _read(view, name, args):
    if name == "adjacency":
        matrix = view.adjacency(*args)
        return matrix.shape, matrix.indptr.tolist(), matrix.indices.tolist()
    if name == "candidates":
        nodes, columns = view.candidate_index(*args)
        return nodes, columns.tolist()
    if name == "used_labels":
        return view.used_labels()
    if name == "node_type":
        return view.node_type(*args) if view.has_node(args[0]) else "absent"
    return view.has_edge(*args)


@seed(SEED)
@given(
    start=st.lists(st.tuples(_node, _label, _node), max_size=8),
    operations=st.lists(
        _operation, min_size=max(STEPS, 6), max_size=4 * max(STEPS, 6)
    ),
)
@settings(max_examples=150, deadline=None)
def test_views_answer_for_their_version_or_raise(start, operations):
    database = GraphDatabase(Schema(_LABELS))
    database.add_edges(start)
    # Each view with the database as it was when the view was made, and
    # whether a write has changed the database since.
    views = [[MatrixView(database), database.copy(), False]]
    for name, *args in operations:
        if name == "view":
            view = MatrixView(database)
            if args[0]:
                view.detach()
            views.append([view, database.copy(), False])
        elif name in ("add_edge", "remove_edge", "add_node"):
            before = _content(database)
            _write(database, name, args)
            if _content(database) != before:
                for kept in views:
                    kept[2] = True
        else:
            view, snapshot, written = views[args[0] % len(views)]
            expected = _read(MatrixView(snapshot), name, args[1:])
            try:
                actual = _read(view, name, args[1:])
            except EvaluationError:
                assert written, (name, args)
                continue
            assert actual == expected, (name, args)
