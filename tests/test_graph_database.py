"""Unit tests for repro.graph.database."""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.exceptions import (
    NodeTypeConflictError,
    ReproError,
    UnknownEdgeError,
    UnknownLabelError,
    UnknownNodeError,
)
from repro.graph import GraphDatabase, Schema


@pytest.fixture
def db():
    return GraphDatabase(Schema(["a", "b"]))


def test_add_edge_auto_adds_nodes(db):
    db.add_edge(1, "a", 2)
    assert db.has_node(1)
    assert db.has_node(2)
    assert db.has_edge(1, "a", 2)


def test_edge_set_semantics(db):
    db.add_edge(1, "a", 2)
    db.add_edge(1, "a", 2)
    assert db.num_edges() == 1


def test_parallel_edges_with_distinct_labels(db):
    db.add_edge(1, "a", 2)
    db.add_edge(1, "b", 2)
    assert db.num_edges() == 2


def test_unknown_label_rejected(db):
    with pytest.raises(UnknownLabelError):
        db.add_edge(1, "z", 2)


def test_add_edges_bulk(db):
    db.add_edges([(1, "a", 2), (2, "b", 3)])
    assert db.num_edges() == 2


def test_remove_edge(db):
    db.add_edge(1, "a", 2)
    db.remove_edge(1, "a", 2)
    assert not db.has_edge(1, "a", 2)
    assert db.num_edges() == 0
    # nodes survive edge removal
    assert db.has_node(1)


def test_remove_missing_edge_raises(db):
    with pytest.raises(KeyError):
        db.remove_edge(1, "a", 2)


def test_remove_missing_edge_raises_library_error(db):
    # UnknownEdgeError joins the library hierarchy but stays a KeyError
    # for callers that guarded the old bare exception.
    with pytest.raises(UnknownEdgeError) as info:
        db.remove_edge(1, "a", 2)
    assert isinstance(info.value, ReproError)
    assert isinstance(info.value, KeyError)
    assert info.value.edge == (1, "a", 2)
    assert "unknown edge" in str(info.value)


def test_add_node_type_conflict_raises(db):
    db.add_node(1, "kind")
    db.add_node(1, "kind")  # same type: idempotent
    db.add_node(1)          # None: keeps the type
    assert db.node_type(1) == "kind"
    db.add_node(2)
    db.add_node(2, "late")  # None -> type upgrade is allowed
    assert db.node_type(2) == "late"
    with pytest.raises(NodeTypeConflictError) as info:
        db.add_node(1, "other")
    assert isinstance(info.value, ReproError)
    assert db.node_type(1) == "kind"


def test_successors_predecessors(db):
    db.add_edges([(1, "a", 2), (1, "a", 3), (4, "a", 2)])
    assert db.successors(1, "a") == {2, 3}
    assert db.predecessors(2, "a") == {1, 4}
    assert db.successors(2, "a") == set()


def test_degree_counts_both_directions_all_labels(db):
    db.add_edges([(1, "a", 2), (2, "b", 1), (1, "b", 3)])
    assert db.degree(1) == 3
    assert db.degree(2) == 2
    assert db.degree(3) == 1


def test_degree_of_unknown_node_raises(db):
    with pytest.raises(UnknownNodeError):
        db.degree(99)


def test_node_types(db):
    db.add_node(1, "paper")
    assert db.node_type(1) == "paper"
    assert db.nodes_of_type("paper") == [1]


def test_add_node_idempotent_keeps_type(db):
    db.add_node(1, "paper")
    db.add_node(1)
    assert db.node_type(1) == "paper"


def test_add_node_fills_in_missing_type(db):
    db.add_node(1)
    db.add_node(1, "paper")
    assert db.node_type(1) == "paper"


def test_node_type_unknown_node(db):
    with pytest.raises(UnknownNodeError):
        db.node_type(42)


def test_edges_iteration_filtered(db):
    db.add_edges([(1, "a", 2), (2, "b", 3)])
    assert set(db.edges("a")) == {(1, "a", 2)}
    assert set(db.edges()) == {(1, "a", 2), (2, "b", 3)}


def test_used_labels(db):
    db.add_edge(1, "a", 2)
    assert db.used_labels() == {"a"}


def test_used_labels_after_removal(db):
    db.add_edge(1, "a", 2)
    db.remove_edge(1, "a", 2)
    assert db.used_labels() == set()


def test_label_pairs(db):
    db.add_edges([(1, "a", 2), (3, "a", 4)])
    assert db.label_pairs("a") == {(1, 2), (3, 4)}


def test_label_pairs_unknown_label(db):
    with pytest.raises(UnknownLabelError):
        db.label_pairs("z")


def test_copy_is_deep(db):
    db.add_node(1, "paper")
    db.add_edge(1, "a", 2)
    clone = db.copy()
    clone.add_edge(2, "b", 3)
    assert not db.has_edge(2, "b", 3)
    assert clone.node_type(1) == "paper"


def test_same_content(db):
    db.add_edge(1, "a", 2)
    clone = db.copy()
    assert db.same_content(clone)
    clone.add_edge(2, "a", 1)
    assert not db.same_content(clone)


def test_self_loop_allowed(db):
    db.add_edge(1, "a", 1)
    assert db.has_edge(1, "a", 1)
    assert db.degree(1) == 2


# ----------------------------------------------------------------------
# Bulk construction (the scale-generator path)
# ----------------------------------------------------------------------
def test_add_edges_bulk_matches_add_edge(db):
    pairs = [(1, 2), (1, 3), (2, 3), (1, 2), (3, 3)]
    added = db.add_edges_bulk("a", pairs)
    assert added == 4  # (1, 2) deduplicated by set semantics
    reference = GraphDatabase(Schema(["a", "b"]))
    for source, target in pairs:
        reference.add_edge(source, "a", target)
    assert db.same_content(reference)
    assert db.num_edges() == reference.num_edges()


def test_add_edges_bulk_unknown_label(db):
    with pytest.raises(UnknownLabelError):
        db.add_edges_bulk("nope", [(1, 2)])
    assert db.num_edges() == 0


def test_add_edges_bulk_counts_only_new(db):
    db.add_edge(1, "a", 2)
    assert db.add_edges_bulk("a", [(1, 2), (2, 1)]) == 1
    assert db.num_edges() == 2


def test_adjacency_lists_cover_edges(db):
    db.add_edges([(1, "a", 2), (1, "a", 3), (2, "a", 1), (1, "b", 2)])
    flattened = {
        (source, target)
        for source, targets in db.adjacency_lists("a")
        for target in targets
    }
    assert flattened == {(1, 2), (1, 3), (2, 1)}
    with pytest.raises(UnknownLabelError):
        db.adjacency_lists("nope")


_READS = {
    "has_edge": lambda db, label: db.has_edge(1, label, 2),
    "successors": lambda db, label: db.successors(1, label),
    "predecessors": lambda db, label: db.predecessors(2, label),
    "edges": lambda db, label: list(db.edges(label)),
    "label_pairs": lambda db, label: db.label_pairs(label),
    "adjacency_lists": lambda db, label: db.adjacency_lists(label),
    "degree": lambda db, label: db.degree(1),
    "remove_edge": lambda db, label: db.remove_edge(1, label, 2),
}


@pytest.mark.parametrize("label", ["b", "bogus"])
@pytest.mark.parametrize("read", sorted(_READS))
def test_reads_leave_label_keys_unchanged(db, read, label):
    # "b" is in the schema but has no edges; "bogus" is not in it.  A
    # read that inserted either key would make a concurrent copy() fail
    # with "dictionary changed size during iteration".
    db.add_edges([(1, "a", 2), (2, "a", 3)])
    before = set(db._out)
    try:
        _READS[read](db, label)
    except (UnknownLabelError, UnknownEdgeError):
        pass
    assert set(db._out) == before


# ----------------------------------------------------------------------
# The position store against an id-level model
# ----------------------------------------------------------------------
_IDS = [0, 1, 2, "x", "y", ("t", 0)]
_LABELS = ["a", "b"]
_TYPES = [None, "p", "q"]


class _Model:
    """The database's semantics over ids: a dict of sets per label."""

    def __init__(self):
        self.nodes = {}
        self.out = {label: {} for label in _LABELS + ["c"]}

    def copy(self):
        clone = _Model()
        clone.nodes = dict(self.nodes)
        clone.out = {
            label: {u: set(vs) for u, vs in adjacency.items()}
            for label, adjacency in self.out.items()
        }
        return clone

    def add_node(self, node, node_type=None):
        existing = self.nodes.setdefault(node, node_type)
        if node_type is not None and existing is None:
            self.nodes[node] = node_type
        elif node_type not in (None, existing):
            raise NodeTypeConflictError(node, existing, node_type)

    def has_edge(self, u, label, v):
        return v in self.out[label].get(u, ())

    def add_edge(self, u, label, v):
        self.add_node(u)
        self.add_node(v)
        self.out[label].setdefault(u, set()).add(v)

    def add_edges_bulk(self, label, pairs):
        for u, v in pairs:
            self.add_edge(u, label, v)

    def remove_edge(self, u, label, v):
        if not self.has_edge(u, label, v):
            raise UnknownEdgeError(u, label, v)
        self.out[label][u].discard(v)
        if not self.out[label][u]:
            del self.out[label][u]

    def apply_delta(self, added, removed, nodes_added):
        # Validate the whole batch first, as plan_delta does.
        seen = set()
        for edge in removed:
            if edge in seen or not self.has_edge(*edge):
                raise UnknownEdgeError(*edge)
            seen.add(edge)
        types = {}
        for node, node_type in nodes_added:
            if node_type is None:
                continue
            existing = types.get(node, self.nodes.get(node))
            if existing not in (None, node_type):
                raise NodeTypeConflictError(node, existing, node_type)
            types[node] = node_type
        for node, _ in nodes_added:
            self.add_node(node)
        self.nodes.update(types)
        for edge in removed:
            self.remove_edge(*edge)
        for edge in added:
            self.add_edge(*edge)

    def edges(self):
        return {
            (u, label, v)
            for label, adjacency in self.out.items()
            for u, vs in adjacency.items()
            for v in vs
        }


_node = st.sampled_from(_IDS)
_label = st.sampled_from(_LABELS)
_edge = st.tuples(_node, _label, _node)
_operation = st.one_of(
    st.tuples(st.just("add_node"), _node, st.sampled_from(_TYPES)),
    st.tuples(st.just("add_edge"), _node, _label, _node),
    st.tuples(
        st.just("add_edges_bulk"),
        _label,
        st.lists(st.tuples(_node, _node), max_size=6),
    ),
    st.tuples(st.just("remove_edge"), _node, _label, _node),
    st.tuples(
        st.just("apply_delta"),
        st.lists(_edge, max_size=4),
        st.lists(_edge, max_size=2),
        st.lists(st.tuples(_node, st.sampled_from(_TYPES)), max_size=3),
    ),
)


def _apply(target, operation):
    """Run one drawn operation; returns the error type it raised, if any."""
    name, *args = operation
    try:
        getattr(target, name)(*args)
    except (NodeTypeConflictError, UnknownEdgeError) as error:
        return type(error)
    return None


def _assert_matches(database, model):
    edges = model.edges()
    assert list(database.nodes()) == list(model.nodes)
    assert database.num_nodes() == len(model.nodes)
    assert database.num_edges() == len(edges)
    listed = list(database.edges())
    assert len(listed) == len(edges) and set(listed) == edges
    assert database.edge_set() == edges
    assert database.used_labels() == {label for _, label, _ in edges}
    for node_type in _TYPES:
        assert database.nodes_of_type(node_type) == [
            node for node, kind in model.nodes.items() if kind == node_type
        ]
    for label, adjacency in model.out.items():
        assert set(database.edges(label)) == {
            edge for edge in edges if edge[1] == label
        }
        assert dict(database.adjacency_lists(label)) == adjacency
        assert database.label_pairs(label) == {
            (u, v) for u, vs in adjacency.items() for v in vs
        }
    for node in _IDS + ["absent"]:
        assert database.has_node(node) == (node in model.nodes)
        if node in model.nodes:
            assert database.node_type(node) == model.nodes[node]
            assert database.degree(node) == sum(
                (u == node) + (v == node) for u, _, v in edges
            )
        for label in model.out:
            assert database.successors(node, label) == {
                v for u, lab, v in edges if (u, lab) == (node, label)
            }
            assert database.predecessors(node, label) == {
                u for u, lab, v in edges if (lab, v) == (label, node)
            }
            for target in _IDS:
                assert database.has_edge(node, label, target) == (
                    (node, label, target) in edges
                )


_SELF_LOOP = (1, "a", 1)


@example(
    operations=[
        ("add_node", "x", None),
        ("add_edge", *_SELF_LOOP),
        ("remove_edge", *_SELF_LOOP),
        ("add_node", "x", "p"),  # typed after it was added untyped
        ("add_edge", *_SELF_LOOP),  # a removed edge added back
        ("apply_delta", [_SELF_LOOP], [_SELF_LOOP], [("y", "q")]),
        ("add_node", "x", "q"),  # a conflicting type raises
    ],
    later=[("remove_edge", *_SELF_LOOP)],
)
@given(
    operations=st.lists(_operation, max_size=25),
    later=st.lists(_operation, max_size=5),
)
@settings(max_examples=200, deadline=None)
def test_position_store_matches_an_id_level_model(operations, later):
    database = GraphDatabase(Schema(_LABELS + ["c"]))
    model = _Model()
    for operation in operations:
        assert _apply(database, operation) == _apply(model, operation)
    _assert_matches(database, model)
    # A copy and its source change independently of each other.
    clone, snapshot = database.copy(), model.copy()
    assert clone.same_content(database)
    for operation in later:
        assert _apply(database, operation) == _apply(model, operation)
    clone.add_edge("fresh", "a", 0)
    snapshot.add_edge("fresh", "a", 0)
    _assert_matches(database, model)
    _assert_matches(clone, snapshot)
