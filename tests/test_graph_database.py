"""Unit tests for repro.graph.database."""

import pytest

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
    before = (set(db._out), set(db._in))
    try:
        _READS[read](db, label)
    except (UnknownLabelError, UnknownEdgeError):
        pass
    assert (set(db._out), set(db._in)) == before
