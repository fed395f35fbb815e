"""Unit tests for repro.graph.matrices."""

import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from test_index64 import _upcast

from repro.datasets import generate_dblp_scale
from repro.exceptions import EvaluationError, UnknownNodeError
from repro.graph import (
    GraphDatabase,
    MatrixView,
    NodeIndexer,
    Schema,
    boolean,
    column_normalize,
    diagonal_of,
    matrices,
    row_normalize,
)
from repro.graph.matrices import canonical, csr_product


def test_indexer_roundtrip():
    indexer = NodeIndexer(["x", "y", "z"])
    assert len(indexer) == 3
    for i, node in enumerate(["x", "y", "z"]):
        assert indexer.index_of(node) == i
        assert indexer.node_at(i) == node


def test_indexer_rejects_duplicates():
    with pytest.raises(ValueError):
        NodeIndexer(["x", "x"])


def test_indexer_unknown_node():
    indexer = NodeIndexer(["x"])
    with pytest.raises(UnknownNodeError):
        indexer.index_of("nope")


def test_indexer_contains():
    indexer = NodeIndexer(["x"])
    assert "x" in indexer
    assert "y" not in indexer


def test_indexer_extended_equals_rebuilt():
    old = NodeIndexer(["x", 1, ("t", 2)])
    new = old.extended(["y", 7])
    rebuilt = NodeIndexer(["x", 1, ("t", 2), "y", 7])
    assert new.ids == rebuilt.ids
    assert new._index == rebuilt._index
    # Old readers keep the old ordering.
    assert old.ids == ["x", 1, ("t", 2)]
    assert "y" not in old
    with pytest.raises(UnknownNodeError):
        old.index_of(7)


def test_indexer_extended_rejects_duplicates():
    old = NodeIndexer(["x"])
    with pytest.raises(ValueError):
        old.extended(["x"])
    with pytest.raises(ValueError):
        old.extended(["y", "y"])
    assert old.ids == ["x"]


def test_bounded_indexer_hides_entries_past_its_bound():
    ids, index = ["x", "y"], {"x": 0, "y": 1}
    indexer = NodeIndexer.bounded(ids, index, 2)
    ids.append("z")  # the shared table grows after the indexer
    index["z"] = 2
    assert len(indexer) == 2 and indexer.ids == ["x", "y"]
    assert "z" not in indexer
    with pytest.raises(UnknownNodeError):
        indexer.index_of("z")
    with pytest.raises(IndexError):
        indexer.node_at(2)
    assert indexer.node_at(-1) == "y"
    grown = indexer.extended(["w"])
    assert grown.ids == ["x", "y", "w"]
    assert grown._index == {"x": 0, "y": 1, "w": 2}


@pytest.fixture
def view(tiny_db):
    return MatrixView(tiny_db)


def test_adjacency_entries(view, tiny_db):
    matrix = view.adjacency("a")
    indexer = view.indexer
    for source, _, target in tiny_db.edges("a"):
        assert matrix[indexer.index_of(source), indexer.index_of(target)] == 1
    assert matrix.sum() == len(list(tiny_db.edges("a")))


def test_adjacency_cached(view):
    assert view.adjacency("a") is view.adjacency("a")


def test_identity_and_zeros(view):
    n = view.num_nodes()
    assert (view.identity() != sp.identity(n)).nnz == 0
    assert view.zeros().nnz == 0


def test_combined_adjacency_sums_labels(view, tiny_db):
    combined = view.combined_adjacency()
    assert combined.sum() == tiny_db.num_edges()


def test_combined_adjacency_symmetric(view):
    combined = view.combined_adjacency(symmetric=True)
    assert (combined != combined.T).nnz == 0


def test_shared_indexer_across_views(tiny_db):
    view1 = MatrixView(tiny_db)
    view2 = MatrixView(tiny_db.copy(), indexer=view1.indexer)
    assert (view1.adjacency("a") != view2.adjacency("a")).nnz == 0


def test_view_keeps_an_empty_shared_indexer(dblp_small):
    view = MatrixView(dblp_small.database, indexer=NodeIndexer([]))
    assert view.num_nodes() == 0
    assert view.adjacency("p-in").shape == (0, 0)


def test_shared_indexer_ignores_extra_nodes(tiny_db):
    indexer = MatrixView(tiny_db).indexer
    bigger = tiny_db.copy()
    bigger.add_edge(99, "a", 98)
    view = MatrixView(bigger, indexer=indexer)
    # edges among indexed nodes only
    assert view.adjacency("a").sum() == len(list(tiny_db.edges("a")))


def test_views_keep_their_node_count_when_the_database_grows(tiny_db):
    lazy = MatrixView(tiny_db)
    lazy.adjacency("a")  # built before the writes
    detached = MatrixView(tiny_db).detach()
    old_ids = list(tiny_db.nodes())
    tiny_db.add_edges([(9, "a", 1), (1, "a", 9), (3, "a", 4), (4, "c", 4)])
    tiny_db.add_node("late", "kind")
    for grown in (lazy, detached):
        assert grown.num_nodes() == len(old_ids)
        assert list(grown.nodes()) == old_ids
        for node in (9, "late"):
            assert node not in grown.indexer
            with pytest.raises(UnknownNodeError):
                grown.indexer.index_of(node)
        assert not grown.has_edge(9, "a", 1)
        assert not grown.has_edge(1, "a", 9)
        # A label built before the writes keeps the old version's edges.
        assert not grown.has_edge(3, "a", 4)
    # The lazy view never builds a label from the written database: it
    # raises instead of mixing two versions, detaching included.
    for read in (
        lambda: lazy.adjacency("c"),
        lazy.used_labels,
        lazy.candidate_index,
        lazy.detach,
    ):
        with pytest.raises(EvaluationError, match="detach"):
            read()
    assert list(MatrixView(tiny_db).detach().nodes())[-2:] == [9, "late"]
    # Retyping a node in the database reaches no view made before it.
    tiny_db.add_node(1, "kind")
    assert detached.node_type(1) is None and lazy.node_type(1) is None
    # A node-adding delta on the detached view appends a fresh position
    # to its next version and copies none of the database's later
    # entries; the receiver keeps its own.
    grown, _ = detached.apply_delta(edges_added=[("fresh", "a", 1)])
    assert grown.indexer.ids == old_ids + ["fresh"]
    assert grown.indexer._index == {
        node: i for i, node in enumerate(old_ids + ["fresh"])
    }
    assert grown.has_edge("fresh", "a", 1)
    assert detached.indexer.ids == old_ids
    assert not detached.has_node("fresh")
    assert not tiny_db.has_node("fresh")


def test_view_leaves_out_nodes_the_database_gains_later(tiny_db):
    # Even an id the caller's indexer holds stays out of the matrices
    # when the database gains it only after the view was made: a view
    # detached before the write leaves it out, and a lazy one raises.
    indexer = NodeIndexer(list(tiny_db.nodes()) + ["late"])
    view = MatrixView(tiny_db, indexer=indexer)
    detached = MatrixView(tiny_db, indexer=indexer).detach()
    tiny_db.add_edge("late", "a", 1)
    for stale in (view, detached):
        assert stale.num_nodes() == len(indexer)
    with pytest.raises(EvaluationError):
        view.has_edge("late", "a", 1)
    assert not detached.has_edge("late", "a", 1)
    assert detached.adjacency("a").sum() == len(list(tiny_db.edges("a"))) - 1


def test_boolean_thresholds_counts():
    matrix = sp.csr_matrix(np.array([[0.0, 2.0], [3.0, 0.0]]))
    result = boolean(matrix)
    assert result.toarray().tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_diagonal_of():
    matrix = sp.csr_matrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert diagonal_of(matrix).toarray().tolist() == [[1.0, 0.0], [0.0, 4.0]]


def test_row_normalize_rows_sum_to_one():
    matrix = sp.csr_matrix(np.array([[1.0, 3.0], [0.0, 0.0]]))
    normalized = row_normalize(matrix)
    rows = np.asarray(normalized.sum(axis=1)).ravel()
    assert rows[0] == pytest.approx(1.0)
    assert rows[1] == 0.0  # zero rows stay zero


def test_column_normalize_columns_sum_to_one():
    matrix = sp.csr_matrix(np.array([[1.0, 0.0], [3.0, 0.0]]))
    normalized = column_normalize(matrix)
    cols = np.asarray(normalized.sum(axis=0)).ravel()
    assert cols[0] == pytest.approx(1.0)
    assert cols[1] == 0.0


# ----------------------------------------------------------------------
# Bulk _build parity against the per-edge oracle
# ----------------------------------------------------------------------
def _reference_build(database, indexer, label):
    """The historical per-edge loop, kept as the parity oracle."""
    rows, cols = [], []
    for source, _, target in database.edges(label):
        if source in indexer and target in indexer:
            rows.append(indexer.index_of(source))
            cols.append(indexer.index_of(target))
    n = len(indexer)
    data = np.ones(len(rows), dtype=np.float64)
    matrix = sp.csr_matrix(
        (data, (rows, cols)), shape=(n, n), dtype=np.float64
    )
    matrix.sum_duplicates()
    return matrix


def _assert_matches_reference(view, database, label):
    built = view.adjacency(label)
    expected = _reference_build(database, view.indexer, label)
    assert np.array_equal(built.indptr, expected.indptr), label
    assert np.array_equal(built.indices, expected.indices), label
    assert np.array_equal(built.data, expected.data), label
    assert built.indptr.dtype == expected.indptr.dtype, label
    assert built.indices.dtype == expected.indices.dtype, label
    assert built.has_canonical_format and expected.has_canonical_format


def test_build_matches_per_edge_loop(tiny_db, dblp_small):
    # generate_dblp_scale has power-law degrees.
    power_law = generate_dblp_scale(10**5, seed=0).database
    for database in (tiny_db, dblp_small.database, power_law):
        view = MatrixView(database)
        for label in sorted(database.used_labels()):
            _assert_matches_reference(view, database, label)


def test_build_matches_per_edge_loop_shared_indexer(tiny_db, tiny_schema):
    # Shared-indexer case: the database has nodes the view's ordering
    # lacks; the bulk path must skip them exactly like the old loop.
    indexer = NodeIndexer(tiny_db.nodes())
    bigger = tiny_db.copy()
    bigger.add_edges([(99, "a", 1), (1, "a", 98), (99, "b", 98)])
    view = MatrixView(bigger, indexer=indexer)
    for label in sorted(bigger.used_labels()):
        _assert_matches_reference(view, bigger, label)


_NODE_IDS = [0, 1, 2, "x", "y", ("t", 0), ("t", 1)]


@st.composite
def _views(draw):
    """``(database, view)``: a small mixed-id database (self-loops
    allowed, schema label "c" never used) and a view over it, optionally
    through a shared indexer over a drawn subset of the ids in a drawn
    order, plus ids the database lacks.  The database may also hold
    edges to a node no indexer holds."""

    def edges(ids):
        return st.lists(
            st.tuples(
                st.sampled_from(ids),
                st.sampled_from(["a", "b"]),
                st.sampled_from(ids),
            ),
            max_size=30,
        )

    database = GraphDatabase(Schema(["a", "b", "c"]))
    database.add_edges(draw(edges(_NODE_IDS)))
    database.add_edges(draw(edges(list(database.nodes()) + ["late"])))
    indexer = None
    if draw(st.booleans()):
        indexer = NodeIndexer(
            draw(
                st.lists(
                    st.sampled_from(_NODE_IDS + [99, "extra"]), unique=True
                )
            )
        )
    return database, MatrixView(database, indexer=indexer)


@given(_views())
@settings(max_examples=150, deadline=None)
def test_build_matches_per_edge_loop_property(drawn):
    database, view = drawn
    for label in sorted(database.schema.labels):
        _assert_matches_reference(view, database, label)


# ----------------------------------------------------------------------
# csr_product parity against SciPy's product, canonicalized
# ----------------------------------------------------------------------
def _csr(n, cells):
    rows, cols, vals = zip(*cells) if cells else ((), (), ())
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n), dtype=np.float64)


@st.composite
def _operands(draw):
    """Square CSR pairs: empty products, fewer rows than blocks, one
    heavy row, values that cancel to zero, int32 or int64 indices."""
    n = draw(st.integers(0, 9))
    cell = st.tuples(
        st.integers(0, max(n - 1, 0)),
        st.integers(0, max(n - 1, 0)),
        st.sampled_from([-2.0, -1.0, 1.0, 3.0]),
    )
    operands = []
    for _ in range(2):
        cells = draw(st.lists(cell, max_size=4 * n)) if n else []
        if n and draw(st.booleans()):  # one heavy row
            heavy = draw(st.integers(0, n - 1))
            cells += [(heavy, col, 1.0) for col in range(n)]
        matrix = _csr(n, cells)
        if draw(st.booleans()):
            matrix = _upcast(matrix)
        operands.append(matrix)
    return operands


def _assert_bitwise(actual, expected):
    assert actual.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        a, e = getattr(actual, name), getattr(expected, name)
        assert a.dtype == e.dtype, name
        assert np.array_equal(a, e), name
    assert actual.has_canonical_format and expected.has_canonical_format


# Block 1 cancels to nothing and block 2 keeps its entry: the kept
# entry must move down into the gap block 1 left.
@example(
    operands=[_csr(2, [(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0)]),
              _csr(2, [(0, 0, 1.0), (1, 0, -1.0)])],
    blocks=2,
)
@given(operands=_operands(), blocks=st.integers(1, 8))
@settings(max_examples=300, deadline=None)
def test_csr_product_matches_canonical_scipy_product(operands, blocks):
    left, right = operands
    expected = canonical(left @ right)
    # With int64 operands SciPy picks the product's index dtype by
    # reading its whole buffer, unwritten tail included when entries
    # cancelled; the oracle's dtype comes from the entries alone.
    expected = type(expected)(
        (expected.data, expected.indices, expected.indptr),
        shape=expected.shape,
    )
    expected.has_canonical_format = True
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrices, "PARALLEL_PRODUCT_FLOPS", 0)
        patch.setattr(matrices, "usable_cores", lambda: blocks)
        _assert_bitwise(csr_product(left, right), expected)


def test_csr_product_runs_small_products_inline(monkeypatch):
    # Below the threshold no thread starts and no flop count is taken.
    def refuse(*args, **kwargs):
        raise AssertionError("a small product started threads")

    monkeypatch.setattr(matrices, "ThreadPoolExecutor", refuse)
    monkeypatch.setattr(matrices, "usable_cores", refuse)
    view = MatrixView(generate_dblp_scale(10**4, seed=0).database)
    left, right = view.adjacency("w").T.tocsr(), view.adjacency("w")
    expected = canonical(left @ right)
    _assert_bitwise(csr_product(left, right), expected)


def test_csr_product_balances_blocks_by_flops(monkeypatch):
    # One heavy row carries most of the multiply-adds: it gets a block
    # of its own instead of a third of the rows.
    monkeypatch.setattr(matrices, "PARALLEL_PRODUCT_FLOPS", 0)
    monkeypatch.setattr(matrices, "usable_cores", lambda: 2)
    n = 30
    left = _csr(n, [(0, col, 1.0) for col in range(n)]
                + [(row, row, 1.0) for row in range(1, n)])
    right = _csr(n, [(row, col, 1.0) for row in range(n) for col in range(n)])
    bounds = matrices._row_blocks(left, np.diff(right.indptr))
    assert bounds.tolist() == [0, 1, n]


def test_csr_product_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        csr_product(sp.csr_matrix((2, 3)), sp.csr_matrix((2, 3)))
