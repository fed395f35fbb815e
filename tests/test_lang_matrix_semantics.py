"""Unit tests for commuting matrices, cross-checked against enumeration."""

import pytest

from repro.exceptions import StarDivergenceError
from repro.graph import GraphDatabase, Schema
from repro.lang import (
    CommutingMatrixEngine,
    enumerate_instances,
    parse_pattern,
)


@pytest.fixture
def engine(tiny_db):
    return CommutingMatrixEngine(tiny_db)


def assert_matches_enumeration(db, engine, text):
    """The core Section-4.3 claim: M_p[u,v] == |I^{u,v}(p)|."""
    pattern = parse_pattern(text)
    instances = enumerate_instances(db, pattern)
    matrix = engine.matrix(pattern)
    indexer = engine.indexer
    for u in db.nodes():
        for v in db.nodes():
            assert matrix[
                indexer.index_of(u), indexer.index_of(v)
            ] == pytest.approx(instances.count(u, v)), (text, u, v)


@pytest.mark.parametrize(
    "text",
    [
        "eps",
        "a",
        "a-",
        "a.b",
        "b-.a-",
        "a+b",
        "a+a",
        "<<a.b>>",
        "[a]",
        "[a.b]",
        "a.[b]",
        "<<a>>.b",
        "b*",
        "(a+b).b",
        "[a-]",
        "<<a.b>>-",
    ],
)
def test_matrix_equals_enumeration(tiny_db, engine, text):
    assert_matches_enumeration(tiny_db, engine, text)


def test_matrix_cache(engine):
    pattern = parse_pattern("a.b")
    assert engine.matrix(pattern) is engine.matrix(pattern)


def test_star_divergence(engine):
    with pytest.raises(StarDivergenceError):
        engine.matrix(parse_pattern("c*"))


def test_count_accessor(tiny_db, engine):
    assert engine.count(parse_pattern("a.b"), 1, 4) == 2.0


def test_pathsim_score_formula(tiny_db, engine):
    pattern = parse_pattern("a.a-")
    matrix = engine.matrix(pattern)
    indexer = engine.indexer
    u, v = 1, 2
    expected = (
        2.0
        * matrix[indexer.index_of(u), indexer.index_of(v)]
        / (
            matrix[indexer.index_of(u), indexer.index_of(u)]
            + matrix[indexer.index_of(v), indexer.index_of(v)]
        )
    )
    assert engine.pathsim_score(pattern, u, v) == pytest.approx(expected)


def test_pathsim_score_zero_denominator(tiny_db, engine):
    # Node 5 has no a-edges at all.
    assert engine.pathsim_score(parse_pattern("a.a-"), 5, 5) == 0.0


def test_pathsim_self_similarity_is_one(tiny_db, engine):
    pattern = parse_pattern("a.a-")
    assert engine.pathsim_score(pattern, 1, 1) == pytest.approx(1.0)


def test_pathsim_scores_vector_matches_scalar(tiny_db, engine):
    pattern = parse_pattern("a.a-")
    vector = engine.pathsim_scores_from(pattern, 1)
    for node in tiny_db.nodes():
        assert vector[engine.indexer.index_of(node)] == pytest.approx(
            engine.pathsim_score(pattern, 1, node)
        )


def test_materialize_simple_patterns(tiny_db):
    engine = CommutingMatrixEngine(tiny_db)
    cached = engine.materialize_simple_patterns(max_length=2, labels=["a", "b"])
    # 4 steps (a, a-, b, b-): 4 of length 1 + 16 of length 2 = 20 patterns,
    # plus intermediate sub-matrices; at least the 20 are present.
    assert cached >= 20
    assert engine.cache_size() == cached


def test_type_error_on_string(engine):
    with pytest.raises(TypeError):
        engine.matrix("a")


def test_union_deduplicates_like_paper(tiny_db, engine):
    from repro.lang.ast import Label, Union

    single = engine.matrix(Label("a"))
    doubled = engine.matrix(Union([Label("a"), Label("a")]))
    assert (single != doubled).nnz == 0


def test_shared_indexer_alignment(tiny_db):
    from repro.graph import MatrixView

    view = MatrixView(tiny_db)
    clone_view = MatrixView(tiny_db.copy(), indexer=view.indexer)
    engine_a = CommutingMatrixEngine(view)
    engine_b = CommutingMatrixEngine(clone_view)
    pattern = parse_pattern("a.b")
    assert (
        engine_a.matrix(pattern) != engine_b.matrix(pattern)
    ).nnz == 0


# ----------------------------------------------------------------------
# LRU recency and materialization under a memory budget
# ----------------------------------------------------------------------
def test_column_norm_hit_refreshes_matrix_recency(tiny_db):
    # A norms hit is a use of the pattern's whole cache record: it must
    # refresh the LRU slot, or a hot pattern's matrix is evicted and
    # the next score pays a recompute.
    pa, pb, pc = (parse_pattern(text) for text in ("a", "b", "c"))
    probe = CommutingMatrixEngine(tiny_db)
    probe.column_norms(pa)
    record_a = probe.cache_info()["bytes"]
    probe.matrix(pb)
    record_b = probe.cache_info()["bytes"] - record_a
    probe.matrix(pc)
    record_c = probe.cache_info()["bytes"] - record_a - record_b
    # Room for pa's record plus one more matrix, never all three.
    engine = CommutingMatrixEngine(
        tiny_db, memory_budget=record_a + max(record_b, record_c)
    )
    engine.matrix(pa)
    engine.column_norms(pa)
    engine.matrix(pb)
    engine.column_norms(pa)  # hit: refreshes pa's matrix recency
    engine.matrix(pc)  # evicts pb (the true LRU), not pa
    assert engine.cache_info()["spilled"] == 1
    misses = engine.cache_info()["misses"]
    engine.matrix(pa)
    assert engine.cache_info()["misses"] == misses


def _materialized_bytes(database):
    full = CommutingMatrixEngine(database)
    full.materialize_simple_patterns(max_length=2, labels=["a", "b"])
    return full.cache_info()["bytes"]


def test_materialize_over_cache_cap_raises(tiny_db):
    from repro.exceptions import EvaluationError

    # 4 steps (a, a-, b, b-): 4 + 16 = 20 patterns will not fit in a
    # third of their bytes; silently thrashing the LRU and returning a
    # capped count would be misleading.
    budget = _materialized_bytes(tiny_db) // 3
    engine = CommutingMatrixEngine(tiny_db, memory_budget=budget)
    with pytest.raises(EvaluationError):
        engine.materialize_simple_patterns(max_length=2, labels=["a", "b"])


def test_materialize_under_cache_cap_succeeds(tiny_db):
    # The guard plans on nnz estimates, which run above the measured
    # bytes; twice the measured size leaves room for the estimate.
    budget = 2 * _materialized_bytes(tiny_db)
    engine = CommutingMatrixEngine(tiny_db, memory_budget=budget)
    cached = engine.materialize_simple_patterns(
        max_length=2, labels=["a", "b"]
    )
    assert cached >= 20
