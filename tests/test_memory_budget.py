"""Byte-budget tests: eviction, spill, streaming, and result parity.

The memory budget must change *where* matrices live (cache vs
recompute) without ever changing *what* a query returns — every test
here compares budgeted runs against unbudgeted ones bitwise.
"""

import math

import numpy as np
import pytest

from repro.api import SimilarityService, SimilaritySession
from repro.exceptions import ConfigurationError, EvaluationError
from repro.lang import CommutingMatrixEngine, parse_pattern
from repro.lang.plan import estimate_bytes

PATTERN = "r-a-.p-in.p-in-.r-a"

# Registry name -> constructor options (pattern-based algorithms need
# one; the structural baselines run on the whole graph).
ALGORITHM_OPTIONS = {
    "relsim": {"pattern": PATTERN},
    "pathsim": {"pattern": PATTERN},
    "hetesim": {"pattern": PATTERN},
    "rwr": {},
    "simrank": {"iterations": 3},
    "pattern-rwr": {"pattern": PATTERN},
    "pattern-simrank": {"pattern": PATTERN, "iterations": 3},
    "common-neighbors": {},
    "katz": {},
}

CHAIN_PATTERNS = ["w-.w", "w-.w.w-.w", "r-a-.p-in.p-in-.r-a", "w.w-"]


def assert_same_rankings(lhs, rhs):
    assert set(lhs) == set(rhs)
    for query in lhs:
        assert lhs[query].items() == rhs[query].items(), query


def assert_same_matrix(left, right):
    assert left.shape == right.shape
    assert np.array_equal(left.indptr, right.indptr)
    assert np.array_equal(left.indices, right.indices)
    assert np.array_equal(left.data, right.data)


# ----------------------------------------------------------------------
# Configuration and reporting
# ----------------------------------------------------------------------
def test_memory_budget_validation(fig1):
    with pytest.raises(ConfigurationError):
        CommutingMatrixEngine(fig1, memory_budget=0)
    with pytest.raises(ConfigurationError):
        CommutingMatrixEngine(fig1, memory_budget=-5)
    engine = CommutingMatrixEngine(fig1, memory_budget=1 << 20)
    assert engine.memory_budget == 1 << 20
    assert CommutingMatrixEngine(fig1).memory_budget is None


def test_cache_info_reports_budget_fields(fig1):
    engine = CommutingMatrixEngine(fig1, memory_budget=1 << 20)
    info = engine.cache_info()
    assert info["memory_budget"] == 1 << 20
    assert info["budget_used"] == info["bytes"]
    assert info["spilled"] == 0
    assert info["streamed"] == 0
    unbudgeted = CommutingMatrixEngine(fig1).cache_info()
    assert unbudgeted["memory_budget"] is None


def test_session_and_service_forward_budget(fig1):
    session = SimilaritySession(fig1, memory_budget=123456)
    assert session.engine.memory_budget == 123456
    service = SimilarityService(fig1, memory_budget=123456)
    assert service.session.engine.memory_budget == 123456


# ----------------------------------------------------------------------
# Eviction and spill
# ----------------------------------------------------------------------
def test_budget_invariant_holds_after_every_query(dblp_small):
    database = dblp_small.database
    reference = CommutingMatrixEngine(database)
    for text in CHAIN_PATTERNS:
        reference.matrix(parse_pattern(text))
    peak = reference.cache_info()["bytes"]
    assert peak > 0

    budget = max(peak // 3, 1)
    engine = CommutingMatrixEngine(database, memory_budget=budget)
    for text in CHAIN_PATTERNS:
        expected = reference.matrix(parse_pattern(text))
        actual = engine.matrix(parse_pattern(text))
        assert_same_matrix(actual, expected)
        assert engine.cache_info()["bytes"] <= budget, text
    info = engine.cache_info()
    # A third of the peak cannot hold everything: the budget must have
    # actually evicted, not just fit by luck.
    assert info["spilled"] > 0
    assert info["bytes"] < peak


def test_oversized_product_spills_but_query_completes(dblp_small):
    database = dblp_small.database
    pattern = parse_pattern("w-.w")
    expected = CommutingMatrixEngine(database).matrix(pattern)
    # One byte: nothing fits, every publish spills immediately.
    engine = CommutingMatrixEngine(database, memory_budget=1)
    assert_same_matrix(engine.matrix(pattern), expected)
    info = engine.cache_info()
    assert info["matrices"] == 0
    assert info["bytes"] == 0
    assert info["spilled"] > 0
    # The spilled entry is recomputed on the next use, same answer.
    assert_same_matrix(engine.matrix(pattern), expected)


def test_budget_eviction_drops_derived_state_with_matrix(dblp_small):
    database = dblp_small.database
    engine = CommutingMatrixEngine(
        database, memory_budget=512 * 1024 * 1024
    )
    for text in CHAIN_PATTERNS:
        engine.matrix(parse_pattern(text))
        engine.column_norms(parse_pattern(text))
        engine.diagonal(parse_pattern(text))
    info = engine.cache_info()
    assert info["column_norms"] > 0 and info["diagonals"] > 0
    # Shrink the budget below one matrix and force an eviction pass:
    # every vector must leave with its matrix, no orphans.
    engine._memory_budget = 1
    with engine._lock:
        engine._evict()
    info = engine.cache_info()
    assert info["matrices"] == 0
    assert info["column_norms"] == 0
    assert info["diagonals"] == 0
    assert info["bytes"] == 0


def test_budget_holds_after_apply_delta(dblp_small):
    database = dblp_small.database.copy()
    reference = CommutingMatrixEngine(database.copy())
    for text in CHAIN_PATTERNS:
        reference.matrix(parse_pattern(text))
    budget = max(reference.cache_info()["bytes"] // 3, 1)

    engine = CommutingMatrixEngine(database, memory_budget=budget)
    for text in CHAIN_PATTERNS:
        engine.matrix(parse_pattern(text))
    authors = database.nodes_of_type("author")
    papers = database.nodes_of_type("paper")
    engine.apply_delta(edges_added=[(authors[0], "w", papers[-1])])
    assert engine.cache_info()["bytes"] <= budget


# ----------------------------------------------------------------------
# Warm-set and materialization guards
# ----------------------------------------------------------------------
def test_warm_exceeds_limits_by_bytes(dblp_small):
    database = dblp_small.database
    patterns = [parse_pattern(text) for text in CHAIN_PATTERNS]
    probe = CommutingMatrixEngine(database)
    assert not probe.warm_exceeds_limits(patterns)
    tight = CommutingMatrixEngine(database, memory_budget=1)
    assert tight.warm_exceeds_limits(patterns)
    # The check plans on nnz estimates: a budget of exactly the first
    # two patterns' estimate admits them and refuses the whole set.
    n = probe.view.num_nodes()
    budget = math.ceil(
        sum(
            estimate_bytes(
                probe.compile(pattern),
                lambda label: probe.view.adjacency(label).nnz,
                n,
            )
            for pattern in patterns[:2]
        )
    )
    capped = CommutingMatrixEngine(database, memory_budget=budget)
    assert capped.warm_exceeds_limits(patterns)
    assert not capped.warm_exceeds_limits(patterns[:2])


@pytest.mark.parametrize(
    "name, options",
    [("pathsim", {}), ("relsim", {}), ("relsim", {"scoring": "count"})],
)
def test_prepared_queries_hold_nothing_outside_the_budget(
    dblp_small, name, options
):
    # w-.w.w-.w is estimated at ~6 KB but its product is ~57 KB: the
    # estimate lets the set warm, the engine spills the product, and a
    # prepared query must not keep it alive behind the budget's back.
    database = dblp_small.database
    pattern = "w-.w.w-.w"
    probe = CommutingMatrixEngine(database)
    plan = probe.compile(parse_pattern(pattern))
    matrix = probe.matrix(parse_pattern(pattern))
    estimate = estimate_bytes(
        plan, lambda label: probe.view.adjacency(label).nnz,
        probe.view.num_nodes(),
    )
    budget = int(2 * estimate)
    assert budget < matrix.data.nbytes + matrix.indices.nbytes
    queries = database.nodes_of_type("paper")[:3]
    expected = SimilaritySession(database).prepare(
        algorithm=name, pattern=pattern, top_k=10, **options
    ).run_many(queries)
    assert all(len(ranking) for ranking in expected.values())

    session = SimilaritySession(database, memory_budget=budget)
    assert not session.engine.warm_exceeds_limits([parse_pattern(pattern)])
    prepared = session.prepare(
        algorithm=name, pattern=pattern, top_k=10, **options
    )
    for _ in range(3):
        misses = session.cache_info()["misses"]
        assert_same_rankings(prepared.run_many(queries), expected)
        info = session.cache_info()
        assert info["misses"] > misses
        assert info["budget_used"] <= budget


def test_materialize_refuses_budget_it_cannot_fit(dblp_small):
    engine = CommutingMatrixEngine(dblp_small.database, memory_budget=1)
    with pytest.raises(EvaluationError):
        engine.materialize_simple_patterns(max_length=2)


# ----------------------------------------------------------------------
# Result parity: every algorithm, budgeted vs unbudgeted
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(ALGORITHM_OPTIONS))
def test_tight_budget_rankings_bitwise_identical(fig1, name):
    queries = ["DataMining", "Databases"]
    baseline = SimilaritySession(fig1)
    expected = baseline.rank_many(
        queries, algorithm=name, **ALGORITHM_OPTIONS[name]
    )
    # ~64 KiB on the Figure-1 fragment: room for a matrix or two, far
    # too small for a warm pattern set — the spill path must carry the
    # query to the same answer.
    session = SimilaritySession(fig1, memory_budget=1 << 16)
    actual = session.rank_many(
        queries, algorithm=name, **ALGORITHM_OPTIONS[name]
    )
    assert_same_rankings(actual, expected)


# ----------------------------------------------------------------------
# Streamed chain execution parity
# ----------------------------------------------------------------------
def test_streamed_chain_parity(dblp_small, monkeypatch):
    """Row-blocked chain products are bitwise-identical to whole ones.

    Forces tiny row blocks (a few KiB) so every chain splits into many
    blocks; counts are integers exact in float64, so the re-association
    must not change a single bit.
    """
    database = dblp_small.database
    reference = CommutingMatrixEngine(database)
    engine = CommutingMatrixEngine(database, memory_budget=1 << 30)
    monkeypatch.setattr(engine, "_chunk_budget", lambda: 4096)
    for text in CHAIN_PATTERNS:
        plan = engine.compile(parse_pattern(text))
        if plan.kind != "chain":
            continue
        streamed = engine._canonicalize(engine._streamed_chain(plan))
        assert_same_matrix(streamed, reference.matrix(parse_pattern(text)))
    assert engine.cache_info()["streamed"] > 0


def test_streaming_engages_under_budget_end_to_end(dblp_small, monkeypatch):
    database = dblp_small.database
    pattern = parse_pattern("w-.w.w-.w")
    expected = CommutingMatrixEngine(database).matrix(pattern)
    engine = CommutingMatrixEngine(database, memory_budget=1 << 30)
    # Small databases never trip the 1 MiB chunk floor; drop it so the
    # full _should_stream -> _streamed_chain path runs in-tree.
    monkeypatch.setattr(engine, "_chunk_budget", lambda: 2048)
    assert_same_matrix(engine.matrix(pattern), expected)
    assert engine.cache_info()["streamed"] > 0


def test_budget_parity_with_split_products(
    dblp_small, fig1, monkeypatch, split_products
):
    # The parity tests above with every product, the streamed chain's
    # row-block products included, run as threaded blocks.
    test_streamed_chain_parity(dblp_small, monkeypatch)
    test_streaming_engages_under_budget_end_to_end(dblp_small, monkeypatch)
    for name in sorted(ALGORITHM_OPTIONS):
        test_tight_budget_rankings_bitwise_identical(fig1, name)


def test_no_streaming_without_budget(dblp_small):
    engine = CommutingMatrixEngine(dblp_small.database)
    engine.matrix(parse_pattern("w-.w.w-.w"))
    info = engine.cache_info()
    assert info["streamed"] == 0
    assert info["spilled"] == 0
