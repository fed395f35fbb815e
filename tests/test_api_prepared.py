"""Tests for PreparedQuery: parity, warming, and the adapter paths."""

import pytest

from repro.api import PreparedQuery, SimilaritySession, register_algorithm
from repro.api.registry import (
    _PARAMETERS_CACHE,
    algorithm_parameters,
    unregister_algorithm,
)
from repro.core import RelSim
from repro.exceptions import EvaluationError, UnknownNodeError
from repro.similarity import SimilarityAlgorithm

PATTERN = "r-a-.p-in.p-in-.r-a"

SEED_ALGORITHMS = (
    "relsim",
    "pathsim",
    "hetesim",
    "rwr",
    "simrank",
    "pattern-rwr",
    "pattern-simrank",
    "common-neighbors",
    "katz",
)


def _constructor_options(name):
    if name in ("relsim", "pathsim", "hetesim", "pattern-rwr",
                "pattern-simrank"):
        return {"pattern": PATTERN}
    return {}


# ----------------------------------------------------------------------
# Parity: prepared results == one-shot results, all 9 seed algorithms
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", SEED_ALGORITHMS)
def test_prepared_run_matches_query_builder_top(fig1, name):
    session = SimilaritySession(fig1)
    options = _constructor_options(name)
    prepared = session.prepare(algorithm=name, top_k=10, **options)
    queries = ["DataMining", "Databases", "SoftwareEngineering"]
    for query in queries:
        expected = session.query(query).using(name, **options).top(10)
        assert prepared.run(query).items() == expected.items()


@pytest.mark.parametrize("name", SEED_ALGORITHMS)
def test_prepared_run_many_matches_session_rank_many(fig1, name):
    session = SimilaritySession(fig1)
    options = _constructor_options(name)
    prepared = session.prepare(algorithm=name, top_k=5, **options)
    queries = ["DataMining", "Databases"]
    batch = prepared.run_many(queries)
    expected = session.rank_many(
        queries, algorithm=name, top_k=5, **options
    )
    assert set(batch) == set(expected)
    for query in queries:
        assert batch[query].items() == expected[query].items()


@pytest.mark.parametrize("scoring", ("pathsim", "count", "cosine"))
def test_prepared_matches_unprepared_for_every_scoring(dblp_small, scoring):
    database = dblp_small.database
    session = SimilaritySession(database)
    queries = [n for n in database.nodes_of_type("area")][:4]
    prepared = session.prepare(
        algorithm="relsim", pattern=PATTERN, scoring=scoring, top_k=5
    )
    unprepared = session.algorithm(
        "relsim", pattern=PATTERN, scoring=scoring
    )
    assert prepared.algorithm.is_prepared
    assert not unprepared.is_prepared
    for query in queries:
        assert (
            prepared.run(query).items()
            == unprepared.rank(query, top_k=5).items()
        )


def test_prepared_expansion_matches_builder_expansion(dblp_small):
    database = dblp_small.database
    session = SimilaritySession(database)
    query = next(iter(database.nodes_of_type("area")))
    prepared = session.prepare(
        algorithm="relsim",
        pattern="p-in.p-in-",
        expand={"max_patterns": 8},
        top_k=5,
    )
    builder = (
        session.query(query)
        .using("relsim", pattern="p-in.p-in-")
        .expand_patterns(max_patterns=8)
    )
    assert prepared.run(query).items() == builder.rank(top_k=5).items()
    assert prepared.patterns == builder.patterns_used
    assert len(prepared.patterns) >= 1


# ----------------------------------------------------------------------
# Preparation semantics
# ----------------------------------------------------------------------
def test_prepare_warms_matrices_hot_path_hits_no_engine_misses(fig1):
    session = SimilaritySession(fig1)
    prepared = session.prepare(algorithm="relsim", pattern=PATTERN, top_k=5)
    misses = session.cache_info()["misses"]
    prepared.run("DataMining")
    prepared.run("Databases")
    assert session.cache_info()["misses"] == misses


def test_prepare_top_k_default_and_override(fig1):
    session = SimilaritySession(fig1)
    prepared = session.prepare(algorithm="relsim", pattern=PATTERN, top_k=2)
    assert prepared.top_k == 2
    assert len(prepared.run("DataMining")) <= 2
    full = prepared.run("DataMining", top_k=None)
    assert len(full) >= len(prepared.run("DataMining"))


def test_prepared_explain_reuses_plan_report(fig1):
    session = SimilaritySession(fig1)
    prepared = session.prepare(algorithm="relsim", pattern=PATTERN)
    report = prepared.explain()
    assert "canonical:" in report
    assert "order:" in report
    with pytest.raises(EvaluationError):
        session.prepare(algorithm="rwr").explain()


def test_prepared_from_instance_and_rejections(fig1):
    session = SimilaritySession(fig1)
    instance = session.algorithm("relsim", pattern=PATTERN)
    prepared = session.prepare(algorithm=instance, top_k=5)
    assert prepared.algorithm is instance
    assert prepared.algorithm_name is None
    with pytest.raises(TypeError):
        session.prepare(algorithm=instance, pattern=PATTERN)
    with pytest.raises(EvaluationError):
        session.prepare(algorithm=instance, expand=True)
    with pytest.raises(EvaluationError):
        prepared.rebind(SimilaritySession(fig1))


def test_prepared_rebind_switches_snapshot(fig1):
    session = SimilaritySession(fig1)
    prepared = session.prepare(algorithm="relsim", pattern=PATTERN, top_k=5)
    before = prepared.run("DataMining")
    other = SimilaritySession(fig1)
    old_algorithm = prepared.algorithm
    prepared.rebind(other)
    assert prepared.session is other
    assert prepared.algorithm is not old_algorithm
    assert prepared.run("DataMining").items() == before.items()


def test_prepared_expand_normalization_errors(fig1):
    session = SimilaritySession(fig1)
    with pytest.raises(EvaluationError):
        session.prepare(algorithm="relsim", pattern=PATTERN,
                        expand={"bogus": 1})
    with pytest.raises(TypeError):
        session.prepare(algorithm="relsim", pattern=PATTERN, expand=42)
    with pytest.raises(EvaluationError):
        session.prepare(algorithm="rwr", expand=True)


def test_prepared_unknown_query_raises(fig1):
    session = SimilaritySession(fig1)
    prepared = session.prepare(algorithm="relsim", pattern=PATTERN)
    with pytest.raises(UnknownNodeError):
        prepared.run("ghost")


def test_prepare_scoring_is_idempotent(fig1):
    algorithm = RelSim(fig1, PATTERN)
    algorithm.prepare_scoring()
    state = algorithm._prepared_state
    algorithm.prepare_scoring()
    assert algorithm._prepared_state is state


def test_prepare_scoring_respects_lru_cap(fig1):
    patterns = [PATTERN, "r-a-.r-a"]
    peak = SimilaritySession(fig1)
    peak.prepare(algorithm="relsim", patterns=patterns, top_k=5)
    session = SimilaritySession(
        fig1, memory_budget=peak.cache_info()["bytes"] // 8
    )
    prepared = session.prepare(algorithm="relsim", patterns=patterns, top_k=5)
    # Pinning both matrices under a budget far below their size would
    # defeat the budget; the prepared query degrades to the per-call
    # path with identical results.
    assert not prepared.algorithm.is_prepared
    unprepared = session.algorithm("relsim", patterns=patterns)
    assert (
        prepared.run("DataMining", top_k=5).items()
        == unprepared.rank("DataMining", top_k=5).items()
    )


def test_rank_many_does_not_pin_state_on_caller_instances(fig1):
    peak = SimilaritySession(fig1)
    peak.rank_many(["DataMining", "Databases"], pattern=PATTERN, top_k=5)
    session = SimilaritySession(
        fig1, memory_budget=peak.cache_info()["bytes"] // 3
    )
    instance = session.algorithm("relsim", pattern=PATTERN)
    looped = {
        q: instance.rank(q, top_k=5) for q in ("DataMining", "Databases")
    }
    batch = session.rank_many(
        ["DataMining", "Databases"], algorithm=instance, top_k=5
    )
    # One-shot batching on a caller-supplied instance must not pin
    # prepared state (strong matrix refs outliving the engine LRU).
    assert not instance.is_prepared
    for query, ranking in looped.items():
        assert batch[query].items() == ranking.items()


def test_session_prepare_warm_false_binds_without_pinning(fig1):
    session = SimilaritySession(fig1)
    prepared = session.prepare(
        algorithm="relsim", pattern=PATTERN, top_k=5, warm=False
    )
    assert not prepared.algorithm.is_prepared
    warm = session.prepare(algorithm="relsim", pattern=PATTERN, top_k=5)
    assert (
        prepared.run("DataMining").items() == warm.run("DataMining").items()
    )


def test_builder_prepare_upgrade_path(fig1):
    session = SimilaritySession(fig1)
    builder = session.query("DataMining").using("relsim", pattern=PATTERN)
    prepared = builder.prepare(top_k=5)
    assert isinstance(prepared, PreparedQuery)
    assert prepared.algorithm.is_prepared
    assert prepared.run("DataMining").items() == builder.top(5).items()


# ----------------------------------------------------------------------
# Registry parameter cache (satellite)
# ----------------------------------------------------------------------
def test_algorithm_parameters_cached_per_class():
    first = algorithm_parameters("relsim")
    assert RelSim in _PARAMETERS_CACHE
    second = algorithm_parameters("relsim")
    assert first == second
    # Returned lists are copies; mutating one must not poison the cache.
    first.append("bogus")
    assert "bogus" not in algorithm_parameters("relsim")


def test_algorithm_parameters_cache_invalidated_on_replace(fig1):
    class First(SimilarityAlgorithm):
        def __init__(self, database, alpha=1.0):
            super().__init__(database)

        def scores(self, query):
            return {node: 1.0 for node in self.candidates(query)}

    class Second(First):
        def __init__(self, database, beta=2.0):
            super().__init__(database)

    register_algorithm("cache-probe", First)
    try:
        assert "alpha" in algorithm_parameters("cache-probe")
        register_algorithm("cache-probe", Second, replace=True)
        assert First not in _PARAMETERS_CACHE
        assert "beta" in algorithm_parameters("cache-probe")
        assert "alpha" not in algorithm_parameters("cache-probe")
    finally:
        unregister_algorithm("cache-probe")
    assert Second not in _PARAMETERS_CACHE
