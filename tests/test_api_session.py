"""Tests for the SimilaritySession facade, registry, and batch path."""

import pytest

from repro.api import (
    SimilaritySession,
    algorithm_class,
    algorithm_parameters,
    available_algorithms,
    register_algorithm,
    unregister_algorithm,
)
from repro.core import RelSim
from repro.eval import RobustnessExperiment, time_queries
from repro.exceptions import EvaluationError, RegistryError
from repro.graph import GraphDatabase
from repro.lang import parse_pattern
from repro.similarity import PathSim, SimilarityAlgorithm
from repro.transform import dblp2sigm, map_pattern

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


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_all_seed_algorithms_registered():
    names = available_algorithms()
    for name in SEED_ALGORITHMS:
        assert name in names


def test_algorithm_class_resolves_case_insensitively():
    assert algorithm_class("relsim") is RelSim
    assert algorithm_class("RelSim") is RelSim
    assert algorithm_class("PATHSIM") is PathSim


def test_unknown_algorithm_errors():
    with pytest.raises(RegistryError):
        algorithm_class("no-such-algorithm")


def test_register_duplicate_errors_without_replace():
    with pytest.raises(RegistryError):
        register_algorithm("relsim", PathSim)
    # replace=True is the explicit override; restore right away.
    register_algorithm("relsim", PathSim, replace=True)
    try:
        assert algorithm_class("relsim") is PathSim
    finally:
        register_algorithm("relsim", RelSim, replace=True)


def test_register_rejects_non_algorithm_class():
    with pytest.raises(RegistryError):
        register_algorithm("not-an-algorithm", dict)
    with pytest.raises(RegistryError):
        register_algorithm("", RelSim)


def test_session_over_a_database_builds_no_label_matrix(fig1, monkeypatch):
    # Sessions read a caller's database through a lazy view: building
    # one, and reading node types through it, reads no stored edge.
    def refuse(self, label):
        raise AssertionError("label {!r} was built".format(label))

    monkeypatch.setattr(GraphDatabase, "_position_lists", refuse)
    session = SimilaritySession(fig1)
    assert session.view.node_type("DataMining") == "area"
    assert session.view.nodes_of_type("area") == fig1.nodes_of_type("area")
    monkeypatch.undo()
    assert session.view.num_edges() == fig1.num_edges()


def test_register_and_unregister_custom_algorithm(fig1):
    class Constant(SimilarityAlgorithm):
        name = "Constant"

        def scores(self, query):
            return {node: 1.0 for node in self.candidates(query)}

    register_algorithm("constant", Constant)
    try:
        session = SimilaritySession(fig1)
        ranking = session.query("DataMining").using("constant").rank()
        assert len(ranking) > 0
    finally:
        unregister_algorithm("constant")
    with pytest.raises(RegistryError):
        algorithm_class("constant")
    with pytest.raises(RegistryError):
        unregister_algorithm("constant")


def test_algorithm_parameters_lists_constructor_keywords():
    parameters = algorithm_parameters("relsim")
    assert "patterns" in parameters
    assert "engine" in parameters
    assert "self" not in parameters


# ----------------------------------------------------------------------
# Session: engine sharing
# ----------------------------------------------------------------------
def test_session_algorithms_share_engine_and_matrices(fig1):
    session = SimilaritySession(fig1)
    relsim = session.algorithm("relsim", pattern=PATTERN)
    pathsim = session.algorithm("pathsim", pattern=PATTERN)
    assert relsim.engine is session.engine
    assert pathsim.engine is session.engine
    pattern = parse_pattern(PATTERN)
    # The acceptance identity: the very same materialized matrix object.
    assert relsim.engine.matrix(pattern) is pathsim.engine.matrix(pattern)


def test_session_view_algorithms_share_indexer(fig1):
    session = SimilaritySession(fig1)
    rwr = session.algorithm("rwr")
    simrank = session.algorithm("simrank")
    assert rwr._view is session.view
    assert simrank._view is session.view


def test_session_matrices_are_not_recomputed_across_algorithms(fig1):
    session = SimilaritySession(fig1)
    session.algorithm("relsim", pattern=PATTERN).rank("DataMining")
    misses_after_first = session.cache_info()["misses"]
    session.algorithm("pathsim", pattern=PATTERN).rank("DataMining")
    assert session.cache_info()["misses"] == misses_after_first


def test_session_pattern_patterns_normalization(fig1):
    session = SimilaritySession(fig1)
    # pathsim declares `pattern`; a singleton patterns= list is accepted.
    one = session.algorithm("pathsim", patterns=[PATTERN])
    assert str(one.pattern) == PATTERN
    with pytest.raises(EvaluationError):
        session.algorithm("pathsim", patterns=[PATTERN, "r-a-.r-a"])
    with pytest.raises(EvaluationError):
        session.algorithm("relsim", pattern=PATTERN, patterns=[PATTERN])
    with pytest.raises(EvaluationError):
        session.algorithm("rwr", pattern=PATTERN)


def test_session_lru_bounds_engine_cache(fig1):
    def rank_three(session):
        for pattern in ("r-a", "p-in.p-in-", PATTERN):
            session.algorithm("relsim", pattern=pattern).rank("DataMining")

    peak = SimilaritySession(fig1)
    rank_three(peak)
    budget = peak.cache_info()["bytes"] // 3
    session = SimilaritySession(fig1, memory_budget=budget)
    rank_three(session)
    assert session.cache_info()["bytes"] <= budget
    assert session.cache_info()["spilled"] > 0


# ----------------------------------------------------------------------
# Batch path: rank_many == looped rank for every seed algorithm
# ----------------------------------------------------------------------
def _constructor_options(name):
    # hetesim needs a simple meta-path; the pattern algorithms all take
    # the Figure-1 relationship, topology algorithms take none.
    if name in ("relsim", "pathsim", "hetesim", "pattern-rwr",
                "pattern-simrank"):
        return {"pattern": PATTERN}
    return {}


@pytest.mark.parametrize("name", SEED_ALGORITHMS)
def test_rank_many_matches_looped_rank(fig1, name):
    session = SimilaritySession(fig1)
    algorithm = session.algorithm(name, **_constructor_options(name))
    queries = ["DataMining", "Databases", "SoftwareEngineering"]
    batch = algorithm.rank_many(queries, top_k=10)
    assert set(batch) == set(queries)
    for query in queries:
        expected = algorithm.rank(query, top_k=10)
        assert batch[query].items() == expected.items()


@pytest.mark.parametrize("name", ("relsim", "pathsim", "common-neighbors"))
def test_rank_many_matches_on_generated_dataset(dblp_small, name):
    database = dblp_small.database
    session = SimilaritySession(database)
    algorithm = session.algorithm(name, **_constructor_options(name))
    queries = [n for n in database.nodes_of_type("area")][:4]
    batch = algorithm.rank_many(queries)
    for query in queries:
        assert batch[query].items() == algorithm.rank(query).items()


@pytest.mark.parametrize("scoring", ("pathsim", "count", "cosine"))
def test_rank_many_matches_for_every_relsim_scoring(dblp_small, scoring):
    database = dblp_small.database
    session = SimilaritySession(database)
    algorithm = session.algorithm("relsim", pattern=PATTERN, scoring=scoring)
    queries = [n for n in database.nodes_of_type("area")][:4]
    batch = algorithm.rank_many(queries, top_k=5)
    for query in queries:
        assert batch[query].items() == algorithm.rank(query, top_k=5).items()


def test_session_rank_many_by_name_and_instance(fig1):
    session = SimilaritySession(fig1)
    queries = ["DataMining", "Databases"]
    by_name = session.rank_many(queries, algorithm="relsim", pattern=PATTERN)
    instance = session.algorithm("relsim", pattern=PATTERN)
    by_instance = session.rank_many(queries, algorithm=instance)
    for query in queries:
        assert by_name[query].items() == by_instance[query].items()
    with pytest.raises(TypeError):
        session.rank_many(queries, algorithm=instance, pattern=PATTERN)


def test_rank_many_empty_and_unknown_query(fig1):
    session = SimilaritySession(fig1)
    assert session.rank_many([], algorithm="relsim", pattern=PATTERN) == {}
    from repro.exceptions import UnknownNodeError

    with pytest.raises(UnknownNodeError):
        session.rank_many(["ghost"], algorithm="relsim", pattern=PATTERN)


# ----------------------------------------------------------------------
# Fluent builder
# ----------------------------------------------------------------------
def test_builder_round_trip_matches_direct_construction(fig1):
    direct = RelSim(fig1, PATTERN).rank("DataMining", top_k=5)
    fluent = (
        SimilaritySession(fig1)
        .query("DataMining")
        .using("relsim", pattern=PATTERN)
        .top(5)
    )
    assert fluent.items() == direct.items()


def test_builder_expansion_matches_from_simple_pattern(dblp_small):
    database = dblp_small.database
    session = SimilaritySession(database)
    query = next(iter(database.nodes_of_type("area")))
    builder = (
        session.query(query)
        .using("relsim", pattern="p-in.p-in-")
        .expand_patterns(max_patterns=8)
    )
    fluent = builder.rank(top_k=5)
    reference = RelSim.from_simple_pattern(
        database, "p-in.p-in-", max_patterns=8
    )
    assert fluent.items() == reference.rank(query, top_k=5).items()
    assert builder.patterns_used == reference.patterns
    assert len(builder.patterns_used) >= 1


def test_builder_scores_and_answers_of_type(biomed_bundle):
    database = biomed_bundle.database
    session = SimilaritySession(database)
    query = next(iter(biomed_bundle.ground_truth))
    scores = (
        session.query(query)
        .using("relsim", pattern="dd-ph-assoc.ph-pr-assoc.targets-",
               scoring="cosine")
        .answers_of_type("drug")
        .scores()
    )
    assert scores
    assert all(database.node_type(node) == "drug" for node in scores)


def test_builder_expansion_requires_pattern_and_relsim(fig1):
    session = SimilaritySession(fig1)
    with pytest.raises(EvaluationError):
        session.query("DataMining").using("relsim").expand_patterns().rank()
    with pytest.raises(EvaluationError):
        (
            session.query("DataMining")
            .using("rwr")
            .expand_patterns()
            .rank()
        )


def test_builder_caches_built_algorithm(fig1):
    builder = (
        SimilaritySession(fig1)
        .query("DataMining")
        .using("relsim", pattern=PATTERN)
    )
    assert builder.build() is builder.build()
    first = builder.build()
    builder.using("relsim", pattern="r-a-.r-a")
    assert builder.build() is not first


# ----------------------------------------------------------------------
# Harness integration
# ----------------------------------------------------------------------
def test_robustness_experiment_with_sessions_matches_factories(dblp_small):
    database = dblp_small.database
    mapping = dblp2sigm()
    variant = mapping.apply(database)
    p_src = parse_pattern(PATTERN)
    p_tgt = map_pattern(mapping, p_src)
    queries = [n for n in database.nodes_of_type("area")][:5]

    legacy = RobustnessExperiment(
        database,
        variant,
        {
            "RelSim": (
                lambda d: RelSim(d, p_src),
                lambda d: RelSim(d, p_tgt),
            ),
        },
        queries=queries,
        transformation_name="DBLP2SIGM",
    ).run()
    with_sessions = RobustnessExperiment(
        database,
        variant,
        {
            "RelSim": (
                lambda s: s.algorithm("relsim", pattern=p_src),
                lambda s: s.algorithm("relsim", pattern=p_tgt),
            ),
        },
        queries=queries,
        sessions=(SimilaritySession(database), SimilaritySession(variant)),
        transformation_name="DBLP2SIGM",
    ).run()
    assert legacy.taus == with_sessions.taus


def test_robustness_experiment_accepts_session_generator(dblp_small):
    database = dblp_small.database
    variant = dblp2sigm().apply(database)
    experiment = RobustnessExperiment(
        database,
        variant,
        {},
        queries=[],
        sessions=(
            SimilaritySession(d) for d in (database, variant)
        ),
    )
    assert len(experiment.sessions) == 2


def test_rank_many_chunking_matches_single_batch(fig1):
    algorithm = RelSim(fig1, PATTERN)
    queries = ["DataMining", "Databases", "SoftwareEngineering"]
    whole = algorithm.rank_many(queries, top_k=5)
    algorithm.batch_chunk_size = 1
    chunked = algorithm.rank_many(queries, top_k=5)
    for query in queries:
        assert chunked[query].items() == whole[query].items()


def test_session_explain_and_builder_explain(fig1):
    session = SimilaritySession(fig1)
    text = session.explain(["(p-in.p-in-)-", "p-in.p-in-"])
    assert "canonical: p-in.p-in-" in text
    assert "order:" in text
    builder = (
        session.query("DataMining")
        .using("relsim", pattern=PATTERN)
        .expand_patterns(max_patterns=8)
    )
    report = builder.explain()
    assert "patterns" in report
    assert "shared sub-plans" in report
    with pytest.raises(EvaluationError):
        session.query("DataMining").using("rwr").explain()


def test_session_cache_info_reports_memory(fig1):
    session = SimilaritySession(fig1)
    session.algorithm("relsim", pattern=PATTERN).rank("DataMining")
    info = session.cache_info()
    assert info["nnz"] > 0
    assert info["bytes"] > 0


def test_engine_warm_set_api(fig1):
    session = SimilaritySession(fig1)
    patterns = [parse_pattern(PATTERN), parse_pattern("r-a-.r-a")]
    assert session.engine.warm(patterns, "cosine")
    info = session.cache_info()
    assert info["matrices"] >= 2
    assert info["column_norms"] == 2
    # Everything the warm-set touched is now a pure cache hit.
    misses = info["misses"]
    session.engine.warm(patterns, "cosine")
    assert session.cache_info()["misses"] == misses
    # A set estimated past the budget is left cold.
    tight = SimilaritySession(fig1, memory_budget=1)
    assert not tight.engine.warm(patterns, "cosine")
    assert tight.cache_info()["misses"] == 0


def test_session_matrices_many_shares_entries(fig1):
    session = SimilaritySession(fig1)
    first = session.matrices_many(["p-in.p-in-", "(p-in.p-in-)-"])
    info = session.cache_info()
    second = session.matrices_many(["p-in.p-in-"])
    assert second[0] is first[0]
    assert session.cache_info()["misses"] == info["misses"]


def test_time_queries_top_k_and_batched(fig1):
    algorithm = RelSim(fig1, PATTERN)
    queries = ["DataMining", "Databases"]
    looped = time_queries(algorithm, queries, top_k=3)
    batched = time_queries(algorithm, queries, top_k=3, batched=True)
    assert looped >= 0.0
    assert batched >= 0.0
