"""Array-native scoring: score_rows, top-k selection, candidate masks.

The contract under test: for every registered algorithm, the
array-native ranking path (``score_rows`` + ``np.argpartition``
selection) is *exactly* equivalent to the per-candidate dict path
(``rank_many_via_scores``), including deterministic tie-breaking at the
``top_k`` boundary — and a session whose database was written after
it was made raises :class:`EvaluationError` uniformly, instead of
ranking a candidate list its view does not hold.
"""

import numpy as np
import pytest

from repro.api import SimilaritySession
from repro.exceptions import EvaluationError
from repro.graph import GraphDatabase, Schema
from repro.graph.matrices import MatrixView
from repro.similarity import Ranking
from repro.similarity.base import SimilarityAlgorithm

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
# Property: array path == dict path for every registered algorithm
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", SEED_ALGORITHMS)
@pytest.mark.parametrize("top_k", (None, 1, 2, 10))
def test_array_path_matches_dict_path(fig1, name, top_k):
    session = SimilaritySession(fig1)
    algorithm = session.algorithm(name, **_constructor_options(name))
    queries = ["DataMining", "Databases", "SoftwareEngineering"]
    array_path = algorithm.rank_many(queries, top_k=top_k)
    dict_path = algorithm.rank_many_via_scores(queries, top_k=top_k)
    for query in queries:
        assert array_path[query].items() == dict_path[query].items()
        assert (
            array_path[query].items()
            == algorithm.rank(query, top_k=top_k).items()
        )


@pytest.mark.parametrize("name", SEED_ALGORITHMS)
def test_every_seed_algorithm_is_array_native(fig1, name):
    session = SimilaritySession(fig1)
    algorithm = session.algorithm(name, **_constructor_options(name))
    queries = ["DataMining", "Databases"]
    indices, rows = algorithm.score_rows(queries)
    n = len(session.indexer)
    assert rows.shape == (len(queries), n)
    assert list(indices) == [
        session.indexer.index_of(query) for query in queries
    ]
    # The dict adapters read from the same rows.
    scored = algorithm.scores("DataMining")
    for node, score in scored.items():
        assert score == pytest.approx(
            float(rows[0, session.indexer.index_of(node)])
        )


@pytest.mark.parametrize("name", ("relsim", "pathsim", "common-neighbors"))
def test_array_path_matches_dict_path_on_generated_dataset(dblp_small, name):
    database = dblp_small.database
    session = SimilaritySession(database)
    algorithm = session.algorithm(name, **_constructor_options(name))
    queries = [n for n in database.nodes_of_type("area")][:4]
    array_path = algorithm.rank_many(queries, top_k=5)
    dict_path = algorithm.rank_many_via_scores(queries, top_k=5)
    for query in queries:
        assert array_path[query].items() == dict_path[query].items()


def test_array_path_matches_dict_path_odd_hetesim(biomed_bundle):
    # Odd-length meta-path: exercises the edge-decomposition halves
    # through the batch path.
    database = biomed_bundle.database
    session = SimilaritySession(database)
    algorithm = session.algorithm(
        "hetesim",
        pattern="dd-ph-assoc.ph-pr-assoc.targets-",
        answer_type="drug",
    )
    queries = list(biomed_bundle.ground_truth)[:5]
    array_path = algorithm.rank_many(queries, top_k=10)
    dict_path = algorithm.rank_many_via_scores(queries, top_k=10)
    for query in queries:
        assert array_path[query].items() == dict_path[query].items()


def test_scores_many_matches_per_query_scores(fig1):
    session = SimilaritySession(fig1)
    algorithm = session.algorithm("relsim", pattern=PATTERN)
    queries = ["DataMining", "Databases"]
    batch = algorithm.scores_many(queries)
    for query in queries:
        assert batch[query] == algorithm.scores(query)


# ----------------------------------------------------------------------
# Deterministic tie-breaking at the top_k boundary
# ----------------------------------------------------------------------
class ScriptedRows(SimilarityAlgorithm):
    """Array-native algorithm whose score rows are scripted by the test."""

    name = "ScriptedRows"

    def __init__(self, database, rows_by_query):
        super().__init__(database)
        self._view = MatrixView(database)
        self._rows_by_query = rows_by_query

    def score_rows(self, queries):
        indexer = self._view.indexer
        indices = np.array(
            [indexer.index_of(query) for query in queries], dtype=np.intp
        )
        rows = np.vstack([self._rows_by_query[query] for query in queries])
        return indices, rows


@pytest.fixture
def tied_db():
    db = GraphDatabase(Schema(["e"]))
    # "a10" < "a2" < "b1" in the str order Ranking ties break by.
    for node in ("q", "top", "a10", "a2", "b1", "low"):
        db.add_node(node, "t")
    return db


def _scripted(db, scores_by_node):
    view = MatrixView(db)
    row = np.zeros(len(view.indexer))
    for node, score in scores_by_node.items():
        row[view.indexer.index_of(node)] = score
    return ScriptedRows(db, {"q": row})


def test_topk_boundary_ties_break_by_str(tied_db):
    algorithm = _scripted(
        tied_db,
        {"top": 9.0, "a10": 2.0, "a2": 2.0, "b1": 2.0, "low": 1.0},
    )
    assert algorithm.rank("q", top_k=2).top() == ["top", "a10"]
    assert algorithm.rank("q", top_k=3).top() == ["top", "a10", "a2"]
    assert algorithm.rank("q", top_k=4).top() == ["top", "a10", "a2", "b1"]
    assert algorithm.rank("q").top() == ["top", "a10", "a2", "b1", "low"]


@pytest.mark.parametrize("top_k", (None, 1, 2, 3, 4, 5, 10))
def test_topk_boundary_matches_dict_path(tied_db, top_k):
    algorithm = _scripted(
        tied_db,
        {"top": 9.0, "a10": 2.0, "a2": 2.0, "b1": 2.0, "low": 1.0},
    )
    array_path = algorithm.rank_many(["q"], top_k=top_k)["q"]
    dict_path = algorithm.rank_many_via_scores(["q"], top_k=top_k)["q"]
    assert array_path.items() == dict_path.items()


def test_top_k_zero_returns_empty_like_dict_path(tied_db):
    algorithm = _scripted(
        tied_db, {"top": 9.0, "a10": 2.0, "a2": 2.0}
    )
    array_path = algorithm.rank_many(["q"], top_k=0)["q"]
    dict_path = algorithm.rank_many_via_scores(["q"], top_k=0)["q"]
    assert array_path.items() == dict_path.items() == []
    assert algorithm.rank("q", top_k=0).items() == []


def test_zero_scores_are_not_answers_in_array_path(tied_db):
    algorithm = _scripted(tied_db, {"top": 1.0})
    ranking = algorithm.rank("q")
    assert ranking.top() == ["top"]  # the zero-score candidates dropped


def test_query_is_masked_out_of_its_own_row(tied_db):
    algorithm = _scripted(tied_db, {"q": 100.0, "top": 1.0})
    assert algorithm.rank("q").top() == ["top"]
    assert "q" not in algorithm.scores("q")


# ----------------------------------------------------------------------
# Ranking.from_arrays
# ----------------------------------------------------------------------
def test_from_arrays_sorts_and_matches_constructor():
    nodes = ["b", "a", "c"]
    scores = np.array([0.5, 0.5, 0.9])
    built = Ranking.from_arrays(nodes, scores)
    reference = Ranking(list(zip(nodes, scores)))
    assert built.items() == reference.items()
    assert built.top() == ["c", "a", "b"]
    assert built.score_of("a") == 0.5
    assert built.position_of("c") == 1


def test_from_arrays_empty():
    ranking = Ranking.from_arrays([], np.array([]))
    assert len(ranking) == 0
    assert ranking.top() == []


def test_from_arrays_coerces_numpy_scalars_to_float():
    ranking = Ranking.from_arrays(["a"], np.array([np.float64(1.5)]))
    assert isinstance(ranking.items()[0][1], float)


# ----------------------------------------------------------------------
# Unified unindexed-candidate semantics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ("relsim", "rwr", "simrank", "hetesim"))
def test_unindexed_candidate_raises_uniformly(fig1, name):
    # A candidate the database gains after the session was made is one
    # the session's view does not hold: every algorithm raises the
    # same stale-view error rather than skipping it silently.
    session = SimilaritySession(fig1)
    algorithm = session.algorithm(name, **_constructor_options(name))
    fig1.add_node("LateArrival", fig1.node_type("DataMining"))
    with pytest.raises(EvaluationError):
        algorithm.rank("DataMining")
    with pytest.raises(EvaluationError):
        algorithm.scores("DataMining")


def test_unindexed_candidate_raises_on_dict_path_too(fig1):
    session = SimilaritySession(fig1)
    algorithm = session.algorithm("relsim", pattern=PATTERN)
    fig1.add_node("LateArrival", fig1.node_type("DataMining"))
    with pytest.raises(EvaluationError):
        algorithm.rank_many_via_scores(["DataMining"])


# ----------------------------------------------------------------------
# MatrixView.candidate_index
# ----------------------------------------------------------------------
def test_candidate_index_sorted_and_cached(fig1):
    view = MatrixView(fig1)
    nodes, columns = view.candidate_index("area")
    assert nodes == sorted(fig1.nodes_of_type("area"), key=str)
    assert [view.indexer.node_at(c) for c in columns] == nodes
    # Cached: the same tuple object comes back.
    assert view.candidate_index("area") is view.candidate_index("area")


def test_candidate_index_none_means_all_nodes(fig1):
    view = MatrixView(fig1)
    nodes, columns = view.candidate_index(None)
    assert nodes == sorted(fig1.nodes(), key=str)
    assert len(columns) == len(view.indexer)


def test_candidate_index_unindexed_node_raises(fig1):
    view = MatrixView(fig1)
    fig1.add_node("LateArrival", "area")
    with pytest.raises(EvaluationError):
        view.candidate_index("area")


def test_candidate_index_warm_cache_still_detects_late_node(fig1):
    # The view checks the database's write count on every call: the
    # error must not depend on whether the index was warmed before the
    # write.
    view = MatrixView(fig1)
    view.candidate_index("area")  # warm the cache
    fig1.add_node("LateArrival", "area")
    with pytest.raises(EvaluationError):
        view.candidate_index("area")


def test_warm_algorithm_still_detects_late_node(fig1):
    session = SimilaritySession(fig1)
    algorithm = session.algorithm("relsim", pattern=PATTERN)
    algorithm.rank("DataMining", top_k=5)  # warm the candidate index
    fig1.add_node("LateArrival", fig1.node_type("DataMining"))
    with pytest.raises(EvaluationError):
        algorithm.rank("DataMining", top_k=5)
