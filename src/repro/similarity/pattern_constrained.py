"""Pattern-constrained RWR and SimRank (Proposition 4).

The paper extends RWR and SimRank so that a "hop" is an instance of a
given relationship pattern instead of a single edge: build the weight
matrix ``W = M_p`` from the pattern's commuting matrix, then run the
ordinary algorithm on that weighted graph.  With RRE patterns, these
variants inherit RelSim's structural robustness (Proposition 4) — the
weight matrices are equal across invertible variations, so the walks are
identical.
"""

import numpy as np

from repro.lang.matrix_semantics import CommutingMatrixEngine
from repro.lang.parser import as_patterns
from repro.graph.matrices import row_normalize
from repro.similarity.base import SimilarityAlgorithm
from repro.similarity.rwr import rwr_vector
from repro.similarity.simrank import simrank_matrix


def _pattern_and_engine(database, pattern, engine):
    pattern = as_patterns([pattern])[0]
    return pattern, engine or CommutingMatrixEngine(database)


class PatternRWR(SimilarityAlgorithm):
    """RWR whose hops follow instances of one RRE pattern.

    The walk matrix is the row-normalized commuting matrix of the
    pattern, symmetrized so the walk can follow the relationship both
    ways (``W = M_p + M_p^T`` before normalization).
    """

    name = "PatternRWR"

    # The walk only reaches nodes connected through the pattern, but the
    # dense power iteration's rounding depends on vector length, so the
    # inherited delta_growth_sensitive=True stays.
    pattern_local = True

    def __init__(
        self,
        database,
        pattern,
        restart=0.8,
        engine=None,
        answer_type=None,
        max_iterations=200,
    ):
        super().__init__(database, answer_type=answer_type)
        self.pattern, self.engine = _pattern_and_engine(
            database, pattern, engine
        )
        self._view = self.engine.view
        weights = self.engine.matrix(self.pattern)
        weights = weights + weights.T
        self._walk = row_normalize(weights)
        self.restart = restart
        self._max_iterations = max_iterations

    def score_rows(self, queries):
        """One power-iteration solve per query, stacked into score rows."""
        queries = list(queries)
        indices = self.engine.query_indices(queries)
        rows = np.empty((len(queries), len(self.engine.indexer)))
        for i, index in enumerate(indices):
            rows[i] = rwr_vector(
                self._walk,
                int(index),
                restart=self.restart,
                max_iterations=self._max_iterations,
            )
        return indices, rows


class PatternSimRank(SimilarityAlgorithm):
    """SimRank whose hops follow instances of one RRE pattern."""

    name = "PatternSimRank"

    # Hops are pattern instances, but the dense iteration multiplies
    # full n x n blocks (BLAS rounding varies with shape), so the
    # inherited delta_growth_sensitive=True stays.
    pattern_local = True

    def __init__(
        self,
        database,
        pattern,
        damping=0.8,
        iterations=10,
        engine=None,
        answer_type=None,
        max_nodes=5000,
    ):
        super().__init__(database, answer_type=answer_type)
        self.pattern, self.engine = _pattern_and_engine(
            database, pattern, engine
        )
        n = len(self.engine.indexer)
        if n > max_nodes:
            from repro.exceptions import EvaluationError

            raise EvaluationError(
                "PatternSimRank needs a dense {0}x{0} matrix; over "
                "max_nodes={1}".format(n, max_nodes)
            )
        self._view = self.engine.view
        weights = self.engine.matrix(self.pattern)
        weights = weights + weights.T
        self._scores = simrank_matrix(
            weights, damping=damping, iterations=iterations
        )

    def score_rows(self, queries):
        """Batch score rows from one slice of the precomputed dense matrix."""
        indices = self.engine.query_indices(queries)
        return indices, self._scores[indices, :]
