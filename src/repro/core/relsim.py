"""RelSim — the paper's structurally robust similarity search algorithm.

RelSim is PathSim's scoring formula (Equation 1) evaluated over **RRE**
patterns instead of plain meta-paths.  Because RRE is expressive enough
to carry any pattern across an invertible transformation with *equal
instance counts* (Theorem 2 via the skip/nested operators), RelSim
returns identical ranked lists over a database and all of its invertible
structural variations (Corollary 1).

Two scoring modes beyond PathSim's are provided for asymmetric
relationships (e.g. disease-to-drug queries, Section 7.2, where the
PathSim denominator is identically zero):

* ``"count"`` — the raw instance count ``|I^{u,v}(p)|``;
* ``"cosine"`` — counts normalized by the query row and candidate column
  norms of the commuting matrix (a HeteSim-flavored normalization).

All three are functions of the commuting matrix restricted to preserved
nodes, hence equally robust.
"""

import numpy as np

from repro.exceptions import EvaluationError
from repro.graph.matrices import dense_rows
from repro.lang.ast import Pattern
from repro.lang.matrix_semantics import CommutingMatrixEngine, pathsim_rows
from repro.lang.parser import parse_pattern
from repro.similarity.base import SimilarityAlgorithm

_SCORINGS = ("pathsim", "count", "cosine")


def _as_patterns(patterns):
    if isinstance(patterns, (str, Pattern)):
        patterns = [patterns]
    resolved = []
    for pattern in patterns:
        if isinstance(pattern, str):
            pattern = parse_pattern(pattern)
        if not isinstance(pattern, Pattern):
            raise TypeError(
                "pattern must be a string or Pattern AST, got {!r}".format(
                    pattern
                )
            )
        if pattern not in resolved:
            resolved.append(pattern)
    if not resolved:
        raise EvaluationError("RelSim needs at least one pattern")
    return resolved


class RelSim(SimilarityAlgorithm):
    """Similarity search over one or more RRE relationship patterns.

    With several patterns the per-pattern scores are summed — the
    aggregation used by the usability layer (Section 5), where the
    pattern set comes from Algorithm 1.

    Parameters
    ----------
    database:
        The graph database to search.
    patterns:
        One RRE (string/AST) or a list of them.
    scoring:
        ``"pathsim"`` (default, Equation 1), ``"count"`` or ``"cosine"``.
    engine:
        Optional shared :class:`CommutingMatrixEngine`.
    """

    name = "RelSim"

    pattern_local = True

    def __init__(
        self,
        database,
        patterns,
        scoring="pathsim",
        engine=None,
        answer_type=None,
    ):
        super().__init__(database, answer_type=answer_type)
        if scoring not in _SCORINGS:
            raise EvaluationError(
                "unknown scoring {!r}; choose one of {}".format(
                    scoring, _SCORINGS
                )
            )
        self.patterns = _as_patterns(patterns)
        self.scoring = scoring
        # pathsim/count scores are entry-local sparse arithmetic, stable
        # under node-set padding; cosine norms reduce over whole rows,
        # whose float result can shift with the vector length.
        self.delta_growth_sensitive = scoring == "cosine"
        self.engine = engine or CommutingMatrixEngine(database)
        self._view = self.engine.view

    # ------------------------------------------------------------------
    # Prepared scoring state
    # ------------------------------------------------------------------
    def prepare_scoring(self):
        """Pin per-pattern scoring state: matrices, diagonals, norms.

        After this, :meth:`score_rows` runs on immutable local state —
        no plan compilation, no engine cache probing, no per-call
        ``matrix.diagonal()`` extraction.  When the engine's byte
        ``memory_budget`` is smaller than the set's estimated resident
        size, pinning every matrix at once would defeat the budget, so
        only the compile pass runs and the per-call path is kept (same
        rule as :meth:`score_rows` warming).
        """
        if self._prepared_state is not None:
            return self
        if self.engine.warm_exceeds_limits(self.patterns):
            for pattern in self.patterns:
                self.engine.compile(pattern)
            return self
        matrices = self.engine.warm(
            self.patterns, norms=self.scoring == "cosine"
        )
        state = []
        for pattern, matrix in zip(self.patterns, matrices):
            # Engine-cached: shared across algorithms and patched in
            # place by delta maintenance, so re-pinning after a live
            # update only recomputes what actually changed.
            diagonal = (
                self.engine.diagonal(pattern)
                if self.scoring == "pathsim"
                else None
            )
            norms = (
                self.engine.column_norms(pattern)
                if self.scoring == "cosine"
                else None
            )
            state.append((matrix, diagonal, norms))
        self._prepared_state = tuple(state)
        return self

    def _prepared_pattern_rows(self, entry, indices, out):
        """Score rows for one pattern from pinned state (no engine).

        PathSim scoring accumulates straight into ``out`` (sparse-row
        arithmetic, no per-pattern dense block); the other modes return
        a dense block for the caller to add.
        """
        matrix, diagonal, norms = entry
        if self.scoring == "pathsim":
            pathsim_rows(matrix, indices, diagonal, out=out)
            return None
        rows = dense_rows(matrix, indices)
        if self.scoring == "count":
            return rows
        # cosine
        row_norms = np.linalg.norm(rows, axis=1)
        scores = np.zeros_like(rows)
        defined = (row_norms[:, None] > 0) & (norms[None, :] > 0)
        denominator = row_norms[:, None] * norms[None, :]
        scores[defined] = rows[defined] / denominator[defined]
        return scores

    # ------------------------------------------------------------------
    def _pattern_rows(self, pattern, queries):
        """``(len(queries), n)`` score rows for one pattern.

        All three scoring modes reduce to one sparse row slice of the
        commuting matrix (``matrix[rows, :]``), so a batch of queries
        costs a single slice per pattern.  Column norms for the cosine
        mode live on the engine — every algorithm sharing the engine
        (e.g. through a :class:`~repro.api.SimilaritySession`) reuses
        them.
        """
        if self.scoring == "pathsim":
            return self.engine.pathsim_scores_from_many(pattern, queries)
        rows = self.engine.rows_dense(pattern, queries)
        if self.scoring == "count":
            return rows
        # cosine
        norms = self.engine.column_norms(pattern)
        row_norms = np.linalg.norm(rows, axis=1)
        scores = np.zeros_like(rows)
        defined = (row_norms[:, None] > 0) & (norms[None, :] > 0)
        denominator = row_norms[:, None] * norms[None, :]
        scores[defined] = rows[defined] / denominator[defined]
        return scores

    def score_rows(self, queries):
        """Batch score rows: one sparse row slice per pattern, summed.

        The whole pattern set is *compiled* first, so the plan compiler
        sees every pattern before any chain order is chosen and the
        shared prefixes/sub-chains of an Algorithm-1 expansion are
        multiplied once and reused (cross-pattern CSE).  When the set
        fits under the engine's byte budget, the matrices are also
        warmed through ``matrices_many`` so the per-pattern scoring
        below is pure cache hits; with a budget tighter than the set,
        warming would defeat it (pin every matrix at once) and be
        evicted before use, so only the compile pass runs.
        """
        queries = list(queries)
        indices = self.engine.query_indices(queries)
        state = self._prepared_state
        total = np.zeros((len(queries), len(self.engine.indexer)))
        if state is not None:
            # Prepared hot path: every matrix/diagonal/norm is pinned,
            # so a call is pure slicing and arithmetic.
            for entry in state:
                block = self._prepared_pattern_rows(entry, indices, total)
                if block is not None:
                    total += block
            return indices, total
        if self.engine.warm_exceeds_limits(self.patterns):
            for pattern in self.patterns:
                self.engine.compile(pattern)
        else:
            self.engine.matrices_many(self.patterns)
        for pattern in self.patterns:
            total += self._pattern_rows(pattern, queries)
        return indices, total

    # ------------------------------------------------------------------
    @classmethod
    def from_simple_pattern(
        cls,
        database,
        pattern,
        constraints=None,
        scoring="pathsim",
        engine=None,
        answer_type=None,
        use_filters=True,
        max_patterns=64,
    ):
        """The usability-layer constructor (Section 5).

        Runs Algorithm 1 on ``pattern`` against the schema's constraints
        (or an explicit ``constraints`` list) and aggregates over the
        generated RRE set.
        """
        from repro.patterns.generator import generate_patterns

        if constraints is None:
            constraints = database.schema.constraints
        generated = generate_patterns(
            pattern,
            constraints,
            use_filters=use_filters,
            max_patterns=max_patterns,
        )
        return cls(
            database,
            generated.patterns,
            scoring=scoring,
            engine=engine,
            answer_type=answer_type,
        )
