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

from repro.exceptions import EvaluationError
from repro.lang.matrix_semantics import SCORING_VECTORS, CommutingMatrixEngine
from repro.lang.parser import as_patterns
from repro.similarity.base import SimilarityAlgorithm


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
        if scoring not in SCORING_VECTORS:
            raise EvaluationError(
                "unknown scoring {!r}; choose one of {}".format(
                    scoring, tuple(SCORING_VECTORS)
                )
            )
        self.patterns = list(dict.fromkeys(as_patterns(patterns)))
        self.scoring = scoring
        # pathsim/count scores are entry-local sparse arithmetic, stable
        # under node-set padding; cosine norms reduce over whole rows,
        # whose float result can shift with the vector length.
        self.delta_growth_sensitive = scoring == "cosine"
        self.engine = engine or CommutingMatrixEngine(database)
        self._view = self.engine.view
        # Compiled once, before any executes: the plan compiler sees the
        # whole set before it fixes a chain order, so sub-chains shared
        # across an Algorithm-1 expansion are multiplied once.
        self._plans = [self.engine.compile(p) for p in self.patterns]

    def prepare_scoring(self):
        """Warm the engine cache with the set's records, if the set fits.

        Every record gets the vector this scoring mode reads (diagonal
        or column norms).  A set whose estimate exceeds the engine's
        ``memory_budget`` is left cold (see
        :meth:`~repro.lang.matrix_semantics.CommutingMatrixEngine.warm`).
        """
        self.engine.warm(self.patterns, self.scoring)
        return self

    def score_rows(self, queries):
        """Batch score rows: one sparse row slice per pattern, summed.

        The engine's ``score_plans`` reads each pattern's record from
        its cache one plan at a time, so a spilled product is recomputed
        on use and no matrix outlives the call.
        """
        queries = list(queries)
        indices = self.engine.query_indices(queries)
        return indices, self.engine.score_plans(
            self._plans, self.scoring, indices
        )

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
