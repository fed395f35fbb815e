"""PathSim (Sun et al., VLDB 2011) over commuting matrices.

Given a meta-path ``p``, PathSim scores
``sim_p(u, v) = 2 |u ~p~> v| / (|u ~p~> u| + |v ~p~> v|)`` (Equation 1).
The formula needs *round-trip* path counts on the diagonal, so it is only
meaningful for symmetric patterns whose endpoints share a node type; the
paper switches to HeteSim for asymmetric relationships (BioMed).

Our implementation accepts any RRE (that is precisely RelSim's trick —
see :mod:`repro.core.relsim`); classic PathSim corresponds to passing a
simple pattern.
"""

from repro.exceptions import AsymmetricPatternError
from repro.lang.ast import Pattern, simple_steps
from repro.lang.matrix_semantics import CommutingMatrixEngine, pathsim_rows
from repro.lang.parser import parse_pattern
from repro.similarity.base import SimilarityAlgorithm


def is_symmetric_meta_path(pattern):
    """True when a simple pattern reads the same forward and backward.

    A meta-path ``l1 ... ln`` is symmetric when reversing it (and flipping
    each step's direction) reproduces the original — the condition for
    PathSim's diagonal terms to be round-trip counts.
    Non-simple patterns return False (symmetry is then undecidable
    syntactically; callers may still proceed, scores stay well-defined).
    """
    try:
        steps = simple_steps(pattern)
    except ValueError:
        return False
    flipped = [(name, not reversed_) for name, reversed_ in reversed(steps)]
    return steps == flipped


class PathSim(SimilarityAlgorithm):
    """PathSim similarity search for one relationship pattern.

    Parameters
    ----------
    database:
        The graph database to search.
    pattern:
        A simple pattern (meta-path) — string or AST.  Full RREs are
        accepted too; RelSim builds on this.
    engine:
        Optional pre-built :class:`CommutingMatrixEngine` (share one
        across algorithms to reuse materialized matrices).
    strict_symmetry:
        When True, reject patterns that are not symmetric meta-paths with
        :class:`AsymmetricPatternError` (the paper's reason for using
        HeteSim on BioMed).
    """

    name = "PathSim"

    pattern_local = True
    #: Equation 1 is entry-local sparse arithmetic over stored counts;
    #: padding the node set cannot move any existing score.
    delta_growth_sensitive = False

    def __init__(
        self,
        database,
        pattern,
        engine=None,
        answer_type=None,
        strict_symmetry=False,
    ):
        super().__init__(database, answer_type=answer_type)
        if isinstance(pattern, str):
            pattern = parse_pattern(pattern)
        if not isinstance(pattern, Pattern):
            raise TypeError("pattern must be a string or Pattern AST")
        if strict_symmetry and not is_symmetric_meta_path(pattern):
            raise AsymmetricPatternError(
                "pattern {} is not a symmetric meta-path; use HeteSim for "
                "asymmetric relationships".format(pattern)
            )
        self.pattern = pattern
        self.engine = engine or CommutingMatrixEngine(database)
        self._view = self.engine.view

    def prepare_scoring(self):
        """Pin the commuting matrix and its diagonal (idempotent).

        The diagonal comes from the engine's cache, which delta
        maintenance patches in place — re-pinning after a live update
        reuses it unless the pattern's matrix actually changed.
        """
        if self._prepared_state is None:
            matrix = self.engine.matrix(self.pattern)
            self._prepared_state = (matrix, self.engine.diagonal(self.pattern))
        return self

    def score_rows(self, queries):
        """Batch score rows from one sparse slice of the commuting matrix."""
        queries = list(queries)
        indices = self.engine.query_indices(queries)
        state = self._prepared_state
        if state is not None:
            matrix, diagonal = state
            return indices, pathsim_rows(matrix, indices, diagonal)
        return indices, self.engine.pathsim_scores_from_many(
            self.pattern, queries
        )
