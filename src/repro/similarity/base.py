"""Shared interface for similarity search algorithms.

A similarity query (Section 2) is a node id; the answer is a ranked list
of other node ids.  Every algorithm here implements::

    scores(query)            -> {node: score} over candidate nodes
    rank(query, top_k=None)  -> Ranking (sorted, deterministic ties)

Candidates default to nodes of the same type as the query (the paper
ranks proceedings against proceedings, courses against courses) unless an
``answer_type`` is fixed at construction (diseases ranked against drugs
in the BioMed study).

Every algorithm accepts an injected ``engine``
(:class:`~repro.lang.matrix_semantics.CommutingMatrixEngine`) so a
:class:`~repro.api.SimilaritySession` can share one set of materialized
matrices across all the algorithms it constructs; topology-based
algorithms that only need adjacency matrices reuse the engine's
:class:`~repro.graph.matrices.MatrixView`.

Array-native scoring
--------------------
Matrix-backed algorithms additionally implement :meth:`score_rows`,
which returns raw score *rows* (one dense vector of scores over the node
indexer per query) instead of per-candidate dicts.  ``rank`` and
``rank_many`` then stay inside NumPy end-to-end: candidate filtering is
one fancy-index slice over the view's cached per-type candidate index
(:meth:`~repro.graph.matrices.MatrixView.candidate_index`), and top-k
selection uses ``np.argpartition``-style selection so only the ``k``
winners are ever materialized as ``(node, score)`` pairs.  The dict
APIs (``scores``/``scores_many``) become thin adapters over
:meth:`score_rows` and remain contractually identical; the previous
dict-based ranking path is kept as :meth:`rank_many_via_scores` for
equivalence testing and benchmarking.

A query absent from the algorithm's view raises
:class:`~repro.exceptions.UnknownNodeError` — scoring a node the view
does not hold is an error, not a zero score — and a view whose database
was written after it was made raises
:class:`~repro.exceptions.EvaluationError` uniformly rather than rank a
stale candidate list.  (Open a new session/view after writing the
database, or serve through
:class:`~repro.api.service.SimilarityService`, which publishes
versions.)

Prepared scoring state
----------------------
:meth:`SimilarityAlgorithm.prepare_scoring` warms what scoring would
otherwise compute on its first call;
:class:`~repro.api.prepared.PreparedQuery` calls it during preparation.
Engine-backed algorithms (RelSim, PathSim) hold only compiled plan
nodes: warming fills the engine's cache (``engine.warm``), and every
:meth:`score_rows` call reads each plan's record — matrix plus diagonal
or column norms — back from that cache.  Nothing is held outside the
cache, so the engine's ``memory_budget`` accounts for every byte, and
the records stay *delta-maintained*: ``SimilarityService``'s live
updates patch them into the next version's engine, so a re-bound query
serves the patched records without recomputing what did not change.  The engine
lock guards every read, which is what makes a prepared hot path safe to
share across serving threads.
"""

import numpy as np

from repro.graph.matrices import MatrixView


def resolve_view(database, view=None, engine=None):
    """The :class:`MatrixView` an algorithm should compute on.

    Preference order: an explicit ``view``, then the view of an injected
    ``engine`` (so session-constructed algorithms share adjacency
    matrices and node indexing), then a fresh view over ``database``.
    """
    if view is not None:
        return view
    if engine is not None:
        return engine.view
    return MatrixView(database)


class Ranking:
    """An ordered answer list with scores.

    Ties are broken by node id so that rankings are deterministic — a
    requirement for the robustness comparison to be meaningful (otherwise
    tie shuffling would masquerade as non-robustness).
    """

    def __init__(self, scored_nodes):
        self._items = sorted(
            scored_nodes, key=lambda item: (-item[1], str(item[0]))
        )
        self._lookup = None

    @classmethod
    def from_arrays(cls, nodes, scores):
        """Ranking from parallel node/score sequences (array-native path).

        Skips the intermediate per-candidate dict: callers pass the
        already-selected winners (typically the ``argpartition`` top-k),
        so the deterministic ``(-score, str(node))`` sort touches only
        ``k`` items instead of the full candidate set.
        """
        return cls(zip(nodes, (float(score) for score in scores)))

    def top(self, k=None):
        """The first ``k`` node ids (all of them when ``k`` is None)."""
        items = self._items if k is None else self._items[:k]
        return [node for node, _ in items]

    def items(self, k=None):
        """``(node, score)`` pairs, optionally truncated."""
        return list(self._items if k is None else self._items[:k])

    def _positions(self):
        # Built lazily on the first lookup: metric code calls
        # score_of/position_of once per candidate, and a linear scan per
        # call is quadratic over a workload.
        if self._lookup is None:
            self._lookup = {
                node: (position, score)
                for position, (node, score) in enumerate(self._items, start=1)
            }
        return self._lookup

    def score_of(self, node):
        entry = self._positions().get(node)
        return None if entry is None else entry[1]

    def position_of(self, node):
        """1-based rank of ``node``; ``None`` when absent."""
        entry = self._positions().get(node)
        return None if entry is None else entry[0]

    def __len__(self):
        return len(self._items)

    def __iter__(self):
        return iter(self.top())

    def __repr__(self):
        preview = ", ".join(
            "{}={:.4f}".format(node, score) for node, score in self._items[:3]
        )
        return "Ranking([{}{}])".format(
            preview, ", ..." if len(self._items) > 3 else ""
        )


class SimilarityAlgorithm:
    """Base class implementing candidate selection and ranking."""

    #: Human-readable name used in experiment reports.
    name = "base"

    #: Queries per ``score_rows``/``scores_many`` call inside
    #: ``rank_many``.  Batch implementations densify a
    #: (queries x nodes) block, so an unchunked million-query workload
    #: would allocate workload-sized dense arrays; per-row scores are
    #: independent, so chunking changes nothing but peak memory.
    batch_chunk_size = 512

    #: True when rankings are a pure function of the commuting/adjacency
    #: matrices of this algorithm's own patterns.  Pattern-local
    #: algorithms give standing-query subscriptions a label footprint:
    #: an edge delta touching none of those labels provably cannot
    #: change a ranking, so maintenance skips it in O(1).  Whole-graph
    #: algorithms (RWR, SimRank, Katz, common neighbors) keep the
    #: default and are treated as touched by every delta.
    pattern_local = False

    #: True when adding nodes alone (no edges on this algorithm's
    #: labels) can still perturb its scores — dense reductions and
    #: fixed-point solves change shape with the node count, so their
    #: float results are not bitwise-stable under padding.  Entry-local
    #: sparse scorers (PathSim-style) override this to False; plans
    #: embedding an identity term are handled separately via
    #: :func:`repro.lang.plan.pattern_footprint`.
    delta_growth_sensitive = True

    def __init__(self, database, answer_type=None):
        self._database = database
        self._answer_type = answer_type
        #: The MatrixView backing :meth:`score_rows`; array-native
        #: subclasses assign it at construction.
        self._view = None

    @property
    def database(self):
        return self._database

    # ------------------------------------------------------------------
    # Prepared scoring state
    # ------------------------------------------------------------------
    def prepare_scoring(self):
        """Warm what the first scoring call would compute (idempotent).

        Called once by :class:`~repro.api.prepared.PreparedQuery` so
        that the first :meth:`rank`/:meth:`rank_many` call is already a
        hot one.  Engine-backed subclasses warm the engine cache, and
        only when their pattern set fits under its ``memory_budget``;
        algorithms that already precompute everything at construction
        (SimRank's dense solve, RWR's walk matrix, ...) inherit the
        no-op.  Returns ``self`` for chaining.
        """
        return self

    def candidates(self, query):
        """Nodes eligible as answers for ``query`` (never the query).

        Candidates are read from the graph the algorithm was built on —
        in a session, the view of one version.  Once a lazy view's
        database has been written, ranking raises
        :class:`~repro.exceptions.EvaluationError` for every built-in
        algorithm instead of ranking a stale candidate list; open a
        fresh session/view instead.
        """
        if self._answer_type is not None:
            nodes = self._database.nodes_of_type(self._answer_type)
        else:
            query_type = self._database.node_type(query)
            if query_type is None:
                nodes = list(self._database.nodes())
            else:
                nodes = self._database.nodes_of_type(query_type)
        return [node for node in nodes if node != query]

    # ------------------------------------------------------------------
    # Array-native primitive
    # ------------------------------------------------------------------
    def score_rows(self, queries):
        """Batch scores as ``(query_indices, rows)`` over the node indexer.

        ``rows`` is a dense ``(len(queries), n)`` float array in which
        column ``j`` scores node ``indexer.node_at(j)``; row ``i``
        corresponds to ``queries[i]`` and ``query_indices[i]`` is that
        query's indexer position (used to mask the query out of its own
        candidate row).  Rows cover *all* nodes — candidate filtering
        happens in :meth:`rank_many` via the view's cached candidate
        index, so implementations stay a pure matrix slice.

        Matrix-backed algorithms implement this; algorithms without a
        vectorizable representation leave it unimplemented and the
        ranking methods fall back to the per-query dict path via
        :meth:`scores`.
        """
        raise NotImplementedError(
            "{} does not implement array-native scoring".format(
                type(self).__name__
            )
        )

    def _array_native(self):
        return type(self).score_rows is not SimilarityAlgorithm.score_rows

    def _candidate_arrays(self, query):
        """The cached ``(nodes, columns)`` candidate index for ``query``."""
        answer_type = self._answer_type
        if answer_type is None:
            answer_type = self._database.node_type(query)
        return self._view.candidate_index(answer_type)

    # ------------------------------------------------------------------
    # Dict APIs (thin adapters over score_rows when available)
    # ------------------------------------------------------------------
    def scores(self, query):
        """Mapping candidate -> similarity score.

        Array-native algorithms inherit this adapter over
        :meth:`score_rows`; others implement it directly.
        """
        if self._array_native():
            return self.scores_many([query])[query]
        raise NotImplementedError

    def scores_many(self, queries):
        """``{query: {candidate: score}}`` for a batch of queries.

        For array-native algorithms this is a thin adapter over
        :meth:`score_rows` — one matrix slice for the whole batch, then
        per-candidate dicts.  The default otherwise evaluates queries
        one at a time via :meth:`scores`.  Either way the result is
        contractually identical to per-query ``scores``.
        """
        queries = list(queries)
        if not queries:
            return {}
        if not self._array_native():
            return {query: self.scores(query) for query in queries}
        indices, rows = self.score_rows(queries)
        results = {}
        for i, query in enumerate(queries):
            nodes, columns = self._candidate_arrays(query)
            row = rows[i]
            results[query] = {
                node: float(row[column])
                for node, column in zip(nodes, columns)
                if column != indices[i]
            }
        return results

    # ------------------------------------------------------------------
    # Ranking
    # ------------------------------------------------------------------
    def _as_ranking(self, scored_mapping, top_k):
        scored = [
            (node, score)
            for node, score in scored_mapping.items()
            if score > 0
        ]
        ranking = Ranking(scored)
        if top_k is None:
            return ranking
        return Ranking(ranking.items(top_k))

    def _ranking_from_row(self, query, row, query_index, top_k):
        """Array-native top-k: select winners before materializing pairs.

        Zero-score candidates are dropped (same contract as the dict
        path) and the query is masked out of its own row.  With a
        ``top_k``, an ``np.partition`` of the candidate scores finds the
        boundary value; everything strictly above it is in, and ties at
        the boundary are filled in ascending ``str(node)`` order — the
        candidate index is pre-sorted by ``str``, so this reproduces the
        dict path's deterministic tie-break exactly.
        """
        nodes, columns = self._candidate_arrays(query)
        scores = row[columns]
        valid = (scores > 0) & (columns != query_index)
        positions = np.flatnonzero(valid)
        if top_k is not None and top_k <= 0:
            positions = positions[:0]
        elif top_k is not None and len(positions) > top_k:
            candidate_scores = scores[positions]
            boundary = np.partition(
                candidate_scores, len(positions) - top_k
            )[len(positions) - top_k]
            above = positions[candidate_scores > boundary]
            at_boundary = positions[candidate_scores == boundary]
            positions = np.concatenate(
                (above, at_boundary[: top_k - len(above)])
            )
        return Ranking.from_arrays(
            [nodes[position] for position in positions], scores[positions]
        )

    def rank(self, query, top_k=None):
        """Ranked answers for ``query``.

        Zero-score candidates are not answers (a node with no instances
        of the relationship is "not similar", not "similar with score
        0"), and dropping them keeps ranked lists comparable across
        structural variants whose isolated-node sets differ.
        """
        if self._array_native():
            return self.rank_many([query], top_k=top_k)[query]
        return self._as_ranking(self.scores(query), top_k)

    def rank_many(self, queries, top_k=None):
        """``{query: Ranking}`` for a batch of queries.

        Array-native algorithms score each chunk with one
        :meth:`score_rows` call and finish with vectorized top-k
        selection; the rest go through :meth:`rank_many_via_scores`.
        Queries are processed in chunks of :attr:`batch_chunk_size` so
        the vectorized implementations keep bounded peak memory on
        arbitrarily large workloads.  Results are contractually
        identical to looping :meth:`rank`.
        """
        queries = list(queries)
        if not self._array_native():
            return self.rank_many_via_scores(queries, top_k=top_k)
        size = max(int(self.batch_chunk_size), 1)
        rankings = {}
        for start in range(0, len(queries), size):
            chunk = queries[start:start + size]
            indices, rows = self.score_rows(chunk)
            for i, query in enumerate(chunk):
                rankings[query] = self._ranking_from_row(
                    query, rows[i], indices[i], top_k
                )
        return rankings

    def rank_many_via_scores(self, queries, top_k=None):
        """``{query: Ranking}`` through the per-candidate dict path.

        The pre-array *ranking* implementation: build the full
        ``{candidate: score}`` dict per query, then sort the whole
        candidate list.  Raw scores still come from :meth:`scores_many`
        (hence :meth:`score_rows` where available) — what this measures
        and cross-checks against :meth:`rank_many` is everything
        downstream of scoring: dict materialization, zero filtering,
        sorting, truncation.  Score *values* are validated separately by
        the per-algorithm behavior tests.  Kept public as the reference
        for equivalence tests and as the baseline the efficiency
        benchmark compares the array-native path against.
        """
        queries = list(queries)
        size = max(int(self.batch_chunk_size), 1)
        rankings = {}
        for start in range(0, len(queries), size):
            chunk = queries[start:start + size]
            for query, scored in self.scores_many(chunk).items():
                rankings[query] = self._as_ranking(scored, top_k)
        return rankings
