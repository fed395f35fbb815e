"""`SimilaritySession` — the one entry point for similarity search.

The seed library made every caller hand-wire ``GraphDatabase`` +
``CommutingMatrixEngine`` + pattern parsing + per-algorithm
constructors, and each algorithm silently built its *own* engine,
re-materializing the same sparse matrices.  A session inverts that: it
owns one shared engine (with an optional byte budget over commuting
matrices and their derived vectors) and every algorithm constructed
through it reuses those matrices.

Four levels of API, lowest to highest::

    session = SimilaritySession(db)

    # 1. construct algorithms by registry name, engine injected
    relsim = session.algorithm("relsim", pattern="p-in.p-in-")

    # 2. fluent single-query builder (with Algorithm-1 expansion)
    ranking = (
        session.query("proc:0")
        .using("relsim", pattern="p-in.p-in-", scoring="cosine")
        .expand_patterns(max_patterns=16)
        .top(10)
    )

    # 3. batch path: all queries scored in one sparse row slice,
    #    ranked with array-native top-k selection (score_rows)
    rankings = session.rank_many(queries, algorithm="relsim",
                                 pattern="p-in.p-in-", top_k=10)

    # 4. serving path: prepare once (parse, expand, compile, warm),
    #    then run per node on engine-cache hits with near-zero overhead
    prepared = session.prepare(algorithm="relsim",
                               pattern="p-in.p-in-",
                               expand={"max_patterns": 16}, top_k=10)
    prepared.run("proc:0")
    prepared.run_many(queries)

The builder and ``rank_many`` are thin adapters over prepare-then-run,
so all four levels share one execution path.
"""

from repro.api.prepared import PreparedQuery
from repro.api.registry import algorithm_class, algorithm_parameters
from repro.exceptions import EvaluationError
from repro.lang.matrix_semantics import CommutingMatrixEngine
from repro.lang.parser import as_patterns


class SimilaritySession:
    """A shared-engine facade over one database snapshot.

    Parameters
    ----------
    database:
        The :class:`~repro.graph.database.GraphDatabase` to search.
    engine:
        Optional pre-built :class:`CommutingMatrixEngine` — pass one
        built on a shared :class:`~repro.graph.matrices.NodeIndexer`
        when comparing scores across structural variants.
    max_star_depth:
        Forwarded to the engine (Kleene-star expansion bound).
    memory_budget:
        When set, a byte bound on the engine's cache (matrices plus
        derived vectors): the engine evicts by measured bytes, spills
        oversized products (computed, returned, not retained), and
        streams oversized chain intermediates in row blocks — queries
        complete with bitwise-identical rankings instead of OOMing.
        Default: unbounded.

    The session is a *snapshot*, like the engine: mutating the database
    afterwards makes cached matrices stale.  For workloads that must
    absorb mutations while serving, use
    :class:`~repro.api.service.SimilarityService` — it owns the current
    session, rebuilds a fresh one off the serving path on
    ``apply``/``swap``, re-binds outstanding prepared queries, and
    swaps snapshots atomically.  The session itself is thread-safe for
    *reads*: the engine, plan compiler, and matrix view are all
    lock-guarded, so N threads can query one session concurrently.
    """

    def __init__(
        self,
        database,
        engine=None,
        max_star_depth=None,
        memory_budget=None,
    ):
        self._database = database
        if engine is None:
            engine = CommutingMatrixEngine(
                database,
                max_star_depth=max_star_depth,
                memory_budget=memory_budget,
            )
        self._engine = engine

    @property
    def database(self):
        return self._database

    @property
    def engine(self):
        return self._engine

    @property
    def view(self):
        return self._engine.view

    @property
    def indexer(self):
        return self._engine.indexer

    def materialize(self, max_length=3, labels=None):
        """Precompute commuting matrices for meta-paths up to a length.

        The paper's Section-7.3 "materialize and pre-load" setting;
        returns the number of matrices now cached.  Runs through the
        engine's plan compiler, so each length-``k`` meta-path is one
        sparse product on top of an already-materialized length-
        ``(k-1)`` chain.
        """
        return self._engine.materialize_simple_patterns(
            max_length=max_length, labels=labels
        )

    def cache_info(self):
        """The shared engine's cache counters and memory accounting.

        Includes ``nnz`` (total cached nonzeros) and ``bytes``
        (approximate resident bytes across matrices and their derived
        vectors), so ``memory_budget`` can be tuned by measured size.
        """
        return self._engine.cache_info()

    def check(self, pattern_or_patterns):
        """Static type-check of a pattern set against the schema.

        Returns ``[(pattern, [Diagnostic, ...]), ...]`` in input order,
        errors and warnings both, without raising and without compiling
        anything — the inspection companion to the enforcement built
        into :meth:`prepare`/:meth:`explain` (which raise
        :class:`~repro.exceptions.PatternTypeError` on error-severity
        diagnostics).  Accepts pattern strings or ASTs; the ``repro
        check`` CLI verb is a thin wrapper over this.
        """
        return self._engine.check(as_patterns(pattern_or_patterns))

    def explain(self, pattern_or_patterns):
        """The compiled evaluation plan for one pattern or a pattern set.

        Returns a human-readable report: canonical form per pattern,
        the cost-chosen multiplication order for concatenation chains,
        estimated nnz/cost, and the sub-plans shared by more than one
        pattern of the set (each of which the engine evaluates exactly
        once).  Accepts pattern strings or ASTs.  No matrices are
        computed, but the plan is binding: chain orders are fixed as an
        actual evaluation would fix them, so the report shows exactly
        what a later ``materialize``/query over these patterns will do.
        """
        return self._engine.explain(as_patterns(pattern_or_patterns))

    def matrices_many(self, pattern_or_patterns):
        """Commuting matrices for a pattern set via the batch plan path.

        Thin passthrough to the engine's ``matrices_many``: the whole
        set is compiled before any pattern executes, so shared
        sub-chains are evaluated once.  Accepts strings or ASTs;
        returns matrices in input order.
        """
        return self._engine.matrices_many(as_patterns(pattern_or_patterns))

    # ------------------------------------------------------------------
    # Construction by name
    # ------------------------------------------------------------------
    def algorithm(self, name, **options):
        """Construct a registered algorithm with the shared engine.

        ``pattern=`` and ``patterns=`` are interchangeable — the session
        maps whichever the caller wrote onto whichever the class
        declares (RelSim aggregates several patterns, the others take
        one).  The shared engine is injected whenever the class accepts
        an ``engine`` (every seed algorithm does); externally registered
        classes without one are constructed as-is.
        """
        parameters = algorithm_parameters(name)
        options = self._normalize_pattern_option(name, parameters, options)
        if "engine" in parameters:
            options.setdefault("engine", self._engine)
        elif "view" in parameters:
            options.setdefault("view", self._engine.view)
        return algorithm_class(name)(self._database, **options)

    @staticmethod
    def _normalize_pattern_option(name, parameters, options):
        options = dict(options)
        if "pattern" in options and "patterns" in options:
            raise EvaluationError(
                "pass either pattern= or patterns=, not both"
            )
        for given, wanted in (("pattern", "patterns"), ("patterns", "pattern")):
            if given in options and given not in parameters:
                if wanted not in parameters:
                    raise EvaluationError(
                        "algorithm {!r} does not take a pattern".format(name)
                    )
                value = options.pop(given)
                if given == "patterns" and isinstance(value, (list, tuple)):
                    if len(value) != 1:
                        raise EvaluationError(
                            "algorithm {!r} takes exactly one pattern, got "
                            "{}".format(name, len(value))
                        )
                    value = value[0]
                options[wanted] = value
        return options

    # ------------------------------------------------------------------
    # Prepared queries (the serving path)
    # ------------------------------------------------------------------
    def prepare(self, algorithm="relsim", top_k=None, expand=None, **options):
        """Prepare a query shape once; run it per node with no overhead.

        Everything that does not depend on the query node happens now:
        option normalization, Algorithm-1 expansion (``expand=True`` or
        a dict of ``constraints``/``use_filters``/``max_patterns``),
        plan compilation, the candidate index, and warming: when the
        set fits under ``memory_budget`` (``engine.warm_exceeds_limits``
        decides), the engine cache is filled with its commuting
        matrices and the diagonals or column norms its scoring reads.
        The returned :class:`~repro.api.prepared.PreparedQuery` then
        answers ``run(node)`` / ``run_many(nodes)`` from those cache
        records — results identical to the equivalent one-shot
        ``session.query(...)`` calls.  It holds compiled plans, never
        matrices, so the budget counts all of its memory.  ``top_k``
        fixes the default answer length.  ``algorithm`` may also be a
        pre-built instance (options and ``expand`` must then be
        omitted).
        """
        return PreparedQuery(
            self, algorithm=algorithm, top_k=top_k, expand=expand, **options
        )

    # ------------------------------------------------------------------
    # Fluent single-query builder
    # ------------------------------------------------------------------
    def query(self, node):
        """A fluent :class:`QueryBuilder` for one query node."""
        return QueryBuilder(self, node)

    # ------------------------------------------------------------------
    # Batch path
    # ------------------------------------------------------------------
    def rank_many(self, queries, algorithm="relsim", top_k=None, **options):
        """``{query: Ranking}`` for a workload, scored in batch.

        ``algorithm`` is a registry name (constructed with the shared
        engine and ``options``) or an already-built
        :class:`SimilarityAlgorithm` instance.  A thin adapter over
        prepare-then-run: the workload executes exactly like
        ``session.prepare(...).run_many(queries)``, with matrix-backed
        algorithms scoring all queries from one sparse row slice per
        pattern (``score_rows``) and ranking through array-native top-k
        selection.  Results are identical to looping
        ``algorithm.rank(q, top_k)``.  Preparing warms only the engine
        cache, so a caller-supplied instance is left holding nothing
        new.
        """
        return self.prepare(
            algorithm=algorithm, top_k=top_k, **options
        ).run_many(queries)


class QueryBuilder:
    """Fluent builder returned by :meth:`SimilaritySession.query`.

    Chain :meth:`using` (algorithm + options), optionally
    :meth:`expand_patterns` (the paper's Algorithm 1 usability layer),
    then finish with :meth:`top`, :meth:`rank` or :meth:`scores`.

    The builder is a thin adapter over the prepared-query path: it
    binds a :class:`~repro.api.prepared.PreparedQuery` and executes
    through it, so fluent and prepared execution share one code path
    and a one-shot query scores through the same code as a prepared
    one.  The bound algorithm is cached; repeated executions reuse it.
    For repeated queries of the same shape, skip the per-call builder
    entirely: :meth:`prepare` (or :meth:`SimilaritySession.prepare`)
    pays the preparation bill once.
    """

    def __init__(self, session, node):
        self._session = session
        self._node = node
        self._name = "relsim"
        self._options = {}
        self._expand = None
        self._prepared = None
        self._patterns_used = None

    def using(self, name, **options):
        """Pick the algorithm by registry name, with constructor options."""
        self._name = name
        self._options = dict(options)
        self._prepared = None
        return self

    def answers_of_type(self, answer_type):
        """Restrict answers to one node type (e.g. drugs for diseases)."""
        self._options["answer_type"] = answer_type
        self._prepared = None
        return self

    def expand_patterns(
        self, constraints=None, use_filters=True, max_patterns=64
    ):
        """Run Algorithm 1 on the supplied simple pattern before scoring.

        The pattern given to :meth:`using` is expanded against the
        schema's constraints (or an explicit ``constraints`` list) into
        the robust RRE set, which RelSim aggregates over.  Only valid
        with pattern-set algorithms (RelSim).
        """
        self._expand = {
            "constraints": constraints,
            "use_filters": use_filters,
            "max_patterns": max_patterns,
        }
        self._prepared = None
        return self

    @property
    def patterns_used(self):
        """The patterns the built algorithm scored with (after a run)."""
        self.build()
        return self._patterns_used

    def build(self):
        """Construct (once) and return the underlying algorithm."""
        if self._prepared is None:
            self._prepared = PreparedQuery(
                self._session,
                algorithm=self._name,
                expand=self._expand,
                **self._options
            )
            self._patterns_used = self._prepared.patterns
        return self._prepared.algorithm

    def prepare(self, top_k=None):
        """Graduate this builder's spec into a prepared query.

        Returns a fresh :class:`~repro.api.prepared.PreparedQuery`
        (engine cache warmed, default ``top_k`` set) ready for
        ``run``/``run_many`` over any query node — the upgrade path
        from "try one query fluently" to "serve this shape".
        """
        return self._session.prepare(
            algorithm=self._name,
            top_k=top_k,
            expand=self._expand,
            **self._options
        )

    def explain(self):
        """The compiled plan report for this query's pattern set.

        Builds the algorithm (running Algorithm 1 first when
        :meth:`expand_patterns` was requested) and explains the pattern
        set it will score with — canonical forms, multiplication
        orders, and the sub-plans shared across the set.  No commuting
        matrices are computed.
        """
        self.build()
        if not self._patterns_used:
            raise EvaluationError(
                "algorithm {!r} scores without patterns; nothing to "
                "explain".format(self._name)
            )
        return self._session.explain(self._patterns_used)

    def scores(self):
        """``{candidate: score}`` for the query node."""
        return self.build().scores(self._node)

    def rank(self, top_k=None):
        """The full (or truncated) :class:`Ranking` for the query node."""
        self.build()
        return self._prepared.run(self._node, top_k=top_k)

    def top(self, k=10):
        """The top-``k`` :class:`Ranking` — the usual way to finish.

        Array-native algorithms serve this through ``score_rows`` +
        ``np.argpartition`` selection, so only ``k`` ``(node, score)``
        pairs are ever materialized.
        """
        return self.rank(top_k=k)
