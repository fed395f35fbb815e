"""Commuting matrices for RREs (Section 4.3 of the paper).

For a pattern ``p`` over database ``D``, the commuting matrix ``M_p`` has
``M_p[u, v] = |I^{u,v}_D(p)|`` — the number of instances of ``p`` from
``u`` to ``v``.  The paper's recursive rules::

    M_a        = A_a                          (per-label adjacency)
    M_{p-}     = M_p^T
    M_{p1.p2}  = M_{p1} M_{p2}
    M_{p1+p2}  = M_{p1} + M_{p2}   if p1 != p2, else M_{p1}
    M_<<p>>    = M_p > 0                      (boolean / skip)
    M_[p]      = diag{ M_p (M_p^T > 0) }      (nested)
    M_{p*}     = I + M_p + M_p^2 + ...        (bounded; see below)

The engine **compiles before it executes**: every pattern goes through
the plan compiler (:mod:`repro.lang.plan`), which canonicalizes it
(reverse pushed to leaves, unions deduplicated and sorted, ...) and
interns the result into a plan DAG.  The memo cache is keyed on
canonical plan nodes, so associativity-equivalent and
reverse-normalized spellings of the same pattern share one cache entry,
shared sub-plans across a pattern set are evaluated exactly once
(cross-pattern CSE), and concatenation chains are multiplied in a
cost-chosen order (sparse matrix-chain ordering over nnz estimates).
``matrices_many`` is the batch entry point that lets the compiler see a
whole pattern set — e.g. Algorithm 1's expansion — before any chain
order is fixed.

The engine also supports the paper's "materialize all meta-paths up to
length 3" setting and owns the one scoring path RelSim and PathSim
share (:meth:`CommutingMatrixEngine.score_plans`).  Live updates patch
the cache through :mod:`repro.lang.delta`.  The seed's direct AST
recursion, the oracle the plan path is tested and benchmarked against,
is :func:`repro.lang.semantics.naive_matrix`.
"""

import itertools
import threading
from collections import Counter, OrderedDict, namedtuple

import numpy as np
import scipy.sparse as sp

from repro.analysis import (
    WARNING,
    Diagnostic,
    PatternTypeChecker,
    has_errors,
    sort_diagnostics,
)
from repro.exceptions import (
    ConfigurationError,
    EvaluationError,
    ReproError,
    StarDivergenceError,
)
from repro.graph.matrices import (
    MatrixView,
    boolean,
    canonical,
    csr_product,
    dense_rows,
)
from repro.lang.ast import Pattern, Star, render_with_spans, simple_pattern
from repro.lang.delta import propagate
from repro.lang.parser import parse_pattern
from repro.lang.plan import (
    PlanCompiler,
    _chain_cost,
    estimate,
    estimate_bytes,
    order_chain,
    render_order,
)


class PlanEntry(namedtuple("PlanEntry", "matrix norms diagonal bytes")):
    """One engine cache record: a plan's matrix and its derived vectors.

    ``norms`` (cosine column norms) and ``diagonal`` (PathSim
    denominators) are ``None`` until first asked for; ``bytes`` counts
    every buffer the record holds.  Records are replaced, never
    mutated, because each version of an engine shares them with the
    older versions that are still serving.  The same record is what
    :meth:`CommutingMatrixEngine.export_cache` hands out, what
    :meth:`~CommutingMatrixEngine.preload` installs and what a serving
    snapshot stores (:mod:`repro.server.snapshot`).
    """

    __slots__ = ()

    @classmethod
    def of(cls, matrix, norms=None, diagonal=None):
        """A record for ``matrix`` and its vectors, ``bytes`` filled in."""
        size = (
            matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        )
        for vector in (norms, diagonal):
            if vector is not None:
                size += vector.nbytes
        return cls(matrix, norms, diagonal, size)

    def with_vector(self, field, vector):
        """A copy with ``field`` (``"norms"`` or ``"diagonal"``) set."""
        vectors = {"norms": self.norms, "diagonal": self.diagonal}
        vectors[field] = vector
        return PlanEntry.of(self.matrix, **vectors)


def star_sum(identity, base, max_depth, origin):
    """``I + M + M^2 + ...`` with the divergence bound.

    Shared by the engine and the oracle
    :func:`repro.lang.semantics.naive_matrix`.
    """
    total = identity
    power = base.copy()
    depth = 1
    while power.nnz > 0:
        if depth > max_depth:
            raise StarDivergenceError(origin, max_depth)
        total = total + power
        power = (power @ base).tocsr()
        depth += 1
    return total.tocsr()


def pathsim_rows(matrix, indices, diagonal=None, out=None):
    """PathSim score rows for the given indexer ``indices``.

    ``scores[i, v] = 2 M[indices[i], v] / (M[indices[i], indices[i]] +
    M[v, v])`` with 0 where the denominator vanishes — Equation 1 over
    one sparse row slice.  A score can only be nonzero where the row
    itself is, so the arithmetic touches each row's stored entries
    instead of all ``n`` columns (the serving hot path runs this per
    pattern per request).  Pass a precomputed ``diagonal`` to skip
    re-extracting it on every call; ``matrix`` must be canonical CSR.

    With ``out`` (a ``(len(indices), n)`` float array), scores are
    *added* into it and ``out`` is returned — the accumulator form
    :meth:`CommutingMatrixEngine.score_plans` uses to sum a 16-pattern
    expansion without allocating a dense block per pattern.
    """
    if diagonal is None:
        diagonal = matrix.diagonal()
    scores = out
    if scores is None:
        scores = np.zeros((len(indices), matrix.shape[1]))
    indptr, columns, data = matrix.indptr, matrix.indices, matrix.data
    for i, row in enumerate(indices):
        start, end = indptr[row], indptr[row + 1]
        cols = columns[start:end]
        denominator = diagonal[row] + diagonal[cols]
        positive = denominator > 0
        if not positive.all():
            cols = cols[positive]
            denominator = denominator[positive]
            values = data[start:end][positive]
        else:
            values = data[start:end]
        scores[i, cols] += 2.0 * values / denominator
    return scores


def _cosine_norms(matrix):
    """Euclidean norm of each column of ``matrix`` (dense vector)."""
    squared = matrix.multiply(matrix).sum(axis=0)
    return np.sqrt(np.asarray(squared).ravel())


#: How each :class:`PlanEntry` vector is reduced from its matrix.
_REDUCERS = {
    "diagonal": lambda matrix: matrix.diagonal(),
    "norms": _cosine_norms,
}

#: The scoring modes of :meth:`CommutingMatrixEngine.score_plans`, each
#: mapped to the record vector it reads besides the matrix: Equation 1
#: needs the diagonal, cosine the column norms, raw counts nothing.
SCORING_VECTORS = {"pathsim": "diagonal", "count": None, "cosine": "norms"}

#: The density warnings fire above this estimated fraction of the n^2
#: possible nonzeros: a quarter-dense similarity matrix at serving
#: scale is already an incident.
_DENSITY_BUDGET = 0.25

#: Message of each density warning: ``density-budget`` on a whole
#: pattern, ``star-blowup`` on a Kleene star within it.
_DENSITY_WARNINGS = {
    "density-budget": "estimated result density {density:.0%} exceeds the "
    "budget of {budget:.0%} (~{nnz:,.0f} estimated nonzeros over {n:,} "
    "nodes)",
    "star-blowup": "Kleene star closure estimated at ~{nnz:,.0f} nonzeros "
    "({density:.0%} dense over {n:,} nodes); expect a near-dense "
    "intermediate",
}


class CommutingMatrixEngine:
    """Computes and caches commuting matrices over one database snapshot.

    Parameters
    ----------
    database_or_view:
        Either a :class:`GraphDatabase` (a fresh :class:`MatrixView` is
        built) or an existing view — pass a view built on a *shared*
        :class:`NodeIndexer` when comparing scores across structural
        variants of the same database.
    max_star_depth:
        Expansion bound for Kleene star counting; default is the node
        count.  Divergence raises :class:`StarDivergenceError`.
    memory_budget:
        When set, a *byte* bound on the cache (CSR buffers plus derived
        norm/diagonal vectors).  ``None`` (the default) keeps every
        matrix, matching the paper's "materialize and pre-load"
        setting.  The budget evicts LRU-first by measured bytes at
        every publish.  A single product larger than the whole budget
        is still *computed and returned* to its caller, just never
        retained (it "spills": the next use recomputes), so queries
        complete with bitwise-identical results instead of dying, and
        :meth:`warm` leaves a pattern set cold when its estimated bytes
        exceed the budget.  ``cache_info()`` reports ``memory_budget`` /
        ``budget_used`` / ``spilled``.

    The cache is keyed on canonical *plan nodes*, not raw ASTs: any two
    patterns with the same canonical form — ``(a.b)-`` and ``b-.a-``,
    ``a+b`` and ``b+a``, re-parenthesized concatenations — share one
    entry, and intermediate chain products live in the same LRU, so a
    sub-chain shared across patterns is computed once.  Each entry is
    one immutable :class:`PlanEntry` holding the matrix together with
    its derived vectors, so eviction, delta patches and snapshots
    always move a vector with its matrix.  (Plan nodes and
    the pattern->plan memo are retained for the engine's lifetime; they
    are a few hundred bytes each, negligible next to one matrix.)

    The engine is thread-safe: the LRU is lock-guarded with
    double-checked access — products are computed *outside* the lock
    and published under it, so N serving threads share one engine
    without serializing on sparse multiplications (a concurrent
    duplicate computation loses the publish race and adopts the
    winner's matrix).  The plan compiler carries its own lock for the
    interning tables and chain-ordering decisions.
    """

    def __init__(
        self, database_or_view, max_star_depth=None, memory_budget=None
    ):
        if isinstance(database_or_view, MatrixView):
            self._view = database_or_view
        else:
            self._view = MatrixView(database_or_view)
        self._default_star_depth = max_star_depth is None
        if max_star_depth is None:
            max_star_depth = max(self._view.num_nodes(), 1)
        if memory_budget is not None and memory_budget < 1:
            raise ConfigurationError(
                "memory_budget must be >= 1 byte or None, got {}".format(
                    memory_budget
                )
            )
        self._max_star_depth = max_star_depth
        self._memory_budget = (
            None if memory_budget is None else int(memory_budget)
        )
        # Every new pattern is statically type-checked against the
        # database schema before it compiles: ill-typed patterns raise
        # PatternTypeError here instead of evaluating to an empty or
        # nonsensical ranking.  Untyped schemas (no node_types) only
        # ever reject unknown labels.  The checker reads only the
        # schema, so every version of the engine shares it with the
        # compiler.
        self._compiler = PlanCompiler(
            checker=PatternTypeChecker(self._view.schema)
        )
        self._lock = threading.RLock()
        self._cache = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._spilled = 0
        self._patched = 0
        self._invalidated = 0
        self._delta_applies = 0

    @property
    def view(self):
        return self._view

    @property
    def indexer(self):
        return self._view.indexer

    @property
    def compiler(self):
        """The engine's plan compiler (one interner per snapshot)."""
        return self._compiler

    @property
    def memory_budget(self):
        """The cache byte budget (``None`` = unbounded)."""
        return self._memory_budget

    def warm_exceeds_limits(self, patterns):
        """True when warming the whole pattern set would defeat the budget.

        :meth:`warm` asks this before it materializes a set: a set whose
        estimated resident bytes exceed ``memory_budget`` would only
        evict its own head while it warms.  It decides nothing else —
        scoring reads every record from the cache, so the budget holds
        whatever the estimate says.
        """
        plans = [self.compile(pattern) for pattern in patterns]
        if self._memory_budget is None:
            return False
        n = self._view.num_nodes()
        estimated = sum(
            estimate_bytes(plan, self._view.label_stats, n)
            for plan in dict.fromkeys(plans)
        )
        return estimated > self._memory_budget

    # ------------------------------------------------------------------
    # Compile and execute
    # ------------------------------------------------------------------
    def compile(self, pattern):
        """The canonical :class:`~repro.lang.plan.PlanNode` for a pattern."""
        if not isinstance(pattern, Pattern):
            raise TypeError(
                "pattern must be a Pattern AST, got {!r}".format(pattern)
            )
        return self._compiler.compile(pattern)

    def check(self, patterns):
        """Static diagnostics for a pattern set; this engine plans nothing.

        Returns ``[(pattern, [Diagnostic, ...]), ...]`` in input order —
        errors *and* warnings, nothing raised.  This is the inspection
        entry (``repro check`` and ``SimilaritySession.check``); the
        enforcement path is :meth:`compile`, which raises
        :class:`~repro.exceptions.PatternTypeError` on errors.  A pattern
        without errors also gets the density warnings, estimated on a
        plan compiled apart from this engine's, so checking leaves the
        planning state (interned nodes, sub-chain counts, chain orders)
        as it was.
        """
        return [(pattern, self._diagnostics(pattern)) for pattern in patterns]

    def _diagnostics(self, pattern, plan=None):
        """Every diagnostic of ``pattern``, most severe first.

        The checker's, plus — when the pattern has no errors and the
        graph has nodes — the ``density-budget`` and ``star-blowup``
        warnings, read from :func:`~repro.lang.plan.estimate` over
        this engine's view.  The whole pattern is estimated on ``plan``,
        its plan in this engine, or without one on a plan compiled
        apart; each Kleene star is always compiled apart.
        """
        diagnostics = self._compiler.checker.check(pattern)
        n = self._view.num_nodes()
        if has_errors(diagnostics) or not n:
            return diagnostics
        scratch = PlanCompiler()
        dense = [(pattern, plan or scratch.compile(pattern), "density-budget")]
        stack = [pattern]
        while stack:
            node = stack.pop()
            stack.extend(node.children())
            if isinstance(node, Star):
                dense.append((node, scratch.compile(node), "star-blowup"))
        text, spans = render_with_spans(pattern)
        for node, node_plan, code in dense:
            nnz = estimate(node_plan, self._view.label_stats, n).nnz
            if nnz > _DENSITY_BUDGET * n * n:
                message = _DENSITY_WARNINGS[code].format(
                    nnz=nnz,
                    density=min(nnz / (n * n), 1.0),
                    budget=_DENSITY_BUDGET,
                    n=n,
                )
                diagnostics.append(
                    Diagnostic(
                        WARNING,
                        code,
                        message,
                        span=spans[id(node)],
                        pattern_text=text,
                    )
                )
        return sort_diagnostics(diagnostics)

    def matrix(self, pattern):
        """The commuting matrix ``M_pattern`` (CSR, cached)."""
        return self._plan_matrix(self.compile(pattern))

    def matrices_many(self, patterns):
        """Commuting matrices for a whole pattern set (list, input order).

        The batch entry point: every pattern is *compiled* before any is
        *executed*, so the chain-ordering step sees complete sub-chain
        sharing statistics and each shared prefix/sub-chain of the set
        is evaluated exactly once.  This is how RelSim evaluates an
        Algorithm-1 expansion.
        """
        plans = [self.compile(pattern) for pattern in patterns]
        return [self._plan_matrix(plan) for plan in plans]

    def warm(self, patterns, scoring=None):
        """Materialize a pattern set's records now, if the set fits.

        The serving warm-set entry: prepared queries call this at bind
        so their runs start from cache hits.  The whole set is compiled
        before any record executes, as in :meth:`matrices_many`, and
        each record also gets the vector the ``scoring`` mode of
        :meth:`score_plans` reads.  A set :meth:`warm_exceeds_limits`
        refuses is left cold; scoring then computes each record on use.
        Returns True when the set was warmed.
        """
        patterns = list(patterns)
        if self.warm_exceeds_limits(patterns):
            return False
        field = SCORING_VECTORS.get(scoring)
        for pattern in patterns:
            self._plan_entry(self.compile(pattern), field)
        return True

    # ------------------------------------------------------------------
    # Incremental delta maintenance
    # ------------------------------------------------------------------
    def fork(self):
        """A copy of this engine over the same view, sharing its records.

        The copy step of :meth:`apply_delta`, which then gives the copy
        the next version's view and records.  The copy holds its own
        cache dict, so whatever either engine caches later stays its
        own, while the records themselves — immutable — are shared.
        The plan compiler is shared too (canonical plan nodes keep
        keying both engines' caches — that sharing is what lets the
        next version patch this one's materialized products), as are
        the byte budget, star bound, and hit/miss counters.
        """
        clone = CommutingMatrixEngine.__new__(CommutingMatrixEngine)
        clone._view = self._view
        clone._default_star_depth = self._default_star_depth
        clone._max_star_depth = self._max_star_depth
        clone._memory_budget = self._memory_budget
        clone._compiler = self._compiler
        clone._lock = threading.RLock()
        with self._lock:
            clone._cache = OrderedDict(self._cache)
            clone._hits = self._hits
            clone._misses = self._misses
            clone._spilled = self._spilled
            clone._patched = self._patched
            clone._invalidated = self._invalidated
            clone._delta_applies = self._delta_applies
        return clone

    def apply_delta(self, edges_added=(), edges_removed=(), nodes_added=()):
        """The next version: this engine with an edge/node delta applied.

        Returns ``(engine, stats)`` and leaves this engine, its view and
        its records serving the version they served.  The new engine is
        a :meth:`fork` whose view is :meth:`MatrixView.apply_delta
        <repro.graph.matrices.MatrixView.apply_delta>`'s next version
        (validated first: a failing delta raises and makes no engine;
        no database is written).  The per-label adjacency patches
        ``ΔA`` are then propagated through the copied records by
        :func:`repro.lang.delta.propagate`: a chain's change is
        ``ΔL·R_new + L_old·ΔR``, each shared sub-plan is resolved once,
        and records whose labels the delta does not touch are kept as
        they are.  A record the pass cannot maintain cheaply (an input
        delta denser than
        :data:`~repro.lang.delta.DELTA_REBUILD_THRESHOLD` x the input's
        nnz, an evicted input, a changed Kleene-star base) is
        **invalidated**: left out of the new cache and lazily recomputed
        on next use, never served stale.  Commuting matrices hold
        integer counts, exact in float64, so a patched matrix — and the
        rankings computed from it — is bitwise identical to a full
        rebuild.

        ``stats`` holds ``patched`` / ``kept`` / ``invalidated``
        cache-entry counts, ``entries`` (the new cache's size),
        ``labels`` (touched labels) and ``nodes_added``.
        """
        engine = self.fork()
        engine._view, delta = self._view.apply_delta(
            edges_added=edges_added,
            edges_removed=edges_removed,
            nodes_added=nodes_added,
        )
        engine._delta_applies += 1
        if engine._default_star_depth:
            engine._max_star_depth = max(delta.num_nodes, 1)
        engine._cache, counts = propagate(
            engine._cache, delta, engine._view, engine._compiler
        )
        engine._patched += counts["patched"]
        engine._invalidated += counts["invalidated"]
        # Patched entries can be larger than what they replaced (a
        # delta that densifies a product); re-assert the budget so it
        # holds across live updates too.
        engine._evict()
        return engine, dict(
            counts,
            entries=len(engine._cache),
            labels=sorted(delta.patches),
            nodes_added=len(delta.added_nodes),
        )

    def _plan_matrix(self, node):
        return self._plan_entry(node).matrix

    def _plan_entry(self, node, field=None):
        """``node``'s cache record, with its ``field`` vector filled in.

        ``field`` is ``"diagonal"``, ``"norms"`` or None (the matrix
        alone).  A hit takes the lock once and counts one hit; a record
        computed here counts one miss.  Double-checked LRU access: look
        up under the lock, compute outside it (sparse products can take
        seconds; holding the lock would serialize every serving
        thread), publish under it.  A thread that loses a publish race
        retries and adopts the winner's record, so callers share one
        matrix object per plan node, and a vector is only ever
        published into the record of the matrix it was reduced from.  A
        record the budget cannot hold, or one evicted while its vector
        was reduced, is returned without being retained: it spills, and
        the next use recomputes it.
        """
        while True:
            with self._lock:
                cached = self._cache.get(node)
                if cached is not None:
                    self._hits += 1
                    self._cache.move_to_end(node)
                    if field is None or getattr(cached, field) is not None:
                        return cached
            entry = (
                cached if cached is not None
                else PlanEntry.of(self._execute(node))
            )
            if field is not None:
                entry = entry.with_vector(
                    field, _REDUCERS[field](entry.matrix)
                )
            with self._lock:
                current = self._cache.get(node)
                if current is cached:
                    if cached is None:
                        self._misses += 1
                    self._cache[node] = entry
                    self._cache.move_to_end(node)
                    self._evict()
                    return entry
                if current is None:
                    return entry

    def _execute(self, node):
        kind = node.kind
        if kind == "eps":
            result = self._view.identity()
        elif kind == "leaf":
            result = self._view.adjacency(node.payload)
        elif kind == "transpose":
            result = self._plan_matrix(node.children[0]).T.tocsr()
        elif kind == "chain":
            self._ensure_ordered(node)
            return csr_product(
                self._plan_matrix(node.left), self._plan_matrix(node.right)
            )
        elif kind == "add":
            result = self._plan_matrix(node.children[0])
            for child in node.children[1:]:
                result = result + self._plan_matrix(child)
            result = result.tocsr()
        elif kind == "hadamard":
            result = self._plan_matrix(node.children[0])
            for child in node.children[1:]:
                result = result.multiply(self._plan_matrix(child))
            result = result.tocsr()
        elif kind == "bool":
            result = boolean(self._plan_matrix(node.children[0]))
        elif kind == "nested":
            # diag{M (M^T > 0)} is M's row sums over count matrices (see
            # repro.lang.delta); naive_matrix keeps the literal product.
            inner = self._plan_matrix(node.children[0])
            result = sp.diags(
                np.asarray(inner.sum(axis=1)).ravel(), format="csr"
            )
        elif kind == "star":
            result = star_sum(
                self._view.identity(),
                self._plan_matrix(node.children[0]),
                self._max_star_depth,
                node,
            )
        else:
            raise TypeError("unhandled plan node kind {!r}".format(kind))
        return canonical(result)

    def _ensure_ordered(self, node):
        if node.split_at is None:
            view = self._view
            order_chain(
                node, view.label_stats, view.num_nodes(), self._compiler
            )

    def _evict(self):
        """Drop least-recently-used records until the budget holds.

        A record leaves whole, its vectors with its matrix.  The
        just-published record goes too when it alone busts the budget:
        the caller keeps the returned value, the cache does not — the
        next use recomputes ("spill").
        """
        if self._memory_budget is None:
            return
        used = sum(entry.bytes for entry in self._cache.values())
        while used > self._memory_budget:
            used -= self._cache.popitem(last=False)[1].bytes
            self._spilled += 1

    def column_norms(self, pattern):
        """Euclidean norm of each column of ``M_pattern`` (cached).

        Shared denominator of the cosine scoring mode; caching it here
        (instead of per algorithm instance) lets every algorithm built on
        the same engine — e.g. through one ``SimilaritySession`` — reuse
        the vector.  Kept in the pattern's plan record, next to its
        matrix.  Delta maintenance drops the vector when the pattern's
        matrix changes, so a stale norm vector is never served.
        """
        return self._plan_entry(self.compile(pattern), "norms").norms

    def diagonal(self, pattern):
        """The main diagonal of ``M_pattern`` as a dense vector (cached).

        The PathSim denominator terms (Equation 1).  Kept in the
        pattern's plan record, so every algorithm on the engine shares
        one extraction per pattern, and a live update keeps it for free:
        delta maintenance *patches* the vector (old + Δ.diagonal(), exact
        in integer float64) instead of invalidating it.
        """
        return self._plan_entry(self.compile(pattern), "diagonal").diagonal

    # ------------------------------------------------------------------
    # Materialization (the paper pre-loads meta-paths up to length 3)
    # ------------------------------------------------------------------
    def materialize_simple_patterns(self, max_length=3, labels=None):
        """Precompute commuting matrices for all meta-paths up to a length.

        Mirrors the experimental setting of Section 7.3: "commuting
        matrices of all meta-paths up to size 3 are materialized and
        pre-loaded".  Returns the number of matrices now cached.

        Runs through :meth:`matrices_many`, so longer meta-paths are
        built from the already-materialized shorter ones (a length-3
        chain is one sparse product on top of a cached length-2 chain)
        instead of being recomputed from the leaves.  Under a typed
        schema, label combinations the type checker rejects (provably
        empty chains like ``p-in.p-in``) are pruned up front.

        Raises :class:`~repro.exceptions.EvaluationError` when the
        requested pattern set's estimated bytes do not fit under
        ``memory_budget`` — "pre-load everything" and "stay under B
        bytes" are contradictory requests, and materialization would
        evict each matrix as the next is built.
        """
        if labels is None:
            labels = sorted(self._view.used_labels())
        steps = [(name, False) for name in labels]
        steps += [(name, True) for name in labels]
        patterns = [
            simple_pattern(list(combo))
            for length in range(1, max_length + 1)
            for combo in itertools.product(steps, repeat=length)
        ]
        # Under a typed schema most label combinations are ill-typed
        # (``p-in.p-in`` composes a proc into a paper-source label) and
        # provably empty; "all meta-paths" sensibly means the
        # type-conforming ones, and compiling the rest would fail fast.
        checker = self._compiler.checker
        patterns = [
            pattern
            for pattern in patterns
            if not has_errors(checker.check(pattern))
        ]
        if self.warm_exceeds_limits(patterns):
            raise EvaluationError(
                "materializing {} simple patterns exceeds memory_budget={} "
                "by the planner's byte estimate; raise the budget or "
                "materialize fewer patterns".format(
                    len(patterns), self._memory_budget
                )
            )
        self.matrices_many(patterns)
        with self._lock:
            return len(self._cache)

    def cache_size(self):
        with self._lock:
            return len(self._cache)

    def cache_info(self):
        """Cache counters plus memory accounting.

        Keys: ``matrices`` / ``column_norms`` / ``diagonals`` (entry
        counts), ``hits`` / ``misses``, the size-based pair the budget
        can be tuned against — ``nnz`` (total stored nonzeros across
        cached matrices) and ``bytes`` (approximate resident bytes of
        matrices *and* derived vectors: CSR data + indices + indptr
        buffers plus norm/diagonal array buffers, summed over the
        records' ``bytes`` fields) — the byte-budget triple
        ``memory_budget`` (configured bytes or None) / ``budget_used``
        (same accounting as ``bytes``: what the budget currently holds)
        / ``spilled`` (matrices computed but evicted by the budget —
        each spill is a future recompute), and the delta-maintenance
        counters ``patched`` / ``invalidated`` / ``delta_applies``.

        The accounting is live: patched matrices report their
        post-patch buffers (cancelled entries are eliminated, never
        counted as phantom nonzeros) and invalidated or evicted entries
        drop out of every figure the moment they leave the cache.
        """
        with self._lock:
            entries = list(self._cache.values())
            hits, misses = self._hits, self._misses
            spilled = self._spilled
            patched, invalidated = self._patched, self._invalidated
            delta_applies = self._delta_applies
        used = sum(entry.bytes for entry in entries)
        return {
            "matrices": len(entries),
            "column_norms": sum(entry.norms is not None for entry in entries),
            "diagonals": sum(entry.diagonal is not None for entry in entries),
            "hits": hits,
            "misses": misses,
            "nnz": int(sum(entry.matrix.nnz for entry in entries)),
            "bytes": used,
            "memory_budget": self._memory_budget,
            "budget_used": used,
            "spilled": spilled,
            "patched": patched,
            "invalidated": invalidated,
            "delta_applies": delta_applies,
        }

    # ------------------------------------------------------------------
    # Cache export / preload (snapshot persistence)
    # ------------------------------------------------------------------
    def export_cache(self):
        """The cache records, keyed by canonical pattern text.

        Returns ``[(text, PlanEntry)]`` in LRU order (least recently
        used first), where ``text`` is the canonical concrete syntax of
        each record's plan node.  Canonical text re-parses and
        re-compiles to the same interned plan on any compiler over the
        same pattern language, which is what lets a snapshot written by
        one process warm the cache of another — see :meth:`preload`
        (which skips the one exception, a sum of canonically equal
        disjuncts) and :mod:`repro.server.snapshot`.  Records are
        immutable, so exporting is cheap and safe under concurrency.
        """
        with self._lock:
            return [(str(plan), entry) for plan, entry in self._cache.items()]

    def preload(self, records):
        """Install previously exported ``(text, PlanEntry)`` records.

        The warm start.  Each text is parsed and compiled, so the record
        lands under exactly the plan node a live query for the same
        pattern will look up, replacing any record already there.  A
        record that no longer fits — unparseable text (e.g. a label the
        RRE tokenizer cannot spell), text whose plan does not print as
        that text, a matrix whose shape does not match this engine's
        node count, or a vector of the wrong length — is *skipped*,
        never installed: a warm start is an optimization, and a skipped
        record merely recomputes lazily.  The text check catches a sum
        of disjuncts that differ as written but are canonically equal:
        ``w--+w`` is ``2 M_w`` and prints as ``w+w``, which parses to
        ``w``, so filing its record under that text's plan would
        replace ``w``'s.

        Preloading counts toward neither hits nor misses.  Returns the
        installed ``matrices`` / ``column_norms`` / ``diagonals`` and
        the ``skipped`` record counts.
        """
        n = self._view.num_nodes()
        loaded = dict.fromkeys(
            ("matrices", "column_norms", "diagonals", "skipped"), 0
        )
        installs = []
        for text, entry in records:
            try:
                plan = self.compile(parse_pattern(text))
            except ReproError:
                plan = None
            vectors = (entry.norms, entry.diagonal)
            if (
                plan is None
                or str(plan) != text
                or entry.matrix.shape != (n, n)
                or any(v is not None and len(v) != n for v in vectors)
            ):
                loaded["skipped"] += 1
                continue
            installs.append((plan, entry))
            loaded["matrices"] += 1
            loaded["column_norms"] += entry.norms is not None
            loaded["diagonals"] += entry.diagonal is not None
        with self._lock:
            self._cache.update(installs)
            self._evict()
        return loaded

    # ------------------------------------------------------------------
    # Plan introspection
    # ------------------------------------------------------------------
    def _plan_nodes(self, node, acc):
        """Collect ``node`` and every sub-plan it executes into ``acc``."""
        if node in acc:
            return
        acc.add(node)
        if node.kind == "chain":
            self._ensure_ordered(node)
            self._plan_nodes(node.left, acc)
            self._plan_nodes(node.right, acc)
        else:
            for child in node.children:
                self._plan_nodes(child, acc)

    def explain(self, patterns):
        """A human-readable report of the compiled plan for a pattern set.

        For each pattern: its canonical form, the chosen multiplication
        order (chains print with explicit binary parentheses), and the
        estimated product nnz / amortized flop cost.  A closing section
        lists the sub-plans shared by more than one pattern of the set —
        each is evaluated exactly once.  No product matrices are
        computed (only leaf adjacencies, for exact nnz counts) — but
        the plan state is real, not a dry run: the set is compiled and
        its chain orders are fixed exactly as :meth:`matrices_many`
        would fix them, and ordering decisions are sticky (first
        planned wins), so later evaluation of these patterns uses
        precisely the printed orders, and the set's sub-chains now
        count toward the sharing statistics that bias future plans.
        """
        patterns = list(patterns)
        plans = [self.compile(pattern) for pattern in patterns]
        n = self._view.num_nodes()
        leaf_stats = self._view.label_stats
        per_pattern = []
        usage = Counter()
        for plan in plans:
            nodes = set()
            self._plan_nodes(plan, nodes)
            per_pattern.append(nodes)
            usage.update(nodes)
        # Read after ordering: interning sub-chains may prune the counts.
        uses = self._compiler.subchain_uses
        all_nodes = set().union(*per_pattern) if per_pattern else set()
        shared = sorted(
            (node for node, count in usage.items() if count >= 2),
            key=lambda node: (-usage[node], str(node)),
        )
        lines = [
            "compiled plan: {} pattern{}, {} unique node{}, {} shared".format(
                len(patterns),
                "" if len(patterns) == 1 else "s",
                len(all_nodes),
                "" if len(all_nodes) == 1 else "s",
                len(shared),
            )
        ]
        for position, (pattern, plan) in enumerate(
            zip(patterns, plans), start=1
        ):
            lines.append("[{}] pattern:   {}".format(position, pattern))
            lines.append("    canonical: {}".format(plan))
            lines.append("    order:     {}".format(render_order(plan)))
            line = "    est nnz ~ {:.0f}".format(
                estimate(plan, leaf_stats, n).nnz
            )
            if plan.kind == "chain":
                cost = _chain_cost(plan, leaf_stats, n, uses)
                line += ", est cost ~ {:.0f} flops (amortized)".format(cost)
            lines.append(line)
            # Static diagnostics (warning tier only: the compile above
            # already raised on errors).
            for diagnostic in self._diagnostics(pattern, plan):
                lines.append("    diagnostics: {}".format(diagnostic.format()))
        if shared:
            lines.append("shared sub-plans (each evaluated once):")
            for node in shared:
                lines.append(
                    "    {}   (in {} patterns, est nnz ~ {:.0f})".format(
                        node,
                        usage[node],
                        estimate(node, leaf_stats, n).nnz,
                    )
                )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Scores
    # ------------------------------------------------------------------
    def query_indices(self, nodes):
        """Indexer positions for ``nodes`` (see ``MatrixView.query_indices``)."""
        return self._view.query_indices(nodes)

    def count(self, pattern, u, v):
        """``|I^{u,v}(pattern)|`` as a float (exact for realistic sizes)."""
        matrix = self.matrix(pattern)
        return float(
            matrix[self.indexer.index_of(u), self.indexer.index_of(v)]
        )

    def pathsim_score(self, pattern, u, v):
        """Equation 1: ``2 M(u,v) / (M(u,u) + M(v,v))`` (0 when undefined)."""
        matrix = self.matrix(pattern)
        iu = self.indexer.index_of(u)
        iv = self.indexer.index_of(v)
        denominator = matrix[iu, iu] + matrix[iv, iv]
        if denominator == 0:
            return 0.0
        return float(2.0 * matrix[iu, iv] / denominator)

    def pathsim_scores_from(self, pattern, u):
        """PathSim scores from ``u`` to every node, as a dense vector."""
        return self.score_plans(
            [self.compile(pattern)], "pathsim", self.query_indices([u])
        )[0]

    def score_plans(self, plans, scoring, indices):
        """Score rows for the indexer ``indices``, summed over ``plans``.

        The one scoring path of RelSim and PathSim (PathSim is RelSim's
        ``"pathsim"`` mode over one pattern): a ``(len(indices), n)``
        array whose row ``i`` sums, over the compiled ``plans``, each
        plan's scores for query ``indices[i]`` in the ``scoring`` mode —
        ``"pathsim"`` (Equation 1, :func:`pathsim_rows`), ``"count"``
        (raw instance counts) or ``"cosine"`` (counts over the query
        row's and each candidate column's norm; 0 where either is 0).

        Each plan's record — the matrix plus the vector its mode reads —
        comes from the cache one plan at a time, a hit costing one lock
        acquisition, and a record the budget spilled is recomputed here.
        A scorer therefore holds no matrix between calls, and the byte
        budget accounts for all of its memory.
        """
        field = SCORING_VECTORS[scoring]
        total = np.zeros((len(indices), len(self.indexer)))
        for plan in plans:
            entry = self._plan_entry(plan, field)
            if scoring == "pathsim":
                pathsim_rows(entry.matrix, indices, entry.diagonal, out=total)
                continue
            rows = dense_rows(entry.matrix, indices)
            if scoring == "cosine":
                row_norms = np.linalg.norm(rows, axis=1)
                norms = entry.norms
                defined = (row_norms[:, None] > 0) & (norms[None, :] > 0)
                denominator = row_norms[:, None] * norms[None, :]
                scores = np.zeros_like(rows)
                scores[defined] = rows[defined] / denominator[defined]
                rows = scores
            total += rows
        return total
