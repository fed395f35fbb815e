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
share (:meth:`CommutingMatrixEngine.score_plans`).  The seed's direct
AST recursion is kept as :func:`naive_matrix` — the reference oracle
the plan path is tested and benchmarked against.
"""

import itertools
import threading
from collections import Counter, OrderedDict, namedtuple

import numpy as np
import scipy.sparse as sp

from repro.analysis import PatternTypeChecker, has_errors
from repro.exceptions import (
    ConfigurationError,
    EvaluationError,
    ReproError,
    StarDivergenceError,
)
from repro.graph.matrices import (
    MatrixView,
    add_patch,
    boolean,
    csr_product,
    dense_rows,
    diagonal_of,
    identity_patch,
    resized,
    trusted_csr,
)
from repro.lang.ast import (
    Concat,
    Conj,
    Epsilon,
    Label,
    Nested,
    Pattern,
    Reverse,
    Skip,
    Star,
    Union,
    simple_pattern,
)
from repro.lang.plan import (
    PlanCompiler,
    embeds_identity,
    estimate_bytes,
    estimate_nnz,
    leaf_labels,
    order_chain,
    product_nnz,
    render_order,
)

#: Sentinel for a cache entry the delta pass cannot maintain cheaply —
#: it is dropped (lazily recomputed on next use) instead of patched.
_INVALID = object()

#: A cached product whose input delta is denser than this fraction of
#: the input's nnz is invalidated (lazily recomputed) instead of patched.
DELTA_REBUILD_THRESHOLD = 0.25


class PlanEntry(namedtuple("PlanEntry", "matrix norms diagonal bytes")):
    """One engine cache record: a plan's matrix and its derived vectors.

    ``norms`` (cosine column norms) and ``diagonal`` (PathSim
    denominators) are ``None`` until first asked for; ``bytes`` counts
    every buffer the record holds.  Records are replaced, never
    mutated, because a forked engine shares them with the snapshot
    that is still serving.
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


class ViewStats:
    """Adapter feeding graph statistics to the pattern type checker.

    The checker only needs node and per-label edge counts; routing them
    through the view reuses the adjacency cache the engine needs for
    evaluation anyway, so density warnings cost one ``nnz`` lookup per
    leaf.
    """

    __slots__ = ("_view",)

    def __init__(self, view):
        self._view = view

    def num_nodes(self):
        return self._view.num_nodes()

    def label_nnz(self, label):
        return self._view.adjacency(label).nnz


def _star_sum(identity, base, max_depth, origin):
    """``I + M + M^2 + ...`` with the divergence bound (shared helper)."""
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


def naive_matrix(view, pattern, max_star_depth=None, cache=None):
    """Seed-style recursive evaluation of one pattern AST (the oracle).

    Walks the AST directly — no canonicalization, no plan DAG, chains
    multiplied left-to-right — memoizing per AST node in ``cache``
    (fresh per call unless provided).  This is exactly the pre-plan
    engine semantics; the plan compiler's property tests and the
    plan-vs-naive benchmark compare against it, and "per-pattern cold
    evaluation" in the benchmark means one fresh ``cache`` per pattern.
    """
    if max_star_depth is None:
        max_star_depth = max(view.num_nodes(), 1)
    if cache is None:
        cache = {}

    def recurse(node):
        cached = cache.get(node)
        if cached is not None:
            return cached
        if isinstance(node, Epsilon):
            result = view.identity()
        elif isinstance(node, Label):
            result = view.adjacency(node.name)
        elif isinstance(node, Reverse):
            result = recurse(node.operand).T.tocsr()
        elif isinstance(node, Concat):
            result = recurse(node.parts[0])
            for part in node.parts[1:]:
                result = result @ recurse(part)
            result = result.tocsr()
        elif isinstance(node, Union):
            # The paper sums distinct disjuncts only (M_{p+p} = M_p).
            unique = []
            for part in node.parts:
                if part not in unique:
                    unique.append(part)
            result = recurse(unique[0])
            for part in unique[1:]:
                result = result + recurse(part)
            result = result.tocsr()
        elif isinstance(node, Skip):
            result = boolean(recurse(node.operand))
        elif isinstance(node, Nested):
            inner = recurse(node.operand)
            result = diagonal_of(inner @ boolean(inner.T)).tocsr()
        elif isinstance(node, Star):
            result = _star_sum(
                view.identity(), recurse(node.operand), max_star_depth, node
            )
        elif isinstance(node, Conj):
            result = recurse(node.parts[0])
            for part in node.parts[1:]:
                result = result.multiply(recurse(part))
            result = result.tocsr()
        else:
            raise TypeError("unhandled pattern node {!r}".format(node))
        cache[node] = result
        return result

    if not isinstance(pattern, Pattern):
        raise TypeError(
            "pattern must be a Pattern AST, got {!r}".format(pattern)
        )
    return recurse(pattern)


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
        complete with bitwise-identical results instead of dying.  The
        budget also arms the streaming chain executor: an oversized
        uncached chain intermediate is evaluated in row blocks under
        the budget instead of materialized whole.  ``cache_info()``
        reports ``memory_budget`` / ``budget_used`` / ``spilled`` /
        ``streamed``.

    The cache is keyed on canonical *plan nodes*, not raw ASTs: any two
    patterns with the same canonical form — ``(a.b)-`` and ``b-.a-``,
    ``a+b`` and ``b+a``, re-parenthesized concatenations — share one
    entry, and intermediate chain products live in the same LRU, so a
    sub-chain shared across patterns is computed once.  Each entry is
    one immutable :class:`PlanEntry` holding the matrix together with
    its derived vectors, so eviction, forks, delta patches and
    snapshots always move a vector with its matrix.  (Plan nodes and
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
        # ever reject unknown labels.
        self._checker = PatternTypeChecker(
            self._view.database.schema, stats=ViewStats(self._view)
        )
        self._compiler = PlanCompiler(checker=self._checker)
        self._lock = threading.RLock()
        self._cache = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._spilled = 0
        self._streamed = 0
        # Bumped by apply_delta: a computation started against the old
        # snapshot must not publish into the patched cache.
        self._generation = 0
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
            estimate_bytes(plan, self._leaf_nnz, n)
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
        """Static diagnostics for a pattern set, without compiling it.

        Returns ``[(pattern, [Diagnostic, ...]), ...]`` in input order —
        errors *and* warnings, nothing raised.  This is the inspection
        entry (``repro check``, ``/check`` over HTTP); the enforcement
        path is :meth:`compile`, which raises
        :class:`~repro.exceptions.PatternTypeError` on errors.
        """
        return self._checker.check_many(patterns)

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
    def fork(self, database):
        """A new engine over ``database`` inheriting this engine's caches.

        The incremental-serving idiom: fork the serving engine onto a
        private copy of its database, :meth:`apply_delta` on the fork,
        and publish the fork as the new snapshot — the original engine
        (and every matrix it handed out) keeps serving the old snapshot
        untouched, because cached matrices are shared but never mutated,
        only replaced in the fork's own cache.

        The plan compiler is shared (canonical plan nodes keep keying
        both engines' caches — that sharing is what lets the fork patch
        the parent's materialized products), as are the byte budget,
        star bound, and hit/miss counters.
        """
        clone = CommutingMatrixEngine.__new__(CommutingMatrixEngine)
        clone._view = self._view.fork(database)
        clone._default_star_depth = self._default_star_depth
        clone._max_star_depth = self._max_star_depth
        clone._memory_budget = self._memory_budget
        # Shared with the compiler: a delta never changes the schema, so
        # the parent's checker stays exact for the fork (its density
        # *estimates* read the parent view — a warning-tier approximation).
        clone._checker = self._checker
        clone._compiler = self._compiler
        clone._lock = threading.RLock()
        with self._lock:
            clone._cache = OrderedDict(self._cache)
            clone._hits = self._hits
            clone._misses = self._misses
            clone._spilled = self._spilled
            clone._streamed = self._streamed
            clone._generation = self._generation
            clone._patched = self._patched
            clone._invalidated = self._invalidated
            clone._delta_applies = self._delta_applies
        return clone

    def apply_delta(self, edges_added=(), edges_removed=(), nodes_added=()):
        """Apply an edge/node delta and maintain every cached matrix, in place.

        The delta is validated and applied to the database and the
        matrix view (:meth:`MatrixView.apply_delta` — a failing delta
        raises with everything untouched), then the per-label adjacency
        patches ``ΔA`` are propagated through the cached plan-DAG
        products using

            ``Δ(AB) = ΔA·B + A·ΔB + ΔA·ΔB``,

        evaluated as ``ΔA·B_new + A_new·ΔB − ΔA·ΔB`` over the
        already-updated inputs.  Resolution is memoized per plan node,
        so a sub-chain shared by any number of cached patterns is
        updated **exactly once**; entries whose labels the delta does
        not touch are kept as-is without being examined (beyond a
        memoized label-set check).  An entry whose input delta is denser
        than :data:`DELTA_REBUILD_THRESHOLD` x the input's nnz — or
        whose cheap-update inputs are missing (LRU-evicted children, a
        changed Kleene-star base) — is **invalidated**: dropped from
        the cache and lazily recomputed on next use, never silently
        served stale.

        All patch arithmetic is exact: commuting matrices hold integer
        instance counts (float64 is exact below ``2**53``), so a patched
        matrix — and the rankings computed from it — is bitwise
        identical to a full rebuild.  A patched entry's PathSim diagonal
        is patched too (``old + Δ.diagonal()``); its cosine column norms
        are dropped and recomputed on demand.

        Readers racing an in-place ``apply_delta`` are generation-fenced
        (a compute begun on the old snapshot never publishes into the
        patched cache); for strict snapshot isolation, run this on a
        :meth:`fork` and swap, as :class:`~repro.api.service.SimilarityService`
        does.

        Returns a stats dict: ``patched`` / ``kept`` / ``invalidated``
        cache-entry counts, ``entries`` (cache size after), ``labels``
        (touched labels) and ``nodes_added``.
        """
        with self._lock:
            # The view is patched *inside* the engine lock and the
            # generation bumped in the same critical section: cache
            # lookups are blocked until the patched cache is published,
            # and any compute that began against the old snapshot (or
            # read mid-patch adjacencies) fails the generation fence at
            # publish time and retries — a stale or mixed matrix can
            # never enter the patched cache, and propagation can never
            # mistake a post-delta publish for a pre-delta entry.
            self._generation += 1
            delta = self._view.apply_delta(
                edges_added=edges_added,
                edges_removed=edges_removed,
                nodes_added=nodes_added,
            )
            self._delta_applies += 1
            if self._default_star_depth:
                self._max_star_depth = max(delta.num_nodes, 1)
            return self._propagate_delta_locked(delta)

    @staticmethod
    def _entries_csr(rows, cols, vals, n, index_dtype):
        """A CSR from row-major-sorted, unique, nonzero entry arrays."""
        counts = np.bincount(rows, minlength=n)
        indptr = np.zeros(n + 1, dtype=index_dtype)
        np.cumsum(counts, out=indptr[1:])
        return trusted_csr(
            np.asarray(vals, dtype=np.float64),
            np.asarray(cols, dtype=index_dtype),
            indptr,
            n,
        )

    def _propagate_delta_locked(self, delta):
        n = delta.num_nodes
        grew = delta.grew
        patches = delta.patches
        touched = frozenset(patches)
        threshold = DELTA_REBUILD_THRESHOLD
        old_cache = self._cache
        zero = sp.csr_matrix((n, n), dtype=np.float64)
        ipatch = (
            identity_patch(range(delta.old_num_nodes, n), n) if grew else None
        )
        memo = {}
        canonical = self._canonicalize

        def is_zero(d):
            return d is not None and d.nnz == 0

        def resolve(node):
            # (new, delta, old) triples for nodes the pass can maintain
            # cheaply — ``old`` is the pre-delta matrix at the *new*
            # shape (None when unavailable), ``delta`` None means "new
            # at hand, delta unknown".  _INVALID = nothing cheap.
            # Memoized: each shared sub-plan of the DAG is resolved
            # exactly once per delta.
            result = memo.get(node)
            if result is None:
                memo[node] = result = compute(node)
            return result

        def unchanged(old):
            matrix = resized(old, n) if grew else old
            return (matrix, zero, matrix)

        def compute(node):
            entry = old_cache.get(node)
            old = None if entry is None else entry.matrix
            # Fast path: the delta cannot touch this plan's matrix
            # (disjoint labels, and no embedded identity when the node
            # set grew) — keep the entry, at most resized.
            if (
                old is not None
                and not (leaf_labels(node) & touched)
                and (not grew or not embeds_identity(node))
            ):
                return unchanged(old)
            kind = node.kind
            if kind == "eps":
                identity = self._view.identity()
                if not grew:
                    return (identity, zero, identity)
                return (identity, ipatch, resized(old, n) if old is not None else None)
            if kind == "leaf":
                new = self._view.adjacency(node.payload)
                patch = patches.get(node.payload)
                if patch is None:
                    return (new, zero, new)
                return (
                    new,
                    patch,
                    resized(old, n) if old is not None else None,
                )
            if kind == "transpose":
                # Canonical transposes sit on leaves: always cheap.
                child_new, child_delta, child_old = resolve(node.children[0])
                if old is not None and is_zero(child_delta):
                    return unchanged(old)
                return (
                    canonical(child_new.T),
                    None
                    if child_delta is None
                    else canonical(child_delta.T),
                    resized(old, n)
                    if old is not None
                    else (
                        None if child_old is None else canonical(child_old.T)
                    ),
                )
            if kind == "chain":
                if old is None:
                    return _INVALID
                self._ensure_ordered(node)
                left = resolve(node.left)
                right = resolve(node.right)
                if left is _INVALID or right is _INVALID:
                    return _INVALID
                (l_new, dl, l_old) = left
                (r_new, dr, r_old) = right
                if dl is None or dr is None:
                    return _INVALID
                if dl.nnz == 0 and dr.nnz == 0:
                    return unchanged(old)
                if dl.nnz > threshold * max(l_new.nnz, 1) or (
                    dr.nnz > threshold * max(r_new.nnz, 1)
                ):
                    return _INVALID
                # Δ(LR) = ΔL·R_old + L_old·ΔR + ΔL·ΔR, folded into two
                # products over available operands:
                #   ΔL·R_new + L_old·ΔR  ==  ΔL·(R_old+ΔR) + L_old·ΔR.
                if l_old is None:
                    l_old = canonical(l_new - dl)
                d = zero
                if dl.nnz:
                    d = d + dl @ r_new
                if dr.nnz:
                    d = d + l_old @ dr
                d = canonical(d)
                old = resized(old, n)
                return (add_patch(old, d), d, old)
            if kind == "add":
                parts = [resolve(child) for child in node.children]
                if any(part is _INVALID for part in parts):
                    return _INVALID
                if any(part[1] is None for part in parts) or old is None:
                    # No usable delta, but every summand's new matrix is
                    # at hand — summation is O(nnz), same as execution.
                    total = parts[0][0]
                    for part in parts[1:]:
                        total = total + part[0]
                    total = canonical(total)
                    if all(is_zero(part[1]) for part in parts):
                        return (total, zero, total)
                    return (
                        total,
                        None,
                        resized(old, n) if old is not None else None,
                    )
                if all(part[1].nnz == 0 for part in parts):
                    return unchanged(old)
                d = zero
                for part in parts:
                    if part[1].nnz:
                        d = d + part[1]
                d = canonical(d)
                old = resized(old, n)
                return (add_patch(old, d), d, old)
            if kind == "hadamard":
                parts = [resolve(child) for child in node.children]
                if any(part is _INVALID for part in parts):
                    return _INVALID
                if old is not None and all(is_zero(part[1]) for part in parts):
                    return unchanged(old)
                new = parts[0][0]
                for part in parts[1:]:
                    new = new.multiply(part[0])
                new = canonical(new)
                if old is None:
                    return (new, None, None)
                old = resized(old, n)
                return (new, canonical(new - old), old)
            if kind == "bool":
                child = resolve(node.children[0])
                if child is _INVALID:
                    return _INVALID
                child_new, child_delta, _ = child
                if old is not None and is_zero(child_delta):
                    return unchanged(old)
                new = boolean(child_new)
                if old is None:
                    return (new, None, None)
                old = resized(old, n)
                return (new, canonical(new - old), old)
            if kind == "nested":
                child = resolve(node.children[0])
                if child is _INVALID or old is None:
                    return _INVALID
                inner_delta = child[1]
                if is_zero(inner_delta):
                    return unchanged(old)
                if inner_delta is None:
                    return _INVALID
                # Over nonnegative count matrices, diag{M (M^T > 0)}[i]
                # is sum_j M[i, j] — the row sums — so the nested delta
                # is just ΔM's row sums on the diagonal.  No products.
                row_sums = np.asarray(inner_delta.sum(axis=1)).ravel()
                rows = np.flatnonzero(row_sums)
                old = resized(old, n)
                if not len(rows):
                    return (old, zero, old)
                d = self._entries_csr(
                    rows, rows, row_sums[rows], n, old.indices.dtype
                )
                return (add_patch(old, d), d, old)
            if kind == "star":
                child = resolve(node.children[0])
                if child is _INVALID or old is None:
                    return _INVALID
                child_delta = child[1]
                if is_zero(child_delta):
                    if not grew:
                        return (old, zero, old)
                    # New nodes only: the bounded power sum gains
                    # exactly the identity's new diagonal ones.
                    old = resized(old, n)
                    return (add_patch(old, ipatch), ipatch, old)
                # A changed star base reshapes every power — rebuild.
                return _INVALID
            raise TypeError("unhandled plan node kind {!r}".format(node.kind))

        pad = np.zeros(n - delta.old_num_nodes, dtype=np.float64)

        def padded(vector):
            # New nodes have empty rows and columns: zero norm/diagonal.
            if vector is None or not grew:
                return vector
            return np.concatenate([vector, pad])

        patched = kept = invalidated = 0
        new_cache = OrderedDict()
        for plan, entry in old_cache.items():
            result = resolve(plan)
            if result is _INVALID:
                invalidated += 1
                continue
            new, d, _ = result
            if d is not None and d.nnz == 0:
                kept += 1
                if new is entry.matrix:
                    new_cache[plan] = entry
                    continue
                norms, diagonal = padded(entry.norms), padded(entry.diagonal)
            else:
                patched += 1
                norms = None
                diagonal = entry.diagonal
                if diagonal is not None:
                    if d is None:
                        diagonal = new.diagonal()
                    else:
                        diagonal = padded(diagonal) + d.diagonal()
            new_cache[plan] = PlanEntry.of(new, norms, diagonal)
        # resolve and compute call each other through their closures: a
        # reference cycle that would keep memo and old_cache (every
        # pre-delta matrix) alive until the next full collection.
        resolve = compute = None
        self._cache = new_cache
        self._patched += patched
        self._invalidated += invalidated
        # Patched entries can be larger than what they replaced (a
        # delta that densifies a product); re-assert the budget so it
        # holds across live updates too.
        self._evict()
        return {
            "patched": patched,
            "kept": kept,
            "invalidated": invalidated,
            "entries": len(new_cache),
            "labels": sorted(patches),
            "nodes_added": len(delta.added_nodes),
        }

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
        generation bump (apply_delta landed mid-compute) discards the
        stale result.  A record the budget cannot hold, or one evicted
        while its vector was reduced, is returned without being
        retained: it spills, and the next use recomputes it.
        """
        while True:
            with self._lock:
                cached = self._cache.get(node)
                if cached is not None:
                    self._hits += 1
                    self._cache.move_to_end(node)
                    if field is None or getattr(cached, field) is not None:
                        return cached
                generation = self._generation
            entry = (
                cached if cached is not None
                else PlanEntry.of(self._execute(node))
            )
            if field is not None:
                entry = entry.with_vector(
                    field, _REDUCERS[field](entry.matrix)
                )
            with self._lock:
                if self._generation != generation:
                    continue
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

    @staticmethod
    def _canonicalize(matrix):
        # Published matrices are canonical CSR with no explicit zeros:
        # dense_rows/pathsim_rows need sorted deduplicated buffers, and
        # delta maintenance relies on a patched entry being structurally
        # identical to a fresh rebuild.  Chain products are canonical at
        # birth (csr_product sorts each row block as it fills it); this
        # sort still serves sums, Hadamard products and transposes.
        # Canonicalizing at publish time also means no later caller ever
        # sorts a cached matrix in place — buffers shared across forked
        # engines stay frozen.
        matrix = matrix.tocsr()
        matrix.sum_duplicates()
        matrix.eliminate_zeros()
        return matrix

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
            if not self._should_stream(node):
                return csr_product(
                    self._plan_matrix(node.left), self._plan_matrix(node.right)
                )
            result = self._streamed_chain(node)
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
            # the delta pass); naive_matrix keeps the literal product.
            inner = self._plan_matrix(node.children[0])
            result = sp.diags(
                np.asarray(inner.sum(axis=1)).ravel(), format="csr"
            )
        elif kind == "star":
            result = _star_sum(
                self._view.identity(),
                self._plan_matrix(node.children[0]),
                self._max_star_depth,
                node,
            )
        else:
            raise TypeError("unhandled plan node kind {!r}".format(kind))
        return self._canonicalize(result)

    def _leaf_nnz(self, label):
        return self._view.adjacency(label).nnz

    def _ensure_ordered(self, node):
        if node.split_at is None:
            order_chain(
                node, self._leaf_nnz, self._view.num_nodes(), self._compiler
            )

    def _chunk_budget(self):
        # At most a quarter of the budget for any one in-flight chain
        # intermediate: leaves headroom for the factors, the assembled
        # result, and whatever else the cache holds.  Floored at 1 MiB
        # so a tiny budget still computes in sane block sizes.
        return max(self._memory_budget // 4, 1 << 20)

    def _should_stream(self, node):
        """True when the planned order would materialize an oversized
        *uncached* intermediate sub-product under a memory budget.

        Walks the planned binary tree: a cached sub-chain costs nothing
        (it is already resident), and the root product must be
        materialized whole regardless, so only uncached interior chain
        nodes count.  Streaming those (row-blocked left-to-right over
        the flat factor list) trades their peak bytes for extra flops.
        """
        if self._memory_budget is None:
            return False
        threshold = self._chunk_budget()
        n = self._view.num_nodes()
        stack = [node.left, node.right]
        while stack:
            sub = stack.pop()
            if sub.kind != "chain":
                continue
            with self._lock:
                if sub in self._cache:
                    continue
            if estimate_bytes(sub, self._leaf_nnz, n) > threshold:
                return True
            self._ensure_ordered(sub)
            stack.append(sub.left)
            stack.append(sub.right)
        return False

    def _streamed_chain(self, node):
        """Evaluate a chain in row blocks, never materializing interiors.

        The flat factor list is multiplied left-to-right, one block of
        rows of the first factor at a time, each block pushed through
        every remaining factor before the next block starts — so the
        peak in-flight intermediate is one row block, sized by the
        uniform-sparsity estimate of the *widest* prefix product to fit
        the chunk budget.  Matrix entries are instance counts (integers
        exact in float64 far past anything a pattern produces), so the
        re-association and the row partition are value-exact: after
        canonicalization the result is bitwise-identical to the planned
        whole-product path — see
        tests/test_memory_budget.py::test_streamed_chain_parity.
        """
        factors = [self._plan_matrix(child) for child in node.children]
        n = factors[0].shape[0]
        widest = running = float(factors[0].nnz)
        for factor in factors[1:]:
            running = product_nnz(running, float(factor.nnz), n)
            widest = max(widest, running)
        per_row_bytes = 16.0 * widest / max(n, 1) + 8.0
        rows_per_block = max(
            1, min(n, int(self._chunk_budget() / per_row_bytes))
        )
        blocks = []
        for start in range(0, n, rows_per_block):
            block = factors[0][start : start + rows_per_block, :]
            for factor in factors[1:]:
                block = csr_product(block, factor)
            blocks.append(block)
        with self._lock:
            self._streamed += 1
        if len(blocks) == 1:
            return blocks[0]
        return sp.vstack(blocks, format="csr")

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
            labels = sorted(self._view.database.used_labels())
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
        patterns = [
            pattern
            for pattern in patterns
            if not has_errors(self._checker.check(pattern))
        ]
        if self._memory_budget is not None:
            n = self._view.num_nodes()
            estimated = sum(
                estimate_bytes(self.compile(pattern), self._leaf_nnz, n)
                for pattern in patterns
            )
            if estimated > self._memory_budget:
                raise EvaluationError(
                    "materializing {} simple patterns (~{:.0f} estimated "
                    "bytes) exceeds memory_budget={}; raise the budget "
                    "or materialize fewer patterns".format(
                        len(patterns), estimated, self._memory_budget
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
        each spill is a future recompute), the ``streamed`` count of
        chain products evaluated in row blocks, and the
        delta-maintenance counters ``patched`` / ``invalidated`` /
        ``delta_applies``.

        The accounting is live: patched matrices report their
        post-patch buffers (cancelled entries are eliminated, never
        counted as phantom nonzeros) and invalidated or evicted entries
        drop out of every figure the moment they leave the cache.
        """
        with self._lock:
            entries = list(self._cache.values())
            hits, misses = self._hits, self._misses
            spilled, streamed = self._spilled, self._streamed
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
            "streamed": streamed,
            "patched": patched,
            "invalidated": invalidated,
            "delta_applies": delta_applies,
        }

    # ------------------------------------------------------------------
    # Cache export / preload (snapshot persistence)
    # ------------------------------------------------------------------
    def export_cache(self):
        """The cached state, keyed by canonical pattern text.

        Returns ``{"matrices": [(text, csr)], "column_norms":
        [(text, vector)], "diagonals": [(text, vector)]}`` in LRU order
        (least recently used first), where ``text`` is the canonical
        concrete syntax of each cache key's plan node.  Canonical text
        re-parses and re-compiles to the same interned plan on any
        compiler over the same pattern language, which is what lets a
        snapshot written by one process warm the cache of another —
        see :meth:`preload` and :mod:`repro.server.snapshot`.

        The returned matrices and vectors are the cached objects
        themselves (never mutated in place by the engine, only
        replaced), so exporting is cheap and safe under concurrency.
        """
        with self._lock:
            records = [
                (str(plan), entry) for plan, entry in self._cache.items()
            ]
        return {
            "matrices": [(text, entry.matrix) for text, entry in records],
            "column_norms": [
                (text, entry.norms)
                for text, entry in records
                if entry.norms is not None
            ],
            "diagonals": [
                (text, entry.diagonal)
                for text, entry in records
                if entry.diagonal is not None
            ],
        }

    def preload(self, matrices, column_norms=(), diagonals=()):
        """Install previously exported cache entries (the warm start).

        ``matrices`` / ``column_norms`` / ``diagonals`` are
        ``(canonical pattern text, value)`` pairs as produced by
        :meth:`export_cache`.  Each text is parsed and compiled, so the
        entry lands under exactly the plan node a live query for the
        same pattern will look up.  Entries that no longer make sense —
        unparseable text (e.g. a label the RRE tokenizer cannot spell)
        or a matrix whose shape does not match this engine's node count
        — are *skipped*, never installed: a warm start is an
        optimization, and a skipped entry merely recomputes lazily.
        Derived vectors are only installed into the record of a cached
        matrix; a preloaded matrix replaces any record for its plan.

        Preloading counts toward neither hits nor misses.  Returns
        ``{"matrices": n, "column_norms": n, "diagonals": n,
        "skipped": n}``.
        """
        from repro.lang.parser import parse_pattern

        n = self._view.num_nodes()
        skipped = 0

        def _compiled(pairs):
            nonlocal skipped
            compiled = []
            for text, value in pairs:
                try:
                    plan = self.compile(parse_pattern(text))
                except ReproError:
                    skipped += 1
                    continue
                compiled.append((plan, value))
            return compiled

        plan_matrices = []
        for plan, matrix in _compiled(matrices):
            if matrix.shape != (n, n):
                skipped += 1
                continue
            plan_matrices.append((plan, matrix))
        vectors = [
            ("norms", _compiled(column_norms), "column_norms"),
            ("diagonal", _compiled(diagonals), "diagonals"),
        ]
        loaded = {"matrices": 0, "column_norms": 0, "diagonals": 0}
        with self._lock:
            for plan, matrix in plan_matrices:
                self._cache[plan] = PlanEntry.of(matrix)
                loaded["matrices"] += 1
            for field, pairs, key in vectors:
                for plan, vector in pairs:
                    entry = self._cache.get(plan)
                    if len(vector) != n or entry is None:
                        skipped += 1
                        continue
                    self._cache[plan] = entry.with_vector(field, vector)
                    loaded[key] += 1
            self._evict()
        loaded["skipped"] = skipped
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
        per_pattern = []
        usage = Counter()
        for plan in plans:
            nodes = set()
            self._plan_nodes(plan, nodes)
            per_pattern.append(nodes)
            usage.update(nodes)
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
            estimate = estimate_nnz(plan, self._leaf_nnz, n)
            cost = plan.est_cost if plan.kind == "chain" else None
            lines.append(
                "    est nnz ~ {:.0f}{}".format(
                    estimate,
                    ""
                    if cost is None
                    else ", est cost ~ {:.0f} flops (amortized)".format(cost),
                )
            )
            # Static diagnostics (warning tier only: the compile above
            # already raised on errors).
            for diagnostic in self._checker.check(pattern):
                lines.append("    diagnostics: {}".format(diagnostic.format()))
        if shared:
            lines.append("shared sub-plans (each evaluated once):")
            for node in shared:
                lines.append(
                    "    {}   (in {} patterns, est nnz ~ {:.0f})".format(
                        node,
                        usage[node],
                        estimate_nnz(node, self._leaf_nnz, n),
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
