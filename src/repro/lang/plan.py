"""Pattern plan compiler: canonical DAG, cross-pattern CSE, chain ordering.

The usability layer (Algorithm 1) expands one simple pattern into up to
64 RREs that overlap heavily — shared prefixes, reversed segments,
skip/nested wrappers around common cores.  Evaluating each AST
independently recomputes all of that shared work.  This module sits
between the pattern language and the matrix engine and turns a pattern
(or a whole pattern *set*) into a **plan DAG**:

* **Canonicalization** (:func:`repro.lang.simplify.canonicalize`):
  reverse pushed to leaves, concatenations flattened, union disjuncts
  deduplicated and sorted — so `(a.b)-` and `b-.a-` compile to the
  *same* plan node and share one engine cache entry.

* **Hash-consing / cross-pattern CSE**: plan nodes are interned per
  compiler, so structurally equal sub-plans across a pattern set are
  one node, evaluated exactly once by the memoizing engine.  For
  concatenation chains the compiler additionally counts every
  contiguous sub-chain it has seen; chains shared by several patterns
  get their cost *amortized* in the ordering step below, which steers
  the multiplication order toward reusable intermediates (a sub-chain
  used ``k`` times costs ``cost/k`` per use once cached).

* **Cost-ordered sparse chain multiplication**: classic matrix-chain
  ordering over CSR, driven by one estimate per plan node: its nonzeros
  and its *active* rows and columns (those holding an entry), exact at
  the leaves.  A product ``A·B`` passes through ``k = max(cols_A,
  rows_B)`` inner nodes, so it costs ``nnz_A * nnz_B / k`` multiply-adds
  and holds ``min(rows_A * cols_B, nnz_A * nnz_B / k)`` nonzeros —
  uniform sparsity over the nodes the product actually passes through,
  not over all ``n``.  A venue x paper product through 15 areas is thus
  costed through 15 nodes, not through every node of the graph.

Plan nodes are *identity-hashed* (interned), so the engine's LRU keys
directly on them; a node's :func:`str` is its canonical concrete
syntax.  This module is pure structure — matrices never enter it; the
engine (:mod:`repro.lang.matrix_semantics`) executes plans.
"""

import threading
from collections import Counter, namedtuple

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
)
from repro.lang.simplify import canonicalize

#: Pretty-printer precedence per node kind: its AST class's.
_PRECEDENCE = {
    "eps": Epsilon.precedence,
    "leaf": Label.precedence,
    "transpose": Reverse.precedence,
    "star": Star.precedence,
    "chain": Concat.precedence,
    "add": Union.precedence,
    "hadamard": Conj.precedence,
    "bool": Skip.precedence,
    "nested": Nested.precedence,
}


class PlanNode:
    """One node of the canonical plan DAG.

    Nodes are created only through a :class:`PlanCompiler`, which
    interns them: within one compiler (hence one engine), structural
    equality *is* object identity, so nodes hash and compare by
    identity and can key an LRU directly.

    Kinds and their matrix semantics (executed by the engine):

    ========== ======================= ================================
    kind       children / payload      matrix
    ========== ======================= ================================
    eps        —                       identity
    leaf       payload = label         per-label adjacency
    transpose  (leaf,)                 child matrix transposed
    chain      k >= 2 factors          product, in the planned order
    add        sorted disjuncts        sum (duplicates sum repeatedly)
    hadamard   sorted conjuncts        elementwise product
    bool       (child,)                child > 0  (skip operator)
    nested     (child,)                diag{ M (M^T > 0) }
    star       (child,)                I + M + M^2 + ...  (bounded)
    ========== ======================= ================================

    Chain nodes additionally carry the ordering decision once
    :func:`order_chain` has run: ``split_at`` (relative split index)
    plus interned ``left``/``right`` sub-plans.  No node stores an
    estimate: forked engines share their plan nodes across versions of
    the graph, so estimates are computed against the asking engine's
    view (:func:`estimate`).
    """

    __slots__ = (
        "kind",
        "payload",
        "children",
        "uid",
        "_str",
        "split_at",
        "left",
        "right",
        "labels",
        "has_identity",
    )

    def __init__(self, kind, payload, children, uid):
        self.kind = kind
        self.payload = payload
        self.children = children
        self.uid = uid
        self._str = _render(kind, payload, children)
        self.split_at = None
        self.left = None
        self.right = None
        self.labels = None
        self.has_identity = None

    def __str__(self):
        return self._str

    def __repr__(self):
        return "PlanNode({}: {})".format(self.kind, self._str)

    def __hash__(self):
        return self.uid


def _child_str(parent_kind, child):
    text = child._str
    if _PRECEDENCE[child.kind] < _PRECEDENCE[parent_kind]:
        return "({})".format(text)
    return text


def _render(kind, payload, children):
    if kind == "eps":
        return "eps"
    if kind == "leaf":
        return payload
    if kind == "transpose":
        return _child_str(kind, children[0]) + "-"
    if kind == "star":
        return _child_str(kind, children[0]) + "*"
    if kind == "chain":
        return ".".join(_child_str(kind, child) for child in children)
    if kind == "add":
        return "+".join(_child_str(kind, child) for child in children)
    if kind == "hadamard":
        return "&".join(_child_str(kind, child) for child in children)
    if kind == "bool":
        return "<<{}>>".format(children[0]._str)
    if kind == "nested":
        return "[{}]".format(children[0]._str)
    raise ValueError("unknown plan node kind {!r}".format(kind))


class PlanCompiler:
    """Compiles Pattern ASTs into interned plan DAGs.

    One compiler lives on each :class:`CommutingMatrixEngine`; interning
    is what makes the engine cache canonical (equivalent patterns map to
    the same node object) and what implements cross-pattern CSE (shared
    sub-plans are shared nodes).  ``subchain_uses`` counts every
    contiguous sub-chain of every distinct chain compiled so far —
    including already-materialized intermediates, so later chains are
    biased toward reusing what is already cached.

    Compiler state is retained for the engine's lifetime (plan nodes
    are a few hundred bytes — negligible next to one matrix), but the
    two structures that grow with every *distinct* pattern are bounded
    so a long-lived session serving millions of ad-hoc patterns cannot
    leak: the pattern->plan memo is cleared past ``_MAX_PATTERN_MEMO``
    entries (a pure cache; recompiling is cheap), and ``subchain_uses``
    drops its count-1 entries past ``_MAX_SUBCHAIN_ENTRIES`` —
    singletons carry no sharing signal yet, only the potential to
    become one later, so pruning them merely forgets a heuristic
    discount.

    The compiler is thread-safe: the interning tables, the
    pattern->plan memo, the sub-chain counters, and the chain-ordering
    mutation of plan nodes are all guarded by one reentrant ``lock``,
    so N serving threads can compile against one engine concurrently.
    """

    _MAX_PATTERN_MEMO = 50_000
    _MAX_SUBCHAIN_ENTRIES = 200_000

    def __init__(self, checker=None):
        self.lock = threading.RLock()
        self._interned = {}
        self._by_pattern = {}
        self._next_uid = 0
        self.subchain_uses = Counter()
        #: Optional :class:`repro.analysis.PatternTypeChecker`.  When
        #: set, every *new* pattern is type-checked on the memo-miss
        #: path and ill-typed ones raise ``PatternTypeError`` before a
        #: plan node (or any matrix) exists for them.  Memo hits skip
        #: the check by construction: a memoized pattern already passed.
        self.checker = checker
        self.eps = self._intern("eps", None, ())

    def __len__(self):
        return len(self._interned)

    def _intern(self, kind, payload, children):
        key = (kind, payload, tuple(child.uid for child in children))
        with self.lock:
            node = self._interned.get(key)
            if node is None:
                node = PlanNode(kind, payload, tuple(children), self._next_uid)
                self._next_uid += 1
                self._interned[key] = node
                if kind == "chain":
                    self._count_subchains(node)
        return node

    def _count_subchains(self, node):
        # Every contiguous run of >= 2 factors (including the full
        # chain) is a potential shared intermediate; counted once per
        # distinct chain node, so recompiling a pattern never inflates
        # the statistics.
        uids = tuple(child.uid for child in node.children)
        for i in range(len(uids)):
            for j in range(i + 2, len(uids) + 1):
                self.subchain_uses[uids[i:j]] += 1
        if len(self.subchain_uses) > self._MAX_SUBCHAIN_ENTRIES:
            self.subchain_uses = Counter(
                {
                    key: count
                    for key, count in self.subchain_uses.items()
                    if count > 1
                }
            )

    def chain(self, factors):
        """The interned chain over ``factors`` (eps dropped, 1 -> itself)."""
        factors = [factor for factor in factors if factor.kind != "eps"]
        if not factors:
            return self.eps
        if len(factors) == 1:
            return factors[0]
        return self._intern("chain", None, factors)

    # ------------------------------------------------------------------
    def compile(self, pattern):
        """The canonical plan node for one Pattern AST (memoized)."""
        if not isinstance(pattern, Pattern):
            raise TypeError(
                "pattern must be a Pattern AST, got {!r}".format(pattern)
            )
        with self.lock:
            node = self._by_pattern.get(pattern)
            if node is None:
                if self.checker is not None:
                    self.checker.assert_well_typed(pattern)
                if len(self._by_pattern) >= self._MAX_PATTERN_MEMO:
                    self._by_pattern.clear()
                node = self._node_of(canonicalize(pattern))
                self._by_pattern[pattern] = node
        return node

    def compile_many(self, patterns):
        """Plans for a whole pattern set, compiled before any executes.

        Compiling the full set first is what gives the chain-ordering
        step complete sharing statistics: every shared sub-chain is
        counted before the first multiplication order is chosen.
        """
        return [self.compile(pattern) for pattern in patterns]

    def _node_of(self, pattern):
        if isinstance(pattern, Epsilon):
            return self.eps
        if isinstance(pattern, Label):
            return self._intern("leaf", pattern.name, ())
        if isinstance(pattern, Reverse):
            # Canonical form has Reverse only on labels.
            if not isinstance(pattern.operand, Label):
                raise TypeError(
                    "non-canonical Reverse of {!r}".format(pattern.operand)
                )
            return self._intern(
                "transpose", None, (self._node_of(pattern.operand),)
            )
        if isinstance(pattern, Concat):
            return self.chain([self._node_of(part) for part in pattern.parts])
        if isinstance(pattern, Union):
            # Canonical Unions are already raw-deduplicated; duplicates
            # that remain (raw-distinct, canonically equal disjuncts
            # like a-- + a) are summed twice, matching the recursive
            # semantics.
            children = sorted(
                (self._node_of(part) for part in pattern.parts),
                key=lambda node: (node._str, node.uid),
            )
            return self._intern("add", None, children)
        if isinstance(pattern, Conj):
            children = sorted(
                (self._node_of(part) for part in pattern.parts),
                key=lambda node: (node._str, node.uid),
            )
            return self._intern("hadamard", None, children)
        if isinstance(pattern, Skip):
            child = self._node_of(pattern.operand)
            if child.kind in ("bool", "eps"):
                return child
            return self._intern("bool", None, (child,))
        if isinstance(pattern, Nested):
            child = self._node_of(pattern.operand)
            if child.kind == "eps":
                return child
            return self._intern("nested", None, (child,))
        if isinstance(pattern, Star):
            return self._intern("star", None, (self._node_of(pattern.operand),))
        raise TypeError("unhandled pattern node {!r}".format(pattern))


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------
class Estimate(namedtuple("Estimate", "nnz rows cols")):
    """A plan node's estimated nonzeros, active rows and active columns.

    A row or column is *active* when it holds at least one entry.
    """

    __slots__ = ()


def _product(left, right):
    """``(multiply-adds, Estimate)`` of the product ``left · right``.

    The product passes through ``k = max(left.cols, right.rows)`` inner
    nodes.  With ``right``'s entries spread evenly over them, each of
    ``left``'s ``nnz`` entries meets ``right.nnz / k`` of them: that is
    the cost, and also the product's nonzeros, capped at its active
    block ``left.rows x right.cols``.  The one per-product rule: the
    estimate, :func:`order_chain` and :func:`_chain_cost` all read it.
    """
    flops = left.nnz * right.nnz / max(left.cols, right.rows, 1.0)
    return flops, Estimate(
        min(left.rows * right.cols, flops), left.rows, right.cols
    )


def estimate(node, leaf_stats, n):
    """The :class:`Estimate` of a plan node's matrix over ``n`` nodes.

    ``leaf_stats`` maps a label to its adjacency's exact ``(nnz, rows,
    cols)`` (:meth:`~repro.graph.matrices.MatrixView.label_stats`).
    Above the leaves: a transpose swaps rows and columns, a skip keeps
    them; a nested node is a diagonal over its child's rows; a sum adds
    all three (rows and columns capped at ``n``, nonzeros at rows x
    columns) and a Hadamard product takes the least of each; a product
    follows :func:`_product`; ``eps`` and a star's closure are active
    everywhere.  With every row and column active this is the uniform
    sparsity surrogate over ``n``.  An ordered chain is estimated along
    its recorded split, an unordered one left to right.

    Nothing is memoized: plan nodes outlive the graph version they were
    planned on (a forked engine shares them), so the caller passes the
    statistics of the view it is asking about.  This is the only
    estimate: the chain planner, the memory budget and the density
    warnings all read it.
    """
    kind = node.kind
    if kind == "eps":
        return Estimate(float(n), float(n), float(n))
    if kind == "leaf":
        return Estimate(*map(float, leaf_stats(node.payload)))
    if kind == "bool":
        return estimate(node.children[0], leaf_stats, n)
    if kind == "transpose":
        nnz, rows, cols = estimate(node.children[0], leaf_stats, n)
        return Estimate(nnz, cols, rows)
    if kind == "nested":
        nnz, rows, _ = estimate(node.children[0], leaf_stats, n)
        return Estimate(min(nnz, rows), rows, rows)
    if kind == "star":
        # I + M + M^2 + ...: with average degree d = nnz/n >= 1 the
        # closure of the giant component is effectively dense; below 1
        # the geometric series nnz * (1 + d + d^2 + ...) converges.
        # Either way it holds at most the identity plus M's active block.
        base = estimate(node.children[0], leaf_stats, n)
        n = float(n)
        degree = base.nnz / max(n, 1.0)
        closure = n * n if degree >= 1.0 else n + base.nnz / (1.0 - degree)
        return Estimate(
            min(n * n, n + base.rows * base.cols, closure), n, n
        )
    if kind == "add":
        parts = [estimate(child, leaf_stats, n) for child in node.children]
        rows = min(float(n), sum(part.rows for part in parts))
        cols = min(float(n), sum(part.cols for part in parts))
        nnz = sum(part.nnz for part in parts)
        return Estimate(min(rows * cols, nnz), rows, cols)
    if kind == "hadamard":
        parts = [estimate(child, leaf_stats, n) for child in node.children]
        return Estimate(*map(min, zip(*parts)))
    if kind == "chain":
        if node.split_at is not None:
            return _product(
                estimate(node.left, leaf_stats, n),
                estimate(node.right, leaf_stats, n),
            )[1]
        result = estimate(node.children[0], leaf_stats, n)
        for child in node.children[1:]:
            result = _product(result, estimate(child, leaf_stats, n))[1]
        return result
    raise ValueError("unknown plan node kind {!r}".format(kind))


def estimate_bytes(node, leaf_stats, n):
    """Estimated resident CSR bytes of a plan node's matrix.

    The byte surrogate the memory budget plans against: ``nnz`` scaled
    by data + index width (16 bytes — float64 data plus an index slot,
    counting the 64-bit worst case) plus the ``indptr`` spine.  Built
    on :func:`estimate`, so it is exact at the leaves and an estimate
    above them — good enough to decide "will this pattern set fit"
    before warming it, which only needs the right order of magnitude.
    """
    nnz = estimate(node, leaf_stats, n).nnz
    return 16.0 * nnz + 8.0 * (float(n) + 1.0)


def _chain_cost(node, leaf_stats, n, uses):
    """Amortized multiply-adds of an ordered plan along its splits.

    The quantity :func:`order_chain` minimizes, read back for the split
    it chose: each product costs :func:`_product`'s multiply-adds over
    its operands' estimates, and a sub-chain ``uses`` counts in >= 2
    chains is divided by that count.  Non-chain nodes cost nothing here.
    """
    if node.kind != "chain":
        return 0.0
    cost = (
        _chain_cost(node.left, leaf_stats, n, uses)
        + _chain_cost(node.right, leaf_stats, n, uses)
        + _product(
            estimate(node.left, leaf_stats, n),
            estimate(node.right, leaf_stats, n),
        )[0]
    )
    count = uses.get(tuple(child.uid for child in node.children), 0)
    return cost / count if count >= 2 else cost


def order_chain(node, leaf_stats, n, compiler):
    """Choose (and record) the multiplication order for a chain node.

    Classic O(k^3) matrix-chain DP over the factors' estimates, each
    product costed by :func:`_product`, with one twist: a contiguous
    segment that ``compiler.subchain_uses`` says appears in >= 2
    distinct chains has its cost divided by that count — once cached
    it is free for every later use, so its *amortized* cost is what the
    parent split should see.  This is what steers an Algorithm-1
    pattern set toward evaluating each shared prefix/sub-chain exactly
    once.

    The chosen split is recorded on the chain node (``split_at``,
    ``left``, ``right``) and recursively on every interned sub-chain;
    a sub-chain that was already ordered (e.g. as another pattern's
    chain) keeps its earlier decision, so cached intermediates stay
    valid.  Idempotent, and serialized under the compiler's lock so
    concurrent serving threads never observe a half-recorded split.
    """
    with compiler.lock:
        _order_chain_locked(node, leaf_stats, n, compiler)


def _order_chain_locked(node, leaf_stats, n, compiler):
    if node.split_at is not None:
        return
    factors = node.children
    k = len(factors)
    uids = tuple(factor.uid for factor in factors)
    shared = compiler.subchain_uses

    estimates = {}
    cost = {}
    split = {}
    for i, factor in enumerate(factors):
        estimates[(i, i + 1)] = estimate(factor, leaf_stats, n)
        cost[(i, i + 1)] = 0.0
    for span in range(2, k + 1):
        for i in range(0, k - span + 1):
            j = i + span
            best = best_m = None
            for m in range(i + 1, j):
                flops, product = _product(estimates[(i, m)], estimates[(m, j)])
                candidate = cost[(i, m)] + cost[(m, j)] + flops
                if best is None or candidate < best:
                    best, best_m, estimates[(i, j)] = candidate, m, product
            split[(i, j)] = best_m
            uses = shared.get(uids[i:j], 0)
            # Amortize: a segment used by `uses` chains is computed
            # once and hit `uses - 1` times.
            cost[(i, j)] = best / uses if uses >= 2 else best

    def attach(i, j):
        if j - i == 1:
            return factors[i]
        sub = node if (i, j) == (0, k) else compiler.chain(factors[i:j])
        if sub.split_at is None:
            m = split[(i, j)]
            sub.left = attach(i, m)
            sub.right = attach(m, j)
            # Set last: _ensure_ordered tests split_at without the lock,
            # so a reader that sees it set must also see left and right.
            sub.split_at = m - i
        return sub

    attach(0, k)


def leaf_labels(node):
    """The set of adjacency labels a plan's matrix depends on (memoized).

    The delta-maintenance fast path: an edge delta touching only labels
    outside ``leaf_labels(plan)`` cannot change the plan's matrix, so
    the engine keeps the cached entry untouched without looking at it.
    Memoized on the node (one compiler per engine, labels never change).
    """
    if node.labels is not None:
        return node.labels
    if node.kind == "leaf":
        labels = frozenset((node.payload,))
    elif node.kind == "eps":
        labels = frozenset()
    else:
        labels = frozenset().union(
            *(leaf_labels(child) for child in node.children)
        )
    node.labels = labels
    return labels


def embeds_identity(node):
    """True when the plan's matrix contains an identity term (memoized).

    ``eps`` and ``star`` matrices carry ``I`` explicitly, so growing the
    node set changes them (new diagonal ones) even when no edge touches
    the plan's labels; every other kind just gains all-zero rows and
    columns.  Used by delta maintenance to patch the diagonal of
    identity-bearing entries after node additions.
    """
    if node.has_identity is not None:
        return node.has_identity
    if node.kind in ("eps", "star"):
        result = True
    else:
        result = any(embeds_identity(child) for child in node.children)
    node.has_identity = result
    return result


def pattern_footprint(plans):
    """``(labels, embeds_identity)`` for a compiled plan set.

    The delta footprint of a pattern-local algorithm: the union of
    :func:`leaf_labels` over its compiled plans is every adjacency label
    whose edges can influence its commuting matrices, and the identity
    flag marks whether growing the node set alone (``eps``/``star``
    plans gain diagonal ones) can change them.  Standing-query
    subscriptions record this pair once and test each published delta
    against it — a delta touching neither is provably irrelevant.
    """
    plans = list(plans)
    if not plans:
        return frozenset(), False
    labels = frozenset().union(*(leaf_labels(plan) for plan in plans))
    return labels, any(embeds_identity(plan) for plan in plans)


def render_order(node):
    """The chosen multiplication order as a parenthesized expression.

    Chains print with explicit binary parentheses (``((a.b).c)``);
    everything else prints canonically.  Chains that have not been
    ordered yet print canonically too.
    """
    if node.kind != "chain" or node.split_at is None:
        return str(node)
    return "({}.{})".format(render_order(node.left), render_order(node.right))
