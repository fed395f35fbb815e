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
  ordering over CSR, driven by nnz/density estimates.  For factor
  matrices with ``nnz_A`` and ``nnz_B`` nonzeros over ``n`` nodes the
  expected product cost is ``nnz_A * nnz_B / n`` flops and the expected
  product size ``min(n^2, nnz_A * nnz_B / n)`` — the standard uniform
  sparsity surrogate, good enough to order chains by.

Plan nodes are *identity-hashed* (interned), so the engine's LRU keys
directly on them; a node's :func:`str` is its canonical concrete
syntax.  This module is pure structure — matrices never enter it; the
engine (:mod:`repro.lang.matrix_semantics`) executes plans.
"""

import threading
from collections import Counter

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
    view (:func:`estimate_nnz`).
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
def product_nnz(nnz_a, nnz_b, n):
    """Expected nnz of a sparse product under uniform sparsity."""
    n = max(float(n), 1.0)
    return min(n * n, nnz_a * nnz_b / n)


def _product_cost(nnz_a, nnz_b, n):
    """Expected flops of a sparse product under uniform sparsity."""
    return nnz_a * nnz_b / max(float(n), 1.0)


def estimate_nnz(node, leaf_nnz, n):
    """Estimated nnz of a plan node's matrix over ``n`` nodes.

    ``leaf_nnz`` maps a label to its adjacency's exact nnz; everything
    above the leaves is the standard uniform-sparsity surrogate.  An
    ordered chain is estimated along its recorded split, an unordered
    one left to right.  Nothing is memoized: plan nodes outlive the
    graph version they were planned on (a forked engine shares them), so
    the caller passes the statistics of the view it is asking about.
    This is the only nnz estimate: the chain planner, the memory budget
    and the density warnings all read it.
    """
    kind = node.kind
    if kind == "eps":
        return float(n)
    if kind == "leaf":
        return float(leaf_nnz(node.payload))
    if kind in ("transpose", "bool"):
        return estimate_nnz(node.children[0], leaf_nnz, n)
    if kind == "nested":
        return min(estimate_nnz(node.children[0], leaf_nnz, n), float(n))
    if kind == "star":
        # I + M + M^2 + ...: with average degree d = nnz/n >= 1 the
        # closure of the giant component is effectively dense; below 1
        # the geometric series nnz * (1 + d + d^2 + ...) converges.
        base = estimate_nnz(node.children[0], leaf_nnz, n)
        degree = base / max(float(n), 1.0)
        if degree >= 1.0:
            return float(n) * n
        return min(float(n) * n, n + base / (1.0 - degree))
    if kind == "add":
        total = sum(
            estimate_nnz(child, leaf_nnz, n) for child in node.children
        )
        return min(float(n) * n, total)
    if kind == "hadamard":
        return min(
            estimate_nnz(child, leaf_nnz, n) for child in node.children
        )
    if kind == "chain":
        if node.split_at is not None:
            return product_nnz(
                estimate_nnz(node.left, leaf_nnz, n),
                estimate_nnz(node.right, leaf_nnz, n),
                n,
            )
        estimate = estimate_nnz(node.children[0], leaf_nnz, n)
        for child in node.children[1:]:
            estimate = product_nnz(
                estimate, estimate_nnz(child, leaf_nnz, n), n
            )
        return estimate
    raise ValueError("unknown plan node kind {!r}".format(kind))


def estimate_bytes(node, leaf_nnz, n):
    """Estimated resident CSR bytes of a plan node's matrix.

    The byte surrogate the memory budget plans against: ``nnz`` scaled
    by data + index width (16 bytes — float64 data plus an index slot,
    counting the 64-bit worst case) plus the ``indptr`` spine.  Built
    on :func:`estimate_nnz`, so it is exact at the leaves and the
    standard uniform-sparsity estimate above them — good enough to
    decide "will this pattern set fit" before warming it, which only
    needs the right order of magnitude.
    """
    return 16.0 * estimate_nnz(node, leaf_nnz, n) + 8.0 * (float(n) + 1.0)


def _chain_cost(node, leaf_nnz, n, uses):
    """Amortized flops of an ordered plan along its recorded splits.

    The quantity :func:`order_chain` minimizes, read back for the split
    it chose: each product costs ``_product_cost`` of its operands'
    estimates, and a sub-chain ``uses`` counts in >= 2 chains is
    divided by that count.  Non-chain nodes cost nothing here.
    """
    if node.kind != "chain":
        return 0.0
    cost = (
        _chain_cost(node.left, leaf_nnz, n, uses)
        + _chain_cost(node.right, leaf_nnz, n, uses)
        + _product_cost(
            estimate_nnz(node.left, leaf_nnz, n),
            estimate_nnz(node.right, leaf_nnz, n),
            n,
        )
    )
    count = uses.get(tuple(child.uid for child in node.children), 0)
    return cost / count if count >= 2 else cost


def order_chain(node, leaf_nnz, n, compiler):
    """Choose (and record) the multiplication order for a chain node.

    Classic O(k^3) matrix-chain DP over the factor nnz estimates, with
    one twist: a contiguous segment that ``compiler.subchain_uses``
    says appears in >= 2 distinct chains has its cost divided by that
    count — once cached it is free for every later use, so its
    *amortized* cost is what the parent split should see.  This is what
    steers an Algorithm-1 pattern set toward evaluating each shared
    prefix/sub-chain exactly once.

    The chosen split is recorded on the chain node (``split_at``,
    ``left``, ``right``) and recursively on every interned sub-chain;
    a sub-chain that was already ordered (e.g. as another pattern's
    chain) keeps its earlier decision, so cached intermediates stay
    valid.  Idempotent, and serialized under the compiler's lock so
    concurrent serving threads never observe a half-recorded split.
    """
    with compiler.lock:
        _order_chain_locked(node, leaf_nnz, n, compiler)


def _order_chain_locked(node, leaf_nnz, n, compiler):
    if node.split_at is not None:
        return
    factors = node.children
    k = len(factors)
    uids = tuple(factor.uid for factor in factors)
    shared = compiler.subchain_uses
    estimates = [estimate_nnz(factor, leaf_nnz, n) for factor in factors]

    nnz = {}
    cost = {}
    split = {}
    for i in range(k):
        nnz[(i, i + 1)] = estimates[i]
        cost[(i, i + 1)] = 0.0
    for span in range(2, k + 1):
        for i in range(0, k - span + 1):
            j = i + span
            best = best_m = None
            for m in range(i + 1, j):
                candidate = (
                    cost[(i, m)]
                    + cost[(m, j)]
                    + _product_cost(nnz[(i, m)], nnz[(m, j)], n)
                )
                if best is None or candidate < best:
                    best, best_m = candidate, m
            split[(i, j)] = best_m
            nnz[(i, j)] = product_nnz(
                nnz[(i, best_m)], nnz[(best_m, j)], n
            )
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
