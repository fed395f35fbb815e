"""Delta maintenance: patch cached commuting matrices after a write.

A write changes a few labels' adjacency matrices by ``+1``/``-1``
patches ``ΔA`` (:class:`~repro.graph.matrices.ViewDelta`).
:func:`propagate` carries them through an engine's cache records,
bottom-up over the plan DAG.  Each plan node resolves, once per delta,
to a pair ``(new, Δ)``: its post-delta matrix and ``Δ = new − old``,
where an empty ``Δ`` means unchanged and ``Δ = None`` means changed by
an amount the pass did not work out.  A node whose matrix the pass
cannot maintain cheaply resolves to ``None`` instead.

The rules, over the node's inputs (children, or a leaf's patch):

* every input unchanged: the node is unchanged (a Kleene star's
  identity term is an input too, which gains ones when nodes are
  added);
* chain ``L·R``: ``Δ = ΔL·R_new + L_old·ΔR``, which is
  ``ΔL·R_old + L_old·ΔR + ΔL·ΔR`` with ``R_old + ΔR`` folded into
  ``R_new``;
* sum: ``Δ`` is the sum of the summands' deltas;
* transpose: ``Δ`` is the child's ``Δ`` transposed;
* nested ``[p]``: over count matrices ``diag{M (M^T > 0)}`` is ``M``'s
  row sums, so ``Δ`` is ``ΔM``'s row sums on the diagonal;
* Hadamard product and skip ``<<p>>``: recomputed from the new inputs,
  ``Δ`` taken against the old record.

A chain, nested or star node without its old record, a product over an
input whose ``Δ`` is unknown, a star whose base changed, and a chain
whose input ``Δ`` is denser than :data:`DELTA_REBUILD_THRESHOLD` x that
input's nnz are not maintained: their records are invalidated (dropped,
recomputed on next use), never served stale.  Commuting matrices hold
integer instance counts, exact in float64, so a patched record is
bitwise identical to a rebuild.
"""

from collections import OrderedDict

import numpy as np
import scipy.sparse as sp

from repro.graph.matrices import (
    add_patch,
    boolean,
    canonical,
    identity_patch,
    resized,
    trusted_csr,
)
from repro.lang.plan import embeds_identity, leaf_labels, order_chain

#: A chain whose input delta is denser than this fraction of the input's
#: nnz is invalidated (lazily recomputed) instead of patched.
DELTA_REBUILD_THRESHOLD = 0.25

#: Node kinds whose update starts from their own pre-delta record.
_NEEDS_OLD = frozenset(("chain", "nested", "star"))


def _unchanged(delta):
    return delta is not None and delta.nnz == 0


def _patched(old, delta):
    return add_patch(old, delta), delta


def _sum(matrices):
    """The canonical sum of canonical matrices (a lone one as it is)."""
    total = matrices[0]
    for matrix in matrices[1:]:
        total = total + matrix
    return total if len(matrices) == 1 else canonical(total)


class _Resolver:
    """Resolves plan nodes to ``(new, Δ)`` pairs for one delta, memoized.

    Each sub-plan shared by several records is resolved exactly once.
    """

    def __init__(self, records, delta, view, compiler):
        self._records = records
        self._view = view
        self._compiler = compiler
        self._patches = delta.patches
        self._touched = frozenset(delta.patches)
        self._n = n = delta.num_nodes
        self._grew = delta.grew
        self._zero = sp.csr_matrix((n, n), dtype=np.float64)
        self._identity_patch = (
            identity_patch(range(delta.old_num_nodes, n), n)
            if self._grew
            else self._zero
        )
        self._memo = {}

    def resolve(self, node):
        if node not in self._memo:
            self._memo[node] = self._compute(node)
        return self._memo[node]

    def _old(self, node):
        """``node``'s pre-delta matrix at the new shape, or None."""
        entry = self._records.get(node)
        return None if entry is None else resized(entry.matrix, self._n)

    def _compute(self, node):
        old = self._old(node)
        kind = node.kind
        # A record the delta cannot reach: disjoint labels, and no
        # identity term when the node set grew.
        if (
            old is not None
            and not (leaf_labels(node) & self._touched)
            and not (self._grew and embeds_identity(node))
        ):
            return old, self._zero
        if kind == "leaf":
            label = node.payload
            return (
                self._view.adjacency(label),
                self._patches.get(label, self._zero),
            )
        if kind == "eps":
            return self._view.identity(), self._identity_patch
        if old is None and kind in _NEEDS_OLD:
            return None
        if kind == "chain":
            if node.split_at is None:
                order_chain(
                    node,
                    self._view.label_stats,
                    self._n,
                    self._compiler,
                )
            children = (node.left, node.right)
        else:
            children = node.children
        parts = [self.resolve(child) for child in children]
        if any(part is None for part in parts):
            return None
        news = [new for new, _ in parts]
        deltas = [delta for _, delta in parts]
        unchanged = all(_unchanged(delta) for delta in deltas)
        if unchanged and old is not None and not (
            kind == "star" and self._grew
        ):
            return old, self._zero
        if kind == "chain":
            return self._chain(node, old, parts)
        if kind == "add":
            if old is None or any(delta is None for delta in deltas):
                return _sum(news), self._zero if unchanged else None
            return _patched(
                old, _sum([delta for delta in deltas if delta.nnz])
            )
        if kind == "transpose":
            delta = deltas[0]
            return (
                canonical(news[0].T),
                None if delta is None else canonical(delta.T),
            )
        if kind == "nested":
            return self._nested(old, deltas[0])
        if kind == "star":
            # New nodes alone add the identity's new diagonal ones; a
            # changed base reshapes every power.
            if not unchanged:
                return None
            return _patched(old, self._identity_patch)
        if kind == "bool":
            new = boolean(news[0])
        elif kind == "hadamard":
            new = news[0]
            for matrix in news[1:]:
                new = new.multiply(matrix)
            new = canonical(new)
        else:
            raise TypeError("unhandled plan node kind {!r}".format(kind))
        # Recomputed from the new inputs, Δ taken against the old record.
        return new, None if old is None else canonical(new - old)

    def _chain(self, node, old, parts):
        (l_new, dl), (r_new, dr) = parts
        if dl is None or dr is None:
            return None
        threshold = DELTA_REBUILD_THRESHOLD
        if dl.nnz > threshold * max(l_new.nnz, 1) or (
            dr.nnz > threshold * max(r_new.nnz, 1)
        ):
            return None
        delta = dl @ r_new if dl.nnz else None
        if dr.nnz:
            l_old = l_new
            if dl.nnz:
                l_old = self._old(node.left)
                if l_old is None:  # the left factor's record was evicted
                    l_old = canonical(l_new - dl)
            term = l_old @ dr
            delta = term if delta is None else delta + term
        return _patched(old, canonical(delta))

    def _nested(self, old, inner_delta):
        if inner_delta is None:
            return None
        row_sums = np.asarray(inner_delta.sum(axis=1)).ravel()
        rows = np.flatnonzero(row_sums)
        if not len(rows):
            return old, self._zero
        # Entries for the changed rows only: an sp.diags patch would
        # store all n diagonal slots and merge every one into the record.
        indptr = np.zeros(self._n + 1, dtype=old.indices.dtype)
        np.cumsum(np.bincount(rows, minlength=self._n), out=indptr[1:])
        delta = trusted_csr(
            row_sums[rows],
            rows.astype(old.indices.dtype),
            indptr,
            self._n,
        )
        return _patched(old, delta)


def _padded(vector, pad):
    # New nodes have empty rows and columns: zero norm and diagonal.
    if vector is None or not len(pad):
        return vector
    return np.concatenate([vector, pad])


def propagate(records, delta, view, compiler):
    """Cache records brought up to date with ``delta``.

    ``records`` is an engine's ``{plan: PlanEntry}`` cache in LRU order,
    ``delta`` the :class:`~repro.graph.matrices.ViewDelta` that ``view``
    (already patched) reported, and ``compiler`` the plan compiler that
    orders a chain the pass meets unordered.  Returns the new records,
    in the same order with invalidated ones left out, and the counts
    ``{"patched", "kept", "invalidated"}``.  Records are replaced, never
    mutated.  A patched record's PathSim diagonal is patched too (old +
    ``Δ.diagonal()``); its cosine column norms are dropped and
    recomputed on demand.
    """
    resolver = _Resolver(records, delta, view, compiler)
    pad = np.zeros(delta.num_nodes - delta.old_num_nodes)
    counts = {"patched": 0, "kept": 0, "invalidated": 0}
    new_records = OrderedDict()
    for plan, entry in records.items():
        pair = resolver.resolve(plan)
        if pair is None:
            counts["invalidated"] += 1
            continue
        new, change = pair
        if _unchanged(change):
            counts["kept"] += 1
            if new is entry.matrix:
                new_records[plan] = entry
                continue
            norms = _padded(entry.norms, pad)
            diagonal = _padded(entry.diagonal, pad)
        else:
            counts["patched"] += 1
            norms = None
            diagonal = entry.diagonal
            if diagonal is not None:
                if change is None:
                    diagonal = new.diagonal()
                else:
                    diagonal = _padded(diagonal, pad) + change.diagonal()
        # The engine's record type (importing it here would make the
        # engine module and this one import each other).
        new_records[plan] = type(entry).of(new, norms, diagonal)
    return new_records, counts
