"""Sparse adjacency matrices: the graph as the similarity stack reads it.

The commuting-matrix computation of Section 4.3 works on per-label
adjacency matrices ``A_l`` and node types only.  This module provides a
:class:`NodeIndexer` (stable node-id <-> row index mapping, possibly a
bounded share of a database's own position table), the
:class:`MatrixView` — schema, a node table (the indexer plus one type
per row) and one CSR matrix per label, which is the whole graph of one
version (built lazily over a :class:`GraphDatabase`, or detached from
it; a write returns the next version's view and changes none) — and
:func:`csr_product`, the engine's multi-core sparse product.

Matrices use float64: instance counts can exceed int32 on long patterns
and SciPy's sparse matmul is best-tuned for floats.  Counts are exact as
long as they stay below 2**53, which vastly exceeds anything a realistic
pattern produces.
"""

import contextlib
import os
import threading
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from itertools import chain, repeat

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from repro.exceptions import (
    EvaluationError,
    UnknownLabelError,
    UnknownNodeError,
)
from repro.graph.database import GraphDatabase, plan_delta

#: Products of at least this many multiply-adds run as one row block
#: per usable core; smaller ones run inline on the calling thread.  On
#: 2 cores splitting starts to pay between 0.45M multiply-adds (dense
#: output rows) and 1.2M (a right operand with one entry per row); see
#: README, "Memory budget & scale".
PARALLEL_PRODUCT_FLOPS = 1_000_000


class NodeIndexer:
    """A stable bijection between node ids and ``0..n-1`` matrix indices.

    The table may be shared.  A lazy :class:`MatrixView` adopts its
    :class:`~repro.graph.database.GraphDatabase`'s own position table
    (:meth:`bounded`) instead of building one, so the table can gain
    entries after the indexer is made; the bound ``n`` hides them.
    """

    def __init__(self, nodes):
        ids = list(nodes)
        index = {node: i for i, node in enumerate(ids)}
        if len(index) != len(ids):
            raise ValueError("duplicate node ids passed to NodeIndexer")
        self._ids, self._index, self._bound = ids, index, len(ids)

    @classmethod
    def bounded(cls, ids, index, bound):
        """An indexer over the first ``bound`` entries of a shared table.

        ``ids`` lists node ids by position and ``index`` maps each id to
        its position.  Both may grow after this call, by appending only,
        so their first ``bound`` entries stay fixed.  Nothing is copied.
        """
        indexer = cls.__new__(cls)
        indexer._ids, indexer._index, indexer._bound = ids, index, bound
        return indexer

    def extended(self, nodes):
        """A new indexer with ``nodes`` appended after this one's ids.

        Copies the mapping instead of re-enumerating every id, without
        the entries a shared table gained past the bound, and leaves
        ``self`` unchanged for readers that still hold it.
        """
        bound = self._bound
        index = dict(self._index)
        # Read after the copy, so it lists every id the copy holds past
        # the bound.
        for node in self._ids[bound:]:
            index.pop(node, None)
        ids = self._ids[:bound] + list(nodes)
        index.update(zip(ids[bound:], range(bound, len(ids))))
        if len(index) != len(ids):
            raise ValueError("duplicate node ids passed to NodeIndexer")
        return NodeIndexer.bounded(ids, index, len(ids))

    def __len__(self):
        return self._bound

    def index_of(self, node):
        position = self._index.get(node, self._bound)
        if position >= self._bound:
            raise UnknownNodeError(node)
        return position

    def node_at(self, index):
        # ``range`` checks the index against the bound, negatives too.
        return self._ids[range(self._bound)[index]]

    def __contains__(self, node):
        return self._index.get(node, self._bound) < self._bound

    @property
    def ids(self):
        return self._ids[: self._bound]


def resized(matrix, n):
    """``matrix`` with its square shape grown to ``(n, n)``.

    CSR growth is pure bookkeeping: appended rows extend ``indptr`` with
    the final offset, appended columns only change ``shape``.  The data
    and index buffers are *shared* with the input (nothing in the engine
    ever mutates them), so resizing a cached matrix after a node-adding
    delta costs O(new rows), not O(nnz).
    """
    old = matrix.shape[0]
    if old == n:
        return matrix
    if old > n:
        raise ValueError(
            "cannot shrink a matrix from {} to {} rows".format(old, n)
        )
    indptr = np.concatenate(
        [
            matrix.indptr,
            np.full(n - old, matrix.indptr[-1], dtype=matrix.indptr.dtype),
        ]
    )
    # Assembled around SciPy's constructor, which would copy (and
    # re-validate) the buffers.
    grown = sp.csr_matrix((n, n), dtype=matrix.dtype)
    grown.data = matrix.data
    grown.indices = matrix.indices
    grown.indptr = indptr
    if matrix.has_canonical_format:
        grown.has_canonical_format = True
    return grown


def trusted_csr(data, indices, indptr, n):
    """An ``(n, n)`` canonical CSR around trusted buffers, unvalidated.

    SciPy's constructor re-derives index dtypes and checks formats — an
    O(nnz) scan per call.  Callers guarantee sorted, deduplicated,
    zero-free buffers; the matrix shares them.
    """
    matrix = sp.csr_matrix((n, n), dtype=np.float64)
    matrix.data = data
    matrix.indices = indices
    matrix.indptr = indptr
    matrix.has_canonical_format = True
    return matrix


def canonical(matrix):
    """``matrix`` as canonical CSR: sorted, deduplicated, no stored zeros.

    Every matrix the engine publishes is canonical: ``dense_rows`` and
    ``pathsim_rows`` read the buffers directly, and delta maintenance
    relies on a patched matrix being structurally identical to a fresh
    rebuild.  Canonicalizing before publishing also means no later
    caller sorts a cached matrix in place, so buffers that versions of
    an engine share stay frozen.  Sorts in place when ``matrix`` is
    already CSR, so pass a matrix nobody else holds.
    """
    matrix = matrix.tocsr()
    matrix.sum_duplicates()
    matrix.eliminate_zeros()
    return matrix


def add_patch(matrix, patch):
    """``matrix + patch`` as a canonical CSR with no explicit zeros.

    Both operands must be canonical CSR of one shape.  SciPy's merge of
    two canonical operands is canonical, so the sum is flagged without
    a re-scan; cancelled entries are pruned when the patch can cancel
    (holds a negative value).
    """
    result = matrix + patch
    result.has_canonical_format = True
    if patch.nnz and patch.data.min() < 0:
        result.eliminate_zeros()
    return result


def usable_cores():
    """The number of CPU cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _row_blocks(left, right_row_lengths):
    """Row bounds splitting ``left @ right`` into flop-balanced blocks.

    One block unless the product reaches ``PARALLEL_PRODUCT_FLOPS``;
    then one per usable core.  An O(rows) upper bound screens out the
    common small product before the exact O(nnz) count is taken.
    """
    rows = left.shape[0]
    whole = np.array([0, rows])
    longest = int(right_row_lengths.max(initial=0))
    if left.nnz * longest < PARALLEL_PRODUCT_FLOPS:
        return whole
    cores = usable_cores()
    if cores < 2:
        return whole
    flops = right_row_lengths[left.indices]  # per entry of ``left``
    total = int(flops.sum())
    if total < PARALLEL_PRODUCT_FLOPS:
        return whole
    before = np.zeros(left.nnz + 1, dtype=np.int64)
    before[1:] = flops
    np.cumsum(before, out=before)
    cuts = np.searchsorted(
        before[left.indptr], total * np.arange(1, cores) / cores
    )
    return np.unique(np.concatenate(([0], cuts, [rows])))


def csr_product(left, right):
    """``left @ right`` as a canonical CSR, blocks run on every usable core.

    Bitwise equal to SciPy's product after ``sum_duplicates()`` and
    ``eliminate_zeros()``, with the index dtype SciPy's ``@`` picks.
    It runs SciPy's two kernel passes over row blocks of ``left`` (see
    :func:`_row_blocks`): the symbolic pass of every block sizes one
    ``data``/``indices`` pair, then each block multiplies and sorts its
    rows straight into its own slice, so the result is never stacked or
    copied.  Blocks read shared operands and write disjoint slices; the
    kernels release the GIL, so threads run them in parallel.
    """
    left, right = left.tocsr(), right.tocsr()
    (rows, inner), cols = left.shape, right.shape[1]
    if inner != right.shape[0]:
        raise ValueError(
            "cannot multiply {} by {}".format(left.shape, right.shape)
        )
    dtype = np.result_type(left.dtype, right.dtype)
    index_arrays = (left.indptr, left.indices, right.indptr, right.indices)
    index = np.result_type(*index_arrays)
    lp, lj, rp, rj = (np.asarray(a, dtype=index) for a in index_arrays)
    bounds = _row_blocks(left, np.diff(right.indptr)).tolist()
    blocks = list(zip(bounds[:-1], bounds[1:]))

    def symbolic(start, end):
        return _sparsetools.csr_matmat_maxnnz(
            end - start, cols, lp[start : end + 1], lj, rp, rj
        )

    with (
        ThreadPoolExecutor(max_workers=len(blocks))
        if len(blocks) > 1
        else contextlib.nullcontext()
    ) as pool:
        sizes = _run_blocks(pool, symbolic, blocks)
        total = sum(sizes)
        if total == 0:
            empty = left.__class__((rows, cols), dtype=dtype)
            empty.has_canonical_format = True
            return empty
        if total >= 2**31:  # SciPy's ``@`` widens indices here too
            index = np.int64
            lp, lj, rp, rj = (np.asarray(a, dtype=index) for a in index_arrays)
        ld = left.data.astype(dtype, copy=False)
        rd = right.data.astype(dtype, copy=False)
        indices = np.empty(total, dtype=index)
        data = np.empty(total, dtype=dtype)
        ends = np.cumsum(sizes).tolist()
        slots = [slice(end - size, end) for end, size in zip(ends, sizes)]

        def numeric(start, end, slot):
            indptr = np.empty(end - start + 1, dtype=index)
            _sparsetools.csr_matmat(
                end - start, cols, lp[start : end + 1], lj, ld, rp, rj, rd,
                indptr, indices[slot], data[slot],
            )
            _sparsetools.csr_sort_indices(
                end - start, indptr, indices[slot], data[slot]
            )
            return indptr

        block_indptrs = _run_blocks(
            pool, numeric, [block + (slot,) for block, slot in zip(blocks, slots)]
        )
    # The symbolic pass counts structural entries, but the kernel drops
    # sums that cancel to zero: close the gap a short block leaves.
    indptr = np.zeros(rows + 1, dtype=index)
    filled = 0
    for (start, end), slot, block_indptr in zip(blocks, slots, block_indptrs):
        count = int(block_indptr[-1])
        if filled != slot.start:
            indices[filled : filled + count] = indices[slot][:count]
            data[filled : filled + count] = data[slot][:count]
        indptr[start + 1 : end + 1] = block_indptr[1:] + filled
        filled += count
    # SciPy's constructor picks the index dtype as it does for ``@``,
    # but from the filled entries only, never an unwritten tail.
    product = left.__class__(
        (data[:filled], indices[:filled], indptr), shape=(rows, cols)
    )
    product.has_canonical_format = True
    return product


def _run_blocks(pool, work, blocks):
    """``work(*block)`` for every block, on ``pool`` unless it is None."""
    if pool is None:
        return [work(*block) for block in blocks]
    futures = [pool.submit(work, *block) for block in blocks]
    return [future.result() for future in futures]


def identity_patch(indices, n):
    """Ones on the diagonal at ``indices`` — the ``I`` growth of eps/star.

    When a delta adds nodes, every matrix that embeds an identity term
    (``eps``, ``p*``) gains a 1 at each new node's diagonal position;
    everything else just gains zero rows/columns.  This is that patch.
    """
    indices = np.asarray(list(indices), dtype=np.intp)
    data = np.ones(len(indices), dtype=np.float64)
    return sp.csr_matrix((data, (indices, indices)), shape=(n, n))


_VIEW_DELTA = "patches old_num_nodes num_nodes added removed added_nodes"


class ViewDelta(namedtuple("ViewDelta", _VIEW_DELTA)):
    """What one :meth:`MatrixView.apply_delta` call changed.

    ``added`` / ``removed`` / ``added_nodes`` are the report of
    :func:`~repro.graph.database.plan_delta` — what
    :meth:`GraphDatabase.apply_delta
    <repro.graph.database.GraphDatabase.apply_delta>` returns for the
    same batch: the edges actually added and removed, and the genuinely
    new node ids in indexer order.  ``patches`` maps each touched label
    to a ``(n, n)`` CSR matrix of ``+1``/``-1`` adjacency changes
    (net-zero labels are omitted) and ``old_num_nodes``/``num_nodes``
    bound the indexer growth.  The engine consumes this to propagate the
    delta through cached commuting matrices.
    """

    __slots__ = ()

    @property
    def grew(self):
        """True when the delta added nodes (matrix shapes changed)."""
        return self.num_nodes != self.old_num_nodes


class MatrixView:
    """The graph of one version: schema, node table and per-label CSR.

    Parameters
    ----------
    database:
        The :class:`repro.graph.database.GraphDatabase` to project.
    indexer:
        Optional :class:`NodeIndexer`; defaults to the database's own
        position table (node insertion order).  Pass a shared indexer
        when comparing matrices across structural variants of the same
        database (node ids are preserved by invertible transformations,
        so a shared ordering makes entries directly comparable); the
        view then maps the database's positions to its rows once, and
        its nodes are the indexer's ids, typed as the database types
        them (a node the database lacks is untyped).

    A view holds everything the similarity stack reads of a graph: the
    schema, a node table — the :class:`NodeIndexer` and one type per
    row — and each label's CSR adjacency matrix ``A_label``.  Sessions and
    algorithms read the graph through it (:attr:`schema`, :meth:`nodes`,
    :meth:`node_type`, :meth:`nodes_of_type`, :meth:`has_node`,
    :meth:`has_edge`, :meth:`num_edges`, :meth:`used_labels`), and
    :meth:`to_database` exports it.

    A view answers for the version it was made at, or it raises; it
    never answers for a mix of two versions.  A view over a caller's
    database is *lazy*: it copies the node types, shares the database's
    id table bounded at its node count, records the database's write
    count, and builds each label's matrix from the stored position sets
    on first use, so a session costs little until it scores.  Once the
    database has been written, every read that would reach it — a label
    not built yet, :meth:`used_labels`, :meth:`candidate_index` —
    raises :class:`~repro.exceptions.EvaluationError`: make a new view,
    or :meth:`detach` this one before writing.  A detached view has
    every used label built and no database.  It is the whole graph of a
    version — :class:`~repro.api.service.SimilarityService` serves
    detached views — and :meth:`apply_delta` returns the next version's
    view without changing this one.

    The view is thread-safe: the adjacency and candidate-index caches are
    lock-guarded with double-checked access (matrices are built outside
    the lock and published under it), so any number of threads can score
    against one shared view.
    """

    def __init__(self, database, indexer=None):
        ids, types, remap = database._ids, database._types, None
        if indexer is None:  # the database's own table, as it is now
            indexer = NodeIndexer.bounded(ids, database._index, len(ids))
            types = list(types)
        else:
            # Database position -> the caller's row, -1 where it lacks
            # the node: one remap per view instead of a lookup per edge.
            remap = np.fromiter(
                map(indexer._index.get, ids, repeat(-1)),
                dtype=np.intp,
                count=len(ids),
            )
            remap[remap >= len(indexer)] = -1
            # The caller's ids are the view's nodes, typed by the remap.
            by_row = [None] * len(indexer)
            for row, node_type in zip(remap.tolist(), types):
                if row >= 0:
                    by_row[row] = node_type
            types = by_row
        self._init(database, database.schema, indexer, types, {}, remap)

    @classmethod
    def restore(cls, schema, nodes, types, adjacency):
        """A detached view from its parts — how a snapshot loads.

        ``nodes`` lists the node ids in indexer order, ``types`` their
        types by row, and ``adjacency`` maps each used label to its
        canonical CSR matrix; the view adopts the types list and the
        matrices.  A label the schema lacks raises
        :class:`~repro.exceptions.UnknownLabelError`, and lists of
        different lengths raise ``ValueError``.
        """
        for label in adjacency:
            if label not in schema:
                raise UnknownLabelError(label, schema.labels)
        if len(types) != len(nodes):
            raise ValueError(
                "{} node types for {} nodes".format(len(types), len(nodes))
            )
        view = cls.__new__(cls)
        view._init(None, schema, NodeIndexer(nodes), types, dict(adjacency))
        return view

    def _init(self, database, schema, indexer, types, cache, remap=None):
        self._database = database
        # The database's write count when the view was made.
        self._writes = None if database is None else database._writes
        self._schema = schema
        # The node table: the indexer's ids and their types by row.
        self._indexer = indexer
        self._types = types
        self._remap = remap
        self._lock = threading.RLock()
        self._cache = cache
        self._candidates = {}
        self._stats = {}

    def _live_database(self):
        """The database a lazy view reads, or None once detached.

        Raises :class:`~repro.exceptions.EvaluationError` when the
        database has been written since the view was made.
        """
        database = self._database
        if database is not None and database._writes != self._writes:
            raise EvaluationError(
                "the database was written after this view was made; make "
                "a new view of it, or detach() the view before writing"
            )
        return database

    @property
    def indexer(self):
        return self._indexer

    @property
    def schema(self):
        return self._schema

    def num_nodes(self):
        return len(self._indexer)

    # ------------------------------------------------------------------
    # Graph reads
    # ------------------------------------------------------------------
    def nodes(self):
        """An iterator over node ids (indexer order)."""
        return iter(self._indexer.ids)

    def has_node(self, node):
        return node in self._indexer

    def node_type(self, node):
        """The node's type string, or ``None`` if untyped; unknown raises."""
        return self._types[self._indexer.index_of(node)]

    def nodes_of_type(self, node_type):
        """All node ids whose type equals ``node_type`` (indexer order)."""
        pairs = zip(self._indexer.ids, self._types)
        return [node for node, kind in pairs if kind == node_type]

    def has_edge(self, source, label, target):
        """Whether ``(source, label, target)`` is an edge.

        A binary search in one sorted row of the label's CSR matrix.
        """
        indexer = self._indexer
        if label not in self._schema or not (
            source in indexer and target in indexer
        ):
            return False
        matrix = self.adjacency(label)
        row, column = indexer.index_of(source), indexer.index_of(target)
        columns = matrix.indices[matrix.indptr[row] : matrix.indptr[row + 1]]
        position = np.searchsorted(columns, column)
        return bool(position < len(columns) and columns[position] == column)

    def used_labels(self):
        """Labels that occur on at least one edge."""
        database = self._live_database()
        if database is not None:
            return database.used_labels()
        with self._lock:
            return {label for label, m in self._cache.items() if m.nnz}

    def label_nnz(self, label):
        """The number of ``label`` edges."""
        return self.adjacency(label).nnz

    def label_stats(self, label):
        """``(nnz, rows, cols)`` of ``label``'s adjacency: its edges and
        the rows and columns that hold at least one — the planner's
        statistics for a leaf (:func:`repro.lang.plan.estimate`).

        Counted the first time they are asked for and kept by this view
        only: the next version starts without them.
        """
        stats = self._stats.get(label)
        if stats is None:
            matrix = self.adjacency(label)
            stats = (
                matrix.nnz,
                int(np.count_nonzero(np.diff(matrix.indptr))),
                int(np.count_nonzero(np.bincount(matrix.indices))),
            )
            with self._lock:
                stats = self._stats.setdefault(label, stats)
        return stats

    def num_edges(self):
        return sum(map(self.label_nnz, self.used_labels()))

    def to_database(self):
        """This view's graph as a new, independent ``GraphDatabase``.

        An O(|V| + |E|) export for work off the serving path (a ``swap``
        base, JSON export, statistics): nodes keep their table order
        and types, and edges are read back out of the CSR matrices.
        """
        database = GraphDatabase(self._schema)
        ids = self._indexer.ids
        for node, node_type in zip(ids, self._types):
            database.add_node(node, node_type)
        for label in sorted(self.used_labels()):
            edges = self.adjacency(label).tocoo()
            pairs = zip(edges.row.tolist(), edges.col.tolist())
            database.add_edges_bulk(label, ((ids[u], ids[v]) for u, v in pairs))
        return database

    # ------------------------------------------------------------------
    # Adjacency matrices
    # ------------------------------------------------------------------
    def adjacency(self, label):
        """The CSR adjacency matrix ``A_label`` (entries are 0/1 counts)."""
        matrix = self._cache.get(label)
        if matrix is None:
            # Build outside the lock (edge iteration can be slow), then
            # publish under it; a concurrent duplicate build loses the
            # race and every caller gets the one published matrix.
            built = self._build(label)
            with self._lock:
                matrix = self._cache.get(label)
                if matrix is None:
                    matrix = self._cache.setdefault(label, built)
        return matrix

    def _build(self, label):
        database = self._live_database()
        if database is None:
            # Detached: every used label was built before the database
            # was dropped, so an unbuilt label has no edges.
            if label not in self._schema:
                raise UnknownLabelError(label, self._schema.labels)
            return self.zeros()
        # The database stores positions, so each array is filled by one
        # C-level pass over the label's {source: targets} dict with no
        # id lookup and no bytecode per source or per edge.  Keys,
        # degrees and the chained target sets all follow the dict's one
        # iteration order, which is what lets ``np.repeat`` pair every
        # target with its source.
        adjacency = database._position_lists(label)
        degrees = np.fromiter(
            map(len, adjacency.values()), dtype=np.intp, count=len(adjacency)
        )
        sources = np.fromiter(adjacency, dtype=np.intp, count=len(adjacency))
        cols = np.fromiter(
            chain.from_iterable(adjacency.values()),
            dtype=np.intp,
            count=int(degrees.sum()),
        )
        rows = np.repeat(sources, degrees)
        if self._remap is not None:  # a caller's indexer
            rows, cols = self._remap[rows], self._remap[cols]
            keep = np.minimum(rows, cols) >= 0
            rows, cols = rows[keep], cols[keep]
        n = len(self._indexer)
        data = np.ones(len(rows), dtype=np.float64)
        matrix = sp.csr_matrix(
            (data, (rows, cols)), shape=(n, n), dtype=np.float64
        )
        matrix.sum_duplicates()
        return matrix

    # ------------------------------------------------------------------
    # Versions
    # ------------------------------------------------------------------
    def detach(self):
        """Build every used label and drop the database; returns ``self``.

        The view then reads no database, so later writes to that
        database no longer concern it, and it never writes to it.
        Raises like any read of a database written since the view was
        made.  Idempotent.
        """
        with self._lock:
            if self._database is not None:
                for label in self.used_labels():
                    self.adjacency(label)
                self._database = self._remap = None
        return self

    def apply_delta(self, edges_added=(), edges_removed=(), nodes_added=()):
        """The next version: this view with an edge/node delta applied.

        Returns ``(view, delta)``.  The batch is validated by
        :func:`~repro.graph.database.plan_delta`, the routine
        :meth:`GraphDatabase.apply_delta
        <repro.graph.database.GraphDatabase.apply_delta>` uses, so a
        failing delta raises and makes no view.  The new view is
        detached and shares every buffer of this one that the delta
        leaves alone; this view, its node table, matrices and candidate
        lists stay as they were for their readers, and no database is
        written:

        * the new types list and, when nodes were added, the new indexer
          are extended copies;
        * each touched label's matrix gets a sparse ``+1/-1`` patch, and
          every matrix is resized to the new node count;
        * candidate lists are dropped only for affected types: the types
          of new nodes and every type the batch declares (which may
          retype an untyped node without adding one), plus the "all
          nodes" list when nodes were added.

        ``delta`` is a :class:`ViewDelta` with the per-label patches at
        the new shape — the input the engine's ``apply_delta``
        propagates through cached commuting matrices.
        """
        added, removed, new_nodes, types = plan_delta(
            self, edges_added, edges_removed, nodes_added
        )
        for label in self.used_labels():  # the next version holds them all
            self.adjacency(label)
        old_n = len(self._indexer)
        indexer = self._indexer
        if new_nodes:
            indexer = indexer.extended(new_nodes)
        by_row = self._types
        if new_nodes or types:  # a new list: this view keeps its own
            by_row = by_row + [None] * len(new_nodes)
            for node, node_type in types.items():
                by_row[indexer.index_of(node)] = node_type
        n = len(indexer)
        entries = {}
        for edges, sign in ((removed, -1.0), (added, 1.0)):
            for source, label, target in edges:
                rows, cols, vals = entries.setdefault(label, ([], [], []))
                rows.append(indexer.index_of(source))
                cols.append(indexer.index_of(target))
                vals.append(sign)
        patches = {}
        for label, (rows, cols, vals) in entries.items():
            patch = sp.csr_matrix(
                (np.array(vals), (rows, cols)), shape=(n, n), dtype=np.float64
            )
            patch.sum_duplicates()
            patch.eliminate_zeros()
            if patch.nnz:
                patches[label] = patch
                self.adjacency(label)  # a label's first edge patches zeros
        cache = {}
        for label, matrix in dict(self._cache).items():
            cache[label] = resized(matrix, n)
            if label in patches:
                cache[label] = add_patch(cache[label], patches[label])
        candidates = dict(self._candidates)
        for node_type in set(by_row[old_n:]) | set(types.values()):
            candidates.pop(("type", node_type), None)
        if new_nodes:
            candidates.pop(("all",), None)
        view = MatrixView.__new__(MatrixView)
        view._init(None, self._schema, indexer, by_row, cache)
        view._candidates = candidates
        return view, ViewDelta(patches, old_n, n, added, removed, new_nodes)

    def candidate_index(self, node_type=None):
        """Cached ``(nodes, columns)`` answer-candidate arrays for a type.

        ``nodes`` lists the eligible answer nodes sorted by ``str`` (the
        :class:`~repro.similarity.base.Ranking` tie-break order) and
        ``columns`` holds their indexer positions as one ``intp`` array,
        so candidate filtering in the array-native scoring path is a
        single fancy-index slice instead of a per-node dict loop.
        ``node_type`` is the resolved answer type of a query — ``None``
        means every node (untyped queries).

        Once a lazy view's database has been written, every call raises
        :class:`~repro.exceptions.EvaluationError`, whether or not the
        index was already warm: the database may hold a candidate the
        view does not, so no algorithm ranks over a stale list.
        """
        self._live_database()
        key = ("type", node_type) if node_type is not None else ("all",)
        with self._lock:
            cached = self._candidates.get(key)
            if cached is None:
                if node_type is None:
                    eligible = self._indexer.ids
                else:
                    eligible = self.nodes_of_type(node_type)
                eligible.sort(key=str)
                columns = np.array(
                    [self._indexer.index_of(node) for node in eligible],
                    dtype=np.intp,
                )
                cached = (eligible, columns)
                self._candidates[key] = cached
        return cached

    def query_indices(self, nodes):
        """Indexer positions for ``nodes`` as one ``intp`` array.

        The shared node->index resolution step of every batch scoring
        path; a node outside the snapshot raises
        :class:`~repro.exceptions.UnknownNodeError` (scoring a node the
        snapshot does not cover is an error, not a zero score).
        """
        return np.array(
            [self._indexer.index_of(node) for node in nodes], dtype=np.intp
        )

    def identity(self):
        """The identity matrix (the ``epsilon`` pattern's matrix)."""
        return sp.identity(len(self._indexer), dtype=np.float64, format="csr")

    def zeros(self):
        return sp.csr_matrix(
            (len(self._indexer), len(self._indexer)), dtype=np.float64
        )

    def combined_adjacency(self, labels=None, symmetric=False):
        """Sum of per-label adjacencies; the graph RWR/SimRank walk on.

        Parameters
        ----------
        labels:
            Iterable of labels to include; defaults to every label used in
            the database.
        symmetric:
            When True, returns ``A + A.T`` — random-walk algorithms over
            heterogeneous graphs conventionally walk edges both ways.
        """
        if labels is None:
            labels = sorted(self.used_labels())
        total = self.zeros()
        for label in labels:
            total = total + self.adjacency(label)
        if symmetric:
            total = total + total.T
        return total.tocsr()


def dense_rows(matrix, indices):
    """``matrix[indices, :].toarray()`` via direct CSR buffer reads.

    SciPy's fancy-index row slice builds an intermediate CSR (index
    validation, dtype upcasting checks, format checks) before
    densifying; on the serving hot path that overhead dwarfs the actual
    copy.  Reading ``indptr``/``indices``/``data`` directly is an order
    of magnitude faster for the small row counts a query batch slices.

    ``matrix`` must be a canonical CSR (no duplicate entries —
    everything the engine caches is; call ``sum_duplicates()`` first
    otherwise, as duplicates would overwrite instead of summing here).
    """
    n = matrix.shape[1]
    rows = np.zeros((len(indices), n), dtype=matrix.dtype)
    indptr, columns, data = matrix.indptr, matrix.indices, matrix.data
    for i, row in enumerate(indices):
        start, end = indptr[row], indptr[row + 1]
        rows[i, columns[start:end]] = data[start:end]
    return rows


def boolean(matrix):
    """Elementwise ``matrix > 0`` as a 0/1 float CSR matrix (the paper's >).

    Used by the skip operator's commuting matrix ``M_<<p>> = M_p > 0``.
    """
    result = matrix.copy().tocsr()
    result.data = (result.data > 0).astype(np.float64)
    result.eliminate_zeros()
    return result


def diagonal_of(matrix):
    """``diag{X}``: zero out everything except the main diagonal."""
    diag = matrix.diagonal()
    return sp.diags(diag, format="csr", dtype=np.float64)


def row_normalize(matrix):
    """Row-stochastic version of ``matrix`` (zero rows stay zero)."""
    matrix = matrix.tocsr().astype(np.float64)
    sums = np.asarray(matrix.sum(axis=1)).ravel()
    inverse = np.divide(
        1.0, sums, out=np.zeros_like(sums), where=sums > 0
    )
    return sp.diags(inverse, format="csr") @ matrix


def column_normalize(matrix):
    """Column-stochastic version of ``matrix`` (zero columns stay zero)."""
    return row_normalize(matrix.T).T.tocsr()
