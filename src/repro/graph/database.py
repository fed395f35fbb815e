"""The graph database engine.

A database ``D`` over a label set ``L`` is a directed graph ``(V, E)`` with
``E`` a subset of ``V x L x V`` (Section 2 of the paper).  We additionally
keep an optional *node type* per node — purely metadata used by dataset
generators, workload samplers and HeteSim; none of the formal machinery
depends on it.

Design notes
------------
* Node ids are arbitrary hashable values (the paper fixes a countable id
  universe).  Dataset generators use strings like ``"paper:17"``.
* One node table.  Each node gets its row position once, the first time
  it is added: ``_ids`` lists the ids and ``_types`` their types in
  insertion order, and ``_index`` maps each id to its position.  The
  table is append-only (no API removes a node), so its first ``n`` ids
  never change: a lazy :class:`~repro.graph.matrices.MatrixView` shares
  the id table, bounded at its node count, instead of building its own.
* One write counter.  ``_writes`` grows with every write that changes
  the database, so a lazy view can tell whether the database still
  holds the version the view was made at.
* One edge index.  Edges are stored as positions: per label, ``_out``
  maps a source position to the set of its target positions, and a
  view builds a label's CSR from the stored sets with no id lookup.
  Reverse steps (``a-``) run on that CSR's transpose, so no reverse
  index is kept; :meth:`GraphDatabase.predecessors` and
  :meth:`GraphDatabase.degree` scan ``_out`` instead.  Every public
  method takes and returns ids.
* Edges form a *set*: adding the same ``(u, a, v)`` twice is a no-op, which
  matches the paper's set-of-edges definition.  Parallel edges with
  different labels are of course allowed.
"""

from collections import defaultdict

from repro.exceptions import (
    NodeTypeConflictError,
    UnknownEdgeError,
    UnknownLabelError,
    UnknownNodeError,
)


class GraphDatabase:
    """A labeled directed graph with set semantics on edges.

    Parameters
    ----------
    schema:
        The :class:`repro.graph.schema.Schema` this database instantiates.
        Every added edge label is validated against it.
    """

    def __init__(self, schema):
        self._schema = schema
        # The node table: ids and types by position, each id's position.
        self._ids = []
        self._types = []
        self._index = {}
        # label -> {source position -> set(target positions)}.
        self._out = defaultdict(lambda: defaultdict(set))
        self._edge_count = 0
        # Bumped by every write that changes the database.
        self._writes = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @property
    def schema(self):
        return self._schema

    def _intern(self, node, node_type=None):
        """Give a new node the next row position; returns the position."""
        position = len(self._ids)
        # The id and its type are listed before the id is indexed, so
        # anyone who copies ``_index`` finds every copied id in ``_ids``
        # and ``_types`` afterwards.
        self._ids.append(node)
        self._types.append(node_type)
        self._index[node] = position
        return position

    def _position(self, node):
        """``node``'s row position; a new node is added untyped."""
        position = self._index.get(node)
        return self._intern(node) if position is None else position

    def add_node(self, node, node_type=None):
        """Add ``node`` (idempotent).  Returns the node id for chaining.

        A node's type may be set once: re-adding with ``None`` or with
        the same type is a no-op, upgrading an untyped node to a type is
        allowed, but a *conflicting* non-None type raises
        :class:`~repro.exceptions.NodeTypeConflictError` instead of
        silently keeping the old type.
        """
        position = self._index.get(node)
        if position is None:
            self._intern(node, node_type)
            self._writes += 1
        elif node_type is not None:
            existing = self._types[position]
            if existing is None:
                self._types[position] = node_type
                self._writes += 1
            elif existing != node_type:
                raise NodeTypeConflictError(node, existing, node_type)
        return node

    def add_edge(self, source, label, target):
        """Add edge ``(source, label, target)``; endpoints are auto-added."""
        if label not in self._schema:
            raise UnknownLabelError(label, self._schema.labels)
        u, v = self._position(source), self._position(target)
        targets = self._out[label][u]
        if v not in targets:  # a new endpoint always makes a new edge
            targets.add(v)
            self._edge_count += 1
            self._writes += 1

    def add_edges(self, edges):
        """Add an iterable of ``(source, label, target)`` triples."""
        for source, label, target in edges:
            self.add_edge(source, label, target)

    def add_edges_bulk(self, label, pairs):
        """Add many ``(source, target)`` edges of one label at once.

        The bulk-construction path for the scale generators: one schema
        check for the whole batch and local bindings inside the loop
        instead of per-edge method dispatch (~2-3x over ``add_edge`` at
        millions of edges).  Semantics are identical to repeated
        :meth:`add_edge` calls — endpoints auto-added untyped, set
        semantics on duplicates.  Returns the number of edges actually
        added.
        """
        if label not in self._schema:
            raise UnknownLabelError(label, self._schema.labels)
        position = self._index.get
        intern = self._intern
        out = self._out[label]
        added = 0
        for source, target in pairs:
            u = position(source)
            if u is None:
                u = intern(source)
            v = position(target)
            if v is None:
                v = intern(target)
            targets = out[u]
            if v not in targets:
                targets.add(v)
                added += 1
        self._edge_count += added
        self._writes += bool(added)  # new endpoints come only with new edges
        return added

    def remove_edge(self, source, label, target):
        """Remove an edge.

        Raises :class:`~repro.exceptions.UnknownEdgeError` (a
        ``KeyError`` subclass, so existing guards keep working) when the
        edge is absent.
        """
        u, v = self._index.get(source), self._index.get(target)
        targets = self._out.get(label, {}).get(u)
        if not targets or v not in targets:
            raise UnknownEdgeError(source, label, target)
        targets.discard(v)
        if not targets:
            del self._out[label][u]
        self._edge_count -= 1
        self._writes += 1

    def apply_delta(self, edges_added=(), edges_removed=(), nodes_added=()):
        """Validate and apply one batch delta; returns what actually changed.

        The batch is checked by :func:`plan_delta` — the routine
        :meth:`MatrixView.apply_delta <repro.graph.matrices.MatrixView.apply_delta>`
        uses too — before anything mutates, so a failing delta raises
        with the database untouched.  Returns ``(added, removed,
        new_nodes)`` as :func:`plan_delta` describes them.
        """
        added, removed, new_nodes, types = plan_delta(
            self, edges_added, edges_removed, nodes_added
        )
        for node in new_nodes:
            self.add_node(node)
        for node, node_type in types.items():  # validated: never conflicts
            self.add_node(node, node_type)
        for edge in removed:
            self.remove_edge(*edge)
        for edge in added:
            self.add_edge(*edge)
        return added, removed, new_nodes

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def nodes(self):
        """An iterator over node ids (insertion order)."""
        return iter(self._index)

    def node_type(self, node):
        """The node's type string, or ``None`` if untyped/unknown node."""
        position = self._index.get(node)
        if position is None:
            raise UnknownNodeError(node)
        return self._types[position]

    def nodes_of_type(self, node_type):
        """All node ids whose type equals ``node_type`` (insertion order)."""
        return [n for n, t in zip(self._ids, self._types) if t == node_type]

    def edges(self, label=None):
        """Iterate ``(source, label, target)`` triples, optionally filtered."""
        ids = self._ids
        labels = [label] if label is not None else list(self._out)
        for lab in labels:
            for u, targets in self._out.get(lab, {}).items():
                source = ids[u]
                for v in targets:
                    yield (source, lab, ids[v])

    def adjacency_lists(self, label):
        """Iterate ``(source, set_of_targets)`` for one label.

        The bulk counterpart of :meth:`edges`: one pair per source
        instead of one triple per edge.  Each set is a new set of ids.
        """
        ids = self._ids
        return (
            (ids[u], {ids[v] for v in targets})
            for u, targets in self._position_lists(label).items()
        )

    def _position_lists(self, label):
        """The label's stored ``{source position: set(target positions)}``.

        The read a lazy :class:`~repro.graph.matrices.MatrixView` builds
        a label's CSR from.  The dict and its sets are the live internal
        ones — callers must not mutate them.  An unknown label raises
        :class:`~repro.exceptions.UnknownLabelError`.
        """
        if label not in self._schema:
            raise UnknownLabelError(label, self._schema.labels)
        return self._out.get(label, {})

    def has_node(self, node):
        return node in self._index

    def has_edge(self, source, label, target):
        # An unknown id looks up None, which no position set holds.
        targets = self._out.get(label, {}).get(self._index.get(source), ())
        return self._index.get(target) in targets

    def successors(self, node, label):
        """Nodes ``v`` with an edge ``(node, label, v)``."""
        ids = self._ids
        targets = self._out.get(label, {}).get(self._index.get(node), ())
        return {ids[v] for v in targets}

    def predecessors(self, node, label):
        """Nodes ``u`` with an edge ``(u, label, node)``.

        A scan of the label's sources: no reverse index is stored.
        """
        ids, v = self._ids, self._index.get(node)
        return {
            ids[u]
            for u, targets in self._out.get(label, {}).items()
            if v in targets
        }

    def degree(self, node):
        """Total degree (in + out) across all labels.

        A self-loop counts twice.  A scan of every label's sources, as no
        reverse index is stored; every node's degree at once is a row sum
        of ``MatrixView(database).combined_adjacency(symmetric=True)``.
        """
        position = self._index.get(node)
        if position is None:
            raise UnknownNodeError(node)
        total = 0
        for adjacency in self._out.values():
            total += len(adjacency.get(position, ()))
            total += sum(position in targets for targets in adjacency.values())
        return total

    def num_nodes(self):
        return len(self._ids)

    def num_edges(self):
        return self._edge_count

    def used_labels(self):
        """Labels that occur on at least one edge."""
        return {label for label in self._out if self._out[label]}

    def label_pairs(self, label):
        """The binary relation ``[[label]]_D`` as a set of ``(u, v)`` pairs."""
        ids = self._ids
        return {
            (ids[u], ids[v])
            for u, targets in self._position_lists(label).items()
            for v in targets
        }

    # ------------------------------------------------------------------
    # Copying / comparison
    # ------------------------------------------------------------------
    def copy(self):
        """A deep copy.

        Bulk-copies the position table and the internal indexes instead
        of replaying ``add_edge`` per edge; every node keeps its
        position.
        """
        clone = GraphDatabase(self._schema)
        clone._ids = list(self._ids)
        clone._types = list(self._types)
        clone._index = dict(self._index)
        for label, adjacency in self._out.items():
            if adjacency:
                clone._out[label] = defaultdict(
                    set, {key: set(values) for key, values in adjacency.items()}
                )
        clone._edge_count = self._edge_count
        return clone

    def edge_set(self):
        """All edges as a frozenset of triples (for equality checks)."""
        return frozenset(self.edges())

    def same_content(self, other):
        """True when both databases have identical node and edge sets.

        This is the notion of database identity used for inverse
        transformations: ``Sigma_TS(Sigma_ST(I)) == I`` exactly.
        """
        return (
            self._index.keys() == other._index.keys()
            and self.edge_set() == other.edge_set()
        )

    def __repr__(self):
        return "GraphDatabase(nodes={}, edges={})".format(
            self.num_nodes(), self.num_edges()
        )


def plan_delta(graph, edges_added=(), edges_removed=(), nodes_added=()):
    """Validate one batch delta against ``graph``; returns its effect.

    The one delta validator: :meth:`GraphDatabase.apply_delta` and
    :meth:`MatrixView.apply_delta <repro.graph.matrices.MatrixView.apply_delta>`
    both call it, so they accept, refuse and report a batch alike.
    ``graph`` is either of them (it needs ``schema``, ``has_node``,
    ``node_type`` and ``has_edge``) and is only read.

    ``edges_added`` / ``edges_removed`` are ``(source, label, target)``
    triples and ``nodes_added`` holds node ids or ``(node, type)``
    pairs.  The whole batch is validated here (unknown labels, absent
    or doubly-removed edges, node-type conflicts), so a caller that
    mutates only after this returns stays atomic.  Removals apply
    before additions (re-adding a removed edge in the same batch is
    legal and nets out).

    Returns ``(added, removed, new_nodes, types)``: the edges *actually*
    added (set semantics — re-adding a present edge is a no-op and is
    not reported), the edges removed, the genuinely new node ids
    (explicit or auto-added endpoints, a new self-loop endpoint once)
    in insertion order, and the ``{node: type}`` declarations to
    record.
    """
    edges_added = [tuple(edge) for edge in edges_added]
    edges_removed = [tuple(edge) for edge in edges_removed]
    nodes_added = [
        entry if isinstance(entry, tuple) else (entry, None)
        for entry in nodes_added
    ]
    schema = graph.schema
    for _, label, _ in edges_added:
        if label not in schema:
            raise UnknownLabelError(label, schema.labels)
    removed = set()
    for edge in edges_removed:
        if edge in removed or not graph.has_edge(*edge):
            raise UnknownEdgeError(*edge)
        removed.add(edge)
    types = {}
    for node, node_type in nodes_added:
        if node_type is None:
            continue
        existing = types.get(node)
        if existing is None and graph.has_node(node):
            existing = graph.node_type(node)
        if existing not in (None, node_type):
            raise NodeTypeConflictError(node, existing, node_type)
        types[node] = node_type
    # Dicts as insertion-ordered sets.
    new_nodes = dict.fromkeys(
        node for node, _ in nodes_added if not graph.has_node(node)
    )
    added = {}
    for edge in edges_added:
        if edge in added or (edge not in removed and graph.has_edge(*edge)):
            continue
        for node in (edge[0], edge[2]):  # a new self-loop endpoint once
            if not graph.has_node(node):
                new_nodes[node] = None
        added[edge] = None
    return list(added), edges_removed, list(new_nodes), types
