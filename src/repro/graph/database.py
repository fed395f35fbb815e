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
* Edges form a *set*: adding the same ``(u, a, v)`` twice is a no-op, which
  matches the paper's set-of-edges definition.  Parallel edges with
  different labels are of course allowed.
* Both directions are indexed so reverse traversal (``a-``) is O(1) per
  neighbor.
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
        self._nodes = {}
        # label -> {u -> set(v)} and the reverse orientation.
        self._out = defaultdict(lambda: defaultdict(set))
        self._in = defaultdict(lambda: defaultdict(set))
        self._edge_count = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @property
    def schema(self):
        return self._schema

    def add_node(self, node, node_type=None):
        """Add ``node`` (idempotent).  Returns the node id for chaining.

        A node's type may be set once: re-adding with ``None`` or with
        the same type is a no-op, upgrading an untyped node to a type is
        allowed, but a *conflicting* non-None type raises
        :class:`~repro.exceptions.NodeTypeConflictError` instead of
        silently keeping the old type.
        """
        if node not in self._nodes:
            self._nodes[node] = node_type
        elif node_type is not None:
            existing = self._nodes[node]
            if existing is None:
                self._nodes[node] = node_type
            elif existing != node_type:
                raise NodeTypeConflictError(node, existing, node_type)
        return node

    def add_edge(self, source, label, target):
        """Add edge ``(source, label, target)``; endpoints are auto-added."""
        if label not in self._schema:
            raise UnknownLabelError(label, self._schema.labels)
        self.add_node(source)
        self.add_node(target)
        targets = self._out[label][source]
        if target not in targets:
            targets.add(target)
            self._in[label][target].add(source)
            self._edge_count += 1

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
        nodes = self._nodes
        out = self._out[label]
        backward = self._in[label]
        added = 0
        for source, target in pairs:
            if source not in nodes:
                nodes[source] = None
            if target not in nodes:
                nodes[target] = None
            targets = out[source]
            if target not in targets:
                targets.add(target)
                backward[target].add(source)
                added += 1
        self._edge_count += added
        return added

    def remove_edge(self, source, label, target):
        """Remove an edge.

        Raises :class:`~repro.exceptions.UnknownEdgeError` (a
        ``KeyError`` subclass, so existing guards keep working) when the
        edge is absent.
        """
        targets = self._out.get(label, {}).get(source)
        if not targets or target not in targets:
            raise UnknownEdgeError(source, label, target)
        targets.discard(target)
        if not targets:
            del self._out[label][source]
        sources = self._in[label][target]
        sources.discard(source)
        if not sources:
            del self._in[label][target]
        self._edge_count -= 1

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
        self._nodes.update(types)
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
        return iter(self._nodes)

    def node_type(self, node):
        """The node's type string, or ``None`` if untyped/unknown node."""
        if node not in self._nodes:
            raise UnknownNodeError(node)
        return self._nodes[node]

    def nodes_of_type(self, node_type):
        """All node ids whose type equals ``node_type`` (insertion order)."""
        return [n for n, t in self._nodes.items() if t == node_type]

    def edges(self, label=None):
        """Iterate ``(source, label, target)`` triples, optionally filtered."""
        labels = [label] if label is not None else list(self._out)
        for lab in labels:
            for source, targets in self._out.get(lab, {}).items():
                for target in targets:
                    yield (source, lab, target)

    def adjacency_lists(self, label):
        """Iterate ``(source, set_of_targets)`` for one label.

        The bulk counterpart of :meth:`edges`: one pair per source
        instead of one triple per edge.  The result is a ``dict_items``
        view whose ``.mapping`` is a read-only proxy of the label's
        ``{source: set_of_targets}`` dict, so matrix construction can
        map all sources, degrees and targets through the node indexer
        in bulk.  The sets are the live internal ones — callers must not
        mutate them.
        """
        if label not in self._schema:
            raise UnknownLabelError(label, self._schema.labels)
        return self._out.get(label, {}).items()

    def has_node(self, node):
        return node in self._nodes

    def has_edge(self, source, label, target):
        return target in self._out.get(label, {}).get(source, ())

    def successors(self, node, label):
        """Nodes ``v`` with an edge ``(node, label, v)``."""
        return set(self._out.get(label, {}).get(node, ()))

    def predecessors(self, node, label):
        """Nodes ``u`` with an edge ``(u, label, node)``."""
        return set(self._in.get(label, {}).get(node, ()))

    def degree(self, node):
        """Total degree (in + out) across all labels."""
        if node not in self._nodes:
            raise UnknownNodeError(node)
        total = 0
        for label in self._out:
            total += len(self._out[label].get(node, ()))
            total += len(self._in.get(label, {}).get(node, ()))
        return total

    def num_nodes(self):
        return len(self._nodes)

    def num_edges(self):
        return self._edge_count

    def used_labels(self):
        """Labels that occur on at least one edge."""
        return {label for label in self._out if self._out[label]}

    def label_pairs(self, label):
        """The binary relation ``[[label]]_D`` as a set of ``(u, v)`` pairs."""
        if label not in self._schema:
            raise UnknownLabelError(label, self._schema.labels)
        return {
            (source, target)
            for source, targets in self._out.get(label, {}).items()
            for target in targets
        }

    # ------------------------------------------------------------------
    # Copying / comparison
    # ------------------------------------------------------------------
    def copy(self):
        """A deep copy.

        Bulk-copies the internal indexes instead of replaying
        ``add_edge`` per edge.
        """
        clone = GraphDatabase(self._schema)
        clone._nodes = dict(self._nodes)
        for index, copied in ((self._out, clone._out), (self._in, clone._in)):
            for label, adjacency in index.items():
                if adjacency:
                    copied[label] = defaultdict(
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
            set(self._nodes) == set(other._nodes)
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
