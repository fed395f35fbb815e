"""Enumeration semantics for RREs: the paper's instance sets ``I_D(p)``.

An *instance* of an RRE ``p`` in database ``D`` is a triple ``(u, v, s)``
where ``s`` records the actual traversal (Section 4.2).  We represent the
recorded sequence as a tuple of entries:

* ``("n", node_id)`` — a visited node;
* ``("s", text)`` — a traversal step: an edge label, a reversed edge label
  (``text`` ends with ``-``), or the flattened string of a skip pattern.

Reversal of a step toggles a trailing ``-`` (an involution, as the paper's
abstract ``s-`` requires).  Equality of instances is entry-wise equality.

This module is the *reference* implementation: it is exponential in path
multiplicity and only suitable for small graphs.  The commuting-matrix
engine (:mod:`repro.lang.matrix_semantics`) computes the same **counts**
in polynomial time; the test suite cross-checks the two (Proposition 3).
:func:`naive_matrix` is the second oracle: the paper's matrix rules
applied literally to the AST, which the plan compiler and engine are
tested and benchmarked against.
"""

from repro.exceptions import StarDivergenceError
from repro.graph.matrices import boolean, diagonal_of
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
    strip_skips,
)
from repro.lang.matrix_semantics import star_sum


def _node(node_id):
    return ("n", node_id)


def _step(text):
    return ("s", text)


def reverse_step(text):
    """The involutive step reversal: toggle a trailing ``-``."""
    if text.endswith("-"):
        return text[:-1]
    return text + "-"


def reverse_sequence(sequence):
    """The paper's ``s-bar``: reversed order, steps individually reversed.

    Conjunction entries ``("and", s1, s2, ...)`` reverse component-wise.
    """
    reversed_entries = []
    for entry in reversed(sequence):
        kind = entry[0]
        if kind == "n":
            reversed_entries.append(entry)
        elif kind == "and":
            reversed_entries.append(
                ("and",) + tuple(reverse_sequence(s) for s in entry[1:])
            )
        else:
            reversed_entries.append((kind, reverse_step(entry[1])))
    return tuple(reversed_entries)


def join_sequences(first, second):
    """The paper's ``s • t``: defined only when first ends where second starts."""
    if first[-1] != second[0]:
        raise ValueError("sequences do not share an endpoint")
    return first + second[1:]


class InstanceSet:
    """The set ``I_D(p)`` with convenience accessors.

    Internally a dict ``(u, v) -> set of sequences`` so that per-pair
    counts — the quantity every theorem in the paper is about — are O(1).
    """

    def __init__(self):
        self._by_pair = {}

    @classmethod
    def from_triples(cls, triples):
        result = cls()
        for u, v, sequence in triples:
            result.add(u, v, sequence)
        return result

    def add(self, u, v, sequence):
        self._by_pair.setdefault((u, v), set()).add(sequence)

    def pairs(self):
        """All ``(u, v)`` with at least one instance."""
        return set(self._by_pair)

    def sequences(self, u, v):
        """The recorded sequences between ``u`` and ``v`` (maybe empty)."""
        return set(self._by_pair.get((u, v), ()))

    def count(self, u, v):
        """``|I^{u,v}_D(p)|``."""
        return len(self._by_pair.get((u, v), ()))

    def total(self):
        return sum(len(s) for s in self._by_pair.values())

    def triples(self):
        for (u, v), sequences in self._by_pair.items():
            for sequence in sequences:
                yield (u, v, sequence)

    def __eq__(self, other):
        if not isinstance(other, InstanceSet):
            return NotImplemented
        return self._by_pair == other._by_pair

    def __len__(self):
        return self.total()

    def __repr__(self):
        return "InstanceSet(pairs={}, total={})".format(
            len(self._by_pair), self.total()
        )


def enumerate_instances(database, pattern, max_star_depth=None):
    """Compute ``I_D(pattern)`` by direct structural recursion.

    Parameters
    ----------
    database:
        A :class:`repro.graph.database.GraphDatabase`.
    pattern:
        A :class:`repro.lang.ast.Pattern`.
    max_star_depth:
        Bound on Kleene-star expansion; defaults to the node count (walks
        in an acyclic graph cannot be longer).  If the expansion is still
        producing new instances at the bound, :class:`StarDivergenceError`
        is raised — under counting semantics a matching cycle makes the
        count infinite.
    """
    if not isinstance(pattern, Pattern):
        raise TypeError("pattern must be a Pattern AST, got {!r}".format(pattern))
    if max_star_depth is None:
        max_star_depth = max(database.num_nodes(), 1)
    return _enumerate(database, pattern, max_star_depth)


def _enumerate(database, pattern, max_star_depth):
    if isinstance(pattern, Epsilon):
        result = InstanceSet()
        for node in database.nodes():
            result.add(node, node, (_node(node),))
        return result

    if isinstance(pattern, Label):
        database.schema.require_label(pattern.name)
        result = InstanceSet()
        for source, _, target in database.edges(pattern.name):
            result.add(
                source,
                target,
                (_node(source), _step(pattern.name), _node(target)),
            )
        return result

    if isinstance(pattern, Reverse):
        inner = _enumerate(database, pattern.operand, max_star_depth)
        result = InstanceSet()
        for u, v, sequence in inner.triples():
            result.add(v, u, reverse_sequence(sequence))
        return result

    if isinstance(pattern, Concat):
        current = _enumerate(database, pattern.parts[0], max_star_depth)
        for part in pattern.parts[1:]:
            nxt = _enumerate(database, part, max_star_depth)
            current = _join(current, nxt)
        return current

    if isinstance(pattern, Union):
        result = InstanceSet()
        for part in pattern.parts:
            for u, v, sequence in _enumerate(
                database, part, max_star_depth
            ).triples():
                result.add(u, v, sequence)
        return result

    if isinstance(pattern, Star):
        return _star(database, pattern, max_star_depth)

    if isinstance(pattern, Skip):
        inner = _enumerate(database, pattern.operand, max_star_depth)
        text = str(strip_skips(pattern.operand))
        result = InstanceSet()
        for u, v in inner.pairs():
            result.add(u, v, (_node(u), _step(text), _node(v)))
        return result

    if isinstance(pattern, Nested):
        inner = _enumerate(database, pattern.operand, max_star_depth)
        result = InstanceSet()
        for u, v, sequence in inner.triples():
            result.add(u, u, sequence + (_node(u),))
        return result

    if isinstance(pattern, Conj):
        # Conjunctive RRE extension: an instance between (u, v) is one
        # sub-instance per conjunct; the recorded sequence nests them so
        # distinct combinations stay distinct (counts multiply, matching
        # the Hadamard-product commuting matrix).
        inner_sets = [
            _enumerate(database, part, max_star_depth)
            for part in pattern.parts
        ]
        result = InstanceSet()
        shared = inner_sets[0].pairs()
        for inner in inner_sets[1:]:
            shared &= inner.pairs()
        for u, v in shared:
            combos = [()]
            for inner in inner_sets:
                combos = [
                    existing + (sequence,)
                    for existing in combos
                    for sequence in inner.sequences(u, v)
                ]
            for combo in combos:
                result.add(
                    u, v, (_node(u), ("and",) + combo, _node(v))
                )
        return result

    raise TypeError("unhandled pattern node {!r}".format(pattern))


def _join(left, right):
    """All ``s1 • s2`` joins between two instance sets."""
    result = InstanceSet()
    by_start = {}
    for u, v, sequence in right.triples():
        by_start.setdefault(u, []).append((v, sequence))
    for u, w, first in left.triples():
        for v, second in by_start.get(w, ()):
            result.add(u, v, join_sequences(first, second))
    return result


def _star(database, pattern, max_star_depth):
    base = _enumerate(database, pattern.operand, max_star_depth)
    result = _enumerate(database, Epsilon(), max_star_depth)
    level = base
    depth = 1
    while level.total() > 0:
        if depth > max_star_depth:
            raise StarDivergenceError(pattern, max_star_depth)
        for u, v, sequence in level.triples():
            result.add(u, v, sequence)
        level = _join(level, base)
        depth += 1
    return result


def count_matrix_dict(database, pattern, max_star_depth=None):
    """Per-pair counts as a dict ``(u, v) -> count`` (for test cross-checks)."""
    instances = enumerate_instances(database, pattern, max_star_depth)
    return {pair: instances.count(*pair) for pair in instances.pairs()}


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
            result = star_sum(
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
