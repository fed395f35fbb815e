"""Abstract syntax trees for RPQ / NRE / RRE patterns.

The paper's rich-relationship-expression (RRE) grammar (Section 4.2)::

    p := eps | a | p- | p* | p . p | p + p | [p] | <<p>>

where ``a`` is an edge label, ``-`` reverse traversal, ``.`` concatenation
(the paper's middle dot), ``+`` disjunction, ``*`` Kleene star, ``[p]`` the
*nested* operator and ``<<p>>`` the *skip* operator (the paper's double
ceiling/floor brackets, rendered in ASCII).

Plain RPQs are the subset without ``[ ]`` / ``<< >>``; NREs add ``[ ]``.

AST nodes are immutable, hashable and compare structurally, so they can be
used as cache keys by the commuting-matrix engine.  ``str()`` produces the
concrete syntax back (minimal parentheses), and the parser round-trips it.
"""


class Pattern:
    """Base class for all pattern AST nodes."""

    #: Precedence for the pretty printer; higher binds tighter.
    precedence = 0

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        # Nodes are never written after construction, so each one hashes
        # its subtree once; the plan compiler's memo hashes every pattern
        # it is asked for.
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((type(self).__name__, self._key()))
            return self._hash

    def __getstate__(self):
        # String hashes differ between processes: a copy hashes afresh.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def _key(self):
        raise NotImplementedError

    def __str__(self):
        printer = _Printer()
        printer.node(self)
        return "".join(printer.chunks)

    def __repr__(self):
        return "{}({!r})".format(type(self).__name__, str(self))

    def _print(self, printer):
        """Write this node's concrete syntax through ``printer``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Structural queries shared by all nodes
    # ------------------------------------------------------------------
    def labels(self):
        """The set of edge labels mentioned anywhere in the pattern."""
        found = set()
        self._collect_labels(found)
        return found

    def _collect_labels(self, found):
        for child in self.children():
            child._collect_labels(found)

    def children(self):
        """Direct sub-patterns (empty for leaves)."""
        return ()

    def is_simple(self):
        """True for *simple patterns*: concatenations of (reversed) labels.

        Simple patterns are PathSim meta-paths, the only thing the
        usability layer (Section 5) asks of users.
        """
        return False

    def reverse(self):
        """The pattern ``p-`` with double reversals collapsed."""
        return Reverse(self)

    def num_operations(self):
        """Count of operator nodes; used in complexity accounting."""
        return 1 + sum(child.num_operations() for child in self.children())


class Epsilon(Pattern):
    """The empty pattern ``eps``: relates every node to itself."""

    precedence = 100

    def _key(self):
        return ()

    def _print(self, printer):
        printer.write("eps")

    def is_simple(self):
        return True

    def reverse(self):
        return self


class Label(Pattern):
    """A single edge label ``a``."""

    precedence = 100

    def __init__(self, name):
        if not name or not isinstance(name, str):
            raise ValueError("label name must be a non-empty string")
        self.name = name

    def _key(self):
        return (self.name,)

    def _print(self, printer):
        printer.write(self.name)

    def _collect_labels(self, found):
        found.add(self.name)

    def is_simple(self):
        return True


class Reverse(Pattern):
    """Reverse traversal ``p-`` (highest operator priority in the paper)."""

    precedence = 90

    def __init__(self, operand):
        self.operand = operand

    def _key(self):
        return (self.operand,)

    def children(self):
        return (self.operand,)

    def _print(self, printer):
        printer.child(self, self.operand)
        printer.write("-")

    def is_simple(self):
        return isinstance(self.operand, Label)

    def reverse(self):
        return self.operand


class Star(Pattern):
    """Kleene star ``p*``."""

    precedence = 80

    def __init__(self, operand):
        self.operand = operand

    def _key(self):
        return (self.operand,)

    def children(self):
        return (self.operand,)

    def _print(self, printer):
        printer.child(self, self.operand)
        printer.write("*")

    def reverse(self):
        return Star(self.operand.reverse())


class _Variadic(Pattern):
    """An n-ary operator: its operands flattened, printed ``_sep``-joined."""

    _sep = None

    def __init__(self, parts):
        flattened = []
        for part in parts:
            if isinstance(part, type(self)):
                flattened.extend(part.parts)
            else:
                flattened.append(part)
        if len(flattened) < 2:
            name = type(self).__name__
            raise ValueError(
                "{} needs at least two parts; use {}()".format(
                    name, name.lower()
                )
            )
        self.parts = tuple(flattened)

    def _key(self):
        return self.parts

    def children(self):
        return self.parts

    def _print(self, printer):
        for index, part in enumerate(self.parts):
            if index:
                printer.write(self._sep)
            printer.child(self, part)


class Concat(_Variadic):
    """Concatenation ``p1 . p2 . ... . pk`` (flattened, k >= 2)."""

    precedence = 50
    _sep = "."

    def is_simple(self):
        return all(part.is_simple() for part in self.parts)

    def reverse(self):
        return Concat([part.reverse() for part in reversed(self.parts)])


class Union(_Variadic):
    """Disjunction ``p1 + p2 + ... + pk`` (flattened, k >= 2)."""

    precedence = 10
    _sep = "+"

    def reverse(self):
        return Union([part.reverse() for part in self.parts])


class Nested(Pattern):
    """The nested operator ``[p]``.

    ``(u, [p], u)`` holds whenever some ``v`` with ``(u, p, v)`` exists; the
    *count* of instances at ``u`` is the total number of ``p``-instances
    leaving ``u`` (Proposition 3(5)).  Nested patterns record side branches
    of a relationship without moving the traversal position.
    """

    precedence = 100  # self-delimiting brackets

    def __init__(self, operand):
        self.operand = operand

    def _key(self):
        return (self.operand,)

    def children(self):
        return (self.operand,)

    def _print(self, printer):
        printer.write("[")
        printer.node(self.operand)
        printer.write("]")

    def reverse(self):
        # [p] relates u to itself, so its reverse is itself.
        return self


class Skip(Pattern):
    """The skip operator ``<<p>>``.

    Collapses *all* ``p``-paths between two endpoints into a single
    instance: ``|I(<<p>>)(u, v)|`` is 1 if any ``p``-path exists, else 0
    (Proposition 3(1)).  This is what makes patterns transportable across
    variations that change path multiplicities.
    """

    precedence = 100  # self-delimiting brackets

    def __init__(self, operand):
        self.operand = operand

    def _key(self):
        return (self.operand,)

    def children(self):
        return (self.operand,)

    def _print(self, printer):
        printer.write("<<")
        printer.node(self.operand)
        printer.write(">>")

    def reverse(self):
        return Skip(self.operand.reverse())


class Conj(_Variadic):
    """Conjunction ``p1 & p2 & ... & pk`` (flattened, k >= 2).

    The *conjunctive RRE* extension the paper sketches at the end of
    Section 4.2: both relationships must hold between the same pair of
    endpoints.  An instance is a *pair* of sub-instances, so the
    commuting matrix is the elementwise (Hadamard) product — which is
    what lets Theorem 2 extend to constraints with cyclic premises.
    """

    precedence = 5  # binds loosest of all binary operators
    _sep = "&"

    def reverse(self):
        return Conj([part.reverse() for part in self.parts])


# ----------------------------------------------------------------------
# The printer behind str() and render_with_spans
# ----------------------------------------------------------------------
class _Printer:
    """Writes concrete syntax, with minimal parentheses.

    With a ``spans`` dict it also records, for every subterm object, the
    ``(start, end)`` offsets of its text; a child's parentheses belong to
    its parent.
    """

    def __init__(self, spans=None):
        self.chunks = []
        self.spans = spans
        self._pos = 0

    def write(self, text):
        self.chunks.append(text)
        self._pos += len(text)

    def node(self, node):
        start = self._pos
        node._print(self)
        if self.spans is not None:
            self.spans[id(node)] = (start, self._pos)

    def child(self, parent, child):
        """Print ``child``, in parentheses when it binds looser."""
        if child.precedence < parent.precedence:
            self.write("(")
            self.node(child)
            self.write(")")
        else:
            self.node(child)


def render_with_spans(pattern):
    """``(text, spans)``: ``text == str(pattern)`` and
    ``spans[id(subterm)] = (start, end)`` locates every subterm in it.

    The AST keeps no source positions (the parser discards token offsets
    and the canonicalizer rewrites trees anyway), so diagnostics point
    into this canonical rendering, which is also what users see echoed
    back.  When one object occurs twice (a shared subterm), the last
    occurrence wins, which is fine for locating a problem.
    """
    printer = _Printer(spans={})
    printer.node(pattern)
    return "".join(printer.chunks), printer.spans


# ----------------------------------------------------------------------
# Convenience constructors
# ----------------------------------------------------------------------
EPSILON = Epsilon()


def label(name):
    """Shorthand for :class:`Label`."""
    return Label(name)


def concat(*parts):
    """N-ary concatenation that tolerates 0/1 arguments."""
    parts = [p for p in parts if not isinstance(p, Epsilon)]
    if not parts:
        return EPSILON
    if len(parts) == 1:
        return parts[0]
    return Concat(parts)


def conj(*parts):
    """N-ary conjunction that tolerates one argument.

    Unlike :func:`union`, duplicates are KEPT: ``p & p`` counts *pairs*
    of instances (its matrix is ``M_p`` squared entrywise), so collapsing
    it would change scores.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("conj() needs at least one pattern")
    if len(parts) == 1:
        return parts[0]
    return Conj(parts)


def union(*parts):
    """N-ary disjunction that deduplicates and tolerates one argument."""
    unique = []
    for part in parts:
        if part not in unique:
            unique.append(part)
    if not unique:
        raise ValueError("union() needs at least one pattern")
    if len(unique) == 1:
        return unique[0]
    return Union(unique)


def reverse(pattern):
    """``p-`` with double reversal collapsed."""
    return pattern.reverse()


def nested(pattern):
    return Nested(pattern)


def skip(pattern):
    return Skip(pattern)


def star(pattern):
    return Star(pattern)


def simple_pattern(labels_and_directions):
    """Build a simple pattern from ``[("a", False), ("b", True), ...]``.

    The boolean marks reverse traversal.  Plain strings are also accepted
    and mean forward traversal; a trailing ``"-"`` on a string means
    reverse (mirroring concrete syntax).
    """
    steps = []
    for item in labels_and_directions:
        if isinstance(item, str):
            if item.endswith("-"):
                steps.append(Reverse(Label(item[:-1])))
            else:
                steps.append(Label(item))
        else:
            name, reversed_ = item
            step = Label(name)
            steps.append(Reverse(step) if reversed_ else step)
    return concat(*steps)


def simple_steps(pattern):
    """Decompose a simple pattern into ``[(label, reversed), ...]``.

    Raises ``ValueError`` when the pattern is not simple.
    """
    parts = pattern.parts if isinstance(pattern, Concat) else (pattern,)
    steps = []
    for part in parts:
        if isinstance(part, Label):
            steps.append((part.name, False))
        elif isinstance(part, Reverse) and isinstance(part.operand, Label):
            steps.append((part.operand.name, True))
        elif isinstance(part, Epsilon):
            continue
        else:
            raise ValueError(
                "pattern {} is not simple (found {})".format(pattern, part)
            )
    return steps


def strip_skips(pattern):
    """The paper's ``p~``: ``p`` with every skip operator removed.

    Used when recording a skip step inside an instance sequence.
    """
    if isinstance(pattern, Skip):
        return strip_skips(pattern.operand)
    if isinstance(pattern, (Label, Epsilon)):
        return pattern
    if isinstance(pattern, Reverse):
        return Reverse(strip_skips(pattern.operand))
    if isinstance(pattern, Star):
        return Star(strip_skips(pattern.operand))
    if isinstance(pattern, Nested):
        return Nested(strip_skips(pattern.operand))
    if isinstance(pattern, Concat):
        return Concat([strip_skips(part) for part in pattern.parts])
    if isinstance(pattern, Union):
        return Union([strip_skips(part) for part in pattern.parts])
    if isinstance(pattern, Conj):
        return Conj([strip_skips(part) for part in pattern.parts])
    raise TypeError("not a pattern: {!r}".format(pattern))
