"""Schema-aware static type checking for similarity patterns.

The paper's thesis is that similarity semantics should be derived from
the *schema*; this module applies the same standard to the queries.  A
pattern like ``p-in-.r-a`` is only meaningful when the target type of
``p-in-`` matches the source type of ``r-a`` — today a mistyped
composition sails through parse/expand/compile and surfaces as an empty
or nonsensical ranking.  :class:`PatternTypeChecker` infers a
``(source_type, target_type)`` endpoint set for every subterm of a
pattern AST and reports problems as spanned
:class:`~repro.analysis.diagnostics.Diagnostic` objects:

**Errors** (the pattern cannot mean what it says against this schema):

* ``unknown-label`` — an edge label the schema does not define;
* ``endpoint-mismatch`` — a concatenation whose left target types share
  nothing with the right source types;
* ``union-mismatch`` — union branches that share types on one endpoint
  but diverge on the other, so one candidate population would mix
  incomparable nodes (fully type-disjoint branches are *fine* — they
  build a block matrix, an idiom Algorithm-1 expansions rely on);
* ``statically-empty`` — a subterm whose endpoint set is provably empty
  (e.g. a conjunction of type-disjoint relationships).

**Warnings** (well-typed but redundantly spelled):

* ``redundant-reverse`` — a double reverse the canonicalizer collapses;
* ``redundant-union`` — duplicate union branches the canonicalizer
  deduplicates.

The two density warnings, ``star-blowup`` and ``density-budget``, read
graph statistics and a plan, so they are not raised here:
:meth:`CommutingMatrixEngine.check
<repro.lang.matrix_semantics.CommutingMatrixEngine.check>` and
``explain`` add them from the planner's estimate
(:func:`repro.lang.plan.estimate`) over the engine's own view.

The endpoint algebra treats untyped labels (schemas without
``node_types`` — the common case in tests and ad-hoc graphs) as the
wildcard :data:`ANY`, which absorbs every operation, so an untyped
schema only ever produces ``unknown-label`` errors: the checker never
invents a type constraint the schema did not state.

Spans index into the pattern's canonical rendering (``str(pattern)``),
as computed by :func:`repro.lang.ast.render_with_spans`, the printer
behind ``str()``.

This module imports only the AST, the diagnostics value objects, and
the exception hierarchy — never the plan compiler or the engine — so
both of those can depend on it without cycles.
"""

from repro.analysis.diagnostics import (
    ERROR,
    WARNING,
    Diagnostic,
    has_errors,
    sort_diagnostics,
)
from repro.exceptions import PatternTypeError
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
    render_with_spans,
)


class _Any:
    """The wildcard endpoint set: no static constraint known."""

    def __repr__(self):
        return "ANY"


#: Endpoint set of an untyped label (and of anything composed with one).
ANY = _Any()


class Endpoints:
    """The inferred endpoint-type set of one subterm.

    ``pairs`` is either :data:`ANY` or a frozenset of
    ``(source_type, target_type)`` pairs; ``diag`` additionally admits
    ``(T, T)`` for *every* node type ``T`` — the identity component
    contributed by ``eps`` and by Kleene stars, which relate any node
    to itself regardless of type.
    """

    __slots__ = ("pairs", "diag")

    def __init__(self, pairs, diag=False):
        self.pairs = pairs if pairs is ANY else frozenset(pairs)
        self.diag = diag

    @property
    def is_any(self):
        return self.pairs is ANY

    @property
    def is_empty(self):
        """Provably empty: no pairs, no identity component, not ANY."""
        return not self.is_any and not self.diag and not self.pairs

    def source_types(self):
        """Possible source types, or :data:`ANY` when unconstrained."""
        if self.is_any or self.diag:
            return ANY
        return frozenset(s for s, _ in self.pairs)

    def target_types(self):
        if self.is_any or self.diag:
            return ANY
        return frozenset(t for _, t in self.pairs)

    def describe(self):
        if self.is_any:
            return "any"
        parts = sorted(
            "{}->{}".format(s, t) for s, t in self.pairs
        )
        if self.diag:
            parts.append("T->T")
        return "{" + ", ".join(parts) + "}" if parts else "{}"

    def __repr__(self):
        return "Endpoints({})".format(self.describe())


_ANY_ENDPOINTS = Endpoints(ANY)
_DIAG_ENDPOINTS = Endpoints((), diag=True)


def _swap(endpoints):
    if endpoints.is_any:
        return endpoints
    return Endpoints(
        ((t, s) for s, t in endpoints.pairs), diag=endpoints.diag
    )


def _compose(left, right):
    """Endpoints of ``left . right``; ``None`` pairs-set means mismatch.

    Returns ``(endpoints, ok)`` — ``ok`` is False when the composition
    is provably empty (the caller reports ``endpoint-mismatch`` and
    recovers with :data:`ANY` to suppress cascading errors).
    """
    if left.is_any or right.is_any:
        return _ANY_ENDPOINTS, True
    pairs = set()
    for s1, t1 in left.pairs:
        for s2, t2 in right.pairs:
            if t1 == s2:
                pairs.add((s1, t2))
    if left.diag:
        pairs.update(right.pairs)
    if right.diag:
        pairs.update(left.pairs)
    diag = left.diag and right.diag
    if not pairs and not diag:
        return Endpoints(()), False
    return Endpoints(pairs, diag=diag), True


def _intersect(left, right):
    """Endpoints of ``left & right`` (both must hold between u, v)."""
    if left.is_any:
        return right
    if right.is_any:
        return left
    pairs = set(left.pairs & right.pairs)
    if left.diag:
        pairs.update((s, t) for s, t in right.pairs if s == t)
    if right.diag:
        pairs.update((s, t) for s, t in left.pairs if s == t)
    return Endpoints(pairs, diag=left.diag and right.diag)


def _closure(endpoints):
    """Endpoints of ``p*``: transitive closure of ``p`` plus identity."""
    if endpoints.is_any:
        return _ANY_ENDPOINTS
    pairs = set(endpoints.pairs)
    changed = True
    while changed:
        changed = False
        for s1, t1 in list(pairs):
            for s2, t2 in list(pairs):
                if t1 == s2 and (s1, t2) not in pairs:
                    pairs.add((s1, t2))
                    changed = True
    return Endpoints(pairs, diag=True)


class PatternTypeChecker:
    """Static analysis of pattern ASTs against one schema.

    Parameters
    ----------
    schema:
        The :class:`repro.graph.schema.Schema` to check against.  Its
        ``node_types`` drive endpoint inference; labels without types
        are treated as unconstrained (:data:`ANY`).
    """

    def __init__(self, schema):
        self.schema = schema

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def check(self, pattern):
        """All diagnostics for ``pattern``, most severe first."""
        if not isinstance(pattern, Pattern):
            raise TypeError("expected a Pattern, got {!r}".format(pattern))
        text, spans = render_with_spans(pattern)
        sink = []
        endpoints = self._infer(pattern, text, spans, sink)
        if endpoints.is_empty and not has_errors(sink):
            sink.append(
                self._diag(
                    ERROR,
                    "statically-empty",
                    "pattern matches no node pair under this schema",
                    pattern,
                    text,
                    spans,
                )
            )
        self._check_redundancy(pattern, text, spans, sink)
        return sort_diagnostics(sink)

    def check_many(self, patterns):
        """``[(pattern, diagnostics), ...]`` for a pattern set."""
        return [(pattern, self.check(pattern)) for pattern in patterns]

    def assert_well_typed(self, pattern):
        """Raise :class:`PatternTypeError` when ``pattern`` has errors.

        Warnings never raise — they are surfaced by ``repro check`` and
        ``explain()``, not by the compile path.
        """
        diagnostics = self.check(pattern)
        if has_errors(diagnostics):
            raise PatternTypeError(diagnostics, pattern=pattern)
        return diagnostics

    def endpoints(self, pattern):
        """The inferred :class:`Endpoints` of ``pattern`` (no reporting)."""
        text, spans = render_with_spans(pattern)
        return self._infer(pattern, text, spans, [])

    # ------------------------------------------------------------------
    # Endpoint inference
    # ------------------------------------------------------------------
    def _diag(self, severity, code, message, node, text, spans):
        return Diagnostic(
            severity,
            code,
            message,
            span=spans.get(id(node)),
            pattern_text=text,
        )

    def _infer(self, node, text, spans, sink):
        if isinstance(node, Epsilon):
            return _DIAG_ENDPOINTS
        if isinstance(node, Label):
            if node.name not in self.schema.labels:
                sink.append(
                    self._diag(
                        ERROR,
                        "unknown-label",
                        "unknown edge label {!r} (schema labels: {})".format(
                            node.name, sorted(self.schema.labels)
                        ),
                        node,
                        text,
                        spans,
                    )
                )
                return _ANY_ENDPOINTS
            types = self.schema.node_types.get(node.name)
            if types is None:
                return _ANY_ENDPOINTS
            source, target = types
            return Endpoints([(source, target)])
        if isinstance(node, Reverse):
            return _swap(self._infer(node.operand, text, spans, sink))
        if isinstance(node, Star):
            return _closure(self._infer(node.operand, text, spans, sink))
        if isinstance(node, Skip):
            return self._infer(node.operand, text, spans, sink)
        if isinstance(node, Nested):
            inner = self._infer(node.operand, text, spans, sink)
            if inner.is_any or inner.diag:
                # Sources unconstrained -> the diagonal restriction is
                # unconstrained too; ANY keeps the algebra honest.
                return _ANY_ENDPOINTS
            if inner.is_empty:
                return inner
            return Endpoints((s, s) for s in inner.source_types())
        if isinstance(node, Concat):
            return self._infer_concat(node, text, spans, sink)
        if isinstance(node, Union):
            return self._infer_union(node, text, spans, sink)
        if isinstance(node, Conj):
            return self._infer_conj(node, text, spans, sink)
        raise TypeError("not a pattern: {!r}".format(node))

    def _infer_concat(self, node, text, spans, sink):
        acc = None
        for part in node.parts:
            part_endpoints = self._infer(part, text, spans, sink)
            if acc is None:
                acc = part_endpoints
                continue
            composed, ok = _compose(acc, part_endpoints)
            if not ok:
                sink.append(
                    self._diag(
                        ERROR,
                        "endpoint-mismatch",
                        "cannot compose: left side ends in type(s) "
                        "{} but {!r} starts from type(s) {}".format(
                            _describe_types(acc.target_types()),
                            str(part),
                            _describe_types(part_endpoints.source_types()),
                        ),
                        part,
                        text,
                        spans,
                    )
                )
                # Recover with ANY so one bad junction doesn't cascade
                # into a mismatch report at every later junction.
                acc = _ANY_ENDPOINTS
            else:
                acc = composed
        return acc

    def _infer_union(self, node, text, spans, sink):
        branch_endpoints = [
            self._infer(part, text, spans, sink) for part in node.parts
        ]
        # Two branches mismatch when they are *half-aligned*: they can
        # start from a common source type but necessarily end at
        # disjoint target types (one candidate row would then mix
        # incomparable node populations), or symmetrically share target
        # types while starting from disjoint sources.  Fully disjoint
        # branches are fine — they build a block matrix ("similar among
        # areas OR similar among papers"), an idiom the Algorithm-1
        # expansions rely on.
        for i in range(len(branch_endpoints)):
            for j in range(i + 1, len(branch_endpoints)):
                left, right = branch_endpoints[i], branch_endpoints[j]
                if left.is_empty or right.is_empty:
                    continue
                sources_overlap = _sets_overlap(
                    left.source_types(), right.source_types()
                )
                targets_overlap = _sets_overlap(
                    left.target_types(), right.target_types()
                )
                if sources_overlap != targets_overlap:
                    side = "source" if sources_overlap else "target"
                    other = "target" if sources_overlap else "source"
                    sink.append(
                        self._diag(
                            ERROR,
                            "union-mismatch",
                            "union branches {!r} ({}) and {!r} ({}) "
                            "share {} types but have disjoint {} "
                            "types; one candidate population would "
                            "mix incomparable nodes".format(
                                str(node.parts[i]),
                                left.describe(),
                                str(node.parts[j]),
                                right.describe(),
                                side,
                                other,
                            ),
                            node,
                            text,
                            spans,
                        )
                    )
                    return _ANY_ENDPOINTS
        pairs = set()
        diag = False
        for endpoints in branch_endpoints:
            if endpoints.is_any:
                return _ANY_ENDPOINTS
            pairs.update(endpoints.pairs)
            diag = diag or endpoints.diag
        return Endpoints(pairs, diag=diag)

    def _infer_conj(self, node, text, spans, sink):
        acc = _ANY_ENDPOINTS
        for part in node.parts:
            acc = _intersect(acc, self._infer(part, text, spans, sink))
        if acc.is_empty:
            sink.append(
                self._diag(
                    ERROR,
                    "statically-empty",
                    "conjunction branches have type-disjoint endpoint "
                    "sets; '&' requires both relationships between the "
                    "same node pair, so this pattern matches nothing",
                    node,
                    text,
                    spans,
                )
            )
            return _ANY_ENDPOINTS
        return acc

    # ------------------------------------------------------------------
    # Redundant spellings the canonicalizer collapses
    # ------------------------------------------------------------------
    def _check_redundancy(self, pattern, text, spans, sink):
        for node in _walk(pattern):
            if isinstance(node, Reverse) and isinstance(
                node.operand, Reverse
            ):
                sink.append(
                    self._diag(
                        WARNING,
                        "redundant-reverse",
                        "double reverse collapses to {!r}; drop both "
                        "'-' operators".format(str(node.operand.operand)),
                        node,
                        text,
                        spans,
                    )
                )
            elif isinstance(node, Union):
                seen = []
                for part in node.parts:
                    if part in seen:
                        sink.append(
                            self._diag(
                                WARNING,
                                "redundant-union",
                                "duplicate union branch {!r}; '+' is "
                                "set union, so the canonicalizer "
                                "drops the repeat".format(str(part)),
                                node,
                                text,
                                spans,
                            )
                        )
                        break
                    seen.append(part)


def _walk(pattern):
    yield pattern
    for child in pattern.children():
        yield from _walk(child)


def _sets_overlap(left, right):
    """Whether two source/target type sets intersect; ANY is universal."""
    if left is ANY:
        return right is ANY or bool(right)
    if right is ANY:
        return bool(left)
    return bool(left & right)


def _describe_types(types):
    if types is ANY:
        return "any"
    return "{" + ", ".join(sorted(types)) + "}" if types else "{}"
