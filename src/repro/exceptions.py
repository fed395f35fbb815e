"""Exception hierarchy for the repro library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch any library failure with a single ``except`` clause while still
being able to discriminate the precise failure mode.
"""


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class SchemaError(ReproError):
    """A label or constraint refers to something outside the schema."""


class UnknownLabelError(SchemaError):
    """A pattern or edge uses an edge label that the schema does not define."""

    def __init__(self, label, schema_labels=None):
        self.label = label
        self.schema_labels = set(schema_labels or ())
        message = "unknown edge label {!r}".format(label)
        if self.schema_labels:
            message += " (schema labels: {})".format(sorted(self.schema_labels))
        super().__init__(message)


class UnknownNodeError(ReproError):
    """An operation referenced a node id that is not in the database."""

    def __init__(self, node):
        self.node = node
        super().__init__("unknown node id {!r}".format(node))


class UnknownEdgeError(ReproError, KeyError):
    """``remove_edge`` targeted an edge the database does not contain.

    Subclasses :class:`KeyError` for compatibility with callers that
    guarded the old bare ``KeyError``, while joining the library
    hierarchy so programmatic mutation (``SimilarityService.apply``)
    can report it like every other library failure.
    """

    def __init__(self, source, label, target):
        self.edge = (source, label, target)
        ReproError.__init__(
            self,
            "unknown edge ({!r}, {!r}, {!r})".format(source, label, target),
        )

    # KeyError.__str__ repr-quotes the message; use the plain one.
    __str__ = ReproError.__str__


class NodeTypeConflictError(ReproError):
    """``add_node`` tried to re-type an already-typed node.

    A node's type may be set once (``None`` -> type is fine, and
    re-adding with the same type is idempotent); silently keeping the
    old type under a *different* requested one would corrupt typed
    candidate sets when graphs are mutated programmatically.
    """

    def __init__(self, node, existing_type, requested_type):
        self.node = node
        self.existing_type = existing_type
        self.requested_type = requested_type
        super().__init__(
            "node {!r} already has type {!r}; refusing to re-type it as "
            "{!r}".format(node, existing_type, requested_type)
        )


class PatternSyntaxError(ReproError):
    """The RRE/RPQ parser rejected the input string."""

    def __init__(self, message, position=None, text=None):
        self.position = position
        self.text = text
        if position is not None:
            message = "{} (at position {})".format(message, position)
        super().__init__(message)


class StarDivergenceError(ReproError):
    """Counting a Kleene star did not converge within the expansion bound.

    Under the paper's counting semantics ``|I(p*)|`` is infinite whenever the
    graph contains a cycle matched by ``p``.  We bound the expansion and
    raise this error rather than silently truncating the count.
    """

    def __init__(self, pattern, depth):
        self.pattern = pattern
        self.depth = depth
        super().__init__(
            "Kleene star counting for {!r} did not converge after depth "
            "{}; the graph likely contains a matching cycle".format(
                str(pattern), depth
            )
        )


class ConstraintError(ReproError):
    """A tgd/egd is malformed or used in an unsupported way."""


class CyclicPremiseError(ConstraintError):
    """Algorithm 2 requires acyclic constraint premises (Section 4.2)."""

    def __init__(self, constraint):
        self.constraint = constraint
        super().__init__(
            "constraint premise is cyclic; RelSim pattern generation "
            "supports acyclic premises only: {}".format(constraint)
        )


class TransformationError(ReproError):
    """A schema mapping could not be applied or analyzed."""


class NotInvertibleError(TransformationError):
    """A transformation failed an invertibility check."""


class EvaluationError(ReproError):
    """A similarity query could not be evaluated."""


class PatternTypeError(EvaluationError):
    """The static pattern type checker rejected a pattern.

    Raised before any matrix work happens — at ``PlanCompiler.compile``,
    ``session.prepare()``, and therefore before a request reaches the
    engine — so an ill-typed pattern fails loudly instead of producing
    an empty or nonsensical ranking.

    ``diagnostics`` holds the full severity-ranked list of
    :class:`repro.analysis.diagnostics.Diagnostic` objects (errors and
    warnings); the message summarizes the first error.  The attribute is
    duck-typed so this module stays import-free.
    """

    def __init__(self, diagnostics, pattern=None):
        self.diagnostics = list(diagnostics)
        self.pattern = pattern
        errors = [d for d in self.diagnostics if d.severity == "error"]
        first = errors[0] if errors else self.diagnostics[0]
        message = first.message
        if pattern is not None:
            message = "pattern {!r}: {}".format(str(pattern), message)
        if len(errors) > 1:
            message += " (+{} more error{})".format(
                len(errors) - 1, "s" if len(errors) > 2 else ""
            )
        super().__init__(message)


class ConfigurationError(ReproError, ValueError):
    """A serving/engine knob was configured with an unusable value.

    Subclasses :class:`ValueError` so callers (and tests) that guarded
    the old bare ``ValueError`` keep working, while joining the library
    hierarchy so the server layer can report misconfiguration like every
    other library failure.
    """


class SnapshotError(ReproError):
    """A serving snapshot file could not be read, parsed, or verified.

    Raised by :mod:`repro.server.snapshot` for missing files, foreign or
    corrupt payloads, and unsupported format versions.  Warm starts fail
    loudly rather than silently serving from a half-loaded cache.
    """


class RegistryError(ReproError):
    """The algorithm registry rejected a lookup or registration.

    Raised for unknown algorithm names and for duplicate registrations
    (pass ``replace=True`` to overwrite deliberately).
    """


class AsymmetricPatternError(EvaluationError):
    """PathSim's formula needs patterns whose endpoints have the same type.

    The paper evaluates asymmetric (e.g. disease-to-drug) relationships with
    HeteSim instead; this error tells the caller to do the same.
    """
