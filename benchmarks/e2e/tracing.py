"""Spans around the program's public functions, installed from outside.

The benchmark does not change the program to trace it.  Instead,
:func:`install` replaces public functions and methods with wrappers
that record a :class:`Span` per call — name, start, end, parent (via
``contextvars``, so concurrent asyncio tasks keep separate stacks) and
request id — and :meth:`Patches.restore` puts every original back.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`); summing self time
by span name over the spans under a set of root spans gives the
per-layer breakdown (:func:`breakdown`).

All times come from ``time.monotonic`` (``CLOCK_MONOTONIC``), which is
one clock for every process on the host, so spans dumped by a traced
server line up with the load generator's own timestamps.
"""

import contextvars
import functools
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict

_current_span = contextvars.ContextVar("e2e_current_span", default=None)
_current_request = contextvars.ContextVar("e2e_current_request", default=None)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "request", "attrs")

    def __init__(self, id, parent, name, start, end=None, request=None,
                 attrs=None):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.request = request
        self.attrs = attrs or {}

    @property
    def duration(self):
        return self.end - self.start

    def to_list(self):
        return [self.id, self.parent, self.name, self.start, self.end,
                self.request, self.attrs]

    @classmethod
    def from_list(cls, row):
        return cls(*row)


class Tracer:
    """Records spans in memory; written out once, when the run ends."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)

    def _open(self, name, attrs):
        span = Span(next(self._ids), _current_span.get(), name, 0.0,
                    request=_current_request.get(), attrs=attrs)
        token = _current_span.set(span.id)
        span.start = time.monotonic()
        return span, token

    def _close(self, span, token):
        span.end = time.monotonic()
        _current_span.reset(token)
        # list.append is atomic under the GIL: executor threads and the
        # event loop may record concurrently.
        self.spans.append(span)

    def span(self, name, request=None, **attrs):
        """Context manager for a span the benchmark itself opens."""
        return _SpanContext(self, name, request, attrs)

    def new_request(self):
        """Start a fresh request id in the current context."""
        request = next(self._requests)
        _current_request.set(request)
        return request

    def wrap(self, func, name, call_attrs=None, result_attrs=None,
             starts_request=False):
        """``func`` recording a span named ``name`` around every call.

        ``call_attrs(args, kwargs)`` and ``result_attrs(result)`` return
        dicts merged into the span's attributes.  ``starts_request``
        assigns a new request id first (the server's first call per
        request), which later spans in the same context inherit.
        """
        tracer = self

        def before(args, kwargs):
            if starts_request:
                tracer.new_request()
            attrs = call_attrs(args, kwargs) if call_attrs else {}
            return tracer._open(name, attrs)

        def after(span, token, result):
            if result_attrs is not None:
                span.attrs.update(result_attrs(result))
            tracer._close(span, token)

        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def async_wrapper(*args, **kwargs):
                span, token = before(args, kwargs)
                result = None
                try:
                    result = await func(*args, **kwargs)
                    return result
                finally:
                    after(span, token, result)

            return async_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span, token = before(args, kwargs)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                after(span, token, result)

        return wrapper

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump([span.to_list() for span in self.spans], handle)


class _SpanContext:
    def __init__(self, tracer, name, request, attrs):
        self._tracer = tracer
        self._name = name
        self._request = request
        self._attrs = attrs

    def __enter__(self):
        self._request_token = (
            _current_request.set(self._request)
            if self._request is not None else None
        )
        self.span, self._token = self._tracer._open(self._name, self._attrs)
        return self.span

    def __exit__(self, *exc):
        self._tracer._close(self.span, self._token)
        if self._request_token is not None:
            _current_request.reset(self._request_token)
        return False


def load_spans(path):
    with open(path) as handle:
        return [Span.from_list(row) for row in json.load(handle)]


# ----------------------------------------------------------------------
# Where the spans go
# ----------------------------------------------------------------------
def _first_node(args, kwargs):
    return {"nodes": [args[1] if len(args) > 1 else kwargs["node"]]}


def _node_list(args, kwargs):
    return {"nodes": list(args[1] if len(args) > 1 else kwargs["nodes"])}


def _row_bytes(result):
    return {"bytes": int(result[1].nbytes)} if result is not None else {}


_ENGINE = "repro.lang.matrix_semantics"

#: ``(module, attribute, span name, hooks)`` — every public function the
#: benchmark times.  Several functions may share one span name: the
#: name is the layer.
TARGETS = [
    ("repro.server.protocol", "parse_body", "server.protocol",
     {"starts_request": True}),
    ("repro.server.protocol", "ranking_payload", "server.protocol", {}),
    ("repro.server.protocol", "encode_json", "server.protocol", {}),
    ("repro.server.batching", "CoalescingBatcher.submit", "batching.submit",
     {"call_attrs": _first_node}),
    ("repro.server.snapshot", "load_session", "snapshot.load", {}),
    ("repro.server.snapshot", "load_service", "snapshot.load", {}),
    ("repro.api.service", "SimilarityService.apply", "service.apply", {}),
    ("repro.api.session", "SimilaritySession.__init__", "service.session", {}),
    ("repro.api.prepared", "PreparedQuery.run", "prepared.run",
     {"call_attrs": _first_node}),
    ("repro.api.prepared", "PreparedQuery.run_many", "prepared.run",
     {"call_attrs": _node_list}),
    ("repro.api.prepared", "bind", "prepared.bind", {}),
    ("repro.similarity.base", "SimilarityAlgorithm.rank_many",
     "similarity.topk", {}),
    ("repro.core.relsim", "RelSim.score_rows", "similarity.score_rows",
     {"result_attrs": _row_bytes}),
    ("repro.similarity.pathsim", "PathSim.score_rows",
     "similarity.score_rows", {"result_attrs": _row_bytes}),
    ("repro.lang.parser", "parse_pattern", "parser.parse", {}),
    ("repro.patterns.generator", "generate_patterns", "patterns.expand", {}),
    ("repro.analysis.typecheck", "PatternTypeChecker.check",
     "typecheck.check", {}),
    ("repro.analysis.typecheck", "PatternTypeChecker.assert_well_typed",
     "typecheck.check", {}),
    ("repro.lang.plan", "PlanCompiler.compile", "plan.compile", {}),
    ("repro.lang.plan", "PlanCompiler.compile_many", "plan.compile", {}),
    (_ENGINE, "CommutingMatrixEngine.matrices_many", "engine.matrices", {}),
    (_ENGINE, "CommutingMatrixEngine.matrix", "engine.matrices", {}),
    (_ENGINE, "CommutingMatrixEngine.warm", "engine.matrices", {}),
    (_ENGINE, "CommutingMatrixEngine.diagonal", "engine.vectors", {}),
    (_ENGINE, "CommutingMatrixEngine.column_norms", "engine.vectors", {}),
    (_ENGINE, "CommutingMatrixEngine.fork", "engine.fork", {}),
    (_ENGINE, "CommutingMatrixEngine.apply_delta", "engine.apply_delta", {}),
    ("repro.graph.matrices", "MatrixView.adjacency", "view.adjacency", {}),
    ("repro.graph.matrices", "MatrixView.apply_delta", "view.apply_delta",
     {}),
    ("repro.graph.database", "GraphDatabase.copy", "database.copy", {}),
    ("repro.streaming.subscription", "SubscriptionManager.on_publish",
     "streaming.on_publish", {}),
]


class Patches:
    """Attribute replacements that :meth:`restore` undoes exactly.

    An attribute a class only inherited is deleted again on restore
    rather than set back, so the class's own ``__dict__`` ends as it
    began.
    """

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        namespace = vars(owner)
        had = name in namespace
        self._undo.append((owner, name, had, namespace.get(name)))
        setattr(owner, name, value)

    def restore(self):
        while self._undo:
            owner, name, had, original = self._undo.pop()
            if had:
                setattr(owner, name, original)
            else:
                delattr(owner, name)


def install(tracer):
    """Wrap every :data:`TARGETS` entry; returns the undoing :class:`Patches`.

    A module-level function is replaced in its own module *and* in every
    loaded module that imported it by name (``from m import f`` binds a
    second reference that patching ``m`` alone would miss).  Methods are
    replaced on their class.
    """
    import importlib

    patches = Patches()
    for module_name, attribute, name, hooks in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, member = attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = getattr(owner, member)
            patches.set(owner, member, tracer.wrap(original, name, **hooks))
            continue
        original = getattr(module, member)
        wrapper = tracer.wrap(original, name, **hooks)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if namespace is not None and namespace.get(member) is original:
                patches.set(loaded, member, wrapper)
    return patches


# ----------------------------------------------------------------------
# Self time and per-layer sums
# ----------------------------------------------------------------------
def covered_length(intervals, start, end):
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end))
        for a, b in intervals if b > start and a < end
    )
    total = 0.0
    current_start = current_end = None
    for a, b in clipped:
        if current_end is None or a > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = a, b
        else:
            current_end = max(current_end, b)
    if current_end is not None:
        total += current_end - current_start
    return total


def children_of(spans):
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return children


def self_times(spans, children=None):
    """``{span id: self seconds}`` — duration minus covered children."""
    children = children_of(spans) if children is None else children
    return {
        span.id: span.duration - covered_length(
            [(child.start, child.end) for child in children.get(span.id, ())],
            span.start,
            span.end,
        )
        for span in spans
    }


class Breakdown:
    """Per-layer sums over the span trees under some root spans.

    ``self_s[name]`` is total self time, ``inclusive_s[name]`` total
    duration of the outermost spans of that name, ``calls[name]`` the
    span count and ``attrs[name][key]`` summed numeric attributes.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.attrs = defaultdict(lambda: defaultdict(float))
        self.roots = 0
        self.root_s = 0.0

    def add_tree(self, root, children, selfs):
        self.roots += 1
        self.root_s += root.duration
        stack = [(root, frozenset())]
        while stack:
            span, outer = stack.pop()
            self.self_s[span.name] += selfs[span.id]
            self.calls[span.name] += 1
            if span.name not in outer:
                self.inclusive_s[span.name] += span.duration
            for key, value in span.attrs.items():
                if isinstance(value, (int, float)):
                    self.attrs[span.name][key] += value
            inner = outer | {span.name}
            stack.extend((child, inner) for child in children.get(span.id, ()))

    def per_root_ms(self, name, inclusive=False):
        if not self.roots:
            return 0.0
        table = self.inclusive_s if inclusive else self.self_s
        return 1000.0 * table.get(name, 0.0) / self.roots

    def coverage(self, names):
        """Share of root time that the named layers' self time explains."""
        if not self.root_s:
            return 0.0
        return sum(self.self_s.get(name, 0.0) for name in names) / self.root_s


def breakdown(spans, roots):
    """A :class:`Breakdown` of the trees under ``roots`` within ``spans``."""
    children = children_of(spans)
    selfs = self_times(spans, children)
    result = Breakdown()
    for root in roots:
        result.add_tree(root, children, selfs)
    return result


def format_breakdown(title, result, skip=()):
    """Human-readable table: layer, ms per root (self), calls per root."""
    lines = ["{} ({} roots, {:.3f} ms mean)".format(
        title, result.roots,
        1000.0 * result.root_s / result.roots if result.roots else 0.0,
    )]
    for name in sorted(result.self_s, key=result.self_s.get, reverse=True):
        if name in skip:
            continue
        lines.append("  {:<26s} {:10.4f} ms  {:8.2f} calls".format(
            name, result.per_root_ms(name),
            result.calls[name] / max(result.roots, 1),
        ))
    return "\n".join(lines)
