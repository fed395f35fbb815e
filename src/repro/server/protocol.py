"""The HTTP/JSON wire format and error mapping of ``repro serve``.

One place owns what goes over the wire: request-body validation
helpers, the ranking payload shape, and the mapping from library
exceptions to HTTP statuses.  Handlers in :mod:`repro.server.app` raise
:class:`HttpError` (or any :class:`~repro.exceptions.ReproError`, which
:func:`error_response` translates) and the server turns it into a JSON
error body — a client never sees a bare traceback.

Payload shapes::

    POST /query      {"node": "proc:0", "top_k": 10}
    POST /rank_many  {"nodes": ["proc:0", ...], "top_k": 10}
    POST /apply      {"edges_added":   [["src", "label", "tgt"], ...],
                      "edges_removed": [...],
                      "nodes_added":   ["node" | ["node", "type"], ...]}
    POST /explain    {"patterns": ["r-a-.r-a", ...]}   (optional body)
    POST /subscribe  {"node": "proc:0", "top_k": 10}   (SSE stream out)

Rankings serialize as ``[[node, score], ...]`` in rank order — the
paper's deterministic tie-broken order survives the wire.  ``/apply``
answers ``{"version": N}``, the snapshot version it published.
"""

import json

from repro.exceptions import (
    EvaluationError,
    PatternSyntaxError,
    PatternTypeError,
    RegistryError,
    ReproError,
    UnknownEdgeError,
    UnknownLabelError,
    UnknownNodeError,
)

#: Library failure -> HTTP status.  Checked in order, most specific
#: first; anything else from the library hierarchy is a 400 (the
#: request named something the data model rejects), never a 500.
_ERROR_STATUS = (
    (UnknownNodeError, 404),
    (UnknownEdgeError, 409),
    (UnknownLabelError, 400),
    (PatternSyntaxError, 400),
    (RegistryError, 400),
    (EvaluationError, 400),
    (ReproError, 400),
)


class HttpError(Exception):
    """An error with a definite HTTP status and JSON-able message."""

    def __init__(self, status, message, headers=None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = dict(headers or {})


def error_response(error):
    """``(status, payload, headers)`` for any handler exception."""
    if isinstance(error, HttpError):
        return error.status, {"error": error.message}, error.headers
    if isinstance(error, PatternTypeError):
        # Static type-check rejections carry the full diagnostic list;
        # put it in the body so clients can render spans and severities
        # instead of re-parsing the message string.
        return (
            400,
            {
                "error": str(error),
                "kind": "PatternTypeError",
                "diagnostics": [d.to_dict() for d in error.diagnostics],
            },
            {},
        )
    for exc_type, status in _ERROR_STATUS:
        if isinstance(error, exc_type):
            return (
                status,
                {"error": str(error), "kind": type(error).__name__},
                {},
            )
    # Anything non-library is a genuine server bug: report the type so
    # the operator can find it in the logs, but keep the body terse.
    return 500, {"error": "internal error: {}".format(type(error).__name__)}, {}


def parse_body(body):
    """The request body as a dict (empty body -> empty dict)."""
    if not body:
        return {}
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise HttpError(400, "request body is not valid JSON: {}".format(error))
    if not isinstance(payload, dict):
        raise HttpError(400, "request body must be a JSON object")
    return payload


def require_str(payload, key):
    value = payload.get(key)
    if not isinstance(value, str) or not value:
        raise HttpError(
            400, "field {!r} must be a non-empty string".format(key)
        )
    return value


def optional_int(payload, key, minimum=1):
    value = payload.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise HttpError(400, "field {!r} must be an integer".format(key))
    if value < minimum:
        raise HttpError(
            400, "field {!r} must be >= {}".format(key, minimum)
        )
    return value


def string_list(payload, key, required=False):
    value = payload.get(key)
    if value is None:
        if required:
            raise HttpError(400, "field {!r} is required".format(key))
        return []
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise HttpError(
            400, "field {!r} must be a list of strings".format(key)
        )
    return value


def edge_list(payload, key):
    """``[(source, label, target), ...]`` from a JSON edge array."""
    value = payload.get(key)
    if value is None:
        return []
    if not isinstance(value, list):
        raise HttpError(400, "field {!r} must be a list".format(key))
    edges = []
    for item in value:
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 3
            or not all(isinstance(part, str) and part for part in item)
        ):
            raise HttpError(
                400,
                "field {!r} entries must be [source, label, target] "
                "string triples".format(key),
            )
        edges.append(tuple(item))
    return edges


def node_list(payload, key):
    """Node additions: ``"id"`` or ``["id", "type"]`` entries."""
    value = payload.get(key)
    if value is None:
        return []
    if not isinstance(value, list):
        raise HttpError(400, "field {!r} must be a list".format(key))
    nodes = []
    for item in value:
        if isinstance(item, str) and item:
            nodes.append(item)
        elif (
            isinstance(item, (list, tuple))
            and len(item) == 2
            and isinstance(item[0], str)
            and item[0]
            and (item[1] is None or isinstance(item[1], str))
        ):
            nodes.append((item[0], item[1]))
        else:
            raise HttpError(
                400,
                "field {!r} entries must be node ids or "
                "[id, type] pairs".format(key),
            )
    return nodes


def ranking_payload(ranking):
    """A :class:`~repro.similarity.base.Ranking` as JSON-able pairs."""
    return [[node, score] for node, score in ranking.items()]


def encode_json(payload):
    """Compact UTF-8 JSON bytes for a response body."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def encode_sse_event(name, payload):
    """One Server-Sent-Events frame: ``event:`` line + JSON ``data:``.

    The payload is compact JSON (no newlines), so a single ``data:``
    line suffices and the frame ends with the standard blank line.
    """
    return (
        b"event: "
        + name.encode("utf-8")
        + b"\ndata: "
        + encode_json(payload)
        + b"\n\n"
    )
