"""HTTP-level tests for the serving front-end (ReproServer).

Every test boots a real :class:`~repro.server.app.BackgroundServer` on
a free port and talks actual HTTP/1.1 to it with ``http.client`` —
the same wire path operators use — then asserts response parity
against direct :class:`PreparedQuery` calls, backpressure behavior,
apply safety, and health reporting.
"""

import json
import socket
import threading
import time
import http.client

import pytest

from repro.api import SimilarityService
from repro.exceptions import ConfigurationError
from repro.server import BackgroundServer, load_service
from repro.server.app import MAX_BODY_BYTES, ReproServer

PATTERN = "r-a-.p-in.p-in-.r-a"
QUERIES = ("DataMining", "Databases", "SoftwareEngineering")
DELTA_EDGE = ["CodeMining", "p-in", "VLDB"]


def _call(address, method, path, payload=None, timeout=30):
    connection = http.client.HTTPConnection(*address, timeout=timeout)
    try:
        body = json.dumps(payload) if payload is not None else None
        connection.request(method, path, body=body)
        response = connection.getresponse()
        headers = dict(response.getheaders())
        return response.status, json.loads(response.read()), headers
    finally:
        connection.close()


@pytest.fixture
def serving(fig1):
    service = SimilarityService(fig1)
    prepared = service.prepare(algorithm="relsim", pattern=PATTERN, top_k=2)
    with BackgroundServer(service, prepared, port=0) as background:
        yield service, prepared, background.address


def test_query_matches_direct_run(serving):
    service, prepared, address = serving
    for query in QUERIES:
        status, payload, _ = _call(
            address, "POST", "/query", {"node": query}
        )
        assert status == 200
        assert payload["node"] == query
        assert payload["version"] == service.version
        assert payload["ranking"] == [
            [node, score] for node, score in prepared.run(query).items()
        ]


def test_query_top_k_is_three_valued(serving):
    _, prepared, address = serving
    query = "Databases"
    _, absent, _ = _call(address, "POST", "/query", {"node": query})
    _, null, _ = _call(
        address, "POST", "/query", {"node": query, "top_k": None}
    )
    _, one, _ = _call(
        address, "POST", "/query", {"node": query, "top_k": 1}
    )
    assert len(absent["ranking"]) == len(prepared.run(query).items())
    assert len(null["ranking"]) == len(
        prepared.run(query, top_k=None).items()
    )
    assert len(one["ranking"]) == 1
    assert absent["ranking"][0] == one["ranking"][0]


def test_rank_many_matches_run_many(serving):
    _, prepared, address = serving
    status, payload, _ = _call(
        address, "POST", "/rank_many", {"nodes": list(QUERIES), "top_k": 3}
    )
    assert status == 200
    expected = prepared.run_many(list(QUERIES), top_k=3)
    assert payload["rankings"] == {
        query: [[n, s] for n, s in expected[query].items()]
        for query in QUERIES
    }


def test_apply_failure_leaves_snapshot_untouched(serving):
    service, _, address = serving
    probe = QUERIES[0]
    _, before, _ = _call(address, "POST", "/query", {"node": probe})
    version = service.version

    status, rejected, _ = _call(
        address,
        "POST",
        "/apply",
        {"edges_removed": [["ghost", "r-a", "nowhere"]]},
    )
    assert status == 409
    assert "ghost" in rejected["error"]
    assert service.version == version
    _, after, _ = _call(address, "POST", "/query", {"node": probe})
    assert after["ranking"] == before["ranking"]
    assert after["version"] == version

    # A good delta still lands, rebinding the served prepared query.
    status, applied, _ = _call(
        address, "POST", "/apply", {"edges_added": [DELTA_EDGE]}
    )
    assert status == 200
    assert applied == {"version": version + 1}
    _, updated, _ = _call(address, "POST", "/query", {"node": probe})
    assert updated["version"] == version + 1
    assert updated["ranking"] != before["ranking"]


def test_apply_validation(serving):
    _, _, address = serving
    status, payload, _ = _call(address, "POST", "/apply", {})
    assert status == 400 and "empty delta" in payload["error"]
    status, payload, _ = _call(
        address, "POST", "/apply", {"edges_added": [["only-two", "p-in"]]}
    )
    assert status == 400
    status, payload, _ = _call(
        address, "POST", "/apply", {"edges_removed": "a,p-in,b"}
    )
    assert status == 400 and "edges_removed" in payload["error"]
    status, payload, _ = _call(
        address, "POST", "/apply", {"nodes_added": [["fresh", 3]]}
    )
    assert status == 400 and "nodes_added" in payload["error"]


def test_unknown_node_maps_to_404(serving):
    _, _, address = serving
    status, payload, _ = _call(
        address, "POST", "/query", {"node": "NoSuchNode"}
    )
    assert status == 404
    assert "NoSuchNode" in payload["error"]


def test_unknown_endpoint_and_method_not_allowed(serving):
    _, _, address = serving
    status, payload, _ = _call(address, "POST", "/nope", {"node": "x"})
    assert status == 404 and "/nope" in payload["error"]
    status, payload, headers = _call(address, "GET", "/query")
    assert status == 405
    assert headers["Allow"] == "POST"


def test_malformed_json_and_missing_fields(serving):
    _, _, address = serving
    connection = http.client.HTTPConnection(*address, timeout=30)
    try:
        connection.request("POST", "/query", body=b"{not json")
        response = connection.getresponse()
        assert response.status == 400
        response.read()
    finally:
        connection.close()
    status, payload, _ = _call(address, "POST", "/query", {})
    assert status == 400 and "node" in payload["error"]


def test_oversized_body_refused_up_front(serving):
    _, _, address = serving
    connection = http.client.HTTPConnection(*address, timeout=30)
    try:
        # Announce an oversized body without sending it: the server
        # must refuse from the header alone.
        connection.putrequest("POST", "/query")
        connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
        connection.endheaders()
        response = connection.getresponse()
        assert response.status == 413
        response.read()
    finally:
        connection.close()


def test_non_http_bytes_get_a_400_not_a_hang(serving):
    _, _, address = serving
    with socket.create_connection(address, timeout=30) as raw:
        raw.sendall(b"NOT-HTTP\r\n\r\n")
        assert raw.recv(64).startswith(b"HTTP/1.1 400")


def test_keep_alive_connection_serves_many_requests(serving):
    _, prepared, address = serving
    connection = http.client.HTTPConnection(*address, timeout=30)
    try:
        for query in QUERIES * 2:
            connection.request(
                "POST", "/query", body=json.dumps({"node": query})
            )
            response = connection.getresponse()
            assert response.status == 200
            payload = json.loads(response.read())
            assert payload["ranking"] == [
                [n, s] for n, s in prepared.run(query).items()
            ]
    finally:
        connection.close()


def test_explain_prepared_and_ad_hoc(serving):
    service, prepared, address = serving
    status, payload, _ = _call(address, "GET", "/explain")
    assert status == 200
    assert payload["explain"] == prepared.explain()
    status, payload, _ = _call(
        address, "POST", "/explain", {"patterns": [PATTERN, "r-a-.r-a"]}
    )
    assert status == 200
    assert payload["explain"] == service.session.explain(
        [PATTERN, "r-a-.r-a"]
    )


def test_ill_typed_pattern_maps_to_400_with_diagnostics(serving):
    # The compile-time type checker fires behind the HTTP surface; the
    # client gets a structured 400, not an empty ranking or a 500.
    _, _, address = serving
    status, payload, _ = _call(
        address, "POST", "/explain", {"patterns": ["r-a.r-a"]}
    )
    assert status == 400
    assert payload["kind"] == "PatternTypeError"
    diagnostic = payload["diagnostics"][0]
    assert diagnostic["severity"] == "error"
    assert diagnostic["code"] == "endpoint-mismatch"
    assert diagnostic["span"] == [4, 7]
    assert diagnostic["pattern"] == "r-a.r-a"
    assert "r-a.r-a" in payload["error"]


def test_healthz_ok_then_degraded_then_cleared(serving):
    service, _, address = serving
    status, health, _ = _call(address, "GET", "/healthz")
    assert status == 200
    assert health["status"] == "ok"
    assert health["version"] == service.version
    assert health["uptime"] >= 0

    def checkpoint(service_, version):
        raise OSError("disk full")

    service.checkpoint = checkpoint
    status, _, _ = _call(
        address, "POST", "/apply", {"edges_added": [DELTA_EDGE]}
    )
    assert status == 200  # the write published; only durability failed
    status, health, _ = _call(address, "GET", "/healthz")
    assert status == 200  # degraded is a report, not an HTTP failure
    assert health["status"] == "degraded"
    assert health["last_error"]["operation"] == "checkpoint"
    assert health["last_error"]["version"] == service.version
    assert "disk full" in health["last_error"]["message"]

    service.clear_last_error()
    _, health, _ = _call(address, "GET", "/healthz")
    assert health["status"] == "ok"


def test_statz_reports_serving_counters(serving):
    service, _, address = serving
    _call(address, "POST", "/query", {"node": QUERIES[0]})
    status, stats, _ = _call(address, "GET", "/statz")
    assert status == 200
    assert stats["version"] == service.version
    assert stats["requests"] >= 2
    assert stats["rejected"] == 0
    assert stats["coalesce"] is True
    assert stats["batcher"]["requests"] >= 1
    assert stats["cache_info"]["matrices"] == service.session.cache_info()[
        "matrices"
    ]
    assert stats["delta_stats"] == service.delta_stats


class _SlowPrepared:
    """Wraps a prepared query, pinning each run inside a hold gate."""

    def __init__(self, inner, hold):
        self._inner = inner
        self._hold = hold

    def run(self, node, **kwargs):
        self._hold.wait(timeout=30)
        return self._inner.run(node, **kwargs)

    def run_many(self, nodes, **kwargs):
        self._hold.wait(timeout=30)
        return self._inner.run_many(nodes, **kwargs)

    def explain(self):
        return self._inner.explain()


def test_saturated_server_sheds_load_but_stays_inspectable(fig1):
    service = SimilarityService(fig1)
    prepared = service.prepare(algorithm="relsim", pattern=PATTERN, top_k=2)
    hold = threading.Event()
    slow = _SlowPrepared(prepared, hold)
    with BackgroundServer(
        service, slow, port=0, coalesce=False, max_inflight=1, threads=2
    ) as background:
        address = background.address
        results = []

        def client():
            results.append(
                _call(address, "POST", "/query", {"node": QUERIES[0]})
            )

        threads = [threading.Thread(target=client) for _ in range(4)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 30
        # Wait until the one admitted request occupies the slot and at
        # least one other has been shed.
        while time.monotonic() < deadline:
            if any(status == 503 for status, _, _ in results):
                break
            time.sleep(0.01)

        # Introspection stays available while the server is saturated.
        status, health, _ = _call(address, "GET", "/healthz")
        assert status == 200 and health["status"] == "ok"
        status, stats, _ = _call(address, "GET", "/statz")
        assert status == 200 and stats["inflight"] >= 1

        hold.set()  # release the admitted request
        for thread in threads:
            thread.join(timeout=30)

    assert len(results) == 4
    statuses = sorted(status for status, _, _ in results)
    assert statuses[0] == 200 and statuses[-1] == 503
    for status, payload, headers in results:
        if status == 503:
            assert headers["Retry-After"] == "1"
            assert "saturated" in payload["error"]
        else:
            assert payload["ranking"]


def test_snapshot_checkpoint_after_apply(fig1, tmp_path):
    snapshot_path = str(tmp_path / "live.npz")
    service = SimilarityService(fig1)
    prepared = service.prepare(algorithm="relsim", pattern=PATTERN, top_k=2)
    with BackgroundServer(
        service, prepared, port=0, snapshot_path=snapshot_path
    ) as background:
        status, applied, _ = _call(
            background.address,
            "POST",
            "/apply",
            {"edges_added": [DELTA_EDGE]},
        )
        assert status == 200 and applied["version"] == 2
        expected = {
            q: prepared.run(q).items() for q in QUERIES
        }

    # The checkpoint wrote the *post-apply* state: a warm restart
    # serves the delta without replaying it.
    warm, info = load_service(snapshot_path)
    assert info["service_version"] == 2
    assert warm.database.has_edge(*DELTA_EDGE)
    warm_prepared = warm.prepare(
        algorithm="relsim", pattern=PATTERN, top_k=2
    )
    assert {q: warm_prepared.run(q).items() for q in QUERIES} == expected
    assert warm.session.cache_info()["misses"] == 0


def _read_sse_event(response):
    """Parse one ``event:``/``data:`` frame off an open SSE response."""
    name, data = None, None
    while True:
        line = response.readline()
        if not line:
            return None
        line = line.decode("utf-8").rstrip("\r\n")
        if line.startswith("event:"):
            name = line.split(":", 1)[1].strip()
        elif line.startswith("data:"):
            data = json.loads(line.split(":", 1)[1].strip())
        elif line == "" and name is not None:
            return name, data


def test_subscribe_streams_snapshot_then_updates(serving):
    service, prepared, address = serving
    node = QUERIES[0]
    connection = http.client.HTTPConnection(*address, timeout=30)
    try:
        connection.request(
            "POST", "/subscribe", body=json.dumps({"node": node})
        )
        response = connection.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "text/event-stream"

        name, snapshot = _read_sse_event(response)
        assert name == "snapshot"
        assert snapshot["version"] == service.version
        assert snapshot["ranking"] == [
            [n, s] for n, s in prepared.run(node).items()
        ]

        status, stats, _ = _call(address, "GET", "/statz")
        assert status == 200
        assert stats["subscriptions"]["active"] == 1
        assert stats["subscriptions"]["sse_streams"] == 1

        # A ranking-moving delta applied over a second connection is
        # pushed to the already-open stream.
        status, applied, _ = _call(
            address, "POST", "/apply", {"edges_added": [DELTA_EDGE]}
        )
        assert status == 200
        name, update = _read_sse_event(response)
        assert name == "update"
        assert update["version"] == applied["version"]
        assert update["ranking"] == [
            [n, s] for n, s in prepared.run(node).items()
        ]
        # The delta only moved scores here, so the membership diff is
        # empty — but the pushed ranking itself must have changed.
        assert update["ranking"] != snapshot["ranking"]
        for key in ("entered", "left", "reordered"):
            assert isinstance(update[key], list)
    finally:
        connection.close()


def test_subscribe_unknown_node_is_404_not_a_stream(serving):
    _, _, address = serving
    status, payload, headers = _call(
        address, "POST", "/subscribe", {"node": "NoSuchNode"}
    )
    assert status == 404
    assert "NoSuchNode" in payload["error"]
    assert headers["Content-Type"] == "application/json"
    _, stats, _ = _call(address, "GET", "/statz")
    assert stats["subscriptions"]["sse_streams"] == 0


def _open_subscribe(address, node):
    connection = http.client.HTTPConnection(*address, timeout=30)
    connection.request("POST", "/subscribe", body=json.dumps({"node": node}))
    return connection


def test_concurrent_subscribes_cannot_exceed_the_limit(fig1, monkeypatch):
    # The first /subscribe is held inside service.subscribe while a
    # second one arrives: the held request must already count against
    # max_subscribers, so the second is shed.
    service = SimilarityService(fig1)
    prepared = service.prepare(algorithm="relsim", pattern=PATTERN, top_k=2)
    subscribe = service.subscribe
    entered = threading.Event()
    release = threading.Event()
    calls = []

    def gated(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            entered.set()
            release.wait(timeout=10)
        return subscribe(*args, **kwargs)

    monkeypatch.setattr(service, "subscribe", gated)
    with BackgroundServer(
        service, prepared, port=0, max_subscribers=1
    ) as background:
        address = background.address
        first = _open_subscribe(address, QUERIES[0])
        second = None
        try:
            assert entered.wait(timeout=10)
            second = _open_subscribe(address, QUERIES[1])
            second_status = second.getresponse().status
            release.set()
            first_status = first.getresponse().status
            _, stats, _ = _call(address, "GET", "/statz")
        finally:
            release.set()
            first.close()
            if second is not None:
                second.close()
    assert [first_status, second_status] == [200, 503]
    assert stats["subscriptions"]["sse_streams"] == 1


def test_subscriber_limit_sheds_with_retry_after(fig1):
    service = SimilarityService(fig1)
    prepared = service.prepare(algorithm="relsim", pattern=PATTERN, top_k=2)
    with BackgroundServer(
        service, prepared, port=0, max_subscribers=0
    ) as background:
        status, payload, headers = _call(
            background.address, "POST", "/subscribe", {"node": QUERIES[0]}
        )
    assert status == 503
    assert "subscriber limit" in payload["error"]
    assert int(headers["Retry-After"]) >= 1


@pytest.mark.parametrize(
    "option, value",
    [
        ("threads", 0),
        ("threads", -1),
        ("max_inflight", 0),
        ("max_subscribers", -1),
        ("max_batch", 0),
        ("coalesce_window", -0.005),
    ],
)
def test_constructor_refuses_out_of_range_limits(fig1, option, value):
    service = SimilarityService(fig1)
    prepared = service.prepare(algorithm="relsim", pattern=PATTERN, top_k=2)
    with pytest.raises(ConfigurationError, match=option):
        ReproServer(service, prepared, **{option: value})


def test_retry_after_scales_with_congestion(fig1):
    service = SimilarityService(fig1)
    prepared = service.prepare(algorithm="relsim", pattern=PATTERN, top_k=2)
    server = ReproServer(service, prepared, max_inflight=4, coalesce=False)
    assert server._retry_after() == "1"  # idle: invite a quick retry
    server._inflight = 4
    assert server._retry_after() == "1"
    server._inflight = 12
    assert server._retry_after() == "3"
    server._inflight = 10_000
    assert server._retry_after() == "8"  # clamped: don't strand clients


def test_background_server_shuts_down_cleanly(fig1):
    service = SimilarityService(fig1)
    prepared = service.prepare(algorithm="relsim", pattern=PATTERN, top_k=2)
    background = BackgroundServer(service, prepared, port=0)
    with background:
        address = background.address
        # An idle keep-alive connection must not wedge shutdown.
        idle = http.client.HTTPConnection(*address, timeout=30)
        idle.request("POST", "/query", body=json.dumps({"node": "Databases"}))
        idle.getresponse().read()
    assert not background._thread.is_alive()
    idle.close()
    with pytest.raises(OSError):
        _call(address, "GET", "/healthz", timeout=2)
