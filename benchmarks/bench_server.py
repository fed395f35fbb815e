"""Network-serving gates: warm starts, coalescing, backpressure, apply.

Four gates behind ``repro serve`` (the HTTP front-end over
:class:`SimilarityService`):

1. **Warm start**: booting from a serving snapshot
   (:func:`~repro.server.snapshot.load_session`) to the first rankings
   must be **at least 3x faster** than the cold build (database JSON
   from disk, session, prepares, matrix materialization), and the warm
   rankings must be bitwise identical with **zero** engine cache
   misses — the snapshot replaces computation, it never re-does or
   alters it.

2. **Request coalescing**: 16 concurrent HTTP clients against a
   coalescing server (micro-batching window folding concurrent
   ``/query`` requests into single ``run_many`` calls) must achieve
   **at least 2x** the queries/s of serial per-request handling on the
   same single worker thread, with identical responses.

3. **Backpressure**: a saturated server (``max_inflight=1`` under 16
   concurrent clients) must answer every request — 200 or 503 with
   ``Retry-After``, never a hang or a dropped connection — and
   ``/healthz`` must keep answering throughout.

4. **Apply safety**: a failed ``/apply`` (e.g. removing an absent
   edge) must leave the served snapshot and version untouched,
   bit-for-bit; a subsequent good delta must land normally.

The dataset here is deliberately **not** shrunk by
``REPRO_BENCH_SCALE=smoke``: gates 1-2 compare fixed per-boot overhead
(file reads, JSON parses, plan compilation) against matrix
computation, a ratio a toy dataset distorts, and the full-scale run
costs only a few seconds end to end.
"""

import json
import threading
import time
import http.client

import pytest

from repro.api import SimilarityService, SimilaritySession
from repro.datasets import generate_dblp, sample_queries_by_degree
from repro.graph.io import load_json, save_json
from repro.server import BackgroundServer, load_session, save_snapshot

WARM_START_GATE = 3.0
COALESCE_GATE = 2.0
CLIENTS = 16
REQUESTS_PER_CLIENT = 12
PATTERN = "r-a-.p-in.p-in-.r-a"
MAX_EXPAND = 16
TOP_K = 10
NUM_PROBES = 10


@pytest.fixture(scope="module")
def server_bundle():
    return generate_dblp(
        num_areas=15, num_procs=120, num_papers=2000, num_authors=900, seed=0
    )


#: The node type each ``_prepare_all`` handle is probed with: PATTERN
#: relates areas to areas, ``p-in.p-in-`` papers to papers.
PROBE_TYPES = ("area", "paper", "area")


def _prepare_all(target):
    """The serving workload: three algorithms sharing one engine."""
    return [
        target.prepare(
            algorithm="relsim",
            pattern=PATTERN,
            expand={"max_patterns": MAX_EXPAND},
            top_k=TOP_K,
        ),
        target.prepare(algorithm="pathsim", pattern="p-in.p-in-", top_k=TOP_K),
        target.prepare(algorithm="pattern-rwr", pattern=PATTERN, top_k=TOP_K),
    ]


def _call(address, method, path, payload=None, timeout=60):
    connection = http.client.HTTPConnection(*address, timeout=timeout)
    try:
        body = json.dumps(payload) if payload is not None else None
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


def test_warm_start_speedup(emit, tmp_path, server_bundle):
    database_path = str(tmp_path / "serving_db.json")
    snapshot_path = str(tmp_path / "serving.npz")
    save_json(server_bundle.database, database_path)
    probes = [
        sample_queries_by_degree(
            server_bundle.database, node_type, NUM_PROBES, seed=0
        )
        for node_type in PROBE_TYPES
    ]

    def first_rankings(session):
        return [
            list(handle.run(node).items())
            for handle, nodes in zip(_prepare_all(session), probes)
            for node in nodes
        ]

    def cold_boot():
        start = time.perf_counter()
        session = SimilaritySession(load_json(database_path))
        rankings = first_rankings(session)
        return time.perf_counter() - start, session, rankings

    def warm_boot():
        start = time.perf_counter()
        session, info = load_session(snapshot_path)
        rankings = first_rankings(session)
        return time.perf_counter() - start, session, rankings

    cold_seconds, session, reference = cold_boot()
    assert all(reference), "empty reference ranking"
    stats = save_snapshot(snapshot_path, session)
    for _ in range(2):
        cold_seconds = min(cold_seconds, cold_boot()[0])
    warm_seconds, warm_session, warm_rankings = warm_boot()
    for _ in range(2):
        warm_seconds = min(warm_seconds, warm_boot()[0])

    assert warm_rankings == reference, "warm rankings differ from cold"
    misses = warm_session.cache_info()["misses"]
    speedup = cold_seconds / max(warm_seconds, 1e-9)
    emit(
        "server_warm_start",
        "\n".join(
            [
                "Warm start from serving snapshot vs cold build "
                "({} matrices, {:.1f} MB snapshot)".format(
                    stats["matrices"], stats["bytes"] / 1e6
                ),
                "  cold: disk JSON -> session -> 3 prepares -> "
                "first rankings: {:.1f} ms".format(1000.0 * cold_seconds),
                "  warm: snapshot -> preloaded session -> same: "
                "{:.1f} ms".format(1000.0 * warm_seconds),
                "  speedup: {:.1f}x (gate: >= {:.1f}x), cache misses "
                "after warm boot: {}".format(
                    speedup, WARM_START_GATE, misses
                ),
                "  rankings bitwise identical: yes",
            ]
        ),
    )
    assert misses == 0, "warm start recomputed {} matrices".format(misses)
    assert speedup >= WARM_START_GATE, (
        "warm start {:.2f}x over cold build; gate is {}x".format(
            speedup, WARM_START_GATE
        )
    )


def _drive_clients(address, per_client_nodes):
    """CLIENTS threads, each a keep-alive connection issuing its nodes."""
    results = [None] * len(per_client_nodes)

    def worker(index, nodes):
        connection = http.client.HTTPConnection(*address, timeout=60)
        answers = []
        try:
            for node in nodes:
                connection.request(
                    "POST", "/query", body=json.dumps({"node": node})
                )
                response = connection.getresponse()
                answers.append(
                    (
                        response.status,
                        json.loads(response.read().decode("utf-8")),
                    )
                )
        finally:
            connection.close()
        results[index] = answers

    threads = [
        threading.Thread(target=worker, args=(index, nodes))
        for index, nodes in enumerate(per_client_nodes)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, results


def test_coalescing_throughput(emit, server_bundle):
    service = SimilarityService(server_bundle.database)
    # HeteSim is the batch-amortizing serving workload: ``run_many``
    # answers B queries with one dense block product, several times
    # cheaper per query than B separate ``run`` calls, so a coalesced
    # window has real work to amortize (relsim's per-query sparse row
    # slice is already near the HTTP floor).
    prepared = service.prepare(algorithm="hetesim", pattern=PATTERN, top_k=TOP_K)
    # PATTERN relates areas to areas: area probes rank non-empty.
    nodes = sample_queries_by_degree(
        server_bundle.database, "area", REQUESTS_PER_CLIENT, seed=1
    )
    # Each client replays its node list three times: a longer measured
    # window damps scheduler noise in the throughput ratio.
    workload = [list(nodes) * 3 for _ in range(CLIENTS)]
    total = CLIENTS * len(nodes) * 3
    reference = {
        node: [[n, s] for n, s in prepared.run(node).items()]
        for node in nodes
    }
    assert all(reference.values()), "empty reference ranking"

    measured = {}
    batcher = {}
    # Same service, same single worker thread; the only difference is
    # whether concurrent requests coalesce into run_many batches.
    for label, coalesce in (("serial", False), ("coalesced", True)):
        with BackgroundServer(
            service,
            prepared,
            port=0,
            coalesce=coalesce,
            coalesce_window=0.001,
            # A full complement of in-flight clients flushes at once
            # instead of waiting out the window.
            max_batch=CLIENTS,
            threads=1,
        ) as background:
            _call(background.address, "POST", "/query", {"node": nodes[0]})
            elapsed = float("inf")
            for _ in range(3):
                seconds, results = _drive_clients(background.address, workload)
                elapsed = min(elapsed, seconds)
            status, stats = _call(background.address, "GET", "/statz")
            assert status == 200
            batcher[label] = stats.get("batcher")
        for answers, client_nodes in zip(results, workload):
            for (status, payload), node in zip(answers, client_nodes):
                assert status == 200, payload
                assert payload["ranking"] == reference[node], node
        measured[label] = total / max(elapsed, 1e-9)

    ratio = measured["coalesced"] / max(measured["serial"], 1e-9)
    coalesced_batches = batcher["coalesced"]["batches"]
    emit(
        "server_coalescing",
        "\n".join(
            [
                "Request coalescing over HTTP ({} clients x {} requests, "
                "1 worker thread)".format(CLIENTS, len(workload[0])),
                "  serial per-request: {:.0f} queries/s".format(
                    measured["serial"]
                ),
                "  coalesced:          {:.0f} queries/s ({:.1f}x, "
                "gate: >= {:.1f}x)".format(
                    measured["coalesced"], ratio, COALESCE_GATE
                ),
                "  {} requests folded into {} run_many batches "
                "(largest {})".format(
                    batcher["coalesced"]["requests"],
                    coalesced_batches,
                    batcher["coalesced"]["largest_batch"],
                ),
                "  responses identical across modes: yes",
            ]
        ),
    )
    assert coalesced_batches < total, "no coalescing happened"
    assert ratio >= COALESCE_GATE, (
        "coalesced serving {:.2f}x over serial; gate is {}x".format(
            ratio, COALESCE_GATE
        )
    )


def test_backpressure_and_apply_safety(emit, server_bundle):
    service = SimilarityService(server_bundle.database)
    prepared = service.prepare(
        algorithm="relsim",
        pattern=PATTERN,
        expand={"max_patterns": MAX_EXPAND},
        top_k=TOP_K,
    )
    nodes = sample_queries_by_degree(
        server_bundle.database, "area", REQUESTS_PER_CLIENT, seed=2
    )
    workload = [list(nodes) for _ in range(CLIENTS)]

    with BackgroundServer(
        service,
        prepared,
        port=0,
        coalesce=False,
        threads=1,
        max_inflight=1,
    ) as background:
        address = background.address
        probe = nodes[0]
        status, before = _call(address, "POST", "/query", {"node": probe})
        assert status == 200
        assert before["ranking"], "empty probe ranking"

        # Saturate: every request must come back 200 or 503, nothing
        # may hang or be dropped, and health stays reachable.
        elapsed, results = _drive_clients(address, workload)
        health_status, health = _call(address, "GET", "/healthz")
        answered = [answer for client in results for answer in client]
        statuses = {status for status, _ in answered}

        # Failed apply: the served snapshot and version are untouched.
        version_before = service.version
        status, rejected = _call(
            address,
            "POST",
            "/apply",
            {"edges_removed": [["no-such", "p-in", "node"]]},
        )
        status_after, after = _call(
            address, "POST", "/query", {"node": probe}
        )
        # ...and a good delta still lands normally afterwards.
        good_status, applied = _call(
            address,
            "POST",
            "/apply",
            {"edges_added": [["paper:0", "p-in", "proc:1"]]},
        )

    total = CLIENTS * len(nodes)
    rejected_count = sum(1 for status, _ in answered if status == 503)
    emit(
        "server_backpressure",
        "\n".join(
            [
                "Saturation (max_inflight=1, {} clients x {} requests) "
                "and /apply safety".format(CLIENTS, len(nodes)),
                "  answered {} / {} requests in {:.2f}s "
                "({} served, {} shed as 503)".format(
                    len(answered),
                    total,
                    elapsed,
                    len(answered) - rejected_count,
                    rejected_count,
                ),
                "  /healthz under saturation: {} ({})".format(
                    health_status, health["status"]
                ),
                "  failed /apply: {} -> version {} (unchanged), "
                "rankings bitwise unchanged: {}".format(
                    status,
                    after["version"],
                    "yes" if after["ranking"] == before["ranking"] else "NO",
                ),
                "  subsequent good /apply: {} -> version {}".format(
                    good_status, applied.get("version")
                ),
            ]
        ),
    )
    assert len(answered) == total, "requests were dropped"
    assert statuses <= {200, 503}, statuses
    assert 503 in statuses, "saturation never triggered backpressure"
    assert 200 in statuses, "saturated server served nothing"
    assert health_status == 200 and health["status"] == "ok"
    assert status == 409, rejected
    assert status_after == 200
    assert after["version"] == version_before
    assert after["ranking"] == before["ranking"]
    assert good_status == 200 and applied["version"] == version_before + 1
