"""``http-query``: ``repro serve`` under a one-process load generator.

Why: the only workload where HTTP, the wire protocol and request
coalescing do most of the work — the server boots warm from a snapshot
and the engine serves nothing but cache hits.

The server is ``repro serve --snapshot`` in a subprocess (``--threads
2``, default 2 ms coalescing window) answering RelSim
``p-in-.r-a.r-a-.p-in`` with Algorithm-1 expansion (16 patterns), top
10.  Query venues are Zipf-drawn over 100 venues.  Set-up time is
process start to the "serving" line, the median of :data:`BOOTS`
boots, half of them before the measured phases and half after; the
last boot before them serves three phases, with their lengths in the
proportions 10 : 15 : 10 of the run:

1. closed loop, 2 keep-alive connections — gives ``qps``;
2. open loop at 100 requests/s — gives ``query_p50_ms``/``p90``,
   timed from each request's due time;
3. open loop at 300 requests/s — gives ``loaded_p50_ms``/``p90``.

Every response is checked against rankings computed in-process.
"""

import asyncio
import json
import os
import random
import select
import signal
import subprocess
import sys

import loadgen
import measure
import tracing
from metrics import Result, cache_delta, layer_metrics

DATASET = {"num_areas": 15, "num_procs": 120, "num_papers": 2000,
           "num_authors": 900}
PATTERN = "p-in-.r-a.r-a-.p-in"
TOP_K = 10
QUERY_NODES = 100
CONNECTIONS = 2
BOOTS = 6
BOOT_TIMEOUT = 60.0
#: ``(name, requests/s or None for closed loop, share of the run)``.
PHASES = (("closed", None, 10), ("open-100", 100, 15), ("open-300", 300, 10))


def serve_arguments(snapshot):
    return [
        "--snapshot", snapshot, "--port", "0", "--algorithm", "relsim",
        "--pattern", PATTERN, "--expand", "--max-expand", "16",
        "--top", str(TOP_K), "--threads", "2",
    ]


class ServerProcess:
    """One ``repro serve`` subprocess, started and always stopped."""

    def __init__(self, argv, env, log_path):
        self.argv = argv
        self.env = env
        self.log_path = log_path
        self.process = None
        self.address = None

    def start(self):
        """Launch and wait for the serving line; seconds it took."""
        with open(self.log_path, "ab") as log:
            start = loadgen.clock()
            # Unbuffered, so select() sees every line still unread; a
            # buffered reader could hold the serving line in its buffer.
            self.process = subprocess.Popen(
                self.argv, env=self.env, stdout=subprocess.PIPE, stderr=log,
                bufsize=0,
            )
        deadline = start + BOOT_TIMEOUT
        while True:
            remaining = deadline - loadgen.clock()
            if remaining <= 0 or self.process.poll() is not None:
                self.stop()
                with open(self.log_path, errors="replace") as log:
                    tail = log.read()[-2000:]
                raise RuntimeError("server did not start:\n" + tail)
            ready, _, _ = select.select([self.process.stdout], [], [],
                                        remaining)
            if not ready:
                continue
            line = self.process.stdout.readline().decode("utf-8", "replace")
            if line.startswith("serving repro on http://"):
                elapsed = loadgen.clock() - start
                host_port = line.split("http://", 1)[1].split()[0]
                host, port = host_port.rsplit(":", 1)
                self.address = (host, int(port))
                return elapsed

    def peak_rss_mib(self):
        return measure.peak_rss_mib(self.process.pid)

    def stop(self):
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def _prepare_inputs(context):
    """Dataset, in-process reference rankings, snapshot on disk."""
    from repro.api import SimilarityService
    from repro.datasets import generate_dblp
    from repro.server import save_snapshot

    database = generate_dblp(seed=context.seed, **DATASET).database
    service = SimilarityService(database)
    prepared = service.prepare(algorithm="relsim", pattern=PATTERN,
                               top_k=TOP_K, expand={"max_patterns": 16})
    procs = database.nodes_of_type("proc")
    reference = {
        node: [[answer, score] for answer, score in ranking.items()]
        for node, ranking in prepared.run_many(procs).items()
        if ranking.items()
    }
    nodes = [node for node in procs if node in reference]
    if len(nodes) < QUERY_NODES:
        raise RuntimeError("only {} venues have a non-empty answer".format(
            len(nodes)))
    order = random.Random(context.seed).sample(nodes, QUERY_NODES)
    snapshot = os.path.join(context.work_dir, "serving.npz")
    save_snapshot(snapshot, service)
    return reference, order, snapshot


def _environment(context):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [context.src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _check(records, reference):
    """Failed-request count; raises on any wrong answer."""
    failed = 0
    for record in records:
        if not record.ok:
            failed += 1
            continue
        payload = json.loads(record.body)
        if payload.get("ranking") != reference[record.node]:
            raise measure.WrongAnswer("{}: served {} != in-process {}".format(
                record.node, payload.get("ranking"), reference[record.node]))
    return failed


def _run_phase(address, rate, seconds, draw):
    if rate is None:
        return asyncio.run(loadgen.closed_loop(address, CONNECTIONS, seconds,
                                               draw))
    return asyncio.run(loadgen.open_loop(address, CONNECTIONS, rate, seconds,
                                         draw))


def _latencies_ms(records):
    return [1000.0 * record.latency for record in records if record.ok]


def run(context):
    result = Result()
    reference, order, snapshot = _prepare_inputs(context)
    rng = random.Random(context.seed + 1)
    draws = measure.Zipf(order, rng)
    env = _environment(context)
    serve = [sys.executable, "-m", "repro.cli", "serve"] + serve_arguments(
        snapshot)
    log_path = os.path.join(context.work_dir, "server.log")
    if context.trace:
        return _run_traced(context, result, reference, draws, env, serve,
                           snapshot, log_path)

    boots = []

    def boot():
        server = ServerProcess(serve, env, log_path)
        boots.append(server.start())
        return server

    server = None
    try:
        for _ in range(BOOTS // 2):
            if server is not None:
                server.stop()
            server = boot()
        total = sum(share for _, _, share in PHASES)
        records = {}
        for name, rate, share in PHASES:
            seconds = context.seconds * share / total
            records[name] = _run_phase(server.address, rate, seconds,
                                       draws.draw)
        rss = server.peak_rss_mib()
        for _ in range(BOOTS - BOOTS // 2):
            server.stop()
            server = boot()
    finally:
        if server is not None:
            server.stop()
    result.attempted += BOOTS

    for name, phase in records.items():
        result.attempted += len(phase)
        result.failed += _check(phase, reference)
    context.log("checked {} responses against in-process rankings".format(
        sum(len(phase) for phase in records.values())))

    closed = records["closed"]
    answered = sum(record.ok for record in closed)
    start = min(record.due for record in closed)
    end = max(record.done for record in closed)
    light = measure.summarize(_latencies_ms(records["open-100"]))
    loaded = measure.summarize(_latencies_ms(records["open-300"]))
    result.end_to_end = {"setup_s": measure.median(boots)}
    late = [1000.0 * record.late for phase in ("open-100", "open-300")
            for record in records[phase]]
    result.diagnostics.update({
        "query_p50_ms": light["p50"],
        "query_p90_ms": light["p90"],
        "qps": measure.rate(answered, start, end),
        "rss_peak_mib": rss,
        "boot_samples_s": boots,
        "closed_requests": len(closed),
        "queries": light["n"],
        "query_tail": light["tail"],
        "query_p99_ms": light.get("p99"),
        "loaded_p50_ms": loaded["p50"],
        "loaded_p90_ms": loaded["p90"],
        "loaded_samples": loaded["n"],
        "generator_late_max_ms": max(late) if late else None,
    })
    return result


def _run_traced(context, result, reference, draws, env, serve, snapshot,
                log_path):
    """Untraced then traced server, each for half the run at 100 req/s."""
    half = context.seconds / 2.0
    spans_path = os.path.join(context.work_dir, "spans.json")
    launcher = [sys.executable, os.path.join(os.path.dirname(
        os.path.abspath(__file__)), "traced_serve.py"), spans_path]
    phases = {}
    stats = {}
    for label, argv in (("untraced", serve),
                        ("traced", launcher + serve_arguments(snapshot))):
        server = ServerProcess(argv, env, log_path)
        try:
            server.start()
            result.attempted += 1
            if label == "traced":
                stats["before"] = asyncio.run(
                    loadgen.get_json(server.address, "/statz"))
            phases[label] = _run_phase(server.address, 100, half,
                                       draws.draw)
            if label == "traced":
                stats["after"] = asyncio.run(
                    loadgen.get_json(server.address, "/statz"))
        finally:
            server.stop()
    for records in phases.values():
        result.attempted += len(records)
        result.failed += _check(records, reference)

    spans = tracing.load_spans(spans_path)
    traced = [record for record in phases["traced"] if record.ok]
    values = server_layers(context, spans, traced, stats)
    plain = _latencies_ms(phases["untraced"])
    mean_traced = sum(_latencies_ms(traced)) / max(len(traced), 1)
    mean_plain = sum(plain) / max(len(plain), 1)
    context.log("trace overhead (query): traced {:.4f} ms - untraced {:.4f} "
                "ms = {:+.4f} ms per request".format(
                    mean_traced, mean_plain, mean_traced - mean_plain))
    result.per_layer = values
    return result


def server_layers(context, spans, records, stats):
    """Per-request layer means from the server's spans.

    Each request is one ``batching.submit`` span (its request id ties
    it to its protocol spans); the ``prepared.run`` span that served it
    runs on an executor thread, so it is matched by node and time.  The
    request's time splits into protocol, waiting in the batcher
    (``submit`` minus the batch's run) and the batch's run, whose
    subtree gives the engine-side layers; ``server.request_ms`` is the
    rest of the client-observed latency — HTTP parsing, the event loop
    and the network.
    """
    window_start = min(record.due for record in records)
    window_end = max(record.done for record in records)
    inside = [span for span in spans
              if window_start <= span.start and span.end <= window_end]
    runs = sorted((span for span in inside if span.name == "prepared.run"
                   and span.parent is None), key=lambda span: span.start)
    submits = [span for span in inside if span.name == "batching.submit"]
    children = tracing.children_of(spans)
    selfs = tracing.self_times(spans, children)
    protocol = {}
    for span in inside:
        if span.name == "server.protocol" and span.request is not None:
            protocol[span.request] = (protocol.get(span.request, 0.0)
                                      + selfs[span.id])
    served = tracing.Breakdown()
    waits, protocol_s = [], []
    for submit in submits:
        node = submit.attrs["nodes"][0]
        batch = next((run for run in runs if submit.start <= run.start
                      and run.end <= submit.end
                      and node in run.attrs.get("nodes", ())), None)
        if batch is None:
            continue
        served.add_tree(batch, children, selfs)
        waits.append(submit.duration - batch.duration)
        protocol_s.append(protocol.get(submit.request, 0.0))
    count = max(len(waits), 1)
    client_ms = sum(1000.0 * record.latency for record in records) / max(
        len(records), 1)
    wait_ms = 1000.0 * sum(waits) / count
    protocol_ms = 1000.0 * sum(protocol_s) / count
    run_ms = served.per_root_ms("prepared.run", inclusive=True)
    # Everything the server did before the first request is its boot:
    # one set-up, however many root spans it took.
    boot = tracing.Breakdown()
    for span in spans:
        if span.parent is None and span.request is None \
                and span.end <= window_start:
            boot.add_tree(span, children, selfs)
    boot.roots = 1
    extra = {
        "server.request_ms": client_ms - wait_ms - protocol_ms - run_ms,
        "server.protocol_ms": protocol_ms,
        "batching.wait_ms": wait_ms,
        "batching.batch_size": (
            sum(len(run.attrs.get("nodes", ())) for run in runs) / len(runs)
            if runs else 0.0
        ),
    }
    context.log("matched {} of {} submits to their batch; {} client "
                "requests, {:.4f} ms mean latency".format(
                    len(waits), len(submits), len(records), client_ms))
    context.log("request: {:.4f} ms = request {:.4f} + protocol {:.4f} + "
                "batch wait {:.4f} + batch run {:.4f}".format(
                    client_ms, extra["server.request_ms"], protocol_ms,
                    wait_ms, run_ms))
    context.log(tracing.format_breakdown("batch run, per request served",
                                         served))
    cache = cache_delta(stats["before"]["cache_info"],
                        stats["after"]["cache_info"])
    context.log(tracing.format_breakdown("server boot", boot))
    return layer_metrics(served, boot, cache, extra)
