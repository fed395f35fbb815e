"""``live-delta``: reads beside single-edge writes on a live service.

Why: writes run next to the reads, so a read-path gain that makes
delta propagation, re-binding or subscription upkeep dearer shows up
here — in ``qps``, which counts writes as operations, and in the apply
latencies reported beside the read latencies.

A :class:`SimilarityService` on the http-query dataset (generated from
the seed) holds a prepared RelSim query (Algorithm-1 expansion, 16
patterns) and a prepared PathSim query, plus 8 standing subscriptions.
The loop does one write per ten reads; each read picks one of the two
queries with equal chance.  A write toggles one edge (remove it if
present, add it back if not) drawn from a seeded pool over ``w``,
``p-in`` and ``r-a``; every 40th write toggles a batch of 100 other
edges, which takes the full-rebuild path.

Latency percentiles are kept per kind of operation, as a load
generator reports reads and updates apart: ``query_p50_ms`` and
``query_p90_ms`` are the RelSim reads, the query every workload runs;
the PathSim reads, about five times faster, are diagnostics.  One
percentile over both kinds would fall in the gap between them.
"""

import random

import inproc
import measure
import tracing
from metrics import Result, cache_delta, layer_metrics

DATASET = {"num_areas": 15, "num_procs": 120, "num_papers": 2000,
           "num_authors": 900}
RELSIM = "p-in-.r-a.r-a-.p-in"
PATHSIM = "p-in-.w-.w.p-in"
TOP_K = 10
SUBSCRIPTIONS = 8
READS_PER_WRITE = 10
BULK_EVERY = 40
BULK_SIZE = 100
SINGLE_POOL = 200
SETUPS = 16
#: Operation kinds of the two reads, in the order :func:`_prepare`
#: returns their queries.
READS = ("query", "pathsim-query")


def _prepare(target):
    return [
        target.prepare(algorithm="relsim", pattern=RELSIM, top_k=TOP_K,
                       expand={"max_patterns": 16}),
        target.prepare(algorithm="pathsim", pattern=PATHSIM, top_k=TOP_K),
    ]


def _reference(database):
    """Venues both queries answer, and every answer, on a fresh session."""
    from repro.api import SimilaritySession

    procs = database.nodes_of_type("proc")
    answers = [
        {node: ranking.items()
         for node, ranking in handle.run_many(procs).items()}
        for handle in _prepare(SimilaritySession(database))
    ]
    nodes = [node for node in procs
             if all(answer[node] for answer in answers)]
    return nodes, answers


def _edge_pools(database, rng):
    edges = []
    for label in ("w", "p-in", "r-a"):
        edges.extend(sorted(database.edges(label)))
    chosen = rng.sample(edges, SINGLE_POOL + BULK_SIZE)
    return chosen[:SINGLE_POOL], chosen[SINGLE_POOL:]


def _check(service, handles, subscriptions, nodes, expected=None):
    """Service answers against a fresh session on its current database.

    ``expected`` (per query, ``{node: items}``) replaces the fresh
    session.  Returns how many answers were compared; venues whose
    expected answer is empty are skipped.
    """
    if expected is None:
        expected = _reference(service.database)[1]
    checked = 0
    for handle, answers in zip(handles, expected):
        served = handle.run_many(nodes)
        for node in nodes:
            if not answers[node]:
                continue
            items = served[node].items()
            if items != answers[node]:
                raise measure.WrongAnswer(
                    "{}: service {} != fresh session {}".format(
                        node, items, answers[node]))
            checked += 1
    for subscription in subscriptions:
        current = subscription.prepared.run(subscription.node).items()
        if subscription.items() != current:
            raise measure.WrongAnswer(
                "subscription on {} is stale".format(subscription.node))
    return checked


def run(context):
    from repro.api import SimilarityService
    from repro.datasets import generate_dblp

    result = Result()
    database = generate_dblp(seed=context.seed, **DATASET).database
    nodes, initial = _reference(database)
    rng = random.Random(context.seed)
    singles, bulk = _edge_pools(database, rng)
    context.log("dataset: {} nodes, {} edges; {} query venues".format(
        database.num_nodes(), database.num_edges(), len(nodes)))
    tracer = tracing.Tracer() if context.trace else None
    measure.reset_peak_rss()

    def setup():
        service = SimilarityService(database)
        handles = _prepare(service)
        subscriptions = [
            service.subscribe(handles[index % len(handles)], node)
            for index, node in enumerate(nodes[:SUBSCRIPTIONS])
        ]
        return service, handles, subscriptions

    def release(state):
        state[0].subscriptions.close()

    setup_s, (service, handles, subscriptions) = inproc.time_setups(
        tracer, SETUPS // 2, setup, release)

    node_draws = measure.Zipf(nodes, rng)
    present = dict.fromkeys(singles + bulk, True)
    state = {"ops": 0, "writes": 0}
    write_ms = {"single": [], "bulk": []}

    def toggle(edges):
        removed = [edge for edge in edges if present[edge]]
        added = [edge for edge in edges if not present[edge]]
        service.apply(edges_added=added, edges_removed=removed)
        for edge in edges:
            present[edge] = not present[edge]

    def op():
        state["ops"] += 1
        if state["ops"] % (READS_PER_WRITE + 1):
            kind = rng.choice(READS)
            handles[READS.index(kind)].run(node_draws.draw())
            return kind
        state["writes"] += 1
        start = inproc.clock()
        if state["writes"] % BULK_EVERY == 0:
            toggle(bulk)
            kind = "bulk"
        else:
            toggle([rng.choice(singles)])
            kind = "single"
        write_ms[kind].append(1000.0 * (inproc.clock() - start))
        return "write-" + kind

    before = service.session.cache_info()
    stats_before = service.subscription_stats
    phases = inproc.measured_phases(context, op, tracer)
    after = service.session.cache_info()
    stats_after = service.subscription_stats
    for phase in phases:
        result.attempted += len(phase.records)
        result.failed += phase.failures
    # Check the toggled state against a fresh session, then put every
    # toggled edge back and check against the answers before any write.
    checked = _check(service, handles, subscriptions, nodes)
    removed = [edge for edge, there in present.items() if not there]
    if removed:
        service.apply(edges_added=removed)
    restored = _check(service, handles, subscriptions, nodes, initial)
    if restored != len(nodes) * len(handles):
        raise measure.WrongAnswer("an answer was empty before any write")
    context.log("checked {} answers after the writes and {} after undoing "
                "them, and {} subscriptions".format(
                    checked, restored, len(subscriptions)))
    service.subscriptions.close()
    later, last = inproc.time_setups(tracer, SETUPS - SETUPS // 2, setup,
                                     release)
    release(last)
    setup_s += later
    result.attempted += SETUPS

    reads = measure.summarize(phases[0].latencies_ms("query"))
    pathsim = measure.summarize(phases[0].latencies_ms("pathsim-query"))
    singles_ms = measure.summarize(write_ms["single"])
    result.end_to_end = {"setup_s": measure.median(setup_s)}
    result.diagnostics.update({
        "query_p50_ms": reads["p50"],
        "query_p90_ms": reads["p90"],
        "qps": phases[0].qps(),
        "rss_peak_mib": phases[0].peak_rss_mib,
        "queries": reads["n"],
        "query_tail": reads["tail"],
        "query_p99_ms": reads.get("p99"),
        "pathsim_queries": pathsim["n"],
        "pathsim_p50_ms": pathsim["p50"],
        "pathsim_p90_ms": pathsim["p90"],
        "writes": singles_ms["n"] + len(write_ms["bulk"]),
        "apply_p50_ms": singles_ms["p50"],
        "apply_p90_ms": singles_ms["p90"],
        "apply_samples": singles_ms["n"],
        "bulk_apply_ms": (measure.median(write_ms["bulk"])
                          if write_ms["bulk"] else None),
        "bulk_applies": len(write_ms["bulk"]),
        "delta_stats": service.delta_stats,
    })

    if tracer is not None:
        setups = tracing.breakdown(tracer.spans,
                                   inproc.roots(tracer, name="bench.setup"))
        ops = tracing.breakdown(tracer.spans, inproc.roots(tracer))
        bulk_ops = tracing.breakdown(
            tracer.spans, inproc.roots(tracer, ("write-bulk",)))
        inproc.report_layers(context, "all operations", ops)
        inproc.report_layers(context, "RelSim read", tracing.breakdown(
            tracer.spans, inproc.roots(tracer, ("query",))))
        inproc.report_layers(context, "PathSim read", tracing.breakdown(
            tracer.spans, inproc.roots(tracer, ("pathsim-query",))))
        inproc.report_layers(context, "single-edge write", tracing.breakdown(
            tracer.spans, inproc.roots(tracer, ("write-single",))))
        inproc.report_layers(context, "bulk write", bulk_ops)
        inproc.report_overhead(context, phases, "query")
        cache = cache_delta(before, after)
        subscription = {key: stats_after[key] - stats_before[key]
                        for key in ("pruned", "rescored", "fallbacks")}
        maintained = sum(subscription.values())
        # Counters span both halves of the run, so they are divided by
        # every write made, traced or not.
        per_write = max(sum(len(write_ms[kind]) for kind in write_ms), 1)
        extra = {
            "engine.patched": cache["patched"] / per_write,
            "streaming.pruned_ratio": (subscription["pruned"] / maintained
                                       if maintained else 0.0),
            "streaming.fallbacks": subscription["fallbacks"] / per_write,
            "service.rebuild_ms": (
                bulk_ops.per_root_ms("service.session", inclusive=True)
                + bulk_ops.per_root_ms("prepared.bind", inclusive=True)
            ),
        }
        result.per_layer = layer_metrics(ops, setups, cache, extra)
    return result
