"""``adhoc-budget``: one-shot RelSim calls under a memory budget.

Why: the only workload whose working set is larger than the engine's
own cache, and the only one paying for parse, Algorithm-1 expansion
and type checking on every call::

    session.query(node).using("relsim", pattern=p) \\
        .expand_patterns(max_patterns=16).top(10)

Shapes ``p`` are the type-correct symmetric meta-paths of half-length
at most 3 that start at a venue, an author or an area, minus those
with an empty answer for every node (a paper has one venue, so
``p-in-.p-in...`` only finds the query itself) and the two
author-area paths whose products are tens of MiB.  Each call draws its
shape from a seeded Zipf over the pool, shortest and cheapest first,
and its node from a seeded Zipf over the nodes of the shape's type.

The budget is below what the whole pool caches unbudgeted, so the
popular shapes stay cached and the tail is evicted and recomputed; on
seed 0 the engine hit ratio is inside [0.5, 0.95].  No single product
of any shape exceeds ``budget / 4``, so nothing is streamed in row
blocks or spilled on every call; what the workload measures is
eviction and recompute, and ``streamed`` is reported so a run that
streams shows it.
"""

import random

import inproc
import measure
import tracing
from metrics import Result, cache_delta, layer_metrics

DATASET = {"num_areas": 8, "num_procs": 60, "num_papers": 800,
           "num_authors": 400}
MEMORY_BUDGET = 7 * 1024 * 1024
MAX_PATTERNS = 16
TOP_K = 10
SETUPS = 24

#: ``(start type, pattern)`` in popularity order (Zipf rank 1 first):
#: shorter and cheaper meta-paths are the more popular ones.
POOL = (
    ("author", "w.w-"),
    ("proc", "p-in-.w-.w.p-in"),
    ("author", "w.w-.w.w-"),
    ("proc", "p-in-.w-.w.w-.w.p-in"),
    ("area", "r-a-.r-a"),
    ("proc", "p-in-.r-a.r-a-.p-in"),
    ("author", "w.p-in.p-in-.w-"),
    ("area", "r-a-.w-.w.r-a"),
    ("area", "r-a-.p-in.p-in-.r-a"),
    ("area", "r-a-.r-a.r-a-.r-a"),
    ("author", "w.w-.w.w-.w.w-"),
    ("area", "r-a-.p-in.p-in-.p-in.p-in-.r-a"),
    ("author", "w.p-in.p-in-.p-in.p-in-.w-"),
    ("area", "r-a-.w-.w.w-.w.r-a"),
    ("area", "r-a-.r-a.r-a-.r-a.r-a-.r-a"),
    ("proc", "p-in-.r-a.r-a-.r-a.r-a-.p-in"),
)


def _reference(database):
    """``{(pattern, node): items}`` from unbudgeted prepared queries.

    Also picks the query nodes: those with a non-empty answer for every
    shape of their type, in the database's node order.  Each shape gets
    a session of its own, so this never holds more than one shape's
    matrices.
    """
    from repro.api import SimilaritySession

    answers = {}
    nodes = {}
    for node_type in sorted({node_type for node_type, _ in POOL}):
        candidates = database.nodes_of_type(node_type)
        keep = set(candidates)
        for shape_type, pattern in POOL:
            if shape_type != node_type:
                continue
            prepared = SimilaritySession(database).prepare(
                algorithm="relsim", pattern=pattern, top_k=TOP_K,
                expand={"max_patterns": MAX_PATTERNS},
            )
            for node, ranking in prepared.run_many(candidates).items():
                items = ranking.items()
                answers[pattern, node] = items
                if not items:
                    keep.discard(node)
        nodes[node_type] = [node for node in candidates if node in keep]
    return answers, nodes


def run(context):
    from repro.api import SimilaritySession
    from repro.datasets import generate_dblp

    result = Result()
    database = generate_dblp(seed=context.seed, **DATASET).database
    answers, nodes = _reference(database)
    context.log("dataset: {} nodes, {} edges; query nodes {}".format(
        database.num_nodes(), database.num_edges(),
        {key: len(value) for key, value in sorted(nodes.items())}))
    rng = random.Random(context.seed)
    shapes = measure.Zipf(POOL, rng)
    node_draws = {key: measure.Zipf(value, rng)
                  for key, value in nodes.items()}
    tracer = tracing.Tracer() if context.trace else None
    measure.reset_peak_rss()

    def setup():
        session = SimilaritySession(database, memory_budget=MEMORY_BUDGET)
        for label in database.schema.labels:
            session.view.adjacency(label)
        return session

    setup_s, session = inproc.time_setups(tracer, SETUPS // 2, setup)

    def op():
        node_type, pattern = shapes.draw()
        node = node_draws[node_type].draw()
        items = session.query(node).using("relsim", pattern=pattern) \
            .expand_patterns(max_patterns=MAX_PATTERNS).top(TOP_K).items()
        if items != answers[pattern, node]:
            raise measure.WrongAnswer(
                "{} {}: budgeted one-shot {} != unbudgeted prepared {}"
                .format(pattern, node, items, answers[pattern, node]))
        return "query"

    before = session.cache_info()
    phases = inproc.measured_phases(context, op, tracer)
    after = session.cache_info()
    for phase in phases:
        result.attempted += len(phase.records)
        result.failed += phase.failures
    cache = cache_delta(before, after)
    lookups = cache["hits"] + cache["misses"]
    setup_s += inproc.time_setups(tracer, SETUPS - SETUPS // 2, setup)[0]
    result.attempted += SETUPS

    latencies = phases[0].latencies_ms("query")
    summary = measure.summarize(latencies)
    result.end_to_end = {"setup_s": measure.median(setup_s)}
    result.diagnostics.update({
        "query_p50_ms": summary["p50"],
        "query_p90_ms": summary["p90"],
        "qps": phases[0].qps(),
        "rss_peak_mib": phases[0].peak_rss_mib,
        "queries": summary["n"],
        "query_tail": summary["tail"],
        "query_p99_ms": summary.get("p99"),
        "hit_ratio": cache["hits"] / lookups if lookups else None,
        "streamed": cache["streamed"],
        "spilled": cache["spilled"],
        "cache_mib": cache["bytes"] / (1024.0 * 1024.0),
        "budget_mib": MEMORY_BUDGET / (1024.0 * 1024.0),
    })

    if tracer is not None:
        setups = tracing.breakdown(tracer.spans,
                                   inproc.roots(tracer, name="bench.setup"))
        ops = tracing.breakdown(tracer.spans, inproc.roots(tracer))
        inproc.report_layers(context, "ad-hoc query", ops)
        inproc.report_overhead(context, phases, "query")
        result.per_layer = layer_metrics(ops, setups, cache)
    return result
