"""``scale-1e6``: in-process RelSim on a million-edge power-law graph.

Why: at n ~ 336k nodes sparse products (SpGEMM), plan order and dense
``score_rows`` dominate; the engine cache holds every product (no
memory budget) and there is no HTTP.

Set-up is a *cold round*: a fresh session, three prepared shapes (the
``bench_scale`` meta-paths, count scoring), and their first rankings.
The set-up time is the median over :data:`COLD_ROUNDS` rounds, half
of them before the measured phase and half after it; the last round
before it serves the warm phase — prepared ``run`` calls on
Zipf-drawn papers — for the run's measured time.
"""

import random

import inproc
import measure
import tracing
from metrics import Result, cache_delta, layer_metrics

EDGES = 1_000_000
COLD_ROUNDS = 6
#: ``(pattern, answer type)``; ``w-.w.p-in`` leads from papers to
#: venues, so its answers are venues, not papers.
SHAPES = (("w-.w", None), ("w-.w.w-.w", None), ("w-.w.p-in", "proc"))
TOP_K = 10


def _prepare(session):
    return [
        session.prepare(algorithm="relsim", pattern=pattern, scoring="count",
                        answer_type=answer_type, top_k=TOP_K)
        for pattern, answer_type in SHAPES
    ]


def run(context):
    from repro.api import SimilaritySession
    from repro.datasets import generate_dblp_scale

    result = Result()
    bundle = generate_dblp_scale(EDGES, seed=context.seed)
    database = bundle.database
    papers = bundle.info["suggested_queries"]
    context.log("dataset: {} nodes, {} edges; {} query papers".format(
        bundle.info["num_nodes"], bundle.info["num_edges"], len(papers)))
    rng = random.Random(context.seed)
    probe = papers[0]
    tracer = tracing.Tracer() if context.trace else None
    measure.reset_peak_rss()

    setup_s, probe_rankings = [], []

    def cold_round():
        start = inproc.clock()
        session = SimilaritySession(database)
        prepared = _prepare(session)
        setup_s.append(inproc.clock() - start)
        rankings = [handle.run(probe).items() for handle in prepared]
        if probe_rankings and rankings != probe_rankings[0]:
            raise measure.WrongAnswer("cold rounds disagree for " + probe)
        probe_rankings.append(rankings)
        return session, prepared

    first_s, (session, prepared) = inproc.time_setups(
        tracer, COLD_ROUNDS // 2, cold_round)

    draws = measure.Zipf(papers, rng)
    answers = {}

    def op():
        index = rng.randrange(len(SHAPES))
        node = draws.draw()
        items = prepared[index].run(node).items()
        answers.setdefault((index, node), items)
        return "query"

    before = session.cache_info()
    phases = inproc.measured_phases(context, op, tracer)
    after = session.cache_info()
    for phase in phases:
        result.attempted += len(phase.records)
        result.failed += phase.failures

    # Every distinct answer, against the one-shot builder path on the
    # same data (no pinned scoring state), and never empty.
    for (index, node), items in answers.items():
        pattern, answer_type = SHAPES[index]
        options = {"answer_type": answer_type} if answer_type else {}
        expected = session.query(node).using(
            "relsim", pattern=pattern, scoring="count", **options
        ).top(TOP_K).items()
        if items != expected:
            raise measure.WrongAnswer(
                "{} {}: prepared {} != one-shot {}".format(
                    pattern, node, items, expected))
        if not items:
            raise measure.WrongAnswer("{} {}: empty ranking".format(
                pattern, node))
    context.log("checked {} distinct answers against the one-shot "
                "path".format(len(answers)))
    session = prepared = None
    first_s += inproc.time_setups(tracer, COLD_ROUNDS - COLD_ROUNDS // 2,
                                  cold_round)[0]
    result.attempted += COLD_ROUNDS

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
        "cold_first_ms": 1000.0 * measure.median(first_s),
        "cold_rounds": COLD_ROUNDS,
        "setup_samples_s": setup_s,
    })

    if tracer is not None:
        setups = tracing.breakdown(tracer.spans,
                                   inproc.roots(tracer, name="bench.setup"))
        ops = tracing.breakdown(tracer.spans, inproc.roots(tracer))
        inproc.report_layers(context, "cold round (set-up + first rankings)",
                             setups)
        inproc.report_layers(context, "warm query", ops)
        inproc.report_overhead(context, phases, "query")
        result.per_layer = layer_metrics(ops, setups,
                                         cache_delta(before, after))
    return result
