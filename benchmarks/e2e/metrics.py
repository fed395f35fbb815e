"""The benchmark's metric tables and the per-layer value assembly.

``BENCHMARK.json`` at the repository root must list exactly these
names and units (``test_harness.py`` checks that it does).
"""

#: Gated end-to-end metrics (``--trace 0``): name -> unit.  One set
#: applies to every workload, so a metric is gated only when it holds a
#: 10% bound on all four.  ``query_p50_ms``, ``query_p90_ms``, ``qps``
#: and ``rss_peak_mib`` do not (README.md gives the measured spreads)
#: and are diagnostics.
END_TO_END = {
    "setup_s": "s",
}

#: End-to-end metrics printed and recorded as diagnostics: name -> unit.
#: The rest are the ones only some workloads have.
DIAGNOSTIC = {
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "query_p99_ms": "ms",
    "qps": "1/s",
    "rss_peak_mib": "MiB",
    "loaded_p50_ms": "ms",
    "loaded_p90_ms": "ms",
    "cold_first_ms": "ms",
    "apply_p50_ms": "ms",
    "apply_p90_ms": "ms",
    "bulk_apply_ms": "ms",
    "pathsim_p50_ms": "ms",
    "pathsim_p90_ms": "ms",
    "failed_frac": "ratio",
}

#: Per-layer metrics (``--trace 1``): name -> unit.  Times are self
#: times in ms per measured operation, except ``snapshot.load_ms`` and
#: ``view.adjacency_ms``, which are per set-up.
PER_LAYER = {
    "server.request_ms": "ms",
    "server.protocol_ms": "ms",
    "batching.wait_ms": "ms",
    "batching.batch_size": "count",
    "snapshot.load_ms": "ms",
    "prepared.run_ms": "ms",
    "prepared.other_ms": "ms",
    "similarity.score_rows_ms": "ms",
    "similarity.row_bytes": "B",
    "similarity.topk_ms": "ms",
    "parser.parse_ms": "ms",
    "patterns.expand_ms": "ms",
    "typecheck.check_ms": "ms",
    "plan.compile_ms": "ms",
    "engine.matrices_ms": "ms",
    "engine.vectors_ms": "ms",
    "engine.hit_ratio": "ratio",
    "engine.spilled": "count",
    "engine.streamed": "count",
    "engine.cache_mib": "MiB",
    "view.adjacency_ms": "ms",
    "prepared.bind_ms": "ms",
    "database.copy_ms": "ms",
    "engine.fork_ms": "ms",
    "engine.apply_delta_ms": "ms",
    "view.apply_delta_ms": "ms",
    "engine.patched": "count",
    "streaming.on_publish_ms": "ms",
    "streaming.pruned_ratio": "ratio",
    "streaming.fallbacks": "count",
    "service.rebuild_ms": "ms",
}

#: Per-operation self-time layers read straight off the op breakdown:
#: metric -> span name (see ``tracing.TARGETS``).
SELF_LAYERS = {
    "prepared.other_ms": "prepared.run",
    "similarity.score_rows_ms": "similarity.score_rows",
    "similarity.topk_ms": "similarity.topk",
    "parser.parse_ms": "parser.parse",
    "patterns.expand_ms": "patterns.expand",
    "typecheck.check_ms": "typecheck.check",
    "plan.compile_ms": "plan.compile",
    "engine.matrices_ms": "engine.matrices",
    "engine.vectors_ms": "engine.vectors",
    "prepared.bind_ms": "prepared.bind",
    "database.copy_ms": "database.copy",
    "engine.fork_ms": "engine.fork",
    "engine.apply_delta_ms": "engine.apply_delta",
    "view.apply_delta_ms": "view.apply_delta",
    "streaming.on_publish_ms": "streaming.on_publish",
}


class Result:
    """What a workload reports back."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.end_to_end = {}
        self.per_layer = {}
        self.diagnostics = {}


def cache_delta(before, after):
    """Counter deltas between two ``cache_info()`` dicts.

    A full rebuild starts a new engine whose counters begin at zero; a
    counter that went down is read from ``after`` alone.
    """
    delta = {}
    for key in ("hits", "misses", "spilled", "streamed", "patched"):
        old, new = before.get(key) or 0, after.get(key) or 0
        delta[key] = new - old if new >= old else new
    delta["bytes"] = after.get("bytes") or 0
    return delta


def layer_metrics(ops, setups, cache, extra=None):
    """The ``PER_LAYER`` values from breakdowns and cache counters.

    ``ops`` and ``setups`` are :class:`tracing.Breakdown` objects over
    the measured operations and the set-ups; ``cache`` is a
    :func:`cache_delta` over the measured phase.  Layers a workload
    never reaches read 0.  ``extra`` holds values only one workload can
    compute (the server and delta layers) and overrides the rest.
    """
    values = {name: 0.0 for name in PER_LAYER}
    for metric, span in SELF_LAYERS.items():
        values[metric] = ops.per_root_ms(span)
    values["prepared.run_ms"] = ops.per_root_ms("prepared.run", inclusive=True)
    if ops.roots:
        values["similarity.row_bytes"] = (
            ops.attrs["similarity.score_rows"].get("bytes", 0.0) / ops.roots
        )
    values["snapshot.load_ms"] = setups.per_root_ms("snapshot.load")
    values["view.adjacency_ms"] = setups.per_root_ms("view.adjacency")
    lookups = cache["hits"] + cache["misses"]
    values["engine.hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    values["engine.spilled"] = float(cache["spilled"])
    values["engine.streamed"] = float(cache["streamed"])
    values["engine.cache_mib"] = cache["bytes"] / (1024.0 * 1024.0)
    values.update(extra or {})
    return values
