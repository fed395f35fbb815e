"""Fast checks of the benchmark harness itself.

The only workload run is ``live-delta`` on a database of a few hundred
edges, for a fraction of a second.
"""

import asyncio
import json
import os
import re
import sys
import types

import compare
import loadgen
import measure
import metrics
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


# ----------------------------------------------------------------------
# Percentiles and sample counts
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert measure.percentile(samples, 50) == 50
    assert measure.percentile(samples, 90) == 90
    assert measure.percentile(samples, 100) == 100
    assert measure.percentile([7.0], 99) == 7.0


def test_a_percentile_needs_ten_samples_beyond_it():
    assert measure.supported(100, 90)
    assert not measure.supported(99, 90)
    assert measure.supported(1000, 99)
    assert not measure.supported(999, 99)


def test_summary_reports_the_highest_supported_percentile():
    small = measure.summarize([float(value) for value in range(50)])
    assert small["n"] == 50
    assert small["tail"] == "p50"
    assert "p90" in small
    assert "p99" not in small
    large = measure.summarize([float(value) for value in range(1000)])
    assert large["tail"] == "p99"
    assert large["p99"] == 989.0


# ----------------------------------------------------------------------
# Span self time
# ----------------------------------------------------------------------
def _span(id, parent, start, end, name="layer"):
    return tracing.Span(id, parent, name, start, end)


def test_self_time_subtracts_nested_and_overlapping_children():
    spans = [
        _span(1, None, 0.0, 10.0, "root"),
        _span(2, 1, 1.0, 4.0, "a"),
        _span(3, 1, 3.0, 6.0, "b"),     # overlaps a: [1, 6] covered once
        _span(4, 1, 8.0, 12.0, "c"),    # runs past the root: clipped
        _span(5, 2, 2.0, 3.0, "d"),     # nested under a
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == 10.0 - 5.0 - 2.0
    assert selfs[2] == 3.0 - 1.0
    assert selfs[3] == 3.0
    assert selfs[5] == 1.0


def test_breakdown_sums_self_time_per_root():
    spans = [
        _span(1, None, 0.0, 0.010, "bench.op"),
        _span(2, 1, 0.001, 0.009, "prepared.run"),
        _span(3, 2, 0.002, 0.006, "similarity.score_rows"),
        _span(4, None, 1.0, 1.004, "bench.op"),
        _span(5, 4, 1.001, 1.003, "prepared.run"),
    ]
    result = tracing.breakdown(spans, [spans[0], spans[3]])
    assert result.roots == 2
    assert abs(result.per_root_ms("similarity.score_rows") - 2.0) < 1e-9
    assert abs(result.per_root_ms("prepared.run") - 3.0) < 1e-9
    assert abs(result.per_root_ms("prepared.run", inclusive=True) - 5.0) \
        < 1e-9
    layers = ["prepared.run", "similarity.score_rows"]
    assert abs(result.coverage(layers) - 10.0 / 14.0) < 1e-9


# ----------------------------------------------------------------------
# Open-loop accounting
# ----------------------------------------------------------------------
async def _stub_server(stall_on, stall_seconds):
    """Answers ``POST /query`` at once, except request ``stall_on``."""
    served = {"count": 0}

    async def handle(reader, writer):
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = 0
                for line in head.decode("latin-1").split("\r\n"):
                    name, _, value = line.partition(":")
                    if name.lower() == "content-length":
                        length = int(value)
                await reader.readexactly(length)
                served["count"] += 1
                if served["count"] == stall_on:
                    await asyncio.sleep(stall_seconds)
                body = b'{"ranking": []}'
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: "
                             + str(len(body)).encode() + b"\r\n\r\n" + body)
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[:2]


def test_open_loop_charges_a_stall_to_the_requests_behind_it():
    stall = 0.05

    async def scenario():
        server, address = await _stub_server(stall_on=3, stall_seconds=stall)
        try:
            return await loadgen.open_loop(
                address, connections=1, rate=200, seconds=0.1,
                next_node=lambda: "proc:0",
            )
        finally:
            server.close()
            await server.wait_closed()

    records = asyncio.run(scenario())
    assert len(records) == 20 and all(record.ok for record in records)
    stalled = records[2]
    assert stalled.latency >= stall
    # Requests due while the only connection was stuck waited for it;
    # their latency, timed from the due time, includes that wait.
    behind = [record for record in records[3:]
              if record.due < stalled.done]
    assert behind
    for record in behind:
        assert record.latency >= stalled.done - record.due
        assert record.sent >= stalled.done
    # The generator itself dispatched on time (lateness is reported
    # separately from the queueing a stall causes).
    assert all(record.late < stall / 2 for record in records)
    assert max(record.late for record in records) >= 0.0


# ----------------------------------------------------------------------
# Trace wrappers
# ----------------------------------------------------------------------
def _target_state():
    """Every attribute the wrappers touch, as ``(owner, name) -> value``."""
    import importlib

    state = {}
    for module_name, attribute, _, _ in tracing.TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, member = attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            state[owner, member] = vars(owner).get(member, "<inherited>")
            continue
        original = getattr(module, member)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if namespace is not None and namespace.get(member) is original:
                state[loaded, member] = original
    return state


def test_trace_wrappers_record_spans_and_restore_every_attribute():
    from repro.lang import parse_pattern as exported

    before = _target_state()
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        from repro.lang import parse_pattern

        assert parse_pattern is not exported
        parse_pattern("w.w-")
    finally:
        patches.restore()
    assert [span.name for span in tracer.spans] == ["parser.parse"]
    after = _target_state()
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, key


# ----------------------------------------------------------------------
# Peak memory
# ----------------------------------------------------------------------
def test_reset_peak_rss_forgets_an_earlier_peak():
    block = bytearray(64 * 1024 * 1024)
    block[::4096] = b"x" * len(block[::4096])
    del block
    before = measure.peak_rss_mib()
    measure.reset_peak_rss()
    assert measure.peak_rss_mib() < before - 32


def test_live_delta_reads_its_peak_before_checking_answers(monkeypatch):
    import wl_delta

    events = []
    peak, check = measure.peak_rss_mib, wl_delta._check

    def recorded_peak(*args):
        events.append("peak")
        return peak(*args)

    def recorded_check(*args, **kwargs):
        events.append("check")
        return check(*args, **kwargs)

    monkeypatch.setattr(measure, "peak_rss_mib", recorded_peak)
    monkeypatch.setattr(wl_delta, "_check", recorded_check)
    monkeypatch.setattr(wl_delta, "DATASET", {
        "num_areas": 4, "num_procs": 12, "num_papers": 150,
        "num_authors": 80})
    context = types.SimpleNamespace(seed=0, seconds=0.2, trace=False,
                                    log=lambda text="": None)
    result = wl_delta.run(context)
    assert events.index("peak") < events.index("check")
    assert result.diagnostics["rss_peak_mib"] > 0


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_names_are_well_formed():
    spec = _spec()
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert len(names) == len(set(names))


def test_benchmark_json_matches_the_harness():
    spec = _spec()
    assert {entry["name"]: entry["unit"] for entry in spec["end_to_end"]} \
        == metrics.END_TO_END
    assert {entry["name"]: entry["unit"] for entry in spec["per_layer"]} \
        == metrics.PER_LAYER
    assert [entry["name"] for entry in spec["workloads"]] == [
        "http-query", "scale-1e6", "live-delta", "adhoc-budget"]
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    # Set-up time must stay gated even though it cannot hold 10%, so it
    # alone may take the widest bound allowed.
    assert bounds["setup_s"] == max(bounds.values())
    assert 0 < bounds.pop("setup_s") <= 0.25
    assert all(0 < bound <= 0.10 for bound in bounds.values())


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(base, [10.05, 10.0, 9.95], 0.1, "lower") == "ok"
    assert compare.verdict(base, [12.0, 12.1, 11.9], 0.1, "lower") \
        == "REGRESSION"
    assert compare.verdict(base, [12.0, 12.1, 11.9], 0.1, "higher") \
        == "better"
    noisy = [5.0, 10.0, 15.0, 20.0]
    assert compare.verdict(noisy, [10.0, 11.0], 0.1, "lower") == "unresolved"
    assert compare.verdict(noisy, [1.0, 2.0], 0.1, "lower") == "better"
