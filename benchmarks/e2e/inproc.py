"""The measured loop shared by the in-process workloads.

An operation is a callable returning its kind (``"query"``,
``"write"``, ...).  :func:`run_phase` calls it until the time is up,
recording each call's start and end; under a tracer every call is one
``bench.op`` root span, so the per-layer breakdown of a kind is the
breakdown of its roots.

With ``--trace 1`` a workload measures half its time untraced and half
traced (:func:`measured_phases`): the traced half gives the layers, the
difference between the halves' mean latencies is the tracing overhead.

Set-ups are timed with :func:`time_setups`, half of them before the
measured phase and half after it.  A shared virtual machine can change
speed by up to 1.6x for seconds at a time; set-ups of a few
milliseconds all taken at once would give the speed of one moment, two
groups about a run apart give two.
"""

import contextlib
import gc
import time

import measure
import tracing

clock = time.monotonic


class Phase:
    """Operations of one measured phase: ``(kind, start, end)`` each.

    ``peak_rss_mib`` is the process's ``VmHWM`` read the moment the
    phase ends, before any answer check can allocate.
    """

    def __init__(self, records, start, end, failures, peak_rss_mib):
        self.records = records
        self.start = start
        self.end = end
        self.failures = failures
        self.peak_rss_mib = peak_rss_mib

    def latencies_ms(self, kind):
        return [1000.0 * (end - begin)
                for k, begin, end in self.records if k == kind]

    def qps(self):
        completed = len(self.records) - self.failures
        return measure.rate(completed, self.start, self.end)

    def mean_ms(self, kind):
        values = self.latencies_ms(kind)
        return sum(values) / len(values) if values else 0.0


def run_phase(seconds, op, tracer=None):
    """Call ``op`` back to back for ``seconds``; a :class:`Phase`.

    An operation that raises is counted as failed — except a wrong
    answer, which aborts the run.
    """
    records = []
    failures = 0
    start = clock()
    deadline = start + seconds
    while True:
        begin = clock()
        if begin >= deadline:
            break
        try:
            if tracer is None:
                kind = op()
            else:
                with tracer.span("bench.op", request=len(records)) as span:
                    kind = op()
                    span.attrs["kind"] = kind
        except measure.WrongAnswer:
            raise
        except Exception:
            failures += 1
            kind = "failed"
        end = clock()
        records.append((kind, begin, end))
    return Phase(records, start, clock(), failures, measure.peak_rss_mib())


@contextlib.contextmanager
def tracing_on(tracer):
    """Install the trace wrappers for the block (no-op without a tracer)."""
    if tracer is None:
        yield
        return
    patches = tracing.install(tracer)
    try:
        yield
    finally:
        patches.restore()


def span(tracer, name):
    """A root span under ``tracer``, or nothing without one."""
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def time_setups(tracer, count, setup, release=None):
    """``count`` timed calls of ``setup``: ``(seconds each, last result)``.

    Each call runs under a ``bench.setup`` root span, after ``release``
    of the previous call's result and a full garbage collection, both
    outside the timing: a set-up starts from a heap free of its
    predecessors' garbage, as in a freshly started program.
    """
    seconds, state = [], None
    for _ in range(count):
        if state is not None and release is not None:
            release(state)
        state = None
        gc.collect()
        with tracing_on(tracer), span(tracer, "bench.setup"):
            start = clock()
            state = setup()
            seconds.append(clock() - start)
    return seconds, state


def measured_phases(context, op, tracer=None):
    """``[untraced phase]`` or, when tracing, ``[untraced, traced]``."""
    if tracer is None:
        return [run_phase(context.seconds, op)]
    half = context.seconds / 2.0
    plain = run_phase(half, op)
    with tracing_on(tracer):
        traced = run_phase(half, op, tracer=tracer)
    return [plain, traced]


def roots(tracer, kinds=None, name="bench.op"):
    """Root spans of ``name`` (optionally only the given ``kinds``)."""
    return [
        span for span in tracer.spans
        if span.name == name and span.parent is None
        and (kinds is None or span.attrs.get("kind") in kinds)
    ]


def report_overhead(context, phases, kind):
    """Print traced minus untraced mean latency for one operation kind."""
    if len(phases) < 2:
        return
    plain, traced = phases[0].mean_ms(kind), phases[1].mean_ms(kind)
    context.log("trace overhead ({}): traced {:.4f} ms - untraced {:.4f} ms "
                "= {:+.4f} ms per op".format(kind, traced, plain,
                                             traced - plain))


def report_layers(context, title, breakdown):
    """Print a per-layer table with its coverage of the root time."""
    layers = [name for name in breakdown.self_s
              if not name.startswith("bench.")]
    context.log(tracing.format_breakdown(title, breakdown, skip=tuple(
        name for name in breakdown.self_s if name.startswith("bench."))))
    context.log("  coverage: layer self times sum to {:.1%} of the mean "
                "traced latency".format(breakdown.coverage(layers)))
