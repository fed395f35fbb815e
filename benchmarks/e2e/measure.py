"""Shared measurement helpers: percentiles, throughput, memory, draws.

Everything here is pure Python over recorded samples, so the harness
tests can exercise the statistics without running a workload.
"""

import bisect
import gc
import itertools
import math
import os
import platform


class WrongAnswer(Exception):
    """An output failed its correctness check; the run aborts."""


#: Percentiles considered for a latency summary, lowest first.
PERCENTILES = (50, 90, 99, 99.9)

#: A percentile is only "supported" by a sample when at least this many
#: samples lie beyond it (p90 needs 100 samples, p99 needs 1000).
TAIL_SAMPLES = 10


def percentile(samples, pct):
    """Nearest-rank percentile of ``samples`` (``pct`` in [0, 100])."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def supported(count, pct):
    """True when ``count`` samples leave ``TAIL_SAMPLES`` beyond ``pct``."""
    return count * (100.0 - pct) / 100.0 >= TAIL_SAMPLES


def summarize(samples):
    """``{"n", "p50", "p90", ..., "tail"}`` for a latency sample.

    Every percentile in :data:`PERCENTILES` that the sample supports is
    included, plus ``tail`` naming the highest supported one.  ``p50``
    and ``p90`` are always present, because every workload reports
    them; ``tail`` says whether the sample backs p90.
    """
    count = len(samples)
    summary = {"n": count, "tail": None}
    for pct in PERCENTILES:
        if pct in (50, 90) or supported(count, pct):
            summary["p{:g}".format(pct)] = percentile(samples, pct)
        if supported(count, pct):
            summary["tail"] = "p{:g}".format(pct)
    return summary


def rate(count, start, end):
    """``count`` completions over ``[start, end]``, per second.

    Taken over the whole measured interval: a shared virtual machine can
    change speed every few seconds, and a rate over the run moves
    smoothly with the share of time spent slow.
    """
    duration = end - start
    return count / duration if duration > 0 else 0.0


def median(values):
    values = sorted(values)
    if not values:
        raise ValueError("median of an empty sample")
    middle = len(values) // 2
    if len(values) % 2:
        return values[middle]
    return (values[middle - 1] + values[middle]) / 2.0


#: Exponent of every Zipf popularity profile in the benchmark.
ZIPF_EXPONENT = 1.0


class Zipf:
    """Seeded Zipf draws over a fixed popularity order.

    ``items[0]`` is the most popular; weights are
    ``rank ** -ZIPF_EXPONENT``.  The order is part of the workload
    definition, the random stream is the seed's, so two seeds draw
    different sequences from the same popularity profile.
    """

    def __init__(self, items, rng):
        if not items:
            raise ValueError("Zipf over an empty population")
        self.items = list(items)
        self._rng = rng
        self._cumulative = list(
            itertools.accumulate(
                (rank + 1) ** -ZIPF_EXPONENT for rank in range(len(self.items))
            )
        )

    def draw(self):
        point = self._rng.random() * self._cumulative[-1]
        index = bisect.bisect_right(self._cumulative, point)
        return self.items[min(index, len(self.items) - 1)]


def peak_rss_mib(pid="self"):
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open("/proc/{}/status".format(pid)) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/{}/status".format(pid))


def reset_peak_rss():
    """Start this process's ``VmHWM`` again from its current resident set.

    Called once the benchmark's own input generation and reference
    answers are done, so the peak read later is the serving work's.
    """
    gc.collect()
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def git_sha(root):
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def host_info(root):
    import numpy
    import scipy

    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(root),
    }
