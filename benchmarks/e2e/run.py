"""End-to-end benchmark: one workload per run, in a fresh process.

Usage, from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload NAME --seed N \\
        [--seconds S] [--trace 0|1] [--out RECORD.json]

Workloads: ``http-query``, ``scale-1e6``, ``live-delta``,
``adhoc-budget`` (see ``README.md`` in this directory for what each
stresses and why).  Every input is generated from ``--seed``; every
answer is checked; the run measures for ``--seconds``.

Human-readable lines come first (host, sample counts, diagnostics,
with ``--trace 1`` the per-layer tables); the last line of standard
output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

with every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``), each ``{"value": ..., "unit": ...}``.  ``--out``
additionally writes the full record (workload, seed, host,
diagnostics) for ``compare.py``.  Exit status is 0 when every answer
was correct, 1 when one was wrong, 2 when the program is missing.
"""

import argparse
import json
import os
import shutil
import sys
import time

from metrics import DIAGNOSTIC, END_TO_END, PER_LAYER, Result

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("http-query", "scale-1e6", "live-delta", "adhoc-budget")


class Context:
    """What a workload receives: its seed, run length, and a work directory."""

    def __init__(self, workload, seed, seconds, trace, work_dir):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work_dir = work_dir
        self.src = SRC

    def log(self, text=""):
        print(text, flush=True)


def _print_header(context, host):
    context.log("workload: {}  seed: {}  seconds: {}  trace: {}".format(
        context.workload, context.seed, context.seconds, context.trace
    ))
    context.log("host: {} usable cores, python {}, numpy {}, scipy {}, "
                "git {}".format(host["usable_cores"], host["python"],
                                host["numpy"], host["scipy"],
                                host["git_sha"]))


def _metric_block(values, units):
    return {
        name: {"value": values[name], "unit": units[name]} for name in units
    }


def _run_workload(context):
    if context.workload == "http-query":
        import wl_http as module
    elif context.workload == "scale-1e6":
        import wl_scale as module
    elif context.workload == "live-delta":
        import wl_delta as module
    else:
        import wl_adhoc as module
    return module.run(context)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="also write the full run record here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("error: the program is missing: no package at {}".format(
            os.path.join(SRC, "repro")), file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import measure

    work_dir = os.path.join(
        ROOT, ".bench_work", "{}-{}".format(args.workload, os.getpid())
    )
    os.makedirs(work_dir)
    context = Context(args.workload, args.seed, args.seconds,
                      bool(args.trace), work_dir)
    host = measure.host_info(ROOT)
    _print_header(context, host)
    started = time.monotonic()
    correct = True
    try:
        result = _run_workload(context)
    except measure.WrongAnswer as error:
        context.log("WRONG ANSWER: {}".format(error))
        correct = False
        result = Result()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass

    result.diagnostics["failed_frac"] = (
        result.failed / result.attempted if result.attempted else 0.0)
    for name in sorted(result.diagnostics):
        context.log("diagnostic {} = {} {}".format(
            name, result.diagnostics[name], DIAGNOSTIC.get(name, "")).rstrip())
    context.log("wall {:.1f} s".format(time.monotonic() - started))
    if correct:
        units = PER_LAYER if context.trace else END_TO_END
        values = result.per_layer if context.trace else result.end_to_end
        metrics = _metric_block(values, units)
    else:
        metrics = {}
    attempted = max(result.attempted, 1)
    record = {
        "correct": correct,
        "attempted": attempted,
        "failed": result.failed,
        "metrics": metrics,
    }
    if args.out:
        full = dict(record, workload=args.workload, seed=args.seed,
                    seconds=args.seconds, trace=args.trace, host=host,
                    diagnostics=result.diagnostics)
        with open(args.out, "w") as handle:
            json.dump(full, handle, indent=1)
    print(json.dumps(record), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
