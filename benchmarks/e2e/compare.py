"""Compare two sets of benchmark runs metric by metric.

Usage::

    python3 benchmarks/e2e/compare.py 'A/*.json' 'B/*.json'

Each argument is a quoted glob matching the run records (the JSON files
``run.py --out`` writes) of one set: ``A`` the base, ``B`` the new.  For every (workload, metric) it prints each set's median and quartiles
and a verdict against the bound in ``BENCHMARK.json``:

* ``REGRESSION`` — the new median is worse than the base's by more than the
  bound;
* ``unresolved`` — a set's quartile spread is wider than the bound, so
  the medians cannot show a change of that size (unless every new run
  beats every base run, which is reported as ``better``);
* ``better`` / ``ok`` — improved by more than the bound / within it.

Per-layer metrics and diagnostics have no bound and are listed with
their change only.  Exits 1 on any regression or incorrect run, else 0.
"""

import glob
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load_records(pattern):
    """The run records whose paths match the glob ``pattern``."""
    records = []
    for path in sorted(glob.glob(pattern)):
        with open(path) as handle:
            records.append(json.load(handle))
    if not records:
        raise SystemExit("no run records match {!r}".format(pattern))
    return records


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(base, new, bound, better):
    """One of ``REGRESSION`` / ``unresolved`` / ``better`` / ``ok``."""
    sign = 1.0 if better == "lower" else -1.0
    base_median, new_median = quartiles(base)[1], quartiles(new)[1]
    change = (new_median - base_median) / abs(base_median) if base_median \
        else 0.0
    worse_by = sign * change
    if max(spread(base), spread(new)) > bound:
        every_run_better = (max(new) < min(base) if better == "lower"
                            else min(new) > max(base))
        return "better" if every_run_better else "unresolved"
    if worse_by > bound:
        return "REGRESSION"
    if -worse_by > bound:
        return "better"
    return "ok"


def _values(records):
    """``{(workload, kind, metric): [values]}`` over a record set."""
    table = defaultdict(list)
    for record in records:
        kind = "layer" if record.get("trace") else "e2e"
        for name, entry in record.get("metrics", {}).items():
            table[record["workload"], kind, name].append(entry["value"])
        for name, value in record.get("diagnostics", {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                table[record["workload"], "diagnostic", name].append(value)
    return table


def _cell(values):
    q1, q2, q3 = quartiles(values)
    return "{:.4g} [{:.4g}, {:.4g}] n={}".format(q2, q1, q3, len(values))


def compare(base_records, new_records, spec):
    """Print the comparison table; returns the number of regressions."""
    gated = {entry["name"]: entry for entry in spec["end_to_end"]}
    base, new = _values(base_records), _values(new_records)
    problems = 0
    for records, label in ((base_records, "BASE"), (new_records, "NEW")):
        for record in records:
            if not record.get("correct"):
                print("{}: incorrect run of {} seed {}".format(
                    label, record["workload"], record["seed"]))
                problems += 1
    print("{:<14s} {:<10s} {:<24s} {:<36s} {:<36s} {:>8s}  {}".format(
        "workload", "kind", "metric", "base median [q1, q3]",
        "new median [q1, q3]", "change", "verdict"))
    for key in sorted(set(base) & set(new)):
        workload, kind, name = key
        old, current = base[key], new[key]
        middle = quartiles(old)[1]
        change = (quartiles(current)[1] - middle) / abs(middle) if middle \
            else 0.0
        result = ""
        if kind == "e2e" and name in gated:
            entry = gated[name]
            result = verdict(old, current, entry["bound"], entry["better"])
            problems += result == "REGRESSION"
        print("{:<14s} {:<10s} {:<24s} {:<36s} {:<36s} {:>+7.1%}  {}".format(
            workload, kind, name, _cell(old), _cell(current), change, result))
    return problems


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems = compare(load_records(argv[0]), load_records(argv[1]), spec)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
