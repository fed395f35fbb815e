"""Descriptive statistics of a graph database.

Used by the examples and the CLI (``repro stats``) to report dataset
shapes the way the paper does ("DBLP consists of 1,227,602 nodes and
2,692,679 edges ...") plus the degree-distribution facts that matter for
degree-weighted query sampling.
"""

from collections import Counter

import numpy as np

from repro.graph.matrices import MatrixView


def label_histogram(database):
    """``{label: edge count}`` over labels that actually occur."""
    histogram = Counter()
    for _, label, _ in database.edges():
        histogram[label] += 1
    return dict(histogram)


def node_type_histogram(database):
    """``{node_type: node count}``; untyped nodes appear under ``None``."""
    histogram = Counter()
    for node in database.nodes():
        histogram[database.node_type(node)] += 1
    return dict(histogram)


def _degrees(database):
    """Every node's total degree (in + out, all labels), in node order.

    One pass: the row sums of the symmetric combined adjacency, where
    each label of a parallel edge counts once and a self-loop twice —
    the values :meth:`GraphDatabase.degree
    <repro.graph.database.GraphDatabase.degree>` returns per node.
    """
    combined = MatrixView(database).combined_adjacency(symmetric=True)
    sums = np.asarray(combined.sum(axis=1)).ravel()
    return sums.astype(np.int64).tolist()


def degree_statistics(database):
    """Min/mean/max/isolated-count over total node degree."""
    degrees = _degrees(database)
    if not degrees:
        return {"min": 0, "mean": 0.0, "max": 0, "isolated": 0}
    return {
        "min": min(degrees),
        "mean": sum(degrees) / len(degrees),
        "max": max(degrees),
        "isolated": sum(1 for d in degrees if d == 0),
    }


def degree_distribution(database, buckets=(1, 2, 4, 8, 16, 32, 64)):
    """Counts of nodes per degree bucket.

    ``buckets`` are ascending lower bounds; a node lands in the bucket
    with the largest bound not exceeding its degree (the last bucket is
    open-ended).  Returns an ordered ``[(lower_bound, count), ...]``
    starting with a ``(0, isolated)`` entry.
    """
    counts = {bound: 0 for bound in buckets}
    isolated = 0
    for degree in _degrees(database):
        if degree == 0:
            isolated += 1
            continue
        eligible = [bound for bound in buckets if bound <= degree]
        # Degrees below the first bound are counted in the first bucket.
        counts[max(eligible) if eligible else buckets[0]] += 1
    return [(0, isolated)] + [(bound, counts[bound]) for bound in buckets]


def summarize(database, name=""):
    """A multi-line, paper-style summary string."""
    stats = degree_statistics(database)
    lines = []
    title = name or "database"
    lines.append(
        "{}: {} nodes, {} edges".format(
            title, database.num_nodes(), database.num_edges()
        )
    )
    lines.append(
        "degree: min={min} mean={mean:.2f} max={max} isolated={isolated}".format(
            **stats
        )
    )
    types = node_type_histogram(database)
    if types and set(types) != {None}:
        lines.append("node types:")
        for node_type in sorted(types, key=str):
            lines.append(
                "  {:<20s} {}".format(str(node_type), types[node_type])
            )
    lines.append("edge labels:")
    labels = label_histogram(database)
    for label in sorted(labels):
        lines.append("  {:<20s} {}".format(label, labels[label]))
    return "\n".join(lines)
