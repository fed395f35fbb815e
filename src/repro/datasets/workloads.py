"""Query workload sampling.

The paper samples query workloads "randomly ... based on their node
degrees" — high-degree entities are more likely queries, mirroring how
users mostly ask about prominent venues, courses or diseases.
"""

import random

from repro.graph.statistics import _degrees


def _candidates(database, node_type):
    """``(node, degree)`` for the nodes of ``node_type`` with positive
    degree, in insertion order; every degree is taken in one pass."""
    return [
        (node, degree)
        for node, degree in zip(database.nodes(), _degrees(database))
        if degree > 0 and database.node_type(node) == node_type
    ]


def sample_queries_by_degree(database, node_type, count, seed=0):
    """Sample ``count`` distinct nodes of ``node_type``, degree-weighted.

    Nodes with zero degree are never sampled (a similarity query on an
    isolated node has no meaningful answers).  If fewer than ``count``
    candidates exist, all of them are returned (deterministic order).
    """
    candidates = _candidates(database, node_type)
    if len(candidates) <= count:
        return sorted(node for node, _ in candidates)
    rng = random.Random(seed)
    chosen = []
    pool = [node for node, _ in candidates]
    weights = [float(degree) for _, degree in candidates]
    for _ in range(count):
        index = rng.choices(range(len(pool)), weights=weights, k=1)[0]
        chosen.append(pool.pop(index))
        weights.pop(index)
    return chosen


def uniform_queries(database, node_type, count, seed=0):
    """Uniformly sampled distinct queries of one node type."""
    candidates = [node for node, _ in _candidates(database, node_type)]
    if len(candidates) <= count:
        return sorted(candidates)
    rng = random.Random(seed)
    return rng.sample(candidates, count)
