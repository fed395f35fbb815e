"""Planner work: exact multiply-add counts of planned pattern sets.

Every sparse product the engine runs goes through
``repro.lang.matrix_semantics.csr_product``.  Wrapping it counts each
product's multiply-adds: for every entry of the left operand, the length
of the right operand's matching row.  The count does not depend on
threads or row blocks, so it gates the planner's chain orders exactly,
where a wall-clock ratio on a shared host cannot.
"""

import numpy as np
import pytest

import repro.lang.matrix_semantics as matrix_semantics
from repro.datasets import generate_dblp, generate_dblp_scale
from repro.lang import CommutingMatrixEngine, parse_pattern
from repro.lang.plan import render_order
from repro.patterns import generate_patterns


@pytest.fixture
def multiply_adds(monkeypatch):
    """``multiply_adds(run)``: the multiply-adds of ``run()``'s products."""
    total = 0
    product = matrix_semantics.csr_product

    def counting(left, right):
        nonlocal total
        total += int(np.diff(right.indptr)[left.indices].sum())
        return product(left, right)

    monkeypatch.setattr(matrix_semantics, "csr_product", counting)

    def measure(run):
        nonlocal total
        total = 0
        run()
        return total

    return measure


@pytest.fixture(scope="module")
def dblp():
    """The graph ``repro serve`` answers in the ``http-query`` and
    ``live-delta`` workloads, at seed 0."""
    return generate_dblp(
        num_areas=15, num_procs=120, num_papers=2000, num_authors=900, seed=0
    ).database


def _expansion(database, pattern, max_patterns):
    return list(
        generate_patterns(
            pattern, database.schema.constraints, max_patterns=max_patterns
        ).patterns
    )


def _warm(database, patterns):
    return lambda: CommutingMatrixEngine(database).matrices_many(patterns)


def test_served_set_takes_no_more_work_than_plain_chain_order(
    dblp, multiply_adds
):
    # The 16 expansions of p-in-.r-a.r-a-.p-in that the served RelSim
    # query sums.  Ordered without sub-chain amortization they take
    # 172,778 multiply-adds.  Costing every product over all |V| nodes,
    # the planner read <<p-in-.r-a>>.r-a- (venues x papers through 15
    # areas) as ~335 nonzeros, reused it and took 909,041.
    patterns = _expansion(dblp, "p-in-.r-a.r-a-.p-in", 16)
    assert len(patterns) == 16
    assert multiply_adds(_warm(dblp, patterns)) <= 172_778


def test_shared_sub_chains_keep_their_saving(dblp, multiply_adds):
    # benchmarks/bench_plan_compiler.py's set: amortizing shared
    # sub-chains took 792,705 multiply-adds over all |V| nodes, against
    # 4,737,239 without it.
    patterns = _expansion(dblp, "r-a-.p-in.p-in-.r-a", 64)
    assert multiply_adds(_warm(dblp, patterns)) <= 1.1 * 792_705


def test_scale_shapes_keep_their_orders(multiply_adds):
    database = generate_dblp_scale(10**5, seed=0).database
    engine = CommutingMatrixEngine(database)
    orders = []

    def run():
        for text in ("w-.w", "w-.w.w-.w", "w-.w.p-in"):
            pattern = parse_pattern(text)
            engine.matrices_many([pattern])
            orders.append(render_order(engine.compile(pattern)))

    assert multiply_adds(run) == 1_787_901
    assert orders == ["(w-.w)", "((w-.w).(w-.w))", "((w-.w).p-in)"]
