"""Plan compiler tests: canonical caching, CSE, and the naive oracle.

The load-bearing property: for ANY pattern AST, the canonical plan's
matrix is exactly equal (bitwise — counts are integers, float64-exact)
to the seed recursive evaluation ``naive_matrix``; when the naive
evaluation diverges (Kleene star over a cycle), the plan path raises
the same error.  Random patterns are generated over random DAGs so
plain label stars converge, but stars over diagonal-producing operands
([p], eps in a union, ...) still exercise the divergence path.
"""

import random

import numpy as np
import pytest

from repro.exceptions import StarDivergenceError

from repro.core import RelSim
from repro.datasets import generate_dblp
from repro.graph import GraphDatabase, Schema
from repro.lang import (
    CommutingMatrixEngine,
    canonicalize,
    naive_matrix,
    parse_pattern,
)
from repro.lang.ast import (
    Conj,
    EPSILON,
    Label,
    Nested,
    Reverse,
    Skip,
    Star,
    concat,
    union,
)
from repro.patterns.generator import generate_patterns


def same_matrix(a, b):
    return (a != b).nnz == 0


# ----------------------------------------------------------------------
# Random pattern generation over a DAG multigraph
# ----------------------------------------------------------------------
LABELS = ("a", "b", "c")


def dag_db(seed, num_nodes=12):
    """Random DAG (edges low -> high index): label stars converge."""
    rng = random.Random(seed)
    db = GraphDatabase(Schema(list(LABELS)))
    for _ in range(3 * num_nodes):
        u = rng.randrange(num_nodes - 1)
        v = rng.randrange(u + 1, num_nodes)
        db.add_edge(u, rng.choice(LABELS), v)
    return db


def random_pattern(rng, depth=3):
    if depth <= 0:
        return rng.choice(
            [Label("a"), Label("b"), Label("c"), Reverse(Label("a")), EPSILON]
        )
    roll = rng.random()
    if roll < 0.30:
        return concat(
            *[random_pattern(rng, depth - 1) for _ in range(rng.randint(2, 3))]
        )
    if roll < 0.45:
        return union(
            *[random_pattern(rng, depth - 1) for _ in range(rng.randint(2, 3))]
        )
    if roll < 0.55:
        return Reverse(random_pattern(rng, depth - 1))
    if roll < 0.65:
        return Skip(random_pattern(rng, depth - 1))
    if roll < 0.75:
        return Nested(random_pattern(rng, depth - 1))
    if roll < 0.82:
        return Star(random_pattern(rng, depth - 1))
    if roll < 0.90:
        return Conj(
            [random_pattern(rng, depth - 1) for _ in range(2)]
        )
    return random_pattern(rng, 0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_property_plan_matches_naive_on_random_patterns(seed):
    db = dag_db(seed)
    engine = CommutingMatrixEngine(db)
    rng = random.Random(1000 + seed)
    for _ in range(40):
        pattern = random_pattern(rng)
        try:
            naive = naive_matrix(engine.view, pattern)
        except StarDivergenceError:
            # A star whose operand matrix has a cycle (e.g. a diagonal
            # from a nested/eps sub-pattern) legitimately diverges; the
            # plan path must diverge identically, not truncate.
            with pytest.raises(StarDivergenceError):
                engine.matrix(pattern)
            continue
        planned = engine.matrix(pattern)
        assert same_matrix(planned, naive), str(pattern)


#: Meta-paths whose Algorithm-1 expansions RelSim serves: the shape of
#: the HTTP and live-update benchmarks, then the ad hoc query pool.
#: Their expansions hold nested nodes such as ``[p-in.[p-in-]]``.
EXPANDED_SHAPES = [
    "p-in-.r-a.r-a-.p-in",
    "w.w-",
    "p-in-.w-.w.p-in",
    "w.w-.w.w-",
    "p-in-.w-.w.w-.w.p-in",
    "r-a-.r-a",
    "w.p-in.p-in-.w-",
    "r-a-.w-.w.r-a",
    "r-a-.p-in.p-in-.r-a",
    "r-a-.r-a.r-a-.r-a",
    "r-a-.p-in.p-in-.p-in.p-in-.r-a",
    "r-a-.w-.w.w-.w.r-a",
]


def test_plan_matches_naive_bitwise_on_served_expansions():
    """Plan matrices equal the oracle's buffers, not just its values.

    The oracle's chain products come out with unsorted rows, so it is
    canonicalized before the comparison; everything else — indptr,
    indices, data and their dtypes — must match exactly.
    """
    database = generate_dblp(8, 60, 800, 400, seed=0).database
    engine = CommutingMatrixEngine(database)
    oracle_cache = {}
    nested = 0
    for text in EXPANDED_SHAPES:
        expansion = generate_patterns(
            parse_pattern(text), database.schema.constraints, max_patterns=16
        ).patterns
        for pattern in expansion:
            planned = engine.matrix(pattern)
            expected = naive_matrix(
                engine.view, pattern, cache=oracle_cache
            ).copy()
            expected.sum_duplicates()
            expected.eliminate_zeros()
            for name in ("indptr", "indices", "data"):
                actual, wanted = getattr(planned, name), getattr(expected, name)
                assert actual.dtype == wanted.dtype, (str(pattern), name)
                assert np.array_equal(actual, wanted), (str(pattern), name)
            nested += "[" in str(pattern)
    assert nested > 50


def test_skip_of_composite_is_not_collapsed(tiny_db):
    # canonicalize() keeps the count-preserving subset of simplify():
    # <<a.b>> genuinely booleanizes (node 1 reaches 4 via two a.b
    # paths), so it must stay a distinct plan from a.b.
    engine = CommutingMatrixEngine(tiny_db)
    counted = engine.matrix(parse_pattern("a.b"))
    skipped = engine.matrix(parse_pattern("<<a.b>>"))
    assert counted.max() > 1
    assert skipped.max() == 1
    assert not same_matrix(counted, skipped)
    assert same_matrix(
        skipped, naive_matrix(engine.view, parse_pattern("<<a.b>>"))
    )


# ----------------------------------------------------------------------
# Canonicalization: equivalent spellings share one cache entry
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "first, second",
    [
        ("(a.b).c", "a.(b.c)"),  # associativity
        ("(a.b)-", "b-.a-"),  # reverse pushed to leaves
        ("((a.b)-)-", "a.b"),  # double reversal
        ("a+b", "b+a"),  # union commutes
        ("a+b+a", "b+a"),  # union dedupe
        ("<<<<a.b>>>>", "<<a.b>>"),  # booleanizing twice
        ("eps.a.eps.b", "a.b"),  # epsilon units
        ("(a.b.c)-", "c-.b-.a-"),
        ("(b*)-", "(b-)*"),  # reverse through star (b is acyclic here)
        ("[a.b]-", "[a.b]"),  # nested is diagonal
    ],
)
def test_equivalent_spellings_hit_same_cache_entry(tiny_db, first, second):
    engine = CommutingMatrixEngine(tiny_db)
    m1 = engine.matrix(parse_pattern(first))
    info = engine.cache_info()
    m2 = engine.matrix(parse_pattern(second))
    after = engine.cache_info()
    assert m1 is m2
    assert after["hits"] == info["hits"] + 1
    assert after["misses"] == info["misses"]


def test_canonicalize_is_idempotent_and_type_checked():
    pattern = parse_pattern("((a.b)- + <<{0}>>).c*".format("<<a>>"))
    once = canonicalize(pattern)
    assert canonicalize(once) == once
    with pytest.raises(TypeError):
        canonicalize("a.b")


# ----------------------------------------------------------------------
# Cross-pattern CSE and cost-ordered chains
# ----------------------------------------------------------------------
def test_matrices_many_shares_prefix_across_patterns(tiny_db):
    engine = CommutingMatrixEngine(tiny_db)
    patterns = [parse_pattern("a.b.c"), parse_pattern("a.b.c-")]
    engine.matrices_many(patterns)
    # The shared prefix a.b must have been materialized once: asking for
    # it now is a pure cache hit.
    info = engine.cache_info()
    engine.matrix(parse_pattern("a.b"))
    after = engine.cache_info()
    assert after["hits"] == info["hits"] + 1
    assert after["misses"] == info["misses"]


def test_matrices_many_matches_naive_and_is_idempotent(tiny_db):
    engine = CommutingMatrixEngine(tiny_db)
    patterns = [
        parse_pattern(text)
        for text in ("a.b.c", "a.b.c-", "(a.b)-", "<<a.b>>.c", "a+b.c")
    ]
    first = engine.matrices_many(patterns)
    for pattern, matrix in zip(patterns, first):
        assert same_matrix(matrix, naive_matrix(engine.view, pattern))
    info = engine.cache_info()
    second = engine.matrices_many(patterns)
    after = engine.cache_info()
    assert all(a is b for a, b in zip(first, second))
    assert after["misses"] == info["misses"]


def test_materialize_builds_longer_chains_from_shorter(tiny_db):
    engine = CommutingMatrixEngine(tiny_db)
    cached = engine.materialize_simple_patterns(max_length=3, labels=["a", "b"])
    # 4 steps: 4 + 16 + 64 patterns; every length-3 chain splits into a
    # length-2 chain (already materialized) times a step, so the cache
    # holds exactly the enumerated patterns — no stray intermediates.
    assert cached == 4 + 16 + 64
    assert engine.cache_size() == cached


def test_chain_order_prefers_shared_prefix(tiny_db):
    # a.b appears in both chains (count >= 2), so the amortized DP cost
    # steers both splits through the shared boundary.
    engine = CommutingMatrixEngine(tiny_db)
    plans = engine.compiler.compile_many(
        [parse_pattern("a.b.c"), parse_pattern("a.b.c-")]
    )
    for plan in plans:
        engine._ensure_ordered(plan)
    assert plans[0].left is plans[1].left
    assert str(plans[0].left) == "a.b"


def test_raw_distinct_union_duplicates_are_summed(tiny_db):
    # The paper's dedup rule is *syntactic*: a-- + a keeps both
    # disjuncts in the recursive semantics (the ASTs differ), so the
    # canonical plan must sum M_a twice even though the disjuncts are
    # canonically equal.  Only a literal p+p collapses.
    engine = CommutingMatrixEngine(tiny_db)
    for text in ("a--+a", "<<<<a.b>>>>+<<a.b>>", "(b-.a-)+(a.b)-"):
        pattern = parse_pattern(text)
        assert same_matrix(
            engine.matrix(pattern), naive_matrix(engine.view, pattern)
        ), text


# ----------------------------------------------------------------------
# Plan-backed RelSim: rankings unchanged
# ----------------------------------------------------------------------
def test_relsim_rankings_match_dict_path_on_expanded_set(fig1):
    relsim = RelSim.from_simple_pattern(fig1, "p-in.p-in-", max_patterns=16)
    queries = [node for node in fig1.nodes_of_type("proc")][:6]
    fast = relsim.rank_many(queries, top_k=5)
    reference = relsim.rank_many_via_scores(queries, top_k=5)
    for query in queries:
        assert fast[query].items() == reference[query].items()


def test_relsim_scores_unchanged_by_plan_layer(fig1):
    # Scores must equal a from-scratch naive evaluation of each pattern.
    relsim = RelSim.from_simple_pattern(fig1, "p-in.p-in-", max_patterns=16)
    engine = relsim.engine
    for pattern in relsim.patterns:
        planned = engine.matrix(pattern)
        naive = naive_matrix(engine.view, pattern)
        assert same_matrix(planned, naive)


def test_relsim_respects_small_cache_cap(fig1):
    # With a budget smaller than the pattern set, the set is not warmed
    # (it would be evicted before use) and scoring computes each record
    # on use; results stay identical to the uncapped path.
    from repro.api import SimilaritySession

    patterns = ["p-in.p-in-", "p-in-.r-a", "p-in-.p-in", "p-in.p-in-.p-in.p-in-"]
    uncapped = SimilaritySession(fig1)
    queries = ["DataMining", "Databases"]
    b = uncapped.rank_many(queries, patterns=patterns, top_k=5)
    budget = uncapped.cache_info()["bytes"] // 8
    capped = SimilaritySession(fig1, memory_budget=budget)
    assert capped.engine.warm_exceeds_limits(
        [parse_pattern(text) for text in patterns]
    )
    a = capped.rank_many(queries, patterns=patterns, top_k=5)
    for query in queries:
        assert a[query].items() == b[query].items()
    assert capped.cache_info()["bytes"] <= budget


def test_compiler_prunes_singleton_subchain_counts(tiny_db):
    from repro.lang.plan import PlanCompiler

    compiler = PlanCompiler()
    compiler._MAX_SUBCHAIN_ENTRIES = 4
    compiler.compile(parse_pattern("a.b.c"))
    compiler.compile(parse_pattern("a.b.c-"))  # (a,b) reaches count 2
    compiler.compile(parse_pattern("b.c.a.b"))  # overflow: prune 1s
    assert len(compiler.subchain_uses) <= 4
    assert all(count > 1 for count in compiler.subchain_uses.values())


def test_compiler_pattern_memo_is_bounded(tiny_db):
    from repro.lang.ast import Label
    from repro.lang.plan import PlanCompiler

    compiler = PlanCompiler()
    compiler._MAX_PATTERN_MEMO = 3
    nodes = [compiler.compile(Label("a{}".format(i))) for i in range(10)]
    assert len(compiler._by_pattern) <= 3
    # Interning still canonicalizes across memo clears.
    assert compiler.compile(Label("a0")) is nodes[0]


# ----------------------------------------------------------------------
# Memory accounting
# ----------------------------------------------------------------------
def test_cache_info_reports_nnz_and_bytes(tiny_db):
    engine = CommutingMatrixEngine(tiny_db)
    assert engine.cache_info()["nnz"] == 0
    assert engine.cache_info()["bytes"] == 0
    matrix = engine.matrix(parse_pattern("a"))
    info = engine.cache_info()
    assert info["nnz"] == matrix.nnz
    expected = (
        matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    )
    assert info["bytes"] == expected
    engine.column_norms(parse_pattern("a"))
    assert engine.cache_info()["bytes"] > expected  # norms counted too
    engine.matrix(parse_pattern("a.b"))
    assert engine.cache_info()["nnz"] > info["nnz"]


def test_cache_info_shrinks_on_eviction(tiny_db):
    probe = CommutingMatrixEngine(tiny_db)
    sizes = []
    for text in ("a", "b"):
        before = probe.cache_info()["bytes"]
        probe.matrix(parse_pattern(text))
        sizes.append(probe.cache_info()["bytes"] - before)
    # Room for one of the two matrices, never both.
    engine = CommutingMatrixEngine(tiny_db, memory_budget=max(sizes))
    engine.matrix(parse_pattern("a"))
    engine.matrix(parse_pattern("b"))
    info = engine.cache_info()
    assert info["matrices"] == 1
    assert info["nnz"] == engine.matrix(parse_pattern("b")).nnz


# ----------------------------------------------------------------------
# Explain
# ----------------------------------------------------------------------
def test_engine_explain_mentions_canonical_order_and_sharing(tiny_db):
    engine = CommutingMatrixEngine(tiny_db)
    text = engine.explain(
        [parse_pattern("a.b.c"), parse_pattern("(a.b)-")]
    )
    assert "canonical: b-.a-" in text
    assert "order:" in text
    assert "shared sub-plans" in text
    assert "est nnz" in text


def test_explain_does_not_compute_products(tiny_db):
    engine = CommutingMatrixEngine(tiny_db)
    engine.explain([parse_pattern("a.b.c")])
    # Leaves may be touched for nnz estimates, but no product matrices
    # are cached by explain.
    assert engine.cache_size() == 0
