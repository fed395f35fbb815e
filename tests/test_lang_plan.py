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
from repro.lang.plan import PlanCompiler, _chain_cost, estimate, order_chain
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


def test_estimate_nnz_star_rule_and_chain_order():
    compiler = PlanCompiler()
    n = 100
    # Every row and column active: the uniform sparsity surrogate over n.
    leaf_stats = {
        name: (nnz, n, n)
        for name, nnz in {"a": 5000, "b": 5000, "c": 10, "s": 50}.items()
    }.__getitem__
    # Average degree 0.5 < 1: the geometric series n + nnz / (1 - d);
    # degree >= 1: dense.
    sparse_star = compiler.compile(parse_pattern("s*"))
    assert estimate(sparse_star, leaf_stats, n) == (100 + 50 / 0.5, n, n)
    dense_star = compiler.compile(parse_pattern("a*"))
    assert estimate(dense_star, leaf_stats, n).nnz == n * n
    # An unordered chain folds left to right: a.b saturates at n^2
    # before c thins it.  Ordered, it is read along the recorded split
    # a.(b.c), whose product saturates instead.
    chain = compiler.compile(parse_pattern("a.b.c"))
    assert estimate(chain, leaf_stats, n).nnz == 1000
    order_chain(chain, leaf_stats, n, compiler)
    assert (str(chain.left), str(chain.right)) == ("a", "b.c")
    assert estimate(chain, leaf_stats, n).nnz == n * n
    # The other rules keep the scalar estimate too.
    for text, nnz in (
        ("eps", n),
        ("c-", 10),
        ("<<s>>", 50),
        ("[a]", n),
        ("[c]", 10),
        ("c+s", 60),
        ("a+b", n * n),
        ("c&s", 10),
    ):
        plan = compiler.compile(parse_pattern(text))
        assert estimate(plan, leaf_stats, n) == (nnz, n, n), text


def _layered_engine():
    """10 sources each linked by ``a`` to the same 20 middles, and each
    middle by ``b`` to the same 5 targets, among 1,000 nodes."""
    database = GraphDatabase(Schema(["a", "b"]))
    for node in range(1000):
        database.add_node(node)
    database.add_edges(
        (source, "a", middle)
        for source in range(10)
        for middle in range(10, 30)
    )
    database.add_edges(
        (middle, "b", target)
        for middle in range(10, 30)
        for target in range(30, 35)
    )
    return CommutingMatrixEngine(database)


def test_estimate_passes_through_the_active_inner_dimension():
    engine = _layered_engine()
    view = engine.view
    assert view.label_stats("a") == (200, 10, 20)
    assert view.label_stats("b") == (100, 20, 5)
    # a.b meets only the 20 middles, not all 1,000 nodes: 200 * 100 /
    # 20 multiply-adds, capped at the 10 x 5 block a.b can fill.  Both
    # are exact on this uniform graph.
    pattern = parse_pattern("a.b")
    assert engine.matrix(pattern).nnz == 50
    plan = engine.compile(pattern)
    assert estimate(plan, view.label_stats, 1000) == (50, 10, 5)
    assert _chain_cost(plan, view.label_stats, 1000, {}) == 1000
    # A transpose swaps the active rows and columns; a nested node is a
    # diagonal over its child's active rows.
    reverse = engine.compile(parse_pattern("b-.a-"))
    assert estimate(reverse, view.label_stats, 1000) == (50, 5, 10)
    nested = engine.compile(parse_pattern("[a.b]"))
    assert estimate(nested, view.label_stats, 1000) == (10, 10, 10)


def test_estimate_caps_a_sum_and_a_closure_at_their_active_blocks():
    engine = _layered_engine()
    stats = engine.view.label_stats
    # A sum adds the active rows and columns of its summands ...
    union = engine.compile(parse_pattern("a+<<a>>"))
    assert estimate(union, stats, 1000) == (400, 20, 40)
    # ... capped at n, and holds at most the block they span: two
    # 90-entry 10 x 10 blocks among 12 nodes fill at most 12 x 12.
    compiler = PlanCompiler()
    blocks = {"d": (90, 10, 10), "e": (90, 10, 10)}.__getitem__
    assert estimate(compiler.compile(parse_pattern("d+e")), blocks, 12) == (
        144,
        12,
        12,
    )
    # (a.a-)*: the identity plus the 10 x 10 block of sources, not the
    # geometric series' 1000 + 100 / 0.9.
    star = engine.compile(parse_pattern("(a.a-)*"))
    assert estimate(star, stats, 1000) == (1100, 1000, 1000)


def test_view_statistics_are_counted_on_first_estimate_and_per_version():
    engine = _layered_engine()
    view = engine.view
    view.adjacency("a")
    assert view._stats == {}
    engine.explain([parse_pattern("a.b")])
    assert set(view._stats) == {"a", "b"}
    following, _ = view.apply_delta(edges_added=[(0, "a", 30)])
    assert following._stats == {}
    assert following.label_stats("a") == (201, 10, 21)
    assert view.label_stats("a") == (200, 10, 20)


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
