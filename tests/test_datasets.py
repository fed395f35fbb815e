"""Tests for the synthetic dataset generators and workload samplers."""

import random

import pytest

from repro.datasets import (
    figure1_dblp,
    generate_biomed,
    generate_biomed_small,
    generate_dblp,
    generate_mas,
    generate_wsu,
    sample_queries_by_degree,
    uniform_queries,
)
from repro.datasets.synthetic import SeededGenerator


# ----------------------------------------------------------------------
# Determinism and sizing
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "factory",
    [generate_dblp, generate_wsu, generate_biomed_small, generate_mas],
)
def test_generators_deterministic(factory):
    first = factory(seed=5).database
    second = factory(seed=5).database
    assert first.same_content(second)


@pytest.mark.parametrize(
    "factory",
    [generate_dblp, generate_wsu, generate_biomed_small, generate_mas],
)
def test_generators_seed_sensitive(factory):
    assert not factory(seed=1).database.same_content(factory(seed=2).database)


def test_dblp_sizes_scale():
    small = generate_dblp(num_papers=50, num_authors=20)
    large = generate_dblp(num_papers=500, num_authors=200)
    assert large.database.num_nodes() > small.database.num_nodes()
    assert large.database.num_edges() > small.database.num_edges()


# ----------------------------------------------------------------------
# Schema conformance
# ----------------------------------------------------------------------
def test_dblp_every_paper_has_one_proc(dblp_small):
    db = dblp_small.database
    for paper in db.nodes_of_type("paper"):
        assert len(db.successors(paper, "p-in")) == 1


def test_dblp_paper_areas_match_proc_areas(dblp_small):
    """The generator enforces the DBLP constraint by construction."""
    db = dblp_small.database
    proc_areas = {}
    for paper in db.nodes_of_type("paper"):
        proc = next(iter(db.successors(paper, "p-in")))
        areas = db.successors(paper, "r-a")
        if proc in proc_areas:
            assert proc_areas[proc] == areas
        else:
            proc_areas[proc] = areas


def test_wsu_offerings_inherit_course_subjects(wsu_bundle):
    db = wsu_bundle.database
    course_subjects = {}
    for offer in db.nodes_of_type("offer"):
        course = next(iter(db.successors(offer, "co")))
        subjects = db.successors(offer, "os")
        if course in course_subjects:
            assert course_subjects[course] == subjects
        else:
            course_subjects[course] = subjects


def test_biomed_indirect_edges_are_exact_closure(biomed_bundle):
    db = biomed_bundle.database
    derived = set()
    for parent, _, child in db.edges("is-parent-of"):
        for anatomy in db.successors(parent, "ph-a-assoc"):
            derived.add((child, "ph-a-indirect", anatomy))
        for disease in db.predecessors(parent, "dd-ph-assoc"):
            derived.add((disease, "dd-ph-indirect", child))
    actual = set(db.edges("ph-a-indirect")) | set(db.edges("dd-ph-indirect"))
    assert actual == derived


def test_biomed_ground_truth_queries_are_diseases(biomed_bundle):
    db = biomed_bundle.database
    for query, drug in biomed_bundle.ground_truth.items():
        assert db.node_type(query) == "disont-disease"
        assert db.node_type(drug) == "drug"


def test_biomed_ground_truth_reachable_via_meta_path(biomed_bundle):
    """The planted drug is reachable along the evaluation pattern."""
    from repro.constraints import rpq_pairs
    from repro.lang import parse_pattern

    db = biomed_bundle.database
    pairs = rpq_pairs(
        db, parse_pattern("dd-ph-indirect.ph-pr-assoc.targets-")
    )
    for query, drug in biomed_bundle.ground_truth.items():
        assert (query, drug) in pairs


def test_biomed_query_count():
    bundle = generate_biomed_small(num_queries=10)
    assert len(bundle.ground_truth) == 10


def test_mas_papers_have_conf_and_area(mas_bundle):
    db = mas_bundle.database
    for paper in db.nodes_of_type("paper"):
        assert len(db.successors(paper, "pub-in")) == 1
        assert len(db.successors(paper, "p-area")) == 1


def test_figure1_matches_paper_fragment():
    db = figure1_dblp()
    assert db.has_edge("SimilarityMining", "p-in", "VLDB")
    assert db.has_edge("SimilarityMining", "r-a", "DataMining")
    assert db.num_nodes() == 8


def test_bundle_info_recorded(dblp_small):
    assert dblp_small.info["name"] == "DBLP"
    assert "seed" in dblp_small.info


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def test_degree_sampling_deterministic(dblp_small):
    db = dblp_small.database
    first = sample_queries_by_degree(db, "proc", 10, seed=3)
    second = sample_queries_by_degree(db, "proc", 10, seed=3)
    assert first == second


def test_degree_sampling_distinct(dblp_small):
    queries = sample_queries_by_degree(dblp_small.database, "proc", 10, seed=3)
    assert len(queries) == len(set(queries)) == 10


def test_degree_sampling_prefers_high_degree(dblp_small):
    db = dblp_small.database
    procs = db.nodes_of_type("proc")
    degrees = {p: db.degree(p) for p in procs}
    # Sample many times; the overall mean degree of sampled nodes should
    # exceed the population mean.
    sampled = []
    for seed in range(10):
        sampled.extend(sample_queries_by_degree(db, "proc", 5, seed=seed))
    population_mean = sum(degrees.values()) / len(degrees)
    sample_mean = sum(degrees[p] for p in sampled) / len(sampled)
    assert sample_mean > population_mean


def test_degree_sampling_returns_all_when_short(dblp_small):
    db = dblp_small.database
    everything = sample_queries_by_degree(db, "proc", 10_000, seed=0)
    assert set(everything) == {
        p for p in db.nodes_of_type("proc") if db.degree(p) > 0
    }


def test_uniform_queries(dblp_small):
    db = dblp_small.database
    queries = uniform_queries(db, "paper", 15, seed=0)
    assert len(queries) == 15
    assert all(db.node_type(q) == "paper" for q in queries)


def _reference_pool(database, node_type, degrees):
    return [n for n in database.nodes_of_type(node_type) if degrees[n] > 0]


def _reference_by_degree(database, node_type, count, seed, degrees):
    """The degree-weighted sampler over per-node reference degrees."""
    pool = _reference_pool(database, node_type, degrees)
    if len(pool) <= count:
        return sorted(pool)
    rng = random.Random(seed)
    weights = [float(degrees[n]) for n in pool]
    chosen = []
    for _ in range(count):
        index = rng.choices(range(len(pool)), weights=weights, k=1)[0]
        chosen.append(pool.pop(index))
        weights.pop(index)
    return chosen


def _reference_uniform(database, node_type, count, seed, degrees):
    pool = _reference_pool(database, node_type, degrees)
    if len(pool) <= count:
        return sorted(pool)
    return random.Random(seed).sample(pool, count)


def test_samplers_match_per_node_reference(degree_db, reference_degrees):
    # Degrees are taken in one pass; the sampled lists must be the ones
    # per-node degrees give, for every type, size and seed.
    degrees = reference_degrees(degree_db)
    for node_type in {degree_db.node_type(n) for n in degree_db.nodes()}:
        for count in (1, 3, 10_000):
            for seed in range(10):
                args = (degree_db, node_type, count)
                assert sample_queries_by_degree(
                    *args, seed=seed
                ) == _reference_by_degree(*args, seed, degrees)
                assert uniform_queries(
                    *args, seed=seed
                ) == _reference_uniform(*args, seed, degrees)


# ----------------------------------------------------------------------
# SeededGenerator helpers
# ----------------------------------------------------------------------
def test_make_ids():
    gen = SeededGenerator(0)
    assert gen.make_ids("x", 3) == ["x:0", "x:1", "x:2"]


def test_zipf_sample_distinct():
    gen = SeededGenerator(0)
    items = list(range(50))
    sample = gen.zipf_sample(items, 10)
    assert len(sample) == len(set(sample)) == 10


def test_zipf_sample_caps_at_population():
    gen = SeededGenerator(0)
    assert len(gen.zipf_sample([1, 2, 3], 10)) == 3


def test_zipf_choice_prefers_head():
    gen = SeededGenerator(0)
    items = list(range(20))
    picks = [gen.zipf_choice(items, exponent=1.5) for _ in range(300)]
    head = sum(1 for p in picks if p < 5)
    assert head > 150


# ----------------------------------------------------------------------
# zipf_sample rewrite (cumulative-weight bisect) and bundle versioning
# ----------------------------------------------------------------------
def test_zipf_sample_deterministic_per_seed():
    items = list(range(500))
    first = SeededGenerator(11).zipf_sample(items, 40)
    second = SeededGenerator(11).zipf_sample(items, 40)
    third = SeededGenerator(12).zipf_sample(items, 40)
    assert first == second
    assert first != third


def test_zipf_sample_scales_to_large_pools():
    # Regression for the O(count * |pool|) rebuild-the-weights path:
    # the rejection/bisect implementation must handle a 200k pool
    # without materializing per-draw weight lists.  (The old path took
    # minutes here; any pathological slowdown will trip the suite's
    # global duration budget.)
    items = list(range(200_000))
    sample = SeededGenerator(3).zipf_sample(items, 500)
    assert len(sample) == len(set(sample)) == 500


def test_zipf_sample_dense_draw_uses_weighted_order():
    # count close to the pool size exercises the without-replacement
    # fallback; the head must still be over-represented early.
    items = list(range(40))
    sample = SeededGenerator(5).zipf_sample(items, 30, exponent=1.5)
    assert len(sample) == len(set(sample)) == 30
    head_positions = [sample.index(i) for i in range(5) if i in sample]
    assert head_positions and min(head_positions) < 5


def test_zipf_choice_matches_cumulative_bisect():
    import bisect as _bisect
    import itertools as _itertools
    import random as _random

    items = list(range(64))
    gen = SeededGenerator(9)
    mirror = _random.Random(9)
    weights = [1.0 / (rank**1.2) for rank in range(1, 65)]
    cumulative = list(_itertools.accumulate(weights))
    for _ in range(200):
        pick = gen.zipf_choice(items, exponent=1.2)
        draw = mirror.random() * cumulative[-1]
        expected = min(
            _bisect.bisect_right(cumulative, draw), len(items) - 1
        )
        assert pick == items[expected]


def test_bundles_stamp_bundle_version():
    from repro.datasets import BUNDLE_VERSION

    assert BUNDLE_VERSION == 2
    for factory in (generate_dblp, generate_wsu, generate_mas):
        assert factory(seed=1).info["bundle_version"] == BUNDLE_VERSION


# ----------------------------------------------------------------------
# Scale generator
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def scale_bundle():
    from repro.datasets import generate_dblp_scale

    return generate_dblp_scale(5000, seed=4)


def test_scale_generator_deterministic(scale_bundle):
    from repro.datasets import generate_dblp_scale

    again = generate_dblp_scale(5000, seed=4)
    assert again.database.same_content(scale_bundle.database)
    assert again.info == scale_bundle.info
    other = generate_dblp_scale(5000, seed=5)
    assert not other.database.same_content(scale_bundle.database)


def test_scale_generator_edge_count_near_target(scale_bundle):
    realized = scale_bundle.database.num_edges()
    assert scale_bundle.info["num_edges"] == realized
    # Author draws dedup under set semantics and the last author
    # cohort rounds up, so the realized count lands within 10% of the
    # target on either side.
    assert 0.9 * 5000 <= realized <= 1.1 * 5000


def test_scale_generator_rejects_tiny_budget():
    from repro.datasets import generate_dblp_scale
    from repro.exceptions import ConfigurationError

    with pytest.raises(ConfigurationError):
        generate_dblp_scale(50)


def test_scale_generator_schema_conformance(scale_bundle):
    database = scale_bundle.database
    for source, label, target in database.edges():
        if label == "p-in":
            assert database.node_type(source) == "paper"
            assert database.node_type(target) == "proc"
        elif label == "r-a":
            assert database.node_type(source) == "paper"
            assert database.node_type(target) == "area"
        elif label == "w":
            assert database.node_type(source) == "author"
            assert database.node_type(target) == "paper"
        else:
            raise AssertionError("unexpected label {}".format(label))


def test_scale_generator_papers_inherit_proc_areas(scale_bundle):
    # The DBLP structural constraint the paper's transformations rely
    # on: a paper's research areas are exactly its proceedings' areas —
    # so any two papers of the same proceedings share one area set.
    database = scale_bundle.database
    paper_areas = {
        paper: frozenset(targets)
        for paper, targets in database.adjacency_lists("r-a")
    }
    seen_per_proc = {}
    for paper, procs in database.adjacency_lists("p-in"):
        (proc,) = procs
        areas = paper_areas[paper]
        assert areas  # every venue drew at least one area
        expected = seen_per_proc.setdefault(proc, areas)
        assert areas == expected, proc
    assert len(seen_per_proc) > 1


def test_scale_generator_suggested_queries(scale_bundle):
    database = scale_bundle.database
    suggested = scale_bundle.info["suggested_queries"]
    assert suggested
    for node in suggested[:10]:
        assert database.node_type(node) == "paper"
        assert database.degree(node) >= 1


def test_scale_generator_skewed_venues(scale_bundle):
    # Zipf venue popularity: the most popular venue holds several times
    # its fair share of papers.
    database = scale_bundle.database
    counts = {}
    for _, targets in database.adjacency_lists("p-in"):
        for proc in targets:
            counts[proc] = counts.get(proc, 0) + 1
    # The default exponent is deliberately mild (see scale.py), but
    # the head venue must still clearly out-draw the tail.
    assert max(counts.values()) > 1.5 * min(counts.values())
