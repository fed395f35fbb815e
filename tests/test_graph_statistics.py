"""Tests for graph statistics."""

from collections import Counter

import pytest

from repro.graph import (
    GraphDatabase,
    Schema,
    degree_distribution,
    degree_statistics,
    label_histogram,
    node_type_histogram,
    summarize,
)


@pytest.fixture
def db():
    database = GraphDatabase(Schema(["a", "b"]))
    database.add_node("island", "rock")
    database.add_node("hub", "city")
    for i in range(5):
        database.add_edge("hub", "a", "leaf{}".format(i))
    database.add_edge("leaf0", "b", "leaf1")
    return database


def test_label_histogram(db):
    assert label_histogram(db) == {"a": 5, "b": 1}


def test_label_histogram_empty():
    assert label_histogram(GraphDatabase(Schema(["a"]))) == {}


def test_node_type_histogram(db):
    histogram = node_type_histogram(db)
    assert histogram["rock"] == 1
    assert histogram["city"] == 1
    assert histogram[None] == 5  # leaves are untyped


def test_degree_statistics(db):
    stats = degree_statistics(db)
    assert stats["max"] == 5  # hub
    assert stats["min"] == 0  # island
    assert stats["isolated"] == 1
    assert stats["mean"] == pytest.approx(12 / 7)


def test_degree_statistics_empty():
    stats = degree_statistics(GraphDatabase(Schema(["a"])))
    assert stats == {"min": 0, "mean": 0.0, "max": 0, "isolated": 0}


def test_degree_distribution_buckets(db):
    distribution = dict(degree_distribution(db, buckets=(1, 2, 4)))
    assert distribution[0] == 1  # island
    assert distribution[1] == 3  # leaf2..leaf4 (degree 1)
    assert distribution[2] == 2  # leaf0, leaf1 (degree 2)
    assert distribution[4] == 1  # hub (degree 5)


def test_degree_distribution_counts_every_node(db):
    distribution = degree_distribution(db)
    assert sum(count for _, count in distribution) == db.num_nodes()


def test_degree_distribution_below_first_bucket(db):
    # first bound above all degrees: everything non-isolated lands there
    distribution = dict(degree_distribution(db, buckets=(10, 20)))
    assert distribution[10] == 6
    assert distribution[20] == 0


def test_summarize_contains_key_facts(db):
    text = summarize(db, name="toy")
    assert "toy: 7 nodes, 6 edges" in text
    assert "isolated=1" in text
    assert "city" in text
    assert "a " in text


def test_summarize_untyped_database():
    database = GraphDatabase(Schema(["a"]))
    database.add_edge(1, "a", 2)
    text = summarize(database)
    assert "2 nodes, 1 edges" in text
    # no node-type section when everything is untyped
    assert "node types" not in text


# ----------------------------------------------------------------------
# Degrees come from one pass over the matrices; each value must equal
# the per-node count taken edge by edge.
# ----------------------------------------------------------------------
def test_degree_statistics_match_per_node_reference(
    degree_db, reference_degrees
):
    degrees = list(reference_degrees(degree_db).values())
    stats = degree_statistics(degree_db)
    assert stats == {
        "min": min(degrees),
        "mean": sum(degrees) / len(degrees),
        "max": max(degrees),
        "isolated": degrees.count(0),
    }
    assert all(type(stats[key]) is int for key in ("min", "max", "isolated"))


def test_degree_distribution_matches_per_node_reference(
    degree_db, reference_degrees
):
    buckets = (1, 2, 4, 8, 16, 32, 64)

    def bucket(degree):
        if degree == 0:
            return 0
        return max([b for b in buckets if b <= degree], default=buckets[0])

    counts = Counter(map(bucket, reference_degrees(degree_db).values()))
    assert degree_distribution(degree_db, buckets) == [
        (bound, counts[bound]) for bound in (0,) + buckets
    ]
