"""Shared fixtures: the Figure-1 running example and small generators."""

import pytest

from repro.datasets import (
    figure1_dblp,
    generate_biomed_small,
    generate_dblp_small,
    generate_mas,
    generate_wsu,
)
from repro.graph import GraphDatabase, Schema, matrices


@pytest.fixture
def fig1():
    """The exact DBLP fragment of the paper's Figure 1(a)."""
    return figure1_dblp()


@pytest.fixture
def tiny_schema():
    return Schema(["a", "b", "c"])


@pytest.fixture
def tiny_db(tiny_schema):
    """A small hand-made graph exercising every structural situation:
    fan-out, fan-in, a 2-cycle on label c, parallel labels, self loop."""
    db = GraphDatabase(tiny_schema)
    db.add_edges(
        [
            (1, "a", 2),
            (1, "a", 3),
            (2, "b", 4),
            (3, "b", 4),
            (4, "c", 5),
            (5, "c", 4),
            (1, "b", 2),
            (2, "a", 2),
        ]
    )
    return db


@pytest.fixture
def island_db():
    """Typed nodes around a hub, with an isolated typed node ("island")
    and a self-loop."""
    db = GraphDatabase(Schema(["a", "b"]))
    db.add_node("island", "leaf")
    db.add_node("hub", "city")
    for i in range(5):
        db.add_node("leaf{}".format(i), "leaf")
        db.add_edge("hub", "a", "leaf{}".format(i))
    db.add_edges([("leaf0", "b", "leaf1"), ("leaf2", "a", "leaf2")])
    return db


@pytest.fixture(params=["tiny_db", "island_db", "dblp_small"])
def degree_db(request):
    """Each graph the degree readers are checked on: a self-loop and
    parallel labels, an isolated typed node, and dblp-small."""
    database = request.getfixturevalue(request.param)
    return getattr(database, "database", database)  # a dataset bundle


@pytest.fixture
def reference_degrees():
    """Per-node total degree counted edge by edge: out-degree plus
    in-degree over every label, so a self-loop counts twice."""

    def degrees(database):
        counts = dict.fromkeys(database.nodes(), 0)
        for source, _, target in database.edges():
            counts[source] += 1
            counts[target] += 1
        return counts

    return degrees


@pytest.fixture(scope="session")
def dblp_small():
    return generate_dblp_small(seed=7)


@pytest.fixture(scope="session")
def wsu_bundle():
    return generate_wsu(seed=7)


@pytest.fixture(scope="session")
def biomed_bundle():
    return generate_biomed_small(seed=7)


@pytest.fixture(scope="session")
def mas_bundle():
    return generate_mas(seed=7)


@pytest.fixture
def split_products(monkeypatch):
    """Every ``csr_product`` runs as three row blocks on threads.

    Three blocks on any host, whatever its cores, so suites that take
    this fixture cover the threaded split even on one core.
    """
    monkeypatch.setattr(matrices, "PARALLEL_PRODUCT_FLOPS", 0)
    monkeypatch.setattr(matrices, "usable_cores", lambda: 3)
