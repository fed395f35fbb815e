"""Tests for the chase procedure over full tgds."""

import pytest

from repro.constraints import parse_tgd, satisfies
from repro.exceptions import ConstraintError
from repro.graph import GraphDatabase, Schema
from repro.transform import chase, chase_delta, repair_report


@pytest.fixture
def schema():
    return Schema(["a", "b", "c"])


def make_db(schema, edges):
    db = GraphDatabase(schema)
    db.add_edges(edges)
    return db


def test_chase_adds_missing_conclusions(schema):
    tgd = parse_tgd("(x, a, y) & (y, b, z) -> (x, c, z)")
    db = make_db(schema, [(1, "a", 2), (2, "b", 3)])
    chased = chase(db, [tgd])
    assert chased.has_edge(1, "c", 3)
    assert satisfies(chased, tgd)


def test_chase_reaches_fixpoint_on_recursive_constraint(schema):
    # Transitivity of a: requires multiple rounds on a chain.
    tgd = parse_tgd("(x, a, y) & (y, a, z) -> (x, a, z)")
    db = make_db(schema, [(1, "a", 2), (2, "a", 3), (3, "a", 4)])
    chased = chase(db, [tgd])
    assert chased.has_edge(1, "a", 4)
    assert satisfies(chased, tgd)


def test_chase_noop_on_satisfied_database(schema):
    tgd = parse_tgd("(x, a, y) -> (y, b, x)")
    db = make_db(schema, [(1, "a", 2), (2, "b", 1)])
    chased = chase(db, [tgd])
    assert chased.edge_set() == db.edge_set()


def test_chase_copy_by_default(schema):
    tgd = parse_tgd("(x, a, y) -> (x, b, y)")
    db = make_db(schema, [(1, "a", 2)])
    chased = chase(db, [tgd])
    assert not db.has_edge(1, "b", 2)
    assert chased.has_edge(1, "b", 2)


def test_chase_reversed_conclusion(schema):
    tgd = parse_tgd("(x, a, y) -> (y, b-, x)")
    db = make_db(schema, [(1, "a", 2)])
    chased = chase(db, [tgd])
    # (y, b-, x) constructs (x, b, y).
    assert chased.has_edge(1, "b", 2)


def test_chase_rejects_existential_tgd(schema):
    tgd = parse_tgd("(x, a, y) -> (x, b, z)")
    db = make_db(schema, [(1, "a", 2)])
    with pytest.raises(ConstraintError):
        chase(db, [tgd])


def test_chase_rejects_complex_conclusion(schema):
    tgd = parse_tgd("(x, a, y) -> (x, b*, y)")
    db = make_db(schema, [(1, "a", 2)])
    with pytest.raises(ConstraintError):
        chase(db, [tgd])


def test_chase_multiple_constraints(schema):
    tgds = [
        parse_tgd("(x, a, y) -> (x, b, y)"),
        parse_tgd("(x, b, y) -> (x, c, y)"),
    ]
    db = make_db(schema, [(1, "a", 2)])
    chased = chase(db, tgds)
    assert chased.has_edge(1, "b", 2)
    assert chased.has_edge(1, "c", 2)  # cascaded across rounds


def test_chase_max_rounds_guard(schema):
    tgd = parse_tgd("(x, a, y) & (y, a, z) -> (x, a, z)")
    db = make_db(schema, [(i, "a", i + 1) for i in range(6)])
    with pytest.raises(ConstraintError):
        chase(db, [tgd], max_rounds=1)


def test_chase_delta(schema):
    tgd = parse_tgd("(x, a, y) -> (x, b, y)")
    db = make_db(schema, [(1, "a", 2), (3, "a", 4), (1, "b", 2)])
    delta = chase_delta(db, [tgd])
    assert delta == {(3, "b", 4)}


def test_chase_delta_empty_when_clean(schema):
    tgd = parse_tgd("(x, a, y) -> (x, b, y)")
    db = make_db(schema, [(1, "a", 2), (1, "b", 2)])
    assert chase_delta(db, [tgd]) == set()


def test_repair_report(schema):
    tgd = parse_tgd("(x, a, y) -> (x, b, y)")
    db = make_db(schema, [(1, "a", 2)])
    report = repair_report(db, [tgd])
    assert "1 missing edges" in report
    assert "b" in report


def test_repair_report_counts_an_iterator_of_constraints(fig1):
    # The chase consumes an iterator; the report still counts what it
    # was given.
    constraints = fig1.schema.constraints
    report = repair_report(fig1, iter(constraints))
    assert "over {} constraints".format(len(constraints)) in report
    assert report == repair_report(fig1, list(constraints))


def test_chase_makes_dblp_constraint_hold(fig1):
    """Violate the DBLP constraint, then chase it clean."""
    constraint = fig1.schema.constraints[0]
    fig1.add_edge("Rogue", "p-in", "VLDB")
    assert not satisfies(fig1, constraint)
    repaired = chase(fig1, [constraint])
    assert satisfies(repaired, constraint)
    assert repaired.has_edge("Rogue", "r-a", "DataMining")
    assert repaired.has_edge("Rogue", "r-a", "Databases")


def test_chased_database_becomes_invertible(fig1):
    """After the chase, the DBLP2SIGM roundtrip succeeds again."""
    from repro.transform import dblp2sigm, verify_roundtrip

    fig1.add_edge("Rogue", "p-in", "VLDB")
    assert not verify_roundtrip(dblp2sigm(), fig1)
    repaired = chase(fig1, [fig1.schema.constraints[0]])
    assert verify_roundtrip(dblp2sigm(), repaired)


def test_biomed_indirect_closure_is_one_chase(biomed_bundle):
    """Dropping the indirect edges and chasing re-derives them exactly."""
    db = biomed_bundle.database
    stripped = db.copy()
    for edge in list(stripped.edges("ph-a-indirect")):
        stripped.remove_edge(*edge)
    for edge in list(stripped.edges("dd-ph-indirect")):
        stripped.remove_edge(*edge)
    rechased = chase(stripped, db.schema.constraints)
    assert rechased.edge_set() == db.edge_set()
