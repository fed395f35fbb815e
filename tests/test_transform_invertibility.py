"""Tests for roundtrip verification and lossy transformations."""

import os
import subprocess
import sys

import pytest

from repro.exceptions import NotInvertibleError, TransformationError
from repro.graph import GraphDatabase, Schema
from repro.transform import (
    LossyTransformation,
    check_invertible_on,
    dblp2sigm,
    drop_edges,
    roundtrip,
    verify_roundtrip,
)
from repro.transform.mapping import SchemaMapping, copy_rule


def test_roundtrip_returns_source_content(fig1):
    recovered = roundtrip(dblp2sigm(), fig1)
    assert recovered.edge_set() == fig1.edge_set()


def test_roundtrip_requires_inverse(fig1):
    mapping = SchemaMapping(
        "x", fig1.schema, fig1.schema, [copy_rule("p-in")]
    )
    with pytest.raises(TransformationError):
        roundtrip(mapping, fig1)


def test_verify_roundtrip_failure_raises_with_details(fig1):
    # A paper with an area but no proceedings loses its area edge.
    fig1.add_edge("Orphan", "r-a", "Databases")
    assert not verify_roundtrip(dblp2sigm(), fig1)
    with pytest.raises(NotInvertibleError) as excinfo:
        verify_roundtrip(dblp2sigm(), fig1, raise_on_failure=True)
    assert "lost 1 edges" in str(excinfo.value)


def test_check_invertible_on_reports_failures(fig1, dblp_small):
    broken = fig1.copy()
    broken.add_edge("Orphan", "r-a", "Databases")
    failures = check_invertible_on(
        dblp2sigm(), [fig1, broken, dblp_small.database]
    )
    assert failures == [broken]


def test_drop_edges_fraction(tiny_db):
    damaged = drop_edges(tiny_db, 0.25, seed=1)
    assert damaged.num_edges() == tiny_db.num_edges() - 2


def test_drop_edges_zero_is_identity(tiny_db):
    assert drop_edges(tiny_db, 0.0).edge_set() == tiny_db.edge_set()


def test_drop_edges_deterministic(tiny_db):
    first = drop_edges(tiny_db, 0.5, seed=42)
    second = drop_edges(tiny_db, 0.5, seed=42)
    assert first.edge_set() == second.edge_set()


_DROP_IN_A_PROCESS = (
    "from repro.datasets import generate_dblp\n"
    "from repro.transform import drop_edges\n"
    "database = generate_dblp(seed=0).database\n"
    "print(sorted(map(repr, drop_edges(database, 0.05, seed=1).edges())))\n"
)


def test_drop_edges_deterministic_across_processes():
    # Every process hashes string ids differently; the edges a seed
    # drops must not depend on that.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    kept = {
        subprocess.run(
            [sys.executable, "-c", _DROP_IN_A_PROCESS],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        ).stdout
        for seed in ("1", "2", "3")
    }
    assert len(kept) == 1


def test_drop_edges_seed_matters(tiny_db):
    outcomes = {
        drop_edges(tiny_db, 0.5, seed=s).edge_set() for s in range(8)
    }
    assert len(outcomes) > 1


def test_drop_edges_protected_labels(tiny_db):
    damaged = drop_edges(tiny_db, 0.5, seed=0, protected_labels=["c"])
    assert set(damaged.edges("c")) == set(tiny_db.edges("c"))


def test_drop_edges_invalid_fraction(tiny_db):
    with pytest.raises(TransformationError):
        drop_edges(tiny_db, 1.0)
    with pytest.raises(TransformationError):
        drop_edges(tiny_db, -0.1)


def test_lossy_transformation_wraps_mapping(fig1):
    lossy = LossyTransformation(dblp2sigm(), keep=0.9, seed=0)
    exact = dblp2sigm().apply(fig1)
    damaged = lossy.apply(fig1)
    assert len(damaged.edge_set()) < len(exact.edge_set())
    assert damaged.edge_set() <= exact.edge_set()


def test_lossy_exposes_mapping_metadata():
    lossy = LossyTransformation(dblp2sigm(), keep=0.9)
    assert lossy.source is dblp2sigm().source
    assert lossy.inverse is not None
    assert "0.90" in lossy.name


def test_lossy_invalid_keep():
    with pytest.raises(TransformationError):
        LossyTransformation(dblp2sigm(), keep=0.0)
