"""Snapshot round trips: save -> load -> bitwise-identical serving.

The serving snapshot (:mod:`repro.server.snapshot`) persists a
session's graph (schema, node table, per-label CSR) plus its
materialized engine cache so a warm start replaces computation with
disk reads.  The contract tested here is the
same one the warm-start benchmark gates: a loaded session must serve
**bitwise-identical** rankings for every registered algorithm with
**zero** engine cache misses, including when the saved database was
mutated through the live-update delta path first.
"""

import json
import os
import stat
import zipfile

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.api import SimilarityService, SimilaritySession, available_algorithms
from repro.datasets import generate_dblp
from repro.exceptions import ConfigurationError, SnapshotError
from repro.lang import CommutingMatrixEngine, parse_pattern
from repro.lang.ast import (
    Concat,
    Conj,
    Epsilon,
    Label,
    Nested,
    Reverse,
    Skip,
    Union,
)
from repro.server import (
    SNAPSHOT_FORMAT,
    load_service,
    load_session,
    save_snapshot,
)

TOP_K = 10

#: One prepared-query spec per registered algorithm (the delta-parity
#: suite's coverage idiom): snapshots must round-trip the cache entries
#: of every scoring family, not just the commuting-matrix ones.
SPECS = [
    ("relsim", {"pattern": "r-a-.p-in.p-in-.r-a"}),
    (
        "relsim",
        {
            "pattern": "r-a-.p-in.p-in-.r-a",
            "expand": {"max_patterns": 8},
        },
    ),
    ("pathsim", {"pattern": "p-in.p-in-"}),
    ("hetesim", {"pattern": "p-in-.p-in", "answer_type": "proc"}),
    ("rwr", {}),
    ("simrank", {}),
    ("pattern-rwr", {"pattern": "p-in.p-in-"}),
    ("pattern-simrank", {"pattern": "p-in.p-in-"}),
    ("common-neighbors", {}),
    ("katz", {}),
]


@pytest.fixture
def tiny_dblp():
    return generate_dblp(
        num_areas=3, num_procs=6, num_papers=36, num_authors=20, seed=11
    ).database


def _prepare_all(target):
    return [
        target.prepare(algorithm=name, top_k=TOP_K, **options)
        for name, options in SPECS
    ]


def _queries(database, options):
    procs = sorted(database.nodes_of_type("proc"))[:3]
    if options.get("answer_type") == "proc":
        return procs
    return sorted(database.nodes_of_type("area"))[:2] + procs


def _rankings(database, prepared):
    return [
        [
            (query, list(handle.run(query).items()))
            for query in _queries(database, options)
        ]
        for (name, options), handle in zip(SPECS, prepared)
    ]


def test_specs_cover_every_registered_algorithm():
    assert {name for name, _ in SPECS} == set(available_algorithms())


def test_round_trip_all_algorithms_bitwise_identical(tiny_dblp, tmp_path):
    path = str(tmp_path / "serving.npz")
    session = SimilaritySession(tiny_dblp)
    reference = _rankings(tiny_dblp, _prepare_all(session))

    stats = save_snapshot(path, session)
    assert stats["matrices"] > 0
    assert stats["bytes"] == os.path.getsize(path)

    warm, info = load_session(path)
    assert info["matrices"] == stats["matrices"]
    assert info["column_norms"] == stats["column_norms"]
    assert info["diagonals"] == stats["diagonals"]
    assert info["skipped"] == 0
    assert info["service_version"] is None  # saved from a bare session
    assert info["num_nodes"] == tiny_dblp.num_nodes()

    assert _rankings(tiny_dblp, _prepare_all(warm)) == reference
    assert warm.cache_info()["misses"] == 0, (
        "warm session recomputed matrices the snapshot should have carried"
    )


def test_round_trip_after_live_delta(tiny_dblp, tmp_path):
    """A database mutated through apply() snapshots and restores exactly."""
    path = str(tmp_path / "mutated.npz")
    service = SimilarityService(tiny_dblp)
    prepared = _prepare_all(service)
    papers = sorted(tiny_dblp.nodes_of_type("paper"))
    procs = sorted(tiny_dblp.nodes_of_type("proc"))
    version = service.apply(
        edges_added=[
            (papers[0], "p-in", procs[-1]),
            (papers[1], "p-in", procs[-2]),
        ],
        edges_removed=[sorted(tiny_dblp.edges("p-in"))[0]],
    )
    assert version == 2
    assert service.delta_stats["last_path"] == "incremental"
    reference = _rankings(service.database, prepared)

    save_snapshot(path, service)
    warm_service, info = load_service(path)
    assert info["service_version"] == 2
    assert warm_service.version == 1  # a fresh service restarts at 1
    assert warm_service.database.same_content(service.database)

    warm_rankings = _rankings(
        warm_service.database, _prepare_all(warm_service)
    )
    assert warm_rankings == reference
    assert warm_service.session.cache_info()["misses"] == 0


def test_round_trip_through_incrementally_patched_cache(tiny_dblp, tmp_path):
    """Snapshotting *incrementally patched* matrices equals a fresh build."""
    path = str(tmp_path / "patched.npz")
    service = SimilarityService(tiny_dblp)
    prepared = _prepare_all(service)
    papers = sorted(tiny_dblp.nodes_of_type("paper"))
    areas = sorted(tiny_dblp.nodes_of_type("area"))
    delta = {"edges_added": [(papers[2], "r-a", areas[0])]}
    service.apply(**delta)
    save_snapshot(path, service)
    reference = tiny_dblp.copy()
    reference.apply_delta(**delta)

    warm, _ = load_session(path)
    assert warm.view.to_database().same_content(reference)
    fresh = SimilaritySession(reference)
    assert _rankings(reference, _prepare_all(warm)) == _rankings(
        reference, _prepare_all(fresh)
    )
    assert warm.cache_info()["misses"] == 0


def _assert_same_bits(left, right):
    assert left.shape == right.shape
    for field in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(left, field), getattr(right, field))


def test_preload_skips_a_record_its_text_would_misfile(dblp_small, tmp_path):
    # ``w--+w`` sums two canonically equal disjuncts (2 M_w) and prints
    # as ``w+w``, which parses to ``w``: preloading that text would
    # file the doubled matrix under ``w``'s plan, over ``w``'s record.
    database = dblp_small.database
    path = str(tmp_path / "misfile.npz")
    session = SimilaritySession(database)
    session.engine.matrix(parse_pattern("w--+w"))
    save_snapshot(path, session)

    warm, info = load_session(path)
    assert info["skipped"] == 1
    fresh = SimilaritySession(database)
    _assert_same_bits(
        warm.engine.matrix(parse_pattern("w")),
        fresh.engine.matrix(parse_pattern("w")),
    )
    authors = sorted(database.nodes_of_type("author"))[:5]
    options = {"algorithm": "relsim", "pattern": "w.w-", "scoring": "count"}
    warm_rankings = warm.rank_many(authors, **options)
    fresh_rankings = fresh.rank_many(authors, **options)
    for author in authors:
        assert (
            warm_rankings[author].items() == fresh_rankings[author].items()
        )


def _round_trip_patterns():
    leaves = st.one_of(
        st.builds(Epsilon), st.sampled_from(["a", "b", "c"]).map(Label)
    )

    def extend(children):
        parts = st.lists(children, min_size=2, max_size=3)
        return st.one_of(
            children.map(Reverse),
            children.map(Nested),
            children.map(Skip),
            parts.map(Concat),
            parts.map(Union),
            parts.map(Conj),
        )

    # No Kleene star: the 2-cycle on ``c`` diverges under it.
    pattern = st.recursive(leaves, extend, max_leaves=6)
    return st.lists(pattern, min_size=1, max_size=4)


@given(patterns=_round_trip_patterns())
# The smallest misfiling record: ``eps+eps-`` is 2I and prints as
# ``eps+eps``, which parses to ``eps``.
@example(patterns=[Union([Epsilon(), Reverse(Epsilon())])])
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_export_preload_round_trip_is_bitwise(tiny_db, patterns):
    source = CommutingMatrixEngine(tiny_db)
    source.matrices_many(patterns)
    warm = CommutingMatrixEngine(source.view)
    warm.preload(source.export_cache())
    for pattern in patterns + [Label(name) for name in "abc"]:
        _assert_same_bits(warm.matrix(pattern), source.matrix(pattern))


def test_save_is_atomic_overwrite(tiny_dblp, tmp_path):
    path = str(tmp_path / "over.npz")
    session = SimilaritySession(tiny_dblp)
    session.prepare(algorithm="pathsim", pattern="p-in.p-in-", top_k=5)
    save_snapshot(path, session)
    first = open(path, "rb").read()
    save_snapshot(path, session)  # overwrite in place via temp + replace
    assert os.path.exists(path)
    load_session(path)  # still a valid archive
    assert not [
        name for name in os.listdir(str(tmp_path)) if name.endswith(".tmp")
    ], "temporary snapshot files were left behind"
    assert len(open(path, "rb").read()) >= len(first) - 64


def test_save_fsyncs_file_before_replace_and_directory_after(
    tiny_dblp, tmp_path, monkeypatch
):
    # Durability: the data must be on disk before the rename publishes
    # it, and the rename itself must be on disk before save returns.
    events = []
    fsync, replace = os.fsync, os.replace

    def traced_fsync(fd):
        kind = "directory" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        events.append("fsync " + kind)
        fsync(fd)

    def traced_replace(source, target):
        events.append("replace")
        replace(source, target)

    monkeypatch.setattr(os, "fsync", traced_fsync)
    monkeypatch.setattr(os, "replace", traced_replace)
    save_snapshot(str(tmp_path / "durable.npz"), SimilaritySession(tiny_dblp))
    assert events == ["fsync file", "replace", "fsync directory"]


def test_save_rejects_other_sources(tiny_dblp, tmp_path):
    with pytest.raises(TypeError):
        save_snapshot(str(tmp_path / "x.npz"), tiny_dblp)


def test_load_missing_file(tmp_path):
    with pytest.raises(SnapshotError, match="no such snapshot"):
        load_session(str(tmp_path / "absent.npz"))


def test_load_rejects_non_archive(tmp_path):
    path = str(tmp_path / "not-a-zip.npz")
    with open(path, "w") as handle:
        handle.write("just text\n")
    with pytest.raises(SnapshotError, match="unreadable snapshot"):
        load_session(path)


def test_load_rejects_foreign_npz(tmp_path):
    path = str(tmp_path / "foreign.npz")
    np.savez(open(path, "wb"), payload=np.arange(4))
    with pytest.raises(SnapshotError, match="not a repro serving snapshot"):
        load_session(path)


def test_load_rejects_unknown_format(tiny_dblp, tmp_path):
    # Formats 1 (three lists: matrices, norms, diagonals) and 2 (records
    # beside a JSON database) are refused too, with the re-seed hint.
    path = str(tmp_path / "other.npz")
    session = SimilaritySession(tiny_dblp)
    for version in (1, 2, 99):
        save_snapshot(path, session)
        _rewrite_json(path, "manifest", lambda m: dict(m, format=version))
        match = "format {} is not supported.*re-seed".format(version)
        with pytest.raises(SnapshotError, match=match):
            load_session(path)
    assert SNAPSHOT_FORMAT == 3  # bump this test alongside the format


def test_load_rejects_corrupt_payload(tiny_dblp, tmp_path):
    # Claim more nonzeros than the pooled buffers actually hold: the
    # loader must fail loudly, not serve silently truncated matrices.
    path = str(tmp_path / "corrupt.npz")
    session = SimilaritySession(tiny_dblp)
    session.prepare(algorithm="pathsim", pattern="p-in.p-in-", top_k=5)
    save_snapshot(path, session)

    def inflate(manifest):
        records = [dict(entry) for entry in manifest["records"]]
        records[-1]["nnz"] = records[-1]["nnz"] + 1_000_000
        return dict(manifest, records=records)

    _rewrite_json(path, "manifest", inflate)
    with pytest.raises(SnapshotError, match="corrupt snapshot payload"):
        load_session(path)


def _rename_first_label(manifest):
    labels = [dict(entry) for entry in manifest["labels"]]
    labels[0]["p"] = "no-such"
    return dict(manifest, labels=labels)


@pytest.mark.parametrize(
    "corrupt",
    [
        _rename_first_label,
        lambda m: dict(
            m, schema=dict(m["schema"], constraints=["no arrow ("])
        ),
        lambda m: dict(m, types=m["types"][:-1]),
    ],
    ids=["unknown-label", "unparseable-constraint", "a-type-missing"],
)
def test_load_maps_a_corrupt_database_to_snapshot_error(
    tiny_dblp, tmp_path, corrupt
):
    # The graph (schema and per-label matrices) lives in the manifest
    # and the pools; a label or constraint that no longer loads is a
    # corrupt snapshot.
    path = str(tmp_path / "bad-database.npz")
    save_snapshot(path, SimilaritySession(tiny_dblp))
    _rewrite_json(path, "manifest", corrupt)
    with pytest.raises(SnapshotError, match="corrupt snapshot payload"):
        load_session(path)


def test_load_raises_session_option_errors_unchanged(tiny_dblp, tmp_path):
    path = str(tmp_path / "fine.npz")
    save_snapshot(path, SimilaritySession(tiny_dblp))
    with pytest.raises(ConfigurationError, match="memory_budget"):
        load_session(path, memory_budget=0)


def _rewrite_json(path, member, transform):
    """Rewrite one JSON member (the ``manifest``) in place."""
    archive = np.load(path, allow_pickle=False)
    with archive:
        arrays = {name: archive[name] for name in archive.files}
    payload = transform(json.loads(str(arrays[member])))
    arrays[member] = np.array(json.dumps(payload))
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)
    with zipfile.ZipFile(path) as check:  # still a well-formed archive
        assert "manifest.npy" in check.namelist()
