"""Serving-snapshot persistence: save once, warm-start forever.

A cold ``repro serve`` pays the full build bill before the first
request: load the database, compile every prepared pattern, multiply
out the commuting-matrix chains, extract diagonals and column norms.
All of that state is deterministic given the database, so it belongs on
disk: :func:`save_snapshot` serializes the serving session — database,
canonical cache keys, materialized CSR matrices, derived vectors — into
one ``.npz`` file, and :func:`load_session` / :func:`load_service`
rebuild a session whose engine cache is already hot, so preparation is
pure cache hits.

Cache keys are persisted as canonical pattern *text* (the plan node's
concrete syntax), which re-parses and re-compiles to the same interned
plan node in any process — see
:meth:`~repro.lang.matrix_semantics.CommutingMatrixEngine.export_cache`.
Matrices are stored as raw CSR buffers and re-wrapped without
validation on load (they were canonicalized at publish time), so a load
is bounded by disk I/O plus one JSON parse of the database.

Layout note: a serving cache holds dozens of small matrices, and zip
archives charge per *member*, not per byte — storing each CSR buffer
as its own array made load time per-entry overhead.  Instead, all
buffers of one kind are concatenated into a single pooled array per
dtype (``mdata_float64``, ``midx_int32``, ...), with per-entry lengths
in the manifest; loading slices views back out of a handful of big
reads.  Pools are segregated by dtype, never cast, so the restored
buffers are bit-for-bit the saved ones.

Writes are atomic (temp file + ``os.replace``): the serving layer
checkpoints after every successful ``apply``/``swap``, and a crash
mid-checkpoint must leave the previous good snapshot intact, never a
torn file.
"""

import io
import json
import os
import tempfile
import time
import zipfile

import numpy as np

from repro.api.service import SimilarityService
from repro.api.session import SimilaritySession
from repro.exceptions import SnapshotError
from repro.graph.io import database_from_json, database_to_json
from repro.graph.matrices import trusted_csr

#: Bumped whenever the on-disk layout changes incompatibly; a loader
#: refuses to guess at a format it does not know.
SNAPSHOT_FORMAT = 1

_MAGIC = "repro-serving-snapshot"


# ----------------------------------------------------------------------
# Pooled-array layout
# ----------------------------------------------------------------------
def pool_matrices(pools, prefix, entries):
    """Append each CSR's buffers to the dtype-segregated pools.

    ``entries`` is ``[(key, csr_matrix)]``; buffers land in
    ``pools["{prefix}data_{dtype}"]`` / ``...idx...`` / ``...ptr...``
    lists (concatenate each list to get the stored pool array).
    Returns the manifest entry list: per matrix, its key plus the
    dtype of each buffer and the nnz needed to slice it back out.
    """
    manifest = []
    for key, matrix in entries:
        manifest.append(
            {
                "p": key,
                "data": _pool(pools, prefix + "data", matrix.data),
                "idx": _pool(pools, prefix + "idx", matrix.indices),
                "ptr": _pool(pools, prefix + "ptr", matrix.indptr),
                "nnz": int(matrix.nnz),
            }
        )
    return manifest


def pool_vectors(pools, prefix, entries):
    """Append each dense vector to its dtype pool; returns manifest entries."""
    return [
        {"p": key, "dtype": _pool(pools, prefix, vector), "len": len(vector)}
        for key, vector in entries
    ]


def _pool(pools, prefix, buffer):
    key = "{}_{}".format(prefix, buffer.dtype)
    pools.setdefault(key, []).append(buffer)
    return str(buffer.dtype)


class PoolReader:
    """Sequentially slice per-entry buffers back out of pooled arrays.

    ``arrays`` is any mapping from pool key (``mdata_float64``, ...) to
    a 1-D ndarray, such as an ``np.load`` archive.  Entries must be
    taken in the order they were pooled; a short pool raises
    ``ValueError`` (callers map it to their own corruption error).
    """

    def __init__(self, arrays):
        self._arrays = arrays
        self._pools = {}
        self._offsets = {}

    def take(self, prefix, dtype, count):
        key = "{}_{}".format(prefix, dtype)
        if key not in self._pools:
            self._pools[key] = self._arrays[key]
            self._offsets[key] = 0
        start = self._offsets[key]
        self._offsets[key] = start + count
        chunk = self._pools[key][start : start + count]
        if len(chunk) != count:
            # repro-lint: ok(exception-taxonomy) internal control flow; callers convert it to SnapshotError
            raise ValueError("pool {} exhausted at {}".format(key, start))
        return chunk


def unpool_matrices(reader, manifest_entries, prefix, n):
    """``[(key, csr)]`` rebuilt from pooled buffers without validation."""
    return [
        (
            entry["p"],
            trusted_csr(
                reader.take(prefix + "data", entry["data"], entry["nnz"]),
                reader.take(prefix + "idx", entry["idx"], entry["nnz"]),
                reader.take(prefix + "ptr", entry["ptr"], n + 1),
                n,
            ),
        )
        for entry in manifest_entries
    ]


def unpool_vectors(reader, manifest_entries, prefix):
    """``[(key, vector)]`` sliced back out of the pooled arrays."""
    return [
        (entry["p"], reader.take(prefix, entry["dtype"], entry["len"]))
        for entry in manifest_entries
    ]


def _session_of(source):
    if isinstance(source, SimilarityService):
        return source.session, source.version
    if isinstance(source, SimilaritySession):
        return source, None
    raise TypeError(
        "save_snapshot takes a SimilarityService or SimilaritySession, "
        "got {!r}".format(source)
    )


def save_snapshot(path, source):
    """Write ``source``'s serving state to ``path`` atomically.

    ``source`` is a :class:`SimilarityService` (its current snapshot is
    saved) or a bare :class:`SimilaritySession`.  Everything needed for
    a warm start goes into one ``.npz``: the database (JSON), every
    cached commuting matrix (CSR buffers keyed by canonical pattern
    text), and the cached column norms / diagonals.  Returns a stats
    dict (``matrices`` / ``column_norms`` / ``diagonals`` entry counts,
    ``nnz``, ``bytes`` written).
    """
    session, service_version = _session_of(source)
    state = session.engine.export_cache()
    database = session.database
    pools = {}
    matrices = pool_matrices(pools, "m", state["matrices"])
    nnz = sum(entry["nnz"] for entry in matrices)
    column_norms = pool_vectors(pools, "norm", state["column_norms"])
    diagonals = pool_vectors(pools, "diag", state["diagonals"])
    manifest = {
        "magic": _MAGIC,
        "format": SNAPSHOT_FORMAT,
        "saved_at": time.time(),
        "service_version": service_version,
        "num_nodes": database.num_nodes(),
        "num_edges": database.num_edges(),
        "matrices": matrices,
        "column_norms": column_norms,
        "diagonals": diagonals,
    }
    arrays = {
        "manifest": np.array(json.dumps(manifest)),
        "database": np.array(database_to_json(database)),
    }
    for key, buffers in pools.items():
        arrays[key] = np.concatenate(buffers)

    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            # np.savez appends ".npz" to bare paths; a file object keeps
            # the name exactly as given and lets the rename be atomic.
            np.savez(handle, **arrays)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return {
        "matrices": len(state["matrices"]),
        "column_norms": len(state["column_norms"]),
        "diagonals": len(state["diagonals"]),
        "nnz": int(nnz),
        "bytes": os.path.getsize(path),
    }


def _read_manifest(archive, path):
    try:
        manifest = json.loads(str(archive["manifest"]))
    except (KeyError, ValueError) as error:
        raise SnapshotError(
            "{}: not a repro serving snapshot ({})".format(path, error)
        ) from error
    if not isinstance(manifest, dict) or manifest.get("magic") != _MAGIC:
        raise SnapshotError(
            "{}: not a repro serving snapshot".format(path)
        )
    if manifest.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(
            "{}: snapshot format {} is not supported (this build reads "
            "format {})".format(path, manifest.get("format"), SNAPSHOT_FORMAT)
        )
    return manifest


def load_session(path, **session_options):
    """Rebuild a warm :class:`SimilaritySession` from a snapshot file.

    Returns ``(session, info)`` where ``info`` carries the manifest
    metadata plus the preload counts (``matrices`` / ``column_norms``
    / ``diagonals`` installed, ``skipped``).  Raises
    :class:`~repro.exceptions.SnapshotError` on a missing, foreign,
    corrupt, or wrong-format file.
    """
    try:
        archive = np.load(path, allow_pickle=False)
    except FileNotFoundError as error:
        raise SnapshotError(
            "{}: no such snapshot file".format(path)
        ) from error
    except (OSError, ValueError, zipfile.BadZipFile) as error:
        raise SnapshotError(
            "{}: unreadable snapshot ({})".format(path, error)
        ) from error
    with archive:
        manifest = _read_manifest(archive, path)
        try:
            database = database_from_json(str(archive["database"]))
            session = SimilaritySession(database, **session_options)
            n = session.view.num_nodes()
            reader = PoolReader(archive)
            matrices = unpool_matrices(reader, manifest["matrices"], "m", n)
            column_norms = unpool_vectors(
                reader, manifest["column_norms"], "norm"
            )
            diagonals = unpool_vectors(reader, manifest["diagonals"], "diag")
        except (KeyError, TypeError, ValueError) as error:
            raise SnapshotError(
                "{}: corrupt snapshot payload ({})".format(path, error)
            ) from error
    loaded = session.engine.preload(
        matrices, column_norms=column_norms, diagonals=diagonals
    )
    info = {
        "saved_at": manifest["saved_at"],
        "service_version": manifest["service_version"],
        "num_nodes": manifest["num_nodes"],
        "num_edges": manifest["num_edges"],
    }
    info.update(loaded)
    return session, info


def load_service(path, **session_options):
    """A warm :class:`SimilarityService` straight from a snapshot file.

    The loaded session is adopted as the service's first snapshot
    (version 1) — no copy, no rebuild: the session is private by
    construction.  ``session_options`` (``memory_budget``, ...) apply
    to the loaded session, whose preload evicts under the budget, and
    to every session a later swap builds.  Returns ``(service, info)``
    like :func:`load_session`.  Checkpointing back to the same file is
    the caller's choice — wire it with ``service.checkpoint =
    lambda svc, version: save_snapshot(path, svc)``.
    """
    session, info = load_session(path, **session_options)
    return SimilarityService(session=session, **session_options), info
