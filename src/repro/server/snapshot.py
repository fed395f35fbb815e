"""Serving-snapshot persistence: save once, warm-start forever.

A cold ``repro serve`` pays the full build bill before the first
request: load the database, compile every prepared pattern, multiply
out the commuting-matrix chains, extract diagonals and column norms.
All of that state is deterministic given the graph, so it belongs on
disk: :func:`save_snapshot` serializes the serving session — its
:class:`~repro.graph.matrices.MatrixView` and the engine's cache
records — into one ``.npz`` file, and :func:`load_session` /
:func:`load_service` rebuild a session over a detached view whose
engine cache is already hot, so preparation is pure cache hits.

Format 3 holds no database.  The manifest carries the schema and the
node table (node ids and types, in indexer order); each used label's
adjacency CSR is stored as a record of its own, and the engine's cache
records follow in their own format
(:meth:`~repro.lang.matrix_semantics.CommutingMatrixEngine.export_cache`):
one manifest entry per ``(canonical pattern text, PlanEntry)`` record,
in LRU order.  Canonical text re-parses and re-compiles to the same
interned plan node in any process.  Matrices are stored as raw CSR
buffers and re-wrapped without validation on load (they were
canonicalized at publish time), so a warm boot is ``np.load`` plus
:meth:`~repro.lang.matrix_semantics.CommutingMatrixEngine.preload`.

Layout note: a serving cache holds dozens of small matrices, and zip
archives charge per *member*, not per byte — storing each buffer as its
own array made load time per-entry overhead.  Instead, all buffers of
one kind are concatenated into a single pooled array per dtype
(``mdata_float64``, ``midx_int32``, ``diagonal_float64``, ...), with
each record's dtypes and nnz in the manifest; loading slices views back
out of a handful of big reads.  Pools are segregated by dtype, never
cast, so the restored buffers are bit-for-bit the saved ones.

Writes are atomic and durable: the archive goes to a temp file that is
fsynced before ``os.replace`` moves it over the target, and the
directory is fsynced after, so the rename itself survives a power loss.
The serving layer checkpoints after every successful ``apply``/``swap``,
and a crash mid-checkpoint must leave the previous good snapshot
intact, never a torn or empty file.
"""

import json
import os
import tempfile
import time
import zipfile

import numpy as np

from repro.api.service import SimilarityService
from repro.api.session import SimilaritySession
from repro.exceptions import ReproError, SnapshotError
from repro.graph.io import schema_from_dict, schema_to_dict
from repro.graph.matrices import MatrixView, trusted_csr
from repro.lang.matrix_semantics import PlanEntry

#: Bumped whenever the on-disk layout changes incompatibly; a loader
#: refuses to guess at a format it does not know.  Format 1 stored
#: matrices, column norms and diagonals as three lists; format 2 stored
#: one list of whole records beside the database as JSON; format 3
#: stores the view (schema, node table, per-label CSR) and no database.
SNAPSHOT_FORMAT = 3

_MAGIC = "repro-serving-snapshot"


# ----------------------------------------------------------------------
# Pooled-array layout
# ----------------------------------------------------------------------
def _pool_records(records):
    """``(manifest entries, pool arrays)`` for ``[(text, PlanEntry)]``.

    Each buffer is appended to the pool of its kind and dtype; a
    record's manifest entry names its text, each buffer's dtype (None
    for an absent vector) and the nnz needed to slice it back out.
    """
    pools = {}

    def pool(prefix, buffer):
        if buffer is None:
            return None
        pools.setdefault("{}_{}".format(prefix, buffer.dtype), []).append(
            buffer
        )
        return str(buffer.dtype)

    manifest = [
        {
            "p": text,
            "nnz": int(entry.matrix.nnz),
            "data": pool("mdata", entry.matrix.data),
            "idx": pool("midx", entry.matrix.indices),
            "ptr": pool("mptr", entry.matrix.indptr),
            "norms": pool("norms", entry.norms),
            "diagonal": pool("diagonal", entry.diagonal),
        }
        for text, entry in records
    ]
    return manifest, {
        key: np.concatenate(buffers) for key, buffers in pools.items()
    }


def _unpool_records(arrays, manifest, n):
    """``[(text, PlanEntry)]`` rebuilt from pooled buffers, unvalidated.

    ``arrays`` is any mapping from pool key (``mdata_float64``, ...) to
    a 1-D ndarray, such as an ``np.load`` archive.  Buffers are sliced
    back out in the order they were pooled; a short pool raises
    ``ValueError`` (the loader maps it to :class:`SnapshotError`).
    """
    pools, offsets = {}, {}

    def take(prefix, dtype, count):
        if dtype is None:
            return None
        key = "{}_{}".format(prefix, dtype)
        if key not in pools:  # read each pool once: archives re-read
            pools[key], offsets[key] = arrays[key], 0
        start = offsets[key]
        offsets[key] = start + count
        chunk = pools[key][start : start + count]
        if len(chunk) != count:
            # repro-lint: ok(exception-taxonomy) internal control flow; callers convert it to SnapshotError
            raise ValueError("pool {} exhausted at {}".format(key, start))
        return chunk

    records = []
    for item in manifest:
        matrix = trusted_csr(
            take("mdata", item["data"], item["nnz"]),
            take("midx", item["idx"], item["nnz"]),
            take("mptr", item["ptr"], n + 1),
            n,
        )
        norms = take("norms", item["norms"], n)
        diagonal = take("diagonal", item["diagonal"], n)
        records.append((item["p"], PlanEntry.of(matrix, norms, diagonal)))
    return records


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
    a warm start goes into one ``.npz``: the session's view (schema,
    node table, every used label's CSR) and every engine cache record
    (a commuting matrix with its cached column norms and diagonal,
    keyed by canonical pattern text).  Returns a stats dict
    (``matrices`` / ``column_norms`` / ``diagonals`` counts of the
    records, their ``nnz``, ``bytes`` written).
    """
    session, service_version = _session_of(source)
    view, records = session.view, session.engine.export_cache()
    labels = sorted(view.used_labels())
    entries, pools = _pool_records(
        [(label, PlanEntry.of(view.adjacency(label))) for label in labels]
        + records
    )
    nodes = view.indexer.ids
    manifest = {
        "magic": _MAGIC,
        "format": SNAPSHOT_FORMAT,
        "saved_at": time.time(),
        "service_version": service_version,
        "num_nodes": len(nodes),
        "num_edges": view.num_edges(),
        "schema": schema_to_dict(view.schema),
        "nodes": nodes,
        "types": [view.node_type(node) for node in nodes],
        "labels": entries[: len(labels)],
        "records": entries[len(labels) :],
    }
    arrays = dict(pools, manifest=np.array(json.dumps(manifest)))

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
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    if hasattr(os, "O_DIRECTORY"):  # POSIX: make the rename durable too
        fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    return {
        "matrices": len(records),
        "column_norms": sum(e.norms is not None for _, e in records),
        "diagonals": sum(e.diagonal is not None for _, e in records),
        "nnz": sum(item["nnz"] for item in manifest["records"]),
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
            "format {}); re-seed the server from its JSON database".format(
                path, manifest.get("format"), SNAPSHOT_FORMAT
            )
        )
    return manifest


def load_session(path, **session_options):
    """Rebuild a warm :class:`SimilaritySession` from a snapshot file.

    Returns ``(session, info)`` where ``info`` carries the manifest
    metadata plus the preload counts (``matrices`` / ``column_norms``
    / ``diagonals`` installed, ``skipped``).  Raises
    :class:`~repro.exceptions.SnapshotError` on a missing, foreign,
    corrupt, or wrong-format file — including a schema that no longer
    parses or a label it lacks — while invalid ``session_options``
    raise as they would for any session.
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
            nodes = manifest["nodes"]
            count = len(manifest["labels"])
            records = _unpool_records(
                archive, manifest["labels"] + manifest["records"], len(nodes)
            )
            view = MatrixView.restore(
                schema_from_dict(manifest["schema"]),
                nodes,
                manifest["types"],
                {label: entry.matrix for label, entry in records[:count]},
            )
        except (KeyError, TypeError, ValueError, ReproError) as error:
            raise SnapshotError(
                "{}: corrupt snapshot payload ({})".format(path, error)
            ) from error
    session = SimilaritySession(view, **session_options)
    loaded = session.engine.preload(records[count:])
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
