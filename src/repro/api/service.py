"""`SimilarityService` — live-updatable serving over session snapshots.

Sessions (and the matrix views / engines under them) are frozen
snapshots by design: mutate the database and every cached matrix goes
stale.  That is the right invariant for correctness but the wrong API
for serving — a production system must absorb edge churn without
pausing queries.  The service closes the gap with **atomic snapshot
swap**:

* the service owns the *current* :class:`~repro.api.session.SimilaritySession`
  over a private copy of the database (callers can keep mutating their
  own object without corrupting the snapshot);
* :meth:`SimilarityService.apply` (edge/node deltas) builds the next
  snapshot off the serving path by forking the serving engine and
  patching its cached matrices through sparse delta propagation
  (bitwise identical to a rebuild at any batch size);
  :meth:`SimilarityService.swap` (a whole replacement database) is the
  only full session rebuild.  The old snapshot keeps answering queries
  the entire time either way;
* every outstanding :class:`~repro.api.prepared.PreparedQuery` handed
  out by :meth:`prepare` is re-bound against the new snapshot (engine
  cache re-warmed; after a swap, pattern expansion re-run and matrices
  re-materialized too) *before* anything is published;
* publication is a handful of reference assignments: in-flight queries
  finish on the snapshot they started on, new requests see the new one,
  and :attr:`version` increases monotonically.

Mutations are serialized by an internal lock; queries never take it.
"""

import threading
import time
import weakref

from repro.api.prepared import _UNSET
from repro.api.session import SimilaritySession
from repro.similarity.base import SimilarityAlgorithm
from repro.exceptions import EvaluationError
from repro.streaming import DeltaReport, SubscriptionManager


class _Snapshot:
    """One immutable (session, version) pair; replaced wholesale on swap."""

    __slots__ = ("session", "version")

    def __init__(self, session, version):
        self.session = session
        self.version = version


class SimilarityService:
    """Serve similarity queries with live updates and prepared handles.

    Parameters
    ----------
    database:
        The initial :class:`~repro.graph.database.GraphDatabase`.
        Copied by default (``copy=False`` trusts the caller never to
        mutate it afterwards).
    copy:
        Whether to privately copy ``database`` (default True).
    session:
        Alternatively, adopt an already-built
        :class:`SimilaritySession` as the first snapshot — the
        warm-start path (:func:`repro.server.snapshot.load_service`
        hands over a session whose engine cache was preloaded from
        disk).  Mutually exclusive with ``database``; the session is
        trusted to be private (nobody else mutates its database).
    checkpoint:
        Optional ``callable(service, version)`` invoked after every
        *successful* ``apply``/``swap``, once the new snapshot is
        published — the persistence hook (``repro serve`` wires it to
        :func:`~repro.server.snapshot.save_snapshot`).  A checkpoint
        failure never un-publishes the swap; it is recorded in
        :attr:`last_error` instead.
    **session_options:
        Forwarded to every :class:`SimilaritySession` the service
        builds, now and after each swap (``max_star_depth``,
        ``memory_budget``).  ``apply`` forks the current engine instead
        of rebuilding, and a fork inherits the same budget, so it holds
        across live updates too.

    Usage::

        service = SimilarityService(db)
        prepared = service.prepare(
            algorithm="relsim", pattern="p-in.p-in-",
            expand={"max_patterns": 16}, top_k=10,
        )
        prepared.run("proc:0")                    # serves version 1
        service.apply(edges_added=[("paper:9", "p-in", "proc:0")])
        prepared.run("proc:0")                    # serves version 2
    """

    def __init__(
        self,
        database=None,
        copy=True,
        session=None,
        checkpoint=None,
        **session_options,
    ):
        self._session_options = dict(session_options)
        if session is not None:
            if database is not None:
                raise EvaluationError(
                    "pass either database= or session=, not both"
                )
            initial = session
        else:
            if database is None:
                raise EvaluationError(
                    "SimilarityService needs a database= or session="
                )
            snapshot_db = database.copy() if copy else database
            initial = SimilaritySession(snapshot_db, **self._session_options)
        self._snapshot = _Snapshot(initial, 1)
        self._mutate_lock = threading.RLock()
        self._handles = []
        self._last_error = None
        self.checkpoint = checkpoint
        self._delta_stats = {
            "incremental_applies": 0,
            "full_rebuilds": 0,
            "patched": 0,
            "invalidated": 0,
            "last_path": None,
        }
        self._subscriptions = SubscriptionManager()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def version(self):
        """Monotonically increasing snapshot version (starts at 1)."""
        return self._snapshot.version

    @property
    def session(self):
        """The current serving session (a frozen snapshot)."""
        return self._snapshot.session

    @property
    def database(self):
        """The current snapshot's database (service-private; don't mutate)."""
        return self._snapshot.session.database

    def prepared_queries(self):
        """The live prepared handles the service keeps fresh."""
        with self._mutate_lock:
            return [
                handle
                for handle in (ref() for ref in self._handles)
                if handle is not None
            ]

    @property
    def last_error(self):
        """The most recent *asynchronous* failure, or ``None``.

        Background ``apply``/``swap`` threads (``wait=False``) and
        checkpoint callbacks fail where no caller is waiting; besides
        the per-thread ``thread.error`` record, the service keeps the
        most recent such failure here so operators can see it —
        ``/healthz`` reports it and flips its status to ``degraded``.
        A dict with ``operation`` (``"apply"`` / ``"swap"`` /
        ``"checkpoint"``), ``error`` (the exception), ``message``,
        ``time`` (unix), and ``version`` (the serving version when the
        failure was recorded).  Sticky until the next failure
        overwrites it or :meth:`clear_last_error` is called.
        """
        with self._mutate_lock:
            record = self._last_error
            return dict(record) if record is not None else None

    def clear_last_error(self):
        """Acknowledge (drop) the :attr:`last_error` record."""
        with self._mutate_lock:
            self._last_error = None

    def _record_error(self, operation, error):
        with self._mutate_lock:
            self._last_error = {
                "operation": operation,
                "error": error,
                "message": "{}: {}".format(type(error).__name__, error),
                "time": time.time(),
                "version": self._snapshot.version,
            }

    def _checkpoint_after(self, version):
        # The swap is already published; a checkpoint failure degrades
        # durability (a restart warm-starts from the previous snapshot)
        # but must not fail the apply, so it is recorded, not raised.
        if self.checkpoint is None:
            return
        try:
            self.checkpoint(self, version)
        except Exception as error:
            self._record_error("checkpoint", error)

    @property
    def delta_stats(self):
        """Counters for the live-update paths taken so far.

        ``incremental_applies`` counts ``apply`` calls and
        ``full_rebuilds`` counts ``swap`` calls, ``patched`` /
        ``invalidated`` accumulate the engine's per-delta cache
        maintenance counts, and ``last_path`` names the route of the
        most recent mutation (``"incremental"`` for ``apply``,
        ``"rebuild"`` for ``swap``).
        """
        with self._mutate_lock:
            return dict(self._delta_stats)

    # ------------------------------------------------------------------
    # Query entry points
    # ------------------------------------------------------------------
    def prepare(self, algorithm="relsim", top_k=None, expand=None, **options):
        """A :class:`PreparedQuery` the service re-binds on every swap.

        Same signature as :meth:`SimilaritySession.prepare`, except the
        algorithm must be a registry *name*: re-binding rebuilds the
        instance on the new snapshot, which a pre-built instance cannot
        express.  Handles are tracked weakly — drop the reference and
        the service stops refreshing it.
        """
        if isinstance(algorithm, SimilarityAlgorithm):
            raise EvaluationError(
                "SimilarityService.prepare needs a registry name; a "
                "pre-built instance cannot be re-bound on snapshot swap"
            )
        with self._mutate_lock:
            # Under the mutation lock so a concurrent swap cannot slip
            # between binding against the old session and registering
            # the handle for future re-binds.
            prepared = self._snapshot.session.prepare(
                algorithm=algorithm, top_k=top_k, expand=expand, **options
            )
            # Prune dead refs here, not just on swap: a read-mostly
            # service preparing transient handles would otherwise grow
            # the list by one dead weakref per request.
            self._handles = [
                ref for ref in self._handles if ref() is not None
            ]
            self._handles.append(weakref.ref(prepared))
            return prepared

    def subscribe(self, prepared, node, callback=None, top_k=_UNSET):
        """A standing query: keep ``node``'s top-k current under deltas.

        ``prepared`` must be a live handle obtained from this service's
        :meth:`prepare` — that is what guarantees it is re-bound before
        every publish, so maintenance always scores the new snapshot.
        Returns a :class:`~repro.streaming.Subscription` whose
        maintained ranking is bitwise identical to re-running the
        prepared query after every update; ``callback(event)`` (when
        given) fires on a dedicated notifier thread with the initial
        snapshot and then only when the ranking actually changes.
        ``top_k`` defaults to the prepared query's own.
        """
        with self._mutate_lock:
            if not any(ref() is prepared for ref in self._handles):
                raise EvaluationError(
                    "subscribe() needs a prepared handle from this "
                    "service's prepare(); session-prepared or foreign "
                    "handles are not re-bound on publish"
                )
            if top_k is _UNSET:
                top_k = prepared.top_k
            return self._subscriptions.subscribe(
                prepared, node, callback, top_k, self._snapshot.version
            )

    @property
    def subscriptions(self):
        """The :class:`~repro.streaming.SubscriptionManager` (advanced)."""
        return self._subscriptions

    @property
    def subscription_stats(self):
        """Aggregate standing-query counters (see ``/statz``)."""
        return self._subscriptions.stats()

    def query(self, node):
        """A one-shot fluent builder on the current snapshot."""
        return self._snapshot.session.query(node)

    def rank_many(self, queries, algorithm="relsim", top_k=None, **options):
        """Batch ranking on the current snapshot (see session.rank_many)."""
        return self._snapshot.session.rank_many(
            queries, algorithm=algorithm, top_k=top_k, **options
        )

    # ------------------------------------------------------------------
    # Live updates
    # ------------------------------------------------------------------
    def apply(
        self,
        edges_added=(),
        edges_removed=(),
        nodes_added=(),
        wait=True,
    ):
        """Apply a delta and swap in the updated snapshot.

        ``edges_added`` / ``edges_removed`` are iterables of
        ``(source, label, target)`` triples and ``nodes_added`` holds
        node ids or ``(node, type)`` pairs; the delta is validated as a
        batch — removing an absent edge raises
        :class:`~repro.exceptions.UnknownEdgeError` — and the serving
        snapshot is untouched until the whole update succeeds.

        The serving engine is forked onto a private database copy and
        every cached commuting matrix, diagonal and norm is *patched*
        via sparse delta propagation
        (:meth:`CommutingMatrixEngine.apply_delta`) instead of being
        recomputed, and live prepared handles re-warm from the patched
        records, recomputing only what changed (their Algorithm-1
        expansion is reused, not re-run).  Patching is exact integer
        arithmetic, so the resulting rankings are bitwise identical to a
        full rebuild at any batch size — ``benchmarks/bench_delta.py``
        gates both that identity and the speedup over :meth:`swap`.  A
        cached product whose input delta is too dense to patch cheaply
        is dropped and recomputed on next use
        (:data:`~repro.lang.matrix_semantics.DELTA_REBUILD_THRESHOLD`);
        that per-product choice is what handles large batches.  To
        replace the database wholesale, :meth:`swap` it in.
        Publication is the same atomic snapshot swap as :meth:`swap`:
        in-flight queries finish on the old snapshot, and
        :attr:`version` increases monotonically.

        Returns the new :attr:`version`.  With ``wait=False`` the
        update runs on a background thread and the started
        ``threading.Thread`` is returned instead; after ``join()``,
        ``thread.version`` holds the new version and ``thread.error``
        the exception that aborted the update (``None`` on success) —
        a failed delta never swaps, so callers must check it.  Queries
        are served from the old snapshot throughout either way.
        """
        edges_added = list(edges_added)
        edges_removed = list(edges_removed)
        nodes_added = list(nodes_added)
        if not wait:
            return self._in_background(
                lambda: self.apply(edges_added, edges_removed, nodes_added),
                operation="apply",
            )
        with self._mutate_lock:
            # Fork the serving engine onto a private database copy,
            # patch the fork in place (old snapshot untouched — cached
            # matrices are shared but only ever *replaced* in the fork),
            # then publish through the same atomic protocol as a swap.
            old_session = self._snapshot.session
            database = old_session.database.copy()
            engine = old_session.engine.fork(database)
            stats = engine.apply_delta(
                edges_added=edges_added,
                edges_removed=edges_removed,
                nodes_added=nodes_added,
            )
            report = DeltaReport(
                labels=frozenset(stats["labels"]),
                grew=stats["nodes_added"] > 0,
            )
            version = self._publish_locked(
                SimilaritySession(database, engine=engine),
                reuse_expansion=True,
                report=report,
            )
            self._delta_stats["incremental_applies"] += 1
            self._delta_stats["patched"] += stats["patched"]
            self._delta_stats["invalidated"] += stats["invalidated"]
            self._delta_stats["last_path"] = "incremental"
            self._checkpoint_after(version)
            return version

    def swap(self, database, wait=True):
        """Replace the whole database (copied) and swap atomically.

        The service's only full rebuild — an arbitrary replacement
        database shares no delta with the serving snapshot to propagate,
        so every subscription re-ranks.  Returns the new
        :attr:`version` (or the background ``threading.Thread`` with
        ``wait=False``).
        """
        if not wait:
            return self._in_background(
                lambda: self.swap(database), operation="swap"
            )
        with self._mutate_lock:
            session = SimilaritySession(
                database.copy(), **self._session_options
            )
            version = self._publish_locked(session, reuse_expansion=False)
            self._delta_stats["full_rebuilds"] += 1
            self._delta_stats["last_path"] = "rebuild"
            self._checkpoint_after(version)
            return version

    def _in_background(self, target, operation):
        # The outcome is recorded on the thread object itself: a
        # background failure must be observable to the caller, not
        # swallowed into threading.excepthook while the service keeps
        # serving stale data.
        def runner():
            try:
                thread.version = target()
            except BaseException as error:
                # Recorded, not re-raised: thread.error is the caller's
                # signal; re-raising would only spam threading.excepthook.
                # Also kept on the service itself (last_error), because
                # fire-and-forget callers drop the thread object — the
                # record is how /healthz surfaces the failure.
                thread.error = error
                self._record_error(operation, error)

        thread = threading.Thread(target=runner, daemon=True)
        thread.version = None
        thread.error = None
        thread.start()
        return thread

    def _publish_locked(self, session, reuse_expansion, report=None):
        # Phase 1 (slow, off the serving path): rebuild every live
        # prepared handle against the new session.  On a swap,
        # expansion re-runs and matrices re-materialize; on an apply
        # the expansion is reused and re-warming is mostly cache hits
        # against the patched engine.  Either way the old snapshot keeps
        # answering queries throughout.
        rebinds = []
        surviving = []
        for ref in self._handles:
            handle = ref()
            if handle is None:
                continue
            rebinds.append(
                (handle, handle._rebound(session, reuse_expansion))
            )
            surviving.append(ref)
        self._handles = surviving
        # Phase 2 (fast): publish.  Each assignment is atomic, so any
        # in-flight run() holds a complete old bound state and any new
        # run() picks up a complete new one — never a mixture.
        for handle, bound in rebinds:
            handle._swap_bound(bound)
        self._snapshot = _Snapshot(session, self._snapshot.version + 1)
        version = self._snapshot.version
        # Standing queries last: handles are re-bound and the snapshot
        # is published, so maintenance scores the new state.  Without a
        # delta report (a swap) every subscription re-ranks.
        self._subscriptions.on_publish(
            version, report if report is not None else DeltaReport.unknown()
        )
        return version

    def __repr__(self):
        snapshot = self._snapshot
        return "SimilarityService(version={}, {!r})".format(
            snapshot.version, snapshot.session.database
        )
