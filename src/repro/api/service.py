"""`SimilarityService` — live-updatable serving over versions.

A version never changes once it is made: a session answers for the
graph its view holds, and a write makes the next version instead of
changing the current one.  The service serves the *current* version
and absorbs writes without pausing queries, by **atomic publication**:

* the service owns the current :class:`~repro.api.session.SimilaritySession`,
  whose detached :class:`~repro.graph.matrices.MatrixView` — schema,
  node table and per-label CSR — is the version's whole graph: no
  database is held or copied, and callers can keep writing their own
  database without touching what is served;
* :meth:`SimilarityService.apply` (edge/node deltas) makes the next
  version off the serving path with one call,
  :meth:`CommutingMatrixEngine.apply_delta
  <repro.lang.matrix_semantics.CommutingMatrixEngine.apply_delta>`,
  which returns a new engine whose view and cached matrices are
  patched by sparse delta propagation (bitwise identical to a rebuild
  at any batch size); :meth:`SimilarityService.swap` (a whole
  replacement database) is the only full session rebuild.  The
  current version keeps answering queries the entire time either way;
* every outstanding :class:`~repro.api.prepared.PreparedQuery` handed
  out by :meth:`prepare` is re-bound against the new version (engine
  cache re-warmed; after a swap, pattern expansion re-run and matrices
  re-materialized too) *before* anything is published;
* publication is a handful of reference assignments: in-flight queries
  finish on the version they started on, new requests see the new one,
  and :attr:`version` increases monotonically.

Writes are serialized by an internal lock; queries never take it.
:attr:`SimilarityService.database` exports the current version as a new
``GraphDatabase`` in O(|V| + |E|), for work off the serving path.
"""

import threading
import time
import weakref

from repro.api.prepared import _UNSET
from repro.api.session import SimilaritySession
from repro.graph.matrices import MatrixView
from repro.similarity.base import SimilarityAlgorithm
from repro.exceptions import EvaluationError
from repro.streaming import DeltaReport, SubscriptionManager


class _Snapshot:
    """One immutable (session, version) pair; replaced wholesale on swap."""

    __slots__ = ("session", "version")

    def __init__(self, session, version):
        self.session = session
        self.version = version


def _types_a_held_node(view, nodes_added):
    """Whether ``nodes_added`` types a node ``view`` holds untyped."""
    return any(
        isinstance(entry, tuple)
        and entry[1] is not None
        and view.has_node(entry[0])
        and view.node_type(entry[0]) is None
        for entry in nodes_added
    )


class SimilarityService:
    """Serve similarity queries with live updates and prepared handles.

    Parameters
    ----------
    database:
        The initial :class:`~repro.graph.database.GraphDatabase`.  The
        first version is a detached view built from it (every used
        label's CSR and a copy of the node table), so later changes to
        ``database`` change nothing that is served.
    session:
        Alternatively, adopt an already-built
        :class:`SimilaritySession` as the first snapshot — the
        warm-start path (:func:`repro.server.snapshot.load_service`
        hands over a session over a detached view whose engine cache
        was preloaded from disk).  Mutually exclusive with
        ``database``; the session is trusted to be private.
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
        ``memory_budget``).  ``apply`` makes the next engine from the
        current one instead of rebuilding, and it inherits the same
        budget, so the budget holds across live updates too.

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
            initial = SimilaritySession(
                MatrixView(database).detach(), **self._session_options
            )
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
        """The current version exported as a new ``GraphDatabase``.

        An O(|V| + |E|) export of the serving view
        (:meth:`MatrixView.to_database
        <repro.graph.matrices.MatrixView.to_database>`), for work off
        the serving path; the caller owns the result.
        """
        return self._snapshot.session.view.to_database()

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
        """The most recent checkpoint failure, or ``None``.

        A checkpoint runs after its ``apply``/``swap`` has published, so
        its failure is recorded here instead of raised (a failing
        ``apply`` or ``swap`` itself raises to its caller) —
        ``/healthz`` reports it and flips its status to ``degraded``.
        A dict with ``operation`` (``"checkpoint"``), ``error`` (the
        exception), ``message``, ``time`` (unix), and ``version`` (the
        serving version when the failure was recorded).  Sticky until
        the next failure overwrites it or :meth:`clear_last_error` is
        called.
        """
        with self._mutate_lock:
            record = self._last_error
            return dict(record) if record is not None else None

    def clear_last_error(self):
        """Acknowledge (drop) the :attr:`last_error` record."""
        with self._mutate_lock:
            self._last_error = None

    def _checkpoint_after(self, version):
        # The swap is already published; a checkpoint failure degrades
        # durability (a restart warm-starts from the previous snapshot)
        # but must not fail the apply, so it is recorded, not raised.
        # Runs under the mutation lock, which last_error reads under.
        if self.checkpoint is None:
            return
        try:
            self.checkpoint(self, version)
        except Exception as error:
            self._last_error = {
                "operation": "checkpoint",
                "error": error,
                "message": "{}: {}".format(type(error).__name__, error),
                "time": time.time(),
                "version": version,
            }

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
    def apply(self, edges_added=(), edges_removed=(), nodes_added=()):
        """Apply a delta and swap in the updated snapshot.

        ``edges_added`` / ``edges_removed`` are iterables of
        ``(source, label, target)`` triples and ``nodes_added`` holds
        node ids or ``(node, type)`` pairs; the delta is validated as a
        batch — removing an absent edge raises
        :class:`~repro.exceptions.UnknownEdgeError` — and the serving
        snapshot is untouched until the whole update succeeds.

        The serving engine's :meth:`CommutingMatrixEngine.apply_delta
        <repro.lang.matrix_semantics.CommutingMatrixEngine.apply_delta>`
        returns the next engine: its detached view shares every buffer
        the delta leaves alone (no database is copied), and the view
        and every cached commuting matrix, diagonal and norm are
        *patched* via sparse delta propagation instead of being
        recomputed.  Live prepared handles re-warm from the patched
        records, recomputing only what changed (their Algorithm-1
        expansion is reused, not re-run).  Patching is exact integer
        arithmetic, so the resulting rankings are bitwise identical to a
        full rebuild at any batch size — ``benchmarks/bench_delta.py``
        gates both that identity and the speedup over :meth:`swap`.  A
        cached product whose input delta is too dense to patch cheaply
        is dropped and recomputed on next use
        (:data:`~repro.lang.delta.DELTA_REBUILD_THRESHOLD`);
        that per-product choice is what handles large batches.  To
        replace the database wholesale, :meth:`swap` it in.
        Publication is the same atomic snapshot swap as :meth:`swap`:
        in-flight queries finish on the old snapshot, and
        :attr:`version` increases monotonically.

        Returns the new :attr:`version`; a failed delta raises and never
        swaps.  Queries are served from the old snapshot throughout, so
        a caller that must not block (``repro serve``) runs this on a
        worker thread and waits there.
        """
        nodes_added = list(nodes_added)
        with self._mutate_lock:
            session = self._snapshot.session
            engine, stats = session.engine.apply_delta(
                edges_added=edges_added,
                edges_removed=edges_removed,
                nodes_added=nodes_added,
            )
            report = DeltaReport(
                labels=frozenset(stats["labels"]),
                grew=stats["nodes_added"] > 0,
            )
            if _types_a_held_node(session.view, nodes_added):
                # A node joined a type's candidates without an edge or
                # a node count changing: no footprint tells it apart.
                report = DeltaReport.unknown()
            version = self._publish_locked(
                SimilaritySession(engine.view, engine=engine),
                reuse_expansion=True,
                report=report,
            )
            self._delta_stats["incremental_applies"] += 1
            self._delta_stats["patched"] += stats["patched"]
            self._delta_stats["invalidated"] += stats["invalidated"]
            self._delta_stats["last_path"] = "incremental"
            self._checkpoint_after(version)
            return version

    def swap(self, database):
        """Replace the whole database and swap atomically.

        The service's only full rebuild — an arbitrary replacement
        database shares no delta with the serving snapshot to propagate,
        so every subscription re-ranks.  The new version is a detached
        view built from ``database``, so later changes to it change
        nothing that is served.  Returns the new :attr:`version`.
        """
        with self._mutate_lock:
            session = SimilaritySession(
                MatrixView(database).detach(), **self._session_options
            )
            version = self._publish_locked(session, reuse_expansion=False)
            self._delta_stats["full_rebuilds"] += 1
            self._delta_stats["last_path"] = "rebuild"
            self._checkpoint_after(version)
            return version

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
        view = snapshot.session.view
        return "SimilarityService(version={}, nodes={}, edges={})".format(
            snapshot.version, view.num_nodes(), view.num_edges()
        )
