"""Standing queries: push-based incremental top-k subscriptions.

A :class:`Subscription` pins one ``(prepared query, query node)`` pair
and keeps its top-k ranking current as
:class:`~repro.api.service.SimilarityService` publishes updates,
notifying a callback only when the ranking actually changes.  Each
published update takes one of two rungs:

1. **Pruned** — the delta's :class:`~repro.streaming.events.DeltaReport`
   does not touch the subscription's pattern-label footprint: the
   ranking provably kept every bit, at the cost of one frozenset
   intersection.
2. **Fallback** — any other update re-runs the prepared query in full
   and diffs the result against the maintained ranking.

The maintained ranking is therefore either the unchanged old one or a
fresh ``prepared.run`` result — bitwise identical to re-running the
query, by construction.  There is no rung in between: a certificate
that tried to prove a relevant delta left the top-k unchanged cost more
than the re-rank it skipped (see the README's "Standing queries").

Callbacks are dispatched from a dedicated notifier thread, never while
any lock is held: a slow or re-entrant subscriber cannot stall the
service's publish path or deadlock against it.
"""

import queue
import threading

from repro.streaming.events import DeltaReport, RankingEvent, diff_rankings

_UNSET = object()

#: Sentinel telling the notifier thread to exit.
_SHUTDOWN = object()


class Subscription:
    """A standing top-k query over one node, maintained under deltas.

    Obtained from :meth:`SimilarityService.subscribe`; not constructed
    directly.  Thread-safe: readers (:meth:`items`, :meth:`stats`) take
    the manager's lock, the callback runs on the notifier thread.
    """

    __slots__ = (
        "_manager",
        "_prepared",
        "node",
        "_callback",
        "_top_k",
        "_footprint",
        "_items",
        "_version",
        "_active",
        "_notified",
        "_pruned",
        "_fallbacks",
    )

    def __init__(self, manager, prepared, node, callback, top_k, footprint):
        self._manager = manager
        self._prepared = prepared
        self.node = node
        self._callback = callback
        self._top_k = top_k
        self._footprint = footprint
        self._items = []
        self._version = None
        self._active = True
        self._notified = 0
        self._pruned = 0
        self._fallbacks = 0

    @property
    def prepared(self):
        """The prepared query this subscription ranks with."""
        return self._prepared

    @property
    def top_k(self):
        """The ranking size maintained (``None`` = unbounded)."""
        return self._top_k

    @property
    def active(self):
        """False once :meth:`cancel` has detached the subscription."""
        return self._active

    @property
    def version(self):
        """The service version the maintained ranking reflects."""
        with self._manager._lock:
            return self._version

    def items(self):
        """The maintained ``(node, score)`` ranking (a copy)."""
        with self._manager._lock:
            return list(self._items)

    def stats(self):
        """Per-subscription maintenance counters."""
        with self._manager._lock:
            return {
                "notified": self._notified,
                "pruned": self._pruned,
                "fallbacks": self._fallbacks,
            }

    def cancel(self):
        """Detach: no further maintenance or notifications (idempotent)."""
        self._manager._cancel(self)

    def poll(self, report=None, version=_UNSET):
        """Run one maintenance step now, as if ``report`` was published.

        With ``report=None`` the update is treated as unknown (full
        fallback re-rank).  Primarily for tests and benchmarks — the
        service drives live subscriptions through its publish path.
        """
        if report is None:
            report = DeltaReport.unknown()
        with self._manager._lock:
            if not self._active:
                return
            new_version = self._version if version is _UNSET else version
            self._manager._maintain(self, new_version, report)


class SubscriptionManager:
    """Owns the subscription list and the notifier thread.

    ``on_publish`` is called by the service (under its mutation lock)
    after every successful publish; maintenance runs synchronously so a
    subscription is never behind the snapshot the service reports, but
    callbacks are only *enqueued* here and invoked later on the
    notifier thread with no lock held.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._notifier_lock = threading.Lock()
        self._subscriptions = []
        self._events = queue.Queue()
        self._notifier = None
        self._callback_errors = 0

    # ------------------------------------------------------------------
    # Subscription lifecycle
    # ------------------------------------------------------------------
    def subscribe(self, prepared, node, callback, top_k, version):
        """Create a live subscription and enqueue its snapshot event.

        The initial ranking is computed synchronously — an unknown
        ``node`` raises here, not on the notifier thread.  ``top_k`` is
        already resolved by the caller (the service applies the
        prepared query's default).
        """
        footprint = prepared.footprint()
        ranking = prepared.run(node, top_k=top_k)
        subscription = Subscription(
            self, prepared, node, callback, top_k, footprint
        )
        items = ranking.items()
        with self._lock:
            subscription._items = items
            subscription._version = version
            self._subscriptions.append(subscription)
        event = RankingEvent(
            "snapshot",
            version,
            items,
            entered=[node_ for node_, _ in items],
            left=[],
            reordered=[],
        )
        self._dispatch(subscription, event)
        return subscription

    def _cancel(self, subscription):
        with self._lock:
            subscription._active = False
            try:
                self._subscriptions.remove(subscription)
            except ValueError:
                pass

    def close(self):
        """Cancel everything and stop the notifier thread (if started)."""
        with self._lock:
            for subscription in self._subscriptions:
                subscription._active = False
            self._subscriptions = []
        with self._notifier_lock:
            notifier, self._notifier = self._notifier, None
        if notifier is not None:
            self._events.put(_SHUTDOWN)
            notifier.join(timeout=5)

    # ------------------------------------------------------------------
    # Publish-side maintenance
    # ------------------------------------------------------------------
    def on_publish(self, version, report):
        """Maintain every live subscription against one published update."""
        with self._lock:
            for subscription in list(self._subscriptions):
                self._maintain(subscription, version, report)

    def _maintain(self, subscription, version, report):
        # Caller holds self._lock.
        if not report.touches(subscription._footprint):
            subscription._pruned += 1
            subscription._version = version
            return
        ranking = subscription._prepared.run(
            subscription.node, top_k=subscription._top_k
        )
        subscription._fallbacks += 1
        new_items = ranking.items()
        old_items = subscription._items
        subscription._version = version
        if new_items == old_items:
            return
        subscription._items = new_items
        subscription._notified += 1
        entered, left, reordered = diff_rankings(old_items, new_items)
        event = RankingEvent(
            "update", version, new_items, entered, left, reordered
        )
        self._dispatch(subscription, event)

    # ------------------------------------------------------------------
    # Notifier thread
    # ------------------------------------------------------------------
    def _dispatch(self, subscription, event):
        if subscription._callback is None:
            return
        self._ensure_notifier()
        self._events.put((subscription, event))

    def _ensure_notifier(self):
        # A dedicated lock: _dispatch may run with or without
        # self._lock held, and threading.Lock is not reentrant.
        with self._notifier_lock:
            if self._notifier is None:
                thread = threading.Thread(
                    target=self._drain_events,
                    name="repro-subscription-notifier",
                    daemon=True,
                )
                self._notifier = thread
                thread.start()

    def _drain_events(self):
        while True:
            entry = self._events.get()
            try:
                if entry is _SHUTDOWN:
                    return
                subscription, event = entry
                if not subscription._active:
                    continue
                try:
                    subscription._callback(event)
                except Exception:
                    # A broken subscriber must not kill the notifier
                    # or starve other subscriptions.
                    with self._lock:
                        self._callback_errors += 1
            finally:
                self._events.task_done()

    def flush(self):
        """Block until every enqueued notification has been delivered."""
        self._events.join()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self):
        """Aggregate counters across live subscriptions.

        ``rescored`` is always 0: the certificate rung it counted is
        gone, and the key stays for readers of the earlier key set.
        """
        with self._lock:
            totals = {
                "active": len(self._subscriptions),
                "notified": 0,
                "pruned": 0,
                "rescored": 0,
                "fallbacks": 0,
                "callback_errors": self._callback_errors,
            }
            for subscription in self._subscriptions:
                totals["notified"] += subscription._notified
                totals["pruned"] += subscription._pruned
                totals["fallbacks"] += subscription._fallbacks
        return totals
