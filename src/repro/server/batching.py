"""Micro-batching queue: coalesce concurrent top-k requests into one run.

The batch scoring path (PR 2) answers ``B`` queries with one sparse row
slice per pattern, so a batch of concurrent requests costs barely more
than a single one — but HTTP delivers requests one at a time.  The
:class:`CoalescingBatcher` closes that gap on the event loop: the first
request for a prepared query opens a *window* (a few milliseconds);
every request arriving inside it joins the batch; when the window
closes (or the batch hits ``max_batch``), the whole batch executes as
one :meth:`~repro.api.prepared.PreparedQuery.run_many` call on a worker
thread and each request's future resolves with its own ranking.

Semantics guarantees:

* **Identity** — ``run_many`` is contractually identical to per-node
  ``run`` (the PR-2 array-native gate), so coalescing never changes a
  response, only its latency profile.
* **Error isolation** — a batch that raises (one unknown node, say) is
  retried per node, so a poisoned request fails alone; its neighbors
  in the batch still get their rankings.
* **Mixed options** — requests with different ``top_k`` values batch
  separately (one ``run_many`` per distinct value); the common serving
  case (everyone on the prepared default) stays a single call.

The batcher is event-loop-bound: ``submit`` must be awaited on the loop
that owns the batcher (the server's), which makes the pending-list
manipulation race-free without locks.
"""

import asyncio
from functools import partial

from repro.exceptions import ConfigurationError

#: "Use the prepared query's default top_k" — distinct from None, which
#: explicitly requests the full ranking.
PREPARED_DEFAULT = object()


class CoalescingBatcher:
    """Coalesce concurrent requests for one prepared query.

    Parameters
    ----------
    prepared:
        The :class:`~repro.api.prepared.PreparedQuery` (or any object
        with ``run(node, top_k=...)`` / ``run_many(nodes, top_k=...)``)
        that executes batches.  Service-issued handles stay valid
        across live updates, so the batcher never needs rebinding.
    window:
        Seconds the first request of a batch waits for company.  ``0``
        still coalesces whatever arrives during the same event-loop
        pass (the sleep yields once), giving adaptive batching under
        load with no idle latency tax.
    max_batch:
        Flush immediately once this many requests are pending.
    executor:
        The :class:`~concurrent.futures.Executor` batches run on
        (``None`` = the loop's default).
    """

    def __init__(self, prepared, window=0.002, max_batch=64, executor=None):
        if window < 0:
            raise ConfigurationError(
                "window must be >= 0, got {}".format(window)
            )
        if max_batch < 1:
            raise ConfigurationError(
                "max_batch must be >= 1, got {}".format(max_batch)
            )
        self._prepared = prepared
        self._window = window
        self._max_batch = max_batch
        self._executor = executor
        self._pending = []  # [(node, top_k, future)]
        self._flusher = None  # the window timer task, when a batch is open
        self._stats = {
            "requests": 0,
            "batches": 0,
            "largest_batch": 0,
            "isolated_errors": 0,
            "fallback_nodes": 0,
        }

    @property
    def queued(self):
        """Requests waiting for the current window to close."""
        return len(self._pending)

    def stats(self):
        """Counters: requests, batches, largest_batch, isolated_errors,
        and fallback_nodes (requests re-run alone after a batch failed).
        """
        return dict(self._stats)

    async def submit(self, node, top_k=PREPARED_DEFAULT):
        """The ranking for ``node``, batched with concurrent submitters."""
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._pending.append((node, top_k, future))
        self._stats["requests"] += 1
        if len(self._pending) >= self._max_batch:
            self._flush()
        elif self._flusher is None:
            self._flusher = loop.create_task(self._close_window())
        return await future

    async def _close_window(self):
        await asyncio.sleep(self._window)
        # Run the batch on this already-scheduled task instead of
        # spawning another; submit() resets self._flusher so a new
        # window can open while this batch executes.
        self._flusher = None
        batch, self._pending = self._pending, []
        if batch:
            await self._run_batch(batch)

    def _flush(self):
        if self._flusher is not None:
            self._flusher.cancel()
            self._flusher = None
        batch, self._pending = self._pending, []
        if batch:
            asyncio.get_running_loop().create_task(self._run_batch(batch))

    async def _run_batch(self, batch):
        self._stats["batches"] += 1
        self._stats["largest_batch"] = max(
            self._stats["largest_batch"], len(batch)
        )
        groups = {}
        for node, top_k, future in batch:
            groups.setdefault(top_k, []).append((node, future))
        for top_k, entries in groups.items():
            await self._run_group(top_k, entries)

    async def _run_group(self, top_k, entries):
        loop = asyncio.get_running_loop()
        nodes = [node for node, _ in entries]
        kwargs = {} if top_k is PREPARED_DEFAULT else {"top_k": top_k}
        try:
            rankings = await loop.run_in_executor(
                self._executor,
                partial(self._prepared.run_many, nodes, **kwargs),
            )
        except Exception:
            # One bad node must not poison its batch neighbors: retry
            # each request alone so exactly the failing ones fail.
            self._stats["fallback_nodes"] += len(entries)
            await asyncio.gather(
                *(
                    self._run_single(node, kwargs, future)
                    for node, future in entries
                )
            )
            return
        for node, future in entries:
            if not future.cancelled():
                future.set_result(rankings[node])

    async def _run_single(self, node, kwargs, future):
        loop = asyncio.get_running_loop()
        try:
            ranking = await loop.run_in_executor(
                self._executor,
                partial(self._prepared.run, node, **kwargs),
            )
        except Exception as error:
            self._stats["isolated_errors"] += 1
            if not future.cancelled():
                future.set_exception(error)
        else:
            if not future.cancelled():
                future.set_result(ranking)
