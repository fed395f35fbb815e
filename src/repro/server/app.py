"""``repro serve`` — an asyncio HTTP/JSON front-end over the service.

Stdlib only: one event loop accepts connections and parses HTTP/1.1,
similarity work runs on a small thread pool (the scoring path is
NumPy-bound and releases the GIL), and concurrent ``/query`` requests
coalesce through :class:`~repro.server.batching.CoalescingBatcher` into
single ``run_many`` calls.

Operational behavior:

* **Backpressure** — at most ``max_inflight`` requests are in flight;
  beyond that the server answers ``503`` with ``Retry-After`` instead
  of queueing unboundedly.  It never hangs and never drops a
  connection silently.  ``/healthz`` and ``/statz`` are exempt so an
  operator can always see inside a saturated server.
* **Live updates** — ``POST /apply`` patches the served snapshot
  through :meth:`SimilarityService.apply`; a failed delta returns an
  error and leaves the served snapshot and version untouched.
* **Standing queries** — ``POST /subscribe`` upgrades the connection
  to a Server-Sent-Events stream: the subscription's initial snapshot
  ranking arrives first, then one ``update`` event per ranking change
  (see :meth:`SimilarityService.subscribe`).  Each stream's writes
  await ``drain()``, so a slow subscriber backpressures only its own
  connection; a subscriber that stops reading long enough to overflow
  its event buffer is disconnected rather than buffered unboundedly.
* **Durability** — with a ``snapshot_path``, the service's checkpoint
  hook re-saves the serving snapshot after every successful apply, so
  a restart warm-starts from the last published state.

Endpoints (JSON in, JSON out; see :mod:`repro.server.protocol` for
payload shapes): ``POST /query``, ``POST /rank_many``, ``POST
/apply``, ``POST /subscribe`` (SSE out), ``GET|POST /explain``,
``GET /healthz``, ``GET /statz``.
"""

import asyncio
import concurrent.futures
import math
import signal
import threading
import time
from functools import partial
from http.client import responses as _REASONS

from repro.exceptions import ConfigurationError
from repro.server import protocol
from repro.server.batching import PREPARED_DEFAULT, CoalescingBatcher
from repro.server.protocol import HttpError

#: Request bodies larger than this are refused with 413 — similarity
#: payloads are node ids and edge triples, never megabytes.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Flush threshold for response writes.  Responses are written without
#: awaiting ``drain()`` (the per-response coroutine hop costs more than
#: the entire canned write on the hot path); the transport buffers, and
#: only a genuinely backed-up connection (slow reader) forces a drain.
_WRITE_HIGH_WATER = 64 * 1024


class _EventStream:
    """A handler's signal that the response is an SSE stream.

    ``_handle_subscribe`` returns one of these instead of a JSON
    payload; ``_handle_one`` spots it and hands the connection over to
    ``_stream_events``.  ``queue`` is loop-bound and fed by the
    subscription callback via ``call_soon_threadsafe``; ``overflowed``
    flips when the queue was full at delivery time, after which the
    stream closes (the client's maintained ranking could be stale).
    """

    __slots__ = ("subscription", "queue", "overflowed")

    def __init__(self, subscription, queue):
        self.subscription = subscription
        self.queue = queue
        self.overflowed = False


class ReproServer:
    """Serve a :class:`SimilarityService` + prepared query over HTTP.

    Parameters
    ----------
    service:
        The :class:`~repro.api.service.SimilarityService` behind
        ``/apply``, ``/healthz``, ``/statz``.
    prepared:
        The service-issued :class:`~repro.api.prepared.PreparedQuery`
        answering ``/query`` and ``/rank_many`` (the service re-binds
        it on every swap, so the server never touches it on update).
    host, port:
        Bind address.  ``port=0`` picks a free port; the bound port is
        in :attr:`port` once serving.
    coalesce, coalesce_window, max_batch:
        Request-coalescing controls (see
        :class:`~repro.server.batching.CoalescingBatcher`);
        ``coalesce=False`` runs every ``/query`` as its own
        ``run`` call — the serial baseline the coalescing benchmark
        gates against.
    max_inflight:
        Bound on concurrently handled requests; excess gets 503 with a
        ``Retry-After`` derived from the current congestion.
    max_subscribers:
        Bound on concurrent ``/subscribe`` SSE streams (each pins a
        connection and a live subscription); excess gets 503.
    threads:
        Worker threads for similarity execution (at least 1).
    snapshot_path:
        When set, the service checkpoints to this file after every
        successful apply/swap (an fsynced, atomic replace).
    """

    def __init__(
        self,
        service,
        prepared,
        host="127.0.0.1",
        port=8321,
        coalesce=True,
        coalesce_window=0.002,
        max_batch=64,
        max_inflight=64,
        max_subscribers=32,
        threads=4,
        snapshot_path=None,
    ):
        if max_inflight < 1:
            raise ConfigurationError(
                "max_inflight must be >= 1, got {}".format(max_inflight)
            )
        if max_subscribers < 0:
            raise ConfigurationError(
                "max_subscribers must be >= 0, got {}".format(max_subscribers)
            )
        if threads < 1:
            raise ConfigurationError(
                "threads must be >= 1, got {}".format(threads)
            )
        if max_batch < 1:
            raise ConfigurationError(
                "max_batch must be >= 1, got {}".format(max_batch)
            )
        if coalesce_window < 0:
            raise ConfigurationError(
                "coalesce_window must be >= 0 seconds, got {}".format(
                    coalesce_window
                )
            )
        self.service = service
        self.prepared = prepared
        self.host = host
        self.port = port
        self.snapshot_path = snapshot_path
        self._coalesce = coalesce
        self._coalesce_window = coalesce_window
        self._max_batch = max_batch
        self._max_inflight = max_inflight
        self._max_subscribers = max_subscribers
        self._sse_active = 0
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=threads,
            thread_name_prefix="repro-serve",
        )
        self._batcher = None  # built on the serving loop
        self._loop = None
        self._shutdown = None
        self._connections = set()
        self._inflight = 0
        self._started_at = time.monotonic()
        self._stats = {"requests": 0, "rejected": 0, "errors": 0}
        self._routes = {
            "/query": (("POST",), self._handle_query),
            "/rank_many": (("POST",), self._handle_rank_many),
            "/apply": (("POST",), self._handle_apply),
            "/subscribe": (("POST",), self._handle_subscribe),
            "/explain": (("GET", "POST"), self._handle_explain),
            "/healthz": (("GET",), self._handle_healthz),
            "/statz": (("GET",), self._handle_statz),
        }
        if snapshot_path is not None:
            from repro.server.snapshot import save_snapshot

            service.checkpoint = lambda svc, version: save_snapshot(
                snapshot_path, svc
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def serve(self, started=None):
        """Serve until :meth:`request_shutdown`; the server coroutine.

        ``started`` (if given) is called once the socket is bound —
        :class:`BackgroundServer` uses it to unblock its ``__enter__``.
        """
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        if self._coalesce:
            self._batcher = CoalescingBatcher(
                self.prepared,
                window=self._coalesce_window,
                max_batch=self._max_batch,
                executor=self._executor,
            )
        server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        if started is not None:
            started()
        try:
            await self._shutdown.wait()
        finally:
            server.close()
            await server.wait_closed()
            # Keep-alive connections idle in readline() would outlive
            # the loop; cancel them so shutdown is prompt and clean.
            for task in list(self._connections):
                task.cancel()
            if self._connections:
                await asyncio.gather(
                    *self._connections, return_exceptions=True
                )
            self._executor.shutdown(wait=True)

    def serve_forever(self):
        """Run the server on a fresh loop until SIGTERM/SIGINT.

        Prints the bound address (the line scripts parse for the
        port); returns once shutdown completes.
        """

        async def main():
            def announce():
                print(
                    "serving repro on http://{}:{} (snapshot version "
                    "{})".format(self.host, self.port, self.service.version),
                    flush=True,
                )

            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.request_shutdown)
                except (NotImplementedError, RuntimeError):
                    pass  # platform without loop signal support
            await self.serve(started=announce)

        asyncio.run(main())

    def request_shutdown(self):
        """Ask the serving loop to stop; safe from any thread."""
        loop = self._loop
        if loop is None or self._shutdown is None:
            return
        loop.call_soon_threadsafe(self._shutdown.set)

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer):
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while not self._shutdown.is_set():
                keep_alive = await self._handle_one(reader, writer)
                if not keep_alive:
                    break
        except (
            asyncio.CancelledError,
            asyncio.IncompleteReadError,
            ConnectionError,
        ):
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _handle_one(self, reader, writer):
        """Serve one request; returns whether to keep the connection.

        The whole header block is read with a single ``readuntil`` —
        per-line reads cost one event-loop hop each, and on the hot
        path the loop thread *is* the throughput budget.
        """
        try:
            block = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as error:
            if error.partial:
                await self._respond(
                    writer, 400, {"error": "truncated request"}, {}, False
                )
            return False
        except asyncio.LimitOverrunError:
            await self._respond(
                writer, 431, {"error": "request headers too large"}, {},
                False,
            )
            return False
        lines = block[:-4].decode("latin-1").split("\r\n")
        try:
            method, target, http_version = lines[0].split()
        except ValueError:
            await self._respond(
                writer, 400, {"error": "malformed request line"}, {}, False
            )
            return False
        length = 0
        connection = ""
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.lower()
            if name == "content-length":
                try:
                    length = int(value)
                except ValueError:
                    length = -1
            elif name == "connection":
                connection = value.strip().lower()
        if length < 0:
            await self._respond(
                writer, 400, {"error": "bad Content-Length"}, {}, False
            )
            return False
        if length > MAX_BODY_BYTES:
            await self._respond(
                writer,
                413,
                {
                    "error": "request body of {} bytes exceeds the {} "
                    "byte limit".format(length, MAX_BODY_BYTES)
                },
                {},
                False,
            )
            return False
        body = await reader.readexactly(length) if length else b""
        keep_alive = (
            http_version == "HTTP/1.1" and connection != "close"
        )
        path = target.split("?", 1)[0]
        status, payload, extra = await self._serve_request(method, path, body)
        if isinstance(payload, _EventStream):
            # The connection now belongs to the event stream; it never
            # returns to request parsing (SSE is one response that
            # stays open until either side hangs up).
            await self._stream_events(writer, payload)
            return False
        await self._respond(writer, status, payload, extra, keep_alive)
        return keep_alive

    def _retry_after(self):
        """Seconds a rejected client should wait, from congestion depth.

        Rejection caps ``_inflight`` at ``max_inflight``, so sustained
        overload shows up as work queued *behind* the cap — the
        batcher's open window.  Estimate one generation of
        ``max_inflight`` requests per second and clamp to [1, 8]: a
        barely-saturated server invites a quick retry, a deeply backed
        up one pushes the herd further out instead of re-absorbing it
        immediately.
        """
        backlog = self._inflight
        if self._batcher is not None:
            backlog += self._batcher.queued
        generations = math.ceil(backlog / self._max_inflight)
        return str(max(1, min(8, generations)))

    async def _serve_request(self, method, path, body):
        """Route + backpressure + error mapping -> (status, payload, hdrs)."""
        self._stats["requests"] += 1
        route = self._routes.get(path)
        if route is None:
            return 404, {"error": "no such endpoint: {}".format(path)}, {}
        methods, handler = route
        if method not in methods:
            return (
                405,
                {"error": "{} does not allow {}".format(path, method)},
                {"Allow": ", ".join(methods)},
            )
        introspection = path in ("/healthz", "/statz")
        if not introspection and self._inflight >= self._max_inflight:
            self._stats["rejected"] += 1
            return (
                503,
                {
                    "error": "server saturated ({} requests in "
                    "flight)".format(self._inflight),
                },
                {"Retry-After": self._retry_after()},
            )
        self._inflight += 1
        try:
            payload = protocol.parse_body(body)
            return 200, await handler(payload), {}
        except Exception as error:
            status, payload, extra = protocol.error_response(error)
            if status >= 500:
                self._stats["errors"] += 1
            return status, payload, extra
        finally:
            self._inflight -= 1

    async def _respond(self, writer, status, payload, headers, keep_alive):
        body = protocol.encode_json(payload)
        reason = _REASONS.get(status, "Unknown")
        lines = [
            "HTTP/1.1 {} {}".format(status, reason),
            "Content-Type: application/json",
            "Content-Length: {}".format(len(body)),
            "Connection: {}".format("keep-alive" if keep_alive else "close"),
        ]
        for name, value in headers.items():
            lines.append("{}: {}".format(name, value))
        writer.write(
            ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
        )
        if writer.transport.get_write_buffer_size() > _WRITE_HIGH_WATER:
            await writer.drain()

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _run_blocking(self, func, *args, **kwargs):
        return self._loop.run_in_executor(
            self._executor, partial(func, *args, **kwargs)
        )

    def _requested_top_k(self, payload):
        # Three-valued: absent -> the prepared default; present and
        # null -> explicitly the full ranking; present -> that cutoff.
        if "top_k" not in payload:
            return PREPARED_DEFAULT
        return protocol.optional_int(payload, "top_k")

    async def _handle_query(self, payload):
        node = protocol.require_str(payload, "node")
        top_k = self._requested_top_k(payload)
        if self._batcher is not None:
            ranking = await self._batcher.submit(node, top_k)
        elif top_k is PREPARED_DEFAULT:
            ranking = await self._run_blocking(self.prepared.run, node)
        else:
            ranking = await self._run_blocking(
                self.prepared.run, node, top_k=top_k
            )
        return {
            "node": node,
            "version": self.service.version,
            "ranking": protocol.ranking_payload(ranking),
        }

    async def _handle_rank_many(self, payload):
        nodes = protocol.string_list(payload, "nodes", required=True)
        if not nodes:
            raise HttpError(400, "field 'nodes' must not be empty")
        top_k = self._requested_top_k(payload)
        if top_k is PREPARED_DEFAULT:
            rankings = await self._run_blocking(
                self.prepared.run_many, nodes
            )
        else:
            rankings = await self._run_blocking(
                self.prepared.run_many, nodes, top_k=top_k
            )
        return {
            "version": self.service.version,
            "rankings": {
                node: protocol.ranking_payload(rankings[node])
                for node in rankings
            },
        }

    async def _handle_apply(self, payload):
        edges_added = protocol.edge_list(payload, "edges_added")
        edges_removed = protocol.edge_list(payload, "edges_removed")
        nodes_added = protocol.node_list(payload, "nodes_added")
        if not (edges_added or edges_removed or nodes_added):
            raise HttpError(400, "empty delta: nothing to apply")
        version = await self._run_blocking(
            self.service.apply,
            edges_added=edges_added,
            edges_removed=edges_removed,
            nodes_added=nodes_added,
        )
        return {"version": version}

    async def _handle_subscribe(self, payload):
        node = protocol.require_str(payload, "node")
        top_k = self._requested_top_k(payload)
        if self._sse_active >= self._max_subscribers:
            raise HttpError(
                503,
                "subscriber limit reached ({} active streams)".format(
                    self._sse_active
                ),
                {"Retry-After": self._retry_after()},
            )
        loop = self._loop
        stream = _EventStream(None, asyncio.Queue(maxsize=256))

        def enqueue(event):
            # On the loop.  Once the buffer overflows the stream is
            # doomed (its maintained ranking would be stale), so stop
            # accepting events and let the pump close it.
            if stream.overflowed:
                return
            try:
                stream.queue.put_nowait(event)
            except asyncio.QueueFull:
                stream.overflowed = True

        def deliver(event):
            # On the notifier thread: hand off and return immediately —
            # a slow subscriber must never stall notification fan-out.
            loop.call_soon_threadsafe(enqueue, event)

        kwargs = {} if top_k is PREPARED_DEFAULT else {"top_k": top_k}
        # Reserve the slot before awaiting: requests that arrive while
        # subscribe() runs must see it taken, or they all pass the
        # limit check above.  ``_stream_events`` releases it.
        self._sse_active += 1
        try:
            # subscribe() computes the initial ranking (and validates
            # the node — an unknown one 404s here, before any SSE
            # bytes).  The snapshot event arrives through ``deliver``
            # like every other.
            stream.subscription = await self._run_blocking(
                self.service.subscribe, self.prepared, node, deliver,
                **kwargs
            )
        except BaseException:
            self._sse_active -= 1
            raise
        return stream

    async def _stream_events(self, writer, stream):
        """Pump one subscription's events over an open SSE response.

        Each frame awaits ``drain()`` — per-connection backpressure: a
        slow reader stalls only its own stream, never the notifier
        thread or other subscribers.  Exceptions (client hangup,
        shutdown cancellation) propagate to ``_handle_connection``; the
        ``finally`` guarantees the subscription dies with the stream.
        """
        try:
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/event-stream\r\n"
                b"Cache-Control: no-cache\r\n"
                b"Connection: close\r\n\r\n"
            )
            await writer.drain()
            while True:
                event = await stream.queue.get()
                writer.write(
                    protocol.encode_sse_event(event.type, event.to_dict())
                )
                await writer.drain()
                if stream.overflowed and stream.queue.empty():
                    writer.write(
                        protocol.encode_sse_event(
                            "overflow",
                            {"error": "event buffer overflowed; resubscribe"},
                        )
                    )
                    await writer.drain()
                    return
        finally:
            stream.subscription.cancel()
            self._sse_active -= 1

    async def _handle_explain(self, payload):
        patterns = protocol.string_list(payload, "patterns")
        if patterns:
            report = await self._run_blocking(
                self.service.session.explain, patterns
            )
        else:
            report = await self._run_blocking(self.prepared.explain)
        return {"version": self.service.version, "explain": report}

    async def _handle_healthz(self, payload):
        last_error = self.service.last_error
        report = {
            "status": "degraded" if last_error else "ok",
            "version": self.service.version,
            "uptime": time.monotonic() - self._started_at,
        }
        if last_error:
            report["last_error"] = {
                "operation": last_error["operation"],
                "message": last_error["message"],
                "time": last_error["time"],
                "version": last_error["version"],
            }
        return report

    async def _handle_statz(self, payload):
        stats = {
            "version": self.service.version,
            "inflight": self._inflight,
            "max_inflight": self._max_inflight,
            "requests": self._stats["requests"],
            "rejected": self._stats["rejected"],
            "errors": self._stats["errors"],
            "coalesce": self._batcher is not None,
            "cache_info": self.service.session.cache_info(),
            "delta_stats": self.service.delta_stats,
            "subscriptions": dict(
                self.service.subscription_stats,
                sse_streams=self._sse_active,
                max_sse_streams=self._max_subscribers,
            ),
        }
        if self._batcher is not None:
            stats["queued"] = self._batcher.queued
            stats["coalesce_window"] = self._coalesce_window
            stats["batcher"] = self._batcher.stats()
        return stats


class BackgroundServer:
    """A :class:`ReproServer` on a daemon thread, as a context manager.

    The in-process deployment shape — tests, benchmarks, and the
    quickstart boot one of these, talk real HTTP to it, and tear it
    down on exit::

        with BackgroundServer(service, prepared, port=0) as server:
            url = "http://{}:{}/query".format(*server.address)

    ``port=0`` (recommended) binds a free port; :attr:`address` has
    the real one once ``__enter__`` returns.
    """

    def __init__(self, service, prepared, **options):
        self.server = ReproServer(service, prepared, **options)
        self._thread = None
        self._started = threading.Event()
        self._failure = None

    @property
    def address(self):
        """``(host, port)`` actually bound."""
        return self.server.host, self.server.port

    def _run(self):
        try:
            asyncio.run(self.server.serve(started=self._started.set))
        except BaseException as error:
            self._failure = error
        finally:
            self._started.set()

    def __enter__(self):
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("server did not start within 30s")
        if self._failure is not None:
            raise RuntimeError(
                "server failed to start: {}".format(self._failure)
            ) from self._failure
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.server.request_shutdown()
        self._thread.join(timeout=30)
        return False
