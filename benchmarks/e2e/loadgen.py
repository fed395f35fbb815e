"""A one-thread asyncio HTTP load generator: closed and open loops.

One event loop drives at most a few keep-alive connections, so the
load comes from a single process and thread.  Each request yields a
:class:`Record`; bodies are kept and checked after the phase, so
answer checking never delays the next send.

* :func:`closed_loop` — every connection sends its next request as soon
  as the previous answer arrives (callers that wait for replies).
* :func:`open_loop` — requests fall due on a fixed schedule whether or
  not earlier ones finished (independent users).  Latency is timed
  from the *due* time, so a stall is charged to every request that
  waited behind it, and :attr:`Record.late` records how late the
  generator itself dispatched each request.
"""

import asyncio
import json
import time

clock = time.monotonic

#: How long an open loop waits, after its last request fell due, for
#: answers still outstanding; those still missing then count as failed.
DRAIN_SECONDS = 10.0


class Record:
    __slots__ = ("node", "due", "dispatched", "sent", "done", "status",
                 "body", "error")

    def __init__(self, node, due):
        self.node = node
        self.due = due
        self.dispatched = due
        self.sent = None
        self.done = None
        self.status = None
        self.body = None
        self.error = None

    @property
    def latency(self):
        """Seconds from when the request was due to its full answer."""
        return self.done - self.due

    @property
    def late(self):
        """Seconds the generator dispatched after the due time."""
        return self.dispatched - self.due

    @property
    def ok(self):
        return self.error is None and self.status == 200


class Connection:
    """One keep-alive HTTP/1.1 connection speaking ``POST /query``."""

    def __init__(self, host, port):
        self.host = host
        self.port = port
        self._reader = None
        self._writer = None

    async def open(self):
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self):
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass
            self._writer = None

    async def request(self, method, path, payload=None):
        """``(status, body bytes)``; reopens a connection the peer closed."""
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (
            "{} {} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json"
            "\r\nContent-Length: {}\r\n\r\n".format(
                method, path, self.host, len(body)
            )
        ).encode("latin-1")
        if self._writer is None:
            await self.open()
        self._writer.write(head + body)
        block = await self._reader.readuntil(b"\r\n\r\n")
        lines = block.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        closing = False
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection" and value.strip().lower() == "close":
                closing = True
        data = await self._reader.readexactly(length) if length else b""
        if closing:
            await self.close()
        return status, data


async def _serve(connection, record):
    record.sent = clock()
    try:
        record.status, record.body = await connection.request(
            "POST", "/query", {"node": record.node}
        )
    except (OSError, asyncio.IncompleteReadError, ValueError) as error:
        record.error = error
        await connection.close()
    record.done = clock()


async def closed_loop(address, connections, seconds, next_node):
    """Back-to-back requests on ``connections`` connections for ``seconds``."""
    records = []
    pool = [Connection(*address) for _ in range(connections)]
    for connection in pool:
        await connection.open()
    end = clock() + seconds

    async def client(connection):
        while clock() < end:
            record = Record(next_node(), clock())
            records.append(record)
            await _serve(connection, record)

    try:
        await asyncio.gather(*(client(connection) for connection in pool))
    finally:
        for connection in pool:
            await connection.close()
    return records


async def open_loop(address, connections, rate, seconds, next_node):
    """Requests due every ``1/rate`` s for ``seconds``, on ``connections``.

    Due requests queue for a free connection; a request still
    unanswered :data:`DRAIN_SECONDS` after the schedule ends is
    recorded with an error.
    """
    records = []
    queue = asyncio.Queue()
    pool = [Connection(*address) for _ in range(connections)]
    for connection in pool:
        await connection.open()
    start = clock()
    count = int(seconds * rate)

    async def schedule():
        for index in range(count):
            due = start + index / rate
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            record = Record(next_node(), due)
            record.dispatched = clock()
            records.append(record)
            queue.put_nowait(record)

    async def client(connection):
        while True:
            record = await queue.get()
            try:
                await _serve(connection, record)
            finally:
                queue.task_done()

    clients = [asyncio.ensure_future(client(c)) for c in pool]
    try:
        await schedule()
        try:
            await asyncio.wait_for(queue.join(), DRAIN_SECONDS)
        except asyncio.TimeoutError:
            pass
    finally:
        for task in clients:
            task.cancel()
        await asyncio.gather(*clients, return_exceptions=True)
        for connection in pool:
            await connection.close()
    for record in records:
        if record.done is None:
            record.error = record.error or TimeoutError("never answered")
            record.done = clock()
    return records


async def get_json(address, path):
    """One-off ``GET`` on a fresh connection; the decoded JSON body."""
    connection = Connection(*address)
    try:
        status, body = await connection.request("GET", path)
    finally:
        await connection.close()
    if status != 200:
        raise RuntimeError("GET {} answered {}".format(path, status))
    return json.loads(body)
