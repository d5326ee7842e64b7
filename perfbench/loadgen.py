"""A single-process asyncio load generator for the advisor's HTTP API.

Two ways to send:

* ``closed_loop``: each connection sends its next request when the
  previous answer arrives (callers that wait for a reply);
* ``open_loop``: requests fall due on a fixed-rate schedule whatever
  the server does (independent users). A request that finds every
  connection busy waits for one, and its latency counts from when it
  was due, so a stall is charged to every request it delays.

The generator's own lateness (how long after its due time the scheduler
got to a request) is recorded separately as ``gen_lag``: a run whose
generator fell behind measured the generator, not the server.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
import time
from typing import Any, Sequence

#: A request not answered within this many seconds counts as failed.
REQUEST_TIMEOUT_S = 10.0


class Connection:
    """One keep-alive HTTP/1.1 connection issuing serial JSON requests."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def _ensure(self) -> None:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(self.host, self.port)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    async def request(self, method: str, path: str, body: Any = None) -> tuple[int, bytes]:
        """Send one request; returns (status, body bytes)."""
        await self._ensure()
        assert self._reader is not None and self._writer is not None
        data = b"" if body is None else json.dumps(body).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n"
        )
        self._writer.write(head.encode("latin-1") + data)
        await self._writer.drain()
        raw = await self._reader.readuntil(b"\r\n\r\n")
        lines = raw.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        keep_alive = True
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
            elif name.strip().lower() == "connection":
                keep_alive = value.strip().lower() != "close"
        payload = await self._reader.readexactly(length) if length else b""
        if not keep_alive:
            await self.close()
        return status, payload


@dataclasses.dataclass
class Sent:
    """One request of a phase and what became of it."""

    index: int
    #: Phase-clock times: when it was due, when the generator reached it,
    #: when the answer arrived (``math.inf`` if it never did).
    due: float
    started: float = math.nan
    done: float = math.inf
    status: int = 0
    body: bytes = b""
    error: str = ""

    @property
    def latency_s(self) -> float:
        return self.done - self.due


async def _exchange(conn: Connection, sent: Sent, payload: Any, clock0: float) -> None:
    try:
        sent.status, sent.body = await asyncio.wait_for(
            conn.request("POST", "/v1/advise", payload), REQUEST_TIMEOUT_S
        )
        sent.done = time.perf_counter() - clock0
    except (asyncio.TimeoutError, ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
        sent.error = f"{type(exc).__name__}: {exc}"
        await conn.close()  # a broken or timed-out exchange poisons the stream


async def closed_loop(
    host: str, port: int, payloads: Sequence[Any], connections: int
) -> list[Sent]:
    """Send ``payloads`` over ``connections`` closed-loop connections."""
    clock0 = time.perf_counter()
    results = [Sent(index=i, due=math.nan) for i in range(len(payloads))]
    queue = list(range(len(payloads)))[::-1]

    async def worker() -> None:
        conn = Connection(host, port)
        try:
            while queue:
                i = queue.pop()
                results[i].due = results[i].started = time.perf_counter() - clock0
                await _exchange(conn, results[i], payloads[i], clock0)
        finally:
            await conn.close()

    await asyncio.gather(*(worker() for _ in range(connections)))
    return results


async def open_loop(
    host: str, port: int, payloads: Sequence[Any], rate: float, connections: int
) -> list[Sent]:
    """Send ``payloads[i]`` due at ``i / rate`` seconds, over a connection pool."""
    idle: asyncio.Queue[Connection] = asyncio.Queue()
    conns = [Connection(host, port) for _ in range(connections)]
    for conn in conns:
        idle.put_nowait(conn)
    results = [Sent(index=i, due=i / rate) for i in range(len(payloads))]
    tasks: list[asyncio.Task] = []

    async def one(sent: Sent) -> None:
        conn = await idle.get()
        try:
            await _exchange(conn, sent, payloads[sent.index], clock0)
        finally:
            idle.put_nowait(conn)

    clock0 = time.perf_counter()
    try:
        for sent in results:
            delay = sent.due - (time.perf_counter() - clock0)
            if delay > 0:
                await asyncio.sleep(delay)
            sent.started = time.perf_counter() - clock0
            tasks.append(asyncio.create_task(one(sent)))
        await asyncio.gather(*tasks)
    finally:
        for task in tasks:
            task.cancel()
        for conn in conns:
            await conn.close()
    return results
