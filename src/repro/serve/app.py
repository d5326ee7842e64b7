"""The memory-advisor service: routes, caching, and the asyncio server.

Request path for ``POST /v1/advise``::

    parse HTTP → normalize query → cache key
        → shared cache (LRU hot tier → disk)          [hit: answer]
        → coalescing batcher (identical key in flight → share it)
        → worker pool (sharded by key) → engine evaluate
        → cache fill → answer

The answer body is byte-identical to the offline
:func:`repro.serve.advisor.evaluate` output for the same normalized
query — serving-only information (which tier answered, wall time, trace
id) rides in a separate top-level ``meta`` field, so differential tests
can strip ``meta`` and compare the rest byte-for-byte.

``POST /v1/experiment`` serves registered experiments through the same
batcher/pool/cache path, sharing content-addressed keys with the offline
``repro run`` scheduler: an experiment cached by a batch run replays
from the serve cache and vice versa.

Spans here use manual lifecycles (``Tracer.begin``/``finish``): the
asyncio handlers interleave many requests on one thread, which a
``with``-scoped span cannot express.
"""

from __future__ import annotations

import asyncio
import dataclasses
import signal
import time
from pathlib import Path
from typing import Any

from repro import telemetry
from repro.runtime.cache import SharedResultCache
from repro.serve import advisor
from repro.serve.batcher import Batcher
from repro.serve.http import (
    ProtocolError,
    Request,
    error_payload,
    read_request,
    render_response,
)
from repro.serve.pool import PoolError, PoolTimeout, ServePool
from repro.telemetry import collect, names as tm


@dataclasses.dataclass
class ServeConfig:
    """Everything ``repro serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = 8177
    #: Worker shards; 0 executes inline on the loop (tests, debugging).
    jobs: int = 2
    #: Shared cache directory (None = the default user cache dir).
    cache_dir: Path | None = None
    #: Disable result caching entirely (every query executes).
    no_cache: bool = False
    #: Per-execution deadline; a shard past it is recycled.
    timeout_s: float | None = 30.0
    #: Extra attempts after a crashed execution.
    retries: int = 1
    #: Micro-batch window of the coalescing batcher.
    window_s: float = 0.002


class ServeApp:
    """Route handling plus the coalesce → pool → cache machinery."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.cache: SharedResultCache | None = (
            None
            if self.config.no_cache
            else SharedResultCache(self.config.cache_dir)
        )
        self.pool = ServePool(
            self.config.jobs,
            timeout_s=self.config.timeout_s,
            retries=self.config.retries,
        )
        self.batcher = Batcher(
            self._execute_batch, window_s=self.config.window_s
        )
        self.trace_id = collect.new_trace_id()
        self.started_unix_s = time.time()
        self.requests = 0
        self.errors = 0

    # -- execution backend ----------------------------------------------------

    async def _execute_batch(
        self, batch: list[tuple[str, Any]]
    ) -> list[Any]:
        """Batcher callback: run every job, per-item failure isolation."""

        async def one(key: str, job: dict[str, Any]) -> dict[str, Any]:
            envelope = await self.pool.run(
                job["kind"],
                job["payload"],
                quick=job["quick"],
                key=key,
                trace_id=self.trace_id,
                parent_span_id=job.get("parent_span_id"),
            )
            result = envelope["result"]
            if self.cache is not None:
                # Disk write off the loop: put_payload takes the cache
                # lock file and does file I/O, which would stall every
                # in-flight request if run inline.
                await asyncio.to_thread(
                    self.cache.put_payload,
                    key,
                    result,
                    kind=f"serve.{job['kind']}",
                )
            return result

        return await asyncio.gather(
            *(one(key, job) for key, job in batch), return_exceptions=True
        )

    async def _answer(
        self, key: str, job: dict[str, Any]
    ) -> tuple[dict[str, Any], str]:
        """Resolve one query; returns (result, cache tier)."""
        if self.cache is not None:
            before = (self.cache.hot_hits, self.cache.disk_hits)
            # Disk read off the loop (the hot tier answers from memory,
            # but a miss there falls through to file I/O).
            cached = await asyncio.to_thread(self.cache.get_payload, key)
            if cached is not None:
                tier = (
                    "hot" if self.cache.hot_hits > before[0] else "disk"
                )
                telemetry.counter(
                    tm.METRIC_SERVE_CACHE_HOT
                    if tier == "hot"
                    else tm.METRIC_SERVE_CACHE_DISK
                ).inc()
                return cached, tier
            telemetry.counter(tm.METRIC_SERVE_CACHE_MISSES).inc()
        else:
            telemetry.counter(tm.METRIC_SERVE_CACHE_MISSES).inc()
        result = await self.batcher.submit(key, job)
        return result, "miss"

    # -- routes ---------------------------------------------------------------

    async def handle(
        self, request: Request, span_id: int | None = None
    ) -> tuple[int, Any]:
        """Dispatch one parsed request to (status, JSON payload).

        ``span_id`` is the request's ``serve.request`` span: executions
        triggered by this request parent under it, so each request
        yields one rooted span tree (a coalesced execution roots under
        the request that started it).
        """
        route = (request.method, request.path)
        if route == ("GET", "/healthz"):
            return 200, self._healthz()
        if route == ("GET", "/metrics"):
            return 200, self._metrics()
        if route == ("POST", "/v1/advise"):
            return await self._advise(request, span_id)
        if route == ("POST", "/v1/experiment"):
            return await self._experiment(request, span_id)
        if request.path in ("/healthz", "/metrics", "/v1/advise", "/v1/experiment"):
            return 405, error_payload(405, f"{request.method} not allowed")
        return 404, error_payload(404, f"no route {request.path}")

    def _healthz(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "uptime_s": time.time() - self.started_unix_s,
            "jobs": self.config.jobs,
            "cache": self.cache is not None,
        }

    def _metrics(self) -> dict[str, Any]:
        snapshot = (
            telemetry.get_registry().snapshot()
            if telemetry.enabled()
            else {}
        )
        serve = {
            "requests": self.requests,
            "errors": self.errors,
            "coalesced": self.batcher.coalesced,
            "dispatched": self.batcher.dispatched,
            "batches": self.batcher.batches,
            "pool_recycles": self.pool.recycles,
        }
        if self.cache is not None:
            serve["cache"] = {
                "hot_hits": self.cache.hot_hits,
                "disk_hits": self.cache.disk_hits,
                "misses": self.cache.misses,
                "hot_entries": self.cache.hot_entries,
            }
        return {"serve": serve, "metrics": snapshot}

    async def _advise(
        self, request: Request, span_id: int | None = None
    ) -> tuple[int, Any]:
        try:
            canonical = advisor.normalize(request.json())
        except advisor.QueryError as exc:
            return 400, error_payload(400, str(exc))
        key = advisor.query_key(canonical)
        job = {
            "kind": "advise",
            "payload": canonical,
            "quick": True,
            "parent_span_id": span_id,
        }
        return await self._serve_job(key, job)

    async def _experiment(
        self, request: Request, span_id: int | None = None
    ) -> tuple[int, Any]:
        body = request.json()
        if not isinstance(body, dict):
            return 400, error_payload(400, "request body must be a JSON object")
        unknown = set(body) - {"experiment", "quick"}
        if unknown:
            return 400, error_payload(
                400, f"unknown fields: {', '.join(sorted(unknown))}"
            )
        exp_id = body.get("experiment")
        # Experiments run in quick mode unless the body asks for full.
        quick = body.get("quick", True)
        if not isinstance(quick, bool):
            return 400, error_payload(400, "quick must be a boolean")
        from repro.experiments import registry

        try:
            spec = registry.get(str(exp_id))
        except KeyError:
            return 400, error_payload(400, f"unknown experiment {exp_id!r}")
        key = spec.task_key(quick=quick)
        job = {
            "kind": "experiment",
            "payload": spec.experiment_id,
            "quick": quick,
            "parent_span_id": span_id,
        }
        return await self._serve_job(key, job)

    async def _serve_job(
        self, key: str, job: dict[str, Any]
    ) -> tuple[int, Any]:
        start = time.perf_counter()
        try:
            result, tier = await self._answer(key, job)
        except PoolTimeout as exc:
            return 503, error_payload(503, str(exc))
        except PoolError as exc:
            return 500, error_payload(500, str(exc))
        except advisor.QueryError as exc:
            return 400, error_payload(400, str(exc))
        payload = dict(result)
        payload["meta"] = {
            "key": key,
            "cache": tier,
            "trace_id": self.trace_id,
            "wall_s": time.perf_counter() - start,
        }
        return 200, payload

    # -- connection handling --------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError as exc:
                    writer.write(
                        render_response(
                            exc.status,
                            error_payload(exc.status, exc.message),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                status, payload = await self._dispatch(request)
                writer.write(
                    render_response(
                        status, payload, keep_alive=request.keep_alive
                    )
                )
                await writer.drain()
                if not request.keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange
        except asyncio.CancelledError:
            pass  # server shutting down with the connection open
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass  # torn down mid-close at loop shutdown

    async def _dispatch(self, request: Request) -> tuple[int, Any]:
        """One request with telemetry accounting around :meth:`handle`."""
        self.requests += 1
        telemetry.counter(tm.METRIC_SERVE_REQUESTS).inc()
        sp = None
        if telemetry.enabled():
            sp = telemetry.get_tracer().begin(
                tm.SPAN_SERVE_REQUEST,
                method=request.method,
                path=request.path,
            )
        start = time.perf_counter()
        status = 500
        try:
            status, payload = await request_safe(
                self.handle, request, sp.span_id if sp is not None else None
            )
        finally:
            wall_s = time.perf_counter() - start
            telemetry.histogram(tm.METRIC_SERVE_REQUEST_WALL_S).observe(
                wall_s
            )
            if sp is not None:
                sp.set_attr("status", status)
                telemetry.get_tracer().finish(sp)
        if status >= 400:
            self.errors += 1
            telemetry.counter(tm.METRIC_SERVE_ERRORS).inc()
        return status, payload

    def shutdown(self) -> None:
        self.pool.shutdown()

    async def serve(self) -> asyncio.AbstractServer:
        """Bind and return the listening server (caller owns lifetime)."""
        return await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )


async def request_safe(handler, *args) -> tuple[int, Any]:
    """Run one route handler; unexpected exceptions become a 500."""
    try:
        return await handler(*args)
    except ProtocolError as exc:
        return exc.status, error_payload(exc.status, exc.message)
    except asyncio.CancelledError:
        raise
    except Exception as exc:
        return 500, error_payload(500, f"internal error: {exc}")


async def run_server(config: ServeConfig | None = None) -> None:
    """``repro serve``: run until SIGTERM or SIGINT, then shut down.

    Both signals go through loop handlers — also when SIGINT was
    inherited as ignored — so the server closes and the shard pool is
    reaped before the process exits.
    """
    app = ServeApp(config)
    server = await app.serve()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)
    addr = ", ".join(
        f"{sock.getsockname()[0]}:{sock.getsockname()[1]}"
        for sock in server.sockets
    )
    print(f"serving memory advisor on {addr} (jobs={app.config.jobs})", flush=True)
    try:
        async with server:
            await stop.wait()
    finally:
        app.shutdown()
