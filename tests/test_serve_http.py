"""Serve stack: HTTP protocol, routes, coalescing, pool, differential."""

import asyncio
import hashlib
import json

import pytest

from repro import telemetry
from repro.experiments import run as run_experiment
from repro.runtime import faults
from repro.runtime.cache import ResultCache
from repro.runtime.scheduler import run_batch
from repro.serve import advisor
from repro.serve.app import ServeApp, ServeConfig
from repro.serve.batcher import Batcher
from repro.serve.bench import Client, _query_population, run_bench
from repro.serve.http import (
    MAX_BODY_BYTES,
    ProtocolError,
    read_request,
    render_response,
)
from repro.serve.pool import PoolError, ServePool
from repro.telemetry import names as tm

STREAM_QUERY = {"kernel": "stream", "params": {"n": 1 << 20}}


async def _parse(data: bytes):
    """read_request against an in-memory stream (built inside the loop)."""
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return await read_request(reader)


def run(coro):
    return asyncio.run(coro)


# -- protocol unit tests ------------------------------------------------------


class TestProtocol:
    def test_parse_request(self):
        raw = (
            b"POST /v1/advise HTTP/1.1\r\n"
            b"Content-Length: 2\r\n"
            b"X-Custom: yes\r\n\r\n{}"
        )
        req = run(_parse(raw))
        assert req.method == "POST"
        assert req.path == "/v1/advise"
        assert req.headers["x-custom"] == "yes"
        assert req.json() == {}
        assert req.keep_alive

    def test_clean_eof_returns_none(self):
        assert run(_parse(b"")) is None

    def test_connection_close_header(self):
        raw = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"
        assert not run(_parse(raw)).keep_alive

    @pytest.mark.parametrize(
        "raw,status",
        [
            (b"NONSENSE\r\n\r\n", 400),
            (b"GET / SMTP/1.0\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nbad header\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nContent-Length: moo\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 400),
            (b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort", 400),
            (
                b"POST / HTTP/1.1\r\nContent-Length: "
                + str(MAX_BODY_BYTES + 1).encode()
                + b"\r\n\r\n",
                413,
            ),
        ],
    )
    def test_protocol_errors(self, raw, status):
        with pytest.raises(ProtocolError) as err:
            run(_parse(raw))
        assert err.value.status == status

    def test_render_response_framing(self):
        wire = render_response(200, {"b": 1, "a": 2})
        head, _, body = wire.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert f"Content-Length: {len(body)}".encode() in head
        assert json.loads(body) == {"a": 2, "b": 1}
        # deterministic bytes: sorted keys, no whitespace
        assert body == b'{"a":2,"b":1}'

    def test_bad_json_body(self):
        req = run(_parse(b"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\nnot"))
        with pytest.raises(ProtocolError) as err:
            req.json()
        assert err.value.status == 400


# -- end-to-end over real sockets ---------------------------------------------


class _Server:
    """Async context: in-process app bound to an ephemeral port."""

    def __init__(self, tmp_path, **overrides):
        defaults = dict(
            port=0, jobs=0, cache_dir=tmp_path / "cache", window_s=0.001
        )
        defaults.update(overrides)
        self.app = ServeApp(ServeConfig(**defaults))

    async def __aenter__(self):
        self.server = await self.app.serve()
        self.port = self.server.sockets[0].getsockname()[1]
        self.client = Client("127.0.0.1", self.port)
        await self.client.connect()
        return self

    async def __aexit__(self, *exc):
        await self.client.close()
        self.server.close()
        await self.server.wait_closed()
        self.app.shutdown()


class TestRoutes:
    def test_healthz_metrics_and_errors(self, tmp_path):
        async def go():
            async with _Server(tmp_path) as s:
                status, payload = await s.client.request("GET", "/healthz")
                assert (status, payload["status"]) == (200, "ok")
                status, _ = await s.client.request("GET", "/nowhere")
                assert status == 404
                status, _ = await s.client.request("DELETE", "/healthz")
                assert status == 405
                status, payload = await s.client.request(
                    "POST", "/v1/advise", {"kernel": "nope"}
                )
                assert status == 400
                assert "unknown kernel" in payload["error"]["message"]
                status, payload = await s.client.request("GET", "/metrics")
                assert status == 200
                # the in-flight /metrics request counts itself: 5 total
                assert payload["serve"]["requests"] == 5
                assert payload["serve"]["errors"] == 3

        run(go())

    def test_advise_differential_byte_identical(self, tmp_path):
        """The served answer equals the offline engine path, byte for byte."""

        async def go():
            async with _Server(tmp_path) as s:
                status, payload = await s.client.request(
                    "POST", "/v1/advise", STREAM_QUERY
                )
                assert status == 200
                return payload

        served = run(go())
        assert served["meta"]["cache"] == "miss"
        offline = advisor.advise(STREAM_QUERY)
        stripped = {k: v for k, v in served.items() if k != "meta"}
        assert json.dumps(stripped, sort_keys=True) == json.dumps(
            offline, sort_keys=True
        )

    def test_repeat_hits_hot_tier_then_disk(self, tmp_path):
        async def go():
            async with _Server(tmp_path) as s:
                _, first = await s.client.request(
                    "POST", "/v1/advise", STREAM_QUERY
                )
                _, second = await s.client.request(
                    "POST", "/v1/advise", STREAM_QUERY
                )
                return first, second

        first, second = run(go())
        assert first["meta"]["cache"] == "miss"
        assert second["meta"]["cache"] == "hot"
        assert {k: v for k, v in first.items() if k != "meta"} == {
            k: v for k, v in second.items() if k != "meta"
        }

    def test_cached_answer_survives_restart_via_disk(self, tmp_path):
        async def go(expect_tier):
            async with _Server(tmp_path) as s:
                _, payload = await s.client.request(
                    "POST", "/v1/advise", STREAM_QUERY
                )
                assert payload["meta"]["cache"] == expect_tier
                return {k: v for k, v in payload.items() if k != "meta"}

        first = run(go("miss"))
        second = run(go("disk"))  # fresh app, same cache dir
        assert first == second

    def test_experiment_route_differential(self, tmp_path):
        async def go():
            async with _Server(tmp_path) as s:
                status, payload = await s.client.request(
                    "POST", "/v1/experiment", {"experiment": "eq1"}
                )
                assert status == 200
                status_bad, bad = await s.client.request(
                    "POST", "/v1/experiment", {"experiment": "nope"}
                )
                assert status_bad == 400
                assert "unknown experiment" in bad["error"]["message"]
                return payload

        served = run(go())
        offline = run_experiment("eq1", quick=True).as_dict()
        stripped = {k: v for k, v in served.items() if k != "meta"}
        assert json.dumps(stripped, sort_keys=True) == json.dumps(
            offline, sort_keys=True
        )

    def test_no_cache_mode_always_executes(self, tmp_path):
        async def go():
            async with _Server(tmp_path, no_cache=True) as s:
                _, first = await s.client.request(
                    "POST", "/v1/advise", STREAM_QUERY
                )
                _, second = await s.client.request(
                    "POST", "/v1/advise", STREAM_QUERY
                )
                return first, second

        first, second = run(go())
        assert first["meta"]["cache"] == "miss"
        assert second["meta"]["cache"] == "miss"


class TestBatchServeShareCache:
    """``run`` batches and ``/v1/experiment`` read each other's entries."""

    @staticmethod
    async def _serve_eq1(tmp_path):
        async with _Server(tmp_path) as s:
            status, payload = await s.client.request(
                "POST", "/v1/experiment", {"experiment": "eq1"}
            )
            assert status == 200
            return payload

    def test_batch_written_entry_served_from_disk(self, tmp_path):
        batch = run_batch(["eq1"], cache=ResultCache(tmp_path / "cache"))
        assert batch.cache_misses == 1
        served = run(self._serve_eq1(tmp_path))
        assert served["meta"]["cache"] == "disk"
        stripped = {k: v for k, v in served.items() if k != "meta"}
        offline = run_experiment("eq1", quick=True).as_dict()
        assert json.dumps(stripped, sort_keys=True) == json.dumps(
            offline, sort_keys=True
        )

    def test_serve_written_entry_is_batch_hit(self, tmp_path):
        served = run(self._serve_eq1(tmp_path))
        assert served["meta"]["cache"] == "miss"
        batch = run_batch(["eq1"], cache=ResultCache(tmp_path / "cache"))
        assert (batch.cache_hits, batch.cache_misses) == (1, 0)
        assert batch.outcomes[0].result.render() == run_experiment(
            "eq1", quick=True
        ).render()


class TestCoalescing:
    def test_many_identical_concurrent_one_execution(self, tmp_path):
        """The acceptance bar: >=100 identical concurrent queries on a
        cold cache produce exactly one engine execution."""
        n = 120

        async def go():
            async with _Server(tmp_path) as s:
                async def one():
                    c = Client("127.0.0.1", s.port)
                    await c.connect()
                    status, payload = await c.request(
                        "POST", "/v1/advise", STREAM_QUERY
                    )
                    await c.close()
                    return status, payload

                results = await asyncio.gather(*(one() for _ in range(n)))
                return results

        with telemetry.session():
            results = run(go())
            executions = (
                telemetry.get_registry()
                .counter(tm.METRIC_SERVE_ENGINE_EXECUTIONS)
                .value
            )
        assert executions == 1
        bodies = {
            json.dumps(
                {k: v for k, v in payload.items() if k != "meta"},
                sort_keys=True,
            )
            for status, payload in results
        }
        assert all(status == 200 for status, _ in results)
        assert len(bodies) == 1  # every waiter got the identical answer

    def test_request_yields_single_rooted_span_tree(self, tmp_path):
        async def go():
            async with _Server(tmp_path) as s:
                await s.client.request("POST", "/v1/advise", STREAM_QUERY)

        with telemetry.session():
            run(go())
            spans = telemetry.get_tracer().finished()
        by_id = {sp.span_id: sp for sp in spans}
        request_spans = [
            sp for sp in spans if sp.name == tm.SPAN_SERVE_REQUEST
        ]
        assert len(request_spans) == 1
        execute = [sp for sp in spans if sp.name == tm.SPAN_SERVE_EXECUTE]
        assert len(execute) == 1
        assert execute[0].parent_id == request_spans[0].span_id
        advise = [sp for sp in spans if sp.name == tm.SPAN_SERVE_ADVISE]
        assert len(advise) == 1
        # the worker-side advise span reaches the request root
        node = advise[0]
        seen = set()
        while node.parent_id is not None:
            assert node.span_id not in seen
            seen.add(node.span_id)
            node = by_id[node.parent_id]
        assert node.span_id == request_spans[0].span_id


class TestBatcher:
    def test_identical_keys_share_one_execution(self):
        calls = []

        async def execute(batch):
            calls.append(batch)
            return [f"answer:{key}" for key, _ in batch]

        async def go():
            b = Batcher(execute, window_s=0.001)
            results = await asyncio.gather(
                *(b.submit("k1", None) for _ in range(50))
            )
            return b, results

        b, results = run(go())
        assert len(calls) == 1
        assert len(calls[0]) == 1
        assert set(results) == {"answer:k1"}
        assert b.coalesced == 49
        assert b.dispatched == 1

    def test_distinct_keys_batch_together(self):
        calls = []

        async def execute(batch):
            calls.append(batch)
            return [key.upper() for key, _ in batch]

        async def go():
            b = Batcher(execute, max_batch=8, window_s=0.005)
            return await asyncio.gather(
                *(b.submit(f"k{i}", None) for i in range(8))
            )

        results = run(go())
        assert len(calls) == 1
        assert results == [f"K{i}" for i in range(8)]

    def test_per_item_exception_isolation(self):
        async def execute(batch):
            return [
                ValueError("boom") if key == "bad" else "ok"
                for key, _ in batch
            ]

        async def go():
            b = Batcher(execute, window_s=0.001)
            good, bad = await asyncio.gather(
                b.submit("good", None),
                b.submit("bad", None),
                return_exceptions=True,
            )
            return good, bad

        good, bad = run(go())
        assert good == "ok"
        assert isinstance(bad, ValueError)

    def test_fresh_execution_after_completion(self):
        n_calls = 0

        async def execute(batch):
            nonlocal n_calls
            n_calls += 1
            return ["x" for _ in batch]

        async def go():
            b = Batcher(execute, window_s=0.001)
            await b.submit("k", None)
            await b.submit("k", None)  # in-flight map must be drained
            return b

        b = run(go())
        assert n_calls == 2
        assert b.coalesced == 0
        assert b.inflight == 0


class TestPoolFaults:
    def teardown_method(self):
        faults.install(None)

    def test_flaky_execution_retried(self):
        faults.install(faults.FaultPlan.parse("advise:stream=flaky_once"))
        canonical = advisor.normalize(STREAM_QUERY)

        async def go():
            pool = ServePool(0, retries=1)
            return await pool.run(
                "advise",
                canonical,
                quick=True,
                key=advisor.query_key(canonical),
                trace_id="t1",
            )

        envelope = run(go())
        assert envelope["result"]["winner"]

    def test_persistent_crash_exhausts_attempts(self):
        faults.install(faults.FaultPlan.parse("advise:stream=crash"))
        canonical = advisor.normalize(STREAM_QUERY)

        async def go():
            pool = ServePool(0, retries=1)
            return await pool.run(
                "advise",
                canonical,
                quick=True,
                key=advisor.query_key(canonical),
                trace_id="t1",
            )

        with pytest.raises(PoolError, match="after 2 attempts"):
            run(go())

    def test_crash_surfaces_as_http_500(self, tmp_path):
        faults.install(faults.FaultPlan.parse("advise:stream=crash"))

        async def go():
            async with _Server(tmp_path) as s:
                return await s.client.request(
                    "POST", "/v1/advise", STREAM_QUERY
                )

        status, payload = run(go())
        assert status == 500
        assert "attempts" in payload["error"]["message"]


class TestServeBenchPopulation:
    def test_distinct_above_ceiling_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="30-query ceiling"):
            run_bench(out=tmp_path / "bench.json", distinct=31)

    def test_cli_distinct_above_ceiling_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "bench.json"
        assert main(["serve-bench", "--distinct", "31", "-o", str(out)]) == 2
        assert "30-query ceiling" in capsys.readouterr().err
        assert not out.exists()

    def test_population_unchanged_up_to_ceiling(self):
        full = _query_population(7, 30)
        assert full[:2] == [
            {"kernel": "stream", "params": {"n": 1 << 20}},
            {"kernel": "gemm", "params": {"order": 128}},
        ]
        digest = hashlib.sha256(json.dumps(full, sort_keys=True).encode()).hexdigest()
        assert digest == "745008847e682c92637c2112825faa41ffc40a936a0c7afb960d436ea9802b6a"
        for distinct in range(1, 30):
            assert _query_population(7, distinct) == full[:distinct]
