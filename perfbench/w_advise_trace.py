"""Traced ``advise``: the serve pipeline split into its layers.

The same open-loop phase runs against a plain server and against one
started with ``--trace``; the difference in mean latency is the tracing
overhead. Batcher and cache-tier shares come from ``/metrics`` of the
plain server (counted whether or not tracing is on), execute time from
the traced server's ``serve.execute`` spans. The benchmark's own code
times what it can call directly: ``serve.http.read_request`` over the
phase's request bytes, ``advisor.normalize``, ``advisor.evaluate`` (the
engine) and ``SharedResultCache.put_payload``.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time
from typing import Any

from repro.runtime.cache import SharedResultCache
from repro.serve import advisor
from repro.serve.http import read_request

import procs
import queries
import spans as sp
from context import Context, Report, per_layer_defaults
from stats import Outcomes, latency_summary
from w_advise import (
    BAD_SHARE,
    NOMINAL_RPS,
    NOMINAL_SHARE,
    POOL,
    ZIPF_S,
    Expect,
    get_json,
    phase_health,
    run_open,
    start_server,
    stop_server,
)


def _phase(ctx: Context, out: Outcomes, expect: Expect, mix, name: str, trace: bool) -> dict[str, Any]:
    """One open-loop phase on a fresh server; latencies, counters, CPU."""
    work = ctx.subdir(name)
    kw = {"trace": work / "serve.jsonl"} if trace else {}
    server, _ = start_server(ctx, name, out, **kw)
    try:
        cpu0 = procs.tree_cpu_s(server.members())
        sent = run_open(server.port, mix, NOMINAL_RPS, NOMINAL_SHARE * ctx.seconds)
        cpu_s = procs.tree_cpu_s(server.members()) - cpu0
        lag = phase_health(out, sent, name)
        for s in sent:
            expect.check(out, s, *mix[s.index])
        counters = asyncio.run(get_json(server.port, "/metrics"))["serve"]
    finally:
        stop_server(server, out)
    ms = [s.latency_s * 1000.0 for s in sent]
    return {
        "sent": sent,
        "mean_ms": statistics.fmean(ms),
        # 1000 samples is the fewest that leave ten beyond p99.
        "latency": latency_summary(ms, 1000),
        "counters": counters,
        "cpu_s": cpu_s,
        "lag_ms": lag,
        "trace": kw.get("trace"),
    }


def _request_bytes(mix) -> bytes:
    parts = []
    for query, _ in mix:
        body = json.dumps(query).encode()
        parts.append(
            b"POST /v1/advise HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
        )
    return b"".join(parts)


async def _read_all(data: bytes) -> tuple[float, int]:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    n = 0
    t0 = time.perf_counter()
    while await read_request(reader) is not None:
        n += 1
    return time.perf_counter() - t0, n


def _direct_layers(ctx: Context, mix) -> dict[str, float]:
    read_s, n = asyncio.run(_read_all(_request_bytes(mix)))
    if n != len(mix):
        raise RuntimeError(f"read_request parsed {n} of {len(mix)} requests")
    normalize_s = 0.0
    canon: dict[str, dict[str, Any]] = {}
    for query, valid in mix:
        if not valid:
            continue
        t0 = time.perf_counter()
        c = advisor.normalize(query)
        normalize_s += time.perf_counter() - t0
        canon[advisor.query_key(c)] = c
    estimate_s, calls = 0.0, 0
    answers = {}
    for key, c in canon.items():
        t0 = time.perf_counter()
        answers[key] = advisor.evaluate(c)
        estimate_s += time.perf_counter() - t0
        calls += len(c["candidates"])
    cache = SharedResultCache(ctx.subdir("put-cache"))
    t0 = time.perf_counter()
    for key, answer in answers.items():
        cache.put_payload(key, answer, kind="advise")
    return {
        "serve.http.read_s": read_s,
        "serve.advisor.normalize_s": normalize_s,
        "engine.estimate.calls": calls,
        "engine.estimate.s": estimate_s,
        "serve.cache.put_s": time.perf_counter() - t0,
    }


def traced(ctx: Context) -> Report:
    out = Outcomes()
    m = per_layer_defaults()
    pool = queries.population(ctx.seed, POOL)
    mix = queries.draws(
        ctx.seed + 2, pool, int(NOMINAL_RPS * NOMINAL_SHARE * ctx.seconds),
        zipf_s=ZIPF_S, bad_share=BAD_SHARE,
    )
    expect = Expect([q for q, ok in mix if ok])
    with procs.cpus_kept_awake():
        plain = _phase(ctx, out, expect, mix, "plain", trace=False)
        traced_run = _phase(ctx, out, expect, mix, "traced", trace=True)

    c = plain["counters"]
    tiers = c["cache"]
    lookups = tiers["hot_hits"] + tiers["disk_hits"] + tiers["misses"]
    valid = [json.dumps(q, sort_keys=True) for q, ok in mix if ok]
    executes = sp.by_name(sp.load(traced_run["trace"]))["serve.execute"]
    m.update(
        {
            "serve.batcher.coalesced_frac": c["coalesced"] / c["requests"],
            "serve.batcher.batch_size_mean": c["dispatched"] / c["batches"] if c["batches"] else 0.0,
            "serve.pool.execute_s": sp.total_s(executes),
            "serve.engine.executions": c["dispatched"],
            "serve.cache.hot_hit_frac": tiers["hot_hits"] / lookups,
            "serve.cache.disk_hit_frac": tiers["disk_hits"] / lookups,
            "serve.cache.miss_frac": tiers["misses"] / lookups,
            "advise.gen_lag_ms": plain["lag_ms"],
            "advise.p50_ms": plain["latency"]["p50"],
            "advise.p99_ms": plain["latency"]["tail"],
            "advise.cpu_ms_per_req": 1000.0 * plain["cpu_s"] / len(plain["sent"]),
            "advise.repeat_share": 1.0 - len(set(valid)) / len(valid),
            "advise.hit_share": (tiers["hot_hits"] + tiers["disk_hits"]) / lookups,
            "bench.trace_overhead_frac": traced_run["mean_ms"] / plain["mean_ms"] - 1.0,
        }
    )
    m.update(_direct_layers(ctx, mix))
    m["bench.failed_frac"] = out.failed_frac
    return Report(metrics=m, outcomes=out, notes={"plain_counters": c})
