"""``advise``: the serving path advisor users see, over real HTTP.

``repro serve --jobs 1`` runs as a child with a fresh cache. One asyncio
generator in this process opens at most two keep-alive connections (the
machine has two cores) and sends seeded ``/v1/advise`` queries over all
eight kernels: zipf-like repeats give hot-cache hits, the long tail gives
first-seen misses, and a small share of malformed queries expects 400.
The closed-loop bursts use one connection: a request then hops between
generator, server and shard one process at a time, so another tenant on
one of the two cores does not stretch the wall. While it measures, one
idle-priority spinner per CPU keeps the vCPUs from halting, so no request
waits for the hypervisor to wake one (``procs.cpus_kept_awake``).

Untraced metrics:

* ``setup_s``: spawn until the first advise answer arrives (median of
  ``N_SETUP`` servers; it includes the shard's lazy imports);

then ``ROUNDS`` rounds, each of a cold burst, a warm burst and a chunk
of the open loop, and last a rate ladder:

* ``wall_s``: closed loop over ``BURST`` distinct first-seen queries
  (median over ``ROUNDS`` rounds, each with new queries never sent
  before in the run);
* the warm burst sends the round's queries ``WARM_REPEATS`` times over,
  all hot-cache hits (its walls go to standard error);
* ``cpu_s``: server process-tree CPU over the open-loop chunks, at
  ``NOMINAL_RPS`` with each request timed from when it was due (p50 and
  p99 go to standard error; the traced run reports them per layer);
* ``ops_per_s``: sustained rate, the achieved rate of the highest ladder
  step whose tail stays within the serve SLO (``DEFAULT_SLO_P99_MS``)
  with no growing backlog and no failed request;
* ``peak_rss_mb``: the largest server process.

Correctness: every 200 answer, less its transport-only ``meta``, equals
``advisor.advise(query)`` computed here; every malformed query gets a
400; a refused or timed-out request fails; no process outlives the
server. A phase whose generator fell behind is recorded as failed, not
reported as server latency.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time
from typing import Any

from repro.serve import advisor
from repro.serve.bench import DEFAULT_SLO_P99_MS

import procs
import queries
from context import Context, Report
from loadgen import Connection, Sent, closed_loop, open_loop
from server import Server
from stats import Outcomes, has_backlog, latency_summary, percentile

N_SETUP = 5
CONNECTIONS = 2
#: Connections of the closed-loop bursts.
BURST_CONNECTIONS = 1
#: Distinct queries in a closed-loop burst (three of each kernel, and
#: below the hot tier's 256 entries, so a warm round is all hot hits),
#: and in the open-loop pool.
BURST = 24
WARM_REPEATS = 4
#: Rounds of (cold burst, warm burst, open-loop chunk): many short ones,
#: so ``wall_s`` is a median over samples spread across the whole run.
ROUNDS = 40
POOL = 600
ZIPF_S = 1.1
BAD_SHARE = 0.03
NOMINAL_RPS = 200.0
#: Share of ``--seconds`` spent at the nominal rate and on each ladder step.
NOMINAL_SHARE = 0.5
STEP_SHARE = 0.08
LADDER_RPS = (200.0, 300.0, 400.0, 500.0)
#: A phase is invalid when the generator ran this late at its p99.
GEN_LAG_LIMIT_MS = 50.0
SETUP_QUERY = {"kernel": "stream", "params": {"n": 1 << 20}}


def _key(query: dict[str, Any]) -> str:
    return json.dumps(query, sort_keys=True)


class Expect:
    """Offline answers for every valid query, computed in this process."""

    def __init__(self, valid: list[dict[str, Any]]) -> None:
        self.answers: dict[str, Any] = {}
        for query in valid:
            if _key(query) not in self.answers:
                answer = advisor.advise(query)
                # Through JSON once, as the served body is.
                self.answers[_key(query)] = json.loads(json.dumps(answer))

    def check(self, out: Outcomes, sent: Sent, query: dict[str, Any], valid: bool) -> bool:
        if sent.error:
            return out.record(False, f"request {sent.index}: {sent.error}")
        if not valid:
            return out.record(sent.status == 400, f"bad query got HTTP {sent.status}")
        if sent.status != 200:
            return out.record(False, f"HTTP {sent.status} for {query}")
        body = json.loads(sent.body)
        body.pop("meta", None)
        return out.record(body == self.answers[_key(query)], f"answer differs for {query}")


async def get_json(port: int, path: str) -> dict[str, Any]:
    conn = Connection("127.0.0.1", port)
    try:
        status, body = await conn.request("GET", path)
    finally:
        await conn.close()
    if status != 200:
        raise RuntimeError(f"GET {path}: HTTP {status}")
    return json.loads(body)


def start_server(ctx: Context, name: str, out: Outcomes, **kw) -> tuple[Server, float]:
    """Spawn a server; returns it and seconds until its first advise answer."""
    server = Server(ctx.env, ctx.subdir(name), **kw)
    sent = asyncio.run(closed_loop("127.0.0.1", server.port, [SETUP_QUERY], 1))[0]
    setup_s = time.perf_counter() - server.started
    out.record(sent.status == 200, f"first advise: HTTP {sent.status} {sent.error}")
    return server, setup_s


def stop_server(server: Server, out: Outcomes) -> None:
    code, strays = server.stop()
    out.record(code == 0, f"server exit {code} after SIGINT")
    out.record(strays == 0, f"{strays} process(es) outlived the server")


def phase_health(out: Outcomes, sent: list[Sent], what: str) -> float:
    """p99 generator lag in ms; records the phase invalid past the limit."""
    lag = percentile([(s.started - s.due) * 1000.0 for s in sent], 99.0)
    out.record(lag <= GEN_LAG_LIMIT_MS, f"{what}: generator p99 lag {lag:.1f} ms")
    return lag


def run_open(port: int, mix, rate: float, seconds: float) -> list[Sent]:
    payloads = [q for q, _ in mix[: int(rate * seconds)]]
    return asyncio.run(open_loop("127.0.0.1", port, payloads, rate, CONNECTIONS))


def ladder_step(sent: list[Sent], step_s: float, slo_ms: float) -> tuple[bool, float]:
    """(passed, achieved rate) for one fixed-rate step."""
    if any(s.error or s.status not in (200, 400) for s in sent):
        return False, 0.0
    lat = latency_summary([s.latency_s * 1000.0 for s in sent], len(sent))
    backlog = has_backlog(
        [s.due for s in sent], [s.done for s in sent], window_s=step_s / 4, slack_s=0.05
    )
    achieved = len(sent) / (max(s.done for s in sent) - min(s.due for s in sent))
    return lat["tail"] <= slo_ms and not backlog, achieved


def _schedule(seconds: float) -> tuple[float, int, float]:
    """(seconds per open-loop chunk, requests per chunk, seconds per ladder step)."""
    chunk_s = NOMINAL_SHARE * seconds / ROUNDS
    return chunk_s, int(NOMINAL_RPS * chunk_s), STEP_SHARE * seconds


def run(ctx: Context) -> Report:
    if ctx.trace:
        from w_advise_trace import traced

        return traced(ctx)
    out = Outcomes()
    # One population, so no burst query repeats another or the pool's.
    drawn = queries.population(ctx.seed, POOL + ROUNDS * BURST)
    pool = drawn[:POOL]
    bursts = [drawn[POOL + r * BURST : POOL + (r + 1) * BURST] for r in range(ROUNDS)]
    _, n_chunk, step_s = _schedule(ctx.seconds)
    n_mix = int(max(max(LADDER_RPS) * step_s, n_chunk * ROUNDS))
    mix = queries.draws(ctx.seed + 2, pool, n_mix, zipf_s=ZIPF_S, bad_share=BAD_SHARE)
    expect = Expect([q for b in bursts for q in b] + [q for q, ok in mix if ok])

    with procs.cpus_kept_awake():
        return _measure(ctx, out, expect, bursts, mix)


def _measure(ctx: Context, out: Outcomes, expect: Expect, bursts, mix) -> Report:
    chunk_s, n_chunk, step_s = _schedule(ctx.seconds)
    setups = []
    for i in range(N_SETUP - 1):
        server, setup_s = start_server(ctx, f"setup{i}", out)
        setups.append(setup_s)
        stop_server(server, out)
    server, setup_s = start_server(ctx, "main", out)
    setups.append(setup_s)
    try:
        port = server.port
        cold_walls, warm_walls, latencies, lags = [], [], [], []
        cpu_s = 0.0
        # Rounds interleave the phases, so a machine stall shorter than a
        # round moves one sample of each metric, not all of them.
        for r, burst in enumerate(bursts):
            t0 = time.perf_counter()
            cold = asyncio.run(closed_loop("127.0.0.1", port, burst, BURST_CONNECTIONS))
            cold_walls.append(time.perf_counter() - t0)
            repeated = burst * WARM_REPEATS
            t0 = time.perf_counter()
            warm = asyncio.run(closed_loop("127.0.0.1", port, repeated, BURST_CONNECTIONS))
            warm_walls.append(time.perf_counter() - t0)
            for sent in cold:
                expect.check(out, sent, burst[sent.index], True)
            for sent in warm:
                expect.check(out, sent, repeated[sent.index], True)

            part = mix[r * n_chunk : (r + 1) * n_chunk]
            cpu0 = procs.tree_cpu_s(server.members())
            nominal = run_open(port, part, NOMINAL_RPS, chunk_s)
            cpu_s += procs.tree_cpu_s(server.members()) - cpu0
            lags.append(phase_health(out, nominal, f"open loop, round {r}"))
            for sent in nominal:
                expect.check(out, sent, *part[sent.index])
            latencies += [s.latency_s * 1000.0 for s in nominal]

        # Top down: the first step that holds is the highest that does,
        # and a healthy server spends one step here, not the whole ladder.
        sustained = 0.0
        for rate in sorted(LADDER_RPS, reverse=True):
            sent = run_open(port, mix, rate, step_s)
            phase_health(out, sent, f"ladder {rate:.0f} rps")
            for s in sent:
                expect.check(out, s, *mix[s.index])
            passed, achieved = ladder_step(sent, step_s, DEFAULT_SLO_P99_MS)
            if passed:
                sustained = achieved
                break
        peak = procs.peak_rss_mb(server.members())
        counters = asyncio.run(get_json(port, "/metrics"))["serve"]
    finally:
        stop_server(server, out)
    lat = latency_summary(latencies, ROUNDS * n_chunk)
    return Report(
        metrics={
            "wall_s": statistics.median(cold_walls),
            "cpu_s": cpu_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak,
            "ops_per_s": sustained,
        },
        outcomes=out,
        notes={
            "cold_walls_s": [round(w, 3) for w in cold_walls],
            "warm_walls_s": [round(w, 3) for w in warm_walls],
            "open_loop_samples": lat["n"],
            "open_loop_p50_ms": round(lat["p50"], 3),
            f"open_loop_p{lat['tail_pct']:g}_ms": round(lat["tail"], 3),
            "gen_lag_p99_ms": round(max(lags), 3),
            "cpu_ms_per_req": 1000.0 * cpu_s / len(latencies),
            "server_counters": counters,
        },
    )
