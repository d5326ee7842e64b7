"""Traced ``reproduce``: per-layer attribution of ``run all``.

The program's ``--trace`` spans give the scheduler, experiment, kernel
trace, hierarchy, sweep and energy-ledger split of a cold batch; the
benchmark's own code times the layers it can call from outside: the CLI
import and registry load (in a fresh interpreter), the result cache's
``get``/``put``, the prefetching replay and the energy ledger audit.
"""

from __future__ import annotations

import json
import statistics
import time

from repro.experiments import registry
from repro.kernels import SpmvKernel, StreamKernel
from repro.kernels.traces import kernel_trace_chunks
from repro.memory import for_broadwell
from repro.platforms import broadwell
from repro.runtime import ResultCache
from repro.sparse import generators

import procs
import spans as sp
from context import Context, Report, per_layer_defaults
from stats import Outcomes
from w_reproduce import N_EXPERIMENTS, _cli, check_run_all, summary_counts

#: A fresh interpreter timing the CLI import and the registry load.
_IMPORT_PROBE = """
import json, time
t0 = time.perf_counter()
import repro.cli
t1 = time.perf_counter()
from repro.experiments import registry
n = len(registry.all_experiments())
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "n": n}))
"""
N_PROBES = 3
#: ext4's prefetching cases at their quick sizes, replayed from here.
PREFETCHERS = ("next-line", "stride")


def _imports(ctx: Context, out: Outcomes) -> tuple[float, float]:
    imports, loads = [], []
    for i in range(N_PROBES):
        run = procs.run_python(["-c", _IMPORT_PROBE], env=ctx.env, cwd=ctx.subdir(f"probe{i}"), timeout_s=60)
        if out.record(run.returncode == 0, f"import probe exit {run.returncode}"):
            rec = json.loads(run.stdout.splitlines()[-1])
            out.record(rec["n"] == N_EXPERIMENTS, f"registry lists {rec['n']} experiments")
            imports.append(rec["import_s"])
            loads.append(rec["load_s"])
    return statistics.median(imports or [0.0]), statistics.median(loads or [0.0])


def _cache_io(cold_cache, work) -> tuple[float, float, int]:
    """Seconds in ``ResultCache.get`` (41 hits) and ``put`` (41 writes)."""
    source, target = ResultCache(cold_cache), ResultCache(work / "put-cache")
    get_s = put_s = 0.0
    found = 0
    for spec in registry.all_experiments().values():
        key = spec.task_key(quick=True)
        t0 = time.perf_counter()
        result = source.get(key)
        get_s += time.perf_counter() - t0
        if result is None:
            continue
        found += 1
        t0 = time.perf_counter()
        target.put(key, result, quick=True)
        put_s += time.perf_counter() - t0
    return get_s, put_s, found


def _prefetch() -> dict[str, float]:
    kernels = (
        StreamKernel(n=6000),
        SpmvKernel.from_matrix(generators.random_uniform(600, 9000, seed=1)),
    )
    machine = broadwell()
    replay_s, issued, useful = 0.0, 0, 0
    for kind in PREFETCHERS:
        for kernel in kernels:
            h = for_broadwell(machine, scale=0.001, prefetch=kind)
            t0 = time.perf_counter()
            h.run_batched(kernel_trace_chunks(kernel, reps=2))
            replay_s += time.perf_counter() - t0
            issued += h._prefetcher.stats.issued
            useful += h._prefetcher.stats.useful
    return {
        "memory.prefetch.replay_s": replay_s,
        "memory.prefetch.issued": issued,
        "memory.prefetch.useful": useful,
        "memory.prefetch.accuracy": useful / issued if issued else 0.0,
    }


def _batch_layers(trace) -> dict[str, float]:
    g = sp.by_name(sp.load(trace))
    batch = g["batch"][0]
    experiments = {s["attrs"]["id"]: s for s in g["experiment"]}
    longest = max(g["task"], key=lambda s: s["duration_s"])
    longest_exp = experiments[longest["attrs"]["id"]]
    named = {k: experiments[k]["duration_s"] for k in ("ext4", "ext8", "ext5")}
    refs = sp.attr_sum(g["hierarchy.run"], "refs")
    replay_s = sp.total_s(g["hierarchy.run"])
    return {
        "runtime.scheduler.batch_s": batch["duration_s"],
        "runtime.scheduler.task_s_sum": sp.total_s(g["task"]),
        "runtime.scheduler.longest_task_wait_s": longest_exp["start_s"] - batch["start_s"],
        "experiments.ext4.s": named["ext4"],
        "experiments.ext8.s": named["ext8"],
        "experiments.ext5.s": named["ext5"],
        "experiments.rest.s": sp.total_s(g["experiment"]) - sum(named.values()),
        "kernels.trace_chunks.s": sp.total_s(g["kernel.trace"]),
        "kernels.trace_chunks.refs": sp.attr_sum(g["kernel.trace"], "events"),
        "memory.hierarchy.replay_s": replay_s,
        "memory.hierarchy.refs": refs,
        "memory.hierarchy.refs_per_s": refs / replay_s if replay_s else 0.0,
        "engine.estimate.calls": len(g["sweep.kernel"]),
        "engine.estimate.s": sp.total_s(g["sweep.kernel"]),
        "power.ledger.s": sp.total_s(g["power.ledger"]),
    }


def _attempts(journal) -> tuple[int, int]:
    """(failed tasks, retries) from a run journal."""
    failed = retries = 0
    for line in journal.read_text().splitlines():
        rec = json.loads(line)
        if rec.get("event") == "task" and rec.get("status") in ("failed", "timeout"):
            failed += 1
        if rec.get("event") == "task" and rec.get("status") == "pending" and rec.get("attempt", 1) > 1:
            retries += 1
    return failed, retries


def traced(ctx: Context) -> Report:
    out = Outcomes()
    m = per_layer_defaults()
    m["cli.import_s"], m["experiments.registry.load_s"] = _imports(ctx, out)

    plain_dir, traced_dir = ctx.subdir("plain"), ctx.subdir("traced")
    plain_args = ["run", "all", "--jobs", "2", "--cache-dir", str(plain_dir / "cache")]
    plain_cold = _cli(ctx, plain_args, plain_dir)
    check_run_all(out, plain_cold, "plain cold run all", hits=0)
    plain_warm = _cli(ctx, plain_args, plain_dir)
    check_run_all(out, plain_warm, "plain warm run all", hits=N_EXPERIMENTS)

    args = ["run", "all", "--jobs", "2", "--cache-dir", str(traced_dir / "cache")]
    cold = _cli(ctx, [*args, "--trace", str(traced_dir / "cold.jsonl"), "--journal", str(traced_dir / "j.jsonl")], traced_dir)
    check_run_all(out, cold, "traced cold run all", hits=0)
    warm = _cli(ctx, [*args, "--trace", str(traced_dir / "warm.jsonl")], traced_dir)
    check_run_all(out, warm, "traced warm run all", hits=N_EXPERIMENTS)
    m.update(_batch_layers(traced_dir / "cold.jsonl"))
    failed, retries = _attempts(traced_dir / "j.jsonl")
    m["runtime.scheduler.tasks_failed"], m["runtime.scheduler.retries"] = failed, retries
    cold_counts, warm_counts = summary_counts(cold), summary_counts(warm)
    m["runtime.cache.hits"] = cold_counts[0] + warm_counts[0]
    m["runtime.cache.misses"] = cold_counts[1] + warm_counts[1]

    get_s, put_s, found = _cache_io(traced_dir / "cache", ctx.subdir("cacheio"))
    out.record(found == N_EXPERIMENTS, f"cache held {found}/{N_EXPERIMENTS} results")
    m["runtime.cache.get_s"], m["runtime.cache.put_s"] = get_s, put_s
    m.update(_prefetch())

    energy = _cli(ctx, ["energy", "--format", "json"], ctx.subdir("energy"))
    violations = json.loads(energy.stdout)["violations"] if energy.returncode == 0 else ["exit"]
    out.record(not violations, f"energy ledger violations: {violations[:2]}")
    m["power.ledger.violations"] = len(violations)

    m["telemetry.overhead_frac"] = cold.wall_s / plain_cold.wall_s - 1.0
    m["bench.trace_overhead_frac"] = (cold.wall_s + warm.wall_s) / (plain_cold.wall_s + plain_warm.wall_s) - 1.0
    m["runtime.cache.warm_run_s"] = plain_warm.wall_s
    m["bench.failed_frac"] = out.failed_frac
    return Report(metrics=m, outcomes=out, notes={"traced_cold_wall_s": cold.wall_s})
