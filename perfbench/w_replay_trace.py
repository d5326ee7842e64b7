"""Traced ``replay``: trace generation, hierarchy replay and sampling apart.

One untraced pass, then one pass in which the benchmark times each call
into a layer separately (``kernel_trace_chunks``, ``Hierarchy.run_batched``,
``WindowSampler.push``); their ratio is the tracing overhead. Level miss
fractions are simulated counts and repeat exactly for a given seed.
"""

from __future__ import annotations

import time

import numpy as np

from context import Context, Report, per_layer_defaults
from expected import EXPECTED
from stats import Outcomes
from w_replay import CaseChecker, Machines, Timed, build_inputs, replay_case

LEVELS = ("L1", "L2", "L3", "eDRAM", "MCDRAM")


def traced(ctx: Context) -> Report:
    out = Outcomes()
    m = per_layer_defaults()
    cases, m["sparse.build_s"] = build_inputs(ctx.seed)
    machines = Machines()
    checker = CaseChecker(out, EXPECTED["replay"])

    t0 = time.perf_counter()
    plain = [replay_case(kernel, machines, None) for _, kernel in cases]
    plain_s = time.perf_counter() - t0
    timed = Timed()
    t0 = time.perf_counter()
    traced_runs = [replay_case(kernel, machines, timed) for _, kernel in cases]
    traced_s = time.perf_counter() - t0
    for (name, kernel), a, b in zip(cases, plain, traced_runs):
        checker.check(name, kernel, a, machines)
        checker.check(name, kernel, b, machines)

    accesses = dict.fromkeys(LEVELS, 0)
    misses = dict.fromkeys(LEVELS, 0)
    writebacks = 0
    for res in traced_runs:
        writebacks += res["memory_writebacks"]
        for name, n_access, n_miss in res["levels"]:
            if name in accesses:
                accesses[name] += n_access
                misses[name] += n_miss
    for name in LEVELS:
        m[f"memory.{name}.miss_frac"] = misses[name] / accesses[name] if accesses[name] else 0.0

    caps = machines.capacities()
    opm = min(caps["bdw_opm"], caps["knl_opm"])
    footprints = {
        name: 64 * len(np.unique(np.concatenate([a for a, _ in res["chunks"]])))
        for (name, _), res in zip(cases, traced_runs)
    }
    replay_s = timed.s["hierarchy"]
    m.update(
        {
            "kernels.trace_chunks.s": timed.s["trace_chunks"],
            "kernels.trace_chunks.refs": timed.n["trace_chunks"],
            "memory.hierarchy.replay_s": replay_s,
            "memory.hierarchy.refs": timed.n["hierarchy"],
            "memory.hierarchy.refs_per_s": timed.n["hierarchy"] / replay_s,
            "memory.hierarchy.memory_writebacks": writebacks,
            "trace.sampler.s": timed.s["sampler"],
            "trace.sampler.refs": timed.n["sampler"],
            "replay.footprint_over_opm_max": max(footprints.values()) / opm,
            "bench.trace_overhead_frac": traced_s / plain_s - 1.0,
        }
    )
    m["bench.failed_frac"] = out.failed_frac
    ratios = {k: f"{v / caps['bdw_llc']:.2f}xLLC {v / opm:.3f}xOPM" for k, v in footprints.items()}
    return Report(metrics=m, outcomes=out, notes={"capacities": caps, "footprints": ratios})
