"""``replay``: the simulator's own throughput on the vectorized path.

In one process: build the eight paper kernels at three sizes each
(touched footprints below the scaled LLC, between LLC and OPM, and above
the OPM), generate their traces with ``kernel_trace_chunks`` and replay
every case on two hierarchies without a prefetcher:

* Broadwell, eDRAM on, scaled as the validation harness scales it, teed
  into the streaming ``WindowSampler`` the way ``validate_kernel_streamed``
  does;
* KNL in MCDRAM cache mode, scaled so MCDRAM matches the eDRAM capacity.

Untraced metrics (medians over the passes that fit in ``--seconds``):

* ``setup_s``: a fresh interpreter that imports the layers and builds
  the inputs, spawn to exit (``N_SETUP`` of them);
* ``wall_s``: one pass: trace generation, both replays, sampling;
* ``cpu_s``: process CPU of one pass;
* ``ops_per_s``: trace references per host second over all passes;
* ``peak_rss_mb``: this process's peak resident set.

Correctness: every case's ``HierarchyStats`` and sampled profile hash
identically on every pass; seed-independent cases hash to the digests in
``expected.py``; the smallest size of every kernel matches the scalar
``Hierarchy.access`` oracle; ``conservation_violations()`` is empty.

Run as a script (``python perfbench/w_replay.py <seed>``) it only
imports and builds the inputs; ``setup_s`` times that.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np
from repro.kernels import (
    CholeskyKernel,
    FftKernel,
    GemmKernel,
    SpmvKernel,
    SptransKernel,
    SptrsvKernel,
    StencilKernel,
    StreamKernel,
)
from repro.kernels.traces import kernel_trace_chunks
from repro.memory import for_broadwell, for_knl
from repro.platforms import McdramMode, broadwell, knl
from repro.sparse import generators
from repro.trace.reservoir import WindowSampler

import procs
from context import Context, Report
from expected import EXPECTED
from stats import Outcomes, canonical_digest, check_digest, sha256_hex

HERE = Path(__file__).resolve().parent

#: Broadwell scale (the validation harness's ``SCALE``): L3 6 KiB, eDRAM 128 KiB.
BDW_SCALE = 0.001
#: KNL scale: L2 clamps to 1 KiB, MCDRAM 128 KiB like the eDRAM above.
KNL_SCALE = 8e-6
#: Sampler settings of ``validate_kernel_streamed``.
WINDOW, PERIOD, SAMPLER_SEED = 4096, 4, 0

#: kernel -> three sizes (small, mid, large) of its constructor argument.
SIZES: dict[str, tuple[Any, Any, Any]] = {
    "stream": (160, 1600, 12800),
    "gemm": (12, 40, 48),
    "cholesky": (16, 48, 96),
    "fft": (4, 10, 16),
    "stencil": (17, 24, 30),
    "spmv": ((40, 200), (400, 2000), (4000, 20000)),
    "sptrans": ((40, 200), (400, 2000), (3000, 15000)),
    "sptrsv": ((40, 200), (400, 2000), (4000, 20000)),
}
#: Kernels whose inputs depend on the seed (sparse structure).
SEEDED = ("spmv", "sptrans", "sptrsv")
N_SETUP = 5


def build_inputs(seed: int) -> tuple[list[tuple[str, Any]], float]:
    """Every (case name, kernel) pair, and seconds spent building matrices."""
    sparse: dict[str, tuple[Callable, Callable]] = {
        "spmv": (generators.random_uniform, SpmvKernel.from_matrix),
        "sptrans": (generators.powerlaw, SptransKernel.from_matrix),
        "sptrsv": (generators.banded, SptrsvKernel.from_matrix),
    }
    dense: dict[str, Callable[[Any], Any]] = {
        "stream": lambda n: StreamKernel(n=n),
        "gemm": lambda n: GemmKernel(order=n, tile=min(8, n)),
        "cholesky": lambda n: CholeskyKernel(order=n, tile=8),
        "fft": lambda n: FftKernel(size=n),
        "stencil": lambda n: StencilKernel(n, n, n),
    }
    cases = []
    sparse_s = 0.0
    for name, sizes in SIZES.items():
        for label, size in zip(("small", "mid", "large"), sizes):
            if name in sparse:
                gen, make = sparse[name]
                t0 = time.perf_counter()
                matrix = gen(size[0], size[1], seed=seed)
                sparse_s += time.perf_counter() - t0
                kernel = make(matrix)
            else:
                kernel = dense[name](size)
            cases.append((f"{name}-{label}", kernel))
    return cases, sparse_s


class Machines:
    """The two replay targets; every case gets fresh hierarchies."""

    def __init__(self) -> None:
        self.bdw_spec = broadwell(edram=True)
        self.knl_spec = knl(McdramMode.CACHE)

    def broadwell(self):
        return for_broadwell(self.bdw_spec, edram=True, scale=BDW_SCALE)

    def knl(self):
        return for_knl(self.knl_spec, McdramMode.CACHE, scale=KNL_SCALE)

    def capacities(self) -> dict[str, int]:
        b, k = self.broadwell(), self.knl()
        return {
            "bdw_llc": b._stages[-1].cache.capacity,
            "bdw_opm": b._victim.cache.capacity,
            "knl_llc": k._stages[-1].cache.capacity,
            "knl_opm": k._mcdram_cache.capacity,
        }


def stats_digest(hierarchy) -> str:
    return canonical_digest(
        {
            "levels": [lvl.as_dict() for lvl in hierarchy.stats().levels],
            "memory_writebacks": hierarchy.memory_writebacks(),
        }
    )


def profile_digest(profile) -> str:
    return canonical_digest(
        {
            "distances": sha256_hex(np.ascontiguousarray(profile.profile.distances).tobytes()),
            "n_windows": profile.n_windows,
            "censored_fraction": profile.censored_fraction,
        }
    )


class Timed:
    """Per-layer busy time and work, filled only when a pass is traced."""

    def __init__(self) -> None:
        self.s: dict[str, float] = {}
        self.n: dict[str, int] = {}

    def add(self, layer: str, seconds: float, count: int = 0) -> None:
        self.s[layer] = self.s.get(layer, 0.0) + seconds
        self.n[layer] = self.n.get(layer, 0) + count


def replay_case(kernel, machines: Machines, timed: Timed | None) -> dict[str, Any]:
    """Trace one kernel and replay it on both hierarchies; digests and stats.

    With ``timed`` the calls into each layer are timed separately, at
    chunk granularity.
    """
    t0 = time.perf_counter()
    source: Any = kernel_trace_chunks(kernel, line=64)
    if timed is not None:
        source = list(source)
        refs = sum(int(a.shape[0]) for a, _ in source)
        timed.add("trace_chunks", time.perf_counter() - t0, refs)
    kept: list[tuple[np.ndarray, np.ndarray]] = []
    sampler = WindowSampler(WINDOW, PERIOD, SAMPLER_SEED)
    sampler_s = 0.0

    def tee() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        nonlocal sampler_s
        for la, lw in source:
            t0 = time.perf_counter()
            sampler.push(np.asarray(la))
            sampler_s += time.perf_counter() - t0
            kept.append((la, lw))
            yield la, lw

    bdw = machines.broadwell()
    t0 = time.perf_counter()
    bdw.run_batched(tee())
    bdw_s = time.perf_counter() - t0
    profile = sampler.finish()
    refs = sum(int(a.shape[0]) for a, _ in kept)
    knl = machines.knl()
    t0 = time.perf_counter()
    knl.run_batched(kept)
    knl_s = time.perf_counter() - t0
    if timed is not None:
        timed.add("sampler", sampler_s, refs)
        timed.add("hierarchy", bdw_s - sampler_s + knl_s, 2 * refs)
    stats = f"{stats_digest(bdw)}:{stats_digest(knl)}"
    # Small summaries only: holding every case's hierarchy alive would
    # make later passes pay for a larger heap.
    return {
        "refs": refs,
        "chunks": kept,
        "stats": stats,
        "digest": sha256_hex(f"{stats}:{profile_digest(profile)}".encode()),
        "violations": bdw.conservation_violations() + knl.conservation_violations(),
        "levels": [
            (lvl.name, lvl.accesses, lvl.misses)
            for h in (bdw, knl)
            for lvl in h.stats().levels
        ],
        "memory_writebacks": bdw.memory_writebacks() + knl.memory_writebacks(),
    }


def scalar_digest(kernel, machines: Machines, chunks) -> str:
    """Both hierarchies driven through the scalar ``access`` oracle."""
    bdw, knl = machines.broadwell(), machines.knl()
    for h in (bdw, knl):
        for la, lw in chunks:
            for addr, write in zip(la.tolist(), np.broadcast_to(lw, la.shape).tolist()):
                h.access(addr, write=bool(write))
    return f"{stats_digest(bdw)}:{stats_digest(knl)}"


def setup_probe(seed: int) -> None:
    """What ``setup_s`` times, after this module's imports: the inputs."""
    build_inputs(seed)
    Machines()


def run(ctx: Context) -> Report:
    if ctx.trace:
        from w_replay_trace import traced

        return traced(ctx)
    out = Outcomes()
    setup = []
    for i in range(N_SETUP):
        probe = procs.run_python(
            [str(HERE / "w_replay.py"), str(ctx.seed)],
            env=ctx.env,
            cwd=ctx.subdir(f"setup{i}"),
            timeout_s=60.0,
        )
        out.record(probe.returncode == 0, f"setup probe exit {probe.returncode}")
        setup.append(probe.wall_s)

    cases, _ = build_inputs(ctx.seed)
    machines = Machines()
    checker = CaseChecker(out, EXPECTED["replay"])
    walls, cpus, refs_total = [], [], 0
    pass_s = 0.0
    while not walls or ctx.elapsed() + pass_s < ctx.seconds:
        gc.collect()  # every pass starts from the same heap
        c0, t0 = time.process_time(), time.perf_counter()
        results = [replay_case(kernel, machines, None) for _, kernel in cases]
        pass_s = time.perf_counter() - t0
        walls.append(pass_s)
        cpus.append(time.process_time() - c0)
        refs = sum(r["refs"] for r in results)
        refs_total += refs
        for (name, kernel), res in zip(cases, results):
            checker.check(name, kernel, res, machines)
    return Report(
        metrics={
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_per_s": refs_total / sum(walls),
        },
        outcomes=out,
        notes={
            "pass_walls_s": [round(w, 3) for w in walls],
            "refs_per_pass": refs,
        },
    )


class CaseChecker:
    """Correctness of every replayed case, recorded into ``Outcomes``."""

    def __init__(self, out: Outcomes, expected: dict[str, str]) -> None:
        self.out = out
        self.expected = expected
        self.first: dict[str, str] = {}

    def check(self, name: str, kernel, res: dict[str, Any], machines: Machines) -> None:
        problem = None
        if res["violations"]:
            problem = f"{name}: conservation {res['violations'][:2]}"
        elif name in self.first:
            if res["digest"] != self.first[name]:
                problem = f"{name}: stats differ between passes"
        else:
            self.first[name] = res["digest"]
            if name.split("-")[0] not in SEEDED:
                problem = check_digest(res["digest"], self.expected.get(name), name)
            if problem is None and name.endswith("-small"):
                oracle = scalar_digest(kernel, machines, res["chunks"])
                if res["stats"] != oracle:
                    problem = f"{name}: batched replay differs from scalar oracle"
        self.out.record(problem is None, problem or "")


if __name__ == "__main__":
    setup_probe(int(sys.argv[1]))
