"""``reproduce``: what an artifact evaluator runs, through the ``repro`` CLI.

Untraced run (all medians over the cycles that fit in ``--seconds``):

* ``setup_s``: cold ``repro list`` (``N_LIST`` invocations);
* ``wall_s`` / ``cpu_s`` / ``peak_rss_mb``: cold ``run all --jobs 2``
  into a fresh ``--cache-dir``, process start to exit, whole tree;
* then the same command again on that cache (41/41 hits; its walls go to
  standard error, the traced run reports one as
  ``runtime.cache.warm_run_s``);
* ``ops_per_s``: experiments completed per second of cold wall.

Correctness: every invocation exits 0, ``run all`` stdout hashes to the
recorded digest on both cold and warm runs (stdout is byte-identical
across ``--jobs`` and cache state), the scheduler summary reports 41
misses cold and 41 hits warm, and no process outlives an invocation.

The seed is recorded and otherwise unused: the drivers seed themselves.
"""

from __future__ import annotations

import re
import statistics
import time
from pathlib import Path

import procs
from context import Context, Report
from expected import EXPECTED
from stats import Outcomes, check_digest, sha256_hex

N_EXPERIMENTS = 41
N_LIST = 5
TIMEOUT_S = 120.0
_SUMMARY = re.compile(r"\((\d+) hits / (\d+) misses\), (\d+) resumed, (\d+) failed")


def _cli(ctx: Context, args: list[str], cwd: Path) -> procs.Finished:
    return procs.run_python(["-m", "repro", *args], env=ctx.env, cwd=cwd, timeout_s=TIMEOUT_S)


def _check_run(out: Outcomes, run: procs.Finished, what: str) -> bool:
    if run.returncode != 0:
        tail = run.stderr.decode(errors="replace")[-300:]
        return out.record(False, f"{what}: exit {run.returncode}: {tail}")
    if run.strays:
        return out.record(False, f"{what}: {run.strays} process(es) outlived it")
    return True


def summary_counts(run: procs.Finished) -> tuple[int, int, int] | None:
    """(hits, misses, failed) from the scheduler summary on stderr."""
    m = _SUMMARY.search(run.stderr.decode(errors="replace"))
    if m is None:
        return None
    hits, misses, _, failed = map(int, m.groups())
    return hits, misses, failed


def check_run_all(
    out: Outcomes, run: procs.Finished, what: str, *, hits: int
) -> None:
    """Record one ``run all`` invocation: exit, digest and cache counts."""
    if not _check_run(out, run, what):
        return
    problem = check_digest(
        sha256_hex(run.stdout), EXPECTED["reproduce"]["run_all_stdout"], f"{what} stdout"
    )
    counts = summary_counts(run)
    if problem is None and counts != (hits, N_EXPERIMENTS - hits, 0):
        problem = f"{what}: scheduler summary (hits, misses, failed) = {counts}"
    out.record(problem is None, problem or "")


def list_setup(ctx: Context, out: Outcomes) -> list[float]:
    """Walls of ``N_LIST`` cold ``repro list`` invocations."""
    walls = []
    for i in range(N_LIST):
        run = _cli(ctx, ["list"], ctx.subdir(f"list{i}"))
        if _check_run(out, run, "repro list"):
            problem = check_digest(
                sha256_hex(run.stdout), EXPECTED["reproduce"]["list_stdout"], "list stdout"
            )
            out.record(problem is None, problem or "")
        walls.append(run.wall_s)
    return walls


def run(ctx: Context) -> Report:
    if ctx.trace:
        from w_reproduce_trace import traced

        return traced(ctx)
    out = Outcomes()
    setup = list_setup(ctx, out)
    colds: list[procs.Finished] = []
    warms: list[procs.Finished] = []
    cycle_s = 0.0
    # At least one cold+warm cycle; more while another fits in --seconds.
    while not colds or ctx.elapsed() + cycle_s < ctx.seconds:
        t0 = time.perf_counter()
        work = ctx.subdir(f"cycle{len(colds)}")
        args = ["run", "all", "--jobs", "2", "--cache-dir", str(work / "cache")]
        cold = _cli(ctx, args, work)
        check_run_all(out, cold, "cold run all", hits=0)
        warm = _cli(ctx, args, work)
        check_run_all(out, warm, "warm run all", hits=N_EXPERIMENTS)
        colds.append(cold)
        warms.append(warm)
        cycle_s = time.perf_counter() - t0
    wall = statistics.median(r.wall_s for r in colds)
    return Report(
        metrics={
            "wall_s": wall,
            "cpu_s": statistics.median(r.cpu_s for r in colds),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r.maxrss_mb for r in colds),
            "ops_per_s": N_EXPERIMENTS / wall,
        },
        outcomes=out,
        notes={
            "cold_walls_s": [round(r.wall_s, 3) for r in colds],
            "warm_walls_s": [round(r.wall_s, 3) for r in warms],
            "seed": ctx.seed,
        },
    )
