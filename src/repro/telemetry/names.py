"""Canonical telemetry span and metric names.

Every span opened and every counter/gauge/histogram published by the
pipeline takes its name from this module, so the names that
``report.py``, ``telemetry.summary``, CI assertions, and external trace
consumers key on cannot silently drift from the names the code emits.
``repro audit`` rule SPAN001 enforces the contract statically: a span or
metric opened with a string literal must use one of the names registered
here (or a prefix produced by one of the helper functions below).

Adding a new span or metric is a two-line change: define the constant
(or extend a prefix helper) and use it at the call site.
"""

from __future__ import annotations

# -- spans --------------------------------------------------------------------

#: One scheduler batch (``repro.runtime.scheduler.run_batch``).
SPAN_BATCH = "batch"
#: One content-addressed cache probe for a task.
SPAN_CACHE_LOOKUP = "cache.lookup"
#: One inline task execution under the scheduler.
SPAN_TASK = "task"
#: Resolution of one pooled task (done / failed / timeout).
SPAN_TASK_WAIT = "task.wait"
#: Executor recycling after a hung worker or broken pool.
SPAN_POOL_REAP = "pool.reap"
#: One experiment driver invocation (``repro.experiments.registry.run``).
SPAN_EXPERIMENT = "experiment"
#: One stepping-model curve (``repro.engine.stepping.curve``).
SPAN_STEPPING_CURVE = "stepping.curve"
#: Kernel access-trace generation (``kernel_trace_chunks``).
SPAN_KERNEL_TRACE = "kernel.trace"
#: Kernel simulation (trace generation + hierarchy replay).
SPAN_KERNEL_SIMULATE = "kernel.simulate"
#: One kernel evaluated inside a Broadwell/KNL sweep.
SPAN_SWEEP_KERNEL = "sweep.kernel"
#: One hierarchy trace replay (``Hierarchy.run_batched``).
SPAN_HIERARCHY_RUN = "hierarchy.run"
#: One HTTP request handled by the memory-advisor service (manual
#: lifecycle: the asyncio handler interleaves requests on one thread).
SPAN_SERVE_REQUEST = "serve.request"
#: One coalesced micro-batch drained by the serve batcher.
SPAN_SERVE_BATCH = "serve.batch"
#: One query executed on a serve worker shard (manual lifecycle).
SPAN_SERVE_EXECUTE = "serve.execute"
#: One advisor engine evaluation (worker side, with-scoped).
SPAN_SERVE_ADVISE = "serve.advise"
#: Building one per-level energy ledger from a simulated hierarchy.
SPAN_POWER_LEDGER = "power.ledger"

#: Every canonical span name (SPAN001 checks literals against this set).
SPAN_NAMES = frozenset(
    {
        SPAN_BATCH,
        SPAN_CACHE_LOOKUP,
        SPAN_TASK,
        SPAN_TASK_WAIT,
        SPAN_POOL_REAP,
        SPAN_EXPERIMENT,
        SPAN_STEPPING_CURVE,
        SPAN_KERNEL_TRACE,
        SPAN_KERNEL_SIMULATE,
        SPAN_SWEEP_KERNEL,
        SPAN_HIERARCHY_RUN,
        SPAN_SERVE_REQUEST,
        SPAN_SERVE_BATCH,
        SPAN_SERVE_EXECUTE,
        SPAN_SERVE_ADVISE,
        SPAN_POWER_LEDGER,
    }
)

# -- metrics ------------------------------------------------------------------

#: Gauge: worker processes configured for the current batch.
METRIC_RUNTIME_WORKERS = "runtime.workers"
#: Counter: tasks skipped because a resume journal marked them done.
METRIC_TASKS_RESUMED = "runtime.tasks.resumed"
#: Counter: result-cache hits during batch scheduling.
METRIC_CACHE_HITS = "runtime.cache.hits"
#: Counter: result-cache misses during batch scheduling.
METRIC_CACHE_MISSES = "runtime.cache.misses"
#: Counter: tasks that finished with a result.
METRIC_TASKS_COMPLETED = "runtime.tasks.completed"
#: Counter: tasks whose final attempt raised.
METRIC_TASKS_FAILED = "runtime.tasks.failed"
#: Counter: retry requeues (failures and timeouts with attempts left).
METRIC_TASKS_RETRIED = "runtime.tasks.retried"
#: Counter: per-occurrence task deadline expiries.
METRIC_TASKS_TIMEOUT = "runtime.tasks.timeout"
#: Counter: executor recycles (hung worker / broken pool).
METRIC_POOL_RECYCLED = "runtime.pool.recycled"
#: Counter: worker-side spans merged into the parent trace.
METRIC_TELEMETRY_MERGED = "runtime.telemetry.spans_merged"
#: Counter: worker-side spans dropped by the per-task span budget.
METRIC_TELEMETRY_DROPPED = "runtime.telemetry.dropped"
#: Histogram: wall seconds per completed task.
METRIC_TASK_WALL_S = "runtime.task_wall_s"
#: Counter: points evaluated by the stepping engine.
METRIC_STEPPING_POINTS = "engine.stepping.points"
#: Counter: experiment driver invocations through the registry.
METRIC_EXPERIMENT_RUNS = "experiments.runs"
#: Counter: sweep points evaluated (Broadwell + KNL sweeps).
METRIC_SWEEP_POINTS = "sweep.points"
#: Counter: HTTP requests accepted by the advisor service.
METRIC_SERVE_REQUESTS = "serve.requests.total"
#: Counter: requests answered with a non-2xx status.
METRIC_SERVE_ERRORS = "serve.requests.errors"
#: Counter: requests folded onto an identical in-flight execution.
METRIC_SERVE_COALESCED = "serve.requests.coalesced"
#: Counter: serve answers produced without touching disk (LRU hot tier).
METRIC_SERVE_CACHE_HOT = "serve.cache.hot_hits"
#: Counter: serve answers replayed from the shared on-disk cache.
METRIC_SERVE_CACHE_DISK = "serve.cache.disk_hits"
#: Counter: serve queries that required an engine execution.
METRIC_SERVE_CACHE_MISSES = "serve.cache.misses"
#: Counter: advisor engine evaluations (the coalescing-proof number).
METRIC_SERVE_ENGINE_EXECUTIONS = "serve.engine.executions"
#: Counter: worker executions recycled after a timeout or pool break.
METRIC_SERVE_RECYCLED = "serve.pool.recycled"
#: Histogram: wall seconds per served request.
METRIC_SERVE_REQUEST_WALL_S = "serve.request_wall_s"
#: Histogram: queries per drained micro-batch.
METRIC_SERVE_BATCH_SIZE = "serve.batch_size"
#: Counter: energy ledgers built from simulated hierarchies.
METRIC_POWER_LEDGERS = "power.ledgers"
#: Counter: energy-conservation violations detected while building
#: ledgers (should stay at zero; non-zero means the books do not close).
METRIC_POWER_CONSERVATION_FAILURES = "power.conservation.failures"

#: Every canonical static metric name.
METRIC_NAMES = frozenset(
    {
        METRIC_RUNTIME_WORKERS,
        METRIC_TASKS_RESUMED,
        METRIC_CACHE_HITS,
        METRIC_CACHE_MISSES,
        METRIC_TASKS_COMPLETED,
        METRIC_TASKS_FAILED,
        METRIC_TASKS_RETRIED,
        METRIC_TASKS_TIMEOUT,
        METRIC_POOL_RECYCLED,
        METRIC_TELEMETRY_MERGED,
        METRIC_TELEMETRY_DROPPED,
        METRIC_TASK_WALL_S,
        METRIC_STEPPING_POINTS,
        METRIC_EXPERIMENT_RUNS,
        METRIC_SWEEP_POINTS,
        METRIC_SERVE_REQUESTS,
        METRIC_SERVE_ERRORS,
        METRIC_SERVE_COALESCED,
        METRIC_SERVE_CACHE_HOT,
        METRIC_SERVE_CACHE_DISK,
        METRIC_SERVE_CACHE_MISSES,
        METRIC_SERVE_ENGINE_EXECUTIONS,
        METRIC_SERVE_RECYCLED,
        METRIC_SERVE_REQUEST_WALL_S,
        METRIC_SERVE_BATCH_SIZE,
        METRIC_POWER_LEDGERS,
        METRIC_POWER_CONSERVATION_FAILURES,
    }
)

#: Allowed prefixes for dynamically constructed metric names (built by
#: the helper functions below; SPAN001 accepts literals under these).
METRIC_PREFIXES = ("kernel.", "memory.", "power.")


def kernel_trace_events(kernel: str) -> str:
    """Counter name for one kernel's generated trace events."""
    return f"kernel.{kernel}.trace_events"


def memory_level_prefix(level: str) -> str:
    """``record_counts`` prefix for one hierarchy level's traffic."""
    return f"memory.{level}"


def memory_cache_prefix(level: str) -> str:
    """``record_counts`` prefix for one level's internal cache counters."""
    return f"memory.{level}.cache"


def power_level_prefix(level: str) -> str:
    """``record_counts`` prefix for one level's priced energy."""
    return f"power.{level}"
