"""Scalar reference forms of the trace pipeline: the test oracle.

Production code has one trace representation: ndarray ``(line_addrs,
writes)`` chunks fed to :meth:`repro.memory.hierarchy.Hierarchy.run_batched`.
This module keeps the per-reference twins of that pipeline — byte-level
:class:`Access` events, their line expansion, the synthetic generators,
the eight kernels' loop-nest tracers, the dict-scan stack distances and a
one-``access()``-at-a-time replay — written for obviousness, not speed.
The differential suites (``test_trace_batch.py``, ``test_kernel_traces.py``,
``test_fuzz_hierarchy.py``, ...) hold the ndarray path byte-identical to
these forms. Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Iterator

import numpy as np

from repro.kernels.base import Kernel
from repro.kernels.cholesky import CholeskyKernel
from repro.kernels.fft import FftKernel
from repro.kernels.gemm import GemmKernel
from repro.kernels.spmv import SpmvKernel
from repro.kernels.sptrans import SptransKernel
from repro.kernels.sptrsv import SptrsvKernel
from repro.kernels.stencil import RADIUS, StencilKernel
from repro.kernels.stream import StreamKernel
from repro.kernels.traces import WORD, _guard, _layout
from repro.memory.hierarchy import Hierarchy
from repro.memory.stats import HierarchyStats
from repro.platforms.spec import LINE_BYTES
from repro.sparse.levels import build_levels
from repro.trace.reservoir import SampledProfile, WindowSampler
from repro.trace.stackdist import StackDistanceProfile, _fenwick_distances


# -- cache-line arithmetic ----------------------------------------------------


def line_of(addr: int, line: int = LINE_BYTES) -> int:
    """Line address containing byte address ``addr``."""
    return addr // line


def lines_touched(addr: int, size: int, line: int = LINE_BYTES) -> range:
    """Range of line addresses covered by ``size`` bytes at ``addr``."""
    if size <= 0:
        raise ValueError("size must be positive")
    first = addr // line
    last = (addr + size - 1) // line
    return range(first, last + 1)


def count_lines(size: int, line: int = LINE_BYTES) -> int:
    """Minimum number of lines needed to hold ``size`` bytes."""
    if size < 0:
        raise ValueError("size must be non-negative")
    return -(-size // line)


# -- byte-level events --------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Access:
    """One memory reference issued by a kernel."""

    addr: int  # byte address
    size: int = 8  # bytes (double-precision word by default)
    write: bool = False

    def __post_init__(self) -> None:
        if self.addr < 0:
            raise ValueError("addr must be non-negative")
        if self.size <= 0:
            raise ValueError("size must be positive")


def to_line_trace(
    accesses: Iterable[Access], line: int = LINE_BYTES
) -> Iterator[tuple[int, bool]]:
    """Expand byte-level accesses into (line_addr, is_write) pairs."""
    for acc in accesses:
        for line_addr in lines_touched(acc.addr, acc.size, line):
            yield line_addr, acc.write


# -- synthetic generators (twins of repro.trace.generator) ---------------------


def sequential(
    base: int, n_words: int, *, word: int = 8, write: bool = False
) -> Iterator[Access]:
    """A unit-stride scan over ``n_words`` words starting at ``base``."""
    for i in range(n_words):
        yield Access(base + i * word, size=word, write=write)


def strided(
    base: int, n_accesses: int, stride: int, *, word: int = 8, write: bool = False
) -> Iterator[Access]:
    """A constant-stride scan (``stride`` in bytes)."""
    if stride <= 0:
        raise ValueError("stride must be positive")
    for i in range(n_accesses):
        yield Access(base + i * stride, size=word, write=write)


def repeated_sweep(
    base: int, n_words: int, sweeps: int, *, word: int = 8, write: bool = False
) -> Iterator[Access]:
    """``sweeps`` back-to-back sequential passes over the same buffer.

    This is the minimal workload exhibiting a cache peak: once the buffer
    fits a level, every sweep after the first hits there.
    """
    for _ in range(sweeps):
        yield from sequential(base, n_words, word=word, write=write)


def tiled_2d(
    base: int,
    rows: int,
    cols: int,
    tile_rows: int,
    tile_cols: int,
    *,
    word: int = 8,
    write: bool = False,
) -> Iterator[Access]:
    """Row-major traversal of a matrix in tiles (GEMM-style blocking)."""
    if tile_rows <= 0 or tile_cols <= 0:
        raise ValueError("tile dims must be positive")
    for ti in range(0, rows, tile_rows):
        for tj in range(0, cols, tile_cols):
            for i in range(ti, min(ti + tile_rows, rows)):
                for j in range(tj, min(tj + tile_cols, cols)):
                    yield Access(base + (i * cols + j) * word, size=word, write=write)


def uniform_random(
    base: int,
    span_words: int,
    n_accesses: int,
    *,
    word: int = 8,
    write: bool = False,
    seed: int = 0,
) -> Iterator[Access]:
    """Uniformly random word accesses within a buffer (SpMV x-vector style)."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, span_words, size=n_accesses)
    for i in idx:
        yield Access(base + int(i) * word, size=word, write=write)


def pointer_chase(
    base: int,
    span_words: int,
    n_accesses: int,
    *,
    word: int = 8,
    seed: int = 0,
) -> Iterator[Access]:
    """A dependent random walk: each address derived from the previous.

    Models latency-bound kernels (SpTRSV's dependency chains): there is no
    memory-level parallelism in this stream by construction.
    """
    rng = np.random.default_rng(seed)
    pos = 0
    for _ in range(n_accesses):
        yield Access(base + pos * word, size=word, write=False)
        pos = int(rng.integers(0, span_words))


# -- kernel loop-nest tracers (twins of repro.kernels.traces) ------------------


def trace_stream(kernel: StreamKernel, *, reps: int = 1) -> Iterator[Access]:
    """TRIAD: read b[i], read c[i], write a[i]."""
    n = kernel.n
    _guard(3 * n * reps, "stream")
    base = _layout({"a": n * WORD, "b": n * WORD, "c": n * WORD})
    for _ in range(reps):
        for i in range(n):
            yield Access(base["b"] + i * WORD)
            yield Access(base["c"] + i * WORD)
            yield Access(base["a"] + i * WORD, write=True)


def trace_gemm(kernel: GemmKernel, *, reps: int = 1) -> Iterator[Access]:
    """Tiled GEMM loop nest (k-loop innermost over a resident C tile).

    Emits the blocked reference stream at word granularity: for each
    (i, j) C tile and k panel, the A and B tile elements in the order the
    micro-kernel consumes them.
    """
    n, b = kernel.order, min(kernel.tile, kernel.order)
    _guard(2 * n**3 * reps, "gemm")
    fp = n * n * WORD
    base = _layout({"A": fp, "B": fp, "C": fp})

    def addr(array: str, i: int, j: int) -> int:
        return base[array] + (i * n + j) * WORD

    for _ in range(reps):
        for i0 in range(0, n, b):
            for j0 in range(0, n, b):
                for p0 in range(0, n, b):
                    for i in range(i0, min(i0 + b, n)):
                        for j in range(j0, min(j0 + b, n)):
                            for p in range(p0, min(p0 + b, n)):
                                yield Access(addr("A", i, p))
                                yield Access(addr("B", p, j))
                            yield Access(addr("C", i, j), write=True)


def trace_cholesky(kernel: CholeskyKernel, *, reps: int = 1) -> Iterator[Access]:
    """Right-looking tiled Cholesky reference stream (update-dominated)."""
    n, b = kernel.order, min(kernel.tile, kernel.order)
    _guard(n**3 * reps, "cholesky")
    base = _layout({"A": n * n * WORD})

    def addr(i: int, j: int) -> int:
        return base["A"] + (i * n + j) * WORD

    for _ in range(reps):
        for k0 in range(0, n, b):
            k1 = min(k0 + b, n)
            # POTRF on the diagonal tile.
            for i in range(k0, k1):
                for j in range(k0, i + 1):
                    yield Access(addr(i, j), write=True)
            # TRSM panel + SYRK/GEMM trailing update.
            for i0 in range(k1, n, b):
                i1 = min(i0 + b, n)
                for i in range(i0, i1):
                    for p in range(k0, k1):
                        yield Access(addr(i, p), write=True)
                for j0 in range(k1, i1, b):
                    j1 = min(j0 + b, i1)
                    for i in range(i0, i1):
                        for j in range(j0, j1):
                            for p in range(k0, k1):
                                yield Access(addr(i, p))
                                yield Access(addr(j, p))
                            yield Access(addr(i, j), write=True)


def trace_spmv(kernel: SpmvKernel, *, reps: int = 1) -> Iterator[Access]:
    """CSR SpMV: stream row pointers, values, column ids; gather x."""
    matrix = kernel.matrix if kernel.matrix is not None else kernel.descriptor.materialize()
    _guard(4 * matrix.nnz * reps, "spmv")
    base = _layout(
        {
            "vals": matrix.nnz * WORD,
            "cols": matrix.nnz * 4,
            "indptr": (matrix.n_rows + 1) * 4,
            "x": matrix.n_cols * WORD,
            "y": matrix.n_rows * WORD,
        }
    )
    for _ in range(reps):
        for i in range(matrix.n_rows):
            yield Access(base["indptr"] + i * 4, size=4)
            lo, hi = int(matrix.indptr[i]), int(matrix.indptr[i + 1])
            for k in range(lo, hi):
                yield Access(base["cols"] + k * 4, size=4)
                yield Access(base["vals"] + k * WORD)
                yield Access(base["x"] + int(matrix.indices[k]) * WORD)
            yield Access(base["y"] + i * WORD, write=True)


def trace_sptrsv(kernel: SptrsvKernel, *, reps: int = 1) -> Iterator[Access]:
    """Level-scheduled forward solve: same streams as SpMV, level order."""
    matrix = kernel.matrix if kernel.matrix is not None else kernel.descriptor.materialize()
    lower = matrix.lower_triangle()
    schedule = build_levels(lower)
    _guard(4 * lower.nnz * reps, "sptrsv")
    base = _layout(
        {
            "vals": lower.nnz * WORD,
            "cols": lower.nnz * 4,
            "indptr": (lower.n_rows + 1) * 4,
            "x": lower.n_rows * WORD,
            "b": lower.n_rows * WORD,
        }
    )
    for _ in range(reps):
        for lvl in range(schedule.n_levels):
            for i in schedule.rows_in_level(lvl):
                i = int(i)
                yield Access(base["indptr"] + i * 4, size=4)
                lo, hi = int(lower.indptr[i]), int(lower.indptr[i + 1])
                for k in range(lo, hi):
                    yield Access(base["cols"] + k * 4, size=4)
                    yield Access(base["vals"] + k * WORD)
                    j = int(lower.indices[k])
                    if j < i:  # strictly-lower dependency gathers x[j]
                        yield Access(base["x"] + j * WORD)
                yield Access(base["b"] + i * WORD)
                yield Access(base["x"] + i * WORD, write=True)


def trace_stencil(kernel: StencilKernel, *, reps: int = 1) -> Iterator[Access]:
    """iso3dfd sweeps: star-neighbor reads, vel read, write.

    Neighbor reads are emitted at the granularity the analytic profile
    models (one touch per plane offset along each axis).
    """
    nx, ny, nz = kernel.nx, kernel.ny, kernel.nz
    cells = nx * ny * nz
    _guard((6 * RADIUS + 4) * cells * kernel.steps * reps, "stencil")
    grid_bytes = cells * WORD
    base = _layout({"prev": grid_bytes, "curr": grid_bytes, "vel": grid_bytes})

    def addr(array: str, i: int, j: int, k: int) -> int:
        return base[array] + ((i * ny + j) * nz + k) * WORD

    r = RADIUS
    for _ in range(reps * kernel.steps):
        for i in range(r, nx - r):
            for j in range(r, ny - r):
                for k in range(r, nz - r):
                    yield Access(addr("curr", i, j, k))
                    for t in range(1, r + 1):
                        yield Access(addr("curr", i + t, j, k))
                        yield Access(addr("curr", i - t, j, k))
                        yield Access(addr("curr", i, j + t, k))
                        yield Access(addr("curr", i, j - t, k))
                        yield Access(addr("curr", i, j, k + t))
                        yield Access(addr("curr", i, j, k - t))
                    yield Access(addr("prev", i, j, k))
                    yield Access(addr("vel", i, j, k))
                    yield Access(addr("curr", i, j, k), write=True)


def trace_sptrans(kernel: SptransKernel, *, reps: int = 1) -> Iterator[Access]:
    """ScanTrans passes: histogram, scan, scatter (column-ordered writes)."""
    matrix = kernel.matrix if kernel.matrix is not None else kernel.descriptor.materialize()
    _guard(6 * matrix.nnz * reps, "sptrans")
    n_rows, n_cols, nnz = matrix.n_rows, matrix.n_cols, matrix.nnz
    base = _layout(
        {
            "in_vals": nnz * WORD,
            "in_cols": nnz * 4,
            "counts": n_cols * 4,
            "out_vals": nnz * WORD,
            "out_rows": nnz * 4,
            "out_ptr": (n_cols + 1) * 4,
        }
    )
    order = np.argsort(matrix.indices, kind="stable")
    slot_of = np.empty(nnz, dtype=np.int64)
    slot_of[order] = np.arange(nnz)
    for _ in range(reps):
        # Pass 1: histogram of column ids.
        for k in range(nnz):
            yield Access(base["in_cols"] + k * 4, size=4)
            yield Access(
                base["counts"] + int(matrix.indices[k]) * 4, size=4, write=True
            )
        # Pass 2: prefix scan of the counters.
        for j in range(n_cols):
            yield Access(base["counts"] + j * 4, size=4)
            yield Access(base["out_ptr"] + j * 4, size=4, write=True)
        # Pass 3: scatter values/rows to their column-ordered slots.
        for k in range(nnz):
            yield Access(base["in_cols"] + k * 4, size=4)
            yield Access(base["in_vals"] + k * WORD)
            slot = int(slot_of[k])
            yield Access(base["out_vals"] + slot * WORD, write=True)
            yield Access(base["out_rows"] + slot * 4, size=4, write=True)


def trace_fft(kernel: FftKernel, *, reps: int = 1) -> Iterator[Access]:
    """3-D FFT passes: log2(n) butterfly sweeps per axis over the cube.

    Emits the pencil-walk pattern at word-pair (complex) granularity: for
    each axis, each pencil is swept ``ceil(log2 n)`` times (the butterfly
    stages), with pencil elements contiguous along the Z axis only —
    reproducing the strided access of the Y/X passes.
    """
    import math

    n = kernel.size
    n_points = n**3
    stages = max(1, math.ceil(math.log2(n)))
    _guard(3 * 2 * n_points * stages * reps, "fft")
    cbytes = 16
    base = _layout({"cube": n_points * cbytes})

    def addr(i: int, j: int, k: int) -> int:
        return base["cube"] + ((i * n + j) * n + k) * cbytes

    for _ in range(reps):
        for axis in (1, 0, 2):  # Y, X, Z as the paper orders the passes
            for _stage in range(stages):
                for a in range(n):
                    for b in range(n):
                        for c in range(n):
                            if axis == 0:
                                i, j, k = c, a, b
                            elif axis == 1:
                                i, j, k = a, c, b
                            else:
                                i, j, k = a, b, c
                            yield Access(addr(i, j, k), size=cbytes)
                            yield Access(addr(i, j, k), size=cbytes, write=True)


def kernel_trace(kernel: Kernel, *, reps: int = 1) -> Iterator[Access]:
    """Dispatch to the tracer for ``kernel``'s type."""
    dispatch = {
        StreamKernel: trace_stream,
        GemmKernel: trace_gemm,
        CholeskyKernel: trace_cholesky,
        SpmvKernel: trace_spmv,
        SptransKernel: trace_sptrans,
        SptrsvKernel: trace_sptrsv,
        StencilKernel: trace_stencil,
        FftKernel: trace_fft,
    }
    for cls, fn in dispatch.items():
        if isinstance(kernel, cls):
            return fn(kernel, reps=reps)  # type: ignore[arg-type]
    raise TypeError(f"no tracer for {type(kernel).__name__}")


# -- stack distances and replay -----------------------------------------------


def stack_distances(lines: Iterable[int]) -> StackDistanceProfile:
    """Reference for :func:`repro.trace.stack_distances`: previous
    occurrences by a dict scan (-1 = cold), then the shared Fenwick count."""
    last_seen: dict = {}
    prev = []
    for t, line in enumerate(lines):
        prev.append(last_seen.get(line, -1))
        last_seen[line] = t
    return StackDistanceProfile(distances=_fenwick_distances(prev, len(prev)))


def sampled_stack_distances(
    lines: Iterable[int], *, window: int = 4096, period: int = 4, seed: int = 0
) -> SampledProfile:
    """Reference for :func:`repro.trace.sampled_stack_distances`: the
    stream is buffered into plain-list windows one reference at a time."""
    sampler = WindowSampler(window, period, seed)
    buffer: list = []
    for line in lines:
        buffer.append(line)
        if len(buffer) == window:
            sampler.complete(buffer)
            buffer = []
    if buffer:
        sampler.tail(buffer)
    return sampler.finish()


def run(hierarchy: Hierarchy, trace: Iterable[tuple[int, bool]]) -> HierarchyStats:
    """Replay (line_addr, is_write) pairs one :meth:`Hierarchy.access` at a time."""
    for line_addr, write in trace:
        hierarchy.access(line_addr, write=write)
    return hierarchy.stats()


def simulate(kernel: Kernel, hierarchy: Hierarchy, *, reps: int = 1) -> HierarchyStats:
    """Reference for :meth:`Kernel.simulate`: the scalar tracer, expanded
    to lines and replayed reference by reference."""
    return run(hierarchy, to_line_trace(kernel_trace(kernel, reps=reps), hierarchy.line))
