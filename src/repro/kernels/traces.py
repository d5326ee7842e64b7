"""Instrumented kernels: cache-line access traces from the real algorithms.

DESIGN.md Section 2 promises that kernels "can emit cache-line traces for
small problems to drive the trace simulator". This module walks the same
loop nests as the functional implementations — the ground-truth input for
validating each kernel's analytic :class:`ReuseCurve` against the exact
simulator (``tests/test_kernel_traces.py``).

Traces are meant for *small* configurations (the tracers guard against
accidentally emitting billions of events). Array placement mirrors the
profile's ``arrays`` dict: consecutive page-aligned regions.

All eight paper kernels construct their per-repetition reference order
directly as numpy arrays (the level-scheduled solvers build theirs from
the schedule's stable row order), and :func:`kernel_trace_chunks` hands
them to the simulator as ``(line_addrs, writes)`` chunks. The loop-nest
twins in ``tests/oracle.py`` pin this order event for event
(``tests/test_trace_batch.py``).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro import telemetry
from repro.kernels.base import Kernel
from repro.kernels.cholesky import CholeskyKernel
from repro.kernels.fft import FftKernel
from repro.kernels.gemm import GemmKernel
from repro.kernels.spmv import SpmvKernel
from repro.kernels.sptrans import SptransKernel
from repro.kernels.sptrsv import SptrsvKernel
from repro.kernels.stencil import RADIUS, StencilKernel
from repro.kernels.stream import StreamKernel
from repro.platforms.spec import LINE_BYTES
from repro.sparse.levels import build_levels
from repro.telemetry import names as tm
from repro.trace.batch import CHUNK, chunk_arrays, expand_lines

PAGE = 4096
WORD = 8

#: Guard: refuse traces that would exceed this many events.
MAX_EVENTS = 50_000_000


def _layout(sizes: dict[str, int]) -> dict[str, int]:
    """Page-aligned consecutive base addresses for named arrays."""
    bases = {}
    cursor = PAGE
    for name, size in sizes.items():
        bases[name] = cursor
        cursor += -(-size // PAGE) * PAGE
    return bases


def _guard(n_events: int, label: str) -> None:
    if n_events > MAX_EVENTS:
        raise ValueError(
            f"{label}: ~{n_events:.3g} events exceed the trace guard "
            f"({MAX_EVENTS}); use the analytic profile for this size"
        )


# -- tracers ------------------------------------------------------------------
#
# Each tracer returns one repetition's byte-granular reference stream as
# (addrs, sizes, writes) arrays in loop-nest order; ``sizes`` may be a
# scalar when every access is the same width.


def _array_stream(kernel: StreamKernel, reps: int):
    """TRIAD: read b[i], read c[i], write a[i]."""
    n = kernel.n
    _guard(3 * n * reps, "stream")
    base = _layout({"a": n * WORD, "b": n * WORD, "c": n * WORD})
    i = np.arange(n, dtype=np.int64) * WORD
    addrs = np.empty(3 * n, dtype=np.int64)
    addrs[0::3] = base["b"] + i
    addrs[1::3] = base["c"] + i
    addrs[2::3] = base["a"] + i
    writes = np.zeros(3 * n, dtype=bool)
    writes[2::3] = True
    return addrs, WORD, writes


def _array_gemm(kernel: GemmKernel, reps: int):
    """Tiled GEMM: per (i, j) C tile and k panel, A/B pairs then the C write."""
    n, b = kernel.order, min(kernel.tile, kernel.order)
    _guard(2 * n**3 * reps, "gemm")
    fp = n * n * WORD
    base = _layout({"A": fp, "B": fp, "C": fp})
    seg_a, seg_w = [], []
    for i0 in range(0, n, b):
        ii = np.arange(i0, min(i0 + b, n), dtype=np.int64)
        for j0 in range(0, n, b):
            jj = np.arange(j0, min(j0 + b, n), dtype=np.int64)
            for p0 in range(0, n, b):
                pp = np.arange(p0, min(p0 + b, n), dtype=np.int64)
                bi, bj, bp = len(ii), len(jj), len(pp)
                # Per (i, j): A(i,p),B(p,j) pairs over p, then C(i,j).
                blk = np.empty((bi, bj, 2 * bp + 1), dtype=np.int64)
                a_row = base["A"] + (ii[:, None] * n + pp[None, :]) * WORD
                b_col = base["B"] + (pp[:, None] * n + jj[None, :]) * WORD
                blk[:, :, 0 : 2 * bp : 2] = a_row[:, None, :]
                blk[:, :, 1 : 2 * bp : 2] = np.swapaxes(b_col, 0, 1)[None, :, :]
                blk[:, :, 2 * bp] = base["C"] + (ii[:, None] * n + jj[None, :]) * WORD
                w = np.zeros((bi, bj, 2 * bp + 1), dtype=bool)
                w[:, :, 2 * bp] = True
                seg_a.append(blk.ravel())
                seg_w.append(w.ravel())
    return np.concatenate(seg_a), WORD, np.concatenate(seg_w)


def _array_cholesky(kernel: CholeskyKernel, reps: int):
    """Right-looking tiled Cholesky reference stream (update-dominated)."""
    n, b = kernel.order, min(kernel.tile, kernel.order)
    _guard(n**3 * reps, "cholesky")
    a0 = _layout({"A": n * n * WORD})["A"]
    seg_a, seg_w = [], []
    for k0 in range(0, n, b):
        k1 = min(k0 + b, n)
        pp = np.arange(k0, k1, dtype=np.int64)
        bp = len(pp)
        # POTRF: row-major lower triangle of the diagonal tile, all writes.
        ti, tj = np.tril_indices(k1 - k0)
        seg_a.append(a0 + ((k0 + ti) * n + (k0 + tj)) * WORD)
        seg_w.append(np.ones(ti.size, dtype=bool))
        for i0 in range(k1, n, b):
            i1 = min(i0 + b, n)
            ii = np.arange(i0, i1, dtype=np.int64)
            bi = len(ii)
            # TRSM panel: every (i, p) written, row-major.
            a_rows = a0 + (ii[:, None] * n + pp[None, :]) * WORD
            seg_a.append(a_rows.ravel())
            seg_w.append(np.ones(a_rows.size, dtype=bool))
            # SYRK/GEMM trailing update: per (i, j) the A(i,p),A(j,p)
            # pairs over p, then the C-position write — gemm's block
            # shape with both operands drawn from the same panel.
            for j0 in range(k1, i1, b):
                j1 = min(j0 + b, i1)
                jj = np.arange(j0, j1, dtype=np.int64)
                bj = len(jj)
                b_rows = a0 + (jj[:, None] * n + pp[None, :]) * WORD
                blk = np.empty((bi, bj, 2 * bp + 1), dtype=np.int64)
                blk[:, :, 0 : 2 * bp : 2] = a_rows[:, None, :]
                blk[:, :, 1 : 2 * bp : 2] = b_rows[None, :, :]
                blk[:, :, 2 * bp] = a0 + (ii[:, None] * n + jj[None, :]) * WORD
                w = np.zeros((bi, bj, 2 * bp + 1), dtype=bool)
                w[:, :, 2 * bp] = True
                seg_a.append(blk.ravel())
                seg_w.append(w.ravel())
    return np.concatenate(seg_a), WORD, np.concatenate(seg_w)


def _array_sptrsv(kernel: SptrsvKernel, reps: int):
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
    indptr = np.asarray(lower.indptr, dtype=np.int64)
    indices = np.asarray(lower.indices, dtype=np.int64)
    # Concatenating rows_in_level(0..n_levels) is exactly the stable
    # level-sorted row order the scheduler stores.
    perm = np.asarray(schedule.order, dtype=np.int64)
    n_rows = perm.shape[0]
    row_nnz = indptr[perm + 1] - indptr[perm]
    total_nnz = int(row_nnz.sum())
    nnz_starts = np.cumsum(row_nnz) - row_nnz
    if total_nnz:
        row_of = np.repeat(np.arange(n_rows, dtype=np.int64), row_nnz)
        pos = np.arange(total_nnz, dtype=np.int64) - np.repeat(nnz_starts, row_nnz)
        k = np.repeat(indptr[perm], row_nnz) + pos
        j = indices[k]
        lt = j < np.repeat(perm, row_nnz)  # strictly-lower: gathers x[j]
        lt_per_row = np.bincount(row_of[lt], minlength=n_rows)
    else:
        row_of = k = j = np.empty(0, dtype=np.int64)
        lt = np.empty(0, dtype=bool)
        lt_per_row = np.zeros(n_rows, dtype=np.int64)
    # Per row in level order: indptr read, (cols, vals[, x-gather]) per
    # nonzero, b read, x write.
    counts = 3 + 2 * row_nnz + lt_per_row
    total = int(counts.sum())
    starts = np.cumsum(counts) - counts
    addrs = np.empty(total, dtype=np.int64)
    sizes = np.full(total, WORD, dtype=np.int64)
    writes = np.zeros(total, dtype=bool)
    addrs[starts] = base["indptr"] + perm * 4
    sizes[starts] = 4
    ends = starts + counts
    addrs[ends - 2] = base["b"] + perm * WORD
    addrs[ends - 1] = base["x"] + perm * WORD
    writes[ends - 1] = True
    if total_nnz:
        # Event offset of each nonzero within its row's run: the global
        # event prefix minus the prefix at the row's first nonzero.
        ev_per_nnz = 2 + lt
        cum_ev = np.cumsum(ev_per_nnz) - ev_per_nnz
        nonempty = row_nnz > 0
        within = cum_ev - np.repeat(cum_ev[nnz_starts[nonempty]], row_nnz[nonempty])
        t0 = starts[row_of] + 1 + within
        addrs[t0] = base["cols"] + k * 4
        sizes[t0] = 4
        addrs[t0 + 1] = base["vals"] + k * WORD
        addrs[t0[lt] + 2] = base["x"] + j[lt] * WORD
    return addrs, sizes, writes


def _array_spmv(kernel: SpmvKernel, reps: int):
    """CSR SpMV: stream row pointers, values, column ids; gather x."""
    matrix = kernel.matrix if kernel.matrix is not None else kernel.descriptor.materialize()
    _guard(4 * matrix.nnz * reps, "spmv")
    n_rows, nnz = matrix.n_rows, matrix.nnz
    base = _layout(
        {
            "vals": nnz * WORD,
            "cols": nnz * 4,
            "indptr": (n_rows + 1) * 4,
            "x": matrix.n_cols * WORD,
            "y": n_rows * WORD,
        }
    )
    indptr = np.asarray(matrix.indptr, dtype=np.int64)
    indices = np.asarray(matrix.indices, dtype=np.int64)
    row_nnz = np.diff(indptr)
    # Per row: indptr read, (cols, vals, x) per nonzero, y write.
    counts = 3 * row_nnz + 2
    total = int(counts.sum())
    starts = np.cumsum(counts) - counts
    rows = np.arange(n_rows, dtype=np.int64)
    addrs = np.empty(total, dtype=np.int64)
    sizes = np.full(total, WORD, dtype=np.int64)
    writes = np.zeros(total, dtype=bool)
    addrs[starts] = base["indptr"] + rows * 4
    sizes[starts] = 4
    ends = starts + counts - 1
    addrs[ends] = base["y"] + rows * WORD
    writes[ends] = True
    if nnz:
        row_of = np.repeat(rows, row_nnz)
        pos = np.arange(nnz, dtype=np.int64) - np.repeat(indptr[:-1], row_nnz)
        t0 = starts[row_of] + 1 + 3 * pos
        k = np.arange(nnz, dtype=np.int64)
        addrs[t0] = base["cols"] + k * 4
        sizes[t0] = 4
        addrs[t0 + 1] = base["vals"] + k * WORD
        addrs[t0 + 2] = base["x"] + indices * WORD
    return addrs, sizes, writes


def _array_sptrans(kernel: SptransKernel, reps: int):
    """ScanTrans passes: histogram, scan, scatter (column-ordered writes)."""
    matrix = kernel.matrix if kernel.matrix is not None else kernel.descriptor.materialize()
    _guard(6 * matrix.nnz * reps, "sptrans")
    n_cols, nnz = matrix.n_cols, matrix.nnz
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
    indices = np.asarray(matrix.indices, dtype=np.int64)
    order = np.argsort(indices, kind="stable")
    slot_of = np.empty(nnz, dtype=np.int64)
    slot_of[order] = np.arange(nnz)
    k = np.arange(nnz, dtype=np.int64)
    j = np.arange(n_cols, dtype=np.int64)
    # Pass 1: in_cols read / counts write per nonzero.
    p1 = np.empty(2 * nnz, dtype=np.int64)
    p1[0::2] = base["in_cols"] + k * 4
    p1[1::2] = base["counts"] + indices * 4
    s1 = np.full(2 * nnz, 4, dtype=np.int64)
    w1 = np.zeros(2 * nnz, dtype=bool)
    w1[1::2] = True
    # Pass 2: counts read / out_ptr write per column.
    p2 = np.empty(2 * n_cols, dtype=np.int64)
    p2[0::2] = base["counts"] + j * 4
    p2[1::2] = base["out_ptr"] + j * 4
    s2 = np.full(2 * n_cols, 4, dtype=np.int64)
    w2 = np.zeros(2 * n_cols, dtype=bool)
    w2[1::2] = True
    # Pass 3: in_cols, in_vals reads; out_vals, out_rows scatter writes.
    p3 = np.empty(4 * nnz, dtype=np.int64)
    p3[0::4] = base["in_cols"] + k * 4
    p3[1::4] = base["in_vals"] + k * WORD
    p3[2::4] = base["out_vals"] + slot_of * WORD
    p3[3::4] = base["out_rows"] + slot_of * 4
    s3 = np.full(4 * nnz, WORD, dtype=np.int64)
    s3[0::4] = 4
    s3[3::4] = 4
    w3 = np.zeros(4 * nnz, dtype=bool)
    w3[2::4] = True
    w3[3::4] = True
    return (
        np.concatenate((p1, p2, p3)),
        np.concatenate((s1, s2, s3)),
        np.concatenate((w1, w2, w3)),
    )


def _array_stencil(kernel: StencilKernel, reps: int):
    """iso3dfd sweeps: star-neighbor reads, prev and vel reads, write."""
    nx, ny, nz = kernel.nx, kernel.ny, kernel.nz
    cells_n = nx * ny * nz
    _guard((6 * RADIUS + 4) * cells_n * kernel.steps * reps, "stencil")
    grid_bytes = cells_n * WORD
    base = _layout({"prev": grid_bytes, "curr": grid_bytes, "vel": grid_bytes})
    r = RADIUS
    di, dj, dk = ny * nz * WORD, nz * WORD, WORD
    # Byte offsets of one cell's event run, relative to curr[i,j,k]:
    # center read, 6 neighbors per radius step, prev, vel, center write.
    offs = [0]
    for t in range(1, r + 1):
        offs += [t * di, -t * di, t * dj, -t * dj, t * dk, -t * dk]
    offs += [base["prev"] - base["curr"], base["vel"] - base["curr"], 0]
    offsets = np.array(offs, dtype=np.int64)
    wpat = np.zeros(len(offs), dtype=bool)
    wpat[-1] = True
    ii = np.arange(r, nx - r, dtype=np.int64)
    jj = np.arange(r, ny - r, dtype=np.int64)
    kk = np.arange(r, nz - r, dtype=np.int64)
    cells = (
        base["curr"]
        + ((ii[:, None, None] * ny + jj[None, :, None]) * nz + kk[None, None, :]).ravel()
        * WORD
    )
    sweep = (cells[:, None] + offsets[None, :]).ravel()
    sweep_w = np.tile(wpat, len(cells))
    return np.tile(sweep, kernel.steps), WORD, np.tile(sweep_w, kernel.steps)


def _array_fft(kernel: FftKernel, reps: int):
    """3-D FFT: ``ceil(log2 n)`` read/write sweeps per axis (Y, X, Z) of pencils."""
    import math

    n = kernel.size
    stages = max(1, math.ceil(math.log2(n)))
    _guard(3 * 2 * n**3 * stages * reps, "fft")
    cbytes = 16
    base = _layout({"cube": n**3 * cbytes})
    a = np.arange(n, dtype=np.int64)
    seg_a, seg_w = [], []
    # (a, b, c) loop coefficients realizing the Y, X, Z pass index maps
    # of the pencil walk: idx = a*ca + b*cb + c*cc.
    for ca, cb, cc in ((n * n, 1, n), (n, 1, n * n), (n * n, n, 1)):
        idx = (
            a[:, None, None] * ca + a[None, :, None] * cb + a[None, None, :] * cc
        ).ravel()
        pts = base["cube"] + idx * cbytes
        pair = np.repeat(pts, 2)  # read then write of the same point
        w = np.zeros(pair.size, dtype=bool)
        w[1::2] = True
        for _ in range(stages):
            seg_a.append(pair)
            seg_w.append(w)
    return np.concatenate(seg_a), cbytes, np.concatenate(seg_w)


_ARRAY_TRACERS = {
    StreamKernel: _array_stream,
    GemmKernel: _array_gemm,
    CholeskyKernel: _array_cholesky,
    SpmvKernel: _array_spmv,
    SptransKernel: _array_sptrans,
    SptrsvKernel: _array_sptrsv,
    StencilKernel: _array_stencil,
    FftKernel: _array_fft,
}


def kernel_trace_chunks(
    kernel: Kernel,
    *,
    reps: int = 1,
    line: int = LINE_BYTES,
    chunk: int = CHUNK,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Line-address chunks of ``kernel``'s trace.

    Yields ``(line_addrs, writes)`` ndarray pairs: one repetition is
    built vectorized, expanded to lines once, and replayed ``reps``
    times. Raises ``TypeError`` for a kernel type without a tracer.
    """
    build = next(
        (fn for cls, fn in _ARRAY_TRACERS.items() if isinstance(kernel, cls)), None
    )
    if build is None:
        raise TypeError(f"no tracer for {type(kernel).__name__}")
    with telemetry.span(tm.SPAN_KERNEL_TRACE, kernel=kernel.name, reps=reps) as sp:
        addrs, sizes, writes = build(kernel, reps)
        la, lw = expand_lines(addrs, sizes, writes, line)
        n = int(la.size) * reps
        sp.set_attr("events", n)
        telemetry.counter(tm.kernel_trace_events(kernel.name)).inc(n)

    def replay() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for _ in range(reps):
            yield from chunk_arrays(la, lw, chunk)

    return replay()
