"""Instrumented kernel traces: event counts, and analytic-curve validation.

The strongest evidence the analytic profiles are faithful: drive the
exact trace simulator with the *actual* kernel loop nests and check that
the measured reuse behaviour orders and bounds the way each kernel's
ReuseCurve claims.
"""

import math

import pytest

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
from repro.kernels.traces import MAX_EVENTS, kernel_trace_chunks
from repro.sparse import generators
from repro.trace import stack_distances
from tests.oracle import (
    kernel_trace,
    to_line_trace,
    trace_cholesky,
    trace_fft,
    trace_gemm,
    trace_spmv,
    trace_sptrans,
    trace_sptrsv,
    trace_stencil,
    trace_stream,
)


def measured_hit_rate(accesses, capacity_bytes):
    lines = [l for l, _ in to_line_trace(accesses)]
    return stack_distances(lines).hit_rate(capacity_bytes // 64), len(lines)


class TestEventCounts:
    def test_stream_event_count(self):
        events = list(trace_stream(StreamKernel(n=100)))
        assert len(events) == 300  # 2 reads + 1 write per element
        assert sum(e.write for e in events) == 100

    def test_gemm_event_count(self):
        n = 8
        events = list(trace_gemm(GemmKernel(order=n, tile=4)))
        # 2 n^3 A/B reads + n^2 * (n/b) C writes.
        assert len(events) == 2 * n**3 + n * n * (n // 4)

    def test_spmv_event_count(self):
        m = generators.random_uniform(50, 300, seed=1)
        events = list(trace_spmv(SpmvKernel.from_matrix(m)))
        # indptr + y per row, (col + val + x) per nonzero.
        assert len(events) == 2 * m.n_rows + 3 * m.nnz

    def test_dispatcher(self):
        assert len(list(kernel_trace(StreamKernel(n=10)))) == 30
        with pytest.raises(TypeError):
            kernel_trace(object())  # type: ignore[arg-type]
        with pytest.raises(TypeError, match="no tracer for object"):
            kernel_trace_chunks(object())  # type: ignore[arg-type]

    def test_sptrans_event_count(self):
        m = generators.random_uniform(40, 200, seed=4)
        events = list(trace_sptrans(SptransKernel.from_matrix(m)))
        # 2 per nnz (histogram) + 2 per col (scan) + 4 per nnz (scatter).
        assert len(events) == 2 * m.nnz + 2 * m.n_cols + 4 * m.nnz

    def test_sptrans_scatter_writes_column_ordered(self):
        """Output slots must be written in a permutation of 0..nnz-1."""
        m = generators.random_uniform(30, 150, seed=5)
        events = list(trace_sptrans(SptransKernel.from_matrix(m)))
        out_val_writes = [
            e.addr for e in events if e.write and e.size == 8
        ]
        # nnz distinct 8-byte output-value slots, each written once.
        assert len(out_val_writes) == m.nnz
        assert len(set(out_val_writes)) == m.nnz

    def test_fft_event_count(self):
        n = 8
        events = list(trace_fft(FftKernel(size=n)))
        stages = math.ceil(math.log2(n))
        assert len(events) == 3 * stages * n**3 * 2

    def test_fft_pencil_reuse_measurable(self):
        kernel = FftKernel(size=8)
        # A capacity holding a few pencils captures the butterfly sweeps.
        rate, _ = measured_hit_rate(trace_fft(kernel), 16 * 8 * 64)
        assert rate > 0.4

    def test_guard_rejects_huge_traces(self):
        with pytest.raises(ValueError, match="guard"):
            list(trace_gemm(GemmKernel(order=4096, tile=256)))
        with pytest.raises(ValueError, match="guard"):
            kernel_trace_chunks(GemmKernel(order=4096, tile=256))
        assert MAX_EVENTS > 0

    def test_reps_multiply(self):
        one = len(list(trace_stream(StreamKernel(n=50), reps=1)))
        three = len(list(trace_stream(StreamKernel(n=50), reps=3)))
        assert three == 3 * one


class TestTraceValidatesProfiles:
    def test_stream_has_no_sub_footprint_reuse(self):
        """The stream profile claims reuse only at the full footprint."""
        kernel = StreamKernel(n=2000)
        fp = kernel.profile().footprint_bytes
        rate_half, _ = measured_hit_rate(
            trace_stream(kernel, reps=3), fp // 2
        )
        rate_full, _ = measured_hit_rate(trace_stream(kernel, reps=3), fp)
        # Sub-footprint: only spatial (within-line) locality, no temporal.
        spatial = 1.0 - 1.0 / 8.0  # 8 words per line
        assert rate_half <= spatial + 0.02
        assert rate_full > spatial + 0.05  # cross-repetition reuse appears

    def test_gemm_tile_working_set_is_real(self):
        """GEMM's measured hit rate jumps once three tiles fit — the
        knot the analytic curve places at 24 b^2."""
        kernel = GemmKernel(order=48, tile=8)
        curve = kernel.profile().phases[0].reuse
        three_tiles = 3 * 8 * 8 * 8
        below, _ = measured_hit_rate(trace_gemm(kernel), three_tiles // 4)
        at, _ = measured_hit_rate(trace_gemm(kernel), 4 * three_tiles)
        assert at > below
        # The analytic tile-level fraction is conservative w.r.t. the
        # measured one (word-level trace sees line locality too).
        assert at >= curve(4 * three_tiles) - 0.05

    def test_gemm_full_problem_reuse(self):
        kernel = GemmKernel(order=32, tile=8)
        fp = kernel.profile().footprint_bytes
        rate, _ = measured_hit_rate(trace_gemm(kernel, reps=2), 2 * fp)
        assert rate > 0.95  # nearly everything hits once all fits

    def test_spmv_banded_beats_random_at_small_capacity(self):
        """The structure-dependent x-gather locality the SpMV profile
        encodes is measurable in the real traces."""
        banded = SpmvKernel.from_matrix(generators.banded(400, 4000, seed=2))
        rand = SpmvKernel.from_matrix(
            generators.random_uniform(400, 4000, seed=2)
        )
        cap = 2048  # holds the band window, not the whole vector
        rate_banded, _ = measured_hit_rate(trace_spmv(banded), cap)
        rate_rand, _ = measured_hit_rate(trace_spmv(rand), cap)
        assert rate_banded > rate_rand

    def test_sptrsv_trace_respects_dependencies(self):
        """Every x[j] gather happens after x[j] was produced."""
        kernel = SptrsvKernel.from_matrix(
            generators.random_uniform(60, 400, seed=3)
        )
        events = list(trace_sptrsv(kernel))
        # All writes target the x region; b reads live in a separate
        # region above x by layout construction (b follows x).
        writes_sorted = sorted(e.addr for e in events if e.write)
        x_lo, x_hi = writes_sorted[0], writes_sorted[-1] + 8
        seen_writes: set[int] = set()
        for e in events:
            if e.write:
                seen_writes.add(e.addr)
            elif e.size == 8 and x_lo <= e.addr < x_hi:
                assert e.addr in seen_writes, "x gathered before produced"

    def test_stencil_plane_reuse(self):
        """Neighbor reads hit once a few planes fit — the plane knot."""
        kernel = StencilKernel(20, 20, 20)
        plane_bytes = 8 * (2 * 8 + 1) * 20 * 20
        small, _ = measured_hit_rate(trace_stencil(kernel), plane_bytes // 16)
        big, _ = measured_hit_rate(trace_stencil(kernel), 2 * plane_bytes)
        assert big > small
        assert big > 0.9  # the 49-point star is highly reusing

    def test_cholesky_trace_runs(self):
        events = list(trace_cholesky(CholeskyKernel(order=16, tile=8)))
        assert events
        assert any(e.write for e in events)
