"""ndarray trace pipeline: exact equivalence with the scalar oracle.

The ndarray path is only allowed to be fast — never different. Every
layer (line expansion, generators, kernel chunk emitters, the
hierarchy's set-bucketed replay, the stack-distance path) is pinned
differentially against its per-reference twin in ``tests/oracle.py``.
"""

import numpy as np
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
from repro.kernels.traces import kernel_trace_chunks
from repro.memory import for_broadwell, for_knl
from repro.platforms import McdramMode, broadwell, knl
from repro.sparse import generators
from repro.trace import (
    chunk_arrays,
    expand_lines,
    pointer_chase_array,
    repeated_sweep_array,
    sampled_stack_distances,
    sequential_array,
    stack_distances,
    strided_array,
    tiled_2d_array,
    uniform_random_array,
)
from tests import oracle

SCALE = 0.001


def _stats_dict(stats):
    return {lvl.name: lvl.counters() for lvl in stats.levels}


def _random_trace(seed, n=8_000, span=5_000, p_write=0.4):
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, span, size=n).astype(np.int64)
    writes = rng.random(n) < p_write
    return addrs, writes


def kernel_zoo():
    """Small instances of all eight paper kernels."""
    return {
        "stream": StreamKernel(n=1500),
        "gemm": GemmKernel(order=20, tile=8),
        "cholesky": CholeskyKernel(order=20, tile=8),
        "spmv": SpmvKernel.from_matrix(generators.random_uniform(150, 900, seed=1)),
        "sptrans": SptransKernel.from_matrix(
            generators.random_uniform(120, 600, seed=2)
        ),
        "sptrsv": SptrsvKernel.from_matrix(generators.banded(120, 600, seed=3)),
        "stencil": StencilKernel(nx=18, ny=18, nz=18, steps=1),
        "fft": FftKernel(size=8),
    }


class TestExpandLines:
    def test_matches_to_line_trace_word_accesses(self):
        addrs = np.array([0, 8, 64, 120, 4096], dtype=np.int64)
        writes = np.array([False, True, False, True, False])
        accesses = [
            oracle.Access(int(a), size=8, write=bool(w)) for a, w in zip(addrs, writes)
        ]
        expected = list(oracle.to_line_trace(accesses, 64))
        la, lw = expand_lines(addrs, 8, writes, 64)
        assert list(zip(la.tolist(), lw.tolist())) == expected

    def test_straddling_accesses_expand_in_order(self):
        # 8 bytes at 60 cross a 64B boundary; 200 bytes at 100 span 4 lines.
        addrs = np.array([60, 100], dtype=np.int64)
        sizes = np.array([8, 200], dtype=np.int64)
        accesses = [oracle.Access(60, size=8, write=True), oracle.Access(100, size=200)]
        expected = list(oracle.to_line_trace(accesses, 64))
        la, lw = expand_lines(addrs, sizes, np.array([True, False]), 64)
        assert list(zip(la.tolist(), lw.tolist())) == expected
        # Randomized mixed widths at unaligned addresses.
        rng = np.random.default_rng(5)
        addrs = rng.integers(0, 100_000, size=500)
        sizes = rng.choice([4, 8, 16, 100], size=500)
        writes = rng.random(500) < 0.3
        accesses = [
            oracle.Access(int(a), size=int(n), write=bool(w))
            for a, n, w in zip(addrs, sizes, writes)
        ]
        la, lw = expand_lines(addrs, sizes, writes, 64)
        assert list(zip(la.tolist(), lw.tolist())) == list(oracle.to_line_trace(accesses, 64))

    def test_scalar_broadcasts(self):
        la, lw = expand_lines(np.array([0, 64, 128]), 4, True, 64)
        assert la.tolist() == [0, 1, 2]
        assert lw.tolist() == [True, True, True]

    def test_empty(self):
        la, lw = expand_lines(np.empty(0, dtype=np.int64), 8, False, 64)
        assert la.size == 0 and lw.size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            expand_lines(np.zeros((2, 2), dtype=np.int64), 8, False)
        with pytest.raises(ValueError):
            expand_lines(np.array([0, 64]), 0, False)
        with pytest.raises(ValueError, match=r"addrs\[1\] = -8"):
            expand_lines(np.array([0, -8, -16]), 8, False)


class TestChunking:
    def test_chunk_arrays_slices_everything(self):
        addrs = np.arange(1000, dtype=np.int64)
        writes = np.zeros(1000, dtype=bool)
        chunks = list(chunk_arrays(addrs, writes, chunk=300))
        assert [len(c[0]) for c in chunks] == [300, 300, 300, 100]
        assert np.concatenate([c[0] for c in chunks]).tolist() == addrs.tolist()

    def test_validation(self):
        with pytest.raises(ValueError):
            list(chunk_arrays(np.zeros(1, dtype=np.int64), np.zeros(1, bool), 0))


class TestGeneratorArrays:
    """Each ``*_array`` generator replays its scalar twin exactly."""

    CASES = [
        (
            lambda: oracle.sequential(64, 300, word=8, write=True),
            lambda: sequential_array(64, 300, word=8, write=True),
        ),
        (
            lambda: oracle.strided(128, 200, 96),
            lambda: strided_array(128, 200, 96),
        ),
        (
            lambda: oracle.repeated_sweep(0, 150, 4, write=True),
            lambda: repeated_sweep_array(0, 150, 4, write=True),
        ),
        (
            lambda: oracle.tiled_2d(0, 50, 70, 16, 24),
            lambda: tiled_2d_array(0, 50, 70, 16, 24),
        ),
        (
            lambda: oracle.uniform_random(0, 5000, 800, seed=9),
            lambda: uniform_random_array(0, 5000, 800, seed=9),
        ),
        (
            lambda: oracle.pointer_chase(0, 4000, 600, seed=11),
            lambda: pointer_chase_array(0, 4000, 600, seed=11),
        ),
    ]

    @pytest.mark.parametrize("scalar_fn,array_fn", CASES)
    def test_equivalent(self, scalar_fn, array_fn):
        scalar = [(a.addr, a.write) for a in scalar_fn()]
        addrs, writes = array_fn()
        assert list(zip(addrs.tolist(), writes.tolist())) == scalar

    def test_empty_pointer_chase(self):
        addrs, writes = pointer_chase_array(0, 10, 0)
        assert addrs.size == 0 and writes.size == 0


class TestRunArray:
    def test_argument_forms(self):
        addrs = np.array([1, 2, 3, 1, 2, 3], dtype=np.int64)
        for writes in (None, False, True, np.array([True, False] * 3)):
            h = for_broadwell(broadwell(), scale=SCALE)
            stats = h.run_batched([(addrs, writes)])
            assert stats["L1"].accesses == 6

    def test_rejects_bad_input(self):
        h = for_broadwell(broadwell(), scale=SCALE)
        with pytest.raises(ValueError, match="dtype float64"):
            h.run_batched([(np.array([1.5, 2.5]), None)])
        with pytest.raises(ValueError, match="1-D"):
            h.run_batched([(np.zeros((2, 3), dtype=np.int64), None)])
        with pytest.raises(ValueError, match="writes shape"):
            h.run_batched([(np.array([1, 2, 3]), np.array([True]))])

    def test_rejects_negative_addresses(self):
        h = for_broadwell(broadwell(), scale=SCALE)
        with pytest.raises(ValueError, match=r"addrs\[2\] = -7"):
            h.run_batched([(np.array([1, 2, -7, 3], dtype=np.int64), None)])

    def test_rejects_float_writes(self):
        h = for_broadwell(broadwell(), scale=SCALE)
        with pytest.raises(ValueError, match="writes must be bool"):
            h.run_batched([(np.array([1, 2], dtype=np.int64), np.array([0.5, 1.0]))])

    def test_integer_writes_accepted(self):
        h = for_broadwell(broadwell(), scale=SCALE)
        stats = h.run_batched(
            [(np.array([1, 2, 3], dtype=np.int64), np.array([0, 1, 0]))]
        )
        assert stats["L1"].accesses == 3

    def test_run_batched_rejects_bad_chunk(self):
        h = for_broadwell(broadwell(), scale=SCALE)
        chunks = [(np.array([1, 2], dtype=np.int64), None), (np.array([-1]), None)]
        with pytest.raises(ValueError, match="non-negative"):
            h.run_batched(chunks)

    @pytest.mark.parametrize("prefetch", [None, "next-line", "stride"])
    @pytest.mark.parametrize("edram", [True, False])
    def test_broadwell_identical_to_scalar(self, edram, prefetch):
        addrs, writes = _random_trace(21)
        scalar = for_broadwell(broadwell(), edram=edram, scale=SCALE, prefetch=prefetch)
        batched = for_broadwell(broadwell(), edram=edram, scale=SCALE, prefetch=prefetch)
        for a, w in zip(addrs.tolist(), writes.tolist()):
            scalar.access(a, write=w)
        for chunk in chunk_arrays(addrs, writes, chunk=1900):
            batched.run_batched([chunk])
        assert _stats_dict(batched.stats()) == _stats_dict(scalar.stats())

    @pytest.mark.parametrize("mode", list(McdramMode))
    def test_knl_identical_to_scalar(self, mode):
        addrs, writes = _random_trace(22)
        scalar = for_knl(knl(mode), mode, scale=SCALE)
        batched = for_knl(knl(mode), mode, scale=SCALE)
        for a, w in zip(addrs.tolist(), writes.tolist()):
            scalar.access(a, write=w)
        batched.run_batched([(addrs, writes)])
        assert _stats_dict(batched.stats()) == _stats_dict(scalar.stats())

    def test_run_batched_matches_run_array(self):
        """One whole-trace chunk and many small chunks replay alike."""
        addrs, writes = _random_trace(23)
        one = for_broadwell(broadwell(), scale=SCALE)
        many = for_broadwell(broadwell(), scale=SCALE)
        one.run_batched([(addrs, writes)])
        many.run_batched(chunk_arrays(addrs, writes, chunk=777))
        assert _stats_dict(many.stats()) == _stats_dict(one.stats())


class TestKernelTraceChunks:
    """Acceptance: all eight kernel traces replay identically batched."""

    @pytest.mark.parametrize("name", list(kernel_zoo()))
    def test_chunks_equal_scalar_line_trace(self, name):
        kernel = kernel_zoo()[name]
        expected = list(oracle.to_line_trace(oracle.kernel_trace(kernel, reps=2), 64))
        got = []
        for la, lw in kernel_trace_chunks(kernel, reps=2, line=64, chunk=4096):
            got.extend(zip(la.tolist(), lw.tolist()))
        assert got == expected

    @pytest.mark.parametrize("name", list(kernel_zoo()))
    def test_simulate_batched_identical(self, name):
        kernel = kernel_zoo()[name]
        scalar_h = for_broadwell(broadwell(), scale=SCALE)
        batched_h = for_broadwell(broadwell(), scale=SCALE)
        s = oracle.simulate(kernel, scalar_h, reps=2)
        b = kernel.simulate(batched_h, reps=2)
        assert _stats_dict(b) == _stats_dict(s)

    @pytest.mark.parametrize("mode", list(McdramMode))
    @pytest.mark.parametrize("name", list(kernel_zoo()))
    def test_simulate_batched_identical_knl_all_modes(self, name, mode):
        """Full matrix: every kernel, every MCDRAM mode, exact equality."""
        kernel = kernel_zoo()[name]
        scalar_h = for_knl(knl(mode), mode, scale=SCALE)
        batched_h = for_knl(knl(mode), mode, scale=SCALE)
        s = oracle.simulate(kernel, scalar_h, reps=1)
        b = kernel.simulate(batched_h, reps=1)
        assert _stats_dict(b) == _stats_dict(s)

    @pytest.mark.parametrize("prefetch", ["next-line", "stride"])
    @pytest.mark.parametrize("name", list(kernel_zoo()))
    def test_simulate_batched_identical_with_prefetch(self, name, prefetch):
        """Prefetch forces the ndarray replay onto its access()-equivalent
        fallback; the results must still be identical."""
        kernel = kernel_zoo()[name]
        scalar_h = for_broadwell(broadwell(), scale=SCALE, prefetch=prefetch)
        batched_h = for_broadwell(broadwell(), scale=SCALE, prefetch=prefetch)
        s = oracle.simulate(kernel, scalar_h, reps=1)
        b = kernel.simulate(batched_h, reps=1)
        assert _stats_dict(b) == _stats_dict(s)

    @pytest.mark.parametrize("name", list(kernel_zoo()))
    def test_reps_zero_yields_nothing(self, name):
        kernel = kernel_zoo()[name]
        assert list(kernel_trace_chunks(kernel, reps=0)) == []
        assert list(oracle.kernel_trace(kernel, reps=0)) == []


class TestFuzzDifferential:
    """Seeded fuzz: randomized chunk sizes and degenerate shapes must
    stay byte-identical to the scalar oracle (satellite for the
    set-bucketed rewrite — the adaptive block splitter must not leak
    state across arbitrary chunk boundaries)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_chunk_splits(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6000))
        span = int(rng.integers(1, 4000))
        addrs = rng.integers(0, span, size=n).astype(np.int64)
        writes = rng.random(n) < float(rng.random())
        scalar = for_broadwell(broadwell(), scale=SCALE)
        batched = for_broadwell(broadwell(), scale=SCALE)
        for a, w in zip(addrs.tolist(), writes.tolist()):
            scalar.access(a, write=w)

        def chunks():
            pos = 0
            while pos < n:
                size = int(rng.integers(1, 900))
                yield addrs[pos : pos + size], writes[pos : pos + size]
                pos += size
                if rng.random() < 0.2:  # interleave empty chunks
                    yield np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)

        batched.run_batched(chunks())
        assert _stats_dict(batched.stats()) == _stats_dict(scalar.stats())

    @pytest.mark.parametrize("seed", [7, 8])
    @pytest.mark.parametrize("wr", [True, False])
    def test_scalar_bool_writes_broadcast(self, seed, wr):
        rng = np.random.default_rng(seed)
        addrs = rng.integers(0, 2000, size=3000).astype(np.int64)
        scalar = for_broadwell(broadwell(), scale=SCALE)
        batched = for_broadwell(broadwell(), scale=SCALE)
        for a in addrs.tolist():
            scalar.access(a, write=wr)
        batched.run_batched([(addrs, wr)])
        assert _stats_dict(batched.stats()) == _stats_dict(scalar.stats())

    def test_zero_length_only_stream(self):
        h = for_broadwell(broadwell(), scale=SCALE)
        empty = np.empty(0, dtype=np.int64)
        h.run_batched([(empty, None), (empty, np.empty(0, dtype=bool))])
        assert h.stats().total_accesses == 0

    @pytest.mark.parametrize("seed", [11, 12])
    def test_random_chunk_splits_knl(self, seed):
        rng = np.random.default_rng(seed)
        addrs = rng.integers(0, 3000, size=5000).astype(np.int64)
        writes = rng.random(5000) < 0.3
        mode = list(McdramMode)[seed % len(list(McdramMode))]
        scalar = for_knl(knl(mode), mode, scale=SCALE)
        batched = for_knl(knl(mode), mode, scale=SCALE)
        for a, w in zip(addrs.tolist(), writes.tolist()):
            scalar.access(a, write=w)
        sizes = []
        pos = 0
        while pos < 5000:
            s = int(rng.integers(1, 1500))
            sizes.append(s)
            pos += s
        pos = 0
        for s in sizes:
            batched.run_batched([(addrs[pos : pos + s], writes[pos : pos + s])])
            pos += s
        assert _stats_dict(batched.stats()) == _stats_dict(scalar.stats())


class TestStackDistanceNdarray:
    def test_ndarray_equals_list_path(self):
        rng = np.random.default_rng(3)
        arr = rng.integers(0, 400, size=6000)
        assert (
            stack_distances(arr).distances.tolist()
            == oracle.stack_distances(arr.tolist()).distances.tolist()
        )

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            stack_distances(np.zeros((2, 2), dtype=np.int64))

    def test_sampled_ndarray_equals_list_path(self):
        rng = np.random.default_rng(4)
        arr = rng.integers(0, 300, size=10_000)
        a = sampled_stack_distances(arr, window=512, period=3, seed=5)
        b = oracle.sampled_stack_distances(arr.tolist(), window=512, period=3, seed=5)
        assert a.n_windows == b.n_windows
        assert a.censored_fraction == b.censored_fraction
        assert a.profile.distances.tolist() == b.profile.distances.tolist()

    def test_sampled_tail_window_ndarray(self):
        a = sampled_stack_distances(np.array([1, 2, 1]), window=10, period=3)
        assert a.n_windows == 1
