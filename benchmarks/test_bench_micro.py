"""Microbenchmarks for the substrates themselves.

These track the cost of the pieces the experiment drivers are built from:
the exact cache simulator, stack-distance computation, CSR5 encode/SpMV,
level scheduling, the synthetic collection builder, and the functional
kernels at test scale.
"""

import time

import numpy as np

from repro.kernels import fft_3d, iso3dfd_step, tiled_cholesky, tiled_gemm
from repro.memory import SetAssociativeCache, for_broadwell
from repro.platforms import broadwell
from repro.sparse import build_collection, build_levels, encode, generators, spmv_csr5
from repro.trace import chunk_arrays, stack_distances


def test_bench_cache_simulator(benchmark):
    def run():
        c = SetAssociativeCache(capacity=1 << 16, line=64, ways=8)
        hits = 0
        # 900 lines fit the 1024-line cache: repeats hit after the first
        # sweep (a cyclic working set larger than capacity would LRU-thrash
        # to a 0% hit rate — see TestLruBehavior in tests/test_cache.py).
        for rep in range(8):
            for line in range(900):
                hits += c.access(line)[0]
        return hits

    hits = benchmark(run)
    assert hits > 0


def test_bench_stack_distance(benchmark):
    rng = np.random.default_rng(0)
    trace = rng.integers(0, 4096, size=20_000).tolist()
    profile = benchmark(stack_distances, trace)
    assert profile.n_references == 20_000


def test_bench_stack_distance_ndarray(benchmark):
    # Same trace as above, fed as an ndarray (no list conversion):
    # the vectorized previous-occurrence pass + preloaded Fenwick tree.
    rng = np.random.default_rng(0)
    trace = rng.integers(0, 4096, size=20_000)
    profile = benchmark(stack_distances, trace)
    assert profile.n_references == 20_000


def _triad_trace(n_words, reps):
    """STREAM-triad reference stream: a[i] = b[i] + s*c[i], word grain."""
    base_a, base_b, base_c = 0, 1 << 24, 1 << 25
    i = np.arange(n_words, dtype=np.int64) * 8
    addrs = np.empty(3 * n_words, dtype=np.int64)
    addrs[0::3] = (base_b + i) // 64
    addrs[1::3] = (base_c + i) // 64
    addrs[2::3] = (base_a + i) // 64
    writes = np.zeros(3 * n_words, dtype=bool)
    writes[2::3] = True
    return np.tile(addrs, reps), np.tile(writes, reps)


def _replay_scalar(h, addrs, writes):
    access = h.access
    for a, w in zip(addrs, writes):
        access(a, write=w)


def _replay_batched(h, addrs, writes):
    h.run_batched(chunk_arrays(addrs, writes))


def test_bench_hierarchy_scalar(benchmark):
    # Hierarchy construction happens in the (untimed) setup so the
    # timings — and the CI bench-compare ratio derived from them —
    # measure only the replay loops.
    addrs, writes = _triad_trace(1000, 50)
    alist, wlist = addrs.tolist(), writes.tolist()
    benchmark.pedantic(
        _replay_scalar,
        setup=lambda: ((for_broadwell(broadwell()), alist, wlist), {}),
        rounds=5,
    )


def test_bench_hierarchy_batched(benchmark):
    addrs, writes = _triad_trace(1000, 50)
    benchmark.pedantic(
        _replay_batched,
        setup=lambda: ((for_broadwell(broadwell()), addrs, writes), {}),
        rounds=5,
    )


def test_bench_batched_speedup_at_least_10x():
    """Acceptance gate: the batched fast path is >= 10x the scalar oracle.

    Raised from 3x after the set-bucketed vectorized rewrite of the
    hierarchy chain (measured ~13-17x on this trace). Measured directly
    (min of 3) rather than via the benchmark fixture so the ratio
    compares the same machine state back to back.
    """
    addrs, writes = _triad_trace(1000, 150)
    alist, wlist = addrs.tolist(), writes.tolist()

    def best_of(fn, *args):
        best = float("inf")
        for _ in range(3):
            h = for_broadwell(broadwell())
            t0 = time.perf_counter()
            fn(h, *args)
            best = min(best, time.perf_counter() - t0)
        return best

    scalar = best_of(_replay_scalar, alist, wlist)
    batched = best_of(_replay_batched, addrs, writes)
    speedup = scalar / batched
    print(f"scalar {scalar:.3f}s batched {batched:.3f}s speedup {speedup:.2f}x")
    assert speedup >= 10.0


def test_bench_csr5_encode(benchmark):
    m = generators.random_uniform(2000, 60_000, seed=1)
    c5 = benchmark(encode, m)
    assert c5.nnz == m.nnz


def test_bench_csr5_spmv(benchmark):
    m = generators.random_uniform(2000, 60_000, seed=2)
    c5 = encode(m)
    x = np.random.default_rng(0).random(2000)
    y = benchmark(spmv_csr5, c5, x)
    np.testing.assert_allclose(y, m.to_scipy() @ x, atol=1e-9)


def test_bench_level_schedule(benchmark):
    lower = generators.random_uniform(5000, 80_000, seed=3).lower_triangle()
    sched = benchmark(build_levels, lower)
    assert sched.n_rows == 5000


def test_bench_collection_builder(benchmark):
    coll = benchmark(build_collection, 968)
    assert len(coll) == 968


def test_bench_tiled_gemm(benchmark):
    rng = np.random.default_rng(4)
    a = rng.standard_normal((256, 256))
    b = rng.standard_normal((256, 256))
    out = benchmark(tiled_gemm, a, b, tile=64)
    assert out.shape == (256, 256)


def test_bench_tiled_cholesky(benchmark):
    rng = np.random.default_rng(5)
    m = rng.standard_normal((192, 192))
    a = m @ m.T + 192 * np.eye(192)
    l = benchmark(tiled_cholesky, a, tile=48)
    assert np.allclose(np.triu(l, 1), 0)


def test_bench_fft_3d(benchmark):
    rng = np.random.default_rng(6)
    cube = rng.standard_normal((24, 24, 24)) + 0j
    out = benchmark(fft_3d, cube)
    assert out.shape == cube.shape


def test_bench_stencil_step(benchmark):
    rng = np.random.default_rng(7)
    shape = (48, 48, 48)
    prev = rng.standard_normal(shape)
    curr = rng.standard_normal(shape)
    vel = rng.random(shape) * 0.1
    out = benchmark(iso3dfd_step, prev, curr, vel)
    assert out.shape == shape
