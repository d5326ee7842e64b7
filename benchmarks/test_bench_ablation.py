"""Ablation benchmarks for the design choices DESIGN.md Section 5 lists.

Each benchmark times the model under one structural knob flipped off and
asserts the mechanism's directional effect, so the cost *and* the purpose
of every modelling choice are pinned.
"""

import pytest

from repro.engine import DEFAULT_KNOBS, estimate
from repro.kernels import FftKernel, GemmKernel, SptrsvKernel, StreamKernel
from repro.platforms import GIB, McdramMode, broadwell, knl
from repro.sparse import from_params


def _sweep(machine, knobs, **estimate_kw):
    out = []
    for logn in range(14, 31, 2):
        p = StreamKernel(n=2**logn).profile()
        out.append(estimate(p, machine, knobs=knobs, **estimate_kw).gflops)
    return out


class TestStraddlePenaltyAblation:
    def test_bench_straddle_on(self, benchmark):
        machine = knl()
        p = StreamKernel(n=(48 * GIB) // 24).profile()
        r = benchmark(estimate, p, machine, mcdram=McdramMode.FLAT)
        assert r.gflops > 0

    def test_straddle_explains_flat_cliff(self):
        machine = knl()
        p = StreamKernel(n=(48 * GIB) // 24).profile()
        ddr = estimate(p, machine, mcdram=McdramMode.OFF).gflops
        with_penalty = estimate(p, machine, mcdram=McdramMode.FLAT).gflops
        without = estimate(
            p,
            machine,
            mcdram=McdramMode.FLAT,
            knobs=DEFAULT_KNOBS.replace(
                flat_straddle_bandwidth_factor=1.0,
                flat_straddle_latency_factor=1.0,
                flat_straddle_cache_factor=1.0,
            ),
        ).gflops
        # The cliff below DDR exists only because of the penalty.
        assert with_penalty < ddr <= without


class TestDirectMapAblation:
    def test_bench_cache_mode(self, benchmark):
        machine = knl()
        p = FftKernel(size=768).profile()
        r = benchmark(estimate, p, machine, mcdram=McdramMode.CACHE)
        assert r.gflops > 0

    def test_conflict_factor_explains_cache_below_flat(self):
        """Paper Section 4.2.1-III: cache mode trails flat mode inside
        capacity because of conflicts + tag checks."""
        machine = knl()
        p = StreamKernel(n=(4 * GIB) // 24).profile()
        cache = estimate(p, machine, mcdram=McdramMode.CACHE).gflops
        flat = estimate(p, machine, mcdram=McdramMode.FLAT).gflops
        assert cache < flat
        ideal = estimate(
            p,
            machine,
            mcdram=McdramMode.CACHE,
            knobs=DEFAULT_KNOBS.replace(
                direct_map_capacity_factor=1.0,
                cache_mode_bandwidth_factor=1.0,
            ),
        ).gflops
        assert ideal == pytest.approx(flat, rel=0.05)


class TestValleyAblation:
    def test_bench_valley_sweep(self, benchmark):
        machine = broadwell()
        vals = benchmark(_sweep, machine, DEFAULT_KNOBS, edram=False)
        assert min(vals) > 0

    def test_valley_creates_non_monotonic_curve(self):
        machine = broadwell()
        with_valley = _sweep(machine, DEFAULT_KNOBS, edram=False)
        smooth = _sweep(
            machine, DEFAULT_KNOBS.replace(valley_enabled=False), edram=False
        )
        def dips(curve):
            return sum(
                1
                for i in range(1, len(curve) - 1)
                if curve[i] < curve[i - 1] and curve[i] < curve[i + 1] * 0.999
            )
        assert dips(with_valley) >= dips(smooth)


class TestVictimCacheAblation:
    def test_bench_victim_model(self, benchmark):
        machine = broadwell()
        p = StreamKernel(n=(100 << 20) // 24).profile()
        r = benchmark(estimate, p, machine, edram=True)
        assert r.gflops > 0

    def test_victim_capacity_advantage(self):
        """Non-inclusive victim eDRAM effectively adds L3's capacity; the
        inclusive ablation fits slightly less."""
        machine = broadwell()
        # Footprint just above the inclusive capacity (128 MB) but below
        # victim capacity (L3 + 128 MB).
        p = StreamKernel(n=(131 << 20) // 24).profile()
        victim = estimate(p, machine, edram=True).gflops
        inclusive = estimate(
            p,
            machine,
            edram=True,
            knobs=DEFAULT_KNOBS.replace(edram_victim=False),
        ).gflops
        assert victim >= inclusive


class TestMlpCapAblation:
    def test_bench_sptrsv(self, benchmark):
        machine = knl()
        d = from_params("x", "banded", 20_000_000, 300_000_000, seed=1)
        p = SptrsvKernel(descriptor=d).profile()
        r = benchmark(estimate, p, machine, mcdram=McdramMode.FLAT)
        assert r.gflops > 0

    def test_mlp_cap_explains_sptrsv_inversion(self):
        """Without the wavefront MLP cap, MCDRAM would win on SpTRSV too
        — the cap is what reproduces the paper's inversion."""
        from repro.kernels import SpmvKernel

        machine = knl()
        d = from_params("x", "banded", 20_000_000, 300_000_000, seed=1)
        trsv = SptrsvKernel(descriptor=d).profile()
        spmv = SpmvKernel(descriptor=d).profile()
        trsv_ratio = (
            estimate(trsv, machine, mcdram=McdramMode.FLAT).gflops
            / estimate(trsv, machine, mcdram=McdramMode.OFF).gflops
        )
        spmv_ratio = (
            estimate(spmv, machine, mcdram=McdramMode.FLAT).gflops
            / estimate(spmv, machine, mcdram=McdramMode.OFF).gflops
        )
        assert trsv_ratio < 1.0 < spmv_ratio


class TestAnalyticVsTraceCost:
    def test_bench_analytic_estimate(self, benchmark):
        machine = broadwell()
        p = GemmKernel(order=8192, tile=256).profile()
        benchmark(estimate, p, machine, edram=True)

    def test_bench_trace_simulation(self, benchmark):
        from repro.memory import for_broadwell
        from repro.trace import expand_lines, repeated_sweep_array

        machine = broadwell()

        def simulate():
            h = for_broadwell(machine, scale=0.001)
            addrs, writes = repeated_sweep_array(0, 5000, 3)
            return h.run_batched([expand_lines(addrs, 8, writes)])

        stats = benchmark(simulate)
        assert stats.total_accesses > 0
