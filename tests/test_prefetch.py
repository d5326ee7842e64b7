"""Prefetcher models and their integration with the hierarchy."""

import pytest

from repro.memory import SetAssociativeCache, for_broadwell
from repro.memory.prefetch import NextLinePrefetcher, StridePrefetcher
from repro.platforms import broadwell
from repro.trace import expand_lines, sequential_array, strided_array, uniform_random_array


def _lines(trace):
    """Line-address chunk of a generator's (byte_addrs, writes) word trace."""
    addrs, writes = trace
    return [expand_lines(addrs, 8, writes)]


class TestNextLine:
    def _cache(self):
        return SetAssociativeCache(64 * 64, line=64, ways=8)

    def test_sequential_accuracy(self):
        cache = self._cache()
        pf = NextLinePrefetcher(cache, degree=2)
        for line in range(100):
            pf.observe(line)
        assert pf.stats.accuracy > 0.9

    def test_prefetch_lands_in_cache(self):
        cache = self._cache()
        pf = NextLinePrefetcher(cache, degree=1)
        pf.observe(10)
        assert 11 in cache

    def test_random_stream_low_usefulness(self):
        cache = self._cache()
        pf = NextLinePrefetcher(cache, degree=2)
        import numpy as np

        rng = np.random.default_rng(0)
        for line in rng.integers(0, 100_000, size=400):
            pf.observe(int(line))
        assert pf.stats.accuracy < 0.2

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            NextLinePrefetcher(self._cache(), degree=0)


class TestStride:
    def _cache(self):
        return SetAssociativeCache(64 * 128, line=64, ways=8)

    def test_detects_large_stride(self):
        cache = self._cache()
        pf = StridePrefetcher(cache, degree=2, confirm=2)
        for i in range(40):
            pf.observe(i * 7)  # 7-line stride: next-line would miss this
        assert pf.stats.accuracy > 0.8

    def test_no_issue_before_confirmation(self):
        cache = self._cache()
        pf = StridePrefetcher(cache, degree=2, confirm=3)
        assert pf.observe(0) == []
        assert pf.observe(7) == []  # streak 1
        assert pf.observe(14) == []  # streak 2 < confirm
        assert pf.observe(21) != []  # streak 3: issue

    def test_stride_change_resets(self):
        cache = self._cache()
        pf = StridePrefetcher(cache, degree=1, confirm=2)
        for i in range(10):
            pf.observe(i * 3)
        pf.observe(1000)  # break the pattern
        assert pf.observe(2000) == []  # new stride, not yet confirmed

    def test_negative_targets_skipped(self):
        cache = self._cache()
        pf = StridePrefetcher(cache, degree=4, confirm=1)
        pf.observe(10)
        pf.observe(7)
        issued = pf.observe(4)  # stride -3 confirmed; 4-12 < 0 skipped
        assert all(t >= 0 for t in issued)

    def test_validation(self):
        with pytest.raises(ValueError):
            StridePrefetcher(self._cache(), degree=0)
        with pytest.raises(ValueError):
            StridePrefetcher(self._cache(), confirm=0)


class TestHierarchyIntegration:
    def test_next_line_raises_llc_hit_rate_on_stream(self):
        machine = broadwell()
        base = for_broadwell(machine, scale=0.001)
        with_pf = for_broadwell(machine, scale=0.001, prefetch="next-line")
        trace = _lines(sequential_array(0, 20_000))
        s_base = base.run_batched(trace)
        s_pf = with_pf.run_batched(trace)
        assert s_pf["L3"].hit_rate > s_base["L3"].hit_rate + 0.5

    def test_stride_prefetcher_covers_strided_scan(self):
        machine = broadwell()
        nl = for_broadwell(machine, scale=0.001, prefetch="next-line")
        st = for_broadwell(machine, scale=0.001, prefetch="stride")
        trace = _lines(strided_array(0, 5_000, 64 * 5))  # 5-line stride
        s_nl = nl.run_batched(trace)
        s_st = st.run_batched(trace)
        assert s_st["L3"].hit_rate > s_nl["L3"].hit_rate + 0.3

    def test_prefetch_traffic_accounted(self):
        """Prefetching must not fabricate free hits: DRAM traffic stays."""
        machine = broadwell()
        base = for_broadwell(machine, scale=0.001)
        with_pf = for_broadwell(machine, scale=0.001, prefetch="next-line")
        trace = _lines(sequential_array(0, 20_000))
        s_base = base.run_batched(trace)
        s_pf = with_pf.run_batched(trace)
        # Total DRAM reads with prefetching >= demand-only DRAM reads.
        assert s_pf["DDR3"].accesses >= s_base["DDR3"].accesses * 0.95

    def test_useless_on_random(self):
        machine = broadwell()
        with_pf = for_broadwell(machine, scale=0.001, prefetch="next-line")
        base = for_broadwell(machine, scale=0.001)
        trace = _lines(uniform_random_array(0, 500_000, 20_000, seed=1))
        s_pf = with_pf.run_batched(trace)
        s_base = base.run_batched(trace)
        # No useful coverage, but extra DRAM traffic from bad prefetches.
        assert s_pf["L3"].hit_rate < s_base["L3"].hit_rate + 0.05
        assert s_pf["DDR3"].accesses > s_base["DDR3"].accesses

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            for_broadwell(broadwell(), scale=0.001, prefetch="oracle")


class TestEvictionRegressions:
    """Regressions for the dropped-victim and stale-outstanding bugs."""

    def test_displaced_dirty_victim_reaches_sink(self):
        # One-set cache: 8 lines, 8 ways. Fill it with dirty residents,
        # then a prefetch fill must displace one and forward it — not
        # silently drop the dirty line.
        cache = SetAssociativeCache(64 * 8, line=64, ways=8)
        for line in range(8):
            cache.insert(line, dirty=True)
        pf = NextLinePrefetcher(cache, degree=1)
        sunk = []
        pf.on_evict = sunk.append
        pf.observe(100)  # prefetches 101, displacing the LRU resident
        assert len(sunk) == 1
        assert sunk[0].dirty
        assert sunk[0].line == 0

    def test_displaced_untouched_prefetch_leaves_outstanding(self):
        cache = SetAssociativeCache(64 * 8, line=64, ways=8)
        pf = NextLinePrefetcher(cache, degree=1)
        # Issue 8 prefetches to fill the set, then one more: the ninth
        # displaces the first (never demanded), which must leave the
        # outstanding set rather than linger as a phantom pending hit.
        for line in range(0, 16, 2):
            pf.observe(line)
        assert 1 in pf._outstanding
        pf.observe(16)  # prefetch 17 displaces line 1
        assert 1 not in pf._outstanding

    def test_line_evicted_prunes_outstanding(self):
        cache = SetAssociativeCache(64 * 64, line=64, ways=8)
        pf = NextLinePrefetcher(cache, degree=1)
        pf.observe(10)
        assert 11 in pf._outstanding
        pf.line_evicted(11)
        assert 11 not in pf._outstanding
        # A later demand on the evicted prefetch must score as wasted.
        pf._record_demand(11)
        assert pf.stats.useful == 0

    def test_outstanding_bounded_by_target_capacity(self):
        import numpy as np

        h = for_broadwell(broadwell(), scale=0.001, prefetch="next-line")
        rng = np.random.default_rng(7)
        addrs = rng.integers(0, 50_000, size=30_000).astype(np.int64)
        h.run_batched([(addrs, True)])
        pf = h._prefetcher
        assert len(pf._outstanding) <= pf.cache.capacity // pf.cache.line

    def test_prefetcher_reset(self):
        cache = SetAssociativeCache(64 * 64, line=64, ways=8)
        pf = StridePrefetcher(cache, degree=2, confirm=2)
        for i in range(20):
            pf.observe(i * 3)
        assert pf.stats.issued > 0 and pf._outstanding
        pf.reset()
        assert pf.stats.issued == 0 and pf.stats.useful == 0
        assert not pf._outstanding
        assert pf._last_addr is None and pf._streak == 0

    def test_hierarchy_reset_clears_prefetcher(self):
        h = for_broadwell(broadwell(), scale=0.001, prefetch="stride")
        trace = _lines(strided_array(0, 5_000, 64 * 5))
        h.run_batched(trace)
        assert h._prefetcher.stats.issued > 0
        h.reset()
        assert h._prefetcher.stats.issued == 0
        assert not h._prefetcher._outstanding
