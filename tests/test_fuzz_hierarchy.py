"""Fuzz/invariant tests for the trace simulator under arbitrary traces.

Conservation laws that must hold for ANY access stream on ANY platform
shape — the failure-injection counterpart to the targeted hierarchy
tests: random traces, random write mixes, random OPM modes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import for_broadwell, for_knl, hierarchy_allocator
from repro.platforms import McdramMode, broadwell, knl
from tests import oracle

SCALE = 0.001


@st.composite
def traces(draw):
    n = draw(st.integers(1, 600))
    span = draw(st.integers(1, 5000))
    seed = draw(st.integers(0, 10_000))
    write_prob = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, span, size=n)
    writes = rng.random(n) < write_prob
    return [(int(l), bool(w)) for l, w in zip(lines, writes)]


def _check_conservation(stats):
    total = stats.total_accesses
    for lvl in stats:
        assert lvl.hits + lvl.misses == lvl.accesses, lvl.name
        assert 0.0 <= lvl.hit_rate <= 1.0
        assert lvl.accesses <= total
        assert lvl.writebacks >= 0 and lvl.fills >= 0
    # Every reference is serviced exactly once: hits across all levels
    # (DRAM "hits" included) account for every core access.
    serviced = sum(lvl.hits for lvl in stats)
    assert serviced == total


class TestBroadwellFuzz:
    @settings(max_examples=30, deadline=None)
    @given(trace=traces(), edram=st.booleans())
    def test_conservation(self, trace, edram):
        h = for_broadwell(broadwell(), edram=edram, scale=SCALE)
        stats = oracle.run(h, trace)
        _check_conservation(stats)

    @settings(max_examples=15, deadline=None)
    @given(trace=traces())
    def test_edram_never_increases_dram_reads(self, trace):
        on = for_broadwell(broadwell(), edram=True, scale=SCALE)
        off = for_broadwell(broadwell(), edram=False, scale=SCALE)
        s_on = oracle.run(on, trace)
        s_off = oracle.run(off, trace)
        assert s_on["DDR3"].accesses <= s_off["DDR3"].accesses

    @settings(max_examples=15, deadline=None)
    @given(trace=traces(), prefetch=st.sampled_from([None, "next-line", "stride"]))
    def test_prefetch_preserves_conservation(self, trace, prefetch):
        h = for_broadwell(broadwell(), scale=SCALE, prefetch=prefetch)
        stats = oracle.run(h, trace)
        # Prefetch fills add DRAM reads beyond demand: serviced >= total.
        for lvl in stats:
            assert lvl.hits + lvl.misses == lvl.accesses

    @settings(max_examples=10, deadline=None)
    @given(trace=traces())
    def test_reset_restores_clean_state(self, trace):
        h = for_broadwell(broadwell(), scale=SCALE)
        first = oracle.run(h, trace)
        snapshot = [(l.name, l.accesses, l.hits) for l in first]
        h.reset()
        again = oracle.run(h, trace)
        assert [(l.name, l.accesses, l.hits) for l in again] == snapshot


class TestKnlFuzz:
    @settings(max_examples=20, deadline=None)
    @given(
        trace=traces(),
        mode=st.sampled_from(list(McdramMode)),
    )
    def test_conservation_all_modes(self, trace, mode):
        h = for_knl(knl(), mode, scale=SCALE)
        alloc = hierarchy_allocator(h)
        if alloc is not None:
            span_bytes = (max(l for l, _ in trace) + 1) * 64
            try:
                alloc.allocate("fuzz", span_bytes)
            except MemoryError:
                return  # degenerate allocation: nothing to check
        stats = oracle.run(h, trace)
        _check_conservation(stats)

    @settings(max_examples=10, deadline=None)
    @given(trace=traces())
    def test_cache_mode_reduces_ddr_traffic_vs_off(self, trace):
        on = for_knl(knl(), McdramMode.CACHE, scale=SCALE)
        off = for_knl(knl(), McdramMode.OFF, scale=SCALE)
        s_on = oracle.run(on, trace)
        s_off = oracle.run(off, trace)
        assert s_on["DDR4"].accesses <= s_off["DDR4"].accesses
