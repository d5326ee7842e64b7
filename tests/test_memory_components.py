"""Victim cache, NUMA allocator, MCDRAM config and cache-line helpers."""

import pytest

from repro.memory import (
    Eviction,
    McdramConfig,
    Node,
    NumaAllocator,
    PAGE,
    VictimCache,
)
from repro.platforms import GIB, McdramMode, mcdram_spec
from repro.platforms.broadwell import edram_spec
from tests.oracle import count_lines, line_of, lines_touched


class TestCacheLine:
    def test_line_of(self):
        assert line_of(0) == 0
        assert line_of(63) == 0
        assert line_of(64) == 1

    def test_lines_touched_spanning(self):
        assert list(lines_touched(60, 8)) == [0, 1]
        assert list(lines_touched(0, 64)) == [0]
        assert list(lines_touched(0, 65)) == [0, 1]

    def test_lines_touched_rejects_zero_size(self):
        with pytest.raises(ValueError):
            lines_touched(0, 0)

    def test_count_lines(self):
        assert count_lines(0) == 0
        assert count_lines(1) == 1
        assert count_lines(64) == 1
        assert count_lines(65) == 2


class TestVictimCache:
    def test_probe_miss(self):
        v = VictimCache(capacity=64 * 16)
        assert v.probe(5) is None

    def test_fill_then_probe_promotes(self):
        v = VictimCache(capacity=64 * 16)
        v.fill(Eviction(line=5, dirty=True))
        assert 5 in v
        # Probe hits, returns dirty bit, and removes (promotion).
        assert v.probe(5) is True
        assert 5 not in v

    def test_fill_displacement(self):
        v = VictimCache(capacity=64 * 2, ways=2)
        v.fill(Eviction(0, False))
        v.fill(Eviction(1, True))
        displaced = v.fill(Eviction(2, False))
        assert displaced is not None
        assert displaced.line == 0

    def test_invalidate(self):
        v = VictimCache(capacity=64 * 8)
        v.fill(Eviction(1, False))
        v.invalidate_all()
        assert len(v) == 0


class TestNumaAllocator:
    def test_prefers_mcdram(self):
        a = NumaAllocator(mcdram_capacity=1 << 20, ddr_capacity=1 << 30)
        r = a.allocate("x", 4096)
        assert r.bytes_on(Node.MCDRAM) == 4096
        assert not r.straddles

    def test_spill_to_ddr(self):
        a = NumaAllocator(mcdram_capacity=2 * PAGE, ddr_capacity=1 << 30)
        r = a.allocate("big", 5 * PAGE)
        assert r.straddles
        assert r.bytes_on(Node.MCDRAM) == 2 * PAGE
        assert r.bytes_on(Node.DDR) == 3 * PAGE
        assert a.any_straddling()

    def test_exhausted_mcdram_goes_ddr(self):
        a = NumaAllocator(mcdram_capacity=PAGE, ddr_capacity=1 << 30)
        a.allocate("first", PAGE)
        r = a.allocate("second", PAGE)
        assert r.bytes_on(Node.DDR) == PAGE
        assert not r.straddles

    def test_no_preference_means_ddr(self):
        a = NumaAllocator(
            mcdram_capacity=1 << 30, ddr_capacity=1 << 30, prefer_mcdram=False
        )
        r = a.allocate("x", PAGE)
        assert r.bytes_on(Node.DDR) == PAGE

    def test_node_of_addresses(self):
        a = NumaAllocator(mcdram_capacity=PAGE, ddr_capacity=1 << 30)
        r = a.allocate("x", 2 * PAGE)
        assert a.node_of(r.base) is Node.MCDRAM
        assert a.node_of(r.base + PAGE) is Node.DDR
        # Unmapped addresses default to DDR.
        assert a.node_of(r.extents[-1].end + 10 * PAGE) is Node.DDR

    def test_region_node_of_offset(self):
        a = NumaAllocator(mcdram_capacity=PAGE, ddr_capacity=1 << 30)
        r = a.allocate("x", 2 * PAGE)
        assert r.node_of(0) is Node.MCDRAM
        assert r.node_of(PAGE) is Node.DDR
        with pytest.raises(IndexError):
            r.node_of(2 * PAGE)

    def test_duplicate_name_rejected(self):
        a = NumaAllocator(mcdram_capacity=PAGE, ddr_capacity=1 << 30)
        a.allocate("x", PAGE)
        with pytest.raises(ValueError):
            a.allocate("x", PAGE)

    def test_ddr_exhaustion_raises(self):
        a = NumaAllocator(mcdram_capacity=0, ddr_capacity=PAGE)
        with pytest.raises(MemoryError):
            a.allocate("too-big", 2 * PAGE)

    def test_allocate_all_and_fraction(self):
        a = NumaAllocator(mcdram_capacity=2 * PAGE, ddr_capacity=1 << 30)
        regions = a.allocate_all({"a": PAGE, "b": PAGE, "c": 2 * PAGE})
        assert set(regions) == {"a", "b", "c"}
        assert a.mcdram_fraction() == pytest.approx(0.5)


class TestMcdramConfig:
    @pytest.mark.parametrize(
        "mode,cache_gib,flat_gib",
        [
            (McdramMode.OFF, 0, 0),
            (McdramMode.CACHE, 16, 0),
            (McdramMode.FLAT, 0, 16),
            (McdramMode.HYBRID, 8, 8),
        ],
    )
    def test_capacity_split(self, mode, cache_gib, flat_gib):
        config = McdramConfig.from_spec(mcdram_spec(), mode)
        assert config.cache_bytes == cache_gib * GIB
        assert config.flat_bytes == flat_gib * GIB
        assert config.total_bytes == (cache_gib + flat_gib) * GIB

    def test_rejects_victim_cache_spec(self):
        with pytest.raises(ValueError):
            McdramConfig.from_spec(edram_spec(), McdramMode.CACHE)

    def test_describe(self):
        text = McdramConfig.from_spec(mcdram_spec(), McdramMode.HYBRID).describe()
        assert "8 GiB" in text
