"""Trace infrastructure: line expansion, generators, stack distances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import (
    expand_lines,
    pointer_chase_array,
    repeated_sweep_array,
    sequential_array,
    stack_distances,
    strided_array,
    tiled_2d_array,
    uniform_random_array,
)


def _pairs(la, lw):
    return list(zip(la.tolist(), lw.tolist()))


class TestAccess:
    """The per-access input checks, enforced at the array boundary."""

    def test_defaults(self):
        assert _pairs(*expand_lines(np.array([64]), 8, False)) == [(1, False)]

    def test_rejects_negative_addr(self):
        with pytest.raises(ValueError, match=r"addrs\[0\] = -1"):
            expand_lines(np.array([-1]), 8, False)

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            expand_lines(np.array([0]), 0, False)

    def test_reads_writes_wrappers(self):
        _, rs = expand_lines(np.array([0, 8]), 8, False)
        _, ws = expand_lines(np.array([16]), 8, True)
        assert not rs.any()
        assert ws.all()


class TestLineExpansion:
    def test_word_accesses_within_line(self):
        addrs, writes = sequential_array(0, 8)
        assert _pairs(*expand_lines(addrs, 8, writes)) == [(0, False)] * 8

    def test_spanning_access(self):
        assert _pairs(*expand_lines(np.array([60]), 8, False)) == [(0, False), (1, False)]

    def test_write_flag_propagates(self):
        assert _pairs(*expand_lines(np.array([0]), 8, True)) == [(0, True)]


class TestGenerators:
    def test_sequential_addresses(self):
        addrs, _ = sequential_array(100, 4)
        assert addrs.tolist() == [100, 108, 116, 124]

    def test_strided(self):
        addrs, _ = strided_array(0, 3, 256)
        assert addrs.tolist() == [0, 256, 512]

    def test_strided_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            strided_array(0, 3, 0)

    def test_repeated_sweep_length(self):
        addrs, writes = repeated_sweep_array(0, 10, 3)
        assert len(addrs) == len(writes) == 30

    def test_tiled_2d_covers_matrix_once(self):
        addrs, _ = tiled_2d_array(0, 6, 6, 2, 3)
        assert len(addrs) == 36
        assert len(set(addrs.tolist())) == 36

    def test_tiled_2d_tile_locality(self):
        # First tile's addresses all fall within the first two rows.
        addrs, _ = tiled_2d_array(0, 4, 4, 2, 2)
        assert set((addrs[:4] // 8).tolist()) == {0, 1, 4, 5}

    def test_tiled_rejects_bad_tile(self):
        with pytest.raises(ValueError):
            tiled_2d_array(0, 4, 4, 0, 2)

    def test_uniform_random_deterministic(self):
        a, _ = uniform_random_array(0, 100, 50, seed=3)
        b, _ = uniform_random_array(0, 100, 50, seed=3)
        assert a.tolist() == b.tolist()

    def test_pointer_chase_deterministic_and_bounded(self):
        addrs, _ = pointer_chase_array(0, 64, 100, seed=1)
        assert len(addrs) == 100
        assert addrs.max() < 64 * 8


def _brute_force_stack_distances(lines):
    """O(N^2) reference: distinct lines since previous access."""
    out = []
    for t, line in enumerate(lines):
        prev = None
        for s in range(t - 1, -1, -1):
            if lines[s] == line:
                prev = s
                break
        if prev is None:
            out.append(-1)
        else:
            out.append(len(set(lines[prev + 1 : t])))
    return out


class TestStackDistances:
    def test_known_trace(self):
        profile = stack_distances([0, 1, 2, 0, 1, 2, 3, 0])
        assert profile.distances.tolist() == [-1, -1, -1, 2, 2, 2, -1, 3]

    def test_cold_count(self):
        profile = stack_distances([5, 5, 5])
        assert profile.n_cold == 1
        assert profile.distances.tolist() == [-1, 0, 0]

    def test_hit_rate_semantics(self):
        # Cyclic sweep of 4 lines: distance 3 for each re-reference.
        profile = stack_distances([0, 1, 2, 3] * 3)
        assert profile.hit_rate(4) == pytest.approx(8 / 12)
        assert profile.hit_rate(3) == 0.0

    def test_cdf_monotone(self):
        profile = stack_distances(list(range(10)) * 3)
        rates = profile.cdf([1, 2, 5, 10, 20])
        assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))

    def test_empty_trace(self):
        profile = stack_distances([])
        assert profile.n_references == 0
        assert profile.hit_rate(10) == 0.0

    def test_histogram_shape(self):
        profile = stack_distances(list(range(64)) * 2)
        counts, edges = profile.histogram(bins=8)
        assert counts.sum() == 64  # one finite distance per re-reference

    @settings(max_examples=40, deadline=None)
    @given(trace=st.lists(st.integers(0, 20), min_size=1, max_size=120))
    def test_matches_brute_force(self, trace):
        fast = stack_distances(trace).distances.tolist()
        assert fast == _brute_force_stack_distances(trace)

    @settings(max_examples=20, deadline=None)
    @given(
        trace=st.lists(st.integers(0, 15), min_size=1, max_size=100),
        capacity=st.integers(1, 16),
    )
    def test_hit_rate_predicts_fully_associative_lru(self, trace, capacity):
        """Stack-distance hit rate == exact fully associative LRU hit rate."""
        from repro.memory.cache import SetAssociativeCache

        cache = SetAssociativeCache(64 * capacity, line=64, ways=capacity)
        assert cache.n_sets == 1
        hits = sum(cache.access(line)[0] for line in trace)
        predicted = stack_distances(trace).hit_rate(capacity)
        assert hits / len(trace) == pytest.approx(predicted)
