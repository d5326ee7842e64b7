"""Cross-validation: analytic hit-rate model vs the exact trace simulator.

DESIGN.md Section 2 promises the two simulation granularities agree on
canonical access patterns; these tests enforce it. The analytic model
evaluates a ReuseCurve at cumulative capacities; the trace simulator runs
the real set-associative hierarchy. For conflict-free patterns they must
match closely.
"""

import pytest

from repro.kernels.profile import ReuseCurve
from repro.memory import for_broadwell
from repro.platforms import broadwell
from repro.trace import (
    expand_lines,
    repeated_sweep_array,
    stack_distances,
    uniform_random_array,
)

SCALE = 0.001


def scaled_capacities(hierarchy):
    """Cumulative scaled capacities (bytes) of the on-chip cache stages."""
    caps = []
    total = 0
    for stage in hierarchy._stages:
        total += stage.cache.capacity
        caps.append(total)
    return caps


class TestSweepAgreement:
    @pytest.mark.parametrize("n_words", [100, 1500, 6000])
    def test_repeated_sweep_hits_where_curve_predicts(self, n_words):
        """A repeated sweep's steady-state behaviour: all levels with
        capacity >= footprint serve the repeats."""
        machine = broadwell()
        h = for_broadwell(machine, scale=SCALE)
        sweeps = 8
        footprint = n_words * 8
        curve = ReuseCurve([(footprint, 1.0 - 1.0 / sweeps)])
        addrs, writes = repeated_sweep_array(0, n_words, sweeps)
        stats = h.run_batched([expand_lines(addrs, 8, writes)])
        caps = scaled_capacities(h)
        # Cumulative hit fraction up to each level, model vs simulator.
        served = 0
        total = stats.total_accesses
        for stage_stats, cap in zip(stats.levels, caps):
            served += stage_stats.hits
            predicted = curve(cap)
            # Line-granular spatial locality adds ~7/8 hits at L1 that the
            # byte-level curve does not model, so compare at >= semantics:
            # every predicted hit must be realized at or above this level.
            assert served / total >= predicted - 0.05, stage_stats.name

    def test_stack_distance_curve_matches_trace_sim_exactly(self):
        """Building the curve FROM measured stack distances reproduces the
        simulator's cumulative hit rates (fully associative regime)."""
        machine = broadwell()
        h = for_broadwell(machine, scale=SCALE)
        addrs, writes = repeated_sweep_array(0, 3000, 5)
        lines, line_writes = expand_lines(addrs, 8, writes)
        profile = stack_distances(lines)
        stats = h.run_batched([(lines, line_writes)])
        caps = scaled_capacities(h)
        served = 0
        total = stats.total_accesses
        for stage_stats, cap in zip(stats.levels, caps):
            served += stage_stats.hits
            predicted = profile.hit_rate(cap // 64)
            # Sequential sweeps are conflict-free: tight agreement.
            assert served / total == pytest.approx(predicted, abs=0.03), (
                stage_stats.name
            )


class TestRandomAgreement:
    def test_uniform_random_hit_rates(self):
        """Random accesses over a buffer: hit rate at each level matches
        the stack-distance prediction within a conflict tolerance."""
        machine = broadwell()
        h = for_broadwell(machine, scale=SCALE)
        addrs, writes = uniform_random_array(0, 4000, 20000, seed=7)
        lines, line_writes = expand_lines(addrs, 8, writes)
        profile = stack_distances(lines)
        stats = h.run_batched([(lines, line_writes)])
        caps = scaled_capacities(h)
        served = 0
        total = stats.total_accesses
        for stage_stats, cap in zip(stats.levels, caps):
            served += stage_stats.hits
            predicted = profile.hit_rate(cap // 64)
            assert served / total == pytest.approx(predicted, abs=0.08), (
                stage_stats.name
            )
