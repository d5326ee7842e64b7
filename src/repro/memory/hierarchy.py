"""Trace-driven memory-hierarchy simulator.

Composes the pieces of :mod:`repro.memory` into the two platform shapes of
the paper:

* Broadwell: L1 -> L2 -> L3 -> [eDRAM victim L4] -> DDR3
* KNL:       L1 -> L2 -> [MCDRAM stage per mode] -> DDR4 / MCDRAM-flat

The simulator is exact (set indexing, LRU, victim promotion, direct-map
conflicts, NUMA placement) and is the ground truth the analytic engine in
:mod:`repro.engine` is validated against. It is meant for small traces;
full-scale sweeps use the analytic model (DESIGN.md Section 2).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro import telemetry
from repro.memory.allocator import Node, NumaAllocator
from repro.memory.cache import Eviction, SetAssociativeCache
from repro.memory.mcdram import McdramConfig
from repro.memory.stats import HierarchyStats, LevelStats
from repro.telemetry import names as tm
from repro.memory.victim import VictimCache
from repro.platforms.spec import MachineSpec
from repro.platforms.tuning import EdramMode, McdramMode


#: Sentinel distinguishing "absent" from a stored dirty flag in the
#: batched inner loop's single-operation set probes.
_MISS = object()

#: Below this many events a level pass skips set classification outright:
#: the np.unique + residency probe would cost more than the plain loop.
_CLASSIFY_MIN = 1024

#: Adaptive sub-block sizing for the batched path. Blocks start small so
#: a cold cache (where classification can't help) pays little overhead,
#: and double on mostly-vectorized blocks so a warm steady state amortizes
#: one classification pass over up to 64Ki references.
_BLOCK_MIN = 4096
_BLOCK_MAX = 1 << 16


class _CacheStage:
    """A standard inclusive-fill cache level with its counters."""

    def __init__(self, name: str, cache: SetAssociativeCache) -> None:
        self.name = name
        self.cache = cache
        self.stats = LevelStats(name=name, line=cache.line)


class Hierarchy:
    """A configured memory hierarchy accepting a line-address trace.

    Use the :func:`for_broadwell` / :func:`for_knl` builders rather than
    constructing directly.
    """

    def __init__(
        self,
        cache_stages: list[_CacheStage],
        *,
        line: int,
        victim: VictimCache | None = None,
        victim_name: str = "eDRAM",
        mcdram_cache: SetAssociativeCache | None = None,
        allocator: NumaAllocator | None = None,
        memory_names: tuple[str, str] = ("DRAM", "MCDRAM-flat"),
        prefetcher: object | None = None,
    ) -> None:
        if not cache_stages:
            raise ValueError("at least one cache stage required")
        self.line = line
        self._stages = cache_stages
        self._victim = victim
        self._victim_stats = (
            LevelStats(name=victim_name, line=line) if victim is not None else None
        )
        self._mcdram_cache = mcdram_cache
        self._mcdram_stats = (
            LevelStats(name="MCDRAM", line=line) if mcdram_cache is not None else None
        )
        self._allocator = allocator
        #: Optional prefetcher (repro.memory.prefetch) observing the core
        #: reference stream and inserting into the deepest on-chip cache
        #: (the last stage), mirroring an LLC-side hardware prefetcher.
        self._prefetcher = prefetcher
        if prefetcher is not None:
            # Victims displaced by prefetch fills take the same path as
            # demand-fill evictions at the target level; without this,
            # dirty LLC lines displaced by prefetches would vanish with
            # no writeback counted.
            prefetcher.on_evict = self._prefetch_displaced
        self._dram_stats = LevelStats(name=memory_names[0], line=line)
        self._flat_stats = (
            LevelStats(name=memory_names[1], line=line) if allocator is not None else None
        )
        # Last counter totals published to the metrics registry, so that
        # repeated run_batched() calls on one hierarchy publish deltas, not
        # ever-growing cumulative sums.
        self._published: dict[str, dict[str, int]] = {}
        # Dirty-flow counter totals at the last reset(): the conservation
        # ledger reports per-epoch deltas while the underlying cache
        # counters stay monotone for telemetry.
        self._ledger_base: dict[str, dict[str, int]] = {}

    # -- simulation --------------------------------------------------------

    def access(self, line_addr: int, *, write: bool = False) -> str:
        """Reference one cache line; returns the servicing level's name.

        The single-reference step: every stage probed through the
        generic walk. :meth:`run_batched` must stay byte-identical to a
        loop of these calls (``tests/test_trace_batch.py`` holds it to
        the replay in ``tests/oracle.py``).
        """
        if self._prefetcher is not None:
            self._prefetch_observe(line_addr)
        return self._walk(0, line_addr, write)

    def run_batched(
        self,
        chunks: Iterable[tuple[np.ndarray, np.ndarray | bool | None]],
    ) -> HierarchyStats:
        """Drive an iterable of ``(addrs, writes)`` ndarray chunks.

        ``addrs`` is a 1-D integer array of line addresses; ``writes`` is
        a matching bool array, a scalar bool applied to every reference,
        or ``None`` (all reads). Chunk generators (``repro.trace.batch``,
        ``repro.kernels.traces.kernel_trace_chunks``) plug in directly and
        one telemetry span covers the whole batch. The simulated
        behaviour — cache contents, eviction order, every counter — is
        byte-identical to feeding the same references through
        :meth:`access` one at a time.
        """
        with telemetry.span(tm.SPAN_HIERARCHY_RUN, line=self.line) as sp:
            total = 0
            for addrs, writes in chunks:
                arr, warr = _coerce_chunk(addrs, writes)
                self._run_chunk(arr, warr)
                total += int(arr.shape[0])
            sp.set_attr("refs", total)
        self._publish_telemetry()
        return self.stats()

    # -- internals ---------------------------------------------------------

    def _walk(self, start: int, line_addr: int, write: bool) -> str:
        """Probe stages ``start`` and below; fill on misses; service."""
        stages = self._stages
        last = len(stages) - 1
        for i in range(start, last + 1):
            stage = stages[i]
            st = stage.stats
            st.accesses += 1
            hit, ev = stage.cache.access(line_addr, write=write)
            if hit:
                st.hits += 1
                return stage.name
            st.misses += 1
            st.fills += 1
            # A clean victim of a non-last stage needs no handling
            # (_handle_eviction would fall straight through); skipping
            # the call is a pure fast-path, not a behaviour change.
            if ev is not None and (ev.dirty or i == last):
                self._handle_eviction(i, ev)
        return self._service_below(line_addr, write)

    def _prefetch_observe(self, line_addr: int) -> None:
        issued = self._prefetcher.observe(line_addr)
        if issued:
            # Prefetch fills are real traffic: they load the target
            # stage from memory (counted as DRAM reads + stage fills).
            self._stages[-1].stats.fills += len(issued)
            self._dram_stats.accesses += len(issued)
            self._dram_stats.hits += len(issued)

    def _prefetch_displaced(self, ev: Eviction) -> None:
        """Sink for victims displaced out of the LLC by prefetch fills."""
        self._handle_eviction(len(self._stages) - 1, ev)

    def _run_chunk(self, addrs: np.ndarray, writes: np.ndarray) -> None:
        # The batched inner loop: set-bucketed, level-by-level replay.
        #
        # Each sub-block makes one pass per cache level over an *event*
        # stream (demand accesses plus dirty-victim inserts bound for
        # that level). A pass classifies the level's sets: a set whose
        # distinct touched lines are all initially resident — and which
        # receives no victim inserts — can only produce hits, so its
        # final LRU order, dirty bits and counters are computed
        # wholesale from NumPy reductions (one dict pop/re-add per
        # *distinct* line instead of one per reference). Only events
        # landing in the remaining "slow" sets run the sequential loop;
        # their miss residue (the access plus any dirty victim, in
        # scalar propagation order) becomes the next level's event
        # stream. This is byte-identical to feeding access() one
        # reference at a time because levels never feed upward: victim
        # promotion only ever inserts into the set that just missed,
        # which is slow by construction.
        n = addrs.shape[0]
        if n == 0:
            return
        if self._prefetcher is not None:
            # Prefetcher runs interleave observe() with every reference;
            # drive them through the same observe+walk sequence as
            # access() (identical by construction). Telemetry stays
            # hoisted to chunk granularity either way.
            observe = self._prefetch_observe
            walk = self._walk
            for addr, w in zip(addrs.tolist(), writes.tolist()):
                observe(addr)
                walk(0, addr, w)
            return
        # Adaptive sub-blocks: grow while the first level resolves
        # (almost) everything vectorized, shrink back the moment it
        # stops — a cold or thrashing phase then pays classification on
        # small blocks only.
        block = _BLOCK_MIN
        start = 0
        while start < n:
            end = start + block
            mostly_fast = self._run_block(addrs[start:end], writes[start:end])
            start = end
            block = min(block * 2, _BLOCK_MAX) if mostly_fast else _BLOCK_MIN

    def _run_block(self, lines: np.ndarray, flags: np.ndarray) -> bool:
        """Replay one sub-block through every level; returns whether the
        first level handled (nearly) all of it on the vectorized path."""
        ins: np.ndarray | None = None
        first_fast = False
        for i in range(len(self._stages)):
            lines, ins, flags, fast = self._level_pass(i, lines, ins, flags)
            if i == 0:
                first_fast = fast
            if lines is None:
                break
        return first_fast

    def _level_pass(
        self,
        i: int,
        lines: np.ndarray,
        ins: np.ndarray | None,
        flags: np.ndarray,
    ) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None, bool]:
        """Drive one level's event stream; return the next level's.

        ``lines`` holds the event line addresses in order; ``ins`` marks
        which events are dirty-victim inserts (None = pure access
        stream); ``flags`` carries the write bit for accesses and the
        dirty bit (always True) for inserts. Returns ``(lines, ins,
        flags, mostly_fast)`` for the next level, with ``lines is None``
        when nothing propagates deeper.
        """
        stage = self._stages[i]
        cache = stage.cache
        sets = cache._sets
        mask = cache.n_sets - 1
        ways = cache.ways
        last = i == len(self._stages) - 1
        st = stage.stats
        n = lines.shape[0]
        fast_ok = False
        if n >= _CLASSIFY_MIN:
            uniq, inv = np.unique(lines, return_inverse=True)
            nu = uniq.shape[0]
            if nu * 4 <= n:
                usets = uniq & mask
                ul = uniq.tolist()
                usl = usets.tolist()
                resident = np.fromiter(
                    (ln in sets[si] for ln, si in zip(ul, usl)),
                    dtype=bool,
                    count=nu,
                )
                # A set is slow if any of its touched lines starts
                # non-resident (a miss will evict there) or if a victim
                # insert targets it (inserts can displace residents).
                slow_sets = np.zeros(cache.n_sets, dtype=bool)
                slow_sets[usets[~resident]] = True
                if ins is not None:
                    slow_sets[lines[ins] & mask] = True
                ev_slow = slow_sets[lines & mask]
                n_slow = int(ev_slow.sum())
                if n_slow * 2 <= n:
                    # Vectorized wholesale update of the all-hit sets.
                    # Scalar LRU leaves untouched residents in front (in
                    # their original order) and touched lines behind
                    # them ordered by *last* touch; one pop/re-add per
                    # distinct line in global last-touch order lands the
                    # exact same dict state. Dirty bit: initial OR any
                    # write; n_dirty_created: first write to an
                    # initially-clean line.
                    n_fast = n - n_slow
                    wmask = flags if ins is None else flags & ~ins
                    wcnt = np.bincount(inv[wmask], minlength=nu)
                    lastpos = np.empty(nu, dtype=np.intp)
                    lastpos[inv] = np.arange(n, dtype=np.intp)
                    fast_u = np.flatnonzero(~slow_sets[usets])
                    order = fast_u[np.argsort(lastpos[fast_u])]
                    wrote = (wcnt > 0).tolist()
                    created_fast = 0
                    for ui in order.tolist():
                        ln = ul[ui]
                        s = sets[usl[ui]]
                        d = s.pop(ln)
                        if wrote[ui] and not d:
                            created_fast += 1
                            d = True
                        s[ln] = d
                    st.accesses += n_fast
                    st.hits += n_fast
                    cache.n_dirty_created += created_fast
                    if n_slow == 0:
                        return None, None, None, True
                    fast_ok = n_slow * 16 <= n
                    keep = np.flatnonzero(ev_slow)
                    lines = lines[keep]
                    flags = flags[keep]
                    if ins is not None:
                        ins = ins[keep]
                        if not ins.any():
                            ins = None
        # Sequential replay of the slow-set events. Four specialized
        # loops (pure-access vs mixed, last vs interior level) keep the
        # hot one lean; all accumulate counters in locals, flushed once.
        handle = self._handle_eviction
        service = self._service_below
        make_ev = Eviction
        miss = _MISS  # sentinel: probe + LRU-pop in one dict operation
        out_lines: list = []
        out_ins: list = []
        out_flags: list = []
        ol_append = out_lines.append
        oi_append = out_ins.append
        of_append = out_flags.append
        hits = created = evs = devs = wb = merged = received = 0
        sl = lines.tolist()
        fl = flags.tolist()
        if ins is None:
            accs = len(sl)
            if last:
                for addr, w in zip(sl, fl):
                    s = sets[addr & mask]
                    was_dirty = s.pop(addr, miss)
                    if was_dirty is not miss:
                        hits += 1
                        if w and not was_dirty:
                            created += 1
                            s[addr] = True
                        else:
                            s[addr] = was_dirty
                        continue
                    ev = None
                    if len(s) >= ways:
                        vl, vd = next(iter(s.items()))
                        del s[vl]
                        evs += 1
                        devs += vd
                        ev = make_ev(vl, vd)
                    s[addr] = w
                    if w:
                        created += 1
                    if ev is not None:
                        handle(i, ev)
                    service(addr, w)
            else:
                for addr, w in zip(sl, fl):
                    s = sets[addr & mask]
                    was_dirty = s.pop(addr, miss)
                    if was_dirty is not miss:
                        hits += 1
                        if w and not was_dirty:
                            created += 1
                            s[addr] = True
                        else:
                            s[addr] = was_dirty
                        continue
                    # Miss: any dirty victim's insert precedes the
                    # access in the next level's stream, exactly as
                    # _handle_eviction runs before the walk descends. A
                    # clean interior victim is dropped (pure fast-path:
                    # _handle_eviction would fall straight through).
                    if len(s) >= ways:
                        vl, vd = next(iter(s.items()))
                        del s[vl]
                        evs += 1
                        if vd:
                            devs += 1
                            wb += 1
                            ol_append(vl)
                            oi_append(True)
                            of_append(True)
                    s[addr] = w
                    if w:
                        created += 1
                    ol_append(addr)
                    oi_append(False)
                    of_append(w)
        else:
            il = ins.tolist()
            accs = len(sl) - int(ins.sum())
            if last:
                for addr, is_ins, fg in zip(sl, il, fl):
                    s = sets[addr & mask]
                    was_dirty = s.pop(addr, miss)
                    if is_ins:
                        if was_dirty is not miss:
                            if was_dirty:
                                merged += 1
                            else:
                                received += 1
                            s[addr] = True
                            continue
                        ev = None
                        if len(s) >= ways:
                            vl, vd = next(iter(s.items()))
                            del s[vl]
                            evs += 1
                            devs += vd
                            ev = make_ev(vl, vd)
                        s[addr] = True
                        received += 1
                        if ev is not None:
                            handle(i, ev)
                        continue
                    if was_dirty is not miss:
                        hits += 1
                        if fg and not was_dirty:
                            created += 1
                            s[addr] = True
                        else:
                            s[addr] = was_dirty
                        continue
                    ev = None
                    if len(s) >= ways:
                        vl, vd = next(iter(s.items()))
                        del s[vl]
                        evs += 1
                        devs += vd
                        ev = make_ev(vl, vd)
                    s[addr] = fg
                    if fg:
                        created += 1
                    if ev is not None:
                        handle(i, ev)
                    service(addr, fg)
            else:
                for addr, is_ins, fg in zip(sl, il, fl):
                    s = sets[addr & mask]
                    was_dirty = s.pop(addr, miss)
                    if is_ins:
                        if was_dirty is not miss:
                            if was_dirty:
                                merged += 1
                            else:
                                received += 1
                            s[addr] = True
                            continue
                        if len(s) >= ways:
                            vl, vd = next(iter(s.items()))
                            del s[vl]
                            evs += 1
                            if vd:
                                devs += 1
                                wb += 1
                                ol_append(vl)
                                oi_append(True)
                                of_append(True)
                        s[addr] = True
                        received += 1
                        continue
                    if was_dirty is not miss:
                        hits += 1
                        if fg and not was_dirty:
                            created += 1
                            s[addr] = True
                        else:
                            s[addr] = was_dirty
                        continue
                    if len(s) >= ways:
                        vl, vd = next(iter(s.items()))
                        del s[vl]
                        evs += 1
                        if vd:
                            devs += 1
                            wb += 1
                            ol_append(vl)
                            oi_append(True)
                            of_append(True)
                    s[addr] = fg
                    if fg:
                        created += 1
                    ol_append(addr)
                    oi_append(False)
                    of_append(fg)
        st.accesses += accs
        st.hits += hits
        misses = accs - hits
        st.misses += misses
        st.fills += misses
        st.writebacks += wb
        cache.n_evictions += evs
        cache.n_dirty_evictions += devs
        cache.n_dirty_created += created
        cache.n_dirty_received += received
        cache.n_dirty_merged += merged
        if last or not out_lines:
            return None, None, None, fast_ok
        nxt_ins = np.array(out_ins, dtype=bool)
        return (
            np.array(out_lines, dtype=np.int64),
            nxt_ins if nxt_ins.any() else None,
            np.array(out_flags, dtype=bool),
            fast_ok,
        )

    def _handle_eviction(self, level_idx: int, ev: Eviction | None) -> None:
        if ev is None:
            return
        stage = self._stages[level_idx]
        is_llc = level_idx == len(self._stages) - 1
        if is_llc and self._prefetcher is not None:
            # An evicted line can no longer redeem an outstanding
            # prefetch; forgetting this inflated accuracy and let the
            # outstanding set grow without bound.
            self._prefetcher.line_evicted(ev.line)
        if is_llc and self._victim is not None:
            # L3 eviction fills the eDRAM victim cache (paper Section 2.1).
            assert self._victim_stats is not None
            displaced = self._victim.fill(ev)
            self._victim_stats.fills += 1
            if displaced is not None and displaced.dirty:
                self._victim_stats.writebacks += 1
                self._dram_stats.writebacks += 1
            return
        if ev.dirty:
            stage.stats.writebacks += 1
            if not is_llc:
                # Propagate dirtiness to the next level's copy (it was
                # installed on the walk down for recently shared lines).
                # The insert itself may displace a victim; that victim
                # takes the same path as a demand-fill eviction at that
                # level — dropping it silently lost dirty writebacks.
                displaced = self._stages[level_idx + 1].cache.insert(
                    ev.line, dirty=True
                )
                self._handle_eviction(level_idx + 1, displaced)
            else:
                self._absorb_llc_writeback(ev)

    def _absorb_llc_writeback(self, ev: Eviction) -> None:
        """Route a dirty LLC eviction toward memory (KNL shapes)."""
        if self._mcdram_cache is not None:
            assert self._mcdram_stats is not None
            if self._cacheable_by_mcdram(ev.line):
                displaced = self._mcdram_cache.insert(ev.line, dirty=True)
                self._mcdram_stats.fills += 1
                if displaced is not None and displaced.dirty:
                    self._mcdram_stats.writebacks += 1
                    self._dram_stats.writebacks += 1
                return
        if self._allocator is not None and self._node_of(ev.line) is Node.MCDRAM:
            assert self._flat_stats is not None
            self._flat_stats.writebacks += 1
        else:
            self._dram_stats.writebacks += 1

    def _node_of(self, line_addr: int) -> Node:
        assert self._allocator is not None
        return self._allocator.node_of(line_addr * self.line)

    def _cacheable_by_mcdram(self, line_addr: int) -> bool:
        """Cache-mode MCDRAM caches only DDR-backed addresses; flat-half
        addresses bypass it (hybrid mode)."""
        if self._allocator is None:
            return True
        return self._node_of(line_addr) is Node.DDR

    def _service_below(self, line_addr: int, write: bool) -> str:
        # Broadwell shape: victim eDRAM, then DDR.
        if self._victim is not None:
            assert self._victim_stats is not None
            self._victim_stats.accesses += 1
            dirty = self._victim.probe(line_addr)
            if dirty is not None:
                self._victim_stats.hits += 1
                if dirty:
                    # Promotion keeps the dirty bit in the LLC copy. The
                    # walk above already installed the line in the LLC,
                    # so this merges in place and displaces nothing; the
                    # displaced-victim routing is defensive.
                    displaced = self._stages[-1].cache.insert(
                        line_addr, dirty=True
                    )
                    self._handle_eviction(len(self._stages) - 1, displaced)
                return self._victim_stats.name
            self._victim_stats.misses += 1
            self._dram_stats.accesses += 1
            self._dram_stats.hits += 1
            return self._dram_stats.name
        # KNL shapes.
        if self._allocator is not None and self._node_of(line_addr) is Node.MCDRAM:
            assert self._flat_stats is not None
            self._flat_stats.accesses += 1
            self._flat_stats.hits += 1
            return self._flat_stats.name
        if self._mcdram_cache is not None and self._cacheable_by_mcdram(line_addr):
            assert self._mcdram_stats is not None
            self._mcdram_stats.accesses += 1
            hit, ev = self._mcdram_cache.access(line_addr, write=write)
            if ev is not None and ev.dirty:
                self._mcdram_stats.writebacks += 1
                self._dram_stats.writebacks += 1
            if hit:
                self._mcdram_stats.hits += 1
                return self._mcdram_stats.name
            self._mcdram_stats.misses += 1
            self._mcdram_stats.fills += 1
            self._dram_stats.accesses += 1
            self._dram_stats.hits += 1
            return self._dram_stats.name
        self._dram_stats.accesses += 1
        self._dram_stats.hits += 1
        return self._dram_stats.name

    def _publish_telemetry(self) -> None:
        """Push per-level and per-cache counter deltas into the registry.

        This unifies :mod:`repro.memory.stats` with the telemetry metrics:
        every ``memory.<level>.<counter>`` name carries the access/hit/
        miss/fill/writeback traffic, and ``memory.<level>.cache.<counter>``
        the replacement traffic of the backing cache structure.
        """
        if not telemetry.enabled():
            return
        for lvl in self.stats().levels:
            self._publish_delta(tm.memory_level_prefix(lvl.name), lvl.name, lvl.counters())
        for stage in self._stages:
            self._publish_delta(
                tm.memory_cache_prefix(stage.name),
                f"cache:{stage.name}",
                stage.cache.telemetry_counters(),
            )

    def _publish_delta(
        self, prefix: str, key: str, totals: dict[str, int]
    ) -> None:
        prev = self._published.get(key, {})
        telemetry.record_counts(
            prefix, {k: v - prev.get(k, 0) for k, v in totals.items()}
        )
        self._published[key] = totals

    # -- results -----------------------------------------------------------

    def stats(self) -> HierarchyStats:
        levels = [s.stats for s in self._stages]
        if self._victim_stats is not None:
            levels.append(self._victim_stats)
        if self._mcdram_stats is not None:
            levels.append(self._mcdram_stats)
        if self._flat_stats is not None:
            levels.append(self._flat_stats)
        levels.append(self._dram_stats)
        return HierarchyStats(levels=levels)

    def reset(self) -> None:
        """Drop cache contents, zero all counters, forget predictor state."""
        for stage in self._stages:
            stage.cache.invalidate_all()
            stage.stats = LevelStats(name=stage.name, line=self.line)
        if self._victim is not None:
            self._victim.invalidate_all()
            self._victim_stats = LevelStats(
                name=self._victim_stats.name, line=self.line  # type: ignore[union-attr]
            )
        if self._mcdram_cache is not None:
            self._mcdram_cache.invalidate_all()
            self._mcdram_stats = LevelStats(name="MCDRAM", line=self.line)
        self._dram_stats = LevelStats(name=self._dram_stats.name, line=self.line)
        if self._flat_stats is not None:
            self._flat_stats = LevelStats(
                name=self._flat_stats.name, line=self.line
            )
        if self._prefetcher is not None:
            # Stale stride/outstanding state from a previous repetition
            # would leak prefetches (and accuracy) into the next one.
            self._prefetcher.reset()
        # Level counters restart at zero; drop their publish baselines
        # (cache replacement counters survive invalidate_all, keep theirs).
        self._published = {
            k: v for k, v in self._published.items() if k.startswith("cache:")
        }
        # Close the previous epoch's dirty-flow books (the invalidations
        # above consumed its resident dirty lines) and start fresh.
        self._ledger_base = {
            name: dict(cache.dirty_flows())
            for name, cache in self._dirty_caches()
        }

    # -- writeback conservation --------------------------------------------

    def _dirty_caches(self) -> list[tuple[str, SetAssociativeCache]]:
        caches = [(s.name, s.cache) for s in self._stages]
        if self._victim is not None:
            assert self._victim_stats is not None
            caches.append((self._victim_stats.name, self._victim.cache))
        if self._mcdram_cache is not None:
            caches.append(("MCDRAM", self._mcdram_cache))
        return caches

    def dirty_ledger(self) -> dict[str, dict[str, int]]:
        """Per-cache dirty-line flow counters for the current epoch.

        An epoch starts at construction or :meth:`reset`; the underlying
        cache counters stay monotone for telemetry, so the ledger
        subtracts the baseline captured at the last reset.
        """
        ledger: dict[str, dict[str, int]] = {}
        for name, cache in self._dirty_caches():
            flows = cache.dirty_flows()
            base = self._ledger_base.get(name)
            if base:
                flows = {k: v - base.get(k, 0) for k, v in flows.items()}
            ledger[name] = flows
        return ledger

    def memory_writebacks(self) -> int:
        """Dirty lines that arrived at memory (DRAM plus flat MCDRAM)."""
        total = self._dram_stats.writebacks
        if self._flat_stats is not None:
            total += self._flat_stats.writebacks
        return total

    def conservation_violations(self) -> list[str]:
        """Audit writeback conservation; an empty list means books close.

        Two laws that must hold for ANY trace on ANY platform shape:

        * per cache: dirty lines created by writes plus dirty lines
          received from above equal those still resident plus those
          evicted dirty, extracted (victim promotion), or invalidated
          (a merge coalesces the *arriving* line — booked as the
          sender's out-flow — without minting a new entry here);
        * across the hierarchy: every dirty line leaving a cache (dirty
          eviction or extraction) arrives somewhere — another cache
          (received/merged) or memory (writebacks counted at DRAM/flat).

        The historical bugs this guards against: dirtiness-propagation
        inserts and prefetch fills displacing dirty victims that were
        silently dropped (lines left a cache and arrived nowhere).
        """
        ledger = self.dirty_ledger()
        violations = []
        for name, f in ledger.items():
            lhs = f["created"] + f["received"]
            rhs = (
                f["resident_dirty"]
                + f["dirty_evictions"]
                + f["extracted"]
                + f["invalidated"]
            )
            if lhs != rhs:
                violations.append(
                    f"{name}: created+received={lhs} != accounted={rhs} ({f})"
                )
        out_flow = sum(
            f["dirty_evictions"] + f["extracted"] for f in ledger.values()
        )
        in_flow = sum(f["received"] + f["merged"] for f in ledger.values())
        mem = self.memory_writebacks()
        if out_flow != in_flow + mem:
            violations.append(
                f"hierarchy: dirty out-flow {out_flow} != "
                f"in-flow {in_flow} + memory writebacks {mem}"
            )
        return violations


def _coerce_chunk(
    addrs: np.ndarray,
    writes: np.ndarray | bool | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Validate and normalize one (addrs, writes) chunk to ndarrays.

    Returns ``(int64 line addresses, bool write mask)``. Everything a
    caller can get wrong is rejected here with a ``ValueError`` naming
    the offending element (mirroring the mmio parser's line-numbered
    errors) so a bad trace fails loudly at the boundary instead of
    corrupting set indexing deep in the replay:

    * 2-D (or 0-D) ``addrs``,
    * non-integer ``addrs`` dtypes (floats truncate silently),
    * negative line addresses (``addr & mask`` would alias a valid set),
    * ``writes`` whose shape does not match ``addrs``,
    * non-bool / non-integer ``writes`` dtypes.
    """
    arr = np.asarray(addrs)
    if arr.ndim != 1:
        raise ValueError(
            f"addrs must be a 1-D array of line addresses, got shape {arr.shape}"
        )
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(
            f"addrs must be integer line addresses, got dtype {arr.dtype}"
        )
    arr = arr.astype(np.int64, copy=False)
    n = arr.shape[0]
    if n and int(arr.min()) < 0:
        first = int(np.flatnonzero(arr < 0)[0])
        raise ValueError(
            f"addrs[{first}] = {int(arr[first])}: "
            "line addresses must be non-negative"
        )
    if writes is None:
        warr = np.zeros(n, dtype=bool)
    elif isinstance(writes, (bool, np.bool_)):
        warr = np.full(n, bool(writes), dtype=bool)
    else:
        warr = np.asarray(writes)
        if warr.shape != arr.shape:
            raise ValueError(
                f"writes shape {warr.shape} does not match addrs {arr.shape}"
            )
        if warr.dtype != np.bool_:
            if not np.issubdtype(warr.dtype, np.integer):
                raise ValueError(
                    f"writes must be bool (or 0/1 integers), got dtype {warr.dtype}"
                )
            warr = warr.astype(bool)
    return arr, warr


# -- builders ---------------------------------------------------------------


def _cache_stages(machine: MachineSpec, *, scale: float = 1.0) -> list[_CacheStage]:
    """Instantiate the on-chip levels of ``machine``.

    ``scale`` shrinks every capacity by a constant factor so that small,
    fast-to-simulate traces exercise the same *ratios* as the real machine
    (a standard scaled-down simulation technique); 1.0 keeps true sizes.
    """
    stages = []
    for lvl in machine.caches:
        assert lvl.capacity is not None
        cap = max(lvl.line * (lvl.ways or 8), int(lvl.capacity * scale))
        cache = SetAssociativeCache(cap, line=lvl.line, ways=lvl.ways or 8)
        stages.append(_CacheStage(lvl.name, cache))
    return stages


def for_broadwell(
    machine: MachineSpec,
    *,
    edram: bool | EdramMode = True,
    scale: float = 1.0,
    prefetch: str | None = None,
) -> Hierarchy:
    """Build the Broadwell-shaped hierarchy (optionally without eDRAM)."""
    if isinstance(edram, EdramMode):
        edram = edram.enabled
    victim = None
    if edram and machine.opm is not None:
        assert machine.opm.capacity is not None
        cap = max(
            machine.opm.line * (machine.opm.ways or 16),
            int(machine.opm.capacity * scale),
        )
        victim = VictimCache(cap, line=machine.opm.line, ways=machine.opm.ways or 16)
    stages = _cache_stages(machine, scale=scale)
    return Hierarchy(
        stages,
        line=machine.dram.line,
        victim=victim,
        victim_name=machine.opm.name if machine.opm else "eDRAM",
        memory_names=(machine.dram.name, "unused"),
        prefetcher=_make_prefetcher(prefetch, stages),
    )


def for_knl(
    machine: MachineSpec,
    mode: McdramMode,
    *,
    allocator: NumaAllocator | None = None,
    scale: float = 1.0,
) -> Hierarchy:
    """Build the KNL-shaped hierarchy for one MCDRAM mode.

    ``allocator`` carries flat/hybrid placements; when omitted one is
    created with the mode's flat capacity (callers then allocate arrays
    through ``hierarchy_allocator(h)``).
    """
    if machine.opm is None:
        raise ValueError("KNL machine spec must include MCDRAM")
    config = McdramConfig.from_spec(machine.opm, mode)
    mcdram_cache = None
    if config.uses_cache:
        ways = machine.opm.ways or 1  # MCDRAM: 1 (direct-mapped)
        cap = max(machine.opm.line * ways, int(config.cache_bytes * scale))
        mcdram_cache = SetAssociativeCache(cap, line=machine.opm.line, ways=ways)
    if allocator is None and config.uses_flat:
        assert machine.dram.capacity is not None
        allocator = NumaAllocator(
            int(config.flat_bytes * scale),
            machine.dram.capacity,
            prefer_mcdram=True,
        )
    stages = _cache_stages(machine, scale=scale)
    return Hierarchy(
        stages,
        line=machine.dram.line,
        mcdram_cache=mcdram_cache,
        allocator=allocator,
        memory_names=(machine.dram.name, "MCDRAM-flat"),
    )


def _make_prefetcher(kind: str | None, stages: list[_CacheStage]):
    """Instantiate an optional prefetcher targeting the deepest on-chip
    cache ('next-line' or 'stride'); None disables prefetching."""
    if kind is None:
        return None
    from repro.memory.prefetch import NextLinePrefetcher, StridePrefetcher

    target = stages[-1].cache
    if kind == "next-line":
        return NextLinePrefetcher(target)
    if kind == "stride":
        return StridePrefetcher(target)
    raise ValueError(f"unknown prefetcher kind {kind!r}")


def hierarchy_allocator(hierarchy: Hierarchy) -> NumaAllocator | None:
    """Expose the NUMA allocator of a flat/hybrid KNL hierarchy."""
    return hierarchy._allocator
