"""Memory-hierarchy simulator (trace-driven ground truth).

Composable pieces: :class:`SetAssociativeCache` (LRU / direct-mapped),
:class:`VictimCache` (eDRAM L4 semantics), :class:`NumaAllocator`
(``numactl -p`` flat-mode placement), :class:`McdramConfig` (Table 1 mode
resolution) and :class:`Hierarchy` (the composed platform shapes).
"""

from repro.memory.allocator import PAGE, Extent, Node, NumaAllocator, Region
from repro.memory.cache import Eviction, SetAssociativeCache, direct_mapped
from repro.memory.hierarchy import (
    Hierarchy,
    for_broadwell,
    for_knl,
    hierarchy_allocator,
)
from repro.memory.mcdram import McdramConfig
from repro.memory.prefetch import NextLinePrefetcher, PrefetchStats, StridePrefetcher
from repro.memory.stats import HierarchyStats, LevelStats
from repro.memory.victim import VictimCache

__all__ = [
    "Eviction",
    "Extent",
    "Hierarchy",
    "HierarchyStats",
    "LevelStats",
    "McdramConfig",
    "NextLinePrefetcher",
    "Node",
    "NumaAllocator",
    "PAGE",
    "PrefetchStats",
    "Region",
    "SetAssociativeCache",
    "StridePrefetcher",
    "VictimCache",
    "direct_mapped",
    "for_broadwell",
    "for_knl",
    "hierarchy_allocator",
]
