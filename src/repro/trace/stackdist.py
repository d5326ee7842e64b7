"""Exact LRU stack-distance (reuse-distance) computation.

The stack distance of a reference is the number of *distinct* lines
touched since the previous reference to the same line (infinite for cold
references). A fully associative LRU cache of C lines hits exactly the
references with stack distance < C, so the stack-distance histogram is the
bridge between traces and the analytic hit-rate model
(:mod:`repro.engine.hitrate`).

Implemented with a Fenwick (binary indexed) tree over last-access
timestamps: O(N log N) for a trace of N references. Previous-occurrence
indices are computed fully vectorized, then one Fenwick loop counts the
distinct lines between each pair.

The per-timestamp ``add(t, +1)`` of the textbook algorithm is replaced by
a closed-form preload of the all-ones tree (``tree[i] = i & -i``). That
is exact, not an approximation: a Fenwick node ``i`` only aggregates
positions ``<= i``, and ``prefix(i)`` only reads nodes ``<= i``, so the
+1 units preloaded at future timestamps are invisible to every query
issued before their time arrives; removals happen in the same order as
the incremental algorithm.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

import numpy as np


@dataclasses.dataclass
class StackDistanceProfile:
    """Histogram of stack distances for one trace.

    ``distances`` holds one entry per reference: the stack distance, with
    ``-1`` marking cold (first-touch) references.
    """

    distances: np.ndarray

    @property
    def n_references(self) -> int:
        return len(self.distances)

    @property
    def n_cold(self) -> int:
        return int(np.count_nonzero(self.distances < 0))

    def hit_rate(self, capacity_lines: int) -> float:
        """Hit rate of a fully associative LRU cache with that capacity."""
        if self.n_references == 0:
            return 0.0
        hits = np.count_nonzero(
            (self.distances >= 0) & (self.distances < capacity_lines)
        )
        return float(hits) / self.n_references

    def cdf(self, capacities: Iterable[int]) -> np.ndarray:
        """Hit rates for several capacities at once."""
        return np.array([self.hit_rate(c) for c in capacities])

    def histogram(self, bins: int = 32) -> tuple[np.ndarray, np.ndarray]:
        """Log-spaced histogram of finite distances (counts, edges)."""
        finite = self.distances[self.distances >= 0]
        if len(finite) == 0:
            return np.zeros(bins), np.ones(bins + 1)
        hi = max(2, int(finite.max()) + 1)
        edges = np.unique(
            np.round(np.logspace(0, np.log2(hi), bins + 1, base=2.0)).astype(np.int64)
        )
        counts, edges = np.histogram(finite, bins=edges)
        return counts, edges


def _prev_occurrence_vectorized(arr: np.ndarray) -> list[int]:
    """Previous-occurrence index per reference (-1 for first touch).

    Grouping by line via ``np.unique`` + stable argsort keeps each line's
    timestamps in trace order, so "the previous element of my group" is
    exactly the previous occurrence.
    """
    n = arr.shape[0]
    inv = np.unique(arr, return_inverse=True)[1]
    order = np.argsort(inv, kind="stable")
    inv_sorted = inv[order]
    prev_sorted = np.empty(n, dtype=np.int64)
    prev_sorted[0] = -1
    prev_sorted[1:] = np.where(
        inv_sorted[1:] == inv_sorted[:-1], order[:-1], -1
    )
    prev = np.empty(n, dtype=np.int64)
    prev[order] = prev_sorted
    return prev.tolist()


def _fenwick_distances(prev: list[int], n: int) -> np.ndarray:
    """Stack distances from previous-occurrence indices.

    The tree starts as the closed-form all-ones Fenwick (every timestamp
    alive); each reuse removes its previous occurrence after querying the
    count of alive timestamps strictly between the pair. A plain Python
    list beats an int64 ndarray here: the loop does scalar index
    arithmetic, where numpy scalar boxing costs more than it saves.
    """
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out
    idx = np.arange(1, n + 1, dtype=np.int64)
    tree = np.concatenate((np.zeros(1, dtype=np.int64), idx & -idx)).tolist()
    size = n + 1
    for t in range(n):
        p = prev[t]
        if p < 0:
            out[t] = -1
            continue
        # Distinct lines referenced in (p, t): alive timestamps after p.
        total = 0
        i = t
        while i > 0:
            total += tree[i]
            i -= i & -i
        i = p + 1
        while i > 0:
            total -= tree[i]
            i -= i & -i
        out[t] = total
        i = p + 1
        while i < size:
            tree[i] -= 1
            i += i & -i
    return out


def stack_distances(line_trace: np.ndarray) -> StackDistanceProfile:
    """Compute per-reference LRU stack distances for a line-address trace.

    ``line_trace`` is a 1-D array (or sequence) of integer line addresses.
    """
    arr = np.asarray(line_trace, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("line trace array must be 1-D")
    n = arr.shape[0]
    prev = _prev_occurrence_vectorized(arr) if n else []
    return StackDistanceProfile(distances=_fenwick_distances(prev, n))
