"""Reservoir sampling for long traces.

Exact stack-distance computation is O(N log N) in trace length; for the
longest instrumented-kernel traces that is the bottleneck of validation
runs. This module provides the standard tools for working from samples:

* :class:`Reservoir` — Vitter's algorithm R: a uniform fixed-size sample
  of an unbounded stream, single pass, O(1) per item.
* :func:`sampled_stack_distances` — estimate the stack-distance *hit-rate
  curve* from a systematic sample of reference windows: distances are
  computed exactly inside sampled windows (reuse beyond the window length
  is right-censored and reported as such). For the hit-rate regimes the
  engine cares about (working sets well below the window), the estimate
  converges to the exact curve; `tests/test_reservoir.py` quantifies the
  error on canonical streams.
* :func:`sampled_stack_distances_stream` — the same estimator over an
  iterable of ndarray chunks (e.g. ``kernel_trace_chunks`` output),
  holding at most one window in memory, for traces that must never
  materialize whole.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

import numpy as np

from repro.trace.stackdist import StackDistanceProfile, stack_distances


class Reservoir:
    """Uniform fixed-size sample of a stream (Vitter's algorithm R)."""

    def __init__(self, capacity: int, *, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._rng = np.random.default_rng(seed)
        self._items: list = []
        self._seen = 0

    def offer(self, item) -> None:
        """Present one stream item to the sampler."""
        self._seen += 1
        if len(self._items) < self.capacity:
            self._items.append(item)
            return
        j = int(self._rng.integers(0, self._seen))
        if j < self.capacity:
            self._items[j] = item

    def extend(self, items: Iterable) -> "Reservoir":
        for item in items:
            self.offer(item)
        return self

    @property
    def sample(self) -> list:
        return list(self._items)

    @property
    def seen(self) -> int:
        return self._seen

    def __len__(self) -> int:
        return len(self._items)


@dataclasses.dataclass(frozen=True)
class SampledProfile:
    """Stack-distance estimate from sampled windows.

    ``censored_fraction`` is the share of sampled references whose reuse
    distance exceeded the window (they may be hits in very large caches;
    the estimator counts them as misses, making `hit_rate` a *lower
    bound* above the window working set).
    """

    profile: StackDistanceProfile
    window: int
    n_windows: int
    censored_fraction: float

    def hit_rate(self, capacity_lines: int) -> float:
        return self.profile.hit_rate(capacity_lines)


class WindowSampler:
    """Systematic one-in-``period`` window sampler over a reference stream.

    Shared core of :func:`sampled_stack_distances` and
    :func:`sampled_stack_distances_stream`; the validation harness drives
    it directly to tee one chunk stream into the simulator and the
    estimator. Window selection, the keep-the-tail rule, and —
    deliberately in exactly ONE place — the censored/total accounting
    live here: the historical implementation repeated ``censored +=
    prof.n_cold`` at three window-boundary sites, which audits could not
    tell apart from a double count (``tests/test_reservoir.py`` now pins
    ``censored_fraction`` against the exact profile's cold count).

    ``max_distances`` caps memory end-to-end: kept distances then live in
    a :class:`Reservoir` (uniform over all sampled references, cold
    markers included, so the censored share survives subsampling in
    expectation) instead of an unbounded concatenation.
    """

    def __init__(
        self,
        window: int,
        period: int,
        seed: int,
        *,
        max_distances: int | None = None,
    ) -> None:
        if window < 2:
            raise ValueError("window must be >= 2")
        if period < 1:
            raise ValueError("period must be >= 1")
        self.window = window
        self.period = period
        rng = np.random.default_rng(seed)
        self._offset = int(rng.integers(0, period))
        self._index = 0  # completed windows so far (selected or not)
        self._distances: list[np.ndarray] = []
        self._reservoir = (
            Reservoir(max_distances, seed=seed) if max_distances else None
        )
        self._censored = 0
        self._total = 0
        self._n_windows = 0
        # Partial-window pieces carried across push() chunk boundaries.
        self._parts: list[np.ndarray] = []
        self._buffered = 0

    def _absorb(self, refs) -> None:
        """Analyze one *selected* window exactly. The only place the
        censored/total books are written."""
        prof = stack_distances(refs)
        if self._reservoir is not None:
            self._reservoir.extend(prof.distances.tolist())
        else:
            self._distances.append(prof.distances)
        self._censored += prof.n_cold
        self._total += prof.n_references
        self._n_windows += 1

    def complete(self, refs) -> None:
        """Finish one full window: absorb it if systematically selected."""
        if self._index % self.period == self._offset:
            self._absorb(refs)
        self._index += 1

    def tail(self, refs) -> None:
        """Offer the final partial window: kept if its slot is selected,
        or if nothing was sampled at all (short traces must not yield an
        empty estimate)."""
        if self._index % self.period == self._offset or self._n_windows == 0:
            self._absorb(refs)

    def push(self, chunk: np.ndarray) -> None:
        """Stream one ndarray chunk; windows are sliced, never copied,
        except where one straddles a chunk boundary."""
        if chunk.ndim != 1:
            raise ValueError("line trace array must be 1-D")
        w = self.window
        n = chunk.shape[0]
        pos = 0
        if self._buffered:
            take = min(w - self._buffered, n)
            self._parts.append(chunk[:take])
            self._buffered += take
            pos = take
            if self._buffered == w:
                self.complete(np.concatenate(self._parts))
                self._parts = []
                self._buffered = 0
        while pos + w <= n:
            self.complete(chunk[pos : pos + w])
            pos += w
        if pos < n:
            self._parts.append(chunk[pos:])
            self._buffered += n - pos

    def finish(self) -> SampledProfile:
        if self._buffered:
            self.tail(
                self._parts[0]
                if len(self._parts) == 1
                else np.concatenate(self._parts)
            )
            self._parts = []
            self._buffered = 0
        if self._reservoir is not None:
            merged = np.asarray(self._reservoir.sample, dtype=np.int64)
        else:
            merged = (
                np.concatenate(self._distances)
                if self._distances
                else np.empty(0, dtype=np.int64)
            )
        return SampledProfile(
            profile=StackDistanceProfile(distances=merged),
            window=self.window,
            n_windows=self._n_windows,
            censored_fraction=self._censored / self._total if self._total else 0.0,
        )


def sampled_stack_distances(
    line_trace: np.ndarray,
    *,
    window: int = 4096,
    period: int = 4,
    seed: int = 0,
) -> SampledProfile:
    """Estimate the stack-distance curve from every ``period``-th window.

    The trace is cut into consecutive windows of ``window`` references;
    a deterministic systematic sample (offset seeded) of one-in-``period``
    windows is analyzed exactly. Cold references at window starts are
    censored (distance unknown beyond the window), tracked in
    ``censored_fraction``. Windows are ndarray slices, each analyzed by
    :func:`~repro.trace.stackdist.stack_distances`.
    """
    sampler = WindowSampler(window, period, seed)
    sampler.push(np.asarray(line_trace, dtype=np.int64))
    return sampler.finish()


def sampled_stack_distances_stream(
    chunks: Iterable[np.ndarray | tuple[np.ndarray, np.ndarray]],
    *,
    window: int = 4096,
    period: int = 4,
    seed: int = 0,
    max_distances: int | None = None,
) -> SampledProfile:
    """Streaming twin of :func:`sampled_stack_distances` over ndarray chunks.

    Accepts an iterable of 1-D line-address arrays — or ``(addrs,
    writes)`` pairs as produced by the chunk generators
    (:func:`repro.trace.batch.chunk_arrays`,
    :func:`repro.kernels.traces.kernel_trace_chunks`) — and holds at most
    one window of references at a time, so full-scale traces never
    materialize. Chunk boundaries are invisible: the estimate is
    byte-identical to concatenating every chunk and calling
    :func:`sampled_stack_distances` on the result. ``max_distances``
    additionally bounds the kept sample via a :class:`Reservoir`.
    """
    sampler = WindowSampler(window, period, seed, max_distances=max_distances)
    for chunk in chunks:
        if isinstance(chunk, tuple):
            chunk = chunk[0]
        sampler.push(np.asarray(chunk))
    return sampler.finish()
