"""Synthetic address-stream generators.

These produce the canonical access patterns the kernels decompose into:
sequential streaming, constant-stride scans, 2-D tile sweeps, uniform
random access and dependent pointer chasing. The trace simulator and the
analytic engine are cross-validated on these streams (tests/test_engine_*).

Each generator returns ``(byte_addrs, writes)`` ndarrays, the input of
:func:`repro.trace.batch.expand_lines`. The per-reference twins in
``tests/oracle.py`` pin the reference order (tests/test_trace_batch.py).
"""

from __future__ import annotations

import numpy as np


def sequential_array(
    base: int, n_words: int, *, word: int = 8, write: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """A unit-stride scan over ``n_words`` words starting at ``base``."""
    addrs = base + np.arange(n_words, dtype=np.int64) * word
    return addrs, np.full(n_words, write, dtype=bool)


def strided_array(
    base: int, n_accesses: int, stride: int, *, write: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """A constant-stride scan (``stride`` in bytes)."""
    if stride <= 0:
        raise ValueError("stride must be positive")
    addrs = base + np.arange(n_accesses, dtype=np.int64) * stride
    return addrs, np.full(n_accesses, write, dtype=bool)


def repeated_sweep_array(
    base: int, n_words: int, sweeps: int, *, word: int = 8, write: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """``sweeps`` back-to-back sequential passes over the same buffer.

    This is the minimal workload exhibiting a cache peak: once the buffer
    fits a level, every sweep after the first hits there.
    """
    addrs, writes = sequential_array(base, n_words, word=word, write=write)
    return np.tile(addrs, sweeps), np.tile(writes, sweeps)


def tiled_2d_array(
    base: int,
    rows: int,
    cols: int,
    tile_rows: int,
    tile_cols: int,
    *,
    word: int = 8,
    write: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-major traversal of a matrix in tiles (GEMM-style blocking)."""
    if tile_rows <= 0 or tile_cols <= 0:
        raise ValueError("tile dims must be positive")
    pieces = []
    row_ids = np.arange(rows, dtype=np.int64)
    col_ids = np.arange(cols, dtype=np.int64)
    for ti in range(0, rows, tile_rows):
        ri = row_ids[ti : ti + tile_rows]
        for tj in range(0, cols, tile_cols):
            cj = col_ids[tj : tj + tile_cols]
            pieces.append((ri[:, None] * cols + cj[None, :]).ravel())
    idx = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
    addrs = base + idx * word
    return addrs, np.full(addrs.shape[0], write, dtype=bool)


def uniform_random_array(
    base: int,
    span_words: int,
    n_accesses: int,
    *,
    word: int = 8,
    write: bool = False,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniformly random word accesses within a buffer (SpMV x-vector style)."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, span_words, size=n_accesses).astype(np.int64)
    return base + idx * word, np.full(n_accesses, write, dtype=bool)


def pointer_chase_array(
    base: int,
    span_words: int,
    n_accesses: int,
    *,
    word: int = 8,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """A dependent random walk: each address derived from the previous.

    Models latency-bound kernels (SpTRSV's dependency chains): there is no
    memory-level parallelism in this stream by construction. The walk's
    positions depend only on the rng draw sequence, not on memory
    contents, so the whole chain is precomputable: position 0 followed by
    the first ``n - 1`` draws.
    """
    rng = np.random.default_rng(seed)
    if n_accesses == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
    draws = rng.integers(0, span_words, size=n_accesses).astype(np.int64)
    pos = np.concatenate((np.zeros(1, dtype=np.int64), draws[:-1]))
    return base + pos * word, np.zeros(n_accesses, dtype=bool)
