"""Trace construction: byte accesses to line-address chunks.

A trace is ndarray ``(line_addrs, writes)`` chunks. Byte-granular
address/size/write *arrays* are expanded to line addresses entirely
inside numpy, and the chunks feed
:meth:`repro.memory.hierarchy.Hierarchy.run_batched` directly.

The expansion is exact: for every access, the lines touched are
``addr // line .. (addr + size - 1) // line`` in ascending order, the
per-reference expansion ``tests/oracle.py`` keeps as the reference.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.platforms.spec import LINE_BYTES

#: Default chunk length (references per ndarray handed to the simulator).
#: Large enough to amortize per-chunk overhead, small enough to stay
#: cache-friendly and keep telemetry spans responsive.
CHUNK = 1 << 16


def expand_lines(
    addrs: np.ndarray,
    sizes: np.ndarray | int,
    writes: np.ndarray | bool,
    line: int = LINE_BYTES,
) -> tuple[np.ndarray, np.ndarray]:
    """Expand byte accesses into a (line_addrs, line_writes) pair.

    ``sizes`` and ``writes`` may be scalars applied to every access. An
    access spanning multiple lines contributes one entry per line, in
    ascending line order at the access's position in the stream.
    Negative byte addresses and sizes <= 0 are rejected.
    """
    addrs = np.asarray(addrs, dtype=np.int64)
    if addrs.ndim != 1:
        raise ValueError("addrs must be 1-D")
    n = addrs.shape[0]
    if n and int(addrs.min()) < 0:
        first = int(np.flatnonzero(addrs < 0)[0])
        raise ValueError(
            f"addrs[{first}] = {int(addrs[first])}: "
            "byte addresses must be non-negative"
        )
    sizes_arr = np.broadcast_to(np.asarray(sizes, dtype=np.int64), (n,))
    if n and int(sizes_arr.min()) <= 0:
        raise ValueError("sizes must be positive")
    writes_arr = np.broadcast_to(np.asarray(writes, dtype=bool), (n,))
    first = addrs // line
    last = (addrs + sizes_arr - 1) // line
    counts = last - first + 1
    if n == 0 or int(counts.max()) == 1:
        # Common case: word-granular accesses never straddle a line.
        return first, np.array(writes_arr, dtype=bool)
    total = int(counts.sum())
    expanded = np.repeat(first, counts)
    # Within each access, offsets 0..count-1 reconstruct the line run.
    starts = np.cumsum(counts) - counts
    expanded += np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    return expanded, np.repeat(writes_arr, counts)


def chunk_arrays(
    addrs: np.ndarray,
    writes: np.ndarray,
    chunk: int = CHUNK,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Slice one long (line_addrs, writes) pair into simulator chunks."""
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    for i in range(0, len(addrs), chunk):
        yield addrs[i : i + chunk], writes[i : i + chunk]
