"""Statistics shared by the workloads: percentiles, backlog, failures, digests.

Everything here is pure and small so ``perfbench/tests`` can pin it down.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Any, Sequence

#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

#: Percentiles the tail rule may pick, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(n: int) -> float | None:
    """The highest candidate percentile with >= 10 samples beyond it.

    With ``n`` samples, ``pct`` leaves ``n * (1 - pct/100)`` samples
    above it; 1000 samples are needed for p99, 100 for p90. ``None``
    when even the median has fewer than ten samples beyond it.
    """
    for pct in TAIL_CANDIDATES:
        if n * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            return pct
    return None


def latency_summary(samples: Sequence[float], min_n: int) -> dict[str, float]:
    """Median and tail of ``samples``, with the count stated.

    The tail percentile is the rule's choice for ``min_n``, the fewest
    samples a run of the workload can take, so that every run reports
    the same percentile however many samples its time allowed.
    """
    n = len(samples)
    pct = tail_percentile(min_n)
    if pct is None or n < min_n:
        raise ValueError(
            f"{n} samples (minimum {min_n}): too few for a tail with "
            f"{TAIL_MIN_BEYOND} beyond it"
        )
    return {
        "n": n,
        "p50": percentile(samples, 50.0),
        "tail_pct": pct,
        "tail": percentile(samples, pct),
    }


def has_backlog(
    due: Sequence[float], done: Sequence[float], *, window_s: float, slack_s: float
) -> bool:
    """Whether the queue of a fixed-rate phase grew instead of staying flat.

    ``due`` holds when each request was scheduled and ``done`` when it
    completed (``math.inf`` if it never did), both on the phase clock.
    The lateness of requests due in the last ``window_s`` seconds is
    compared with that of requests due in the first ``window_s``: a
    server that keeps up shows the same lateness at both ends, one that
    falls behind shows the last window later by more than ``slack_s``.
    """
    if len(due) != len(done):
        raise ValueError("due and done must pair up")
    if not due:
        return False
    if any(math.isinf(d) for d in done):
        return True
    start, end = min(due), max(due)
    first = [c - d for d, c in zip(due, done) if d <= start + window_s]
    last = [c - d for d, c in zip(due, done) if d >= end - window_s]
    return statistics.median(last) - statistics.median(first) > slack_s


class Outcomes:
    """Attempted/failed accounting behind ``failed_frac``.

    An operation is counted once. It fails when the program reported an
    error, refused or timed out, or when its output did not match the
    benchmark's expectation; ``reasons`` keeps the first few causes.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason or "failed")
        return ok

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical_digest(obj: Any) -> str:
    """sha256 of ``obj`` as canonical JSON (sorted keys, no whitespace)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return sha256_hex(text.encode())


def check_digest(actual: str, expected: str | None, what: str) -> str | None:
    """``None`` when ``actual`` matches ``expected``, else the reason."""
    if expected is None:
        return f"{what}: no recorded digest"
    if actual != expected:
        return f"{what}: digest {actual[:12]} != recorded {expected[:12]}"
    return None
