"""Seeded ``/v1/advise`` queries over all eight kernels.

Valid queries keep every parameter inside the advisor's accepted ranges;
a small seeded share of deliberately malformed queries must get a 400.

``repro.serve.bench._query_population`` is not used: with ``distinct``
above 30 its retry loop can never find a new query and does not return
(``_query_population(7, 31)`` hangs, and so does
``repro serve-bench --distinct 31``).
"""

from __future__ import annotations

import json
import random
from typing import Any, Callable

from repro.sparse.generators import FAMILIES


def _log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    """An integer in [lo, hi], uniform in its logarithm."""
    return max(lo, min(hi, int(lo * (hi / lo) ** rng.random())))


def _sparse(rng: random.Random) -> dict[str, Any]:
    n_rows = _log_uniform(rng, 2_000, 200_000)
    return {"n_rows": n_rows, "nnz": n_rows * rng.choice((4, 8, 16, 32)), "family": rng.choice(FAMILIES)}


def _dense(rng: random.Random) -> dict[str, Any]:
    order = _log_uniform(rng, 64, 8192)
    return {"order": order, "tile": min(order, rng.choice((32, 64, 128)))}


_PARAMS: dict[str, Callable[[random.Random], dict[str, Any]]] = {
    "stream": lambda rng: {"n": _log_uniform(rng, 1 << 14, 1 << 28)},
    "gemm": _dense,
    "cholesky": _dense,
    "fft": lambda rng: {"size": _log_uniform(rng, 16, 2048)},
    "stencil": lambda rng: {"nx": _log_uniform(rng, 32, 1024)},
    "spmv": _sparse,
    "sptrans": _sparse,
    "sptrsv": _sparse,
}
KERNELS = tuple(_PARAMS)

#: Malformed queries, one per way a request can be out of range.
_BAD: tuple[dict[str, Any], ...] = (
    {"kernel": "stream", "params": {"n": 0}},
    {"kernel": "gemm", "params": {"order": 8}},
    {"kernel": "fft", "params": {"size": 1 << 14}},
    {"kernel": "stencil", "params": {"nx": 4}},
    {"kernel": "spmv", "params": {"n_rows": 1000, "family": "no-such-family"}},
    {"kernel": "lu", "params": {"n": 64}},
    {"kernel": "cholesky", "params": {"order": 256, "tile": 512}},
    {"kernel": "sptrsv", "params": {"n_rows": 2000, "depth": 3}},
    {"kernel": "stream", "params": {"n": 4096}, "objective": "latency"},
)


def population(seed: int, distinct: int) -> list[dict[str, Any]]:
    """``distinct`` different valid queries, kernels in rotation."""
    rng = random.Random(seed)
    seen: set[str] = set()
    out: list[dict[str, Any]] = []
    for _ in range(100 * distinct):
        if len(out) == distinct:
            return out
        kernel = KERNELS[len(out) % len(KERNELS)]
        query: dict[str, Any] = {"kernel": kernel, "params": _PARAMS[kernel](rng)}
        if rng.random() < 0.25:
            query["objective"] = "energy"
        fp = json.dumps(query, sort_keys=True)
        if fp not in seen:
            seen.add(fp)
            out.append(query)
    raise ValueError(f"could not draw {distinct} distinct queries")


def draws(
    seed: int, pool: list[dict[str, Any]], n: int, *, zipf_s: float, bad_share: float
) -> list[tuple[dict[str, Any], bool]]:
    """``n`` (query, is_valid) draws: zipf-like repeats over ``pool``.

    Rank ``k`` (0-based) is drawn with weight ``1 / (k + 1) ** zipf_s``,
    so low ranks repeat (cache hits) while the long tail is mostly seen
    for the first time (misses). A ``bad_share`` of draws is malformed.
    """
    rng = random.Random(seed)
    weights = [1.0 / (k + 1) ** zipf_s for k in range(len(pool))]
    picks = rng.choices(range(len(pool)), weights=weights, k=n)
    out = []
    for k in picks:
        if rng.random() < bad_share:
            out.append((rng.choice(_BAD), False))
        else:
            out.append((pool[k], True))
    return out
