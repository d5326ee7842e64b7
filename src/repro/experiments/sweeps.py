"""Shared sweep machinery for the experiment drivers.

The appendix of the paper fixes the exact parameter grids (matrix orders,
tile sizes, grid/array/FFT sizes) per platform; this module encodes them
once, with reduced "quick" variants used by tests and benchmarks.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro import telemetry
from repro.engine.calibration import DEFAULT_KNOBS, ModelKnobs
from repro.engine.exectime import RunResult, estimate
from repro.kernels.base import Kernel
from repro.platforms import MachineSpec, McdramMode, broadwell, knl
from repro.platforms.tuning import ALL_MCDRAM_MODES
from repro.sparse import MatrixDescriptor, build_collection
from repro.telemetry import names as tm

# -- parameter grids (appendix A.2) ------------------------------------------


def dense_orders(platform: str, *, quick: bool) -> list[int]:
    """Matrix orders for GEMM/Cholesky (A.2.1: 256..16128 step 512 on BRD,
    256..32000 step 1024 on KNL)."""
    if platform == "broadwell":
        full = list(range(256, 16129, 512))
    else:
        full = list(range(256, 32001, 1024))
    return full[::6] if quick else full


def dense_tiles(*, quick: bool) -> list[int]:
    """Tile sizes (A.2.1: 128..4096 step 128 on both platforms)."""
    full = list(range(128, 4097, 128))
    return full[::6] if quick else full


def stream_sizes(platform: str, *, quick: bool) -> list[int]:
    """Array lengths (A.2.8: 2^4..2^24 on BRD, 2^4..2^26 on KNL)."""
    hi = 24 if platform == "broadwell" else 26
    lo = 4
    exps = range(lo, hi + 1, 2 if quick else 1)
    return [2**e for e in exps]


def stencil_grids(platform: str, *, quick: bool) -> list[tuple[int, int, int]]:
    """3-D grids (A.2.6), doubling from the platform minimum."""
    grids: list[tuple[int, int, int]] = []
    if platform == "broadwell":
        g = (32, 32, 32)
        top = 1024 * 1024 * 512
    else:
        g = (128, 64, 64)
        top = 2048**3
    while g[0] * g[1] * g[2] <= top:
        grids.append(g)
        # Double total size each step, cycling the axis that grows.
        axis = len(grids) % 3
        g = tuple(d * 2 if i == axis else d for i, d in enumerate(g))  # type: ignore[assignment]
    return grids[::2] if quick else grids


def fft_sizes(platform: str, *, quick: bool) -> list[int]:
    """3-D FFT edge lengths (A.2.7: 96..592 step 16 BRD, 96..1088 step 32 KNL)."""
    if platform == "broadwell":
        full = list(range(96, 593, 16))
    else:
        full = list(range(96, 1089, 32))
    return full[::4] if quick else full


def collection_for(*, quick: bool) -> list[MatrixDescriptor]:
    """The 968-matrix collection (a deterministic 96-matrix subsample in
    quick mode)."""
    coll = build_collection()
    return coll[::10] if quick else coll


# -- sweep runners -------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One configuration in a sweep with its per-mode results."""

    params: dict[str, object]
    results: dict[str, RunResult]  # mode label -> result

    def gflops(self, mode: str) -> float:
        return self.results[mode].gflops


def _sweep(
    configs: Iterable[Kernel],
    machine: MachineSpec,
    modes: dict[str, dict[str, Any]],
    knobs: ModelKnobs,
) -> list[SweepPoint]:
    """Estimate each kernel under every ``label -> estimate() kwargs`` mode."""
    points = []
    for kernel in configs:
        with telemetry.span(
            tm.SPAN_SWEEP_KERNEL, kernel=kernel.name, machine=machine.name
        ):
            profile = kernel.profile()
            results = {
                label: estimate(profile, machine, knobs=knobs, **kwargs)
                for label, kwargs in modes.items()
            }
            points.append(SweepPoint(params=dict(profile.params), results=results))
        telemetry.counter(tm.METRIC_SWEEP_POINTS).inc()
    return points


def run_broadwell_sweep(
    configs: Iterable[Kernel],
    *,
    knobs: ModelKnobs = DEFAULT_KNOBS,
    machine: MachineSpec | None = None,
) -> list[SweepPoint]:
    """Evaluate kernels on Broadwell with eDRAM on and off."""
    modes = {"w/ eDRAM": {"edram": True}, "w/o eDRAM": {"edram": False}}
    return _sweep(configs, machine or broadwell(), modes, knobs)


MODE_LABELS = {
    McdramMode.OFF: "DDR",
    McdramMode.FLAT: "Flat",
    McdramMode.CACHE: "Cache",
    McdramMode.HYBRID: "Hybrid",
}


def run_knl_sweep(
    configs: Iterable[Kernel],
    *,
    modes: Sequence[McdramMode] = ALL_MCDRAM_MODES,
    knobs: ModelKnobs = DEFAULT_KNOBS,
    machine: MachineSpec | None = None,
) -> list[SweepPoint]:
    """Evaluate kernels on KNL across MCDRAM modes."""
    by_label = {MODE_LABELS[mode]: {"mcdram": mode} for mode in modes}
    return _sweep(configs, machine or knl(), by_label, knobs)


def run_sweep(
    platform: str,
    configs: Iterable[Kernel],
    *,
    knobs: ModelKnobs = DEFAULT_KNOBS,
) -> tuple[list[SweepPoint], list[str]]:
    """Sweep every OPM mode of ``platform``; labels come baseline first."""
    if platform == "broadwell":
        return run_broadwell_sweep(configs, knobs=knobs), ["w/o eDRAM", "w/ eDRAM"]
    return run_knl_sweep(configs, knobs=knobs), list(MODE_LABELS.values())


# -- summary statistics (Tables 4/5 columns) -----------------------------------


@dataclasses.dataclass(frozen=True)
class ModeSummary:
    """One kernel's with-vs-without comparison over a sweep."""

    best_base: float  # best GFlop/s without the OPM configuration
    best_opm: float  # best GFlop/s with it
    avg_gap: float  # mean (opm - base) over configurations
    max_gap: float
    avg_speedup: float  # geometric-ish mean of per-config speedups
    max_speedup: float


def summarize(
    points: Sequence[SweepPoint], *, base: str, opm: str
) -> ModeSummary:
    """Compute the Table 4/5 statistics for one (base, opm) mode pair."""
    base_vals = np.array([p.gflops(base) for p in points])
    opm_vals = np.array([p.gflops(opm) for p in points])
    if len(base_vals) == 0:
        raise ValueError("empty sweep")
    speedups = opm_vals / np.maximum(base_vals, 1e-12)
    return ModeSummary(
        best_base=float(base_vals.max()),
        best_opm=float(opm_vals.max()),
        avg_gap=float((opm_vals - base_vals).mean()),
        max_gap=float((opm_vals - base_vals).max()),
        avg_speedup=float(speedups.mean()),
        max_speedup=float(speedups.max()),
    )


def geomean(values: Iterable[float]) -> float:
    """Geometric mean, failing loudly on non-positive inputs.

    The power figures' "GM" rows used to clamp values at 1e-9 before
    taking logs, which silently turned a zero or negative ratio — always
    a bug upstream — into a wildly wrong mean. Watts and power ratios
    are positive by construction, so reject anything that is not.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("geomean: empty sequence")
    if not np.all(arr > 0):
        first = int(np.flatnonzero(arr <= 0)[0])
        raise ValueError(
            f"geomean: values[{first}] = {arr[first]}: "
            "geometric mean requires positive values"
        )
    return float(np.exp(np.mean(np.log(arr))))


def representative_kernels(
    platform: str,
) -> dict[str, Callable[[], Kernel]]:
    """One mid-sized configuration per kernel (power figures, Eq. 1).

    Footprints are chosen inside the OPM-effective region so the power
    comparison reflects active OPM use, as the paper's power runs do.
    """
    from repro.kernels import (
        CholeskyKernel,
        FftKernel,
        GemmKernel,
        SpmvKernel,
        SptransKernel,
        SptrsvKernel,
        StencilKernel,
        StreamKernel,
    )
    from repro.sparse import from_params

    if platform == "broadwell":
        sparse_desc = from_params("rep", "banded", 500_000, 6_000_000, seed=7)
        return {
            "DGEMM": lambda: GemmKernel(order=8192, tile=256),
            "Cholesky": lambda: CholeskyKernel(order=8192, tile=256),
            "SpMV": lambda: SpmvKernel(descriptor=sparse_desc),
            "SpTRANS": lambda: SptransKernel(
                descriptor=sparse_desc, algorithm="scan"
            ),
            "SpTRSV": lambda: SptrsvKernel(descriptor=sparse_desc),
            "FFT": lambda: FftKernel(size=160),
            "Stencil": lambda: StencilKernel(256, 256, 128, threads=8),
            "Stream": lambda: StreamKernel(n=2**21),
        }
    sparse_desc = from_params("rep", "banded", 40_000_000, 500_000_000, seed=7)
    return {
        "DGEMM": lambda: GemmKernel(order=16384, tile=512),
        "Cholesky": lambda: CholeskyKernel(order=16384, tile=512),
        "SpMV": lambda: SpmvKernel(descriptor=sparse_desc),
        "SpTRANS": lambda: SptransKernel(
            descriptor=sparse_desc, algorithm="merge"
        ),
        "SpTRSV": lambda: SptrsvKernel(descriptor=sparse_desc),
        "FFT": lambda: FftKernel(size=512),
        "Stencil": lambda: StencilKernel(768, 768, 768, threads=256),
        "Stream": lambda: StreamKernel(n=2**27),
    }
