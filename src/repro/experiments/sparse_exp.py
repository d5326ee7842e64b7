"""Shared machinery for the sparse-kernel figures (9-11, 17-22).

The paper's layout per kernel: a raw-throughput scatter over memory
footprint, a normalized-speedup scatter (OPM vs baseline), and a
structure heatmap of speedup binned by (rows, nonzeros). Broadwell
figures compare eDRAM on/off and carry their heatmap; KNL figures
compare the four MCDRAM modes and leave the heatmaps to Figures 20-22
(:func:`structure_experiment`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.engine.calibration import DEFAULT_KNOBS
from repro.experiments.results import ExperimentResult
from repro.experiments.sweeps import collection_for, run_sweep
from repro.kernels.base import Kernel
from repro.sparse import MatrixDescriptor
from repro.viz import heatmap, line_chart

#: Lognormal run-to-run jitter for scatter realism in the sparse figures.
SPARSE_NOISE_SIGMA = 0.06


def _sweep_collection(
    kernel_factory: Callable[[MatrixDescriptor], Kernel],
    platform: str,
    *,
    quick: bool,
) -> tuple[list[MatrixDescriptor], list[str], dict[str, np.ndarray]]:
    """Sweep the collection; returns it, the mode labels and GFlop/s."""
    collection = collection_for(quick=quick)
    knobs = DEFAULT_KNOBS.replace(noise_sigma=SPARSE_NOISE_SIGMA)
    points, labels = run_sweep(
        platform, [kernel_factory(d) for d in collection], knobs=knobs
    )
    mode_values = {
        label: np.array([p.gflops(label) for p in points]) for label in labels
    }
    return collection, labels, mode_values


def sparse_experiment(
    experiment_id: str,
    title: str,
    kernel_factory: Callable[[MatrixDescriptor], Kernel],
    platform: str,
    *,
    quick: bool,
) -> ExperimentResult:
    """Run one sparse kernel over the matrix collection on one platform."""
    result = ExperimentResult(experiment_id=experiment_id, title=title)
    collection, labels, mode_values = _sweep_collection(
        kernel_factory, platform, quick=quick
    )
    base_label, opm_labels = labels[0], labels[1:]
    footprints = np.array([d.footprint_bytes / 2**20 for d in collection])
    # Raw throughput scatter.
    result.figures.append(
        line_chart(
            footprints,
            mode_values,
            title=f"{title}: GFlop/s vs footprint (MB)",
        )
    )
    # Speedup vs baseline.
    speedups = {
        label: mode_values[label] / np.maximum(mode_values[base_label], 1e-12)
        for label in opm_labels
    }
    result.figures.append(
        line_chart(
            footprints,
            speedups,
            title=f"{title}: speedup vs {base_label}",
            y_label="speedup",
        )
    )
    result.add_table(
        "per_matrix",
        (
            "matrix",
            "family",
            "rows",
            "nnz",
            "footprint_mb",
            *(label.replace(" ", "_") for label in labels),
        ),
        [
            (
                d.name,
                d.family,
                d.n_rows,
                d.nnz,
                float(footprints[i]),
                *(float(mode_values[label][i]) for label in labels),
            )
            for i, d in enumerate(collection)
        ],
    )
    for label in opm_labels:
        sp = speedups[label]
        result.notes.append(
            f"{label}: avg speedup {sp.mean():.3f}x, max {sp.max():.3f}x, "
            f">1x on {np.mean(sp > 1.001):.0%} of matrices; effective "
            "region concentrates between the LLC valley and the OPM capacity."
        )
    if platform == "broadwell":
        _add_structure(
            result,
            collection,
            speedups[opm_labels[0]],
            f"{title}: {opm_labels[0]} speedup by (rows, nnz)",
        )
    return result


def structure_experiment(
    experiment_id: str,
    kernel_label: str,
    factory: Callable[[MatrixDescriptor], Kernel],
    *,
    quick: bool,
    finding: str,
) -> ExperimentResult:
    """Figures 20-22: one kernel's KNL speedup binned by (rows, nnz).

    The paper draws one heatmap for all three MCDRAM modes since their
    structural impact coincides (Section 4.2.2); flat mode stands for
    them. ``finding`` closes the note on the hottest bin.
    """
    result = ExperimentResult(
        experiment_id=experiment_id,
        title=f"Structure impact of {kernel_label} on KNL (rows x nnz)",
    )
    collection, _, mode_values = _sweep_collection(factory, "knl", quick=quick)
    speedup = mode_values["Flat"] / np.maximum(mode_values["DDR"], 1e-12)
    table = _add_structure(
        result,
        collection,
        speedup,
        f"{kernel_label} on KNL: flat-mode speedup by (rows, nnz)",
    )
    if table:
        top = max(table, key=lambda r: r[2])
        result.notes.append(
            f"Hottest bin: rows ~2^{top[0]:.0f}, nnz ~2^{top[1]:.0f} "
            f"(mean speedup {top[2]:.2f}x) — {finding}"
        )
    return result


def _add_structure(
    result: ExperimentResult,
    collection: list[MatrixDescriptor],
    speedup: np.ndarray,
    title: str,
) -> list[tuple]:
    """Append the (rows, nnz) heatmap and ``structure`` table; returns its rows."""
    grid, row_edges, nnz_edges, table = structure_bins(
        np.array([d.n_rows for d in collection]),
        np.array([d.nnz for d in collection]),
        speedup,
    )
    result.figures.append(
        heatmap(
            grid[::-1],
            row_labels=[f"2^{int(e)}" for e in row_edges[:-1][::-1]],
            col_labels=[f"2^{int(e)}" for e in nnz_edges[:-1]],
            title=title,
        )
    )
    result.add_table(
        "structure",
        ("log2_rows_bin", "log2_nnz_bin", "mean_speedup", "count"),
        table,
    )
    return table


def structure_bins(
    rows: np.ndarray, nnz: np.ndarray, values: np.ndarray, *, bins: int = 8
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple]]:
    """Mean ``values`` binned on a log2 (rows x nnz) grid.

    Returns the grid (NaN where empty), both edge arrays, and the table
    rows ``(row_edge, nnz_edge, mean, count)`` of the populated cells.
    """
    lr = np.log2(np.maximum(rows, 2))
    ln = np.log2(np.maximum(nnz, 2))
    row_edges = np.linspace(lr.min(), lr.max() + 1e-9, bins + 1)
    nnz_edges = np.linspace(ln.min(), ln.max() + 1e-9, bins + 1)
    grid = np.full((bins, bins), np.nan)
    table = []
    for i in range(bins):
        for j in range(bins):
            mask = (
                (lr >= row_edges[i])
                & (lr < row_edges[i + 1])
                & (ln >= nnz_edges[j])
                & (ln < nnz_edges[j + 1])
            )
            if mask.any():
                grid[i, j] = mean = float(values[mask].mean())
                table.append(
                    (
                        float(row_edges[i]),
                        float(nnz_edges[j]),
                        mean,
                        int(mask.sum()),
                    )
                )
    return grid, row_edges, nnz_edges, table
