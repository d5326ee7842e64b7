"""Shared machinery for the dense-kernel heatmap figures (7, 8, 15, 16)."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.experiments.results import ExperimentResult
from repro.experiments.sweeps import dense_orders, dense_tiles, run_sweep
from repro.kernels.base import Kernel
from repro.viz import heatmap


def heatmap_experiment(
    experiment_id: str,
    title: str,
    kernel_factory: Callable[[int, int], Kernel],
    platform: str,
    *,
    quick: bool,
) -> ExperimentResult:
    """Sweep (order, tile) and emit one heatmap per OPM mode."""
    result = ExperimentResult(experiment_id=experiment_id, title=title)
    orders = dense_orders(platform, quick=quick)
    tiles = dense_tiles(quick=quick)
    configs = [
        kernel_factory(order, tile) for tile in tiles for order in orders
    ]
    points, mode_labels = run_sweep(platform, configs)
    n_t, n_o = len(tiles), len(orders)
    rows = []
    grids = {label: np.zeros((n_t, n_o)) for label in mode_labels}
    for idx, point in enumerate(points):
        ti, oi = divmod(idx, n_o)
        for label in mode_labels:
            grids[label][ti, oi] = point.gflops(label)
        rows.append(
            (
                orders[oi],
                tiles[ti],
                *(point.gflops(label) for label in mode_labels),
            )
        )
    result.add_table(
        "gflops",
        ("order", "tile", *mode_labels),
        rows,
    )
    for label in mode_labels:
        grid = grids[label]
        result.figures.append(
            heatmap(
                grid[::-1],  # larger tiles on top, like the paper's y-axis
                row_labels=[str(t) for t in tiles[::-1]],
                col_labels=[str(o) for o in orders],
                title=f"{title} — {label} (GFlop/s)",
            )
        )
        result.notes.append(
            f"{label}: peak {grid.max():.1f} GFlop/s, "
            f"median {np.median(grid):.1f}, "
            f">=90% of peak on {np.mean(grid >= 0.9 * grid.max()):.1%} of configs."
        )
    return result
