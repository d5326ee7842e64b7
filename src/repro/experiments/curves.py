"""Shared machinery for the size-sweep curve figures (12-14, 23-25)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.experiments.results import ExperimentResult
from repro.experiments.sweeps import run_sweep
from repro.kernels.base import Kernel
from repro.viz import line_chart


def curve_experiment(
    experiment_id: str,
    title: str,
    configs: Sequence[Kernel],
    footprints_mb: Sequence[float],
    platform: str,
) -> ExperimentResult:
    """Throughput-vs-size curves across OPM modes for one kernel."""
    result = ExperimentResult(experiment_id=experiment_id, title=title)
    points, labels = run_sweep(platform, configs)
    fps = np.asarray(list(footprints_mb), dtype=np.float64)
    series = {
        label: np.array([p.gflops(label) for p in points]) for label in labels
    }
    result.figures.append(
        line_chart(fps, series, title=f"{title} (x: footprint MB, log2)")
    )
    result.add_table(
        "curves",
        ("footprint_mb", *(l.replace(" ", "_") for l in labels)),
        [
            (float(fps[i]), *(float(series[l][i]) for l in labels))
            for i in range(len(fps))
        ],
    )
    base = series[labels[0]]
    for label in labels[1:]:
        ratio = series[label] / np.maximum(base, 1e-12)
        result.notes.append(
            f"{label}: max gain {ratio.max():.2f}x over {labels[0]}, "
            f"at footprint {fps[int(np.argmax(ratio))]:.1f} MB."
        )
    return result
