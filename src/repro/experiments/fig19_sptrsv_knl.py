"""Figure 19: SpTRSV (level-scheduled) on KNL."""

from __future__ import annotations

from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.experiments.sparse_exp import sparse_experiment
from repro.kernels import SptrsvKernel
from repro.sparse import MatrixDescriptor


def _factory(d: MatrixDescriptor) -> SptrsvKernel:
    return SptrsvKernel(descriptor=d)


@register("fig19", "SpTRSV (level-scheduled) on KNL", "Figure 19")
def run(quick: bool = True) -> ExperimentResult:
    return sparse_experiment(
        "fig19",
        "SpTRSV (level-scheduled) on KNL",
        _factory,
        "knl",
        quick=quick,
    )
