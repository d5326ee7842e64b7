"""Figure 11: SpTRSV (level-scheduled) on Broadwell."""

from __future__ import annotations

from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.experiments.sparse_exp import sparse_experiment
from repro.kernels import SptrsvKernel
from repro.sparse import MatrixDescriptor


def _factory(d: MatrixDescriptor) -> SptrsvKernel:
    return SptrsvKernel(descriptor=d)


@register("fig11", "SpTRSV (level-scheduled) on Broadwell", "Figure 11")
def run(quick: bool = True) -> ExperimentResult:
    return sparse_experiment(
        "fig11",
        "SpTRSV (level-scheduled) on Broadwell",
        _factory,
        "broadwell",
        quick=quick,
    )
