"""Figure 22: structure impact of SpTRSV on KNL (speedup by rows x nnz)."""

from __future__ import annotations

from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.experiments.sparse_exp import structure_experiment
from repro.kernels import SptrsvKernel
from repro.sparse import MatrixDescriptor


def _factory(d: MatrixDescriptor) -> SptrsvKernel:
    return SptrsvKernel(descriptor=d)


@register("fig22", "Structure impact of SpTRSV on KNL", "Figure 22")
def run(quick: bool = True) -> ExperimentResult:
    return structure_experiment(
        "fig22",
        "SpTRSV",
        _factory,
        quick=quick,
        finding="few rows with moderate nonzeros keep the solve vector cached.",
    )
