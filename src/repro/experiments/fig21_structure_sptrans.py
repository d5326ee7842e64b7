"""Figure 21: structure impact of SpTRANS on KNL (speedup by rows x nnz)."""

from __future__ import annotations

from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.experiments.sparse_exp import structure_experiment
from repro.kernels import SptransKernel
from repro.sparse import MatrixDescriptor


def _factory(d: MatrixDescriptor) -> SptransKernel:
    return SptransKernel(descriptor=d, algorithm="merge")


@register("fig21", "Structure impact of SpTRANS on KNL", "Figure 21")
def run(quick: bool = True) -> ExperimentResult:
    return structure_experiment(
        "fig21",
        "SpTRANS",
        _factory,
        quick=quick,
        finding="small overall problems reuse best; SpTRANS has little other reuse.",
    )
