"""Figure 20: structure impact of SpMV on KNL (speedup by rows x nnz)."""

from __future__ import annotations

from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.experiments.sparse_exp import structure_experiment
from repro.kernels import SpmvKernel
from repro.sparse import MatrixDescriptor


def _factory(d: MatrixDescriptor) -> SpmvKernel:
    return SpmvKernel(descriptor=d)


@register("fig20", "Structure impact of SpMV on KNL", "Figure 20")
def run(quick: bool = True) -> ExperimentResult:
    return structure_experiment(
        "fig20",
        "SpMV",
        _factory,
        quick=quick,
        finding="small row counts cache their vectors efficiently.",
    )
