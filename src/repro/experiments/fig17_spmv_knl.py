"""Figure 17: SpMV (CSR5) on KNL."""

from __future__ import annotations

from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.experiments.sparse_exp import sparse_experiment
from repro.kernels import SpmvKernel
from repro.sparse import MatrixDescriptor


def _factory(d: MatrixDescriptor) -> SpmvKernel:
    return SpmvKernel(descriptor=d)


@register("fig17", "SpMV (CSR5) on KNL", "Figure 17")
def run(quick: bool = True) -> ExperimentResult:
    return sparse_experiment(
        "fig17",
        "SpMV (CSR5) on KNL",
        _factory,
        "knl",
        quick=quick,
    )
