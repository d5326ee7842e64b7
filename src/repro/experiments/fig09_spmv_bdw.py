"""Figure 9: SpMV (CSR5) on Broadwell."""

from __future__ import annotations

from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.experiments.sparse_exp import sparse_experiment
from repro.kernels import SpmvKernel
from repro.sparse import MatrixDescriptor


def _factory(d: MatrixDescriptor) -> SpmvKernel:
    return SpmvKernel(descriptor=d)


@register("fig9", "SpMV (CSR5) on Broadwell", "Figure 9")
def run(quick: bool = True) -> ExperimentResult:
    return sparse_experiment(
        "fig9",
        "SpMV (CSR5) on Broadwell",
        _factory,
        "broadwell",
        quick=quick,
    )
