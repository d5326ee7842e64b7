"""Figure 10: SpTRANS (ScanTrans) on Broadwell."""

from __future__ import annotations

from repro.experiments.registry import register
from repro.experiments.results import ExperimentResult
from repro.experiments.sparse_exp import sparse_experiment
from repro.kernels import SptransKernel
from repro.sparse import MatrixDescriptor


def _factory(d: MatrixDescriptor) -> SptransKernel:
    return SptransKernel(descriptor=d, algorithm="scan")


@register("fig10", "SpTRANS (ScanTrans) on Broadwell", "Figure 10")
def run(quick: bool = True) -> ExperimentResult:
    return sparse_experiment(
        "fig10",
        "SpTRANS (ScanTrans) on Broadwell",
        _factory,
        "broadwell",
        quick=quick,
    )
