"""Kernel base class.

Each of the paper's eight kernels is a :class:`Kernel` subclass with three
faces:

* ``run()`` — a *functional* NumPy implementation that computes the actual
  result, validated against SciPy/NumPy oracles in the test suite.
* ``profile()`` — the analytic :class:`~repro.kernels.profile.WorkloadProfile`
  consumed by the performance engine for full-scale sweeps.
* ``flops()`` — the Table 2 operation count used as the GFlop/s numerator.

The paper treats its kernels as black boxes (Section 3.1); the profile is
our white-box characterization of the same access behaviour.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any

from repro import telemetry
from repro.kernels.profile import WorkloadProfile
from repro.telemetry import names as tm

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.memory.hierarchy import Hierarchy
    from repro.memory.stats import HierarchyStats


class Kernel(abc.ABC):
    """Abstract scientific kernel."""

    #: Short name matching Table 2 ("gemm", "spmv", ...).
    name: str = ""

    @abc.abstractmethod
    def run(self) -> Any:
        """Execute the functional implementation and return its result."""

    @abc.abstractmethod
    def profile(self) -> WorkloadProfile:
        """Analytic workload profile for the performance engine."""

    @abc.abstractmethod
    def flops(self) -> float:
        """Useful floating-point operations (Table 2 accounting)."""

    def validate(self) -> bool:
        """Run the kernel against its oracle; True when results agree.

        Subclasses with a natural oracle override this; the default just
        checks that ``run`` completes.
        """
        self.run()
        return True

    # -- instrumented face ---------------------------------------------------

    def simulate(
        self, hierarchy: "Hierarchy", *, reps: int = 1
    ) -> "HierarchyStats":
        """Drive the exact simulator with this kernel's trace.

        Opens a ``kernel.simulate`` span enclosing both trace generation
        (:func:`repro.kernels.traces.kernel_trace_chunks`) and the
        hierarchy replay, and returns the per-level statistics.
        """
        from repro.kernels.traces import kernel_trace_chunks

        with telemetry.span(tm.SPAN_KERNEL_SIMULATE, kernel=self.name, reps=reps):
            return hierarchy.run_batched(
                kernel_trace_chunks(self, reps=reps, line=hierarchy.line)
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
