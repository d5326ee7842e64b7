"""What every workload receives, and what it hands back."""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

from procs import repro_env
from stats import Outcomes


@dataclasses.dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool
    started: float = dataclasses.field(default_factory=time.perf_counter)

    @property
    def env(self) -> dict[str, str]:
        return repro_env(self.root)

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def subdir(self, name: str) -> Path:
        path = self.work / name
        path.mkdir(parents=True, exist_ok=True)
        return path


@dataclasses.dataclass
class Report:
    metrics: dict[str, float]
    outcomes: Outcomes
    #: Human-readable context printed to standard error.
    notes: dict[str, object] = dataclasses.field(default_factory=dict)


def per_layer_defaults() -> dict[str, float]:
    """Every per-layer metric at 0: a workload sets the layers it touches."""
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return {m["name"]: 0.0 for m in spec["per_layer"]}
