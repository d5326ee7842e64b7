"""Power and energy modelling (RAPL-style domains, Eq. (1) breakeven,
per-level energy ledgers)."""

from repro.power.energy import (
    EnergyComparison,
    breakeven_gain,
    compare,
    energy_delay_product,
    energy_ratio,
)
from repro.power.ledger import (
    DEMO_KERNELS,
    ENERGY_CONFIGS,
    EnergyLedger,
    LevelEnergy,
    PricedRun,
    build_config,
    demo_kernel,
    ledger_from_hierarchy,
    pareto_front,
    platform_pareto,
    price_config,
    price_run,
)
from repro.power.rapl import PowerSample, measure

__all__ = [
    "DEMO_KERNELS",
    "ENERGY_CONFIGS",
    "EnergyComparison",
    "EnergyLedger",
    "LevelEnergy",
    "PowerSample",
    "PricedRun",
    "breakeven_gain",
    "build_config",
    "compare",
    "demo_kernel",
    "energy_delay_product",
    "energy_ratio",
    "ledger_from_hierarchy",
    "measure",
    "pareto_front",
    "platform_pareto",
    "price_config",
    "price_run",
]
