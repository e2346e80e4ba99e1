"""The paper's headline claims, evaluated on our models (abstract, §1, §5).

* **H1 (640 ALUs)** — a C=128/N=5 processor is feasible at 45 nm,
  sustains over 300 GOPS on kernels, and provides 15.3x kernel / 8.0x
  application speedup over the 40-ALU baseline at only ~2% more area per
  ALU and ~7% more energy per ALU operation.
* **H2 (1280 ALUs)** — a C=128/N=10 processor reaches 27.9x kernel and
  ~10x application harmonic-mean speedups, with a ~29% drop in kernel
  performance per unit area versus the 40-ALU machine, and over a TFLOP
  peak under 10 W at 45 nm.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import BASELINE_CONFIG, HEADLINE_640, HEADLINE_1280
from ..core.costs import CostModel
from ..core.efficiency import harmonic_mean, performance_per_area
from ..core.technology import TECH_45NM, feasibility
from ..kernels.suite import PERFORMANCE_SUITE
from .perf import (
    application_harmonic_speedup,
    kernel_harmonic_gops,
    kernel_harmonic_speedup,
    kernel_rate,
)


@dataclass(frozen=True)
class HeadlineReport:
    """Every number in one headline claim, measured."""

    config_name: str
    area_per_alu_overhead: float
    energy_per_op_overhead: float
    kernel_speedup: float
    application_speedup: float
    kernel_gops: float
    peak_gops: float
    power_watts: float
    perf_per_area: float
    perf_per_area_baseline: float

    @property
    def perf_per_area_drop(self) -> float:
        """Fractional perf/area degradation vs the baseline machine."""
        return 1.0 - self.perf_per_area / self.perf_per_area_baseline


def _report(config, include_apps: bool) -> HeadlineReport:
    base_model = CostModel(BASELINE_CONFIG)
    model = CostModel(config)
    feas = feasibility(config, TECH_45NM, model)

    def perf_area(cfg) -> float:
        return harmonic_mean(
            [
                performance_per_area(cfg, kernel_rate(name, cfg))
                for name in PERFORMANCE_SUITE
            ]
        )

    return HeadlineReport(
        config_name=config.describe(),
        area_per_alu_overhead=(
            model.area_per_alu() / base_model.area_per_alu()
        ),
        energy_per_op_overhead=(
            model.energy_per_alu_op() / base_model.energy_per_alu_op()
        ),
        kernel_speedup=kernel_harmonic_speedup(config),
        application_speedup=(
            application_harmonic_speedup(config)
            if include_apps
            else 0.0
        ),
        kernel_gops=kernel_harmonic_gops(config),
        peak_gops=feas.peak_gops,
        power_watts=feas.power_watts,
        perf_per_area=perf_area(config),
        perf_per_area_baseline=perf_area(BASELINE_CONFIG),
    )


def headline_640(include_apps: bool = True) -> HeadlineReport:
    """H1: the 640-ALU C=128/N=5 machine versus the 40-ALU baseline."""
    return _report(HEADLINE_640, include_apps)


def headline_1280(include_apps: bool = True) -> HeadlineReport:
    """H2: the 1280-ALU C=128/N=10 machine versus the 40-ALU baseline."""
    return _report(HEADLINE_1280, include_apps)
