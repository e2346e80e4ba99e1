"""Performance-efficiency metrics (paper Table 5 and section 5.2).

The paper's Table 5 reports *kernel performance per unit area* where the
unit is chosen so that "a processor with an area of exactly N ALUs
performing N operations per cycle (N GOPS at 1 GHz) would have GOPS per
area of exactly 1.0".  That is: sustained operations per cycle divided by
the processor's area measured in bare-ALU equivalents.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from .config import ProcessorConfig
from .costs import CostModel


def alu_equivalent_area(config: ProcessorConfig) -> float:
    """Area of one bare ALU datapath (grids): the Table 5 area unit."""
    return config.params.w_alu * config.params.h


@functools.lru_cache(maxsize=256)
def area_in_alu_equivalents(config: ProcessorConfig) -> float:
    """Total chip area expressed in bare-ALU equivalents (memoized: a
    pure function of the frozen config)."""
    return CostModel(config).area().total / alu_equivalent_area(config)


def performance_per_area(
    config: ProcessorConfig, sustained_ops_per_cycle: float
) -> float:
    """Table 5's metric: sustained ops/cycle per ALU-equivalent of area.

    ``sustained_ops_per_cycle`` is whole-chip (all ``C`` clusters); for a
    kernel with inner-loop initiation interval ``II`` and ``W`` ALU
    operations per iteration it is ``W * C / II``.
    """
    if sustained_ops_per_cycle < 0:
        raise ValueError("sustained performance cannot be negative")
    return sustained_ops_per_cycle / area_in_alu_equivalents(config)


def harmonic_mean(values: Sequence[float]) -> float:
    """Harmonic mean, the paper's aggregate for kernel/app speedups."""
    if not values:
        raise ValueError("harmonic mean of an empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("harmonic mean requires positive values")
    return len(values) / sum(1.0 / v for v in values)


@dataclass(frozen=True)
class EfficiencySummary:
    """Peak-rate summary of one configuration at a given clock."""

    config: ProcessorConfig
    clock_ghz: float
    peak_gops: float
    area_alu_equivalents: float
    peak_gops_per_area: float


def summarize(config: ProcessorConfig, clock_ghz: float = 1.0) -> EfficiencySummary:
    """Peak (not sustained) efficiency of a configuration."""
    if clock_ghz <= 0:
        raise ValueError("clock must be positive")
    area_units = area_in_alu_equivalents(config)
    peak = config.total_alus * clock_ghz
    return EfficiencySummary(
        config=config,
        clock_ghz=clock_ghz,
        peak_gops=peak,
        area_alu_equivalents=area_units,
        peak_gops_per_area=peak / (area_units * clock_ghz),
    )
