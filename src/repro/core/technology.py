"""Technology-scaling context (paper sections 1, 2.2, and 5).

The paper's motivation rests on two ITRS-era trends:

* arithmetic capability (ALUs x frequency) grows ~70% per year, while
* off-chip bandwidth grows only ~25% per year,

so the ratio of on-chip arithmetic to off-chip words widens ~36% per year,
and architectures must exploit locality to convert the widening gap into
performance.  This module provides those trend models plus the feasibility
arithmetic behind the paper's headline: a 45 nm / 2007 stream processor
with 1280 ALUs sustaining over a TFLOP in under 10 W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .config import ProcessorConfig
from .costs import CostModel
from .params import TECH_45NM, TECH_180NM, TechnologyNode

#: Annual growth of arithmetic capability (number of ALUs x frequency).
ARITHMETIC_GROWTH_PER_YEAR = 0.70

#: Annual growth of off-chip (pin + DRAM) bandwidth.
BANDWIDTH_GROWTH_PER_YEAR = 0.25


def arithmetic_scaling(years: float) -> float:
    """Factor by which on-chip arithmetic grows over ``years`` years."""
    if years < 0:
        raise ValueError("years must be non-negative")
    return (1.0 + ARITHMETIC_GROWTH_PER_YEAR) ** years


def bandwidth_scaling(years: float) -> float:
    """Factor by which off-chip bandwidth grows over ``years`` years."""
    if years < 0:
        raise ValueError("years must be non-negative")
    return (1.0 + BANDWIDTH_GROWTH_PER_YEAR) ** years


def arithmetic_bandwidth_gap(years: float) -> float:
    """How much the arithmetic:bandwidth ratio widens over ``years``."""
    return arithmetic_scaling(years) / bandwidth_scaling(years)


@dataclass(frozen=True)
class FeasibilityReport:
    """Absolute feasibility numbers for one configuration at one node."""

    config: ProcessorConfig
    node: TechnologyNode
    clock_ghz: float
    peak_gops: float
    area_mm2: float
    power_watts: float
    memory_bw_gwords: float
    ops_per_memory_word: float


def feasibility(
    config: ProcessorConfig,
    node: TechnologyNode = TECH_45NM,
    model: Optional[CostModel] = None,
) -> FeasibilityReport:
    """Evaluate a configuration's absolute feasibility at a process node.

    Reproduces the arithmetic behind the paper's conclusion: at 45 nm a
    C=128/N=10 processor (1280 ALUs) provides >1 TFLOP peak in <10 W.
    ``model`` is ``config``'s cost model when the caller already holds
    one, so the area and energy it has evaluated are not derived again.
    """
    if model is None:
        model = CostModel(config)
    clock = node.clock_ghz(config.params.t_cyc)
    peak_gops = config.total_alus * clock
    area = node.grids_to_mm2(model.area().total)
    # Energy per cycle at full utilization -> watts at the node's clock.
    energy_per_cycle_j = node.energy_to_joules(model.energy().total)
    power = energy_per_cycle_j * clock * 1e9
    mem_words = node.memory_bw_gbps / (config.params.b / 8.0)
    return FeasibilityReport(
        config=config,
        node=node,
        clock_ghz=clock,
        peak_gops=peak_gops,
        area_mm2=area,
        power_watts=power,
        memory_bw_gwords=mem_words,
        ops_per_memory_word=peak_gops / mem_words,
    )


@dataclass(frozen=True)
class BandwidthHierarchy:
    """Peak bandwidth of the three register-hierarchy tiers (GB/s).

    Section 2.2 quotes Imagine's tiers: 2.3 GB/s memory, 19.2 GB/s SRF,
    and 326.4 GB/s LRF — a ratio of roughly 1 : 8 : 142 — supporting 28
    ALU operations per memory word referenced.
    """

    memory_gbps: float
    srf_gbps: float
    lrf_gbps: float
    ops_per_memory_word: float

    @property
    def locality_fraction(self) -> float:
        """Fraction of all data movement kept on chip (paper: >90%)."""
        on_chip = self.srf_gbps + self.lrf_gbps
        return on_chip / (on_chip + self.memory_gbps)

    @property
    def memory_fraction(self) -> float:
        """Fraction of total bandwidth served by memory (paper: <=1%)."""
        return 1.0 - self.locality_fraction


def bandwidth_hierarchy(
    config: ProcessorConfig,
    node: TechnologyNode = TECH_180NM,
    clock_ghz: float | None = None,
) -> BandwidthHierarchy:
    """Compute the three-tier bandwidth hierarchy of a configuration.

    With the Imagine configuration (C=8, N=6) at its ~133 MHz higher-level
    clock this reproduces the section 2.2 numbers within model accuracy.
    """
    clock = clock_ghz if clock_ghz is not None else node.clock_ghz(
        config.params.t_cyc
    )
    word_bytes = config.params.b / 8.0
    srf = config.srf_bandwidth_words * word_bytes * clock
    lrf = config.lrf_bandwidth_words * word_bytes * clock
    peak_ops = config.total_alus * clock
    mem_words = node.memory_bw_gbps / word_bytes
    return BandwidthHierarchy(
        memory_gbps=node.memory_bw_gbps,
        srf_gbps=srf,
        lrf_gbps=lrf,
        ops_per_memory_word=peak_ops / mem_words,
    )


def alus_feasible(
    node: TechnologyNode,
    reference_node: TechnologyNode = TECH_180NM,
    reference_alus: int = 48,
    die_growth: float = 1.4,
) -> int:
    """ALUs that fit in a die budget, scaled from a reference node.

    ALU area scales with the square of the track pitch, and economical
    die sizes grow slowly across nodes (the ITRS ``die_growth`` factor) —
    together giving the paper's "over a thousand floating-point units"
    feasible at 45 nm, up from Imagine's 48 at 180 nm.
    """
    if die_growth <= 0:
        raise ValueError("die growth factor must be positive")
    growth = (reference_node.track_um / node.track_um) ** 2 * die_growth
    return int(math.floor(reference_alus * growth))
