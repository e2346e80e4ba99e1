"""Regeneration of the performance studies (Figures 13-15, Table 5).

Kernel inner-loop rates come from static analysis of compiled kernels
(the modulo scheduler's initiation intervals), exactly as in the paper's
section 5.1; application results come from the whole-program timing
recurrence (:func:`repro.analysis.model.predict_application`).

Every grid walk below routes through the shared
:class:`~repro.analysis.sweep.SweepEngine`, so the figures, Table 5,
the harmonic-mean headline numbers and ``validate`` all draw on one
memo cache: the C=8/N=5 baseline is simulated once per process, not
once per caller, and regenerating a figure twice costs one sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..apps.suite import APPLICATION_ORDER
from ..core.config import ProcessorConfig
from ..core.efficiency import harmonic_mean, performance_per_area
from ..kernels.suite import PERFORMANCE_SUITE
from ..sim.metrics import SimulationResult
from .sweep import SweepEngine, default_engine

#: Paper baseline: every speedup is over the C=8/N=5 (40-ALU) machine.
BASELINE = (8, 5)

#: Figure 13's x-axis (ALUs per cluster, at C=8).
FIG13_N_VALUES = (2, 5, 10, 14)

#: Figure 14's x-axis (clusters, at N=5).
FIG14_C_VALUES = (8, 16, 32, 64, 128)

#: Figure 15 / Table 5 grids.
FIG15_N_VALUES = (5, 10, 14)
TABLE5_N_VALUES = (2, 5, 10, 14)
TABLE5_C_VALUES = (8, 16, 32, 64, 128)


def kernel_rate(name: str, config: ProcessorConfig) -> float:
    """Sustained inner-loop ALU operations per cycle, whole chip."""
    return default_engine().kernel_rate(name, config)


@dataclass(frozen=True)
class KernelSpeedupSeries:
    """One kernel's speedup curve plus the harmonic-mean curve key."""

    kernel: str
    points: Tuple[Tuple[ProcessorConfig, float], ...]


def figure13_kernel_speedups(
    n_values: Sequence[int] = FIG13_N_VALUES,
    kernels: Optional[Sequence[str]] = None,
) -> List[KernelSpeedupSeries]:
    """Figure 13: intracluster kernel speedups over C=8/N=5, at C=8.

    ``kernels`` restricts the study to a subset of the suite — or to
    registered ``kernel:<hash>`` names — instead of the full
    :data:`PERFORMANCE_SUITE`.
    """
    return _kernel_speedups(
        [ProcessorConfig(BASELINE[0], n) for n in n_values], kernels
    )


def figure14_kernel_speedups(
    c_values: Sequence[int] = FIG14_C_VALUES,
    kernels: Optional[Sequence[str]] = None,
) -> List[KernelSpeedupSeries]:
    """Figure 14: intercluster kernel speedups over C=8/N=5, at N=5."""
    return _kernel_speedups(
        [ProcessorConfig(c, BASELINE[1]) for c in c_values], kernels
    )


def _kernel_speedups(
    configs: Sequence[ProcessorConfig],
    kernels: Optional[Sequence[str]] = None,
) -> List[KernelSpeedupSeries]:
    suite = tuple(kernels) if kernels else PERFORMANCE_SUITE
    row = [ProcessorConfig(*BASELINE), *configs]
    rates = default_engine().compile_kernels(
        [(name, config) for name in suite for config in row]
    )
    series: List[KernelSpeedupSeries] = []
    per_config_speedups: Dict[ProcessorConfig, List[float]] = {
        c: [] for c in configs
    }
    for index, name in enumerate(suite):
        base_rate, *config_rates = rates[
            index * len(row):(index + 1) * len(row)
        ]
        points = []
        for config, rate in zip(configs, config_rates):
            speedup = rate / base_rate
            points.append((config, speedup))
            per_config_speedups[config].append(speedup)
        series.append(KernelSpeedupSeries(kernel=name, points=tuple(points)))
    series.append(
        KernelSpeedupSeries(
            kernel="harmonic_mean",
            points=tuple(
                (config, harmonic_mean(per_config_speedups[config]))
                for config in configs
            ),
        )
    )
    return series


def kernel_harmonic_speedup(config: ProcessorConfig) -> float:
    """Harmonic-mean kernel speedup of ``config`` over the baseline."""
    engine = default_engine()
    baseline = ProcessorConfig(*BASELINE)
    speedups = [
        engine.kernel_rate(name, config)
        / engine.kernel_rate(name, baseline)
        for name in PERFORMANCE_SUITE
    ]
    return harmonic_mean(speedups)


def kernel_harmonic_gops(
    config: ProcessorConfig, clock_ghz: float = 1.0
) -> float:
    """Harmonic-mean sustained kernel GOPS of ``config``."""
    engine = default_engine()
    rates = [
        engine.kernel_rate(name, config) * clock_ghz
        for name in PERFORMANCE_SUITE
    ]
    return harmonic_mean(rates)


def table5_performance_per_area(
    n_values: Sequence[int] = TABLE5_N_VALUES,
    c_values: Sequence[int] = TABLE5_C_VALUES,
    kernels: Optional[Sequence[str]] = None,
) -> Dict[Tuple[int, int], float]:
    """Table 5: harmonic-mean kernel GOPS per unit area over the grid.

    The unit is chosen as in the paper: a processor with the area of
    exactly N bare ALUs sustaining N ops/cycle scores 1.0.  ``kernels``
    restricts the harmonic mean to a subset of the suite (or to
    registered ``kernel:<hash>`` names).
    """
    suite = tuple(kernels) if kernels else PERFORMANCE_SUITE
    configs = [ProcessorConfig(c, n) for n in n_values for c in c_values]
    rates = default_engine().compile_kernels(
        [(name, config) for name in suite for config in configs]
    )
    # rates is kernel-major: config i's rates sit len(configs) apart.
    grid: Dict[Tuple[int, int], float] = {}
    for index, config in enumerate(configs):
        efficiencies = [
            performance_per_area(config, rate)
            for rate in rates[index::len(configs)]
        ]
        grid[(config.clusters, config.alus_per_cluster)] = harmonic_mean(
            efficiencies
        )
    return grid


@dataclass(frozen=True)
class ApplicationPoint:
    """One Figure 15 bar: an application on one configuration."""

    application: str
    config: ProcessorConfig
    speedup: float
    gops: float
    result: SimulationResult


def figure15_application_performance(
    c_values: Sequence[int] = FIG14_C_VALUES,
    n_values: Sequence[int] = FIG15_N_VALUES,
    applications: Sequence[str] = APPLICATION_ORDER,
    engine: Optional[SweepEngine] = None,
) -> List[ApplicationPoint]:
    """Figure 15: application speedups over C=8/N=5 and sustained GOPS.

    All ``len(applications) * len(n_values) * len(c_values)`` points
    (plus each application's baseline, built once, not once per grid
    row) resolve through the sweep cache.  Point values and ordering
    are identical to an uncached run.
    """
    engine = engine if engine is not None else default_engine()
    baseline_config = ProcessorConfig(*BASELINE)
    grid = [
        (name, ProcessorConfig(c, n))
        for name in applications
        for n in n_values
        for c in c_values
    ]
    wanted = [(name, baseline_config) for name in applications] + grid
    engine.simulate_many(wanted)

    points: List[ApplicationPoint] = []
    for name in applications:
        baseline = engine.simulate_application(name, baseline_config)
        for n in n_values:
            for c in c_values:
                config = ProcessorConfig(c, n)
                result = engine.simulate_application(name, config)
                points.append(
                    ApplicationPoint(
                        application=name,
                        config=config,
                        speedup=result.speedup_over(baseline),
                        gops=result.gops,
                        result=result,
                    )
                )
    return points


def application_harmonic_speedup(
    config: ProcessorConfig,
    engine: Optional[SweepEngine] = None,
) -> float:
    """Harmonic-mean application speedup of ``config`` over the baseline.

    The baseline runs resolve through the sweep cache, so repeated
    calls (the headline reports, ``validate``, Figure 15) simulate the
    C=8/N=5 machine once per application per process, not per call.
    """
    engine = engine if engine is not None else default_engine()
    baseline_config = ProcessorConfig(*BASELINE)
    speedups = []
    for name in APPLICATION_ORDER:
        baseline = engine.simulate_application(name, baseline_config)
        result = engine.simulate_application(name, config)
        speedups.append(result.speedup_over(baseline))
    return harmonic_mean(speedups)
