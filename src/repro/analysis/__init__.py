"""Regeneration of every paper table and figure, with paper anchors."""

from . import anchors
from .export import export_all
from .floorplan import floorplan, render_area_bar, render_floorplan
from .power import PowerEstimate, estimate_power
from .kernelreport import compilation_report, render_compilation_report
from .timeline import overlap_summary, render_gantt
from .costplots import (
    DelayPoint,
    figure6_area_intracluster,
    figure7_energy_intracluster,
    figure8_delay_intracluster,
    figure9_area_intercluster,
    figure10_energy_intercluster,
    figure11_delay_intercluster,
    figure12_area_combined,
)
from .headline import HeadlineReport, headline_640, headline_1280
from .perf import (
    ApplicationPoint,
    KernelSpeedupSeries,
    application_harmonic_speedup,
    figure13_kernel_speedups,
    figure14_kernel_speedups,
    figure15_application_performance,
    kernel_harmonic_gops,
    kernel_harmonic_speedup,
    kernel_rate,
    table5_performance_per_area,
)
from .sweep import (
    SweepEngine,
    clear_sweep_cache,
    default_engine,
)
from .report import (
    STUDIES,
    Study,
    format_table,
    render_application_figure,
    render_delay_figure,
    render_grid,
    render_speedup_figure,
    render_stack_figure,
)
from .validate import AnchorResult, render_validation, validate_all
from .tables import (
    table1_parameters,
    table2_kernel_characteristics,
    table3_cost_rows,
    table4_suite,
)

__all__ = [
    "ApplicationPoint",
    "DelayPoint",
    "HeadlineReport",
    "KernelSpeedupSeries",
    "AnchorResult",
    "STUDIES",
    "Study",
    "SweepEngine",
    "anchors",
    "clear_sweep_cache",
    "default_engine",
    "PowerEstimate",
    "compilation_report",
    "estimate_power",
    "floorplan",
    "export_all",
    "application_harmonic_speedup",
    "figure6_area_intracluster",
    "figure7_energy_intracluster",
    "figure8_delay_intracluster",
    "figure9_area_intercluster",
    "figure10_energy_intercluster",
    "figure11_delay_intercluster",
    "figure12_area_combined",
    "figure13_kernel_speedups",
    "figure14_kernel_speedups",
    "figure15_application_performance",
    "format_table",
    "headline_1280",
    "headline_640",
    "kernel_harmonic_gops",
    "kernel_harmonic_speedup",
    "kernel_rate",
    "render_application_figure",
    "render_delay_figure",
    "render_grid",
    "render_speedup_figure",
    "render_stack_figure",
    "overlap_summary",
    "render_area_bar",
    "render_floorplan",
    "render_compilation_report",
    "render_gantt",
    "render_validation",
    "table1_parameters",
    "table2_kernel_characteristics",
    "table3_cost_rows",
    "table4_suite",
    "table5_performance_per_area",
    "validate_all",
]
