"""ASCII rendering of regenerated tables and figures, and the study table.

The benchmark harness prints these so that ``pytest benchmarks/``
reproduces, in text form, the same rows and series every paper table and
figure reports.  :data:`STUDIES` names each study once — its title, how
to compute it and how to draw it — so ``repro report``, the benchmark
harness and ``examples/paper_evaluation.py`` print the same text.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Sequence, Tuple

from ..core.scaling import NormalizedPoint
from .costplots import (
    DelayPoint,
    figure6_area_intracluster,
    figure7_energy_intracluster,
    figure8_delay_intracluster,
    figure9_area_intercluster,
    figure10_energy_intercluster,
    figure11_delay_intercluster,
)
from .perf import (
    TABLE5_C_VALUES,
    TABLE5_N_VALUES,
    ApplicationPoint,
    KernelSpeedupSeries,
    figure13_kernel_speedups,
    figure14_kernel_speedups,
    figure15_application_performance,
    table5_performance_per_area,
)


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Plain-text table with right-aligned numeric columns."""
    text_rows = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in text_rows:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-2:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def render_stack_figure(
    title: str, points: Sequence[NormalizedPoint], x_label: str
) -> str:
    """A Figure 6/7/9/10/12-style component stack as a table."""
    rows = []
    for p in points:
        x = (
            p.config.alus_per_cluster
            if x_label == "N"
            else p.config.clusters
        )
        rows.append(
            (
                x,
                p.srf,
                p.microcontroller,
                p.clusters,
                p.intercluster_switch,
                p.total,
            )
        )
    table = format_table(
        (x_label, "SRF", "uC", "Clusters", "InterSW", "Total"), rows
    )
    return f"{title}\n{table}"


def render_delay_figure(
    title: str, points: Sequence[DelayPoint], x_label: str
) -> str:
    """A Figure 8/11-style delay chart as a table."""
    rows = []
    for p in points:
        x = (
            p.config.alus_per_cluster
            if x_label == "N"
            else p.config.clusters
        )
        rows.append((x, p.intracluster_fo4, p.intercluster_fo4))
    table = format_table(
        (x_label, "t_intra (FO4)", "t_inter (FO4)"), rows
    )
    return f"{title}\n{table}"


def render_speedup_figure(
    title: str, series: Sequence[KernelSpeedupSeries], x_label: str
) -> str:
    """A Figure 13/14-style speedup chart as a table."""
    xs: List[int] = []
    for config, _speedup in series[0].points:
        xs.append(
            config.alus_per_cluster if x_label == "N" else config.clusters
        )
    headers = ["kernel"] + [f"{x_label}={x}" for x in xs]
    rows = [
        [s.kernel] + [speedup for _cfg, speedup in s.points] for s in series
    ]
    return f"{title}\n{format_table(headers, rows)}"


def render_application_figure(
    title: str, points: Sequence[ApplicationPoint]
) -> str:
    """The Figure 15 bars as a table (speedup and GOPS per bar)."""
    rows = [
        (
            p.application,
            p.config.clusters,
            p.config.alus_per_cluster,
            p.speedup,
            p.gops,
        )
        for p in points
    ]
    table = format_table(("app", "C", "N", "speedup", "GOPS"), rows)
    return f"{title}\n{table}"


def render_grid(
    title: str,
    grid: Dict[Tuple[int, int], float],
    c_values: Sequence[int],
    n_values: Sequence[int],
) -> str:
    """A Table 5-style (C x N) grid."""
    headers = ["N \\ C"] + [str(c) for c in c_values]
    rows = []
    for n in n_values:
        rows.append([str(n)] + [grid[(c, n)] for c in c_values])
    return f"{title}\n{format_table(headers, rows)}"


@dataclass(frozen=True)
class Study:
    """One paper study: its name, its title as archived under
    ``benchmarks/output/``, how to compute its data and how to draw it
    (``render(title, data)``)."""

    name: str
    title: str
    compute: Callable[[], Any]
    render: Callable[[str, Any], str]

    def text(self) -> str:
        """The study computed and drawn under its title."""
        return self.render(self.title, self.compute())


#: The paper's figure and table studies in paper order, by name.
STUDIES: Dict[str, Study] = {study.name: study for study in (
    Study("fig6", "Figure 6: Area per ALU, intracluster scaling "
                  "(C=8, normalized to N=5)",
          figure6_area_intracluster,
          partial(render_stack_figure, x_label="N")),
    Study("fig7", "Figure 7: Energy per ALU op, intracluster scaling "
                  "(C=8, normalized to N=5)",
          figure7_energy_intracluster,
          partial(render_stack_figure, x_label="N")),
    Study("fig8", "Figure 8: Delay of intracluster scaling (C=8)",
          figure8_delay_intracluster,
          partial(render_delay_figure, x_label="N")),
    Study("fig9", "Figure 9: Area per ALU, intercluster scaling "
                  "(N=5, normalized to C=8)",
          figure9_area_intercluster,
          partial(render_stack_figure, x_label="C")),
    Study("fig10", "Figure 10: Energy per ALU op, intercluster scaling "
                   "(N=5, normalized to C=8)",
          figure10_energy_intercluster,
          partial(render_stack_figure, x_label="C")),
    Study("fig11", "Figure 11: Delay of intercluster scaling (N=5)",
          figure11_delay_intercluster,
          partial(render_delay_figure, x_label="C")),
    Study("fig13", "Figure 13: Intracluster kernel speedup "
                   "(C=8, over C=8/N=5)",
          figure13_kernel_speedups,
          partial(render_speedup_figure, x_label="N")),
    Study("fig14", "Figure 14: Intercluster kernel speedup "
                   "(N=5, over C=8/N=5)",
          figure14_kernel_speedups,
          partial(render_speedup_figure, x_label="C")),
    Study("table5", "Table 5: Kernel performance per unit area "
                    "(harmonic mean of 6 kernels; N-ALU-equivalent units)",
          table5_performance_per_area,
          partial(render_grid, c_values=TABLE5_C_VALUES,
                  n_values=TABLE5_N_VALUES)),
    Study("fig15", "Figure 15: Application performance "
                   "(speedup over C=8/N=5; sustained GOPS at 1 GHz)",
          figure15_application_performance,
          render_application_figure),
)}
