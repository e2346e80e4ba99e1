"""CSV export of every regenerated figure and table.

``export_all(directory)`` writes one CSV per paper artifact so the data
can be plotted with any external tool; the CLI exposes it as
``python -m repro export --out <dir>``.
"""

from __future__ import annotations

import csv
import pathlib
from typing import Iterable, List, Sequence

from .costplots import (
    figure6_area_intracluster,
    figure7_energy_intracluster,
    figure8_delay_intracluster,
    figure9_area_intercluster,
    figure10_energy_intercluster,
    figure11_delay_intercluster,
    figure12_area_combined,
)
from .perf import (
    TABLE5_C_VALUES,
    TABLE5_N_VALUES,
    figure13_kernel_speedups,
    figure14_kernel_speedups,
    figure15_application_performance,
    table5_performance_per_area,
)
from .tables import table1_parameters, table2_kernel_characteristics


def _write(path: pathlib.Path, header: Sequence[str],
           rows: Iterable[Sequence]) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _stack_rows(points, x_attr: str):
    for p in points:
        x = getattr(p.config, x_attr)
        yield (x, p.srf, p.microcontroller, p.clusters,
               p.intercluster_switch, p.total)


def _delay_rows(points, x_attr: str):
    for p in points:
        yield (getattr(p.config, x_attr), p.intracluster_fo4,
               p.intercluster_fo4)


def _speedup_rows(series, x_attr: str):
    for s in series:
        for config, speedup in s.points:
            yield (s.kernel, getattr(config, x_attr), speedup)


def export_all(
    directory: str, include_applications: bool = True
) -> List[pathlib.Path]:
    """Write every artifact as CSV into ``directory``; returns paths."""
    out = pathlib.Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    written: List[pathlib.Path] = []

    def emit(name: str, header, rows) -> None:
        path = out / name
        _write(path, header, rows)
        written.append(path)

    emit(
        "table1_parameters.csv",
        ("symbol", "value", "description"),
        table1_parameters(),
    )
    emit(
        "table2_kernels.csv",
        ("kernel", "alu_ops", "srf_accesses", "comms", "sp_accesses"),
        (
            (name, row["measured"].alu_ops, row["measured"].srf_accesses,
             row["measured"].comms, row["measured"].sp_accesses)
            for name, row in table2_kernel_characteristics().items()
        ),
    )

    stack_header = ("x", "srf", "microcontroller", "clusters",
                    "intercluster_switch", "total")
    emit("figure6_area_intracluster.csv", stack_header,
         _stack_rows(figure6_area_intracluster(), "alus_per_cluster"))
    emit("figure7_energy_intracluster.csv", stack_header,
         _stack_rows(figure7_energy_intracluster(), "alus_per_cluster"))
    emit("figure8_delay_intracluster.csv",
         ("n", "intracluster_fo4", "intercluster_fo4"),
         _delay_rows(figure8_delay_intracluster(), "alus_per_cluster"))
    emit("figure9_area_intercluster.csv", stack_header,
         _stack_rows(figure9_area_intercluster(), "clusters"))
    emit("figure10_energy_intercluster.csv", stack_header,
         _stack_rows(figure10_energy_intercluster(), "clusters"))
    emit("figure11_delay_intercluster.csv",
         ("c", "intracluster_fo4", "intercluster_fo4"),
         _delay_rows(figure11_delay_intercluster(), "clusters"))
    emit(
        "figure12_area_combined.csv",
        ("n", "total_alus", "area_per_alu"),
        (
            (n, alus, area)
            for n, series in sorted(figure12_area_combined().items())
            for alus, area in series
        ),
    )
    emit("figure13_kernel_speedups.csv", ("kernel", "n", "speedup"),
         _speedup_rows(figure13_kernel_speedups(), "alus_per_cluster"))
    emit("figure14_kernel_speedups.csv", ("kernel", "c", "speedup"),
         _speedup_rows(figure14_kernel_speedups(), "clusters"))

    grid = table5_performance_per_area()
    emit(
        "table5_perf_per_area.csv",
        ("c", "n", "gops_per_area"),
        ((c, n, grid[(c, n)])
         for n in TABLE5_N_VALUES for c in TABLE5_C_VALUES),
    )

    if include_applications:
        emit(
            "figure15_applications.csv",
            ("application", "c", "n", "speedup", "gops"),
            (
                (p.application, p.config.clusters,
                 p.config.alus_per_cluster, p.speedup, p.gops)
                for p in figure15_application_performance()
            ),
        )
    return written
