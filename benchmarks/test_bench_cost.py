"""Benchmarks regenerating the cost figures (paper Figures 6-12) and the
section 3 unified-register-file baseline."""

from conftest import regenerate, run_once

from repro.analysis.costplots import figure12_area_combined
from repro.analysis.report import format_table
from repro.core.baseline import compare_unified_vs_stream, unified_cycle_time_fo4


def test_fig6_intracluster_area(benchmark, archive):
    points = regenerate(benchmark, archive, "fig6")
    best = min(points, key=lambda p: p.total)
    assert best.config.alus_per_cluster == 5


def test_fig7_intracluster_energy(benchmark, archive):
    points = regenerate(benchmark, archive, "fig7")
    at16 = next(p for p in points if p.config.alus_per_cluster == 16)
    assert 1.1 < at16.total < 1.35  # paper: 1.23x


def test_fig8_intracluster_delay(benchmark, archive):
    points = regenerate(benchmark, archive, "fig8")
    assert points[-1].intercluster_fo4 > points[0].intercluster_fo4


def test_fig9_intercluster_area(benchmark, archive):
    points = regenerate(benchmark, archive, "fig9")
    at128 = next(p for p in points if p.config.clusters == 128)
    assert 0.99 <= at128.total <= 1.06  # paper: +2%


def test_fig10_intercluster_energy(benchmark, archive):
    points = regenerate(benchmark, archive, "fig10")
    at128 = next(p for p in points if p.config.clusters == 128)
    assert 1.03 <= at128.total <= 1.13  # paper: +7%


def test_fig11_intercluster_delay(benchmark, archive):
    points = regenerate(benchmark, archive, "fig11")
    intra = [p.intracluster_fo4 for p in points]
    assert max(intra) - min(intra) < 1e-9  # flat, as in the figure


def test_fig12_combined_area(benchmark, archive):
    curves = run_once(benchmark, figure12_area_combined)
    rows = []
    for n, series in sorted(curves.items()):
        for alus, value in series:
            rows.append((n, alus, value))
    archive(
        "Figure 12: Area per ALU, combined scaling "
        "(normalized to C=32 N=5)\n"
        + format_table(("N", "Total ALUs", "Area/ALU"), rows)
    )
    assert set(curves) == {2, 5, 16}


def test_baseline_unified_rf(benchmark, archive):
    comparison = run_once(benchmark, compare_unified_vs_stream)
    text = format_table(
        ("Metric", "Unified RF", "Stream org", "Ratio"),
        [
            (
                "register area (grids)",
                comparison.unified_area,
                comparison.stream_area,
                comparison.area_ratio,
            ),
            (
                "energy per ALU op (E_w)",
                comparison.unified_energy_per_op,
                comparison.stream_energy_per_op,
                comparison.energy_ratio,
            ),
            (
                "access delay (FO4)",
                unified_cycle_time_fo4(),
                45.0,
                unified_cycle_time_fo4() / 45.0,
            ),
        ],
    )
    archive(
        "Section 3 baseline: 48-ALU unified register file vs C=8/N=6 "
        "stream organization\n(paper cites 195x area / 430x energy from "
        "Rixner et al.)\n" + text
    )
    assert comparison.area_ratio > 100
    assert comparison.energy_ratio > 100
