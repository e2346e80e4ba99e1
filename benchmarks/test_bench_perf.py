"""Benchmarks regenerating the kernel performance studies
(paper Figures 13-14 and Table 5)."""

from conftest import regenerate

from repro.analysis.perf import TABLE5_C_VALUES
from repro.compiler.pipeline import clear_cache


def test_fig13_intracluster_kernel_speedup(benchmark, archive):
    clear_cache()
    series = regenerate(benchmark, archive, "fig13")
    hm = dict(
        (cfg.alus_per_cluster, v)
        for cfg, v in series[-1].points
    )
    assert 1.7 <= hm[10] <= 2.05  # near-linear to N=10
    assert hm[14] < 2.75  # sub-linear at N=14


def test_fig14_intercluster_kernel_speedup(benchmark, archive):
    clear_cache()
    series = regenerate(benchmark, archive, "fig14")
    hm = dict((cfg.clusters, v) for cfg, v in series[-1].points)
    assert hm[128] >= 14.0  # near-linear to 128 clusters


def test_table5_performance_per_area(benchmark, archive):
    clear_cache()
    grid = regenerate(benchmark, archive, "table5")
    # The paper's qualitative claims: N>5 configurations are less
    # efficient, intercluster scaling barely moves the metric, and the
    # 640-ALU machine stays within ~10% of the best configuration.
    for c in TABLE5_C_VALUES:
        assert grid[(c, 5)] > grid[(c, 10)] > grid[(c, 14)]
    assert grid[(128, 5)] / max(grid.values()) > 0.85
