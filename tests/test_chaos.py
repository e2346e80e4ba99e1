"""Chaos suite: the paper sweeps under injected faults.

Every test here runs a real figure-13-style kernel grid or a Table-5 /
figure-15-style application sweep with a :class:`repro.resilience`
fault plan active, and asserts the two contract halves of the ISSUE:

* **bit-identity** — whenever the run succeeds, its results equal the
  fault-free serial oracle exactly (no "close enough" tolerance);
* **accounted recovery** — the retry/fallback counters match what the
  injected plan must have caused (exact where the plan is
  deterministic, lower-bounded where pool scheduling varies).

``REPRO_CHAOS_SEED`` reseeds the probabilistic plans (CI runs several
seeds); every assertion below must hold for *any* seed, which is the
point — recovery may take different paths, results may not differ.
"""

import os

import pytest

from repro.analysis.sweep import SweepEngine
from repro.compiler import (
    clear_cache,
    configure_default_cache,
    default_cache,
)
from repro.core.config import ProcessorConfig
from repro.kernels.suite import PERFORMANCE_SUITE
from repro.obs.metrics import MetricsRegistry
from repro.resilience import (
    FaultPlan,
    FaultRule,
    clear_plan,
    install_plan,
)

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

#: Figure-13 cut: the kernel suite across intracluster scaling points.
FIG13_GRID = [
    (name, ProcessorConfig(8, n))
    for name in PERFORMANCE_SUITE
    for n in (5, 10)
]

#: Table-5 / figure-15 cut: applications across machine points.
APP_POINTS = [
    ("fft1k", ProcessorConfig(8, 5)),
    ("fft1k", ProcessorConfig(16, 5)),
    ("depth", ProcessorConfig(8, 5)),
]


@pytest.fixture(scope="module")
def gold_rates():
    """Fault-free kernel rates (values independent of cache state)."""
    return SweepEngine().compile_kernels(FIG13_GRID)


@pytest.fixture(scope="module")
def gold_sims():
    """Fault-free serial application results — the identity oracle."""
    return SweepEngine().simulate_many(APP_POINTS)


@pytest.fixture(autouse=True)
def _chaos_sandbox(tmp_path):
    """Each test: no leaked plan, cold compile memo, private disk cache
    (so compile fan-outs really pool instead of hitting warm caches)."""
    clear_plan()
    clear_cache()
    configure_default_cache(cache_dir=tmp_path / "schedules")
    yield
    clear_plan()
    clear_cache()
    configure_default_cache()  # back to the env-configured default


class TestCompileChaos:
    def test_transient_faults_grid_bit_identical(self, gold_rates):
        """Probabilistic transient failures in compile workers: every
        task retries to success and the grid matches the oracle."""
        install_plan(FaultPlan(seed=CHAOS_SEED, rules=(
            FaultRule(site="compile.point", kind="transient",
                      probability=0.35, max_fires=40, workers_only=True),
        )))
        metrics = MetricsRegistry()
        engine = SweepEngine(metrics=metrics)
        assert engine.compile_kernels(FIG13_GRID, workers=2) == gold_rates
        # Every unique grid point was ultimately produced by the pool
        # ladder (retried, escalated serially, or clean) — none lost.
        assert metrics.counter("resilience.tasks_ok").value == len(
            FIG13_GRID
        )

    def test_oom_storm_degrades_to_serial_compiles(self, gold_rates):
        """Allocation failure on *every* pooled compile: the pool path
        yields nothing, the serial pass still builds the exact grid."""
        install_plan(FaultPlan(seed=CHAOS_SEED, rules=(
            FaultRule(site="compile.point", kind="oom", probability=1.0),
        )))
        metrics = MetricsRegistry()
        engine = SweepEngine(metrics=metrics)
        assert engine.compile_kernels(FIG13_GRID, workers=2) == gold_rates
        assert metrics.counter("resilience.tasks_failed").value >= 1


class TestSweepChaos:
    def test_crashing_workers_exact_recovery_ladder(self, gold_sims):
        """Every fresh worker dies on its first task.  The plan is fully
        deterministic, so the ladder is too: three broken pools burn the
        budget (max_pool_failures=2), then one serial fallback — which
        the ``workers_only`` restriction keeps fault-free — finishes."""
        install_plan(FaultPlan(seed=CHAOS_SEED, rules=(
            FaultRule(site="sweep.point", kind="crash", at=(0,),
                      workers_only=True),
        )))
        engine = SweepEngine(task_timeout=120)
        assert engine.simulate_many(APP_POINTS, workers=2) == gold_sims
        stats = engine.last_executor_stats
        assert stats is not None
        assert stats["pool_failures"] == 3
        assert stats["serial_fallbacks"] == 1
        assert stats["tasks_ok"] == len(APP_POINTS)
        assert stats["tasks_failed"] == 0
        assert stats["quarantined_workers"] >= 2

    def test_hung_workers_time_out_and_recover(self, gold_sims):
        """First task of every fresh worker stalls past the task
        timeout; the executor quarantines the pool and the results
        still match the oracle exactly."""
        install_plan(FaultPlan(seed=CHAOS_SEED, rules=(
            FaultRule(site="sweep.point", kind="hang", at=(0,),
                      hang_seconds=30.0, workers_only=True),
        )))
        engine = SweepEngine(task_timeout=0.5, max_retries=1)
        assert engine.simulate_many(APP_POINTS, workers=2) == gold_sims
        stats = engine.last_executor_stats
        assert stats["timeouts"] >= 1
        assert stats["quarantined_workers"] >= 1
        assert stats["tasks_ok"] == len(APP_POINTS)
        assert stats["tasks_failed"] == 0

    def test_transient_sweep_faults_bit_identical(self, gold_sims):
        install_plan(FaultPlan(seed=CHAOS_SEED, rules=(
            # workers_only keeps the serial escalation path fault-free,
            # so every task completes no matter what the seed draws.
            FaultRule(site="sweep.point", kind="transient",
                      probability=0.5, max_fires=10, workers_only=True),
        )))
        engine = SweepEngine(task_timeout=120)
        assert engine.simulate_many(APP_POINTS, workers=2) == gold_sims
        assert engine.last_executor_stats["tasks_ok"] == len(APP_POINTS)


class TestStorageChaos:
    def test_corrupt_cache_entries_are_recompiled(self, gold_rates):
        """Every schedule-cache write is bit-flipped on disk the moment
        it lands.  A later cold process must detect the damage via the
        checksum and recompile — same rates, never a wrong schedule."""
        install_plan(FaultPlan(seed=CHAOS_SEED, rules=(
            FaultRule(site="cache.store", kind="corrupt",
                      probability=1.0),
        )))
        first = SweepEngine()
        assert first.compile_kernels(FIG13_GRID) == gold_rates

        # Fresh-process view: cold memo, same (damaged) disk cache.
        clear_plan()
        clear_cache()
        engine = SweepEngine()
        assert engine.compile_kernels(FIG13_GRID) == gold_rates
        cache_stats = default_cache().stats()
        assert cache_stats["misses"] >= len(FIG13_GRID)
        assert cache_stats["evictions"] >= len(FIG13_GRID)

    def test_corrupt_cache_reads_fall_back_to_recompile(self, gold_rates):
        """Damage injected at read time (disk rot): same contract."""
        SweepEngine().compile_kernels(FIG13_GRID)  # populate the cache
        install_plan(FaultPlan(seed=CHAOS_SEED, rules=(
            FaultRule(site="cache.load", kind="corrupt",
                      probability=1.0),
        )))
        clear_cache()
        assert SweepEngine().compile_kernels(FIG13_GRID) == gold_rates


class TestEveryFaultKindAtOnce:
    def test_mixed_plan_full_sweep_bit_identical(
        self, gold_rates, gold_sims
    ):
        """One plan wielding every fault kind across both sweep shapes;
        results must still match the oracle bit for bit."""
        install_plan(FaultPlan(seed=CHAOS_SEED, rules=(
            FaultRule(site="compile.point", kind="transient",
                      probability=0.25, max_fires=20, workers_only=True),
            FaultRule(site="compile.point", kind="oom",
                      probability=0.1, max_fires=5, workers_only=True),
            FaultRule(site="sweep.point", kind="crash", at=(0,),
                      workers_only=True),
            FaultRule(site="sweep.point", kind="hang", at=(1,),
                      hang_seconds=30.0, workers_only=True),
            FaultRule(site="cache.store", kind="corrupt",
                      probability=0.5),
        )))
        engine = SweepEngine(
            metrics=MetricsRegistry(), task_timeout=0.5, max_retries=1
        )
        assert engine.compile_kernels(FIG13_GRID, workers=2) == gold_rates
        assert engine.simulate_many(APP_POINTS, workers=2) == gold_sims
        assert engine.last_executor_stats["tasks_failed"] == 0
