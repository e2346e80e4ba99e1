"""Tests for the fault-injection and resilient-execution layer.

Covers the :mod:`repro.resilience` package directly — plan semantics,
executor recovery ladders — plus the regression
guarantees the satellites demand: interrupts are never retried, and the
sweep/compile fan-out paths propagate them instead of degrading.
The end-to-end chaos runs (faults injected under real sweeps) live in
``tests/test_chaos.py``.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import SweepEngine
from repro.compiler import clear_cache
from repro.compiler.pipeline import compile_batch
from repro.core.config import ProcessorConfig
from repro.kernels.suite import get_kernel
from repro.obs.metrics import MetricsRegistry
from repro.resilience import (
    FAULT_SITES,
    FaultInjector,
    FaultPlan,
    FaultRule,
    InjectedCrash,
    InjectedFault,
    ResilientExecutor,
    clear_plan,
    install_plan,
)
from repro.resilience import faults as faults_module


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Fault plans are process-global: always start and end clean."""
    clear_plan()
    yield
    clear_plan()


# --- picklable task functions for pool tests ---------------------------


def _double(x):
    return 2 * x


def _faulty_double(x):
    """Worker body with its own (glob-matched) fault site."""
    faults_module.fault_point("sweep.point")
    return 2 * x


def _interrupt(x):
    raise KeyboardInterrupt


def _exit(x):
    raise SystemExit(5)


def _flaky_value_error(x):
    raise ValueError(f"always broken: {x}")


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=42,
            rules=(
                FaultRule(site="sweep.point", kind="transient", at=(0, 2)),
                FaultRule(site="cache.*", kind="corrupt", probability=0.5),
            ),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule(site="sweep.point", kind="meltdown")

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultRule(site="sweep.typo", kind="transient")

    def test_glob_site_allowed(self):
        rule = FaultRule(site="cache.*", kind="corrupt", at=(0,))
        assert rule.matches("cache.load")
        assert rule.matches("cache.store")
        assert not rule.matches("sweep.point")

    def test_probability_bounds_checked(self):
        with pytest.raises(ValueError, match="probability"):
            FaultRule(site="sim.run", kind="transient", probability=1.5)

    def test_at_indices_fire_exactly(self):
        plan = FaultPlan(
            rules=(FaultRule(site="sim.run", kind="transient", at=(1, 3)),)
        )
        decisions = [plan.decide("sim.run", i) for i in range(5)]
        assert [d is not None for d in decisions] == [
            False, True, False, True, False,
        ]

    def test_decide_is_pure(self):
        plan = FaultPlan(
            seed=7,
            rules=(
                FaultRule(
                    site="sweep.point", kind="transient", probability=0.3
                ),
            ),
        )
        first = [plan.decide("sweep.point", i) for i in range(64)]
        second = [plan.decide("sweep.point", i) for i in range(64)]
        assert first == second
        assert any(d is not None for d in first)
        assert any(d is None for d in first)

    def test_different_seeds_differ(self):
        rule = FaultRule(
            site="sweep.point", kind="transient", probability=0.5
        )
        a = FaultPlan(seed=1, rules=(rule,))
        b = FaultPlan(seed=2, rules=(rule,))
        fires_a = [a.decide("sweep.point", i) is not None for i in range(64)]
        fires_b = [b.decide("sweep.point", i) is not None for i in range(64)]
        assert fires_a != fires_b

    def test_env_adoption(self):
        plan = FaultPlan(
            seed=3,
            rules=(FaultRule(site="sim.run", kind="transient", at=(0,)),),
        )
        os.environ[faults_module.PLAN_ENV] = plan.to_json()
        faults_module._ENV_CHECKED = False  # as a fresh process would be
        try:
            assert faults_module.active_plan() == plan
        finally:
            clear_plan()

    def test_active_injector_exposed(self):
        plan = FaultPlan(
            rules=(FaultRule(site="sim.run", kind="transient", at=(9,)),)
        )
        injector = install_plan(plan)
        assert faults_module.active_injector() is injector
        assert faults_module.active_plan() == plan

    def test_garbage_env_plan_ignored(self):
        os.environ[faults_module.PLAN_ENV] = "{not json"
        faults_module._ENV_CHECKED = False
        try:
            assert faults_module.active_plan() is None
        finally:
            clear_plan()

    def test_fault_point_checks_env_lazily(self):
        plan = FaultPlan(
            rules=(FaultRule(site="sim.run", kind="transient", at=(0,)),)
        )
        os.environ[faults_module.PLAN_ENV] = plan.to_json()
        faults_module._ENV_CHECKED = False
        faults_module._INJECTOR = None
        try:
            with pytest.raises(InjectedFault):
                faults_module.fault_point("sim.run")
        finally:
            clear_plan()

    def test_corrupt_empty_file_is_noop(self, tmp_path):
        target = tmp_path / "empty"
        target.write_bytes(b"")
        faults_module._corrupt_file(target)
        assert target.read_bytes() == b""

    def test_injector_counts_fires_and_respects_max(self):
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="sim.run", kind="transient", at=(0, 1), max_fires=1
                ),
            )
        )
        injector = FaultInjector(plan)
        with pytest.raises(InjectedFault):
            injector.fire("sim.run")
        injector.fire("sim.run")  # capped by max_fires: no raise
        injector.fire("sim.run")  # index 2: rule does not match
        assert injector.fired == [("sim.run", 0, "transient")]


# Hypothesis: a plan's injected-fault schedule is a pure function of
# (plan, site, index) — the cross-process determinism the chaos suite
# leans on (workers rebuild the plan from REPRO_FAULT_PLAN and replay
# identical decisions).
_rules = st.builds(
    FaultRule,
    site=st.sampled_from(sorted(FAULT_SITES)),
    kind=st.sampled_from(("transient", "hang", "oom")),
    at=st.lists(st.integers(0, 15), max_size=3).map(tuple),
    probability=st.floats(0.0, 1.0, allow_nan=False),
    hang_seconds=st.just(0.0),
)
_plans = st.builds(
    FaultPlan,
    seed=st.integers(0, 2**32),
    rules=st.lists(_rules, max_size=4).map(tuple),
)


class TestFaultPlanProperties:
    @given(plan=_plans, site=st.sampled_from(sorted(FAULT_SITES)))
    @settings(max_examples=60, deadline=None)
    def test_decisions_survive_json_round_trip(self, plan, site):
        clone = FaultPlan.from_json(plan.to_json())
        for index in range(32):
            assert plan.decide(site, index) == clone.decide(site, index)

    @given(plan=_plans)
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_independent_injectors_fire_identically(self, plan):
        """Two processes replaying the same call sequence inject the
        same faults (simulated here with two fresh injectors)."""
        sequence = [(site, i) for site in sorted(FAULT_SITES)
                    for i in range(8)]

        def replay():
            injector = FaultInjector(plan)
            for site, _ in sequence:
                try:
                    injector.fire(site)
                except (InjectedFault, MemoryError):
                    pass
            return injector.fired

        assert replay() == replay()


class TestResilientExecutor:
    def test_serial_map(self):
        executor = ResilientExecutor(1)
        assert executor.map(_double, [1, 2, 3]) == [2, 4, 6]
        assert executor.stats()["tasks_ok"] == 3
        assert executor.stats()["retries"] == 0

    def test_empty_map(self):
        assert ResilientExecutor(4).map(_double, []) == []

    def test_pooled_map_clean(self):
        executor = ResilientExecutor(2, timeout=60)
        assert executor.map(_double, list(range(6))) == [
            0, 2, 4, 6, 8, 10,
        ]
        stats = executor.stats()
        assert stats["tasks_ok"] == 6
        assert stats["pool_failures"] == 0

    def test_transient_fault_retried_in_pool(self):
        install_plan(FaultPlan(rules=(
            FaultRule(site="sweep.point", kind="transient", at=(0,)),
        )))
        metrics = MetricsRegistry()
        executor = ResilientExecutor(2, timeout=60, metrics=metrics)
        assert executor.map(_faulty_double, [5]) == [10]
        stats = executor.stats()
        assert stats["retries"] >= 1
        assert stats["tasks_ok"] == 1
        snapshot = metrics.snapshot()
        assert snapshot["resilience.retries"] == stats["retries"]

    def test_oom_fault_retried(self):
        install_plan(FaultPlan(rules=(
            FaultRule(site="sweep.point", kind="oom", at=(0,)),
        )))
        executor = ResilientExecutor(2, timeout=60)
        assert executor.map(_faulty_double, [5]) == [10]
        assert executor.stats()["retries"] >= 1

    def test_crash_breaks_pool_then_recovers(self):
        # Every fresh worker dies on its first task; after the pool
        # budget burns out the serial path (workers_only keeps it
        # fault-free) finishes the work.
        install_plan(FaultPlan(rules=(
            FaultRule(
                site="sweep.point", kind="crash", at=(0,),
                workers_only=True,
            ),
        )))
        executor = ResilientExecutor(2, timeout=60, max_pool_failures=1)
        assert executor.map(_faulty_double, [1, 2]) == [2, 4]
        stats = executor.stats()
        assert stats["pool_failures"] >= 2
        assert stats["serial_fallbacks"] == 1
        assert stats["quarantined_workers"] >= 1
        assert stats["tasks_ok"] == 2

    def test_hang_times_out_then_recovers(self):
        # Every fresh worker sleeps 2s on its first task; with a 0.3s
        # budget the executor must declare it hung, quarantine the
        # pool, and eventually escalate to the serial path.
        install_plan(FaultPlan(rules=(
            FaultRule(
                site="sweep.point", kind="hang", at=(0,),
                hang_seconds=2.0, workers_only=True,
            ),
        )))
        executor = ResilientExecutor(
            2, timeout=0.3, max_retries=1, backoff_base=0.0
        )
        assert executor.map(_faulty_double, [7]) == [14]
        stats = executor.stats()
        assert stats["timeouts"] >= 1
        assert stats["tasks_ok"] == 1
        assert stats["quarantined_workers"] >= 1

    def test_persistent_failure_raises_last_error(self):
        executor = ResilientExecutor(1, max_retries=1, backoff_base=0.0)
        with pytest.raises(ValueError, match="always broken"):
            executor.map(_flaky_value_error, [9])
        stats = executor.stats()
        assert stats["retries"] == 2  # initial + one retry
        assert stats["tasks_failed"] == 1

    def test_keyboard_interrupt_never_retried_serial(self):
        executor = ResilientExecutor(1)
        with pytest.raises(KeyboardInterrupt):
            executor.map(_interrupt, [1])
        assert executor.stats()["retries"] == 0

    def test_system_exit_never_retried_serial(self):
        executor = ResilientExecutor(1)
        with pytest.raises(SystemExit):
            executor.map(_exit, [1])
        assert executor.stats()["retries"] == 0

    def test_keyboard_interrupt_propagates_from_pool(self):
        executor = ResilientExecutor(2, timeout=60)
        with pytest.raises(KeyboardInterrupt):
            executor.map(_interrupt, [1, 2])
        assert executor.stats()["retries"] == 0

    def test_unbuildable_pool_degrades_to_serial(self, monkeypatch):
        """Platforms where no pool can be spawned at all: every build
        attempt counts a pool failure, then serial finishes the work."""
        import concurrent.futures

        def _no_pools(*args, **kwargs):
            raise OSError("fork refused")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _no_pools
        )

        class _Recorder:
            enabled = True

            def __init__(self):
                self.labels = []

            def instant(self, resource, label, t, **detail):
                self.labels.append((resource, label))

        tracer = _Recorder()
        executor = ResilientExecutor(
            2, max_pool_failures=1, backoff_base=0.0, tracer=tracer
        )
        assert executor.map(_double, [1, 2, 3]) == [2, 4, 6]
        stats = executor.stats()
        assert stats["pool_failures"] == 2
        assert stats["serial_fallbacks"] == 1
        assert stats["tasks_ok"] == 3
        assert ("resilience", "serial fallback") in tracer.labels

    def test_crash_downgrades_outside_workers(self):
        # In the main process the crash kind must never os._exit.
        install_plan(FaultPlan(rules=(
            FaultRule(site="sim.run", kind="crash", at=(0,)),
        )))
        with pytest.raises(InjectedCrash):
            faults_module.fault_point("sim.run")


class _InterruptingExecutor:
    """Stand-in executor whose map raises KeyboardInterrupt."""

    def __init__(self, *args, **kwargs):
        pass

    def map(self, fn, items):
        raise KeyboardInterrupt

    def stats(self):
        return {}


class TestFanOutInterruptAudit:
    """The fan-out paths' broad ``except Exception`` recovery must not
    swallow interrupts into the degraded-serial path."""

    def test_sweep_fan_out_propagates_interrupt(self, monkeypatch):
        monkeypatch.setattr(
            "repro.analysis.sweep.ResilientExecutor",
            _InterruptingExecutor,
        )
        engine = SweepEngine()
        with pytest.raises(KeyboardInterrupt):
            engine.simulate_many(
                [("fft1k", ProcessorConfig(8, 5)),
                 ("fft1k", ProcessorConfig(16, 5))],
                workers=2,
            )

    def test_compile_fan_out_propagates_interrupt(self, monkeypatch):
        monkeypatch.setattr(
            "repro.resilience.executor.ResilientExecutor",
            _InterruptingExecutor,
        )
        clear_cache()
        jobs = [
            (get_kernel("fft"), ProcessorConfig(8, 5)),
            (get_kernel("dct"), ProcessorConfig(8, 5)),
        ]
        with pytest.raises(KeyboardInterrupt):
            compile_batch(jobs, workers=2)

