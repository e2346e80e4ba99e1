"""Tests for the fault-injection layer.

Covers :mod:`repro.resilience.faults` directly: plan semantics, the
pure decision function, environment adoption and the injector's fire
counting.  The end-to-end chaos runs (faults injected under real
compiles and daemon requests) live in ``tests/test_chaos.py``.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.resilience import (
    FAULT_KINDS,
    FAULT_SITES,
    FaultInjector,
    FaultPlan,
    FaultRule,
    InjectedFault,
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


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=42,
            rules=(
                FaultRule(site="model.predict", kind="transient", at=(0, 2)),
                FaultRule(site="cache.*", kind="corrupt", probability=0.5),
            ),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule(site="model.predict", kind="meltdown")

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultRule(site="sweep.typo", kind="transient")

    def test_glob_site_allowed(self):
        rule = FaultRule(site="cache.*", kind="corrupt", at=(0,))
        assert rule.matches("cache.load")
        assert rule.matches("cache.store")
        assert not rule.matches("model.predict")

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
                    site="model.predict", kind="transient", probability=0.3
                ),
            ),
        )
        first = [plan.decide("model.predict", i) for i in range(64)]
        second = [plan.decide("model.predict", i) for i in range(64)]
        assert first == second
        assert any(d is not None for d in first)
        assert any(d is None for d in first)

    def test_different_seeds_differ(self):
        rule = FaultRule(
            site="model.predict", kind="transient", probability=0.5
        )
        a = FaultPlan(seed=1, rules=(rule,))
        b = FaultPlan(seed=2, rules=(rule,))
        fires_a = [a.decide("model.predict", i) is not None
                   for i in range(64)]
        fires_b = [b.decide("model.predict", i) is not None
                   for i in range(64)]
        assert fires_a != fires_b

    def test_env_adoption(self, monkeypatch):
        plan = FaultPlan(
            seed=3,
            rules=(FaultRule(site="sim.run", kind="transient", at=(0,)),),
        )
        monkeypatch.setenv(faults_module.PLAN_ENV, plan.to_json())
        faults_module._ENV_CHECKED = False  # as a fresh process would be
        assert faults_module.active_plan() == plan

    def test_kinds_are_the_serial_ones(self):
        """Only faults a serial path can survive remain: no kind kills
        the process."""
        assert FAULT_KINDS == ("transient", "hang", "oom", "corrupt")
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule(site="sim.run", kind="crash")

    def test_install_plan_leaves_the_environment_alone(self, monkeypatch):
        monkeypatch.delenv(faults_module.PLAN_ENV, raising=False)
        install_plan(FaultPlan(
            rules=(FaultRule(site="sim.run", kind="transient", at=(0,)),)
        ))
        assert faults_module.PLAN_ENV not in os.environ

    def test_active_injector_exposed(self):
        plan = FaultPlan(
            rules=(FaultRule(site="sim.run", kind="transient", at=(9,)),)
        )
        injector = install_plan(plan)
        assert faults_module.active_injector() is injector
        assert faults_module.active_plan() == plan

    def test_garbage_env_plan_ignored(self, monkeypatch):
        monkeypatch.setenv(faults_module.PLAN_ENV, "{not json")
        faults_module._ENV_CHECKED = False
        assert faults_module.active_plan() is None

    def test_fault_point_checks_env_lazily(self, monkeypatch):
        plan = FaultPlan(
            rules=(FaultRule(site="sim.run", kind="transient", at=(0,)),)
        )
        monkeypatch.setenv(faults_module.PLAN_ENV, plan.to_json())
        faults_module._ENV_CHECKED = False
        faults_module._INJECTOR = None
        with pytest.raises(InjectedFault):
            faults_module.fault_point("sim.run")

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
