"""Fault injection for the serial execution paths.

:mod:`repro.resilience.faults` holds a deterministic, seed-driven
:class:`FaultPlan`/:class:`FaultInjector` and the named fault points
the compiler, the schedule cache and the timing model declare
(``REPRO_FAULT_PLAN`` adopts a plan in a fresh process; see
``docs/robustness.md``).

The invariant the chaos suite checks: with any fault plan active, a
request either fails with a typed error or answers exactly what a
fault-free run answers — a damaged cache entry is a miss, never a
wrong schedule.
"""

from .faults import (
    FAULT_KINDS,
    FAULT_SITES,
    FaultInjector,
    FaultPlan,
    FaultRule,
    InjectedFault,
    active_plan,
    clear_plan,
    fault_point,
    install_plan,
)

__all__ = [
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "active_plan",
    "clear_plan",
    "fault_point",
    "install_plan",
]
