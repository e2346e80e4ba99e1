"""Fault injection and resilient execution for the sweep machinery.

Two pieces, threaded through the sweep engine, the compile pipeline
and the simulator (see ``docs/robustness.md``):

* :mod:`repro.resilience.faults`     — deterministic, seed-driven
  :class:`FaultPlan`/:class:`FaultInjector` with named fault points
  (``REPRO_FAULT_PLAN`` env knob).
* :mod:`repro.resilience.executor`   — :class:`ResilientExecutor`, the
  process-pool fan-out with per-task timeouts, bounded retries,
  dead-worker quarantine, and serial fallback.

The invariant both pieces preserve: with any fault plan active, a run
that ultimately succeeds produces results bit-identical to the
fault-free serial path — degraded means slower, never different.
"""

from .executor import ResilientExecutor
from .faults import (
    FAULT_KINDS,
    FAULT_SITES,
    FaultInjector,
    FaultPlan,
    FaultRule,
    InjectedCrash,
    InjectedFault,
    active_plan,
    clear_plan,
    fault_point,
    in_worker_process,
    install_plan,
    mark_worker_process,
)

__all__ = [
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "InjectedCrash",
    "InjectedFault",
    "ResilientExecutor",
    "active_plan",
    "clear_plan",
    "fault_point",
    "in_worker_process",
    "install_plan",
    "mark_worker_process",
]
