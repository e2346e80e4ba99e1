"""Closed-form analytical performance model (the paper's static analysis).

The source paper derives kernel and application performance largely by
*static analysis* of compiled schedules rather than by walking every
cycle: the steady-state initiation interval and the schedule-length
prologue/epilogue give kernel run time, stream lengths divided by the
machine's bandwidth ceilings give transfer time, and the section-5.3
inventory of short-stream overheads (dispatch, microcode reloads,
software-pipeline priming, host instruction delivery) covers the rest.

That analysis lives in :mod:`repro.sim.engine`, and the simulator runs
it too: a simulated run is the same recurrence plus its per-operation
timeline.  :func:`predict_application` is how every sweep, API and
daemon point is evaluated: the recurrence over the cached encoding of
a named application, without the timeline — its results carry an
empty ``records`` tuple and no metrics snapshot.
:func:`repro.sim.processor.simulate` stays the entry point for runs
that need the timeline, a trace or metrics.
:func:`predict_kernel_call_cycles` is the kernel-level closed form.

Speed: a predicted point is pure integer arithmetic over cached tables
and runs in tens to hundreds of microseconds (see
``benchmarks/test_bench_sweep.py``).  ``tests/test_golden_simulations.py``
checks it against a corpus captured from the per-operation component
simulator.
"""

from __future__ import annotations

from ..apps.streamc import StreamProgram
from ..compiler.pipeline import KernelSchedule
from ..core.config import ProcessorConfig
from ..core.params import TECH_45NM, TechnologyNode
from ..resilience.faults import fault_point
from ..sim.cluster import DISPATCH_CYCLES, UCODE_WORDS_PER_CYCLE
from ..sim.engine import (
    ProgramSummary,
    build_summary,
    clear_summary_cache,
    evaluate,
    point_tables,
    program_summary,
)
from ..sim.metrics import SimulationResult

__all__ = [
    "ProgramSummary",
    "build_summary",
    "clear_summary_cache",
    "predict_application",
    "predict_kernel_call_cycles",
    "predict_program",
    "program_summary",
]


def predict_kernel_call_cycles(
    schedule: KernelSchedule,
    work_items: int,
    include_dispatch: bool = True,
    ucode_reload: bool = False,
) -> int:
    """Closed-form cycles for one kernel invocation (paper section 5.3).

    ``DISPATCH + reload + L + II x (bodies - 1)`` where ``bodies`` is
    the number of unrolled software-pipeline bodies each cluster runs:
    ``ceil(ceil(work_items / C) / unroll)``.  Matches
    :meth:`repro.sim.cluster.ClusterArray.run` exactly.
    """
    if work_items < 1:
        raise ValueError("kernel call needs at least one work item")
    iterations = -(-work_items // schedule.config.clusters)
    cycles = schedule.inner_loop_cycles(iterations)
    if include_dispatch:
        cycles += DISPATCH_CYCLES
    if ucode_reload:
        cycles += -(-schedule.instruction_count // UCODE_WORDS_PER_CYCLE)
    return cycles


def predict_application(
    application: str,
    config: ProcessorConfig,
    node: TechnologyNode = TECH_45NM,
    clock_ghz: float = 1.0,
) -> SimulationResult:
    """Predict one application run without simulating it.

    Returns a :class:`~repro.sim.metrics.SimulationResult` whose
    scalar fields (cycles, utilizations, spills, bandwidth words) match
    :func:`repro.sim.processor.simulate` on the same point; ``records``
    is empty and ``metrics`` is ``None`` — the model produces totals,
    not a timeline.
    """
    fault_point("model.predict")
    return _predict(program_summary(application), config, node, clock_ghz)


def predict_program(
    program: StreamProgram,
    config: ProcessorConfig,
    node: TechnologyNode = TECH_45NM,
    clock_ghz: float = 1.0,
) -> SimulationResult:
    """Like :func:`predict_application`, for an ad-hoc program object
    (no caching — library embedders with custom programs)."""
    return _predict(build_summary(program), config, node, clock_ghz)


def _predict(
    summary: ProgramSummary,
    config: ProcessorConfig,
    node: TechnologyNode,
    clock_ghz: float,
) -> SimulationResult:
    point = point_tables(summary, config, node, clock_ghz)
    return evaluate(summary, point).result(summary, point)
