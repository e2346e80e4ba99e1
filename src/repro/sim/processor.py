"""The stream processor: executes StreamC programs end to end.

A run encodes the program once into flat tables
(:func:`repro.sim.engine.build_summary`), or takes an encoding that is
already built, derives the design point's tables from the compiled
kernel schedules, and evaluates the in-order timing recurrence of
:mod:`repro.sim.engine` — the same recurrence the analytical model
evaluates, here also recording each operation's start and finish.  The
stream controller issues in order, and loads and stores overlap kernel
execution whenever dependences allow — the application-level
concurrency of paper section 2.2.  The recurrence models every effect
the paper's section 5.3 analysis names:

* **host bandwidth** — each operation's start is gated by its stream
  instruction arriving over the 2 GB/s channel,
* **scoreboard depth** — the host cannot run unboundedly ahead,
* **memory bandwidth and latency** — the 16 GB/s / 55-cycle pipe,
* **SRF capacity** — spills and reloads when the working set overflows,
* **short streams** — per-call dispatch, microcode reloads, software-
  pipeline priming and drain from the compiled schedule lengths.

A traced or metered run also emits the host, memory, microcontroller
and cluster spans and the SRF metrics from inside the recurrence.  It,
and a run with a non-default event budget, then replays the operation
completions through an :class:`~repro.sim.events.EventQueue` in time
order.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from ..apps.streamc import StreamProgram
from ..core.config import ProcessorConfig
from ..core.params import TECH_45NM, TechnologyNode
from ..obs.metrics import MetricsRegistry
from ..obs.profile import PhaseProfiler
from ..obs.tracer import NULL_TRACER, Tracer
from ..resilience.faults import fault_point
from .engine import (
    Observer,
    ProgramSummary,
    Timing,
    build_summary,
    evaluate,
    point_tables,
)
from .events import DEFAULT_MAX_EVENTS, EventQueue
from .metrics import OpRecord, SimulationResult

#: Trace lane per stream-operation kind.
_OP_LANES = {
    "LoadOp": "stream.load",
    "KernelCall": "stream.kernel",
    "StoreOp": "stream.store",
}


class StreamProcessor:
    """One simulated stream processor instance (single program runs).

    Pass a :class:`~repro.obs.tracer.Tracer` and/or a
    :class:`~repro.obs.metrics.MetricsRegistry` to instrument the run;
    both default to off, and instrumenting a run never changes its
    result.
    """

    def __init__(
        self,
        config: ProcessorConfig,
        node: TechnologyNode = TECH_45NM,
        clock_ghz: float = 1.0,
        tracer: Tracer = NULL_TRACER,
        metrics: Optional[MetricsRegistry] = None,
        max_events: int = DEFAULT_MAX_EVENTS,
        profiler: Optional[PhaseProfiler] = None,
    ):
        self.config = config
        self.node = node
        self.clock_ghz = clock_ghz
        self.tracer = tracer
        self.metrics = metrics
        self.max_events = max_events
        #: Wall-clock profiler charged with ``sim.compile`` (the design
        #: point's tables, compiled schedules included) when present;
        #: sweeps use it to tell compile time from simulation time
        #: without touching simulated results.
        self.profiler = profiler

    def run(
        self, program: Union[StreamProgram, ProgramSummary]
    ) -> SimulationResult:
        """Execute ``program`` (or its encoding) and return its timing
        and statistics."""
        fault_point("sim.run")
        summary = (
            program if isinstance(program, ProgramSummary)
            else build_summary(program)
        )
        if self.profiler is not None:
            with self.profiler.phase("sim.compile"):
                point = point_tables(
                    summary, self.config, self.node, self.clock_ghz
                )
        else:
            point = point_tables(
                summary, self.config, self.node, self.clock_ghz
            )

        # An instrumented run replays its completions through the event
        # queue so the tracer sees them in time order and the queue's
        # own occupancy metrics are exercised; a non-default event
        # budget engages the queue too, or it would go unenforced.
        instrumented = self.tracer.enabled or self.metrics is not None
        observer = (
            Observer(self.tracer, self.metrics, point)
            if instrumented else None
        )
        timing = evaluate(summary, point, timeline=True, observer=observer)
        records = timing.records(summary)
        if instrumented or self.max_events != DEFAULT_MAX_EVENTS:
            self._replay(records)
            self._record_run_metrics(summary, timing)
        return timing.result(
            summary,
            point,
            records,
            self.metrics.snapshot() if self.metrics is not None else None,
        )

    # --- instrumentation --------------------------------------------------

    def _replay(self, records: Sequence[OpRecord]) -> None:
        """Run every op completion through the event queue."""
        queue = EventQueue(self.tracer, self.metrics)
        for record in records:
            queue.schedule(
                record.finish,
                lambda r=record: self._observe_completion(r),
                label=f"complete {record.label}",
            )
        queue.run(self.max_events)

    def _observe_completion(self, record: OpRecord) -> None:
        """Event-queue action: log one finished stream operation."""
        if self.tracer.enabled:
            self.tracer.span(
                _OP_LANES.get(record.kind, "stream.other"),
                record.label,
                record.start,
                record.finish,
                index=record.index,
            )
        if self.metrics is not None:
            self.metrics.histogram("ops.latency_cycles").observe(
                record.cycles
            )
            self.metrics.counter(
                f"ops.{_OP_LANES.get(record.kind, 'other').split('.')[-1]}"
            ).inc()

    def _record_run_metrics(
        self, summary: ProgramSummary, timing: Timing
    ) -> None:
        """Fold end-of-run resource totals into the registry."""
        if self.metrics is None:
            return
        self.metrics.counter("host.instructions").inc(summary.op_count)
        self.metrics.counter("memory.busy_cycles").inc(
            timing.memory_busy_cycles
        )
        self.metrics.counter("memory.words").inc(timing.memory_words)
        self.metrics.counter("memory.transfers").inc(
            timing.memory_transfers
        )
        self.metrics.counter("clusters.busy_cycles").inc(
            timing.cluster_busy_cycles
        )
        self.metrics.counter("clusters.ucode_reloads").inc(
            timing.ucode_reloads
        )
        self.metrics.counter("clusters.ucode_reload_cycles").inc(
            timing.ucode_reload_cycles
        )
        self.metrics.counter("bandwidth.lrf_words").inc(summary.lrf_words)
        self.metrics.counter("bandwidth.srf_words").inc(
            summary.srf_access_words + timing.memory_words
        )


def simulate(
    program: Union[StreamProgram, ProgramSummary],
    config: ProcessorConfig,
    node: TechnologyNode = TECH_45NM,
    clock_ghz: float = 1.0,
    tracer: Tracer = NULL_TRACER,
    metrics: Optional[MetricsRegistry] = None,
    max_events: int = DEFAULT_MAX_EVENTS,
    profiler: Optional[PhaseProfiler] = None,
) -> SimulationResult:
    """Convenience wrapper: run ``program`` (or its encoding) on a fresh
    processor."""
    processor = StreamProcessor(
        config,
        node,
        clock_ghz,
        tracer=tracer,
        metrics=metrics,
        max_events=max_events,
        profiler=profiler,
    )
    if profiler is not None:
        with profiler.phase("sim.run"):
            return processor.run(program)
    return processor.run(program)
