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

A traced or metered run hands the recurrence an
:class:`~repro.sim.engine.Observer`, which emits the host, memory,
microcontroller and cluster spans and the SRF metrics from inside the
loop, then logs the operation completions in time order from the
timeline.
"""

from __future__ import annotations

from typing import Optional, Union

from ..apps.streamc import StreamProgram
from ..core.config import ProcessorConfig
from ..core.params import TECH_45NM, TechnologyNode
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer
from .engine import (
    Observer,
    ProgramSummary,
    build_summary,
    evaluate,
    point_tables,
)
from .metrics import SimulationResult


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
    ):
        self.config = config
        self.node = node
        self.clock_ghz = clock_ghz
        self.tracer = tracer
        self.metrics = metrics

    def run(
        self, program: Union[StreamProgram, ProgramSummary]
    ) -> SimulationResult:
        """Execute ``program`` (or its encoding) and return its timing
        and statistics."""
        summary = (
            program if isinstance(program, ProgramSummary)
            else build_summary(program)
        )
        point = point_tables(summary, self.config, self.node, self.clock_ghz)

        observer = (
            Observer(self.tracer, self.metrics, point)
            if self.tracer.enabled or self.metrics is not None
            else None
        )
        timing = evaluate(summary, point, timeline=True, observer=observer)
        if observer is not None:
            observer.finished(summary, timing)
        return timing.result(
            summary,
            point,
            timing.records(summary),
            self.metrics.snapshot() if self.metrics is not None else None,
        )


def simulate(
    program: Union[StreamProgram, ProgramSummary],
    config: ProcessorConfig,
    node: TechnologyNode = TECH_45NM,
    clock_ghz: float = 1.0,
    tracer: Tracer = NULL_TRACER,
    metrics: Optional[MetricsRegistry] = None,
) -> SimulationResult:
    """Convenience wrapper: run ``program`` (or its encoding) on a fresh
    processor."""
    processor = StreamProcessor(
        config, node, clock_ghz, tracer=tracer, metrics=metrics
    )
    return processor.run(program)
