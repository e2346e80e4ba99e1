"""The stream processor: executes StreamC programs end to end.

The simulator dispatches the program's stream operations in order (the
stream controller issues in order), tracking per-resource timelines so
that loads and stores overlap kernel execution whenever dependences allow
— the application-level concurrency of paper section 2.2.  It models
every effect the paper's section 5.3 analysis names:

* **host bandwidth** — each operation's start is gated by its stream
  instruction arriving over the 2 GB/s channel,
* **scoreboard depth** — the host cannot run unboundedly ahead,
* **memory bandwidth and latency** — the 16 GB/s / 55-cycle pipe,
* **SRF capacity** — spills and reloads when the working set overflows,
* **short streams** — per-call dispatch, microcode reloads, software-
  pipeline priming and drain from the compiled schedule lengths.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..apps.streamc import KernelCall, LoadOp, StoreOp, StreamProgram
from ..compiler.pipeline import KernelSchedule, compile_batch
from ..core.config import ProcessorConfig
from ..core.params import TECH_45NM, TechnologyNode
from ..obs.metrics import MetricsRegistry
from ..obs.profile import PhaseProfiler
from ..obs.tracer import NULL_TRACER, Tracer
from ..resilience.faults import fault_point
from .cluster import ClusterArray
from .events import DEFAULT_MAX_EVENTS, EventQueue
from .host import Host
from .memory import MemorySystem
from .metrics import BandwidthReport, OpRecord, SimulationResult
from .srf import SRFAllocator

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
    both default to off and an uninstrumented run takes the exact code
    path (and produces the exact result) it did before instrumentation
    existed.
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
        #: Wall-clock profiler charged with ``sim.compile`` (the run's
        #: one up-front ``compile_batch`` of the program's kernels)
        #: when present; sweeps use it to tell compile time from
        #: simulation time without touching simulated results.
        self.profiler = profiler
        self.memory = MemorySystem(config, node, clock_ghz, tracer)
        self.host = Host(node, clock_ghz, tracer=tracer)
        self.clusters = ClusterArray(config, tracer)
        self.srf = SRFAllocator(config, metrics)
        self._lrf_words = 0
        self._srf_words = 0
        #: ``id(kernel)`` -> its schedule, filled by :meth:`run`.
        self._schedules: Dict[int, KernelSchedule] = {}

    def run(self, program: StreamProgram) -> SimulationResult:
        """Execute ``program`` and return its timing and statistics."""
        fault_point("sim.run")
        program.validate()
        # Compile each distinct kernel the program calls once, up front
        # (the batch API consults the persistent schedule cache); every
        # call then reads its kernel's schedule from ``_schedules``.
        kernels = {
            id(call.kernel): call.kernel for call in program.kernel_calls()
        }
        schedules: List[KernelSchedule] = []
        if kernels:
            jobs = [(kernel, self.config) for kernel in kernels.values()]
            if self.profiler is not None:
                with self.profiler.phase("sim.compile"):
                    schedules = compile_batch(jobs)
            else:
                schedules = compile_batch(jobs)
        self._schedules = dict(zip(kernels, schedules))
        ops = program.ops
        last_use = program.last_use()
        completion: List[int] = [0] * len(ops)
        records: List[OpRecord] = []

        # When instrumented, op completions replay through the event
        # queue so the tracer sees them in time order and the queue's
        # own occupancy metrics are exercised; untraced runs skip the
        # queue entirely (zero cost when disabled).  A non-default
        # event budget also engages the queue — otherwise the budget
        # would silently go unenforced.
        observed = (
            self.tracer.enabled
            or self.metrics is not None
            or self.max_events != DEFAULT_MAX_EVENTS
        )
        queue = EventQueue(self.tracer, self.metrics) if observed else None

        # Inputs measured "already in the SRF" occupy space from cycle 0;
        # dirty because memory holds no copy (eviction must write back).
        for stream in program.preloaded:
            self.srf.allocate(stream, -1, dirty=True)

        for i, op in enumerate(ops):
            # Stream-instruction delivery, gated by the scoreboard.
            gate = 0
            if i >= self.host.scoreboard_depth:
                gate = completion[i - self.host.scoreboard_depth]
            issued = self.host.issue(gate)

            deps = program.dependencies(i)
            ready = max((completion[d] for d in deps), default=0)
            ready = max(ready, issued)

            if isinstance(op, LoadOp):
                finish = self._run_load(op, i, ready, last_use)
            elif isinstance(op, StoreOp):
                finish = self._run_store(op, i, ready)
            else:
                finish = self._run_kernel(op, i, ready, last_use)
            completion[i] = finish
            record = OpRecord(
                index=i,
                kind=type(op).__name__,
                label=op.describe,
                start=ready,
                finish=finish,
            )
            records.append(record)
            if queue is not None:
                queue.schedule(
                    finish,
                    lambda r=record: self._observe_completion(r),
                    label=f"complete {record.label}",
                )
            self._release_dead_streams(op, i, last_use)

        if queue is not None:
            queue.run(self.max_events)
            self._record_run_metrics()

        return SimulationResult(
            program=program.name,
            config=self.config,
            clock_ghz=self.clock_ghz,
            cycles=max(completion, default=0),
            useful_alu_ops=program.total_alu_ops(),
            records=tuple(records),
            spill_words=self.srf.spill_words,
            reload_words=self.srf.reload_words,
            memory_busy_cycles=self.memory.busy_cycles,
            cluster_busy_cycles=self.clusters.busy_cycles,
            ucode_reloads=self.clusters.ucode_reloads,
            bandwidth=BandwidthReport(
                lrf_words=self._lrf_words,
                # Memory transfers transit the SRF on their way in/out.
                srf_words=self._srf_words + self.memory.words_transferred,
                memory_words=self.memory.words_transferred,
            ),
            metrics=(
                self.metrics.snapshot() if self.metrics is not None else None
            ),
        )

    # --- instrumentation --------------------------------------------------

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

    def _record_run_metrics(self) -> None:
        """Fold end-of-run resource totals into the registry."""
        if self.metrics is None:
            return
        self.metrics.counter("host.instructions").inc(
            self.host.instructions_issued
        )
        self.metrics.counter("memory.busy_cycles").inc(
            self.memory.busy_cycles
        )
        self.metrics.counter("memory.words").inc(
            self.memory.words_transferred
        )
        self.metrics.counter("memory.transfers").inc(
            self.memory.transfer_count
        )
        self.metrics.counter("clusters.busy_cycles").inc(
            self.clusters.busy_cycles
        )
        self.metrics.counter("clusters.ucode_reloads").inc(
            self.clusters.ucode_reloads
        )
        self.metrics.counter("clusters.ucode_reload_cycles").inc(
            self.clusters.ucode_reload_cycles
        )
        self.metrics.counter("bandwidth.lrf_words").inc(self._lrf_words)
        self.metrics.counter("bandwidth.srf_words").inc(
            self._srf_words + self.memory.words_transferred
        )

    # --- per-op execution -------------------------------------------------

    def _spill(self, evictions, op_index: int, earliest: int, last_use) -> int:
        """Write back evicted streams that are still needed; returns the
        cycle by which the SRF space is actually free."""
        t = earliest
        for ev in evictions:
            if ev.writeback and last_use.get(ev.stream, -1) > op_index:
                t = self.memory.transfer(ev.words, t).bandwidth_done
        return t

    def _run_load(self, op: LoadOp, i: int, ready: int, last_use) -> int:
        evictions = self.srf.allocate(op.stream, i, dirty=False)
        start = self._spill(evictions, i, ready, last_use)
        return self.memory.transfer(
            op.stream.words, start, op.stream.pattern
        ).data_ready

    def _run_store(self, op: StoreOp, i: int, ready: int) -> int:
        transfer = self.memory.transfer(
            op.stream.words, ready, op.stream.pattern
        )
        return transfer.data_ready

    def _run_kernel(self, op: KernelCall, i: int, ready: int, last_use) -> int:
        schedule = self._schedules[id(op.kernel)]
        start = ready

        # Bring spilled inputs back from memory.
        for stream in op.inputs:
            self.srf.pin(stream)
        for stream in op.outputs:
            self.srf.pin(stream)
        for stream in op.inputs:
            if not self.srf.is_resident(stream):
                evictions = self.srf.allocate(stream, i, dirty=False)
                start = self._spill(evictions, i, start, last_use)
                start = self.memory.transfer(
                    stream.words, start, stream.pattern
                ).data_ready
                self.srf.note_reload(stream.words)

        # Allocate output streams (may spill idle streams).
        for stream in op.outputs:
            evictions = self.srf.allocate(stream, i, dirty=True)
            start = self._spill(evictions, i, start, last_use)

        run = self.clusters.run(schedule, op.work_items, start)

        # Register-hierarchy traffic accounting (paper section 2.2):
        # every executed operation reads two LRFs and writes one; every
        # SRF access moves one word through a streambuffer.
        stats = op.kernel.stats()
        ops_per_item = (
            stats.alu_ops + stats.srf_accesses + stats.comms
            + stats.sp_accesses
        )
        self._lrf_words += 3 * ops_per_item * op.work_items
        self._srf_words += stats.srf_accesses * op.work_items

        for stream in op.inputs:
            self.srf.unpin(stream)
        for stream in op.outputs:
            self.srf.unpin(stream)
        return run.finish

    def _release_dead_streams(self, op, i: int, last_use) -> None:
        if isinstance(op, (LoadOp, StoreOp)):
            touched = (op.stream,)
        else:
            touched = op.inputs + op.outputs
        for stream in touched:
            if last_use.get(stream) == i:
                self.srf.release(stream)


def simulate(
    program: StreamProgram,
    config: ProcessorConfig,
    node: TechnologyNode = TECH_45NM,
    clock_ghz: float = 1.0,
    tracer: Tracer = NULL_TRACER,
    metrics: Optional[MetricsRegistry] = None,
    max_events: int = DEFAULT_MAX_EVENTS,
    profiler: Optional[PhaseProfiler] = None,
) -> SimulationResult:
    """Convenience wrapper: run ``program`` on a fresh processor."""
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
