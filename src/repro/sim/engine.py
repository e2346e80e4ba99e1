"""The timing recurrence the simulator and the analytical model share.

The source paper derives performance "largely by static analysis of
compiled schedules"; this module is that analysis, and it is also the
simulator.  A stream program is encoded once into a
:class:`ProgramSummary` of flat, configuration-independent integer
tables.  Per design point, :func:`point_tables` adds what the
configuration decides (compiled schedules, per-call cluster cycles,
memory service cycles), and :func:`evaluate` runs the in-order
recurrence over both.  Its terms, per stream operation:

* **host channel** — one stream instruction per
  ``ceil(64 B / host bandwidth)`` cycles, scoreboard-gated so the host
  never runs more than 16 operations ahead of completion;
* **memory pipe** — ``words / (BW x pattern efficiency)`` cycles of
  shared bandwidth plus the fixed ``T_mem`` access latency;
* **cluster array** — ``DISPATCH + ucode reload + L + II x (bodies-1)``
  cycles per kernel call, where ``bodies = ceil(ceil(work/C)/unroll)``
  is the per-cluster strip length of the software pipeline;
* **SRF capacity** — LRU spill, writeback and reload whenever the
  working set overflows ``r_m x T x N x C`` words.

Two loops evaluate it.  When a point's SRF covers the program's peak
no-eviction residency (computed once per program) and its kernels fit
the microcode store, the spill-free loop is pure max-plus arithmetic.
Otherwise the SRF loop replays the LRU allocator over integer stream
handles.  Either loop can record each operation's start and finish,
the columns of the simulator's :class:`~repro.sim.metrics.Timeline`,
which builds ``OpRecord`` s only when read.  Given an
:class:`Observer`, the SRF loop also emits the spans and ``srf.*``
metrics of the component models in :mod:`repro.sim.host`,
:mod:`repro.sim.memory`, :mod:`repro.sim.srf` and
:mod:`repro.sim.cluster`, which remain as the unit references this
recurrence is checked against.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..apps.streamc import KernelCall, LoadOp, StoreOp, StreamProgram
from ..apps.suite import get_application
from ..compiler.pipeline import KernelSchedule, compile_batch
from ..core.config import ProcessorConfig
from ..core.params import TechnologyNode
from ..isa.values import AccessPattern
from ..obs.metrics import MetricsRegistry, MetricsSnapshot
from ..obs.tracer import Tracer
from .cluster import DISPATCH_CYCLES, UCODE_WORDS_PER_CYCLE
from .host import SCOREBOARD_DEPTH, STREAM_INSTRUCTION_BYTES
from .metrics import BandwidthReport, OpRecord, SimulationResult, Timeline
from .srf import CapacityError

__all__ = [
    "Observer",
    "PointTables",
    "ProgramSummary",
    "Timing",
    "build_summary",
    "clear_summary_cache",
    "evaluate",
    "point_tables",
    "program_summary",
]

#: Op kinds in the encoded tables, and the ``OpRecord.kind`` of each.
_LOAD, _STORE, _KERNEL = 0, 1, 2
_KIND_NAMES = ("LoadOp", "StoreOp", "KernelCall")

#: The pattern of spill writebacks (whole streams, unit stride).
_SEQUENTIAL = AccessPattern.SEQUENTIAL


@dataclass(frozen=True)
class ProgramSummary:
    """Config-independent static digest of one stream program.

    Everything the recurrence needs per design point is derived from
    these flat tables plus the compiled schedules; the program
    construction and graph walks happen once per program, not once per
    grid point.
    """

    name: str
    #: Per op: :data:`_LOAD`/:data:`_STORE`/:data:`_KERNEL`.
    kinds: Tuple[int, ...]
    #: Per op: the ``OpRecord.kind`` name of ``kinds`` (a timeline's
    #: kind column, shared by every run of the program).
    kind_names: Tuple[str, ...]
    #: Per op: stream id for loads/stores, kernel id for kernel calls.
    subject: Tuple[int, ...]
    #: Per op: ``work_items`` for kernel calls, 0 otherwise.
    work: Tuple[int, ...]
    #: Per op: producer-op indices this op waits on.
    deps: Tuple[Tuple[int, ...], ...]
    #: Per op: input / output stream ids (kernel calls only).
    inputs: Tuple[Tuple[int, ...], ...]
    outputs: Tuple[Tuple[int, ...], ...]
    #: Per op: stream ids whose last use is this op (released after it).
    releases: Tuple[Tuple[int, ...], ...]
    #: Per op: its timeline label (``load x``, ``kernel y``...).
    labels: Tuple[str, ...]
    #: Per stream: the program's stream object (for messages and the
    #: memory pattern a trace names).
    streams: Tuple[object, ...]
    #: Per stream: SRF footprint in words / memory-pattern efficiency.
    stream_words: Tuple[int, ...]
    stream_efficiency: Tuple[float, ...]
    #: Per stream: index of the last op touching it (-1 = never).
    stream_last_use: Tuple[int, ...]
    #: Streams resident in the SRF before cycle 0.
    preloaded: Tuple[int, ...]
    #: Unique kernels, in first-call order (graphs are what compile).
    kernels: Tuple[object, ...]
    #: Per kernel id: the id of the first-called kernel of the same
    #: name (the microcode store holds kernels by name).
    ucode_owner: Tuple[int, ...]
    #: Totals that do not depend on the configuration.
    total_alu_ops: int
    lrf_words: int
    srf_access_words: int
    explicit_memory_words: int
    explicit_transfers: int
    #: Peak simultaneous SRF residency assuming no evictions; a config
    #: whose capacity covers this provably never spills.
    peak_resident_words: int

    @property
    def op_count(self) -> int:
        return len(self.kinds)


def build_summary(program: StreamProgram) -> ProgramSummary:
    """Validate ``program`` and encode it into flat tables (one pass)."""
    program.validate()
    stream_ids: Dict[object, int] = {}
    streams: List[object] = []
    stream_words: List[int] = []
    stream_eff: List[float] = []

    def sid(stream) -> int:
        known = stream_ids.get(stream)
        if known is not None:
            return known
        new = len(stream_words)
        stream_ids[stream] = new
        streams.append(stream)
        stream_words.append(int(stream.words))
        stream_eff.append(float(stream.pattern.efficiency))
        return new

    kernel_ids: Dict[int, int] = {}
    kernels: List[object] = []
    ucode_owner: List[int] = []
    owner_by_name: Dict[str, int] = {}

    kinds: List[int] = []
    subject: List[int] = []
    work: List[int] = []
    deps: List[Tuple[int, ...]] = []
    inputs: List[Tuple[int, ...]] = []
    outputs: List[Tuple[int, ...]] = []
    labels: List[str] = []

    last_use = program.last_use()
    total_alu_ops = 0
    lrf_words = 0
    srf_access_words = 0
    explicit_memory_words = 0

    for i, op in enumerate(program.ops):
        deps.append(tuple(program.dependencies(i)))
        labels.append(op.describe)
        if isinstance(op, (LoadOp, StoreOp)):
            kinds.append(_LOAD if isinstance(op, LoadOp) else _STORE)
            subject.append(sid(op.stream))
            work.append(0)
            inputs.append(())
            outputs.append(())
            explicit_memory_words += int(op.stream.words)
        else:
            call: KernelCall = op
            kid = kernel_ids.get(id(call.kernel))
            if kid is None:
                kid = len(kernels)
                kernel_ids[id(call.kernel)] = kid
                kernels.append(call.kernel)
                ucode_owner.append(
                    owner_by_name.setdefault(call.kernel.name, kid)
                )
            kinds.append(_KERNEL)
            subject.append(kid)
            work.append(call.work_items)
            inputs.append(tuple(sid(s) for s in call.inputs))
            outputs.append(tuple(sid(s) for s in call.outputs))
            stats = call.kernel.stats()
            per_item = (
                stats.alu_ops + stats.srf_accesses + stats.comms
                + stats.sp_accesses
            )
            total_alu_ops += call.work_items * stats.alu_ops
            lrf_words += 3 * per_item * call.work_items
            srf_access_words += stats.srf_accesses * call.work_items

    preloaded = tuple(sid(s) for s in program.preloaded)
    last_use_ids = [-1] * len(stream_words)
    releases: List[List[int]] = [[] for _ in kinds]
    for stream, op_index in last_use.items():
        s = stream_ids[stream]
        last_use_ids[s] = op_index
        releases[op_index].append(s)

    # Peak no-eviction residency: replay allocations and releases with
    # unlimited capacity.  If a configuration's SRF covers this peak,
    # the LRU allocator can never need room — the eviction machinery is
    # provably idle and the spill-free loop may skip SRF bookkeeping.
    resident = set(preloaded)
    used = sum(stream_words[s] for s in resident)
    peak = used
    for i, kind in enumerate(kinds):
        if kind == _LOAD:
            touched = (subject[i],)
        elif kind == _STORE:
            touched = ()
        else:
            touched = tuple(inputs[i]) + tuple(outputs[i])
        for s in touched:
            if s not in resident:
                resident.add(s)
                used += stream_words[s]
        if used > peak:
            peak = used
        for s in releases[i]:
            if s in resident:
                resident.discard(s)
                used -= stream_words[s]

    return ProgramSummary(
        name=program.name,
        kinds=tuple(kinds),
        kind_names=tuple(_KIND_NAMES[k] for k in kinds),
        subject=tuple(subject),
        work=tuple(work),
        deps=tuple(deps),
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        releases=tuple(tuple(r) for r in releases),
        labels=tuple(labels),
        streams=tuple(streams),
        stream_words=tuple(stream_words),
        stream_efficiency=tuple(stream_eff),
        stream_last_use=tuple(last_use_ids),
        preloaded=preloaded,
        kernels=tuple(kernels),
        ucode_owner=tuple(ucode_owner),
        total_alu_ops=total_alu_ops,
        lrf_words=lrf_words,
        srf_access_words=srf_access_words,
        explicit_memory_words=explicit_memory_words,
        explicit_transfers=len(kinds) - kinds.count(_KERNEL),
        peak_resident_words=peak,
    )


@dataclass(frozen=True)
class PointTables:
    """Everything the recurrence reads about one design point."""

    config: ProcessorConfig
    clock_ghz: float
    #: Host channel cycles per stream instruction.
    cpi: int
    #: Peak memory words per cycle, and the fixed access latency.
    words_per_cycle: float
    mem_latency: int
    #: SRF and microcode-store capacities, in words.
    capacity: int
    ucode_capacity: int
    #: Per stream: memory service cycles, ``words / (BW x efficiency)``.
    service: Tuple[int, ...]
    #: Per kernel id: its compiled schedule.
    schedules: Tuple[KernelSchedule, ...]
    #: Per op: cluster cycles of a kernel call (0 for loads/stores),
    #: with the one-time microcode load folded into the first call of
    #: each kernel when the kernel set fits the store.
    durations: Tuple[int, ...]
    #: Op index -> the microcode-load cycles folded into its duration.
    reloads: Dict[int, int]
    ucode_fits: bool
    ucode_reloads: int
    ucode_reload_cycles: int


def _rates(
    config: ProcessorConfig, node: TechnologyNode, clock_ghz: float
) -> Tuple[int, float]:
    """Host cycles per stream instruction and memory words per cycle."""
    if clock_ghz <= 0:
        raise ValueError("clock must be positive")
    host_bytes_per_cycle = node.host_bw_gbps / clock_ghz
    cpi = max(
        1, int(round(STREAM_INSTRUCTION_BYTES / host_bytes_per_cycle))
    )
    words_per_cycle = (node.memory_bw_gbps / clock_ghz) / (
        config.params.b / 8.0
    )
    if words_per_cycle <= 0:
        raise ValueError("memory bandwidth must be positive")
    return cpi, words_per_cycle


def _service_table(
    summary: ProgramSummary, words_per_cycle: float
) -> Tuple[int, ...]:
    """Memory service cycles per stream: ``words / (BW x efficiency)``.

    Independent of cluster count and ALU count — one table covers a
    whole C x N grid for a given technology node and clock.
    """
    return tuple(
        int(round(words / (words_per_cycle * eff)))
        for words, eff in zip(
            summary.stream_words, summary.stream_efficiency
        )
    )


def _build_point(
    summary: ProgramSummary,
    config: ProcessorConfig,
    clock_ghz: float,
    cpi: int,
    words_per_cycle: float,
    service: Tuple[int, ...],
) -> PointTables:
    jobs = [(kernel, config) for kernel in summary.kernels]
    schedules = tuple(compile_batch(jobs)) if jobs else ()
    ucode_capacity = int(config.params.r_uc)
    owners = summary.ucode_owner
    ucode_fits = sum(
        schedules[kid].instruction_count
        for kid, owner in enumerate(owners) if owner == kid
    ) <= ucode_capacity
    clusters = config.clusters
    kinds = summary.kinds
    subject = summary.subject
    work = summary.work
    durations = [0] * len(kinds)
    reloads: Dict[int, int] = {}
    loaded = [False] * len(schedules)
    for i, kind in enumerate(kinds):
        if kind != _KERNEL:
            continue
        kid = subject[i]
        sched = schedules[kid]
        iterations = -(-work[i] // clusters)
        bodies = -(-iterations // sched.unroll_factor)
        duration = DISPATCH_CYCLES + sched.length + sched.ii * (bodies - 1)
        owner = owners[kid]
        if ucode_fits and not loaded[owner]:
            loaded[owner] = True
            reloads[i] = -(-sched.instruction_count // UCODE_WORDS_PER_CYCLE)
            duration += reloads[i]
        durations[i] = duration
    return PointTables(
        config=config,
        clock_ghz=clock_ghz,
        cpi=cpi,
        words_per_cycle=words_per_cycle,
        mem_latency=int(config.params.t_mem),
        capacity=int(config.srf_capacity_words),
        ucode_capacity=ucode_capacity,
        service=service,
        schedules=schedules,
        durations=tuple(durations),
        reloads=reloads,
        ucode_fits=ucode_fits,
        ucode_reloads=len(reloads),
        ucode_reload_cycles=sum(reloads.values()),
    )


_SUMMARIES: Dict[str, ProgramSummary] = {}
_SERVICE_TABLES: Dict[tuple, Tuple[int, ...]] = {}
_POINTS: Dict[tuple, PointTables] = {}
_SUMMARY_LOCK = threading.Lock()


def program_summary(application: str) -> ProgramSummary:
    """The cached encoding of one named application."""
    summary = _SUMMARIES.get(application)
    if summary is None:
        with _SUMMARY_LOCK:
            summary = _SUMMARIES.get(application)
            if summary is None:
                summary = build_summary(get_application(application))
                _SUMMARIES[application] = summary
    return summary


def clear_summary_cache() -> None:
    """Drop every cached encoding and table (tests mutating the
    application registry use this)."""
    with _SUMMARY_LOCK:
        _SUMMARIES.clear()
        _SERVICE_TABLES.clear()
        _POINTS.clear()


def point_tables(
    summary: ProgramSummary,
    config: ProcessorConfig,
    node: TechnologyNode,
    clock_ghz: float,
) -> PointTables:
    """The tables of one design point.

    Cached only for the summaries :func:`program_summary` hands out, so
    an ad-hoc program that shares a suite application's name can never
    read that application's tables.
    """
    cached = _SUMMARIES.get(summary.name) is summary
    key = (summary.name, config, node, clock_ghz)
    if cached:
        point = _POINTS.get(key)
        if point is not None:
            return point
    cpi, words_per_cycle = _rates(config, node, clock_ghz)
    if cached:
        skey = (summary.name, node, clock_ghz, config.params.b)
        service = _SERVICE_TABLES.get(skey)
        if service is None:
            service = _service_table(summary, words_per_cycle)
            _SERVICE_TABLES[skey] = service
    else:
        service = _service_table(summary, words_per_cycle)
    point = _build_point(
        summary, config, clock_ghz, cpi, words_per_cycle, service
    )
    if cached:
        _POINTS[key] = point
    return point


class Timing(NamedTuple):
    """What one evaluation of the recurrence measured."""

    cycles: int
    memory_busy_cycles: int
    cluster_busy_cycles: int
    memory_words: int
    memory_transfers: int
    spill_words: int
    reload_words: int
    ucode_reloads: int
    ucode_reload_cycles: int
    #: Per op: when its inputs and instruction were ready (``None``
    #: unless the timeline was requested) and when it completed.
    starts: Optional[Sequence[int]]
    finishes: Sequence[int]

    def records(self, summary: ProgramSummary) -> Timeline:
        """The per-operation timeline over this run's start and finish
        lists; its records are built when read."""
        if self.starts is None:
            raise ValueError(
                "this run recorded no timeline; evaluate it with "
                "timeline=True"
            )
        return Timeline(
            summary.kind_names, summary.labels, self.starts, self.finishes
        )

    def result(
        self,
        summary: ProgramSummary,
        point: PointTables,
        records: Sequence[OpRecord] = (),
        metrics: Optional[MetricsSnapshot] = None,
    ) -> SimulationResult:
        """The run as a :class:`SimulationResult` (``records`` empty for
        an analytical point)."""
        return SimulationResult(
            program=summary.name,
            config=point.config,
            clock_ghz=point.clock_ghz,
            cycles=self.cycles,
            useful_alu_ops=summary.total_alu_ops,
            records=records,
            spill_words=self.spill_words,
            reload_words=self.reload_words,
            memory_busy_cycles=self.memory_busy_cycles,
            cluster_busy_cycles=self.cluster_busy_cycles,
            ucode_reloads=self.ucode_reloads,
            bandwidth=BandwidthReport(
                lrf_words=summary.lrf_words,
                # Memory transfers transit the SRF on their way in/out.
                srf_words=summary.srf_access_words + self.memory_words,
                memory_words=self.memory_words,
            ),
            metrics=metrics,
        )


class Observer:
    """The spans and SRF metrics a traced or metered run emits.

    Resource spans match the component models': ``host`` per stream
    instruction, ``memory`` per transfer, ``microcontroller`` per
    microcode load and ``clusters`` per kernel call.  The SRF metrics
    are ``srf.peak_words``, ``srf.evictions``, ``srf.spill_words`` and
    ``srf.reload_words``, each created when it first happens.
    """

    def __init__(
        self,
        tracer: Tracer,
        metrics: Optional[MetricsRegistry],
        point: PointTables,
    ):
        self.tracer = tracer if tracer.enabled else None
        self.metrics = metrics
        self.clusters = point.config.clusters
        self.mem_latency = point.mem_latency
        self.peak_words = 0

    def host(self, start: int, done: int) -> None:
        if self.tracer is not None:
            self.tracer.span("host", "stream instruction", start, done)

    def transfer(
        self, words: int, requested: int, start: int, done: int, pattern
    ) -> None:
        if self.tracer is not None:
            self.tracer.span(
                "memory",
                f"{words}w {pattern.name.lower()}",
                start,
                done,
                words=words,
                pattern=pattern.name,
                requested=requested,
                data_ready=done + self.mem_latency,
            )

    def allocated(self, used: int) -> None:
        if used > self.peak_words:
            self.peak_words = used
            if self.metrics is not None:
                self.metrics.gauge("srf.peak_words").set(used)

    def evicted(self, words: int, writeback: bool) -> None:
        if self.metrics is not None:
            self.metrics.counter("srf.evictions").inc()
            if writeback:
                self.metrics.counter("srf.spill_words").inc(words)

    def reloaded(self, words: int) -> None:
        if self.metrics is not None:
            self.metrics.counter("srf.reload_words").inc(words)

    def kernel(
        self,
        schedule: KernelSchedule,
        work_items: int,
        start: int,
        finish: int,
        reload_cycles: int,
    ) -> None:
        if self.tracer is None:
            return
        if reload_cycles:
            self.tracer.span(
                "microcontroller",
                f"ucode {schedule.kernel_name}",
                start + DISPATCH_CYCLES,
                start + DISPATCH_CYCLES + reload_cycles,
                words=schedule.instruction_count,
            )
        self.tracer.span(
            "clusters",
            schedule.kernel_name,
            start,
            finish,
            work_items=work_items,
            iterations=-(-work_items // self.clusters),
            ucode_reload_cycles=reload_cycles,
        )


def evaluate(
    summary: ProgramSummary,
    point: PointTables,
    timeline: bool = False,
    observer: Optional[Observer] = None,
) -> Timing:
    """Run the recurrence for one point.

    ``timeline`` records every op's start; an ``observer`` sends the
    run through the SRF loop, which tracks the state it reports.
    """
    starts = [0] * len(summary.kinds) if timeline else None
    if (
        observer is None
        and point.ucode_fits
        and point.capacity >= summary.peak_resident_words
    ):
        return _evaluate_fast(summary, point, starts)
    return _evaluate_with_srf(summary, point, starts, observer)


def _evaluate_fast(
    summary: ProgramSummary,
    point: PointTables,
    starts: Optional[List[int]],
) -> Timing:
    """The spill-free timing recurrence: pure max-plus arithmetic.

    Every operation's completion is the max of its dependences, the
    scoreboard-gated host delivery, and its resource's availability,
    plus its closed-form duration.  No SRF state, no objects — this
    loop is the entire cost of one analytical grid point.
    """
    kinds = summary.kinds
    subject = summary.subject
    deps = summary.deps
    durations = point.durations
    service = point.service
    cpi = point.cpi
    mem_latency = point.mem_latency
    n_ops = len(kinds)
    completion = [0] * n_ops
    channel_free = 0
    mem_free = 0
    cluster_free = 0
    memory_busy = 0
    cluster_busy = 0
    depth = SCOREBOARD_DEPTH
    for i in range(n_ops):
        gate = completion[i - depth] if i >= depth else 0
        if channel_free > gate:
            gate = channel_free
        channel_free = gate + cpi
        ready = channel_free
        for d in deps[i]:
            t = completion[d]
            if t > ready:
                ready = t
        if starts is not None:
            starts[i] = ready
        if kinds[i] == _KERNEL:
            duration = durations[i]
            if cluster_free > ready:
                ready = cluster_free
            finish = ready + duration
            cluster_free = finish
            cluster_busy += duration
        else:
            cost = service[subject[i]]
            if mem_free > ready:
                ready = mem_free
            mem_free = ready + cost
            memory_busy += cost
            finish = mem_free + mem_latency
        completion[i] = finish
    return Timing(
        cycles=max(completion, default=0),
        memory_busy_cycles=memory_busy,
        cluster_busy_cycles=cluster_busy,
        memory_words=summary.explicit_memory_words,
        memory_transfers=summary.explicit_transfers,
        spill_words=0,
        reload_words=0,
        ucode_reloads=point.ucode_reloads,
        ucode_reload_cycles=point.ucode_reload_cycles,
        starts=starts,
        finishes=completion,
    )


def _evaluate_with_srf(
    summary: ProgramSummary,
    point: PointTables,
    starts: Optional[List[int]],
    observer: Optional[Observer],
) -> Timing:
    """The full recurrence with SRF spilling, over integer handles.

    The same LRU/writeback/reload rules as
    :class:`repro.sim.srf.SRFAllocator`, and the microcode store's LRU
    by kernel name for kernel sets that overflow it.
    """
    kinds = summary.kinds
    subject = summary.subject
    deps = summary.deps
    inputs = summary.inputs
    outputs = summary.outputs
    releases = summary.releases
    streams = summary.streams
    stream_words = summary.stream_words
    last_use = summary.stream_last_use
    eff = summary.stream_efficiency
    owners = summary.ucode_owner
    work = summary.work
    schedules = point.schedules
    durations = point.durations
    reloads = point.reloads
    cpi = point.cpi
    mem_latency = point.mem_latency
    capacity = point.capacity
    ucode_capacity = point.ucode_capacity
    ucode_fits = point.ucode_fits
    words_per_cycle = point.words_per_cycle

    n_ops = len(kinds)
    completion = [0] * n_ops
    channel_free = 0
    mem_free = 0
    cluster_free = 0
    memory_busy = 0
    cluster_busy = 0
    spill_out = 0
    reload_in = 0
    memory_words = 0
    transfer_count = 0

    # SRF allocator state (insertion-ordered dict = the sim's LRU scan).
    resident: Dict[int, int] = {}
    dirty: set = set()
    pinned: set = set()
    last_touch: Dict[int, int] = {}
    used = 0

    # Microcode store (LRU by kernel name) for kernel sets that overflow
    # it; when they fit, the one-time loads are folded into
    # ``durations`` and the totals arrive precomputed.
    uc_resident: Dict[int, int] = {}
    uc_used = 0
    if ucode_fits:
        ucode_reloads = point.ucode_reloads
        ucode_reload_cycles = point.ucode_reload_cycles
    else:
        ucode_reloads = ucode_reload_cycles = 0

    def transfer(words: int, earliest: int, s: Optional[int] = None):
        """One memory-pipe transfer of stream ``s`` (a spill when
        ``None``); returns (bandwidth_done, data_ready)."""
        nonlocal mem_free, memory_busy, memory_words, transfer_count
        start = earliest if earliest > mem_free else mem_free
        efficiency = _SEQUENTIAL.efficiency if s is None else eff[s]
        cost = int(round(words / (words_per_cycle * efficiency)))
        done = start + cost
        mem_free = done
        memory_busy += cost
        memory_words += words
        transfer_count += 1
        if observer is not None:
            observer.transfer(
                words, earliest, start, done,
                _SEQUENTIAL if s is None else streams[s].pattern,
            )
        return done, done + mem_latency

    def allocate(s: int, now: int, make_dirty: bool):
        """Make stream ``s`` resident; returns its evictions as
        (stream, words, writeback)."""
        nonlocal used, spill_out
        last_touch[s] = now
        if s in resident:
            if make_dirty:
                dirty.add(s)
            return []
        words = stream_words[s]
        if words > capacity:
            raise CapacityError(
                f"stream {streams[s]!r} ({words} words) exceeds the whole "
                f"SRF ({capacity} words); the application must strip-mine"
            )
        evictions = []
        while capacity - used < words:
            victim = None
            victim_touch = None
            for cand in resident:
                if cand in pinned:
                    continue
                touch = last_touch[cand]
                if victim_touch is None or touch < victim_touch:
                    victim = cand
                    victim_touch = touch
            if victim is None:
                raise CapacityError(
                    "SRF working set of one operation exceeds capacity; "
                    "the application must strip-mine"
                )
            v_words = resident.pop(victim)
            used -= v_words
            writeback = victim in dirty
            dirty.discard(victim)
            if writeback:
                spill_out += v_words
            if observer is not None:
                observer.evicted(v_words, writeback)
            evictions.append((victim, v_words, writeback))
        resident[s] = words
        used += words
        if make_dirty:
            dirty.add(s)
        if observer is not None:
            observer.allocated(used)
        return evictions

    def spill(evictions, op_index: int, earliest: int) -> int:
        """Write back evicted streams that are still needed."""
        t = earliest
        for victim, words, writeback in evictions:
            if writeback and last_use[victim] > op_index:
                t, _ = transfer(words, t)
        return t

    # Inputs measured "already in the SRF" occupy space from cycle 0;
    # dirty because memory holds no copy (eviction must write back).
    for s in summary.preloaded:
        allocate(s, -1, True)

    depth = SCOREBOARD_DEPTH
    for i in range(n_ops):
        gate = completion[i - depth] if i >= depth else 0
        if channel_free > gate:
            gate = channel_free
        channel_free = gate + cpi
        if observer is not None:
            observer.host(gate, channel_free)
        ready = channel_free
        for d in deps[i]:
            t = completion[d]
            if t > ready:
                ready = t
        if starts is not None:
            starts[i] = ready
        kind = kinds[i]
        if kind == _LOAD:
            s = subject[i]
            evictions = allocate(s, i, False)
            start = spill(evictions, i, ready)
            _, finish = transfer(stream_words[s], start, s)
        elif kind == _STORE:
            s = subject[i]
            _, finish = transfer(stream_words[s], ready, s)
        else:
            start = ready
            for s in inputs[i]:
                pinned.add(s)
            for s in outputs[i]:
                pinned.add(s)
            for s in inputs[i]:
                if s not in resident:
                    evictions = allocate(s, i, False)
                    start = spill(evictions, i, start)
                    _, start = transfer(stream_words[s], start, s)
                    reload_in += stream_words[s]
                    if observer is not None:
                        observer.reloaded(stream_words[s])
            for s in outputs[i]:
                evictions = allocate(s, i, True)
                start = spill(evictions, i, start)
            kid = subject[i]
            duration = durations[i]
            reload = reloads.get(i, 0)
            if not ucode_fits:
                owner = owners[kid]
                words = schedules[kid].instruction_count
                if owner in uc_resident:
                    uc_resident[owner] = uc_resident.pop(owner)  # MRU
                else:
                    while uc_resident and uc_used + words > ucode_capacity:
                        lru = next(iter(uc_resident))
                        uc_used -= uc_resident.pop(lru)
                    uc_resident[owner] = words
                    uc_used += words
                    reload = -(-words // UCODE_WORDS_PER_CYCLE)
                    duration += reload
                    ucode_reloads += 1
                    ucode_reload_cycles += reload
            if cluster_free > start:
                start = cluster_free
            finish = start + duration
            cluster_free = finish
            cluster_busy += duration
            if observer is not None:
                observer.kernel(schedules[kid], work[i], start, finish, reload)
            for s in inputs[i]:
                pinned.discard(s)
            for s in outputs[i]:
                pinned.discard(s)
        completion[i] = finish
        for s in releases[i]:
            words = resident.pop(s, None)
            if words is not None:
                used -= words
            dirty.discard(s)
            pinned.discard(s)

    return Timing(
        cycles=max(completion, default=0),
        memory_busy_cycles=memory_busy,
        cluster_busy_cycles=cluster_busy,
        memory_words=memory_words,
        memory_transfers=transfer_count,
        spill_words=spill_out,
        reload_words=reload_in,
        ucode_reloads=ucode_reloads,
        ucode_reload_cycles=ucode_reload_cycles,
        starts=starts,
        finishes=completion,
    )
