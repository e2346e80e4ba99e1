"""Kernel compilation driver: kernel graph + (C, N) -> schedule + rates.

Mirrors the paper's toolchain step "each kernel ... was then recompiled
for different architectures" (section 5): pick an unroll factor, software-
pipeline the body with the modulo scheduler, enforce LRF register
pressure, and report the initiation interval and schedule length that the
performance analysis and the application simulator consume.

A schedule is a function of the kernel and of the machine as that
kernel sees it (:func:`repro.compiler.cache.machine_view`), not of the
whole (C, N) point: cluster count reaches a kernel only through COMM
latency.  Compilation results are therefore cached at three levels:

* an **input** memo keyed on each call's own inputs, so a hit derives
  nothing (exact object reuse within one process);
* a **content** memo keyed on the tuple ``(kernel_signature,
  machine_view, unroll)``, which holds each distinct schedule once; a
  hit returns it restamped with the caller's config, and costs a dict
  lookup on that tuple — no JSON and no SHA-256;
* the **persistent** content-addressed store of
  :mod:`repro.compiler.cache`, keyed on
  :func:`~repro.compiler.cache.schedule_key` (the same ingredients,
  hashed; each entry also carries the compiler fingerprint, checked on
  load), so fresh processes (CI, ``repro report``, notebook restarts)
  reuse schedules compiled by earlier ones.
  The disk key is computed only when the persistent store is enabled
  and the content memo missed.

:func:`compile_batch` compiles whole (kernel, config) grids at once:
each distinct schedule is searched once.

A kernel the scheduler cannot fit raises :class:`CompilationError`,
and the content memo's companion table remembers that answer for the
rest of the process (never on disk), so a retry fails at once instead
of repeating the whole II scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.config import ProcessorConfig
from ..isa.kernel import KernelGraph
from .cache import (
    ScheduleCache,
    default_cache,
    kernel_signature,
    machine_view,
    schedule_key,
)
from .listsched import critical_path, list_schedule
from .machine import MachineDescription, build_machine
from .modulo import (
    ModuloSchedule,
    recurrence_mii,
    resource_mii,
    try_modulo_schedule,
    verify_schedule,
)
from .pressure import max_live
from .unroll import SchedGraph, build_sched_graph, choose_unroll_factor

#: Upper bound on the II search: a kernel that cannot be pipelined below
#: this multiple of its MII (plus slack) indicates a modeling bug.
MAX_II_SLACK = 64

#: One compilation job: a kernel and the configuration to compile it for.
CompileJob = Tuple[KernelGraph, ProcessorConfig]


@dataclass(frozen=True)
class KernelSchedule:
    """The compiled form of one kernel for one processor configuration."""

    kernel_name: str
    config: ProcessorConfig
    unroll_factor: int
    #: Initiation interval of the *unrolled* body (cycles).
    ii: int
    #: Cycles from first issue to last writeback of one body (prologue
    #: depth of the software pipeline).
    length: int
    max_live: int
    register_capacity: int
    resource_mii: int
    recurrence_mii: int
    alu_ops_per_iteration: int

    @property
    def ii_per_iteration(self) -> float:
        """Steady-state cycles per original kernel-loop iteration."""
        return self.ii / self.unroll_factor

    @property
    def ops_per_cycle_per_cluster(self) -> float:
        """Sustained ALU operations per cycle in one cluster."""
        return self.alu_ops_per_iteration / self.ii_per_iteration

    def ops_per_cycle(self) -> float:
        """Sustained whole-chip ALU operations per cycle (C clusters)."""
        return self.ops_per_cycle_per_cluster * self.config.clusters

    def inner_loop_cycles(self, iterations: int) -> int:
        """Cycles to run ``iterations`` per-cluster loop iterations.

        One schedule-length pass covers the pipeline fill and drain
        (prologue, priming, epilogue); each further unrolled body costs
        one II.  Short streams pay the fixed ``length`` over few
        iterations — the paper's short-stream effect.
        """
        if iterations <= 0:
            return 0
        bodies = -(-iterations // self.unroll_factor)
        return self.length + self.ii * max(0, bodies - 1)

    @property
    def instruction_count(self) -> int:
        """VLIW words the kernel occupies in microcode storage."""
        return self.length

    @property
    def efficiency(self) -> float:
        """Achieved fraction of the ALU-issue bound (1.0 = perfect)."""
        peak = self.alu_ops_per_iteration * self.unroll_factor / (
            self.config.alus_per_cluster
        )
        return peak / self.ii


class CompilationError(RuntimeError):
    """The scheduler could not produce a valid schedule."""


def compile_kernel(
    kernel: KernelGraph,
    config: ProcessorConfig,
    unroll_factor: Optional[int] = None,
    alu_mix: Optional[Dict[str, float]] = None,
    cache: Optional[ScheduleCache] = None,
) -> KernelSchedule:
    """Compile ``kernel`` for ``config`` (cached; see :func:`clear_cache`).

    Searches IIs upward from the MII until both the modulo scheduler
    succeeds and the schedule's MaxLive fits the cluster's LRF capacity —
    register pressure is what makes very small IIs unprofitable at large
    ``N``, the paper's intracluster roll-off.  Every schedule a search
    returns has passed :func:`~repro.compiler.modulo.verify_schedule`.

    ``alu_mix`` compiles against a heterogeneous ALU pool (see
    :func:`repro.compiler.machine.build_machine`); the default is the
    paper's homogeneous-ALU abstraction.

    ``cache`` overrides the persistent schedule store (default: the
    process-wide :func:`repro.compiler.cache.default_cache`); a disk hit
    skips the II search entirely and reconstructs the exact schedule the
    cold compile produced.

    A :class:`CompilationError` is remembered per content key (see
    :data:`_FAILURES`): compiling the same kernel for the same machine
    view again raises the same message without searching.
    """
    key = _memo_key(kernel, config, alu_mix, unroll_factor)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached

    machine, unroll_factor, content = _resolve(
        kernel, config, alu_mix, unroll_factor
    )
    shared = _SCHEDULES.get(content)
    if shared is None:
        failure = _FAILURES.get(content)
        if failure is not None:
            raise CompilationError(failure)
        disk = cache if cache is not None else default_cache()
        try:
            shared = _load_or_search(kernel, machine, unroll_factor, disk)
        except CompilationError as error:
            _FAILURES[content] = str(error)
            raise
        _SCHEDULES[content] = shared
    # The schedule is shared by every config with the same view; its
    # rates and efficiency read the config it is stamped with.
    shared = _restamp(shared, config)
    _memo_store(key, kernel, shared)
    return shared


def _resolve(
    kernel: KernelGraph,
    config: ProcessorConfig,
    alu_mix: Optional[Dict[str, float]],
    unroll_factor: Optional[int],
) -> Tuple[MachineDescription, int, Tuple]:
    """The machine, the unroll factor a compile starts from, and the
    content-memo key of its schedule: ``(kernel_signature, machine_view,
    unroll)``, the ingredients of :func:`schedule_key` left unhashed."""
    machine = build_machine(config, alu_mix)
    if unroll_factor is None:
        unroll_factor = choose_unroll_factor(kernel, machine)
    content = (
        kernel_signature(kernel),
        machine_view(kernel, machine),
        unroll_factor,
    )
    return machine, unroll_factor, content


def _load_or_search(
    kernel: KernelGraph,
    machine: MachineDescription,
    unroll_factor: int,
    disk: ScheduleCache,
) -> KernelSchedule:
    """A content-memo miss: the persistent store's schedule when it
    holds a usable one, else a cold search (stored back).  The disk key
    is hashed only when the store is enabled."""
    if not disk.enabled:
        return _search(kernel, machine, unroll_factor)[0]
    address = schedule_key(kernel, machine, unroll_factor)
    payload = disk.load(address)
    if payload is not None:
        loaded = _schedule_from_payload(kernel, machine, payload)
        if loaded is not None:
            return loaded
        # Decodable but unusable (e.g. its MaxLive exceeds this
        # machine's registers): drop it and recompile from scratch.
        disk.evict(address)
    result, schedule = _search(kernel, machine, unroll_factor)
    disk.store(address, _schedule_to_payload(result, schedule))
    return result


def _restamp(
    schedule: KernelSchedule, config: ProcessorConfig
) -> KernelSchedule:
    """``schedule`` stamped with ``config``: a field-for-field copy that
    skips :func:`dataclasses.replace`'s re-run of ``__init__`` (the
    class has no ``__post_init__`` to miss)."""
    if schedule.config == config:
        return schedule
    stamped = object.__new__(KernelSchedule)
    stamped.__dict__.update(schedule.__dict__, config=config)
    return stamped


def _search(
    kernel: KernelGraph,
    machine: MachineDescription,
    unroll_factor: int,
) -> Tuple[KernelSchedule, ModuloSchedule]:
    """Cold compile: the II search, backing off the unroll factor."""
    # Register pressure may defeat an aggressive unroll at every II; the
    # compiler then backs off to smaller bodies (less ILP, same result).
    while True:
        graph = build_sched_graph(kernel, machine, unroll_factor)
        try:
            schedule, pressure = _search_ii(graph, machine)
            break
        except CompilationError:
            if unroll_factor == 1:
                raise
            unroll_factor //= 2
    result = KernelSchedule(
        kernel_name=kernel.name,
        config=machine.config,
        unroll_factor=unroll_factor,
        ii=schedule.ii,
        length=schedule.length,
        max_live=pressure,
        register_capacity=machine.register_capacity,
        resource_mii=schedule.resource_mii,
        recurrence_mii=schedule.recurrence_mii,
        alu_ops_per_iteration=graph.alu_ops_per_iteration,
    )
    return result, schedule


def compile_batch(
    jobs: Sequence[CompileJob],
    alu_mix: Optional[Dict[str, float]] = None,
    cache: Optional[ScheduleCache] = None,
) -> List[KernelSchedule]:
    """Compile a grid of (kernel, config) jobs; results in input order.

    Each distinct schedule is compiled at most once: repeated jobs and
    jobs whose kernels see the same machine are memo hits, so a full
    Figure-13/14/15 + Table 5 regeneration searches each schedule
    exactly once.  The returned schedules are the ones serial
    :func:`compile_kernel` calls return, and every result lands in the
    in-memory memos.
    """
    return [
        compile_kernel(kernel, config, alu_mix=alu_mix, cache=cache)
        for kernel, config in jobs
    ]


def _search_ii(
    graph: SchedGraph, machine: MachineDescription
) -> Tuple[ModuloSchedule, int]:
    """Find the smallest feasible II; returns (schedule, MaxLive).

    Searches upward from the MII, with the MII bounds computed once and
    shared across attempts.  Once an attempt exhausts its backtracking
    budget or its schedule's MaxLive exceeds the register file, the
    search's upper bound drops to the list-schedule length (a list
    schedule is a valid modulo schedule at II = its length), and if
    every II below that bound fails the list schedule itself is the
    deterministic fallback.  The cap is decided by the graph, never the
    clock, so a dense graph whose MaxLive stays above the register file
    fails after at most that many attempts instead of scanning to
    ``4*MII + MAX_II_SLACK``; a kernel whose only fitting II lies above
    its list-schedule length fails too.  The list schedule is built
    only once the scan reaches the body's critical path, below which
    the cap cannot bind, and that path is measured only after a first
    failure: most searches never fail, and most that do end long
    before it.
    """
    r_bound = resource_mii(graph, machine)
    c_bound = recurrence_mii(graph, machine)
    mii = max(r_bound, c_bound)
    hard_upper = mii * 4 + MAX_II_SLACK
    upper = hard_upper
    shortest = None
    fallback = None
    last_failure = "no attempt"
    ii = mii
    while ii < upper:
        if shortest is not None and fallback is None and ii >= shortest:
            fallback = list_schedule(graph, machine)
            upper = min(upper, fallback.length)
            continue
        schedule = try_modulo_schedule(
            graph,
            machine,
            ii,
            resource_bound=r_bound,
            recurrence_bound=c_bound,
        )
        if schedule is None:
            last_failure = f"scheduler budget exhausted at II={ii}"
        else:
            pressure = max_live(graph, schedule.start, ii)
            if pressure <= machine.register_capacity:
                verify_schedule(graph, machine, schedule)
                return schedule, pressure
            last_failure = (
                f"MaxLive {pressure} exceeds {machine.register_capacity} "
                f"registers at II={ii}"
            )
        if shortest is None:
            shortest = critical_path(graph)
        ii += 1
    if shortest is not None and fallback is None and shortest <= hard_upper:
        fallback = list_schedule(graph, machine)
    if fallback is not None and fallback.length <= hard_upper:
        schedule = fallback.as_modulo_schedule(r_bound, c_bound)
        pressure = max_live(graph, schedule.start, schedule.ii)
        if pressure <= machine.register_capacity:
            verify_schedule(graph, machine, schedule)
            return schedule, pressure
        last_failure = (
            f"MaxLive {pressure} exceeds {machine.register_capacity} "
            f"registers at fallback II={schedule.ii}"
        )
    raise CompilationError(
        f"cannot schedule kernel '{graph.name}' on {machine.describe()}: "
        f"{last_failure}"
    )


# --- persistent-cache payloads -----------------------------------------


def _schedule_to_payload(
    result: KernelSchedule, schedule: ModuloSchedule
) -> Dict[str, Any]:
    """Serialize one compile for :class:`~repro.compiler.cache.ScheduleCache`.

    The start map is kept so a loaded entry can be re-verified against a
    freshly built scheduling graph (the tests do).
    """
    return {
        "kind": "modulo",
        "kernel": result.kernel_name,
        "unroll_factor": result.unroll_factor,
        "ii": result.ii,
        "length": result.length,
        "max_live": result.max_live,
        "resource_mii": result.resource_mii,
        "recurrence_mii": result.recurrence_mii,
        "start": sorted(schedule.start.items()),
    }


def _schedule_from_payload(
    kernel: KernelGraph,
    machine: MachineDescription,
    payload: Dict[str, Any],
) -> Optional[KernelSchedule]:
    """Reconstruct a :class:`KernelSchedule` from a cache payload.

    Returns ``None`` when the payload is structurally or semantically
    unusable — the caller treats that exactly like a cache miss.  The
    entry's checksum and compiler fingerprint already guard against
    corruption and staleness, so the start times are not re-verified.
    """
    try:
        unroll_factor = int(payload["unroll_factor"])
        ii = int(payload["ii"])
        length = int(payload["length"])
        pressure = int(payload["max_live"])
        r_bound = int(payload["resource_mii"])
        c_bound = int(payload["recurrence_mii"])
        if payload["kind"] != "modulo":
            return None
        if unroll_factor < 1 or ii < 1 or length < ii:
            return None
        if pressure > machine.register_capacity:
            return None
    except (KeyError, TypeError, ValueError):
        return None
    return KernelSchedule(
        kernel_name=kernel.name,
        config=machine.config,
        unroll_factor=unroll_factor,
        ii=ii,
        length=length,
        max_live=pressure,
        register_capacity=machine.register_capacity,
        resource_mii=r_bound,
        recurrence_mii=c_bound,
        alu_ops_per_iteration=kernel.stats().alu_ops,
    )


# --- in-memory memos ---------------------------------------------------

#: Input level: a call's own inputs -> the schedule returned for them.
_CACHE: Dict[Tuple, KernelSchedule] = {}
_CACHE_KERNELS: Dict[int, KernelGraph] = {}
#: Content level: ``(kernel_signature, machine_view, unroll)`` (see
#: :func:`_resolve`) -> each distinct schedule, once.
_SCHEDULES: Dict[Tuple, KernelSchedule] = {}
#: Content level, failed searches: the same key -> the message of the
#: :class:`CompilationError` the search raised.  Kept apart from
#: :data:`_SCHEDULES` so :func:`memo_size` counts schedules only.
_FAILURES: Dict[Tuple, str] = {}


def _memo_key(
    kernel: KernelGraph,
    config: ProcessorConfig,
    alu_mix: Optional[Dict[str, float]],
    unroll_factor: Optional[int],
) -> Tuple:
    """The input-level memo key: the compile's inputs as given.

    Nothing is derived from them, so a hit is one dict lookup — no
    machine build and no unroll choice.  ``unroll_factor`` stays
    ``None`` when the compiler picks it; the kernel's ``id`` is
    unambiguous because :func:`_memo_store` pins the kernel.
    """
    mix = None if alu_mix is None else tuple(sorted(alu_mix.items()))
    return (id(kernel), kernel.name, config, mix, unroll_factor)


def _memo_store(
    key: Tuple, kernel: KernelGraph, schedule: KernelSchedule
) -> None:
    _CACHE[key] = schedule
    _CACHE_KERNELS[id(kernel)] = kernel  # pin to keep ids unique


def clear_cache() -> None:
    """Drop all in-memory compilations and remembered failures (tests
    that mutate kernels use this); the persistent store is untouched — use
    ``default_cache().clear()`` for that."""
    _CACHE.clear()
    _CACHE_KERNELS.clear()
    _SCHEDULES.clear()
    _FAILURES.clear()


def memo_size() -> int:
    """Number of distinct schedules held in memory (serving stats): a
    call that only restamps a held schedule does not grow it."""
    return len(_SCHEDULES)
