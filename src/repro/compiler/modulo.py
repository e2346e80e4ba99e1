"""Iterative modulo scheduling (software pipelining), after Rau's IMS.

The paper measures "kernel inner-loop performance ... from static analysis
of compiled kernels" produced by the Imagine VLIW kernel scheduler, which
software-pipelines inner loops.  This module reproduces that analysis: it
finds the smallest initiation interval (II) at which one (unrolled) loop
body can be issued repeatedly on a cluster, subject to

* **resources** — issue slots per functional-unit class per cycle,
* **recurrences** — loop-carried dependence cycles,
* **registers**  — the LRF capacity bound is enforced by the driver in
  :mod:`repro.compiler.pipeline` using :func:`repro.compiler.pressure.max_live`.

The sustained inner-loop rate is then ``ALU ops per iteration x C / II``
operations per cycle for the whole machine.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..isa.ops import FUClass
from .machine import MachineDescription
from .unroll import SchedGraph

#: Scheduling attempts allowed per node before giving up on an II.
BUDGET_FACTOR = 8


@dataclass(frozen=True)
class ModuloSchedule:
    """A valid modulo schedule of one loop body at initiation interval II."""

    ii: int
    start: Dict[int, int]
    length: int
    resource_mii: int
    recurrence_mii: int

    @property
    def stages(self) -> int:
        """Pipeline stages: overlapped loop bodies in the steady state."""
        return -(-self.length // self.ii)


def resource_mii(graph: SchedGraph, machine: MachineDescription) -> int:
    """Resource-constrained minimum II: ``max_r ceil(uses_r / slots_r)``."""
    uses: Dict[str, int] = {}
    for resource in graph.resources:
        if resource is not None:
            uses[resource] = uses.get(resource, 0) + 1
    bound = 1
    for resource, count in uses.items():
        slots = machine.slots_of(resource)
        if slots <= 0:
            raise ValueError(f"machine has no {resource} slots")
        bound = max(bound, -(-count // slots))
    return bound


def recurrence_mii(graph: SchedGraph, machine: MachineDescription) -> int:
    """Recurrence-constrained minimum II.

    For every loop-carried edge ``u -> v`` (distance ``d``), the cycle
    closing it has latency ``longest_path(v -> u) + latency(u)`` and spans
    ``d`` iterations, so II must be at least the ceiling of their ratio.
    Multi-back-edge cycles are not enumerated (the kernel suite has none);
    the scheduler would still converge on a feasible II for them because
    failed attempts raise II.
    """
    bound = 1
    for u in range(len(graph)):
        for v, latency, distance in graph.succs[u]:
            if distance == 0:
                continue
            path = _longest_path(graph, machine, source=v, target=u)
            if path is None and u != v:
                cycle_latency = latency
            else:
                cycle_latency = (path or 0) + latency
            bound = max(bound, -(-cycle_latency // distance))
    return bound


def _longest_path(
    graph: SchedGraph,
    machine: MachineDescription,
    source: int,
    target: int,
) -> Optional[int]:
    """Longest latency-weighted distance-0 path ``source -> target``.

    Returns ``None`` when no path exists.  Edge weight is the latency of
    the edge's producer, so a path's weight is the earliest-start offset
    it imposes on ``target``.
    """
    if source == target:
        return 0
    best: Dict[int, int] = {source: 0}
    # Nodes are in topological order for distance-0 edges by construction.
    for v in range(source, len(graph)):
        if v not in best:
            continue
        base = best[v]
        for succ, latency, distance in graph.succs[v]:
            if distance > 0 or succ <= v:
                continue
            candidate = base + latency
            if best.get(succ, -1) < candidate:
                best[succ] = candidate
    return best.get(target)


def _heights(graph: SchedGraph, ii: int) -> List[int]:
    """Scheduling priority: latency-weighted height over all edges.

    Back edges contribute ``latency - II * distance`` (possibly negative),
    which raises the priority of operations on recurrence cycles.
    """
    height = [0] * len(graph)
    for v in range(len(graph) - 1, -1, -1):
        best = 0
        for succ, latency, distance in graph.succs[v]:
            if distance == 0:
                best = max(best, height[succ] + latency)
            elif succ <= v:
                # One relaxation pass over back edges is enough for the
                # sparse recurrences of the kernel suite.
                best = max(best, height[succ] + latency - ii * distance)
        height[v] = best
    return height


class _ReservationTable:
    """Modulo reservation table: who occupies each (slot, resource).

    Occupancy is tracked incrementally — an integer count per
    (resource, slot) next to the occupant list — so :meth:`has_room`
    and :meth:`occupants` are O(1) array reads rather than list scans;
    the placement loop in :func:`try_modulo_schedule` probes up to II
    slots per operation, which made lookup cost the scheduler's
    hottest path at large N.
    """

    __slots__ = ("ii", "machine", "counts", "nodes", "capacity")

    def __init__(self, ii: int, machine: MachineDescription):
        self.ii = ii
        self.machine = machine
        self.counts: Dict[str, List[int]] = {
            name: [0] * ii for name in machine.issue_slots
        }
        self.nodes: Dict[str, List[List[int]]] = {
            name: [[] for _ in range(ii)] for name in machine.issue_slots
        }
        self.capacity: Dict[str, int] = dict(machine.issue_slots)

    def occupants(self, time: int, resource: str) -> List[int]:
        return self.nodes[resource][time % self.ii]

    def has_room(self, time: int, resource: str) -> bool:
        slot = time % self.ii
        return self.counts[resource][slot] < self.capacity[resource]

    def place(self, node: int, time: int, resource: str) -> None:
        slot = time % self.ii
        self.counts[resource][slot] += 1
        self.nodes[resource][slot].append(node)

    def remove(self, node: int, time: int, resource: str) -> None:
        slot = time % self.ii
        self.counts[resource][slot] -= 1
        self.nodes[resource][slot].remove(node)


def try_modulo_schedule(
    graph: SchedGraph,
    machine: MachineDescription,
    ii: int,
    budget_factor: int = BUDGET_FACTOR,
    resource_bound: Optional[int] = None,
    recurrence_bound: Optional[int] = None,
) -> Optional[ModuloSchedule]:
    """One IMS attempt at a fixed II; ``None`` if the budget runs out.

    ``resource_bound``/``recurrence_bound`` let the II-search driver
    pass in MII values it already computed (they only decorate the
    returned schedule); when omitted they are recomputed here.

    The scheduling decisions — priority order, slot probing, forced
    placement and eviction — are exactly the reference IMS algorithm's;
    this implementation only reads the graph's per-node resources and
    latencies and uses the reservation table's O(1) occupancy counts,
    so any schedule it returns is bit-identical to the original
    scheduler's.
    """
    n = len(graph)
    height = _heights(graph, ii)
    resource_of = graph.resources
    latency_of = graph.latencies
    capacity = dict(machine.issue_slots)
    preds = graph.preds
    succs = graph.succs
    start: Dict[int, int] = {}
    previous: Dict[int, int] = {}
    table = _ReservationTable(ii, machine)
    budget = budget_factor * n

    # Max-heap by (height, reverse node order) for deterministic choices.
    pending: List[Tuple[int, int]] = [(-height[v], v) for v in range(n)]
    heapq.heapify(pending)
    in_pending = [True] * n
    heappush = heapq.heappush
    heappop = heapq.heappop

    def evict(v: int) -> None:
        if v in start:
            resource = resource_of[v]
            if resource is not None:
                table.remove(v, start[v], resource)
            previous[v] = start[v]
            del start[v]
            if not in_pending[v]:
                in_pending[v] = True
                heappush(pending, (-height[v], v))

    while pending:
        _negh, v = heappop(pending)
        if not in_pending[v]:
            continue
        in_pending[v] = False
        if budget <= 0:
            return None
        budget -= 1

        earliest = 0
        for u, latency, distance in preds[v]:
            if u in start:
                candidate = start[u] + latency - ii * distance
                if candidate > earliest:
                    earliest = candidate

        resource = resource_of[v]
        if resource is None:
            chosen = earliest
        else:
            counts = table.counts[resource]
            cap = capacity[resource]
            chosen = -1
            for t in range(earliest, earliest + ii):
                if counts[t % ii] < cap:
                    chosen = t
                    break
            if chosen < 0:
                # Forced placement (IMS): bump past the previous slot so
                # repeated conflicts walk forward instead of livelocking.
                chosen = earliest
                if v in previous and chosen <= previous[v]:
                    chosen = previous[v] + 1
                occupants = list(table.occupants(chosen, resource))
                # Evict the lowest-priority occupant(s) to make room.
                occupants.sort(key=lambda u: (height[u], -u))
                needed = len(occupants) - cap + 1
                for u in occupants[:needed]:
                    evict(u)
            table.place(v, chosen, resource)

        start[v] = chosen
        # Displace any scheduled successor that the new start violates.
        for succ, latency, distance in succs[v]:
            if succ in start and succ != v:
                if start[succ] < chosen + latency - ii * distance:
                    evict(succ)

    length = 1 + max(start[v] + latency_of[v] - 1 for v in range(n))
    return ModuloSchedule(
        ii=ii,
        start=dict(start),
        length=length,
        resource_mii=(
            resource_bound
            if resource_bound is not None
            else resource_mii(graph, machine)
        ),
        recurrence_mii=(
            recurrence_bound
            if recurrence_bound is not None
            else recurrence_mii(graph, machine)
        ),
    )


def verify_schedule(
    graph: SchedGraph, machine: MachineDescription, schedule: ModuloSchedule
) -> None:
    """Raise ``AssertionError`` if the schedule violates any constraint.

    Used by tests and (cheaply) by the compilation driver: all dependence
    inequalities must hold and no (slot, class) pair may be oversubscribed.
    """
    ii = schedule.ii
    start = schedule.start
    for v, preds in enumerate(graph.preds):
        for u, latency, distance in preds:
            assert start[v] >= start[u] + latency - ii * distance, (
                f"dependence {u}->{v} violated in {graph.name} at II={ii}"
            )
    slots = machine.issue_slots
    usage: Dict[Tuple[int, str], int] = {}
    for v, resource in enumerate(graph.resources):
        if resource is None:
            continue
        key = (start[v] % ii, resource)
        usage[key] = usage.get(key, 0) + 1
        assert usage[key] <= slots[resource], (
            f"{resource} oversubscribed at slot {start[v] % ii} "
            f"in {graph.name} at II={ii}"
        )
