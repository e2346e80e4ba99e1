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
from operator import add
from typing import Dict, List, Optional, Tuple

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
    succs = graph.succs
    for v in range(len(graph) - 1, -1, -1):
        best = 0
        for succ, latency, distance in succs[v]:
            if distance == 0:
                reach = height[succ] + latency
            elif succ <= v:
                # One relaxation pass over back edges is enough for the
                # sparse recurrences of the kernel suite.
                reach = height[succ] + latency - ii * distance
            else:
                continue
            if reach > best:
                best = reach
        height[v] = best
    return height


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
    placement and eviction — are exactly the reference IMS algorithm's.
    The state lives in flat lists: start times and previous starts per
    node, and a modulo reservation table of ``rows x II`` cells (one row
    per issue resource the graph uses) holding each cell's occupant
    count and occupants, addressed through each node's row offset.
    """
    n = len(graph)
    height = _heights(graph, ii)
    preds = graph.preds
    succs = graph.succs
    # Row offset of each node's resource in the reservation table (-1:
    # the node occupies no slot), and that resource's issue slots.
    resources = graph.resources
    names = sorted({name for name in resources if name is not None})
    rows: Dict[Optional[str], int] = {None: -1}
    caps: Dict[Optional[str], int] = {None: 0}
    for index, name in enumerate(names):
        rows[name] = index * ii
        caps[name] = machine.slots_of(name)
    row_of = [rows[resource] for resource in resources]
    cap_of = [caps[resource] for resource in resources]
    used = [0] * (len(names) * ii)
    occupants: List[List[int]] = [[] for _ in used]
    #: Start time per node; ``None`` while unscheduled.
    start: List[Optional[int]] = [None] * n
    #: Each node's start before its last eviction (-1: never evicted).
    previous = [-1] * n
    budget = budget_factor * n

    # Max-heap by (height, reverse node order) for deterministic choices,
    # each pair packed into one int: ``-height * n + v`` orders exactly
    # as the tuple ``(-height, v)`` does (0 <= v < n), and ``key % n``
    # recovers ``v``.
    priority = [-height[v] * n + v for v in range(n)]
    pending = list(priority)
    heapq.heapify(pending)
    in_pending = [True] * n
    heappush = heapq.heappush
    heappop = heapq.heappop

    def evict(u: int) -> None:
        begin = start[u]
        if begin is None:
            return
        row = row_of[u]
        if row >= 0:
            cell = row + begin % ii
            used[cell] -= 1
            occupants[cell].remove(u)
        previous[u] = begin
        start[u] = None
        if not in_pending[u]:
            in_pending[u] = True
            heappush(pending, priority[u])

    while pending:
        v = heappop(pending) % n
        in_pending[v] = False
        if budget <= 0:
            return None
        budget -= 1

        earliest = 0
        for u, latency, distance in preds[v]:
            begin = start[u]
            if begin is not None:
                candidate = begin + latency - ii * distance
                if candidate > earliest:
                    earliest = candidate

        row = row_of[v]
        if row < 0:
            chosen = earliest
        else:
            cap = cap_of[v]
            chosen = -1
            for t in range(earliest, earliest + ii):
                if used[row + t % ii] < cap:
                    chosen = t
                    break
            if chosen < 0:
                # Forced placement (IMS): bump past the previous slot so
                # repeated conflicts walk forward instead of livelocking.
                chosen = earliest
                if chosen <= previous[v]:
                    chosen = previous[v] + 1
                # Evict the lowest-priority occupant(s) to make room.
                victims = sorted(
                    occupants[row + chosen % ii],
                    key=lambda u: (height[u], -u),
                )
                for u in victims[:len(victims) - cap + 1]:
                    evict(u)
            cell = row + chosen % ii
            used[cell] += 1
            occupants[cell].append(v)

        start[v] = chosen
        # Displace any scheduled successor that the new start violates.
        for succ, latency, distance in succs[v]:
            begin = start[succ]
            if (
                begin is not None
                and succ != v
                and begin < chosen + latency - ii * distance
            ):
                evict(succ)

    length = max(map(add, start, graph.latencies))
    return ModuloSchedule(
        ii=ii,
        start=dict(enumerate(start)),
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
    inequalities must hold and no (slot, resource) pair may be
    oversubscribed.  The checks raise explicitly rather than through
    ``assert``, so ``python -O`` verifies every cold compile and every
    verified cache load too.
    """
    ii = schedule.ii
    start = schedule.start
    for v, preds in enumerate(graph.preds):
        begin = start[v]
        for u, latency, distance in preds:
            if begin < start[u] + latency - ii * distance:
                raise AssertionError(
                    f"dependence {u}->{v} violated in {graph.name} "
                    f"at II={ii}"
                )
    slots = machine.issue_slots
    usage: Dict[Tuple[int, str], int] = {}
    for v, resource in enumerate(graph.resources):
        if resource is None:
            continue
        key = (start[v] % ii, resource)
        count = usage[key] = usage.get(key, 0) + 1
        if count > slots.get(resource, 0):
            raise AssertionError(
                f"{resource} oversubscribed at slot {start[v] % ii} "
                f"in {graph.name} at II={ii}"
            )
