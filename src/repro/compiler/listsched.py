"""Resource-constrained list scheduling (no software pipelining).

Used for three things:

* the schedule *length* of one loop body, which models the software
  pipeline's prologue/epilogue and priming cost (the short-stream
  overheads of paper section 5.3),
* a non-pipelined performance baseline for ablation benchmarks,
* a correctness cross-check for the modulo scheduler (a list schedule is
  a valid modulo schedule for any II >= its length).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..isa.ops import FUClass
from .machine import MachineDescription
from .unroll import SchedGraph


@dataclass(frozen=True)
class ListSchedule:
    """Result of list-scheduling one loop body."""

    start: Dict[int, int]
    length: int

    def finish_time(self, graph: SchedGraph, machine: MachineDescription) -> int:
        """Cycle by which every result has been produced."""
        return max(
            (
                self.start[v] + machine.latency(graph.opcodes[v])
                for v in range(len(graph))
            ),
            default=0,
        )

    def as_modulo_schedule(self, resource_mii: int, recurrence_mii: int):
        """This schedule as a (degenerate) modulo schedule at II = length.

        A list schedule issues one body per ``length`` cycles, so it is
        a valid modulo schedule at that II: every start lies in
        ``[0, length)`` (no modulo wrap, so per-slot resource usage is
        the per-cycle usage the list scheduler already bounded) and
        back edges are trivially satisfied because
        ``start[u] + latency - length * distance <= 0``.  The II-search
        driver uses this as its deterministic fallback when iterative
        modulo scheduling exhausts its backtracking budget below the
        list-schedule bound.
        """
        from .modulo import ModuloSchedule

        return ModuloSchedule(
            ii=self.length,
            start=dict(self.start),
            length=self.length,
            resource_mii=resource_mii,
            recurrence_mii=recurrence_mii,
        )


def _priorities(graph: SchedGraph) -> List[int]:
    """Height-based priorities: latency-weighted longest path to a sink.

    Back edges (distance > 0) are ignored — they constrain the *next*
    iteration, not this body.
    """
    height = [0] * len(graph)
    for v in range(len(graph) - 1, -1, -1):
        best = 0
        for succ, latency, distance in graph.succs[v]:
            if distance > 0:
                continue
            best = max(best, height[succ] + latency)
        height[v] = best
    return height


def critical_path(graph: SchedGraph) -> int:
    """A lower bound on :func:`list_schedule`'s length: the longest
    latency-weighted dependence path through one body (back edges
    ignored), which no schedule of the body can be shorter than."""
    return max(_priorities(graph), default=0)


def list_schedule(
    graph: SchedGraph, machine: MachineDescription
) -> ListSchedule:
    """Greedy earliest-slot list scheduling under issue-slot constraints."""
    n = len(graph)
    height = _priorities(graph)
    resources = graph.resources
    latencies = graph.latencies
    start: Dict[int, int] = {}
    unscheduled_preds = [0] * n
    for v in range(n):
        unscheduled_preds[v] = sum(
            1 for _u, _lat, dist in graph.preds[v] if dist == 0
        )
    ready = [v for v in range(n) if unscheduled_preds[v] == 0]
    usage: List[Dict[str, int]] = []

    def slots_used(cycle: int, resource: str) -> int:
        while len(usage) <= cycle:
            usage.append({name: 0 for name in machine.issue_slots})
        return usage[cycle][resource]

    while ready:
        # Highest priority first; ties broken by node order (determinism).
        ready.sort(key=lambda v: (-height[v], v))
        v = ready.pop(0)
        resource = resources[v]
        earliest = 0
        for u, latency, distance in graph.preds[v]:
            if distance > 0:
                continue
            earliest = max(earliest, start[u] + latency)
        if resource is None:
            start[v] = earliest
        else:
            capacity = machine.slots_of(resource)
            cycle = earliest
            while slots_used(cycle, resource) >= capacity:
                cycle += 1
            usage[cycle][resource] += 1
            start[v] = cycle
        for succ, _lat, dist in graph.succs[v]:
            if dist > 0:
                continue
            unscheduled_preds[succ] -= 1
            if unscheduled_preds[succ] == 0:
                ready.append(succ)

    if len(start) != n:
        raise RuntimeError(
            f"list scheduler left {n - len(start)} nodes unscheduled "
            "(dependence cycle without distance?)"
        )
    length = 1 + max(start[v] + latencies[v] - 1 for v in range(n))
    return ListSchedule(start=start, length=length)
