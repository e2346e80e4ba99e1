"""Loop unrolling and scheduling-graph construction.

The modulo scheduler works on a :class:`SchedGraph`: a flat dependence
graph of one (possibly unrolled) loop body, where every edge carries an
iteration *distance* (0 = same iteration, k = value crosses k loop-body
boundaries).  Unrolling replicates the kernel body ``factor`` times and
rewires loop-carried dependences: a recurrence of distance ``d`` between
copies ``i-d`` and ``i`` of the unrolled body becomes an ordinary
intra-body edge when both copies exist, and a shorter cross-body
recurrence otherwise.

The paper uses unrolling the same way: "more loop unrolling is often used
with higher N to provide more ILP" (section 3.1.2), which keeps the ALU
initiation-interval quantization (``ceil(ops / N)``) from wasting issue
slots when ``N`` approaches the per-iteration operation count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..isa.kernel import KernelGraph
from ..isa.ops import FUClass, Opcode
from .machine import MachineDescription


@dataclass
class SchedGraph:
    """A dependence graph ready for (modulo) scheduling.

    ``preds[v]`` holds ``(u, latency_u, distance)`` triples: ``v`` may
    start no earlier than ``start(u) + latency_u - II * distance``.
    ``resources[v]`` and ``latencies[v]`` are node ``v``'s issue
    resource and latency on the machine the graph was built for, so the
    schedulers index lists instead of asking the machine per node.
    """

    name: str
    opcodes: List[Opcode]
    preds: List[List[Tuple[int, int, int]]]
    succs: List[List[Tuple[int, int, int]]]
    unroll_factor: int
    #: ALU operations per *original* kernel iteration.
    alu_ops_per_iteration: int
    #: Issue resource per node (None = occupies no slot).
    resources: List[Optional[str]]
    #: Latency per node, in cycles.
    latencies: List[int]

    def __len__(self) -> int:
        return len(self.opcodes)

    def counts_by_class(self) -> Dict[FUClass, int]:
        counts: Dict[FUClass, int] = {cls: 0 for cls in FUClass}
        for opcode in self.opcodes:
            counts[opcode.fu_class] += 1
        return counts


def build_sched_graph(
    kernel: KernelGraph,
    machine: MachineDescription,
    unroll_factor: int = 1,
) -> SchedGraph:
    """Replicate ``kernel``'s body ``unroll_factor`` times for scheduling."""
    if unroll_factor < 1:
        raise ValueError("unroll factor must be >= 1")
    kernel.validate()
    body = kernel.nodes
    n = len(body)
    total = n * unroll_factor
    # One table read per body node; every copy shares the body's values.
    body_opcodes = [node.opcode for node in body]
    body_latencies = [machine.opcode_latency[op] for op in body_opcodes]
    body_resources = [machine.opcode_resource[op] for op in body_opcodes]
    preds: List[List[Tuple[int, int, int]]] = [[] for _ in range(total)]
    succs: List[List[Tuple[int, int, int]]] = [[] for _ in range(total)]

    def add_edge(u: int, v: int, latency: int, distance: int) -> None:
        preds[v].append((u, latency, distance))
        succs[u].append((v, latency, distance))

    for copy in range(unroll_factor):
        offset = copy * n
        for node in body:
            v = offset + node.index
            for operand in node.operands:
                add_edge(offset + operand, v, body_latencies[operand], 0)

    for rec in kernel.recurrences:
        latency = body_latencies[rec.source]
        for copy in range(unroll_factor):
            target = copy * n + rec.target
            source_copy = copy - rec.distance
            if source_copy >= 0:
                # Both endpoints live in the unrolled body: plain edge.
                add_edge(source_copy * n + rec.source, target, latency, 0)
            else:
                # The source comes from an earlier unrolled iteration.
                wrapped_copy = source_copy % unroll_factor
                distance = math.ceil(-source_copy / unroll_factor)
                add_edge(
                    wrapped_copy * n + rec.source, target, latency, distance
                )

    return SchedGraph(
        name=kernel.name,
        opcodes=body_opcodes * unroll_factor,
        preds=preds,
        succs=succs,
        unroll_factor=unroll_factor,
        alu_ops_per_iteration=kernel.stats().alu_ops,
        resources=body_resources * unroll_factor,
        latencies=body_latencies * unroll_factor,
    )


#: Target ALU-bound initiation interval below which unrolling is applied:
#: with ceil() quantization, an II of at least ~8 keeps the rounding waste
#: under ~12%, matching the paper's "unrolling at higher N" practice.
UNROLL_TARGET_II = 8

#: Never unroll beyond this factor (microcode and register limits).
MAX_UNROLL = 8


def choose_unroll_factor(
    kernel: KernelGraph, machine: MachineDescription
) -> int:
    """Pick an unroll factor: enough ILP to fill N ALUs, and no more.

    Doubles the body until the ALU-bound initiation interval of the
    unrolled body reaches :data:`UNROLL_TARGET_II` cycles (or the cap is
    hit), so the ``ceil`` quantization loss stays small at large ``N``.
    """
    alu_ops = kernel.stats().alu_ops
    slots = machine.slots(FUClass.ALU)
    if alu_ops == 0:
        return 1
    factor = 1
    while (
        factor < MAX_UNROLL
        and (alu_ops * factor) / slots < UNROLL_TARGET_II
    ):
        factor *= 2
    return factor
