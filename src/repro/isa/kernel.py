"""Kernel intermediate representation: the inner loop as a dataflow graph.

A :class:`KernelGraph` is one iteration of a kernel's inner loop — the
code a cluster executes per stream element (paper section 2.2: "For each
iteration of a loop in a kernel, C clusters will read C elements in
parallel... perform the exact same series of computations... and write C
output elements in parallel").

Nodes are operations (:class:`~repro.isa.ops.Opcode`); edges are data
dependences.  The builder API is SSA-like: every ``op`` call returns a
:class:`Value` that later operations may consume.  Loop-carried
dependences (recurrences, e.g. a rasterizer edge accumulator) are recorded
with an iteration *distance*; they bound software pipelining from below
(the recurrence-constrained minimum initiation interval).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .ops import FUClass, OpCounts, Opcode

_graph_ids = itertools.count()


@dataclass(frozen=True)
class Value:
    """A reference to one node's result, valid only within its graph."""

    graph_id: int
    index: int


@dataclass(frozen=True)
class Node:
    """One operation in the kernel dataflow graph."""

    index: int
    opcode: Opcode
    operands: Tuple[int, ...]
    name: str = ""


@dataclass(frozen=True)
class Recurrence:
    """A loop-carried dependence: ``source`` (iteration i) must reach
    ``target`` (iteration ``i + distance``)."""

    source: int
    target: int
    distance: int


class KernelGraph:
    """Builder and container for one kernel inner-loop iteration.

    Example
    -------
    >>> g = KernelGraph("saxpy")
    >>> x = g.read("x")
    >>> y = g.read("y")
    >>> a = g.const(2.0)
    >>> g.write(g.op(Opcode.FADD, g.op(Opcode.FMUL, a, x), y))
    >>> g.stats().alu_ops
    2
    """

    def __init__(self, name: str):
        self.name = name
        self._id = next(_graph_ids)
        self._nodes: List[Node] = []
        self._recurrences: List[Recurrence] = []
        self._const_values: Dict[int, float] = {}
        self._stats: Optional[OpCounts] = None

    # --- construction --------------------------------------------------

    def _add(self, opcode: Opcode, operands: Sequence[Value], name: str) -> Value:
        indices = []
        for v in operands:
            if not isinstance(v, Value):
                raise TypeError(f"operand {v!r} is not a Value")
            if v.graph_id != self._id:
                raise ValueError("operand belongs to a different kernel graph")
            indices.append(v.index)
        node = Node(len(self._nodes), opcode, tuple(indices), name)
        self._nodes.append(node)
        self._stats = None
        return Value(self._id, node.index)

    def op(self, opcode: Opcode, *operands: Value, name: str = "") -> Value:
        """Add one operation consuming ``operands``."""
        return self._add(opcode, operands, name)

    def const(self, value: float = 0.0, name: str = "") -> Value:
        """A loop-invariant constant (occupies no issue slot)."""
        result = self._add(Opcode.CONST, (), name or f"c{value}")
        self._const_values[result.index] = float(value)
        return result

    def const_value(self, index: int) -> float:
        """The recorded value of a ``CONST`` node (for interpretation)."""
        if index not in self._const_values:
            raise KeyError(f"node {index} is not a constant")
        return self._const_values[index]

    def loop_index(self, name: str = "i") -> Value:
        """The loop induction variable (maintained for free by the ucode
        sequencer; occupies no cluster issue slot)."""
        return self._add(Opcode.LOOPVAR, (), name)

    def read(self, stream: str = "in", conditional: bool = False) -> Value:
        """Read the next element of an input stream (one SB access)."""
        opcode = Opcode.COND_READ if conditional else Opcode.SB_READ
        return self._add(opcode, (), stream)

    def write(
        self, value: Value, stream: str = "out", conditional: bool = False
    ) -> Value:
        """Append ``value`` to an output stream (one SB access)."""
        opcode = Opcode.COND_WRITE if conditional else Opcode.SB_WRITE
        return self._add(opcode, (value,), stream)

    def comm(self, value: Value, name: str = "perm") -> Value:
        """Exchange ``value`` with another cluster (COMM unit)."""
        return self._add(Opcode.COMM_PERM, (value,), name)

    def sp_read(self, index: Value, name: str = "") -> Value:
        """Indexed scratchpad read."""
        return self._add(Opcode.SP_READ, (index,), name)

    def sp_write(self, index: Value, value: Value, name: str = "") -> Value:
        """Indexed scratchpad write."""
        return self._add(Opcode.SP_WRITE, (index, value), name)

    def reduce(self, opcode: Opcode, values: Sequence[Value]) -> Value:
        """Balanced reduction tree over ``values`` (log depth)."""
        work = list(values)
        if not work:
            raise ValueError("cannot reduce zero values")
        while len(work) > 1:
            nxt = []
            for i in range(0, len(work) - 1, 2):
                nxt.append(self.op(opcode, work[i], work[i + 1]))
            if len(work) % 2:
                nxt.append(work[-1])
            work = nxt
        return work[0]

    def recurrence(self, source: Value, target: Value, distance: int = 1) -> None:
        """Record a loop-carried dependence from ``source`` in iteration
        ``i`` to ``target`` in iteration ``i + distance``."""
        if distance < 1:
            raise ValueError("recurrence distance must be >= 1")
        for v in (source, target):
            if v.graph_id != self._id:
                raise ValueError("value belongs to a different kernel graph")
        self._recurrences.append(
            Recurrence(source.index, target.index, distance)
        )

    # --- inspection ------------------------------------------------------

    @property
    def nodes(self) -> Sequence[Node]:
        return tuple(self._nodes)

    @property
    def recurrences(self) -> Sequence[Recurrence]:
        return tuple(self._recurrences)

    def __len__(self) -> int:
        return len(self._nodes)

    def consumers(self) -> Dict[int, List[int]]:
        """Map node index -> indices of nodes consuming its result."""
        out: Dict[int, List[int]] = {n.index: [] for n in self._nodes}
        for node in self._nodes:
            for operand in node.operands:
                out[operand].append(node.index)
        return out

    def counts_by_class(self) -> Dict[FUClass, int]:
        """Operations per functional-unit class (scheduler resource use)."""
        counts: Dict[FUClass, int] = {cls: 0 for cls in FUClass}
        for node in self._nodes:
            counts[node.opcode.fu_class] += 1
        return counts

    def stats(self) -> OpCounts:
        """Paper Table 2 inner-loop characteristics of this kernel.

        Counted once and kept until the next node is added; the
        simulator asks on every kernel call.
        """
        if self._stats is None:
            by_class = self.counts_by_class()
            self._stats = OpCounts(
                alu_ops=by_class[FUClass.ALU],
                srf_accesses=by_class[FUClass.SB],
                comms=by_class[FUClass.COMM],
                sp_accesses=by_class[FUClass.SP],
            )
        return self._stats

    def critical_path(
        self, latency_of: Optional[Dict[Opcode, int]] = None
    ) -> int:
        """Longest latency-weighted dependence chain of one iteration.

        Bounds the schedule length (not the initiation interval) and
        therefore the prologue/epilogue cost of software pipelining.
        """
        depth: List[int] = [0] * len(self._nodes)
        for node in self._nodes:
            latency = (
                latency_of[node.opcode]
                if latency_of is not None
                else node.opcode.base_latency
            )
            start = 0
            for operand in node.operands:
                start = max(start, depth[operand])
            depth[node.index] = start + latency
        return max(depth, default=0)

    def validate(self) -> None:
        """Check structural invariants; raise ``ValueError`` on violation.

        * operands reference earlier nodes (the builder guarantees a
          topological order, so intra-iteration edges are acyclic),
        * recurrences reference existing nodes with positive distance,
        * every stream write has exactly one data operand.
        """
        for node in self._nodes:
            for operand in node.operands:
                if not 0 <= operand < node.index:
                    raise ValueError(
                        f"node {node.index} uses operand {operand} "
                        "that is not an earlier node"
                    )
            if node.opcode in (Opcode.SB_WRITE, Opcode.COND_WRITE):
                if len(node.operands) != 1:
                    raise ValueError("stream write takes exactly one value")
        for rec in self._recurrences:
            for endpoint in (rec.source, rec.target):
                if not 0 <= endpoint < len(self._nodes):
                    raise ValueError("recurrence references a missing node")
            if rec.distance < 1:
                raise ValueError("recurrence distance must be >= 1")

    def to_networkx(self):
        """Export the dataflow graph as a ``networkx.DiGraph``.

        Nodes carry ``opcode`` (mnemonic), ``fu_class`` and ``name``;
        data edges carry ``latency`` (the producer's base latency) and
        ``distance`` 0; recurrence edges carry their distance.  Lets
        users apply the networkx toolbox (longest paths, dominators,
        visualization) to kernels.
        """
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        for node in self._nodes:
            graph.add_node(
                node.index,
                opcode=node.opcode.mnemonic,
                fu_class=node.opcode.fu_class.value,
                name=node.name,
            )
        for node in self._nodes:
            for operand in node.operands:
                graph.add_edge(
                    operand,
                    node.index,
                    latency=self._nodes[operand].opcode.base_latency,
                    distance=0,
                )
        for rec in self._recurrences:
            graph.add_edge(
                rec.source,
                rec.target,
                latency=self._nodes[rec.source].opcode.base_latency,
                distance=rec.distance,
            )
        return graph

    def input_streams(self) -> List[str]:
        """Names of the input streams this kernel reads (in first-read order)."""
        seen: List[str] = []
        for node in self._nodes:
            if node.opcode in (Opcode.SB_READ, Opcode.COND_READ):
                if node.name not in seen:
                    seen.append(node.name)
        return seen

    def output_streams(self) -> List[str]:
        """Names of the output streams this kernel writes."""
        seen: List[str] = []
        for node in self._nodes:
            if node.opcode in (Opcode.SB_WRITE, Opcode.COND_WRITE):
                if node.name not in seen:
                    seen.append(node.name)
        return seen
