"""Functional interpreter for kernel graphs.

The compiler and simulator treat kernels as *timing* objects; this module
executes them *functionally*: ``C`` virtual clusters run the dataflow
graph in SIMD lockstep over input streams, with real scratchpad
contents, real intercluster exchanges, and real conditional-stream
compaction.  It exists so that

* kernels written with the public API can be checked numerically
  (``examples/functional_simulation.py`` validates a convolution
  against numpy),
* tests can assert SIMD semantics (COMM permutations route values
  between clusters; conditional writes compact across clusters in
  cluster order),
* the IR has a defined meaning, not just a cost.

Semantics notes
---------------
* ``SB_READ`` pops the next element of the named input stream for each
  cluster, in cluster order — cluster ``k`` gets element ``i*C + k`` of
  iteration ``i``, the strip-mined SIMD access of paper section 2.2.
* ``COMM_PERM`` rotates values one cluster to the left (the common
  neighbor exchange); ``COMM_BCAST`` broadcasts cluster 0's value.
* ``COND_READ``/``COND_WRITE`` implement conditional streams [paper
  ref 7]: a write with a false predicate emits nothing, and written
  values from all clusters are compacted densely into the output.
* Arithmetic follows the obvious float semantics; "integer" opcodes
  operate on floats with truncation where it matters (SHIFT is a
  divide-by-256 unpack, LOGIC masks to 16 bits) — enough to compute
  real image kernels while keeping the IR compact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .kernel import KernelGraph, Node
from .ops import Opcode


class InterpreterError(RuntimeError):
    """Raised when a kernel cannot be executed functionally."""


def _to_int(value: float) -> int:
    return int(value)


@dataclass
class ClusterState:
    """Architectural state of one virtual cluster."""

    index: int
    scratchpad: Dict[int, float] = field(default_factory=dict)

    def sp_read(self, address: float) -> float:
        return self.scratchpad.get(_to_int(address), 0.0)

    def sp_write(self, address: float, value: float) -> None:
        self.scratchpad[_to_int(address)] = value


class KernelInterpreter:
    """Executes a kernel graph over input streams on C virtual clusters.

    Parameters
    ----------
    kernel:
        The graph to execute.
    clusters:
        SIMD width ``C``.
    constants:
        Optional override for ``CONST`` node values, keyed by node name
        (the graph builder stores ``const(v, name)``); unnamed constants
        evaluate to their recorded value.
    """

    def __init__(
        self,
        kernel: KernelGraph,
        clusters: int = 4,
        constants: Optional[Dict[str, float]] = None,
    ):
        if clusters < 1:
            raise InterpreterError("need at least one cluster")
        kernel.validate()
        self.kernel = kernel
        self.clusters = clusters
        self.constants = dict(constants or {})
        self.states = [ClusterState(k) for k in range(clusters)]
        #: Loop-carried values: (node index, cluster) -> value.
        self._carried: Dict[tuple, float] = {}
        self._carried_targets = {
            rec.target: rec.source for rec in kernel.recurrences
        }

    # --- scratchpad initialization ---------------------------------------

    def preload_scratchpad(self, table: Sequence[float]) -> None:
        """Load the same table into every cluster's scratchpad."""
        for state in self.states:
            for address, value in enumerate(table):
                state.scratchpad[address] = float(value)

    # --- execution --------------------------------------------------------

    def run(
        self,
        inputs: Dict[str, Sequence[float]],
        iterations: Optional[int] = None,
    ) -> Dict[str, List[float]]:
        """Run the kernel loop until its inputs are exhausted.

        ``inputs`` maps stream names to flat word sequences (any
        indexable sequence of numbers; none is copied).  Records are
        interleaved per cluster: with ``R`` reads of a stream per
        iteration, cluster ``k`` of iteration ``i`` reads words
        ``(i*C + k)*R .. +R`` — the strip-mined SIMD access of paper
        section 2.2.  Outputs come back as flat sequences too,
        with conditional writes compacted in cluster order.
        """
        # The interpreter only ever indexes into the input sequences,
        # so they are shared, not copied.
        streams = dict(inputs)

        reads = self._reads_per_iteration()
        if iterations is None:
            iterations = self._iterations_available(streams, reads)

        cursors = {name: 0 for name in streams}
        outputs = {}
        for iteration in range(iterations):
            self._run_iteration(streams, cursors, outputs, reads, iteration)
        return outputs

    def _reads_per_iteration(self) -> Dict[str, int]:
        """Reads per stream per iteration (the record width R)."""
        reads: Dict[str, int] = {}
        for node in self.kernel.nodes:
            if node.opcode in (Opcode.SB_READ, Opcode.COND_READ):
                reads[node.name] = reads.get(node.name, 0) + 1
        return reads

    def _iterations_available(self, streams, reads) -> int:
        counts = []
        for node in self.kernel.nodes:
            if node.opcode is not Opcode.SB_READ:
                continue
            name = node.name
            if name not in streams:
                raise InterpreterError(f"missing input stream {name!r}")
            counts.append(
                len(streams[name]) // (reads[name] * self.clusters)
            )
        if not counts:
            raise InterpreterError(
                "kernel has no unconditional input stream; pass "
                "iterations= explicitly"
            )
        return min(counts)

    def _run_iteration(
        self, streams, cursors, outputs, reads, iteration
    ) -> None:
        # values[node][cluster]
        values: List[List[float]] = []
        ordinal: Dict[str, int] = {}

        for node in self.kernel.nodes:
            is_read = node.opcode in (Opcode.SB_READ, Opcode.COND_READ)
            read_ordinal = ordinal.get(node.name, 0) if is_read else 0
            per_cluster = []
            for k in range(self.clusters):
                per_cluster.append(
                    self._evaluate(
                        node, k, values, streams, cursors,
                        read_ordinal, reads, iteration,
                    )
                )
            if is_read:
                ordinal[node.name] = read_ordinal + 1
            # COMM ops see all clusters' operand values at once.
            if node.opcode is Opcode.COMM_PERM:
                operand = [values[node.operands[0]][k]
                           for k in range(self.clusters)]
                per_cluster = operand[1:] + operand[:1]
            elif node.opcode is Opcode.COMM_BCAST:
                operand = values[node.operands[0]][0]
                per_cluster = [operand] * self.clusters
            values.append(per_cluster)

            if node.opcode in (Opcode.SB_WRITE, Opcode.COND_WRITE):
                written = values[node.operands[0]]
                if node.opcode is Opcode.COND_WRITE:
                    # Conditional streams [7]: emit only where the
                    # predicate holds, compacted in cluster order.
                    emitted = [
                        v for k, v in enumerate(written)
                        if self._predicate(values, k)
                    ]
                else:
                    emitted = list(written)
                outputs.setdefault(node.name, []).extend(emitted)

        # Advance the stream cursors past this iteration's records.
        for name, r in reads.items():
            if name in cursors:
                cursors[name] = cursors[name] + r * self.clusters

        # Latch loop-carried values for the next iteration.
        for target, source in self._carried_targets.items():
            for k in range(self.clusters):
                self._carried[(target, k)] = values[source][k]

    def _const_value(self, node: Node) -> float:
        """A CONST node's value, honoring per-run constant overrides."""
        if node.name in self.constants:
            return float(self.constants[node.name])
        return self.kernel.const_value(node.index)

    def _predicate(self, values, cluster) -> bool:
        """Conditional-stream predicate: the last ICMP/FCMP result.

        Kernels using conditional writes compute an "emit" condition;
        the most recent comparison in the body plays that role.
        """
        for node in reversed(self.kernel.nodes):
            if node.opcode in (Opcode.ICMP, Opcode.FCMP):
                return bool(values[node.index][cluster])
        return True

    def _evaluate(
        self, node: Node, k: int, values, streams, cursors,
        read_ordinal: int, reads, iteration: int,
    ):
        op = node.opcode
        state = self.states[k]

        def operand(i: int) -> float:
            return values[node.operands[i]][k]

        is_recurrence_target = node.index in self._carried_targets
        carried = self._carried.get((node.index, k))

        if op is Opcode.CONST:
            return self._const_value(node)
        if op is Opcode.LOOPVAR:
            return float(iteration)
        if op in (Opcode.SB_READ, Opcode.COND_READ):
            seq = streams.get(node.name)
            if seq is None:
                raise InterpreterError(f"missing input stream {node.name!r}")
            record = reads[node.name]
            index = cursors[node.name] + k * record + read_ordinal
            if index < len(seq):
                return float(seq[index])
            return 0.0  # stream padding for the ragged last batch
        if op in (Opcode.SB_WRITE, Opcode.COND_WRITE):
            return operand(0)
        if op is Opcode.SP_READ:
            return state.sp_read(operand(0))
        if op is Opcode.SP_WRITE:
            state.sp_write(operand(0), operand(1))
            return operand(1)
        if op in (Opcode.COMM_PERM, Opcode.COMM_BCAST):
            return operand(0)  # replaced by the cross-cluster pass

        # Arithmetic.  A single-operand node that is the target of a
        # recurrence folds in last iteration's carried value (its
        # loop-carried second operand); plain single-operand arithmetic
        # uses an identity second operand.
        a = operand(0) if node.operands else 0.0
        if len(node.operands) > 1:
            b = operand(1)
        elif is_recurrence_target:
            b = carried if carried is not None else 0.0
        else:
            b = 0.0
        return _ARITHMETIC[op](a, b)


def _shift_unpack(a: float, _b: float) -> float:
    return float(_to_int(a) >> 8)


def _mask16(a: float, _b: float) -> float:
    return float(_to_int(a) & 0xFFFF)


_ARITHMETIC: Dict[Opcode, Callable[[float, float], float]] = {
    Opcode.IADD: lambda a, b: float(a + b),
    Opcode.ISUB: lambda a, b: float(a - b),
    Opcode.IMUL: lambda a, b: float(_to_int(a) * _to_int(b)),
    Opcode.IABS: lambda a, _b: float(abs(a)),
    Opcode.IMIN: lambda a, b: float(min(a, b)),
    Opcode.IMAX: lambda a, b: float(max(a, b)),
    Opcode.SHIFT: _shift_unpack,
    Opcode.LOGIC: _mask16,
    Opcode.ICMP: lambda a, b: 1.0 if a < b else 0.0,
    Opcode.SELECT: lambda a, b: b if a else 0.0,
    Opcode.FADD: lambda a, b: a + b,
    Opcode.FSUB: lambda a, b: a - b,
    Opcode.FMUL: lambda a, b: a * b,
    Opcode.FDIV: lambda a, b: a / b if b else math.inf,
    Opcode.FSQRT: lambda a, _b: math.sqrt(abs(a)),
    Opcode.FCMP: lambda a, b: 1.0 if a < b else 0.0,
    Opcode.FABS: lambda a, _b: abs(a),
    Opcode.FMIN: lambda a, b: min(a, b),
    Opcode.FMAX: lambda a, b: max(a, b),
    Opcode.FFRAC: lambda a, _b: a - math.floor(a),
    Opcode.FFLOOR: lambda a, _b: math.floor(a),
    Opcode.ITOF: lambda a, _b: float(a),
    Opcode.FTOI: lambda a, _b: float(_to_int(a)),
}
