"""Machine description: what one arithmetic cluster looks like to the
kernel compiler at a given (C, N) design point.

The description carries:

* **issue resources** — how many operations of each
  :class:`~repro.isa.ops.FUClass` a cluster can start per cycle,
* **latencies** — Imagine functional-unit latencies, plus the extra
  pipeline stages and communication latencies derived from the VLSI delay
  models of :mod:`repro.core.costs` (paper section 5: "the latencies of
  communications were taken from the results presented in Section 4"),
* **register capacity** — the LRF storage bounding software-pipelining
  register pressure.

Resource-throughput notes
-------------------------
The paper provisions scratchpad and COMM capability at rates ``G_SP N``
and ``G_COMM N`` chosen "to make sure that application performance was
not affected" even though kernels like FFT perform up to 0.5 scratchpad
accesses and 0.28 intercluster communications per ALU operation.  For the
provisioning rates to be sufficient, each unit must sustain more than one
access per cycle; we model the scratchpad as a 4-bank indexed memory
(4 accesses/cycle/unit) and the COMM unit as full-duplex (a send and a
receive per cycle), which makes the paper's rates non-binding for the
Table 2 kernels — exactly the property the paper asserts.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..core.config import ProcessorConfig
from ..core.costs import CostModel
from ..isa.ops import FUClass, Opcode

#: Accesses per cycle one scratchpad unit sustains (4-bank indexed RAM).
SP_THROUGHPUT = 4

#: Transfers per cycle one COMM unit sustains (full duplex: send+receive).
COMM_THROUGHPUT = 2

#: Words each LRF stores.  Imagine's LRFs are 16-32 words; 24 keeps the
#: smallest clusters (whose whole capacity is a few LRFs) able to hold
#: one iteration of the widest kernel while still making aggressive
#: software pipelining register-bound at large N.
LRF_WORDS = 24

#: LRFs per functional unit (one per ALU input operand).
LRFS_PER_FU = 2


#: Imagine's actual ALU mix per 6-ALU cluster (paper section 2.2):
#: 3 adders, 2 multipliers, 1 divide-square-root unit.
IMAGINE_ALU_MIX = {"add": 0.5, "mul": 1.0 / 3.0, "dsq": 1.0 / 6.0}

#: ALU opcodes served by the multiplier units under a heterogeneous mix.
_MULTIPLIER_OPS = frozenset({Opcode.IMUL, Opcode.FMUL})

#: ALU opcodes served by the divide-square-root unit.
_DSQ_OPS = frozenset({Opcode.FDIV, Opcode.FSQRT})


@dataclass(frozen=True)
class MachineDescription:
    """Per-cluster compilation target derived from a processor config.

    Issue resources are keyed by *resource name* (strings), so the same
    scheduler serves both the paper's homogeneous-ALU abstraction
    (one ``"alu"`` pool of N slots) and Imagine's heterogeneous mix
    (``"alu_add"`` / ``"alu_mul"`` / ``"alu_dsq"`` pools).
    """

    config: ProcessorConfig
    #: Issue slots per cycle for each resource name.
    issue_slots: Dict[str, int]
    #: Extra pipeline stages added to ALU and SB operations because the
    #: intracluster switch traversal exceeds its half-cycle budget.
    extra_pipeline_stages: int
    #: Latency of an intercluster communication in cycles.
    comm_latency: int
    #: Register words available for software-pipelined live values.
    register_capacity: int
    #: True when the ALU pool is split into adder/multiplier/DSQ units.
    heterogeneous: bool = False

    #: Latency of every opcode on this machine (see :meth:`latency`).
    opcode_latency: Dict[Opcode, int] = field(
        init=False, repr=False, compare=False
    )
    #: Issue resource of every opcode (see :meth:`resource`).
    opcode_resource: Dict[Opcode, Optional[str]] = field(
        init=False, repr=False, compare=False
    )
    #: ``(mnemonic, resource, latency)`` of every opcode, keyed by
    #: mnemonic: its entry in a kernel's
    #: :func:`~repro.compiler.cache.machine_view`.  A ``str`` key hashes
    #: in C, an ``Opcode`` key through ``Enum.__hash__``.
    opcode_entry: Dict[str, Tuple[str, Optional[str], int]] = field(
        init=False, repr=False, compare=False
    )
    #: Aggregate ALU issue slots per cycle (``slots(FUClass.ALU)``).
    alu_slots: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Derived once per machine: the scheduler's inner loops and
        # every compile's memo key read these, and a table read costs
        # far less than the derivation (an Enum hash plus several
        # Opcode properties).
        latency = {
            op: _latency(op, self.extra_pipeline_stages, self.comm_latency)
            for op in Opcode
        }
        resource = {op: _resource(op, self.heterogeneous) for op in Opcode}
        object.__setattr__(self, "opcode_latency", latency)
        object.__setattr__(self, "opcode_resource", resource)
        object.__setattr__(self, "opcode_entry", {
            op.mnemonic: (op.mnemonic, resource[op], latency[op])
            for op in Opcode
        })
        object.__setattr__(self, "alu_slots", sum(
            count for name, count in self.issue_slots.items()
            if name.startswith("alu")
        ))

    def latency(self, opcode: Opcode) -> int:
        """Operation latency in cycles on this machine."""
        return self.opcode_latency[opcode]

    def resource(self, opcode: Opcode) -> str | None:
        """The issue-resource name ``opcode`` occupies (None = free)."""
        return self.opcode_resource[opcode]

    def slots_of(self, resource: str) -> int:
        """Issue slots per cycle for a resource name (0 for a resource
        this machine lacks, such as ``alu_mul`` in a one-ALU cluster)."""
        return self.issue_slots.get(resource, 0)

    def slots(self, fu_class: FUClass) -> int:
        """Aggregate issue slots per cycle for a functional-unit class."""
        if fu_class is FUClass.NONE:
            return 0
        if fu_class is FUClass.ALU:
            return self.alu_slots
        return self.issue_slots[fu_class.value]

    def describe(self) -> str:
        c = self.config
        alus = ", ".join(
            f"{count} {name}" for name, count in sorted(
                self.issue_slots.items()
            ) if name.startswith("alu")
        )
        return (
            f"{c.describe()}: {alus}, "
            f"{self.issue_slots['sp']} SP, "
            f"{self.issue_slots['comm']} COMM, "
            f"{self.issue_slots['sb']} SB ports; "
            f"+{self.extra_pipeline_stages} stages, "
            f"COMM latency {self.comm_latency}"
        )


def _latency(opcode: Opcode, extra_stages: int, comm_latency: int) -> int:
    if opcode.fu_class is FUClass.NONE:
        return 0
    if opcode.is_comm:
        return comm_latency
    if opcode.is_alu or opcode.is_srf_access:
        # ALU results and streambuffer reads traverse the intracluster
        # switch; extra transport stages lengthen them (section 5.1).
        return opcode.base_latency + extra_stages
    return opcode.base_latency


def _resource(opcode: Opcode, heterogeneous: bool) -> Optional[str]:
    cls = opcode.fu_class
    if cls is FUClass.NONE:
        return None
    if cls is FUClass.ALU:
        if not heterogeneous:
            return "alu"
        if opcode in _DSQ_OPS:
            return "alu_dsq"
        if opcode in _MULTIPLIER_OPS:
            return "alu_mul"
        return "alu_add"
    return cls.value


def _split_alus(n: int, mix: Dict[str, float]) -> Dict[str, int]:
    """Integer unit counts for a heterogeneous mix summing to ``n``.

    Largest-remainder apportionment with at least one unit per kind
    (when ``n`` allows).
    """
    kinds = list(mix)
    if n < len(kinds):
        # Degenerate tiny clusters: drop the rarest kinds.
        kinds = sorted(mix, key=mix.get, reverse=True)[:n]
    shares = {k: n * mix[k] for k in kinds}
    counts = {k: max(1, int(shares[k])) for k in kinds}
    while sum(counts.values()) > n:
        victim = max(counts, key=lambda k: counts[k] - shares[k])
        counts[victim] -= 1
    while sum(counts.values()) < n:
        beneficiary = max(kinds, key=lambda k: shares[k] - counts[k])
        counts[beneficiary] += 1
    return {f"alu_{k}": v for k, v in counts.items() if v > 0}


def build_machine(
    config: ProcessorConfig,
    alu_mix: Dict[str, float] | None = None,
) -> MachineDescription:
    """Derive the compilation target for ``config`` from the cost models.

    ``alu_mix`` keeps the paper's homogeneous-ALU abstraction when
    ``None``; pass :data:`IMAGINE_ALU_MIX` (or any {kind: fraction}
    map over ``add``/``mul``/``dsq``) for a heterogeneous cluster.

    Memoized per ``(config, mix items)``: the result is a pure function
    of both, and callers must not mutate it.  The items keep the mix's
    own order because :func:`_split_alus` breaks ties by it.
    """
    mix = None if alu_mix is None else tuple(alu_mix.items())
    return _build_machine(config, mix)


@functools.lru_cache(maxsize=1024)
def _build_machine(
    config: ProcessorConfig,
    mix: Tuple[Tuple[str, float], ...] | None,
) -> MachineDescription:
    model = CostModel(config)
    issue_slots: Dict[str, int] = {
        "sp": SP_THROUGHPUT * config.n_sp,
        "comm": COMM_THROUGHPUT * config.n_comm,
        "sb": config.n_cluster_sbs,
    }
    if mix is None:
        issue_slots["alu"] = config.alus_per_cluster
    else:
        issue_slots.update(_split_alus(config.alus_per_cluster, dict(mix)))
    registers = config.n_fu * LRFS_PER_FU * LRF_WORDS
    return MachineDescription(
        config=config,
        issue_slots=issue_slots,
        extra_pipeline_stages=model.intracluster_pipeline_stages(),
        comm_latency=model.intercluster_latency_cycles(),
        register_capacity=registers,
        heterogeneous=mix is not None,
    )
