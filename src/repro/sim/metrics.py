"""Simulation results and performance accounting."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..core.config import ProcessorConfig
from ..obs.metrics import MetricsSnapshot, accounting_warning


@dataclass(frozen=True)
class BandwidthReport:
    """Words moved per tier of the register hierarchy during one run.

    The paper's section 2.2 argument in measurable form: stream
    processors work because the traffic pyramid is steep — LRF words
    dwarf SRF words dwarf memory words ("over 90% local ... <= 1% of
    bandwidth to access memory").
    """

    lrf_words: int
    srf_words: int
    memory_words: int

    @property
    def total_words(self) -> int:
        return self.lrf_words + self.srf_words + self.memory_words

    @property
    def locality_fraction(self) -> float:
        """Fraction of all data movement kept on chip."""
        if self.total_words == 0:
            return 1.0
        return (self.lrf_words + self.srf_words) / self.total_words

    @property
    def memory_fraction(self) -> float:
        """Fraction of all data movement served by external memory."""
        if self.total_words == 0:
            return 0.0
        return self.memory_words / self.total_words

    def gbps(self, cycles: int, clock_ghz: float = 1.0,
             word_bytes: int = 4) -> Tuple[float, float, float]:
        """The three tiers as sustained GB/s (LRF, SRF, memory)."""
        if cycles <= 0:
            return (0.0, 0.0, 0.0)
        seconds = cycles / (clock_ghz * 1e9)
        scale = word_bytes / seconds / 1e9
        return (
            self.lrf_words * scale,
            self.srf_words * scale,
            self.memory_words * scale,
        )


@dataclass(frozen=True)
class OpRecord:
    """Timeline entry for one executed stream operation."""

    index: int
    kind: str
    label: str
    start: int
    finish: int

    @property
    def cycles(self) -> int:
        return self.finish - self.start


class Timeline(Sequence[OpRecord]):
    """A simulated run's per-operation timeline, built on read.

    Four per-op columns stand behind it: the kind names and labels,
    shared with the program's encoding and never copied, and the start
    and finish cycles the timing loop filled.  Indexing, slicing,
    iterating, hashing and comparing with a tuple build
    :class:`OpRecord` s; nothing else does, so a run nobody inspects
    costs only its starts list.

    A timeline compares equal to another column by column, and to a
    tuple of the same records, so a result or checkpoint that holds
    such a tuple compares equal too; it hashes like that tuple.  It
    pickles as its four columns, never the program behind them.
    """

    __slots__ = ("_kinds", "_labels", "_starts", "_finishes")

    def __init__(
        self,
        kinds: Sequence[str],
        labels: Sequence[str],
        starts: Sequence[int],
        finishes: Sequence[int],
    ):
        self._kinds = kinds
        self._labels = labels
        self._starts = starts
        self._finishes = finishes

    def __len__(self) -> int:
        return len(self._starts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(
                OpRecord,
                range(len(self._starts))[index],
                self._kinds[index],
                self._labels[index],
                self._starts[index],
                self._finishes[index],
            ))
        start = self._starts[index]  # IndexError/TypeError as a tuple's
        if index < 0:
            index += len(self._starts)
        return OpRecord(
            index,
            self._kinds[index],
            self._labels[index],
            start,
            self._finishes[index],
        )

    def __iter__(self):
        return map(
            OpRecord,
            range(len(self._starts)),
            self._kinds,
            self._labels,
            self._starts,
            self._finishes,
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, Timeline):
            return (
                self._starts == other._starts
                and self._finishes == other._finishes
                and self._kinds == other._kinds
                and self._labels == other._labels
            )
        if isinstance(other, tuple):
            return len(other) == len(self) and tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __reduce__(self):
        return (
            Timeline,
            (self._kinds, self._labels, self._starts, self._finishes),
        )

    def __repr__(self) -> str:
        return f"<Timeline of {len(self)} stream ops>"


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of running one stream program on one configuration."""

    program: str
    config: ProcessorConfig
    clock_ghz: float
    cycles: int
    useful_alu_ops: int
    #: The per-operation timeline: a :class:`Timeline` for a simulated
    #: run, ``()`` for a predicted one (every sweep point) or a result
    #: rebuilt from the wire.  Either way a sequence of :class:`OpRecord`, in program
    #: order.
    records: Sequence[OpRecord]
    spill_words: int
    reload_words: int
    memory_busy_cycles: int
    cluster_busy_cycles: int
    ucode_reloads: int
    bandwidth: BandwidthReport = field(
        default_factory=lambda: BandwidthReport(0, 0, 0)
    )
    #: Frozen registry snapshot from an instrumented run (None when the
    #: simulation ran without a :class:`~repro.obs.metrics.MetricsRegistry`).
    metrics: Optional[MetricsSnapshot] = None

    @property
    def seconds(self) -> float:
        return self.cycles / (self.clock_ghz * 1e9)

    @property
    def gops(self) -> float:
        """Sustained useful GOPS (the paper's Figure 15 annotations)."""
        if self.cycles == 0:
            return 0.0
        return self.useful_alu_ops * self.clock_ghz / self.cycles

    @property
    def peak_gops(self) -> float:
        return self.config.total_alus * self.clock_ghz

    @property
    def alu_utilization(self) -> float:
        """Fraction of peak arithmetic actually sustained."""
        return self.gops / self.peak_gops

    def _utilization(self, name: str, busy_cycles: int) -> float:
        """Busy fraction, warning (not silently clamping) on busy > total.

        A resource serialized behind its own ``free_at`` can never be
        busy for more cycles than the run lasted, so a ratio above 1.0
        is an accounting bug — surface it as an
        :class:`~repro.obs.metrics.AccountingWarning` rather than hide
        it, then clamp so downstream percentage maths stays sane.
        """
        if self.cycles == 0:
            return 0.0
        utilization = busy_cycles / self.cycles
        if utilization > 1.0:
            accounting_warning(
                f"{name} busy cycles ({busy_cycles}) exceed total cycles "
                f"({self.cycles}) for {self.program!r}; utilization "
                "clamped to 1.0 — check the resource's accounting"
            )
            return 1.0
        return utilization

    @property
    def memory_utilization(self) -> float:
        return self._utilization("memory", self.memory_busy_cycles)

    @property
    def cluster_utilization(self) -> float:
        return self._utilization("cluster", self.cluster_busy_cycles)

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """Wall-clock speedup versus a baseline run of the same program."""
        if baseline.program != self.program:
            raise ValueError(
                "speedup comparisons require the same program "
                f"({baseline.program} vs {self.program})"
            )
        return baseline.seconds / self.seconds
