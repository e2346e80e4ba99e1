"""Analytical VLSI cost models for stream processors (paper Table 3).

Implements every area, delay, and energy formula of the paper's Table 3,
parameterized by a :class:`~repro.core.config.ProcessorConfig` (which carries
``C``, ``N`` and the Table 1 machine parameters).

Units
-----
* area: grids (track x track)
* delay: FO4 inverter delays
* energy: multiples of ``E_w`` (wire energy per track), *per processor
  cycle* at full utilization — divide by ``C * N`` for energy per ALU
  operation, which is how the paper's per-ALU-op figures are produced.

Reconstruction notes
--------------------
The published table typesets square roots that do not survive plain-text
extraction.  Each formula below documents the reconstruction; the roots are
re-derived from the grid floorplans of paper Figures 4 and 5 and checked by
dimensional analysis.  The reconstructed model reproduces the paper's
quantitative anchors (N=5 area/energy sweet spot, ~16% area-band to N=16,
1.23x energy at N=16, C=32 about 3% better than C=8, C=128 a few percent
worse in area and ~7-11% in energy, intercluster delay of about one 45-FO4
cycle at C=8/N=5).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

from .config import ProcessorConfig


def _term(method):
    """Memoize a no-argument :class:`CostModel` term on its instance.

    The Table 3 rows nest: the intracluster switch area feeds the
    cluster area, which feeds the intercluster switch, the
    microcontroller, both chip-side delays and the intercluster energy,
    so one cost query would otherwise re-derive the same row some
    twenty times.  A model's configuration is fixed, so each term is
    computed once per instance.  Terms are keyed on the method itself,
    so a subclass override that calls ``super()`` reaches the memoized
    base value.
    """

    @functools.wraps(method)
    def memoized(self):
        terms = self._terms
        try:
            return terms[method]
        except KeyError:
            value = terms[method] = method(self)
            return value

    return memoized


@dataclass(frozen=True)
class AreaBreakdown:
    """Chip area by component, in grids (whole chip, all ``C`` clusters)."""

    srf: float
    microcontroller: float
    clusters: float
    intercluster_switch: float

    @property
    def total(self) -> float:
        return (
            self.srf
            + self.microcontroller
            + self.clusters
            + self.intercluster_switch
        )

    def per_alu(self, total_alus: int) -> "AreaBreakdown":
        """The same breakdown divided by the number of ALUs."""
        return AreaBreakdown(
            srf=self.srf / total_alus,
            microcontroller=self.microcontroller / total_alus,
            clusters=self.clusters / total_alus,
            intercluster_switch=self.intercluster_switch / total_alus,
        )

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy per cycle by component, in units of ``E_w`` (whole chip)."""

    srf: float
    microcontroller: float
    clusters: float
    intercluster_switch: float

    @property
    def total(self) -> float:
        return (
            self.srf
            + self.microcontroller
            + self.clusters
            + self.intercluster_switch
        )

    def per_alu_op(self, total_alus: int) -> "EnergyBreakdown":
        """The same breakdown divided by ALU operations per cycle."""
        return EnergyBreakdown(
            srf=self.srf / total_alus,
            microcontroller=self.microcontroller / total_alus,
            clusters=self.clusters / total_alus,
            intercluster_switch=self.intercluster_switch / total_alus,
        )

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class DelayBreakdown:
    """Communication delays in FO4s, split into wire and logic parts."""

    intracluster_wire: float
    intracluster_logic: float
    intercluster_wire: float
    intercluster_logic: float

    @property
    def intracluster(self) -> float:
        return self.intracluster_wire + self.intracluster_logic

    @property
    def intercluster(self) -> float:
        """Total intercluster delay (includes the intracluster hop)."""
        return (
            self.intracluster
            + self.intercluster_wire
            + self.intercluster_logic
        )


class CostModel:
    """Evaluates the Table 3 cost formulae for one processor configuration.

    All intermediate quantities (SRF bank area, intracluster switch area,
    switch traversal energy, ...) are exposed as methods so tests and the
    analysis layer can inspect each Table 3 row individually.  Each is
    evaluated once per model and then remembered.
    """

    def __init__(self, config: ProcessorConfig):
        self.config = config
        self.params = config.params
        self._terms: dict = {}

    # ------------------------------------------------------------------
    # Areas (grids)
    # ------------------------------------------------------------------

    @_term
    def srf_bank_area(self) -> float:
        """``A_SRF``: one SRF bank — stream storage plus its streambuffers.

        Table 3: ``A_SRF = r_m T N A_SRAM b + (2 G_SRF N) N_SB A_SB b``.
        Stream storage is a single-ported SRAM of ``r_m T N`` words; each of
        the ``N_SB`` streambuffers double-buffers one block of ``G_SRF N``
        words (hence the factor 2), at ``A_SB`` grids per bit of width.
        """
        p, c = self.params, self.config
        storage = p.r_m * p.t_mem * c.alus_per_cluster * p.a_sram * p.b
        buffers = (2.0 * p.g_srf * c.alus_per_cluster) * c.n_sbs_cost * p.a_sb
        return storage + buffers

    @_term
    def intracluster_switch_area(self) -> float:
        """``A_SW``: the full crossbar inside one cluster (Figure 5).

        The ``N_FU`` functional units sit in a ``sqrt(N_FU) x sqrt(N_FU)``
        grid.  Every row carries one ``b``-bit output bus per FU in that
        row (``sqrt(N_FU) b`` tracks of height per row); every column
        carries two ``b``-bit LRF input buses per FU in that column
        (``2 sqrt(N_FU) b`` tracks of width per column); ``P_e`` external
        port buses span the cluster perimeter.  Total wiring area is then

        * rows:    ``N_FU b`` wires x cluster width,
        * columns: ``2 N_FU b`` wires x cluster height,
        * ports:   ``P_e b`` wires x (width + height),

        with cluster width ``sqrt(N_FU)(w_ALU + w_LRF) + 2 N_FU b`` and
        height ``sqrt(N_FU) h + N_FU b``.  This is the geometric content
        of Table 3's ``A_SW`` row (the row/column wire *count* per side is
        ``sqrt(N_FU) b``, and there are ``sqrt(N_FU)`` sides), and it
        yields the ``N_FU^{3/2}`` asymptote the paper calls out; the
        intracluster delay formula below is the width + height of exactly
        this floorplan.
        """
        p, c = self.params, self.config
        n_fu = c.n_fu_cost
        root = math.sqrt(n_fu)
        width = root * (p.w_alu + p.w_lrf) + 2.0 * n_fu * p.b
        height = root * p.h + n_fu * p.b
        rows = (n_fu * p.b) * width
        columns = (2.0 * n_fu * p.b) * height
        ports = (c.external_ports_cost * p.b) * (width + height)
        return rows + columns + ports

    @_term
    def cluster_area(self) -> float:
        """``A_CLST``: one arithmetic cluster.

        Table 3: ``A_CLST = N_FU w_LRF h + N w_ALU h + N_SP w_SP h + A_SW``
        (the COMM units contribute LRF area but negligible datapath area).
        """
        p, c = self.params, self.config
        lrfs = c.n_fu_cost * p.w_lrf * p.h
        alus = c.alus_per_cluster * p.w_alu * p.h
        scratchpads = c.n_sp_cost * p.w_sp * p.h
        return lrfs + alus + scratchpads + self.intracluster_switch_area()

    @_term
    def intercluster_switch_area(self) -> float:
        """``A_COMM``: the chip-level grid switch between clusters (Fig. 4).

        Clusters sit in a ``sqrt(C) x sqrt(C)`` grid; each broadcasts on
        ``N_COMM`` row buses and listens on ``N_COMM`` column buses, so
        ``sqrt(C) N_COMM b`` wires run along each side of every row and
        column.  Table 3 (roots restored):

        ``A_COMM = C N_COMM b sqrt(C)
                   (N_COMM b sqrt(C) + 2 sqrt(A_CLST) + sqrt(A_SRF))``
        """
        p, c = self.params, self.config
        root_c = math.sqrt(c.clusters)
        wire_count = c.clusters * c.n_comm_cost * p.b * root_c
        pitch = (
            c.n_comm_cost * p.b * root_c
            + 2.0 * math.sqrt(self.cluster_area())
            + math.sqrt(self.srf_bank_area())
        )
        return wire_count * pitch

    @_term
    def microcontroller_area(self) -> float:
        """``A_UC``: microcode storage plus control-wire distribution.

        Table 3: ``A_UC = r_uc (I_0 + I_N N_FU) A_SRAM
                        + (I_N N_FU) sqrt(C A_SRF + C A_CLST + A_COMM)``.
        The second term is the area of ``I_N N_FU`` control wires spanning
        the cluster grid (length = chip side, width = one track each).
        """
        p, c = self.params, self.config
        storage = p.r_uc * (p.i0 + p.i_n * c.n_fu_cost) * p.a_sram
        span = math.sqrt(
            c.clusters * self.srf_bank_area()
            + c.clusters * self.cluster_area()
            + self.intercluster_switch_area()
        )
        distribution = (p.i_n * c.n_fu_cost) * span
        return storage + distribution

    @_term
    def area(self) -> AreaBreakdown:
        """``A_TOT`` and its components (Table 3, whole chip)."""
        c = self.config
        return AreaBreakdown(
            srf=c.clusters * self.srf_bank_area(),
            microcontroller=self.microcontroller_area(),
            clusters=c.clusters * self.cluster_area(),
            intercluster_switch=self.intercluster_switch_area(),
        )

    @_term
    def area_per_alu(self) -> float:
        """Total area divided by the number of ALUs (grids per ALU)."""
        return self.area().total / self.config.total_alus

    # ------------------------------------------------------------------
    # Delays (FO4)
    # ------------------------------------------------------------------

    @_term
    def intracluster_delay(self) -> float:
        """``t_intra``: worst-case traversal of the intracluster switch.

        Table 3 (roots restored)::

            t_intra = sqrt(N_FU) (h + 2 sqrt(N_FU) b + w_ALU + w_LRF
                                  + sqrt(N_FU) b) / v0
                    + t_mux (log2(N_FU) + sqrt(N_FU))

        First term: wire propagation across the width plus height of the
        cluster grid; second: a ``sqrt(N_FU)``:1 row mux (log-depth tree)
        plus one 2:1 mux per row traversed down the column.
        """
        return self._intra_wire_delay() + self._intra_logic_delay()

    @_term
    def _intra_wire_delay(self) -> float:
        p, c = self.params, self.config
        root = math.sqrt(c.n_fu_cost)
        distance = root * (
            p.h + 2.0 * root * p.b + p.w_alu + p.w_lrf + root * p.b
        )
        return distance / p.v0

    @_term
    def _intra_logic_delay(self) -> float:
        p, c = self.params, self.config
        root = math.sqrt(c.n_fu_cost)
        return p.t_mux * (math.log2(c.n_fu_cost) + root)

    @_term
    def intercluster_delay(self) -> float:
        """``t_inter``: worst-case cluster-to-cluster communication.

        Table 3 (roots restored)::

            t_inter = t_intra
                    + 2 sqrt(C A_CLST + C A_SRF + A_COMM) / v0
                    + t_mux (log2(C N_COMM) + sqrt(C))

        Wire term: twice the chip side (source row plus destination
        column); logic term: the ``C N_COMM``:1 selection tree plus one
        2:1 mux per row of the cluster grid.
        """
        return (
            self.intracluster_delay()
            + self._inter_wire_delay()
            + self._inter_logic_delay()
        )

    @_term
    def _inter_wire_delay(self) -> float:
        p, c = self.params, self.config
        chip_side = math.sqrt(
            c.clusters * self.cluster_area()
            + c.clusters * self.srf_bank_area()
            + self.intercluster_switch_area()
        )
        return 2.0 * chip_side / p.v0

    @_term
    def _inter_logic_delay(self) -> float:
        p, c = self.params, self.config
        return p.t_mux * (
            math.log2(c.clusters * c.n_comm_cost) + math.sqrt(c.clusters)
        )

    @_term
    def delay(self) -> DelayBreakdown:
        """Both switch traversal delays, split into wire and logic parts."""
        return DelayBreakdown(
            intracluster_wire=self._intra_wire_delay(),
            intracluster_logic=self._intra_logic_delay(),
            intercluster_wire=self._inter_wire_delay(),
            intercluster_logic=self._inter_logic_delay(),
        )

    # --- pipelining consequences (paper section 5.1) --------------------

    #: Retiming slack on the half-cycle switch budget: a traversal within
    #: 10% of the budget is absorbed by retiming the surrounding logic
    #: rather than by a new pipeline stage.  With this slack the model
    #: reproduces the paper's section 5.1 statement that the extra ALU
    #: pipeline stage appears in the N=14 configurations (and not N=10).
    PIPELINE_SLACK = 1.10

    @_term
    def intracluster_pipeline_stages(self) -> int:
        """Extra pipeline stages ALU ops need for intracluster transport.

        Imagine allocates half a cycle for the intracluster switch; each
        additional half-cycle of modeled delay costs one more stage.
        """
        budget = self.params.t_cyc / 2.0
        excess = self.intracluster_delay() - budget * self.PIPELINE_SLACK
        if excess <= 0:
            return 0
        return math.ceil(excess / budget)

    @_term
    def intercluster_latency_cycles(self) -> int:
        """COMM operation latency in cycles (fully pipelined wire delay)."""
        return max(1, math.ceil(self.intercluster_delay() / self.params.t_cyc))

    # ------------------------------------------------------------------
    # Energies (E_w per processor cycle at full utilization)
    # ------------------------------------------------------------------

    @_term
    def intracluster_switch_energy(self) -> float:
        """``E_intra``: energy of one *bit* crossing the cluster crossbar.

        Table 3 (roots restored)::

            E_intra = E_w (sqrt(N_FU) (h + 2 sqrt(N_FU) b)
                           + 2 sqrt(N_FU) (w_ALU + w_LRF + sqrt(N_FU) b))
        """
        p, c = self.params, self.config
        root = math.sqrt(c.n_fu_cost)
        return p.e_w * (
            root * (p.h + 2.0 * root * p.b)
            + 2.0 * root * (p.w_alu + p.w_lrf + root * p.b)
        )

    @_term
    def intercluster_switch_energy(self) -> float:
        """``E_inter``: energy of one *bit* of intercluster communication.

        Table 3 (roots restored)::

            E_inter = E_w (2 sqrt(C))
                      (sqrt(A_CLST) + sqrt(A_SRF) + N_COMM b sqrt(C))

        A communication drives the full source row and destination column.
        """
        p, c = self.params, self.config
        root_c = math.sqrt(c.clusters)
        return (
            p.e_w
            * (2.0 * root_c)
            * (
                math.sqrt(self.cluster_area())
                + math.sqrt(self.srf_bank_area())
                + c.n_comm_cost * p.b * root_c
            )
        )

    @_term
    def srf_bank_energy(self) -> float:
        """``E_SRF``: per-cycle energy of one SRF bank at typical activity.

        Table 3: ``E_SRF = r_m T N b E_SRAM G_SB / G_SRF
        + (G_SB N b)(E_SB + E_intra / 2)``.  Stream-storage access energy
        scales with bank capacity; every ALU op causes ``G_SB``
        streambuffer accesses, half of which (reads) also cross the
        intracluster switch.
        """
        p, c = self.params, self.config
        storage = (
            p.r_m
            * p.t_mem
            * c.alus_per_cluster
            * p.b
            * p.e_sram
            * (p.g_sb / p.g_srf)
        )
        buffers = (p.g_sb * c.alus_per_cluster * p.b) * (
            p.e_sb + self.intracluster_switch_energy() / 2.0
        )
        return storage + buffers

    @_term
    def cluster_energy(self) -> float:
        """``E_CLST``: per-cycle energy of one cluster at full utilization.

        Table 3: ``E_CLST = N_FU E_LRF + N E_ALU + N_SP E_SP
        + N_FU b E_intra`` — every FU reads/writes its LRFs, every ALU
        computes, and every FU result crosses the intracluster switch.
        """
        p, c = self.params, self.config
        return (
            c.n_fu_cost * p.e_lrf
            + c.alus_per_cluster * p.e_alu
            + c.n_sp_cost * p.e_sp
            + c.n_fu_cost * p.b * self.intracluster_switch_energy()
        )

    @_term
    def microcontroller_energy(self) -> float:
        """``E_UC``: per-cycle microcode fetch plus instruction broadcast.

        Table 3: ``E_UC = r_uc (I_0 + I_N N_FU) E_SRAM
        + (I_N N_FU) E_w sqrt(C) sqrt(C A_SRF + C A_CLST + A_COMM)`` —
        the ``I_N N_FU`` per-cluster control bits are distributed over a
        tree whose total wire length grows as ``sqrt(C)`` chip sides.
        """
        p, c = self.params, self.config
        fetch = p.r_uc * (p.i0 + p.i_n * c.n_fu_cost) * p.e_sram
        chip_side = math.sqrt(
            c.clusters * self.srf_bank_area()
            + c.clusters * self.cluster_area()
            + self.intercluster_switch_area()
        )
        broadcast = (p.i_n * c.n_fu_cost) * p.e_w * math.sqrt(c.clusters) * chip_side
        return fetch + broadcast

    @_term
    def intercluster_traffic_energy(self) -> float:
        """Chip-wide per-cycle intercluster-communication energy.

        Table 3's ``E_TOT`` tail: ``G_COMM N C b E_inter`` — on average
        ``G_COMM N C`` communications (of ``b`` bits) occur for every
        ``N C`` ALU operations.
        """
        p, c = self.params, self.config
        words = p.g_comm * c.alus_per_cluster * c.clusters
        return words * p.b * self.intercluster_switch_energy()

    @_term
    def energy(self) -> EnergyBreakdown:
        """``E_TOT`` and its components (per cycle, whole chip)."""
        c = self.config
        return EnergyBreakdown(
            srf=c.clusters * self.srf_bank_energy(),
            microcontroller=self.microcontroller_energy(),
            clusters=c.clusters * self.cluster_energy(),
            intercluster_switch=self.intercluster_traffic_energy(),
        )

    @_term
    def energy_per_alu_op(self) -> float:
        """Average energy per ALU operation (units of ``E_w``)."""
        return self.energy().total / self.config.total_alus
