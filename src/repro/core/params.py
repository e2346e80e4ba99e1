"""Machine and technology parameters for the stream-processor cost models.

This module implements Table 1 of the paper ("Summary of Parameters").  The
values were measured from the Imagine stream processor prototype or derived
empirically from kernel inner-loop characteristics, and are expressed in
process-independent units:

* **areas** in *grids* (a grid is one wire track by one wire track),
* **widths/heights** in wire *tracks*,
* **delays** in *FO4* (fan-out-of-4 inverter delays),
* **energies** normalized to ``E_w``, the wire propagation energy per wire
  track (0.093 fJ in the 0.18 micron reference technology).

Because the units are process independent, the same parameter set describes a
0.18 micron Imagine-era chip and the 45 nm 2007-era chip the paper projects;
only the absolute conversion (``TechnologyNode``) changes.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass


def hash_once(cls: type) -> type:
    """Give a frozen dataclass a ``__hash__`` computed once per instance.

    Parameter sets, configurations and technology nodes sit in every
    sweep and compile memo key, and the generated hash rebuilds the
    field tuple (28 floats for :class:`MachineParameters`) on each
    lookup.  The replacement returns the same value, the hash of the
    field tuple, and keeps it in the instance ``__dict__`` after the
    first call.  It is not a field, so ``==``, ``repr``, ``fields()``,
    ``asdict`` and ``replace`` ignore it.  Every field of these classes
    is a number, and numbers hash alike in every process, so a copy
    that arrives by pickle carries a valid hash.
    """
    values = operator.attrgetter(*[f.name for f in dataclasses.fields(cls)])

    def __hash__(self) -> int:
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = self.__dict__["_hash"] = hash(values(self))
            return value

    cls.__hash__ = __hash__
    return cls


@hash_once
@dataclass(frozen=True)
class MachineParameters:
    """Process-independent stream-processor parameters (paper Table 1).

    Every field name follows the paper's symbol; the default values are the
    paper's measured/assumed values.  Instances are immutable; use
    :meth:`replace` for what-if studies.
    """

    # --- Prototype measurements (Imagine) -------------------------------
    #: Area of 1 bit of SRAM used for the SRF or microcontroller (grids).
    a_sram: float = 16.1
    #: Area per streambuffer bit of width (grids).
    a_sb: float = 2161.8
    #: Datapath width of an ALU (tracks).
    w_alu: float = 876.9
    #: Datapath width of the two LRFs feeding one ALU (tracks).
    w_lrf: float = 437.0
    #: Scratchpad datapath width (tracks).
    w_sp: float = 708.9
    #: Datapath height shared by all cluster components (tracks).
    h: float = 1400.0
    #: Wire propagation velocity (tracks per FO4) with optimal repeatering.
    v0: float = 1400.0
    #: Clock period in FO4 delays (Imagine's standard-cell methodology).
    t_cyc: float = 45.0
    #: Delay of a 2:1 mux in FO4s.
    t_mux: float = 2.0
    #: Normalized wire propagation energy per wire track (definition: 1.0).
    e_w: float = 1.0
    #: Energy of one ALU operation (in units of ``e_w``).
    e_alu: float = 2.0e6
    #: SRAM access energy per bit of capacity (units of ``e_w``).
    e_sram: float = 8.7
    #: Energy of one bit of streambuffer access (units of ``e_w``).
    e_sb: float = 1936.0
    #: LRF access energy (units of ``e_w``).
    e_lrf: float = 8.9e5
    #: Scratchpad access energy (units of ``e_w``).
    e_sp: float = 1.6e6

    # --- Architecture constants -----------------------------------------
    #: External memory latency in cycles.
    t_mem: float = 55.0
    #: Data width of the architecture in bits.
    b: int = 32

    # --- Empirical kernel-derived constants ------------------------------
    #: SRF bandwidth provisioning: width of an SRF bank per ALU (words).
    g_srf: float = 0.5
    #: Average streambuffer accesses per ALU operation in typical kernels.
    g_sb: float = 0.2
    #: COMM units required per ALU.
    g_comm: float = 0.2
    #: Scratchpad units required per ALU.
    g_sp: float = 0.2
    #: Base width of a VLIW instruction (bits): sequencing, conditional
    #: streams, immediates, SRF interfacing.
    i0: float = 196.0
    #: Additional VLIW instruction width per functional unit (bits).
    i_n: float = 40.0
    #: Initial (baseline) number of cluster streambuffers.
    l_c: float = 6.0
    #: Required number of non-cluster streambuffers (memory/host/ucode).
    l_o: float = 6.0
    #: Additional streambuffers required per ALU.
    l_n: float = 0.2
    #: SRF capacity per ALU per cycle of memory latency (words).
    r_m: float = 20.0
    #: VLIW instructions of microcode storage for typical applications.
    r_uc: float = 2048.0

    def replace(self, **changes: float) -> "MachineParameters":
        """Return a copy with ``changes`` applied (for sensitivity studies)."""
        return dataclasses.replace(self, **changes)

    def validate(self) -> None:
        """Raise ``ValueError`` if any parameter is out of physical range."""
        positive = (
            "a_sram", "a_sb", "w_alu", "w_lrf", "w_sp", "h", "v0", "t_cyc",
            "t_mux", "e_w", "e_alu", "e_sram", "e_sb", "e_lrf", "e_sp",
            "t_mem", "b", "g_srf", "i0", "i_n", "l_c", "l_o", "r_m", "r_uc",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"parameter {name} must be positive")
        nonnegative = ("g_sb", "g_comm", "g_sp", "l_n")
        for name in nonnegative:
            if getattr(self, name) < 0:
                raise ValueError(f"parameter {name} must be non-negative")


#: Table 1's published parameter set (the module-level default everywhere).
IMAGINE_PARAMETERS = MachineParameters()

#: A full-custom methodology variant (paper section 4.3): roughly 20-FO4
#: clocks; functional units and register files shrink.  The paper argues the
#: *relative* scaling results are unchanged; this parameter set lets the
#: benchmarks demonstrate that claim.
CUSTOM_PARAMETERS = IMAGINE_PARAMETERS.replace(
    t_cyc=20.0,
    w_alu=876.9 * 0.7,
    w_lrf=437.0 * 0.7,
    w_sp=708.9 * 0.7,
    h=1400.0 * 0.7,
    e_alu=2.0e6 * 0.7,
    e_lrf=8.9e5 * 0.7,
    e_sp=1.6e6 * 0.7,
)


@hash_once
@dataclass(frozen=True)
class TechnologyNode:
    """Absolute technology parameters for one process node.

    The cost models are process independent; this class supplies the
    conversion to absolute units (GHz, mm^2, joules) for one node, following
    the ITRS-style assumptions of paper section 5 (a 45 nm node around 2007
    gives a 1 GHz clock at 45 FO4 per cycle).
    """

    #: Marketing feature size in nanometers (metal half pitch).
    feature_nm: float
    #: First year of expected availability.
    year: int
    #: Delay of one FO4 inverter in picoseconds (~360 ps x L_gate(um)).
    fo4_ps: float
    #: Wire track pitch in micrometers.
    track_um: float
    #: Wire energy per track in femtojoules (the absolute value of ``E_w``).
    wire_energy_fj: float
    #: Peak external memory bandwidth in GB/s.
    memory_bw_gbps: float
    #: Host interface bandwidth in GB/s.
    host_bw_gbps: float

    def clock_ghz(self, t_cyc_fo4: float = 45.0) -> float:
        """Clock frequency in GHz for a ``t_cyc_fo4``-FO4 cycle time."""
        if t_cyc_fo4 <= 0:
            raise ValueError("cycle time must be positive")
        return 1e3 / (self.fo4_ps * t_cyc_fo4)

    def grids_to_mm2(self, grids: float) -> float:
        """Convert an area in grids to mm^2 at this node's track pitch."""
        return grids * (self.track_um * 1e-3) ** 2

    def energy_to_joules(self, normalized: float) -> float:
        """Convert an ``E_w``-normalized energy to joules at this node."""
        return normalized * self.wire_energy_fj * 1e-15


#: 0.18 micron reference node (Imagine's fabrication technology).
TECH_180NM = TechnologyNode(
    feature_nm=180.0,
    year=2000,
    fo4_ps=65.0,
    track_um=0.80,
    wire_energy_fj=0.093,
    memory_bw_gbps=2.3,
    host_bw_gbps=0.5,
)

#: 45 nm node projected for 2007 (paper section 5): 1 GHz at 45 FO4,
#: 16 GB/s of memory bandwidth over eight Rambus channels, 2 GB/s host.
#: Wire energy follows constant-field scaling: capacitance per track is
#: proportional to the track pitch and V^2 to the feature size squared,
#: so E_w shrinks with the cube of the linear dimension.
TECH_45NM = TechnologyNode(
    feature_nm=45.0,
    year=2007,
    fo4_ps=22.2,
    track_um=0.20,
    wire_energy_fj=0.093 * (45.0 / 180.0) ** 3,
    memory_bw_gbps=16.0,
    host_bw_gbps=2.0,
)
