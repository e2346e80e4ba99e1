"""Stream-processor configurations and derived structural quantities.

A configuration is the pair the paper sweeps: ``C`` arithmetic clusters and
``N`` ALUs per cluster.  Everything else a stream processor's structure needs
(COMM units, scratchpads, streambuffers, external ports, SRF capacity, VLIW
width) is derived from ``(C, N)`` and the machine parameters using the first
section of paper Table 3.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .params import IMAGINE_PARAMETERS, MachineParameters, hash_once


def _ceil_at_least_one(value: float) -> int:
    """Round a fractional unit requirement up to an integer count >= 1.

    The paper provisions COMM and SP units at a *rate* per ALU (``G_COMM N``,
    ``G_SP N``), but a cluster always contains at least one whole unit of
    each — the paper's "N = 5, or one COMM unit per arithmetic cluster".
    """
    return max(1, math.ceil(value - 1e-9))


@functools.lru_cache(maxsize=64)
def _validate_params(params: MachineParameters) -> None:
    """:meth:`MachineParameters.validate`, once per distinct set.

    Sweeps build thousands of configs over a few parameter sets.  A set
    that fails raises and is not cached, so every config built on it
    raises too.
    """
    params.validate()


@hash_once
@dataclass(frozen=True)
class ProcessorConfig:
    """One point in the (C, N) design space.

    Parameters
    ----------
    clusters:
        ``C`` — number of SIMD arithmetic clusters.
    alus_per_cluster:
        ``N`` — number of ALUs in each cluster.
    params:
        Machine parameter set (defaults to the paper's Table 1 values).
    """

    clusters: int
    alus_per_cluster: int
    params: MachineParameters = field(default=IMAGINE_PARAMETERS)

    def __post_init__(self) -> None:
        if self.clusters < 1:
            raise ValueError("a stream processor needs at least one cluster")
        if self.alus_per_cluster < 1:
            raise ValueError("a cluster needs at least one ALU")
        _validate_params(self.params)

    # --- structural quantities (paper Table 3, first section) -----------

    @property
    def n_comm(self) -> int:
        """COMM (intercluster communication) units per cluster."""
        return _ceil_at_least_one(self.params.g_comm * self.alus_per_cluster)

    @property
    def n_sp(self) -> int:
        """Scratchpad units per cluster."""
        return _ceil_at_least_one(self.params.g_sp * self.alus_per_cluster)

    @property
    def n_fu(self) -> int:
        """Total functional units per cluster (ALUs + SPs + COMMs)."""
        return self.alus_per_cluster + self.n_sp + self.n_comm

    @property
    def n_cluster_sbs(self) -> int:
        """Streambuffers serving the clusters: ``L_C + L_N * N``."""
        return math.ceil(
            self.params.l_c + self.params.l_n * self.alus_per_cluster - 1e-9
        )

    @property
    def n_sbs(self) -> int:
        """Total streambuffers: cluster SBs plus ``L_O`` non-cluster SBs."""
        return math.ceil(self.params.l_o) + self.n_cluster_sbs

    @property
    def external_ports(self) -> int:
        """External (SRF-side) ports per cluster, ``P_e = N_CLSB``."""
        return self.n_cluster_sbs

    @property
    def total_alus(self) -> int:
        """Total ALUs on the chip, ``C * N``."""
        return self.clusters * self.alus_per_cluster

    # --- continuous (amortized) quantities for the cost models ----------
    #
    # Table 3's formulae use the provisioning *rates* directly (``G_COMM N``
    # may be fractional: a COMM unit shared over time).  The machine
    # description for the compiler uses the integer properties above; the
    # cost model uses these continuous ones, floored at one physical unit
    # per cluster, so the cost curves are smooth as the paper's figures are.

    @property
    def n_comm_cost(self) -> float:
        """COMM provisioning used by the cost model (continuous, >= 1)."""
        return max(1.0, self.params.g_comm * self.alus_per_cluster)

    @property
    def n_sp_cost(self) -> float:
        """Scratchpad provisioning used by the cost model (continuous)."""
        return max(1.0, self.params.g_sp * self.alus_per_cluster)

    @property
    def n_fu_cost(self) -> float:
        """Functional-unit provisioning used by the cost model."""
        return self.alus_per_cluster + self.n_sp_cost + self.n_comm_cost

    @property
    def n_cluster_sbs_cost(self) -> float:
        """Cluster streambuffer provisioning: ``L_C + L_N N`` (continuous)."""
        return self.params.l_c + self.params.l_n * self.alus_per_cluster

    @property
    def n_sbs_cost(self) -> float:
        """Total streambuffer provisioning (continuous)."""
        return self.params.l_o + self.n_cluster_sbs_cost

    @property
    def external_ports_cost(self) -> float:
        """External-port provisioning, ``P_e = N_CLSB`` (continuous)."""
        return self.n_cluster_sbs_cost

    # --- capacities -------------------------------------------------------

    @property
    def srf_bank_words(self) -> float:
        """Stream-storage capacity of one SRF bank (words): ``r_m T N``."""
        return self.params.r_m * self.params.t_mem * self.alus_per_cluster

    @property
    def srf_capacity_words(self) -> float:
        """Total SRF stream-storage capacity (words): ``r_m T N C``."""
        return self.srf_bank_words * self.clusters

    @property
    def srf_block_words(self) -> float:
        """Width of an SRF bank block in words: ``G_SRF * N``."""
        return self.params.g_srf * self.alus_per_cluster

    @property
    def vliw_width_bits(self) -> float:
        """VLIW instruction width in bits: ``I_0 + I_N * N_FU``."""
        return self.params.i0 + self.params.i_n * self.n_fu

    @property
    def microcode_bits(self) -> float:
        """Total microcode storage in bits: ``r_uc`` instructions."""
        return self.params.r_uc * self.vliw_width_bits

    # --- bandwidths (words per cycle, whole chip) -------------------------

    @property
    def lrf_bandwidth_words(self) -> float:
        """Peak LRF bandwidth (words/cycle): 3 ports per FU per cluster."""
        return 3.0 * self.n_fu * self.clusters

    @property
    def srf_bandwidth_words(self) -> float:
        """Peak SRF bandwidth (words/cycle): one block per bank per cycle."""
        return self.srf_block_words * self.clusters

    def describe(self) -> str:
        """A short human-readable name, e.g. ``C=8 N=5 (40 ALUs)``."""
        return (
            f"C={self.clusters} N={self.alus_per_cluster}"
            f" ({self.total_alus} ALUs)"
        )


#: The baseline the paper normalizes performance to: Imagine-scale machine.
BASELINE_CONFIG = ProcessorConfig(clusters=8, alus_per_cluster=5)

#: The headline 640-ALU machine (2% area, 7% energy overhead vs baseline).
HEADLINE_640 = ProcessorConfig(clusters=128, alus_per_cluster=5)

#: The headline 1280-ALU machine (27.9x kernel / 10.0x app harmonic mean).
HEADLINE_1280 = ProcessorConfig(clusters=128, alus_per_cluster=10)

#: The Imagine prototype itself: 8 clusters of 6 ALUs (48 FPUs).
IMAGINE_CONFIG = ProcessorConfig(clusters=8, alus_per_cluster=6)
