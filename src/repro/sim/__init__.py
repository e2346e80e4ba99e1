"""Stream-processor application simulator (the C++ simulator substitute)."""

from .cluster import ClusterArray, KernelRun
from .host import Host
from .memory import AccessPattern, MemorySystem, Transfer
from .metrics import BandwidthReport, OpRecord, SimulationResult, Timeline
from .partitioned import PartitionedRun, simulate_partitioned
from .processor import StreamProcessor, simulate
from .srf import CapacityError, Eviction, SRFAllocator

__all__ = [
    "AccessPattern",
    "BandwidthReport",
    "CapacityError",
    "ClusterArray",
    "Eviction",
    "Host",
    "KernelRun",
    "MemorySystem",
    "OpRecord",
    "PartitionedRun",
    "SRFAllocator",
    "SimulationResult",
    "StreamProcessor",
    "Timeline",
    "Transfer",
    "simulate",
    "simulate_partitioned",
]
