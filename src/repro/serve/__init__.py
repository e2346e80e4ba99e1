"""Batched serving daemon for the repro toolchain.

``python -m repro serve`` boots :class:`~repro.serve.daemon.ReproServer`
— a stdlib-only asyncio JSON-over-HTTP daemon that answers
:mod:`repro.api` requests from a warm process: micro-batched,
deduplicated, executed in-process on one dispatcher thread, and
cached by the shared sweep-engine memo and compile caches.  Large
sweeps run as async jobs (:mod:`repro.serve.jobs`) behind multi-tenant
admission control (:mod:`repro.serve.tenancy`).  See
``docs/serving.md`` for the protocol and operational semantics.
"""

from .batching import MicroBatcher, QueueFull
from .client import ServeClient, ServeConnectionError, ServeResponse
from .daemon import ERROR_CODES, ReproServer, ServerConfig, run_server
from .jobs import JobManager, JobStore, count_sweep_points
from .tenancy import (
    FairShareScheduler,
    Tenant,
    TenantRegistry,
    TokenBucket,
)

__all__ = [
    "ERROR_CODES",
    "FairShareScheduler",
    "JobManager",
    "JobStore",
    "MicroBatcher",
    "QueueFull",
    "ReproServer",
    "ServeClient",
    "ServeConnectionError",
    "ServeResponse",
    "ServerConfig",
    "Tenant",
    "TenantRegistry",
    "TokenBucket",
    "count_sweep_points",
    "run_server",
]
