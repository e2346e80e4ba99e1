"""Batched serving daemon for the repro toolchain.

``python -m repro serve`` boots :class:`~repro.serve.daemon.ReproServer`
— a stdlib-only asyncio JSON-over-HTTP daemon that answers
:mod:`repro.api` requests from a warm process: micro-batched,
deduplicated, executed in-process on one dispatcher thread, and
cached by the shared sweep-engine memo and compile caches.  A sweep is
one synchronous request (``POST /v1/sweeps``).  See
``docs/serving.md`` for the protocol and operational semantics.
"""

from .batching import MicroBatcher, QueueFull
from .client import ServeClient, ServeConnectionError, ServeResponse
from .daemon import ERROR_CODES, ReproServer, ServerConfig, run_server

__all__ = [
    "ERROR_CODES",
    "MicroBatcher",
    "QueueFull",
    "ReproServer",
    "ServeClient",
    "ServeConnectionError",
    "ServeResponse",
    "ServerConfig",
    "run_server",
]
