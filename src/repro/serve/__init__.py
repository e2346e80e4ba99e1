"""Serving daemon for the repro toolchain.

``python -m repro serve`` boots :class:`~repro.serve.daemon.ReproServer`
— a stdlib-only asyncio JSON-over-HTTP daemon that answers
:mod:`repro.api` requests from a warm process: each request executes
inline on the event loop that read it, one at a time, and repeats hit
the shared sweep-engine memo and compile caches.  A sweep is one
synchronous request (``POST /v1/sweeps``).
:func:`~repro.serve.inprocess.running_server` runs one on a background
thread for blocking callers.  See ``docs/serving.md`` for the protocol
and operational semantics.
"""

from .client import ServeClient, ServeConnectionError, ServeResponse
from .daemon import ERROR_CODES, ReproServer, ServerConfig, run_server
from .inprocess import running_server

__all__ = [
    "ERROR_CODES",
    "ReproServer",
    "ServeClient",
    "ServeConnectionError",
    "ServeResponse",
    "ServerConfig",
    "run_server",
    "running_server",
]
