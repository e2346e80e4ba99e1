"""An in-process daemon on an event-loop thread of its own.

:func:`running_server` lets blocking code — tests, benchmarks, a
notebook — drive a :class:`~repro.serve.daemon.ReproServer` with
:class:`~repro.serve.client.ServeClient` from the calling thread: the
daemon's loop runs on a background thread, where it reads, executes
and answers each request while the caller waits on its socket.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from typing import Any, Iterator

from .daemon import ReproServer, ServerConfig

__all__ = ["running_server"]


@contextlib.contextmanager
def running_server(**overrides: Any) -> Iterator[ReproServer]:
    """A started daemon on an ephemeral port (``port=0`` unless given);
    drained and its loop closed on exit.  ``overrides`` are
    :class:`~repro.serve.daemon.ServerConfig` fields."""
    overrides.setdefault("port", 0)
    server = ReproServer(ServerConfig(**overrides))
    loop = asyncio.new_event_loop()
    thread = threading.Thread(
        target=loop.run_forever, name="repro-serve-loop", daemon=True
    )
    thread.start()
    try:
        asyncio.run_coroutine_threadsafe(server.start(), loop).result(10)
        try:
            yield server
        finally:
            asyncio.run_coroutine_threadsafe(
                server.drain_and_stop(), loop
            ).result(60)
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(5)
        loop.close()
