"""Session set-up for the tier-1 suite: nothing is written into ``$HOME``.

The compile cache and the kernel registry both default to
``$XDG_CACHE_HOME/repro-stream/...`` (``~/.cache`` when unset).
:func:`pytest_configure` runs before any test module is collected, so
before any default store is built: it points ``XDG_CACHE_HOME`` at a
temporary directory for the session and drops inherited per-store
overrides.  Subprocesses the tests start inherit the same environment.
Tests that re-point a store themselves keep doing so.
"""

from __future__ import annotations

import os
import shutil
import tempfile

#: Per-store location overrides a developer's shell may export.
STORE_OVERRIDES = (
    "REPRO_COMPILE_CACHE_DIR",
    "REPRO_KERNEL_REGISTRY_DIR",
)

_session_cache_home = None


def pytest_configure(config):
    global _session_cache_home
    _session_cache_home = tempfile.mkdtemp(prefix="repro-tests-cache-")
    os.environ["XDG_CACHE_HOME"] = _session_cache_home
    for name in STORE_OVERRIDES:
        os.environ.pop(name, None)


def pytest_unconfigure(config):
    if _session_cache_home is not None:
        shutil.rmtree(_session_cache_home, ignore_errors=True)
