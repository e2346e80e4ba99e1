"""Session set-up for the tier-1 suite: nothing is written into ``$HOME``.

The compile cache and the kernel registry both live under
``$XDG_CACHE_HOME/repro-stream/...`` (``~/.cache`` when unset).
:func:`pytest_configure` runs before any test module is collected, so
before any default store is built: it points ``XDG_CACHE_HOME`` at a
temporary directory for the session.  Subprocesses the tests start
inherit the same environment.  Tests that re-point a store themselves
keep doing so.

The :func:`verified_loads` fixture re-verifies every schedule the
compile path loads from a disk cache.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import pytest

_session_cache_home = None


def pytest_configure(config):
    global _session_cache_home
    _session_cache_home = tempfile.mkdtemp(prefix="repro-tests-cache-")
    os.environ["XDG_CACHE_HOME"] = _session_cache_home


def pytest_unconfigure(config):
    if _session_cache_home is not None:
        shutil.rmtree(_session_cache_home, ignore_errors=True)


@pytest.fixture
def verified_loads(monkeypatch):
    """Check every schedule the compile path loads from a disk cache:
    rebuild its scheduling graph, run ``verify_schedule`` on the stored
    start times and compare MaxLive.  The list of checked schedules."""
    from repro.compiler import pipeline
    from repro.compiler.modulo import ModuloSchedule, verify_schedule
    from repro.compiler.pressure import max_live
    from repro.compiler.unroll import build_sched_graph

    checked = []
    from_payload = pipeline._schedule_from_payload

    def verified(kernel, machine, payload):
        schedule = from_payload(kernel, machine, payload)
        if schedule is not None:
            graph = build_sched_graph(
                kernel, machine, schedule.unroll_factor
            )
            start = {int(v): int(t) for v, t in payload["start"]}
            verify_schedule(graph, machine, ModuloSchedule(
                ii=schedule.ii,
                start=start,
                length=schedule.length,
                resource_mii=schedule.resource_mii,
                recurrence_mii=schedule.recurrence_mii,
            ))
            assert max_live(graph, start, schedule.ii) == schedule.max_live
            checked.append(schedule)
        return schedule

    monkeypatch.setattr(pipeline, "_schedule_from_payload", verified)
    return checked
