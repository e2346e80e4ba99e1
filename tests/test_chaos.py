"""Chaos suite: paper sweeps and daemon requests with things broken.

Every test here runs real work — a figure-13-style kernel grid through
the schedule cache, or requests to an in-process daemon — after
damaging something itself (entry files on disk, or a monkeypatched
search or evaluation that raises), and asserts the contract of the
mechanisms that bound a failure:

* **bit-identity** — whenever a run succeeds, its results equal the
  undamaged run exactly (no "close enough" tolerance): a damaged
  cache entry is a miss, never a wrong schedule;
* **typed failure** — a failure a request cannot survive answers that
  request with an error (a 500 ``internal`` from the daemon) and
  leaves the process serving: the next request computes the point.
"""

import json
from pathlib import Path

import pytest

import repro.analysis.sweep
import repro.compiler.pipeline
from repro.analysis.sweep import SweepEngine, clear_sweep_cache
from repro.api import SimulateRequest, execute
from repro.compiler import (
    clear_cache,
    compile_kernel,
    configure_default_cache,
    default_cache,
)
from repro.compiler.pipeline import memo_size
from repro.core.config import ProcessorConfig
from repro.kernels.suite import PERFORMANCE_SUITE, get_kernel
from repro.serve import ServeClient, running_server

#: Figure-13 cut: the kernel suite across intracluster scaling points.
FIG13_GRID = [
    (name, ProcessorConfig(8, n))
    for name in PERFORMANCE_SUITE
    for n in (5, 10)
]


@pytest.fixture(scope="module")
def gold_rates():
    """Undamaged kernel rates (values independent of cache state)."""
    return SweepEngine().compile_kernels(FIG13_GRID)


@pytest.fixture(autouse=True)
def _chaos_sandbox(tmp_path):
    """Each test: cold compile memo, private disk cache (so the damage
    really hits files this test wrote)."""
    clear_cache()
    configure_default_cache(cache_dir=tmp_path / "schedules")
    yield tmp_path / "schedules"
    clear_cache()
    configure_default_cache()  # back to the env-configured default


def _flipped(data):
    """``data`` as disk rot or a torn write would leave it: the bits of
    its middle byte inverted."""
    data = bytearray(data)
    data[len(data) // 2] ^= 0xFF
    return bytes(data)


def _flip_middle_byte(path):
    """Damage the file at ``path`` with :func:`_flipped`."""
    path.write_bytes(_flipped(path.read_bytes()))


def _raise_then(original, *errors):
    """``original``, except that its first calls raise ``errors`` in
    turn."""
    pending = list(errors)

    def wrapper(*args, **kwargs):
        if pending:
            raise pending.pop(0)
        return original(*args, **kwargs)

    return wrapper


class TestStorageChaos:
    def test_corrupt_cache_entries_are_recompiled(self, gold_rates,
                                                  _chaos_sandbox):
        """Every schedule-cache entry on disk is bit-flipped.  A later
        cold process (memo cleared, same damaged directory) must detect
        each one by its checksum, evict it and recompile — same rates,
        never a wrong schedule."""
        assert SweepEngine().compile_kernels(FIG13_GRID) == gold_rates
        entries = sorted(_chaos_sandbox.rglob("*.json"))
        assert entries
        for entry in entries:
            _flip_middle_byte(entry)

        clear_cache()
        before = default_cache().stats()
        assert SweepEngine().compile_kernels(FIG13_GRID) == gold_rates
        after = default_cache().stats()
        assert after["misses"] - before["misses"] >= len(entries)
        assert after["evictions"] - before["evictions"] >= len(entries)

    def test_corrupt_cache_reads_fall_back_to_recompile(
        self, gold_rates, _chaos_sandbox, monkeypatch
    ):
        """Damage at read time: the files stay whole, but every read of
        an entry returns it bit-flipped.  Each read is a miss that
        evicts and recompiles — same rates — and the recompile stores a
        whole entry again, so once reads are sound a cold run hits
        every one."""
        assert SweepEngine().compile_kernels(FIG13_GRID) == gold_rates
        entries = sorted(_chaos_sandbox.rglob("*.json"))
        assert entries

        read_bytes = Path.read_bytes

        def rotten_read(path):
            data = read_bytes(path)
            if _chaos_sandbox in path.parents:
                return _flipped(data)
            return data

        monkeypatch.setattr(Path, "read_bytes", rotten_read)
        clear_cache()
        before = default_cache().stats()
        assert SweepEngine().compile_kernels(FIG13_GRID) == gold_rates
        after = default_cache().stats()
        monkeypatch.undo()
        assert after["misses"] - before["misses"] >= len(entries)
        assert after["evictions"] - before["evictions"] >= len(entries)

        clear_cache()
        before = default_cache().stats()
        assert SweepEngine().compile_kernels(FIG13_GRID) == gold_rates
        after = default_cache().stats()
        assert after["hits"] - before["hits"] >= len(entries)
        assert after["misses"] == before["misses"]


class TestCompileFaults:
    def test_an_injected_compile_fault_is_not_remembered(self,
                                                         monkeypatch):
        """A failure in the II search fails that compile only: unlike a
        ``CompilationError``, it is never remembered, so the next
        compile of the same schedule searches and succeeds."""
        kernel, config = get_kernel("fft"), ProcessorConfig(8, 5)
        monkeypatch.setattr(
            repro.compiler.pipeline, "_search",
            _raise_then(repro.compiler.pipeline._search,
                        RuntimeError("search failed")),
        )
        with pytest.raises(RuntimeError, match="search failed"):
            compile_kernel(kernel, config)
        assert memo_size() == 0
        schedule = compile_kernel(kernel, config)
        monkeypatch.undo()
        clear_cache()
        default_cache().clear()
        assert schedule == compile_kernel(kernel, config)


class TestDaemonChaos:
    def test_failed_evaluations_answer_500_and_the_daemon_serves_on(
        self, monkeypatch
    ):
        """A runtime error, then an allocation failure, in the first
        two evaluations of a cold point: each of those requests answers
        500 ``internal``; the third computes the point and answers the
        library's bytes.  Liveness never wavers."""
        request = SimulateRequest("fft1k", 8, 5)
        clear_sweep_cache()
        monkeypatch.setattr(
            repro.analysis.sweep, "predict_application",
            _raise_then(repro.analysis.sweep.predict_application,
                        RuntimeError("evaluation failed"),
                        MemoryError("evaluation ran out of memory")),
        )
        with running_server() as server:
            with ServeClient("127.0.0.1", server.port) as client:
                replies = []
                for _ in range(3):
                    assert client.health().status == 200
                    replies.append(client.post("simulate", request.to_dict()))
                assert client.health().status == 200
        monkeypatch.undo()
        for reply, error in zip(replies, ("RuntimeError", "MemoryError")):
            assert reply.status == 500
            assert reply.error["code"] == "internal"
            assert reply.error["message"].startswith(error)
        assert replies[2].status == 200
        clear_sweep_cache()  # a fresh, undamaged evaluation
        direct = execute(request)
        assert json.dumps(
            replies[2].data, sort_keys=True, separators=(",", ":")
        ) == direct.to_json()
