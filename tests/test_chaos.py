"""Chaos suite: paper sweeps and daemon requests under injected faults.

Every test here runs real work — a figure-13-style kernel grid through
the schedule cache, or requests to an in-process daemon — with a
:class:`repro.resilience` fault plan active, and asserts the contract
of the layers that remain:

* **bit-identity** — whenever a run succeeds, its results equal the
  fault-free run exactly (no "close enough" tolerance): a damaged
  cache entry is a miss, never a wrong schedule;
* **typed failure** — a fault a request cannot survive answers that
  request with an error (a 500 ``internal`` from the daemon) and
  leaves the process serving: the next request computes the point.

``REPRO_CHAOS_SEED`` reseeds the probabilistic plans (CI runs several
seeds); every assertion below must hold for *any* seed.
"""

import json
import os

import pytest

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
from repro.resilience import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    clear_plan,
    install_plan,
)
from repro.serve.client import ServeClient
from test_serve import running_server

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

#: Figure-13 cut: the kernel suite across intracluster scaling points.
FIG13_GRID = [
    (name, ProcessorConfig(8, n))
    for name in PERFORMANCE_SUITE
    for n in (5, 10)
]


@pytest.fixture(scope="module")
def gold_rates():
    """Fault-free kernel rates (values independent of cache state)."""
    return SweepEngine().compile_kernels(FIG13_GRID)


@pytest.fixture(autouse=True)
def _chaos_sandbox(tmp_path):
    """Each test: no leaked plan, cold compile memo, private disk cache
    (so the storage faults really hit files this test wrote)."""
    clear_plan()
    clear_cache()
    configure_default_cache(cache_dir=tmp_path / "schedules")
    yield
    clear_plan()
    clear_cache()
    configure_default_cache()  # back to the env-configured default


class TestStorageChaos:
    def test_corrupt_cache_entries_are_recompiled(self, gold_rates):
        """Every schedule-cache write is bit-flipped on disk the moment
        it lands.  A later cold process must detect the damage via the
        checksum and recompile — same rates, never a wrong schedule."""
        install_plan(FaultPlan(seed=CHAOS_SEED, rules=(
            FaultRule(site="cache.store", kind="corrupt",
                      probability=1.0),
        )))
        first = SweepEngine()
        assert first.compile_kernels(FIG13_GRID) == gold_rates

        # Fresh-process view: cold memo, same (damaged) disk cache.
        clear_plan()
        clear_cache()
        engine = SweepEngine()
        assert engine.compile_kernels(FIG13_GRID) == gold_rates
        cache_stats = default_cache().stats()
        assert cache_stats["misses"] >= len(FIG13_GRID)
        assert cache_stats["evictions"] >= len(FIG13_GRID)

    def test_corrupt_cache_reads_fall_back_to_recompile(self, gold_rates):
        """Damage injected at read time (disk rot): same contract."""
        SweepEngine().compile_kernels(FIG13_GRID)  # populate the cache
        install_plan(FaultPlan(seed=CHAOS_SEED, rules=(
            FaultRule(site="cache.load", kind="corrupt",
                      probability=1.0),
        )))
        clear_cache()
        assert SweepEngine().compile_kernels(FIG13_GRID) == gold_rates


class TestCompileFaults:
    def test_an_injected_compile_fault_is_not_remembered(self):
        """A fault in the II search fails that compile only: unlike a
        ``CompilationError``, it is never remembered, so the next
        compile of the same schedule searches and succeeds."""
        kernel, config = get_kernel("fft"), ProcessorConfig(8, 5)
        install_plan(FaultPlan(seed=CHAOS_SEED, rules=(
            FaultRule(site="compile.kernel", kind="transient", at=(0,)),
        )))
        with pytest.raises(InjectedFault):
            compile_kernel(kernel, config)
        assert memo_size() == 0
        schedule = compile_kernel(kernel, config)
        clear_plan()
        clear_cache()
        default_cache().clear()
        assert schedule == compile_kernel(kernel, config)


class TestDaemonChaos:
    def test_failed_evaluations_answer_500_and_the_daemon_serves_on(self):
        """A transient fault, then an allocation failure, in the first
        two evaluations of a cold point: each of those requests answers
        500 ``internal``; the third computes the point and answers the
        library's bytes.  Liveness never wavers."""
        request = SimulateRequest("fft1k", 8, 5)
        clear_sweep_cache()
        install_plan(FaultPlan(seed=CHAOS_SEED, rules=(
            FaultRule(site="model.predict", kind="transient", at=(0,)),
            FaultRule(site="model.predict", kind="oom", at=(1,)),
        )))
        with running_server() as server:
            with ServeClient("127.0.0.1", server.port) as client:
                replies = []
                for _ in range(3):
                    assert client.health().status == 200
                    replies.append(client.post("simulate", request.to_dict()))
                assert client.health().status == 200
        clear_plan()
        for reply, error in zip(replies, ("InjectedFault", "MemoryError")):
            assert reply.status == 500
            assert reply.error["code"] == "internal"
            assert reply.error["message"].startswith(error)
        assert replies[2].status == 200
        clear_sweep_cache()  # a fresh, fault-free evaluation
        direct = execute(request)
        assert json.dumps(
            replies[2].data, sort_keys=True, separators=(",", ":")
        ) == direct.to_json()
