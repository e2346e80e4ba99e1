"""Schedules are shared across machine points that look alike to a kernel.

A kernel's schedule depends only on its view of the machine
(:func:`repro.compiler.cache.machine_view`): cluster count reaches it
only through COMM latency.  These tests pin the two halves of that
claim: every schedule ``compile_kernel`` returns, shared or not, is the
one a memo-free, disk-free compile of that exact config produces; and
a kernel that never communicates is compiled once per view, not once
per (C, N) point.  The in-memory memo keys on the view itself; the
hashed :func:`~repro.compiler.cache.schedule_key` addresses only the
disk, and only a memory miss computes it.
"""

import json
import random

import pytest

from repro import api
from repro.analysis.perf import TABLE5_C_VALUES, TABLE5_N_VALUES
from repro.analysis.sweep import clear_sweep_cache
from repro.compiler import pipeline
from repro.compiler.cache import ScheduleCache, schedule_key
from repro.compiler.machine import IMAGINE_ALU_MIX
from repro.compiler.pipeline import (
    clear_cache,
    compile_kernel,
    memo_size,
)
from repro.core.config import ProcessorConfig
from repro.frontend import graph_from_document
from repro.kernels import KERNELS, get_kernel

from test_frontend_fuzz import generate_document

#: Seeded fuzz kernels: stream reads, ALU ops and writes, no COMM ops.
FUZZ_SEEDS = range(100, 124)

MIXES = (None, IMAGINE_ALU_MIX)


def _fuzz_kernel(seed):
    return graph_from_document(generate_document(random.Random(seed)))


def _points(kernels):
    return [
        (kernel, ProcessorConfig(c, n), mix)
        for kernel in kernels
        for mix in MIXES
        for c in TABLE5_C_VALUES
        for n in TABLE5_N_VALUES
    ]


def _reference(kernel, config, mix):
    """A cold compile of exactly ``config``: no memo, no disk, its disk
    key, and the payload it would store (with the start map)."""
    machine, unroll, _content = pipeline._resolve(kernel, config, mix, None)
    result, schedule = pipeline._search(kernel, machine, unroll)
    start = json.loads(json.dumps(
        pipeline._schedule_to_payload(result, schedule)["start"]
    ))
    return schedule_key(kernel, machine, unroll), result, start


@pytest.fixture
def fresh_memo():
    clear_cache()
    yield
    clear_cache()


class TestExactness:
    """Sharing never changes a schedule, field for field."""

    @pytest.fixture(scope="class")
    def points(self):
        kernels = [get_kernel(name) for name in sorted(KERNELS)]
        kernels += [_fuzz_kernel(seed) for seed in FUZZ_SEEDS]
        return _points(kernels)

    @pytest.fixture(scope="class")
    def references(self, points):
        return [_reference(*point) for point in points]

    def _check(self, points, references, disk, served):
        for (kernel, config, mix), (key, want, start) in zip(
            points, references
        ):
            got = served(kernel, config, mix)
            assert got == want, (kernel.name, config, mix)  # config too
            assert got.ops_per_cycle() == want.ops_per_cycle()
            assert disk.load(key)["start"] == start, (kernel.name, config)

    def test_shared_schedules_match_exact_compiles(
        self, points, references, tmp_path, fresh_memo, verified_loads
    ):
        disk = ScheduleCache(tmp_path)

        def compiled(kernel, config, mix):
            return compile_kernel(kernel, config, alu_mix=mix, cache=disk)

        self._check(points, references, disk, compiled)
        distinct = memo_size()
        # Most points reuse a schedule found at another C.
        assert distinct == len({key for key, _, _ in references})
        assert distinct < len(points) / 2

        # A fresh process: every schedule comes off disk, verified, and
        # is restamped for each point that shares it.
        clear_cache()
        stored = disk.writes
        self._check(points, references, disk, compiled)
        assert disk.writes == stored
        assert len(verified_loads) == distinct


class TestCompileCounts:
    """A kernel without COMM ops compiles once per N, not once per C."""

    def _document(self, name):
        document = generate_document(random.Random(101))
        document["name"] = name
        return document

    def test_table5_sweep_compiles_one_schedule_per_n(self, fresh_memo):
        ref = api.execute(api.RegisterKernelRequest(
            document=self._document("sharing_table5")
        ))
        clear_sweep_cache()
        before = memo_size()
        api.execute(api.SweepRequest(target="table5", kernel=ref.ref))
        assert memo_size() - before == len(TABLE5_N_VALUES)

    def test_one_disk_entry_serves_every_cluster_count(
        self, tmp_path, fresh_memo, verified_loads
    ):
        kernel = graph_from_document(self._document("sharing_disk"))
        disk = ScheduleCache(tmp_path)
        for c in TABLE5_C_VALUES:
            compile_kernel(kernel, ProcessorConfig(c, 5), cache=disk)
        assert disk.writes == 1
        assert len(list(tmp_path.rglob("*.json"))) == 1

        clear_cache()
        loaded = compile_kernel(kernel, ProcessorConfig(128, 5), cache=disk)
        assert disk.hits == 1
        assert len(verified_loads) == 1
        assert loaded.config.clusters == 128


class TestMemoKey:
    """The content memo keys on ``(signature, view, unroll)``; the
    SHA-256 disk key is computed only for the disk, on a memory miss."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Count the disk keys the compile path hashes, and its searches."""
        counts = {"keys": [], "searches": 0}
        hash_key = pipeline.schedule_key
        search = pipeline._search

        def counting_key(*args):
            key = hash_key(*args)
            counts["keys"].append(key)
            return key

        def counting_search(*args, **kwargs):
            counts["searches"] += 1
            return search(*args, **kwargs)

        monkeypatch.setattr(pipeline, "schedule_key", counting_key)
        monkeypatch.setattr(pipeline, "_search", counting_search)
        return counts

    def _jobs(self):
        return [
            (get_kernel(name), ProcessorConfig(c, n))
            for name in ("blocksad", "fft")
            for c in TABLE5_C_VALUES
            for n in TABLE5_N_VALUES
        ]

    def test_memory_path_hashes_no_disk_key(self, fresh_memo, counted):
        off = ScheduleCache(None)
        jobs = self._jobs()
        for kernel, config in jobs:
            compile_kernel(kernel, config, cache=off)
        # Cold compiles and content hits alike; blocksad never
        # communicates, so most of its points are content hits.
        assert counted["searches"] == memo_size() < len(jobs)
        assert counted["keys"] == []

    def test_each_memory_miss_hashes_one_disk_key(
        self, tmp_path, fresh_memo, counted
    ):
        disk = ScheduleCache(tmp_path)
        for kernel, config in self._jobs():
            compile_kernel(kernel, config, cache=disk)
        keys = counted["keys"]
        assert len(keys) == len(set(keys)) == memo_size() == disk.writes
        stored = {path.stem for path in tmp_path.rglob("*.json")}
        assert stored == set(keys)
