"""Tests for the simulator building blocks: memory, host, clusters,
streambuffer allocation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.streamc import Stream
from repro.compiler.pipeline import compile_kernel
from repro.core.config import BASELINE_CONFIG, ProcessorConfig
from repro.core.params import TECH_45NM
from repro.kernels import get_kernel
from repro.sim.cluster import DISPATCH_CYCLES, ClusterArray
from repro.sim.host import Host
from repro.sim.memory import MemorySystem
from repro.sim.srf import CapacityError, SRFAllocator


class TestMemorySystem:
    def test_bandwidth(self):
        """16 GB/s at 1 GHz and 4-byte words = 4 words per cycle."""
        mem = MemorySystem(BASELINE_CONFIG, TECH_45NM, clock_ghz=1.0)
        assert mem.words_per_cycle == pytest.approx(4.0)
        assert mem.latency == 55

    def test_transfer_timing(self):
        mem = MemorySystem(BASELINE_CONFIG, TECH_45NM)
        t = mem.transfer(4000, earliest=100)
        assert t.start == 100
        assert t.bandwidth_done == 100 + 1000
        assert t.data_ready == 100 + 1000 + 55

    def test_transfers_serialize_on_the_pipe(self):
        mem = MemorySystem(BASELINE_CONFIG, TECH_45NM)
        first = mem.transfer(400, earliest=0)
        second = mem.transfer(400, earliest=0)
        assert second.start == first.bandwidth_done

    def test_pipe_idles_until_ready(self):
        mem = MemorySystem(BASELINE_CONFIG, TECH_45NM)
        mem.transfer(400, earliest=0)
        late = mem.transfer(400, earliest=10_000)
        assert late.start == 10_000

    def test_utilization(self):
        mem = MemorySystem(BASELINE_CONFIG, TECH_45NM)
        mem.transfer(4000, earliest=0)
        assert mem.utilization(2000) == pytest.approx(0.5)

    def test_rejects_negative(self):
        mem = MemorySystem(BASELINE_CONFIG, TECH_45NM)
        with pytest.raises(ValueError):
            mem.transfer(-1, 0)

    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_bandwidth_conservation(self, sizes):
        """Total busy time equals total words / bandwidth (rounded)."""
        mem = MemorySystem(BASELINE_CONFIG, TECH_45NM)
        for words in sizes:
            mem.transfer(words, 0)
        expected = sum(int(round(w / 4.0)) for w in sizes)
        assert mem.busy_cycles == expected


class TestHost:
    def test_issue_rate(self):
        """64-byte stream instructions over 2 GB/s at 1 GHz: 32 cycles."""
        host = Host(TECH_45NM)
        assert host.cycles_per_instruction == 32

    def test_serial_channel(self):
        host = Host(TECH_45NM)
        first = host.issue(0)
        second = host.issue(0)
        assert first == 32
        assert second == 64

    def test_idle_channel_waits(self):
        host = Host(TECH_45NM)
        host.issue(0)
        assert host.issue(1000) == 1032

    def test_bad_scoreboard_rejected(self):
        with pytest.raises(ValueError):
            Host(TECH_45NM, scoreboard_depth=0)


class TestClusterArray:
    def test_kernel_run_timing(self):
        clusters = ClusterArray(BASELINE_CONFIG)
        schedule = compile_kernel(get_kernel("blocksad"), BASELINE_CONFIG)
        run = clusters.run(schedule, work_items=800, earliest=50)
        # 800 items on 8 clusters = 100 iterations.
        assert run.iterations == 100
        expected = (
            DISPATCH_CYCLES
            + run.ucode_reload_cycles
            + schedule.inner_loop_cycles(100)
        )
        assert run.cycles == expected
        assert run.start == 50

    def test_serial_resource(self):
        clusters = ClusterArray(BASELINE_CONFIG)
        schedule = compile_kernel(get_kernel("noise"), BASELINE_CONFIG)
        a = clusters.run(schedule, 80, 0)
        b = clusters.run(schedule, 80, 0)
        assert b.start == a.finish

    def test_ucode_cached_after_first_run(self):
        clusters = ClusterArray(BASELINE_CONFIG)
        schedule = compile_kernel(get_kernel("noise"), BASELINE_CONFIG)
        first = clusters.run(schedule, 80, 0)
        second = clusters.run(schedule, 80, 0)
        assert first.ucode_reload_cycles > 0
        assert second.ucode_reload_cycles == 0

    def test_ragged_last_batch_rounds_up(self):
        clusters = ClusterArray(BASELINE_CONFIG)
        schedule = compile_kernel(get_kernel("noise"), BASELINE_CONFIG)
        run = clusters.run(schedule, work_items=9, earliest=0)
        assert run.iterations == 2  # 9 items on 8 clusters

    def test_rejects_empty_call(self):
        clusters = ClusterArray(BASELINE_CONFIG)
        schedule = compile_kernel(get_kernel("noise"), BASELINE_CONFIG)
        with pytest.raises(ValueError):
            clusters.run(schedule, 0, 0)


def make_stream(name: str, words: int) -> Stream:
    return Stream(name, elements=words)


class TestSRFAllocator:
    def test_capacity_from_config(self):
        srf = SRFAllocator(BASELINE_CONFIG)
        assert srf.capacity == 44_000

    def test_allocate_and_release(self):
        srf = SRFAllocator(BASELINE_CONFIG)
        s = make_stream("a", 1000)
        assert srf.allocate(s, 0, dirty=False) == []
        assert srf.is_resident(s)
        assert srf.used == 1000
        srf.release(s)
        assert srf.free == srf.capacity

    def test_oversized_stream_rejected(self):
        srf = SRFAllocator(BASELINE_CONFIG)
        with pytest.raises(CapacityError):
            srf.allocate(make_stream("huge", 50_000), 0, dirty=False)

    def test_lru_eviction(self):
        srf = SRFAllocator(BASELINE_CONFIG)
        old = make_stream("old", 20_000)
        newer = make_stream("newer", 20_000)
        incoming = make_stream("incoming", 20_000)
        srf.allocate(old, 0, dirty=False)
        srf.allocate(newer, 1, dirty=False)
        evictions = srf.allocate(incoming, 2, dirty=False)
        assert [e.stream for e in evictions] == [old]
        assert not srf.is_resident(old)
        assert srf.is_resident(newer)

    def test_dirty_eviction_marks_writeback(self):
        srf = SRFAllocator(BASELINE_CONFIG)
        produced = make_stream("produced", 30_000)
        srf.allocate(produced, 0, dirty=True)
        evictions = srf.allocate(make_stream("next", 30_000), 1, dirty=False)
        assert evictions[0].writeback
        assert srf.spill_words == 30_000

    def test_pinned_streams_never_evicted(self):
        srf = SRFAllocator(BASELINE_CONFIG)
        pinned = make_stream("pinned", 30_000)
        srf.allocate(pinned, 0, dirty=False)
        srf.pin(pinned)
        with pytest.raises(CapacityError):
            srf.allocate(make_stream("big", 30_000), 1, dirty=False)

    def test_double_allocate_is_idempotent(self):
        srf = SRFAllocator(BASELINE_CONFIG)
        s = make_stream("s", 5_000)
        srf.allocate(s, 0, dirty=False)
        assert srf.allocate(s, 1, dirty=True) == []
        assert srf.used == 5_000
        assert srf.is_dirty(s)

    @given(st.lists(st.integers(100, 9000), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_capacity_invariant(self, sizes):
        """The allocator never oversubscribes the SRF."""
        srf = SRFAllocator(BASELINE_CONFIG)
        for i, words in enumerate(sizes):
            srf.allocate(make_stream(f"s{i}", words), i, dirty=(i % 2 == 0))
            assert srf.used <= srf.capacity
