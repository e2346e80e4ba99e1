"""Tests for repro.compiler.modulo (iterative modulo scheduling)."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.machine import build_machine
from repro.compiler.modulo import (
    recurrence_mii,
    resource_mii,
    try_modulo_schedule,
    verify_schedule,
)
from repro.compiler.unroll import build_sched_graph
from repro.core.config import ProcessorConfig
from repro.isa.kernel import KernelGraph
from repro.isa.ops import Opcode
from repro.kernels import KERNELS, get_kernel

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture()
def machine():
    return build_machine(ProcessorConfig(8, 5))


class TestResourceMII:
    def test_alu_bound(self, machine):
        graph = build_sched_graph(get_kernel("blocksad"), machine, 1)
        # 59 ALU ops on 5 ALUs -> ceil = 12.
        assert resource_mii(graph, machine) == 12

    def test_scales_down_with_alus(self):
        wide = build_machine(ProcessorConfig(8, 10))
        graph = build_sched_graph(get_kernel("blocksad"), wide, 1)
        assert resource_mii(graph, wide) == 6


class TestRecurrenceMII:
    def test_self_loop(self, machine):
        g = KernelGraph("acc")
        v = g.op(Opcode.FADD, g.read("in"))
        g.recurrence(v, v, distance=1)
        g.write(v)
        graph = build_sched_graph(g, machine, 1)
        # FADD latency 4 around a distance-1 cycle.
        assert recurrence_mii(graph, machine) == 4

    def test_distance_divides_the_bound(self, machine):
        g = KernelGraph("acc2")
        v = g.op(Opcode.FADD, g.read("in"))
        g.recurrence(v, v, distance=2)
        g.write(v)
        graph = build_sched_graph(g, machine, 1)
        assert recurrence_mii(graph, machine) == 2

    def test_cycle_through_comm(self, machine):
        """Irast's conditional-stream scan: II floor grows with COMM
        latency (and therefore with C)."""
        small = machine
        large = build_machine(ProcessorConfig(256, 5))
        g = get_kernel("irast")
        mii_small = recurrence_mii(build_sched_graph(g, small, 1), small)
        mii_large = recurrence_mii(build_sched_graph(g, large, 1), large)
        assert mii_large > mii_small

    def test_no_recurrence_means_one(self, machine):
        graph = build_sched_graph(get_kernel("blocksad"), machine, 1)
        assert recurrence_mii(graph, machine) == 1


class TestScheduling:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_kernels_schedule_at_or_near_mii(self, name, machine):
        graph = build_sched_graph(get_kernel(name), machine, 1)
        mii = max(
            resource_mii(graph, machine), recurrence_mii(graph, machine)
        )
        schedule = None
        for ii in range(mii, 3 * mii + 8):
            schedule = try_modulo_schedule(graph, machine, ii)
            if schedule:
                break
        assert schedule is not None
        verify_schedule(graph, machine, schedule)
        # A good scheduler lands within 2x of the bound on these graphs.
        assert schedule.ii <= 2 * mii

    @pytest.mark.parametrize("config", [(8, 2), (8, 14), (128, 5)])
    def test_across_configurations(self, config):
        machine = build_machine(ProcessorConfig(*config))
        graph = build_sched_graph(get_kernel("fft"), machine, 1)
        mii = max(
            resource_mii(graph, machine), recurrence_mii(graph, machine)
        )
        for ii in range(mii, 3 * mii + 8):
            schedule = try_modulo_schedule(graph, machine, ii)
            if schedule:
                verify_schedule(graph, machine, schedule)
                return
        pytest.fail("no schedule found")

    def test_stage_count(self, machine):
        graph = build_sched_graph(get_kernel("convolve"), machine, 1)
        schedule = try_modulo_schedule(
            graph, machine, resource_mii(graph, machine)
        )
        assert schedule is not None
        assert schedule.stages == -(-schedule.length // schedule.ii)

    def test_verify_catches_violations(self, machine):
        graph = build_sched_graph(get_kernel("blocksad"), machine, 1)
        schedule = try_modulo_schedule(graph, machine, 12)
        assert schedule is not None
        broken = dict(schedule.start)
        # Move a dependent node to cycle 0 to violate its dependence.
        victim = next(
            v for v in range(len(graph)) if graph.preds[v] and broken[v] > 0
        )
        broken[victim] = 0
        from repro.compiler.modulo import ModuloSchedule

        bad = ModuloSchedule(
            ii=schedule.ii,
            start=broken,
            length=schedule.length,
            resource_mii=schedule.resource_mii,
            recurrence_mii=schedule.recurrence_mii,
        )
        with pytest.raises(AssertionError):
            verify_schedule(graph, machine, bad)

    def test_verify_survives_python_optimize(self):
        """``python -O`` strips ``assert`` statements; a shifted start
        time must still fail verification there."""
        code = textwrap.dedent("""
            import sys
            from repro.compiler.machine import build_machine
            from repro.compiler.modulo import (
                ModuloSchedule, try_modulo_schedule, verify_schedule,
            )
            from repro.compiler.unroll import build_sched_graph
            from repro.core.config import ProcessorConfig
            from repro.kernels import get_kernel

            if not sys.flags.optimize:
                sys.exit("not running under -O")
            machine = build_machine(ProcessorConfig(8, 5))
            graph = build_sched_graph(get_kernel("blocksad"), machine, 1)
            schedule = try_modulo_schedule(graph, machine, 12)
            start = dict(schedule.start)
            victim = next(
                v for v in range(len(graph))
                if graph.preds[v] and start[v] > 0
            )
            start[victim] -= 1
            shifted = ModuloSchedule(
                ii=schedule.ii, start=start, length=schedule.length,
                resource_mii=schedule.resource_mii,
                recurrence_mii=schedule.recurrence_mii,
            )
            verify_schedule(graph, machine, schedule)
            try:
                verify_schedule(graph, machine, shifted)
            except AssertionError as exc:
                print("rejected:", exc)
            else:
                print("accepted")
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("rejected: dependence"), out.stdout


@st.composite
def recurrence_kernels(draw):
    """Random kernels with a recurrence, to stress the back-edge logic."""
    g = KernelGraph("randrec")
    values = [g.read("in")]
    for _ in range(draw(st.integers(2, 25))):
        op = draw(st.sampled_from(
            [Opcode.FADD, Opcode.FMUL, Opcode.IADD, Opcode.SHIFT]
        ))
        a = values[draw(st.integers(0, len(values) - 1))]
        values.append(g.op(op, a))
    src = values[draw(st.integers(1, len(values) - 1))]
    dst = values[draw(st.integers(1, len(values) - 1))]
    g.recurrence(src, dst, distance=draw(st.integers(1, 3)))
    g.write(values[-1])
    return g


class TestAgainstListScheduler:
    """A list schedule is a valid modulo schedule at II = its length, so
    IMS must never need a larger II."""

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_ims_beats_or_ties_list_scheduling(self, name, machine):
        from repro.compiler.listsched import list_schedule

        graph = build_sched_graph(get_kernel(name), machine, 1)
        upper = list_schedule(graph, machine).length
        mii = max(
            resource_mii(graph, machine), recurrence_mii(graph, machine)
        )
        for ii in range(mii, upper + 1):
            schedule = try_modulo_schedule(graph, machine, ii)
            if schedule is not None:
                assert schedule.ii <= upper
                return
        pytest.fail(f"IMS failed below the list-schedule bound for {name}")


class TestProperties:
    @given(recurrence_kernels(), st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_random_recurrence_graphs_schedule_validly(
        self, kernel, unroll
    ):
        machine = build_machine(ProcessorConfig(8, 3))
        graph = build_sched_graph(kernel, machine, unroll)
        mii = max(
            resource_mii(graph, machine), recurrence_mii(graph, machine)
        )
        for ii in range(mii, 4 * mii + 16):
            schedule = try_modulo_schedule(graph, machine, ii)
            if schedule is not None:
                verify_schedule(graph, machine, schedule)
                assert schedule.ii >= mii
                return
        pytest.fail("scheduler failed on a feasible graph")
