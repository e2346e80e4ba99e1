"""Tests for repro.compiler.unroll (scheduling graphs and unrolling)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.machine import IMAGINE_ALU_MIX, build_machine
from repro.compiler.unroll import (
    MAX_UNROLL,
    build_sched_graph,
    choose_unroll_factor,
)
from repro.core.config import ProcessorConfig
from repro.frontend import graph_from_document
from repro.isa.kernel import KernelGraph
from repro.isa.ops import FUClass, Opcode
from repro.kernels import KERNELS, get_kernel

from test_frontend_fuzz import generate_document

#: Suite kernels plus generated ones (those carry recurrences too).
_KERNELS = [get_kernel(name) for name in sorted(KERNELS)] + [
    graph_from_document(generate_document(random.Random(seed)))
    for seed in range(12)
]


@pytest.fixture()
def machine():
    return build_machine(ProcessorConfig(8, 5))


def accumulator_kernel() -> KernelGraph:
    """x += in, carried across iterations."""
    g = KernelGraph("acc")
    v = g.op(Opcode.FADD, g.read("in"))
    g.recurrence(v, v, distance=1)
    g.write(v)
    return g


class TestSchedGraph:
    def test_unrolled_size(self, machine):
        kernel = get_kernel("blocksad")
        graph = build_sched_graph(kernel, machine, unroll_factor=3)
        assert len(graph) == 3 * len(kernel)
        assert graph.unroll_factor == 3
        assert graph.alu_ops_per_iteration == 59

    def test_bad_factor_rejected(self, machine):
        with pytest.raises(ValueError):
            build_sched_graph(get_kernel("blocksad"), machine, 0)

    def test_edges_match_operands(self, machine):
        g = KernelGraph("pair")
        a = g.read("in")
        b = g.op(Opcode.FMUL, a, a)
        g.write(b)
        graph = build_sched_graph(g, machine, 1)
        # b (node 1) has two incoming edges from a (node 0).
        preds = graph.preds[1]
        assert len(preds) == 2
        assert all(u == 0 for u, _lat, _d in preds)
        assert all(lat == machine.latency(Opcode.SB_READ) for _u, lat, _d in preds)

    def test_class_counts_scale_with_unroll(self, machine):
        kernel = get_kernel("update")
        one = build_sched_graph(kernel, machine, 1).counts_by_class()
        four = build_sched_graph(kernel, machine, 4).counts_by_class()
        for cls in FUClass:
            assert four[cls] == 4 * one[cls]


class TestPerNodeTables:
    """The per-node lists the schedulers index agree with the machine."""

    @settings(max_examples=60, deadline=None)
    @given(
        kernel=st.sampled_from(_KERNELS),
        clusters=st.sampled_from((1, 8, 32, 128)),
        alus=st.sampled_from((1, 2, 3, 5, 10, 14)),
        mix=st.sampled_from((None, IMAGINE_ALU_MIX)),
        unroll=st.integers(min_value=1, max_value=MAX_UNROLL),
    )
    def test_match_machine_per_node(self, kernel, clusters, alus, mix,
                                    unroll):
        machine = build_machine(ProcessorConfig(clusters, alus), mix)
        graph = build_sched_graph(kernel, machine, unroll)
        assert graph.resources == [
            machine.resource(op) for op in graph.opcodes
        ]
        assert graph.latencies == [
            machine.latency(op) for op in graph.opcodes
        ]
        # Every edge carries its producer's latency.
        for v in range(len(graph)):
            for u, latency, _distance in graph.preds[v]:
                assert latency == graph.latencies[u]


class TestRecurrenceRewiring:
    def test_self_recurrence_becomes_chain_plus_backedge(self, machine):
        graph = build_sched_graph(accumulator_kernel(), machine, 4)
        back_edges = [
            (u, v, d)
            for u in range(len(graph))
            for v, _lat, d in graph.succs[u]
            if d > 0
        ]
        # Exactly one back edge survives: last copy -> first copy.
        assert len(back_edges) == 1
        (u, v, d) = back_edges[0]
        assert d == 1
        # Three intra-body chain edges link the four copies.
        chain = [
            (a, b)
            for a in range(len(graph))
            for b, _lat, dd in graph.succs[a]
            if dd == 0 and graph.opcodes[a] is Opcode.FADD
            and graph.opcodes[b] is Opcode.FADD
        ]
        assert len(chain) == 3

    def test_distance_preserved_without_unroll(self, machine):
        graph = build_sched_graph(accumulator_kernel(), machine, 1)
        back = [
            d
            for u in range(len(graph))
            for _v, _lat, d in graph.succs[u]
            if d > 0
        ]
        assert back == [1]


class TestUnrollChoice:
    def test_no_unroll_when_ii_already_large(self, machine):
        # blocksad at N=5: 59/5 ~ 12 cycles, above the target.
        assert choose_unroll_factor(get_kernel("blocksad"), machine) == 1

    def test_unroll_grows_with_alus(self):
        wide = build_machine(ProcessorConfig(8, 14))
        assert choose_unroll_factor(get_kernel("blocksad"), wide) >= 2

    def test_unroll_capped(self):
        huge = build_machine(ProcessorConfig(8, 64))
        assert (
            choose_unroll_factor(get_kernel("blocksad"), huge) <= MAX_UNROLL
        )
