"""Tests for repro.isa.kernel (the kernel dataflow IR)."""

import pytest
from hypothesis import given, strategies as st

from repro.isa.kernel import KernelGraph, Value
from repro.isa.ops import FUClass, Opcode


def saxpy() -> KernelGraph:
    g = KernelGraph("saxpy")
    x = g.read("x")
    y = g.read("y")
    a = g.const(2.0)
    g.write(g.op(Opcode.FADD, g.op(Opcode.FMUL, a, x), y))
    return g


class TestBuilder:
    def test_counts(self):
        g = saxpy()
        stats = g.stats()
        assert stats.alu_ops == 2
        assert stats.srf_accesses == 3
        assert stats.comms == 0
        assert stats.sp_accesses == 0

    def test_counts_follow_added_nodes(self):
        g = saxpy()
        assert g.stats().alu_ops == 2
        g.op(Opcode.FADD, g.read("z"), g.const(1.0))
        assert g.stats().alu_ops == 3
        assert g.stats().srf_accesses == 4

    def test_distinct_opcodes_follow_added_nodes(self):
        g = saxpy()
        ops = g.distinct_opcodes()
        assert ops == (Opcode.CONST, Opcode.FADD, Opcode.FMUL,
                       Opcode.SB_READ, Opcode.SB_WRITE)  # mnemonic order
        assert g.distinct_opcodes() is ops  # cached
        g.op(Opcode.FABS, g.read("z"))
        assert g.distinct_opcodes() == (
            Opcode.CONST, Opcode.FABS, Opcode.FADD, Opcode.FMUL,
            Opcode.SB_READ, Opcode.SB_WRITE,
        )

    def test_values_are_opaque_references(self):
        g = KernelGraph("t")
        v = g.const(1.0)
        assert isinstance(v, Value)

    def test_cross_graph_value_rejected(self):
        g1, g2 = KernelGraph("a"), KernelGraph("b")
        v = g1.const(1.0)
        with pytest.raises(ValueError):
            g2.op(Opcode.FADD, v, v)

    def test_non_value_operand_rejected(self):
        g = KernelGraph("t")
        with pytest.raises(TypeError):
            g.op(Opcode.FADD, 3)  # type: ignore[arg-type]

    def test_stream_name_collection(self):
        g = saxpy()
        assert g.input_streams() == ["x", "y"]
        assert g.output_streams() == ["out"]

    def test_conditional_streams(self):
        g = KernelGraph("cond")
        v = g.read("in", conditional=True)
        g.write(v, "out", conditional=True)
        assert g.nodes[0].opcode is Opcode.COND_READ
        assert g.nodes[1].opcode is Opcode.COND_WRITE


class TestReduce:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 13, 16])
    def test_reduce_uses_n_minus_one_ops(self, n):
        g = KernelGraph("r")
        leaves = [g.read("in") for _ in range(n)]
        g.reduce(Opcode.IADD, leaves)
        assert g.stats().alu_ops == n - 1

    def test_reduce_depth_is_logarithmic(self):
        g = KernelGraph("r")
        leaves = [g.read("in") for _ in range(16)]
        g.reduce(Opcode.IADD, leaves)
        # Depth: read (3) + 4 levels of 2-cycle adds = 11.
        latencies = {op: op.base_latency for op in Opcode}
        assert g.critical_path(latencies) == 3 + 4 * 2

    def test_reduce_empty_rejected(self):
        g = KernelGraph("r")
        with pytest.raises(ValueError):
            g.reduce(Opcode.IADD, [])


class TestRecurrences:
    def test_recurrence_recorded(self):
        g = KernelGraph("acc")
        v = g.op(Opcode.FADD, g.read("in"))
        g.recurrence(v, v, distance=1)
        assert len(g.recurrences) == 1
        g.validate()

    def test_bad_distance_rejected(self):
        g = KernelGraph("acc")
        v = g.const(0.0)
        with pytest.raises(ValueError):
            g.recurrence(v, v, distance=0)

    def test_cross_graph_recurrence_rejected(self):
        g1, g2 = KernelGraph("a"), KernelGraph("b")
        v1, v2 = g1.const(0.0), g2.const(0.0)
        with pytest.raises(ValueError):
            g1.recurrence(v1, v2)


class TestValidation:
    def test_builder_graphs_always_validate(self):
        saxpy().validate()

    def test_consumers_map(self):
        g = KernelGraph("c")
        a = g.read("in")
        b = g.op(Opcode.FMUL, a, a)
        g.write(b)
        consumers = g.consumers()
        assert consumers[a.index] == [b.index, b.index]
        assert consumers[b.index] == [2]

    def test_critical_path_of_chain(self):
        g = KernelGraph("chain")
        v = g.read("in")  # SB_READ latency 3
        for _ in range(4):
            v = g.op(Opcode.FMUL, v, v)  # 4 cycles each
        assert g.critical_path() == 3 + 4 * 4


@st.composite
def random_graphs(draw):
    """Random well-formed kernel graphs via the builder API."""
    g = KernelGraph("random")
    values = [g.read("in")]
    opcodes = [Opcode.FADD, Opcode.FMUL, Opcode.IADD, Opcode.SHIFT]
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        op = draw(st.sampled_from(opcodes))
        a = values[draw(st.integers(0, len(values) - 1))]
        b = values[draw(st.integers(0, len(values) - 1))]
        values.append(g.op(op, a, b))
    g.write(values[-1])
    return g


class TestGraphProperties:
    @given(random_graphs())
    def test_random_graphs_validate(self, g):
        g.validate()

    @given(random_graphs())
    def test_stats_account_every_node(self, g):
        by_class = g.counts_by_class()
        assert sum(by_class.values()) == len(g)

    @given(random_graphs())
    def test_critical_path_positive_and_bounded(self, g):
        cp = g.critical_path()
        total = sum(n.opcode.base_latency for n in g.nodes)
        assert 0 < cp <= total


@pytest.fixture()
def walks(monkeypatch):
    """Names of the graphs ``validate`` actually walked."""
    walked = []
    check = KernelGraph._check_invariants

    def counting_check(self):
        walked.append(self.name)
        check(self)

    monkeypatch.setattr(KernelGraph, "_check_invariants", counting_check)
    return walked


class TestValidationIsRemembered:
    def test_a_valid_graph_is_walked_once(self, walks):
        g = saxpy()
        for _ in range(4):
            g.validate()
        assert walks == ["saxpy"]

    def test_adding_a_node_or_recurrence_walks_again(self, walks):
        g = saxpy()
        g.validate()
        v = g.op(Opcode.FADD, g.read("z"), g.const(1.0))
        g.validate()
        g.validate()
        assert len(walks) == 2
        g.recurrence(v, v)
        g.validate()
        assert len(walks) == 3

    def test_a_graph_made_invalid_after_validating_is_rejected(self):
        g = saxpy()
        x = g.read("x")
        g.validate()
        g.op(Opcode.FADD, x, Value(x.graph_id, 99))
        with pytest.raises(ValueError, match="not an earlier node"):
            g.validate()
        with pytest.raises(ValueError, match="not an earlier node"):
            g.validate()  # a failure is never remembered

    def test_a_recurrence_to_a_missing_node_is_rejected(self):
        g = saxpy()
        x = g.read("x")
        g.validate()
        g.recurrence(x, Value(x.graph_id, 99))
        with pytest.raises(ValueError, match="missing node"):
            g.validate()
