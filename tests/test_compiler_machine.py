"""Tests for repro.compiler.machine (machine descriptions)."""

import pytest

from repro.core.config import ProcessorConfig
from repro.core.costs import CostModel
from repro.compiler.machine import (
    COMM_THROUGHPUT,
    IMAGINE_ALU_MIX,
    LRF_WORDS,
    LRFS_PER_FU,
    SP_THROUGHPUT,
    build_machine,
)
from repro.isa.ops import FUClass, Opcode


class TestOpcodeTables:
    """``latency``/``resource`` are table reads; the tables must hold
    exactly what the per-opcode rules derive."""

    @pytest.mark.parametrize("mix", [None, IMAGINE_ALU_MIX])
    @pytest.mark.parametrize("c,n", [(8, 2), (8, 5), (32, 10), (128, 14)])
    def test_every_opcode_follows_the_rules(self, c, n, mix):
        m = build_machine(ProcessorConfig(c, n), mix)
        for op in Opcode:
            if op.fu_class is FUClass.NONE:
                latency, resource = 0, None
            elif op.is_comm:
                latency, resource = m.comm_latency, "comm"
            elif op.is_alu:
                latency = op.base_latency + m.extra_pipeline_stages
                if mix is None:
                    resource = "alu"
                elif op in (Opcode.FDIV, Opcode.FSQRT):
                    resource = "alu_dsq"
                elif op in (Opcode.IMUL, Opcode.FMUL):
                    resource = "alu_mul"
                else:
                    resource = "alu_add"
            elif op.is_srf_access:
                latency = op.base_latency + m.extra_pipeline_stages
                resource = "sb"
            else:
                latency, resource = op.base_latency, op.fu_class.value
            assert m.latency(op) == latency, op
            assert m.resource(op) == resource, op


class TestIssueSlots:
    def test_baseline_slots(self):
        m = build_machine(ProcessorConfig(8, 5))
        assert m.slots(FUClass.ALU) == 5
        assert m.slots(FUClass.SP) == SP_THROUGHPUT
        assert m.slots(FUClass.COMM) == COMM_THROUGHPUT
        assert m.slots(FUClass.SB) == 7
        assert m.slots(FUClass.NONE) == 0

    def test_slots_scale_with_n(self):
        m = build_machine(ProcessorConfig(8, 10))
        assert m.slots(FUClass.ALU) == 10
        assert m.slots(FUClass.SP) == 2 * SP_THROUGHPUT
        assert m.slots(FUClass.COMM) == 2 * COMM_THROUGHPUT

    def test_provisioning_rates_are_non_binding(self):
        """The modeled throughputs make Table 2's heaviest kernel
        (FFT: 0.50 SP, 0.28 COMM per ALU op) ALU-bound, the property
        the paper asserts its G_SP/G_COMM rates guarantee."""
        for n in (2, 5, 10, 14):
            m = build_machine(ProcessorConfig(8, n))
            alu_ii = 145 / m.slots(FUClass.ALU)
            assert 72 / m.slots(FUClass.SP) <= alu_ii
            assert 40 / m.slots(FUClass.COMM) <= alu_ii


class TestLatencies:
    def test_comm_latency_comes_from_delay_model(self):
        for c in (8, 64, 256):
            config = ProcessorConfig(c, 5)
            m = build_machine(config)
            expected = CostModel(config).intercluster_latency_cycles()
            assert m.latency(Opcode.COMM_PERM) == expected

    def test_comm_latency_grows_with_clusters(self):
        small = build_machine(ProcessorConfig(8, 5))
        large = build_machine(ProcessorConfig(256, 5))
        assert large.comm_latency > small.comm_latency

    def test_extra_stages_at_n14(self):
        """Paper section 5.1: N=14 adds a pipeline stage to ALU ops."""
        base = build_machine(ProcessorConfig(8, 5))
        wide = build_machine(ProcessorConfig(8, 14))
        assert base.extra_pipeline_stages == 0
        assert wide.extra_pipeline_stages >= 1
        assert wide.latency(Opcode.FADD) > base.latency(Opcode.FADD)

    def test_sp_latency_unaffected_by_stages(self):
        wide = build_machine(ProcessorConfig(8, 14))
        assert wide.latency(Opcode.SP_READ) == Opcode.SP_READ.base_latency

    def test_pseudo_ops_free(self):
        m = build_machine(ProcessorConfig(8, 5))
        assert m.latency(Opcode.CONST) == 0


class TestRegisters:
    def test_capacity_formula(self):
        config = ProcessorConfig(8, 5)
        m = build_machine(config)
        assert m.register_capacity == config.n_fu * LRFS_PER_FU * LRF_WORDS

    def test_describe_mentions_the_config(self):
        m = build_machine(ProcessorConfig(8, 5))
        assert "C=8 N=5" in m.describe()
