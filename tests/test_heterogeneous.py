"""Tests for heterogeneous ALU mixes (Imagine's 3-adder/2-mul/1-DSQ)."""

import pytest

from repro.compiler.machine import (
    IMAGINE_ALU_MIX,
    _split_alus,
    build_machine,
)
from repro.compiler.pipeline import compile_kernel
from repro.core.config import ProcessorConfig
from repro.isa.ops import FUClass, Opcode
from repro.kernels import KERNELS, PERFORMANCE_SUITE, get_kernel


class TestUnitSplit:
    def test_imagine_cluster_split(self):
        """Six ALUs under the Imagine mix: 3 adders, 2 muls, 1 DSQ."""
        counts = _split_alus(6, IMAGINE_ALU_MIX)
        assert counts == {"alu_add": 3, "alu_mul": 2, "alu_dsq": 1}

    def test_split_preserves_total(self):
        for n in range(1, 33):
            counts = _split_alus(n, IMAGINE_ALU_MIX)
            assert sum(counts.values()) == n, n
            assert all(v >= 1 for v in counts.values())

    def test_tiny_clusters_drop_rare_kinds(self):
        counts = _split_alus(2, IMAGINE_ALU_MIX)
        assert sum(counts.values()) == 2
        assert "alu_add" in counts


class TestMachineDescription:
    def test_homogeneous_default(self):
        machine = build_machine(ProcessorConfig(8, 5))
        assert not machine.heterogeneous
        assert machine.resource(Opcode.FMUL) == "alu"
        assert machine.resource(Opcode.FADD) == "alu"

    def test_heterogeneous_routing(self):
        machine = build_machine(ProcessorConfig(8, 6), IMAGINE_ALU_MIX)
        assert machine.heterogeneous
        assert machine.resource(Opcode.FADD) == "alu_add"
        assert machine.resource(Opcode.IMUL) == "alu_mul"
        assert machine.resource(Opcode.FDIV) == "alu_dsq"
        assert machine.resource(Opcode.SP_READ) == "sp"
        assert machine.resource(Opcode.CONST) is None

    def test_aggregate_alu_slots_unchanged(self):
        homo = build_machine(ProcessorConfig(8, 6))
        hetero = build_machine(ProcessorConfig(8, 6), IMAGINE_ALU_MIX)
        assert homo.slots(FUClass.ALU) == hetero.slots(FUClass.ALU) == 6

    def test_describe_names_the_units(self):
        machine = build_machine(ProcessorConfig(8, 6), IMAGINE_ALU_MIX)
        assert "alu_add" in machine.describe()


class TestCompilation:
    @pytest.mark.parametrize("name", PERFORMANCE_SUITE)
    def test_suite_compiles_heterogeneously(self, name):
        schedule = compile_kernel(
            get_kernel(name), ProcessorConfig(8, 6),
            alu_mix=IMAGINE_ALU_MIX,
        )
        assert schedule.ii >= 1
        assert schedule.max_live <= schedule.register_capacity

    def test_heterogeneity_never_helps(self):
        """Splitting the ALU pool can only constrain the schedule."""
        for name in PERFORMANCE_SUITE:
            config = ProcessorConfig(8, 6)
            homo = compile_kernel(get_kernel(name), config)
            hetero = compile_kernel(
                get_kernel(name), config, alu_mix=IMAGINE_ALU_MIX
            )
            assert hetero.ii_per_iteration >= homo.ii_per_iteration - 1e-9

    def test_add_heavy_kernel_is_adder_bound(self):
        """Blocksad is almost all adder-class work: under the Imagine
        mix, its II is set by the 3 adders, not the 6 ALUs."""
        config = ProcessorConfig(8, 6)
        hetero = compile_kernel(
            get_kernel("blocksad"), config, alu_mix=IMAGINE_ALU_MIX
        )
        homo = compile_kernel(get_kernel("blocksad"), config)
        assert hetero.ii_per_iteration > 1.5 * homo.ii_per_iteration

    def test_balanced_kernel_loses_little(self):
        """FFT's mul/add balance roughly matches the Imagine mix."""
        config = ProcessorConfig(8, 6)
        hetero = compile_kernel(
            get_kernel("fft"), config, alu_mix=IMAGINE_ALU_MIX
        )
        homo = compile_kernel(get_kernel("fft"), config)
        assert hetero.ii_per_iteration <= 1.5 * homo.ii_per_iteration

    def test_a_missing_unit_is_a_typed_error(self):
        """At N=1 the Imagine mix keeps only an adder, so a kernel that
        multiplies has no unit for its multiplies.  Its compile raises
        the ``machine has no alu_mul slots`` ValueError, not a bare
        KeyError, and every other compile of the grid succeeds."""
        failed = []
        for name in sorted(KERNELS):
            for n in (1, 2, 3, 5, 10, 14):
                for mix in (None, IMAGINE_ALU_MIX):
                    try:
                        compile_kernel(
                            get_kernel(name), ProcessorConfig(8, n),
                            alu_mix=mix,
                        )
                    except ValueError as exc:
                        assert str(exc) == "machine has no alu_mul slots"
                        failed.append((name, n, mix))
        assert len(KERNELS) * 6 * 2 == 84
        assert failed == [
            (name, 1, IMAGINE_ALU_MIX)
            for name in ("convolve", "dct", "fft", "irast", "noise", "update")
        ]
