"""Tests for repro.compiler.pipeline (the compilation driver)."""

import pytest

from repro.apps.suite import get_application
from repro.compiler import machine, pipeline
from repro.compiler.machine import IMAGINE_ALU_MIX, build_machine
from repro.compiler.pipeline import clear_cache, compile_kernel, memo_size
from repro.core.config import BASELINE_CONFIG, ProcessorConfig
from repro.isa.kernel import KernelGraph
from repro.isa.ops import Opcode
from repro.kernels import KERNELS, PERFORMANCE_SUITE, get_kernel


class TestCompilation:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_all_kernels_compile_at_baseline(self, name):
        schedule = compile_kernel(get_kernel(name), BASELINE_CONFIG)
        assert schedule.ii >= 1
        assert schedule.length >= schedule.ii
        assert schedule.max_live <= schedule.register_capacity
        assert schedule.ii >= schedule.resource_mii

    @pytest.mark.parametrize(
        "config", [(8, 2), (8, 10), (8, 14), (64, 5), (128, 10)]
    )
    def test_suite_compiles_across_configs(self, config):
        for name in PERFORMANCE_SUITE:
            schedule = compile_kernel(
                get_kernel(name), ProcessorConfig(*config)
            )
            assert schedule.max_live <= schedule.register_capacity

    def test_blocksad_baseline_ii(self):
        """59 ALU ops on 5 ALUs: the scheduler achieves the bound of 12."""
        schedule = compile_kernel(get_kernel("blocksad"), BASELINE_CONFIG)
        assert schedule.ii_per_iteration == pytest.approx(12.0)

    def test_rates(self):
        schedule = compile_kernel(get_kernel("blocksad"), BASELINE_CONFIG)
        per_cluster = schedule.ops_per_cycle_per_cluster
        assert per_cluster == pytest.approx(59 / 12)
        assert schedule.ops_per_cycle() == pytest.approx(8 * 59 / 12)

    def test_efficiency_bounded(self):
        for name in PERFORMANCE_SUITE:
            schedule = compile_kernel(get_kernel(name), BASELINE_CONFIG)
            assert 0.3 < schedule.efficiency <= 1.0


class TestInnerLoopCycles:
    def test_zero_iterations_cost_nothing(self):
        schedule = compile_kernel(get_kernel("fft"), BASELINE_CONFIG)
        assert schedule.inner_loop_cycles(0) == 0

    def test_single_iteration_pays_full_length(self):
        """Short streams pay the whole pipeline fill/drain (section 5.3)."""
        schedule = compile_kernel(get_kernel("fft"), BASELINE_CONFIG)
        assert schedule.inner_loop_cycles(1) == schedule.length

    def test_steady_state_slope_is_ii(self):
        schedule = compile_kernel(get_kernel("fft"), BASELINE_CONFIG)
        u = schedule.unroll_factor
        many = schedule.inner_loop_cycles(100 * u)
        more = schedule.inner_loop_cycles(101 * u)
        assert more - many == schedule.ii

    def test_monotone(self):
        schedule = compile_kernel(get_kernel("convolve"), BASELINE_CONFIG)
        cycles = [schedule.inner_loop_cycles(i) for i in range(1, 50)]
        assert cycles == sorted(cycles)


class TestCache:
    def test_cache_returns_same_object(self):
        a = compile_kernel(get_kernel("noise"), BASELINE_CONFIG)
        b = compile_kernel(get_kernel("noise"), BASELINE_CONFIG)
        assert a is b

    def test_different_configs_not_conflated(self):
        a = compile_kernel(get_kernel("noise"), ProcessorConfig(8, 5))
        b = compile_kernel(get_kernel("noise"), ProcessorConfig(8, 10))
        assert a is not b
        assert a.ii != b.ii or a.unroll_factor != b.unroll_factor

    def test_clear_cache(self):
        a = compile_kernel(get_kernel("noise"), BASELINE_CONFIG)
        clear_cache()
        assert memo_size() == 0
        b = compile_kernel(get_kernel("noise"), BASELINE_CONFIG)
        assert a is not b
        assert a.ii == b.ii  # deterministic recompilation

    def test_alu_mix_not_aliased(self):
        kernel = get_kernel("fft")
        plain = compile_kernel(kernel, BASELINE_CONFIG)
        mixed = compile_kernel(
            kernel, BASELINE_CONFIG, alu_mix=IMAGINE_ALU_MIX
        )
        assert mixed is not plain
        assert compile_kernel(kernel, BASELINE_CONFIG) is plain
        # An equal mix given as a fresh dict is the same compile.
        again = compile_kernel(
            kernel, BASELINE_CONFIG, alu_mix=dict(IMAGINE_ALU_MIX)
        )
        assert again is mixed

    def test_explicit_unroll_factor_not_aliased(self):
        kernel = get_kernel("noise")
        config = ProcessorConfig(8, 10)
        clear_cache()
        forced = compile_kernel(kernel, config, unroll_factor=1)
        chosen = compile_kernel(kernel, config)
        assert forced.unroll_factor == 1
        assert chosen.unroll_factor == 2
        assert compile_kernel(kernel, config, unroll_factor=1) is forced


class TestWarmPath:
    """On a warm memo a simulation pays only for the timing recurrence."""

    def test_warm_simulation_derives_nothing(self, monkeypatch):
        from repro.sim.processor import simulate

        program = get_application("conv")
        config = ProcessorConfig(16, 10)
        cold = simulate(program, config)  # fills memo and op counts

        calls = {"build_machine": 0, "counts_by_class": 0}
        compiled = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (machine, pipeline):
            monkeypatch.setattr(
                module, "build_machine",
                counting("build_machine", build_machine),
            )
        monkeypatch.setattr(
            KernelGraph, "counts_by_class",
            counting("counts_by_class", KernelGraph.counts_by_class),
        )

        def spy(kernel, *args, **kwargs):
            compiled.append(id(kernel))
            return compile_kernel(kernel, *args, **kwargs)

        monkeypatch.setattr(pipeline, "compile_kernel", spy)
        warm = simulate(program, config)

        assert calls == {"build_machine": 0, "counts_by_class": 0}
        kernels = {id(call.kernel) for call in program.kernel_calls()}
        assert set(compiled) <= kernels
        assert len(compiled) == len(set(compiled))
        assert warm == cold


class TestUnrollBackoff:
    def test_register_bound_kernel_backs_off(self):
        """A kernel too wide for aggressive unrolling still compiles."""
        g = KernelGraph("wide")
        reads = [g.read("in") for _ in range(4)]
        live = []
        for i in range(60):
            live.append(g.op(Opcode.FMUL, reads[i % 4], reads[(i + 1) % 4]))
        total = g.reduce(Opcode.FADD, live)
        g.write(total)
        schedule = compile_kernel(g, ProcessorConfig(8, 14), verify=True)
        assert schedule.max_live <= schedule.register_capacity
