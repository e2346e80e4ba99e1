"""Tests for the closed-form analytical model (repro.analysis.model).

The model's contract is *exactness*: on the covered fleet it must
reproduce the cycle-accurate simulator's totals field for field — not
approximately, identically.  These tests pin that contract on every
regime the simulator exercises: fast-path programs (SRF never
pressured), heavy spill/reload traffic, microcode-store overflow, and
the kernel-level closed form at short and long stream lengths.
"""

import dataclasses

import pytest

from repro.analysis.model import (
    build_summary,
    clear_summary_cache,
    predict_application,
    predict_kernel_call_cycles,
    predict_program,
    program_summary,
)
from repro.analysis.perf import TABLE5_C_VALUES, TABLE5_N_VALUES
from repro.apps.suite import APPLICATION_ORDER, get_application
from repro.compiler.pipeline import compile_kernel
from repro.core.config import ProcessorConfig
from repro.core.params import IMAGINE_PARAMETERS
from repro.kernels.suite import PERFORMANCE_SUITE, get_kernel
from repro.sim.cluster import ClusterArray
from repro.sim.processor import simulate


def assert_exact(result, expected) -> None:
    """Every total the simulator reports, matched field for field."""
    assert result.cycles == expected.cycles
    assert result.useful_alu_ops == expected.useful_alu_ops
    assert result.spill_words == expected.spill_words
    assert result.reload_words == expected.reload_words
    assert result.memory_busy_cycles == expected.memory_busy_cycles
    assert result.cluster_busy_cycles == expected.cluster_busy_cycles
    assert result.ucode_reloads == expected.ucode_reloads
    assert result.bandwidth == expected.bandwidth


class TestApplicationExactness:
    @pytest.mark.parametrize("application", APPLICATION_ORDER)
    def test_baseline_exact(self, application):
        config = ProcessorConfig(8, 5)
        assert_exact(
            predict_application(application, config),
            simulate(get_application(application), config),
        )

    @pytest.mark.parametrize(
        "application,clusters,alus",
        [
            # qrd and fft4k at C=8 N=5 overflow the SRF and spill
            # megabytes — the LRU replay must match exactly.
            ("qrd", 8, 5),
            ("fft4k", 8, 5),
            # Large machines: fast path (SRF never pressured).
            ("depth", 128, 14),
            ("render", 64, 10),
        ],
    )
    def test_regimes_exact(self, application, clusters, alus):
        config = ProcessorConfig(clusters, alus)
        expected = simulate(get_application(application), config)
        assert_exact(predict_application(application, config), expected)

    def test_spill_regime_actually_spills(self):
        """Guard the parametrization above: qrd at the baseline must
        exercise the spill path, or the 'heavy spill' case is vacuous."""
        result = predict_application("qrd", ProcessorConfig(8, 5))
        assert result.spill_words > 0
        assert result.reload_words > 0

    def test_ucode_overflow_exact(self):
        """Shrink the microcode store until kernels evict each other:
        the model's reload accounting must still match the simulator."""
        for r_uc in (40.0, 100.0):
            params = dataclasses.replace(IMAGINE_PARAMETERS, r_uc=r_uc)
            config = ProcessorConfig(8, 5, params=params)
            expected = simulate(get_application("render"), config)
            assert expected.ucode_reloads > 1  # eviction really happened
            assert_exact(predict_application("render", config), expected)

    def test_clock_scaling(self):
        config = ProcessorConfig(8, 5)
        fast = predict_application("fft1k", config, clock_ghz=2.0)
        expected = simulate(
            get_application("fft1k"), config, clock_ghz=2.0
        )
        assert fast.clock_ghz == 2.0
        assert_exact(fast, expected)

    def test_predict_program_matches_predict_application(self):
        config = ProcessorConfig(16, 5)
        via_name = predict_application("depth", config)
        via_program = predict_program(get_application("depth"), config)
        assert via_program == via_name

    def test_unused_preloaded_stream_evicts_without_writeback(self):
        """A preloaded input no op reads is dirty but never needed:
        evicting it counts as spill words and moves nothing."""
        from repro.apps.streamc import StreamProgram

        program = StreamProgram("unused-preload")
        program.input_in_srf("idle", elements=20_000)
        loads = [
            program.stream(name, elements=20_000, in_memory=True)
            for name in ("a", "b")
        ]
        for stream in loads:
            program.load(stream)
        for index, stream in enumerate(loads):
            out = program.stream(f"o{index}", elements=100)
            program.kernel(get_kernel("noise"), [stream], [out], 100)
        config = ProcessorConfig(8, 5)  # 44,000-word SRF
        expected = simulate(program, config)
        assert expected.spill_words == 20_000
        assert expected.bandwidth.memory_words == 40_000  # loads only
        assert_exact(predict_program(program, config), expected)


class TestKernelClosedForm:
    @pytest.mark.parametrize("kernel", PERFORMANCE_SUITE)
    @pytest.mark.parametrize("work_items", [64, 1024, 8192])
    def test_call_cycles_exact(self, kernel, work_items):
        """One cold call on a fresh cluster array, microcode load
        included, on every Table-5 configuration: a short stream (fewer
        items than the biggest machine's clusters), the paper's 1K
        working size and a long steady-state run."""
        for clusters in TABLE5_C_VALUES:
            for alus in TABLE5_N_VALUES:
                config = ProcessorConfig(clusters, alus)
                schedule = compile_kernel(get_kernel(kernel), config)
                run = ClusterArray(config).run(schedule, work_items, 0)
                assert predict_kernel_call_cycles(
                    schedule, work_items, ucode_reload=True
                ) == run.cycles, (clusters, alus)

    def test_warm_call_skips_reload(self):
        """Second invocation of a resident kernel: no microcode reload
        on either side."""
        config = ProcessorConfig(8, 5)
        schedule = compile_kernel(get_kernel("fft"), config)
        array = ClusterArray(config)
        array.run(schedule, 1024, 0)
        warm = array.run(schedule, 1024, 0)
        assert warm.ucode_reload_cycles == 0
        assert predict_kernel_call_cycles(schedule, 1024) == warm.cycles


class TestSummaryCaching:
    def test_summary_cached_per_application(self):
        clear_summary_cache()
        first = program_summary("fft1k")
        assert program_summary("fft1k") is first

    def test_clear_drops_cache(self):
        first = program_summary("fft1k")
        clear_summary_cache()
        assert program_summary("fft1k") is not first

    def test_ad_hoc_program_never_reads_suite_tables(self):
        """A program that merely shares a suite application's name is
        encoded afresh and never served that application's tables."""
        from repro.apps.streamc import StreamProgram

        def one_kernel(name):
            program = StreamProgram(name)
            raw = program.stream("raw", elements=800, in_memory=True)
            out = program.stream("out", elements=800)
            program.load(raw)
            program.kernel(get_kernel("noise"), [raw], [out], 800)
            program.store(out)
            return program

        config = ProcessorConfig(8, 5)
        suite = simulate(program_summary("fft1k"), config)  # cached
        impostor = simulate(one_kernel("fft1k"), config)
        assert impostor.cycles != suite.cycles
        renamed = simulate(one_kernel("other"), config)
        assert impostor.records == renamed.records

    def test_build_summary_counts_static_work(self):
        summary = build_summary(get_application("fft1k"))
        result = simulate(get_application("fft1k"), ProcessorConfig(8, 5))
        assert summary.total_alu_ops == result.useful_alu_ops
        assert summary.lrf_words == result.bandwidth.lrf_words
