"""Tests for the memoized sweep engine and its perf.py integration."""

import dataclasses

import pytest

from repro.analysis.perf import (
    BASELINE,
    application_harmonic_speedup,
    figure15_application_performance,
    kernel_rate,
)
from repro.analysis.sweep import SweepEngine, clear_sweep_cache, default_engine
from repro.apps.suite import APPLICATION_ORDER, get_application
from repro.compiler.cache import default_cache
from repro.compiler.pipeline import compile_kernel
from repro.core.config import ProcessorConfig
from repro.kernels.suite import get_kernel
from repro.obs.metrics import MetricsRegistry
from repro.sim.processor import simulate

SMALL_APPS = ("fft1k", "depth")
SMALL_CONFIGS = (ProcessorConfig(8, 5), ProcessorConfig(16, 5))


class TestMemoization:
    def test_simulation_cached(self):
        engine = SweepEngine()
        first = engine.simulate_application("fft1k", ProcessorConfig(8, 5))
        second = engine.simulate_application("fft1k", ProcessorConfig(8, 5))
        assert second is first  # served from cache, not recomputed
        stats = engine.stats()
        assert stats["sim_misses"] == 1
        assert stats["sim_hits"] == 1
        assert stats["sim_cached"] == 1

    def test_distinct_keys_not_conflated(self):
        engine = SweepEngine()
        base = engine.simulate_application("fft1k", ProcessorConfig(8, 5))
        other_config = engine.simulate_application(
            "fft1k", ProcessorConfig(16, 5)
        )
        other_clock = engine.simulate_application(
            "fft1k", ProcessorConfig(8, 5), clock_ghz=2.0
        )
        assert other_config.cycles != base.cycles
        assert other_clock.clock_ghz != base.clock_ghz
        assert engine.stats()["sim_misses"] == 3

    def test_cached_result_matches_direct_simulate(self):
        """Every total of a direct run; no per-op timeline."""
        engine = SweepEngine()
        config = ProcessorConfig(8, 5)
        via_engine = engine.simulate_application("fft1k", config)
        direct = simulate(get_application("fft1k"), config)
        assert via_engine.records == ()
        assert via_engine == dataclasses.replace(direct, records=())

    def test_kernel_rate_cached(self):
        engine = SweepEngine()
        config = ProcessorConfig(8, 5)
        rate = engine.kernel_rate("convolve", config)
        again = engine.kernel_rate("convolve", config)
        assert again == rate
        expected = compile_kernel(
            get_kernel("convolve"), config
        ).ops_per_cycle()
        assert rate == expected
        stats = engine.stats()
        assert stats["rate_misses"] == 1
        assert stats["rate_hits"] == 1

    def test_clear_drops_results_keeps_stats(self):
        engine = SweepEngine()
        engine.simulate_application("fft1k", ProcessorConfig(8, 5))
        engine.clear()
        assert engine.stats()["sim_cached"] == 0
        engine.simulate_application("fft1k", ProcessorConfig(8, 5))
        assert engine.stats()["sim_misses"] == 2


class TestSimulateMany:
    def grid(self):
        return [
            (app, config) for app in SMALL_APPS for config in SMALL_CONFIGS
        ]

    def test_results_in_input_order(self):
        engine = SweepEngine()
        points = self.grid()
        results = engine.simulate_many(points)
        for (app, config), result in zip(points, results):
            assert result.program == get_application(app).name
            assert result.config == config

    def test_duplicates_simulated_once(self):
        engine = SweepEngine()
        points = self.grid() + self.grid()
        results = engine.simulate_many(points)
        assert len(results) == len(points)
        assert engine.stats()["sim_misses"] == len(self.grid())


class TestPerfIntegration:
    def test_figure15_matches_direct_simulation(self):
        """Grid values and ordering are byte-identical to naive nested
        simulate() calls."""
        engine = SweepEngine()
        points = figure15_application_performance(
            c_values=(8, 16),
            n_values=(5,),
            applications=SMALL_APPS,
            engine=engine,
        )
        baseline_config = ProcessorConfig(*BASELINE)
        expected = []
        for app in SMALL_APPS:
            baseline = simulate(get_application(app), baseline_config)
            for c in (8, 16):
                config = ProcessorConfig(c, 5)
                result = simulate(get_application(app), config)
                expected.append(
                    (app, config, result.speedup_over(baseline), result.gops)
                )
        got = [
            (p.application, p.config, p.speedup, p.gops) for p in points
        ]
        assert got == expected

    def test_figure15_warm_repeat_is_all_hits(self):
        engine = SweepEngine()
        first = figure15_application_performance(
            c_values=(8, 16),
            n_values=(5,),
            applications=SMALL_APPS,
            engine=engine,
        )
        misses = engine.stats()["sim_misses"]
        second = figure15_application_performance(
            c_values=(8, 16),
            n_values=(5,),
            applications=SMALL_APPS,
            engine=engine,
        )
        assert second == first
        assert engine.stats()["sim_misses"] == misses  # no new work

    def test_harmonic_speedup_shares_baselines(self):
        """Repeated harmonic-speedup calls re-simulate only the new
        configuration, never the baselines."""
        engine = SweepEngine()
        application_harmonic_speedup(ProcessorConfig(16, 5), engine=engine)
        misses = engine.stats()["sim_misses"]
        assert misses == 2 * len(APPLICATION_ORDER)
        application_harmonic_speedup(ProcessorConfig(32, 5), engine=engine)
        assert (
            engine.stats()["sim_misses"] == misses + len(APPLICATION_ORDER)
        )

    def test_default_engine_backs_module_functions(self):
        clear_sweep_cache()
        engine = default_engine()
        before = engine.stats()["rate_misses"]
        config = ProcessorConfig(8, 5)
        kernel_rate("convolve", config)
        kernel_rate("convolve", config)
        after = engine.stats()
        assert after["rate_misses"] == before + 1
        assert after["rate_hits"] >= 1


class TestExecutionModes:
    """``mode`` is a deprecated keyword of :meth:`simulate_many` with no
    effect: a point has one memo entry, whichever of the accepted
    values a request names."""

    def test_modes_share_one_memo_entry(self):
        engine = SweepEngine()
        point = [("fft1k", ProcessorConfig(8, 5))]
        (simulated,) = engine.simulate_many(point, mode="simulated")
        (analytical,) = engine.simulate_many(point, mode="analytical")
        assert analytical is simulated
        assert engine.stats()["sim_misses"] == 1

    def test_unknown_mode_rejected(self):
        engine = SweepEngine()
        with pytest.raises(ValueError) as excinfo:
            engine.simulate_many(
                [("fft1k", ProcessorConfig(8, 5))], mode="oracular"
            )
        message = str(excinfo.value)
        assert "simulated" in message and "analytical" in message

    def test_simulate_many_analytical_matches_simulated(self):
        points = [
            (app, config)
            for app in SMALL_APPS
            for config in SMALL_CONFIGS
        ]
        simulated = SweepEngine().simulate_many(points)
        analytical = SweepEngine().simulate_many(points, mode="analytical")
        assert analytical == simulated


class TestInstrumentation:
    """An engine's counters are its ``stats()``; no metrics registry
    mirrors them."""

    def test_stats_count_hits_and_misses(self):
        engine = SweepEngine()
        config = ProcessorConfig(8, 5)
        engine.simulate_application("fft1k", config)
        engine.simulate_application("fft1k", config)
        engine.kernel_rate("convolve", config)
        assert engine.stats() == {
            "sim_hits": 1, "sim_misses": 1,
            "rate_hits": 0, "rate_misses": 1,
            "sim_cached": 1, "rate_cached": 1,
        }

    def test_engine_takes_no_metrics_registry(self):
        """Building an engine never touches the process-wide schedule
        cache, which has no registry to re-point."""
        with pytest.raises(TypeError):
            SweepEngine(metrics=MetricsRegistry())
        assert not hasattr(SweepEngine(), "metrics")
        assert not hasattr(default_cache(), "attach_metrics")


C8N5, C16N5, C8N10 = (
    ProcessorConfig(8, 5), ProcessorConfig(16, 5), ProcessorConfig(8, 10)
)


def reference_compile_kernels(engine, points, cold):
    """A grid compiled point by point: each cold point through
    ``kernel_rate``, then every point read back through it."""
    for kernel, config in cold:
        engine.kernel_rate(kernel, config)
    return [engine.kernel_rate(*point) for point in points]


def reference_simulate_many(engine, points, cold):
    """A grid simulated point by point: each cold point through
    ``simulate_application``, then every point read back through it."""
    for application, config in cold:
        engine.simulate_application(application, config)
    return [engine.simulate_application(*point) for point in points]


class TestOnePass:
    """``compile_kernels`` and ``simulate_many`` read each point from the
    memo once, and return and count what a point-by-point loop over the
    same grid does."""

    RATE_WARM = [("convolve", C8N5), ("fft", C16N5)]
    RATE_POINTS = [
        ("convolve", C8N5), ("fft", C8N5),
        ("convolve", ProcessorConfig(8, 5)),
        ("fft", C16N5), ("fft", C8N5), ("update", C8N10),
    ]
    RATE_COLD = [("fft", C8N5), ("update", C8N10)]

    SIM_WARM = [("fft1k", C8N5), ("fft1k", C8N5)]
    SIM_POINTS = [
        ("fft1k", C8N5), ("depth", C8N5), ("fft1k", C16N5),
        ("depth", ProcessorConfig(8, 5)), ("fft1k", C8N5), ("fft1k", C16N5),
    ]
    SIM_COLD = [("depth", C8N5), ("fft1k", C16N5)]

    def engines(self, warm, lookup):
        """Two engines in the same state."""
        engine = SweepEngine()
        reference = SweepEngine()
        for each in (engine, reference):
            for point in warm:
                getattr(each, lookup)(*point)
        return engine, reference

    def test_compile_kernels_matches_a_per_point_loop(self):
        engine, reference = self.engines(self.RATE_WARM, "kernel_rate")
        rates = engine.compile_kernels(self.RATE_POINTS)
        expected = reference_compile_kernels(
            reference, self.RATE_POINTS, self.RATE_COLD
        )
        assert rates == expected
        assert engine.stats() == reference.stats()

    def test_simulate_many_matches_a_per_point_loop(self):
        engine, reference = self.engines(
            self.SIM_WARM, "simulate_application"
        )
        results = engine.simulate_many(self.SIM_POINTS)
        expected = reference_simulate_many(
            reference, self.SIM_POINTS, self.SIM_COLD
        )
        assert results == expected
        assert engine.stats() == reference.stats()

    def test_a_warm_grid_counts_one_hit_per_point(self):
        engine = SweepEngine()
        engine.compile_kernels(self.RATE_POINTS)
        engine.simulate_many(self.SIM_POINTS)
        before = engine.stats()
        engine.compile_kernels(self.RATE_POINTS)
        engine.simulate_many(self.SIM_POINTS)
        after = engine.stats()
        rate_hits = after["rate_hits"] - before["rate_hits"]
        sim_hits = after["sim_hits"] - before["sim_hits"]
        assert rate_hits == len(self.RATE_POINTS)
        assert sim_hits == len(self.SIM_POINTS)
        assert after["rate_misses"] == before["rate_misses"]
        assert after["sim_misses"] == before["sim_misses"]

    def test_failed_cold_point_raises_and_is_counted(self):
        """A point that cannot be evaluated propagates, as it did from
        the per-point fill; its miss is counted and no hit is."""
        from repro.sim.srf import CapacityError

        engine = SweepEngine()
        with pytest.raises(CapacityError):
            engine.simulate_many(
                [("fft1k", C8N5), ("qrd", ProcessorConfig(8, 2))]
            )
        stats = engine.stats()
        assert stats["sim_misses"] == 2 and stats["sim_hits"] == 0
        assert stats["sim_cached"] == 1
