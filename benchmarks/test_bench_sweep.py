"""Full-grid sweep throughput: analytical fast path vs the simulator.

The analytical backend's reason to exist: a full figure-13/15-style
application grid — every suite application on the Table-5 cluster
counts and Figure-15 ALU counts — must come back at least 20x faster
(40x on quiet machines) through the closed-form model than through the
cycle-accurate simulator, while agreeing with it cycle for cycle
(``repro validate-model`` holds the recorded error at its bound).
The floors sit below the measured ratio (42x to 74x over six runs on a
2-core VM; see ``docs/performance.md``) so that they catch an evaluator
that slows, not scheduler jitter; ``tests/test_pipeline.py::TestWarmPath``
guards the simulator's per-call work by count rather than by time.

Both backends run on fresh engines with warm compile caches (the grid
pays kernel compilation once, ever), so the ratio compares evaluation
cost only.  Set ``REPRO_BENCH_SWEEP_OUT=PATH`` to append the measured
trajectory point as one compact envelope line — the same format CI
publishes as ``BENCH_sweep.json``, mirroring ``BENCH_serve.json``.
"""

from __future__ import annotations

import json
import os
import time

from conftest import perf_floor, run_once

from repro.analysis.model import clear_summary_cache
from repro.analysis.perf import FIG15_N_VALUES, TABLE5_C_VALUES
from repro.analysis.sweep import SweepEngine
from repro.apps.suite import APPLICATION_ORDER
from repro.core.config import ProcessorConfig
from repro.obs.manifest import build_envelope

#: The grid both backends answer: 6 applications x 5 cluster counts
#: x 3 ALU counts = 90 points (the union of the Figure-15 sweep and
#: Table 5's cluster axis).
GRID = [
    (application, ProcessorConfig(c, n))
    for application in APPLICATION_ORDER
    for c in TABLE5_C_VALUES
    for n in FIG15_N_VALUES
]


def _sweep_seconds(mode: str) -> tuple:
    """Answer the full grid on a fresh engine; (seconds, results)."""
    engine = SweepEngine()
    started = time.perf_counter()
    results = engine.simulate_many(GRID, mode=mode)
    return time.perf_counter() - started, results


def test_sweep_analytical_vs_simulated(benchmark, archive):
    """Analytical full-grid sweeps must be >=20x faster than the
    simulator (>=40x on quiet machines) and agree point-by-point."""
    # Warm the persistent compile caches and the model's summary /
    # service-table caches so both timed passes measure steady state.
    clear_summary_cache()
    _sweep_seconds("analytical")
    simulated_s, simulated = _sweep_seconds("simulated")
    analytical_s, analytical = run_once(benchmark, _sweep_seconds,
                                        "analytical")

    for (application, config), sim, model in zip(
        GRID, simulated, analytical
    ):
        assert model.cycles == sim.cycles, (
            f"{application} C={config.clusters} N={config.alus_per_cluster}: "
            f"model {model.cycles} vs simulator {sim.cycles} cycles"
        )

    points = len(GRID)
    speedup = simulated_s / analytical_s
    data = {
        "bench_version": 1,
        "grid_points": points,
        "simulated_s": round(simulated_s, 6),
        "analytical_s": round(analytical_s, 6),
        "simulated_points_per_s": round(points / simulated_s, 3),
        "analytical_points_per_s": round(points / analytical_s, 3),
        "speedup": round(speedup, 3),
    }
    archive(
        f"Full-grid sweep ({points} application points: "
        f"{len(APPLICATION_ORDER)} apps x C{list(TABLE5_C_VALUES)} "
        f"x N{list(FIG15_N_VALUES)})\n"
        f"  simulated:   {simulated_s * 1e3:10.1f} ms "
        f"({points / simulated_s:10.1f} points/s)\n"
        f"  analytical:  {analytical_s * 1e3:10.1f} ms "
        f"({points / analytical_s:10.1f} points/s)\n"
        f"  speedup:     {speedup:10.1f}x"
    )

    out = os.environ.get("REPRO_BENCH_SWEEP_OUT", "").strip()
    if out:
        envelope = build_envelope("bench-sweep", data=data)
        with open(out, "a") as handle:
            handle.write(json.dumps(
                envelope, sort_keys=True, separators=(",", ":")
            ) + "\n")

    assert speedup >= perf_floor(strict=40.0, relaxed=20.0), (
        f"analytical sweep only {speedup:.1f}x faster than the simulator"
    )
