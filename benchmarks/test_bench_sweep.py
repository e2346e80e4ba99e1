"""Full-grid throughput: a simulated run vs a sweep's evaluation.

Both entry points evaluate one timing recurrence (:mod:`repro.sim.engine`).
A sweep (:meth:`~repro.analysis.sweep.SweepEngine.simulate_many`) evaluates
each point without a per-operation timeline; a direct
:func:`~repro.sim.processor.simulate` run also keeps its timeline, the
start and finish lists behind a lazy :class:`~repro.sim.metrics.Timeline`
whose ``OpRecord`` s are built only when read.  The gate bounds the cost
of that timeline from above: a full figure-13/15-style application grid —
every suite application on the Table-5 cluster counts and Figure-15 ALU
counts — may take at most 2x as long through ``simulate`` as through a
sweep (1.5x on quiet machines), and the two must agree cycle for cycle.
Each side is timed as the fastest of five passes: 0.80x to 0.94x over
eight runs of this file and 0.76x in one run of the whole suite, on a
2-core VM, where a sweep's memo bookkeeping costs about what the
timeline does.  While ``simulate`` still built its records eagerly, the
same comparison read 4.4x to 5.9x and failed.
``tests/test_sim_timeline.py`` guards the same property by count rather
than by time: a warm simulated run builds no ``OpRecord`` until its
timeline is read.

Both sides run with warm compile caches (the grid pays kernel compilation
once, ever), and each sweep pass runs on a fresh engine, so the ratio
compares evaluation cost only.  The envelope keeps the field names of
earlier trajectory points: ``simulated`` is the ``simulate`` side and
``analytical`` the sweep side.  Set ``REPRO_BENCH_SWEEP_OUT=PATH`` to
append the measured trajectory point as one compact envelope line — the
same format CI publishes as ``BENCH_sweep.json``, mirroring
``BENCH_serve.json``.
"""

from __future__ import annotations

import json
import os
import time

from conftest import perf_floor, run_once

from repro.analysis.model import clear_summary_cache, program_summary
from repro.analysis.perf import FIG15_N_VALUES, TABLE5_C_VALUES
from repro.analysis.sweep import SweepEngine
from repro.apps.suite import APPLICATION_ORDER
from repro.core.config import ProcessorConfig
from repro.obs.manifest import build_envelope
from repro.sim.processor import simulate

#: The grid both entry points answer: 6 applications x 5 cluster counts
#: x 3 ALU counts = 90 points (the union of the Figure-15 sweep and
#: Table 5's cluster axis).
GRID = [
    (application, ProcessorConfig(c, n))
    for application in APPLICATION_ORDER
    for c in TABLE5_C_VALUES
    for n in FIG15_N_VALUES
]


#: Passes per side; each side is timed by its fastest.
PASSES = 5


def _simulate_seconds() -> tuple:
    """Run every grid point through ``simulate``; (seconds, results)."""
    started = time.perf_counter()
    results = [
        simulate(program_summary(application), config)
        for application, config in GRID
    ]
    return time.perf_counter() - started, results


def _sweep_seconds() -> tuple:
    """Answer the full grid on a fresh engine; (seconds, results)."""
    engine = SweepEngine()
    started = time.perf_counter()
    results = engine.simulate_many(GRID)
    return time.perf_counter() - started, results


def _fastest_passes() -> tuple:
    """Alternate the two sides for :data:`PASSES` rounds; each side's
    fastest pass as (simulated_s, simulated, analytical_s, analytical)."""
    simulated_s = analytical_s = float("inf")
    for _ in range(PASSES):
        seconds, simulated = _simulate_seconds()
        simulated_s = min(simulated_s, seconds)
        seconds, analytical = _sweep_seconds()
        analytical_s = min(analytical_s, seconds)
    return simulated_s, simulated, analytical_s, analytical


def test_sweep_analytical_vs_simulated(benchmark, archive):
    """Simulating the full grid takes at most 2x a sweep's time (1.5x
    on quiet machines) and agrees with it point-by-point."""
    # Warm the persistent compile caches and the engine's encoding /
    # point-table caches so every timed pass measures steady state.
    clear_summary_cache()
    _sweep_seconds()
    simulated_s, simulated, analytical_s, analytical = run_once(
        benchmark, _fastest_passes
    )

    for (application, config), sim, model in zip(
        GRID, simulated, analytical
    ):
        assert model.cycles == sim.cycles, (
            f"{application} C={config.clusters} N={config.alus_per_cluster}: "
            f"sweep {model.cycles} vs simulate {sim.cycles} cycles"
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
        f"x N{list(FIG15_N_VALUES)})",
        f"  simulate:    {simulated_s * 1e3:10.1f} ms "
        f"({points / simulated_s:10.1f} points/s)\n"
        f"  sweep:       {analytical_s * 1e3:10.1f} ms "
        f"({points / analytical_s:10.1f} points/s)\n"
        f"  ratio:       {speedup:10.1f}x"
    )

    out = os.environ.get("REPRO_BENCH_SWEEP_OUT", "").strip()
    if out:
        envelope = build_envelope("bench-sweep", data=data)
        with open(out, "a") as handle:
            handle.write(json.dumps(
                envelope, sort_keys=True, separators=(",", ":")
            ) + "\n")

    assert speedup <= perf_floor(strict=1.5, relaxed=2.0), (
        f"simulate {speedup:.1f}x slower than a sweep over the grid"
    )
