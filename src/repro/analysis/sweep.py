"""Memoized sweep engine for design-space studies.

Every performance regeneration walks the same ``(application, config)``
and ``(kernel, config)`` grids: Figures 13/14 compile the six suite
kernels across configurations, Table 5 compiles them again, Figure 15
simulates the six applications over a ``C x N`` grid, the harmonic-mean
speedups re-simulate the C=8/N=5 baseline, and ``validate`` runs all of
the above.  The engine gives those studies one shared, keyed memo cache
(simulation results and kernel rates), so each distinct point is paid
for exactly once per process.  Every cold point runs in the calling
process: a whole cold ``repro report`` takes under a second on one
core, so a process pool would have almost nothing to split and would
still pay to start and feed its workers.

The engine counts its memo hits and misses (:meth:`SweepEngine.stats`,
which ``/v1/stats`` and ``repro report`` show) — the raw material for
the "profile a slow sweep" recipe in ``docs/performance.md``.  A sweep
is one synchronous call (``POST /v1/sweeps`` in the daemon): its caller
holds the whole answer when it returns.

Every application point is evaluated by
:func:`repro.analysis.model.predict_application`: the simulator's
timing recurrence without its per-operation timeline, which no sweep
reads.  A point therefore has one memo key, whichever deprecated
``mode`` a request named.

The module-level :func:`default_engine` is what the public functions in
:mod:`repro.analysis.perf` share; library users embedding sweeps can
instantiate private engines with their own memo and counters.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Sequence, Tuple

from ..api import SWEEP_MODES
from ..compiler.pipeline import compile_batch, compile_kernel
from ..core.config import ProcessorConfig
from ..core.params import TECH_45NM, TechnologyNode
from ..kernels.suite import get_kernel
from ..sim.metrics import SimulationResult
from .model import predict_application

__all__ = [
    "SweepEngine",
    "SweepPoint",
    "clear_sweep_cache",
    "default_engine",
]

#: One application-simulation grid point: ``(application, config)``.
SweepPoint = Tuple[str, ProcessorConfig]

_SimKey = Tuple[str, ProcessorConfig, TechnologyNode, float]
_RateKey = Tuple[str, ProcessorConfig]


class SweepEngine:
    """Shared memo cache for application points and ``compile_kernel``.

    :meth:`stats` counts memo hits and misses for both grids.
    """

    def __init__(self) -> None:
        #: Reentrant guard for threaded embedders, ``running_server``
        #: among them (its loop thread shares the engine with the
        #: calling thread); the daemon itself calls the engine from one
        #: thread.  Holding the lock across a cold point also means
        #: concurrent identical queries compute once, not twice.
        self._lock = threading.RLock()
        self._sim_cache: Dict[_SimKey, SimulationResult] = {}
        self._rate_cache: Dict[_RateKey, float] = {}
        self.sim_hits = 0
        self.sim_misses = 0
        self.rate_hits = 0
        self.rate_misses = 0

    # --- bookkeeping ---------------------------------------------------

    def clear(self) -> None:
        """Drop every cached result (hit/miss statistics survive)."""
        with self._lock:
            self._sim_cache.clear()
            self._rate_cache.clear()

    def stats(self) -> Dict[str, int]:
        """Cache effectiveness counters, for reports and tests."""
        return {
            "sim_hits": self.sim_hits,
            "sim_misses": self.sim_misses,
            "rate_hits": self.rate_hits,
            "rate_misses": self.rate_misses,
            "sim_cached": len(self._sim_cache),
            "rate_cached": len(self._rate_cache),
        }

    def _count(self, name: str, hit: bool, amount: int = 1) -> None:
        if name == "sim":
            if hit:
                self.sim_hits += amount
            else:
                self.sim_misses += amount
        else:
            if hit:
                self.rate_hits += amount
            else:
                self.rate_misses += amount

    # --- memoized primitives -------------------------------------------

    def simulate_application(
        self,
        application: str,
        config: ProcessorConfig,
        node: TechnologyNode = TECH_45NM,
        clock_ghz: float = 1.0,
    ) -> SimulationResult:
        """``predict_application(application, config)``, memoized.

        The result carries every total ``simulate`` reports, and no
        per-op timeline (``records`` is empty).
        """
        key = (application, config, node, clock_ghz)
        with self._lock:
            cached = self._sim_cache.get(key)
            if cached is not None:
                self._count("sim", hit=True)
                return cached
            return self._simulate_cold(key)

    def _simulate_cold(self, key: _SimKey) -> SimulationResult:
        """One memo miss: count it, evaluate it and keep it (the caller
        holds the lock)."""
        self._count("sim", hit=False)
        result = predict_application(*key)
        self._sim_cache[key] = result
        return result

    def kernel_rate(self, kernel: str, config: ProcessorConfig) -> float:
        """Sustained whole-chip ops/cycle of a suite kernel, memoized.

        Sits above the compiler's own schedule cache: a hit skips the
        machine-description build and cache-key construction too.
        """
        key = (kernel, config)
        with self._lock:
            cached = self._rate_cache.get(key)
            if cached is not None:
                self._count("rate", hit=True)
                return cached
            self._count("rate", hit=False)
            rate = compile_kernel(get_kernel(kernel), config).ops_per_cycle()
            self._rate_cache[key] = rate
            return rate

    # --- grids ----------------------------------------------------------

    def compile_kernels(
        self,
        points: Sequence[Tuple[str, ProcessorConfig]],
    ) -> List[float]:
        """Compile a (kernel, config) grid; whole-chip rates in order.

        The cold points go through :func:`repro.compiler.compile_batch`
        in one call — deduplicated up front and persisted to the
        on-disk schedule cache — so regenerating Figure 13/14 or Table 5
        compiles each unique schedule at most once, ever.  Values are identical to repeated
        :meth:`kernel_rate` calls.

        One pass reads every point from the memo; each kernel name
        among the cold points is resolved once.  Statistics are counted
        in bulk: one miss per distinct cold point, then one hit per
        point, the totals of filling the misses and reading every point
        back through :meth:`kernel_rate`.
        """
        with self._lock:
            keys = [(kernel, config) for kernel, config in points]
            cache = self._rate_cache
            rates = [cache.get(key) for key in keys]
            missing = list(dict.fromkeys(
                [key for key, rate in zip(keys, rates) if rate is None]
            ))
            if missing:
                graphs = {
                    kernel: get_kernel(kernel)
                    for kernel in dict.fromkeys([k for k, _ in missing])
                }
                schedules = compile_batch(
                    [(graphs[name], config) for name, config in missing]
                )
                for key, schedule in zip(missing, schedules):
                    cache[key] = schedule.ops_per_cycle()
                self._count("rate", hit=False, amount=len(missing))
                rates = [cache[key] for key in keys]
            self._count("rate", hit=True, amount=len(keys))
            return rates

    def simulate_many(
        self,
        points: Sequence[SweepPoint],
        node: TechnologyNode = TECH_45NM,
        clock_ghz: float = 1.0,
        mode: str = "simulated",
    ) -> List[SimulationResult]:
        """Evaluate a grid of points; results in input order.

        Cached points are served from the memo cache; the cold ones are
        evaluated in order, and every result lands in the cache for
        later single-point lookups.

        Like :meth:`compile_kernels`, one pass reads every point from
        the memo and counts in bulk: one miss per distinct cold point
        and one hit per point.

        ``mode`` is deprecated and has no effect: it must name one of
        :data:`repro.api.SWEEP_MODES`, and both evaluate every point
        the same way.
        """
        if mode not in SWEEP_MODES:
            raise ValueError(
                f"unknown mode {mode!r}; "
                f"allowed modes: {', '.join(SWEEP_MODES)}"
            )
        with self._lock:
            keys = [
                (application, config, node, clock_ghz)
                for application, config in points
            ]
            cache = self._sim_cache
            results = [cache.get(key) for key in keys]
            missing = list(dict.fromkeys(
                [key for key, result in zip(keys, results) if result is None]
            ))
            if missing:
                for key in missing:
                    self._simulate_cold(key)
                results = [cache[key] for key in keys]
            self._count("sim", hit=True, amount=len(keys))
            return results


_DEFAULT_ENGINE = SweepEngine()


def default_engine() -> SweepEngine:
    """The process-wide engine the :mod:`repro.analysis.perf` grids share."""
    return _DEFAULT_ENGINE


def clear_sweep_cache() -> None:
    """Drop the shared engine's memoized results (benchmarks use this
    to measure cold regenerations)."""
    _DEFAULT_ENGINE.clear()
