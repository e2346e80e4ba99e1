"""Benchmark: full-suite kernel compilation, cold vs. warm cache.

Compiles every suite kernel over the full Figure-13/14 + Table 5 grid
(plus the heterogeneous-mix points) three ways:

* **cold** — persistent cache empty, every schedule modulo-scheduled;
* **warm (disk)** — fresh in-memory state, every schedule loaded from
  the persistent cache a previous process would have left behind;
* **warm (memory)** — everything already in the in-process cache.

The CI perf-smoke job runs this with ``--benchmark-disable``: the
speedup assertion times the work directly.  The archived cache-stats
line (committed) and the timings (``benchmarks/timings/``) go into the
job summary.
"""

import time

from conftest import perf_floor, run_once

from repro.compiler import (
    clear_cache,
    compile_batch,
    configure_default_cache,
    default_cache,
)
from repro.compiler.machine import IMAGINE_ALU_MIX
from repro.core.config import ProcessorConfig
from repro.kernels import get_kernel
from repro.kernels.suite import KERNELS

#: The Table 5 grid, the densest compile surface the studies walk.
C_VALUES = (8, 16, 32, 64, 128)
N_VALUES = (2, 5, 10, 14)

#: Warm-over-cold floor: loading schedules from disk must beat modulo
#: scheduling them by at least this factor (measured headroom is ~6x).
#: The relaxed default still catches a dead warm path on noisy shared
#: runners; REPRO_BENCH_STRICT=1 restores the tight floor.
MIN_WARM_SPEEDUP = perf_floor(strict=3.0, relaxed=1.2)


def _jobs():
    return [
        (get_kernel(name), ProcessorConfig(c, n))
        for name in sorted(KERNELS)
        for c in C_VALUES
        for n in N_VALUES
    ]


def _compile_suite(jobs):
    kernels = sorted({kernel.name for kernel, _ in jobs})
    started = time.perf_counter()
    compile_batch(jobs)
    compile_batch(
        [(get_kernel(name), ProcessorConfig(8, 6)) for name in kernels],
        alu_mix=IMAGINE_ALU_MIX,
    )
    return time.perf_counter() - started


def _cold_vs_warm(cache_root):
    jobs = _jobs()
    cache = configure_default_cache(cache_dir=cache_root)
    try:
        cache.clear()
        clear_cache()
        t_cold = _compile_suite(jobs)
        cold_stats = dict(cache.stats())

        clear_cache()  # fresh process state, disk cache intact
        t_disk = _compile_suite(jobs)

        t_mem = _compile_suite(jobs)  # everything memoized in-process
    finally:
        clear_cache()
        configure_default_cache()
    lines = [
        "Full-suite kernel compilation "
        f"({len(jobs)} grid points + heterogeneous mix)",
        "cache-stats: "
        f"hits={cold_stats['hits']} misses={cold_stats['misses']} "
        f"writes={cold_stats['writes']}",
    ]
    timings = [
        f"cold (schedule everything)  {t_cold * 1e3:8.1f} ms",
        f"warm (persistent cache)     {t_disk * 1e3:8.1f} ms  "
        f"{t_cold / t_disk:5.1f}x",
        f"warm (in-memory cache)      {t_mem * 1e3:8.1f} ms  "
        f"{t_cold / t_mem:5.1f}x",
        f"cold_ms={t_cold * 1e3:.1f} warm_ms={t_disk * 1e3:.1f} "
        f"speedup={t_cold / t_disk:.1f}x",
    ]
    return "\n".join(lines), "\n".join(timings), t_cold / t_disk


def test_compile_cache_speedup(benchmark, archive, tmp_path):
    text, timings, warm_speedup = run_once(
        benchmark, _cold_vs_warm, tmp_path
    )
    archive(text, timings)
    assert warm_speedup >= MIN_WARM_SPEEDUP
