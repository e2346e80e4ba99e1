"""Benchmark: functional-interpreter throughput, scalar vs. vector.

Runs the convolve suite kernel (recurrence + scratchpad writes, so the
vector engine takes its stepped path — the conservative case) on both
backends at C=8 and C=128 and reports stream elements processed per
second.  The CI perf-smoke job runs this with ``--benchmark-disable``:
the speedup assertion times the work directly, so it guards the vector
backend's advantage even when pytest-benchmark's timing is off.
"""

import time

import numpy as np
from conftest import perf_floor, run_once

from repro.isa import KernelInterpreter, Opcode
from repro.kernels import get_kernel

KERNEL = "convolve"

#: (clusters, iterations): comparable element counts per width, sized so
#: the scalar runs stay around a second in total.
WORKLOADS = ((8, 160), (128, 10))

#: The smoke assertion: the vector backend must beat scalar by at least
#: this factor at C=128 (measured headroom is an order of magnitude
#: larger).  The relaxed default floor still catches a broken fallback
#: on noisy shared runners; REPRO_BENCH_STRICT=1 restores the tight one.
MIN_SPEEDUP_AT_128 = perf_floor(strict=5.0, relaxed=1.5)

#: Lane parallelism should not *hurt* at modest widths; at C=8 the two
#: backends are close enough that CI noise can flip a 1.0x ratio, so
#: the default floor only guards against a collapse.
MIN_SPEEDUP_AT_8 = perf_floor(strict=1.0, relaxed=0.5)


def _inputs(kernel, clusters, iterations):
    rng = np.random.default_rng(1999)
    reads = {}
    for node in kernel.nodes:
        if node.opcode in (Opcode.SB_READ, Opcode.COND_READ):
            reads[node.name] = reads.get(node.name, 0) + 1
    return {
        name: rng.uniform(0.0, 8.0, size=record * clusters * iterations)
        for name, record in reads.items()
    }


def _elements_per_second(backend, clusters, iterations):
    kernel = get_kernel(KERNEL)
    interp = KernelInterpreter(kernel, clusters=clusters, backend=backend)
    interp.preload_scratchpad([1.0] * 64)
    inputs = _inputs(kernel, clusters, iterations)
    started = time.perf_counter()
    interp.run(inputs, iterations=iterations)
    elapsed = time.perf_counter() - started
    assert interp.last_backend == backend
    return clusters * iterations / elapsed


def _compare_backends():
    rows = []
    speedups = {}
    for clusters, iterations in WORKLOADS:
        rates = {
            backend: _elements_per_second(backend, clusters, iterations)
            for backend in ("scalar", "vector")
        }
        speedups[clusters] = rates["vector"] / rates["scalar"]
        rows.append(
            f"C={clusters:<3d} scalar {rates['scalar']:>12,.0f}  "
            f"vector {rates['vector']:>12,.0f}  "
            f"speedup {speedups[clusters]:6.1f}x"
        )
    return "\n".join(rows), speedups


def test_interp_backend_throughput(benchmark, archive):
    timings, speedups = run_once(benchmark, _compare_backends)
    archive(
        f"Interpreter throughput on {KERNEL!r} (stream elements/s)",
        timings,
    )
    assert speedups[128] >= MIN_SPEEDUP_AT_128
    assert speedups[8] >= MIN_SPEEDUP_AT_8
