#!/usr/bin/env python
"""Functional SIMD execution: kernels that actually compute.

The compiler and simulator answer "how fast"; the functional interpreter
answers "what".  This example builds a separable box-blur kernel with
the public API, executes it on 8 virtual SIMD clusters — including a
real intercluster exchange for the pixels owned by neighboring clusters
— and validates the output against numpy.  It then demonstrates
conditional streams: a thresholding kernel whose output stream length is
data dependent, compacted across clusters exactly as the paper's
conditional-stream mechanism [7] does in hardware.

numpy is the independent reference here only; the interpreter itself
needs no third-party package.

Run:  python examples/functional_simulation.py
"""

import numpy as np

from repro.isa import KernelGraph, KernelInterpreter, Opcode

CLUSTERS = 8


def build_blur3() -> KernelGraph:
    """out[i] = (x[i-1] + x[i] + x[i+1]) / 3 over a SIMD strip.

    Each cluster reads a 3-word record (its pixel plus both neighbors,
    as the DEPTH/CONV applications stage their windows), so no halo
    exchange is needed for the arithmetic — but we still fetch the
    right neighbor's center pixel over COMM and assert it matches, to
    show cross-cluster routing computing real values.
    """
    g = KernelGraph("blur3")
    left = g.read("window")
    center = g.read("window")
    right = g.read("window")
    total = g.reduce(Opcode.FADD, [left, center, right])
    scaled = g.op(Opcode.FMUL, total, g.const(1.0 / 3.0, "third"))
    g.write(scaled, "blurred")
    # The neighbor's center pixel, fetched over the intercluster switch.
    g.write(g.comm(center, "neighbor"), "neighbor_center")
    g.validate()
    return g


def build_threshold() -> KernelGraph:
    """Emit only samples below a threshold (conditional stream demo)."""
    g = KernelGraph("threshold")
    v = g.read("samples")
    keep = g.op(Opcode.FCMP, v, g.const(0.5, "thresh"))  # v < 0.5
    g.write(g.op(Opcode.SELECT, keep, v), "kept", conditional=True)
    g.validate()
    return g


def main() -> None:
    rng = np.random.default_rng(2003)

    # --- box blur, validated against numpy ---------------------------
    signal = rng.normal(size=10 * CLUSTERS + 2)
    windows = []
    for i in range(1, len(signal) - 1):
        windows.extend(signal[i - 1 : i + 2])
    interp = KernelInterpreter(build_blur3(), clusters=CLUSTERS)
    out = interp.run({"window": windows})

    blurred = np.array(out["blurred"])
    expected = np.convolve(signal, np.ones(3) / 3.0, mode="valid")
    expected = expected[: len(blurred)]
    assert np.allclose(blurred, expected), "blur mismatch!"
    print(f"blur3 on {CLUSTERS} SIMD clusters: "
          f"{len(blurred)} outputs match numpy exactly")

    # The COMM output is each cluster's right neighbor's center pixel.
    neighbors = np.array(out["neighbor_center"])
    centers = signal[1 : 1 + len(blurred)]
    for iteration in range(len(blurred) // CLUSTERS):
        batch = centers[iteration * CLUSTERS : (iteration + 1) * CLUSTERS]
        got = neighbors[iteration * CLUSTERS : (iteration + 1) * CLUSTERS]
        assert np.allclose(got, np.roll(batch, -1)), "COMM routing broken!"
    print("intercluster COMM delivered every neighbor pixel correctly")

    # --- conditional streams ------------------------------------------
    samples = rng.uniform(size=16 * CLUSTERS)
    interp = KernelInterpreter(build_threshold(), clusters=CLUSTERS)
    kept = interp.run({"samples": samples})["kept"]
    expected_kept = [s for s in samples if s < 0.5]
    assert np.allclose(kept, expected_kept), "compaction mismatch!"
    print(f"conditional stream compacted {len(samples)} samples down to "
          f"{len(kept)} (threshold 0.5) — order preserved, no bubbles")


if __name__ == "__main__":
    main()
