"""Benchmark regenerating the application study (paper Figure 15)."""

from conftest import regenerate

from repro.core.efficiency import harmonic_mean


def test_fig15_application_performance(benchmark, archive):
    points = regenerate(benchmark, archive, "fig15")

    at_1280 = {
        p.application: p
        for p in points
        if p.config.clusters == 128 and p.config.alus_per_cluster == 10
    }
    hm = harmonic_mean([p.speedup for p in at_1280.values()])

    # Paper shapes: RENDER/DEPTH/CONV scale well; QRD and FFT1K poorly;
    # FFT4K beats FFT1K at 1280 ALUs on stream length alone; the
    # harmonic mean lands near 10x.
    assert at_1280["render"].speedup > 10.0
    assert at_1280["conv"].speedup > 10.0
    assert at_1280["qrd"].speedup < 8.0
    assert at_1280["fft1k"].speedup < 8.0
    assert at_1280["fft4k"].gops > 1.5 * at_1280["fft1k"].gops
    assert 7.0 <= hm <= 14.0
