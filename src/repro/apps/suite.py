"""The application suite: registry and accessors (paper Table 4).

Programs are rebuilt per call (from 0.04 ms for the FFTs to 8 ms for
QRD, about 2 ms on average), but the *kernels* inside them are
memoized, so compilation caching still works across programs and
configurations.  Sweeps avoid the rebuild altogether: they simulate
the cached encoding from :func:`repro.sim.engine.program_summary`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ..isa.values import DataType
from .conv import build_conv
from .depth import build_depth
from .fft_app import build_fft1k, build_fft4k
from .mpeg import build_mpeg
from .qrd import build_qrd
from .render import build_render
from .streamc import StreamProgram


@dataclass(frozen=True)
class ApplicationInfo:
    """Registry entry for one application."""

    name: str
    builder: Callable[[], StreamProgram]
    dtype: DataType
    description: str


APPLICATIONS: Dict[str, ApplicationInfo] = {
    info.name: info
    for info in (
        ApplicationInfo(
            "render",
            build_render,
            DataType.FLOAT32,
            "Polygon rendering of a bowling pin with a procedural "
            "marble shader",
        ),
        ApplicationInfo(
            "depth",
            build_depth,
            DataType.INT16,
            "Stereo depth extraction on a 512x384 pixel image",
        ),
        ApplicationInfo(
            "conv",
            build_conv,
            DataType.INT16,
            "Convolution filter on 512x384 pixel image",
        ),
        ApplicationInfo(
            "qrd",
            build_qrd,
            DataType.FLOAT32,
            "256x256 matrix decomposition",
        ),
        ApplicationInfo(
            "fft1k",
            build_fft1k,
            DataType.FLOAT32,
            "1024-point complex FFT",
        ),
        ApplicationInfo(
            "fft4k",
            build_fft4k,
            DataType.FLOAT32,
            "4096-point complex FFT",
        ),
    )
}

#: The order the paper's Figure 15 plots.
APPLICATION_ORDER = ("render", "depth", "conv", "qrd", "fft1k", "fft4k")

#: Applications beyond the paper's six (library extensions).
EXTRA_APPLICATIONS: Dict[str, ApplicationInfo] = {
    "mpeg": ApplicationInfo(
        "mpeg",
        build_mpeg,
        DataType.INT16,
        "Video encoder (motion estimation + DCT + run-length) on a "
        "CIF frame — the fourth Rixner application class",
    ),
}


def get_application(name: str) -> StreamProgram:
    """Build the named application's stream program.

    ``kernel:<hash>`` names resolve through the registered-kernel
    frontend to the canonical single-kernel microbenchmark program
    (load -> kernel -> store), so user kernels are simulatable without
    a hand-written application around them.
    """
    if name.startswith("kernel:"):
        from ..frontend.bench import microbench_program
        from ..frontend.registry import default_registry

        return microbench_program(name, default_registry().graph(name))
    if name in APPLICATIONS:
        return APPLICATIONS[name].builder()
    if name in EXTRA_APPLICATIONS:
        return EXTRA_APPLICATIONS[name].builder()
    available = sorted(APPLICATIONS) + sorted(EXTRA_APPLICATIONS)
    raise KeyError(
        f"unknown application {name!r}; available: {available}"
    )


def all_applications() -> List[StreamProgram]:
    """All six applications, in the paper's Figure 15 order."""
    return [get_application(name) for name in APPLICATION_ORDER]
