"""Timeline (Gantt) rendering of simulation results.

Turns a :class:`~repro.sim.metrics.SimulationResult` into a proportional
ASCII chart — the quickest way to *see* whether loads are hiding behind
kernels, where the memory pipe serializes, and what a short-stream tail
looks like.  Used by ``python -m repro simulate --gantt``.
"""

from __future__ import annotations

from typing import Dict

from ..sim.metrics import SimulationResult

#: Lane assignment by operation kind.
_LANES = ("LoadOp", "KernelCall", "StoreOp")
_LANE_LABELS = {"LoadOp": "load", "KernelCall": "kernel", "StoreOp": "store"}
_LANE_GLYPHS = {"LoadOp": "L", "KernelCall": "#", "StoreOp": "S"}


def render_gantt(
    result: SimulationResult,
    width: int = 72,
    max_rows: int = 60,
) -> str:
    """Render the run as one proportional row per stream operation.

    Long programs are windowed to the first ``max_rows`` operations (the
    steady-state pattern repeats); the header reports the totals.
    """
    if width < 20:
        raise ValueError("width too small to render")
    records = result.records[:max_rows]
    total = max((r.finish for r in records), default=1)
    scale = width / total

    lines = [
        f"{result.program} on {result.config.describe()}: "
        f"{result.cycles} cycles, {result.gops:.1f} GOPS",
        f"(first {len(records)} of {len(result.records)} stream ops; "
        f"1 column ~ {max(1, int(1 / scale))} cycles)",
    ]
    for record in records:
        start = int(record.start * scale)
        length = max(1, int(record.cycles * scale))
        glyph = _LANE_GLYPHS.get(record.kind, "?")
        bar = " " * start + glyph * min(length, width - start)
        label = record.label[:28].ljust(28)
        lines.append(f"{label}|{bar.ljust(width)}|")
    lines.append(
        "legend: L = load, # = kernel, S = store "
        f"(memory busy {result.memory_utilization:.0%}, "
        f"clusters busy {result.cluster_utilization:.0%})"
    )
    return "\n".join(lines)


def overlap_summary(result: SimulationResult) -> Dict[str, float]:
    """Fraction of total runtime each op kind covers (can exceed 1.0 in
    aggregate — that surplus *is* the overlap)."""
    if result.cycles == 0:
        return {label: 0.0 for label in _LANE_LABELS.values()}
    busy: Dict[str, int] = {kind: 0 for kind in _LANES}
    for record in result.records:
        if record.kind in busy:
            busy[record.kind] += record.cycles
    return {
        _LANE_LABELS[kind]: cycles / result.cycles
        for kind, cycles in busy.items()
    }
