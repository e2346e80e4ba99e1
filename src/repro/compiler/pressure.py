"""Register-pressure estimation for software-pipelined schedules.

Software pipelining overlaps loop iterations, so a value produced in one
iteration may still be live while several later iterations execute; the
number of simultaneously live values (*MaxLive*) must fit in the cluster's
LRF capacity.  This is the mechanism that limits intracluster scaling in
practice: at large ``N`` the initiation interval is small, many iterations
overlap, and register pressure forces either a larger II or less
unrolling — the paper's "limited ILP" roll-off beyond ~10 ALUs/cluster.
"""

from __future__ import annotations

from typing import Dict, List

from ..isa.ops import FUClass
from .unroll import SchedGraph


def max_live(graph: SchedGraph, start: Dict[int, int], ii: int) -> int:
    """MaxLive of a modulo schedule: peak register words in any modulo slot.

    The register organization is *distributed* (one two-ported LRF per
    functional-unit input, Rixner et al.): the intracluster switch writes
    a result into the LRF of **every** functional unit that will consume
    it, so a value costs one register per distinct consumer, from its
    definition (``start[u]``) until that consumer reads it
    (``start[v] + II * distance``).  Intervals longer than ``II`` wrap
    and occupy some modulo slots more than once (rotating through the
    LRF).  This per-consumer duplication is what makes aggressive
    software pipelining expensive at large ``N``: small IIs overlap many
    iterations and the copies multiply.
    """
    if ii < 1:
        raise ValueError("initiation interval must be >= 1")
    # Each live interval adds `wraps` to *every* modulo slot plus +1 over
    # `remainder` consecutive slots; accumulating the uniform part in a
    # scalar and the partial part in a difference array makes the whole
    # computation O(edges + II) instead of O(edges * II) — this runs once
    # per II attempt, so it was the II search's second-hottest path.
    uniform = 0
    delta = [0] * (ii + 1)
    for u, resource in enumerate(graph.resources):
        if resource is None:
            continue  # constants and loop indices live in immediates
        defined = start[u]
        for v, _lat, dist in graph.succs[u]:
            last_use = start[v] + ii * dist
            if last_use <= defined:
                continue
            wraps, remainder = divmod(last_use - defined, ii)
            uniform += wraps
            if remainder:
                lo = defined % ii
                hi = lo + remainder
                delta[lo] += 1
                if hi <= ii:
                    delta[hi] -= 1
                else:
                    delta[ii] -= 1
                    delta[0] += 1
                    delta[hi - ii] -= 1
    peak = 0
    level = 0
    for slot in range(ii):
        level += delta[slot]
        if level > peak:
            peak = level
    return uniform + peak


def live_per_class(
    graph: SchedGraph, start: Dict[int, int], ii: int
) -> Dict[FUClass, int]:
    """MaxLive separated by producing functional-unit class (diagnostics)."""
    result: Dict[FUClass, int] = {}
    for cls in FUClass:
        usage = [0] * ii
        if cls is FUClass.NONE:
            result[cls] = 0  # immediates occupy no LRF entries
            continue
        for u in range(len(graph)):
            if graph.opcodes[u].fu_class is not cls:
                continue
            defined = start[u]
            for v, _lat, dist in graph.succs[u]:
                last_use = start[v] + ii * dist
                if last_use <= defined:
                    continue
                span = last_use - defined
                wraps, remainder = divmod(span, ii)
                for slot in range(ii):
                    usage[slot] += wraps
                for offset in range(remainder):
                    usage[(defined + offset) % ii] += 1
        result[cls] = max(usage, default=0)
    return result
