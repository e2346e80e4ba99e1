"""How fast the host runs the interpreter right now.

The machines this benchmark runs on share their cores, and a core's
speed jumps between two levels about 1.7x apart, often within a second:
a fixed loop took 2.0 ms for a few seconds, then 3.4 ms, then 2.0 ms
again, in one process doing nothing else.  A raw wall time therefore
says more about the neighbours than about the program.

The *reference slice* is a fixed pure-Python loop of attribute reads,
dict lookups, calls, integer arithmetic and a sort.  It is benchmark
code, not program code, so it is the same on every commit compared.
:class:`ScaledClock` runs one slice before each measured operation and
one after it, in the same process on the same CPU, and divides the
operation's wall time by the mean of the two slices over
:data:`SLICE_NOMINAL_S`: the result is the seconds the operation takes
on a host where a slice takes :data:`SLICE_NOMINAL_S`.  The slices sit
right next to the work, so they see the speed the work saw; over
eleven 25-second stretches of one process, a ``grid-warm`` pass spread
17 % between quartiles in raw wall time and 1.2 % scaled.

A slice runs once untimed first, so it starts from warm caches whatever
the operation did, creates no container objects, and runs with the
cyclic garbage collector paused: otherwise a collection of the
program's heap, whose size depends on what the program did before,
lands inside some slices and not others.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Any, Callable, List, Tuple

#: A slice's time on the 2-core Xeon VM the benchmark was built on, at
#: the faster of its two speeds; a scaled time is a time at that pace.
SLICE_NOMINAL_S = 0.0005

#: Passes over the prebuilt points per timed slice (about 0.5 ms).
SLICE_PASSES = 2


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        self.x = x
        self.y = y


def _build() -> Tuple[List[_Point], dict, List[int]]:
    rng = random.Random(12345)
    points = [_Point(rng.randrange(97), rng.randrange(13))
              for _ in range(1024)]
    table = {x * 16 + y: x ^ y for x in range(97) for y in range(13)}
    order = list(range(len(points)))
    rng.shuffle(order)
    return points, table, order


_POINTS, _TABLE, _ORDER = _build()


def _score(point: _Point, k: int) -> int:
    return (point.x * 31 + point.y * k) & 1023


def reference_slice(passes: int = SLICE_PASSES) -> int:
    """A fixed mix of what the program spends its time on: attribute
    reads, dict lookups, calls, integer arithmetic and a sort."""
    total = 0
    points, table = _POINTS, _TABLE
    for k in range(passes):
        for i in _ORDER:
            point = points[i]
            total += table[point.x * 16 + point.y] + _score(point, k)
        total += sorted(_ORDER[k::4], key=lambda i: points[i].x)[0]
    return total


def time_slice() -> float:
    """Seconds one :func:`reference_slice` takes now, after one untimed
    pass has brought its code and data back into the caches."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        reference_slice(1)
        started = time.perf_counter()
        reference_slice()
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between slices of ``before`` and ``after``
    seconds, at the pace where a slice takes :data:`SLICE_NOMINAL_S`."""
    return seconds * SLICE_NOMINAL_S * 2.0 / (before + after)


class ScaledClock:
    """Times operations between reference slices.

    Consecutive operations share the slice between them, so each costs
    one slice (about a millisecond with its untimed pass), which is not
    part of any measured time.
    """

    def __init__(self) -> None:
        self._before = time_slice()

    def run(self, fn: Callable[[], Any]) -> Tuple[Any, float, float]:
        """``(fn(), wall seconds, scaled seconds)``; an exception from
        ``fn`` propagates after the closing slice."""
        started = time.perf_counter()
        try:
            result = fn()
        finally:
            seconds = time.perf_counter() - started
            after = time_slice()
            scaled = scale(seconds, self._before, after)
            self._before = after
        return result, seconds, scaled
