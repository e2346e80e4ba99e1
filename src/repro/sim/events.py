"""A minimal discrete-event simulation core.

The application simulator advances in events (operation completions); at
every event, newly-ready stream operations are dispatched onto whichever
resource they need.  This mirrors the structure of the cycle-accurate
simulator the paper used, at stream-operation granularity with
cycle-exact kernel timing from the compiled schedules.

The queue is instrumented: give it a :class:`~repro.obs.tracer.Tracer`
and every processed event becomes a trace instant; give it a
:class:`~repro.obs.metrics.MetricsRegistry` and it maintains occupancy
and throughput metrics.  Both default to off with zero overhead.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer

#: Default event budget before :meth:`EventQueue.run` declares livelock.
DEFAULT_MAX_EVENTS = 10_000_000


class EventBudgetExceeded(RuntimeError):
    """:meth:`EventQueue.run` reached its ``max_events`` budget.

    A simulator run replays exactly one event per stream operation, so
    a budget below a program's operation count fails every time: the
    API answers it as a bad request, the CLI with exit status 2.
    """


@dataclass(order=True, slots=True)
class _Event:
    time: int
    order: int
    action: Callable[[], None] = field(compare=False)
    label: Optional[str] = field(compare=False, default=None)


class EventQueue:
    """Time-ordered event queue with stable FIFO ordering at equal times."""

    def __init__(
        self,
        tracer: Tracer = NULL_TRACER,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._heap: List[_Event] = []
        self._counter = itertools.count()
        self._now = 0
        self._processed = 0
        self.tracer = tracer
        self.metrics = metrics

    @property
    def now(self) -> int:
        """Current simulation time (cycles)."""
        return self._now

    @property
    def processed(self) -> int:
        """Events executed so far across all :meth:`run` calls."""
        return self._processed

    @property
    def pending(self) -> int:
        """Events currently waiting in the heap."""
        return len(self._heap)

    def schedule(
        self,
        time: int,
        action: Callable[[], None],
        label: Optional[str] = None,
    ) -> None:
        """Run ``action`` at ``time`` (must not be in the past).

        ``label`` names the event in traces and livelock diagnostics.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule event at {time}, now is {self._now}"
            )
        heapq.heappush(
            self._heap, _Event(time, next(self._counter), action, label)
        )

    def run(self, max_events: int = DEFAULT_MAX_EVENTS) -> int:
        """Drain the queue; returns the final time.

        Raises :class:`EventBudgetExceeded` (a :class:`RuntimeError`)
        with the current time, the number of events processed, and the
        pending-heap size once more than ``max_events`` events execute
        — the signature of a livelocked model endlessly rescheduling
        itself.
        """
        events = 0
        occupancy = (
            self.metrics.histogram("events.queue_occupancy")
            if self.metrics is not None
            else None
        )
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            if occupancy is not None:
                occupancy.observe(len(heap))
            # Drain every event sharing the earliest timestamp in one
            # heap pass.  Actions may schedule new events at the current
            # time; those carry higher order counters than anything in
            # this batch, so executing the batch first preserves the
            # FIFO-at-equal-times ordering exactly.
            batch = [heappop(heap)]
            now = batch[0].time
            while heap and heap[0].time == now:
                batch.append(heappop(heap))
            self._now = now
            for position, event in enumerate(batch):
                events += 1
                if events > max_events:
                    pending = len(heap) + len(batch) - position - 1
                    raise EventBudgetExceeded(
                        f"event budget of {max_events} exceeded "
                        f"(livelock?): {events - 1} events processed this "
                        f"run, now at cycle {self._now}, {pending} events "
                        "still pending"
                    )
                self._processed += 1
                if self.tracer.enabled and event.label is not None:
                    self.tracer.instant("events", event.label, event.time)
                event.action()
        if self.metrics is not None:
            self.metrics.counter("events.processed").inc(events)
        return self._now

    def empty(self) -> bool:
        return not self._heap
