"""Event tracing for the application simulator.

A :class:`Tracer` collects *spans* — ``(resource, label, start, finish,
detail)`` records of a resource doing work for a cycle interval — and
*instants* (zero-duration markers).  A simulated run reports what its
resources (host channel, memory pipe, cluster array, microcontroller)
do and when each stream operation completes; the collected trace
exports as Chrome-trace-format JSON (loadable in ``chrome://tracing``
or https://ui.perfetto.dev).

Tracing is strictly opt-in: the module-level :data:`NULL_TRACER` is the
default everywhere, records nothing, and its ``enabled`` flag lets hot
paths skip even the argument marshalling, so untraced runs behave (and
cost) exactly as before the tracer existed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Span", "Tracer", "NullTracer", "PrefixedTracer", "NULL_TRACER"]


@dataclass(frozen=True)
class Span:
    """One traced interval of work on one simulated resource."""

    resource: str
    label: str
    start: int
    finish: int
    #: Free-form annotations (words moved, iterations, ...), kept as a
    #: sorted tuple of pairs so spans stay hashable and deterministic.
    detail: Tuple[Tuple[str, Any], ...] = ()

    @property
    def cycles(self) -> int:
        """Duration of the span in simulated cycles."""
        return self.finish - self.start

    def detail_dict(self) -> Dict[str, Any]:
        """The annotations as a plain dictionary."""
        return dict(self.detail)


class Tracer:
    """Collects spans and instants from an instrumented simulation."""

    #: Hot paths may consult this flag to skip trace bookkeeping
    #: entirely; the null tracer sets it False.
    enabled = True

    def __init__(self) -> None:
        self._spans: List[Span] = []
        self._instants: List[Span] = []

    # --- recording -------------------------------------------------------

    def span(
        self,
        resource: str,
        label: str,
        start: int,
        finish: int,
        **detail: Any,
    ) -> None:
        """Record ``resource`` doing ``label`` from ``start`` to ``finish``."""
        if finish < start:
            raise ValueError(
                f"span {label!r} on {resource!r} finishes at {finish}, "
                f"before it starts at {start}"
            )
        self._spans.append(
            Span(resource, label, start, finish, tuple(sorted(detail.items())))
        )

    def instant(
        self, resource: str, label: str, time: int, **detail: Any
    ) -> None:
        """Record a zero-duration marker (an operation's completion...)."""
        self._instants.append(
            Span(resource, label, time, time, tuple(sorted(detail.items())))
        )

    # --- inspection ------------------------------------------------------

    @property
    def spans(self) -> Tuple[Span, ...]:
        """All recorded interval spans, in recording order."""
        return tuple(self._spans)

    @property
    def instants(self) -> Tuple[Span, ...]:
        """All recorded zero-duration markers, in recording order."""
        return tuple(self._instants)

    @property
    def resources(self) -> Tuple[str, ...]:
        """Distinct resource names, in first-appearance order."""
        seen: Dict[str, None] = {}
        for span in self._spans:
            seen.setdefault(span.resource, None)
        for span in self._instants:
            seen.setdefault(span.resource, None)
        return tuple(seen)

    # --- export ----------------------------------------------------------

    def chrome_trace(self) -> Dict[str, Any]:
        """The trace as a Chrome-trace-format object.

        One simulated cycle maps to one microsecond of trace time (the
        format's ``ts``/``dur`` unit), so cycle counts read directly off
        the Perfetto ruler.  Each simulated resource becomes one named
        thread of process 0.
        """
        tids = {name: i for i, name in enumerate(self.resources)}
        events: List[Dict[str, Any]] = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": resource},
            }
            for resource, tid in tids.items()
        ]
        for span in self._spans:
            events.append(
                {
                    "name": span.label,
                    "cat": span.resource,
                    "ph": "X",
                    "ts": span.start,
                    "dur": span.cycles,
                    "pid": 0,
                    "tid": tids[span.resource],
                    "args": span.detail_dict(),
                }
            )
        for span in self._instants:
            events.append(
                {
                    "name": span.label,
                    "cat": span.resource,
                    "ph": "i",
                    "s": "t",
                    "ts": span.start,
                    "pid": 0,
                    "tid": tids[span.resource],
                    "args": span.detail_dict(),
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"time_unit": "1 us == 1 simulated cycle"},
        }

    def to_chrome_json(self, indent: Optional[int] = None) -> str:
        """The Chrome-trace object serialized to JSON text."""
        return json.dumps(self.chrome_trace(), indent=indent)


class NullTracer(Tracer):
    """The do-nothing default tracer: records and allocates nothing."""

    enabled = False

    def span(self, resource, label, start, finish, **detail) -> None:
        """Discard the span."""

    def instant(self, resource, label, time, **detail) -> None:
        """Discard the marker."""


class PrefixedTracer(Tracer):
    """Forwards to another tracer with a resource-name prefix.

    Lets the partitioned simulator give each partition its own lanes
    (``p0.memory``, ``p1.clusters``...) while sharing one trace.
    """

    def __init__(self, inner: Tracer, prefix: str) -> None:
        super().__init__()
        self._inner = inner
        self._prefix = prefix
        self.enabled = inner.enabled

    def span(self, resource, label, start, finish, **detail) -> None:
        """Record on the wrapped tracer under ``prefix + resource``."""
        self._inner.span(
            self._prefix + resource, label, start, finish, **detail
        )

    def instant(self, resource, label, time, **detail) -> None:
        """Record on the wrapped tracer under ``prefix + resource``."""
        self._inner.instant(self._prefix + resource, label, time, **detail)


#: Shared do-nothing tracer used as the default everywhere.
NULL_TRACER = NullTracer()
