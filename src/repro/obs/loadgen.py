"""Load generator and SLO reporter for the serving daemon.

``python -m repro loadgen`` drives a live daemon with a mixed
costs/compile/simulate/sweep workload and reports a **versioned SLO
envelope**: per-endpoint p50/p90/p99 latency (from the same bucketed
:class:`~repro.obs.metrics.Histogram` the daemon uses, measured
client-side), error and backpressure rates, and overall throughput.
CI runs it after every change so serving-performance regressions show
up as a diffable JSON line, not as an incident.

Two driving disciplines:

* **closed loop** (default) — ``concurrency`` workers each keep exactly
  one request in flight; completion triggers the next send.  Offered
  load adapts to service rate, so the measured throughput *is* the
  saturation throughput at that concurrency.
* **open loop** — a scheduler offers requests at a fixed ``rate``
  regardless of completions (the arrival pattern real clients produce).
  When the daemon can't keep up, the bounded hand-off queue overflows
  and the overflow is counted as client-side backpressure instead of
  blocking the schedule — the classic coordinated-omission fix.

The request mix is deterministic: a weighted round-robin schedule over
per-kind parameter cycles, indexed by a shared atomic counter, so two
runs against equally-warm daemons issue the same sequence.
"""

from __future__ import annotations

import itertools
import json
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .metrics import Histogram, QUANTILE_RELATIVE_ERROR_BOUND
from .manifest import build_envelope

__all__ = [
    "SLO_VERSION",
    "LoadgenConfig",
    "parse_mix",
    "render_report",
    "run_loadgen",
    "slo_line",
]

#: Bumped whenever a report field is added, removed, or changes meaning.
#: v2: added ``cluster_workers`` (fleet size behind the target daemon).
#: v3: added the ``jobs`` driving mode (``--jobs``) and its
#: server-reported queue-wait percentiles (``jobs`` report section).
#: v4: removed ``cluster_workers`` and its ``/v1/cluster/stats`` probe;
#: a run sends the daemon nothing beyond ``/healthz`` and its mix.
#: The ``jobs`` mode v3 added went with the daemon's job routes; a
#: closed- or open-loop report is unchanged, so the version stays.
SLO_VERSION = 4

#: Default request mix (weights in the round-robin schedule).
DEFAULT_MIX = "costs=6,compile=2,simulate=1"

#: Per-kind deterministic parameter cycles.  Small configurations keep
#: one loadgen request cheap enough that a few seconds of wall clock
#: yields hundreds of samples per endpoint.
_COST_POINTS: Sequence[Tuple[int, int]] = (
    (8, 5), (16, 5), (32, 5), (64, 5), (128, 5), (8, 3), (16, 8),
)
_COMPILE_POINTS: Sequence[Tuple[str, int, int]] = (
    ("fft", 8, 5), ("blocksad", 8, 5), ("dct", 16, 5), ("convolve", 8, 5),
)
_SIMULATE_POINTS: Sequence[Tuple[str, int, int]] = (
    ("fft1k", 8, 5), ("depth", 8, 5),
)
_SWEEP_POINTS: Sequence[str] = ("table5",)


def parse_mix(spec: str) -> Dict[str, int]:
    """Parse ``"costs=6,compile=2"`` into validated kind→weight."""
    known = ("costs", "compile", "simulate", "sweep")
    mix: Dict[str, int] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, weight = part.partition("=")
        name = name.strip()
        if name not in known:
            raise ValueError(
                f"unknown endpoint {name!r} in mix (expected one of "
                f"{', '.join(known)})"
            )
        try:
            value = int(weight)
        except ValueError:
            raise ValueError(f"mix weight for {name!r} must be an integer")
        if value < 0:
            raise ValueError(f"mix weight for {name!r} must be >= 0")
        mix[name] = value
    if not any(mix.values()):
        raise ValueError("mix has no positive weights")
    return mix


@dataclass(frozen=True)
class LoadgenConfig:
    """One load-generation run against ``host:port``."""

    host: str = "127.0.0.1"
    port: int = 8712
    duration_s: float = 5.0
    concurrency: int = 4
    #: ``closed`` (saturation-seeking) or ``open`` (fixed-rate).
    mode: str = "closed"
    #: Offered request rate for open-loop mode, requests/second.
    rate: float = 50.0
    mix: str = DEFAULT_MIX
    request_timeout_s: float = 120.0


class _EndpointStats:
    """Client-side accounting for one request kind."""

    def __init__(self, kind: str):
        self.kind = kind
        self.histogram = Histogram(f"loadgen.{kind}_seconds")
        self.errors = 0
        self.backpressure = 0
        self._lock = threading.Lock()

    def record(self, elapsed_s: float, status: int) -> None:
        with self._lock:
            if status in (429, 503):
                self.backpressure += 1
            elif status != 200:
                self.errors += 1
            else:
                self.histogram.observe(elapsed_s)

    def record_client_drop(self) -> None:
        with self._lock:
            self.backpressure += 1

    def report(self) -> Dict[str, Any]:
        hist = self.histogram
        doc: Dict[str, Any] = {
            "requests": hist.count + self.errors + self.backpressure,
            "ok": hist.count,
            "errors": self.errors,
            "backpressure": self.backpressure,
        }
        if hist.count:
            doc.update(
                {
                    "p50_ms": round(hist.p50 * 1000.0, 3),
                    "p90_ms": round(hist.p90 * 1000.0, 3),
                    "p99_ms": round(hist.p99 * 1000.0, 3),
                    "mean_ms": round(hist.mean * 1000.0, 3),
                    "max_ms": round((hist.max or 0.0) * 1000.0, 3),
                    "quantile_error_bound": QUANTILE_RELATIVE_ERROR_BOUND,
                    "histogram": [
                        [upper if upper != float("inf") else "inf", count]
                        for upper, count in hist.bucket_counts()
                    ],
                }
            )
        return doc


def _build_schedule(mix: Dict[str, int]) -> List[str]:
    """Weighted round-robin: interleave kinds rather than chunking them
    (``costs=2,sweep=1`` → ``costs, sweep, costs`` not
    ``costs, costs, sweep``) so every window of the run sees the mix."""
    remaining = {kind: weight for kind, weight in mix.items() if weight > 0}
    schedule: List[str] = []
    while remaining:
        for kind in sorted(remaining, key=lambda k: -remaining[k]):
            schedule.append(kind)
            remaining[kind] -= 1
            if not remaining[kind]:
                del remaining[kind]
    return schedule


def _issue(client: Any, kind: str, index: int) -> Any:
    """Send request number ``index`` of ``kind`` through ``client``."""
    if kind == "costs":
        clusters, alus = _COST_POINTS[index % len(_COST_POINTS)]
        return client.costs(clusters, alus)
    if kind == "compile":
        kernel, clusters, alus = _COMPILE_POINTS[index % len(_COMPILE_POINTS)]
        return client.compile(kernel, clusters, alus)
    if kind == "simulate":
        app, clusters, alus = _SIMULATE_POINTS[index % len(_SIMULATE_POINTS)]
        return client.simulate(app, clusters, alus)
    if kind == "sweep":
        return client.sweep(_SWEEP_POINTS[index % len(_SWEEP_POINTS)])
    raise ValueError(f"unknown request kind {kind!r}")


def run_loadgen(config: LoadgenConfig) -> Dict[str, Any]:
    """Drive the daemon for ``config.duration_s``; returns the SLO
    report (the ``data`` of the loadgen envelope).

    Raises :class:`~repro.serve.client.ServeConnectionError` when the
    daemon is unreachable at start.
    """
    from ..serve.client import ServeClient

    mix = parse_mix(config.mix)
    schedule = _build_schedule(mix)
    stats = {kind: _EndpointStats(kind) for kind in mix if mix[kind] > 0}
    op_counter = itertools.count()
    per_kind_counters = {kind: itertools.count() for kind in stats}
    deadline_holder = [0.0]
    stop = threading.Event()

    # Fail fast (with the target address) before spawning workers.
    # Loadgen clients opt out of the automatic backpressure retries:
    # 429/503 *are* the measurement here, not an inconvenience.
    probe = ServeClient(config.host, config.port,
                        timeout=config.request_timeout_s,
                        backpressure_retries=0)
    try:
        probe.health()
    finally:
        probe.close()

    def _execute(client: Any, op_index: int) -> None:
        kind = schedule[op_index % len(schedule)]
        issue_index = next(per_kind_counters[kind])
        started = time.perf_counter()
        try:
            response = _issue(client, kind, issue_index)
            status = response.status
        except (ConnectionError, OSError):
            client.close()
            stats[kind].errors += 1
            return
        stats[kind].record(time.perf_counter() - started, status)

    def _closed_worker() -> None:
        client = ServeClient(config.host, config.port,
                             timeout=config.request_timeout_s,
                             backpressure_retries=0)
        try:
            while time.perf_counter() < deadline_holder[0] and \
                    not stop.is_set():
                _execute(client, next(op_counter))
        finally:
            client.close()

    def _open_worker(tickets: "queue.Queue") -> None:
        client = ServeClient(config.host, config.port,
                             timeout=config.request_timeout_s,
                             backpressure_retries=0)
        try:
            while True:
                ticket = tickets.get()
                if ticket is None:
                    return
                _execute(client, ticket)
        finally:
            client.close()

    started_wall = time.perf_counter()
    deadline_holder[0] = started_wall + config.duration_s
    workers: List[threading.Thread] = []
    offered_drops = 0
    try:
        if config.mode == "closed":
            for _ in range(max(1, config.concurrency)):
                thread = threading.Thread(target=_closed_worker, daemon=True)
                thread.start()
                workers.append(thread)
            for thread in workers:
                thread.join(config.duration_s + config.request_timeout_s)
        elif config.mode == "open":
            # Bounded hand-off: a full queue means the workers are all
            # busy AND the backlog allowance is spent — drop the arrival
            # and count it instead of letting the schedule slip.
            tickets: "queue.Queue" = queue.Queue(
                maxsize=max(1, config.concurrency) * 4
            )
            for _ in range(max(1, config.concurrency)):
                thread = threading.Thread(
                    target=_open_worker, args=(tickets,), daemon=True
                )
                thread.start()
                workers.append(thread)
            interval = 1.0 / max(config.rate, 0.001)
            next_fire = started_wall
            while True:
                now = time.perf_counter()
                if now >= deadline_holder[0]:
                    break
                if now < next_fire:
                    time.sleep(min(next_fire - now, 0.05))
                    continue
                next_fire += interval
                op_index = next(op_counter)
                try:
                    tickets.put_nowait(op_index)
                except queue.Full:
                    kind = schedule[op_index % len(schedule)]
                    stats[kind].record_client_drop()
                    offered_drops += 1
            for _ in workers:
                tickets.put(None)
            for thread in workers:
                thread.join(config.request_timeout_s)
        else:
            raise ValueError(
                f"unknown mode {config.mode!r} (expected closed or open)"
            )
    finally:
        stop.set()
    elapsed = time.perf_counter() - started_wall

    endpoints = {
        kind: stat.report() for kind, stat in sorted(stats.items())
    }
    total_ok = sum(stat.histogram.count for stat in stats.values())
    total_errors = sum(stat.errors for stat in stats.values())
    total_backpressure = sum(stat.backpressure for stat in stats.values())
    total = total_ok + total_errors + total_backpressure
    overall = Histogram("loadgen.overall_seconds")
    for stat in stats.values():
        overall.merge(stat.histogram)
    report: Dict[str, Any] = {
        "slo_version": SLO_VERSION,
        "mode": config.mode,
        "duration_s": round(elapsed, 3),
        "concurrency": max(1, config.concurrency),
        "mix": {kind: weight for kind, weight in sorted(mix.items())
                if weight > 0},
        "endpoints": endpoints,
        "overall": {
            "requests": total,
            "ok": total_ok,
            "errors": total_errors,
            "backpressure": total_backpressure,
            "error_rate": round(total_errors / total, 6) if total else 0.0,
            "backpressure_rate": round(total_backpressure / total, 6)
            if total else 0.0,
            "throughput_rps": round(total_ok / elapsed, 3)
            if elapsed > 0 else 0.0,
            "p50_ms": round(overall.p50 * 1000.0, 3) if overall.count
            else None,
            "p99_ms": round(overall.p99 * 1000.0, 3) if overall.count
            else None,
        },
        # In a closed loop the workers are never idle, so achieved
        # throughput is the saturation estimate at this concurrency; an
        # open loop measures offered-rate behavior instead.
        "saturation_rps": round(total_ok / elapsed, 3)
        if (config.mode == "closed" and elapsed > 0) else None,
    }
    if config.mode == "open":
        report["offered_rate_rps"] = config.rate
        report["client_drops"] = offered_drops
    return report


def build_loadgen_envelope(
    report: Dict[str, Any], meta: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """The report wrapped in the standard versioned envelope."""
    return build_envelope("loadgen", data=report, meta=meta)


def slo_line(report: Dict[str, Any]) -> str:
    """The one-line summary CI publishes to the job summary."""
    overall = report["overall"]
    saturation = report.get("saturation_rps")
    parts = [
        f"mode={report['mode']}",
        f"requests={overall['requests']}",
        f"ok={overall['ok']}",
        f"p50={overall['p50_ms']}ms",
        f"p99={overall['p99_ms']}ms",
        f"throughput={overall['throughput_rps']}rps",
        f"errors={overall['errors']}",
        f"backpressure={overall['backpressure']}",
    ]
    if saturation is not None:
        parts.append(f"saturation={saturation}rps")
    return "SLO: " + " ".join(parts)


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable table plus the CI ``SLO:`` line."""
    lines = [
        f"loadgen: {report['mode']} loop, "
        f"{report['duration_s']}s x {report['concurrency']} workers",
        f"{'endpoint':<10} {'reqs':>6} {'ok':>6} {'err':>5} {'bp':>5} "
        f"{'p50 ms':>9} {'p90 ms':>9} {'p99 ms':>9} {'max ms':>9}",
    ]
    for kind, doc in report["endpoints"].items():
        lines.append(
            f"{kind:<10} {doc['requests']:>6} {doc['ok']:>6} "
            f"{doc['errors']:>5} {doc['backpressure']:>5} "
            f"{doc.get('p50_ms', '-'):>9} {doc.get('p90_ms', '-'):>9} "
            f"{doc.get('p99_ms', '-'):>9} {doc.get('max_ms', '-'):>9}"
        )
    lines.append(slo_line(report))
    return "\n".join(lines)
