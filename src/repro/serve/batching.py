"""Micro-batching and in-flight deduplication for the serving daemon.

The workload shape the daemon exists for — many small cost/compile/
simulate queries sharing warm state — rewards two queueing tricks:

* **micro-batching**: requests arriving within one short window are
  drained together and executed as one batch on the dispatcher thread,
  so per-dispatch overhead (the thread hop) is paid per *batch*, not
  per request;
* **deduplication**: identical queries (same :func:`repro.api.dedup_key`)
  that are queued or executing coalesce onto one computation — every
  waiter receives the same result object.  The API's runners are
  deterministic, so coalescing is invisible to callers.

The batcher also owns the daemon's **backpressure**: the pending queue
is bounded, and a submit against a full queue raises :class:`QueueFull`
— the HTTP layer turns that into ``429 Retry-After`` rather than
letting latency grow without bound.

Everything here runs on the asyncio event loop except the batch bodies
themselves, which execute on a single dispatcher thread (keeping the
warm :func:`~repro.analysis.sweep.default_engine` and compile caches
accessed from one compute thread at a time).
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import MetricsRegistry

__all__ = ["MicroBatcher", "QueueFull"]


class QueueFull(RuntimeError):
    """The pending queue is at capacity; the caller should retry later."""


class MicroBatcher:
    """Coalescing, bounded, windowed dispatcher for API requests.

    Parameters
    ----------
    runner:
        ``runner(requests, request_ids) -> outcomes`` executed on the
        dispatcher thread; ``request_ids`` is one list of correlation
        ids per request (coalesced waiters contribute theirs to the
        same list).  Must return one outcome per request, in order, and
        never raise for per-request failures (wrap them in the outcome)
        — a raise fails the whole batch.
    max_queue:
        Bound on *pending* (not yet executing) requests; beyond it
        :meth:`submit` raises :class:`QueueFull`.
    window_s:
        How long the dispatcher waits after the first enqueue before
        draining a batch — the micro-batching window.
    max_batch:
        Largest batch handed to ``runner`` in one call.
    metrics:
        Optional registry: ``serve.queue_depth`` gauge,
        ``serve.dedup_hits``/``serve.batches`` counters and a
        ``serve.batch_size`` histogram land here.
    """

    def __init__(
        self,
        runner: Callable[[Sequence[Any], Sequence[List[str]]], List[Any]],
        *,
        max_queue: int = 64,
        window_s: float = 0.005,
        max_batch: int = 16,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.runner = runner
        self.max_queue = max_queue
        self.window_s = window_s
        self.max_batch = max_batch
        self.metrics = metrics
        self.submitted = 0
        self.deduped = 0
        self.batches = 0
        self.executed = 0
        # Pending/in-flight entries carry the mutable list of member
        # request ids so coalesced waiters correlate to the one batch
        # that serves them all.
        self._pending: Deque[
            Tuple[str, Any, asyncio.Future, List[str]]
        ] = deque()
        self._inflight: Dict[str, Tuple[asyncio.Future, List[str]]] = {}
        self._wakeup: Optional[asyncio.Event] = None
        self._task: Optional[asyncio.Task] = None
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-dispatch"
        )
        self._idle: Optional[asyncio.Event] = None

    # --- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Create the dispatch task on the running loop."""
        self._wakeup = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._task = asyncio.get_running_loop().create_task(
            self._dispatch_loop()
        )

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until nothing is pending or executing.

        Returns ``True`` on a clean drain, ``False`` if ``timeout``
        expired first (work may still be running).
        """
        assert self._idle is not None, "batcher not started"
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
        except asyncio.TimeoutError:
            return False
        return True

    async def stop(self) -> None:
        """Cancel the dispatch task and release the dispatcher thread."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        self._pool.shutdown(wait=True)

    # --- queueing -------------------------------------------------------

    @property
    def depth(self) -> int:
        """Requests currently pending (queued, not yet executing)."""
        return len(self._pending)

    def stats(self) -> Dict[str, int]:
        """Submission/dedup/batch counters, for ``/v1/stats`` and tests."""
        return {
            "submitted": self.submitted,
            "deduped": self.deduped,
            "batches": self.batches,
            "executed": self.executed,
            "queue_depth": len(self._pending),
        }

    def _gauge_depth(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("serve.queue_depth").set(len(self._pending))

    def submit(
        self, key: str, request: Any, request_id: Optional[str] = None
    ) -> "asyncio.Future":
        """Enqueue ``request`` (or coalesce onto an identical in-flight
        one); returns the future every coalesced waiter shares.

        ``request_id`` joins the member-id list of whichever batch entry
        serves this waiter — coalesced requests share one computation
        but each keeps its own correlation id.

        Must be called from the event-loop thread.  Raises
        :class:`QueueFull` when the pending queue is at capacity.
        """
        self.submitted += 1
        existing = self._inflight.get(key)
        if existing is not None and not existing[0].done():
            self.deduped += 1
            if request_id is not None:
                existing[1].append(request_id)
            if self.metrics is not None:
                self.metrics.counter("serve.dedup_hits").inc()
            return existing[0]
        if len(self._pending) >= self.max_queue:
            raise QueueFull(
                f"pending queue at capacity ({self.max_queue} requests)"
            )
        future = asyncio.get_running_loop().create_future()
        request_ids: List[str] = [] if request_id is None else [request_id]
        self._inflight[key] = (future, request_ids)
        self._pending.append((key, request, future, request_ids))
        self._gauge_depth()
        assert self._wakeup is not None and self._idle is not None
        self._idle.clear()
        self._wakeup.set()
        return future

    # --- dispatch -------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._wakeup is not None and self._idle is not None
        loop = asyncio.get_running_loop()
        while True:
            await self._wakeup.wait()
            if not self._pending:
                self._wakeup.clear()
                self._idle.set()
                continue
            if self.window_s > 0:
                await asyncio.sleep(self.window_s)
            batch: List[Tuple[str, Any, asyncio.Future, List[str]]] = []
            while self._pending and len(batch) < self.max_batch:
                batch.append(self._pending.popleft())
            self._gauge_depth()
            if not self._pending:
                self._wakeup.clear()
            if not batch:
                continue
            self.batches += 1
            if self.metrics is not None:
                self.metrics.counter("serve.batches").inc()
                self.metrics.histogram("serve.batch_size").observe(len(batch))
            requests = [request for _, request, _, _ in batch]
            # Snapshot the id lists *after* the drain: coalesces that
            # arrive later attach to a fresh entry, so these lists are
            # complete for this batch.
            request_ids = [list(rids) for _, _, _, rids in batch]
            started = time.perf_counter()
            try:
                outcomes = await loop.run_in_executor(
                    self._pool, self.runner, requests, request_ids
                )
            except asyncio.CancelledError:
                for _, _, future, _ in batch:
                    if not future.done():
                        future.cancel()
                raise
            except BaseException as exc:  # runner bug: fail the batch
                for key, _, future, _ in batch:
                    if not future.done():
                        future.set_exception(exc)
                    self._forget(key, future)
                continue
            if self.metrics is not None:
                self.metrics.histogram("serve.batch_seconds").observe(
                    time.perf_counter() - started
                )
            for (key, _, future, _), outcome in zip(batch, outcomes):
                self.executed += 1
                if not future.done():
                    future.set_result(outcome)
                self._forget(key, future)
            if not self._pending:
                self._idle.set()

    def _forget(self, key: str, future: "asyncio.Future") -> None:
        """Drop the in-flight entry once its computation completed (a
        *new* identical request afterwards recomputes — and hits the
        warm caches — rather than reusing a stale future forever)."""
        entry = self._inflight.get(key)
        if entry is not None and entry[0] is future:
            del self._inflight[key]
