"""The async job layer: persistent sweep jobs that survive a restart.

``POST /v1/jobs`` accepts any :class:`~repro.api.SweepRequest` and
answers immediately with a job id; a single runner thread then walks
the job's primitive grid points **one at a time**, interleaving points
across tenants under the fair-share scheduler
(:mod:`repro.serve.tenancy`).  Each point executes through the sweep
engine's memoizing primitives — the exact code path a synchronous
sweep takes — so every completed point lands in the engine memo.  The
final assembly step then replays the whole sweep out of the memo,
which is why a job's result is byte-identical to the synchronous
``/v1/sweeps`` route.  After a daemon crash the new process re-queues
the job and recomputes its points; the recurrence is deterministic, so
the result is the same bytes, and each re-run compile is a disk hit
when the compile cache is on.

State machine (persisted per transition, one atomic JSON file per job
under the job directory)::

    queued ──> running ──> done
       │          │  └───> failed
       │          └──────> cancelled
       └─────────────────> cancelled

    (restart: running ──> queued, points recompute)
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..api import (
    AnyRequest,
    ApiError,
    CompileRequest,
    JobRequest,
    JobStatus,
    SimulateRequest,
    SweepRequest,
    SweepResult,
    dedup_key,
)
from ..obs.log import bind_request_id, get_logger, log_event
from .tenancy import FairShareScheduler, Tenant, TenantRegistry

__all__ = [
    "JobManager",
    "JobRecord",
    "JobStore",
    "compute_point",
    "count_sweep_points",
    "default_job_dir",
    "expand_sweep_points",
]

#: Bump when the persisted job layout changes (old files are skipped).
STORE_SCHEMA_VERSION = 1


def expand_sweep_points(request: SweepRequest) -> List[AnyRequest]:
    """The primitive grid points one sweep target resolves through.

    Exactly the grids :func:`repro.api.run_sweep` walks (baselines
    included), expressed as API point requests.  Duplicates are removed
    with first-occurrence order preserved — ``dedup_key`` equality
    means result equality, so one computation serves every occurrence.
    """
    from ..analysis.perf import (
        BASELINE,
        FIG13_N_VALUES,
        FIG14_C_VALUES,
        FIG15_N_VALUES,
        TABLE5_C_VALUES,
        TABLE5_N_VALUES,
    )
    from ..apps.suite import APPLICATION_ORDER
    from ..kernels.suite import PERFORMANCE_SUITE

    base_c, base_n = BASELINE
    # A kernel-restricted study (SweepRequest.kernel) walks the same
    # grid as the full suite — its points just cover one kernel.
    suite = (request.kernel,) if request.kernel else PERFORMANCE_SUITE
    configs: List[Tuple[int, int]]
    points: List[AnyRequest] = []
    if request.target == "fig13":
        configs = [(base_c, base_n)] + [(base_c, n) for n in FIG13_N_VALUES]
        points = [
            CompileRequest(kernel, c, n)
            for kernel in suite
            for c, n in configs
        ]
    elif request.target == "fig14":
        configs = [(base_c, base_n)] + [(c, base_n) for c in FIG14_C_VALUES]
        points = [
            CompileRequest(kernel, c, n)
            for kernel in suite
            for c, n in configs
        ]
    elif request.target == "table5":
        points = [
            CompileRequest(kernel, c, n)
            for kernel in suite
            for n in TABLE5_N_VALUES
            for c in TABLE5_C_VALUES
        ]
    elif request.target == "fig15":
        configs = [(base_c, base_n)] + [
            (c, n) for n in FIG15_N_VALUES for c in FIG14_C_VALUES
        ]
        points = [
            SimulateRequest(app, c, n)
            for app in APPLICATION_ORDER
            for c, n in configs
        ]
    elif request.target == "headline":
        # H1/H2 machines (C=128, N=5/10) versus the baseline.
        configs = [(base_c, base_n), (128, 5), (128, 10)]
        points = [
            CompileRequest(kernel, c, n)
            for kernel in PERFORMANCE_SUITE
            for c, n in configs
        ]
        if request.apps:
            points.extend(
                SimulateRequest(app, c, n)
                for app in APPLICATION_ORDER
                for c, n in configs
            )
    else:  # pragma: no cover - validate_request rejects earlier
        raise ApiError(f"unknown sweep target {request.target!r}")

    seen = set()
    unique: List[AnyRequest] = []
    for point in points:
        key = dedup_key(point)
        if key not in seen:
            seen.add(key)
            unique.append(point)
    return unique


def count_sweep_points(sweep: SweepRequest) -> int:
    """How many primitive grid points one sweep resolves through: the
    unit quotas and fair-share weights are denominated in."""
    return len(expand_sweep_points(sweep))


def compute_point(point: AnyRequest) -> None:
    """Fill the engine memo for one point.

    The exact code path a synchronous sweep takes —
    ``engine.kernel_rate`` / ``engine.simulate_application`` memoize,
    so the job runner, walking a sweep's points one at a time, leaves
    the final assembly all memo hits.
    """
    from ..analysis.sweep import default_engine
    from ..core.config import ProcessorConfig
    from ..core.params import TECH_45NM

    engine = default_engine()
    if isinstance(point, CompileRequest):
        engine.kernel_rate(
            point.kernel, ProcessorConfig(point.clusters, point.alus)
        )
    else:
        engine.simulate_application(
            point.application,
            ProcessorConfig(point.clusters, point.alus),
            TECH_45NM,
            point.clock_ghz,
        )


@dataclass
class JobRecord:
    """One job's full runtime state (the store persists a projection)."""

    job_id: str
    tenant: str
    sweep: SweepRequest
    state: str = "queued"
    points_total: int = 0
    points_done: int = 0
    error: str = ""
    result: Optional[Dict[str, Any]] = None
    seq: int = 0
    submitted_unix: float = 0.0
    queue_wait_s: Optional[float] = None
    run_s: Optional[float] = None
    #: Runtime-only: the not-yet-executed point requests (None until
    #: the runner first picks the job up).
    pending: Optional[Deque[Any]] = None
    cancel: threading.Event = field(default_factory=threading.Event)
    _started_monotonic: float = 0.0
    _submitted_monotonic: Optional[float] = None

    def status(self) -> JobStatus:
        return JobStatus(
            job_id=self.job_id,
            state=self.state,
            tenant=self.tenant,
            target=self.sweep.target,
            kernel=self.sweep.kernel,
            points_total=self.points_total,
            points_done=self.points_done,
            error=self.error,
        )

    def meta(self) -> Dict[str, Any]:
        """Volatile wall-clock facts, for envelope ``meta``."""
        out: Dict[str, Any] = {}
        if self.queue_wait_s is not None:
            out["queue_wait_ms"] = round(self.queue_wait_s * 1000.0, 3)
        if self.run_s is not None:
            out["run_ms"] = round(self.run_s * 1000.0, 3)
        return out

    def to_persist(self) -> Dict[str, Any]:
        return {
            "schema_version": STORE_SCHEMA_VERSION,
            "job_id": self.job_id,
            "tenant": self.tenant,
            "sweep": self.sweep.to_dict(),
            "state": self.state,
            "points_total": self.points_total,
            "points_done": self.points_done,
            "error": self.error,
            "result": self.result,
            "seq": self.seq,
            "submitted_unix": self.submitted_unix,
            "queue_wait_s": self.queue_wait_s,
            "run_s": self.run_s,
        }

    @classmethod
    def from_persist(cls, data: Dict[str, Any]) -> "JobRecord":
        sweep = SweepRequest.from_dict(data["sweep"])
        record = cls(
            job_id=str(data["job_id"]),
            tenant=str(data["tenant"]),
            sweep=sweep,  # type: ignore[arg-type]
            state=str(data["state"]),
            points_total=int(data.get("points_total", 0)),
            points_done=int(data.get("points_done", 0)),
            error=str(data.get("error", "")),
            result=data.get("result"),
            seq=int(data.get("seq", 0)),
            submitted_unix=float(data.get("submitted_unix", 0.0)),
            queue_wait_s=data.get("queue_wait_s"),
            run_s=data.get("run_s"),
        )
        return record


def default_job_dir() -> Path:
    """Where ``repro serve`` persists jobs: ``$REPRO_JOB_DIR``, else
    ``$XDG_CACHE_HOME/repro-stream/jobs`` (``~/.cache`` when unset)."""
    override = os.environ.get("REPRO_JOB_DIR")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "repro-stream" / "jobs"


class JobStore:
    """One directory of job files, written atomically per transition.

    ``root=None`` builds a memory-only store (in-process test servers):
    saves are no-ops and :meth:`load_all` yields nothing, so the
    manager never branches on persistence.  Follows the compile
    cache's storage discipline — tempfile + ``os.replace`` in the
    target directory, damaged files skipped on load.
    """

    def __init__(self, root: Optional[Path]):
        self.root = Path(root).expanduser() if root is not None else None

    @property
    def enabled(self) -> bool:
        return self.root is not None

    def _path(self, job_id: str) -> Path:
        assert self.root is not None
        return self.root / f"{job_id}.json"

    def save(self, record: JobRecord) -> None:
        if self.root is None:
            return
        import json
        import tempfile

        self.root.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(record.to_persist(), sort_keys=True)
        fd, temp_name = tempfile.mkstemp(
            dir=str(self.root), prefix=f".{record.job_id}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(temp_name, self._path(record.job_id))
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

    def load_all(self) -> List[JobRecord]:
        """Every readable job file, oldest submission first."""
        if self.root is None or not self.root.is_dir():
            return []
        import json

        records: List[JobRecord] = []
        for path in sorted(self.root.glob("job-*.json")):
            try:
                data = json.loads(path.read_text())
                if data.get("schema_version") != STORE_SCHEMA_VERSION:
                    continue
                records.append(JobRecord.from_persist(data))
            except (OSError, ValueError, KeyError, ApiError):
                continue
        records.sort(key=lambda r: (r.seq, r.job_id))
        return records


class JobManager:
    """Owns the job table, the fair-share queue, and the runner thread.

    ``point_runner`` and ``assemble`` are injectable for the clocked
    scheduler tests; the defaults are the real engine paths
    (:func:`compute_point` and :func:`repro.api.execute`).
    """

    def __init__(
        self,
        store: JobStore,
        registry: TenantRegistry,
        metrics=None,
        bus=None,
        point_runner: Optional[Callable[[Any], None]] = None,
        assemble: Optional[Callable[[SweepRequest], SweepResult]] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.store = store
        self.registry = registry
        self.metrics = metrics
        self._bus = bus
        self._point_runner = point_runner
        self._assemble = assemble
        self._clock = clock
        self._log = get_logger("jobs")
        self._jobs: Dict[str, JobRecord] = {}
        self._scheduler = FairShareScheduler()
        self._lock = threading.RLock()
        self._seq = 0
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # --- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Load persisted jobs (interrupted ones re-queue) and start
        the runner thread."""
        restored = 0
        for record in self.store.load_all():
            with self._lock:
                self._seq = max(self._seq, record.seq + 1)
                self._jobs[record.job_id] = record
            if record.state in ("queued", "running"):
                record.state = "queued"
                record.points_done = 0
                self.store.save(record)
                weight = self._weight(record.tenant)
                self._scheduler.enqueue(record.tenant, weight, record.job_id)
                restored += 1
        if restored:
            log_event(self._log, "jobs.restored", count=restored)
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="job-runner", daemon=True
        )
        self._thread.start()
        self._wake.set()

    def stop(self, timeout: float = 10.0) -> None:
        """Stop after the in-flight point; interrupted jobs stay
        ``running`` on disk and re-queue on the next start."""
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def _weight(self, tenant_name: str) -> float:
        tenant = self.registry.get(tenant_name)
        return tenant.weight if tenant is not None else 1.0

    # --- submission / queries -------------------------------------------

    def submit(
        self, tenant: Tenant, request: JobRequest, points: int
    ) -> JobRecord:
        """Admit one already-authorized job into the queue."""
        sweep = request.sweep_request()
        with self._lock:
            seq = self._seq
            self._seq += 1
            record = JobRecord(
                job_id=f"job-{uuid.uuid4().hex[:12]}",
                tenant=tenant.name,
                sweep=sweep,
                points_total=points,
                seq=seq,
                submitted_unix=time.time(),
            )
            record._submitted_monotonic = self._clock()
            self._jobs[record.job_id] = record
        self.store.save(record)
        self._count("serve.jobs.submitted")
        self._publish(
            "job_state", record, state="queued"
        )
        self._scheduler.enqueue(tenant.name, tenant.weight, record.job_id)
        self._wake.set()
        return record

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._jobs.get(job_id)

    def list(self, tenant: Optional[str] = None) -> List[JobRecord]:
        with self._lock:
            records = sorted(
                self._jobs.values(), key=lambda r: (r.seq, r.job_id)
            )
        if tenant is not None:
            records = [r for r in records if r.tenant == tenant]
        return records

    def cancel(self, job_id: str) -> Tuple[bool, str]:
        """Request cancellation; ``(False, reason)`` once terminal."""
        record = self.get(job_id)
        if record is None:
            return False, "not_found"
        with self._lock:
            if record.state in ("done", "failed", "cancelled"):
                return False, "conflict"
            record.cancel.set()
        self._wake.set()
        # A queued job cancels immediately (the runner may be blocked
        # on another tenant's long point; don't make the caller wait).
        if record.state == "queued":
            self._finalize(record, "cancelled")
            self._scheduler.finish(record.tenant, record.job_id)
        return True, ""

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            states: Dict[str, int] = {}
            for record in self._jobs.values():
                states[record.state] = states.get(record.state, 0) + 1
        return {"jobs": states, "queued_points": self._scheduler.pending()}

    # --- runner ---------------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.is_set():
            picked = self._scheduler.next()
            if picked is None:
                self._wake.wait(0.1)
                self._wake.clear()
                continue
            tenant_name, job_id = picked
            record = self.get(job_id)
            if record is None or record.state in (
                "done", "failed", "cancelled"
            ):
                self._scheduler.finish(tenant_name, job_id)
                continue
            try:
                finished = self._advance(record)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:  # runner must survive any job bug
                self._finalize(
                    record, "failed",
                    error=f"{type(exc).__name__}: {exc}",
                )
                finished = True
            if finished:
                self._scheduler.finish(tenant_name, job_id)

    def _advance(self, record: JobRecord) -> bool:
        """Run one scheduling quantum of ``record``: its state
        transition, one point, or the final assembly.  Returns ``True``
        once the job left the queue."""
        if record.cancel.is_set():
            self._finalize(record, "cancelled")
            return True
        if record.state == "queued":
            record.state = "running"
            record._started_monotonic = self._clock()
            submitted = record._submitted_monotonic
            if submitted is not None:
                record.queue_wait_s = max(
                    0.0, record._started_monotonic - submitted
                )
                if self.metrics is not None:
                    self.metrics.histogram(
                        "serve.jobs.queue_wait_seconds"
                    ).observe(record.queue_wait_s)
            self.store.save(record)
            self._publish("job_state", record, state="running")
            record.pending = deque(expand_sweep_points(record.sweep))
            return False
        if record.pending:
            point = record.pending.popleft()
            ok, error = self._run_point(record, point)
            if record.cancel.is_set():
                self._finalize(record, "cancelled")
                return True
            if not ok:
                self._finalize(record, "failed", error=error)
                return True
            record.points_done += 1
            self._count("serve.jobs.points")
            self._count(f"serve.jobs.points.{record.tenant}")
            self.store.save(record)
            self._scheduler.charge(record.tenant, 1.0)
            self._publish(
                "job_point", record,
                done=record.points_done, total=record.points_total,
            )
            return False
        return self._finish_assembly(record)

    def _finish_assembly(self, record: JobRecord) -> bool:
        """Assemble the final rows (all memo hits for simulated jobs)."""
        with bind_request_id(record.job_id):
            try:
                result = self._run_assemble(record.sweep)
            except ApiError as exc:
                self._finalize(record, "failed", error=str(exc))
                return True
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                self._finalize(
                    record, "failed",
                    error=f"{type(exc).__name__}: {exc}",
                )
                return True
        record.result = result.to_dict()
        record.points_done = record.points_total
        self._finalize(record, "done")
        return True

    def _finalize(
        self, record: JobRecord, state: str, error: str = ""
    ) -> None:
        record.state = state
        record.error = error
        if record._started_monotonic:
            record.run_s = max(
                0.0, self._clock() - record._started_monotonic
            )
        self.store.save(record)
        self._count(f"serve.jobs.{state}")
        self._publish("job_state", record, state=state)
        self._publish(
            "job_end", record, state=state,
            **({"error": error} if error else {}),
        )
        log_event(
            self._log, "jobs.finished",
            job_id=record.job_id, tenant=record.tenant, state=state,
            points=record.points_done, error=error or None,
        )

    # --- execution plumbing ---------------------------------------------

    def _run_point(self, record: JobRecord, point: Any) -> Tuple[bool, str]:
        """One point into the engine memo."""
        runner = self._point_runner or compute_point
        try:
            with bind_request_id(record.job_id):
                runner(point)
            return True, ""
        except ApiError as exc:
            return False, str(exc)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            return False, f"{type(exc).__name__}: {exc}"

    def _run_assemble(self, sweep: SweepRequest) -> SweepResult:
        if self._assemble is not None:
            return self._assemble(sweep)
        from ..api import execute

        return execute(sweep)  # type: ignore[return-value]

    # --- observability ---------------------------------------------------

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def _publish(self, event: str, record: JobRecord, **fields) -> None:
        if self._bus is None:
            return
        self._bus.publish(
            event,
            request_id=record.job_id,
            job_id=record.job_id,
            tenant=record.tenant,
            target=record.sweep.target,
            **fields,
        )
