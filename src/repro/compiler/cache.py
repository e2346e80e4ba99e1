"""Persistent, content-addressed schedule cache for kernel compiles.

The performance studies (Figures 13-15, Table 5) recompile every suite
kernel for every (C, N) machine point.  Within one process the in-memory
memos in :mod:`repro.compiler.pipeline` already deduplicate that work,
but every *fresh* process — CI jobs, ``repro report``, notebook restarts
— used to pay the full modulo-scheduling bill again.  This module stores
verified schedules on disk so each distinct schedule is compiled
exactly once, ever.

Keying
------
:func:`schedule_key` is a SHA-256 over four ingredients — everything a
schedule depends on, and nothing else:

* the **kernel dataflow graph** (opcodes, operand edges, recurrences —
  together with the unroll factor this determines the scheduler's
  :class:`~repro.compiler.unroll.SchedGraph` exactly),
* the **unroll factor** the compile starts from,
* the kernel's **view of the machine** (:func:`machine_view`): the
  issue resource and latency of each opcode the kernel uses, the issue
  slots of those resources, the total ALU slots and the LRF capacity.
  Cluster count C reaches a kernel only through COMM latency, so a
  kernel that never communicates sees every C alike and compiles once
  per N,
* a **compiler fingerprint**: a hash of the compiler's own source code,
  so any change to the scheduling algorithms invalidates every entry
  automatically — a stale schedule can never survive a compiler edit.

:func:`schedule_key` is the disk key.  The in-memory schedule memo of
:func:`repro.compiler.pipeline.compile_kernel` keys on the same
ingredients left unhashed — the tuple ``(kernel_signature,
machine_view, unroll)``; the fingerprint is constant within a process —
so a memory hit costs no JSON and no SHA-256.  ``schedule_key`` is
computed only when the persistent cache is enabled and the memory memo
missed.

Robustness
----------
* writes are atomic (temp file + ``os.replace``), so a killed process
  never leaves a half-written entry;
* loads are corruption-tolerant: undecodable JSON, schema mismatches,
  checksum failures or stale fingerprints count as misses (the bad file
  is evicted and the kernel recompiled — the cache can never crash a
  compile or return a wrong schedule silently);
* every payload carries a checksum over its canonical body, so a
  bit-flipped entry is detected without re-verifying the schedule.

Observability
-------------
The cache keeps hit/miss/evict/write counters and mirrors them into an
attached :class:`~repro.obs.metrics.MetricsRegistry` as
``compile_cache.{hits,misses,evictions,writes}``.

Environment
-----------
``REPRO_COMPILE_CACHE_DIR``
    overrides the on-disk location (default:
    ``$XDG_CACHE_HOME/repro-stream/schedules`` or
    ``~/.cache/repro-stream/schedules``).
``REPRO_COMPILE_CACHE``
    set to ``0``/``off``/``no`` to disable the persistent cache.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..isa.kernel import KernelGraph
from .machine import MachineDescription

__all__ = [
    "ScheduleCache",
    "compiler_fingerprint",
    "configure_default_cache",
    "default_cache",
    "kernel_signature",
    "machine_view",
    "schedule_key",
]

#: Bump when the payload schema changes (invalidates old entries).
SCHEMA_VERSION = 1

#: Compiler modules whose source participates in the fingerprint: any
#: edit to the scheduling/costing code invalidates the whole cache.
_FINGERPRINT_MODULES = (
    "repro.compiler.cache",
    "repro.compiler.listsched",
    "repro.compiler.machine",
    "repro.compiler.modulo",
    "repro.compiler.pipeline",
    "repro.compiler.pressure",
    "repro.compiler.unroll",
    "repro.isa.ops",
)

_fingerprint_memo: Optional[str] = None


def compiler_fingerprint() -> str:
    """Hash of the compiler's source code (memoized per process)."""
    global _fingerprint_memo
    if _fingerprint_memo is None:
        digest = hashlib.sha256(f"schema:{SCHEMA_VERSION}".encode())
        for name in _FINGERPRINT_MODULES:
            module = importlib.import_module(name)
            digest.update(name.encode())
            digest.update(Path(module.__file__).read_bytes())
        _fingerprint_memo = digest.hexdigest()
    return _fingerprint_memo


# --- stable signatures --------------------------------------------------

#: Kernel-signature memo: id(kernel) -> (node/recurrence counts, digest).
#: The kernel object is pinned so ids stay unique for the process life.
_kernel_signatures: Dict[int, Tuple[Tuple[int, int], str, KernelGraph]] = {}


def kernel_signature(kernel: KernelGraph) -> str:
    """Stable content hash of a kernel's dataflow graph.

    Covers exactly what scheduling depends on: the opcode sequence, the
    operand edges and the loop-carried recurrences.  (Node labels and
    constant values do not affect schedules and are excluded, so
    renaming a value cannot cause a spurious recompile.)
    """
    guard = (len(kernel), kernel.recurrence_count)
    memo = _kernel_signatures.get(id(kernel))
    if memo is not None and memo[0] == guard:
        return memo[1]
    digest = hashlib.sha256(kernel.name.encode())
    for node in kernel.nodes:
        digest.update(node.opcode.mnemonic.encode())
        digest.update(b",".join(str(i).encode() for i in node.operands))
        digest.update(b";")
    for rec in kernel.recurrences:
        digest.update(f"r{rec.source}>{rec.target}@{rec.distance}".encode())
    signature = digest.hexdigest()
    _kernel_signatures[id(kernel)] = (guard, signature, kernel)
    return signature


def machine_view(kernel: KernelGraph, machine: MachineDescription) -> Tuple:
    """``kernel``'s view of ``machine``: all that its schedule reads.

    The scheduler sees the machine only through the issue resource and
    latency of each opcode the kernel uses, the issue slots of those
    resources, the total ALU slots (the unroll choice) and the register
    capacity (the MaxLive bound).  Two machines with the same view give
    the kernel the same schedule.
    """
    entry = machine.opcode_entry
    ops = tuple([entry[op.mnemonic] for op in kernel.distinct_opcodes()])
    resources = {res for _, res, _ in ops}
    resources.discard(None)
    slots_of = machine.slots_of
    return (
        ops,
        tuple([(res, slots_of(res)) for res in sorted(resources)]),
        machine.alu_slots,
        machine.register_capacity,
    )


def schedule_key(
    kernel: KernelGraph, machine: MachineDescription, unroll_factor: int
) -> str:
    """The content address of one compile: everything its schedule
    depends on (see :func:`machine_view`)."""
    digest = hashlib.sha256()
    digest.update(compiler_fingerprint().encode())
    digest.update(kernel_signature(kernel).encode())
    digest.update(json.dumps(machine_view(kernel, machine)).encode())
    digest.update(f"unroll:{unroll_factor}".encode())
    return digest.hexdigest()


def _payload_checksum(payload: Dict[str, Any]) -> str:
    body = {k: v for k, v in payload.items() if k != "checksum"}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()
    ).hexdigest()


class ScheduleCache:
    """Content-addressed on-disk store of compiled schedules.

    ``root=None`` builds a disabled cache: every lookup misses, every
    store is a no-op — callers never need to branch on enablement.
    """

    def __init__(self, root: Optional[Path]):
        self.root = Path(root) if root is not None else None
        self.metrics = None  # optional MetricsRegistry, see attach_metrics
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writes = 0

    @property
    def enabled(self) -> bool:
        return self.root is not None

    def attach_metrics(self, registry) -> None:
        """Mirror counters into ``registry`` from now on."""
        self.metrics = registry

    def _count(self, outcome: str) -> None:
        setattr(self, outcome, getattr(self, outcome) + 1)
        if self.metrics is not None:
            self.metrics.counter(f"compile_cache.{outcome}").inc()

    def stats(self) -> Dict[str, int]:
        """Hit/miss/evict/write counters, for reports and tests."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "writes": self.writes,
        }

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0.0 before any lookup).

        The serving daemon's ``/v1/stats`` endpoint and the CI smoke
        job read this to prove steady-state traffic is cache-bound.
        """
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    # --- storage ----------------------------------------------------------

    def _path(self, key: str) -> Path:
        assert self.root is not None
        return self.root / f"v{SCHEMA_VERSION}" / key[:2] / f"{key}.json"

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """The payload stored under ``key``, or ``None``.

        Anything unreadable — missing file, bad JSON, wrong schema
        version, stale compiler fingerprint, checksum mismatch — is a
        miss; invalid files are additionally evicted so they are not
        re-parsed on every lookup.
        """
        if self.root is None:
            return None
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            self._count("misses")
            return None
        try:
            # Decode inside the corruption guard: a bit-flipped entry
            # may not even be valid UTF-8 (UnicodeDecodeError is a
            # ValueError, so it lands in the except below).
            payload = json.loads(raw.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("payload is not an object")
            if payload.get("version") != SCHEMA_VERSION:
                raise ValueError("schema version mismatch")
            if payload.get("fingerprint") != compiler_fingerprint():
                raise ValueError("compiler fingerprint mismatch")
            if payload.get("key") != key:
                raise ValueError("key mismatch")
            if payload.get("checksum") != _payload_checksum(payload):
                raise ValueError("checksum mismatch")
        except (ValueError, TypeError, KeyError):
            self.evict(key)
            self._count("misses")
            return None
        self._count("hits")
        return payload

    def store(self, key: str, payload: Dict[str, Any]) -> None:
        """Atomically persist ``payload`` under ``key`` (best effort:
        an unwritable cache directory degrades to a no-op, it never
        fails the compile)."""
        if self.root is None:
            return
        payload = dict(payload)
        payload["version"] = SCHEMA_VERSION
        payload["fingerprint"] = compiler_fingerprint()
        payload["key"] = key
        payload["checksum"] = _payload_checksum(payload)
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(payload, handle)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return
        self._count("writes")

    def evict(self, key: str) -> None:
        """Drop one entry (used for invalid payloads)."""
        if self.root is None:
            return
        try:
            self._path(key).unlink()
        except OSError:
            pass
        self._count("evictions")

    def clear(self) -> None:
        """Delete every entry under this cache's root (counters survive)."""
        if self.root is None:
            return
        version_dir = self.root / f"v{SCHEMA_VERSION}"
        if not version_dir.exists():
            return
        for entry in sorted(version_dir.rglob("*.json")):
            try:
                entry.unlink()
            except OSError:
                pass


# --- process-wide default cache ----------------------------------------

_default_cache: Optional[ScheduleCache] = None


def _default_root() -> Optional[Path]:
    toggle = os.environ.get("REPRO_COMPILE_CACHE", "").strip().lower()
    if toggle in ("0", "off", "no", "false"):
        return None
    override = os.environ.get("REPRO_COMPILE_CACHE_DIR")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "repro-stream" / "schedules"


def default_cache() -> ScheduleCache:
    """The process-wide cache :func:`repro.compiler.compile_kernel` uses."""
    global _default_cache
    if _default_cache is None:
        try:
            _default_cache = ScheduleCache(_default_root())
        except OSError:
            _default_cache = ScheduleCache(None)
    return _default_cache


def configure_default_cache(
    cache_dir: Optional[os.PathLike] = None, enabled: bool = True
) -> ScheduleCache:
    """Re-point (or disable) the process-wide cache.

    For tests and embedding code; the CLI and the daemon take the
    environment's setting (``REPRO_COMPILE_CACHE``,
    ``REPRO_COMPILE_CACHE_DIR``).  Returns the new cache.
    """
    global _default_cache
    if not enabled:
        _default_cache = ScheduleCache(None)
    elif cache_dir is not None:
        _default_cache = ScheduleCache(Path(cache_dir))
    else:
        _default_cache = ScheduleCache(_default_root())
    return _default_cache
