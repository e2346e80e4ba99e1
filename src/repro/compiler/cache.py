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
:func:`schedule_key` is a SHA-256 over three ingredients — everything a
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
  per N.

:func:`schedule_key` is the disk key.  The in-memory schedule memo of
:func:`repro.compiler.pipeline.compile_kernel` keys on the same
ingredients left unhashed — the tuple ``(kernel_signature,
machine_view, unroll)`` — so a memory hit costs no JSON and no
SHA-256.  ``schedule_key`` is computed only when the persistent cache
is enabled and the memory memo missed.

The key leaves out the compiler itself.  Each entry carries a
**compiler fingerprint** instead (:func:`compiler_fingerprint`, a hash
of the compiler's own source code), checked on load: after a compiler
edit an entry is a miss that evicts it, and the recompile writes the
fresh schedule back under the same key, so a stale schedule never
survives a compiler edit and never outlives it on disk either.

Storage
-------
Entries live in a :class:`repro.store.EntryStore` (atomic writes,
checksummed corruption-tolerant reads, eviction); this module adds the
compiler fingerprint and the key to each entry and checks both on
load, so an entry from another compiler version is a miss.  The cache
keeps hit/miss/evict/write counters (:meth:`ScheduleCache.stats`).

Environment
-----------
The cache lives in ``$XDG_CACHE_HOME/repro-stream/schedules``
(``~/.cache/repro-stream/schedules`` when unset).
``REPRO_COMPILE_CACHE``
    set to ``0``/``off``/``no`` to disable the persistent cache.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..isa.kernel import KernelGraph
from ..store import EntryStore, default_root
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

#: Compiler modules whose source participates in the fingerprint: any
#: edit to the scheduling/costing code makes every entry stale.
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
        digest = hashlib.sha256()
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
    depends on (see :func:`machine_view`) but the compiler, whose
    fingerprint each entry carries instead."""
    digest = hashlib.sha256()
    digest.update(kernel_signature(kernel).encode())
    digest.update(json.dumps(machine_view(kernel, machine)).encode())
    digest.update(f"unroll:{unroll_factor}".encode())
    return digest.hexdigest()


class ScheduleCache(EntryStore):
    """Content-addressed on-disk store of compiled schedules.

    ``root=None`` builds a disabled cache: every lookup misses, every
    store is a no-op — callers never need to branch on enablement.
    """

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

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """The payload stored under ``key``, or ``None``.

        Anything unreadable — missing file, bad JSON, wrong version,
        checksum mismatch, stale compiler fingerprint, another key — is
        a miss; invalid files are additionally evicted so they are not
        re-parsed on every lookup, and the recompile that follows a
        stale entry's miss writes its key afresh.
        """

        def check(payload: Dict[str, Any]) -> Dict[str, Any]:
            if payload.get("fingerprint") != compiler_fingerprint():
                raise ValueError("compiler fingerprint mismatch")
            if payload.get("key") != key:
                raise ValueError("key mismatch")
            return payload

        return self.read(key, check)

    def store(self, key: str, payload: Dict[str, Any]) -> None:
        """Persist ``payload`` under ``key`` with this compiler's
        fingerprint (best effort: an unwritable cache directory degrades
        to a no-op, it never fails the compile)."""
        self.write(key, {
            **payload, "fingerprint": compiler_fingerprint(), "key": key,
        })


# --- process-wide default cache ----------------------------------------

_default_cache: Optional[ScheduleCache] = None


def default_cache() -> ScheduleCache:
    """The process-wide cache :func:`repro.compiler.compile_kernel` uses."""
    if _default_cache is None:
        return configure_default_cache()
    return _default_cache


def configure_default_cache(
    cache_dir: Optional[os.PathLike] = None, enabled: bool = True
) -> ScheduleCache:
    """Re-point (or disable) the process-wide cache.

    For tests and embedding code; the CLI and the daemon take the
    environment's setting (``XDG_CACHE_HOME``, ``REPRO_COMPILE_CACHE``).
    Returns the new cache.
    """
    global _default_cache
    if not enabled:
        cache_dir = None
    elif cache_dir is None:
        cache_dir = default_root("schedules", "REPRO_COMPILE_CACHE")
    _default_cache = ScheduleCache(cache_dir)
    return _default_cache
