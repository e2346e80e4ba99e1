"""The on-disk store behind the schedule cache and the kernel registry.

Two kinds of artifact outlive a process: compiled schedules
(:class:`repro.compiler.cache.ScheduleCache`) and registered kernel
documents (:class:`repro.frontend.registry.KernelRegistry`).  Both are
clients of :class:`EntryStore`, the one place that knows the entry
format.

Format
------
An entry lives at ``<root>/v1/<key[:2]>/<key>.json``.  It is a JSON
object holding ``version`` (:data:`ENTRY_VERSION`), the client's
fields, and ``checksum``: the SHA-256 of every other field serialized
with sorted keys (:func:`payload_checksum`).

Robustness
----------
* writes are atomic (temp file + ``os.replace``), so a killed process
  never leaves a half-written entry; a write leaves an entry that
  already holds its payload's bytes alone, and rewrites a missing or
  damaged one;
* reads are corruption-tolerant: undecodable JSON, a wrong version, a
  checksum mismatch or a failed client check is a miss, and the bad
  file is evicted so it is not re-parsed on every lookup;
* an unwritable root degrades to a no-op: the store never fails the
  work it backs.

Location
--------
:func:`default_root` gives ``$XDG_CACHE_HOME/repro-stream/<name>``
(``~/.cache`` when ``XDG_CACHE_HOME`` is unset); each store has one
environment variable that turns it off.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "ENTRY_VERSION",
    "EntryStore",
    "default_root",
    "payload_checksum",
]

#: Bump when the entry format changes (invalidates every entry).
ENTRY_VERSION = 1

_OFF = ("0", "off", "no", "false")


def default_root(name: str, toggle: str) -> Optional[Path]:
    """``$XDG_CACHE_HOME/repro-stream/<name>``, or ``None`` when the
    environment variable ``toggle`` is ``0``/``off``/``no``/``false``."""
    if os.environ.get(toggle, "").strip().lower() in _OFF:
        return None
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "repro-stream" / name


def payload_checksum(payload: Dict[str, Any]) -> str:
    """SHA-256 over every field of ``payload`` but ``checksum``."""
    body = {k: v for k, v in payload.items() if k != "checksum"}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()
    ).hexdigest()


class EntryStore:
    """Content-addressed, checksummed JSON entries under one root.

    ``root=None`` builds a disabled store: every read misses and every
    write is a no-op, so clients never branch on enablement.  The
    ``hits``/``misses``/``evictions``/``writes`` counters count disk
    traffic.
    """

    def __init__(self, root: Optional[os.PathLike]):
        self.root = Path(root) if root is not None else None
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writes = 0

    @property
    def enabled(self) -> bool:
        return self.root is not None

    def _count(self, outcome: str) -> None:
        setattr(self, outcome, getattr(self, outcome) + 1)

    def path(self, key: str) -> Path:
        """Where the entry ``key`` lives (the root must be set)."""
        assert self.root is not None
        return self.root / f"v{ENTRY_VERSION}" / key[:2] / f"{key}.json"

    def read(self, key: str, check: Callable[[Dict[str, Any]], Any]) -> Any:
        """``check(payload)`` of the entry stored under ``key``, or
        ``None``.

        ``check`` sees a payload whose version and checksum hold, and
        returns what the read hands back or raises ``ValueError``,
        ``TypeError`` or ``KeyError`` to reject the entry.  A missing
        file is a miss; an unreadable or rejected one is a miss and is
        evicted.
        """
        if self.root is None:
            return None
        try:
            raw = self.path(key).read_bytes()
        except OSError:
            self._count("misses")
            return None
        try:
            # Decode inside the corruption guard: a bit-flipped entry
            # may not even be valid UTF-8 (UnicodeDecodeError is a
            # ValueError).
            payload = json.loads(raw.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("payload is not an object")
            if payload.get("version") != ENTRY_VERSION:
                raise ValueError("entry version mismatch")
            if payload.get("checksum") != payload_checksum(payload):
                raise ValueError("checksum mismatch")
            value = check(payload)
        except (ValueError, TypeError, KeyError):
            self.evict(key)
            self._count("misses")
            return None
        self._count("hits")
        return value

    def write(self, key: str, fields: Dict[str, Any]) -> None:
        """Store ``fields`` under ``key`` as one checksummed entry.

        An entry that already holds this payload's bytes is left alone;
        a missing or damaged one is replaced atomically.  Best effort:
        an unwritable root writes nothing.
        """
        if self.root is None:
            return
        payload = {"version": ENTRY_VERSION, **fields}
        payload["checksum"] = payload_checksum(payload)
        text = json.dumps(payload)
        path = self.path(key)
        try:
            if path.read_bytes() == text.encode():
                return
        except OSError:
            pass
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(text)
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
        """Drop one entry (reads do this to invalid ones)."""
        if self.root is None:
            return
        try:
            self.path(key).unlink()
        except OSError:
            pass
        self._count("evictions")

    def keys(self, prefix: str = "") -> List[str]:
        """The keys of the stored entries that start with ``prefix``,
        sorted.  A prefix of two or more characters reads one shard."""
        if self.root is None:
            return []
        top = self.root / f"v{ENTRY_VERSION}"
        try:
            if len(prefix) >= 2:
                entries = list((top / prefix[:2]).glob(f"{prefix}*.json"))
            else:
                entries = list(top.rglob(f"{prefix}*.json"))
        except OSError:
            return []
        return sorted(
            entry.stem for entry in entries
            if not entry.name.startswith(".")
        )

    def clear(self) -> None:
        """Delete every entry under this root, and any temp file a
        killed writer left (counters survive)."""
        if self.root is None:
            return
        for entry in (self.root / f"v{ENTRY_VERSION}").rglob("*.json"):
            try:
                entry.unlink()
            except OSError:
                pass
