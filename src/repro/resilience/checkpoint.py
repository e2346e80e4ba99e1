"""Atomic, checksummed checkpointing of completed sweep points.

A full ``repro report``/figures regeneration walks hundreds of
``(kernel, config)`` compiles and ``(application, config)``
simulations.  The persistent compile cache already survives restarts;
this module does the same for *sweep results*: every completed point is
persisted as it lands, so a run killed halfway resumes with zero
recomputation — the checkpoint replays straight into the
:class:`~repro.analysis.sweep.SweepEngine` memo caches.

The storage discipline mirrors :mod:`repro.compiler.cache`:

* **atomic writes** — temp file + ``os.replace``; a killed process can
  never leave a half-written entry;
* **versioned, checksummed entries** — each file is a JSON header line
  (schema version, key digest, SHA-256 of the body) followed by the
  pickled payload; anything undecodable, version-skewed or
  checksum-damaged is discarded (and counted) rather than trusted, so
  a corrupted checkpoint degrades to recomputation, never to a wrong
  result;
* **best-effort writes** — an unwritable directory silently disables
  persistence; it can never fail the sweep itself.

Entries carry the original memo-cache key object (pickled), so
resuming restores *exactly* the mapping the interrupted run had built —
results are bit-identical to an uninterrupted run by construction.

Counters (``resilience.checkpoint.{writes,loads,corrupt,skipped}``)
mirror into an attached :class:`~repro.obs.metrics.MetricsRegistry`.

Environment
-----------
``REPRO_SWEEP_CHECKPOINT_DIR``
    overrides the default location
    (``$XDG_CACHE_HOME/repro-stream/checkpoints`` or
    ``~/.cache/repro-stream/checkpoints``).
``REPRO_SWEEP_CHECKPOINT``
    set to ``0``/``off``/``no`` to disable checkpointing.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple

from .faults import fault_point

__all__ = [
    "SweepCheckpoint",
    "default_checkpoint_root",
]

#: Bump when the entry layout changes (old entries are then skipped).
#: v2: memo keys lost their execution mode — sim points are keyed
#: ``(application, config, node, clock_ghz)``, rates ``(kernel, config)``.
SCHEMA_VERSION = 2

#: Entry kinds the sweep engine persists.
KINDS = ("sim", "rate")


def default_checkpoint_root() -> Optional[Path]:
    """The default checkpoint directory, honoring the env knobs
    (``None`` when checkpointing is disabled via the environment)."""
    toggle = os.environ.get("REPRO_SWEEP_CHECKPOINT", "").strip().lower()
    if toggle in ("0", "off", "no", "false"):
        return None
    override = os.environ.get("REPRO_SWEEP_CHECKPOINT_DIR")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "repro-stream" / "checkpoints"


class SweepCheckpoint:
    """One checkpoint directory of completed sweep points.

    ``root=None`` builds a disabled checkpoint: stores are no-ops and
    iteration yields nothing, so callers never branch on enablement.
    """

    def __init__(self, root: Optional[Path], metrics=None):
        self.root = Path(root) if root is not None else None
        self.metrics = metrics
        self.writes = 0
        self.loads = 0
        self.corrupt = 0
        self.skipped = 0

    @property
    def enabled(self) -> bool:
        return self.root is not None

    def attach_metrics(self, registry) -> None:
        """Mirror counters into ``registry`` from now on."""
        self.metrics = registry

    def _count(self, outcome: str) -> None:
        setattr(self, outcome, getattr(self, outcome) + 1)
        if self.metrics is not None:
            self.metrics.counter(f"resilience.checkpoint.{outcome}").inc()

    def stats(self) -> Dict[str, int]:
        """Write/load/corrupt/skip counters, for reports and tests."""
        return {
            "writes": self.writes,
            "loads": self.loads,
            "corrupt": self.corrupt,
            "skipped": self.skipped,
        }

    # --- storage ----------------------------------------------------------

    def _path(self, kind: str, key: Any) -> Path:
        assert self.root is not None
        digest = hashlib.sha256(
            f"{kind}|{key!r}".encode()
        ).hexdigest()
        return self.root / f"v{SCHEMA_VERSION}" / f"{digest}.ckpt"

    def store(self, kind: str, key: Any, value: Any) -> None:
        """Atomically persist one completed point (best effort)."""
        if self.root is None:
            return
        if kind not in KINDS:
            raise ValueError(f"unknown checkpoint kind {kind!r}")
        body = pickle.dumps(
            {"kind": kind, "key": key, "value": value},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        header = json.dumps(
            {
                "version": SCHEMA_VERSION,
                "kind": kind,
                "checksum": hashlib.sha256(body).hexdigest(),
            },
            sort_keys=True,
        ).encode()
        path = self._path(kind, key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".ckpt"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(header + b"\n" + body)
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
        fault_point("checkpoint.store", path=path)

    def _decode(self, path: Path) -> Optional[Tuple[str, Any, Any]]:
        """Decode one entry; ``None`` (plus counters) on any damage."""
        fault_point("checkpoint.load", path=path)
        try:
            raw = path.read_bytes()
        except OSError:
            self._count("skipped")
            return None
        try:
            newline = raw.index(b"\n")
            header = json.loads(raw[:newline])
            body = raw[newline + 1:]
            if header.get("version") != SCHEMA_VERSION:
                raise ValueError("schema version mismatch")
            if header.get("checksum") != hashlib.sha256(body).hexdigest():
                raise ValueError("checksum mismatch")
            payload = pickle.loads(body)
            kind = payload["kind"]
            if kind not in KINDS or kind != header.get("kind"):
                raise ValueError("kind mismatch")
            entry = (kind, payload["key"], payload["value"])
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception:
            # Undecodable, truncated, version-skewed, bit-flipped...
            # recompute rather than trust; drop the bad file so it is
            # not re-parsed on every resume.
            self._count("corrupt")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self._count("loads")
        return entry

    def entries(self) -> Iterator[Tuple[str, Any, Any]]:
        """Yield every intact ``(kind, key, value)`` entry."""
        if self.root is None:
            return
        version_dir = self.root / f"v{SCHEMA_VERSION}"
        if not version_dir.exists():
            return
        for path in sorted(version_dir.glob("*.ckpt")):
            entry = self._decode(path)
            if entry is not None:
                yield entry

    def clear(self) -> None:
        """Delete every entry under this root (counters survive)."""
        if self.root is None:
            return
        version_dir = self.root / f"v{SCHEMA_VERSION}"
        if not version_dir.exists():
            return
        for path in sorted(version_dir.glob("*.ckpt")):
            try:
                path.unlink()
            except OSError:
                pass
