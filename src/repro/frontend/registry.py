"""Content-addressed kernel registry: ``kernel:<sha256>`` references.

Registered documents are stored on disk with the same discipline as the
compile cache (:mod:`repro.compiler.cache`): content-addressed paths,
atomic writes, checksum-validated corruption-tolerant loads, and
hit/miss/evict/write counters.  The content address is the SHA-256 of
the document's canonical serialization, so registration is idempotent
and the same document registered via any spelling (key order,
whitespace, ``2`` vs ``2.0``) lands on the same id.

A registry with ``root=None`` (disabled persistence) still works within
the process through an in-memory overlay; the overlay also fronts the
disk store so repeat lookups never re-read files.

Environment
-----------
``REPRO_KERNEL_REGISTRY_DIR``
    overrides the on-disk location (default:
    ``$XDG_CACHE_HOME/repro-stream/kernels`` or
    ``~/.cache/repro-stream/kernels``).
``REPRO_KERNEL_REGISTRY``
    set to ``0``/``off``/``no`` to disable persistence.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..isa.kernel import KernelGraph
from .loader import LoadedKernel, graph_from_document, load_document
from .schema import KERNEL_SCHEMA_VERSION

__all__ = [
    "KERNEL_REF_PREFIX",
    "KernelRegistry",
    "RegisteredKernel",
    "configure_default_registry",
    "default_registry",
    "is_kernel_ref",
    "resolve_registered_graph",
]

#: Prefix that marks a kernel name as a registry reference.
KERNEL_REF_PREFIX = "kernel:"

#: Bump when the stored payload schema changes.
REGISTRY_SCHEMA_VERSION = 1

#: Shortest accepted id prefix in a reference (full ids are 64 hex chars).
MIN_REF_PREFIX = 8

_HEX_DIGITS = frozenset("0123456789abcdef")


def is_kernel_ref(name: str) -> bool:
    """True if ``name`` is a ``kernel:<hash>`` registry reference."""
    return isinstance(name, str) and name.startswith(KERNEL_REF_PREFIX)


@dataclass(frozen=True)
class RegisteredKernel:
    """One registry entry: the canonical document plus its address."""

    kernel_id: str
    document: Dict[str, Any]

    @property
    def ref(self) -> str:
        return KERNEL_REF_PREFIX + self.kernel_id

    @property
    def name(self) -> str:
        return self.document["name"]


def _payload_checksum(payload: Dict[str, Any]) -> str:
    body = {k: v for k, v in payload.items() if k != "checksum"}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()
    ).hexdigest()


class KernelRegistry:
    """Content-addressed store of registered kernel documents.

    ``root=None`` keeps entries in memory only; callers never branch on
    enablement.
    """

    def __init__(self, root: Optional[Path]):
        self.root = Path(root) if root is not None else None
        self._memory: Dict[str, Dict[str, Any]] = {}
        self._graphs: Dict[str, KernelGraph] = {}
        self.registrations = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writes = 0

    @property
    def enabled(self) -> bool:
        return self.root is not None

    def stats(self) -> Dict[str, int]:
        return {
            "registrations": self.registrations,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "writes": self.writes,
        }

    # --- storage --------------------------------------------------------

    def _path(self, kernel_id: str) -> Path:
        assert self.root is not None
        return (
            self.root / f"v{REGISTRY_SCHEMA_VERSION}"
            / kernel_id[:2] / f"{kernel_id}.json"
        )

    def register(self, document: Any) -> RegisteredKernel:
        """Validate + canonicalize ``document`` and store it.

        Idempotent: re-registering the same content (under any JSON
        spelling) returns the same id, rewrites no intact entry and
        builds no graph (the id is derived first; only a new id reads
        ``loaded.graph``).  Raises
        :class:`~repro.frontend.schema.KernelValidationError` on an
        invalid document.
        """
        loaded = load_document(document)
        self.registrations += 1
        if loaded.kernel_id not in self._memory:
            self._memory[loaded.kernel_id] = loaded.document
            self._graphs[loaded.kernel_id] = loaded.graph
            self._store(loaded)
        return RegisteredKernel(loaded.kernel_id, loaded.document)

    def _store(self, loaded: LoadedKernel) -> None:
        """Atomically persist one entry (best effort, like the compile
        cache: an unwritable directory degrades to memory-only)."""
        if self.root is None:
            return
        path = self._path(loaded.kernel_id)
        payload = {
            "version": REGISTRY_SCHEMA_VERSION,
            "schema_version": KERNEL_SCHEMA_VERSION,
            "kernel_id": loaded.kernel_id,
            "document": loaded.document,
        }
        payload["checksum"] = _payload_checksum(payload)
        # An entry that reads back as this payload stays byte for byte;
        # a damaged one is rewritten, or the next lookup would evict it
        # and call the kernel unknown.
        try:
            if json.loads(path.read_bytes().decode("utf-8")) == payload:
                return
        except (OSError, ValueError):
            pass
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
        self.writes += 1

    def _load_from_disk(self, kernel_id: str) -> Optional[Dict[str, Any]]:
        """Read one entry; anything unreadable is a miss + eviction."""
        if self.root is None:
            return None
        path = self._path(kernel_id)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            payload = json.loads(raw.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("payload is not an object")
            if payload.get("version") != REGISTRY_SCHEMA_VERSION:
                raise ValueError("registry version mismatch")
            if payload.get("kernel_id") != kernel_id:
                raise ValueError("kernel id mismatch")
            if payload.get("checksum") != _payload_checksum(payload):
                raise ValueError("checksum mismatch")
            document = payload["document"]
            # The document must still validate and hash to its address;
            # a tampered entry can never reach the compiler.
            loaded = load_document(document)
            if loaded.kernel_id != kernel_id:
                raise ValueError("document does not hash to its address")
        except (ValueError, TypeError, KeyError):
            try:
                path.unlink()
            except OSError:
                pass
            self.evictions += 1
            return None
        self._graphs[kernel_id] = loaded.graph
        return loaded.document

    # --- lookup ---------------------------------------------------------

    def get_document(self, kernel_id: str) -> Optional[Dict[str, Any]]:
        """The canonical document stored under ``kernel_id``, or None."""
        document = self._memory.get(kernel_id)
        if document is None:
            document = self._load_from_disk(kernel_id)
            if document is not None:
                self._memory[kernel_id] = document
        if document is None:
            self.misses += 1
            return None
        self.hits += 1
        return document

    def _resolve_prefix(self, prefix: str) -> Optional[str]:
        """Expand an id prefix to the unique full id it names."""
        matches = {
            kernel_id for kernel_id in self._memory
            if kernel_id.startswith(prefix)
        }
        if self.root is not None:
            shard_dir = self.root / f"v{REGISTRY_SCHEMA_VERSION}" / prefix[:2]
            try:
                entries = list(shard_dir.glob(f"{prefix}*.json"))
            except OSError:
                entries = []
            matches.update(entry.stem for entry in entries)
        if len(matches) == 1:
            return matches.pop()
        return None

    def resolve(self, ref: str) -> RegisteredKernel:
        """Look up a ``kernel:<hash>`` reference (id prefixes of at
        least :data:`MIN_REF_PREFIX` hex chars are accepted).  Raises
        ``KeyError`` for unknown, ambiguous, or malformed references.
        """
        if not is_kernel_ref(ref):
            raise KeyError(f"not a kernel reference: {ref!r}")
        kernel_id = ref[len(KERNEL_REF_PREFIX):].strip().lower()
        if (
            len(kernel_id) < MIN_REF_PREFIX
            or len(kernel_id) > 64
            or not set(kernel_id) <= _HEX_DIGITS
        ):
            raise KeyError(f"malformed kernel reference: {ref!r}")
        if len(kernel_id) < 64:
            expanded = self._resolve_prefix(kernel_id)
            if expanded is None:
                raise KeyError(
                    f"unknown or ambiguous kernel reference: {ref!r}"
                )
            kernel_id = expanded
        document = self.get_document(kernel_id)
        if document is None:
            raise KeyError(
                f"unknown kernel {ref!r} — register it first "
                "(repro kernel register / POST /v1/kernels)"
            )
        return RegisteredKernel(kernel_id, document)

    def graph(self, ref: str) -> KernelGraph:
        """The compiled :class:`KernelGraph` for a reference (memoized
        per id, so in-process compile caches key stably on identity)."""
        return self._graph_of(self.resolve(ref))

    def _graph_of(self, entry: RegisteredKernel) -> KernelGraph:
        graph = self._graphs.get(entry.kernel_id)
        if graph is None:
            graph = graph_from_document(entry.document)
            self._graphs[entry.kernel_id] = graph
        return graph

    def summary(self, entry: RegisteredKernel) -> Dict[str, Any]:
        """:func:`summarize` ``entry`` from its memoized graph."""
        return summarize(entry.kernel_id, entry.document,
                         self._graph_of(entry))

    def list(self) -> List[Dict[str, Any]]:
        """Summaries of every registered kernel, sorted by id."""
        kernel_ids = set(self._memory)
        if self.root is not None:
            version_dir = self.root / f"v{REGISTRY_SCHEMA_VERSION}"
            try:
                entries = list(version_dir.rglob("*.json"))
            except OSError:
                entries = []
            kernel_ids.update(
                entry.stem for entry in entries
                if not entry.name.startswith(".")
            )
        summaries = []
        for kernel_id in sorted(kernel_ids):
            document = self.get_document(kernel_id)
            if document is None:
                continue  # evicted as corrupt between listing and read
            summaries.append(
                self.summary(RegisteredKernel(kernel_id, document))
            )
        return summaries


def summarize(
    kernel_id: str,
    document: Dict[str, Any],
    graph: Optional[KernelGraph] = None,
) -> Dict[str, Any]:
    """The deterministic wire summary of one registered kernel.

    ``graph`` is ``document``'s compiled graph when the caller already
    holds it (:meth:`KernelRegistry.summary`); otherwise it is built.
    """
    if graph is None:
        graph = graph_from_document(document)
    stats = graph.stats()
    return {
        "kernel_id": kernel_id,
        "ref": KERNEL_REF_PREFIX + kernel_id,
        "name": document["name"],
        "schema_version": document["schema_version"],
        "nodes": len(graph),
        "alu_ops": stats.alu_ops,
        "srf_accesses": stats.srf_accesses,
        "comms": stats.comms,
        "sp_accesses": stats.sp_accesses,
        "input_streams": graph.input_streams(),
        "output_streams": graph.output_streams(),
    }


# --- process-wide default registry --------------------------------------

_default_registry: Optional[KernelRegistry] = None


def _default_root() -> Optional[Path]:
    toggle = os.environ.get("REPRO_KERNEL_REGISTRY", "").strip().lower()
    if toggle in ("0", "off", "no", "false"):
        return None
    override = os.environ.get("REPRO_KERNEL_REGISTRY_DIR")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "repro-stream" / "kernels"


def default_registry() -> KernelRegistry:
    """The process-wide registry the API and daemon resolve through."""
    global _default_registry
    if _default_registry is None:
        try:
            _default_registry = KernelRegistry(_default_root())
        except OSError:
            _default_registry = KernelRegistry(None)
    return _default_registry


def configure_default_registry(
    registry_dir: Optional[os.PathLike] = None, enabled: bool = True
) -> KernelRegistry:
    """Re-point (or disable) the process-wide registry."""
    global _default_registry
    if not enabled:
        _default_registry = KernelRegistry(None)
    elif registry_dir is not None:
        _default_registry = KernelRegistry(Path(registry_dir))
    else:
        _default_registry = KernelRegistry(_default_root())
    return _default_registry


def resolve_registered_graph(ref: str) -> KernelGraph:
    """``kernel:<hash>`` -> compiled graph via the default registry.

    The hook :func:`repro.kernels.suite.get_kernel` calls for
    references; raises ``KeyError`` (that function's contract) when the
    reference is unknown.
    """
    return default_registry().graph(ref)
