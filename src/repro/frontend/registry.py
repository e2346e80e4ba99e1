"""Content-addressed kernel registry: ``kernel:<sha256>`` references.

Registered documents are entries of a :class:`repro.store.EntryStore`,
the store the compile cache (:mod:`repro.compiler.cache`) uses too:
content-addressed paths, atomic writes, checksum-validated
corruption-tolerant loads.  On top of the store's checks, a loaded
document must validate and hash to its address.  The content address
is the SHA-256 of the document's canonical serialization, so
registration is idempotent and the same document registered via any
spelling (key order, whitespace, ``2`` vs ``2.0``) lands on the same
id.

A registry with ``root=None`` (disabled persistence) still works within
the process through an in-memory overlay; the overlay also fronts the
disk store so repeat lookups never re-read files.

Environment
-----------
The registry lives in ``$XDG_CACHE_HOME/repro-stream/kernels``
(``~/.cache/repro-stream/kernels`` when unset).
``REPRO_KERNEL_REGISTRY``
    set to ``0``/``off``/``no`` to disable persistence.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..isa.kernel import KernelGraph
from ..store import EntryStore, default_root
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


class KernelRegistry(EntryStore):
    """Content-addressed store of registered kernel documents.

    ``root=None`` keeps entries in memory only; callers never branch on
    enablement.
    """

    def __init__(self, root: Optional[os.PathLike]):
        super().__init__(root)
        self._memory: Dict[str, Dict[str, Any]] = {}
        self._graphs: Dict[str, KernelGraph] = {}

    def register(self, document: Any) -> RegisteredKernel:
        """Validate + canonicalize ``document`` and store it.

        Idempotent: re-registering the same content (under any JSON
        spelling) returns the same id, rewrites no intact entry and
        builds no graph (the id is derived first; only a new id reads
        ``loaded.graph``).  A missing or damaged entry is written again,
        or the next process would call the kernel unknown.  Raises
        :class:`~repro.frontend.schema.KernelValidationError` on an
        invalid document.
        """
        loaded = load_document(document)
        kernel_id = loaded.kernel_id
        if kernel_id not in self._memory:
            self._memory[kernel_id] = loaded.document
            self._graphs[kernel_id] = loaded.graph
        self.write(kernel_id, {
            "schema_version": KERNEL_SCHEMA_VERSION,
            "kernel_id": kernel_id,
            "document": loaded.document,
        })
        return RegisteredKernel(kernel_id, loaded.document)

    def _load(self, kernel_id: str) -> Optional[LoadedKernel]:
        """Read one entry from disk.  The document must still validate
        and hash to its address, so a tampered entry can never reach
        the compiler."""

        def check(payload: Dict[str, Any]) -> LoadedKernel:
            loaded = load_document(payload["document"])
            if loaded.kernel_id != kernel_id:
                raise ValueError("document does not hash to its address")
            return loaded

        return self.read(kernel_id, check)

    # --- lookup ---------------------------------------------------------

    def get_document(self, kernel_id: str) -> Optional[Dict[str, Any]]:
        """The canonical document stored under ``kernel_id``, or None."""
        document = self._memory.get(kernel_id)
        if document is None:
            loaded = self._load(kernel_id)
            if loaded is None:
                return None
            document = self._memory[kernel_id] = loaded.document
            self._graphs[kernel_id] = loaded.graph
        return document

    def _resolve_prefix(self, prefix: str) -> Optional[str]:
        """Expand an id prefix to the unique full id it names."""
        matches = {
            kernel_id for kernel_id in self._memory
            if kernel_id.startswith(prefix)
        }
        matches.update(self.keys(prefix))
        if len(matches) == 1:
            return matches.pop()
        return None

    def resolve(self, ref: str) -> RegisteredKernel:
        """Look up a ``kernel:<hash>`` reference or a bare id (id
        prefixes of at least :data:`MIN_REF_PREFIX` hex chars are
        accepted).  Raises ``KeyError`` for unknown, ambiguous, or
        malformed references; its message names the ``kernel:`` form.
        """
        if not is_kernel_ref(ref):
            ref = KERNEL_REF_PREFIX + ref
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
        summaries = []
        for kernel_id in sorted(set(self._memory).union(self.keys())):
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


def default_registry() -> KernelRegistry:
    """The process-wide registry the API and daemon resolve through."""
    if _default_registry is None:
        return configure_default_registry()
    return _default_registry


def configure_default_registry(
    registry_dir: Optional[os.PathLike] = None, enabled: bool = True
) -> KernelRegistry:
    """Re-point (or disable) the process-wide registry."""
    global _default_registry
    if not enabled:
        registry_dir = None
    elif registry_dir is None:
        registry_dir = default_root("kernels", "REPRO_KERNEL_REGISTRY")
    _default_registry = KernelRegistry(registry_dir)
    return _default_registry


def resolve_registered_graph(ref: str) -> KernelGraph:
    """``kernel:<hash>`` -> compiled graph via the default registry.

    The hook :func:`repro.kernels.suite.get_kernel` calls for
    references; raises ``KeyError`` (that function's contract) when the
    reference is unknown.
    """
    return default_registry().graph(ref)
