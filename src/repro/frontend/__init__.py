"""User-defined kernels as data: schema, loader, registry.

The six paper kernels ship as hand-built Python DFG builders; this
package opens that frontend.  A kernel is a strict, versioned JSON
document (:mod:`repro.frontend.schema`) that the loader
(:mod:`repro.frontend.loader`) validates — every rejection carries a
JSON-pointer source location and a stable error code — and compiles
into a real :class:`repro.isa.kernel.KernelGraph`.  Accepted documents
are content-addressed by the SHA-256 of their canonical serialization
and stored in a :class:`repro.frontend.registry.KernelRegistry`, after
which the kernel is first-class everywhere a built-in is: compile,
simulate, sweep and the serving daemon all accept ``kernel:<hash>``
references.
"""

from .schema import (
    ERROR_CODES,
    KERNEL_SCHEMA_VERSION,
    SANDBOX_LIMITS,
    KernelValidationError,
    SandboxLimits,
)
from .loader import (
    LoadedKernel,
    canonical_json,
    canonicalize_document,
    document_from_graph,
    document_hash,
    graph_from_document,
    load_document,
)
from .registry import (
    KERNEL_REF_PREFIX,
    KernelRegistry,
    RegisteredKernel,
    configure_default_registry,
    default_registry,
    is_kernel_ref,
    resolve_registered_graph,
)
from .bench import KERNEL_BENCH_WORK_ITEMS, microbench_program

__all__ = [
    "ERROR_CODES",
    "KERNEL_BENCH_WORK_ITEMS",
    "KERNEL_REF_PREFIX",
    "KERNEL_SCHEMA_VERSION",
    "KernelRegistry",
    "KernelValidationError",
    "LoadedKernel",
    "RegisteredKernel",
    "SANDBOX_LIMITS",
    "SandboxLimits",
    "canonical_json",
    "canonicalize_document",
    "configure_default_registry",
    "default_registry",
    "document_from_graph",
    "document_hash",
    "graph_from_document",
    "is_kernel_ref",
    "load_document",
    "microbench_program",
    "resolve_registered_graph",
]
