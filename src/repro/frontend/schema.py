"""The kernel document schema: version, limits, and typed errors.

A kernel document is a JSON object describing one inner-loop iteration
as a dataflow graph, mapping 1:1 onto :mod:`repro.isa` operations:

.. code-block:: json

    {
      "schema_version": 1,
      "name": "saxpy",
      "nodes": [
        {"op": "sb_read", "stream": "x"},
        {"op": "const", "value": 2.0},
        {"op": "fmul", "args": [0, 1]},
        {"op": "sb_write", "args": [2], "stream": "out"}
      ],
      "recurrences": []
    }

Nodes are listed in topological order; ``args`` are indices of earlier
nodes.  Stream access ops (``sb_read``/``sb_write``/``cond_read``/
``cond_write``) name their stream; ``const`` carries a finite ``value``;
loop-carried dependences live in ``recurrences`` with a positive
iteration ``distance``.

Validation is strict: unknown fields, wrong types, out-of-range
operands, or sandbox-limit violations all raise
:class:`KernelValidationError`, which carries a JSON-pointer source
location (:attr:`~KernelValidationError.pointer`) and a stable error
code (:attr:`~KernelValidationError.code`) from :data:`ERROR_CODES`.
Nothing reaches the scheduler or the simulator before the document has
passed every check here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

__all__ = [
    "ERROR_CODES",
    "KERNEL_SCHEMA_VERSION",
    "SANDBOX_LIMITS",
    "KernelValidationError",
    "SandboxLimits",
]

#: Version of the document schema.  Documents must carry exactly this
#: value; bumping it invalidates nothing retroactively (the registry
#: stores canonical documents, which embed their version).
KERNEL_SCHEMA_VERSION = 1

#: Stable error codes -> human description.  Codes are part of the API
#: contract: clients may switch on them, so they never change meaning.
ERROR_CODES: Dict[str, str] = {
    "E_DOC_TYPE": "document or sub-document has the wrong JSON type",
    "E_VERSION": "schema_version is missing or unsupported",
    "E_FIELD_UNKNOWN": "object carries a field the schema does not define",
    "E_FIELD_MISSING": "a required field is absent",
    "E_FIELD_TYPE": "a field has the wrong JSON type",
    "E_NAME_INVALID": "kernel/node/stream name is malformed",
    "E_OP_UNKNOWN": "node names an opcode that is not in the ISA",
    "E_ARITY": "node has the wrong number of args for its opcode",
    "E_OPERAND_RANGE": "arg does not reference an earlier node",
    "E_CONST_VALUE": "const value is missing, non-numeric or not finite",
    "E_STREAM_INVALID": "stream field is missing, misplaced or malformed",
    "E_RECURRENCE_INVALID": "recurrence endpoints or distance are invalid",
    "E_LIMIT_OPS": "node count exceeds the sandbox op limit",
    "E_LIMIT_STREAMS": "distinct stream count exceeds the sandbox limit",
    "E_LIMIT_RECURRENCES": "recurrence count exceeds the sandbox limit",
    "E_LIMIT_DISTANCE": "recurrence distance exceeds the sandbox limit",
    "E_NO_ALU": "kernel performs no ALU work",
    "E_NO_OUTPUT": "kernel writes no output stream",
}


@dataclass(frozen=True)
class SandboxLimits:
    """Resource bounds enforced before a document reaches the compiler.

    Untrusted documents arrive over the wire; these caps bound the size
    of what the modulo scheduler and the interpreter can be asked to
    chew on.  The defaults are far above every paper kernel (the
    largest, ``fft``, has 331 nodes).  They do not bound compile time:
    a legal document of about 1,000 densely connected ALU nodes can
    take seconds to tens of seconds to fail scheduling, and one of
    2,048 nodes can outlast the daemon's default request timeout.
    """

    max_nodes: int = 4096
    max_recurrences: int = 256
    max_recurrence_distance: int = 64
    max_streams: int = 64
    max_name_length: int = 64
    max_const_magnitude: float = 1e30

    def to_dict(self) -> Dict[str, float]:
        return {
            "max_nodes": self.max_nodes,
            "max_recurrences": self.max_recurrences,
            "max_recurrence_distance": self.max_recurrence_distance,
            "max_streams": self.max_streams,
            "max_name_length": self.max_name_length,
            "max_const_magnitude": self.max_const_magnitude,
        }


#: The process-wide limits applied to every loaded document.
SANDBOX_LIMITS = SandboxLimits()


def _escape_pointer_token(token: str) -> str:
    """RFC 6901 escaping for one reference token."""
    return token.replace("~", "~0").replace("/", "~1")


def json_pointer(*tokens) -> str:
    """Build a JSON pointer from path tokens (``()`` -> ``""``, the root)."""
    return "".join(f"/{_escape_pointer_token(str(t))}" for t in tokens)


class KernelValidationError(ValueError):
    """A document rejection: stable ``code`` + JSON-pointer ``pointer``.

    ``str(err)`` renders ``<code> at <pointer>: <message>`` so the code
    and source location survive even through layers that only keep the
    message string (e.g. :class:`repro.api.ApiError`).
    """

    def __init__(self, code: str, pointer: str, message: str):
        if code not in ERROR_CODES:  # pragma: no cover - internal guard
            raise AssertionError(f"unregistered error code {code!r}")
        self.code = code
        self.pointer = pointer
        self.message = message
        super().__init__(f"{code} at {pointer or '/'}: {message}")

    def to_dict(self) -> Dict[str, str]:
        """Wire form for API error payloads."""
        return {
            "code": self.code,
            "pointer": self.pointer,
            "message": self.message,
        }


def fail(code: str, pointer: str, message: str) -> "KernelValidationError":
    """Raise a :class:`KernelValidationError` (shared by the loader)."""
    raise KernelValidationError(code, pointer, message)
