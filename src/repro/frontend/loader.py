"""Kernel document loader: strict validation, canonical form, graphs.

The loader is the only path from untrusted JSON into the compiler.  It
does three jobs:

* **validate** — every structural rule of the schema plus the sandbox
  limits, raising :class:`~repro.frontend.schema.KernelValidationError`
  (JSON pointer + stable code) on the first violation;
* **canonicalize** — rebuild the document in a normal form whose
  serialization (sorted keys, compact separators) is a byte-level fixed
  point: ``canonical(parse(canonical(d))) == canonical(d)``.  The
  SHA-256 of that serialization is the kernel's content address, so the
  hash is invariant to key order and whitespace by construction;
* **compile** — emit a real :class:`repro.isa.kernel.KernelGraph`
  through the same builder API the hand-written kernels use, so the
  scheduler and interpreter see no difference.

``document_from_graph`` is the inverse: it exports any built-in kernel
as a schema document (used to generate the conformance corpus), and is
exact — loading the exported document reproduces the node list,
names, constant values and recurrences bit-for-bit.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional

from ..isa.kernel import KernelGraph
from ..isa.ops import Opcode
from .schema import (
    KERNEL_SCHEMA_VERSION,
    SANDBOX_LIMITS,
    KernelValidationError,
    SandboxLimits,
    fail,
    json_pointer,
)

__all__ = [
    "LoadedKernel",
    "canonical_json",
    "canonicalize_document",
    "document_from_graph",
    "document_hash",
    "graph_from_document",
    "load_document",
    "parse_document",
]

#: mnemonic -> Opcode for every ISA operation.
MNEMONICS: Dict[str, Opcode] = {
    op.mnemonic: op for op in Opcode.__members__.values()
}

_STREAM_READS = (Opcode.SB_READ, Opcode.COND_READ)
_STREAM_WRITES = (Opcode.SB_WRITE, Opcode.COND_WRITE)
_STREAM_OPS = _STREAM_READS + _STREAM_WRITES

#: Exact arity per opcode; ``None`` means "1 or 2 operands" (ALU ops:
#: the builder's reduce/select idioms produce both unary and binary
#: uses of nominally binary opcodes).
_ARITY: Dict[Opcode, Optional[int]] = {
    Opcode.CONST: 0,
    Opcode.LOOPVAR: 0,
    Opcode.SB_READ: 0,
    Opcode.COND_READ: 0,
    Opcode.SB_WRITE: 1,
    Opcode.COND_WRITE: 1,
    Opcode.COMM_PERM: 1,
    Opcode.COMM_BCAST: 1,
    Opcode.SP_READ: 1,
    Opcode.SP_WRITE: 2,
}

_DOC_FIELDS = frozenset(("schema_version", "name", "nodes", "recurrences"))
_NODE_FIELDS = frozenset(("op", "args", "value", "stream", "name"))
_REC_FIELDS = frozenset(("source", "target", "distance"))


@dataclass(frozen=True)
class LoadedKernel:
    """A validated document with its canonical form and content address.

    :attr:`graph` is compiled on first access, so a caller that needs
    only the id (re-registering a known kernel) builds no graph.  The
    parse already checked everything the build relies on, so a loaded
    document always compiles.
    """

    document: Dict[str, Any]
    canonical: str
    kernel_id: str
    #: The :func:`parse_document` result :attr:`graph` is built from.
    parsed: Dict[str, Any] = field(repr=False, compare=False)

    @property
    def name(self) -> str:
        return self.document["name"]

    @cached_property
    def graph(self) -> KernelGraph:
        """The compiled :class:`KernelGraph`, built once."""
        return _build_graph(self.parsed)


def canonical_json(document: Dict[str, Any]) -> str:
    """The canonical serialization: sorted keys, compact separators."""
    return json.dumps(
        document, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def document_hash(document: Dict[str, Any]) -> str:
    """SHA-256 of the canonical serialization of a *canonical* document."""
    return hashlib.sha256(canonical_json(document).encode("utf-8")).hexdigest()


# --- validation ---------------------------------------------------------


# The checkers take the JSON-pointer *tokens* of the value they check
# and build the pointer only when they fail: a valid document builds
# none.


def _check_name(value: Any, limits: SandboxLimits, what: str,
                *where: Any) -> str:
    if not isinstance(value, str):
        fail("E_FIELD_TYPE", json_pointer(*where), f"{what} must be a string")
    if not value:
        fail("E_NAME_INVALID", json_pointer(*where),
             f"{what} must be non-empty")
    if len(value) > limits.max_name_length:
        fail(
            "E_NAME_INVALID", json_pointer(*where),
            f"{what} exceeds {limits.max_name_length} characters",
        )
    if any(ord(ch) < 0x20 or ord(ch) == 0x7F for ch in value):
        fail("E_NAME_INVALID", json_pointer(*where),
             f"{what} contains control characters")
    return value


def _check_int(value: Any, what: str, *where: Any) -> int:
    # JSON has no integer type distinct from bool in Python's reading;
    # booleans are explicitly not indices.
    if isinstance(value, bool) or not isinstance(value, int):
        fail("E_FIELD_TYPE", json_pointer(*where),
             f"{what} must be an integer")
    return value


def _check_unknown_fields(obj: Dict[str, Any], allowed: frozenset,
                          *where: Any) -> None:
    for key in obj:
        if key not in allowed:
            fail(
                "E_FIELD_UNKNOWN", json_pointer(*where, key),
                f"unknown field {key!r}",
            )


def _parse_node(index: int, raw: Any, limits: SandboxLimits) -> Dict[str, Any]:
    if not isinstance(raw, dict):
        fail("E_DOC_TYPE", json_pointer("nodes", index),
             "node must be a JSON object")
    _check_unknown_fields(raw, _NODE_FIELDS, "nodes", index)
    if "op" not in raw:
        fail("E_FIELD_MISSING", json_pointer("nodes", index),
             "node is missing 'op'")
    mnemonic = raw["op"]
    if not isinstance(mnemonic, str):
        fail("E_FIELD_TYPE", json_pointer("nodes", index, "op"),
             "'op' must be a string")
    opcode = MNEMONICS.get(mnemonic)
    if opcode is None:
        fail("E_OP_UNKNOWN", json_pointer("nodes", index, "op"),
             f"unknown opcode {mnemonic!r}")

    args_raw = raw.get("args", [])
    if not isinstance(args_raw, list):
        fail("E_FIELD_TYPE", json_pointer("nodes", index, "args"),
             "'args' must be an array")
    args: List[int] = []
    for position, arg in enumerate(args_raw):
        arg = _check_int(arg, "arg", "nodes", index, "args", position)
        if not 0 <= arg < index:
            fail(
                "E_OPERAND_RANGE",
                json_pointer("nodes", index, "args", position),
                f"arg {arg} must reference an earlier node (< {index})",
            )
        args.append(arg)

    expected = _ARITY.get(opcode)
    if expected is not None:
        if len(args) != expected:
            fail(
                "E_ARITY", json_pointer("nodes", index, "args"),
                f"{mnemonic} takes exactly {expected} args, got {len(args)}",
            )
    elif not 1 <= len(args) <= 2:
        fail(
            "E_ARITY", json_pointer("nodes", index, "args"),
            f"{mnemonic} takes 1 or 2 args, got {len(args)}",
        )

    node: Dict[str, Any] = {"op": mnemonic, "_opcode": opcode, "args": args}

    if opcode is Opcode.CONST:
        if "value" not in raw:
            fail("E_CONST_VALUE", json_pointer("nodes", index),
                 "const node is missing 'value'")
        value = raw["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            fail("E_CONST_VALUE", json_pointer("nodes", index, "value"),
                 "const value must be a number")
        value = float(value)
        if not math.isfinite(value):
            fail("E_CONST_VALUE", json_pointer("nodes", index, "value"),
                 "const value must be finite")
        if abs(value) > limits.max_const_magnitude:
            fail(
                "E_CONST_VALUE", json_pointer("nodes", index, "value"),
                f"const magnitude exceeds {limits.max_const_magnitude}",
            )
        node["value"] = value
    elif "value" in raw:
        fail("E_FIELD_UNKNOWN", json_pointer("nodes", index, "value"),
             f"'value' is only valid on const nodes, not {mnemonic}")

    if opcode in _STREAM_OPS:
        if "stream" not in raw:
            fail("E_STREAM_INVALID", json_pointer("nodes", index),
                 f"{mnemonic} node is missing 'stream'")
        node["stream"] = _check_name(
            raw["stream"], limits, "stream name", "nodes", index, "stream"
        )
        if "name" in raw:
            fail(
                "E_FIELD_UNKNOWN", json_pointer("nodes", index, "name"),
                "stream ops are named by 'stream'; 'name' is not allowed",
            )
    else:
        if "stream" in raw:
            fail(
                "E_STREAM_INVALID", json_pointer("nodes", index, "stream"),
                f"'stream' is only valid on stream ops, not {mnemonic}",
            )
        if "name" in raw:
            node["name"] = _check_name(
                raw["name"], limits, "node name", "nodes", index, "name"
            )
    return node


def parse_document(
    data: Any, limits: SandboxLimits = SANDBOX_LIMITS
) -> Dict[str, Any]:
    """Validate ``data`` and return the normalized (non-canonical yet)
    parse result.  Raises :class:`KernelValidationError` on the first
    violation; never raises anything else for any JSON-shaped input.
    """
    if not isinstance(data, dict):
        fail("E_DOC_TYPE", "", "kernel document must be a JSON object")
    _check_unknown_fields(data, _DOC_FIELDS)

    if "schema_version" not in data:
        fail("E_VERSION", "", "document is missing 'schema_version'")
    version = data["schema_version"]
    if isinstance(version, bool) or not isinstance(version, int):
        fail("E_VERSION", "/schema_version",
             "'schema_version' must be an integer")
    if version != KERNEL_SCHEMA_VERSION:
        fail(
            "E_VERSION", "/schema_version",
            f"unsupported schema_version {version} "
            f"(this build speaks {KERNEL_SCHEMA_VERSION})",
        )

    if "name" not in data:
        fail("E_FIELD_MISSING", "", "document is missing 'name'")
    name = _check_name(data["name"], limits, "kernel name", "name")

    if "nodes" not in data:
        fail("E_FIELD_MISSING", "", "document is missing 'nodes'")
    nodes_raw = data["nodes"]
    if not isinstance(nodes_raw, list):
        fail("E_FIELD_TYPE", "/nodes", "'nodes' must be an array")
    if not nodes_raw:
        fail("E_FIELD_MISSING", "/nodes", "kernel has no nodes")
    if len(nodes_raw) > limits.max_nodes:
        fail(
            "E_LIMIT_OPS", "/nodes",
            f"{len(nodes_raw)} nodes exceeds the sandbox limit "
            f"of {limits.max_nodes}",
        )

    nodes = [
        _parse_node(index, raw, limits)
        for index, raw in enumerate(nodes_raw)
    ]

    streams = {n["stream"] for n in nodes if "stream" in n}
    if len(streams) > limits.max_streams:
        fail(
            "E_LIMIT_STREAMS", "/nodes",
            f"{len(streams)} distinct streams exceeds the sandbox "
            f"limit of {limits.max_streams}",
        )
    if not any(n["_opcode"].is_alu for n in nodes):
        fail("E_NO_ALU", "/nodes", "kernel performs no ALU work")
    if not any(n["_opcode"] in _STREAM_WRITES for n in nodes):
        fail("E_NO_OUTPUT", "/nodes", "kernel writes no output stream")

    recs_raw = data.get("recurrences", [])
    if not isinstance(recs_raw, list):
        fail("E_FIELD_TYPE", "/recurrences", "'recurrences' must be an array")
    if len(recs_raw) > limits.max_recurrences:
        fail(
            "E_LIMIT_RECURRENCES", "/recurrences",
            f"{len(recs_raw)} recurrences exceeds the sandbox limit "
            f"of {limits.max_recurrences}",
        )
    recurrences: List[Dict[str, int]] = []
    for index, raw in enumerate(recs_raw):
        if not isinstance(raw, dict):
            fail("E_DOC_TYPE", json_pointer("recurrences", index),
                 "recurrence must be a JSON object")
        _check_unknown_fields(raw, _REC_FIELDS, "recurrences", index)
        for key in ("source", "target", "distance"):
            if key not in raw:
                fail("E_FIELD_MISSING", json_pointer("recurrences", index),
                     f"recurrence is missing {key!r}")
        entry = {
            key: _check_int(raw[key], key, "recurrences", index, key)
            for key in ("source", "target", "distance")
        }
        for key in ("source", "target"):
            if not 0 <= entry[key] < len(nodes):
                fail(
                    "E_RECURRENCE_INVALID",
                    json_pointer("recurrences", index, key),
                    f"{key} {entry[key]} references a missing node",
                )
        if entry["distance"] < 1:
            fail(
                "E_RECURRENCE_INVALID",
                json_pointer("recurrences", index, "distance"),
                "recurrence distance must be >= 1",
            )
        if entry["distance"] > limits.max_recurrence_distance:
            fail(
                "E_LIMIT_DISTANCE",
                json_pointer("recurrences", index, "distance"),
                f"distance {entry['distance']} exceeds the sandbox "
                f"limit of {limits.max_recurrence_distance}",
            )
        recurrences.append(entry)

    return {"name": name, "nodes": nodes, "recurrences": recurrences}


# --- canonical form -----------------------------------------------------


def canonicalize_document(
    data: Any, limits: SandboxLimits = SANDBOX_LIMITS
) -> Dict[str, Any]:
    """Validate ``data`` and rebuild it in canonical normal form.

    The normal form drops empty ``args``/``recurrences``, coerces const
    values to floats, and carries only schema fields — so two documents
    that differ in key order, whitespace, or ``2`` vs ``2.0`` const
    spellings canonicalize identically.
    """
    return _canonical_form(parse_document(data, limits))


def _canonical_form(parsed: Dict[str, Any]) -> Dict[str, Any]:
    nodes = []
    for node in parsed["nodes"]:
        canonical: Dict[str, Any] = {"op": node["op"]}
        if node["args"]:
            canonical["args"] = list(node["args"])
        if "value" in node:
            canonical["value"] = node["value"]
        if "stream" in node:
            canonical["stream"] = node["stream"]
        if node.get("name"):
            canonical["name"] = node["name"]
        nodes.append(canonical)
    document: Dict[str, Any] = {
        "schema_version": KERNEL_SCHEMA_VERSION,
        "name": parsed["name"],
        "nodes": nodes,
    }
    if parsed["recurrences"]:
        document["recurrences"] = [dict(r) for r in parsed["recurrences"]]
    return document


# --- compilation to a KernelGraph ---------------------------------------


def graph_from_document(
    data: Any, limits: SandboxLimits = SANDBOX_LIMITS
) -> KernelGraph:
    """Compile a (validated) document into a real :class:`KernelGraph`."""
    return _build_graph(parse_document(data, limits))


def _build_graph(parsed: Dict[str, Any]) -> KernelGraph:
    graph = KernelGraph(parsed["name"])
    values = []
    for node in parsed["nodes"]:
        opcode = node["_opcode"]
        if opcode is Opcode.CONST:
            values.append(graph.const(node["value"], node.get("name", "")))
        else:
            name = node.get("stream") or node.get("name", "")
            values.append(
                graph.op(opcode, *(values[i] for i in node["args"]),
                         name=name)
            )
    for rec in parsed["recurrences"]:
        graph.recurrence(
            values[rec["source"]], values[rec["target"]], rec["distance"]
        )
    graph.validate()
    return graph


def load_document(
    data: Any, limits: SandboxLimits = SANDBOX_LIMITS
) -> LoadedKernel:
    """Validate, canonicalize and hash one document.

    One :func:`parse_document` feeds both the canonical form and the
    graph, which :attr:`LoadedKernel.graph` compiles on first access.
    """
    parsed = parse_document(data, limits)
    document = _canonical_form(parsed)
    canonical = canonical_json(document)
    return LoadedKernel(
        document=document,
        canonical=canonical,
        kernel_id=hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        parsed=parsed,
    )


# --- export (built-in graph -> document) --------------------------------


def document_from_graph(kernel: KernelGraph) -> Dict[str, Any]:
    """Export a :class:`KernelGraph` as a canonical schema document.

    Exact inverse of :func:`graph_from_document`: loading the exported
    document reproduces the node list, operand edges, names, constant
    values and recurrences bit-for-bit (the conformance corpus and its
    golden tests rest on this).
    """
    nodes = []
    for node in kernel.nodes:
        doc_node: Dict[str, Any] = {"op": node.opcode.mnemonic}
        if node.operands:
            doc_node["args"] = list(node.operands)
        if node.opcode is Opcode.CONST:
            value = kernel.const_value(node.index)
            doc_node["value"] = value
            # The builder defaults a const's name to "c<value>" from the
            # *original* (possibly int) literal; only a name the default
            # would not regenerate needs exporting.
            if node.name != f"c{value}":
                doc_node["name"] = node.name
        elif node.opcode in _STREAM_OPS:
            doc_node["stream"] = node.name
        elif node.name:
            doc_node["name"] = node.name
        nodes.append(doc_node)
    document: Dict[str, Any] = {
        "schema_version": KERNEL_SCHEMA_VERSION,
        "name": kernel.name,
        "nodes": nodes,
    }
    if kernel.recurrences:
        document["recurrences"] = [
            {"source": r.source, "target": r.target, "distance": r.distance}
            for r in kernel.recurrences
        ]
    return canonicalize_document(document)
