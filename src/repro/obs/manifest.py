"""Versioned, machine-readable run manifests and response envelopes.

One simulation run serializes to one JSON *manifest*: the configuration
simulated, the environment that produced it, the result metrics, and
the wall-clock timings of the host process.  Manifests are what a
``BENCH_*.json`` perf trajectory stores and compares across PRs, so the
schema is versioned and validated — :func:`validate_manifest` checks a
parsed document against :data:`MANIFEST_SCHEMA` without any external
dependency.

Since the API redesign, every machine-readable output the toolchain
emits — CLI ``--json`` modes, every serving-daemon response — is
wrapped in one versioned *envelope* (:func:`build_envelope` /
:func:`validate_envelope`): ``kind`` names the payload, ``data`` is the
deterministic :mod:`repro.api` payload byte-identical across surfaces,
and ``meta`` carries whatever volatile context (timings, cache stats,
manifests) the producer wants to attach.  Consumers dispatch on
``envelope_version``/``kind`` instead of sniffing shapes.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import sys
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "ENVELOPE_SCHEMA",
    "ENVELOPE_VERSION",
    "MANIFEST_VERSION",
    "MANIFEST_SCHEMA",
    "ManifestError",
    "build_envelope",
    "build_manifest",
    "render_envelope",
    "validate_envelope",
    "validate_manifest",
]

#: Bumped whenever a field is added, removed, or changes meaning.
MANIFEST_VERSION = 1

#: Minimal schema language: a dict maps required keys to specs; a spec
#: is a type, a tuple of allowed types, or a nested dict.  Keys listed
#: in ``_optional`` may be absent but are type-checked when present.
MANIFEST_SCHEMA: Dict[str, Any] = {
    "manifest_version": int,
    "tool": {"name": str, "version": str},
    "application": str,
    "config": {
        "clusters": int,
        "alus_per_cluster": int,
        "total_alus": int,
        "srf_capacity_words": int,
    },
    "clock_ghz": (int, float),
    "seed_state": {
        "deterministic": bool,
        "_optional": {"python_hash_seed": (str, type(None))},
    },
    "environment": {
        "python": str,
        "platform": str,
    },
    "results": {
        "cycles": int,
        "useful_alu_ops": int,
        "gops": (int, float),
        "alu_utilization": (int, float),
        "memory_utilization": (int, float),
        "cluster_utilization": (int, float),
        "spill_words": int,
        "reload_words": int,
        "ucode_reloads": int,
        "bandwidth": {
            "lrf_words": int,
            "srf_words": int,
            "memory_words": int,
            "locality_fraction": (int, float),
        },
    },
    "metrics": dict,
    "timings": dict,
    "_optional": {"metric_warnings": list},
}


class ManifestError(ValueError):
    """A manifest does not conform to :data:`MANIFEST_SCHEMA`."""


def build_manifest(
    result: Any,
    *,
    application: Optional[str] = None,
    timings: Optional[Mapping[str, float]] = None,
) -> Dict[str, Any]:
    """Serialize a :class:`~repro.sim.metrics.SimulationResult`.

    ``result`` is duck-typed (anything exposing the result interface
    works) so this module stays import-independent of :mod:`repro.sim`.
    """
    from .. import __version__

    snapshot = getattr(result, "metrics", None)
    manifest: Dict[str, Any] = {
        "manifest_version": MANIFEST_VERSION,
        "tool": {"name": "repro", "version": __version__},
        "application": application or result.program,
        "config": {
            "clusters": result.config.clusters,
            "alus_per_cluster": result.config.alus_per_cluster,
            "total_alus": result.config.total_alus,
            "srf_capacity_words": int(result.config.srf_capacity_words),
        },
        "clock_ghz": result.clock_ghz,
        # The simulator is fully deterministic (no RNG anywhere in the
        # model); the hash seed is recorded because it is the only
        # interpreter-level source of nondeterminism that could matter.
        "seed_state": {
            "deterministic": True,
            "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        },
        "environment": {
            "python": platform.python_version(),
            "platform": sys.platform,
        },
        "results": {
            "cycles": result.cycles,
            "useful_alu_ops": result.useful_alu_ops,
            "gops": result.gops,
            "alu_utilization": result.alu_utilization,
            "memory_utilization": result.memory_utilization,
            "cluster_utilization": result.cluster_utilization,
            "spill_words": result.spill_words,
            "reload_words": result.reload_words,
            "ucode_reloads": result.ucode_reloads,
            "bandwidth": {
                "lrf_words": result.bandwidth.lrf_words,
                "srf_words": result.bandwidth.srf_words,
                "memory_words": result.bandwidth.memory_words,
                "locality_fraction": result.bandwidth.locality_fraction,
            },
        },
        "metrics": dict(snapshot.as_dict()) if snapshot else {},
        "timings": dict(timings or {}),
    }
    if snapshot and snapshot.warnings:
        manifest["metric_warnings"] = list(snapshot.warnings)
    return manifest


def _check(value: Any, spec: Any, path: str, errors: List[str]) -> None:
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            errors.append(f"{path}: expected object, got {type(value).__name__}")
            return
        optional = spec.get("_optional", {})
        for key, sub in spec.items():
            if key == "_optional":
                continue
            if key not in value:
                errors.append(f"{path}.{key}: missing required field")
            else:
                _check(value[key], sub, f"{path}.{key}", errors)
        for key, sub in optional.items():
            if key in value:
                _check(value[key], sub, f"{path}.{key}", errors)
        return
    types = spec if isinstance(spec, tuple) else (spec,)
    # bool is an int subclass; keep the two distinct in the schema.
    if isinstance(value, bool) and bool not in types:
        errors.append(f"{path}: expected {spec}, got bool")
    elif not isinstance(value, types):
        errors.append(
            f"{path}: expected "
            f"{'/'.join(t.__name__ for t in types)}, "
            f"got {type(value).__name__}"
        )


def validate_manifest(manifest: Any) -> None:
    """Raise :class:`ManifestError` unless ``manifest`` fits the schema."""
    errors: List[str] = []
    _check(manifest, MANIFEST_SCHEMA, "manifest", errors)
    if not errors and manifest["manifest_version"] != MANIFEST_VERSION:
        errors.append(
            f"manifest.manifest_version: {manifest['manifest_version']} "
            f"is not the supported version {MANIFEST_VERSION}"
        )
    if errors:
        raise ManifestError("; ".join(errors))


# --- response envelopes -------------------------------------------------

#: Bumped whenever an envelope field is added, removed, or changes
#: meaning (the payload inside ``data`` is versioned separately by
#: :data:`repro.api.API_VERSION`).
ENVELOPE_VERSION = 1

#: Schema for the unified machine-readable output wrapper (same schema
#: language as :data:`MANIFEST_SCHEMA`).
ENVELOPE_SCHEMA: Dict[str, Any] = {
    "envelope_version": int,
    "api_version": int,
    "kind": str,
    "tool": {"name": str, "version": str},
    "ok": bool,
    "_optional": {
        "data": dict,
        # ``error`` may additionally carry ``pointer`` — an RFC 6901
        # JSON Pointer into the request body naming the offending field
        # (API v5; no daemon route sets one since v8).  Unknown keys
        # pass validation, so the typed check stays on the two
        # required fields.
        "error": {"code": str, "message": str},
        "meta": dict,
    },
}


def build_envelope(
    kind: str,
    data: Optional[Mapping[str, Any]] = None,
    *,
    error: Optional[Mapping[str, Any]] = None,
    meta: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Wrap one payload (or one error) in the versioned envelope.

    ``data`` must be the deterministic payload (a :mod:`repro.api`
    result's ``to_dict()``, or a mapping of several); ``meta`` is for
    volatile context — wall times, cache statistics, run manifests —
    that equivalence comparisons must ignore.  Exactly one of ``data``
    and ``error`` must be provided.
    """
    from ..api import API_VERSION
    from .. import __version__

    if (data is None) == (error is None):
        raise ValueError("an envelope carries either data or an error")
    envelope: Dict[str, Any] = {
        "envelope_version": ENVELOPE_VERSION,
        "api_version": API_VERSION,
        "kind": kind,
        "tool": {"name": "repro", "version": __version__},
        "ok": error is None,
    }
    if data is not None:
        envelope["data"] = dict(data)
    if error is not None:
        envelope["error"] = dict(error)
    if meta is not None:
        envelope["meta"] = dict(meta)
    return envelope


#: Canonical JSON (sorted keys, compact separators), built once:
#: ``json.dumps`` builds a new encoder on every call with these options.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


@functools.lru_cache(maxsize=None)
def _envelope_frame(kind: str) -> Tuple[str, str, str]:
    """The canonical text of a ``kind`` data envelope, cut where its
    ``data`` and ``meta`` values go (sorted keys put ``data`` before
    ``meta``, and no earlier value can contain either cut)."""
    text = _CANONICAL.encode(build_envelope(kind, data={}, meta={}))
    head, _, rest = text.partition('"data":{}')
    middle, _, tail = rest.partition('"meta":{}')
    return head + '"data":', middle + '"meta":', tail


def render_envelope(
    kind: str, data_json: str, meta: Mapping[str, Any]
) -> str:
    """The canonical JSON of a ``kind`` data envelope around
    ``data_json``, the canonical JSON of its ``data``, which is used as
    it stands: byte-identical to ``json.dumps(build_envelope(kind,
    data=json.loads(data_json), meta=meta), sort_keys=True,
    separators=(",", ":"))``."""
    head, middle, tail = _envelope_frame(kind)
    return f"{head}{data_json}{middle}{_CANONICAL.encode(dict(meta))}{tail}"


def validate_envelope(envelope: Any) -> None:
    """Raise :class:`ManifestError` unless ``envelope`` fits the schema."""
    errors: List[str] = []
    _check(envelope, ENVELOPE_SCHEMA, "envelope", errors)
    if not errors:
        if envelope["envelope_version"] != ENVELOPE_VERSION:
            errors.append(
                f"envelope.envelope_version: {envelope['envelope_version']} "
                f"is not the supported version {ENVELOPE_VERSION}"
            )
        if envelope["ok"] and "data" not in envelope:
            errors.append("envelope.data: required when ok is true")
        if not envelope["ok"] and "error" not in envelope:
            errors.append("envelope.error: required when ok is false")
    if errors:
        raise ManifestError("; ".join(errors))
