"""Structured JSON-lines logging with request correlation.

Every serving-path component (HTTP daemon, sweep engine) emits
events through one stdlib-``logging``
hierarchy rooted at the ``repro`` logger.  Two formatters exist: a
human one-liner and :class:`JsonLinesFormatter`, which emits one JSON
object per line under a **versioned schema**
(:data:`LOG_SCHEMA_VERSION` / :data:`LOG_SCHEMA`,
checked by :func:`validate_log_line`) so log pipelines can parse
without sniffing.

Correlation rides on a :mod:`contextvars`-scoped **request id**: the
daemon mints one per HTTP request (or adopts the client's
``X-Request-Id``), binds it around the work, and every log line and
tracer instant event emitted inside that scope carries it — one grep
joins both.  Binding never touches the process environment, which
every thread shares, and a context variable is private to each asyncio
task, so the daemon's connection handlers never see each other's ids.
The one run-level id lives in ``REPRO_REQUEST_ID``, which the CLI exports
once before any thread starts (or a parent process sets), and
:func:`current_request_id` falls back to it when no context-local id
is bound.

Nothing here runs unless configured: the ``repro`` logger gets a
``NullHandler`` and ``propagate=False`` at import, so a run without
``--log-json``/``--log-level`` emits not a single byte — the
bit-identity guarantee of the observability layer extends to logging.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import logging
import os
import re
import sys
import uuid
from typing import Any, Dict, Iterator, List, Optional, TextIO

__all__ = [
    "LOG_SCHEMA",
    "LOG_SCHEMA_VERSION",
    "REQUEST_ID_ENV",
    "JsonLinesFormatter",
    "bind_request_id",
    "configure",
    "current_request_id",
    "get_logger",
    "log_event",
    "new_request_id",
    "sanitize_request_id",
    "validate_log_line",
]

#: Bumped whenever a line field is added, removed, or changes meaning.
LOG_SCHEMA_VERSION = 1

#: Environment variable carrying a run-level request id (the CLI
#: exports it once per command; nothing else writes it).
REQUEST_ID_ENV = "REPRO_REQUEST_ID"

#: Root of the logging hierarchy every repro component logs under.
ROOT_LOGGER = "repro"

#: Schema of one JSON log line (the mini-language of
#: :data:`repro.obs.manifest.MANIFEST_SCHEMA`): required keys map to
#: specs, ``_optional`` keys are checked only when present.
LOG_SCHEMA: Dict[str, Any] = {
    "log_schema_version": int,
    "ts": (int, float),
    "level": str,
    "logger": str,
    "event": str,
    "request_id": (str, type(None)),
    "_optional": {"fields": dict, "exc": str},
}

#: Characters a request id may contain; anything else is replaced so a
#: hostile ``X-Request-Id`` header cannot smuggle log/trace injection.
_ID_SAFE = re.compile(r"[^A-Za-z0-9._-]")

_request_id: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
    "repro_request_id", default=None
)

# Unconfigured logging must be byte-for-byte silent (the lastResort
# handler would otherwise print WARNING+ events to stderr and perturb
# seed-identical CLI output).
_root = logging.getLogger(ROOT_LOGGER)
_root.addHandler(logging.NullHandler())
_root.propagate = False


def new_request_id() -> str:
    """Mint a fresh 12-hex-character request id."""
    return uuid.uuid4().hex[:12]


def sanitize_request_id(raw: str, max_length: int = 64) -> str:
    """A caller-supplied id made safe for logs, traces, and URLs."""
    return _ID_SAFE.sub("_", raw)[:max_length]


def current_request_id() -> Optional[str]:
    """The bound request id: context-local first, then the run-level
    ``REPRO_REQUEST_ID`` from the environment."""
    bound = _request_id.get()
    if bound is not None:
        return bound
    return os.environ.get(REQUEST_ID_ENV) or None


@contextlib.contextmanager
def bind_request_id(request_id: Optional[str]) -> Iterator[Optional[str]]:
    """Bind ``request_id`` for the dynamic extent of the ``with`` block.

    The binding is a context variable, so it is local to the calling
    thread (and task): two threads binding different ids at once never
    see each other's.
    """
    token = _request_id.set(request_id)
    try:
        yield request_id
    finally:
        _request_id.reset(token)


class JsonLinesFormatter(logging.Formatter):
    """One JSON object per line, under :data:`LOG_SCHEMA`."""

    def format(self, record: logging.LogRecord) -> str:
        """Serialize ``record`` as one schema-conformant JSON line."""
        request_id = getattr(record, "request_id", None)
        if request_id is None:
            request_id = current_request_id()
        doc: Dict[str, Any] = {
            "log_schema_version": LOG_SCHEMA_VERSION,
            "ts": round(record.created, 6),
            "level": record.levelname,
            "logger": record.name,
            "event": record.getMessage(),
            "request_id": request_id,
        }
        fields = getattr(record, "repro_fields", None)
        if fields:
            doc["fields"] = fields
        if record.exc_info:
            doc["exc"] = self.formatException(record.exc_info)
        return json.dumps(
            doc, sort_keys=True, separators=(",", ":"), default=str
        )


class HumanFormatter(logging.Formatter):
    """``LEVEL logger event key=value ...`` one-liners for terminals."""

    def format(self, record: logging.LogRecord) -> str:
        """Render ``record`` as a compact human-readable line."""
        request_id = getattr(record, "request_id", None) or \
            current_request_id()
        parts = [record.levelname, record.name, record.getMessage()]
        if request_id:
            parts.append(f"request_id={request_id}")
        fields = getattr(record, "repro_fields", None) or {}
        parts.extend(f"{key}={value}" for key, value in fields.items())
        line = " ".join(parts)
        if record.exc_info:
            line += "\n" + self.formatException(record.exc_info)
        return line


def configure(
    json_lines: bool = False,
    level: str = "INFO",
    stream: Optional[TextIO] = None,
) -> logging.Logger:
    """Attach one stream handler to the ``repro`` logger.

    Idempotent: a previous handler installed by this function is
    replaced, never stacked, so reconfiguring (tests, REPLs) cannot
    double-emit.  Returns the configured root logger.
    """
    logger = logging.getLogger(ROOT_LOGGER)
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_installed", False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else
                                    sys.stderr)
    handler.setFormatter(
        JsonLinesFormatter() if json_lines else HumanFormatter()
    )
    handler._repro_installed = True  # type: ignore[attr-defined]
    logger.addHandler(handler)
    logger.setLevel(getattr(logging, level.upper(), logging.INFO))
    logger.propagate = False
    return logger


def get_logger(name: str = "") -> logging.Logger:
    """A child of the ``repro`` logger (``repro.<name>``)."""
    return logging.getLogger(
        f"{ROOT_LOGGER}.{name}" if name else ROOT_LOGGER
    )


def log_event(
    logger: logging.Logger,
    event: str,
    *,
    level: int = logging.INFO,
    request_id: Optional[str] = None,
    **fields: Any,
) -> None:
    """Emit one structured event; free when the level is disabled."""
    if not logger.isEnabledFor(level):
        return
    extra: Dict[str, Any] = {"repro_fields": fields}
    if request_id is not None:
        extra["request_id"] = request_id
    logger.log(level, event, extra=extra)


def validate_log_line(doc: Any) -> None:
    """Raise :class:`ValueError` unless ``doc`` fits :data:`LOG_SCHEMA`
    (parse the line with :func:`json.loads` first)."""
    from .manifest import _check

    errors: List[str] = []
    _check(doc, LOG_SCHEMA, "log", errors)
    if not errors and doc["log_schema_version"] != LOG_SCHEMA_VERSION:
        errors.append(
            f"log.log_schema_version: {doc['log_schema_version']} "
            f"is not the supported version {LOG_SCHEMA_VERSION}"
        )
    if errors:
        raise ValueError("; ".join(errors))
