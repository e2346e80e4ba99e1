"""The serving daemon: JSON-over-HTTP on a warm process.

``python -m repro serve`` starts a long-running asyncio server that
answers every :mod:`repro.api` request kind over a tiny JSON protocol:

* ``GET  /healthz`` — liveness (plain JSON, no envelope)
* ``GET  /v1/stats`` — request counters, sweep-engine memo and caches
* ``GET  /v1/metrics`` — the full metrics-registry snapshot
* ``GET  /metrics`` — the same registry in Prometheus text format
* ``POST /v1/costs`` — :class:`repro.api.CostQuery`
* ``POST /v1/compile`` — :class:`repro.api.CompileRequest`
* ``POST /v1/simulate`` — :class:`repro.api.SimulateRequest`
* ``POST /v1/sweeps`` — :class:`repro.api.SweepRequest`
* ``POST /v1/kernels`` — :class:`repro.api.RegisterKernelRequest`
  (register a user kernel document; idempotent by content hash)
* ``GET  /v1/kernels`` — registered-kernel summaries
* ``GET  /v1/kernels/{id}`` — one kernel's summary plus its canonical
  document (``{id}`` is the ``kernel:<hash>`` ref, the bare hash, or a
  unique prefix of at least 8 hex characters)

Every request gets a **correlation id**: the sanitized ``X-Request-Id``
header if the client sent one, else a freshly minted id.  The id comes
back in the ``X-Request-Id`` response header and the envelope's
``meta.request_id``, and, under ``--trace-out``, on the one
``serve.http`` span the request leaves in the trace, next to its
status.

Request bodies are the request dataclass's ``to_dict()`` JSON; responses
are versioned envelopes (:func:`repro.obs.manifest.build_envelope`)
whose ``data`` is byte-for-byte the ``to_dict()`` of the result the
in-process library call would return — volatile context (durations,
request ids) rides in ``meta`` only.

The daemon exists because process startup dominates small queries: a
cold ``python -m repro costs`` pays interpreter boot, imports and cache
warming per query, while the daemon pays them once and answers
steady-state traffic from the shared
:func:`~repro.analysis.sweep.default_engine` memo and compile caches.

**One request at a time.**  The event loop that reads a request
validates it and calls :func:`repro.api.execute` inline: no queue,
task or thread stands between a request's bytes arriving and its reply
leaving.  While one request executes, every other connection waits in
the kernel's socket buffers and listen backlog, ``/healthz`` included.

**Reply memo.**  Every answer is deterministic, so a ``200`` from
``/v1/costs``, ``/v1/compile``, ``/v1/simulate`` or ``/v1/sweeps`` is
kept as the canonical JSON of its ``data``, keyed on the route and the
exact request body bytes, and a repeat of those bytes is answered from
it without parsing, executing or serializing anything.  Never kept:
errors (a failure is recomputed, not replayed), ``POST /v1/kernels``
(re-registering repairs a damaged entry on disk), and a request naming
a ``kernel:`` reference (another process's registration can make a
prefix that resolved once ambiguous).  At most
:data:`REPLY_MEMO_ENTRIES` replies are kept, the oldest going first,
and a body over :data:`REPLY_MEMO_MAX_BODY_BYTES` is never a key.

Operational behavior:

* **draining** — a request that arrives while the server shuts down
  answers ``503`` with ``Retry-After``;
* **graceful drain** — ``SIGTERM``/``SIGINT`` stop accepting, close
  idle connections, flush the optional Chrome trace, and exit 0.

Implementation note: HTTP/1.1 parsing is hand-rolled on asyncio streams
(request line + headers + ``Content-Length`` body, keep-alive) because
the stdlib's ``http.server`` is thread-per-request and this daemon is
deliberately stdlib-only.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

from ..api import ApiError, execute, request_from_dict
from ..obs.manifest import build_envelope, render_envelope
from ..obs.metrics import MetricsRegistry, render_prometheus
from ..obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "ERROR_CODES",
    "REPLY_MEMO_ENTRIES",
    "REPLY_MEMO_MAX_BODY_BYTES",
    "ReproServer",
    "ServerConfig",
    "run_server",
]

#: HTTP reason phrases for the statuses the daemon emits.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: The stable error-code registry (the frontend's ``E_*`` pattern,
#: serving flavor).  Every error response is the typed envelope
#: ``{code, message}``: ``code`` is drawn from this table and never
#: renamed within an API version, and ``message`` is human-readable
#: and free to change.
ERROR_CODES = {
    "bad_request": "malformed JSON, unknown field, or unknown name",
    "not_found": "no such route or kernel",
    "method_not_allowed": "the route exists but not for this verb",
    "payload_too_large": "request body exceeds the configured limit",
    "internal": "unexpected server-side failure",
    "draining": "server is shutting down; retry against a peer",
}

#: Every counted route, by request path: the label of its
#: ``serve.requests.*`` and ``serve.request_seconds.*`` metrics, and the
#: API request kind it serves (``/v1/sweeps`` serves the singular
#: ``sweep`` payload kind) or None.  A route that ends in a ref is keyed
#: by its collection prefix (``/v1/kernels/``), so a label never carries
#: a ref or a query string.
_ROUTES: Dict[str, Tuple[str, Optional[str]]] = {
    "/healthz": ("healthz", None),
    "/metrics": ("metrics", None),
    "/v1/stats": ("stats", None),
    "/v1/metrics": ("metrics", None),
    "/v1/costs": ("costs", "costs"),
    "/v1/compile": ("compile", "compile"),
    "/v1/simulate": ("simulate", "simulate"),
    "/v1/sweeps": ("sweeps", "sweep"),
    "/v1/kernels": ("kernels", "kernels"),
    "/v1/kernels/": ("kernel", None),
}

#: The label and kind of a path no route matches.
_NOT_FOUND: Tuple[str, Optional[str]] = ("not_found", None)

#: The most replies one daemon keeps in its reply memo; the oldest
#: entry is dropped first.
REPLY_MEMO_ENTRIES = 1024

#: The longest request body the reply memo keeps a reply for (every
#: request the API defines is far shorter), so its keys hold at most
#: ``REPLY_MEMO_ENTRIES`` times this many bytes whatever clients send.
REPLY_MEMO_MAX_BODY_BYTES = 4096

#: The API kinds whose successful replies the memo keeps: every one
#: but ``kernels``, whose re-registration rewrites a damaged entry on
#: disk.
_MEMOIZED_KINDS = frozenset({"costs", "compile", "simulate", "sweep"})


def _label_of(path: str) -> str:
    """``path``'s metric label (see :data:`_ROUTES`)."""
    return (_ROUTES.get(path) or _ROUTES.get(
        path[:path.find("/", 4) + 1], _NOT_FOUND
    ))[0]


#: Characters a request id may contain; anything else is replaced, so a
#: hostile ``X-Request-Id`` cannot inject a header or a trace field.
_ID_UNSAFE = re.compile(r"[^A-Za-z0-9._-]")


def _memoizable(kind: str, body: bytes, request: Any) -> bool:
    """Whether the reply memo may keep a successful reply to
    ``request``: not for a ``kernels`` registration, nor a body over
    :data:`REPLY_MEMO_MAX_BODY_BYTES`, nor a request naming a
    ``kernel:`` reference (resolving one reads the kernel registry's
    disk store, which other processes write, so its answer can
    change)."""
    if kind not in _MEMOIZED_KINDS or len(body) > REPLY_MEMO_MAX_BODY_BYTES:
        return False
    # The test repro.api applies before resolving a name in the registry.
    return not any(
        isinstance(value, str) and value.startswith("kernel:")
        for value in vars(request).values()
    )


def new_request_id() -> str:
    """A fresh 12-hex-character request id."""
    return os.urandom(6).hex()


def sanitize_request_id(raw: str) -> str:
    """A client's ``X-Request-Id`` made safe for headers and traces:
    unsafe characters become ``_`` and the id is cut to 64
    characters."""
    return _ID_UNSAFE.sub("_", raw)[:64]


@dataclass(frozen=True)
class ServerConfig:
    """Tunables for one :class:`ReproServer` instance.

    ``port=0`` binds an ephemeral port (the bound port is reported by
    :attr:`ReproServer.port` and printed on the ready line).
    """

    host: str = "127.0.0.1"
    port: int = 8712
    max_body_bytes: int = 1 << 20
    #: Write a Chrome trace of the serving window here on drain.
    trace_path: Optional[str] = None


class _Unframeable(Exception):
    """A request whose framing the parser cannot trust: a line over the
    stream limit, a request line without a method and a target, any
    ``Transfer-Encoding`` (no chunked body is read), or a
    ``Content-Length`` that is not a non-negative integer or is sent
    twice with different values.  Answered 400, then the connection
    closes, because where the next request starts is unknown."""

    def __init__(self, method: str, path: str, message: str):
        super().__init__(message)
        self.method = method
        self.path = path


class ReproServer:
    """One serving instance: HTTP front end over the warm caches.

    Lifecycle: :meth:`start` (binds and begins accepting),
    :meth:`drain_and_stop` (stop accepting, close connections, flush
    the trace).  :func:`repro.serve.inprocess.running_server` drives it
    in-process; ``run_server`` wires it to signals for real
    deployments.
    """

    def __init__(self, config: ServerConfig):
        self.config = config
        self.metrics = MetricsRegistry()
        self.tracer = Tracer() if config.trace_path else NULL_TRACER
        #: API requests answered from the reply memo or by reaching
        #: :func:`execute` (failures included).
        self.executed = 0
        #: ``(kind, request body) -> canonical JSON of the reply's
        #: data``, oldest first (see the module docstring).
        self._replies: Dict[Tuple[str, bytes], str] = {}
        self._reply_hits = 0
        self.draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._started_monotonic = 0.0

    # --- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket."""
        self._started_monotonic = time.perf_counter()
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )

    @property
    def port(self) -> int:
        """The actually-bound port (resolves ``port=0`` ephemerals)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def drain_and_stop(self) -> None:
        """Graceful shutdown: stop accepting, close every connection,
        flush the trace.  No request is left running: each executes to
        completion inside one event-loop callback."""
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Kick idle keep-alive connections loose so their handler
        # coroutines finish instead of waiting on a dead socket.
        for writer in list(self._connections):
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass
        if self.config.trace_path and self.tracer.enabled:
            with open(self.config.trace_path, "w") as handle:
                handle.write(self.tracer.to_chrome_json())

    # --- observability --------------------------------------------------

    def _now_us(self) -> int:
        return int((time.perf_counter() - self._started_monotonic) * 1e6)

    def stats(self) -> Dict[str, Any]:
        """Everything ``/v1/stats`` reports: request counters, the
        reply memo, the sweep-engine memo and compile caches.

        The ``batcher`` block keeps the shape the micro-batcher gave it,
        for readers of its counters (the ``daemon-mix`` benchmark reads
        ``deduped``, CI's serving smoke ``batches``): each API request
        answered from the reply memo or reaching :func:`execute` is one
        submission, one batch and one execution, and nothing is ever
        deduplicated or queued.
        """
        from ..analysis.sweep import default_engine
        from ..compiler.cache import default_cache
        from ..compiler.pipeline import memo_size

        cache = default_cache()
        return {
            "draining": self.draining,
            "batcher": {
                "submitted": self.executed,
                "deduped": 0,
                "batches": self.executed,
                "executed": self.executed,
                "queue_depth": 0,
            },
            "reply_memo": {
                "entries": len(self._replies),
                "hits": self._reply_hits,
            },
            "engine": default_engine().stats(),
            "compile_cache": {**cache.stats(), "hit_rate": cache.hit_rate},
            "compile_memo_entries": memo_size(),
        }

    # --- HTTP plumbing --------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _Unframeable as exc:
                    request_id = new_request_id()
                    status, payload = self._error(
                        exc.path, 400, "bad_request", str(exc)
                    )
                    self._observe(
                        exc.method, exc.path, status, time.perf_counter(),
                        request_id,
                    )
                    await self._write_response(
                        writer, status, payload, keep_alive=False,
                        request_id=request_id,
                    )
                    break
                if request is None:
                    break
                method, path, headers, body = request
                request_id = headers.get("x-request-id", "").strip()
                request_id = (
                    sanitize_request_id(request_id)
                    if request_id
                    else new_request_id()
                )
                started = time.perf_counter()
                status, payload = self._route(method, path, body, request_id)
                self._observe(method, path, status, started, request_id)
                keep_alive = (
                    headers.get("connection", "").lower() != "close"
                )
                await self._write_response(
                    writer, status, payload, keep_alive, request_id
                )
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], Optional[bytes]]]:
        """Parse one HTTP/1.1 request; ``None`` on a closed connection.

        Empty lines before the request line are skipped (RFC 9112
        §2.2).  The body is ``None`` when ``Content-Length`` exceeds
        ``max_body_bytes`` (the bytes are read and dropped, so the
        connection stays usable): no body a client can send stands for
        "too large".  Raises :class:`_Unframeable` for a request whose
        end cannot be found.  ``StreamReader.readline`` reports a line
        over the stream limit as ``ValueError``.
        """
        line = b"\r\n"
        while line in (b"\r\n", b"\n"):
            try:
                line = await reader.readline()
            except ConnectionError:
                return None
            except ValueError:
                raise _Unframeable("", "", "request line too long")
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) < 2:
            raise _Unframeable("", "", "malformed request line")
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            try:
                raw = await reader.readline()
            except ValueError:
                raise _Unframeable(method, path, "header line too long")
            if not raw or raw in (b"\r\n", b"\n"):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            name, value = name.strip().lower(), value.strip()
            if name == "content-length" and headers.get(name, value) != value:
                raise _Unframeable(
                    method, path, "conflicting Content-Length values"
                )
            headers[name] = value
        if "transfer-encoding" in headers:
            raise _Unframeable(
                method, path,
                "Transfer-Encoding is not supported; send Content-Length",
            )
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            length = -1
        if length < 0:
            raise _Unframeable(
                method, path,
                "Content-Length must be a non-negative integer",
            )
        if length > self.config.max_body_bytes:
            # Drain what we can without buffering it, then refuse.
            remaining = length
            while remaining > 0:
                chunk = await reader.read(min(remaining, 1 << 16))
                if not chunk:
                    break
                remaining -= len(chunk)
            return (method, path, headers, None)
        body = await reader.readexactly(length) if length else b""
        return (method, path, headers, body)

    def _observe(
        self,
        method: str,
        path: str,
        status: int,
        started: float,
        request_id: str,
    ) -> None:
        """Count and time one answered request; when tracing, leave its
        one ``serve.http`` span, carrying its id and status."""
        label = _label_of(path)
        self.metrics.counter(f"serve.requests.{label}").inc()
        self.metrics.counter(f"serve.responses.{status}").inc()
        elapsed = time.perf_counter() - started
        self.metrics.histogram("serve.request_seconds").observe(elapsed)
        self.metrics.histogram(f"serve.request_seconds.{label}").observe(
            elapsed
        )
        if self.tracer.enabled:
            finish = self._now_us()
            self.tracer.span(
                "serve.http",
                f"{method} {path}",
                max(0, finish - int(elapsed * 1e6)),
                finish,
                request_id=request_id,
                status=status,
            )

    # --- routing --------------------------------------------------------

    def _route(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        request_id: str,
    ) -> Tuple[int, Union[Dict[str, Any], bytes, str]]:
        """Dispatch one parsed request to its handler and run it; never
        raises.

        ``body`` is ``None`` for a body over ``max_body_bytes``, and
        ``request_id`` is echoed in an API reply's ``meta``.
        Payloads are JSON dictionaries, except an API reply with data,
        which is its rendered JSON envelope as bytes, and ``GET
        /metrics``, which returns pre-rendered Prometheus text.
        """
        try:
            if body is None:
                return self._error(
                    path, 413, "payload_too_large",
                    f"body exceeds {self.config.max_body_bytes} bytes",
                )
            if path == "/healthz":
                if method != "GET":
                    return self._error(
                        path, 405, "method_not_allowed", "use GET"
                    )
                return (200, {"status": "ok", "draining": self.draining})
            if path == "/v1/stats":
                if method != "GET":
                    return self._error(
                        path, 405, "method_not_allowed", "use GET"
                    )
                return (200, build_envelope("stats", data=self.stats()))
            if path == "/v1/metrics":
                if method != "GET":
                    return self._error(
                        path, 405, "method_not_allowed", "use GET"
                    )
                return (
                    200,
                    build_envelope(
                        "metrics",
                        data={"metrics": self.metrics.snapshot().as_dict()},
                    ),
                )
            if path == "/metrics":
                if method != "GET":
                    return self._error(
                        path, 405, "method_not_allowed", "use GET"
                    )
                return (200, render_prometheus(self.metrics))
            if path == "/v1/kernels" and method == "GET":
                # Listing shares the POST path's URL; it must be
                # answered before the API-kind fall-through or a bare
                # GET would bounce off the 405 there.
                from ..frontend.registry import default_registry

                return (
                    200,
                    build_envelope(
                        "kernels",
                        data={"kernels": default_registry().list()},
                    ),
                )
            if path.startswith("/v1/kernels/"):
                if method != "GET":
                    return self._error(
                        path, 405, "method_not_allowed", "use GET"
                    )
                return self._handle_kernel_lookup(
                    path, path[len("/v1/kernels/"):]
                )
            kind = _ROUTES.get(path, _NOT_FOUND)[1]
            if kind is not None:
                if method != "POST":
                    return self._error(
                        path, 405, "method_not_allowed", "use POST"
                    )
                return self._handle_api(kind, body, request_id)
            return self._error(
                path, 404, "not_found", f"no route for {path}"
            )
        except Exception as exc:  # last-resort guard: keep serving
            return self._error(
                path, 500, "internal", f"{type(exc).__name__}: {exc}"
            )

    def _handle_kernel_lookup(
        self, path: str, ref: str
    ) -> Tuple[int, Dict[str, Any]]:
        """``GET /v1/kernels/{id}``: summary plus canonical document."""
        from ..frontend.registry import default_registry

        registry = default_registry()
        try:
            entry = registry.resolve(ref)
        except KeyError as exc:
            return self._error(path, 404, "not_found", str(exc))
        data = registry.summary(entry)
        data["document"] = entry.document
        return (200, build_envelope("kernel", data=data))

    def _error(
        self,
        path: str,
        status: int,
        code: str,
        message: str,
    ) -> Tuple[int, Dict[str, Any]]:
        assert code in ERROR_CODES, f"unregistered error code {code!r}"
        kind = path.rsplit("/", 1)[-1] or "request"
        return (status, build_envelope(
            kind, error={"code": code, "message": message}
        ))

    def _handle_api(
        self, kind: str, body: bytes, request_id: str
    ) -> Tuple[int, Union[Dict[str, Any], bytes]]:
        """Answer a repeat from the reply memo; else validate, execute
        inline and keep the reply if it may be memoized.  Both leave as
        one envelope rendered around the data's canonical JSON.

        An :class:`ApiError` is the client's fault (400); any other
        exception propagates to :meth:`_route`'s guard, which answers
        500 naming it.  ``serve.batch_seconds`` times producing the
        data: the execution on a miss, the lookup on a hit.
        """
        path = f"/v1/{kind}"
        if self.draining:
            return self._error(
                path, 503, "draining", "server is draining; retry elsewhere"
            )
        key = (kind, body)
        started = time.perf_counter()
        data_json = self._replies.get(key)
        if data_json is not None:
            elapsed = time.perf_counter() - started
            self._reply_hits += 1
            self._count_execution(elapsed)
        else:
            try:
                data = json.loads(body.decode("utf-8")) if body else {}
            except ValueError as exc:
                return self._error(path, 400, "bad_request",
                                   f"invalid JSON body ({exc})")
            try:
                request = request_from_dict(kind, data)
            except ApiError as exc:
                return self._error(path, 400, "bad_request", str(exc))
            started = time.perf_counter()
            try:
                result = execute(request)
            except ApiError as exc:
                return self._error(path, 400, "bad_request", str(exc))
            finally:
                elapsed = time.perf_counter() - started
                self._count_execution(elapsed)
            data_json = result.to_json()
            if _memoizable(kind, body, request):
                self._remember(key, data_json)
        meta = {
            "duration_ms": round(elapsed * 1000.0, 3),
            "request_id": request_id,
        }
        return (200, render_envelope(kind, data_json, meta).encode("utf-8"))

    def _count_execution(self, elapsed: float) -> None:
        self.executed += 1
        self.metrics.histogram("serve.batch_seconds").observe(elapsed)

    def _remember(self, key: Tuple[str, bytes], data_json: str) -> None:
        """Keep one reply, dropping the oldest while the memo is full."""
        while len(self._replies) >= REPLY_MEMO_ENTRIES:
            del self._replies[next(iter(self._replies))]
        self._replies[key] = data_json

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Union[Dict[str, Any], bytes, str],
        keep_alive: bool,
        request_id: str,
    ) -> None:
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = payload if isinstance(payload, bytes) else json.dumps(
                payload, sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
            content_type = "application/json"
        headers = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
            f"X-Request-Id: {request_id}",
        ]
        if status == 503:
            headers.append("Retry-After: 1")
        writer.write(
            ("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body
        )
        await writer.drain()

def run_server(config: ServerConfig) -> int:
    """Run the daemon until SIGTERM/SIGINT, then drain; returns the
    process exit code (0 after the drain, 2 when the port is taken)."""
    import signal
    import sys

    async def _serve() -> int:
        server = ReproServer(config)
        try:
            await server.start()
        except OSError as exc:
            # The common operational mistake — another daemon already
            # on the port — deserves one actionable line, not a
            # traceback.
            print(
                f"repro serve: cannot bind "
                f"{config.host}:{config.port} ({exc.strerror or exc})",
                file=sys.stderr,
                flush=True,
            )
            return 2
        stop = asyncio.get_running_loop().create_future()

        def _request_stop(*_args) -> None:
            if not stop.done():
                stop.set_result(None)

        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, _request_stop)
            loop.add_signal_handler(signal.SIGINT, _request_stop)
        except (NotImplementedError, RuntimeError):
            # Platforms without loop signal support (e.g. Windows
            # proactor): fall back to the default KeyboardInterrupt.
            signal.signal(signal.SIGTERM, _request_stop)
        print(
            f"repro serve: listening on http://{config.host}:{server.port}",
            flush=True,
        )
        await stop
        print("repro serve: draining...", flush=True)
        await server.drain_and_stop()
        snapshot = server.metrics.snapshot().as_dict()
        summary = {
            # Always true: no request can be left running (see
            # drain_and_stop); scripts check the key.
            "clean_drain": True,
            "requests": int(
                sum(
                    value
                    for name, value in snapshot.items()
                    if name.startswith("serve.requests.")
                )
            ),
            "mean_request_ms": round(
                snapshot.get("serve.request_seconds.mean", 0.0) * 1000.0, 3
            ),
        }
        print(f"repro serve: drained {json.dumps(summary)}", flush=True)
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        return 0
