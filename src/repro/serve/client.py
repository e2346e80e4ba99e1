"""A thin blocking client for the serving daemon.

:class:`ServeClient` speaks the daemon's JSON protocol over one
keep-alive socket (stdlib, no dependencies): request dataclasses go
out as their ``to_dict()`` JSON, envelopes come back as plain
dictionaries.  It frames HTTP/1.1 itself, in exactly the subset
:mod:`repro.serve.daemon` parses by hand: a request's line, headers and
``Content-Length`` body leave in one ``sendall``; a reply's status line
and headers are split from a buffered reader and its body is read to
exactly its ``Content-Length`` (no chunked encoding).  It deliberately
imports nothing heavy — only :mod:`repro.api` request types, which are
lazy themselves, and neither ``http.client`` nor the ``email`` package
— so scripts and tests can hammer a daemon without paying the
library's import bill.

The client is *transport-thin* with one deliberate exception: it
honors explicit backpressure.  The daemon's one such answer is a
``503`` while it drains, carrying ``Retry-After``; the client sleeps
that long and retries, bounded by ``backpressure_retries`` (pass ``0``
to opt out and see the raw statuses — load generators and
backpressure tests do).  A ``429`` is treated the same way, though the
daemon never sends one.  Everything
else stays thin: no connection pooling across threads, no envelope
interpretation beyond JSON decoding (see ``docs/serving.md``).
"""

from __future__ import annotations

import json
import re
import socket
import time
from typing import Any, BinaryIO, Dict, Optional

from ..api import (
    CompileRequest,
    CostQuery,
    RegisterKernelRequest,
    SimulateRequest,
    SweepRequest,
)

__all__ = ["ServeClient", "ServeConnectionError", "ServeResponse"]

#: Request kinds whose route is spelled differently from the payload
#: kind (collection routes are plural).
_CANONICAL_ROUTES = {"sweep": "sweeps"}

#: Bytes that would end a request line's method or path early (space,
#: control characters): refused before anything is sent.
_UNSAFE_TOKEN = re.compile(r"[\x00-\x20\x7f]")

#: The longest status or header line read from a reply.
_MAX_LINE = 1 << 16


class ServeConnectionError(ConnectionError):
    """The daemon is unreachable; the message names the target address
    so "connection refused" is immediately actionable."""


class ServeResponse:
    """One daemon reply: HTTP status, headers, decoded JSON payload.

    ``text`` carries the raw body for non-JSON responses (Prometheus
    exposition); ``payload`` is then ``{}``.
    """

    def __init__(
        self,
        status: int,
        headers: Dict[str, str],
        payload: Dict[str, Any],
        text: str = "",
    ):
        self.status = status
        self.headers = headers
        self.payload = payload
        self.text = text

    @property
    def ok(self) -> bool:
        """True for a 200 with an ``ok`` envelope."""
        return self.status == 200 and bool(
            self.payload.get("ok", True)
        )

    @property
    def data(self) -> Optional[Dict[str, Any]]:
        """The envelope's ``data`` (the deterministic result payload)."""
        return self.payload.get("data")

    @property
    def error(self) -> Optional[Dict[str, Any]]:
        """The envelope's ``error`` object, if the request failed."""
        return self.payload.get("error")

    @property
    def retry_after(self) -> Optional[float]:
        """Seconds the server asked us to wait, else ``None`` (the
        daemon sends ``Retry-After`` only on a draining ``503``)."""
        value = self.headers.get("retry-after")
        return float(value) if value is not None else None

    @property
    def request_id(self) -> Optional[str]:
        """The correlation id the daemon assigned (``X-Request-Id``)."""
        return self.headers.get("x-request-id")


class ServeClient:
    """Blocking JSON client over one keep-alive HTTP/1.1 socket.

    One client == one connection == one in-flight request at a time;
    spin up one client per thread for concurrency tests.  Usable as a
    context manager.  The socket opens on the first request, and again
    after a reply that says ``Connection: close``.

    ``backpressure_retries`` bounds how many times a ``503`` (the
    daemon draining) or ``429`` (which the daemon never sends) is
    retried after sleeping the server-suggested ``Retry-After`` (capped
    at ``max_retry_after_s`` so a confused server cannot park the
    client).  ``0`` disables the retries and surfaces the raw
    backpressure statuses.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 120.0,
        backpressure_retries: int = 4,
        max_retry_after_s: float = 5.0,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.backpressure_retries = backpressure_retries
        self.max_retry_after_s = max_retry_after_s
        #: How many backpressure sleeps this client has taken (tests
        #: and load reports read this).
        self.backpressure_waits = 0
        self._sock: Optional[socket.socket] = None
        self._reader: Optional[BinaryIO] = None

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self.host, self.port), self.timeout
        )
        self._reader = self._sock.makefile("rb")
        # A request is one write whose reply is awaited: nothing should
        # wait for an ACK before it leaves.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def close(self) -> None:
        """Close the underlying connection (reopened on next use)."""
        if self._sock is not None:
            self._reader.close()
            self._sock.close()
            self._sock = self._reader = None

    def __enter__(self) -> "ServeClient":
        """Context-manager entry: returns self."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: closes the connection."""
        self.close()

    # --- transport ------------------------------------------------------

    def request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        request_id: Optional[str] = None,
    ) -> ServeResponse:
        """One request, with bounded backpressure retries.

        A ``503``/``429`` answer sleeps the server's ``Retry-After``
        (``1s`` if the header is missing, capped at
        ``max_retry_after_s``) and retries, up to
        ``backpressure_retries`` times; the last response is returned
        either way so callers still see the terminal status.  Raises
        :class:`ServeConnectionError` (naming ``host:port``) when the
        daemon cannot be reached at all.
        """
        retries = self.backpressure_retries
        while True:
            response = self._round_trip(method, path, body, request_id)
            if response.status not in (429, 503) or retries <= 0:
                return response
            retries -= 1
            delay = response.retry_after
            delay = 1.0 if delay is None else max(delay, 0.0)
            self.backpressure_waits += 1
            time.sleep(min(delay, self.max_retry_after_s))

    def _round_trip(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        request_id: Optional[str] = None,
    ) -> ServeResponse:
        """One raw round-trip.  A failed connection (a stale keep-alive,
        a reply cut short) is closed and the request sent once more on
        a new one.  A timeout closes it and raises at once: the daemon
        may still be running the request, and a resend would run it
        twice.  ``request_id`` rides as
        ``X-Request-Id`` so the daemon adopts the caller's correlation
        id instead of minting one."""
        message = self._frame(method, path, body, request_id)
        for attempt in (0, 1):
            try:
                if self._sock is None:
                    self._connect()
                self._sock.sendall(message)
                return self._read_response()
            except ConnectionRefusedError as exc:
                self.close()
                raise ServeConnectionError(
                    f"cannot reach repro daemon at "
                    f"{self.host}:{self.port} (connection refused — is "
                    f"`repro serve` running?)"
                ) from exc
            except socket.timeout:
                self.close()
                raise
            except OSError:
                self.close()
                if attempt:
                    raise
        raise RuntimeError("unreachable")  # pragma: no cover

    def _frame(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]],
        request_id: Optional[str],
    ) -> bytes:
        """The whole request message: request line, headers and body."""
        if _UNSAFE_TOKEN.search(method) or _UNSAFE_TOKEN.search(path):
            raise ValueError(
                f"unsafe request line {method!r} {path!r}: space or "
                f"control character"
            )
        host = f"[{self.host}]" if ":" in self.host else self.host
        lines = [f"{method} {path} HTTP/1.1", f"Host: {host}:{self.port}"]
        payload = b""
        if body is not None:
            payload = json.dumps(
                body, sort_keys=True, separators=(",", ":")
            ).encode()
            lines.append("Content-Type: application/json")
            lines.append(f"Content-Length: {len(payload)}")
        if request_id is not None:
            if "\r" in request_id or "\n" in request_id:
                raise ValueError(
                    f"unsafe request id {request_id!r}: line break"
                )
            lines.append(f"X-Request-Id: {request_id}")
        lines.append("\r\n")
        return "\r\n".join(lines).encode("latin-1") + payload

    def _read_response(self) -> ServeResponse:
        """Read one reply: status line, headers, then a body of exactly
        ``Content-Length`` bytes.

        Raises ``ConnectionError`` for a reply that ends early — before
        its first byte (a stale keep-alive), inside its headers or short
        of its ``Content-Length`` — or that is not the HTTP/1.1 the
        daemon writes.  A ``Connection: close`` reply closes the socket.
        """
        line = self._reader.readline(_MAX_LINE)
        if not line:
            raise self._broken("closed the connection")
        parts = line.split(None, 2)
        if not (line.endswith(b"\n") and len(parts) >= 2
                and parts[0].startswith(b"HTTP/") and parts[1].isdigit()):
            raise self._broken(f"sent the status line {line!r}")
        headers: Dict[str, str] = {}
        while True:
            line = self._reader.readline(_MAX_LINE)
            if line in (b"\r\n", b"\n"):
                break
            if not line.endswith(b"\n"):
                raise self._broken("cut a reply short in its headers")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            raise self._broken(
                f"sent Content-Length {headers['content-length']!r}"
            )
        raw = self._reader.read(length)
        if len(raw) < length:
            raise self._broken(
                f"cut a reply short: {len(raw)} of {length} body bytes"
            )
        if headers.get("connection", "").lower() == "close":
            self.close()
        status = int(parts[1])
        if raw and "application/json" in headers.get("content-type", ""):
            return ServeResponse(
                status, headers, json.loads(raw.decode("utf-8"))
            )
        return ServeResponse(status, headers, {}, text=raw.decode("utf-8"))

    def _broken(self, what: str) -> ConnectionError:
        return ConnectionError(
            f"repro daemon at {self.host}:{self.port} {what}"
        )

    def post(
        self,
        kind: str,
        body: Dict[str, Any],
        request_id: Optional[str] = None,
    ) -> ServeResponse:
        """POST one API request body to its canonical ``/v1/`` route."""
        route = _CANONICAL_ROUTES.get(kind, kind)
        return self.request("POST", f"/v1/{route}", body, request_id)

    # --- typed helpers --------------------------------------------------

    def costs(
        self,
        clusters: int = 8,
        alus: int = 5,
        request_id: Optional[str] = None,
    ) -> ServeResponse:
        """Query the cost model at ``(clusters, alus)``."""
        return self.post(
            "costs", CostQuery(clusters, alus).to_dict(), request_id
        )

    def compile(
        self,
        kernel: str,
        clusters: int = 8,
        alus: int = 5,
        request_id: Optional[str] = None,
    ) -> ServeResponse:
        """Compile ``kernel`` for ``(clusters, alus)``."""
        return self.post(
            "compile",
            CompileRequest(kernel, clusters, alus).to_dict(),
            request_id,
        )

    def simulate(
        self,
        application: str,
        clusters: int = 8,
        alus: int = 5,
        clock_ghz: float = 1.0,
        request_id: Optional[str] = None,
    ) -> ServeResponse:
        """Simulate ``application`` on ``(clusters, alus)``."""
        return self.post(
            "simulate",
            SimulateRequest(application, clusters, alus, clock_ghz).to_dict(),
            request_id,
        )

    def sweep(
        self,
        target: str,
        apps: bool = False,
        kernel: str = "",
        request_id: Optional[str] = None,
    ) -> ServeResponse:
        """Regenerate the ``target`` figure/table study.

        ``kernel`` restricts a kernel study to one suite name or
        registered ``kernel:<hash>`` reference.
        """
        return self.post(
            "sweep",
            SweepRequest(target, apps, kernel=kernel).to_dict(),
            request_id,
        )

    def register_kernel(
        self,
        document: Dict[str, Any],
        request_id: Optional[str] = None,
    ) -> ServeResponse:
        """Register one kernel document (``POST /v1/kernels``)."""
        return self.post(
            "kernels", RegisterKernelRequest(document).to_dict(), request_id
        )

    def list_kernels(self) -> ServeResponse:
        """List registered-kernel summaries (``GET /v1/kernels``)."""
        return self.request("GET", "/v1/kernels")

    def get_kernel(self, ref: str) -> ServeResponse:
        """Fetch one registered kernel's summary and document."""
        return self.request("GET", f"/v1/kernels/{ref}")

    def stats(self) -> ServeResponse:
        """Fetch the daemon's request counters, sweep memo and cache
        statistics."""
        return self.request("GET", "/v1/stats")

    def metrics(self) -> ServeResponse:
        """Fetch the full metrics-registry snapshot."""
        return self.request("GET", "/v1/metrics")

    def prometheus_metrics(self) -> str:
        """Fetch ``GET /metrics`` as raw Prometheus exposition text."""
        return self.request("GET", "/metrics").text

    def health(self) -> ServeResponse:
        """Liveness probe (``/healthz``)."""
        return self.request("GET", "/healthz")
