"""The serving daemon: equivalence, dedup, backpressure, drain.

The headline contract is **surface equivalence**: every endpoint's
``data`` payload is byte-for-byte what the corresponding ``repro.api``
call returns in-process.  Around that sit the operational behaviors —
exact in-flight deduplication, bounded-queue 429s, draining 503s,
per-request 504s, and a clean SIGTERM drain of the real
``python -m repro serve`` process.
"""

import asyncio
import contextlib
import io
import json
import logging
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.api import (
    CompileRequest,
    CostQuery,
    SimulateRequest,
    SweepRequest,
    execute,
)
from repro.serve import (
    ReproServer,
    ServeClient,
    ServeConnectionError,
    ServerConfig,
    run_server,
)


def _canonical(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@contextlib.contextmanager
def running_server(**overrides):
    """An in-process daemon on an ephemeral port, drained on exit."""
    overrides.setdefault("port", 0)
    overrides.setdefault("batch_window_ms", 2.0)
    config = ServerConfig(**overrides)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    server = ReproServer(config)
    asyncio.run_coroutine_threadsafe(server.start(), loop).result(10)
    try:
        yield server
    finally:
        asyncio.run_coroutine_threadsafe(
            server.drain_and_stop(10), loop
        ).result(60)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(5)
        loop.close()


@pytest.fixture(scope="module")
def warm_server():
    """One shared daemon for the read-mostly tests (module-scoped so
    cache warm-up is paid once)."""
    with running_server() as server:
        yield server


@pytest.fixture()
def client(warm_server):
    with ServeClient("127.0.0.1", warm_server.port) as c:
        yield c


class TestEndpointEquivalence:
    """Server payloads must be byte-identical to direct api calls."""

    REQUESTS = (
        ("costs", CostQuery(8, 5)),
        ("costs", CostQuery(128, 5)),
        ("compile", CompileRequest("fft", 8, 5)),
        ("simulate", SimulateRequest("fft1k", 8, 5)),
        ("sweep", SweepRequest("table5")),
    )

    @pytest.mark.parametrize(
        "kind,request_obj", REQUESTS,
        ids=[f"{k}-{i}" for i, (k, _) in enumerate(REQUESTS)],
    )
    def test_byte_identical_to_library(self, client, kind, request_obj):
        direct = execute(request_obj)
        response = client.post(kind, request_obj.to_dict())
        assert response.status == 200
        assert response.ok
        assert _canonical(response.data) == direct.to_json()

    def test_envelope_shape(self, client):
        from repro.obs import validate_envelope

        response = client.costs(8, 5)
        validate_envelope(response.payload)
        assert response.payload["kind"] == "costs"
        assert response.payload["api_version"] == 5
        assert "duration_ms" in response.payload["meta"]


class TestHttpSemantics:
    def test_healthz(self, client):
        response = client.health()
        assert response.status == 200
        assert response.payload["status"] == "ok"

    def test_unknown_route_404(self, client):
        response = client.request("GET", "/v1/frobnicate")
        assert response.status == 404
        assert response.error["code"] == "not_found"

    def test_wrong_method_405(self, client):
        assert client.request("GET", "/v1/costs").status == 405
        assert client.request("POST", "/v1/stats").status == 405

    def test_bad_json_400(self, client):
        # hand-roll a broken body: the typed helpers can't produce one
        conn = client._connection()
        conn.request("POST", "/v1/costs", body=b"{nope",
                     headers={"Content-Type": "application/json"})
        raw = conn.getresponse()
        payload = json.loads(raw.read())
        assert raw.status == 400
        assert payload["error"]["code"] == "bad_request"

    def test_unknown_field_400(self, client):
        response = client.post("costs", {"cluster_count": 8})
        assert response.status == 400
        assert "unknown field" in response.error["message"]

    def test_unknown_kernel_400(self, client):
        response = client.post("compile", {"kernel": "doom"})
        assert response.status == 400
        assert "unknown kernel" in response.error["message"]

    def test_srf_overflow_400(self, client):
        # qrd's working set does not fit the SRF at C=8, N=2.
        response = client.post(
            "simulate", {"application": "qrd", "clusters": 8, "alus": 2}
        )
        assert response.status == 400
        assert response.error["code"] == "bad_request"
        assert "17600 words" in response.error["message"]

    def test_stats_endpoint(self, client):
        response = client.stats()
        assert response.status == 200
        stats = response.data
        assert stats["batcher"]["submitted"] >= 1
        assert "hit_rate" in stats["compile_cache"]
        assert "tasks_ok" in stats["executor"]
        assert "sim_hits" in stats["engine"]

    def test_metrics_endpoint(self, client):
        response = client.metrics()
        assert response.status == 200
        metrics = response.data["metrics"]
        assert any(
            name.startswith("serve.requests.") for name in metrics
        )
        assert "serve.request_seconds.count" in metrics


class TestDeduplication:
    def test_concurrent_identical_requests_coalesce_exactly(self):
        """N simultaneous identical queries -> 1 execution, N-1 dedups."""
        clients = 8
        with running_server(batch_window_ms=500.0) as server:
            barrier = threading.Barrier(clients)

            def fire(_):
                with ServeClient("127.0.0.1", server.port) as c:
                    barrier.wait()
                    return c.costs(7, 3)

            with ThreadPoolExecutor(max_workers=clients) as pool:
                responses = list(pool.map(fire, range(clients)))
            assert all(r.status == 200 for r in responses)
            bodies = {_canonical(r.data) for r in responses}
            assert len(bodies) == 1  # every waiter saw the same result
            stats = server.batcher.stats()
            assert stats["submitted"] == clients
            assert stats["deduped"] == clients - 1
            assert stats["executed"] == 1


class TestBackpressure:
    def test_full_queue_answers_429_with_retry_after(self):
        with running_server(max_queue=1, batch_window_ms=800.0) as server:
            with ServeClient("127.0.0.1", server.port) as c1:
                with ThreadPoolExecutor(max_workers=1) as pool:
                    # Occupy the single queue slot for the window...
                    first = pool.submit(lambda: c1.costs(9, 2))
                    time.sleep(0.2)
                    # ...then a *different* query must be refused.
                    # (Retries off: the raw 429 is the assertion.)
                    with ServeClient(
                        "127.0.0.1", server.port, backpressure_retries=0
                    ) as c2:
                        refused = c2.costs(9, 4)
                    assert refused.status == 429
                    assert refused.error["code"] == "queue_full"
                    assert refused.retry_after is not None
                    assert first.result(30).status == 200

    def test_draining_answers_503(self):
        with running_server() as server:
            server.draining = True
            with ServeClient(
                "127.0.0.1", server.port, backpressure_retries=0
            ) as c:
                response = c.costs(8, 5)
            assert response.status == 503
            assert response.error["code"] == "draining"
            assert response.retry_after is not None
            server.draining = False  # let the fixture drain cleanly

    def test_slow_request_answers_504(self):
        with running_server(
            batch_window_ms=700.0, request_timeout_s=0.05
        ) as server:
            with ServeClient("127.0.0.1", server.port) as c:
                response = c.costs(11, 2)
            assert response.status == 504
            assert response.error["code"] == "timeout"


class TestConcurrentClients:
    def test_sixteen_mixed_clients_no_corruption(self, warm_server):
        """>=16 simultaneous mixed requests: every response is 200 and
        byte-identical to the direct library call for its request."""
        mix = [
            ("costs", CostQuery(8, 5)),
            ("costs", CostQuery(16, 5)),
            ("costs", CostQuery(128, 5)),
            ("compile", CompileRequest("fft", 8, 5)),
            ("simulate", SimulateRequest("fft1k", 8, 5)),
            ("sweep", SweepRequest("table5")),
        ]
        expected = {
            kind + _canonical(req.to_dict()): execute(req).to_json()
            for kind, req in mix
        }
        jobs = [(i, mix[i % len(mix)]) for i in range(16)]

        def fire(job):
            _, (kind, req) = job
            with ServeClient("127.0.0.1", warm_server.port) as c:
                return kind, req, c.post(kind, req.to_dict())

        with ThreadPoolExecutor(max_workers=16) as pool:
            outcomes = list(pool.map(fire, jobs))
        assert len(outcomes) == 16
        for kind, req, response in outcomes:
            assert response.status == 200, (kind, response.payload)
            key = kind + _canonical(req.to_dict())
            assert _canonical(response.data) == expected[key]


class TestGracefulDrain:
    def test_sigterm_drains_real_process(self, tmp_path):
        """`python -m repro serve` exits 0 on SIGTERM after draining."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_COMPILE_CACHE_DIR"] = str(tmp_path / "cache")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            ready = proc.stdout.readline()
            match = re.search(r"http://[\d.]+:(\d+)", ready)
            assert match, f"no ready line: {ready!r}"
            port = int(match.group(1))
            with ServeClient("127.0.0.1", port) as c:
                assert c.costs(8, 5).status == 200
                assert c.health().payload["status"] == "ok"
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "draining" in out
        assert '"clean_drain": true' in out


class TestRequestCorrelation:
    def test_minted_id_in_header_and_meta(self, client):
        response = client.costs(8, 5)
        rid = response.request_id
        assert rid and len(rid) == 12
        assert response.payload["meta"]["request_id"] == rid

    def test_client_supplied_id_adopted(self, client):
        response = client.costs(8, 5, request_id="my-test-id-01")
        assert response.request_id == "my-test-id-01"
        assert response.payload["meta"]["request_id"] == "my-test-id-01"

    def test_hostile_header_sanitized(self, client):
        from repro.obs.log import sanitize_request_id

        hostile = "bad id!{}" + "x" * 100
        response = client.costs(8, 5, request_id=hostile)
        rid = response.request_id
        assert rid == sanitize_request_id(hostile)
        assert len(rid) == 64
        assert " " not in rid and "!" not in rid

    def test_each_request_gets_a_fresh_id(self, client):
        first = client.costs(8, 5).request_id
        second = client.costs(8, 5).request_id
        assert first != second


class TestPrometheusEndpoint:
    def test_exposition_text(self, client):
        assert client.costs(8, 5).status == 200
        text = client.prometheus_metrics()
        assert "# TYPE repro_serve_request_seconds histogram" in text
        assert 'repro_serve_request_seconds_bucket{le="+Inf"}' in text
        assert "repro_serve_request_seconds_sum" in text
        assert "# TYPE repro_serve_requests_costs counter" in text


class TestProgressEndpoint:
    def _wait_for_subscriber(self, server, timeout=5.0):
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if server._bus.subscriber_count() >= 1:
                return
            time.sleep(0.01)
        raise AssertionError("progress subscriber never attached")

    def test_stream_ordering_and_termination(self):
        rid = "progress-rid-7"
        with running_server() as server:
            events = []

            def watch():
                with ServeClient("127.0.0.1", server.port) as watcher:
                    for event in watcher.progress(
                        request_id=rid, max_s=30.0
                    ):
                        events.append(event)

            thread = threading.Thread(target=watch)
            thread.start()
            self._wait_for_subscriber(server)
            with ServeClient("127.0.0.1", server.port) as c:
                assert c.sweep(
                    "table5", request_id=rid
                ).status == 200
            thread.join(30)
            assert not thread.is_alive()
        assert events, "no progress events streamed"
        assert all(e.get("request_id") == rid for e in events)
        assert events[-1]["event"] == "request_end"
        assert events[-1]["status"] == 200
        seqs = [e["seq"] for e in events if "seq" in e]
        assert seqs == sorted(seqs)
        assert events[0]["event"] == "sweep_start"
        assert any(e["event"] == "sweep_end" for e in events)

    def test_replay_for_already_finished_request(self):
        rid = "finished-rid-1"
        with running_server() as server:
            with ServeClient("127.0.0.1", server.port) as c:
                assert c.costs(6, 4, request_id=rid).status == 200
                events = list(c.progress(request_id=rid, max_s=10.0))
        assert len(events) == 1
        assert events[0]["event"] == "request_end"
        assert events[0]["request_id"] == rid
        assert events[0]["replay"] is True

    def test_post_is_rejected(self):
        with running_server() as server:
            with ServeClient("127.0.0.1", server.port) as c:
                response = c.request("POST", "/v1/progress?max_s=1")
            assert response.status == 405

    def test_disconnect_releases_subscription(self):
        with running_server() as server:
            with ServeClient("127.0.0.1", server.port) as c:
                stream = c.progress(max_s=10.0)
                got = []
                # The generator is lazy: the first next() opens the
                # connection, then blocks until an event arrives.
                thread = threading.Thread(
                    target=lambda: got.append(next(stream))
                )
                thread.start()
                self._wait_for_subscriber(server)
                with ServeClient("127.0.0.1", server.port) as other:
                    assert other.costs(5, 3).status == 200
                thread.join(10)
                assert not thread.is_alive()
                assert got and got[0]["event"] == "request_end"
                stream.close()  # client walks away mid-stream
                # The next published event hits the dead socket; the
                # handler must unsubscribe and the daemon keep serving.
                with ServeClient("127.0.0.1", server.port) as other:
                    assert other.costs(5, 4).status == 200
                    assert other.costs(5, 5).status == 200
                deadline = time.perf_counter() + 10.0
                while time.perf_counter() < deadline:
                    if server._bus.subscriber_count() == 0:
                        break
                    time.sleep(0.05)
                assert server._bus.subscriber_count() == 0


class TestCorrelationAcrossSurfaces:
    def test_sweep_fanout_joins_logs_trace_and_progress(self, tmp_path):
        """One request id, three surfaces: a fan-out sweep's id must be
        findable in the JSON logs (incl. its batch), the Chrome trace
        instants, and the ``/v1/progress`` stream."""
        from repro.analysis.sweep import clear_sweep_cache
        from repro.obs.log import ROOT_LOGGER, configure, validate_log_line

        stream = io.StringIO()
        root = logging.getLogger(ROOT_LOGGER)
        previous_level = root.level
        configure(json_lines=True, level="INFO", stream=stream)
        rid = "corr-rid-01"
        events = []
        try:
            clear_sweep_cache()
            with running_server(
                trace_path=str(tmp_path / "trace.json")
            ) as server:

                def watch():
                    with ServeClient("127.0.0.1", server.port) as w:
                        for event in w.progress(
                            request_id=rid, max_s=120.0
                        ):
                            events.append(event)

                thread = threading.Thread(target=watch)
                thread.start()
                deadline = time.perf_counter() + 5.0
                while (
                    server._bus.subscriber_count() < 1
                    and time.perf_counter() < deadline
                ):
                    time.sleep(0.01)
                with ServeClient(
                    "127.0.0.1", server.port, timeout=300.0
                ) as c:
                    response = c.sweep("fig15", workers=2, request_id=rid)
                assert response.status == 200
                thread.join(60)
                trace = json.loads(server.tracer.to_chrome_json())
        finally:
            for handler in list(root.handlers):
                if getattr(handler, "_repro_installed", False):
                    root.removeHandler(handler)
            root.setLevel(previous_level)
        # Surface 1: structured logs — the request line and its batch.
        docs = [
            json.loads(line)
            for line in stream.getvalue().strip().splitlines()
        ]
        for doc in docs:
            validate_log_line(doc)
        assert any(
            d["event"] == "serve.request" and d["request_id"] == rid
            for d in docs
        )
        assert any(
            d["event"] == "serve.batch"
            and rid in d.get("fields", {}).get("request_ids", [])
            for d in docs
        )
        # Surface 2: the Chrome trace carries instants with the id.
        instants = [
            e for e in trace["traceEvents"]
            if e.get("ph") == "i"
            and e.get("args", {}).get("request_id") == rid
        ]
        assert instants
        # Surface 3: the progress stream saw the sweep end-to-end,
        # including pool-collected points from the executor fan-out.
        assert events and all(
            e.get("request_id") == rid for e in events
        )
        assert events[-1]["event"] == "request_end"
        assert any(
            e["event"] == "point" and e.get("pooled") for e in events
        )
        assert any(e["event"] == "sweep_progress" for e in events)


class TestOperationalFailures:
    def test_bound_port_fails_fast_with_exit_2(self, capsys):
        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            rc = run_server(ServerConfig(host="127.0.0.1", port=port))
        finally:
            blocker.close()
        assert rc == 2
        err = capsys.readouterr().err
        assert f"cannot bind 127.0.0.1:{port}" in err
        assert len(err.strip().splitlines()) == 1  # one line, no trace

    def test_connection_refused_names_target(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
        probe.close()
        with ServeClient("127.0.0.1", free_port) as c:
            with pytest.raises(ServeConnectionError) as excinfo:
                c.health()
        message = str(excinfo.value)
        assert f"127.0.0.1:{free_port}" in message
        assert "repro serve" in message


@contextlib.contextmanager
def scripted_daemon(script, keep_alive=False):
    """A raw-socket daemon stand-in serving a fixed response script.

    Each accepted connection answers exactly one request with the next
    ``(status, extra_headers, payload)`` entry (the last entry repeats),
    then closes — advertising keep-alive when asked, which makes the
    advertised-but-closed connection exactly the stale keep-alive the
    client must transparently survive.
    """
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    port = listener.getsockname()[1]
    served = []
    stop = threading.Event()

    def _serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            with conn:
                try:
                    buffered = b""
                    while b"\r\n\r\n" not in buffered:
                        chunk = conn.recv(4096)
                        if not chunk:
                            raise ConnectionError("client went away")
                        buffered += chunk
                    head, _, rest = buffered.partition(b"\r\n\r\n")
                    length = 0
                    for line in head.split(b"\r\n")[1:]:
                        name, _, value = line.partition(b":")
                        if name.strip().lower() == b"content-length":
                            length = int(value.strip())
                    while len(rest) < length:
                        rest += conn.recv(4096)
                    status, extra, payload = script[
                        min(len(served), len(script) - 1)
                    ]
                    served.append(status)
                    body = json.dumps(payload).encode()
                    connection = "keep-alive" if keep_alive else "close"
                    head_lines = [
                        f"HTTP/1.1 {status} X",
                        "Content-Type: application/json",
                        f"Content-Length: {len(body)}",
                        f"Connection: {connection}",
                    ] + list(extra)
                    conn.sendall(
                        ("\r\n".join(head_lines) + "\r\n\r\n").encode()
                        + body
                    )
                except (ConnectionError, OSError, ValueError):
                    continue

    thread = threading.Thread(target=_serve, daemon=True)
    thread.start()
    try:
        yield port, served
    finally:
        stop.set()
        listener.close()
        thread.join(2)


class TestClientReconnect:
    def test_stale_keepalive_reconnects_once_transparently(self):
        """A keep-alive connection the server already closed must cost
        one transparent reconnect, not a client-visible error."""
        ok = (200, [], {"ok": True, "data": {"status": "ok"}})
        with scripted_daemon([ok], keep_alive=True) as (port, served):
            with ServeClient("127.0.0.1", port) as c:
                first = c.request("GET", "/healthz")
                # The daemon advertised keep-alive but hung up; the
                # client's cached connection is now stale.
                second = c.request("GET", "/healthz")
        assert first.status == 200
        assert second.status == 200
        # Two accepts for two requests proves the second request went
        # through the reconnect path rather than the cached socket.
        assert len(served) == 2

    def test_refused_connection_names_host_and_port(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
        probe.close()
        with ServeClient("127.0.0.1", free_port) as c:
            with pytest.raises(ServeConnectionError) as excinfo:
                c.costs(8, 5)
        assert f"127.0.0.1:{free_port}" in str(excinfo.value)


class TestClientBackpressureRetry:
    BUSY = (
        429,
        ["Retry-After: 0.01"],
        {"ok": False, "error": {"code": "queue_full", "message": "full"}},
    )
    OK = (200, [], {"ok": True, "data": {"answer": 42}})

    def test_retries_until_success_honoring_retry_after(self):
        with scripted_daemon([self.BUSY, self.BUSY, self.OK]) as (
            port, served,
        ):
            with ServeClient("127.0.0.1", port) as c:
                response = c.costs(8, 5)
        assert response.status == 200
        assert response.data == {"answer": 42}
        assert served == [429, 429, 200]
        assert c.backpressure_waits == 2

    def test_retry_budget_is_bounded(self):
        always_busy = [self.BUSY]
        with scripted_daemon(always_busy) as (port, served):
            with ServeClient(
                "127.0.0.1", port, backpressure_retries=2
            ) as c:
                response = c.costs(8, 5)
        assert response.status == 429  # surfaced after the budget
        assert served == [429, 429, 429]  # initial try + 2 retries
        assert c.backpressure_waits == 2

    def test_opt_out_surfaces_raw_status_without_sleeping(self):
        with scripted_daemon([self.BUSY]) as (port, served):
            with ServeClient(
                "127.0.0.1", port, backpressure_retries=0
            ) as c:
                response = c.costs(8, 5)
        assert response.status == 429
        assert served == [429]
        assert c.backpressure_waits == 0

    def test_503_draining_is_retried_too(self):
        draining = (
            503,
            ["Retry-After: 0.01"],
            {"ok": False,
             "error": {"code": "draining", "message": "draining"}},
        )
        with scripted_daemon([draining, self.OK]) as (port, served):
            with ServeClient("127.0.0.1", port) as c:
                response = c.costs(8, 5)
        assert response.status == 200
        assert served == [503, 200]
        assert c.backpressure_waits == 1
