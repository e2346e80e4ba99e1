"""The serving daemon: equivalence, one request at a time, drain.

The headline contract is **surface equivalence**: every endpoint's
``data`` payload is byte-for-byte what the corresponding ``repro.api``
call returns in-process.  Around that sit the operational behaviors —
concurrent clients served one request at a time, draining 503s, and a
clean SIGTERM drain of the real ``python -m repro serve`` process.
"""

import contextlib
import http.client
import json
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
    ServeClient,
    ServeConnectionError,
    ServerConfig,
    run_server,
    running_server,
)
from repro.frontend import document_from_graph
from repro.frontend.registry import configure_default_registry
from repro.kernels.suite import get_kernel
from repro.obs import build_envelope
from repro.serve import daemon
from repro.serve.daemon import new_request_id, sanitize_request_id


def _canonical(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


#: A cost query body whose answer differs from the defaults' (C=8, N=5).
_C128_N14 = b'{"clusters":128,"alus":14}'


def _request_labels(server):
    """The route labels of a daemon's per-route request metrics."""
    labels = set()
    for name in server.metrics.snapshot().as_dict():
        if name.startswith("serve.requests."):
            labels.add(name[len("serve.requests."):])
        elif name.startswith("serve.request_seconds."):
            # ``serve.request_seconds.<route>.<stat>``; the aggregate
            # histogram's own stats have no route part.
            route = name[len("serve.request_seconds."):].rpartition(".")[0]
            if route:
                labels.add(route)
    return labels


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


@pytest.fixture()
def stdlib_connection(warm_server):
    """The standard library's HTTP client on the shared daemon: it
    sends what the typed helpers cannot (a body that is not JSON), and
    keeps an HTTP implementation that is neither end's own on the
    wire."""
    conn = http.client.HTTPConnection(
        "127.0.0.1", warm_server.port, timeout=30
    )
    yield conn
    conn.close()


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
        assert response.payload["api_version"] == 8
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

    def test_bad_json_400(self, stdlib_connection):
        # hand-roll a broken body: the typed helpers can't produce one
        conn = stdlib_connection
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

    @pytest.mark.parametrize("field,value", [
        ("max_events", 3), ("mode", "analytical"),
    ])
    def test_removed_simulate_fields_400(self, client, field, value):
        """A v5 body that still sends a field v6 removed is a bad
        request naming that field."""
        response = client.post(
            "simulate",
            {"application": "fft1k", "clusters": 8, "alus": 5,
             field: value},
        )
        assert response.status == 400
        assert response.error["code"] == "bad_request"
        assert response.error["message"] == (
            f"SimulateRequest: unknown field(s) {field}"
        )

    def test_sweep_workers_400(self, client):
        """A v6 sweep body that still sends ``workers`` is a bad request
        naming that field."""
        response = client.post(
            "sweeps", {"target": "table5", "workers": 2}
        )
        assert response.status == 400
        assert response.error["code"] == "bad_request"
        assert response.error["message"] == (
            "SweepRequest: unknown field(s) workers"
        )

    def test_unknown_paths_share_one_metric_label(self, client, warm_server):
        """50 distinct unknown paths add at most the one ``not_found``
        label to the per-route request metrics."""
        before = _request_labels(warm_server)
        for i in range(50):
            assert client.post(f"zz{i}", {}).status == 404
        assert _request_labels(warm_server) - before <= {"not_found"}
        assert warm_server.metrics.counter(
            "serve.requests.not_found"
        ).value >= 50

    def test_ids_and_queries_never_name_metrics(self, client, warm_server):
        before = _request_labels(warm_server)
        for i in range(10):
            assert client.request("GET", f"/v1/stats?probe={i}").status == 404
            assert client.get_kernel(f"{i:064x}").status == 404
            assert client.request("GET", f"/v1/jobs/job-{i}").status == 404
        assert _request_labels(warm_server) - before <= {
            "not_found", "kernel",
        }

    @pytest.mark.parametrize("head", [
        b"POST /v1/costs HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
        b"POST /v1/costs HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70_000
        + b"\r\n\r\n",
        b"POST /v1/costs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        + b"%x\r\n%s\r\n0\r\n\r\n" % (len(_C128_N14), _C128_N14),
        b"POST /v1/costs HTTP/1.1\r\nContent-Length: 2\r\n"
        + b"Content-Length: %d\r\n\r\n%s" % (len(_C128_N14), _C128_N14),
        b"GARBAGE\r\n",
    ], ids=["length-not-a-number", "negative-length", "header-over-limit",
            "chunked", "conflicting-lengths", "one-token-request-line"])
    def test_unframeable_request_400_then_close(self, warm_server, head):
        """A request the parser cannot frame gets a 400 envelope and a
        closed connection, is counted, and leaves the daemon serving.
        A chunked body is one: the daemon reads no chunks, so it would
        answer the request with an empty body (the defaults) and read
        the chunks as the next request."""
        before = warm_server.metrics.counter("serve.responses.400").value
        with socket.create_connection(
            ("127.0.0.1", warm_server.port), timeout=10
        ) as sock:
            sock.sendall(head)
            raw = b""
            while True:
                chunk = sock.recv(1 << 16)
                if not chunk:
                    break
                raw += chunk
        status_line, _, rest = raw.partition(b"\r\n")
        header_block, _, body = rest.partition(b"\r\n\r\n")
        assert status_line == b"HTTP/1.1 400 Bad Request"
        assert b"Connection: close" in header_block.split(b"\r\n")
        # Its headers cannot be trusted, so the daemon mints its id.
        assert re.search(
            rb"^X-Request-Id: [0-9a-f]{12}$", header_block, re.MULTILINE
        )
        assert json.loads(body)["error"]["code"] == "bad_request"
        assert warm_server.metrics.counter(
            "serve.responses.400"
        ).value == before + 1
        with ServeClient("127.0.0.1", warm_server.port) as fresh:
            assert fresh.health().status == 200

    def test_empty_line_before_a_request_line_is_skipped(self, warm_server):
        """A stray CRLF between pipelined requests is ignored (RFC 9112
        §2.2): both requests are answered on the one connection."""
        with socket.create_connection(
            ("127.0.0.1", warm_server.port), timeout=10
        ) as sock:
            sock.sendall(
                b"POST /v1/costs HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                % (len(_C128_N14), _C128_N14)
                + b"\r\nGET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
            )
            raw = b""
            while True:
                chunk = sock.recv(1 << 16)
                if not chunk:
                    break
                raw += chunk
        # A reply's body does not end in a newline, so the next status
        # line follows it directly.
        assert re.findall(rb"HTTP/1\.1 (\d{3}) ", raw) == [b"200", b"200"]

    def test_stats_endpoint(self, client):
        response = client.stats()
        assert response.status == 200
        stats = response.data
        assert stats["batcher"]["submitted"] >= 1
        assert "hit_rate" in stats["compile_cache"]
        assert "sim_hits" in stats["engine"]
        assert "cluster" not in stats
        assert "executor" not in stats

    @pytest.mark.parametrize("method,path", [
        ("GET", "/v1/cluster/stats"),
        ("POST", "/v1/cluster/register"),
        ("POST", "/v1/cluster/heartbeat"),
    ], ids=["stats", "register", "heartbeat"])
    def test_no_cluster_routes(self, client, warm_server, method, path):
        """One daemon serves everything: the fleet routes are plain
        unknown paths."""
        counter = warm_server.metrics.counter("serve.requests.not_found")
        before = counter.value
        body = {"host": "127.0.0.1", "port": 1} if method == "POST" else None
        response = client.request(method, path, body)
        assert response.status == 404
        assert response.error["code"] == "not_found"
        assert counter.value == before + 1

    def test_oversized_body_413_and_the_connection_serves_on(
        self, warm_server
    ):
        """A body over ``max_body_bytes`` is read and dropped, answered
        413, and the keep-alive connection serves the next request."""
        limit = warm_server.config.max_body_bytes
        with ServeClient("127.0.0.1", warm_server.port) as c:
            response = c.request("POST", "/v1/costs", {"pad": "x" * limit})
            assert response.status == 413
            assert response.error["code"] == "payload_too_large"
            assert c.costs(8, 5).status == 200

    def test_small_body_is_never_too_large(self, stdlib_connection):
        """Whatever its bytes, a body under the limit is parsed: these
        13 bytes once stood in for an oversized body (a 413); they are
        not JSON, so they are a 400."""
        conn = stdlib_connection
        conn.request("POST", "/v1/costs", body=b"__too_large__",
                     headers={"Content-Type": "application/json"})
        raw = conn.getresponse()
        error = json.loads(raw.read())["error"]
        assert raw.status == 400
        assert error["code"] == "bad_request"
        assert error["message"].startswith("invalid JSON body")

    def test_metrics_endpoint(self, client):
        response = client.metrics()
        assert response.status == 200
        metrics = response.data["metrics"]
        assert any(
            name.startswith("serve.requests.") for name in metrics
        )
        assert "serve.request_seconds.count" in metrics


class TestBackpressure:
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


#: One request of each kind the reply memo keeps.
MEMOIZED = (
    ("costs", CostQuery(16, 10)),
    ("compile", CompileRequest("fft", 16, 5)),
    ("simulate", SimulateRequest("fft1k", 16, 5)),
    ("sweep", SweepRequest("fig15")),
)


def _post_raw(port, kind, body):
    """POST ``body`` bytes to ``kind``'s route; ``(status, the
    X-Request-Id header, the raw reply body)``."""
    path = "/v1/sweeps" if kind == "sweep" else f"/v1/{kind}"
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", path, body=body,
                     headers={"Content-Type": "application/json"})
        reply = conn.getresponse()
        return reply.status, reply.getheader("X-Request-Id"), reply.read()
    finally:
        conn.close()


@pytest.fixture()
def fresh_server():
    """A daemon of the test's own, so its reply memo starts empty."""
    with running_server() as server:
        yield server


@pytest.fixture()
def registry(tmp_path):
    registry = configure_default_registry(tmp_path / "kernels")
    try:
        yield registry
    finally:
        configure_default_registry(enabled=False)


class TestReplyMemo:
    """A repeated request body is answered from the reply memo: the
    data bytes of the first reply and of ``execute()``, in the envelope
    ``build_envelope`` gives, under the repeat's own request id."""

    @pytest.mark.parametrize(
        "kind,request_obj", MEMOIZED, ids=[kind for kind, _ in MEMOIZED]
    )
    def test_a_repeat_is_a_hit_with_the_first_replys_bytes(
        self, fresh_server, kind, request_obj
    ):
        body = _canonical(request_obj.to_dict()).encode()
        expected = execute(request_obj).to_json()
        timed = fresh_server.metrics.histogram("serve.batch_seconds")
        seen = []
        for _ in range(2):
            status, request_id, raw = _post_raw(
                fresh_server.port, kind, body
            )
            assert status == 200
            envelope = json.loads(raw)
            assert raw == _canonical(build_envelope(
                kind, data=envelope["data"], meta=envelope["meta"]
            )).encode()
            assert _canonical(envelope["data"]) == expected
            assert envelope["meta"]["request_id"] == request_id
            seen.append((
                request_id, fresh_server.stats()["reply_memo"], timed.count,
            ))
        (first_id, first, first_count), (second_id, second, count) = seen
        assert first_id != second_id
        assert first == {"entries": 1, "hits": 0}
        assert second == {"entries": 1, "hits": 1}
        assert count == first_count + 1

    def test_kernel_references_are_never_kept(self, registry, fresh_server):
        """A ``kernel:`` reference resolves through the shared disk
        store, so its answer can change: full ids and prefixes are
        recomputed every time."""
        ref = registry.register(document_from_graph(get_kernel("fft"))).ref
        prefix = "kernel:" + ref.split(":", 1)[1][:12]
        with ServeClient("127.0.0.1", fresh_server.port) as client:
            for name in (ref, prefix, ref, prefix):
                assert client.compile(name, 8, 5).status == 200
                assert client.simulate(name, 8, 5).status == 200
                assert client.sweep("fig13", kernel=name).status == 200
        assert fresh_server.stats()["reply_memo"] == {
            "entries": 0, "hits": 0,
        }

    def test_registrations_and_errors_are_never_kept(
        self, registry, fresh_server, monkeypatch
    ):
        """A registration repairs a damaged store entry and a failure
        is recomputed, so neither is kept; the failing body answers
        once the failure is gone."""
        body = {"clusters": 32, "alus": 5}

        def fail(request):
            raise RuntimeError("evaluation failed")

        with ServeClient("127.0.0.1", fresh_server.port) as client:
            for _ in range(2):
                document = document_from_graph(get_kernel("fft"))
                assert client.register_kernel(document).status == 200
                assert client.post("compile", {"kernel": "doom"}).status == 400
            monkeypatch.setattr(daemon, "execute", fail)
            for _ in range(2):
                failed = client.post("costs", body)
                assert failed.status == 500
                assert failed.error["message"] == (
                    "RuntimeError: evaluation failed"
                )
            assert fresh_server.stats()["reply_memo"] == {
                "entries": 0, "hits": 0,
            }
            monkeypatch.undo()
            answered = client.post("costs", body)
        assert answered.status == 200
        assert _canonical(answered.data) == execute(CostQuery(32, 5)).to_json()
        assert fresh_server.stats()["reply_memo"] == {"entries": 1, "hits": 0}

    def test_a_long_body_is_answered_but_never_kept(self, fresh_server):
        padded = (b'{"clusters": 8,' + b" " * daemon.REPLY_MEMO_MAX_BODY_BYTES
                  + b'"alus": 5}')
        for _ in range(2):
            status, _, raw = _post_raw(fresh_server.port, "costs", padded)
            assert status == 200
            assert _canonical(json.loads(raw)["data"]) == (
                execute(CostQuery(8, 5)).to_json()
            )
        assert fresh_server.stats()["reply_memo"] == {
            "entries": 0, "hits": 0,
        }

    def test_the_memo_is_capped_and_drops_its_oldest_entry_first(
        self, monkeypatch
    ):
        monkeypatch.setattr(daemon, "REPLY_MEMO_ENTRIES", 2)
        with running_server() as server:
            with ServeClient("127.0.0.1", server.port) as client:

                def memo_after(alus):
                    assert client.costs(8, alus).status == 200
                    return server.stats()["reply_memo"]

                assert memo_after(2) == {"entries": 1, "hits": 0}
                assert memo_after(3) == {"entries": 2, "hits": 0}
                assert memo_after(5) == {"entries": 2, "hits": 0}  # drops 2
                assert memo_after(5) == {"entries": 2, "hits": 1}
                assert memo_after(3) == {"entries": 2, "hits": 2}
                assert memo_after(2) == {"entries": 2, "hits": 2}  # drops 3
                assert memo_after(3) == {"entries": 2, "hits": 2}  # drops 5
                assert memo_after(2) == {"entries": 2, "hits": 3}


def _serve_session(tmp_path, flags, session):
    """Start ``python -m repro serve`` with ``flags``, call
    ``session(port)``, then SIGTERM it; returns ``(exit code, output)``."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["XDG_CACHE_HOME"] = str(tmp_path / "cache")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *flags],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        ready = proc.stdout.readline()
        match = re.search(r"http://[\d.]+:(\d+)", ready)
        assert match, f"no ready line: {ready!r}"
        session(int(match.group(1)))
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    return proc.returncode, out


class TestGracefulDrain:
    def test_sigterm_drains_real_process(self, tmp_path):
        """`python -m repro serve` exits 0 on SIGTERM after draining."""
        def session(port):
            with ServeClient("127.0.0.1", port) as c:
                assert c.costs(8, 5).status == 200
                assert c.health().payload["status"] == "ok"

        code, out = _serve_session(tmp_path, ["--port", "0"], session)
        assert code == 0, out
        assert "draining" in out
        assert '"clean_drain": true' in out

    def test_the_benchmark_harness_flags_still_serve(self, tmp_path):
        """The benchmark harness starts every daemon with ``--port 0
        --batch-window-ms 0`` (an accepted, ignored flag) and reads the
        ``batcher`` block of ``/v1/stats``: the daemon boots, answers
        ``/healthz``, counts each executed request as one batch with
        nothing deduplicated or queued, and exits 0 on SIGTERM."""
        seen = {}

        def session(port):
            with ServeClient("127.0.0.1", port) as c:
                seen["health"] = c.health().status
                for alus in (2, 3, 5, 5):
                    assert c.costs(8, alus).status == 200
                stats = c.stats().data
                seen["batcher"] = stats["batcher"]
                seen["reply_memo"] = stats["reply_memo"]

        code, out = _serve_session(
            tmp_path, ["--port", "0", "--batch-window-ms", "0"], session
        )
        assert code == 0, out
        # The repeat is a reply-memo hit and still counts as executed.
        assert seen == {
            "health": 200,
            "batcher": {"submitted": 4, "deduped": 0, "batches": 4,
                        "executed": 4, "queue_depth": 0},
            "reply_memo": {"entries": 3, "hits": 1},
        }


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


class TestRequestIds:
    """The daemon mints an id for a request that brings none, and makes
    a client's ``X-Request-Id`` (input from outside the program) safe
    for headers and traces."""

    def test_new_request_id_shape(self):
        rid = new_request_id()
        assert len(rid) == 12
        int(rid, 16)  # hex
        assert rid != new_request_id()

    def test_sanitize_passes_safe_ids(self):
        assert sanitize_request_id("run-1.a_B") == "run-1.a_B"

    def test_sanitize_replaces_hostile_bytes(self):
        hostile = "evil\r\nX-Injected: 1"
        cleaned = sanitize_request_id(hostile)
        assert "\r" not in cleaned and "\n" not in cleaned
        assert ":" not in cleaned and " " not in cleaned

    def test_sanitize_truncates(self):
        assert len(sanitize_request_id("a" * 200)) == 64


class TestPrometheusEndpoint:
    def test_exposition_text(self, client):
        assert client.costs(8, 5).status == 200
        text = client.prometheus_metrics()
        assert "# TYPE repro_serve_request_seconds histogram" in text
        assert 'repro_serve_request_seconds_bucket{le="+Inf"}' in text
        assert "repro_serve_request_seconds_sum" in text
        assert "# TYPE repro_serve_requests_costs counter" in text


class TestV8Routes:
    @pytest.mark.parametrize("method,path", [
        ("POST", "/v1/jobs"),
        ("GET", "/v1/jobs/x"),
        ("GET", "/v1/jobs/x/events"),
        ("GET", "/v1/progress"),
    ])
    def test_job_and_progress_routes_are_gone(
        self, client, warm_server, method, path
    ):
        """API v8 removed the async job surface and the progress
        stream: each of their paths is a plain 404 under the one
        ``not_found`` label, answered on a keep-alive connection."""
        counter = warm_server.metrics.counter("serve.requests.not_found")
        before = counter.value
        body = {"sweep": {"target": "table5"}} if method == "POST" else None
        response = client.request(method, path, body)
        assert response.status == 404
        assert response.error["code"] == "not_found"
        assert response.headers["connection"] == "keep-alive"
        assert counter.value == before + 1

    def test_singular_sweep_route_is_gone(self, client):
        """API v6 removed ``/v1/sweep``: a plain 404."""
        body = SweepRequest("fig13", kernel="fft").to_dict()
        old = client.request("POST", "/v1/sweep", body)
        assert old.status == 404
        assert old.error["code"] == "not_found"
        assert "deprecation" not in old.headers
        assert "link" not in old.headers

    def test_sweeps_mode_is_a_validated_no_op(self, client):
        """``SweepRequest.mode`` outlives v8 while the benchmark sends
        it: the answer is byte-identical to the same body without it."""
        body = {"target": "fig13", "kernel": "fft"}
        plain = client.request("POST", "/v1/sweeps", body)
        alias = client.request(
            "POST", "/v1/sweeps", dict(body, mode="analytical")
        )
        assert plain.status == alias.status == 200
        assert _canonical(alias.data) == _canonical(plain.data)


class TestCorrelationAcrossSurfaces:
    def test_one_id_on_the_reply_and_on_one_span(self, tmp_path):
        """One request id, three places: the reply's ``X-Request-Id``,
        the envelope's ``meta.request_id`` and exactly one ``serve.http``
        span, with the request's status, in the trace written at drain.
        The trace has no instant: a request leaves one record."""
        trace_path = tmp_path / "trace.json"
        with running_server(trace_path=str(trace_path)) as server:
            with ServeClient("127.0.0.1", server.port) as c:
                swept = c.sweep("fig15", request_id="corr-rid-01")
                minted = c.costs(8, 5)
                missing = c.request(
                    "GET", "/v1/nope", request_id="corr-rid-02"
                )
        assert swept.request_id == "corr-rid-01"
        assert swept.payload["meta"]["request_id"] == "corr-rid-01"
        assert minted.payload["meta"]["request_id"] == minted.request_id
        assert missing.request_id == "corr-rid-02"
        events = json.loads(trace_path.read_text())["traceEvents"]
        assert [event for event in events if event["ph"] == "i"] == []
        assert "serve.request" not in {event["name"] for event in events}
        spans = [
            event for event in events
            if event["ph"] == "X" and event["cat"] == "serve.http"
        ]
        assert len(spans) == 3
        for response, status in (
            (swept, 200), (minted, 200), (missing, 404)
        ):
            assert response.status == status
            (span,) = [
                span for span in spans
                if span["args"]["request_id"] == response.request_id
            ]
            assert span["args"] == {
                "request_id": response.request_id, "status": status,
            }


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


def _recv_request(conn):
    """One request's raw bytes off ``conn``: its head, then a body of
    its ``Content-Length``."""
    buffered, end = b"", None
    while end is None or len(buffered) < end:
        chunk = conn.recv(4096)
        if not chunk:
            raise ConnectionError("client went away")
        buffered += chunk
        head, blank, _ = buffered.partition(b"\r\n\r\n")
        if end is None and blank:
            end = len(head) + len(blank)
            for line in head.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    end += int(value.strip())
    return buffered


@contextlib.contextmanager
def canned_daemon(replies, hold_open=False):
    """A raw-socket stand-in that answers each connection's first
    request with the next reply's bytes exactly as given (the last
    repeats), then hangs up — or, with ``hold_open``, waits until the
    client hangs up.  Yields ``(port, received)``: per connection,
    every byte the client sent on it."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    received = []

    def _serve():
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            with conn:
                conn.settimeout(10)
                try:
                    received.append(_recv_request(conn))
                    reply = replies[min(len(received), len(replies)) - 1]
                    conn.sendall(reply)
                    while hold_open:
                        chunk = conn.recv(4096)
                        if not chunk:
                            break
                        received[-1] += chunk
                except OSError:
                    continue

    thread = threading.Thread(target=_serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[1], received
    finally:
        listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
        listener.close()
        thread.join(5)


def _reply(head_lines, body):
    return ("\r\n".join(head_lines) + "\r\n\r\n").encode() + body


@contextlib.contextmanager
def silent_daemon():
    """A listener that accepts every connection and never answers.
    Yields ``(port, accepted)``: the connections accepted so far."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    accepted = []

    def _accept():
        while True:
            try:
                accepted.append(listener.accept()[0])
            except OSError:
                return

    thread = threading.Thread(target=_accept, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[1], accepted
    finally:
        listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
        listener.close()
        thread.join(5)
        for conn in accepted:
            conn.close()


@contextlib.contextmanager
def scripted_daemon(script, keep_alive=False):
    """A :func:`canned_daemon` serving a fixed JSON response script.

    Each accepted connection answers exactly one request with the next
    ``(status, extra_headers, payload)`` entry (the last entry repeats),
    then closes — advertising keep-alive when asked, which makes the
    advertised-but-closed connection exactly the stale keep-alive the
    client must transparently survive.  ``served`` lists the statuses
    answered, in order, once the block exits.
    """
    connection = "keep-alive" if keep_alive else "close"
    replies = []
    for status, extra, payload in script:
        body = json.dumps(payload).encode()
        replies.append(_reply([
            f"HTTP/1.1 {status} X",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {connection}",
            *extra,
        ], body))
    served = []
    with canned_daemon(replies) as (port, received):
        yield port, served
    served.extend(
        script[min(i, len(script) - 1)][0] for i in range(len(received))
    )


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


class TestClientWire:
    """The client's own HTTP/1.1 framing, against canned reply bytes."""

    def test_request_is_one_framed_message(self):
        ok = _reply(["HTTP/1.1 200 OK", "Content-Type: application/json",
                     "Content-Length: 11"], b'{"ok":true}')
        with canned_daemon([ok]) as (port, received):
            with ServeClient("127.0.0.1", port) as c:
                assert c.costs(8, 5, request_id="wire-0").status == 200
        body = _canonical(CostQuery(8, 5).to_dict()).encode()
        assert received == [
            b"POST /v1/costs HTTP/1.1\r\n"
            + f"Host: 127.0.0.1:{port}\r\n".encode()
            + b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n".encode()
            + b"X-Request-Id: wire-0\r\n\r\n" + body
        ]

    def test_connection_close_reply_reconnects(self):
        """A ``Connection: close`` reply closes the client's socket: the
        next request goes over a new connection, and nothing more is
        sent on the old one (which the stand-in leaves open)."""
        close = _reply(["HTTP/1.1 200 OK", "Content-Type: application/json",
                        "Content-Length: 15", "Connection: close"],
                       b'{"status":"ok"}')
        with canned_daemon([close], hold_open=True) as (port, received):
            with ServeClient("127.0.0.1", port, timeout=5) as c:
                first = c.health()
                second = c.health()
        assert first.status == second.status == 200
        assert first.headers["connection"] == "close"
        assert second.payload == {"status": "ok"}
        assert [r.count(b"GET /healthz HTTP/1.1\r\n") for r in received] \
            == [1, 1]

    def test_reply_cut_short_is_a_connection_error(self):
        """A body that stops short of its ``Content-Length`` raises
        ``ConnectionError`` (after the one reconnect), never a JSON
        decode error on the truncated bytes."""
        cut = _reply(["HTTP/1.1 200 OK", "Content-Type: application/json",
                      "Content-Length: 40", "Connection: keep-alive"],
                     b'{"ok":true,"da')
        with canned_daemon([cut]) as (port, received):
            with ServeClient("127.0.0.1", port, timeout=5) as c:
                with pytest.raises(ConnectionError) as excinfo:
                    c.costs(8, 5)
        assert str(excinfo.value) == (
            f"repro daemon at 127.0.0.1:{port} cut a reply short: "
            f"14 of 40 body bytes"
        )
        assert len(received) == 2

    def test_timeout_is_raised_without_a_resend(self):
        """A reply that never comes raises after one ``timeout`` over
        one connection: the daemon may still be running the request,
        so sending it again would run it twice."""
        with silent_daemon() as (port, accepted):
            with ServeClient("127.0.0.1", port, timeout=0.5) as c:
                start = time.monotonic()
                with pytest.raises(socket.timeout):
                    c.costs(8, 5)
                elapsed = time.monotonic() - start
            assert elapsed < 0.9
            assert len(accepted) == 1

    def test_text_reply_lands_in_text(self):
        body = b"# TYPE repro_up gauge\nrepro_up 1\n"
        text = _reply(["HTTP/1.1 200 OK",
                       "Content-Type: text/plain; version=0.0.4; "
                       "charset=utf-8",
                       f"Content-Length: {len(body)}",
                       "X-Request-Id: wire-1"], body)
        with canned_daemon([text]) as (port, _):
            with ServeClient("127.0.0.1", port) as c:
                response = c.request("GET", "/metrics")
        assert response.status == 200
        assert response.ok
        assert response.text == body.decode()
        assert response.payload == {}
        assert response.data is None
        assert response.request_id == "wire-1"

    @pytest.mark.parametrize("path,request_id", [
        ("/v1/stats x", None),
        ("/v1/stats\r\nX-Injected: 1", None),
        ("/v1/stats", "rid\r\nX-Injected: 1"),
    ], ids=["space-in-path", "crlf-in-path", "crlf-in-request-id"])
    def test_unsafe_request_is_refused_before_sending(self, path,
                                                      request_id):
        with canned_daemon([b""]) as (port, received):
            with ServeClient("127.0.0.1", port) as c:
                with pytest.raises(ValueError):
                    c.request("GET", path, request_id=request_id)
        assert received == []
