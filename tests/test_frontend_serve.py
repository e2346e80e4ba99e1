"""User-defined kernels over the wire: the daemon's kernel routes.

The acceptance contract for the open frontend: a kernel document
``POST``-ed to ``/v1/kernels`` must be sweepable by its ``kernel:<hash>``
reference through the daemon with results **byte-identical** to the
built-in path.
"""

import json
import random
import threading
import time

import pytest

from repro.analysis.sweep import clear_sweep_cache
from repro.api import execute
from repro.frontend import document_from_graph
from repro.frontend.registry import configure_default_registry
from repro.kernels.suite import get_kernel
from repro.serve import ServeClient, running_server


def _canonical(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@pytest.fixture()
def registry(tmp_path):
    registry = configure_default_registry(tmp_path / "kernels")
    try:
        yield registry
    finally:
        configure_default_registry(enabled=False)


def fft_document():
    return document_from_graph(get_kernel("fft"))


class TestKernelRoutes:
    def test_register_list_get_round_trip(self, registry):
        with running_server() as server:
            with ServeClient("127.0.0.1", server.port) as client:
                posted = client.register_kernel(fft_document())
                assert posted.status == 200
                ref = posted.data["ref"]
                assert ref.startswith("kernel:")
                assert posted.data["name"] == "fft"

                # Idempotent: same content -> same address, same bytes.
                again = client.register_kernel(fft_document())
                assert again.status == 200
                assert _canonical(again.data) == _canonical(posted.data)

                listed = client.list_kernels()
                assert listed.status == 200
                assert [k["ref"] for k in listed.data["kernels"]] == [ref]

                fetched = client.get_kernel(ref)
                assert fetched.status == 200
                assert fetched.data["document"] == fft_document()

                # Prefix lookup, with and without the scheme.
                short = ref.split(":", 1)[1][:12]
                for spec in (short, f"kernel:{short}"):
                    assert client.get_kernel(spec).data["ref"] == ref

    def test_unknown_and_invalid_kernels(self, registry):
        with running_server() as server:
            with ServeClient("127.0.0.1", server.port) as client:
                missing = client.get_kernel("kernel:" + "0" * 64)
                assert missing.status == 404
                assert missing.error["code"] == "not_found"

                empty = client.list_kernels()
                assert empty.status == 200
                assert empty.data["kernels"] == []

                bad = client.register_kernel(
                    {"schema_version": 1, "name": "x", "nodes": "nope"}
                )
                assert bad.status == 400
                assert "E_FIELD_TYPE" in bad.error["message"]

                method = client.request("POST", "/v1/kernels/abc")
                assert method.status == 405

    def test_sweep_by_ref_matches_builtin_through_daemon(self, registry):
        ref = registry.register(fft_document()).ref
        with running_server() as server:
            clear_sweep_cache()
            with ServeClient("127.0.0.1", server.port) as client:
                by_ref = client.sweep("fig13", kernel=ref)
                assert by_ref.status == 200
                builtin = client.sweep("fig13", kernel="fft")
                assert builtin.status == 200
                assert _canonical(by_ref.data) == _canonical(builtin.data)
                assert len(by_ref.data["rows"]) == 8

    def test_simulate_by_ref_matches_library(self, registry):
        from repro.api import SimulateRequest

        ref = registry.register(fft_document()).ref
        direct = execute(SimulateRequest(ref, 8, 5)).to_json()
        with running_server() as server:
            with ServeClient("127.0.0.1", server.port) as client:
                response = client.simulate(ref, 8, 5)
                assert response.status == 200
                assert _canonical(response.data) == direct



def wide_fold_document():
    """96 reads of one stream folded by a chain of ``fdiv``s into one
    write.  It registers, but no initiation interval the scheduler tries
    keeps MaxLive within the register file: at C=8/N=5 it fails in under
    0.1 s (256 reads folded by ``fadd``s fail the same way, only several
    times slower)."""
    nodes = [{"op": "sb_read", "stream": "x"} for _ in range(96)]
    total = 0
    for read in range(1, 96):
        nodes.append({"op": "fdiv", "args": [total, read]})
        total = len(nodes) - 1
    nodes.append({"op": "sb_write", "args": [total], "stream": "out"})
    return {"schema_version": 1, "name": "wide_fold", "nodes": nodes}


def dense_document(size):
    """``size`` nodes: 3 reads, then ``iadd``/``fadd``/``fmul``/``isub``
    nodes in turn, each reading two of the previous 64 values (seeded),
    then 2 writes.  It registers, but at C=8/N=2 its MaxLive stays above
    the 192 registers at every II, so the search ends in a failure."""
    rng = random.Random(0)
    nodes = [{"op": "sb_read", "stream": s} for s in ("a", "b", "c")]
    ops = ("iadd", "fadd", "fmul", "isub")
    while len(nodes) < size - 2:
        count = len(nodes)
        window = range(max(0, count - 64), count)
        nodes.append({"op": ops[(count - 3) % len(ops)],
                      "args": [rng.choice(window), rng.choice(window)]})
    last = len(nodes) - 1
    nodes.append({"op": "sb_write", "args": [last], "stream": "x"})
    nodes.append({"op": "sb_write", "args": [last - 1], "stream": "y"})
    return {"schema_version": 1, "name": f"dense{size}", "nodes": nodes}


class TestSearchBound:
    """A failing II search stops at the list-schedule length, so no
    admitted document holds the one-request-at-a-time daemon for long."""

    def test_dense_document_fails_within_two_seconds(self):
        from repro.compiler.pipeline import (
            CompilationError,
            clear_cache,
            compile_kernel,
        )
        from repro.core.config import ProcessorConfig
        from repro.frontend import graph_from_document

        graph = graph_from_document(dense_document(1024))
        clear_cache()
        started = time.perf_counter()
        with pytest.raises(CompilationError,
                           match="MaxLive .* exceeds 192 registers"):
            compile_kernel(graph, ProcessorConfig(8, 2))
        assert time.perf_counter() - started < 2.0

    def test_costs_answer_during_a_dense_table5_sweep(self, registry):
        """A ``/v1/costs`` on a second connection, sent 0.05 s into a
        ``table5`` sweep of the dense document, answers within 3 s."""
        from repro.compiler.pipeline import clear_cache

        ref = registry.register(dense_document(1024)).ref
        clear_cache()
        replies = {}
        with running_server() as server:
            def sweep():
                with ServeClient("127.0.0.1", server.port,
                                 timeout=300.0) as client:
                    replies["sweep"] = client.sweep("table5", kernel=ref)

            sweeper = threading.Thread(target=sweep)
            sweeper.start()
            time.sleep(0.05)
            started = time.perf_counter()
            with ServeClient("127.0.0.1", server.port) as client:
                replies["costs"] = client.costs(8, 5)
            waited = time.perf_counter() - started
            sweeper.join(300)
        assert not sweeper.is_alive()
        assert replies["costs"].status == 200
        assert waited < 3.0
        assert replies["sweep"].status == 400
        assert "MaxLive" in replies["sweep"].error["message"]


class TestUnschedulableKernel:
    """A registered kernel the scheduler cannot fit is a bad request on
    every surface, not an internal error."""

    def test_execute_raises_api_error(self, registry):
        from repro.api import (
            ApiError,
            CompileRequest,
            SimulateRequest,
            SweepRequest,
        )

        ref = registry.register(wide_fold_document()).ref
        for request in (
            CompileRequest(ref, 8, 5),
            SimulateRequest(ref, 8, 5),
            SweepRequest("fig13", kernel=ref),
        ):
            with pytest.raises(ApiError, match="MaxLive .* exceeds"):
                execute(request)

    def test_a_failed_compile_is_remembered(self, registry, monkeypatch):
        """A second compile of the same kernel content for the same
        machine view raises the same message without an II search; the
        failure takes no schedule slot, reaches no disk, and
        ``clear_cache()`` forgets it."""
        from repro.api import ApiError, CompileRequest
        from repro.compiler import pipeline
        from repro.compiler.cache import default_cache
        from repro.core.config import ProcessorConfig
        from repro.frontend import graph_from_document

        ref = registry.register(wide_fold_document()).ref
        pipeline.clear_cache()
        writes = default_cache().stats()["writes"]
        with pytest.raises(ApiError) as first:
            execute(CompileRequest(ref, 8, 5))
        searches = []
        search_ii = pipeline._search_ii

        def counted(*args, **kwargs):
            searches.append(args)
            return search_ii(*args, **kwargs)

        monkeypatch.setattr(pipeline, "_search_ii", counted)
        with pytest.raises(ApiError) as again:
            execute(CompileRequest(ref, 8, 5))
        assert str(again.value) == str(first.value)
        # Keyed on content: another graph of the same document fails
        # from memory too.
        twin = graph_from_document(wide_fold_document())
        with pytest.raises(pipeline.CompilationError) as direct:
            pipeline.compile_kernel(twin, ProcessorConfig(8, 5))
        assert str(direct.value) in str(first.value)
        assert searches == []
        assert pipeline.memo_size() == 0
        assert default_cache().stats()["writes"] == writes
        pipeline.clear_cache()
        with pytest.raises(pipeline.CompilationError):
            pipeline.compile_kernel(twin, ProcessorConfig(8, 5))
        assert searches

    def test_daemon_answers_bad_request(self, registry):
        ref = registry.register(wide_fold_document()).ref
        with running_server() as server:
            with ServeClient("127.0.0.1", server.port) as client:
                for response in (
                    client.compile(ref, 8, 5),
                    client.simulate(ref, 8, 5),
                    client.sweep("fig13", kernel=ref),
                ):
                    assert response.status == 400, response.payload
                    assert response.error["code"] == "bad_request"
                    assert "cannot schedule kernel 'wide_fold'" in (
                        response.error["message"]
                    )

    @pytest.mark.parametrize("command", (
        ["compile"], ["simulate"], ["simulate", "--json"],
    ))
    def test_cli_exits_2_with_one_line(
        self, registry, tmp_path, capsys, command
    ):
        from repro.cli import main

        path = tmp_path / "wide.json"
        path.write_text(json.dumps(wide_fold_document()))
        assert main(command + ["--kernel-file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cannot schedule kernel 'wide_fold'")
        assert captured.err.count("\n") == 1
