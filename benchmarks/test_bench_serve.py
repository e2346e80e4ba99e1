"""Serving-daemon throughput: warm daemon vs cold process per query.

The daemon's reason to exist (ISSUE 5 acceptance): answering a repeated
mixed workload from one warm process — shared sweep memo, compile
caches, no interpreter boot — must beat spawning ``python -m repro``
per request by a wide margin, while returning byte-identical payloads
to direct :mod:`repro.api` calls.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from conftest import perf_floor, run_once

from repro.api import CompileRequest, CostQuery, SimulateRequest, execute
from repro.serve import ServeClient, running_server

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: The repeated mixed workload: cost queries, compiles, simulations.
WORKLOAD = (
    ("costs", CostQuery(8, 5)),
    ("costs", CostQuery(128, 5)),
    ("compile", CompileRequest("fft", 8, 5)),
    ("compile", CompileRequest("blocksad", 8, 5)),
    ("simulate", SimulateRequest("fft1k", 8, 5)),
    ("simulate", SimulateRequest("depth", 8, 5)),
)

#: Round-trips of the workload the daemon serves in the timed window.
ROUNDS = 5


def _canonical(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _spawn_per_request_seconds() -> float:
    """Cost of one query the old way: a fresh ``python -m repro``.

    One cold ``costs`` invocation stands in for the whole mix — it is
    the *cheapest* command (no kernel compiles, no simulator), so the
    measured speedup floor is conservative.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro", "costs", "-c", "8", "-n", "5"],
        env=env, check=True, capture_output=True,
    )
    return time.perf_counter() - started


def test_serve_throughput_vs_process_spawn(benchmark, archive):
    """Warm daemon steady-state must be >=5x faster per request than
    spawning a process per request (>=25x on quiet machines)."""
    with running_server() as server:
        client = ServeClient("127.0.0.1", server.port)
        expected = {}
        # Warm-up pass: pays compiles/simulations once, pins expected
        # payloads, and proves byte-identity with the library.
        for kind, request in WORKLOAD:
            response = client.post(kind, request.to_dict())
            assert response.status == 200, response.payload
            expected[kind + request.to_json()] = _canonical(response.data)
            assert expected[kind + request.to_json()] == \
                execute(request).to_json()

        def steady_state() -> float:
            started = time.perf_counter()
            for _ in range(ROUNDS):
                for kind, request in WORKLOAD:
                    response = client.post(kind, request.to_dict())
                    assert response.status == 200
                    assert _canonical(response.data) == \
                        expected[kind + request.to_json()]
            return (time.perf_counter() - started) / (
                ROUNDS * len(WORKLOAD)
            )

        served_s = run_once(benchmark, steady_state)
        spawn_s = _spawn_per_request_seconds()
        client.close()
        stats = server.stats()["batcher"]

    ratio = spawn_s / served_s
    archive(
        "Serving daemon vs process-per-request (mixed workload: "
        f"{len(WORKLOAD)} queries x {ROUNDS} rounds)\n"
        f"  batches: {stats['batches']}, submitted: {stats['submitted']}",
        f"  warm daemon:    {served_s * 1e3:8.2f} ms/request\n"
        f"  process spawn:  {spawn_s * 1e3:8.2f} ms/request (cold "
        "`python -m repro costs`)\n"
        f"  speedup:        {ratio:8.1f}x",
    )
    assert ratio >= perf_floor(strict=25.0, relaxed=5.0), (
        f"daemon only {ratio:.1f}x faster than process spawn"
    )


def test_serve_slo_loadgen(benchmark, archive):
    """Closed-loop loadgen against a warm daemon: the SLO report CI
    publishes must show non-trivial percentiles and real throughput."""
    from repro.obs.loadgen import (
        LoadgenConfig,
        render_report,
        run_loadgen,
        slo_line,
    )

    with running_server() as server:
        # Warm the caches so the timed window measures steady state.
        with ServeClient("127.0.0.1", server.port) as warm:
            for kind, request in WORKLOAD:
                assert warm.post(kind, request.to_dict()).status == 200

        config = LoadgenConfig(
            port=server.port,
            duration_s=3.0,
            concurrency=3,
            mix="costs=6,compile=2,simulate=1",
        )
        report = run_once(benchmark, run_loadgen, config)

    overall = report["overall"]
    archive(
        f"loadgen: {config.mode} loop, {config.duration_s}s x "
        f"{config.concurrency} workers, mix {config.mix}\n"
        f"errors: {overall['errors']}",
        render_report(report),
    )
    assert overall["ok"] >= 50, "too few samples for meaningful SLOs"
    assert overall["errors"] == 0
    assert overall["p50_ms"] is not None and overall["p50_ms"] > 0.0
    assert overall["p99_ms"] >= overall["p50_ms"] > 0.0
    assert report["saturation_rps"] == overall["throughput_rps"]
    assert overall["throughput_rps"] >= perf_floor(
        strict=100.0, relaxed=10.0
    ), slo_line(report)
