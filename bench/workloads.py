"""The four workloads, driven from the benchmark's parent process.

In-process workloads run in :mod:`bench.worker` subprocesses;
``daemon-mix`` runs ``python -m repro serve``.  Every process gets its
own empty home, cache and temp directories.  Every workload returns an
:class:`Outcome`; :mod:`bench.__main__` turns it into metrics.  A run
spends about ``--seconds`` in all, set-up included.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

from bench import FUZZ_MODULE, ROOT, SRC
from bench import load, reference, stats

EXPECTED = Path(__file__).with_name("expected.json")
OUT_DIR = Path(__file__).with_name("out")
WORK_DIR = Path(__file__).with_name(".work")

#: Documents ``kernels-cold`` registers per process.
KERNEL_DOCUMENTS = 48

#: Set-up samples per run: the grid workloads and ``daemon-mix`` start
#: this many processes, all but the last just to time their set-up.
SETUP_SAMPLES = 3

#: The traced daemon-mix run first times blocks on an untraced daemon
#: for this share of ``--seconds``.
TRACED_BASELINE_SHARE = 0.25

#: A worker or daemon that has not finished by then is killed.
PROCESS_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


@dataclass
class Outcome:
    """What one workload run measured; every time is scaled to the
    reference speed (:mod:`bench.reference`)."""

    setup: List[float] = field(default_factory=list)
    #: Scaled times of the untraced iterations; ``wall_s`` is their median.
    walls: List[float] = field(default_factory=list)
    #: Scaled latencies (s) behind ``lat_p50_ms`` and ``lat_p90_ms``.
    latencies: List[float] = field(default_factory=list)
    #: What one iteration and one latency sample are, for the printout.
    iteration: str = "iterations"
    operation: str = "operations"
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Per-layer metrics (traced runs).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Further numbers worth printing that carry no bound.
    extra: Dict[str, float] = field(default_factory=dict)

    def fail(self, count: int, message: str) -> None:
        if count:
            self.failed += count
            if len(self.errors) < 5:
                self.errors.append(message)


class Scratch:
    """Per-run directories under ``bench/.work``, removed at the end."""

    def __init__(self, label: str):
        self.base = WORK_DIR / f"{label}-{os.getpid()}"
        self._count = 0

    def env(self, name: Optional[str] = None) -> Dict[str, str]:
        """Environment for one process: empty home, cache and temp
        directories, no sweep checkpoints, and the compile cache and
        kernel registry kept in memory only.

        The disk caches stay off because this host's disk cannot be
        measured: creating and replacing 800 small files took 105 ms at
        first and 550 ms forty seconds of such work later, and stayed
        that slow after a minute idle.
        """
        if name is None:
            self._count += 1
            name = f"p{self._count}"
        base = self.base / name
        dirs = {key: base / key for key in ("home", "cache", "tmp")}
        for path in dirs.values():
            path.mkdir(parents=True, exist_ok=True)
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update(
            HOME=str(dirs["home"]),
            XDG_CACHE_HOME=str(dirs["cache"]),
            TMPDIR=str(dirs["tmp"]),
            REPRO_COMPILE_CACHE="off",
            REPRO_KERNEL_REGISTRY="off",
            REPRO_SWEEP_CHECKPOINT="off",
            PYTHONPATH=os.pathsep.join((str(SRC), str(ROOT))),
            # Fixed string hashing: set iteration order, and with it the
            # work done, is the same in every process.
            PYTHONHASHSEED="0",
        )
        return env

    def path(self, name: str) -> Path:
        self.base.mkdir(parents=True, exist_ok=True)
        return self.base / name

    def cleanup(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass


@contextmanager
def isolated(label: str) -> Iterator[Scratch]:
    """A :class:`Scratch` whose ``parent`` environment this process
    uses meanwhile: the parent imports the library too (daemon-mix's
    in-process reference, the fuzz generator)."""
    scratch = Scratch(label)
    saved = dict(os.environ)
    os.environ.clear()
    os.environ.update(scratch.env("parent"))
    try:
        yield scratch
    finally:
        os.environ.clear()
        os.environ.update(saved)
        scratch.cleanup()


def load_expected() -> Dict[str, Any]:
    return json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}


def speed_factor(walls: List[float], raw_walls: List[float]) -> float:
    """How much slower than the reference speed the host ran: the
    median ratio of raw to scaled iteration time."""
    return statistics.median(raw / scaled
                             for raw, scaled in zip(raw_walls, walls))


# --- worker processes ----------------------------------------------------


@dataclass
class WorkerRun:
    #: Scaled seconds from the spawn to ``imported`` and to ``ready``.
    import_s: float
    setup_s: float
    result: Dict[str, Any]


def spawn_worker(scratch: Scratch, spec: Dict[str, Any]) -> WorkerRun:
    """Run one :mod:`bench.worker` process to completion."""
    env = scratch.env()
    base = Path(env["HOME"]).parent
    spec_path = base / "spec.json"
    spec_path.write_text(json.dumps(spec))
    stderr_path = base / "stderr.txt"
    with open(stderr_path, "w") as stderr:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "bench.worker", str(spec_path)],
            cwd=ROOT, env=env, text=True,
            stdout=subprocess.PIPE, stderr=stderr,
        )
        load.pin_apart(proc.pid)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            marks = []
            for expected in ("imported", "ready"):
                line = proc.stdout.readline().strip()
                marks.append(time.perf_counter() - started)
                if line != expected:
                    break
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
    if proc.returncode != 0 or len(marks) != 2:
        raise BenchError(
            f"{spec['workload']} worker exited {proc.returncode}: "
            f"{stderr_path.read_text()[-2000:]}"
        )
    lines = rest.strip().splitlines()
    result = json.loads(lines[-1])
    setup = result["setup"]
    before, after = setup["slices"]
    return WorkerRun(
        reference.scale(marks[0] - setup["slicing"], before, after),
        reference.scale(marks[1] - setup["slicing"], before, after),
        result,
    )


def in_process_outcome(runs: List[WorkerRun], iteration: str,
                       operation: str) -> Outcome:
    """Merge worker results: set-up from every process, timings and
    layer tables from those that measured (set-up probes did not)."""
    outcome = Outcome(setup=[run.setup_s for run in runs],
                      iteration=iteration, operation=operation)
    traced_walls: List[float] = []
    raw_walls: List[float] = []
    layer_rows: List[Dict[str, float]] = []
    for result in (run.result for run in runs if "ops" in run.result):
        outcome.attempted += result["ops"]
        outcome.fail(result["failed"], "; ".join(result["errors"]))
        outcome.rss_mb = max(outcome.rss_mb, result["rss_mb"])
        outcome.latencies.extend(result["latencies"])
        for record in result["iterations"]:
            if record["traced"]:
                traced_walls.append(record["wall"])
                layer_rows.append(record["layers"])
            else:
                outcome.walls.append(record["wall"])
                raw_walls.append(record["raw"])
    outcome.extra["speed_factor"] = speed_factor(outcome.walls, raw_walls)
    if layer_rows:
        keys = sorted({key for row in layer_rows for key in row})
        outcome.layers = {
            key: statistics.median(row.get(key, 0.0) for row in layer_rows)
            for key in keys
        }
        outcome.layers["setup.import_s"] = statistics.median(
            run.import_s for run in runs
        )
        outcome.layers["setup.warmup_s"] = statistics.median(
            run.setup_s - run.import_s for run in runs
        )
        outcome.layers["bench.trace_overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(outcome.walls)
            - 1.0
        )
    return outcome


def kernel_documents(seed: int) -> List[List[Any]]:
    """``[shape index, document]`` pairs in the seed's order.

    The graph shapes come from the frontend fuzz generator on a fixed
    stream, so every seed compiles the same amount; the seed draws each
    kernel's name, its constants and the order.  Drawing the shapes from
    the seed instead moved a 48-kernel pass between 1.0 s and 2.0 s.
    """
    spec = importlib.util.spec_from_file_location("_bench_fuzz", FUZZ_MODULE)
    fuzz = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fuzz)
    shapes = random.Random(0)
    rng = random.Random(seed)
    documents = []
    for index in range(KERNEL_DOCUMENTS):
        document = fuzz.generate_document(shapes)
        document["name"] = f"bench_{seed}_{index}_{rng.randrange(10**6)}"
        for node in document["nodes"]:
            if node["op"] == "const":
                node["value"] = rng.randint(-16, 16) * 0.25
        documents.append([index, document])
    rng.shuffle(documents)
    return documents


def kernels_cold(seed: int, seconds: float, traced: bool,
                 scratch: Scratch) -> Outcome:
    """Cold processes one after another until ``seconds`` are spent (at
    least :data:`SETUP_SAMPLES`); a traced run traces every other one."""
    path = scratch.path("documents.json")
    path.write_text(json.dumps(kernel_documents(seed)))
    spec = {"workload": "kernels-cold", "seed": seed,
            "documents": str(path),
            "expected": load_expected().get("kernels-cold", {})}
    minimum = SETUP_SAMPLES + 1 if traced else SETUP_SAMPLES
    runs: List[WorkerRun] = []
    end = time.perf_counter() + seconds
    last = 0.0
    while len(runs) < minimum or time.perf_counter() + last <= end:
        started = time.perf_counter()
        trace_this = traced and len(runs) % 2 == 1
        runs.append(spawn_worker(scratch, dict(
            spec, trace=trace_this,
            trace_out=str(trace_path("kernels-cold", seed))
            if trace_this else None,
        )))
        last = time.perf_counter() - started
    return in_process_outcome(runs, "processes", "documents")


def grid(workload: str) -> Callable[..., Outcome]:
    def run(seed: int, seconds: float, traced: bool,
            scratch: Scratch) -> Outcome:
        """Set-up probes, then one process repeating passes over the
        grid until ``seconds`` are spent (a traced one alternates
        untraced and traced passes)."""
        end = time.perf_counter() + seconds
        spec = {"workload": workload, "seed": seed,
                "expected": load_expected().get("grid", {})}
        runs = [spawn_worker(scratch, dict(spec, trace=False, probe=True))
                for _ in range(SETUP_SAMPLES - 1)]
        runs.append(spawn_worker(scratch, dict(
            spec, trace=traced, deadline=end,
            trace_out=str(trace_path(workload, seed)) if traced else None,
        )))
        if workload == "grid-model":
            return in_process_outcome(runs, "passes", "passes")
        return in_process_outcome(runs, "passes", "configurations")

    return run


def trace_path(workload: str, seed: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR / f"{workload}-s{seed}-trace.json"


# --- daemon-mix ------------------------------------------------------------


def _snapshot(daemon: load.Daemon) -> Dict[str, Any]:
    from repro.serve.client import ServeClient

    with ServeClient("127.0.0.1", daemon.port,
                     backpressure_retries=0) as client:
        return {
            "stats": client.stats().data,
            "prom": stats.parse_prometheus(client.prometheus_metrics()),
        }


def _reference_digests(mix) -> Dict[int, Optional[str]]:
    """The digest of an in-process ``execute()`` of each request
    (``None`` where it raised)."""
    from repro.api import execute, request_from_dict

    digests: Dict[int, Optional[str]] = {}
    for index, (kind, body) in enumerate(mix):
        try:
            text = execute(request_from_dict(kind, body)).to_json()
        except Exception:
            digests[index] = None
        else:
            digests[index] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def daemon_mix(seed: int, seconds: float, traced: bool,
               scratch: Scratch) -> Outcome:
    """Closed-loop blocks of the seed's mix over one connection to a
    daemon that shares its CPU with this process.

    The reference slices run here, between requests, while the daemon
    waits: that measures the speed of the CPU the daemon runs on.
    """
    end = time.perf_counter() + seconds
    outcome = Outcome(iteration="blocks", operation="requests")
    mix = load.build_mix(seed)
    rng = random.Random(seed)
    load.pin(0, last=True)

    def boot(argv=None) -> load.Daemon:
        env = scratch.env()
        before = reference.time_slice()
        daemon = load.Daemon(env, ROOT, Path(env["HOME"]).parent / "stderr",
                             argv=argv, timeout_s=PROCESS_TIMEOUT_S)
        outcome.setup.append(
            reference.scale(daemon.boot_s, before, reference.time_slice()))
        return daemon

    def warm_up(daemon: load.Daemon) -> load.DaemonSender:
        sender = load.DaemonSender(daemon.port, mix)
        for index in range(len(mix)):
            outcome.attempted += 1
            if not sender.verify(index, sender.send(index)):
                outcome.fail(1, f"warm-up request {mix[index]} failed")
        return sender

    for _ in range(SETUP_SAMPLES - 1):
        boot().stop()
    baseline: List[load.Block] = []
    if traced:
        daemon = boot()
        try:
            sender = warm_up(daemon)
            baseline = load.closed_loop(
                sender, rng, time.perf_counter()
                + seconds * TRACED_BASELINE_SHARE)
            sender.close()
        finally:
            daemon.stop()
    window_path = scratch.path("window.json")
    layers_path = scratch.path("layers.json")
    argv = ([sys.executable, "-m", "bench.traced_serve", str(window_path),
             str(layers_path)] if traced else None)
    daemon = boot(argv)
    reference_digests: Dict[int, Optional[str]] = {}

    def check() -> None:
        # Off the daemon's CPU, while the warm-up (not measured) runs.
        load.pin(0, last=False)
        reference_digests.update(_reference_digests(mix))

    checker = threading.Thread(target=check, daemon=True)
    checker.start()
    try:
        sender = warm_up(daemon)
        checker.join()
        before = _snapshot(daemon)
        window_start = time.perf_counter()
        blocks = load.closed_loop(sender, rng, end)
        window_end = time.perf_counter()
        after = _snapshot(daemon)
        outcome.rss_mb = daemon.peak_rss_mb()
        sender.close()
        requests = sum(len(block.samples) for block in blocks)
        if traced:
            window_path.write_text(json.dumps({
                "start": window_start, "end": window_end,
                "requests": requests,
                "trace_out": str(trace_path("daemon-mix", seed)),
            }))
    finally:
        daemon.stop()

    samples = [sample for block in blocks for sample in block.samples]
    outcome.attempted += len(samples)
    outcome.fail(sum(1 for s in samples if not s.ok),
                 "non-200 or unreachable replies in the measured blocks")
    for (index, digest), count in sender.digests.items():
        if reference_digests.get(index) is None:
            outcome.fail(count, f"in-process execute() of {mix[index]} "
                                "raised")
        elif digest != reference_digests[index]:
            outcome.fail(count, f"reply to {mix[index]} differs from "
                                "in-process execute()")
    outcome.walls = [block.scaled for block in blocks]
    outcome.latencies = [s.scaled for s in samples if s.ok]
    outcome.extra["speed_factor"] = speed_factor(
        outcome.walls, [block.seconds for block in blocks])
    serve = _serve_layers(before, after, samples, sender.statuses, requests)
    outcome.extra.update(serve)
    if traced:
        layers = json.loads(layers_path.read_text())
        batch_s = (after["prom"].get("repro_serve_batch_seconds_sum", 0.0)
                   - before["prom"].get("repro_serve_batch_seconds_sum", 0.0))
        layers["bench.span_coverage_frac"] = (
            layers.pop("top_level_s") / batch_s if batch_s else 0.0
        )
        layers.update(serve)
        layers["serve.boot_s"] = statistics.median(outcome.setup)
        layers["bench.trace_overhead_frac"] = (
            statistics.median(outcome.walls)
            / statistics.median(block.scaled for block in baseline) - 1.0
        )
        outcome.layers = layers
    return outcome


def _serve_layers(before, after, samples: List[load.Sample],
                  statuses: Counter, requests: int) -> Dict[str, float]:
    """Serving-layer numbers from client timings and the daemon's own
    ``/metrics`` and ``/v1/stats`` deltas over the measured window, all
    in raw (unscaled) time."""
    def p50_ms(name: str) -> float:
        buckets = stats.histogram_delta(before["prom"], after["prom"], name)
        return stats.bucket_quantile(buckets, 0.5) * 1e3

    def delta(name: str) -> float:
        return after["prom"].get(name, 0.0) - before["prom"].get(name, 0.0)

    def stat(section: str, key: str) -> float:
        return after["stats"][section][key] - before["stats"][section][key]

    rtt = stats.percentile([s.seconds for s in samples], 0.5) * 1e3
    request = p50_ms("repro_serve_request_seconds")
    batch = p50_ms("repro_serve_batch_seconds")
    batches = delta("repro_serve_batch_size_count")
    layers = {
        "serve.client_rtt_ms.p50": rtt,
        "serve.request_ms.p50": request,
        "serve.batch_exec_ms.p50": batch,
        "serve.queue_wait_ms.p50": request - batch,
        "serve.http_overhead_ms.p50": rtt - request,
        "serve.batch_size.mean": (
            delta("repro_serve_batch_size_sum") / batches if batches else 0.0
        ),
        "serve.dedup_hits": stat("batcher", "deduped"),
        "serve.backpressure": statuses[429] + statuses[503],
    }
    for kind in ("sim", "rate"):
        for key in ("hits", "misses"):
            layers[f"sweep.{kind}.{key}"] = (
                stat("engine", f"{kind}_{key}") / requests
            )
    return layers


WORKLOADS: Dict[str, Callable[[int, float, bool, Scratch], Outcome]] = {
    "grid-warm": grid("grid-warm"),
    "grid-model": grid("grid-model"),
    "kernels-cold": kernels_cold,
    "daemon-mix": daemon_mix,
}
