"""Closed-loop load against the serving daemon.

One thread of the benchmark process sends the requests over one
keep-alive connection, one at a time, with a reference slice
(:mod:`bench.reference`) between consecutive requests.  The daemon and
this process share one CPU, so the slices time the speed of the CPU
that served each request, and each round trip is scaled by the slices
on either side of it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from bench import reference

#: Distinct cost queries in a mix.
DISTINCT_COSTS = 8

#: How often each distinct request of a kind occurs in one block: 8 cost
#: queries x 6, 6 compiles x 4, 6 simulations x 4 and 4 sweeps x 3 give
#: the kinds the shares 4 : 2 : 2 : 1.
BLOCK_REPEATS = {"costs": 6, "compile": 4, "simulate": 4, "sweep": 3}

#: The sweeps of the mix: the kernel studies simulated (warm after the
#: warm-up) and the application study from the analytical model.
MIX_SWEEPS = (
    {"target": "fig13"},
    {"target": "fig14"},
    {"target": "table5"},
    {"target": "fig15", "mode": "analytical"},
)

#: Blocks a closed loop sends even when its time is up.
MIN_BLOCKS = 3


def canonical(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def build_mix(seed: int) -> List[Tuple[str, Dict[str, Any]]]:
    """The distinct ``(kind, body)`` requests of one seed's mix.

    The seed draws configurations, not what is asked: every mix compiles
    each kernel of the performance suite once and simulates each
    application once, each at a grid point the seed draws, so every seed
    serves comparable work.  Simulations use N >= 5 only: ``simulate
    qrd`` at N=2 answers HTTP 500 (an SRF capacity error the daemon does
    not map), which is a known defect outside this benchmark's scope.
    """
    from repro.analysis.perf import FIG15_N_VALUES, TABLE5_C_VALUES
    from repro.api import (
        CompileRequest, CostQuery, SimulateRequest, SweepRequest,
    )
    from repro.apps.suite import APPLICATION_ORDER
    from repro.kernels.suite import PERFORMANCE_SUITE

    rng = random.Random(seed)
    grid = [(c, n) for c in TABLE5_C_VALUES for n in FIG15_N_VALUES]
    costs = [(c, n) for c in TABLE5_C_VALUES for n in (2, 5, 10, 14)]
    mix: List[Tuple[str, Dict[str, Any]]] = []
    for c, n in rng.sample(costs, DISTINCT_COSTS):
        mix.append(("costs", CostQuery(c, n).to_dict()))
    for kernel in PERFORMANCE_SUITE:
        c, n = rng.choice(grid)
        mix.append(("compile", CompileRequest(kernel, c, n).to_dict()))
    for app in APPLICATION_ORDER:
        c, n = rng.choice(grid)
        mix.append((
            "simulate", SimulateRequest(application=app, clusters=c,
                                        alus=n).to_dict(),
        ))
    for sweep in MIX_SWEEPS:
        mix.append(("sweep", SweepRequest(**sweep).to_dict()))
    return mix


def block_sequence(rng: random.Random,
                   mix: Sequence[Tuple[str, Dict[str, Any]]],
                   blocks: int) -> List[int]:
    """Request indices for ``blocks`` blocks, each a seeded shuffle of
    every distinct request repeated :data:`BLOCK_REPEATS` times, so
    every block asks for exactly the same multiset of requests."""
    block = [index for index, (kind, _) in enumerate(mix)
             for _ in range(BLOCK_REPEATS[kind])]
    sequence: List[int] = []
    for _ in range(blocks):
        rng.shuffle(block)
        sequence.extend(block)
    return sequence


# --- the load generator --------------------------------------------------


class Sample(NamedTuple):
    """One request: its mix index, raw and scaled round trip, and
    whether the reply was a 200."""

    index: int
    seconds: float
    scaled: float
    ok: bool


@dataclass
class Block:
    """The samples of one block; its time is their round trips' sum,
    without the slices between them."""

    samples: List[Sample]

    @property
    def seconds(self) -> float:
        return sum(sample.seconds for sample in self.samples)

    @property
    def scaled(self) -> float:
        return sum(sample.scaled for sample in self.samples)


class DaemonSender:
    """Posts mix requests over one keep-alive connection and keeps the
    digest of every reply's ``data`` for the correctness check."""

    def __init__(self, port: int, mix: Sequence[Tuple[str, Dict[str, Any]]]):
        from repro.serve.client import ServeClient

        self.client = ServeClient("127.0.0.1", port, backpressure_retries=0)
        self.mix = mix
        self.statuses: Counter = Counter()
        #: (request index, sha256 of canonical data) -> replies seen.
        self.digests: Counter = Counter()

    def send(self, index: int) -> Any:
        kind, body = self.mix[index]
        try:
            return self.client.post(kind, body)
        except OSError:
            return None

    def verify(self, index: int, response: Any) -> bool:
        if response is None:
            self.statuses["unreachable"] += 1
            return False
        self.statuses[response.status] += 1
        if response.status != 200:
            return False
        text = canonical(response.data)
        self.digests[(index, hashlib.sha256(text.encode()).hexdigest())] += 1
        return True

    def close(self) -> None:
        self.client.close()


def closed_loop(sender: DaemonSender, rng: random.Random, end: float,
                min_blocks: int = MIN_BLOCKS) -> List[Block]:
    """Whole blocks (:func:`block_sequence`) until the next would end
    after ``end``: each request is sent when the previous reply has
    arrived, between reference slices.  Replies are checked after their
    block, so checking them costs no measured time."""
    clock = reference.ScaledClock()
    blocks: List[Block] = []
    last = 0.0
    while len(blocks) < min_blocks or time.perf_counter() + last <= end:
        started = time.perf_counter()
        sent = []
        for index in block_sequence(rng, sender.mix, 1):
            response, seconds, scaled = clock.run(
                lambda: sender.send(index))
            sent.append((index, response, seconds, scaled))
        blocks.append(Block([
            Sample(index, seconds, scaled, sender.verify(index, response))
            for index, response, seconds, scaled in sent
        ]))
        last = time.perf_counter() - started
    return blocks


# --- the daemon ----------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _cpus() -> Tuple[int, ...]:
    """The CPUs this process could run on before any pinning."""
    try:
        return tuple(sorted(os.sched_getaffinity(0)))
    except AttributeError:
        return ()


def pin(pid: int, last: bool) -> None:
    """Run ``pid`` (0: the calling thread) on the last CPU or the first
    (no-op on one CPU or where affinity cannot be set)."""
    cpus = _cpus()
    if len(cpus) > 1:
        try:
            os.sched_setaffinity(pid, {cpus[-1] if last else cpus[0]})
        except OSError:
            pass


def pin_apart(pid: int) -> None:
    """Run ``pid`` on the last CPU and this thread on the first, so the
    process under test and the benchmark never share a core."""
    pin(pid, last=True)
    pin(0, last=False)


class Daemon:
    """A ``repro serve`` process on an ephemeral port and the last CPU.

    It runs with default flags except ``--batch-window-ms 0``: the
    default 5 ms window is a timer sleep in front of every batch, the
    same on any host and in any commit, which would be most of each
    round trip and cannot be scaled like the serving work around it.
    ``argv`` replaces ``python -m repro serve`` (the traced run starts
    the daemon through :mod:`bench.traced_serve`).  ``boot_s`` runs from
    the spawn to the first ``/healthz`` answered 200.
    """

    READY = re.compile(r"listening on http://[^:]+:(\d+)")
    FLAGS = ["--port", "0", "--batch-window-ms", "0"]

    def __init__(self, env: Dict[str, str], cwd: Path, stderr: Path,
                 argv: Optional[List[str]] = None, timeout_s: float = 60.0):
        from repro.serve.client import ServeClient

        argv = argv or [sys.executable, "-m", "repro", "serve"]
        self.stderr_path = stderr
        self._stderr = open(stderr, "w")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv + self.FLAGS, cwd=cwd, env=env, text=True,
            stdout=subprocess.PIPE, stderr=self._stderr,
        )
        pin(self.proc.pid, last=True)
        watchdog = threading.Timer(timeout_s, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
            match = self.READY.search(line)
            if match is None:
                raise RuntimeError(f"daemon did not start: {self.error_tail()}")
            self.port = int(match.group(1))
            with ServeClient("127.0.0.1", self.port,
                             backpressure_retries=0) as client:
                while client.health().status != 200:
                    time.sleep(0.005)
            self.boot_s = time.perf_counter() - started
        except BaseException:
            self.stop()
            raise
        finally:
            watchdog.cancel()

    def error_tail(self) -> str:
        self._stderr.flush()
        return self.stderr_path.read_text()[-2000:]

    def peak_rss_mb(self) -> float:
        """The daemon's ``VmHWM`` (peak resident set) in MB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+)\s+kB", status)
        return int(match.group(1)) / 1024.0 if match else 0.0

    def stop(self, timeout_s: float = 60.0) -> int:
        """SIGTERM (graceful drain) and wait; kill if it overruns."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._stderr.close()
        return self.proc.returncode
