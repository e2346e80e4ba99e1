"""The process that does an in-process workload's work.

``python -m bench.worker SPEC.json`` times one reference slice, imports
the library, prints ``imported``, warms up, prints ``ready``, times a
second slice, runs the workload and prints one JSON result line.  The
parent times the two printed lines from the spawn (``setup.import_s``
and ``setup_s``) and scales the set-up by the two slices around it.
Library modules are all imported before ``imported`` so that traced and
untraced processes time the same work.

Every operation runs between reference slices (:mod:`bench.reference`)
and is timed at reference speed; an iteration's wall time is the sum of
its operations' scaled times.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from bench import reference, trace, use_source_tree

#: Configurations ``kernels-cold`` simulates each registered kernel on.
KERNEL_SIM_CONFIGS = ((8, 5), (128, 14))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def grid_configs() -> List[Any]:
    """The grid's 15 configurations: C{8..128} x N{5,10,14}."""
    from repro.analysis.perf import FIG15_N_VALUES, TABLE5_C_VALUES
    from repro.core.config import ProcessorConfig

    return [ProcessorConfig(c, n)
            for c in TABLE5_C_VALUES for n in FIG15_N_VALUES]


def grid_points() -> List[tuple]:
    """The 90-point application grid: 6 apps x the 15 configurations."""
    from repro.apps.suite import APPLICATION_ORDER

    return [(app, config)
            for app in APPLICATION_ORDER for config in grid_configs()]


def point_key(app: str, config: Any) -> str:
    return f"{app}/{config.clusters}/{config.alus_per_cluster}"


class Run:
    """Counts, latencies and per-iteration records of one worker."""

    def __init__(self, spec: Dict[str, Any]):
        self.spec = spec
        self.expected = spec.get("expected") or {}
        self.ops = 0
        self.failed = 0
        self.errors: List[str] = []
        self.iterations: List[Dict[str, Any]] = []
        #: Scaled latencies (s) of the untraced operations.
        self.latencies: List[float] = []
        self.digests: Dict[str, Any] = {}
        #: ``sweep.{sim,rate}.{hits,misses}`` of the latest iteration.
        self.engine_counts: Dict[str, int] = {}
        self.tracer = trace.Tracer()
        self.clock = reference.ScaledClock()
        self._trace_written = False
        #: Wall and scaled seconds of the current iteration's operations.
        self._seconds = 0.0
        self._scaled = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def op(self, key: str, fn: Callable[[], Any]) -> Tuple[Any, float]:
        """Run operation ``key`` once between slices: ``(result, scaled
        seconds)``, the result ``None`` when it raised."""
        self.ops += 1
        try:
            result, seconds, scaled = self.clock.run(fn)
        except Exception as exc:  # a failed op is counted, not fatal
            self.fail(f"{key}: {type(exc).__name__}: {exc}")
            return None, 0.0
        self._seconds += seconds
        self._scaled += scaled
        return result, scaled

    def check(self, key: str, actual: Any) -> None:
        """Compare against ``expected[key]`` when it was captured."""
        if key in self.expected and self.expected[key] != actual:
            self.fail(f"{key}: expected {self.expected[key]}, got {actual}")

    def iterate(self, body: Callable[[bool], None], traced: bool) -> None:
        """Run one iteration, traced or not; ``body(record)`` records
        latencies only when ``record`` (untraced)."""
        installation = trace.install(self.tracer) if traced else None
        self._seconds = self._scaled = 0.0
        try:
            body(not traced)
        finally:
            if installation is not None:
                trace.uninstall(installation)
        record: Dict[str, Any] = {"wall": self._scaled, "raw": self._seconds,
                                  "traced": traced}
        if traced:
            spans = self.tracer.spans
            layers = trace.layer_table(spans)
            layers.update(self.engine_counts)
            layers["bench.span_coverage_frac"] = (
                trace.top_level_seconds(spans) / self._seconds
                if self._seconds else 0.0
            )
            record["layers"] = layers
            self._write_trace()
            self.tracer.reset()
        self.iterations.append(record)

    def _write_trace(self) -> None:
        path = self.spec.get("trace_out")
        if path and not self._trace_written:
            Path(path).write_text(trace.chrome_trace(
                self.tracer.spans,
                metadata={"workload": self.spec["workload"],
                          "seed": self.spec["seed"]},
            ))
            self._trace_written = True

    def result(self) -> Dict[str, Any]:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "ops": self.ops,
            "failed": self.failed,
            "errors": self.errors,
            "latencies": self.latencies,
            "iterations": self.iterations,
            "digests": self.digests,
            "rss_mb": rss_kb / 1024.0,
        }


def engine_deltas(before: Dict[str, int], after: Dict[str, int]
                  ) -> Dict[str, int]:
    return {
        f"sweep.{kind}.{outcome}":
            after[f"{kind}_{outcome}"] - before[f"{kind}_{outcome}"]
        for kind in ("sim", "rate") for outcome in ("hits", "misses")
    }


# --- workloads -----------------------------------------------------------


def warm_up(spec: Dict[str, Any]) -> None:
    """Fill the compile memo and model caches the grid passes read.

    One analytical pass compiles every schedule the 90-point grid
    needs; the first simulated pass after it runs as fast as later ones.
    """
    if spec["workload"] in ("grid-warm", "grid-model"):
        from repro.analysis.sweep import SweepEngine

        SweepEngine().simulate_many(grid_points(), mode="analytical")


def run_grid(run: Run) -> None:
    """Fresh-engine passes over the grid until the process's deadline;
    a traced run alternates untraced and traced passes, so the two
    walls it compares see the same machine conditions.

    ``grid-warm`` simulates one point per operation, so slices surround
    work of 2 to 60 ms, and a latency sample is one configuration: its
    six applications' scaled times added up.  Half of the grid's points
    are cheap applications (2 to 6 ms) and half expensive ones (35 ms
    and up), so a median over single points would sit on the edge
    between the two.  ``grid-model`` is one ``simulate_many`` call per
    pass (about 15 ms): a point alone (0.2 ms) is too short to scale,
    since the cache misses it takes after each slice are a large share
    of it.
    """
    from repro.analysis.sweep import SweepEngine
    from repro.apps.suite import APPLICATION_ORDER

    spec = run.spec
    model = spec["workload"] == "grid-model"
    configs = grid_configs()
    random.Random(spec["seed"]).shuffle(configs)

    def check(app: str, config: Any, result: Any) -> None:
        key = point_key(app, config)
        run.digests[key] = result.cycles
        run.check(key, result.cycles)

    def body(record: bool) -> None:
        engine = SweepEngine()
        if model:
            points = [(app, config) for config in configs
                      for app in APPLICATION_ORDER]
            results, scaled = run.op("grid", lambda: engine.simulate_many(
                points, mode="analytical"))
            for (app, config), result in zip(points, results or ()):
                check(app, config, result)
            if record and results:
                run.latencies.append(scaled)
        else:
            for config in configs:
                latency, complete = 0.0, True
                for app in APPLICATION_ORDER:
                    results, scaled = run.op(
                        point_key(app, config),
                        lambda: engine.simulate_many([(app, config)],
                                                     mode="simulated"))
                    if results:
                        check(app, config, results[0])
                        latency += scaled
                    else:
                        complete = False
                if record and complete:
                    run.latencies.append(latency)
        run.engine_counts = engine_deltas(
            {k: 0 for k in engine.stats()}, engine.stats()
        )

    minimum = 2 if spec["trace"] else 1
    last = 0.0
    while len(run.iterations) < minimum or (
        time.perf_counter() + last <= spec["deadline"]
    ):
        started = time.perf_counter()
        run.iterate(body, traced=spec["trace"] and len(run.iterations) % 2 == 1)
        last = time.perf_counter() - started


def run_kernels(run: Run) -> None:
    """Register, sweep and simulate each document, cold, one operation
    per request; a latency sample is one document's four requests.
    Then repeat warm and require byte-identical results."""
    import repro.api as api
    from repro.analysis.sweep import default_engine

    documents = json.loads(Path(run.spec["documents"]).read_text())

    def requests(ref: str) -> List[tuple]:
        return [("table5", api.SweepRequest(target="table5", kernel=ref))] + [
            (f"simulate-{c}x{n}",
             api.SimulateRequest(application=ref, clusters=c, alus=n))
            for c, n in KERNEL_SIM_CONFIGS
        ]

    def chain(document: Dict[str, Any]) -> str:
        ref = api.execute(api.RegisterKernelRequest(document=document))
        results = [ref] + [api.execute(r) for _, r in requests(ref.ref)]
        return "\n".join(result.to_json() for result in results)

    replies: Dict[int, List[Any]] = {}

    def body(record: bool) -> None:
        before = default_engine().stats()
        for index, document in documents:
            ref, latency = run.op(f"{index}/register", lambda: api.execute(
                api.RegisterKernelRequest(document=document)))
            results = [ref]
            for name, request in requests(ref.ref) if ref else ():
                result, scaled = run.op(f"{index}/{name}",
                                        lambda: api.execute(request))
                results.append(result)
                latency += scaled
            if all(results):
                replies[index] = results
                if record:
                    run.latencies.append(latency)
        run.engine_counts = engine_deltas(before, default_engine().stats())

    run.iterate(body, traced=run.spec["trace"])
    cold = {index: "\n".join(r.to_json() for r in results)
            for index, results in replies.items()}
    for index, document in documents:
        if index in cold and chain(document) != cold[index]:
            run.fail(f"document {index}: warm repeat differs from cold pass")
    if len(cold) == len(documents):
        key = str(run.spec["seed"])
        run.digests[key] = digest("\n".join(cold[i] for i in sorted(cold)))
        run.check(key, run.digests[key])


WORKLOADS = {
    "grid-warm": run_grid,
    "grid-model": run_grid,
    "kernels-cold": run_kernels,
}


def main(argv: List[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    started = time.perf_counter()
    before = reference.time_slice()
    slicing = time.perf_counter() - started
    use_source_tree()
    trace.preimport()
    print("imported", flush=True)
    warm_up(spec)
    print("ready", flush=True)
    setup = {"slices": [before, reference.time_slice()], "slicing": slicing}
    result: Dict[str, Any] = {"setup": setup}
    if not spec.get("probe"):
        run = Run(spec)
        WORKLOADS[spec["workload"]](run)
        result.update(run.result())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
