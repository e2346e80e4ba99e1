"""Golden simulation corpus and traced-run parity.

``tests/data/golden_simulations.json`` holds, for every point of a
336-point corpus (seven applications x C in {1..128} x N in
{1, 2, 3, 5, 10, 14}), either the :class:`~repro.sim.srf.CapacityError`
message the point raises or its totals: cycles, useful ALU ops, spill
and reload words, memory and cluster busy cycles, microcode reloads,
the bandwidth triple, and a SHA-256 of its ``OpRecord`` timeline.
``tests/data/golden_traces.json`` holds SHA-256 digests of the tracer
spans, instants and metrics snapshot of traced, metered runs.

Both files were captured from the per-operation component simulator
(host, memory, SRF and cluster-array objects walked once per stream
op), before the simulator and the analytical model shared one
recurrence, so they are the independent reference both execution
modes are checked against.  Regenerate them (only when a timing change
is intended) with::

    PYTHONPATH=src python tests/test_golden_simulations.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.apps.suite import APPLICATION_ORDER, get_application
from repro.core.config import ProcessorConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.sim.partitioned import simulate_partitioned
from repro.sim.processor import StreamProcessor, simulate
from repro.sim.srf import CapacityError

DATA = Path(__file__).parent / "data"
GOLDEN_SIMULATIONS = DATA / "golden_simulations.json"
GOLDEN_TRACES = DATA / "golden_traces.json"

APPLICATIONS = APPLICATION_ORDER + ("mpeg",)
CLUSTERS = (1, 2, 4, 8, 16, 32, 64, 128)
ALUS = (1, 2, 3, 5, 10, 14)

#: Traced, metered runs at C=8, N=5; qrd and fft4k spill there.
TRACED_APPLICATIONS = ("fft1k", "render", "qrd", "fft4k")
TRACED_CONFIG = (8, 5)
#: The traced partitioned run: render over two processors.
PARTITIONED = ("render", (128, 5), 2)


def _sha256(value) -> str:
    text = json.dumps(value, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def records_digest(records) -> str:
    """SHA-256 of an ``OpRecord`` timeline."""
    return _sha256(
        [[r.index, r.kind, r.label, r.start, r.finish] for r in records]
    )


def simulation_entry(result) -> dict:
    """The golden fields of one result (records digested)."""
    bandwidth = result.bandwidth
    return {
        "cycles": result.cycles,
        "useful_alu_ops": result.useful_alu_ops,
        "spill_words": result.spill_words,
        "reload_words": result.reload_words,
        "memory_busy_cycles": result.memory_busy_cycles,
        "cluster_busy_cycles": result.cluster_busy_cycles,
        "ucode_reloads": result.ucode_reloads,
        "bandwidth": [
            bandwidth.lrf_words, bandwidth.srf_words, bandwidth.memory_words
        ],
        "records_sha256": records_digest(result.records),
    }


def outcome(run) -> dict:
    """``simulation_entry`` of ``run()``, or its CapacityError message."""
    try:
        return simulation_entry(run())
    except CapacityError as exc:
        return {"error": str(exc)}


def trace_entry(tracer: Tracer, registry: MetricsRegistry) -> dict:
    """Digests of everything a traced, metered run emitted."""

    def spans(items):
        return [
            [s.resource, s.label, s.start, s.finish,
             [list(pair) for pair in s.detail]]
            for s in items
        ]

    snapshot = registry.snapshot()
    return {
        "span_count": len(tracer.spans),
        "spans_sha256": _sha256(spans(tracer.spans)),
        "instants_sha256": _sha256(spans(tracer.instants)),
        "metrics_sha256": _sha256(
            [[e.name, e.kind, e.value] for e in snapshot.entries]
            + [list(snapshot.warnings)]
        ),
    }


def traced_simulation(program, clusters: int, alus: int) -> dict:
    tracer, registry = Tracer(), MetricsRegistry()
    result = simulate(
        program, ProcessorConfig(clusters, alus),
        tracer=tracer, metrics=registry,
    )
    entry = trace_entry(tracer, registry)
    entry["records_sha256"] = records_digest(result.records)
    return entry


def traced_partitioned() -> dict:
    application, (clusters, alus), processors = PARTITIONED
    tracer, registry = Tracer(), MetricsRegistry()
    run = simulate_partitioned(
        get_application(application), ProcessorConfig(clusters, alus),
        processors, tracer=tracer, metrics=registry,
    )
    entry = trace_entry(tracer, registry)
    entry["stage_cycles"] = list(run.stage_cycles)
    entry["glue_words"] = run.glue_words
    entry["batches"] = run.batches
    return entry


def capture() -> None:
    """Write both golden files from the simulator in ``src``."""
    simulations = []
    for application in APPLICATIONS:
        for clusters in CLUSTERS:
            for alus in ALUS:
                entry = {
                    "application": application,
                    "clusters": clusters,
                    "alus": alus,
                }
                entry.update(outcome(lambda: simulate(
                    get_application(application),
                    ProcessorConfig(clusters, alus),
                )))
                simulations.append(entry)
    GOLDEN_SIMULATIONS.write_text(json.dumps(simulations, indent=1) + "\n")
    traces = {
        application: traced_simulation(
            get_application(application), *TRACED_CONFIG
        )
        for application in TRACED_APPLICATIONS
    }
    traces["partitioned"] = traced_partitioned()
    GOLDEN_TRACES.write_text(json.dumps(traces, indent=1) + "\n")


@pytest.fixture(scope="module")
def golden():
    entries = json.loads(GOLDEN_SIMULATIONS.read_text())
    by_app = {}
    for entry in entries:
        by_app.setdefault(entry["application"], []).append(entry)
    return by_app


def _expected(entry: dict) -> dict:
    return {
        key: value for key, value in entry.items()
        if key not in ("application", "clusters", "alus")
    }


class TestGoldenCorpus:
    def test_corpus_is_complete(self, golden):
        assert sorted(golden) == sorted(APPLICATIONS)
        points = sum(len(entries) for entries in golden.values())
        assert points == len(APPLICATIONS) * len(CLUSTERS) * len(ALUS)
        errors = sum(
            "error" in entry
            for entries in golden.values() for entry in entries
        )
        assert 0 < errors < points  # both outcomes are exercised

    @pytest.mark.parametrize("application", APPLICATIONS)
    def test_simulate_encoded_program(self, golden, application):
        """``simulate`` on the cached encoded program (the sweep path)."""
        from repro.analysis.model import program_summary

        summary = program_summary(application)
        for entry in golden[application]:
            config = ProcessorConfig(entry["clusters"], entry["alus"])
            assert outcome(
                lambda: simulate(summary, config)
            ) == _expected(entry), entry

    @pytest.mark.parametrize("application", APPLICATIONS)
    def test_processor_run_program(self, golden, application):
        """``StreamProcessor.run`` on a freshly built program object."""
        for entry in golden[application]:
            config = ProcessorConfig(entry["clusters"], entry["alus"])
            assert outcome(
                lambda: StreamProcessor(config).run(
                    get_application(application)
                )
            ) == _expected(entry), entry

    @pytest.mark.parametrize("application", APPLICATIONS)
    def test_predict_application(self, golden, application):
        """The analytical mode: every total, no timeline."""
        from repro.analysis.model import predict_application

        for entry in golden[application]:
            config = ProcessorConfig(entry["clusters"], entry["alus"])
            expected = _expected(entry)
            actual = outcome(
                lambda: predict_application(application, config)
            )
            if "error" not in expected:
                assert actual.pop("records_sha256") == records_digest(())
                expected.pop("records_sha256")
            assert actual == expected, entry


class TestTracedParity:
    @pytest.fixture(scope="class")
    def traces(self):
        return json.loads(GOLDEN_TRACES.read_text())

    @pytest.mark.parametrize("application", TRACED_APPLICATIONS)
    def test_traced_program(self, traces, application):
        assert traced_simulation(
            get_application(application), *TRACED_CONFIG
        ) == traces[application]

    @pytest.mark.parametrize("application", TRACED_APPLICATIONS)
    def test_traced_encoded_program(self, traces, application):
        from repro.analysis.model import program_summary

        assert traced_simulation(
            program_summary(application), *TRACED_CONFIG
        ) == traces[application]

    def test_traced_partitioned(self, traces):
        assert traced_partitioned() == traces["partitioned"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_simulations.py --write")
    capture()
