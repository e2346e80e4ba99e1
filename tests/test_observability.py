"""Tests for the observability layer: tracer, metrics registry, run
manifests, and the instrumented simulator/CLI paths."""

import json

import pytest

from repro.apps import get_application
from repro.cli import main
from repro.core.config import ProcessorConfig
from repro.core.params import TECH_45NM
from repro.obs import (
    AccountingWarning,
    MetricsRegistry,
    PrefixedTracer,
    Tracer,
    build_manifest,
    validate_manifest,
)
from repro.obs.manifest import ManifestError
from repro.obs.tracer import NULL_TRACER
from repro.sim import simulate, simulate_partitioned
from repro.sim.engine import Observer, build_summary, evaluate, point_tables
from repro.sim.metrics import BandwidthReport, SimulationResult

CONFIG = ProcessorConfig(8, 5)


def _result(**overrides):
    defaults = dict(
        program="synthetic",
        config=CONFIG,
        clock_ghz=1.0,
        cycles=1000,
        useful_alu_ops=0,
        records=(),
        spill_words=0,
        reload_words=0,
        memory_busy_cycles=0,
        cluster_busy_cycles=0,
        ucode_reloads=0,
    )
    defaults.update(overrides)
    return SimulationResult(**defaults)


class TestBandwidthReportEdges:
    def test_gbps_zero_cycles(self):
        report = BandwidthReport(100, 10, 1)
        assert report.gbps(0) == (0.0, 0.0, 0.0)

    def test_gbps_negative_cycles(self):
        report = BandwidthReport(100, 10, 1)
        assert report.gbps(-5) == (0.0, 0.0, 0.0)

    def test_locality_fraction_zero_words(self):
        report = BandwidthReport(0, 0, 0)
        assert report.locality_fraction == 1.0
        assert report.memory_fraction == 0.0
        assert report.total_words == 0

    def test_locality_fraction_all_memory(self):
        report = BandwidthReport(0, 0, 10)
        assert report.locality_fraction == 0.0
        assert report.memory_fraction == 1.0


class TestUtilizationAccounting:
    def test_sane_utilization_not_warned(self, recwarn):
        result = _result(memory_busy_cycles=400, cluster_busy_cycles=900)
        assert result.memory_utilization == 0.4
        assert result.cluster_utilization == 0.9
        assert not [
            w for w in recwarn if issubclass(w.category, AccountingWarning)
        ]

    def test_memory_overaccounting_warns(self):
        result = _result(memory_busy_cycles=1500)
        with pytest.warns(AccountingWarning, match="memory busy cycles"):
            assert result.memory_utilization == 1.0

    def test_cluster_overaccounting_warns(self):
        result = _result(cluster_busy_cycles=2000)
        with pytest.warns(AccountingWarning, match="cluster busy cycles"):
            assert result.cluster_utilization == 1.0

    def test_zero_cycles(self):
        result = _result(cycles=0)
        assert result.memory_utilization == 0.0
        assert result.cluster_utilization == 0.0


class TestTracer:
    def test_records_spans(self):
        tracer = Tracer()
        tracer.span("memory", "64w", 10, 20, words=64)
        (span,) = tracer.spans
        assert (span.resource, span.label) == ("memory", "64w")
        assert span.cycles == 10
        assert span.detail_dict() == {"words": 64}

    def test_rejects_backwards_span(self):
        with pytest.raises(ValueError):
            Tracer().span("memory", "bad", 20, 10)

    def test_disabled_tracer_records_nothing(self):
        assert not NULL_TRACER.enabled
        NULL_TRACER.span("memory", "x", 0, 5)
        NULL_TRACER.instant("memory", "y", 3)
        assert NULL_TRACER.spans == ()
        assert NULL_TRACER.instants == ()

    def test_prefixed_tracer(self):
        inner = Tracer()
        PrefixedTracer(inner, "p0.").span("memory", "x", 0, 1)
        assert inner.spans[0].resource == "p0.memory"

    def test_chrome_trace_round_trips(self):
        tracer = Tracer()
        tracer.span("clusters", "fft", 0, 100, iterations=8)
        tracer.instant("events", "done", 100)
        doc = json.loads(tracer.to_chrome_json())
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"thread_name", "fft", "done"} <= names
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert complete[0]["dur"] == 100
        assert complete[0]["args"] == {"iterations": 8}

    def test_traced_run_spans_nest(self):
        """Microcontroller ucode loads sit inside their cluster span;
        resource spans sit inside the run."""
        tracer = Tracer()
        result = simulate(get_application("fft1k"), CONFIG, tracer=tracer)
        clusters = [s for s in tracer.spans if s.resource == "clusters"]
        ucode = [s for s in tracer.spans if s.resource == "microcontroller"]
        assert clusters and ucode
        for reload_span in ucode:
            assert any(
                parent.start <= reload_span.start
                and reload_span.finish <= parent.finish
                for parent in clusters
            )
        assert all(s.finish <= result.cycles for s in tracer.spans)

    def test_tracing_does_not_change_results(self):
        app = get_application("fft1k")
        baseline = simulate(app, CONFIG)
        tracer, metrics = Tracer(), MetricsRegistry()
        traced = simulate(app, CONFIG, tracer=tracer, metrics=metrics)
        assert traced.cycles == baseline.cycles
        assert traced.records == baseline.records
        assert traced.bandwidth == baseline.bandwidth
        assert baseline.metrics is None
        assert traced.metrics is not None


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("spills").inc(64)
        registry.counter("spills").inc()
        registry.gauge("occupancy").set(7)
        for sample in (10, 20, 30):
            registry.histogram("latency").observe(sample)
        snap = registry.snapshot()
        assert snap["spills"] == 65
        assert snap["occupancy"] == 7
        assert snap["latency.count"] == 3
        assert snap["latency.mean"] == 20
        assert snap["latency.min"] == 10
        assert snap["latency.max"] == 30

    def test_counter_cannot_decrease(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_kind_conflict(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_warn_records_and_warns(self):
        registry = MetricsRegistry()
        with pytest.warns(AccountingWarning, match="impossible"):
            registry.warn("impossible busy cycles")
        snap = registry.snapshot()
        assert snap.warnings == ("impossible busy cycles",)
        assert snap["warnings"] == 1

    def test_simulation_populates_registry(self):
        metrics = MetricsRegistry()
        result = simulate(get_application("fft1k"), CONFIG, metrics=metrics)
        snap = result.metrics
        assert snap["clusters.busy_cycles"] == result.cluster_busy_cycles
        assert snap["ops.latency_cycles.count"] == len(result.records)
        assert snap["events.processed"] == len(result.records)
        assert "events.queue_occupancy.max" in snap


class TestCompletionLog:
    """The completion log a traced, metered run emits from its timeline."""

    def test_one_labelled_instant_per_op(self):
        """One ``complete <label>`` instant and one ``stream.*`` span per
        operation, in ``(finish, index)`` order."""
        tracer = Tracer()
        result = simulate(get_application("qrd"), CONFIG, tracer=tracer)
        logged = sorted(result.records, key=lambda r: (r.finish, r.index))
        instants = [s for s in tracer.instants if s.resource == "events"]
        assert [(s.label, s.start) for s in instants] == [
            (f"complete {r.label}", r.finish) for r in logged
        ]
        spans = [s for s in tracer.spans if s.resource.startswith("stream.")]
        assert [dict(s.detail)["index"] for s in spans] == [
            r.index for r in logged
        ]

    def test_runs_in_time_order(self):
        """The log's instants never go back in time, and the last one
        lands on the run's final cycle."""
        tracer = Tracer()
        result = simulate(get_application("render"), CONFIG, tracer=tracer)
        times = [s.start for s in tracer.instants if s.resource == "events"]
        assert len(times) == len(result.records)
        assert times == sorted(times)
        assert times[-1] == result.cycles

    def test_equal_finishes_log_in_index_order(self):
        """Ties go out in program order, and the occupancy histogram
        sees the operations not yet logged at each distinct finish."""
        summary = build_summary(get_application("fft1k"))
        point = point_tables(summary, CONFIG, TECH_45NM, 1.0)
        timing = evaluate(summary, point, timeline=True)._replace(
            starts=[0] * 5, finishes=[10, 5, 10, 5, 20]
        )
        tracer, metrics = Tracer(), MetricsRegistry()
        Observer(tracer, metrics, point).finished(summary, timing)
        assert [s.start for s in tracer.instants] == [5, 5, 10, 10, 20]
        assert [dict(s.detail)["index"] for s in tracer.spans] == [
            1, 3, 0, 2, 4
        ]
        snap = metrics.snapshot()
        assert snap["events.queue_occupancy.count"] == 3
        assert snap["events.queue_occupancy.total"] == 5 + 3 + 1
        assert snap["events.processed"] == 5
        assert snap["ops.latency_cycles.total"] == 50


class TestManifest:
    @pytest.fixture(scope="class")
    def manifest(self):
        metrics = MetricsRegistry()
        result = simulate(get_application("fft1k"), CONFIG, metrics=metrics)
        return build_manifest(
            result, application="fft1k", timings={"simulate": 0.01}
        )

    def test_valid(self, manifest):
        validate_manifest(manifest)
        assert manifest["application"] == "fft1k"
        assert manifest["config"]["clusters"] == 8
        assert manifest["seed_state"]["deterministic"] is True
        assert manifest["timings"]["simulate"] == 0.01
        assert manifest["metrics"]

    def test_json_round_trip(self, manifest):
        validate_manifest(json.loads(json.dumps(manifest)))

    def test_missing_field_rejected(self, manifest):
        broken = json.loads(json.dumps(manifest))
        del broken["results"]["cycles"]
        with pytest.raises(ManifestError, match="results.cycles"):
            validate_manifest(broken)

    def test_wrong_type_rejected(self, manifest):
        broken = json.loads(json.dumps(manifest))
        broken["config"]["clusters"] = "eight"
        with pytest.raises(ManifestError, match="config.clusters"):
            validate_manifest(broken)

    def test_wrong_version_rejected(self, manifest):
        broken = json.loads(json.dumps(manifest))
        broken["manifest_version"] = 999
        with pytest.raises(ManifestError, match="version"):
            validate_manifest(broken)


class TestEnvelope:
    """The versioned envelope wrapping all machine-readable output."""

    def test_build_and_validate(self):
        from repro.obs import build_envelope, validate_envelope

        envelope = build_envelope(
            "costs", data={"clusters": 8}, meta={"duration_ms": 1.0}
        )
        validate_envelope(envelope)
        assert envelope["ok"] is True
        assert envelope["kind"] == "costs"
        assert envelope["envelope_version"] == 1
        assert envelope["api_version"] == 8
        assert envelope["tool"]["name"] == "repro"

    def test_error_envelope(self):
        from repro.obs import build_envelope, validate_envelope

        envelope = build_envelope(
            "compile", error={"code": "bad_request", "message": "nope"}
        )
        validate_envelope(envelope)
        assert envelope["ok"] is False
        assert "data" not in envelope

    @pytest.mark.parametrize("kind,data,meta", [
        ("costs", {"clusters": 8, "area": 1.25e-3, "ok": True}, {}),
        ("sweep", {"rows": [{"x": None, "y": [1, 2.5]}], "target": "fig15"},
         {"duration_ms": 0.001, "request_id": "abc123def456"}),
        ("simulate", {"note": 'café "data":{} ☃', "z": {}},
         {"request_id": '"meta":{}', "duration_ms": 12.5}),
    ], ids=["costs", "sweep", "tricky-strings"])
    def test_render_matches_build(self, kind, data, meta):
        """The envelope rendered around a data payload's canonical JSON
        has the bytes of the built envelope's canonical JSON."""
        from repro.obs import build_envelope
        from repro.obs.manifest import render_envelope

        def canonical(value):
            return json.dumps(value, sort_keys=True, separators=(",", ":"))

        assert render_envelope(kind, canonical(data), meta) == canonical(
            build_envelope(kind, data=data, meta=meta)
        )

    def test_data_xor_error_enforced(self):
        from repro.obs import build_envelope

        with pytest.raises(ValueError, match="either data or an error"):
            build_envelope("costs")
        with pytest.raises(ValueError, match="either data or an error"):
            build_envelope("costs", data={}, error={"code": "x",
                                                    "message": "y"})

    def test_validate_rejects_broken_envelopes(self):
        from repro.obs import build_envelope, validate_envelope

        envelope = build_envelope("costs", data={"x": 1})
        wrong_version = dict(envelope, envelope_version=999)
        with pytest.raises(ManifestError, match="version"):
            validate_envelope(wrong_version)
        inconsistent = dict(envelope, ok=False)
        with pytest.raises(ManifestError):
            validate_envelope(inconsistent)
        missing = dict(envelope)
        del missing["kind"]
        with pytest.raises(ManifestError, match="kind"):
            validate_envelope(missing)


class TestPartitionedTracing:
    def test_partitions_get_prefixed_lanes(self):
        tracer = Tracer()
        simulate_partitioned(
            get_application("render"),
            ProcessorConfig(128, 5),
            processors=2,
            tracer=tracer,
        )
        prefixes = {r.split(".", 1)[0] for r in tracer.resources}
        assert {"p0", "p1"} <= prefixes


class TestCli:
    def test_simulate_json_manifest(self, capsys):
        # Since PR 5, ``simulate --json`` emits a versioned envelope:
        # the deterministic api payload in ``data``, the run manifest
        # (still validate_manifest-clean) in ``meta``.
        from repro.obs import validate_envelope

        assert main(["simulate", "fft1k", "-c", "8", "-n", "5",
                     "--json"]) == 0
        out = capsys.readouterr().out
        envelope = json.loads(out)
        validate_envelope(envelope)
        assert envelope["kind"] == "simulate"
        assert envelope["ok"] is True
        assert envelope["data"]["cycles"] > 0
        manifest = envelope["meta"]["manifest"]
        validate_manifest(manifest)
        assert manifest["results"]["cycles"] == envelope["data"]["cycles"]
        assert list(manifest["timings"]) == ["build", "compile", "simulate"]

    def test_simulate_trace_out(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        assert main(["simulate", "fft1k", "--trace-out", str(path)]) == 0
        assert "GOPS" in capsys.readouterr().out  # human output retained
        doc = json.loads(path.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
