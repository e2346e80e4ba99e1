"""Tests for the load generator (:mod:`repro.obs.loadgen`): mix
parsing, closed/open-loop runs against an in-process daemon, the
versioned SLO envelope, and the ``repro loadgen`` CLI."""

import json

import pytest

from repro.cli import main
from repro.obs.loadgen import (
    DEFAULT_MIX,
    SLO_VERSION,
    LoadgenConfig,
    _build_schedule,
    build_loadgen_envelope,
    parse_mix,
    render_report,
    run_loadgen,
    slo_line,
)
from repro.obs.manifest import validate_envelope
from repro.serve import running_server


class TestMixParsing:
    def test_default_mix_parses(self):
        mix = parse_mix(DEFAULT_MIX)
        assert mix == {"costs": 6, "compile": 2, "simulate": 1}

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError, match="unknown endpoint"):
            parse_mix("costs=1,nonsense=2")

    def test_non_integer_weight_rejected(self):
        with pytest.raises(ValueError, match="must be an integer"):
            parse_mix("costs=lots")

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            parse_mix("costs=-1")

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="no positive weights"):
            parse_mix("costs=0,compile=0")

    def test_schedule_interleaves(self):
        assert _build_schedule({"costs": 2, "sweep": 1}) == [
            "costs", "sweep", "costs"
        ]

    def test_schedule_length_matches_weights(self):
        schedule = _build_schedule(parse_mix(DEFAULT_MIX))
        assert len(schedule) == 9
        assert schedule.count("costs") == 6
        assert schedule.count("compile") == 2
        assert schedule.count("simulate") == 1


class TestClosedLoop:
    def test_report_has_nontrivial_slos(self):
        with running_server() as server:
            report = run_loadgen(
                LoadgenConfig(
                    port=server.port,
                    duration_s=1.5,
                    concurrency=2,
                    mix="costs=3,compile=1",
                )
            )
        assert report["slo_version"] == SLO_VERSION
        assert report["mode"] == "closed"
        overall = report["overall"]
        assert overall["ok"] > 10
        assert overall["errors"] == 0
        assert overall["p50_ms"] is not None and overall["p50_ms"] > 0
        assert overall["p99_ms"] >= overall["p50_ms"]
        assert overall["throughput_rps"] > 0
        assert report["saturation_rps"] == overall["throughput_rps"]
        for kind in ("costs", "compile"):
            endpoint = report["endpoints"][kind]
            assert endpoint["ok"] > 0
            assert endpoint["p99_ms"] >= endpoint["p50_ms"] > 0
            assert endpoint["histogram"], "bucket pairs missing"
            assert sum(c for _, c in endpoint["histogram"]) == \
                endpoint["ok"]

    def test_sends_only_healthz_and_its_mix(self):
        """Beyond its ``/healthz`` probe a run sends only its mix; the
        report carries no fleet size."""
        with running_server() as server:
            report = run_loadgen(
                LoadgenConfig(
                    port=server.port, duration_s=0.3, concurrency=1,
                    mix="costs=1",
                )
            )
            labels = {
                name[len("serve.requests."):]
                for name in server.metrics.snapshot().as_dict()
                if name.startswith("serve.requests.")
            }
        assert labels == {"healthz", "costs"}
        assert report["slo_version"] == SLO_VERSION == 4
        assert "cluster_workers" not in report

    def test_envelope_validates(self):
        with running_server() as server:
            port = server.port
            report = run_loadgen(
                LoadgenConfig(
                    port=port, duration_s=0.5, concurrency=1,
                    mix="costs=1",
                )
            )
        envelope = build_loadgen_envelope(
            report, meta={"target": f"127.0.0.1:{port}"}
        )
        validate_envelope(envelope)
        assert envelope["kind"] == "loadgen"
        assert envelope["data"]["overall"]["ok"] > 0

    def test_unreachable_daemon_raises_before_spawning(self):
        from repro.serve import ServeConnectionError

        with pytest.raises(ServeConnectionError, match="127.0.0.1"):
            run_loadgen(
                LoadgenConfig(port=1, duration_s=0.2, concurrency=1)
            )

    def test_unknown_mode_rejected(self):
        with running_server() as server:
            with pytest.raises(ValueError, match="unknown mode"):
                run_loadgen(
                    LoadgenConfig(
                        port=server.port, duration_s=0.2, mode="warp"
                    )
                )


class TestOpenLoop:
    def test_fixed_rate_report(self):
        with running_server() as server:
            report = run_loadgen(
                LoadgenConfig(
                    port=server.port,
                    duration_s=1.0,
                    concurrency=2,
                    mode="open",
                    rate=30.0,
                    mix="costs=1",
                )
            )
        assert report["mode"] == "open"
        assert report["saturation_rps"] is None
        assert report["offered_rate_rps"] == 30.0
        assert report["client_drops"] >= 0
        overall = report["overall"]
        assert overall["ok"] > 0
        # Achieved throughput cannot exceed what was offered (plus the
        # backlog allowance drained after the deadline).
        assert overall["ok"] <= 30.0 * 1.0 + 2 * 4 + 1


class TestReporting:
    REPORT = {
        "slo_version": SLO_VERSION,
        "mode": "closed",
        "duration_s": 1.0,
        "concurrency": 2,
        "mix": {"costs": 1},
        "endpoints": {
            "costs": {
                "requests": 10, "ok": 10, "errors": 0, "backpressure": 0,
                "p50_ms": 1.5, "p90_ms": 2.0, "p99_ms": 2.5,
                "mean_ms": 1.6, "max_ms": 3.0,
            }
        },
        "overall": {
            "requests": 10, "ok": 10, "errors": 0, "backpressure": 0,
            "error_rate": 0.0, "backpressure_rate": 0.0,
            "throughput_rps": 10.0, "p50_ms": 1.5, "p99_ms": 2.5,
        },
        "saturation_rps": 10.0,
    }

    def test_slo_line(self):
        line = slo_line(self.REPORT)
        assert line.startswith("SLO: mode=closed ")
        assert "p50=1.5ms" in line
        assert "p99=2.5ms" in line
        assert "throughput=10.0rps" in line
        assert "saturation=10.0rps" in line

    def test_render_report_table(self):
        text = render_report(self.REPORT)
        assert "endpoint" in text and "p99 ms" in text
        assert text.splitlines()[-1].startswith("SLO: ")


class TestCli:
    def test_loadgen_json_and_out(self, capsys, tmp_path):
        out_path = tmp_path / "bench.json"
        with running_server() as server:
            port = server.port
            rc = main([
                "loadgen", "--port", str(port),
                "--duration", "0.5", "--concurrency", "1",
                "--mix", "costs=1", "--json",
                "--out", str(out_path),
            ])
        assert rc == 0
        envelope = json.loads(capsys.readouterr().out)
        validate_envelope(envelope)
        assert envelope["meta"]["target"].endswith(str(port))
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 1
        validate_envelope(json.loads(lines[0]))

    def test_loadgen_human_report(self, capsys):
        with running_server() as server:
            rc = main([
                "loadgen", "--port", str(server.port),
                "--duration", "0.5", "--concurrency", "1",
                "--mix", "costs=1",
            ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SLO: mode=closed" in out

    def test_loadgen_connection_refused_is_rc2(self, capsys):
        rc = main([
            "loadgen", "--port", "1", "--duration", "0.2",
        ])
        assert rc == 2
        assert "cannot reach repro daemon" in capsys.readouterr().err

    def test_loadgen_bad_mix_is_rc2(self, capsys):
        with running_server() as server:
            rc = main([
                "loadgen", "--port", str(server.port),
                "--duration", "0.2", "--mix", "bogus=1",
            ])
        assert rc == 2
        assert "unknown endpoint" in capsys.readouterr().err
