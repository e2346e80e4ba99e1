"""Tests for the command-line interface."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main

SRC = Path(repro.__file__).resolve().parent


def _canonical(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@pytest.fixture(scope="module")
def daemon():
    """A client of an in-process daemon on an ephemeral port."""
    import asyncio
    import threading

    from repro.serve import ReproServer, ServeClient, ServerConfig

    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    server = ReproServer(ServerConfig(port=0, batch_window_ms=2.0))
    asyncio.run_coroutine_threadsafe(server.start(), loop).result(10)
    try:
        with ServeClient("127.0.0.1", server.port) as client:
            yield client
    finally:
        asyncio.run_coroutine_threadsafe(
            server.drain_and_stop(10), loop
        ).result(60)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(5)
        loop.close()


def _envelope(capsys):
    """Parse and schema-check one ``--json`` envelope from stdout."""
    from repro.obs import validate_envelope

    envelope = json.loads(capsys.readouterr().out)
    validate_envelope(envelope)
    return envelope


class TestCosts:
    def test_costs_output(self, capsys):
        assert main(["costs", "-c", "8", "-n", "5"]) == 0
        out = capsys.readouterr().out
        assert "C=8 N=5" in out
        assert "GOPS peak" in out
        assert "intercluster" in out

    def test_costs_json_matches_api(self, capsys):
        from repro.api import CostQuery, run_cost_query

        assert main(["costs", "-c", "16", "-n", "5", "--json"]) == 0
        envelope = _envelope(capsys)
        assert envelope["kind"] == "costs"
        direct = run_cost_query(CostQuery(16, 5)).to_dict()
        assert envelope["data"] == direct


class TestCompile:
    def test_compile_kernel(self, capsys):
        assert main(["compile", "blocksad", "-c", "8", "-n", "5"]) == 0
        out = capsys.readouterr().out
        assert "initiation interval 12" in out

    def test_unknown_kernel(self, capsys):
        assert main(["compile", "nope"]) == 2
        assert "unknown kernel" in capsys.readouterr().err

    def test_compile_json_matches_api(self, capsys):
        from repro.api import CompileRequest, run_compile

        assert main(["compile", "blocksad", "-c", "8", "-n", "5",
                     "--json"]) == 0
        envelope = _envelope(capsys)
        assert envelope["kind"] == "compile"
        assert envelope["data"]["ii"] == 12
        direct = run_compile(CompileRequest("blocksad", 8, 5)).to_dict()
        assert envelope["data"] == direct


class TestSimulate:
    def test_simulate_application(self, capsys):
        assert main(["simulate", "fft1k", "-c", "8", "-n", "5"]) == 0
        out = capsys.readouterr().out
        assert "GOPS" in out
        assert "SRF spills" in out

    def test_timeline(self, capsys):
        assert main(["simulate", "fft1k", "--timeline"]) == 0
        assert "kernel fft stage 0" in capsys.readouterr().out

    def test_unknown_application(self, capsys):
        assert main(["simulate", "doom"]) == 2
        assert "unknown application" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["plain", "json"])
    def test_srf_overflow_is_one_line(self, capsys, flags):
        """qrd's working set does not fit the SRF at C=8, N=2: the CLI
        prints the API's bad-request message, not a traceback — on the
        plain run and on the instrumented ``--json`` run alike."""
        from repro.api import ApiError, SimulateRequest, run_simulate

        assert main(["simulate", "qrd", "-c", "8", "-n", "2", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        with pytest.raises(ApiError) as excinfo:
            run_simulate(SimulateRequest("qrd", clusters=8, alus=2))
        assert captured.err == f"{excinfo.value}\n"
        assert captured.err.startswith(
            "SimulateRequest: application 'qrd' does not fit the SRF "
            "at C=8, N=2: "
        )

    def test_max_events_flag_is_gone(self, capsys):
        """API v6 removed the event budget, so argparse rejects it."""
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "fft1k", "--max-events", "3"])
        assert excinfo.value.code == 2
        assert "--max-events" in capsys.readouterr().err

    @pytest.mark.parametrize("application", ["fft1k", "qrd", "render"])
    def test_json_matches_api_and_daemon(self, capsys, daemon, application):
        """One answer on all three surfaces: the CLI runs the timeline
        simulator, the API and the daemon the sweep engine's model.
        qrd spills at C=8/N=5."""
        from repro.api import SimulateRequest, execute

        assert main(["simulate", application, "-c", "8", "-n", "5",
                     "--json"]) == 0
        cli = _envelope(capsys)["data"]
        api = execute(SimulateRequest(application, 8, 5)).to_dict()
        served = daemon.simulate(application, 8, 5)
        assert served.status == 200
        assert _canonical(cli) == _canonical(api) == _canonical(served.data)


class TestTrace:
    def test_max_events_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "fft1k", "--max-events", "3"])
        assert excinfo.value.code == 2
        assert "--max-events" in capsys.readouterr().err

    def test_srf_overflow_is_one_line(self, capsys):
        assert main(["trace", "qrd", "-c", "8", "-n", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "SimulateRequest: application 'qrd' does not fit the SRF "
            "at C=8, N=2: "
        )


class TestFigures:
    def test_single_figure(self, capsys):
        assert main(["figures", "--only", "fig9"]) == 0
        assert "Figure 9" in capsys.readouterr().out

    def test_unknown_figure(self, capsys):
        assert main(["figures", "--only", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_cost_figures_all(self, capsys):
        assert main(
            ["figures", "--only", "fig6", "fig7", "fig8", "fig10", "fig11"]
        ) == 0
        out = capsys.readouterr().out
        for fig in ("Figure 6", "Figure 7", "Figure 8", "Figure 10",
                    "Figure 11"):
            assert fig in out


class TestHeadline:
    def test_headline_without_apps(self, capsys):
        assert main(["headline"]) == 0
        out = capsys.readouterr().out
        assert "kernel speedup" in out
        assert "paper 15.3x" in out

    def test_headline_json(self, capsys):
        assert main(["headline", "--json"]) == 0
        envelope = _envelope(capsys)
        assert envelope["kind"] == "headline"
        machines = {row["machine"] for row in envelope["data"]["rows"]}
        assert machines == {"640alu", "1280alu"}
        assert "engine" in envelope["meta"]


class TestReportJson:
    def test_report_json_studies(self, capsys):
        assert main(["report", "--json"]) == 0
        envelope = _envelope(capsys)
        assert envelope["kind"] == "report"
        studies = envelope["data"]["studies"]
        assert set(studies) == {"fig13", "fig14", "table5"}
        assert studies["table5"]["rows"]
        assert "compile_cache" in envelope["meta"]

    def test_report_json_matches_sweep_api(self, capsys):
        from repro.api import SweepRequest, run_sweep

        assert main(["report", "--json"]) == 0
        envelope = _envelope(capsys)
        direct = run_sweep(SweepRequest("table5")).to_dict()
        assert envelope["data"]["studies"]["table5"] == direct


class TestNewerCommands:
    def test_floorplan_flag(self, capsys):
        assert main(["costs", "-c", "8", "-n", "5", "--floorplan"]) == 0
        out = capsys.readouterr().out
        assert "floorplan" in out
        assert "tracks/side" in out

    def test_gantt_flag(self, capsys):
        assert main(["simulate", "fft1k", "--gantt"]) == 0
        out = capsys.readouterr().out
        assert "legend" in out

    def test_bandwidth_line(self, capsys):
        assert main(["simulate", "fft1k"]) == 0
        out = capsys.readouterr().out
        assert "on-chip" in out

    def test_schedules_report(self, capsys):
        assert main(["schedules"]) == 0
        out = capsys.readouterr().out
        assert "ResMII" in out
        assert "blocksad" in out

    def test_validate_fast(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "claims reproduced" in out

    def test_export(self, tmp_path, capsys):
        assert main(["export", "--out", str(tmp_path / "csv")]) == 0
        out = capsys.readouterr().out
        assert "wrote 12 CSV files" in out


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_serve_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0",
             "--batch-window-ms", "1.5", "--max-queue", "8",
             "--timeout", "10", "--trace-out", "t.json"]
        )
        assert args.func.__name__ == "cmd_serve"
        assert args.port == 0
        assert not hasattr(args, "workers")
        assert args.batch_window_ms == 1.5
        assert args.max_queue == 8
        assert args.timeout == 10.0
        assert args.trace_out == "t.json"

    @pytest.mark.parametrize("argv", [
        ["serve", "--fleet", "2"],
        ["serve", "--join", "127.0.0.1:1"],
        ["serve", "--heartbeat-interval", "1"],
        ["serve", "--heartbeat-timeout", "1"],
        ["loadgen", "--cluster", "1"],
    ], ids=lambda argv: argv[1].lstrip("-"))
    def test_no_cluster_flags(self, argv, capsys):
        """The daemon runs one process; no flag shards it or sizes a
        fleet."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["report", "--workers", "2"],
        ["report", "--task-timeout", "1"],
        ["serve", "--workers", "2"],
        ["job", "submit", "table5", "--workers", "2"],
    ], ids=["report-workers", "report-task-timeout", "serve-workers",
            "job-submit-workers"])
    def test_no_pool_flags(self, argv, capsys):
        """Every sweep point, compile and daemon batch runs in the
        calling process; no flag sizes a pool or times its tasks."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command, options", [
        ("figures", {"--only", "--cache-dir", "--no-compile-cache"}),
        ("report", {"--apps", "--json", "--cache-dir",
                    "--no-compile-cache"}),
    ])
    def test_sweep_commands_take_only_their_options(self, command, options):
        """``figures`` and ``report`` persist nothing but compile-cache
        schedules, so they carry no option for any other store."""
        import argparse

        from repro.cli import build_parser

        (commands,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        parser = commands.choices[command]
        assert set(parser._option_string_actions) == options | {
            "-h", "--help"
        }


class TestDiskFootprint:
    def test_fresh_home_report_writes_only_schedules(self, tmp_path):
        """A default ``report --apps`` in an empty home leaves the 94
        schedules it compiled, and nothing else."""
        env = {
            name: value for name, value in os.environ.items()
            if not name.startswith("REPRO_") and name != "XDG_CACHE_HOME"
        }
        env.update(HOME=str(tmp_path), PYTHONPATH=str(SRC.parent))
        subprocess.run(
            [sys.executable, "-m", "repro", "report", "--apps"],
            env=env, capture_output=True, text=True, check=True,
        )
        written = [
            path.relative_to(tmp_path)
            for path in tmp_path.rglob("*") if path.is_file()
        ]
        stores = {path.parts[:3] for path in written}
        assert stores == {(".cache", "repro-stream", "schedules")}
        assert len(written) == 94


def _repro_switches():
    """Every ``REPRO_*`` environment variable the package reads."""
    names = set()
    for path in SRC.rglob("*.py"):
        names.update(re.findall(r"\bREPRO_[A-Z0-9_]+\b", path.read_text()))
    return sorted(names)


class TestServeJobDir:
    """``repro serve`` persists jobs by default: ``--job-dir``, else
    ``$REPRO_JOB_DIR``, else ``$XDG_CACHE_HOME/repro-stream/jobs``,
    else ``~/.cache/repro-stream/jobs``."""

    @pytest.fixture()
    def served(self, monkeypatch, tmp_path):
        """Run ``main`` with ``run_server`` captured; returns the
        :class:`ServerConfig` it would have served."""
        import repro.serve.daemon as daemon_module

        configs = []
        monkeypatch.setattr(
            daemon_module, "run_server",
            lambda config: configs.append(config) or 0,
        )
        for name in _repro_switches():
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)

        def serve(*flags):
            assert main(["serve", *flags]) == 0
            return configs.pop()

        return serve

    def test_home_fallback(self, served, tmp_path):
        assert served().job_dir == str(
            tmp_path / "home" / ".cache" / "repro-stream" / "jobs"
        )

    def test_xdg_cache_home(self, served, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert served().job_dir == str(
            tmp_path / "xdg" / "repro-stream" / "jobs"
        )

    def test_env_then_flag_override(self, served, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOB_DIR", str(tmp_path / "env"))
        assert served().job_dir == str(tmp_path / "env")
        flag = str(tmp_path / "flag")
        assert served("--job-dir", flag).job_dir == flag

    def test_no_other_switch_turns_jobs_off(self, served, tmp_path,
                                            monkeypatch):
        """Every other store can be switched off; the job store keeps
        its default."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        for name in _repro_switches():
            if name != "REPRO_JOB_DIR":
                monkeypatch.setenv(name, "off")
        assert served().job_dir == str(
            tmp_path / "xdg" / "repro-stream" / "jobs"
        )
