"""Tests for the command-line interface."""

import argparse
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
GOLDEN = SRC.parent.parent / "benchmarks" / "output"

#: The closing line of a text ``repro report``.
SUMMARY = re.compile(
    r"compile summary: \d+ kernel-config points \(\d+ evaluated, \d+ memo "
    r"hits\), \d+ schedules compiled; compile cache: [^;]+; \d+\.\d\ds wall"
)


def _canonical(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@pytest.fixture(scope="module")
def daemon():
    """A client of an in-process daemon on an ephemeral port."""
    from repro.serve import ServeClient, running_server

    with running_server() as server:
        with ServeClient("127.0.0.1", server.port) as client:
            yield client


def _commands():
    """``build_parser()``'s subcommand parsers by name."""
    from repro.cli import build_parser

    (commands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return commands.choices


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

    @pytest.mark.parametrize(
        "flags", [[], ["--json"], ["--trace-out", os.devnull]],
        ids=["plain", "json", "trace-out"],
    )
    def test_srf_overflow_is_one_line(self, capsys, flags):
        """qrd's working set does not fit the SRF at C=8, N=2: the CLI
        prints the API's bad-request message, not a traceback — on the
        plain run and on the instrumented ``--json`` and ``--trace-out``
        runs alike."""
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

    def test_unwritable_trace_out_is_one_line(self, tmp_path, capsys,
                                              monkeypatch):
        """A ``--trace-out`` path that cannot be written is a bad input
        like any other: one line and exit 2, found before anything is
        simulated."""
        import repro.cli

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before checking --trace-out")

        monkeypatch.setattr(repro.cli, "simulate", no_simulation)
        path = tmp_path / "missing" / "t.json"
        assert main(["simulate", "fft1k", "--trace-out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"cannot write trace file {path}: No such file or directory\n"
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


class TestServe:
    def test_serve_unwritable_trace_out_is_one_line(self, tmp_path):
        """``serve --trace-out`` is checked before the daemon binds: an
        unwritable path is one line and exit 2, not a whole session
        that then loses its trace in the drain."""
        path = tmp_path / "missing" / "t.json"
        env = dict(os.environ, PYTHONPATH=str(SRC.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--trace-out", str(path)],
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            f"cannot write trace file {path}: No such file or directory\n"
        )


class TestFigures:
    """``report --only`` prints single studies."""

    def test_single_figure(self, capsys):
        assert main(["report", "--only", "fig9"]) == 0
        assert "Figure 9" in capsys.readouterr().out

    def test_unknown_figure(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "--only", "fig99"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'fig99'" in capsys.readouterr().err

    def test_cost_figures_all(self, capsys):
        assert main(
            ["report", "--only", "fig6", "fig7", "fig8", "fig10", "fig11"]
        ) == 0
        out = capsys.readouterr().out
        for fig in ("Figure 6", "Figure 7", "Figure 8", "Figure 10",
                    "Figure 11"):
            assert fig in out


class TestGoldens:
    """The CLI prints each committed golden byte for byte."""

    @staticmethod
    def golden(name):
        """The archived text of the study ``name``."""
        (path,) = GOLDEN.glob(f"test_{name}[._]*")
        return path.read_text()

    @staticmethod
    def text_then_summary(out, expected):
        assert out[:len(expected)] == expected
        assert SUMMARY.fullmatch(out[len(expected):].rstrip("\n"))

    def test_validate_prints_the_golden(self, capsys):
        assert main(["validate"]) == 0
        assert capsys.readouterr().out == self.golden("anchor_validation")

    @pytest.mark.parametrize("name", [
        "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
        "fig13", "fig14", "table5", "fig15",
    ])
    def test_report_only_prints_the_golden(self, capsys, name):
        """The study's archived text, a blank line, then the compile
        summary."""
        assert main(["report", "--only", name]) == 0
        self.text_then_summary(capsys.readouterr().out,
                               self.golden(name) + "\n")

    def test_report_prints_every_study_in_order(self, capsys):
        from repro.analysis.report import STUDIES

        assert main(["report"]) == 0
        self.text_then_summary(
            capsys.readouterr().out,
            "".join(self.golden(name) + "\n" for name in STUDIES),
        )


class TestHeadline:
    def test_headline_json(self, capsys):
        """The headline claims are a ``report --json`` study, with the
        application speedups."""
        assert main(["report", "--json"]) == 0
        rows = _envelope(capsys)["data"]["studies"]["headline"]["rows"]
        assert {row["machine"] for row in rows} == {"640alu", "1280alu"}
        assert all(row["application_speedup"] > 0 for row in rows)


class TestReportJson:
    def test_report_json_studies(self, capsys):
        assert main(["report", "--json"]) == 0
        envelope = _envelope(capsys)
        assert envelope["kind"] == "report"
        studies = envelope["data"]["studies"]
        assert list(studies) == [
            "fig13", "fig14", "table5", "fig15", "headline",
        ]
        assert studies["table5"]["rows"]
        assert "compile_cache" in envelope["meta"]
        assert "engine" in envelope["meta"]

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
        assert "wrote 13 CSV files" in out

    def test_export_onto_a_file_is_one_line(self, tmp_path, capsys):
        """``--out`` naming an existing file: one line and exit 2, and
        the file is left as it was."""
        path = tmp_path / "taken.txt"
        path.write_text("keep\n")
        assert main(["export", "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"cannot write CSV files to {path}: File exists\n"
        )
        assert path.read_text() == "keep\n"


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_ten_commands(self):
        """``repro --help`` lists one command per question."""
        assert list(_commands()) == [
            "costs", "compile", "kernel", "simulate", "schedules",
            "report", "serve", "loadgen", "validate", "export",
        ]

    def test_serve_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0",
             "--batch-window-ms", "1.5", "--trace-out", "t.json"]
        )
        assert args.func.__name__ == "cmd_serve"
        assert args.port == 0
        assert not hasattr(args, "workers")
        assert args.batch_window_ms == 1.5
        assert args.trace_out == "t.json"

    def test_batch_window_is_hidden(self):
        """``--batch-window-ms`` still parses (the benchmark harness
        passes it) but is no longer offered."""
        assert "batch-window" not in _commands()["serve"].format_help()

    @pytest.mark.parametrize("flag", [
        "--max-queue", "--max-batch", "--timeout",
    ], ids=lambda flag: flag.lstrip("-"))
    def test_no_queue_flags(self, flag, capsys):
        """Requests run one at a time on the event loop: nothing queues
        inside the daemon to bound, batch or time out."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", flag, "1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

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
    ], ids=["report-workers", "report-task-timeout", "serve-workers"])
    def test_no_pool_flags(self, argv, capsys):
        """Every sweep point, compile and daemon request runs in the
        calling process; no flag sizes a pool or times its tasks."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["job", "status", "x"], "invalid choice: 'job'"),
        (["job", "submit", "table5"], "invalid choice: 'job'"),
        (["serve", "--tenants", "f"], "unrecognized arguments"),
        (["serve", "--job-dir", "d"], "unrecognized arguments"),
        (["loadgen", "--jobs"], "unrecognized arguments"),
        (["loadgen", "--api-key", "k"], "unrecognized arguments"),
    ], ids=["job-status", "job-submit", "serve-tenants", "serve-job-dir",
            "loadgen-jobs", "loadgen-api-key"])
    def test_no_job_surface(self, argv, message, capsys):
        """``/v1/sweeps`` is the one sweep path: no command submits or
        tracks a job, and no flag configures tenants or a job store."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["trace", "fft1k"], "invalid choice: 'trace'"),
        (["figures"], "invalid choice: 'figures'"),
        (["headline"], "invalid choice: 'headline'"),
        (["report", "--apps"], "unrecognized arguments: --apps"),
        (["validate", "--apps"], "unrecognized arguments: --apps"),
        (["export", "--apps"], "unrecognized arguments: --apps"),
        (["compile", "fft", "--cache-dir", "d"],
         "unrecognized arguments: --cache-dir d"),
        (["compile", "fft", "--no-compile-cache"],
         "unrecognized arguments: --no-compile-cache"),
        (["simulate", "fft1k", "--cache-dir", "d"],
         "unrecognized arguments: --cache-dir d"),
        (["simulate", "fft1k", "--no-compile-cache"],
         "unrecognized arguments: --no-compile-cache"),
        (["report", "--cache-dir", "d"],
         "unrecognized arguments: --cache-dir d"),
        (["report", "--no-compile-cache"],
         "unrecognized arguments: --no-compile-cache"),
        (["serve", "--cache-dir", "d"],
         "unrecognized arguments: --cache-dir d"),
        (["serve", "--no-compile-cache"],
         "unrecognized arguments: --no-compile-cache"),
    ], ids=["trace", "figures", "headline", "report-apps", "validate-apps",
            "export-apps", "compile-cache-dir", "compile-no-compile-cache",
            "simulate-cache-dir", "simulate-no-compile-cache",
            "report-cache-dir", "report-no-compile-cache", "serve-cache-dir",
            "serve-no-compile-cache"])
    def test_one_command_per_question(self, argv, message, capsys):
        """``simulate --trace-out``, ``report`` and ``validate`` answer
        what ``trace``, ``figures`` and ``headline`` did; applications
        are always included; the compile cache is configured by
        ``REPRO_COMPILE_CACHE``/``XDG_CACHE_HOME`` alone.  Only
        parsed, never run: a ``serve`` that parsed would not return."""
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--log-json", "costs"],
        ["--log-level=INFO", "costs"],
        ["serve", "--log-json"],
        ["serve", "--log-level", "INFO"],
        ["loadgen", "--log-json"],
        ["loadgen", "--log-level", "INFO"],
    ], ids=["repro-log-json", "repro-log-level", "serve-log-json",
            "serve-log-level", "loadgen-log-json", "loadgen-log-level"])
    def test_no_logging_flags(self, argv, capsys):
        """Nothing logs: a daemon's per-request record is its
        ``--trace-out`` span, and its aggregates are ``/metrics``.  Only
        parsed, never run."""
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_report_only_excludes_json(self, capsys):
        """``--json`` carries the API's sweep studies, not the text."""
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "--only", "fig6", "--json"])
        assert excinfo.value.code == 2
        assert "argument --json: not allowed with argument --only" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("command, options", [
        ("validate", set()),
        ("report", {"--only", "--json"}),
    ])
    def test_sweep_commands_take_only_their_options(self, command, options):
        """``validate`` and ``report`` persist nothing but compile-cache
        schedules, so they carry no option for any other store."""
        parser = _commands()[command]
        assert set(parser._option_string_actions) == options | {
            "-h", "--help"
        }


class TestDiskFootprint:
    def test_fresh_home_report_writes_only_schedules(self, tmp_path):
        """A default ``report`` in an empty home leaves the 94 schedules
        it compiled, and nothing else."""
        env = {
            name: value for name, value in os.environ.items()
            if not name.startswith("REPRO_") and name != "XDG_CACHE_HOME"
        }
        env.update(HOME=str(tmp_path), PYTHONPATH=str(SRC.parent))
        subprocess.run(
            [sys.executable, "-m", "repro", "report"],
            env=env, capture_output=True, text=True, check=True,
        )
        written = [
            path.relative_to(tmp_path)
            for path in tmp_path.rglob("*") if path.is_file()
        ]
        stores = {path.parts[:3] for path in written}
        assert stores == {(".cache", "repro-stream", "schedules")}
        assert len(written) == 94

    def test_serve_session_writes_only_schedules(self, tmp_path):
        """A ``repro serve`` session that answers cold sweeps and drains
        leaves compile-cache schedules under ``$XDG_CACHE_HOME`` and
        nothing else: no job store, no other file."""
        import signal

        from repro.serve import ServeClient

        env = {
            name: value for name, value in os.environ.items()
            if not name.startswith("REPRO_")
        }
        env.update(HOME=str(tmp_path / "home"),
                   XDG_CACHE_HOME=str(tmp_path / "xdg"),
                   PYTHONPATH=str(SRC.parent))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            ready = proc.stdout.readline()
            port = int(re.search(r"http://[\d.]+:(\d+)", ready).group(1))
            with ServeClient("127.0.0.1", port) as client:
                assert client.sweep("fig13", kernel="fft").status == 200
                assert client.sweep("fig15").status == 200
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        written = [
            path.relative_to(tmp_path)
            for path in tmp_path.rglob("*") if path.is_file()
        ]
        assert written
        assert {path.parts[:3] for path in written} == {
            ("xdg", "repro-stream", "schedules")
        }
        assert not (tmp_path / "xdg" / "repro-stream" / "jobs").exists()


#: A small user kernel for the cross-surface checks.
SAXPY = {
    "schema_version": 1,
    "name": "saxpy",
    "nodes": [
        {"op": "sb_read", "stream": "x"},
        {"op": "sb_read", "stream": "y"},
        {"op": "const", "value": 2.0},
        {"op": "fmul", "args": [0, 2]},
        {"op": "fadd", "args": [3, 1]},
        {"op": "sb_write", "args": [4], "stream": "out"},
    ],
    "recurrences": [],
}


@pytest.fixture(scope="module")
def report_studies():
    """The ``studies`` of one ``repro report --json`` run."""
    import contextlib
    import io

    from repro.obs import validate_envelope

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["report", "--json"]) == 0
    envelope = json.loads(out.getvalue())
    validate_envelope(envelope)
    return envelope["data"]["studies"]


class TestOneAnswerOnEverySurface:
    """For every request kind, the CLI's ``--json`` ``data``, an
    in-process ``execute()`` and the daemon's answer are the same bytes
    (``simulate`` is checked in :class:`TestSimulate`)."""

    @staticmethod
    def same(cli, api, served):
        assert served.status == 200, served.payload
        assert _canonical(cli) == _canonical(api.to_dict())
        assert _canonical(served.data) == api.to_json()

    @pytest.mark.parametrize("clusters, alus", [(8, 5), (128, 10), (1, 1)])
    def test_costs(self, capsys, daemon, clusters, alus):
        from repro.api import CostQuery, execute

        assert main(["costs", "-c", str(clusters), "-n", str(alus),
                     "--json"]) == 0
        self.same(_envelope(capsys)["data"],
                  execute(CostQuery(clusters, alus)),
                  daemon.costs(clusters, alus))

    @pytest.mark.parametrize("kernel", ["fft", "blocksad", "update"])
    def test_compile_suite_kernel(self, capsys, daemon, kernel):
        from repro.api import CompileRequest, execute

        assert main(["compile", kernel, "-c", "16", "-n", "3",
                     "--json"]) == 0
        self.same(_envelope(capsys)["data"],
                  execute(CompileRequest(kernel, 16, 3)),
                  daemon.compile(kernel, 16, 3))

    def test_compile_kernel_file(self, capsys, daemon, tmp_path):
        from repro.api import CompileRequest, execute

        path = tmp_path / "saxpy.json"
        path.write_text(json.dumps(SAXPY))
        assert main(["compile", "--kernel-file", str(path), "-c", "8",
                     "-n", "5", "--json"]) == 0
        cli = _envelope(capsys)["data"]
        ref = daemon.register_kernel(SAXPY).data["ref"]
        assert cli["kernel"] == ref
        self.same(cli, execute(CompileRequest(ref, 8, 5)),
                  daemon.compile(ref, 8, 5))

    def test_kernel_register(self, capsys, daemon, tmp_path):
        from repro.api import RegisterKernelRequest, execute

        path = tmp_path / "saxpy.json"
        path.write_text(json.dumps(SAXPY))
        assert main(["kernel", "register", str(path), "--json"]) == 0
        self.same(_envelope(capsys)["data"],
                  execute(RegisterKernelRequest(SAXPY)),
                  daemon.register_kernel(SAXPY))

    @pytest.mark.parametrize(
        "target", ["fig13", "fig14", "table5", "fig15", "headline"]
    )
    def test_report_study(self, report_studies, daemon, target):
        from repro.api import SWEEP_TARGETS, SweepRequest, execute

        assert list(report_studies) == list(SWEEP_TARGETS)
        self.same(report_studies[target],
                  execute(SweepRequest(target, apps=True)),
                  daemon.sweep(target, apps=True))


