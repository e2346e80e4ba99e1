"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``costs``      evaluate the VLSI cost model at one (C, N) point
``compile``    compile a suite kernel and report its schedule
``kernel``     register and inspect user kernel documents
``simulate``   run one of the six applications on a configuration
``schedules``  per-kernel compilation report (II, bounds, registers)
``report``     the paper's figures and tables, plus a compile summary
``serve``      long-running JSON-over-HTTP daemon (see docs/serving.md)
``loadgen``    drive a live daemon and report latency/throughput SLOs
``validate``   check every quantitative paper claim (exit 1 on failure)
``export``     write every figure and table as CSV

The persistent schedule cache is configured by environment alone:
``REPRO_COMPILE_CACHE=off`` disables it and ``XDG_CACHE_HOME`` moves
it (to ``$XDG_CACHE_HOME/repro-stream/schedules``).

``costs``, ``compile``, ``simulate``, ``report`` and the ``kernel``
subcommands take ``--json``: machine-readable output as one versioned
envelope (:func:`repro.obs.manifest.build_envelope`) whose ``data`` is
exactly the :mod:`repro.api` result payload the serving daemon returns
for the same query — the two surfaces share one schema by construction.
Volatile context (wall-clock timings, the run manifest, cache
statistics) rides in the envelope's ``meta``.

Examples
--------
::

    python -m repro costs --clusters 128 --alus 5
    python -m repro compile fft --clusters 8 --alus 10
    python -m repro kernel register saxpy.json
    python -m repro simulate depth --clusters 128 --alus 10
    python -m repro simulate fft1k --json > manifest.json
    python -m repro simulate depth --trace-out trace.json
    python -m repro schedules
    python -m repro report --only fig9 fig13
    python -m repro serve --port 8712
    python -m repro loadgen --port 8712 --duration 5
    python -m repro validate
    python -m repro export --out paper_data
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, List, Optional

from .analysis.report import STUDIES
from .apps import APPLICATION_ORDER, get_application
from .compiler import CompilationError, compile_kernel, default_cache
from .core import ProcessorConfig
from .obs import MetricsRegistry, Tracer, build_manifest
from .sim import CapacityError, simulate


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--clusters", "-c", type=int, default=8, help="clusters (C)"
    )
    parser.add_argument(
        "--alus", "-n", type=int, default=5, help="ALUs per cluster (N)"
    )


def _config(args: argparse.Namespace) -> ProcessorConfig:
    return ProcessorConfig(args.clusters, args.alus)


def _cache_summary() -> str:
    """One-line compile-cache statistics for human-readable output."""
    cache = default_cache()
    if not cache.enabled:
        return "compile cache: disabled"
    stats = cache.stats()
    return (f"compile cache: {stats['hits']} hits, "
            f"{stats['misses']} misses, {stats['writes']} written")


def _emit_envelope(kind: str, data: dict, meta: Optional[dict] = None) -> int:
    """Print one versioned envelope (the ``--json`` output contract)."""
    from .obs.manifest import build_envelope

    print(json.dumps(build_envelope(kind, data=data, meta=meta), indent=2))
    return 0


def cmd_costs(args: argparse.Namespace) -> int:
    from .api import ApiError, CostQuery, run_cost_query

    try:
        result = run_cost_query(CostQuery(args.clusters, args.alus))
    except ApiError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.json:
        return _emit_envelope("costs", result.to_dict())
    print(result.config_description)
    print(f"  area:   {result.area_total / 1e6:.1f} Mgrids "
          f"({result.area_per_alu / 1e6:.2f} per ALU)")
    for name, value in result.area.items():
        print(f"    {name:20s} {value / 1e6:10.1f} Mgrids "
              f"({value / result.area_total:5.1%})")
    print(f"  energy: {result.energy_per_alu_op / 1e6:.2f} ME_w per ALU op")
    for name, value in result.energy.items():
        print(f"    {name:20s} {value / result.energy_total:5.1%}")
    print(f"  delays: intracluster {result.delays['intracluster']:.1f} FO4, "
          f"intercluster {result.delays['intercluster']:.1f} FO4")
    print(f"  at 45nm/1GHz: {result.feasibility['peak_gops']:.0f} GOPS peak, "
          f"{result.feasibility['area_mm2']:.1f} mm^2, "
          f"{result.feasibility['power_watts']:.1f} W")
    if args.floorplan:
        from .analysis.floorplan import render_floorplan

        print()
        print(render_floorplan(_config(args)))
    return 0


#: :func:`_read_kernel_file`'s answer for a file it could not read.
_UNREADABLE = object()


def _read_kernel_file(path: str) -> Any:
    """The JSON document in the file at ``path``, or
    :data:`_UNREADABLE` (with the error on stderr)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        print(f"cannot read kernel file {path}: {exc}", file=sys.stderr)
    except ValueError as exc:
        print(f"kernel file {path} is not JSON: {exc}", file=sys.stderr)
    return _UNREADABLE


def _register_kernel_file(path: str) -> Optional[str]:
    """Register the kernel document at ``path``; its ``kernel:<hash>``
    ref on success, ``None`` (with the error on stderr) otherwise."""
    from .frontend import KernelValidationError
    from .frontend.registry import default_registry

    document = _read_kernel_file(path)
    if document is _UNREADABLE:
        return None
    try:
        return default_registry().register(document).ref
    except KernelValidationError as exc:
        print(f"invalid kernel document {path}: {exc}", file=sys.stderr)
        return None


def cmd_compile(args: argparse.Namespace) -> int:
    from .api import ApiError, CompileRequest, run_compile

    if args.kernel_file:
        ref = _register_kernel_file(args.kernel_file)
        if ref is None:
            return 2
        args.kernel = ref
    if not args.kernel:
        print("compile: a kernel name or --kernel-file is required",
              file=sys.stderr)
        return 2
    try:
        result = run_compile(
            CompileRequest(args.kernel, args.clusters, args.alus)
        )
    except ApiError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.json:
        return _emit_envelope(
            "compile", result.to_dict(), meta={"cache": _cache_summary()}
        )
    print(f"kernel '{args.kernel}' on {_config(args).describe()}:")
    print(f"  unroll factor:      {result.unroll_factor}")
    print(f"  initiation interval {result.ii} "
          f"({result.ii_per_iteration:.2f} per iteration; "
          f"resource MII {result.resource_mii}, "
          f"recurrence MII {result.recurrence_mii})")
    print(f"  schedule length:    {result.length} cycles")
    print(f"  registers:          {result.max_live}"
          f"/{result.register_capacity}")
    print(f"  sustained rate:     {result.ops_per_cycle:.1f} ops/cycle "
          f"({result.efficiency:.0%} of ALU-issue bound)")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.kernel_file:
        ref = _register_kernel_file(args.kernel_file)
        if ref is None:
            return 2
        args.application = ref
    if not args.application:
        print("simulate: an application name or --kernel-file is required",
              file=sys.stderr)
        return 2
    is_kernel_ref = args.application.startswith("kernel:")
    if not is_kernel_ref and args.application not in APPLICATION_ORDER:
        print(f"unknown application {args.application!r}; "
              f"available: {', '.join(APPLICATION_ORDER)} "
              f"(or a registered kernel:<hash> reference)", file=sys.stderr)
        return 2
    config = _config(args)
    if _unwritable_trace(args.trace_out):
        return 2
    if args.json or args.trace_out:
        # Wall-clock phases for the manifest's ``timings``.  Compiles are
        # memoized, so compiling first moves their cost out of the
        # ``simulate`` phase without changing what runs.
        tracer = Tracer()
        started = time.perf_counter()
        try:
            program = get_application(args.application)
            built = time.perf_counter()
            for call in program.kernel_calls():
                compile_kernel(call.kernel, config)
            compiled = time.perf_counter()
            result = simulate(program, config, tracer=tracer,
                              metrics=MetricsRegistry())
            simulated = time.perf_counter()
        except CapacityError:
            return _srf_overflow(args.application, config)
        except CompilationError as exc:
            return _unschedulable(exc)
        if args.trace_out:
            with open(args.trace_out, "w") as handle:
                handle.write(tracer.to_chrome_json(indent=2))
        if args.json:
            from .api import SimulateResult

            manifest = build_manifest(
                result,
                application=args.application,
                timings={
                    "build": built - started,
                    "compile": compiled - built,
                    "simulate": simulated - compiled,
                },
            )
            return _emit_envelope(
                "simulate",
                SimulateResult.from_simulation(
                    result, args.application
                ).to_dict(),
                meta={
                    "manifest": manifest,
                    "compile_cache": default_cache().stats(),
                },
            )
    else:
        try:
            result = simulate(get_application(args.application), config)
        except CapacityError:
            return _srf_overflow(args.application, config)
        except CompilationError as exc:
            return _unschedulable(exc)
    print(f"{args.application} on {config.describe()}:")
    print(f"  cycles:       {result.cycles}")
    print(f"  sustained:    {result.gops:.1f} GOPS "
          f"({result.alu_utilization:.1%} of peak)")
    print(f"  memory busy:  {result.memory_utilization:.1%}")
    print(f"  cluster busy: {result.cluster_utilization:.1%}")
    print(f"  SRF spills:   {result.spill_words} words out, "
          f"{result.reload_words} back")
    lrf, srf, mem = result.bandwidth.gbps(result.cycles, result.clock_ghz)
    print(f"  bandwidth:    LRF {lrf:.0f} / SRF {srf:.1f} / "
          f"memory {mem:.2f} GB/s "
          f"({result.bandwidth.locality_fraction:.1%} on-chip)")
    print(f"  {_cache_summary()}")
    if args.timeline:
        for record in result.records:
            print(f"    [{record.start:>9}..{record.finish:>9}] "
                  f"{record.label}")
    if args.gantt:
        from .analysis.timeline import render_gantt

        print()
        print(render_gantt(result))
    return 0


def _srf_overflow(application: str, config) -> int:
    """Report an application that does not fit the SRF; exit status 2."""
    from .api import srf_overflow_message

    print(srf_overflow_message(application, config), file=sys.stderr)
    return 2


def _unwritable_trace(path: Optional[str]) -> bool:
    """Check a ``--trace-out`` path before any work (opened to append,
    so nothing is truncated yet): a path that cannot be written costs
    one stderr line, not a whole run and then a traceback."""
    if not path:
        return False
    try:
        open(path, "a").close()
    except OSError as exc:
        print(f"cannot write trace file {path}: {exc.strerror or exc}",
              file=sys.stderr)
        return True
    return False


def _unschedulable(exc: Exception) -> int:
    """Report a kernel the scheduler cannot fit (the API's bad request
    text); exit status 2."""
    print(exc, file=sys.stderr)
    return 2


def cmd_schedules(args: argparse.Namespace) -> int:
    from .analysis.kernelreport import (
        compilation_report,
        render_compilation_report,
    )

    print(render_compilation_report(compilation_report()))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Every study of :data:`repro.analysis.report.STUDIES` (``--only``
    picks some) and a one-line compile/cache summary; ``--json`` emits
    the sweep studies the API serves instead."""
    import time

    from .analysis.sweep import default_engine
    from .compiler.pipeline import memo_size

    started = time.perf_counter()
    if args.json:
        from .api import SWEEP_TARGETS, SweepRequest, run_sweep

        studies = {
            target: run_sweep(SweepRequest(target, apps=True)).to_dict()
            for target in SWEEP_TARGETS
        }
        cache = default_cache()
        return _emit_envelope(
            "report",
            {"studies": studies},
            meta={
                "elapsed_s": round(time.perf_counter() - started, 6),
                "engine": default_engine().stats(),
                "compile_cache": {**cache.stats(),
                                  "hit_rate": cache.hit_rate},
            },
        )
    for name in args.only or STUDIES:
        print(STUDIES[name].text())
        print()
    elapsed = time.perf_counter() - started
    engine_stats = default_engine().stats()
    # Distinct schedules held in memory, less those loaded from disk:
    # the modulo-schedule searches this run actually did.
    searched = memo_size() - default_cache().stats()["hits"]
    print(f"compile summary: {engine_stats['rate_cached']} kernel-config "
          f"points ({engine_stats['rate_misses']} evaluated, "
          f"{engine_stats['rate_hits']} memo hits), "
          f"{searched} schedules compiled; "
          f"{_cache_summary()}; {elapsed:.2f}s wall")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from .analysis.export import export_all

    try:
        written = export_all(args.out)
    except OSError as exc:
        print(f"cannot write CSV files to {args.out}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    print(f"wrote {len(written)} CSV files to {args.out}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from .analysis.validate import render_validation, validate_all

    results = validate_all()
    print(render_validation(results))
    return 0 if all(r.passed for r in results) else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from .serve.daemon import ServerConfig, run_server

    if _unwritable_trace(args.trace_out):
        return 2
    return run_server(
        ServerConfig(host=args.host, port=args.port, trace_path=args.trace_out)
    )


def cmd_loadgen(args: argparse.Namespace) -> int:
    from .obs.loadgen import (
        LoadgenConfig,
        build_loadgen_envelope,
        render_report,
        run_loadgen,
    )
    from .serve.client import ServeConnectionError

    config = LoadgenConfig(
        host=args.host,
        port=args.port,
        duration_s=args.duration,
        concurrency=args.concurrency,
        mode=args.mode,
        rate=args.rate,
        mix=args.mix,
        request_timeout_s=args.timeout,
    )
    try:
        report = run_loadgen(config)
    except ServeConnectionError as exc:
        print(exc, file=sys.stderr)
        return 2
    except ValueError as exc:  # bad --mix / --mode
        print(exc, file=sys.stderr)
        return 2
    envelope = build_loadgen_envelope(
        report, meta={"target": f"{args.host}:{args.port}"}
    )
    if args.out:
        # Append one compact line per run: the perf-trajectory file
        # (BENCH_serve.json) grows by one point per CI run.
        with open(args.out, "a") as handle:
            handle.write(
                json.dumps(envelope, sort_keys=True,
                           separators=(",", ":")) + "\n"
            )
    if args.json:
        print(json.dumps(envelope, indent=2))
    else:
        print(render_report(report))
    return 0 if report["overall"]["ok"] > 0 else 1


def cmd_kernel_register(args: argparse.Namespace) -> int:
    from .api import ApiError, RegisterKernelRequest, run_register

    document = _read_kernel_file(args.file)
    if document is _UNREADABLE:
        return 2
    try:
        result = run_register(RegisterKernelRequest(document))
    except ApiError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.json:
        return _emit_envelope("kernels", result.to_dict())
    print(f"registered kernel '{result.name}'")
    print(f"  ref:      {result.ref}")
    print(f"  nodes:    {result.nodes} "
          f"({result.alu_ops} ALU ops, {result.srf_accesses} SRF, "
          f"{result.comms} comms, {result.sp_accesses} scratchpad)")
    print(f"  inputs:   {', '.join(result.input_streams) or '-'}")
    print(f"  outputs:  {', '.join(result.output_streams) or '-'}")
    print(f"  compile:  repro compile {result.ref}")
    print(f"  simulate: repro simulate {result.ref}")
    return 0


def cmd_kernel_list(args: argparse.Namespace) -> int:
    from .frontend.registry import default_registry

    kernels = default_registry().list()
    if args.json:
        return _emit_envelope("kernels", {"kernels": kernels})
    if not kernels:
        print("no registered kernels")
        return 0
    for entry in kernels:
        print(f"{entry['ref']}")
        print(f"  name: {entry['name']}  nodes: {entry['nodes']}  "
              f"alu_ops: {entry['alu_ops']}")
    return 0


def cmd_kernel_show(args: argparse.Namespace) -> int:
    from .frontend.registry import default_registry

    registry = default_registry()
    try:
        entry = registry.resolve(args.ref)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    document = entry.document
    summary = registry.summary(entry)
    if args.json:
        summary["document"] = document
        return _emit_envelope("kernel", summary)
    print(f"kernel '{summary['name']}' ({summary['ref']})")
    print(f"  nodes:    {summary['nodes']} "
          f"({summary['alu_ops']} ALU ops, {summary['srf_accesses']} SRF, "
          f"{summary['comms']} comms, {summary['sp_accesses']} scratchpad)")
    print(f"  inputs:   {', '.join(summary['input_streams']) or '-'}")
    print(f"  outputs:  {', '.join(summary['output_streams']) or '-'}")
    print(json.dumps(document, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Stream-processor VLSI scalability (HPCA 2003) tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    costs = sub.add_parser("costs", help="evaluate the VLSI cost model")
    _add_config_arguments(costs)
    costs.add_argument("--floorplan", action="store_true",
                       help="print the Figure 4/5 physical geometry")
    costs.add_argument("--json", action="store_true",
                       help="emit a versioned JSON envelope")
    costs.set_defaults(func=cmd_costs)

    comp = sub.add_parser("compile", help="compile a suite kernel")
    comp.add_argument("kernel", nargs="?", default=None,
                      help="kernel name (e.g. fft) or a registered "
                           "kernel:<hash> reference")
    comp.add_argument("--kernel-file", metavar="PATH", default=None,
                      help="register the kernel document at PATH and "
                           "compile it")
    _add_config_arguments(comp)
    comp.add_argument("--json", action="store_true",
                      help="emit a versioned JSON envelope")
    comp.set_defaults(func=cmd_compile)

    kern = sub.add_parser(
        "kernel",
        help="register and inspect user kernel documents",
    )
    ksub = kern.add_subparsers(dest="kernel_command", required=True)
    kreg = ksub.add_parser(
        "register", help="validate + register a kernel document"
    )
    kreg.add_argument("file", help="path to a kernel JSON document")
    kreg.add_argument("--json", action="store_true",
                      help="emit a versioned JSON envelope")
    kreg.set_defaults(func=cmd_kernel_register)
    klist = ksub.add_parser("list", help="list registered kernels")
    klist.add_argument("--json", action="store_true",
                       help="emit a versioned JSON envelope")
    klist.set_defaults(func=cmd_kernel_list)
    kshow = ksub.add_parser(
        "show", help="print one registered kernel's document"
    )
    kshow.add_argument("ref", help="kernel:<hash> ref, bare hash, or a "
                                   "unique prefix (>= 8 hex chars)")
    kshow.add_argument("--json", action="store_true",
                       help="emit a versioned JSON envelope")
    kshow.set_defaults(func=cmd_kernel_show)

    sim = sub.add_parser("simulate", help="simulate an application")
    sim.add_argument("application", nargs="?", default=None,
                     help="application name (e.g. depth) or a "
                          "registered kernel:<hash> reference")
    sim.add_argument("--kernel-file", metavar="PATH", default=None,
                     help="register the kernel document at PATH and "
                          "simulate its microbenchmark")
    _add_config_arguments(sim)
    sim.add_argument("--timeline", action="store_true",
                     help="print the stream-operation timeline")
    sim.add_argument("--gantt", action="store_true",
                     help="draw a proportional ASCII Gantt chart")
    sim.add_argument("--json", action="store_true",
                     help="emit a machine-readable run manifest instead "
                          "of the human summary")
    sim.add_argument("--trace-out", metavar="PATH",
                     help="also write a Chrome-trace-format JSON trace "
                          "(Perfetto-loadable)")
    sim.set_defaults(func=cmd_simulate)

    sched = sub.add_parser(
        "schedules", help="per-kernel compilation report (II, bounds...)"
    )
    sched.set_defaults(func=cmd_schedules)

    rep = sub.add_parser(
        "report",
        help="the paper's figures and tables + compile summary",
    )
    shown = rep.add_mutually_exclusive_group()
    shown.add_argument("--only", nargs="+", metavar="NAME",
                       choices=list(STUDIES),
                       help=f"print only these studies: {', '.join(STUDIES)}")
    shown.add_argument("--json", action="store_true",
                       help="emit the API's sweep studies as one "
                            "versioned JSON envelope")
    rep.set_defaults(func=cmd_report)

    serve = sub.add_parser(
        "serve",
        help="long-running JSON-over-HTTP daemon",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8712,
                       help="bind port; 0 picks an ephemeral port")
    # Accepted and ignored: the benchmark harness still starts every
    # daemon with ``--batch-window-ms 0``.
    serve.add_argument("--batch-window-ms", type=float,
                       help=argparse.SUPPRESS)
    serve.add_argument("--trace-out", metavar="PATH", default=None,
                       help="write a Chrome trace of the serving window "
                            "on shutdown")
    serve.set_defaults(func=cmd_serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="drive a live daemon with a mixed workload; report SLOs",
    )
    loadgen.add_argument("--host", default="127.0.0.1",
                         help="daemon address (default: 127.0.0.1)")
    loadgen.add_argument("--port", type=int, default=8712,
                         help="daemon port (default: 8712)")
    loadgen.add_argument("--duration", type=float, default=5.0,
                         help="seconds to drive load (default: 5)")
    loadgen.add_argument("--concurrency", type=int, default=4,
                         help="client workers (default: 4)")
    loadgen.add_argument("--mode", choices=("closed", "open"),
                         default="closed",
                         help="closed: saturation-seeking (one in-flight "
                              "request per worker); open: fixed-rate "
                              "arrivals")
    loadgen.add_argument("--rate", type=float, default=50.0,
                         help="open-loop offered requests/second")
    loadgen.add_argument("--mix", default="costs=6,compile=2,simulate=1",
                         help="endpoint weights, e.g. "
                              "costs=6,compile=2,simulate=1,sweep=1")
    loadgen.add_argument("--timeout", type=float, default=120.0,
                         help="per-request client timeout seconds")
    loadgen.add_argument("--json", action="store_true",
                         help="emit the SLO report as a versioned "
                              "JSON envelope")
    loadgen.add_argument("--out", metavar="PATH", default=None,
                         help="append the envelope as one compact JSON "
                              "line (perf-trajectory file)")
    loadgen.set_defaults(func=cmd_loadgen)

    val = sub.add_parser(
        "validate", help="check every paper anchor (exit 1 on failure)"
    )
    val.set_defaults(func=cmd_validate)

    export = sub.add_parser(
        "export", help="write every figure/table as CSV"
    )
    export.add_argument("--out", default="paper_data",
                        help="output directory (default: paper_data)")
    export.set_defaults(func=cmd_export)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
