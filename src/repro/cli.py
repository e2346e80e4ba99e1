"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``costs``      evaluate the VLSI cost model at one (C, N) point
``compile``    compile a suite kernel and report its schedule
``simulate``   run one of the six applications on a configuration
``trace``      simulate with full event tracing (Perfetto-loadable)
``figures``    regenerate the paper's tables and figures (text form)
``report``     the performance studies plus a compile/cache summary
``headline``   check the paper's headline claims
``serve``      long-running JSON-over-HTTP daemon (see docs/serving.md)
``loadgen``    drive a live daemon and report latency/throughput SLOs

Commands that compile kernels take ``--cache-dir`` (re-point the
persistent schedule cache) and ``--no-compile-cache`` (disable it).

``--log-level``/``--log-json`` (top-level, also on ``serve`` and
``loadgen``) turn on structured logging to stderr; unlogged runs emit
nothing and stay bit-identical to previous releases.  When logging is
on, the run gets a correlation id exported as ``REPRO_REQUEST_ID`` so
its tracer instants and log lines all join on it.

``costs``, ``compile``, ``simulate``, ``report`` and ``headline`` take
``--json``: machine-readable output as one versioned envelope
(:func:`repro.obs.manifest.build_envelope`) whose ``data`` is exactly
the :mod:`repro.api` result payload the serving daemon returns for the
same query — the two surfaces share one schema by construction.
Volatile context (wall-clock timings, the run manifest, cache
statistics) rides in the envelope's ``meta``.

Examples
--------
::

    python -m repro costs --clusters 128 --alus 5
    python -m repro compile fft --clusters 8 --alus 10
    python -m repro simulate depth --clusters 128 --alus 10
    python -m repro simulate fft1k --json > manifest.json
    python -m repro trace depth --out trace.json
    python -m repro figures --only fig9 fig13
    python -m repro report --no-compile-cache
    python -m repro headline
    python -m repro serve --port 8712
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .analysis import (
    figure6_area_intracluster,
    figure7_energy_intracluster,
    figure8_delay_intracluster,
    figure9_area_intercluster,
    figure10_energy_intercluster,
    figure11_delay_intercluster,
    figure13_kernel_speedups,
    figure14_kernel_speedups,
    headline_640,
    headline_1280,
    render_delay_figure,
    render_grid,
    render_speedup_figure,
    render_stack_figure,
    table5_performance_per_area,
)
from .analysis.perf import TABLE5_C_VALUES, TABLE5_N_VALUES
from .apps import APPLICATION_ORDER, get_application
from .compiler import (
    CompilationError,
    compile_kernel,
    configure_default_cache,
    default_cache,
)
from .core import ProcessorConfig
from .obs import MetricsRegistry, PhaseProfiler, Tracer, build_manifest
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


def _add_logging_arguments(
    parser: argparse.ArgumentParser, suppress: bool = False
) -> None:
    """``--log-level``/``--log-json``; ``suppress`` is for subparsers
    that repeat the top-level flags (argparse lets the subparser's
    *default* clobber a value parsed by the main parser — SUPPRESS
    leaves the attribute alone unless the flag actually appears)."""
    parser.add_argument(
        "--log-level", metavar="LEVEL",
        default=argparse.SUPPRESS if suppress else None,
        help="enable structured logging at LEVEL (DEBUG/INFO/WARNING...)"
    )
    parser.add_argument(
        "--log-json", action="store_true",
        default=argparse.SUPPRESS if suppress else False,
        help="log JSON lines (one object per line) instead of "
             "human-readable text"
    )


def _apply_logging_arguments(args: argparse.Namespace) -> bool:
    """Configure structured logging when asked; silent otherwise.

    Enabling logging also exports a run-level correlation id
    (``REPRO_REQUEST_ID``) unless one is already inherited, so every
    log line and tracer instant of the run carries it.
    Returns whether it exported one, which :func:`main` removes again
    when the command returns.
    """
    from .obs.log import REQUEST_ID_ENV, configure, new_request_id

    json_lines = getattr(args, "log_json", False)
    level = getattr(args, "log_level", None)
    if not json_lines and level is None:
        return False
    configure(json_lines=json_lines, level=level or "INFO")
    if os.environ.get(REQUEST_ID_ENV):
        return False
    os.environ[REQUEST_ID_ENV] = new_request_id()
    return True


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="persistent schedule-cache directory "
             "(default: $REPRO_COMPILE_CACHE_DIR or ~/.cache)"
    )
    parser.add_argument(
        "--no-compile-cache", action="store_true",
        help="disable the persistent schedule cache for this run"
    )


def _apply_cache_arguments(args: argparse.Namespace) -> None:
    """Honor ``--cache-dir`` / ``--no-compile-cache`` when present."""
    if getattr(args, "no_compile_cache", False):
        configure_default_cache(enabled=False)
    elif getattr(args, "cache_dir", None):
        configure_default_cache(cache_dir=args.cache_dir)


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


def _register_kernel_file(path: str) -> Optional[str]:
    """Register the kernel document at ``path``; its ``kernel:<hash>``
    ref on success, ``None`` (with the error on stderr) otherwise."""
    from .frontend import KernelValidationError
    from .frontend.registry import default_registry

    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        print(f"cannot read kernel file {path}: {exc}", file=sys.stderr)
        return None
    except ValueError as exc:
        print(f"kernel file {path} is not JSON: {exc}", file=sys.stderr)
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


def _run_instrumented(args: argparse.Namespace, tracer: Tracer):
    """Shared simulate/trace plumbing: build, compile, run, and time.

    Returns ``(result, profiler)``; the profiler has ``build``,
    ``compile`` and ``simulate`` wall-clock phases (kernel compilation
    is cached, so pre-compiling here moves its cost out of the
    ``simulate`` phase without changing what runs).
    """
    config = _config(args)
    metrics = MetricsRegistry()
    profiler = PhaseProfiler()
    with profiler.phase("build"):
        program = get_application(args.application)
    with profiler.phase("compile"):
        for call in program.kernel_calls():
            compile_kernel(call.kernel, config)
    with profiler.phase("simulate"):
        result = simulate(program, config, tracer=tracer, metrics=metrics)
    return result, profiler


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
    if args.json or args.trace_out:
        tracer = Tracer()
        try:
            result, profiler = _run_instrumented(args, tracer)
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
                timings=profiler.as_dict(),
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


def _unschedulable(exc: Exception) -> int:
    """Report a kernel the scheduler cannot fit (the API's bad request
    text); exit status 2."""
    print(exc, file=sys.stderr)
    return 2


def cmd_trace(args: argparse.Namespace) -> int:
    if args.application not in APPLICATION_ORDER:
        print(f"unknown application {args.application!r}; "
              f"available: {', '.join(APPLICATION_ORDER)}", file=sys.stderr)
        return 2
    from .analysis.timeline import render_trace

    tracer = Tracer()
    try:
        result, profiler = _run_instrumented(args, tracer)
    except CapacityError:
        return _srf_overflow(args.application, _config(args))
    print(render_trace(tracer, max_rows_per_resource=args.rows))
    print(f"({result.cycles} cycles simulated in "
          f"{profiler.seconds('simulate') * 1e3:.1f} ms wall; "
          f"compile {profiler.seconds('compile') * 1e3:.1f} ms)")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(tracer.to_chrome_json(indent=2))
        print(f"wrote Chrome-trace JSON to {args.out} "
              "(open in chrome://tracing or https://ui.perfetto.dev)")
    if args.manifest_out:
        from .analysis.export import export_run_manifest

        export_run_manifest(
            result,
            args.manifest_out,
            application=args.application,
            timings=profiler.as_dict(),
        )
        print(f"wrote run manifest to {args.manifest_out}")
    return 0


def cmd_schedules(args: argparse.Namespace) -> int:
    from .analysis.kernelreport import (
        compilation_report,
        render_compilation_report,
    )

    print(render_compilation_report(compilation_report()))
    return 0


#: Figure renderers: the VLSI cost figures (6-11) and the performance
#: studies (13/14/table5), which go through the sweep engine.
_FIGURES = {
    "fig6": lambda: render_stack_figure(
        "Figure 6: area/ALU, intracluster (C=8, norm N=5)",
        figure6_area_intracluster(), "N"),
    "fig7": lambda: render_stack_figure(
        "Figure 7: energy/op, intracluster (C=8, norm N=5)",
        figure7_energy_intracluster(), "N"),
    "fig8": lambda: render_delay_figure(
        "Figure 8: delays, intracluster (C=8)",
        figure8_delay_intracluster(), "N"),
    "fig9": lambda: render_stack_figure(
        "Figure 9: area/ALU, intercluster (N=5, norm C=8)",
        figure9_area_intercluster(), "C"),
    "fig10": lambda: render_stack_figure(
        "Figure 10: energy/op, intercluster (N=5, norm C=8)",
        figure10_energy_intercluster(), "C"),
    "fig11": lambda: render_delay_figure(
        "Figure 11: delays, intercluster (N=5)",
        figure11_delay_intercluster(), "C"),
    "fig13": lambda: render_speedup_figure(
        "Figure 13: intracluster kernel speedup",
        figure13_kernel_speedups(), "N"),
    "fig14": lambda: render_speedup_figure(
        "Figure 14: intercluster kernel speedup",
        figure14_kernel_speedups(), "C"),
    "table5": lambda: render_grid(
        "Table 5: kernel performance per unit area",
        table5_performance_per_area(),
        TABLE5_C_VALUES, TABLE5_N_VALUES),
}


def cmd_figures(args: argparse.Namespace) -> int:
    names = args.only or sorted(_FIGURES)
    for name in names:
        if name not in _FIGURES:
            print(f"unknown figure {name!r}; "
                  f"available: {', '.join(sorted(_FIGURES))}",
                  file=sys.stderr)
            return 2
        print(_FIGURES[name]())
        print()
    return 0


def _sweep_meta(engine, elapsed: float) -> dict:
    """Volatile sweep context for ``--json`` envelopes: engine memo and
    compile-cache counters, wall-clock."""
    cache = default_cache()
    return {
        "elapsed_s": round(elapsed, 6),
        "engine": engine.stats(),
        "compile_cache": {**cache.stats(), "hit_rate": cache.hit_rate},
    }


def cmd_report(args: argparse.Namespace) -> int:
    """Figures 13/14 + Table 5 (and Figure 15 with ``--apps``) in one
    run, followed by a one-line compile/cache summary."""
    import time

    from .analysis.sweep import default_engine
    from .compiler.pipeline import memo_size

    started = time.perf_counter()
    if args.json:
        from .api import SweepRequest, run_sweep

        targets = ["fig13", "fig14", "table5"]
        if args.apps:
            targets.append("fig15")
        studies = {
            target: run_sweep(SweepRequest(target)).to_dict()
            for target in targets
        }
        elapsed = time.perf_counter() - started
        return _emit_envelope(
            "report",
            {"studies": studies},
            meta=_sweep_meta(default_engine(), elapsed),
        )
    for name in ("fig13", "fig14", "table5"):
        print(_FIGURES[name]())
        print()
    if args.apps:
        from .analysis.perf import figure15_application_performance

        print("Figure 15: application performance (speedup over C=8/N=5)")
        for point in figure15_application_performance():
            config = point.config
            print(f"  {point.application:10s} C={config.clusters:3d} "
                  f"N={config.alus_per_cluster:2d}  "
                  f"{point.speedup:6.2f}x  {point.gops:7.1f} GOPS")
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

    written = export_all(args.out, include_applications=args.apps)
    for path in written:
        print(path)
    print(f"wrote {len(written)} CSV files to {args.out}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from .analysis.validate import render_validation, validate_all

    results = validate_all(include_apps=args.apps)
    print(render_validation(results))
    return 0 if all(r.passed for r in results) else 1


def cmd_headline(args: argparse.Namespace) -> int:
    if args.json:
        import time

        from .analysis.sweep import default_engine
        from .api import SweepRequest, run_sweep

        started = time.perf_counter()
        result = run_sweep(SweepRequest("headline", apps=args.apps))
        elapsed = time.perf_counter() - started
        return _emit_envelope(
            "headline",
            result.to_dict(),
            meta=_sweep_meta(default_engine(), elapsed),
        )
    h1 = headline_640(include_apps=args.apps)
    h2 = headline_1280(include_apps=args.apps)
    print("640-ALU (C=128 N=5) vs 40-ALU baseline:")
    print(f"  area/ALU overhead:  {h1.area_per_alu_overhead - 1:+.1%} "
          "(paper +2%)")
    print(f"  energy/op overhead: {h1.energy_per_op_overhead - 1:+.1%} "
          "(paper +7%)")
    print(f"  kernel speedup:     {h1.kernel_speedup:.1f}x (paper 15.3x)")
    if args.apps:
        print(f"  app speedup:        {h1.application_speedup:.1f}x "
              "(paper 8.0x)")
    print(f"  kernel GOPS:        {h1.kernel_gops:.0f} (paper >300)")
    print("1280-ALU (C=128 N=10):")
    print(f"  kernel speedup:     {h2.kernel_speedup:.1f}x (paper 27.9x)")
    if args.apps:
        print(f"  app speedup:        {h2.application_speedup:.1f}x "
              "(paper ~10x)")
    print(f"  peak:               {h2.peak_gops:.0f} GOPS at "
          f"{h2.power_watts:.1f} W (paper >1 TFLOP, <10 W)")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .serve.daemon import ServerConfig, run_server

    return run_server(
        ServerConfig(
            host=args.host,
            port=args.port,
            max_queue=args.max_queue,
            batch_window_ms=args.batch_window_ms,
            max_batch=args.max_batch,
            request_timeout_s=args.timeout,
            trace_path=args.trace_out,
        )
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

    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        print(f"cannot read kernel file {args.file}: {exc}",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"kernel file {args.file} is not JSON: {exc}",
              file=sys.stderr)
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
    from .frontend.registry import KERNEL_REF_PREFIX, default_registry

    registry = default_registry()
    ref = args.ref
    if not ref.startswith(KERNEL_REF_PREFIX):
        ref = KERNEL_REF_PREFIX + ref
    try:
        entry = registry.resolve(ref)
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
    _add_logging_arguments(parser)
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
    _add_cache_arguments(comp)
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
                     help="also write a Chrome-trace-format JSON trace")
    _add_cache_arguments(sim)
    sim.set_defaults(func=cmd_simulate)

    trace = sub.add_parser(
        "trace", help="simulate with full event tracing"
    )
    trace.add_argument("application", help="application name (e.g. depth)")
    _add_config_arguments(trace)
    trace.add_argument("--out", metavar="PATH",
                       help="write Chrome-trace JSON (Perfetto-loadable)")
    trace.add_argument("--manifest-out", metavar="PATH",
                       help="write the run manifest JSON")
    trace.add_argument("--rows", type=int, default=40,
                       help="max timeline rows per resource")
    _add_cache_arguments(trace)
    trace.set_defaults(func=cmd_trace)

    report = sub.add_parser(
        "schedules", help="per-kernel compilation report (II, bounds...)"
    )
    report.set_defaults(func=cmd_schedules)

    figs = sub.add_parser("figures", help="regenerate tables/figures")
    figs.add_argument("--only", nargs="*",
                      help=f"subset: {', '.join(sorted(_FIGURES))}")
    _add_cache_arguments(figs)
    figs.set_defaults(func=cmd_figures)

    rep = sub.add_parser(
        "report",
        help="performance studies (figs 13/14, table 5) + cache summary",
    )
    rep.add_argument("--apps", action="store_true",
                     help="include the Figure 15 application sweep (slower)")
    rep.add_argument("--json", action="store_true",
                     help="emit every study as one versioned JSON envelope")
    _add_cache_arguments(rep)
    rep.set_defaults(func=cmd_report)

    head = sub.add_parser("headline", help="check the headline claims")
    head.add_argument("--apps", action="store_true",
                      help="include application simulations (slower)")
    head.add_argument("--json", action="store_true",
                      help="emit a versioned JSON envelope")
    head.set_defaults(func=cmd_headline)

    serve = sub.add_parser(
        "serve",
        help="long-running batched JSON-over-HTTP daemon",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8712,
                       help="bind port; 0 picks an ephemeral port")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="pending-request bound before 429 responses")
    serve.add_argument("--batch-window-ms", type=float, default=5.0,
                       help="micro-batch collection window")
    serve.add_argument("--max-batch", type=int, default=16,
                       help="largest batch handed to the executor")
    serve.add_argument("--timeout", type=float, default=60.0,
                       help="per-request seconds before a 504 response")
    serve.add_argument("--trace-out", metavar="PATH", default=None,
                       help="write a Chrome trace of the serving window "
                            "on shutdown")
    _add_cache_arguments(serve)
    _add_logging_arguments(serve, suppress=True)
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
    _add_logging_arguments(loadgen, suppress=True)
    loadgen.set_defaults(func=cmd_loadgen)

    val = sub.add_parser(
        "validate", help="check every paper anchor (exit 1 on failure)"
    )
    val.add_argument("--apps", action="store_true",
                     help="include application simulations (slower)")
    val.set_defaults(func=cmd_validate)

    export = sub.add_parser(
        "export", help="write every figure/table as CSV"
    )
    export.add_argument("--out", default="paper_data",
                        help="output directory (default: paper_data)")
    export.add_argument("--apps", action="store_true",
                        help="include the Figure 15 sweep (slower)")
    export.set_defaults(func=cmd_export)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    exported_request_id = _apply_logging_arguments(args)
    try:
        _apply_cache_arguments(args)
        return args.func(args)
    finally:
        if exported_request_id:
            from .obs.log import REQUEST_ID_ENV

            os.environ.pop(REQUEST_ID_ENV, None)


if __name__ == "__main__":
    sys.exit(main())
