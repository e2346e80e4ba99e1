"""Command line: ``python -m bench {run,compare,capture}``.

``run`` prints every metric by name and unit, then, as its last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics of ``BENCHMARK.json`` for an untraced run, its
per-layer metrics for a traced one (``--trace`` / ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List

from bench import ROOT, use_source_tree

BENCHMARK = ROOT / "BENCHMARK.json"


def load_benchmark() -> Dict[str, Any]:
    return json.loads(BENCHMARK.read_text())


#: The quantile behind each latency metric.
PERCENTILES = {"lat_p50_ms": 0.5, "lat_p90_ms": 0.9}


def end_to_end(outcome) -> Dict[str, float]:
    """The end-to-end metrics of BENCHMARK.json from one workload outcome."""
    from bench.stats import percentile

    metrics = {
        "setup_s": statistics.median(outcome.setup),
        "wall_s": statistics.median(outcome.walls),
        "peak_rss_mb": outcome.rss_mb,
    }
    for name, q in PERCENTILES.items():
        metrics[name] = percentile(outcome.latencies, q) * 1e3
    return metrics


def unreportable(outcome) -> List[str]:
    """The latency metrics with fewer than ten samples beyond them."""
    from bench.stats import reportable

    return [name for name, q in PERCENTILES.items()
            if not reportable(len(outcome.latencies), q)]


def sample_notes(outcome) -> Dict[str, str]:
    """The sample count behind each timing, for the printout."""
    from bench.stats import samples_beyond

    notes = {
        "setup_s": f"median of {len(outcome.setup)} processes",
        "wall_s": f"median of {len(outcome.walls)} {outcome.iteration}",
    }
    flagged = unreportable(outcome)
    count = len(outcome.latencies)
    for name, q in PERCENTILES.items():
        notes[name] = (f"{count} {outcome.operation}, "
                       f"{samples_beyond(count, q)} beyond")
        if name in flagged:
            notes[name] += ": UNREPORTABLE, fewer than ten beyond"
    return notes


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 spec: Dict[str, Any]) -> Dict[str, Any]:
    from bench.workloads import WORKLOADS, isolated

    with isolated(name) as scratch:
        outcome = WORKLOADS[name](seed, seconds, traced, scratch)
    group = "per_layer" if traced else "end_to_end"
    measured = outcome.layers if traced else end_to_end(outcome)
    metrics = {
        metric["name"]: {"value": measured.get(metric["name"], 0.0),
                         "unit": metric["unit"]}
        for metric in spec[group]
    }
    notes = {} if traced else sample_notes(outcome)
    print(f"== {name}  seed={seed}  seconds={seconds:g}  "
          f"{'traced' if traced else 'untraced'}"
          f"{'' if traced else '  (times at reference speed)'}")
    for metric, entry in metrics.items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"  {metric:44s} {entry['value']:14.6f} {entry['unit']}{note}")
    for metric, value in sorted(outcome.extra.items()):
        if not traced:
            print(f"  {metric:44s} {value:14.6f}  (not bounded)")
    for error in outcome.errors:
        print(f"  FAILED: {error}")
    print(f"  correct={outcome.failed == 0}  attempted={outcome.attempted}"
          f"  failed={outcome.failed}")
    if traced:
        from bench.workloads import OUT_DIR, trace_path

        table = OUT_DIR / f"{name}-s{seed}-layers.txt"
        table.write_text("".join(
            f"{metric} {entry['value']!r} {entry['unit']}\n"
            for metric, entry in metrics.items()
        ))
        print(f"  per-layer table: {table.relative_to(ROOT)}")
        print(f"  chrome trace:    {trace_path(name, seed).relative_to(ROOT)}")
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(traced), "correct": outcome.failed == 0,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "metrics": metrics, "extra": outcome.extra,
        "unreportable": [] if traced else unreportable(outcome),
    }


def cmd_run(args: argparse.Namespace) -> int:
    spec = load_benchmark()
    use_source_tree()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(names)}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    records = [
        run_workload(name, args.seed, seconds, bool(args.trace), spec)
        for name in ([args.workload] if args.workload else names)
    ]
    if args.out:
        with open(args.out, "a") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            f"{record['workload']}.{name}": entry
            for record in records for name, entry in record["metrics"].items()
        }
    print(json.dumps({
        "correct": all(record["correct"] for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": metrics,
    }))
    return 0


def cmd_capture(args: argparse.Namespace) -> int:
    """Record the correctness digests of this commit in expected.json."""
    use_source_tree()
    from bench import workloads

    with workloads.isolated("capture") as scratch:
        def digests(workload: str, seed: int, **spec) -> Dict[str, Any]:
            run = workloads.spawn_worker(scratch, dict(
                spec, workload=workload, seed=seed, trace=False, deadline=0,
            ))
            if run.result["failed"]:
                raise SystemExit(f"bench: {workload} failed while "
                                 f"capturing: {run.result['errors']}")
            return run.result["digests"]

        expected: Dict[str, Any] = {
            "grid": digests("grid-warm", 1),
            "kernels-cold": {},
        }
        for seed in (1, 2):
            path = scratch.path(f"documents-{seed}.json")
            path.write_text(json.dumps(workloads.kernel_documents(seed)))
            expected["kernels-cold"].update(
                digests("kernels-cold", seed, documents=str(path))
            )
    workloads.EXPECTED.write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {workloads.EXPECTED.relative_to(ROOT)}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from bench.compare import compare

    return compare(Path(args.parent), Path(args.change), load_benchmark())


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads and print metrics")
    run.add_argument("--workload", help="one workload (default: all)")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=None,
                     help="time per workload, set-up included (default: "
                          "BENCHMARK.json run_seconds); compare refuses "
                          "run-sets measured at different lengths")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1),
                     help="per-layer run: wrap each layer with spans")
    run.add_argument("--out", help="append one JSON line per workload here")
    run.set_defaults(func=cmd_run)
    compare = commands.add_parser(
        "compare", help="compare two run-sets (--out files)")
    compare.add_argument("parent")
    compare.add_argument("change")
    compare.set_defaults(func=cmd_compare)
    capture = commands.add_parser(
        "capture", help="record this commit's correctness digests")
    capture.set_defaults(func=cmd_capture)
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
