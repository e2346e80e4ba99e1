"""``repro serve`` with the layer wrappers installed (traced runs only).

``python -m bench.traced_serve WINDOW.json LAYERS.json [serve flags]``
serves exactly as ``python -m repro serve [serve flags]``.  Before
sending SIGTERM the benchmark writes ``WINDOW.json``: the measured
window's ``start``/``end`` (``time.perf_counter``, which is
``CLOCK_MONOTONIC`` on Linux and so shared across processes), the
``requests`` served in it and a ``trace_out`` path.  After the drain
this process writes the window's per-request layer table to
``LAYERS.json`` and its spans as a Chrome trace to ``trace_out``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List

from bench import trace, use_source_tree


def main(argv: List[str]) -> int:
    window_path, layers_path, *serve_flags = argv
    use_source_tree()
    tracer = trace.Tracer()
    installation = trace.install(tracer)
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *serve_flags])
    finally:
        trace.uninstall(installation)
        window = json.loads(Path(window_path).read_text())
        spans = [
            span for span in tracer.spans
            if span[1] >= window["start"] and span[2] <= window["end"]
        ]
        layers = trace.layer_table(spans, per=max(window["requests"], 1))
        layers["top_level_s"] = trace.top_level_seconds(spans)
        Path(layers_path).write_text(json.dumps(layers))
        Path(window["trace_out"]).write_text(trace.chrome_trace(
            spans, metadata={"workload": "daemon-mix"},
        ))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
