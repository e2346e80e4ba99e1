"""In-memory spans around named public functions of each layer.

The benchmark measures the program from outside, so per-layer numbers
come from wrapping functions rather than from spans inside ``src/``.
:func:`install` replaces every ``repro.*`` module attribute, class
attribute and module-level dict value that *is* one of the
:data:`TARGETS` with a wrapper that records a span, and
:func:`uninstall` puts every original object back.  An untraced run
never calls :func:`install`.

A span is ``[name, start, end, parent, thread]``; ``parent`` is the
enclosing span object of the same thread or ``None``, and a ``simulate``
span also keeps ``(stream ops, simulated cycles)`` of its result.  Self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: ``(metric prefix, module, attribute path)`` of every wrapped function.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("api.execute", "repro.api", "execute"),
    ("api.to_json", "repro.api", "_Payload.to_json"),
    ("api.to_dict", "repro.api", "_Payload.to_dict"),
    ("core.cost_query", "repro.api", "run_cost_query"),
    ("sweep.simulate_many", "repro.analysis.sweep",
     "SweepEngine.simulate_many"),
    ("sweep.simulate_application", "repro.analysis.sweep",
     "SweepEngine.simulate_application"),
    ("sweep.compile_kernels", "repro.analysis.sweep",
     "SweepEngine.compile_kernels"),
    ("compiler.compile_kernel", "repro.compiler.pipeline", "compile_kernel"),
    ("compiler.compile_batch", "repro.compiler.pipeline", "compile_batch"),
    ("compiler.build_machine", "repro.compiler.machine", "build_machine"),
    ("isa.KernelGraph.stats", "repro.isa.kernel", "KernelGraph.stats"),
    ("isa.KernelGraph.counts_by_class", "repro.isa.kernel",
     "KernelGraph.counts_by_class"),
    ("sim.simulate", "repro.sim.processor", "simulate"),
    ("model.predict_application", "repro.analysis.model",
     "predict_application"),
    ("frontend.register", "repro.frontend.registry",
     "KernelRegistry.register"),
)

#: Modules imported before wrapping, so that every module binding a
#: target by name already exists when :func:`install` scans for it.
PREIMPORT = (
    "repro.api",
    "repro.analysis.perf",
    "repro.analysis.headline",
    "repro.analysis.model",
    "repro.analysis.sweep",
    "repro.apps.suite",
    "repro.compiler.cache",
    "repro.compiler.machine",
    "repro.compiler.pipeline",
    "repro.frontend.loader",
    "repro.frontend.registry",
    "repro.isa.kernel",
    "repro.kernels.suite",
    "repro.sim.processor",
)

#: Compile outcomes, split by what the call found: its schedule already
#: in the in-memory memo, on disk, or in neither.
COMPILE_OUTCOMES = ("mem_hit", "disk_hit", "cold")

Span = List[Any]


def preimport() -> None:
    """Import every module the wrappers and the workloads touch."""
    for name in PREIMPORT:
        importlib.import_module(name)


class Tracer:
    """Collects spans from any thread; :meth:`reset` starts afresh."""

    def __init__(self) -> None:
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans."""
        self.spans: List[Span] = []

    def stack(self) -> List[Span]:
        """The calling thread's open spans, innermost last."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


def compile_probe() -> Callable[[], Tuple[int, int]]:
    """A function returning ``(in-memory memo size, disk cache hits)``."""
    from repro.compiler.cache import default_cache
    from repro.compiler.pipeline import memo_size

    return lambda: (memo_size(), default_cache().stats()["hits"])


def compile_outcome(before: Tuple[int, int], after: Tuple[int, int]) -> str:
    """Classify one ``compile_kernel`` call from :func:`compile_probe`
    readings around it: the memo did not grow (memory hit), it grew with
    a disk hit, or it grew without one (cold compile)."""
    if after[0] == before[0]:
        return "mem_hit"
    return "disk_hit" if after[1] > before[1] else "cold"


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    probe = compile_probe() if name == "compiler.compile_kernel" else None
    observe = name == "sim.simulate"
    clock = time.perf_counter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack = tracer.stack()
        span: Span = [name, 0.0, 0.0, stack[-1] if stack else None,
                      threading.get_ident()]
        tracer.spans.append(span)
        before = probe() if probe is not None else None
        stack.append(span)
        span[1] = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = clock()
            stack.pop()
        if probe is not None:
            span[0] = f"{name}.{compile_outcome(before, probe())}"
        if observe:
            span.append((len(result.records), result.cycles))
        return result

    return traced


class Installation:
    """What one :func:`install` replaced, for :func:`uninstall`."""

    def __init__(self) -> None:
        #: id(original) -> (original, wrapper)
        self.originals: Dict[int, Tuple[Any, Callable]] = {}
        #: Class attributes replaced: (class, attribute, original).
        self.class_patches: List[Tuple[type, str, Any]] = []


def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _repro_modules() -> List[Any]:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _replace_everywhere(swap: Dict[int, Tuple[Any, Any]]) -> None:
    """Rebind every ``repro.*`` module attribute and module-level dict
    value that *is* the first object of a ``swap`` pair to the second
    (``_RUNNERS`` in ``repro.api`` holds ``run_cost_query`` this way)."""
    for module in _repro_modules():
        namespace = vars(module)
        for key, value in list(namespace.items()):
            hit = swap.get(id(value))
            if hit is not None and hit[0] is value:
                namespace[key] = hit[1]
            elif isinstance(value, dict) and key != "__builtins__":
                for inner, item in list(value.items()):
                    hit = swap.get(id(item))
                    if hit is not None and hit[0] is item:
                        value[inner] = hit[1]


def install(tracer: Tracer, targets: Iterable[Tuple[str, str, str]] = TARGETS
            ) -> Installation:
    """Wrap every target; returns what :func:`uninstall` undoes."""
    preimport()
    installation = Installation()
    for name, module_name, path in targets:
        owner, attr = _resolve(module_name, path)
        original = vars(owner)[attr]
        wrapper = _wrap(tracer, name, original)
        installation.originals[id(original)] = (original, wrapper)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            installation.class_patches.append((owner, attr, original))
    _replace_everywhere(installation.originals)
    return installation


def uninstall(installation: Installation) -> None:
    """Restore every original object, including in modules imported
    after :func:`install` that bound a wrapper."""
    for owner, attr, original in installation.class_patches:
        setattr(owner, attr, original)
    _replace_everywhere({
        id(wrapper): (wrapper, original)
        for original, wrapper in installation.originals.values()
    })
    installation.class_patches.clear()
    installation.originals.clear()


# --- aggregation ---------------------------------------------------------


def self_times(spans: List[Span]) -> Dict[str, Tuple[int, float, float]]:
    """``name -> (calls, self seconds, inclusive seconds)``; self time
    is each span's duration minus the time its child spans cover."""
    child: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span[3] is not None:
            child[id(span[3])] += span[2] - span[1]
    totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for span in spans:
        entry = totals[span[0]]
        duration = span[2] - span[1]
        entry[0] += 1
        entry[1] += duration - child[id(span)]
        entry[2] += duration
    return {
        name: (int(calls), own, inclusive)
        for name, (calls, own, inclusive) in totals.items()
    }


def top_level_seconds(spans: List[Span]) -> float:
    """Time covered by spans that have no parent."""
    return sum(span[2] - span[1] for span in spans if span[3] is None)


def simulation_layers(spans: List[Span]) -> Dict[str, float]:
    """``sim.host_us_per_stream_op`` (host time of ``simulate`` per
    simulated stream op) and ``sim.simulated_cycles``."""
    seconds = ops = cycles = 0
    for span in spans:
        if len(span) > 5:
            seconds += span[2] - span[1]
            ops += span[5][0]
            cycles += span[5][1]
    return {
        "sim.host_us_per_stream_op": seconds / ops * 1e6 if ops else 0.0,
        "sim.simulated_cycles": cycles,
    }


def layer_table(spans: List[Span], per: float = 1.0) -> Dict[str, float]:
    """``<layer>.calls`` and ``<layer>.self_s`` for every wrapped layer
    plus the simulator's layers; counts and times are divided by
    ``per`` (the number of iterations the spans cover)."""
    def scale(value):
        return value if per == 1 else value / per

    totals = self_times(spans)
    table: Dict[str, float] = {}
    for name in layer_names():
        calls, own, _ = totals.get(name, (0, 0.0, 0.0))
        table[f"{name}.calls"] = scale(calls)
        table[f"{name}.self_s"] = scale(own)
    sim = simulation_layers(spans)
    table["sim.host_us_per_stream_op"] = sim["sim.host_us_per_stream_op"]
    table["sim.simulated_cycles"] = scale(sim["sim.simulated_cycles"])
    return table


def layer_names() -> List[str]:
    """Every ``<layer>.calls`` / ``<layer>.self_s`` prefix the wrappers
    can produce (compile calls split by outcome)."""
    names = []
    for name, _, _ in TARGETS:
        if name == "compiler.compile_kernel":
            names.extend(f"{name}.{outcome}" for outcome in COMPILE_OUTCOMES)
        else:
            names.append(name)
    return names


def chrome_trace(spans: List[Span], min_s: float = 100e-6,
                 metadata: Optional[Dict[str, Any]] = None) -> str:
    """Spans as Chrome trace-event JSON (``chrome://tracing``/Perfetto).

    Spans shorter than ``min_s`` are left out to keep the file small
    (a warm grid pass makes ~170k calls of a few microseconds each);
    their time still counts in the per-layer table, and the number left
    out is recorded in the trace's metadata.
    """
    origin = min((span[1] for span in spans), default=0.0)
    events = []
    dropped = 0
    for span in spans:
        duration = span[2] - span[1]
        if duration < min_s:
            dropped += 1
            continue
        events.append({
            "name": span[0], "ph": "X", "pid": 1, "tid": span[4],
            "ts": round((span[1] - origin) * 1e6, 3),
            "dur": round(duration * 1e6, 3),
        })
    meta = dict(metadata or {})
    meta["spans_shorter_than_min_s"] = dropped
    meta["min_s"] = min_s
    return json.dumps({"traceEvents": events, "metadata": meta})
