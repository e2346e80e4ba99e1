"""Shared benchmark plumbing.

Every benchmark regenerates one paper table or figure, times the
regeneration (pytest-benchmark), prints the rows/series the paper
reports, and archives the rendered artifact under
``benchmarks/output/``.  Those files are committed and must come out
byte-identical on every run: a benchmark that also reports wall-clock
numbers archives them separately, under the untracked
``benchmarks/timings/``.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.analysis.report import STUDIES

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"
TIMINGS_DIR = pathlib.Path(__file__).parent / "timings"


def perf_floor(strict: float, relaxed: float) -> float:
    """The assertion floor for a timing-based benchmark.

    Shared-CI runners are noisy: a neighbor stealing the core can erase
    most of a real 6-10x headroom and flake an otherwise healthy gate.
    By default benchmarks therefore assert only the ``relaxed`` floor —
    generous enough that tripping it means a genuine regression, not
    scheduler jitter.  Set ``REPRO_BENCH_STRICT=1`` (quiet machines,
    perf investigations) to enforce the ``strict`` floor instead.
    """
    if os.environ.get("REPRO_BENCH_STRICT", "").strip().lower() in (
        "1", "on", "yes", "true",
    ):
        return strict
    return relaxed


@pytest.fixture()
def archive(request):
    """Return a callable that prints and archives a rendered artifact.

    ``archive(text, timings="")``: ``text`` (deterministic) goes to
    ``output/<test>.txt``; ``timings``, the lines that change from run
    to run, go to ``timings/<test>.txt``.
    """
    OUTPUT_DIR.mkdir(exist_ok=True)

    def _archive(text: str, timings: str = "") -> None:
        print()
        print(text)
        name = request.node.name.replace("/", "_")
        (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
        if timings:
            print(timings)
            TIMINGS_DIR.mkdir(exist_ok=True)
            (TIMINGS_DIR / f"{name}.txt").write_text(timings + "\n")

    return _archive


def run_once(benchmark, func, *args, **kwargs):
    """Benchmark a regeneration exactly once (sweeps are deterministic
    and some take seconds; statistical rounds add nothing)."""
    return benchmark.pedantic(
        func, args=args, kwargs=kwargs, rounds=1, iterations=1
    )


def regenerate(benchmark, archive, name):
    """Regenerate the study ``name`` of
    :data:`repro.analysis.report.STUDIES` once, archive its text (the
    text ``repro report`` prints) and return its data."""
    study = STUDIES[name]
    data = run_once(benchmark, study.compute)
    archive(study.render(study.title, data))
    return data
