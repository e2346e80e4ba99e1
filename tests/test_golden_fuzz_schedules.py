"""Golden schedules for generated kernels, start map included.

``tests/data/golden_fuzz_schedules.json`` pins the modulo scheduler on
the kernel shapes the ``kernels-cold`` benchmark registers: the first
48 documents :func:`test_frontend_fuzz.generate_document` draws from
``random.Random(0)``, each compiled cold (no memo, no disk) at every
Table 5 configuration.  An entry records the unroll factor, II,
schedule length, MaxLive, both MII bounds and the SHA-256 of the
sorted start map, so a scheduler change that moves a single operation
by one cycle fails here.  ``golden_schedules.json`` covers only the
suite kernels and holds no start maps.  Regenerate (only when a
schedule change is intended) with::

    PYTHONPATH=src python tests/test_golden_fuzz_schedules.py --write
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.analysis.perf import TABLE5_C_VALUES, TABLE5_N_VALUES
from repro.compiler import pipeline
from repro.core.config import ProcessorConfig
from repro.frontend import graph_from_document

from test_frontend_fuzz import generate_document

GOLDEN = Path(__file__).parent / "data" / "golden_fuzz_schedules.json"

#: Documents ``kernels-cold`` registers per process.
DOCUMENTS = 48


def start_digest(start) -> str:
    """SHA-256 of a start map as a sorted ``[[node, cycle], ...]`` list."""
    text = json.dumps(sorted(start.items()), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def compile_entries():
    """Cold-compile every (document, Table 5 config) point."""
    shapes = random.Random(0)
    entries = []
    for index in range(DOCUMENTS):
        kernel = graph_from_document(generate_document(shapes))
        for clusters in TABLE5_C_VALUES:
            for alus in TABLE5_N_VALUES:
                config = ProcessorConfig(clusters, alus)
                machine, unroll, _key = pipeline._resolve(
                    kernel, config, None, None
                )
                result, schedule = pipeline._search(kernel, machine, unroll)
                entries.append({
                    "document": index,
                    "clusters": clusters,
                    "alus": alus,
                    "unroll": result.unroll_factor,
                    "ii": result.ii,
                    "length": result.length,
                    "max_live": result.max_live,
                    "resource_mii": result.resource_mii,
                    "recurrence_mii": result.recurrence_mii,
                    "start_sha256": start_digest(schedule.start),
                })
    return entries


def write(entries) -> None:
    """One compact entry per line, so a diff names the moved points."""
    lines = ",\n".join(
        json.dumps(entry, separators=(",", ":")) for entry in entries
    )
    GOLDEN.write_text(f"[\n{lines}\n]\n")


class TestGoldenFuzzSchedules:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN.read_text())

    def test_covers_every_document_and_config(self, golden):
        assert len(golden) == (
            DOCUMENTS * len(TABLE5_C_VALUES) * len(TABLE5_N_VALUES)
        )

    def test_cold_compiles_match_golden(self, golden):
        for got, want in zip(compile_entries(), golden):
            assert got == want, (
                f"document {want['document']} at C={want['clusters']} "
                f"N={want['alus']} diverged from the golden schedule"
            )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_fuzz_schedules.py --write")
    write(compile_entries())
