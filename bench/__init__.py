"""End-to-end and per-layer benchmark of the repro toolchain.

``python -m bench run --workload grid-warm`` from the repository root;
``bench/README.md`` describes the workloads, metrics and trace.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: The frontend fuzz generator ``kernels-cold`` draws documents from.
FUZZ_MODULE = ROOT / "tests" / "test_frontend_fuzz.py"


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/``; exit non-zero
    when the checkout has no sources to benchmark."""
    missing = [
        path for path in (SRC / "repro" / "__init__.py", FUZZ_MODULE)
        if not path.is_file()
    ]
    if missing:
        raise SystemExit(
            "bench: missing " + ", ".join(str(p) for p in missing)
            + " (run from a full checkout of the repository)"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
