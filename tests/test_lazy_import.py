"""``import repro`` must stay cheap: no numpy, no simulator, no grids.

The serving daemon's thin clients (and anything scripting against
``repro.api`` request types) import the package constantly; PEP 562
lazy exports keep that import from paying for the whole toolchain.
Each test runs a fresh interpreter so this process's warm
``sys.modules`` can't mask a regression.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Modules that must NOT load at each probe point.
HEAVY = ("numpy", "repro.sim", "repro.isa", "repro.analysis",
         "repro.compiler", "repro.apps", "repro.kernels")


def _run_probe(code: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def test_bare_import_loads_nothing_heavy():
    loaded = _run_probe(
        "import json, sys\n"
        "import repro\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.startswith('repro') or m == 'numpy')))"
    )
    assert "repro" in loaded
    for module in HEAVY + ("repro.core",):
        assert module not in loaded, module


def test_core_access_loads_core_only():
    loaded = _run_probe(
        "import json, sys\n"
        "import repro\n"
        "_ = repro.CostModel  # resolves lazily via __getattr__\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.startswith('repro') or m == 'numpy')))"
    )
    assert "repro.core" in loaded
    for module in HEAVY:
        assert module not in loaded, module


def test_api_requests_load_no_simulator():
    loaded = _run_probe(
        "import json, sys\n"
        "from repro.api import SimulateRequest\n"
        "r = SimulateRequest('fft1k', 8, 5)\n"
        "_ = r.to_json()\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.startswith('repro') or m == 'numpy')))"
    )
    assert "repro.api" in loaded
    for module in HEAVY:
        assert module not in loaded, module


def test_serve_client_is_light():
    loaded = _run_probe(
        "import json, sys\n"
        "from repro.serve.client import ServeClient\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.startswith('repro') or m == 'numpy')))"
    )
    for module in HEAVY:
        assert module not in loaded, module


#: Prints whether numpy is loaded after the probe's own lines ran.
_NUMPY_LOADED = "print(json.dumps('numpy' in sys.modules))"

#: Prints the loaded modules of the stdlib's HTTP client and of the
#: ``email`` package its header parser uses.
_HTTP_CLIENT_LOADED = (
    "print(json.dumps(sorted(m for m in sys.modules if m == 'http.client'"
    " or m == 'email' or m.startswith('email.'))))"
)


@pytest.mark.parametrize("statement", [
    "from repro.serve.client import ServeClient",
    "import repro.serve.daemon",
], ids=["client", "daemon"])
def test_serve_loads_no_http_client_or_email(statement):
    """Both ends of the daemon's wire frame HTTP/1.1 by hand."""
    assert _run_probe(
        "import json, sys\n" + statement + "\n" + _HTTP_CLIENT_LOADED
    ) == []


@pytest.mark.parametrize("statement, absent", [
    ("import repro.cli", ["logging", "uuid"]),
    ("import repro.serve.daemon", ["repro.obs.log", "uuid"]),
], ids=["cli", "daemon"])
def test_no_logging_layer_loads(statement, absent):
    """Nothing under ``src/`` logs: the CLI pays for no ``logging`` and
    the daemon mints request ids without ``uuid``."""
    assert _run_probe(
        "import json, sys\n" + statement + "\n"
        f"print(json.dumps([m for m in {absent!r} if m in sys.modules]))"
    ) == []


def test_cli_import_loads_no_numpy():
    assert _run_probe(
        "import json, sys\n"
        "import repro.cli\n" + _NUMPY_LOADED
    ) is False


def test_api_compile_simulate_register_load_no_numpy():
    assert _run_probe(
        "import json, sys\n"
        "from repro.api import (CompileRequest, RegisterKernelRequest,\n"
        "                       SimulateRequest, execute)\n"
        "from repro.frontend.registry import configure_default_registry\n"
        "configure_default_registry(enabled=False)\n"
        "execute(CompileRequest('fft', 8, 5))\n"
        "execute(SimulateRequest('fft1k', 8, 5))\n"
        "doc = {'schema_version': 1, 'name': 'saxpy', 'nodes': [\n"
        "    {'op': 'sb_read', 'stream': 'x'},\n"
        "    {'op': 'const', 'value': 2.0},\n"
        "    {'op': 'fmul', 'args': [0, 1]},\n"
        "    {'op': 'sb_write', 'args': [2], 'stream': 'out'}]}\n"
        "ref = execute(RegisterKernelRequest(doc)).ref\n"
        "execute(SimulateRequest(ref, 8, 5))\n" + _NUMPY_LOADED
    ) is False


def test_warm_grid_pass_loads_no_numpy():
    assert _run_probe(
        "import json, sys\n"
        "from repro.analysis.perf import FIG15_N_VALUES, TABLE5_C_VALUES\n"
        "from repro.analysis.sweep import SweepEngine\n"
        "from repro.apps.suite import APPLICATION_ORDER\n"
        "from repro.core.config import ProcessorConfig\n"
        "points = [(app, ProcessorConfig(c, n))\n"
        "          for app in APPLICATION_ORDER\n"
        "          for c in TABLE5_C_VALUES for n in FIG15_N_VALUES]\n"
        "SweepEngine().simulate_many(points)\n"
        "SweepEngine().simulate_many(points)  # warm compile memo\n"
        + _NUMPY_LOADED
    ) is False


def test_interpreter_runs_a_suite_kernel_without_numpy():
    assert _run_probe(
        "import json, sys\n"
        "from repro.isa import KernelInterpreter\n"
        "from repro.kernels import get_kernel\n"
        "kernel = get_kernel('fft')\n"
        "interp = KernelInterpreter(kernel, clusters=4)\n"
        "inputs = {s: [0.25 * i for i in range(128)]\n"
        "          for s in kernel.input_streams()}\n"
        "assert interp.run(inputs)\n" + _NUMPY_LOADED
    ) is False


def test_no_source_file_imports_numpy():
    """The package has no runtime dependencies: numpy is a test-only
    reference."""
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(Path(SRC).rglob("*.py"))
        if re.search(r"^\s*(import|from)\s+numpy\b",
                     path.read_text(encoding="utf-8"), re.MULTILINE)
    ]
    assert offenders == []


def test_lazy_exports_all_resolve():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    assert sorted(set(repro.__all__)) == sorted(repro.__all__)
    assert "CostModel" in dir(repro)
