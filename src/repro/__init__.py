"""repro — reproduction of "Exploring the VLSI Scalability of Stream
Processors" (Khailany et al., HPCA 2003).

Packages:

* :mod:`repro.core`      — VLSI cost models and scaling studies (Tables 1, 3).
* :mod:`repro.isa`       — kernel dataflow IR (the KernelC substitute).
* :mod:`repro.kernels`   — the media kernel suite (Tables 2, 4).
* :mod:`repro.compiler`  — VLIW modulo-scheduling kernel compiler.
* :mod:`repro.sim`       — stream-processor application simulator.
* :mod:`repro.apps`      — the six applications (StreamC substitute).
* :mod:`repro.analysis`  — regeneration of every paper table and figure.
* :mod:`repro.obs`       — tracing, metrics, run manifests.
* :mod:`repro.api`       — the stable typed request/result facade
  (``docs/api.md``).
* :mod:`repro.serve`     — the serving daemon, one request at a time
  (``docs/serving.md``).

Importing :mod:`repro` is deliberately cheap: the symbols below resolve
lazily (:pep:`562` module ``__getattr__``), so ``import repro`` pulls in
neither the compiler nor the simulator — thin clients of :mod:`repro.api` and
:mod:`repro.serve.client` pay only for what they touch.
"""

from typing import List

__version__ = "1.0.0"

#: Lazily resolved exports: attribute name -> providing submodule.
_LAZY_EXPORTS = {
    # core cost-model surface (the original eager exports)
    "CostModel": "core",
    "MachineParameters": "core",
    "ProcessorConfig": "core",
    # the typed API facade
    "API_VERSION": "api",
    "ApiError": "api",
    "CompileRequest": "api",
    "CompileResult": "api",
    "CostQuery": "api",
    "CostResult": "api",
    "SimulateRequest": "api",
    "SimulateResult": "api",
    "SweepRequest": "api",
    "SweepResult": "api",
    "execute": "api",
    "run_compile": "api",
    "run_cost_query": "api",
    "run_simulate": "api",
    "run_sweep": "api",
}

__all__ = sorted(_LAZY_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    """Resolve a lazy export on first access (:pep:`562`)."""
    target = _LAZY_EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{target}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> List[str]:
    """Advertise the lazy exports to ``dir()`` and tab completion."""
    return sorted(set(list(globals()) + __all__))
