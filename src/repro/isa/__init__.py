"""Kernel intermediate representation (the paper's KernelC substitute).

``VectorUnsupported`` and ``unsupported_reason`` live in the numpy
lane-parallel backend (:mod:`repro.isa.vector`) and resolve on first
access (:pep:`562`), so only code that runs that backend imports numpy.
"""

from typing import List

from .interp import BACKENDS, InterpreterError, KernelInterpreter
from .kernel import KernelGraph, Node, Recurrence, Value
from .microcode import MicrocodeFootprint, instruction_word_bits, kernel_footprint
from .ops import FUClass, OpCounts, Opcode
from .values import (
    COMPLEX,
    AccessPattern,
    DataType,
    FRAGMENT,
    PIXEL,
    RecordType,
    RGBA_PIXEL,
    StreamType,
    TRIANGLE,
    WORD,
)

__all__ = [
    "AccessPattern",
    "BACKENDS",
    "COMPLEX",
    "InterpreterError",
    "VectorUnsupported",
    "unsupported_reason",
    "KernelInterpreter",
    "DataType",
    "FRAGMENT",
    "FUClass",
    "KernelGraph",
    "MicrocodeFootprint",
    "Node",
    "OpCounts",
    "Opcode",
    "PIXEL",
    "Recurrence",
    "RecordType",
    "RGBA_PIXEL",
    "StreamType",
    "TRIANGLE",
    "Value",
    "WORD",
    "instruction_word_bits",
    "kernel_footprint",
]

#: Exports of :mod:`repro.isa.vector`, imported on first access.
_VECTOR_EXPORTS = ("VectorUnsupported", "unsupported_reason")


def __getattr__(name: str):
    if name not in _VECTOR_EXPORTS:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    from . import vector

    value = getattr(vector, name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> List[str]:
    return sorted(set(list(globals()) + __all__))
