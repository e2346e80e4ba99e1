"""Kernel intermediate representation (the paper's KernelC substitute)."""

from .interp import InterpreterError, KernelInterpreter
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
    "COMPLEX",
    "InterpreterError",
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
