"""Trace ISA: micro-ops, columnar traces, the program-builder DSL, and
trace files."""

from repro.isa.encoding import dumps, load_trace, loads, save_trace
from repro.isa.microop import MicroOp
from repro.isa.program import Program, default_memory_value
from repro.isa.trace import Trace, as_trace

__all__ = [
    "MicroOp",
    "Program",
    "Trace",
    "as_trace",
    "default_memory_value",
    "dumps",
    "load_trace",
    "loads",
    "save_trace",
]
