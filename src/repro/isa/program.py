"""A tiny assembler-style builder for micro-op traces.

:class:`Program` is both a trace builder and a functional interpreter: it
keeps an architectural register file and a sparse memory image, so that a
``load rd, [rs]`` appended to the program really does read the value that
the program last stored (or pre-installed) at ``regs[rs]``.  That property
is what makes the synthetic workloads *honest*: a "pointer dereference" in
a generated trace is an actual dereference of an actual pointer value, and
the Clueless analyzer sees the same dataflow the pipeline does.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, Optional, Tuple

from repro.common.types import WORD_MASK, MemPrediction, OpClass, word_addr
from repro.isa.microop import MicroOp
from repro.isa.trace import Trace

__all__ = ["Program", "default_memory_value"]

# Enum members bound once (see repro.isa.microop): trace generation
# appends hundreds of thousands of uops.
_ALU = OpClass.ALU
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_BRANCH = OpClass.BRANCH
_NOP = OpClass.NOP

_MASK64 = 0xFFFFFFFFFFFFFFFF

#: A static instruction's opclass and forced prediction travel as one
#: small int, ``3 * opclass code + prediction code``, in the key that
#: finds its static-table entry: an enum in the key would hash through
#: a Python-level ``__hash__``, several times slower than an int.
_OPCLASSES = tuple(OpClass)
_PREDICTIONS = (None, MemPrediction.MEM, MemPrediction.STF)
_OPCLASS_CODES = {opclass: code for code, opclass in enumerate(_OPCLASSES)}
_PREDICTION_CODES = {pred: code for code, pred in enumerate(_PREDICTIONS)}
_C_ALU = 3 * _OPCLASS_CODES[_ALU]
_C_LOAD = 3 * _OPCLASS_CODES[_LOAD]
_C_STORE = 3 * _OPCLASS_CODES[_STORE]
_C_BRANCH = 3 * _OPCLASS_CODES[_BRANCH]
_C_NOP = 3 * _OPCLASS_CODES[_NOP]


def default_memory_value(addr: int) -> int:
    """Deterministic pseudo-content for memory never written by the program.

    A cheap integer hash keeps values reproducible without storing an image
    of all of memory.
    """
    x = (addr * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 29
    return x


def _bad_reg(reg: int, arch_regs: int) -> ValueError:
    return ValueError(f"register r{reg} outside namespace of {arch_regs}")


def _bad_word(what: str, value: int) -> ValueError:
    return ValueError(f"{what} {value!r} outside 0 .. 2**64 - 1")


def _load_code(forced_prediction: Optional[MemPrediction]) -> int:
    if forced_prediction is None:
        return _C_LOAD
    return _C_LOAD + _PREDICTION_CODES[forced_prediction]


class Program:
    """Builds a micro-op trace while interpreting it functionally.

    Args:
        arch_regs: size of the architectural register namespace.
        base_pc: starting program counter; each appended micro-op gets a
            fresh pc unless ``pc`` is passed explicitly (loops reuse pcs).

    The trace is a columnar :class:`~repro.isa.trace.Trace` (:attr:`ops`)
    that grows as uops are appended.  Every builder method checks its
    registers inline (``0 <= reg < arch_regs``), and any immediate,
    absolute address or explicit pc against ``0 .. 2**64 - 1``, raising
    :class:`ValueError` before it changes any state.  It then emits
    through :meth:`_emit`, which skips the checks of :class:`MicroOp`'s
    constructor (each method builds only micro-ops that pass them), and
    returns the appended uop's position, which is its ``seq``:
    ``prog.ops[position]`` is its :class:`MicroOp` record.  Appending
    makes no per-uop object.
    """

    def __init__(self, arch_regs: int = 32, base_pc: int = 0x1000) -> None:
        if not 0 <= base_pc <= _MASK64:
            raise ValueError(f"base pc {base_pc:#x} is not a 64-bit address")
        self.arch_regs = arch_regs
        #: The trace built so far (shared, not copied).
        self.ops = Trace()
        self.regs: Dict[int, int] = {r: 0 for r in range(arch_regs)}
        self.memory: Dict[int, int] = {}
        #: The fresh pcs: ``base_pc``, ``base_pc + 4``, ...
        self._fresh_pcs = itertools.count(base_pc, 4)
        #: Static-table index by ``(code, dest, srcs, data_srcs)``.
        self._statics: Dict[Tuple, int] = {}
        ops = self.ops
        self._pc_column = ops.pc
        self._append_index = ops.index.append
        self._append_pc = ops.pc.append
        self._append_addr = ops.addr.append
        self._append_value = ops.value.append
        self._append_mispredict = ops.mispredict.append
        #: One tuple object per distinct register tuple, so equal static
        #: instructions share their ``srcs``/``data_srcs``.
        self._regs: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        #: ``(r,)`` for every register, the most common tuple by far.
        self._one = [self._shared((r,)) for r in range(arch_regs)]

    # ------------------------------------------------------------------
    # memory image
    # ------------------------------------------------------------------
    def poke(self, addr: int, value: int) -> None:
        """Pre-install ``value`` at aligned word ``addr`` (no trace record)."""
        if not 0 <= value <= _MASK64:
            raise _bad_word("value", value)
        self.memory[word_addr(addr)] = value

    def peek(self, addr: int) -> int:
        """Read the memory image (default content if never written)."""
        waddr = addr & WORD_MASK
        value = self.memory.get(waddr)
        return default_memory_value(waddr) if value is None else value

    # ------------------------------------------------------------------
    # trace construction
    # ------------------------------------------------------------------
    def _emit(
        self,
        code: int,
        dest: Optional[int],
        srcs: Tuple[int, ...],
        data_srcs: Tuple[int, ...],
        addr: int,
        value: int,
        mispredict: bool,
        pc: Optional[int],
    ) -> int:
        """Append a micro-op whose fields the caller already validated.

        ``addr`` is 0 for a uop without one.  Returns its position.
        """
        if pc is None:
            pc = next(self._fresh_pcs)
        elif not 0 <= pc <= _MASK64:
            raise _bad_word("pc", pc)
        # The pc goes first: a failed append then leaves every column
        # as it was.
        self._append_pc(pc)
        key = (code, dest, srcs, data_srcs)
        k = self._statics.get(key)
        if k is None:
            k = self._add_static(key)
        self._append_index(k)
        self._append_addr(addr)
        self._append_value(value)
        self._append_mispredict(mispredict)
        return len(self._pc_column) - 1

    def _add_static(self, key: Tuple) -> int:
        code, dest, srcs, data_srcs = key
        opclass = _OPCLASSES[code // 3]
        ops = self.ops
        k = ops.add_static(
            (
                opclass,
                dest,
                srcs,
                data_srcs,
                _PREDICTIONS[code % 3],
                opclass is _LOAD or opclass is _STORE,
            )
        )
        self._statics[key] = k
        self._append_index = ops.index.append  # it may have widened
        return k

    def _shared(self, regs: Tuple[int, ...]) -> Tuple[int, ...]:
        """The program's one tuple equal to ``regs``."""
        return self._regs.setdefault(regs, regs)

    def li(self, dest: int, value: int, pc: Optional[int] = None) -> int:
        """Load-immediate (an ALU op with no sources)."""
        if not 0 <= dest < self.arch_regs:
            raise _bad_reg(dest, self.arch_regs)
        if not 0 <= value <= _MASK64:
            raise _bad_word("value", value)
        seq = self._emit(_C_ALU, dest, (), (), 0, value, False, pc)
        self.regs[dest] = value
        return seq

    def alu(
        self,
        dest: int,
        *srcs: int,
        opclass: OpClass = _ALU,
        pc: Optional[int] = None,
    ) -> int:
        """Register-to-register computation (ALU/MUL/DIV/FP).

        The interpreted result is a deterministic mix of the sources so that
        dependent address arithmetic stays reproducible.
        """
        if opclass is _LOAD or opclass is _STORE or opclass is _BRANCH:
            raise ValueError("alu() builds only computational micro-ops")
        arch_regs = self.arch_regs
        if not 0 <= dest < arch_regs:
            raise _bad_reg(dest, arch_regs)
        regs = self.regs
        result = 0
        for src in srcs:
            if not 0 <= src < arch_regs:
                raise _bad_reg(src, arch_regs)
            result = (result * 31 + regs[src]) & _MASK64
        code = _C_ALU if opclass is _ALU else 3 * _OPCLASS_CODES[opclass]
        seq = self._emit(code, dest, self._shared(srcs), (), 0, result, False, pc)
        regs[dest] = result
        return seq

    def add_imm(
        self, dest: int, src: int, imm: int, pc: Optional[int] = None
    ) -> int:
        """``dest = src + imm`` — preserves pointer arithmetic exactly."""
        arch_regs = self.arch_regs
        if not 0 <= dest < arch_regs:
            raise _bad_reg(dest, arch_regs)
        if not 0 <= src < arch_regs:
            raise _bad_reg(src, arch_regs)
        regs = self.regs
        result = (regs[src] + imm) & _MASK64
        seq = self._emit(_C_ALU, dest, self._one[src], (), 0, result, False, pc)
        regs[dest] = result
        return seq

    def load(
        self,
        dest: int,
        base: int,
        offset: int = 0,
        pc: Optional[int] = None,
        forced_prediction: Optional[MemPrediction] = None,
    ) -> int:
        """``load dest, [base + offset]`` — base is a register."""
        arch_regs = self.arch_regs
        if not 0 <= dest < arch_regs:
            raise _bad_reg(dest, arch_regs)
        if not 0 <= base < arch_regs:
            raise _bad_reg(base, arch_regs)
        regs = self.regs
        addr = (regs[base] + offset) & _MASK64
        value = self.peek(addr)
        code = _load_code(forced_prediction)
        seq = self._emit(code, dest, self._one[base], (), addr, value, False, pc)
        regs[dest] = value
        return seq

    def load_indexed(
        self,
        dest: int,
        base: int,
        index: int,
        offset: int = 0,
        pc: Optional[int] = None,
        forced_prediction: Optional[MemPrediction] = None,
    ) -> int:
        """``load dest, [base + index + offset]`` — two address sources.

        Models the multi-source micro-ops of paper §5.1.1: a load pair can
        form through *either* operand, and a multi-source-aware LPT checks
        both.
        """
        arch_regs = self.arch_regs
        for reg in (dest, base, index):
            if not 0 <= reg < arch_regs:
                raise _bad_reg(reg, arch_regs)
        regs = self.regs
        addr = (regs[base] + regs[index] + offset) & _MASK64
        value = self.peek(addr)
        srcs = self._shared((base, index))
        code = _load_code(forced_prediction)
        seq = self._emit(code, dest, srcs, (), addr, value, False, pc)
        regs[dest] = value
        return seq

    def load_abs(
        self,
        dest: int,
        addr: int,
        pc: Optional[int] = None,
        forced_prediction: Optional[MemPrediction] = None,
    ) -> int:
        """``load dest, [addr]`` — absolute address, no source register."""
        if not 0 <= dest < self.arch_regs:
            raise _bad_reg(dest, self.arch_regs)
        if not 0 <= addr <= _MASK64:
            raise _bad_word("address", addr)
        value = self.peek(addr)
        code = _load_code(forced_prediction)
        seq = self._emit(code, dest, (), (), addr, value, False, pc)
        self.regs[dest] = value
        return seq

    def store(
        self, src: int, base: int, offset: int = 0, pc: Optional[int] = None
    ) -> int:
        """``store src, [base + offset]``.

        The base register is the address source (``srcs``); the data
        register travels in ``data_srcs`` so address generation does not
        wait for the data.
        """
        arch_regs = self.arch_regs
        if not 0 <= src < arch_regs:
            raise _bad_reg(src, arch_regs)
        if not 0 <= base < arch_regs:
            raise _bad_reg(base, arch_regs)
        regs = self.regs
        addr = (regs[base] + offset) & _MASK64
        value = regs[src]
        one = self._one
        seq = self._emit(_C_STORE, None, one[base], one[src], addr, value, False, pc)
        self.memory[addr & WORD_MASK] = value
        return seq

    def store_abs(self, src: int, addr: int, pc: Optional[int] = None) -> int:
        """``store src, [addr]`` — absolute address, no address register."""
        if not 0 <= src < self.arch_regs:
            raise _bad_reg(src, self.arch_regs)
        if not 0 <= addr <= _MASK64:
            raise _bad_word("address", addr)
        value = self.regs[src]
        seq = self._emit(_C_STORE, None, (), self._one[src], addr, value, False, pc)
        self.memory[addr & WORD_MASK] = value
        return seq

    def branch(
        self, *srcs: int, mispredict: bool = False, pc: Optional[int] = None
    ) -> int:
        """Conditional branch reading ``srcs``; casts a speculation shadow."""
        arch_regs = self.arch_regs
        for src in srcs:
            if not 0 <= src < arch_regs:
                raise _bad_reg(src, arch_regs)
        seq = self._emit(
            _C_BRANCH, None, self._shared(srcs), (), 0, 0, bool(mispredict), pc
        )
        return seq

    def nop(self, pc: Optional[int] = None) -> int:
        """A no-op micro-op (consumes pipeline slots only)."""
        seq = self._emit(_C_NOP, None, (), (), 0, 0, False, pc)
        return seq

    # ------------------------------------------------------------------
    # consumption
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ops.pc)

    def __iter__(self) -> Iterator[MicroOp]:
        return iter(self.ops)

    def trace(self) -> Trace:
        """The built trace (shared, not copied)."""
        return self.ops
