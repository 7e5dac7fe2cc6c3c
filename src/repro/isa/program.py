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

from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.types import MemPrediction, OpClass, word_addr
from repro.isa.microop import MicroOp

__all__ = ["Program", "default_memory_value"]

# Enum members bound once (see repro.isa.microop): trace generation
# appends hundreds of thousands of uops.
_ALU = OpClass.ALU
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_BRANCH = OpClass.BRANCH


def default_memory_value(addr: int) -> int:
    """Deterministic pseudo-content for memory never written by the program.

    A cheap integer hash keeps values reproducible without storing an image
    of all of memory.
    """
    x = (addr * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 29
    return x


class Program:
    """Builds a micro-op trace while interpreting it functionally.

    Args:
        arch_regs: size of the architectural register namespace.
        base_pc: starting program counter; each appended micro-op gets a
            fresh pc unless ``pc`` is passed explicitly (loops reuse pcs).
    """

    def __init__(self, arch_regs: int = 32, base_pc: int = 0x1000) -> None:
        self.arch_regs = arch_regs
        self.ops: List[MicroOp] = []
        self.regs: Dict[int, int] = {r: 0 for r in range(arch_regs)}
        self.memory: Dict[int, int] = {}
        self._next_pc = base_pc
        #: One tuple object per distinct register tuple: a trace holds
        #: tens of thousands of ``srcs``/``data_srcs`` over a few dozen
        #: values, and a tuple costs 48+ bytes.
        self._regs: Dict[Tuple[int, ...], Tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # memory image
    # ------------------------------------------------------------------
    def poke(self, addr: int, value: int) -> None:
        """Pre-install ``value`` at aligned word ``addr`` (no trace record)."""
        self.memory[word_addr(addr)] = value

    def peek(self, addr: int) -> int:
        """Read the memory image (default content if never written)."""
        waddr = word_addr(addr)
        if waddr in self.memory:
            return self.memory[waddr]
        return default_memory_value(waddr)

    # ------------------------------------------------------------------
    # trace construction
    # ------------------------------------------------------------------
    def _append(self, op: MicroOp, pc: Optional[int]) -> MicroOp:
        if pc is None:
            op.pc = self._next_pc
            self._next_pc += 4
        else:
            op.pc = pc
        op.seq = len(self.ops)
        self.ops.append(op)
        return op

    def _shared(self, regs: Tuple[int, ...]) -> Tuple[int, ...]:
        """The program's one tuple equal to ``regs``."""
        return self._regs.setdefault(regs, regs)

    def _check_reg(self, reg: int) -> None:
        if not 0 <= reg < self.arch_regs:
            raise ValueError(f"register r{reg} outside namespace of {self.arch_regs}")

    def li(self, dest: int, value: int, pc: Optional[int] = None) -> MicroOp:
        """Load-immediate (an ALU op with no sources)."""
        self._check_reg(dest)
        self.regs[dest] = value
        return self._append(
            MicroOp(_ALU, dest=dest, srcs=(), value=value), pc
        )

    def alu(
        self,
        dest: int,
        *srcs: int,
        opclass: OpClass = _ALU,
        pc: Optional[int] = None,
    ) -> MicroOp:
        """Register-to-register computation (ALU/MUL/DIV/FP).

        The interpreted result is a deterministic mix of the sources so that
        dependent address arithmetic stays reproducible.
        """
        if opclass is _LOAD or opclass is _STORE or opclass is _BRANCH:
            raise ValueError("alu() builds only computational micro-ops")
        self._check_reg(dest)
        for src in srcs:
            self._check_reg(src)
        result = 0
        for src in srcs:
            result = (result * 31 + self.regs[src]) & 0xFFFFFFFFFFFFFFFF
        self.regs[dest] = result
        return self._append(
            MicroOp(opclass, dest=dest, srcs=self._shared(srcs), value=result),
            pc,
        )

    def add_imm(
        self, dest: int, src: int, imm: int, pc: Optional[int] = None
    ) -> MicroOp:
        """``dest = src + imm`` — preserves pointer arithmetic exactly."""
        self._check_reg(dest)
        self._check_reg(src)
        result = (self.regs[src] + imm) & 0xFFFFFFFFFFFFFFFF
        self.regs[dest] = result
        return self._append(
            MicroOp(_ALU, dest=dest, srcs=self._shared((src,)), value=result), pc
        )

    def load(
        self,
        dest: int,
        base: int,
        offset: int = 0,
        pc: Optional[int] = None,
        forced_prediction: Optional[MemPrediction] = None,
    ) -> MicroOp:
        """``load dest, [base + offset]`` — base is a register."""
        self._check_reg(dest)
        self._check_reg(base)
        addr = (self.regs[base] + offset) & 0xFFFFFFFFFFFFFFFF
        value = self.peek(addr)
        self.regs[dest] = value
        return self._append(
            MicroOp(
                _LOAD,
                dest=dest,
                srcs=self._shared((base,)),
                addr=addr,
                value=value,
                forced_prediction=forced_prediction,
            ),
            pc,
        )

    def load_indexed(
        self,
        dest: int,
        base: int,
        index: int,
        offset: int = 0,
        pc: Optional[int] = None,
        forced_prediction: Optional[MemPrediction] = None,
    ) -> MicroOp:
        """``load dest, [base + index + offset]`` — two address sources.

        Models the multi-source micro-ops of paper §5.1.1: a load pair can
        form through *either* operand, and a multi-source-aware LPT checks
        both.
        """
        self._check_reg(dest)
        self._check_reg(base)
        self._check_reg(index)
        addr = (self.regs[base] + self.regs[index] + offset) & 0xFFFFFFFFFFFFFFFF
        value = self.peek(addr)
        self.regs[dest] = value
        return self._append(
            MicroOp(
                _LOAD,
                dest=dest,
                srcs=self._shared((base, index)),
                addr=addr,
                value=value,
                forced_prediction=forced_prediction,
            ),
            pc,
        )

    def load_abs(
        self,
        dest: int,
        addr: int,
        pc: Optional[int] = None,
        forced_prediction: Optional[MemPrediction] = None,
    ) -> MicroOp:
        """``load dest, [addr]`` — absolute address, no source register."""
        self._check_reg(dest)
        value = self.peek(addr)
        self.regs[dest] = value
        return self._append(
            MicroOp(
                _LOAD,
                dest=dest,
                srcs=(),
                addr=addr,
                value=value,
                forced_prediction=forced_prediction,
            ),
            pc,
        )

    def store(
        self, src: int, base: int, offset: int = 0, pc: Optional[int] = None
    ) -> MicroOp:
        """``store src, [base + offset]``.

        The base register is the address source (``srcs``); the data
        register travels in ``data_srcs`` so address generation does not
        wait for the data.
        """
        self._check_reg(src)
        self._check_reg(base)
        addr = (self.regs[base] + offset) & 0xFFFFFFFFFFFFFFFF
        value = self.regs[src]
        self.memory[word_addr(addr)] = value
        return self._append(
            MicroOp(
                _STORE,
                srcs=self._shared((base,)),
                data_srcs=self._shared((src,)),
                addr=addr,
                value=value,
            ),
            pc,
        )

    def store_abs(self, src: int, addr: int, pc: Optional[int] = None) -> MicroOp:
        """``store src, [addr]`` — absolute address, no address register."""
        self._check_reg(src)
        value = self.regs[src]
        self.memory[word_addr(addr)] = value
        return self._append(
            MicroOp(
                _STORE,
                srcs=(),
                data_srcs=self._shared((src,)),
                addr=addr,
                value=value,
            ),
            pc,
        )

    def branch(
        self, *srcs: int, mispredict: bool = False, pc: Optional[int] = None
    ) -> MicroOp:
        """Conditional branch reading ``srcs``; casts a speculation shadow."""
        for src in srcs:
            self._check_reg(src)
        return self._append(
            MicroOp(_BRANCH, srcs=self._shared(srcs), mispredict=mispredict), pc
        )

    def nop(self, pc: Optional[int] = None) -> MicroOp:
        """A no-op micro-op (consumes pipeline slots only)."""
        return self._append(MicroOp(OpClass.NOP), pc)

    # ------------------------------------------------------------------
    # consumption
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[MicroOp]:
        return iter(self.ops)

    def trace(self) -> List[MicroOp]:
        """The built micro-op list (shared, not copied)."""
        return self.ops
