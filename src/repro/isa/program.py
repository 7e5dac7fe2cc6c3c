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

from repro.common.types import WORD_MASK, MemPrediction, OpClass, word_addr
from repro.isa.microop import MicroOp

__all__ = ["Program", "default_memory_value"]

# Enum members bound once (see repro.isa.microop): trace generation
# appends hundreds of thousands of uops.
_ALU = OpClass.ALU
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_BRANCH = OpClass.BRANCH
_NOP = OpClass.NOP

_MASK64 = 0xFFFFFFFFFFFFFFFF
_new_op = MicroOp.__new__


#: Positions at or past this many get fresh ints (each through the slow
#: path of :meth:`Program._emit`): a full table holds about 40 MB of ints
#: (32 bytes each plus an 8-byte slot), while a trace that long costs
#: about 150 MB itself.
POSITIONS_CAP = 1 << 20

#: Process-wide position ints: ``_SEQS[i] == i`` and, per base pc,
#: ``_PCS[base][i] == base + 4 * i``.  Every trace numbers its uops
#: 0, 1, 2, ... and takes fresh pcs from the same base, so its ``seq``
#: and fresh ``pc`` ints are shared with every other trace built in the
#: process instead of costing two int objects per uop.  The tables grow
#: on demand, in chunks, up to :data:`POSITIONS_CAP`.
_SEQS: List[int] = []
_PCS: Dict[int, List[int]] = {}


def _position(table: List[int], start: int, step: int, index: int) -> int:
    """``start + step * index``, from ``table`` (grown to hold it) if
    ``index`` is under the cap; ``table[i] == start + step * i``."""
    if index >= POSITIONS_CAP:
        return start + step * index
    size = min(max(2 * len(table), index + 1, 4096), POSITIONS_CAP)
    table.extend(range(start + step * len(table), start + step * size, step))
    return table[index]


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


class Program:
    """Builds a micro-op trace while interpreting it functionally.

    Args:
        arch_regs: size of the architectural register namespace.
        base_pc: starting program counter; each appended micro-op gets a
            fresh pc unless ``pc`` is passed explicitly (loops reuse pcs).

    Every builder method checks its registers inline (``0 <= reg <
    arch_regs``, else :class:`ValueError`) before it changes any state,
    and emits through :meth:`_emit`, which skips the checks of
    :class:`MicroOp`'s constructor: each method builds only micro-ops
    that pass them.
    """

    def __init__(self, arch_regs: int = 32, base_pc: int = 0x1000) -> None:
        self.arch_regs = arch_regs
        self.ops: List[MicroOp] = []
        self.regs: Dict[int, int] = {r: 0 for r in range(arch_regs)}
        self.memory: Dict[int, int] = {}
        self._base_pc = base_pc
        #: Fresh pcs handed out so far; the next is ``base_pc + 4 * n``.
        self._fresh_pcs = 0
        self._pcs = _PCS.setdefault(base_pc, [])
        #: One tuple object per distinct register tuple: a trace holds
        #: tens of thousands of ``srcs``/``data_srcs`` over a few dozen
        #: values, and a tuple costs 48+ bytes.
        self._regs: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        #: ``(r,)`` for every register, the most common tuple by far.
        self._one = [self._shared((r,)) for r in range(arch_regs)]

    # ------------------------------------------------------------------
    # memory image
    # ------------------------------------------------------------------
    def poke(self, addr: int, value: int) -> None:
        """Pre-install ``value`` at aligned word ``addr`` (no trace record)."""
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
        opclass: OpClass,
        dest: Optional[int],
        srcs: Tuple[int, ...],
        data_srcs: Tuple[int, ...],
        addr: Optional[int],
        value: int,
        mispredict: bool,
        forced_prediction: Optional[MemPrediction],
        pc: Optional[int],
    ) -> MicroOp:
        """Append a micro-op whose fields the caller already validated."""
        op = _new_op(MicroOp)
        ops = self.ops
        seq = len(ops)
        # The shared tables rarely lack a position, so a lookup that
        # raises is cheaper than one guarded by a length check.
        try:
            op.seq = _SEQS[seq]
        except IndexError:
            op.seq = _position(_SEQS, 0, 1, seq)
        if pc is None:
            n = self._fresh_pcs
            self._fresh_pcs = n + 1
            try:
                pc = self._pcs[n]
            except IndexError:
                pc = _position(self._pcs, self._base_pc, 4, n)
        op.pc = pc
        op.opclass = opclass
        op.dest = dest
        op.srcs = srcs
        op.data_srcs = data_srcs
        op.addr = addr
        op.value = value
        op.mispredict = mispredict
        op.forced_prediction = forced_prediction
        ops.append(op)
        return op

    def _shared(self, regs: Tuple[int, ...]) -> Tuple[int, ...]:
        """The program's one tuple equal to ``regs``."""
        return self._regs.setdefault(regs, regs)

    def li(self, dest: int, value: int, pc: Optional[int] = None) -> MicroOp:
        """Load-immediate (an ALU op with no sources)."""
        if not 0 <= dest < self.arch_regs:
            raise _bad_reg(dest, self.arch_regs)
        self.regs[dest] = value
        return self._emit(_ALU, dest, (), (), None, value, False, None, pc)

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
        arch_regs = self.arch_regs
        if not 0 <= dest < arch_regs:
            raise _bad_reg(dest, arch_regs)
        regs = self.regs
        result = 0
        for src in srcs:
            if not 0 <= src < arch_regs:
                raise _bad_reg(src, arch_regs)
            result = (result * 31 + regs[src]) & _MASK64
        regs[dest] = result
        return self._emit(
            opclass, dest, self._shared(srcs), (), None, result, False, None, pc
        )

    def add_imm(
        self, dest: int, src: int, imm: int, pc: Optional[int] = None
    ) -> MicroOp:
        """``dest = src + imm`` — preserves pointer arithmetic exactly."""
        arch_regs = self.arch_regs
        if not 0 <= dest < arch_regs:
            raise _bad_reg(dest, arch_regs)
        if not 0 <= src < arch_regs:
            raise _bad_reg(src, arch_regs)
        regs = self.regs
        result = (regs[src] + imm) & _MASK64
        regs[dest] = result
        return self._emit(
            _ALU, dest, self._one[src], (), None, result, False, None, pc
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
        arch_regs = self.arch_regs
        if not 0 <= dest < arch_regs:
            raise _bad_reg(dest, arch_regs)
        if not 0 <= base < arch_regs:
            raise _bad_reg(base, arch_regs)
        regs = self.regs
        addr = (regs[base] + offset) & _MASK64
        value = self.peek(addr)
        regs[dest] = value
        return self._emit(
            _LOAD, dest, self._one[base], (), addr, value, False, forced_prediction, pc
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
        arch_regs = self.arch_regs
        for reg in (dest, base, index):
            if not 0 <= reg < arch_regs:
                raise _bad_reg(reg, arch_regs)
        regs = self.regs
        addr = (regs[base] + regs[index] + offset) & _MASK64
        value = self.peek(addr)
        regs[dest] = value
        srcs = self._shared((base, index))
        return self._emit(
            _LOAD, dest, srcs, (), addr, value, False, forced_prediction, pc
        )

    def load_abs(
        self,
        dest: int,
        addr: int,
        pc: Optional[int] = None,
        forced_prediction: Optional[MemPrediction] = None,
    ) -> MicroOp:
        """``load dest, [addr]`` — absolute address, no source register."""
        if not 0 <= dest < self.arch_regs:
            raise _bad_reg(dest, self.arch_regs)
        value = self.peek(addr)
        self.regs[dest] = value
        return self._emit(
            _LOAD, dest, (), (), addr, value, False, forced_prediction, pc
        )

    def store(
        self, src: int, base: int, offset: int = 0, pc: Optional[int] = None
    ) -> MicroOp:
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
        self.memory[addr & WORD_MASK] = value
        one = self._one
        return self._emit(
            _STORE, None, one[base], one[src], addr, value, False, None, pc
        )

    def store_abs(self, src: int, addr: int, pc: Optional[int] = None) -> MicroOp:
        """``store src, [addr]`` — absolute address, no address register."""
        if not 0 <= src < self.arch_regs:
            raise _bad_reg(src, self.arch_regs)
        value = self.regs[src]
        self.memory[addr & WORD_MASK] = value
        return self._emit(
            _STORE, None, (), self._one[src], addr, value, False, None, pc
        )

    def branch(
        self, *srcs: int, mispredict: bool = False, pc: Optional[int] = None
    ) -> MicroOp:
        """Conditional branch reading ``srcs``; casts a speculation shadow."""
        arch_regs = self.arch_regs
        for src in srcs:
            if not 0 <= src < arch_regs:
                raise _bad_reg(src, arch_regs)
        return self._emit(
            _BRANCH, None, self._shared(srcs), (), None, 0, mispredict, None, pc
        )

    def nop(self, pc: Optional[int] = None) -> MicroOp:
        """A no-op micro-op (consumes pipeline slots only)."""
        return self._emit(_NOP, None, (), (), None, 0, False, None, pc)

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
