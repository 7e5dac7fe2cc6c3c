"""Register renaming and the physical register file.

The rename stage maps architectural to physical registers so that the
load-pair table — which the paper indexes by *physical* register ids
(§5.1) — can be modeled faithfully, and so that register dataflow in the
issue stage is unambiguous when multiple dynamic instances of the same
static instruction are in flight.

Renaming is a pure function of the trace.  The free list is a FIFO:
dispatch pops its head and commit appends the register a uop frees,
both in program order.  So the k-th allocation always receives the k-th
element of "initial free list ++ registers freed in commit order",
whatever the scheme or the timing; timing only decides *when* that
element is available.  :func:`decode_trace` therefore renames a trace
once, for every scheme that runs it, and the pipeline keeps only a count
of free registers to stall dispatch when the list would be empty.
"""

from __future__ import annotations

import collections
from array import array
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.isa.microop import MicroOp
from repro.isa.trace import as_trace

__all__ = ["DecodedTrace", "RegisterFile", "decode_trace", "operand_shape"]

EMPTY_TAINT: FrozenSet[int] = frozenset()

#: A uop's physical address-source and store-data registers.
Operands = Tuple[Tuple[int, ...], Tuple[int, ...]]

#: :func:`operand_shape` of a static instruction whose registers do not
#: fit the columns (more than two address sources or more than one data
#: register): its uops' registers are in :attr:`DecodedTrace.wide`.
WIDE = 6


def operand_shape(srcs: Tuple[int, ...], data_srcs: Tuple[int, ...]) -> int:
    """Which decode columns hold a uop's registers, from its static
    instruction: ``len(srcs) + 3 * len(data_srcs)``, or :data:`WIDE`."""
    if len(srcs) <= 2 and len(data_srcs) <= 1:
        return len(srcs) + 3 * len(data_srcs)
    return WIDE


class DecodedTrace:
    """The physical registers of every uop of a trace, in typed columns.

    ``src0[i]``/``src1[i]`` are uop ``i``'s first and second
    address-source physical registers, ``data[i]`` its store-data
    register and ``dests[i]`` the register it allocates, each -1 where
    there is none.  A uop with more registers than that (its static
    instruction's :func:`operand_shape` is :data:`WIDE`) has its
    ``(srcs, data)`` tuples in ``wide[i]``; no generated trace has one.
    A uop with a destination frees, at its commit, the register its
    destination was mapped to before it; the pipeline only needs to know
    *that* it frees one, which ``dests[i]`` says, so that register is
    not stored.  The decode of a trace's prefix is the prefix of its
    decode, so one decode serves every shorter length.
    """

    __slots__ = (
        "arch_regs",
        "phys_regs",
        "src0",
        "src1",
        "data",
        "dests",
        "wide",
    )

    def __init__(
        self,
        arch_regs: int,
        phys_regs: int,
        src0: array,
        src1: array,
        data: array,
        dests: array,
        wide: Dict[int, Operands],
    ) -> None:
        self.arch_regs = arch_regs
        self.phys_regs = phys_regs
        self.src0 = src0
        self.src1 = src1
        self.data = data
        self.dests = dests
        self.wide = wide

    def __len__(self) -> int:
        return len(self.dests)

    def sources(self, i: int) -> Operands:
        """Uop ``i``'s ``(srcs, data)`` physical registers."""
        if i in self.wide:
            return self.wide[i]
        first = self.src0[i]
        second = self.src1[i]
        data = self.data[i]
        if first < 0:
            srcs: Tuple[int, ...] = ()
        elif second < 0:
            srcs = (first,)
        else:
            srcs = (first, second)
        return srcs, (() if data < 0 else (data,))


def decode_trace(
    trace: Sequence[MicroOp], arch_regs: int, phys_regs: int
) -> DecodedTrace:
    """Rename ``trace`` through a FIFO free list of ``phys_regs - arch_regs``."""
    if phys_regs <= arch_regs:
        raise ValueError("need more physical than architectural registers")
    trace = as_trace(trace)
    # The extra last entry maps "no register" (-1) to itself.
    rmap = list(range(arch_regs)) + [-1]
    free = collections.deque(range(arch_regs, phys_regs))
    popleft = free.popleft
    push = free.append
    code = "h" if phys_regs <= 1 << 15 else "i"
    src0, src1, data, dests = (array(code) for _ in range(4))
    wide: Dict[int, Operands] = {}
    src0_append = src0.append
    src1_append = src1.append
    data_append = data.append
    dests_append = dests.append
    # Per static instruction: its destination, and its first and second
    # address sources and data register (-1 for none), or None where
    # they do not fit the columns.
    shapes = []
    for _, dest, srcs, data_srcs, _, _ in trace.statics:
        regs = None
        if operand_shape(srcs, data_srcs) != WIDE:
            regs = (
                srcs[0] if srcs else -1,
                srcs[1] if len(srcs) == 2 else -1,
                data_srcs[0] if data_srcs else -1,
            )
        shapes.append((dest, regs, srcs, data_srcs))
    for i, k in enumerate(trace.index[: len(trace)]):
        dest, regs, srcs, data_srcs = shapes[k]
        if regs is None:
            wide[i] = (
                tuple([rmap[a] for a in srcs]),
                tuple([rmap[a] for a in data_srcs]),
            )
            src0_append(-1)
            src1_append(-1)
            data_append(-1)
        else:
            first, second, stored = regs
            src0_append(rmap[first])
            src1_append(rmap[second])
            data_append(rmap[stored])
        if dest is None:
            dests_append(-1)
        else:
            # The list never runs dry here: each pop is followed by the
            # push of the register this uop frees at its commit.
            old = rmap[dest]
            rmap[dest] = new = popleft()
            push(old)
            dests_append(new)
    return DecodedTrace(arch_regs, phys_regs, src0, src1, data, dests, wide)


class RegisterFile:
    """Per-physical-register state and the count of free registers.

    Per-physical-register state: a ready bit (value has been broadcast),
    a taint root-set (used by STT; empty elsewhere) and the consumers
    waiting for the value.  Which register a uop gets is decided by
    :func:`decode_trace`; ``free`` only tells dispatch whether the FIFO
    free list would have one.
    """

    def __init__(self, arch_regs: int, phys_regs: int) -> None:
        if phys_regs <= arch_regs:
            raise ValueError("need more physical than architectural registers")
        self.arch_regs = arch_regs
        self.phys_regs = phys_regs
        self.free = phys_regs - arch_regs
        self.ready: List[bool] = [True] * arch_regs + [False] * (
            phys_regs - arch_regs
        )
        self.taint: List[FrozenSet[int]] = [EMPTY_TAINT] * phys_regs
        #: Consumers waiting on a physical register, filled by the pipeline.
        self.waiters: Dict[int, list] = {}
