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
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.isa.microop import MicroOp

__all__ = ["DecodedTrace", "RegisterFile", "decode_trace"]

EMPTY_TAINT: FrozenSet[int] = frozenset()


class DecodedTrace:
    """The physical registers of every uop of a trace, one column each.

    ``srcs[i]``/``data[i]`` are uop ``i``'s address-source and store-data
    physical registers (tuples shared between equal values) and
    ``dests[i]`` the register it allocates (``None`` without a
    destination).  A uop with a destination frees, at its commit, the
    register its destination was mapped to before it; the pipeline only
    needs to know *that* it frees one, which ``dests[i]`` says, so that
    register is not stored.  The decode of a trace's prefix is the
    prefix of its decode, so one decode serves every shorter length.
    """

    __slots__ = ("arch_regs", "phys_regs", "srcs", "data", "dests")

    def __init__(
        self,
        arch_regs: int,
        phys_regs: int,
        srcs: List[Tuple[int, ...]],
        data: List[Tuple[int, ...]],
        dests: List[Optional[int]],
    ) -> None:
        self.arch_regs = arch_regs
        self.phys_regs = phys_regs
        self.srcs = srcs
        self.data = data
        self.dests = dests

    def __len__(self) -> int:
        return len(self.srcs)


def decode_trace(
    trace: Sequence[MicroOp], arch_regs: int, phys_regs: int
) -> DecodedTrace:
    """Rename ``trace`` through a FIFO free list of ``phys_regs - arch_regs``."""
    if phys_regs <= arch_regs:
        raise ValueError("need more physical than architectural registers")
    rmap = list(range(arch_regs))
    free = collections.deque(range(arch_regs, phys_regs))
    popleft = free.popleft
    push = free.append
    shared: Dict[Tuple[int, ...], Tuple[int, ...]] = {(): ()}
    share = shared.setdefault
    srcs: List[Tuple[int, ...]] = []
    data: List[Tuple[int, ...]] = []
    dests: List[Optional[int]] = []
    srcs_append = srcs.append
    data_append = data.append
    dests_append = dests.append
    for uop in trace:
        regs = uop.srcs
        if not regs:
            srcs_append(())
        elif len(regs) == 1:
            phys = (rmap[regs[0]],)
            srcs_append(share(phys, phys))
        else:
            phys = tuple([rmap[a] for a in regs])
            srcs_append(share(phys, phys))
        regs = uop.data_srcs
        if regs:
            phys = tuple([rmap[a] for a in regs])
            data_append(share(phys, phys))
        else:
            data_append(())
        dest = uop.dest
        if dest is None:
            dests_append(None)
        else:
            # The list never runs dry here: each pop is followed by the
            # push of the register this uop frees at its commit.
            old = rmap[dest]
            rmap[dest] = new = popleft()
            push(old)
            dests_append(new)
    return DecodedTrace(arch_regs, phys_regs, srcs, data, dests)


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
