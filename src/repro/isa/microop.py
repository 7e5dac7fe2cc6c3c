"""Micro-op representation.

The simulator is trace driven: a workload is a sequence of
:class:`MicroOp` records with architectural-register dataflow, resolved
memory addresses, and branch outcomes.  This mirrors what the paper's gem5
O3 pipeline sees after decode (section 4.3 notes that CISC instructions are
cracked into RISC micro-ops, which is the level ReCon operates at).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.common.types import MemPrediction, OpClass

__all__ = ["MicroOp"]

# Enum members bound once: every generated uop checks its class, and
# ``OpClass.X`` / ``OpClass.is_memory`` cost a lookup or a call each time.
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_BRANCH = OpClass.BRANCH


class MicroOp:
    """One dynamic micro-op in a trace.

    Attributes:
        seq: position in the dynamic trace (set when appended to a program).
        pc: static program counter (used by predictors and reporting).
        opclass: the :class:`~repro.common.types.OpClass`.
        dest: destination architectural register, or ``None``.
        srcs: source architectural registers.  For memory ops these are the
            *address-forming* registers (base register first); a store's
            data register lives in ``data_srcs`` so that address generation
            — which resolves the store's speculation shadow — does not wait
            for the data to be produced.
        data_srcs: a store's data register(s); empty for everything else.
        addr: resolved effective address for memory ops, else ``None``.
        value: value loaded or stored (used by analysis tools and tests).
        mispredict: for branches, whether the predictor got it wrong.
        forced_prediction: overrides the memory-dependence predictor for
            this load (used by the Table 1 reproduction), or ``None``.
    """

    __slots__ = (
        "seq",
        "pc",
        "opclass",
        "dest",
        "srcs",
        "data_srcs",
        "addr",
        "value",
        "mispredict",
        "forced_prediction",
    )

    def __init__(
        self,
        opclass: OpClass,
        dest: Optional[int] = None,
        srcs: Tuple[int, ...] = (),
        addr: Optional[int] = None,
        value: int = 0,
        pc: int = 0,
        mispredict: bool = False,
        forced_prediction: Optional[MemPrediction] = None,
        data_srcs: Tuple[int, ...] = (),
    ) -> None:
        if (opclass is _LOAD or opclass is _STORE) and addr is None:
            raise ValueError(f"{opclass} micro-op requires an address")
        if opclass is _LOAD and dest is None:
            raise ValueError("load micro-op requires a destination register")
        if data_srcs and opclass is not _STORE:
            raise ValueError("only stores carry data source registers")
        self.seq = -1
        self.pc = pc
        self.opclass = opclass
        self.dest = dest
        self.srcs = srcs
        self.data_srcs = data_srcs
        self.addr = addr
        self.value = value
        self.mispredict = mispredict
        self.forced_prediction = forced_prediction

    @property
    def is_load(self) -> bool:
        return self.opclass is _LOAD

    @property
    def is_store(self) -> bool:
        return self.opclass is _STORE

    @property
    def is_branch(self) -> bool:
        return self.opclass is _BRANCH

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = [f"#{self.seq}", self.opclass.value]
        if self.dest is not None:
            fields.append(f"r{self.dest}<-")
        if self.srcs:
            fields.append(",".join(f"r{s}" for s in self.srcs))
        if self.addr is not None:
            fields.append(f"[{self.addr:#x}]")
        if self.mispredict:
            fields.append("MISP")
        return f"<MicroOp {' '.join(fields)}>"
