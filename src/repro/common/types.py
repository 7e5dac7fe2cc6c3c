"""Shared enumerations and elementary type aliases.

Everything in this module is intentionally tiny: these are the vocabulary
types used across the core model, the memory hierarchy, and the security
schemes.
"""

from __future__ import annotations

import enum

__all__ = [
    "OpClass",
    "SchemeKind",
    "CacheLevel",
    "MESIState",
    "MemPrediction",
    "SpeculationModel",
    "WORD_BYTES",
    "LINE_BYTES",
    "WORDS_PER_LINE",
    "LINE_MASK",
    "WORD_MASK",
    "line_addr",
    "word_index",
    "word_addr",
]

#: Size of an aligned machine word, in bytes.  ReCon reveals and conceals at
#: this granularity (paper section 4.4 / 6.7).
WORD_BYTES = 8

#: Cache line size, in bytes (Table 2).
LINE_BYTES = 64

#: Number of reveal/conceal bits per cache line.
WORDS_PER_LINE = LINE_BYTES // WORD_BYTES

#: ``addr & LINE_MASK`` is :func:`line_addr` and ``addr & WORD_MASK`` is
#: :func:`word_addr`; per-access hot paths inline these masks (and
#: ``(addr >> 3) & 7`` for :func:`word_index`) instead of calling.
LINE_MASK = ~(LINE_BYTES - 1)
WORD_MASK = ~(WORD_BYTES - 1)


class OpClass(enum.Enum):
    """Micro-op classes recognized by the pipeline model."""

    ALU = "alu"
    MUL = "mul"
    DIV = "div"
    FP = "fp"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    NOP = "nop"

    @property
    def is_memory(self) -> bool:
        return self in (OpClass.LOAD, OpClass.STORE)


class SchemeKind(enum.Enum):
    """Security scheme selector for a simulated core.

    The ``+recon`` variants optimize the base scheme with the paper's
    load-pair table and coherent reveal bits; the ``+spt`` variants use
    SPT-lite continuous DIFT instead (§2.3 — the high-complexity
    alternative, implemented as an ablation).
    """

    UNSAFE = "unsafe"
    NDA = "nda"
    STT = "stt"
    DOM = "dom"
    INVISPEC = "invispec"
    NDA_RECON = "nda+recon"
    STT_RECON = "stt+recon"
    DOM_RECON = "dom+recon"
    INVISPEC_RECON = "invispec+recon"
    NDA_SPT = "nda+spt"
    STT_SPT = "stt+spt"

    @property
    def uses_recon(self) -> bool:
        return self in (
            SchemeKind.NDA_RECON,
            SchemeKind.STT_RECON,
            SchemeKind.DOM_RECON,
            SchemeKind.INVISPEC_RECON,
        )

    @property
    def base(self) -> "SchemeKind":
        """The underlying secure scheme with the optimizer stripped off."""
        if self in (SchemeKind.NDA_RECON, SchemeKind.NDA_SPT):
            return SchemeKind.NDA
        if self in (SchemeKind.STT_RECON, SchemeKind.STT_SPT):
            return SchemeKind.STT
        if self is SchemeKind.DOM_RECON:
            return SchemeKind.DOM
        if self is SchemeKind.INVISPEC_RECON:
            return SchemeKind.INVISPEC
        return self


class SpeculationModel(enum.Enum):
    """Which instructions cast speculation shadows (paper §3.1, §6.1).

    * ``CONTROL_ONLY`` — the Spectre model: only branches.
    * ``CONTROL_AND_STORE`` — the paper's evaluated model: branches and
      stores (until address resolution).
    * ``FUTURISTIC`` — every load, store, and branch keeps younger
      instructions speculative until it completes (an approximation of
      STT's Futuristic model, where anything that may squash counts).
    """

    CONTROL_ONLY = "control"
    CONTROL_AND_STORE = "control+store"
    FUTURISTIC = "futuristic"


class CacheLevel(enum.IntEnum):
    """Cache levels; integer order matches distance from the core."""

    L1 = 1
    L2 = 2
    LLC = 3
    MEMORY = 4


class MESIState(enum.Enum):
    """Stable states of the directory MESI protocol."""

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"


class MemPrediction(enum.Enum):
    """Memory-dependence prediction outcome for a load (Table 1)."""

    MEM = "mem"  # predicted independent: go to the memory hierarchy
    STF = "stf"  # predicted dependent: wait and forward from the store


def line_addr(addr: int) -> int:
    """Return the cache-line base address containing ``addr``."""
    return addr & LINE_MASK


def word_index(addr: int) -> int:
    """Return the index of the aligned word within its cache line."""
    return (addr & (LINE_BYTES - 1)) // WORD_BYTES


def word_addr(addr: int) -> int:
    """Return the aligned 8-byte word address containing ``addr``."""
    return addr & WORD_MASK
