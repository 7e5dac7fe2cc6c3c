"""A global dynamic information-flow tracking (DIFT) engine over traces.

This is the reproduction of the tracking core of *Clueless* (Chen et al.,
2023), the tool the paper uses to characterize non-speculative leakage
(§6.1-6.2).  It runs over the architectural (in-order) trace — Clueless
does not model speculation — and answers: *which memory words have had
their contents turned into an address* (i.e. leaked through a cache
side-channel) at any point of the execution?

Tracking rules:

* each register carries a *source set* — the memory word addresses whose
  contents the register's value is derived from;
* ``load r, [addr]`` sets ``sources(r) = {addr} | mem_sources(addr)``
  (the loaded value lives at ``addr``, and at every location the stored
  value was itself derived from);
* computation unions the source sets of its operands;
* ``store r, [addr]`` sets ``mem_sources(addr) = sources(r)`` and — because
  the word now holds a *new* value that has not been observed — clears
  ``addr``'s leaked status;
* when a memory access computes its address from registers, every address
  in those registers' source sets is **leaked**: the value stored there was
  exposed as an address to the memory hierarchy.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set

from repro.common.types import OpClass, word_addr
from repro.isa.microop import MicroOp

__all__ = ["DiftEngine"]

_EMPTY: FrozenSet[int] = frozenset()


class DiftEngine:
    """Global DIFT over an architectural trace."""

    def __init__(self, arch_regs: int = 32) -> None:
        self._reg_sources: Dict[int, FrozenSet[int]] = {
            r: _EMPTY for r in range(arch_regs)
        }
        self._mem_sources: Dict[int, FrozenSet[int]] = {}
        #: Words whose contents are currently leaked.
        self.leaked: Set[int] = set()
        #: All words the program has touched (its data footprint).
        self.footprint: Set[int] = set()
        #: Peak size of ``leaked`` over the run.
        self.peak_leaked = 0

    def step(self, uop: MicroOp) -> None:
        """Process one micro-op in architectural order."""
        opclass = uop.opclass
        if opclass is OpClass.LOAD:
            self._leak_address_sources(uop)
            addr = word_addr(uop.addr)  # type: ignore[arg-type]
            self.footprint.add(addr)
            sources = frozenset({addr}) | self._mem_sources.get(addr, _EMPTY)
            assert uop.dest is not None
            self._reg_sources[uop.dest] = sources
        elif opclass is OpClass.STORE:
            self._leak_address_sources(uop)
            addr = word_addr(uop.addr)  # type: ignore[arg-type]
            self.footprint.add(addr)
            data_reg = uop.data_srcs[0] if uop.data_srcs else None
            self._mem_sources[addr] = (
                self._reg_sources[data_reg] if data_reg is not None else _EMPTY
            )
            # The word holds a fresh value: no longer leaked.
            self.leaked.discard(addr)
        elif opclass is OpClass.BRANCH:
            # Control dependencies are implicit channels; Clueless (and
            # ReCon) focus on explicit leakage, so branches do not leak.
            pass
        elif uop.dest is not None:
            combined = _EMPTY
            for src in uop.srcs:
                combined |= self._reg_sources[src]
            self._reg_sources[uop.dest] = combined

    def _leak_address_sources(self, uop: MicroOp) -> None:
        """The address-forming registers' sources become leaked.

        ``uop.srcs`` of a memory op holds exactly the address-forming
        registers (a store's data register lives in ``data_srcs``).
        """
        changed = False
        for reg in uop.srcs:
            sources = self._reg_sources[reg]
            if sources:
                before = len(self.leaked)
                self.leaked.update(sources)
                changed = changed or len(self.leaked) != before
        if changed and len(self.leaked) > self.peak_leaked:
            self.peak_leaked = len(self.leaked)
