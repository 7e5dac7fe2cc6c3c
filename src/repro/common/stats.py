"""Simulation statistics.

A :class:`StatSet` is a typed bag of counters that every component of the
simulated system writes into.  Keeping them in one flat structure makes the
reporting layer (and the figure benches) trivial.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

__all__ = ["StatSet"]


@dataclasses.dataclass
class StatSet:
    """Counters collected during one simulated run of one core."""

    # --- progress -----------------------------------------------------
    cycles: int = 0
    committed_uops: int = 0
    committed_loads: int = 0
    committed_stores: int = 0
    committed_branches: int = 0
    mispredicted_branches: int = 0

    # --- security-scheme activity --------------------------------------
    #: Loads whose destination was tainted at execute (STT family).
    tainted_loads: int = 0
    #: Loads whose issue was delayed by the security scheme.
    delayed_loads: int = 0
    #: Total cycles of issue delay attributed to the security scheme.
    delay_cycles: int = 0
    #: Loads whose broadcast was deferred (NDA family).
    deferred_broadcasts: int = 0
    #: Memory-order violations (load read stale data past an older store).
    mem_order_violations: int = 0

    # --- ReCon ---------------------------------------------------------
    #: Load pairs detected at commit (reveal requests sent to L1).
    load_pairs_detected: int = 0
    #: Reveal requests dropped because of an LPT conflict/miss.
    lpt_conflicts: int = 0
    #: Speculative loads that found their word revealed (defense lifted).
    reveal_hits: int = 0
    #: Speculative loads that found their word concealed.
    reveal_misses: int = 0
    #: Words concealed by performed stores.
    words_concealed: int = 0

    # --- memory hierarchy ----------------------------------------------
    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    llc_hits: int = 0
    llc_misses: int = 0
    #: Coherence transactions initiated (GetS/GetM/upgrades/writebacks).
    coherence_transactions: int = 0
    invalidations: int = 0
    #: Reveal bit-vectors merged (OR-ed) into the directory.
    bitvector_merges: int = 0
    #: Store-to-load forwards from SQ/SB.
    store_forwards: int = 0

    # --- transaction engine (port/MSHR/NoC/DRAM contention) ------------
    #: Secondary misses merged into an outstanding MSHR entry.
    mshr_hits_under_miss: int = 0
    #: Cycles primary misses waited for a free MSHR entry.
    mshr_stall_cycles: int = 0
    #: Cycles transactions waited for a master-port grant.
    port_stall_cycles: int = 0
    #: Cycles interconnect messages queued for a link slot.
    noc_queue_cycles: int = 0
    #: Cycles DRAM fetches waited in the bounded channel queue.
    dram_queue_cycles: int = 0

    @property
    def ipc(self) -> float:
        """Committed micro-ops per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.committed_uops / self.cycles

    def as_dict(self) -> Dict[str, int]:
        """All counters as a plain dict (floats excluded)."""
        return {name: getattr(self, name) for name in _FIELD_NAMES}

    def snapshot(self) -> "StatSet":
        """A copy of the current counter values."""
        return dataclasses.replace(self)

    def delta(self, baseline: "StatSet") -> "StatSet":
        """Counters accumulated since ``baseline`` (a prior snapshot).

        Used to exclude warm-up from measurements: ``cycles`` subtracts
        like every other counter.
        """
        result = StatSet()
        for field in dataclasses.fields(self):
            setattr(
                result,
                field.name,
                getattr(self, field.name) - getattr(baseline, field.name),
            )
        return result

    def merge(self, other: "StatSet") -> None:
        """Accumulate ``other`` into this set (cycles take the max).

        Used to aggregate per-core stats of a multicore run: counters add
        up, while ``cycles`` becomes the parallel execution time.
        """
        for field in dataclasses.fields(self):
            if field.name == "cycles":
                self.cycles = max(self.cycles, other.cycles)
            else:
                setattr(
                    self,
                    field.name,
                    getattr(self, field.name) + getattr(other, field.name),
                )


#: Counter names in declaration order (the order ``as_dict`` keeps).
_FIELD_NAMES = tuple(field.name for field in dataclasses.fields(StatSet))
