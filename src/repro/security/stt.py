"""Speculative Taint Tracking (Yu et al., MICRO 2019; paper §2.2).

The output of a speculative load is tainted with the load itself as root.
Taint flows through register dataflow; *transmitters* — loads and store
address generation (explicit channels) and branch resolution (implicit
channels) — may not proceed while an operand is effectively tainted.
A root becomes safe (automatic untaint of everything derived from it)
when its load reaches the visibility point.

With ReCon (§5.4), a speculative load to a revealed word does not taint
its destination, so its dependents execute freely.
"""

from __future__ import annotations

import heapq
from typing import FrozenSet, List, Set, Tuple

from repro.common.stats import StatSet
from repro.security.policy import SecurityPolicy
from repro.telemetry.events import CAT_SECURITY

__all__ = ["SttPolicy"]


class SttPolicy(SecurityPolicy):
    """STT with Spectre-style shadows, optionally optimized by ReCon."""

    name = "stt"

    def __init__(self, stats: StatSet, use_recon: bool = False) -> None:
        super().__init__(stats, use_recon)
        self._unsafe_roots: Set[int] = set()
        self._root_heap: List[int] = []

    # -- issue gates ----------------------------------------------------
    def load_issue_blocked(self, operand_taint: FrozenSet[int]) -> bool:
        return self.effectively_tainted(operand_taint)

    def store_issue_blocked(self, operand_taint: FrozenSet[int]) -> bool:
        return self.effectively_tainted(operand_taint)

    def branch_resolution_blocked(self, operand_taint: FrozenSet[int]) -> bool:
        return self.effectively_tainted(operand_taint)

    # -- dataflow -------------------------------------------------------
    def on_load_value(
        self,
        seq: int,
        speculative: bool,
        revealed: bool,
        forwarded_taint: FrozenSet[int],
    ) -> Tuple[bool, FrozenSet[int]]:
        if speculative and not revealed:
            self.stats.tainted_loads += 1
            self._unsafe_roots.add(seq)
            heapq.heappush(self._root_heap, seq)
            if self.telemetry.enabled:
                self.telemetry.emit(
                    CAT_SECURITY,
                    "stt_taint",
                    core=self.telemetry_core,
                    seq=seq,
                )
            return True, forwarded_taint | {seq}
        # Safe (or revealed) loads still propagate forwarded taint: data
        # forwarded from a store may derive from an unsafe speculative load.
        return True, forwarded_taint

    def propagate_taint(self, operand_taint: FrozenSet[int]) -> FrozenSet[int]:
        return operand_taint

    # -- time -----------------------------------------------------------
    def on_visibility(self, frontier: float) -> None:
        while self._root_heap and self._root_heap[0] < frontier:
            self._unsafe_roots.discard(heapq.heappop(self._root_heap))

    def effectively_tainted(self, taint: FrozenSet[int]) -> bool:
        if not taint or not self._unsafe_roots:
            return False
        return not self._unsafe_roots.isdisjoint(taint)
