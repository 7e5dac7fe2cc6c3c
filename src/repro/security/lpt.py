"""The load-pair table (LPT), paper §5.1 and Figure 3.

The LPT sits in the commit stage and detects *direct-dependence load
pairs*: a committing load writes ``(active, address)`` into the entry of
its destination physical register and simultaneously checks the entry of
its source (address base) physical register.  An active, tag-matching
source entry means the committing load dereferenced the value produced by
an earlier committed load — the earlier load's address has leaked
non-speculatively and is revealed.

Any non-load instruction that commits clears the entry of its destination
register(s): the register no longer holds a directly-loaded value.

Tables smaller than the physical register count are index-hashed (modulo)
and tagged with the full register id; a tag mismatch is a conflict, which
only ever drops a reveal (always safe, §6.6).
"""

from __future__ import annotations

from typing import List, Optional

from repro.telemetry.events import CAT_RECON, NULL_TELEMETRY

__all__ = ["LoadPairTable"]


class _Entry:
    __slots__ = ("active", "tag", "addr")

    def __init__(self) -> None:
        self.active = False
        self.tag = -1
        self.addr = 0


class LoadPairTable:
    """Commit-stage detector of direct-dependence load pairs."""

    def __init__(self, entries: int) -> None:
        if entries <= 0:
            raise ValueError("LPT needs at least one entry")
        self.entries = entries
        self._table: List[_Entry] = [_Entry() for _ in range(entries)]
        self.conflicts = 0
        self.pairs_detected = 0
        #: Active entries right now (maintained incrementally so the
        #: occupancy histogram costs O(1) per commit).
        self.occupancy = 0
        #: Telemetry sink + core id (wired by the owning core).
        self.telemetry = NULL_TELEMETRY
        self.telemetry_core = 0

    def _index(self, phys_reg: int) -> int:
        return phys_reg % self.entries

    def on_load_commit(
        self, dest_phys: int, src_phys: Optional[int], load_addr: int
    ) -> Optional[int]:
        """Process a committing load with a single source operand.

        Returns the address to reveal (the *first* load's address) when a
        load pair is detected, else ``None``.  The source entry is checked
        before the destination entry is written, so a self-aliasing index
        (possible with hashed tables) cannot fabricate a pair.
        """
        sources = (src_phys,) if src_phys is not None else ()
        reveals = self.on_load_commit_multi(dest_phys, sources, load_addr)
        return reveals[0] if reveals else None

    def on_load_commit_multi(
        self, dest_phys: int, src_phys: "tuple", load_addr: int
    ) -> "List[int]":
        """Multi-source variant (paper §5.1.1): one lookup per operand.

        Each active, tag-matching source entry yields one reveal; all
        source entries are checked before the destination is written.
        """
        reveals: List[int] = []
        telemetry = self.telemetry
        table = self._table
        entries = self.entries
        for phys in src_phys:
            entry = table[phys % entries]  # _index, inlined
            if entry.active:
                if entry.tag == phys:
                    reveals.append(entry.addr)
                    self.pairs_detected += 1
                    if telemetry.enabled:
                        telemetry.emit(
                            CAT_RECON,
                            "lpt_pair",
                            core=self.telemetry_core,
                            addr=entry.addr,
                        )
                else:
                    self.conflicts += 1
                    if telemetry.enabled:
                        telemetry.emit(
                            CAT_RECON,
                            "lpt_conflict",
                            core=self.telemetry_core,
                            value=phys,
                        )
        dest = table[dest_phys % entries]
        if not dest.active:
            self.occupancy += 1
        dest.active = True
        dest.tag = dest_phys
        dest.addr = load_addr
        if telemetry.enabled:
            telemetry.observe("lpt_occupancy", self.occupancy)
        return reveals

    def on_other_commit(self, dest_phys: Optional[int]) -> None:
        """A non-load instruction committed: deactivate its dest entry."""
        if dest_phys is None:
            return
        entry = self._table[dest_phys % self.entries]
        if entry.tag == dest_phys:
            if entry.active:
                self.occupancy -= 1
            entry.active = False

    def entry_state(self, phys_reg: int) -> "tuple[bool, int]":
        """(active-and-tag-matched, stored address) — for tests."""
        entry = self._table[self._index(phys_reg)]
        return entry.active and entry.tag == phys_reg, entry.addr
