"""Miss Status Holding Registers.

One :class:`MSHRFile` per core tracks that core's outstanding misses,
replacing the ad-hoc ``fills`` dict of the earlier hierarchy:

* a **primary miss** allocates an entry holding the fill's completion
  time; with ``entries`` bounded and the file full, allocation stalls
  until enough outstanding fills retire to free a slot;
* a **secondary miss** (another access to a line whose fill is in
  flight) merges into the existing entry instead of re-requesting the
  line — the requester waits for the outstanding fill, paying
  ``max(hit_latency, ready - now)``, exactly the legacy
  hit-under-fill rule;
* entries retire implicitly when their fill time passes, and are
  dropped eagerly when the line leaves the private hierarchy
  (eviction/invalidation), so a re-fetched line is never merged into a
  stale fill.

Write misses occupy an entry (they hold an MSHR in real hardware) but
never become merge targets: the legacy model completes the ownership
acquisition synchronously and never registered write fills, and the
parity suite keeps it that way.

Expiry is batched through a min-heap of ``(ready, line, is_write)``
entries rather than rebuilding the occupancy dicts on every query (the
old ``_prune`` rebuilt both dicts per occupancy check, which showed up
in miss-heavy profiles).  Heap entries can go stale — a line retired
eagerly or re-registered with a new fill time leaves its old entry
behind — so a popped entry only deletes the dict slot when the recorded
ready time still matches.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

__all__ = ["MSHRFile"]


class MSHRFile:
    """Outstanding-miss tracking for one core's private hierarchy."""

    __slots__ = (
        "entries",
        "hits_under_miss",
        "stall_cycles",
        "peak_occupancy",
        "_fills",
        "_writes",
        "_expiry",
    )

    def __init__(self, entries: Optional[int] = None) -> None:
        if entries is not None and entries <= 0:
            raise ValueError("MSHR entries must be positive (or None)")
        self.entries = entries
        #: Secondary misses merged into an outstanding entry.
        self.hits_under_miss = 0
        #: Cycles primary misses stalled waiting for a free entry.
        self.stall_cycles = 0
        #: High-water mark of simultaneously occupied entries.
        self.peak_occupancy = 0
        self._fills: Dict[int, int] = {}  # line -> fill completion time
        self._writes: Dict[int, int] = {}  # line -> ack time (no merging)
        #: (ready, line, is_write) min-heap driving batched expiry.
        self._expiry: List[Tuple[int, int, bool]] = []

    # -- occupancy -----------------------------------------------------

    def _prune(self, now: int) -> None:
        expiry = self._expiry
        fills = self._fills
        writes = self._writes
        while expiry and expiry[0][0] <= now:
            ready, line, is_write = heappop(expiry)
            table = writes if is_write else fills
            if table.get(line) == ready:
                del table[line]

    def occupancy(self, now: int) -> int:
        """Entries outstanding at ``now``."""
        self._prune(now)
        return len(self._fills) + len(self._writes)

    # -- allocation ----------------------------------------------------

    def allocate(self, now: int) -> int:
        """Claim a free entry at or after ``now``; return the stall.

        Unbounded files never stall.  A full bounded file stalls the
        primary miss until the earliest outstanding fill retires.
        """
        if self.entries is None:
            return 0
        occupancy = self.occupancy(now)
        if occupancy < self.entries:
            return 0
        # Stall until enough of the earliest completions free a slot.
        readies = sorted(self._fills.values()) + sorted(
            self._writes.values()
        )
        readies.sort()
        free_at = readies[occupancy - self.entries]
        stall = max(0, free_at - now)
        self.stall_cycles += stall
        return stall

    def register_fill(self, line_addr: int, ready: int, now: int) -> None:
        """Record a read primary miss: line fills at ``ready``."""
        self._fills[line_addr] = ready
        heappush(self._expiry, (ready, line_addr, False))
        self._note_peak(now)

    def register_write(self, line_addr: int, ready: int, now: int) -> None:
        """Record a write miss: occupies an entry, never a merge target."""
        self._writes[line_addr] = ready
        heappush(self._expiry, (ready, line_addr, True))
        self._note_peak(now)

    def _note_peak(self, now: int) -> None:
        occupancy = self.occupancy(now)
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy

    # -- secondary misses ----------------------------------------------

    def pending_ready(self, line_addr: int, now: int) -> Optional[int]:
        """Completion time of an in-flight fill for ``line_addr``.

        ``None`` when no fill is outstanding (or it already landed).
        """
        ready = self._fills.get(line_addr)
        if ready is not None and ready > now:
            return ready
        return None

    def merge(self, line_addr: int, now: int, hit_latency: int) -> Optional[int]:
        """Merge a secondary access into an outstanding fill.

        Returns the access latency (never less than ``hit_latency``), or
        ``None`` when there is nothing to merge into.
        """
        ready = self._fills.get(line_addr)  # pending_ready, inlined: per hit
        if ready is None or ready <= now:
            return None
        self.hits_under_miss += 1
        return max(hit_latency, ready - now)

    # -- retirement ----------------------------------------------------

    def retire(self, line_addr: int) -> None:
        """Drop the entry for a line leaving the private hierarchy."""
        self._fills.pop(line_addr, None)
        self._writes.pop(line_addr, None)
