"""Master ports with bounded per-cycle bandwidth.

A core's LSU owns a :class:`MasterPort`, which admits at most ``width``
transactions per cycle — the (N+1)-th request of a cycle is granted a
start slot on a later cycle and pays the wait as extra latency.  With
``width=None`` (the default) grants are free and instantaneous, which is
the contention-free configuration the parity suite pins down.

The accounting is analytic rather than event-driven on purpose: the
grant table only records how many transactions started on which cycle,
so an unbounded port costs nothing and a bounded one needs no global
arbitration pass.
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = ["BandwidthPort", "MasterPort"]


class BandwidthPort:
    """Grant counter for one port."""

    def __init__(self, width: Optional[int] = None) -> None:
        if width is not None and width <= 0:
            raise ValueError("port width must be positive (or None)")
        self.width = width
        self.grants = 0
        #: Total cycles transactions waited for a grant.
        self.stall_cycles = 0
        self._granted: Dict[int, int] = {}

    def acquire(self, now: int) -> int:
        """Grant a slot at or after ``now``; return the wait in cycles."""
        self.grants += 1
        if self.width is None:
            return 0
        if len(self._granted) > 4 * self.width + 64:
            self._granted = {
                cycle: count
                for cycle, count in self._granted.items()
                if cycle >= now
            }
        cycle = now
        while self._granted.get(cycle, 0) >= self.width:
            cycle += 1
        self._granted[cycle] = self._granted.get(cycle, 0) + 1
        wait = cycle - now
        self.stall_cycles += wait
        return wait

    def pending(self, now: int) -> int:
        """Packets granted slots strictly after ``now``."""
        if self.width is None:
            return 0
        return sum(
            count for cycle, count in self._granted.items() if cycle > now
        )


class MasterPort(BandwidthPort):
    """Request side: the core injecting transactions into the hierarchy."""
