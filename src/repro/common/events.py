"""Shared discrete-event queue for cores and the memory system.

One :class:`EventQueue` is shared by every core of a :class:`System`
(and by the completions of memory accesses), replacing the per-core
``{cycle: [events]}`` dicts of the lockstep era.  Events wait in one
FIFO bucket per cycle, and a min-heap holds the cycles that have a
bucket; so two events scheduled for the same cycle fire in the order
they were scheduled — which preserves the legacy per-core processing
order exactly — and scheduling an event costs one dict lookup and one
append unless it opens a new cycle.

``service(cycle)`` fires *every* event due at or before ``cycle`` and is
idempotent, so any core's step may drain the queue on behalf of all of
them: callbacks are bound methods that only touch their own core's
state.

Events are scheduled with :meth:`push` as ``fn(arg, due)``: no lambda
is allocated per event, and the callee receives the cycle the event was
scheduled for.  The run loops never tick past a due event, so the due
cycle is also the cycle the event is serviced at.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["EventQueue"]


class EventQueue:
    """Per-cycle FIFO buckets of ``(callback, arg)`` events."""

    __slots__ = ("_buckets", "_cycles", "epoch")

    def __init__(self) -> None:
        self._buckets: Dict[int, List[Tuple[Callable, Any]]] = {}
        #: Min-heap of the cycles that have a bucket (each once).
        self._cycles: List[int] = []
        #: Simulation-state generation counter.  Bumped whenever state
        #: that could unblock a stalled instruction changes (events
        #: firing here; commits, drains, frontier moves, and cache
        #: fills at their sites).  A core that cached a "blocked"
        #: verdict may skip re-evaluating it while the epoch is
        #: unchanged.  Shared queue, shared epoch: one core's activity
        #: can unblock another core's load through the hierarchy.
        self.epoch = 0

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def push(self, cycle: int, fn: Callable, arg: Any) -> None:
        """Fire ``fn(arg, cycle)`` when the clock reaches ``cycle``."""
        bucket = self._buckets.get(cycle)
        if bucket is None:
            self._buckets[cycle] = [(fn, arg)]
            heappush(self._cycles, cycle)
        else:
            bucket.append((fn, arg))

    def service(self, cycle: int) -> bool:
        """Fire every event due at or before ``cycle``; True if any fired."""
        cycles = self._cycles
        if not cycles or cycles[0] > cycle:
            return False
        self.epoch += 1
        buckets = self._buckets
        while cycles and cycles[0] <= cycle:
            due = heappop(cycles)
            for callback, arg in buckets.pop(due):
                callback(arg, due)
        return True

    def clear(self) -> None:
        """Drop every pending event (a run that stopped before them)."""
        self._buckets.clear()
        self._cycles.clear()

    def next_cycle(self) -> Optional[int]:
        """Cycle of the earliest pending event (None when empty)."""
        if not self._cycles:
            return None
        return self._cycles[0]
