"""Shared discrete-event queue for cores and the memory system.

One :class:`EventQueue` is shared by every core of a :class:`System`
(and by the completions of memory accesses), replacing the per-core
``{cycle: [events]}`` dicts of the lockstep era.  Events are
``(cycle, seq, callback, arg)`` entries; insertion order breaks ties, so
two events scheduled for the same cycle fire in the order they were
scheduled — which preserves the legacy per-core processing order
exactly.

``service(cycle)`` fires *every* event due at or before ``cycle`` and is
idempotent, so any core's step may drain the queue on behalf of all of
them: callbacks are bound methods that only touch their own core's
state.

Events are scheduled with :meth:`push` as ``fn(arg, due)``: no lambda
is allocated per event, the payload rides the heap entry itself, and the
callee receives the cycle the event was scheduled for.  The run loops
never tick past a due event, so the due cycle is also the cycle the
event is serviced at.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["EventQueue"]


class EventQueue:
    """Min-heap of ``(cycle, seq, callback, arg)`` events."""

    __slots__ = ("_heap", "_seq", "epoch")

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Callable, Any]] = []
        self._seq = 0
        #: Simulation-state generation counter.  Bumped whenever state
        #: that could unblock a stalled instruction changes (events
        #: firing here; commits, drains, frontier moves, and cache
        #: fills at their sites).  A core that cached a "blocked"
        #: verdict may skip re-evaluating it while the epoch is
        #: unchanged.  Shared queue, shared epoch: one core's activity
        #: can unblock another core's load through the hierarchy.
        self.epoch = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, cycle: int, fn: Callable, arg: Any) -> None:
        """Fire ``fn(arg, cycle)`` when the clock reaches ``cycle``.

        The payload rides the heap entry, so scheduling allocates nothing
        beyond the tuple itself.
        """
        self._seq += 1
        heappush(self._heap, (cycle, self._seq, fn, arg))

    def service(self, cycle: int) -> bool:
        """Fire every event due at or before ``cycle``; True if any fired."""
        heap = self._heap
        if not heap or heap[0][0] > cycle:
            return False
        self.epoch += 1
        while heap and heap[0][0] <= cycle:
            due, _, callback, arg = heappop(heap)
            callback(arg, due)
        return True

    def next_cycle(self) -> Optional[int]:
        """Cycle of the earliest pending event (None when empty)."""
        if not self._heap:
            return None
        return self._heap[0][0]
