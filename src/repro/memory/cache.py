"""Set-associative cache arrays.

:class:`CacheArray` is pure storage — tags, per-line metadata, true-LRU
replacement.  Coherence state transitions live in
:mod:`repro.memory.hierarchy`; this module only guarantees the structural
invariants (capacity, associativity, LRU order).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Iterator, List, Optional

from repro.common.params import CacheParams
from repro.common.types import MESIState

__all__ = ["CacheLine", "CacheArray"]

_lru_of = attrgetter("lru")


class CacheLine:
    """Metadata for one resident cache line.

    The simulator never stores data contents (values travel with the trace);
    a line is its tag plus coherence and ReCon metadata.  The directory
    fields (``owner``/``sharers``) are only used on LLC lines, where the
    in-cache directory lives; ``sharers`` is a core bit mask (bit ``c``
    set when core ``c`` holds a copy), so a private line carries a plain
    ``0`` rather than an empty set.
    """

    __slots__ = ("addr", "state", "reveal", "dirty", "lru", "owner", "sharers")

    def __init__(self, addr: int, state: MESIState, reveal: int = 0) -> None:
        self.addr = addr
        self.state = state
        self.reveal = reveal
        self.dirty = False
        self.lru = 0
        self.owner: Optional[int] = None
        self.sharers = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Line {self.addr:#x} {self.state.value}"
            f" reveal={self.reveal:#04x}{' dirty' if self.dirty else ''}>"
        )


class CacheArray:
    """A set-associative array of :class:`CacheLine` with true LRU."""

    def __init__(self, params: CacheParams) -> None:
        params.validate()
        self.params = params
        self.num_sets = params.num_sets
        self.ways = params.ways
        self._line_shift = params.line_bytes.bit_length() - 1
        self._set_mask = self.num_sets - 1  # num_sets is a power of two
        self._sets: List[Dict[int, CacheLine]] = [{} for _ in range(self.num_sets)]
        self._tick = 0
        #: Capacity evictions performed by :meth:`insert` (telemetry).
        self.evictions = 0

    def _set_for(self, line_addr: int) -> Dict[int, CacheLine]:
        return self._sets[(line_addr >> self._line_shift) & self._set_mask]

    def lookup(self, line_addr: int, touch: bool = True) -> Optional[CacheLine]:
        """Return the resident line for ``line_addr`` or ``None``.

        ``touch`` updates the LRU position (set it False for directory
        snoops that should not perturb replacement).
        """
        line = self._sets[(line_addr >> self._line_shift) & self._set_mask].get(
            line_addr
        )
        if line is not None and touch:
            self._tick += 1
            line.lru = self._tick
        return line

    def touch(self, line: CacheLine) -> None:
        """Make a resident line its set's most recently used."""
        self._tick += 1
        line.lru = self._tick

    def insert(
        self, line_addr: int, state: MESIState, reveal: int = 0
    ) -> "tuple[CacheLine, Optional[CacheLine]]":
        """Insert a line, returning ``(new_line, victim_or_None)``.

        The victim is removed from the array; the caller is responsible for
        its writeback/coherence consequences.  Inserting an already-present
        address replaces its metadata in place (no victim).
        """
        target = self._set_for(line_addr)
        existing = target.get(line_addr)
        self._tick += 1
        if existing is not None:
            existing.state = state
            existing.reveal = reveal
            existing.lru = self._tick
            return existing, None
        victim = None
        if len(target) >= self.ways:
            victim = target.pop(min(target.values(), key=_lru_of).addr)
            self.evictions += 1
        line = CacheLine(line_addr, state, reveal)
        line.lru = self._tick
        target[line_addr] = line
        return line, victim

    def remove(self, line_addr: int) -> Optional[CacheLine]:
        """Remove and return the line, or ``None`` if absent."""
        return self._set_for(line_addr).pop(line_addr, None)

    def __iter__(self) -> Iterator[CacheLine]:
        for cache_set in self._sets:
            yield from cache_set.values()

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def set_occupancy(self, line_addr: int) -> int:
        """Number of resident lines in ``line_addr``'s set (for tests)."""
        return len(self._set_for(line_addr))
