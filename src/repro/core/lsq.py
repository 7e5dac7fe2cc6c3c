"""Load/store queues, store buffer, and store-to-load forwarding.

Committed stores sit in the store buffer (SB) until performed; stores in
the store queue (SQ) are in-flight (paper §4.4.2).  Loads forward from
either — and forwarded data is always **concealed** under ReCon, so the
pipeline never lifts defenses for a forwarded value (§4.5).

The ordering, violation and forwarding queries are answered from
incremental indexes (an SQ map keyed by sequence number, per-word LQ,
SQ and SB lists, and a sorted list of unresolved store sequence
numbers) instead of linear scans; the indexes are pure accelerations —
every query returns exactly what the scan-based implementation
returned, in the same order.

The LQ holds the load itself: any object with ``seq``, ``word`` and a
writable ``went_to_memory`` flag.  The pipeline inserts its in-flight
instruction records, so dispatch allocates no second object per load;
:class:`LoadEntry` is the plain record for driving the LSQ on its own.
"""

from __future__ import annotations

import collections
from typing import Any, Deque, Dict, FrozenSet, List, Optional, Set

from repro.common.types import WORD_MASK
from repro.telemetry.events import CAT_PIPELINE, NULL_TELEMETRY

__all__ = ["StoreEntry", "LoadEntry", "LoadStoreUnit"]


class StoreEntry:
    """One store in the SQ or SB."""

    __slots__ = (
        "seq",
        "pc",
        "addr",
        "word",
        "resolved",
        "data_ready",
        "committed",
        "taint",
    )

    def __init__(self, seq: int, pc: int, addr: int) -> None:
        self.seq = seq
        self.pc = pc
        self.addr = addr
        self.word = addr & WORD_MASK
        self.resolved = False  # address generated (agen done)
        self.data_ready = False  # data register value available
        self.committed = False
        self.taint: FrozenSet[int] = frozenset()  # taint of the stored data


class LoadEntry:
    """One load tracked for memory-order violation detection."""

    __slots__ = ("seq", "pc", "word", "went_to_memory")

    def __init__(self, seq: int, pc: int, addr: int) -> None:
        self.seq = seq
        self.pc = pc
        self.word = addr & WORD_MASK
        #: The load read memory (visibly or not), so an older store
        #: resolving to its word later is a memory-order violation.
        self.went_to_memory = False


def _index(words: Dict[int, List[StoreEntry]], entry: StoreEntry) -> None:
    """Append ``entry`` to its word's list (entries arrive in seq order)."""
    word_list = words.get(entry.word)
    if word_list is None:
        words[entry.word] = [entry]
    else:
        word_list.append(entry)


def _unindex_oldest(words: Dict[int, List[StoreEntry]], entry: StoreEntry) -> None:
    """Drop ``entry``, the oldest of its word, from its word's list."""
    word_list = words[entry.word]
    del word_list[0]
    if not word_list:
        del words[entry.word]


class LoadStoreUnit:
    """SQ + SB + LQ with forwarding and ordering queries."""

    def __init__(self, lq_entries: int, sq_entries: int) -> None:
        self.lq_entries = lq_entries
        self.sq_entries = sq_entries
        self._sq: Deque[StoreEntry] = collections.deque()
        self._sb: Deque[StoreEntry] = collections.deque()
        self._lq: Dict[int, Any] = {}
        #: SQ entries by sequence number (dispatch adds, commit removes).
        self._sq_map: Dict[int, StoreEntry] = {}
        #: LQ entries grouped by word, each list in dispatch order — the
        #: same relative order a full LQ scan would visit them in.
        self._lq_words: Dict[int, List[Any]] = {}
        #: SQ and SB entries grouped by word, each list oldest first.
        self._sq_words: Dict[int, List[StoreEntry]] = {}
        self._sb_words: Dict[int, List[StoreEntry]] = {}
        #: Unresolved store seqs, ascending (dispatch order), drained
        #: lazily from the front as stores resolve.
        self._unresolved: List[int] = []
        self._resolved_seqs: Set[int] = set()
        #: Telemetry sink + core id (wired by the owning core).
        self.telemetry = NULL_TELEMETRY
        self.telemetry_core = 0

    # ------------------------------------------------------------------
    # capacity
    # ------------------------------------------------------------------
    @property
    def sq_full(self) -> bool:
        return len(self._sq) >= self.sq_entries

    @property
    def lq_full(self) -> bool:
        return len(self._lq) >= self.lq_entries

    # ------------------------------------------------------------------
    # dispatch / execute / commit hooks
    # ------------------------------------------------------------------
    def add_store(self, seq: int, pc: int, addr: int) -> StoreEntry:
        """Allocate an SQ entry at dispatch (address not yet resolved)."""
        entry = StoreEntry(seq, pc, addr)
        self._sq.append(entry)
        self._sq_map[seq] = entry
        _index(self._sq_words, entry)
        self._unresolved.append(seq)  # seqs arrive ascending
        return entry

    def add_load(self, entry: Any) -> Any:
        """Allocate ``entry``'s LQ slot at dispatch (see the module doc)."""
        self._lq[entry.seq] = entry
        word_list = self._lq_words.get(entry.word)
        if word_list is None:
            self._lq_words[entry.word] = [entry]
        else:
            word_list.append(entry)
        return entry

    def resolve_store(self, seq: int) -> List[Any]:
        """Mark a store's address resolved; return violated younger loads.

        A violation is a younger load to the same word that already issued
        to memory (it read stale data past this store).
        """
        entry = self._sq_map.get(seq)
        if entry is None:
            raise KeyError(f"store #{seq} not in SQ")
        entry.resolved = True
        self._resolved_seqs.add(seq)
        unresolved = self._unresolved
        resolved = self._resolved_seqs
        while unresolved and unresolved[0] in resolved:
            resolved.discard(unresolved.pop(0))
        violated = [
            load
            for load in self._lq_words.get(entry.word, ())
            if load.seq > seq and load.went_to_memory
        ]
        if self.telemetry.enabled:
            for load in violated:
                self.telemetry.emit(
                    CAT_PIPELINE,
                    "mem_violation",
                    core=self.telemetry_core,
                    seq=load.seq,
                    value=seq,
                )
        return violated

    def set_store_data(self, seq: int, taint: FrozenSet[int]) -> None:
        """The store's data register became available (with its taint)."""
        entry = self._sq_map.get(seq)
        if entry is None:
            raise KeyError(f"store #{seq} not in SQ")
        entry.data_ready = True
        entry.taint = taint

    def commit_store(self, seq: int) -> StoreEntry:
        """Move the SQ head into the store buffer (must commit in order)."""
        if not self._sq or self._sq[0].seq != seq:
            raise ValueError(f"store #{seq} is not the SQ head")
        entry = self._sq.popleft()
        del self._sq_map[seq]
        _unindex_oldest(self._sq_words, entry)
        entry.committed = True
        self._sb.append(entry)
        _index(self._sb_words, entry)
        return entry

    def commit_load(self, seq: int) -> None:
        """Release the LQ entry of a committing load."""
        entry = self._lq.pop(seq, None)
        if entry is not None:
            word_list = self._lq_words.get(entry.word)
            if word_list is not None:
                word_list.remove(entry)
                if not word_list:
                    del self._lq_words[entry.word]

    def pop_performable_store(self) -> Optional[StoreEntry]:
        """Remove and return the oldest SB entry (drained to the cache)."""
        if not self._sb:
            return None
        entry = self._sb.popleft()
        _unindex_oldest(self._sb_words, entry)
        return entry

    # ------------------------------------------------------------------
    # ordering / forwarding queries
    # ------------------------------------------------------------------
    def has_older_unresolved_store(self, load_seq: int) -> bool:
        """Any store older than ``load_seq`` with an unresolved address?"""
        unresolved = self._unresolved
        if not unresolved:
            return False
        resolved = self._resolved_seqs
        while unresolved and unresolved[0] in resolved:
            resolved.discard(unresolved.pop(0))
        return bool(unresolved) and unresolved[0] < load_seq

    def forwarding_store(self, load_seq: int, addr: int) -> Optional[StoreEntry]:
        """Youngest older resolved store matching ``addr``'s word, if any.

        Searches the SQ (in-flight) and SB (committed, not yet performed);
        the youngest match supplies the data.
        """
        word = addr & WORD_MASK
        in_sq = self._sq_words.get(word)
        if in_sq is not None:
            for entry in reversed(in_sq):
                if entry.seq < load_seq and entry.resolved:
                    # Seq-ordered: the first match from the back is the
                    # youngest, and SQ entries are younger than any SB's.
                    return entry
        in_sb = self._sb_words.get(word)
        return in_sb[-1] if in_sb is not None else None

    def load_entry(self, seq: int) -> Optional[Any]:
        """The LQ entry for ``seq``, if still allocated."""
        return self._lq.get(seq)

    @property
    def sb_depth(self) -> int:
        return len(self._sb)
