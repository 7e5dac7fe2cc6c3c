"""Three-level MESI cache hierarchy with ReCon bit-vector piggybacking.

Structure (Table 2): per-core private L1 and L2 (inclusive), one shared LLC
holding an in-cache directory.  The protocol is a directory MESI whose
stable-state transitions are walked per transaction; latency is the sum of
the Table 2 round-trip costs of every agent the transaction touches plus
interconnect hops, plus — under a bounded :class:`MemoryTimingParams` —
the queueing delays of ports, MSHRs, interconnect links and the DRAM
channel.

The cycle loop and the functional warmer call ``read()``/``write()``/
``read_invisible()``/``reveal()``.  Each runs one transaction through
:meth:`MemoryHierarchy.submit`, which takes ``(kind, core, addr, now)``
and returns ``(latency, level, reveal_vector)``: the transaction is a
synchronous walk of the protocol, so there is nothing to queue and
nothing to hand back but those values.  One shortcut skips ``submit``:
on a contention-free hierarchy with no telemetry collector, ``read``/
``write``/``reveal`` serve a private hit (an L1/L2 read hit, a store to
an E/M line, a reveal) directly, because the port grant, transaction
clock and ``mem_txn`` event that ``submit`` adds are no-ops there.  The
private-hit routines (:meth:`_read_hit`, :meth:`_write_hit`,
:meth:`_reveal_private`) are the same ones ``submit``'s handlers call
first before going to the directory.  The commonest access of all, an
L1 read hit with no fill in flight, ``read`` answers inline with one
of two shared :class:`AccessResult` s (word concealed or revealed).

Every coherence message that carries a ReCon bit-vector (writebacks,
owner downgrades, invalidation acks under footnote 1) is charged as a
vector-carrying interconnect hop, and the receiving agent uses the
vector the sender put on it.  Outstanding misses
live in per-core :class:`~repro.memory.mshr.MSHRFile` s: a primary miss
allocates an entry, a same-line access while the fill is in flight
merges into it (hit-under-miss), and the entry is dropped when the line
leaves the private hierarchy.  The contention-free configuration (every
timing knob ``None``) reproduces the legacy per-access latencies
exactly, which the golden parity suite
(``tests/memory/test_parity_golden.py``) enforces.

ReCon metadata rules implemented here (paper §5.2-5.3):

* every line carries a reveal bit-vector (one bit per aligned 8-byte word);
* a line fetched from DRAM is fully concealed;
* reveals are performed on the requester's private copy;
* within one core's private hierarchy the level closest to the core is
  authoritative: an L1 eviction *overwrites* the L2 copy's vector (an OR
  would resurrect conceals, because conceals are applied to L1 first);
* across cores, an S/E eviction *OR-merges* into the directory vector
  (S/E copies can only have added reveals — concealing requires M — so the
  OR never resurrects a concealed word);
* an M writeback/downgrade *overwrites* the directory vector: the writer
  owned the only coherent copy;
* invalidated sharers lose their private vectors (paper's footnote 1);
* levels not listed in ``SystemParams.recon_levels`` store all-concealed
  vectors, which is how the L1-only / L1+L2 configurations of Fig. 10 lose
  reveal information on eviction.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.params import SystemParams
from repro.common.stats import StatSet
from repro.common.types import LINE_MASK, CacheLevel, MESIState, line_addr
from repro.memory import recon_bits
from repro.memory.cache import CacheArray, CacheLine
from repro.memory.dram import MainMemory
from repro.memory.interconnect import FixedLatencyInterconnect, MeshInterconnect
from repro.memory.mshr import MSHRFile
from repro.memory.ports import MasterPort
from repro.telemetry.events import (
    CAT_CACHE,
    CAT_COHERENCE,
    CAT_MEM_TXN,
    CAT_RECON,
    NULL_TELEMETRY,
)

__all__ = ["MemoryHierarchy", "AccessResult"]


def _cores_of(mask: int) -> Iterator[int]:
    """The cores of a directory sharer mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


#: Stable MESI -> int encoding for event payloads.
_MESI_ORD = {
    MESIState.MODIFIED: 3,
    MESIState.EXCLUSIVE: 2,
    MESIState.SHARED: 1,
    MESIState.INVALID: 0,
}


class AccessResult:
    """Outcome of one load access (read-only: L1 hits share instances)."""

    __slots__ = ("latency", "revealed", "level")

    def __init__(self, latency: int, revealed: bool, level: CacheLevel) -> None:
        self.latency = latency
        self.revealed = revealed
        self.level = level

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AccessResult {self.level.name} latency={self.latency}"
            f" revealed={self.revealed}>"
        )


class _PrivateCaches:
    """One core's private L1+L2, its MSHR file, and its master port."""

    def __init__(self, params: SystemParams) -> None:
        self.l1 = CacheArray(params.memory.l1)
        self.l2 = CacheArray(params.memory.l2)
        timing = params.memory.timing
        self.mshr = MSHRFile(timing.mshr_entries)
        self.port = MasterPort(timing.port_width)


class MemoryHierarchy:
    """Shared memory system for ``params.num_cores`` cores."""

    def __init__(self, params: SystemParams) -> None:
        params.validate()
        self.params = params
        timing = params.memory.timing
        if params.memory.topology == "mesh":
            self.noc: FixedLatencyInterconnect = MeshInterconnect(
                params.memory.mesh_rows,
                params.memory.mesh_cols,
                params.memory.noc_hop_latency,
                link_width=timing.noc_link_width,
            )
        else:
            self.noc = FixedLatencyInterconnect(
                params.memory.noc_hop_latency,
                link_width=timing.noc_link_width,
            )
        self.dram = MainMemory(
            params.memory.dram_latency, queue_depth=timing.dram_queue_depth
        )
        self.llc = CacheArray(params.memory.llc)
        self._privs = [_PrivateCaches(params) for _ in range(params.num_cores)]
        self._stats = [StatSet() for _ in range(params.num_cores)]
        #: Reveal requests dropped because the line had left the private
        #: hierarchy before the pair committed.
        self.dropped_reveals = 0
        #: Telemetry sink (a core wires a live collector in when tracing
        #: is enabled; events are stamped with the collector's cycle).
        self.telemetry = NULL_TELEMETRY
        #: Clock of the transaction currently being processed; internal
        #: messaging (hops, DRAM fetches) reads it so bounded resources
        #: queue against the right cycle.  ``None`` outside a transaction,
        #: and always ``None`` when the hierarchy is contention-free.
        self._txn_now: Optional[int] = None
        #: No timing knob is bounded: ports, NoC links and the DRAM queue
        #: can never add delay, so transactions skip their bookkeeping.
        self._contention_free = timing.contention_free
        #: Whether reveal bits are stored at each level (fixed per run).
        self._tracked = {level: params.recon_visible_at(level) for level in CacheLevel}
        self._l1_latency = params.memory.l1.latency
        self._l2_latency = params.memory.l2.latency
        #: What ``read`` returns for an L1 hit with no fill in flight,
        #: indexed by the word's reveal bit.
        self._l1_hits = (
            AccessResult(self._l1_latency, False, CacheLevel.L1),
            AccessResult(self._l1_latency, True, CacheLevel.L1),
        )

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_stats(self, core: int, stats: StatSet) -> None:
        """Route this core's hierarchy counters into ``stats``."""
        self._stats[core] = stats

    def _tracks(self, level: CacheLevel) -> bool:
        """True if reveal bits are stored at ``level``."""
        return self._tracked[level]

    def _vector_if_tracked(self, vector: int, level: CacheLevel) -> int:
        return vector if self._tracked[level] else recon_bits.ALL_CONCEALED

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def _hop(
        self,
        carries_bitvector: bool = False,
        src: Optional[int] = None,
        dst: Optional[int] = None,
    ) -> int:
        """One interconnect message within the current transaction."""
        return self.noc.hop(
            carries_bitvector=carries_bitvector,
            src=src,
            dst=dst,
            now=self._txn_now,
        )

    # ------------------------------------------------------------------
    # private-hierarchy helpers
    # ------------------------------------------------------------------
    def _private_lookup(
        self, core: int, laddr: int
    ) -> Tuple[Optional[CacheLine], Optional[CacheLevel]]:
        priv = self._privs[core]
        line = priv.l1.lookup(laddr)
        if line is not None:
            return line, CacheLevel.L1
        line = priv.l2.lookup(laddr)
        if line is not None:
            return line, CacheLevel.L2
        return None, None

    def _authoritative_vector(self, core: int, laddr: int) -> int:
        """The freshest private vector a core holds for ``laddr`` (else 0)."""
        priv = self._privs[core]
        line = priv.l1.lookup(laddr, touch=False)
        if line is None:
            line = priv.l2.lookup(laddr, touch=False)
        return line.reveal if line is not None else recon_bits.ALL_CONCEALED

    def _evict_private_l1(self, core: int, victim: CacheLine) -> None:
        """L1 victim falls back to L2: overwrite (L1 was authoritative)."""
        l2_line = self._privs[core].l2.lookup(victim.addr, touch=False)
        if l2_line is None:
            raise RuntimeError(
                f"inclusion violated: L1 victim {victim.addr:#x} missing in L2"
            )
        l2_line.reveal = self._vector_if_tracked(victim.reveal, CacheLevel.L2)
        l2_line.state = victim.state
        if victim.dirty:
            l2_line.dirty = True

    def _evict_private_l2(self, core: int, victim: CacheLine, stats: StatSet) -> None:
        """L2 victim leaves the private hierarchy: tell the directory."""
        priv = self._privs[core]
        l1_line = priv.l1.remove(victim.addr)
        if l1_line is not None:
            # Back-invalidate for inclusion; L1 copy is authoritative.
            victim.reveal = l1_line.reveal
            victim.state = l1_line.state
            victim.dirty = victim.dirty or l1_line.dirty
        dir_line = self.llc.lookup(victim.addr, touch=False)
        if dir_line is None:
            raise RuntimeError(
                f"inclusion violated: private victim {victim.addr:#x} missing in LLC"
            )
        # The line is gone from the private hierarchy: a fill still in
        # flight must not become a stale merge target for a later refetch.
        priv.mshr.retire(victim.addr)
        vector = self._vector_if_tracked(victim.reveal, CacheLevel.LLC)
        self._hop(
            carries_bitvector=True, src=core, dst=self.noc.home_node(victim.addr)
        )
        stats.coherence_transactions += 1
        if self.telemetry.enabled:
            self.telemetry.emit(
                CAT_CACHE, "evict", core=core, addr=victim.addr, value=2
            )
            self.telemetry.emit(
                CAT_COHERENCE,
                "merge",
                core=core,
                addr=victim.addr,
                value=_MESI_ORD[victim.state],
            )
        if victim.state is MESIState.MODIFIED:
            # PutM: data + vector overwrite the directory copy.
            dir_line.reveal = vector
            dir_line.dirty = dir_line.dirty or victim.dirty
        else:
            # PutS/PutE: OR-merge preserves reveals across serial evictions.
            dir_line.reveal = recon_bits.merge(dir_line.reveal, vector)
        if dir_line.owner == core:
            dir_line.owner = None
        dir_line.sharers &= ~(1 << core)
        stats.bitvector_merges += 1

    def _fill_private(
        self, core: int, laddr: int, state: MESIState, vector: int, stats: StatSet
    ) -> None:
        """Install a line arriving from the directory into L2 then L1."""
        priv = self._privs[core]
        if self.telemetry.enabled:
            self.telemetry.emit(
                CAT_COHERENCE,
                "mesi",
                core=core,
                addr=laddr,
                value=_MESI_ORD[state],
            )
            self.telemetry.observe(
                "l1_set_pressure", priv.l1.set_occupancy(laddr)
            )
        l2_vec = self._vector_if_tracked(vector, CacheLevel.L2)
        _, victim = priv.l2.insert(laddr, state, l2_vec)
        if victim is not None:
            self._evict_private_l2(core, victim, stats)
        l1_vec = self._vector_if_tracked(vector, CacheLevel.L1)
        _, victim = priv.l1.insert(laddr, state, l1_vec)
        if victim is not None:
            self._evict_private_l1(core, victim)

    # ------------------------------------------------------------------
    # directory-side helpers
    # ------------------------------------------------------------------
    def _invalidate_private(self, core: int, laddr: int) -> Tuple[int, bool]:
        """Remove a line from a core's private hierarchy.

        Returns ``(authoritative_vector, was_dirty)``.  The vector is only
        meaningful when the invalidated copy was the owner's; for plain
        sharers the caller discards it (paper footnote 1).
        """
        priv = self._privs[core]
        priv.mshr.retire(laddr)
        vector = recon_bits.ALL_CONCEALED
        dirty = False
        l1_line = priv.l1.remove(laddr)
        l2_line = priv.l2.remove(laddr)
        if l1_line is not None:
            vector = l1_line.reveal
            dirty = l1_line.dirty
        if l2_line is not None:
            if l1_line is None:
                vector = l2_line.reveal
            dirty = dirty or l2_line.dirty
        return vector, dirty

    def _evict_llc(self, victim: CacheLine) -> None:
        """Inclusive LLC eviction: recall every private copy, then DRAM."""
        dirty = victim.dirty
        holders = victim.sharers
        if victim.owner is not None:
            holders |= 1 << victim.owner
        home = self.noc.home_node(victim.addr)
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.emit(CAT_CACHE, "evict", addr=victim.addr, value=3)
        for core in _cores_of(holders):
            _, was_dirty = self._invalidate_private(core, victim.addr)
            dirty = dirty or was_dirty
            self._hop(src=home, dst=core)
            self._stats[core].invalidations += 1
            if telemetry.enabled:
                telemetry.emit(
                    CAT_COHERENCE, "invalidate", core=core, addr=victim.addr
                )
        if dirty:
            self.dram.writeback()
        # Reveal information is lost: DRAM stores no bits.

    def _llc_fetch(
        self, laddr: int, stats: StatSet, core: Optional[int] = None
    ) -> Tuple[CacheLine, int]:
        """Ensure ``laddr`` is resident in the LLC; return (line, latency)."""
        latency = self.llc.params.latency + self._hop(
            src=core, dst=self.noc.home_node(laddr)
        )
        line = self.llc.lookup(laddr)
        if line is not None:
            stats.llc_hits += 1
            if self.telemetry.enabled:
                self.telemetry.emit(
                    CAT_CACHE, "llc_hit", core=core or 0, addr=laddr
                )
            return line, latency
        stats.llc_misses += 1
        if self.telemetry.enabled:
            self.telemetry.emit(
                CAT_CACHE, "llc_miss", core=core or 0, addr=laddr
            )
        latency += self.dram.fetch(self._txn_now)
        line, victim = self.llc.insert(
            laddr, MESIState.SHARED, recon_bits.ALL_CONCEALED
        )
        if victim is not None:
            self._evict_llc(victim)
        return line, latency

    def _downgrade_owner(self, dir_line: CacheLine, stats: StatSet) -> int:
        """Owner writes data + vector back; becomes a sharer.  Returns cost."""
        owner = dir_line.owner
        assert owner is not None
        vector = self._authoritative_vector(owner, dir_line.addr)
        latency = (
            self._hop(
                carries_bitvector=True,
                src=self.noc.home_node(dir_line.addr),
                dst=owner,
            )
            + self.params.memory.l2.latency
        )
        dir_line.reveal = self._vector_if_tracked(vector, CacheLevel.LLC)
        priv = self._privs[owner]
        for array in (priv.l1, priv.l2):
            held = array.lookup(dir_line.addr, touch=False)
            if held is not None:
                if held.dirty:
                    dir_line.dirty = True
                    held.dirty = False
                held.state = MESIState.SHARED
        dir_line.sharers |= 1 << owner
        dir_line.owner = None
        stats.coherence_transactions += 1
        return latency

    # ------------------------------------------------------------------
    # the transaction engine
    # ------------------------------------------------------------------
    def submit(
        self, kind: str, core: int, addr: int, now: int
    ) -> Tuple[int, Optional[CacheLevel], Optional[int]]:
        """Run one transaction; return ``(latency, level, reveal_vector)``.

        ``kind`` is ``"read_req"``, ``"write_req"``, ``"invisible_req"``
        or ``"reveal_req"``.  The transaction acquires the issuing core's
        master port (waiting for a grant when the port is width-bounded)
        and walks the coherence protocol.  ``latency`` is the full
        request-to-data time including every queueing delay, so the data
        is ready at ``now + latency``.  ``level`` is where the access was
        served.  ``reveal_vector`` is the line's reveal bits as the
        requester sees them for a read, the updated vector for a reveal
        (``None`` when the reveal was dropped), and ``None`` otherwise.

        A contention-free hierarchy skips the port, the transaction clock
        and the queue-cycle deltas: every one of them is zero there.
        """
        handler = self._HANDLERS.get(kind)
        if handler is None:
            raise ValueError(f"unknown transaction kind {kind!r}")
        if self._contention_free:
            latency, level, vector = handler(self, core, addr, now)
        else:
            stats = self._stats[core]
            wait = self._privs[core].port.acquire(now)
            stats.port_stall_cycles += wait
            noc_q0 = self.noc.queue_cycles
            dram_q0 = self.dram.queue_cycles
            self._txn_now = now = now + wait
            try:
                latency, level, vector = handler(self, core, addr, now)
            finally:
                self._txn_now = None
            latency += wait
            stats.noc_queue_cycles += self.noc.queue_cycles - noc_q0
            stats.dram_queue_cycles += self.dram.queue_cycles - dram_q0
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.emit(CAT_MEM_TXN, kind, core=core, addr=addr, value=latency)
            telemetry.observe(
                "mshr_occupancy", self._privs[core].mshr.occupancy(now)
            )
            telemetry.observe("noc_queue_depth", self.noc.queue_depth(now))
        return latency, level, vector

    # ------------------------------------------------------------------
    # the access calls
    # ------------------------------------------------------------------
    # On a contention-free hierarchy with no collector listening, a
    # private hit skips ``submit``: the port grant and queue deltas it
    # would add are zero there, and only ``submit`` emits the
    # per-transaction event.  Everything else — a directory transaction
    # (L2 miss, S upgrade, write miss), bounded timing, a traced run —
    # goes through ``submit``.  A private-hit routine that finds no hit
    # has changed nothing, so ``submit`` can run it again.

    def read(self, core: int, addr: int, now: int = 0) -> AccessResult:
        """A load accesses ``addr``; returns latency + the word's reveal bit."""
        hit = None
        if self._contention_free and not self.telemetry.enabled:
            # _read_hit's L1 case, inlined: no fill in flight to merge
            # with, so the latency is the L1 latency.
            laddr = addr & LINE_MASK
            priv = self._privs[core]
            l1 = priv.l1
            line = l1._sets[(laddr >> l1._line_shift) & l1._set_mask].get(laddr)
            if line is not None:
                ready = priv.mshr._fills.get(laddr)
                if ready is None or ready <= now:
                    l1._tick += 1
                    line.lru = l1._tick
                    self._stats[core].l1_hits += 1
                    return self._l1_hits[(line.reveal >> ((addr >> 3) & 7)) & 1]
            hit = self._read_hit(core, addr, now)
        latency, level, vector = hit or self.submit("read_req", core, addr, now)
        # recon_bits.is_word_revealed, inlined
        return AccessResult(latency, (vector >> ((addr >> 3) & 7)) & 1 == 1, level)

    def write(self, core: int, addr: int, now: int = 0) -> int:
        """A performed store writes ``addr``: obtain M, conceal the word."""
        if self._contention_free and not self.telemetry.enabled:
            hit = self._write_hit(core, addr)
            if hit is not None:
                return hit[0]
        return self.submit("write_req", core, addr, now)[0]

    def read_invisible(self, core: int, addr: int, now: int = 0) -> int:
        """An invisible (InvisiSpec-style) load: latency without state."""
        return self.submit("invisible_req", core, addr, now)[0]

    def reveal(self, core: int, addr: int, now: int = 0) -> bool:
        """Mark ``addr``'s word revealed in the core's private copy.

        Returns False (and drops the request) if the line has left the
        private hierarchy — always safe, only a lost optimization
        (paper §5.1.1).  A reveal never leaves the private hierarchy, so
        outside traced runs it skips ``submit`` even under bounded
        timing: only a width-bounded port can delay it.
        """
        if self.telemetry.enabled:
            return self.submit("reveal_req", core, addr, now)[2] is not None
        port = self._privs[core].port
        if port.width is not None:
            self._stats[core].port_stall_cycles += port.acquire(now)
        return self._reveal_private(core, addr)[1] is not None

    # ------------------------------------------------------------------
    # private hits (shared by the access calls and submit's handlers)
    # ------------------------------------------------------------------
    def _read_hit(
        self, core: int, addr: int, now: int
    ) -> Optional[Tuple[int, CacheLevel, int]]:
        """The private part of a demand load.

        An L1 hit, or an L2 hit that promotes the line into L1 (the L1
        victim folds back into L2).  Returns ``(latency, level,
        reveal_vector)``, or ``None`` when both private levels miss;
        nothing is counted or touched then (:meth:`_do_read` counts).
        """
        laddr = addr & LINE_MASK
        priv = self._privs[core]
        stats = self._stats[core]
        telemetry = self.telemetry
        line = priv.l1.lookup(laddr)
        if line is not None:
            stats.l1_hits += 1
            latency = self._pending_fill_latency(
                core, laddr, now, self._l1_latency
            )
            vector = line.reveal
            if telemetry.enabled:
                telemetry.emit(
                    CAT_CACHE, "l1_hit", core=core, addr=addr, value=latency
                )
                self._observe_load(
                    telemetry, latency, recon_bits.is_word_revealed(vector, addr)
                )
            return latency, CacheLevel.L1, vector
        line = priv.l2.lookup(laddr)
        if line is None:
            return None
        stats.l1_misses += 1
        stats.l2_hits += 1
        if telemetry.enabled:
            telemetry.emit(CAT_CACHE, "l1_miss", core=core, addr=addr)
        vector = line.reveal
        # Promote into L1 (same coherence state).
        l1_line, victim = priv.l1.insert(
            laddr, line.state, self._vector_if_tracked(vector, CacheLevel.L1)
        )
        l1_line.dirty = line.dirty
        if victim is not None:
            self._evict_private_l1(core, victim)
        latency = self._pending_fill_latency(core, laddr, now, self._l2_latency)
        if telemetry.enabled:
            telemetry.emit(
                CAT_CACHE, "l2_hit", core=core, addr=addr, value=latency
            )
            self._observe_load(
                telemetry, latency, recon_bits.is_word_revealed(vector, addr)
            )
        return latency, CacheLevel.L2, vector

    def _write_hit(
        self, core: int, addr: int
    ) -> Optional[Tuple[int, CacheLevel]]:
        """The private part of a performed store.

        A line held in E or M at L1 or L2 upgrades silently to M, the
        written word is concealed, and the directory records the core
        as owner.  Returns ``(latency, level)``, or ``None`` when the
        store needs a directory transaction (S upgrade or write miss);
        nothing is changed then.
        """
        laddr = addr & LINE_MASK
        priv = self._privs[core]
        array = priv.l1
        line = array.lookup(laddr, touch=False)
        if line is not None:
            level = CacheLevel.L1
            latency = self._l1_latency
            other = priv.l2.lookup(laddr, touch=False)
        else:
            array = priv.l2
            line = array.lookup(laddr, touch=False)
            if line is None:
                return None
            level = CacheLevel.L2
            latency = self._l2_latency
            other = None  # L1 missed just now
        state = line.state
        if state is not MESIState.MODIFIED and state is not MESIState.EXCLUSIVE:
            return None
        array.touch(line)
        for held in (line, other):
            if held is not None:
                held.state = MESIState.MODIFIED
                held.dirty = True
                held.reveal = recon_bits.conceal_word(held.reveal, addr)
        dir_line = self.llc.lookup(laddr, touch=False)
        if dir_line is not None:
            dir_line.owner = core
            dir_line.sharers = 1 << core
        self._stats[core].words_concealed += 1
        if self.telemetry.enabled:
            self.telemetry.emit(CAT_RECON, "conceal", core=core, addr=addr)
        return latency, level

    # ------------------------------------------------------------------
    # request handlers
    # ------------------------------------------------------------------
    @staticmethod
    def _observe_load(telemetry, latency: int, revealed: bool) -> None:
        """Record a completed load in the latency histograms."""
        telemetry.observe("load_latency", latency)
        if revealed:
            telemetry.observe("reveal_latency", latency)

    def _do_read(
        self, core: int, addr: int, now: int
    ) -> Tuple[int, CacheLevel, int]:
        """Demand load: a private hit, else GetS."""
        hit = self._read_hit(core, addr, now)
        if hit is not None:
            return hit
        stats = self._stats[core]
        laddr = line_addr(addr)
        priv = self._privs[core]
        telemetry = self.telemetry
        stats.l1_misses += 1
        stats.l2_misses += 1
        if telemetry.enabled:
            telemetry.emit(CAT_CACHE, "l1_miss", core=core, addr=addr)
            telemetry.emit(CAT_CACHE, "l2_miss", core=core, addr=addr)

        # Primary miss: claim an MSHR entry (stalls when the file is full),
        # then GetS to the directory.
        stall = priv.mshr.allocate(now)
        stats.mshr_stall_cycles += stall
        stats.coherence_transactions += 1
        dir_line, latency = self._llc_fetch(laddr, stats, core)
        if dir_line.owner is not None and dir_line.owner != core:
            latency += self._downgrade_owner(dir_line, stats)
        if dir_line.sharers & ~(1 << core):
            state = MESIState.SHARED
        else:
            state = MESIState.EXCLUSIVE
            # The directory tracks an E grant as ownership so a later GetS
            # knows whom to downgrade (E may silently have become M).
            dir_line.owner = core
        dir_line.sharers |= 1 << core
        vector = self._vector_if_tracked(dir_line.reveal, CacheLevel.LLC)
        self._fill_private(core, laddr, state, vector, stats)
        latency += stall
        priv.mshr.register_fill(laddr, now + latency, now)
        if self.params.memory.prefetch_next_line:
            self._prefetch(core, laddr + self.params.memory.l1.line_bytes, stats)
        if telemetry.enabled:
            self._observe_load(
                telemetry, latency, recon_bits.is_word_revealed(vector, addr)
            )
        return latency, CacheLevel.LLC, vector

    def _prefetch(self, core: int, laddr: int, stats: StatSet) -> None:
        """Pull ``laddr`` into the requester's L2 off the critical path.

        Only clean sharing is prefetched: if another core owns the line in
        E/M, the prefetch is dropped rather than forcing a downgrade.
        """
        line, _ = self._private_lookup(core, laddr)
        if line is not None:
            return
        dir_line = self.llc.lookup(laddr, touch=False)
        if dir_line is None:
            dir_line, _ = self._llc_fetch(laddr, stats, core)
        elif dir_line.owner is not None and dir_line.owner != core:
            return  # don't disturb a remote owner for a speculative fetch
        else:
            self._hop(src=core, dst=self.noc.home_node(laddr))
        state = (
            MESIState.EXCLUSIVE
            if not (dir_line.sharers & ~(1 << core))
            else MESIState.SHARED
        )
        if state is MESIState.EXCLUSIVE:
            dir_line.owner = core
        dir_line.sharers |= 1 << core
        vector = self._vector_if_tracked(dir_line.reveal, CacheLevel.LLC)
        priv = self._privs[core]
        l2_vec = self._vector_if_tracked(vector, CacheLevel.L2)
        _, victim = priv.l2.insert(laddr, state, l2_vec)
        if victim is not None:
            self._evict_private_l2(core, victim, stats)

    def _do_write(
        self, core: int, addr: int, now: int
    ) -> Tuple[int, Optional[CacheLevel], None]:
        """Performed store: a private E/M hit, else upgrade or GetM."""
        hit = self._write_hit(core, addr)
        if hit is not None:
            return hit[0], hit[1], None
        stats = self._stats[core]
        laddr = line_addr(addr)
        priv = self._privs[core]
        # No LRU touch: the fill below re-installs an upgraded S line at
        # both levels, which makes it most recently used anyway.
        line = priv.l1.lookup(laddr, touch=False)
        level: Optional[CacheLevel] = CacheLevel.L1
        if line is None:
            line = priv.l2.lookup(laddr, touch=False)
            level = CacheLevel.L2 if line is not None else None

        if line is not None and line.state is MESIState.SHARED:
            # Upgrade: invalidate other sharers, take the directory vector.
            latency = self.params.memory.level(level).latency
            latency += self._acquire_modified(core, laddr, stats, own_vector=line.reveal)
        else:
            # Write miss: GetM.  Claims an MSHR entry (no merge target:
            # the ownership acquisition completes synchronously).
            stats.l1_misses += 1
            stats.l2_misses += 1
            if self.telemetry.enabled:
                self.telemetry.emit(CAT_CACHE, "l1_miss", core=core, addr=addr)
                self.telemetry.emit(CAT_CACHE, "l2_miss", core=core, addr=addr)
            stall = priv.mshr.allocate(now)
            stats.mshr_stall_cycles += stall
            latency = stall + self._acquire_modified(
                core, laddr, stats, own_vector=None
            )
            priv.mshr.register_write(laddr, now + latency, now)

        self._conceal_private(core, laddr, addr)
        stats.words_concealed += 1
        return latency, level, None

    def _acquire_modified(
        self, core: int, laddr: int, stats: StatSet, own_vector: Optional[int]
    ) -> int:
        """GetM/upgrade: invalidate everyone else, install in M state."""
        stats.coherence_transactions += 1
        dir_line, latency = self._llc_fetch(laddr, stats, core)
        vector = dir_line.reveal
        if dir_line.owner is not None and dir_line.owner != core:
            # Owner passes data + vector straight to the next writer.
            owner = dir_line.owner
            vector, owner_dirty = self._invalidate_private(owner, laddr)
            latency += self._hop(
                carries_bitvector=True, src=self.noc.home_node(laddr), dst=owner
            )
            self._stats[owner].invalidations += 1
            dir_line.dirty = dir_line.dirty or owner_dirty
            dir_line.owner = None
            dir_line.sharers &= ~(1 << owner)
        preserve = self.params.preserve_invalidated_reveals
        for sharer in _cores_of(dir_line.sharers & ~(1 << core)):
            # Invalidated readers lose their private vectors (footnote 1)
            # unless the preserve-on-invalidation optimization is on, in
            # which case the ack carries the vector to the writer (safe:
            # the writer conceals exactly the words it writes).
            sharer_vec, _ = self._invalidate_private(sharer, laddr)
            if preserve:
                vector = recon_bits.merge(vector, sharer_vec)
            latency += self._hop(
                carries_bitvector=preserve,
                src=self.noc.home_node(laddr),
                dst=sharer,
            )
            self._stats[sharer].invalidations += 1
            stats.invalidations += 1
            if self.telemetry.enabled:
                self.telemetry.emit(
                    CAT_COHERENCE, "invalidate", core=sharer, addr=laddr
                )
        dir_line.sharers = 1 << core
        dir_line.owner = core
        if own_vector is not None:
            # Upgrading sharer: keep its own reveals plus the directory's.
            vector = recon_bits.merge(own_vector, vector)
        self._fill_private(
            core,
            laddr,
            MESIState.MODIFIED,
            self._vector_if_tracked(vector, CacheLevel.LLC)
            if own_vector is None
            else vector,
            stats,
        )
        return latency

    def _conceal_private(self, core: int, laddr: int, addr: int) -> None:
        priv = self._privs[core]
        for array in (priv.l1, priv.l2):
            held = array.lookup(laddr, touch=False)
            if held is not None:
                held.reveal = recon_bits.conceal_word(held.reveal, addr)
                held.dirty = True
        if self.telemetry.enabled:
            self.telemetry.emit(CAT_RECON, "conceal", core=core, addr=addr)

    def _do_invisible(
        self, core: int, addr: int, now: int
    ) -> Tuple[int, CacheLevel, None]:
        """Invisible (InvisiSpec-style) load: latency without state.

        The value is obtained from wherever the line currently lives, but
        nothing is installed, no coherence state changes, no MSHR entry is
        made — so repeated speculative accesses to an uncached line pay
        the full distance every time.
        """
        stats = self._stats[core]
        laddr = line_addr(addr)
        _, level = self._private_lookup(core, laddr)
        if level is not None:
            hit = self._l1_latency if level is CacheLevel.L1 else self._l2_latency
            return self._pending_fill_latency(core, laddr, now, hit), level, None
        latency = self.params.memory.llc.latency + self._hop(
            src=core, dst=self.noc.home_node(laddr)
        )
        dir_line = self.llc.lookup(laddr, touch=False)
        if dir_line is None:
            stats.llc_misses += 1
            return (
                latency + self.params.memory.dram_latency,
                CacheLevel.MEMORY,
                None,
            )
        if dir_line.owner is not None and dir_line.owner != core:
            # Data comes from the remote owner (no downgrade: invisible).
            latency += (
                self._hop(
                    src=self.noc.home_node(laddr), dst=dir_line.owner
                )
                + self._l2_latency
            )
        stats.llc_hits += 1
        return latency, CacheLevel.LLC, None

    def _do_reveal(
        self, core: int, addr: int, now: int
    ) -> Tuple[int, Optional[CacheLevel], Optional[int]]:
        """LPT commit-time reveal of one word on the private copy."""
        level, vector = self._reveal_private(core, addr)
        return 0, level, vector

    #: Transaction kind (the ``mem_txn`` event name) -> handler.  Plain
    #: functions, not bound methods: a per-instance map of bound methods
    #: would make every hierarchy a reference cycle that only the cyclic
    #: collector frees.
    _HANDLERS = {
        "read_req": _do_read,
        "write_req": _do_write,
        "invisible_req": _do_invisible,
        "reveal_req": _do_reveal,
    }

    def _reveal_private(
        self, core: int, addr: int
    ) -> Tuple[Optional[CacheLevel], Optional[int]]:
        """Set the word's reveal bit on the core's closest private copy.

        Returns ``(level, new_vector)``; the vector is ``None`` when the
        request was dropped because no private level that stores reveal
        bits holds the line.
        """
        line, level = self._private_lookup(core, addr & LINE_MASK)
        if line is None or (level is not None and not self._tracked[level]):
            self.dropped_reveals += 1
            if self.telemetry.enabled:
                self.telemetry.emit(
                    CAT_RECON, "reveal_dropped", core=core, addr=addr
                )
            return level, None
        line.reveal |= 1 << ((addr >> 3) & 7)  # recon_bits.reveal_word
        if self.telemetry.enabled:
            self.telemetry.emit(CAT_RECON, "reveal", core=core, addr=addr)
        return level, line.reveal

    def peek_access(self, core: int, addr: int) -> "Tuple[bool, bool]":
        """Non-mutating probe: ``(would_hit_l1, word_revealed)``.

        Used by Delay-on-Miss-style policies that must decide *before*
        accessing the cache whether the access would be observable, and
        by ReCon-on-DoM to let revealed words miss under speculation.
        """
        laddr = addr & LINE_MASK
        priv = self._privs[core]
        l1_line = priv.l1.lookup(laddr, touch=False)
        if l1_line is not None:
            revealed = self._tracks(CacheLevel.L1) and recon_bits.is_word_revealed(
                l1_line.reveal, addr
            )
            return True, revealed
        return False, self.is_revealed_for(core, addr)

    # ------------------------------------------------------------------
    # introspection (tests, analysis)
    # ------------------------------------------------------------------
    def _pending_fill_latency(
        self, core: int, laddr: int, now: int, hit_latency: int
    ) -> int:
        """Merge with an in-flight fill of the same line (secondary miss)."""
        priv = self._privs[core]
        merged = priv.mshr.merge(laddr, now, hit_latency)
        if merged is None:
            return hit_latency
        self._stats[core].mshr_hits_under_miss += 1
        return merged

    def mshr_occupancy(self, core: int, now: int) -> int:
        """Outstanding MSHR entries of one core (telemetry/tests)."""
        return self._privs[core].mshr.occupancy(now)

    def private_line(
        self, core: int, addr: int, level: CacheLevel = CacheLevel.L1
    ) -> Optional[CacheLine]:
        """Peek a private line without touching LRU (tests only)."""
        priv = self._privs[core]
        array = priv.l1 if level is CacheLevel.L1 else priv.l2
        return array.lookup(line_addr(addr), touch=False)

    def llc_line(self, addr: int) -> Optional[CacheLine]:
        """Peek the LLC/directory line without touching LRU (tests only)."""
        return self.llc.lookup(line_addr(addr), touch=False)

    def is_revealed_for(self, core: int, addr: int) -> bool:
        """Would a load by ``core`` observe the word revealed right now?

        Non-mutating approximation used by tests: checks the private copy,
        then the directory copy (which is what a miss would return when no
        remote owner exists).
        """
        laddr = line_addr(addr)
        line, level = self._private_lookup(core, laddr)
        if line is not None and level is not None:
            if not self._tracks(level):
                return False
            return recon_bits.is_word_revealed(line.reveal, addr)
        dir_line = self.llc.lookup(laddr, touch=False)
        if dir_line is None or not self._tracks(CacheLevel.LLC):
            return False
        if dir_line.owner is not None and dir_line.owner != core:
            vector = self._authoritative_vector(dir_line.owner, laddr)
            return recon_bits.is_word_revealed(vector, addr)
        return recon_bits.is_word_revealed(dir_line.reveal, addr)

    def check_coherence_invariants(self) -> None:
        """Assert MESI safety invariants (property tests call this).

        * a line with an owner has no other sharers' copies in M/E;
        * at most one private copy is in M or E across all cores;
        * every private copy is backed by an LLC/directory line (inclusion);
        * directory sharer sets cover every core holding a copy;
        * no interconnect message fell back to the averaged-distance
          charge (every hop named real endpoints).
        """
        if self.noc.averaged_hops:
            raise AssertionError(
                f"{self.noc.averaged_hops} interconnect messages used the"
                " average-distance fallback instead of real endpoints"
            )
        held: Dict[int, List[Tuple[int, MESIState]]] = {}
        for core, priv in enumerate(self._privs):
            seen = set()
            for array in (priv.l1, priv.l2):
                for line in array:
                    if line.addr in seen:
                        continue
                    seen.add(line.addr)
                    held.setdefault(line.addr, []).append((core, line.state))
        for laddr, holders in held.items():
            dir_line = self.llc.lookup(laddr, touch=False)
            if dir_line is None:
                raise AssertionError(f"inclusion violated for {laddr:#x}")
            exclusive = [
                (core, st)
                for core, st in holders
                if st in (MESIState.MODIFIED, MESIState.EXCLUSIVE)
            ]
            if len(exclusive) > 1:
                raise AssertionError(
                    f"multiple exclusive copies of {laddr:#x}: {exclusive}"
                )
            if exclusive and len(holders) > 1:
                raise AssertionError(
                    f"exclusive copy of {laddr:#x} coexists with sharers"
                )
            if exclusive and dir_line.owner != exclusive[0][0]:
                raise AssertionError(
                    f"directory owner for {laddr:#x} is {dir_line.owner},"
                    f" but core {exclusive[0][0]} holds {exclusive[0][1].value}"
                )
            for core, _ in holders:
                if not (dir_line.sharers >> core) & 1 and dir_line.owner != core:
                    raise AssertionError(
                        f"directory does not track core {core} for {laddr:#x}"
                    )
