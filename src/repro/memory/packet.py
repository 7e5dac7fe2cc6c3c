"""Typed memory packets.

Every coherence transaction — a request that reaches the directory,
and every message the hierarchy generates on its behalf — is modeled as
a :class:`MemPacket`.  Packets are the *only* carriers of ReCon reveal
bit-vectors between modules (paper §5.2–5.3: reveal/conceal state rides
on coherence transactions, never on a side channel), so a core reads
reveal outcomes from the response rather than peeking at cache
internals.  The reference cycle loop submits a packet for every access.
Accesses that stay inside a core's private caches (L1/L2 hits, stores to
E/M lines, reveals) need no packet on the untraced contention-free path:
:class:`~repro.memory.hierarchy.MemoryHierarchy`'s ``read``/``write``/
``reveal`` return the same latency and reveal bit as plain values.

A packet's life cycle::

    pkt = MemPacket.request(PacketKind.READ_REQ, core_id, addr, now)
    hierarchy.submit(pkt)          # turns the request into a response
    pkt.ready_at                   # completion time (issue + latency)
    pkt.word_revealed()            # ReCon payload consultation

``MemPacket`` is a hand-written ``__slots__`` class rather than a
dataclass: one packet is allocated per submitted transaction, which makes
construction cost part of the simulator's hot path (dataclass
``__init__`` plus ``__dict__`` allocation measurably slowed miss-heavy
cells; ``slots=True`` needs Python 3.10+ while CI still runs 3.9).
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional

from repro.common.types import CacheLevel, line_addr
from repro.memory import recon_bits

__all__ = ["MemPacket", "PacketKind"]


#: Values of the kinds a core may submit.
_REQUEST_VALUES = frozenset(
    {"read_req", "write_req", "invisible_req", "reveal_req"}
)


class PacketKind(enum.Enum):
    """What a packet asks for (requests) or reports (responses)."""

    #: Demand load (GetS when it misses).
    READ_REQ = "read_req"
    #: Store/ownership acquisition (GetM/upgrade when needed).
    WRITE_REQ = "write_req"
    #: Invisible-speculation load: data without installing state.
    INVISIBLE_REQ = "invisible_req"
    #: LPT commit-time reveal of one word (paper §5.1).
    REVEAL_REQ = "reveal_req"
    #: Data/ack response to any of the above.
    RESP = "resp"
    #: Directory-initiated downgrade/invalidate probe.
    SNOOP = "snoop"
    #: Dirty-line eviction toward the next level / DRAM.
    WRITEBACK = "writeback"

    def __init__(self, value: str) -> None:
        #: Whether a core may submit this kind; a plain attribute because
        #: :meth:`~repro.memory.hierarchy.MemoryHierarchy.submit` checks it
        #: on every request.
        self.is_request = value in _REQUEST_VALUES


_packet_ids = itertools.count()


class MemPacket:
    """One memory transaction (request that mutates into its response).

    ``src``/``dst`` are interconnect node ids: cores are nodes
    ``0..num_cores-1``; the directory bank of a line is
    ``interconnect.home_node(line_addr)`` (``None`` on a crossbar,
    which has a single home).  ``reveal_vector`` is the ReCon payload:
    the line's reveal bits as seen by the responder, ``None`` until a
    response carrying them arrives.
    """

    __slots__ = (
        "kind",
        "core",
        "addr",
        "issued_at",
        "src",
        "dst",
        "packet_id",
        "latency",
        "level",
        "reveal_vector",
        "revealed",
        "acknowledged",
    )

    def __init__(
        self,
        kind: PacketKind,
        core: int,
        addr: int,
        issued_at: int,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        packet_id: Optional[int] = None,
        latency: Optional[int] = None,
        level: Optional[CacheLevel] = None,
        reveal_vector: Optional[int] = None,
        revealed: bool = False,
        acknowledged: bool = False,
    ) -> None:
        self.kind = kind
        self.core = core
        self.addr = addr
        self.issued_at = issued_at
        self.src = src
        self.dst = dst
        #: Monotonic id for tracing/debugging.
        self.packet_id = (
            next(_packet_ids) if packet_id is None else packet_id
        )
        #: Filled in by the hierarchy when the transaction completes.
        self.latency = latency
        self.level = level
        #: ReCon bit-vector payload (None = not carried / not applicable).
        self.reveal_vector = reveal_vector
        #: Whether the requested word was revealed *and* visible to the core.
        self.revealed = revealed
        #: For REVEAL_REQ: whether the reveal took effect (line present).
        self.acknowledged = acknowledged

    @classmethod
    def request(
        cls,
        kind: PacketKind,
        core: int,
        addr: int,
        issued_at: int,
    ) -> "MemPacket":
        """Build a request packet originating at ``core``'s node."""
        if not kind.is_request:
            raise ValueError(f"{kind} is not a request kind")
        return cls(kind, core, addr, issued_at, src=core)

    @property
    def line_addr(self) -> int:
        return line_addr(self.addr)

    @property
    def is_response(self) -> bool:
        return self.latency is not None

    @property
    def ready_at(self) -> int:
        """Cycle the response data is available at the requester."""
        if self.latency is None:
            raise ValueError("packet has not completed yet")
        return self.issued_at + self.latency

    def word_revealed(self, addr: Optional[int] = None) -> bool:
        """Consult the carried bit-vector for one word's reveal state."""
        if self.reveal_vector is None:
            return False
        return recon_bits.is_word_revealed(
            self.reveal_vector, self.addr if addr is None else addr
        )

    def complete(
        self,
        latency: int,
        *,
        level: Optional[CacheLevel] = None,
        reveal_vector: Optional[int] = None,
        revealed: bool = False,
        acknowledged: bool = False,
    ) -> "MemPacket":
        """Mutate this request into its response; returns self."""
        self.latency = latency
        self.level = level
        self.reveal_vector = reveal_vector
        self.revealed = revealed
        self.acknowledged = acknowledged
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"resp@{self.ready_at}" if self.latency is not None else "req"
        return (
            f"<MemPacket #{self.packet_id} {self.kind.value} core={self.core}"
            f" [{self.addr:#x}] {state}>"
        )
