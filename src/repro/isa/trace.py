"""Columnar micro-op traces.

A :class:`Trace` stores a micro-op stream in two parts:

* a **static table** (:attr:`Trace.statics`): one entry per distinct
  static instruction, holding the fields every dynamic instance of it
  shares -- ``(opclass, dest, srcs, data_srcs, forced_prediction,
  has_addr)``, where ``has_addr`` says whether its uops carry an
  address (every load and store does);
* **dynamic columns**, one typed array per field that changes from one
  instance to the next: the static index, ``pc``, ``addr`` (0 where the
  uop has none), ``value`` and the ``mispredict`` flag.  A uop's ``seq``
  is its position plus :attr:`Trace.start`.

A trace holds no per-uop objects: a SPEC2017 trace costs about 28 bytes
per uop, against about 153 when every uop was a :class:`MicroOp`.  The
cycle loop, the register decode and the functional warmer read the
columns directly.  :class:`MicroOp` stays the public record of one uop,
made on demand: indexing or iterating a trace builds a fresh one from
the columns (the analysis tools, the trace encoder, tests, traced
commit events and ``SecurityPolicy.on_commit`` do), and nothing keeps
it.

A prefix ``trace[:n]`` shares its parent's columns; any other slice
copies its part of them and keeps absolute sequence numbers (its
``start`` is the parent's plus the slice's).  :func:`as_trace` converts
a plain :class:`MicroOp` sequence, once, at the simulator's entry.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.common.types import MemPrediction, OpClass
from repro.isa.microop import MicroOp

__all__ = ["Static", "Trace", "as_trace"]

#: ``(opclass, dest, srcs, data_srcs, forced_prediction, has_addr)``.
Static = Tuple[
    OpClass,
    Optional[int],
    Tuple[int, ...],
    Tuple[int, ...],
    Optional[MemPrediction],
    bool,
]

#: The static-index column starts one byte wide and is widened when the
#: table outgrows it (no SPEC2017, SPEC2006 or PARSEC trace needs more
#: than 256 entries).
_INDEX_TYPECODES = ("B", "H", "I")

#: The dynamic columns, in :class:`Trace`'s argument order.
_COLUMNS = ("index", "pc", "addr", "value", "mispredict")

_MASK64 = 0xFFFFFFFFFFFFFFFF
_new_op = MicroOp.__new__


class Trace:
    """A micro-op trace: a static table plus typed dynamic columns.

    Behaves as a read-only sequence of :class:`MicroOp` records (see the
    module doc); ``len`` is the number of uops.  ``stop`` is ``None`` for
    a trace that owns its columns (a :class:`~repro.isa.program.Program`
    appends to them, so its trace grows as it is built) and the length
    of a prefix view that shares a longer trace's columns.
    """

    __slots__ = (
        "statics",
        "index",
        "pc",
        "addr",
        "value",
        "mispredict",
        "start",
        "stop",
    )

    def __init__(
        self,
        statics: Optional[List[Static]] = None,
        index: Optional[array] = None,
        pc: Optional[array] = None,
        addr: Optional[array] = None,
        value: Optional[array] = None,
        mispredict: Optional[bytearray] = None,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> None:
        self.statics: List[Static] = [] if statics is None else statics
        self.index = array("B") if index is None else index
        self.pc = array("Q") if pc is None else pc
        self.addr = array("Q") if addr is None else addr
        self.value = array("Q") if value is None else value
        self.mispredict = bytearray() if mispredict is None else mispredict
        #: Sequence number of the first uop.
        self.start = start
        self.stop = stop

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    def add_static(self, static: Static) -> int:
        """Append ``static`` to the table; returns its index.

        Widens the static-index column when the table outgrows it, so a
        builder that caches the column's ``append`` must fetch it again.
        """
        k = len(self.statics)
        self.statics.append(static)
        index = self.index
        if k >= 1 << (8 * index.itemsize):
            wider = _INDEX_TYPECODES[_INDEX_TYPECODES.index(index.typecode) + 1]
            self.index = array(wider, index)
        return k

    @classmethod
    def from_uops(cls, uops: Sequence[MicroOp]) -> "Trace":
        """Convert a :class:`MicroOp` sequence, field by field.

        Sequence numbers are kept when they run on by one from the first
        uop's (a slice of a built trace), else renumbered from 0.
        Raises :class:`ValueError` on a ``pc``, ``addr`` or ``value``
        outside ``0 .. 2**64 - 1``.
        """
        trace = cls()
        ids: Dict[Static, int] = {}
        columns = (trace.pc, trace.addr, trace.value)
        mispredict = trace.mispredict
        first = uops[0].seq if len(uops) else 0
        contiguous = first >= 0
        for position, uop in enumerate(uops):
            contiguous = contiguous and uop.seq == first + position
            addr = uop.addr
            static: Static = (
                uop.opclass,
                uop.dest,
                tuple(uop.srcs),
                tuple(uop.data_srcs),
                uop.forced_prediction,
                addr is not None,
            )
            k = ids.get(static)
            if k is None:
                k = ids[static] = trace.add_static(static)
            fields = (uop.pc, 0 if addr is None else addr, uop.value)
            for field in fields:
                if not (isinstance(field, int) and 0 <= field <= _MASK64):
                    raise ValueError(
                        f"uop #{position}: {field!r} is not a 64-bit unsigned int"
                    )
            trace.index.append(k)
            for column, field in zip(columns, fields):
                column.append(field)
            mispredict.append(1 if uop.mispredict else 0)
        trace.start = first if contiguous else 0
        return trace

    # ------------------------------------------------------------------
    # sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        stop = self.stop
        return len(self.index) if stop is None else stop

    def uop(self, i: int) -> MicroOp:
        """Materialize uop ``i`` (``0 <= i < len(self)``, unchecked)."""
        opclass, dest, srcs, data_srcs, forced, has_addr = self.statics[
            self.index[i]
        ]
        op = _new_op(MicroOp)
        op.seq = self.start + i
        op.pc = self.pc[i]
        op.opclass = opclass
        op.dest = dest
        op.srcs = srcs
        op.data_srcs = data_srcs
        op.addr = self.addr[i] if has_addr else None
        op.value = self.value[i]
        op.mispredict = self.mispredict[i] != 0
        op.forced_prediction = forced
        return op

    def __getitem__(self, key: Union[int, slice]) -> Union[MicroOp, "Trace"]:
        n = len(self)
        if isinstance(key, slice):
            begin, end, step = key.indices(n)
            if step != 1:
                raise ValueError("a trace slice takes no step")
            end = max(begin, end)
            columns = [getattr(self, name) for name in _COLUMNS]
            if begin == 0:
                return Trace(self.statics, *columns, start=self.start, stop=end)
            return Trace(
                self.statics,
                *[column[begin:end] for column in columns],
                start=self.start + begin,
            )
        if key < 0:
            key += n
        if not 0 <= key < n:
            raise IndexError("trace index out of range")
        return self.uop(key)

    def __iter__(self) -> Iterator[MicroOp]:
        return map(self.uop, range(len(self)))

    def __repr__(self) -> str:
        return (
            f"<Trace {len(self)} uops from #{self.start}, "
            f"{len(self.statics)} static>"
        )


def as_trace(trace: Sequence[MicroOp]) -> Trace:
    """``trace`` itself if it is a :class:`Trace`, else its conversion."""
    if isinstance(trace, Trace):
        return trace
    return Trace.from_uops(trace)
