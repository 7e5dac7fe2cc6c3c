"""Functional warm-up: fast-forward memory state without detailed timing.

A sampled run cannot start each measurement unit from a cold machine —
cold caches would bias every unit's IPC down.  The functional warmer
replays the trace prefix through the *real*
:class:`~repro.memory.hierarchy.MemoryHierarchy` state updaters
(``read``/``write``/``reveal``), so lines land in the same caches, the
directory tracks the same owners/sharers, and ReCon reveal bits follow
the same load-pair discipline as a detailed run — just without the
cycle-accurate pipeline in front.  Load-pair effects are emulated on
architectural registers: a committed load records ``dest → addr``; a
later load that sources that register reveals the earlier load's word
(checked before the destination entry is overwritten, mirroring
:meth:`~repro.security.lpt.LoadPairTable.on_load_commit_multi` ordering);
any non-load writer of the register clears the entry.

Warm images are plain dicts (each cache array's lines in global LRU
order, one flat column per field).  :mod:`repro.sampling.executor`
keeps them on the trace's cache entry and shares them across schemes —
trace generation and the functional replay are both scheme-independent.
The load-pair maps stay in the warmer, which needs them to issue its
reveals; a restored unit's load-pair table starts empty and fills during
its detailed re-warm.
"""

from __future__ import annotations

from itertools import repeat
from operator import attrgetter
from typing import Any, Dict, List, Sequence

from repro.common.gcpause import gc_paused
from repro.common.params import SystemParams
from repro.common.types import MESIState, OpClass
from repro.isa.microop import MicroOp
from repro.isa.trace import as_trace
from repro.memory.cache import CacheArray, CacheLine
from repro.memory.hierarchy import MemoryHierarchy

__all__ = [
    "FunctionalWarmer",
    "restore_hierarchy",
    "snapshot_hierarchy",
]


_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_STATES = {state.value: state for state in MESIState}
_lru_of = attrgetter("lru")


def _snapshot_array(array: CacheArray, directory: bool) -> Dict[str, Any]:
    """Dump resident lines in global-LRU-tick order (oldest first).

    One column per field: ``state`` is a string of one-letter MESI
    values and ``sharers`` holds each line's core bit mask as it is, so
    a dump is a handful of flat lists however many lines it holds.
    """
    lines = sorted(array, key=_lru_of)
    dump: Dict[str, Any] = {
        "addr": [line.addr for line in lines],
        "state": "".join([line.state.value for line in lines]),
        "reveal": [line.reveal for line in lines],
        "dirty": [bool(line.dirty) for line in lines],
    }
    if directory:
        dump["owner"] = [line.owner for line in lines]
        dump["sharers"] = [line.sharers for line in lines]
    return dump


def _restore_array(
    array: CacheArray, dump: Dict[str, Any], directory: bool
) -> None:
    """Rebuild dumped lines in one pass, without :meth:`CacheArray.insert`.

    The dump is oldest first, so each line takes the next LRU tick and
    lands last in its set's dict: the ticks, per-set order and ``_tick``
    that inserting the lines one by one would leave.  Nothing is evicted,
    so ``evictions`` stays 0 and a restored hierarchy starts its
    measurement window clean.
    """
    sets = array._sets
    shift = array._line_shift
    mask = array._set_mask
    new_line = CacheLine.__new__
    tick = array._tick
    if directory:
        owners, sharers = dump["owner"], dump["sharers"]
    else:
        owners, sharers = repeat(None), repeat(0)
    for addr, state, reveal, dirty, owner, bits in zip(
        dump["addr"], dump["state"], dump["reveal"], dump["dirty"], owners, sharers
    ):
        line = new_line(CacheLine)
        line.addr = addr
        line.state = _STATES[state]
        line.reveal = reveal
        line.dirty = dirty
        tick += 1
        line.lru = tick
        line.owner = owner
        line.sharers = bits
        sets[(addr >> shift) & mask][addr] = line
    array._tick = tick
    if max(map(len, sets)) > array.ways:
        raise ValueError("warm image exceeds cache capacity")


def snapshot_hierarchy(hierarchy: MemoryHierarchy) -> Dict[str, Any]:
    """Dump warm cache and directory state."""
    return {
        "llc": _snapshot_array(hierarchy.llc, directory=True),
        "cores": [
            {
                "l1": _snapshot_array(priv.l1, directory=False),
                "l2": _snapshot_array(priv.l2, directory=False),
            }
            for priv in hierarchy._privs
        ],
    }


def restore_hierarchy(
    params: SystemParams, image: Dict[str, Any]
) -> MemoryHierarchy:
    """Build a fresh hierarchy and load a warm image into it.

    MSHRs and ports start empty on purpose: the functional pass has no
    notion of in-flight transactions, and a unit's own detailed warm
    prefix re-populates transient state before measurement begins.
    """
    hierarchy = MemoryHierarchy(params)
    if len(image["cores"]) != params.num_cores:
        raise ValueError(
            "warm image built for %d cores, params have %d"
            % (len(image["cores"]), params.num_cores)
        )
    with gc_paused():
        _restore_array(hierarchy.llc, image["llc"], directory=True)
        for priv, dump in zip(hierarchy._privs, image["cores"]):
            _restore_array(priv.l1, dump["l1"], directory=False)
            _restore_array(priv.l2, dump["l2"], directory=False)
    return hierarchy


class FunctionalWarmer:
    """Replays trace prefixes through real memory-state updaters.

    The warmer walks every core's trace round-robin by index (the
    closest order-approximation to concurrent execution that needs no
    timing model) and exposes :meth:`snapshot` at arbitrary uop offsets,
    advancing monotonically — the sampled executor snapshots once per
    measurement-grid slot in a single O(trace) pass.
    """

    def __init__(
        self,
        params: SystemParams,
        traces: Sequence[Sequence[MicroOp]],
    ) -> None:
        if len(traces) > params.num_cores:
            import dataclasses

            params = dataclasses.replace(params, num_cores=len(traces))
        self.params = params
        self.traces = [as_trace(trace) for trace in traces]
        self.hierarchy = MemoryHierarchy(params)
        self.position = 0
        self._pairs: List[Dict[int, int]] = [dict() for _ in traces]

    def advance(self, upto: int) -> None:
        """Replay all cores forward to per-core uop index ``upto``."""
        if upto < self.position:
            raise ValueError(
                "FunctionalWarmer is forward-only (at %d, asked for %d)"
                % (self.position, upto)
            )
        hierarchy = self.hierarchy
        read, write, reveal = hierarchy.read, hierarchy.write, hierarchy.reveal
        # Each lane reads its trace's static-index and address columns,
        # and (opclass, dest, srcs) of its static entries.
        lanes = [
            (
                core,
                len(trace),
                trace.index,
                trace.addr,
                [static[:3] for static in trace.statics],
                pairs,
            )
            for core, (trace, pairs) in enumerate(zip(self.traces, self._pairs))
        ]
        for idx in range(self.position, upto):
            for core, length, index, addrs, shapes, pairs in lanes:
                if idx >= length:
                    continue
                opclass, dest, srcs = shapes[index[idx]]
                if opclass is _LOAD:
                    addr = addrs[idx]
                    for src in srcs:
                        pair = pairs.get(src)
                        if pair is not None:
                            reveal(core, pair, 0)
                    read(core, addr, 0)
                    pairs[dest] = addr
                elif opclass is _STORE:
                    write(core, addrs[idx], 0)
                elif dest is not None:
                    pairs.pop(dest, None)
        self.position = upto

    def snapshot(self, at: int) -> Dict[str, Any]:
        """Advance to ``at`` and dump the warm state."""
        self.advance(at)
        return snapshot_hierarchy(self.hierarchy)

