"""Vectorized kernels for the cycle loop.

The cycle loop (:class:`repro.core.pipeline.Core`) calls these scans.
They follow one rule, measured rather than assumed: vectorization only
pays above a size threshold.  Pipeline operand scans touch one to three
registers and a ready queue of a few dozen entries — at those sizes the
numpy call overhead (array creation + dispatch) exceeds the loop it
replaces, so each kernel falls back to plain Python below its threshold
and numpy engages only on the rare wide cases.  When numpy is absent
entirely, the fallbacks are the implementation.
"""

from __future__ import annotations

from typing import List, Sequence

__all__ = [
    "HAVE_NUMPY",
    "count_unready",
    "sort_ready",
]

try:  # pragma: no cover - exercised only where numpy is missing
    import numpy as _np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    _np = None
    HAVE_NUMPY = False


#: Below this ready-queue length, ``list.sort`` beats an argsort round trip.
SORT_READY_THRESHOLD = 64

#: Below this operand count, a scalar loop beats a numpy ``take``.
SCOREBOARD_THRESHOLD = 16


def _seq_of(inst) -> int:
    return inst.seq


def sort_ready(insts: List) -> List:
    """Order a wakeup/select queue by sequence number (oldest first).

    The select scan: the issue stage walks this order, re-sorting only
    after out-of-order wakeups.  Large queues (many blocked
    loads under a secure scheme) take the numpy argsort path; small ones
    sort in place.
    """
    if HAVE_NUMPY and len(insts) >= SORT_READY_THRESHOLD:
        seqs = _np.fromiter((inst.seq for inst in insts), dtype=_np.int64, count=len(insts))
        return [insts[i] for i in _np.argsort(seqs, kind="stable")]
    insts.sort(key=_seq_of)
    return insts


def count_unready(ready: Sequence[bool], phys: Sequence[int]) -> int:
    """Scoreboard scan: how many of ``phys`` are not ready yet.

    ``ready`` is the physical-register scoreboard; ``phys`` the operand
    registers of one instruction (1–3 in practice, so the scalar loop is
    the common path).
    """
    if HAVE_NUMPY and len(phys) >= SCOREBOARD_THRESHOLD:
        board = _np.fromiter(ready, dtype=bool, count=len(ready))
        return int(len(phys) - _np.count_nonzero(board[list(phys)]))
    count = 0
    for reg in phys:
        if not ready[reg]:
            count += 1
    return count
