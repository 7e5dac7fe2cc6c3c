"""Pause CPython's cyclic garbage collector across a burst of allocations.

The collector runs a young collection every ``gc.get_threshold()[0]``
container allocations, whether or not anything has died, and every
tenth of those ages the survivors one generation further; a full
collection then walks every live object.  A trace build (its memory
image) or a warm-image restore (its cache lines) allocates tens of
thousands of objects that all stay alive and form no cycles, so every
collection it triggers finds nothing to free.  Pausing collection for the burst lets
the first allocation after it age the whole burst in one young
collection.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["gc_paused"]


@contextmanager
def gc_paused() -> Iterator[None]:
    """Disable automatic collection inside the block, then restore it.

    Reference counting still frees every object that dies inside the
    block.  A collector that was already disabled stays disabled.  Two
    threads pausing at once leave it enabled when both are done.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
