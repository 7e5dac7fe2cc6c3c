"""Memory hierarchy: caches, MESI directory coherence, ReCon bit-vectors.

The core-facing interface is :class:`MemoryHierarchy`: ``read``,
``write``, ``read_invisible`` and ``reveal`` run one transaction each
through :meth:`MemoryHierarchy.submit`, which returns plain values
``(latency, level, reveal_vector)``.  Per-core :class:`MSHRFile` s and
bandwidth-bounded ports supply the contention model.
"""

from repro.memory.cache import CacheArray, CacheLine
from repro.memory.dram import MainMemory
from repro.memory.hierarchy import AccessResult, MemoryHierarchy
from repro.memory.interconnect import FixedLatencyInterconnect, MeshInterconnect
from repro.memory.mshr import MSHRFile
from repro.memory.ports import BandwidthPort, MasterPort

__all__ = [
    "AccessResult",
    "BandwidthPort",
    "CacheArray",
    "CacheLine",
    "FixedLatencyInterconnect",
    "MSHRFile",
    "MainMemory",
    "MasterPort",
    "MemoryHierarchy",
    "MeshInterconnect",
]
