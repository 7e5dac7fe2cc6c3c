"""Out-of-order core model: rename, shadows, LSQ, MDP, pipeline."""

from repro.core.lsq import LoadEntry, LoadStoreUnit, StoreEntry
from repro.core.mdp import MemoryDependencePredictor
from repro.core.pipeline import Core
from repro.core.rename import DecodedTrace, RegisterFile, decode_trace
from repro.core.shadows import NO_SHADOW, ShadowTracker

__all__ = [
    "Core",
    "DecodedTrace",
    "LoadEntry",
    "LoadStoreUnit",
    "MemoryDependencePredictor",
    "NO_SHADOW",
    "RegisterFile",
    "ShadowTracker",
    "StoreEntry",
    "decode_trace",
]
