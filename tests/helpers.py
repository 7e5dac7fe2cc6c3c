"""Shared test helpers: pipeline factories and process liveness."""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.common import (
    CacheParams,
    CoreParams,
    MemoryParams,
    SchemeKind,
    StatSet,
    SystemParams,
)
from repro.core import Core
from repro.isa import Program
from repro.memory import MemoryHierarchy
from repro.security import make_policy
from repro.telemetry import TelemetryCollector, TelemetryConfig
from repro.telemetry.events import CAT_SECURITY

__all__ = [
    "Observed",
    "make_core",
    "observations",
    "observer",
    "process_alive",
    "run_program",
    "small_system_params",
]


def small_system_params(num_cores: int = 1, **overrides) -> SystemParams:
    """System with tiny caches so tests can provoke misses and evictions."""
    memory = MemoryParams(
        l1=CacheParams(size_bytes=16 * 64, ways=2, latency=2),
        l2=CacheParams(size_bytes=64 * 64, ways=4, latency=6),
        llc=CacheParams(size_bytes=256 * 64, ways=4, latency=16),
        dram_latency=60,
        noc_hop_latency=2,
    )
    return SystemParams(
        core=CoreParams(),
        memory=memory,
        num_cores=num_cores,
        **overrides,
    )


def observer() -> TelemetryCollector:
    """A collector keeping the core's security events (the observe probe)."""
    return TelemetryCollector(TelemetryConfig(categories=frozenset({CAT_SECURITY})))


class Observed(NamedTuple):
    """One load's cache access as a side channel sees it."""

    seq: int
    addr: int
    speculative: bool


def observations(core: Core) -> List[Observed]:
    """The ``observe`` events of a core built with :func:`observer`."""
    return [
        Observed(ev.seq, ev.addr, bool(ev.value & 2))
        for ev in core.telemetry.events
        if ev.category == CAT_SECURITY and ev.kind == "observe"
    ]


def make_core(
    program: Program,
    scheme: SchemeKind = SchemeKind.UNSAFE,
    params: Optional[SystemParams] = None,
    hierarchy: Optional[MemoryHierarchy] = None,
    core_id: int = 0,
) -> Core:
    """A core on ``program`` that records its loads' ``observe`` events."""
    if params is None:
        params = small_system_params()
    if hierarchy is None:
        hierarchy = MemoryHierarchy(params)
    stats = StatSet()
    policy = make_policy(scheme, stats)
    return Core(
        core_id,
        params,
        program.trace(),
        hierarchy,
        policy,
        stats,
        telemetry=observer(),
    )


def run_program(program: Program, scheme: SchemeKind = SchemeKind.UNSAFE, **kw):
    """Run a program to completion; returns the finished Core."""
    core = make_core(program, scheme, **kw)
    core.run()
    return core


def process_alive(pid: int) -> bool:
    """Whether ``pid`` is a running (not zombie) process, from ``/proc``."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"
