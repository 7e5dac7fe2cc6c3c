"""Shared test helpers: pipeline factories, process liveness and a
running sweep service."""

from __future__ import annotations

import asyncio
import contextlib
import threading
from typing import Iterator, List, NamedTuple, Optional

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
    "serving",
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


@contextlib.contextmanager
def serving(service) -> Iterator[str]:
    """Serve ``service`` on an ephemeral port in a daemon thread's event
    loop; yields its base URL and closes the service on exit."""
    from repro.sim.service import _serve_async

    ready = threading.Event()
    bound: list = []
    holder: dict = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        holder["loop"] = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(
                _serve_async(service, "127.0.0.1", 0, ready=ready, bound=bound)
            )
        except asyncio.CancelledError:
            pass
        finally:
            loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10), "service failed to start"
    host, port = bound[0]
    try:
        yield f"http://{host}:{port}"
    finally:
        loop = holder.get("loop")
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(
                lambda: [task.cancel() for task in asyncio.all_tasks(loop)]
            )
        service.close()
