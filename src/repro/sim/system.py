"""System assembly: cores + shared memory hierarchy under one scheme."""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.analysis.timeline import TimelineSink
from repro.common.errors import SimulationHangError
from repro.common.params import SystemParams
from repro.common.stats import StatSet
from repro.common.types import SchemeKind
from repro.core.pipeline import Core
from repro.core.rename import DecodedTrace
from repro.isa.microop import MicroOp
from repro.memory.hierarchy import MemoryHierarchy
from repro.security import make_policy
from repro.common.events import EventQueue
from repro.telemetry.events import (
    NULL_TELEMETRY,
    TelemetryCollector,
    TelemetryConfig,
    TelemetryResult,
)

__all__ = ["System", "SystemResult"]


@dataclasses.dataclass
class SystemResult:
    """Outcome of one system run."""

    scheme: SchemeKind
    cycles: int
    per_core: List[StatSet]
    #: Collected telemetry (``None`` when tracing was disabled).
    telemetry: Optional[TelemetryResult] = None

    @property
    def aggregate(self) -> StatSet:
        total = StatSet()
        for stats in self.per_core:
            total.merge(stats)
        total.cycles = self.cycles
        return total

    @property
    def ipc(self) -> float:
        """Total committed micro-ops over parallel execution time."""
        if self.cycles == 0:
            return 0.0
        return sum(s.committed_uops for s in self.per_core) / self.cycles


class System:
    """One or more cores sharing a coherent memory hierarchy."""

    def __init__(
        self,
        params: SystemParams,
        traces: Sequence[Sequence[MicroOp]],
        scheme: SchemeKind,
        warmup_uops: int = 0,
        telemetry: Optional[TelemetryConfig] = None,
        hierarchy: Optional[MemoryHierarchy] = None,
        measure_uops: Optional[int] = None,
        decoded: Optional[Sequence[DecodedTrace]] = None,
    ) -> None:
        if len(traces) > params.num_cores:
            params = dataclasses.replace(params, num_cores=len(traces))
        params.validate()
        self.params = params
        self.scheme = scheme
        if hierarchy is not None:
            # A pre-warmed hierarchy (sampled simulation restores one
            # from a warm image) must already be sized for this system.
            if hierarchy.params.num_cores != params.num_cores:
                raise ValueError(
                    "injected hierarchy has %d cores, system needs %d"
                    % (hierarchy.params.num_cores, params.num_cores)
                )
            self.hierarchy = hierarchy
        else:
            self.hierarchy = MemoryHierarchy(params)
        #: One event queue shared by every core and the memory system:
        #: pipeline and memory completions all fire from here.
        self.events = EventQueue()
        self.telemetry: Optional[TelemetryCollector] = None
        if telemetry is not None:
            self.telemetry = TelemetryCollector(telemetry)
            if telemetry.timeline_interval is not None:
                self.telemetry.add_sink(
                    TimelineSink(interval=telemetry.timeline_interval)
                )
        collector = self.telemetry if self.telemetry is not None else NULL_TELEMETRY
        if decoded is not None and len(decoded) != len(traces):
            raise ValueError("need one decoded trace per trace")
        self.cores: List[Core] = []
        for core_id, trace in enumerate(traces):
            stats = StatSet()
            policy = make_policy(scheme, stats)
            self.cores.append(
                Core(
                    core_id,
                    params,
                    trace,
                    self.hierarchy,
                    policy,
                    stats,
                    warmup_uops=warmup_uops,
                    telemetry=collector,
                    events=self.events,
                    measure_uops=measure_uops,
                    decoded=decoded[core_id] if decoded is not None else None,
                )
            )

    def _result(self, cycles: int, measured: List[StatSet]) -> SystemResult:
        """Assemble the result, finalizing telemetry against the stats."""
        result = SystemResult(self.scheme, cycles, measured)
        if self.telemetry is not None:
            result.telemetry = self.telemetry.finalize(result.aggregate)
        return result

    def run(self, max_cycles: int = 50_000_000) -> SystemResult:
        """Run all cores to completion over the shared event queue.

        The single-core fast path delegates to :meth:`Core.run`, which
        raises the same :class:`~repro.common.errors.SimulationHangError`
        (a ``RuntimeError`` subclass — same message, same cycle budget)
        as the multicore loop when the hang guard trips.  The error
        carries hang diagnostics (current cycle, per-core ROB-head
        sequence numbers, outstanding MSHR entries, event-queue depth)
        so a supervised run's failure record is debuggable.
        """
        if len(self.cores) == 1:
            core = self.cores[0]
            core.run(max_cycles=max_cycles)
            # A core stopped by its measurement window leaves completions
            # queued; they hold bound methods of the core, which would make
            # the whole system cyclic garbage.
            self.events.clear()
            measured = core.measured
            return self._result(measured.cycles, [measured])
        events = self.events
        collector = self.telemetry
        cycle = 0
        pending = [core for core in self.cores if not core.done]
        # A step that did nothing and left its core's epoch unchanged is
        # repeated exactly by the next one until the epoch moves (an
        # event of the core fired, or -- for a miss-gating policy, whose
        # cores share the queue's epoch -- any core changed cache state)
        # or the core's fetch-resume cycle comes, so those steps are
        # skipped.  ``quiet_epoch[i]`` is the epoch core ``i``'s last
        # step left, ``None`` when that step did something or moved the
        # epoch, and ``quiet_cycle[i]`` that step's cycle.
        quiet_epoch: List[Optional[int]] = [None] * len(self.cores)
        quiet_cycle = [0] * len(self.cores)
        while pending:
            if cycle >= max_cycles:
                raise SimulationHangError(
                    max_cycles,
                    cycle=cycle,
                    rob_head_seqs=[core.rob_head_seq for core in self.cores],
                    mshr_outstanding=[
                        core.mshr_outstanding(cycle) for core in self.cores
                    ],
                    event_queue_depth=len(events),
                )
            if collector is not None:
                collector.now = cycle
            active = events.service(cycle)
            finished = False
            for core in pending:
                core_id = core.core_id
                epochs = core._epochs
                epoch = epochs.epoch
                if epoch == quiet_epoch[core_id] and not (
                    quiet_cycle[core_id] < core._fetch_resume_cycle <= cycle
                ):
                    continue
                if core.advance(cycle):
                    active = True
                    quiet_epoch[core_id] = None
                elif epochs.epoch == epoch:
                    quiet_epoch[core_id] = epoch
                    quiet_cycle[core_id] = cycle
                else:
                    quiet_epoch[core_id] = None
                if core.done:
                    finished = True
            if active:
                cycle += 1
            else:
                # A core that finished this cycle still bounds the wake-up.
                cycle = min(core.next_wake(cycle) for core in pending)
            if finished:
                pending = [core for core in pending if not core.done]
        events.clear()
        measured = [core.measured for core in self.cores]
        end = max(stats.cycles for stats in measured)
        return self._result(end, measured)
