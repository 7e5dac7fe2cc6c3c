"""Run configuration for the experiment entry points.

A :class:`RunConfig` bundles the knobs that used to be plumbed through
``run_benchmark`` / ``run_benchmark_seeds`` / ``run_suite`` as separate
keyword arguments (``params``, ``threads``, ``cache``, ``warmup_uops``).
The entry points take ``config: RunConfig`` (keyword-only).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Optional

from repro.common.params import MemoryTimingParams, SystemParams
from repro.sampling.config import SamplingConfig
from repro.sim.chaos import ChaosConfig
from repro.telemetry.events import TelemetryConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle (runner imports config)
    from repro.sim.runner import TraceCache

__all__ = ["MemoryTimingParams", "RunConfig"]


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """How to run an experiment (everything except *what* to run).

    Attributes:
        params: system configuration; ``None`` means the Table-2 defaults
            sized for ``threads`` cores.
        threads: parallel workload threads (= simulated cores).
        warmup_uops: detailed-warm-up prefix excluded from reported stats;
            ``None`` means the default 40% of the trace.
        cache: trace cache shared across runs; ``None`` uses the
            process-global cache.  Excluded from equality/hashing — it is
            an execution detail, not part of the experiment identity.
        telemetry: event-tracing configuration; ``None`` (the default)
            disables telemetry entirely — the simulator runs with the
            null collector and bit-identical results.  Like ``cache``,
            telemetry observes a run without changing its outcome, so it
            is excluded from the result-store identity (runs with
            telemetry enabled bypass the store instead).
        chaos: fault-injection plan (CLI ``--chaos``); ``None`` (the
            default) injects nothing.  Chaos exists to exercise the
            engine's supervision layer (:mod:`repro.sim.supervisor`) —
            setting it routes grid execution through the supervisor.
            Like ``telemetry`` it is excluded from the result-store
            run key, but chaos runs never consult or populate the
            store anyway (a chaos sweep must not poison real results).
        sampling: statistical-sampling configuration
            (:class:`~repro.sampling.config.SamplingConfig`); ``None``
            (the default) runs exact detailed simulation, bit-identical
            to configurations that predate sampling.  Unlike
            ``telemetry``, sampling changes the produced numbers, so it
            *does* join the result-store run key — but only when set,
            keeping exact-mode keys stable.  Sampling and telemetry are
            mutually exclusive (sampled runs skip most of the trace, so
            an event stream would be misleadingly sparse).
    """

    params: Optional[SystemParams] = None
    threads: int = 1
    warmup_uops: Optional[int] = None
    cache: Optional["TraceCache"] = dataclasses.field(
        default=None, compare=False, repr=False
    )
    telemetry: Optional[TelemetryConfig] = None
    chaos: Optional[ChaosConfig] = None
    sampling: Optional[SamplingConfig] = None

    def __post_init__(self) -> None:
        if self.threads <= 0:
            raise ValueError("threads must be positive")
        if self.warmup_uops is not None and self.warmup_uops < 0:
            raise ValueError("warmup_uops cannot be negative")
        if self.sampling is not None and self.telemetry is not None:
            raise ValueError(
                "sampling and telemetry cannot be combined: a sampled "
                "run detail-simulates only measurement units, so the "
                "event stream would cover a sliver of the trace"
            )

    def resolved_params(self) -> SystemParams:
        """The effective :class:`SystemParams` (defaults filled in)."""
        if self.params is not None:
            return self.params
        return SystemParams(num_cores=self.threads)

    def resolved_warmup(self, length: int) -> int:
        """The effective warm-up prefix for a trace of ``length`` uops."""
        if self.warmup_uops is not None:
            return self.warmup_uops
        return (length * 2) // 5

    def replace(self, **changes: Any) -> "RunConfig":
        """A copy with ``changes`` applied (dataclasses.replace sugar)."""
        return dataclasses.replace(self, **changes)
