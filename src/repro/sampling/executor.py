"""Sampled-run executor: warm-up, measurement units, escalation.

:func:`run_sampled` is the sampled counterpart of
:func:`repro.sim.runner.run_benchmark` — same signature semantics, same
:class:`~repro.sim.runner.RunResult` shape, reached automatically when
``RunConfig.sampling`` is set.  The procedure (SMARTS-style):

1. Build (or reuse — traces are scheme-independent) the workload trace.
2. Place ``max_units`` measurement-grid slots evenly across the exact
   run's measured region ``[resolved_warmup, length)``.
3. One functional pass replays the trace through the real memory-state
   updaters, snapshotting a warm image at every slot (cheap: dict ops,
   no cycle loop).  The trace cache keeps the images on the trace's
   entry, so every scheme of the row shares them; they never leave the
   process.
4. Escalate: detail-simulate ``min_units`` units (each restored from
   its warm image, with a short detailed re-warm prefix for
   pipeline-local state), estimate IPC with a Student-t interval, and
   double the unit count on the nested power-of-two grid until the
   relative half-width meets the target or ``max_units`` is reached.
   Doubling reuses every already-measured unit.
5. Scale counters to the measured region and report the estimate as a
   :class:`~repro.sampling.estimator.SampledEstimate` on the result.

Everything is deterministic: unit placement is arithmetic, units are
simulated in ascending-offset order, and the estimator is rebuilt in
that same order each round — so inline/threads/process/queue backends
and a service-restart replay all produce bit-identical results.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Sequence, Tuple

from repro.common.stats import StatSet
from repro.common.types import SchemeKind
from repro.core.rename import DecodedTrace
from repro.isa.trace import Trace
from repro.sampling.estimator import (
    MeanEstimator,
    SampledEstimate,
    escalation_schedule,
)
from repro.sampling.warmup import FunctionalWarmer, restore_hierarchy
from repro.sim.config import RunConfig
from repro.sim.system import System
from repro.workloads.profile import BenchmarkProfile

if TYPE_CHECKING:  # pragma: no cover - the runner imports this module lazily
    from repro.sim.runner import TraceCache

__all__ = ["run_sampled", "warm_images_key", "get_warm_images"]

#: StatSet counters that get their own per-cell estimate + CI (the
#: leakage-relevant ones a ReCon comparison reads off a sampled sweep).
LEAKAGE_COUNTERS = ("load_pairs_detected", "reveal_hits", "delayed_loads")

#: Retained bytes per resident cache line of a warm image, for the trace
#: cache's byte budget: tracemalloc measured 36.1-54.2 (median 38) over
#: the image sets of every SPEC2017 profile at 30k uops and every PARSEC
#: one at 4 x 10k (3.9 and 6.5 MB in all).
_IMAGE_LINE_EST_BYTES = 38


def warm_images_key(
    length: int, params: Any, offsets: Sequence[int]
) -> Tuple[Any, ...]:
    """The trace-cache key of a cell's warm-image set.

    The trace's cache entry already fixes the profile, seed and thread
    count.  Scheme is deliberately absent: the functional replay is
    scheme-independent, so cells differing only in scheme share one
    image set.
    """
    return ("warm_images", length, params, tuple(offsets))


def get_warm_images(
    cache: "TraceCache",
    profile: BenchmarkProfile,
    threads: int,
    length: int,
    params: Any,
    offsets: Sequence[int],
) -> Dict[int, Dict[str, Any]]:
    """The warm image at every offset, kept on the trace's cache entry.

    An entry that has none makes them in one functional pass.
    """

    def make(traces: List[Trace]) -> Dict[int, Dict[str, Any]]:
        warmer = FunctionalWarmer(params, traces)
        return {off: warmer.snapshot(off) for off in offsets}

    key = warm_images_key(length, params, offsets)
    return cache.derive(profile, threads, length, key, make, _image_bytes)


def _image_bytes(images: Dict[int, Dict[str, Any]]) -> int:
    """Estimated retained bytes of a warm-image set."""
    lines = 0
    for image in images.values():
        lines += len(image["llc"]["addr"])
        for core in image["cores"]:
            lines += len(core["l1"]["addr"]) + len(core["l2"]["addr"])
    return lines * _IMAGE_LINE_EST_BYTES


def _unit_grid(
    warmup: int, length: int, unit_uops: int, max_units: int
) -> Tuple[List[int], int]:
    """Detailed-slice start offsets for every grid slot.

    Returns ``(starts, unit_uops)`` where ``starts[i]`` is slot *i*'s
    measurement start (the detailed re-warm prefix precedes it) and the
    unit size may have been shrunk for short measured regions.  Units
    estimate the same quantity exact mode measures, so every unit lies
    inside ``[warmup, length)``.
    """
    span = length - warmup
    if span <= 0:
        raise ValueError(
            "measured region is empty (warmup %d >= length %d)"
            % (warmup, length)
        )
    unit_uops = max(min(unit_uops, span // 2), 10)
    if span <= unit_uops:
        unit_uops = max(span // 2, 1)
    starts = [
        warmup + (i * (span - unit_uops)) // max_units
        for i in range(max_units)
    ]
    return starts, unit_uops


@dataclasses.dataclass
class _UnitResult:
    cpi: float
    committed: int
    detailed_uops: int
    per_core: List[StatSet]


def _measure_unit(
    traces: Sequence[Trace],
    params: Any,
    scheme: SchemeKind,
    start: int,
    unit_uops: int,
    unit_warm: int,
    image: Dict[str, Any],
    decode: Callable[[int, int], List[DecodedTrace]],
) -> _UnitResult:
    """Detail-simulate one measurement unit and return its measurement.

    The slice carries a cool-down suffix (one ROB worth of uops) past
    the measurement window so fetch never starves mid-window; the core
    stops at the window-closing commit (``measure_uops``), so the
    suffix is never simulated to completion and end-of-trace pipeline
    drain cannot pollute the measured cycle count.  ``image`` is the
    warm image the unit's hierarchy is restored from, and
    ``decode(start, stop)`` returns the slices' register decodes.
    """
    snap = max(start - unit_warm, 0)
    warm_len = start - snap
    stop = start + unit_uops + params.core.rob_entries
    unit_traces = [trace[snap:stop] for trace in traces]
    result = System(
        params,
        unit_traces,
        scheme,
        warmup_uops=warm_len,
        hierarchy=restore_hierarchy(params, image),
        measure_uops=unit_uops,
        decoded=decode(snap, stop),
    ).run()
    committed = sum(s.committed_uops for s in result.per_core)
    cpi = (result.cycles / committed) if committed else 0.0
    # Detailed cost = uops committed through the detailed pipeline
    # (warm prefix + measured window per core; the cool-down suffix is
    # fetched but never commits).
    detailed = sum(
        min(len(trace), warm_len + unit_uops) for trace in unit_traces
    )
    return _UnitResult(
        cpi=cpi,
        committed=committed,
        detailed_uops=detailed,
        per_core=result.per_core,
    )


def _scaled_stats(
    units: Sequence[_UnitResult], region_uops: List[int]
) -> Tuple[StatSet, List[StatSet]]:
    """Scale summed unit counters up to the full measured region.

    Cycle counts are left at 0 here — the caller derives cycles from
    the IPC estimate so that ``RunResult.ipc`` reproduces the estimator
    mean exactly.
    """
    num_cores = len(region_uops)
    per_core: List[StatSet] = []
    for core in range(num_cores):
        total = StatSet()
        for unit in units:
            if core < len(unit.per_core):
                total.merge(unit.per_core[core])
        committed = total.committed_uops
        scale = (region_uops[core] / committed) if committed else 0.0
        scaled = StatSet()
        for name, value in total.as_dict().items():
            setattr(scaled, name, int(round(value * scale)))
        scaled.committed_uops = region_uops[core]
        scaled.cycles = 0
        per_core.append(scaled)
    aggregate = StatSet()
    for core_stats in per_core:
        aggregate.merge(core_stats)
    aggregate.cycles = 0
    return aggregate, per_core


def run_sampled(
    profile: BenchmarkProfile,
    scheme: SchemeKind,
    length: int,
    *,
    config: RunConfig,
    cache: "TraceCache",
):
    """Run one (benchmark, scheme) cell with statistical sampling.

    Returns a :class:`~repro.sim.runner.RunResult` whose ``sampling``
    field carries the :class:`SampledEstimate`.  ``cache`` supplies the
    traces and keeps what the row's schemes share on the trace's entry:
    the warm images and each unit slice's register decode.
    """
    from repro.sim.runner import RunResult

    sampling = config.sampling
    assert sampling is not None
    traces = cache.get(profile, config.threads, length)
    params = config.resolved_params()
    if len(traces) > params.num_cores:
        params = dataclasses.replace(params, num_cores=len(traces))
    warmup = config.resolved_warmup(length)
    starts, unit_uops = _unit_grid(
        warmup, length, sampling.resolved_unit_uops(length), sampling.max_units
    )
    unit_warm = sampling.resolved_unit_warm(unit_uops)
    core = params.core

    def decode(start: int, stop: int) -> List[DecodedTrace]:
        return cache.get_slice_decodes(
            profile,
            config.threads,
            length,
            start,
            stop,
            core.arch_regs,
            core.phys_regs,
        )

    snap_offsets = sorted({max(s - unit_warm, 0) for s in starts})
    images = get_warm_images(
        cache, profile, config.threads, length, params, snap_offsets
    )

    total_uops = sum(len(t) for t in traces)
    region_uops = [max(0, min(len(t), length) - warmup) for t in traces]

    measured: Dict[int, _UnitResult] = {}
    est = MeanEstimator(sampling.confidence)
    leak_ests: Dict[str, MeanEstimator] = {}
    rounds = 0
    converged = False
    for count in escalation_schedule(sampling.min_units, sampling.max_units):
        rounds += 1
        stride = max(sampling.max_units // count, 1)
        slots = [k * stride for k in range(count)]
        for slot in sorted(s for s in slots if s not in measured):
            start = starts[slot]
            image = images[max(start - unit_warm, 0)]
            measured[slot] = _measure_unit(
                traces, params, scheme, start, unit_uops, unit_warm, image, decode
            )
        # Rebuild the estimators in ascending-offset order every round:
        # the accumulation order (which matters in floating point) then
        # depends only on the final unit set, never on round history.
        # The IPC estimator works in the CPI domain — units commit a
        # fixed uop count, so the arithmetic mean of per-unit CPI is the
        # unbiased estimator of the region's cycles-per-uop (averaging
        # per-unit IPC instead would overweight fast phases).
        est = MeanEstimator(sampling.confidence)
        leak_ests = {
            name: MeanEstimator(sampling.confidence)
            for name in LEAKAGE_COUNTERS
        }
        region_total = sum(region_uops)
        for slot in sorted(measured):
            unit = measured[slot]
            est.add(unit.cpi)
            for name in LEAKAGE_COUNTERS:
                raw = sum(
                    getattr(stats, name) for stats in unit.per_core
                )
                rate = raw / unit.committed if unit.committed else 0.0
                leak_ests[name].add(rate * region_total)
        rel = est.relative_half_width()
        if rel is not None and rel <= sampling.target_ci:
            converged = True
            break

    rel_half = est.relative_half_width() or 0.0
    reported_rel = max(rel_half, sampling.bias_floor)
    mean_cpi = est.mean
    ipc_mean = (1.0 / mean_cpi) if mean_cpi > 0 else 0.0

    units = [measured[slot] for slot in sorted(measured)]
    stats, per_core = _scaled_stats(units, region_uops)
    region_total = sum(region_uops)
    cycles = int(round(region_total * mean_cpi)) if mean_cpi > 0 else 0
    stats.cycles = cycles
    if per_core:
        per_core[0].cycles = cycles

    estimate = SampledEstimate(
        ipc=ipc_mean,
        ipc_ci=ipc_mean * reported_rel,
        confidence=sampling.confidence,
        samples=est.n,
        unit_uops=unit_uops + unit_warm,
        detailed_uops=sum(unit.detailed_uops for unit in units),
        total_uops=total_uops,
        rounds=rounds,
        converged=converged,
        leakage={
            name: {
                "mean": leak_ests[name].mean,
                "ci": leak_ests[name].half_width() or 0.0,
            }
            for name in LEAKAGE_COUNTERS
        },
    )
    return RunResult(
        profile=profile,
        scheme=scheme,
        cycles=cycles,
        stats=stats,
        per_core=per_core,
        telemetry=None,
        sampling=estimate,
    )
