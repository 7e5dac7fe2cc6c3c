"""Experiment runner: benchmarks x schemes, with trace caching.

This is the layer the figure benches and examples drive.  Trace
generation is deterministic and independent of the scheme, so traces are
built once per profile (a build serves every shorter length as a
prefix) and reused across every scheme — both for speed and so that
scheme comparisons are literally run on identical micro-op streams.

``run_benchmark`` is the single-run primitive; ``run_benchmark_seeds``
and ``run_suite`` fan their grids out through the parallel experiment
engine (:mod:`repro.sim.engine`), which adds multiprocessing (``jobs``)
and persistent result-store memoization on top.
"""

from __future__ import annotations

import dataclasses
import os
from bisect import bisect_left
from collections import OrderedDict
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.common.stats import StatSet
from repro.common.types import SchemeKind
from repro.isa.trace import Trace
from repro.sim.config import RunConfig
from repro.telemetry.events import TelemetryResult
from repro.workloads.kernels import (
    WorkloadBuilder,
    build_parallel_traces,
    build_trace,
)
from repro.workloads.profile import BenchmarkProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle (engine imports runner)
    from repro.core.rename import DecodedTrace
    from repro.sim.engine import SuiteResult
    from repro.sim.store import ResultStore

__all__ = [
    "RunResult",
    "SeededResult",
    "default_trace_length",
    "run_benchmark",
    "run_benchmark_seeds",
    "run_suite",
    "TraceCache",
]

#: Environment variable scaling every bench's trace length.
TRACE_LEN_ENV = "REPRO_TRACE_LEN"


def default_trace_length(fallback: int = 12_000) -> int:
    """Trace length for benches; override with ``REPRO_TRACE_LEN``."""
    value = os.environ.get(TRACE_LEN_ENV)
    if value is None:
        return fallback
    return max(500, int(value))


@dataclasses.dataclass
class RunResult:
    """One (benchmark, scheme) measurement."""

    profile: BenchmarkProfile
    scheme: SchemeKind
    cycles: int
    stats: StatSet
    per_core: List[StatSet]
    #: Collected telemetry (``None`` unless the run traced).
    telemetry: Optional[TelemetryResult] = None
    #: Statistical annotations (``None`` unless the run was sampled);
    #: a :class:`~repro.sampling.estimator.SampledEstimate`.
    sampling: Optional[Any] = None

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.stats.committed_uops / self.cycles

    @property
    def estimated(self) -> bool:
        """True when the numbers are statistical estimates, not exact."""
        return self.sampling is not None


#: Per-uop retained size of a built trace, for the cache's byte budget:
#: tracemalloc measured 26.8-29.2 bytes (median 27.3) on every SPEC2017
#: profile at 30k uops and every PARSEC one at 4 x 10k -- the typed
#: columns of :mod:`repro.isa.trace` plus their growth slack; the static
#: table (at most 163 entries) is noise.
_UOP_EST_BYTES = 28

#: Per-uop size of one register decode (four 2-byte columns and their
#: growth slack): 8.1-8.5 bytes measured on the same traces.
_DECODED_EST_BYTES = 8

#: Byte budget of the trace cache an executor keeps across cells (the
#: inline and thread backends, pool and queue workers).  A 30k-uop
#: SPEC2017 trace and its decode count about 1.08 MB, so 16 MB holds 15
#: of the 16 traces of a Fig 5/6 grid, or all of them at 25k uops.  A
#: sampled entry (trace, slice decodes, warm images) counts 0.95-1.44
#: MB, so the sampled grid keeps 14 of its 16.
EXECUTOR_TRACE_BYTES = 16 * 1024 * 1024


class _Entry:
    """One cached build: every thread's trace and what is derived from it.

    ``ends`` holds each thread's chunk ends (``None`` when the traces
    are not prefix-stable), ``built`` the length the build was asked
    for, and ``view`` the last prefix handed out, so a repeated length
    gets the same trace objects back.  ``derived`` memoizes everything
    computed from the traces -- register decodes of the whole build and
    of sampled unit slices, sampled warm images -- and
    ``derived_bytes`` counts it, so it lives and is evicted with them.
    """

    __slots__ = ("traces", "ends", "built", "view", "derived", "derived_bytes")

    def __init__(
        self,
        traces: List[Trace],
        ends: Optional[List[List[int]]],
        built: int,
    ) -> None:
        self.traces = traces
        self.ends = ends
        self.built = built
        self.view: Tuple[int, List[Trace]] = (built, traces)
        self.derived: Dict[Any, Any] = {}
        self.derived_bytes = 0

    def prefix(self, length: int) -> List[Trace]:
        """The traces a fresh build of ``length`` would produce."""
        if self.view[0] == length or self.ends is None:
            return self.view[1]
        cuts = [ends[bisect_left(ends, length)] for ends in self.ends]
        traces = self.traces
        if cuts != [len(trace) for trace in traces]:
            traces = [trace[:cut] for trace, cut in zip(traces, cuts)]
        self.view = (length, traces)
        return traces

    @property
    def approx_bytes(self) -> int:
        uops = sum(len(trace) for trace in self.traces)
        return uops * _UOP_EST_BYTES + self.derived_bytes


def _build(profile: BenchmarkProfile, threads: int, length: int) -> _Entry:
    """Build every thread's trace; keep only the traces and chunk ends."""
    from repro.common.gcpause import gc_paused

    with gc_paused():
        if profile.suite == "gadgets":
            if threads == 1:
                programs = [build_trace(profile, length)]
            else:
                programs = build_parallel_traces(profile, threads, length)
            return _Entry([prog.trace() for prog in programs], None, length)
        # The builders (and their memory images) die here: only the lists
        # the simulator reads stay cached.
        builders = [WorkloadBuilder(profile, t, threads) for t in range(threads)]
        for builder in builders:
            builder.build(length)
    return _Entry(
        [builder.prog.trace() for builder in builders],
        [builder.chunk_ends for builder in builders],
        length,
    )


class TraceCache:
    """Builds and memoizes workload traces.

    The synthetic generator emits whole kernel chunks, and no chunk
    depends on the requested length, so a trace of ``length`` uops is
    the prefix of any longer build of the same profile, cut at the first
    chunk end at or past ``length`` -- exactly where a fresh build
    stops.  Synthetic-suite traces are therefore keyed by (label, seed,
    threads), and one entry serves every length up to the one it was
    built for.  A longer request rebuilds at the larger of ``length``
    and twice the built length, so a sweep over growing lengths
    rebuilds a logarithmic number of times.  Gadget scenarios are not prefix-stable
    and stay keyed by (label, seed, threads, length).

    The cache is bounded: at most ``max_entries`` entries and roughly
    ``max_bytes`` of retained traces and what is derived from them
    (:meth:`derive`), with least-recently-used eviction.  It keeps only
    traces and their chunk ends, never a builder's memory image.
    """

    def __init__(
        self,
        max_entries: int = 32,
        max_bytes: int = 256 * 1024 * 1024,
    ) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self._cache: "OrderedDict[Tuple[Any, ...], _Entry]" = OrderedDict()
        self._bytes = 0

    @staticmethod
    def _key(
        profile: BenchmarkProfile, threads: int, length: int
    ) -> Tuple[Any, ...]:
        key: Tuple[Any, ...] = (profile.label, profile.seed, threads)
        if profile.suite == "gadgets":
            key += (length,)
        return key

    def get(
        self, profile: BenchmarkProfile, threads: int, length: int
    ) -> List[Trace]:
        """Return (building if needed) the trace list for this request."""
        key = self._key(profile, threads, length)
        entry = self._cache.get(key)
        if entry is not None and entry.built >= length:
            self.hits += 1
            self._cache.move_to_end(key)
            return entry.prefix(length)
        self.misses += 1
        build_length = length
        if entry is not None:
            del self._cache[key]
            self._bytes -= entry.approx_bytes
            build_length = max(length, 2 * entry.built)
        entry = _build(profile, threads, build_length)
        self._cache[key] = entry
        self._bytes += entry.approx_bytes
        self._evict()
        return entry.prefix(length)

    def _entry(
        self, profile: BenchmarkProfile, threads: int, length: int
    ) -> Tuple[List[Trace], _Entry]:
        """:meth:`get`'s traces and the entry that holds them."""
        traces = self.get(profile, threads, length)
        # get() left the entry newest, so it survived its own eviction.
        return traces, self._cache[self._key(profile, threads, length)]

    def _derive(
        self,
        entry: _Entry,
        key: Any,
        make: Callable[[], Any],
        nbytes: Callable[[Any], int],
    ) -> Any:
        value = entry.derived.get(key)
        if value is None:
            value = entry.derived[key] = make()
            added = nbytes(value)
            entry.derived_bytes += added
            self._bytes += added
            self._evict()
        return value

    def derive(
        self,
        profile: BenchmarkProfile,
        threads: int,
        length: int,
        key: Any,
        make: Callable[[List[Trace]], Any],
        nbytes: Callable[[Any], int],
    ) -> Any:
        """A value computed from :meth:`get`'s traces, kept on their entry.

        ``make(traces)`` computes it the first time ``key`` is asked of
        the entry, which then keeps it, counted as ``nbytes(value)`` in
        its bytes, until the traces are evicted or rebuilt.
        """
        traces, entry = self._entry(profile, threads, length)
        return self._derive(entry, key, lambda: make(traces), nbytes)

    def get_decoded(
        self,
        profile: BenchmarkProfile,
        threads: int,
        length: int,
        arch_regs: int,
        phys_regs: int,
    ) -> Tuple[List[Trace], List["DecodedTrace"]]:
        """The traces of :meth:`get` and their register decodes.

        The entry decodes its whole build once per register
        configuration; the decode of a prefix is the prefix of the
        decode, so it serves every length the entry does.
        """
        from repro.core.rename import decode_trace

        traces, entry = self._entry(profile, threads, length)
        decoded = self._derive(
            entry,
            ("decode", arch_regs, phys_regs),
            lambda: [
                decode_trace(trace, arch_regs, phys_regs)
                for trace in entry.traces
            ],
            lambda decodes: _DECODED_EST_BYTES * sum(map(len, decodes)),
        )
        return traces, decoded

    def get_slice_decodes(
        self,
        profile: BenchmarkProfile,
        threads: int,
        length: int,
        start: int,
        stop: int,
        arch_regs: int,
        phys_regs: int,
    ) -> List["DecodedTrace"]:
        """The register decodes of every thread's uops ``[start, stop)``
        of :meth:`get`'s traces.

        A slice renames from a fresh register map, so its decode is not a
        slice of the trace's.  The entry keeps each one, keyed by the
        register configuration, thread and slice bounds, so every scheme
        of a sampled row shares it.
        """
        from repro.core.rename import decode_trace

        traces, entry = self._entry(profile, threads, length)
        decoded = []
        for thread, trace in enumerate(traces):
            end = min(stop, len(trace))
            decoded.append(
                self._derive(
                    entry,
                    ("slice", arch_regs, phys_regs, thread, start, end),
                    lambda: decode_trace(trace[start:end], arch_regs, phys_regs),
                    lambda decode: _DECODED_EST_BYTES * len(decode),
                )
            )
        return decoded

    def _evict(self) -> None:
        """Drop least-recently-used entries until within budget.

        The newest entry always survives — the caller holds a reference
        to it anyway, so evicting it would only cause rebuild thrash.
        """
        while len(self._cache) > 1 and (
            len(self._cache) > self.max_entries or self._bytes > self.max_bytes
        ):
            _, entry = self._cache.popitem(last=False)
            self._bytes -= entry.approx_bytes

    def clear(self) -> None:
        """Drop every cached trace (hit/miss counters survive)."""
        self._cache.clear()
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def approx_bytes(self) -> int:
        """Estimated bytes of retained trace data."""
        return self._bytes


_GLOBAL_CACHE = TraceCache()


def run_benchmark(
    profile: BenchmarkProfile,
    scheme: SchemeKind,
    length: int,
    *,
    config: Optional[RunConfig] = None,
) -> RunResult:
    """Run one benchmark under one scheme; returns the measurement.

    ``config`` carries the system parameters, thread count, trace cache,
    and warm-up prefix (paper §6.1: detailed warm-up so that the
    mechanism itself is warmed; the default warms up over the first 40%
    of the trace).
    """
    config = config if config is not None else RunConfig()
    trace_cache = config.cache if config.cache is not None else _GLOBAL_CACHE
    if config.sampling is not None:
        from repro.sampling.executor import run_sampled

        return run_sampled(profile, scheme, length, config=config, cache=trace_cache)
    # The simulator loads with the first run, not with this module:
    # configs, trace caches and store hits never need it.
    from repro.sim.system import System

    params = config.resolved_params()
    traces, decoded = trace_cache.get_decoded(
        profile,
        config.threads,
        length,
        params.core.arch_regs,
        params.core.phys_regs,
    )
    result = System(
        params,
        traces,
        scheme,
        warmup_uops=config.resolved_warmup(length),
        telemetry=config.telemetry,
        decoded=decoded,
    ).run()
    return RunResult(
        profile=profile,
        scheme=scheme,
        cycles=result.cycles,
        stats=result.aggregate,
        per_core=result.per_core,
        telemetry=result.telemetry,
    )


@dataclasses.dataclass
class SeededResult:
    """Multi-seed measurement: per-seed results plus summary statistics."""

    profile: BenchmarkProfile
    scheme: SchemeKind
    runs: List[RunResult]

    @property
    def ipcs(self) -> List[float]:
        return [run.ipc for run in self.runs]

    @property
    def mean_ipc(self) -> float:
        return sum(self.ipcs) / len(self.ipcs)

    @property
    def std_ipc(self) -> float:
        if len(self.runs) < 2:
            return 0.0
        mean = self.mean_ipc
        var = sum((v - mean) ** 2 for v in self.ipcs) / (len(self.ipcs) - 1)
        return var ** 0.5


def run_benchmark_seeds(
    profile: BenchmarkProfile,
    scheme: SchemeKind,
    length: int,
    seeds: Sequence[int],
    *,
    config: Optional[RunConfig] = None,
    jobs: Optional[int] = None,
    store: Optional["ResultStore"] = None,
) -> SeededResult:
    """Run one benchmark over several workload seeds.

    Synthetic-workload noise is seed noise; reporting mean and standard
    deviation over seeds is the honest way to quote a number from this
    reproduction.  Seeds are independent runs, so they fan out across
    ``jobs`` worker processes and memoize in ``store`` like any grid,
    under the same supervision rule; a failed seed raises
    :class:`~repro.sim.backends.TaskFailedError`.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    from repro.sim.engine import RunSpec, run_specs

    config = config if config is not None else RunConfig()
    specs = [
        RunSpec.build(
            dataclasses.replace(profile, seed=seed), scheme, length, config
        )
        for seed in seeds
    ]
    results, suite = run_specs(specs, cache=config.cache, jobs=jobs, store=store)
    if suite.failures:
        raise suite.failures[0].error()
    return SeededResult(profile=profile, scheme=scheme, runs=results)


def run_suite(
    profiles: Iterable[BenchmarkProfile],
    schemes: Sequence[SchemeKind],
    length: int,
    *,
    config: Optional[RunConfig] = None,
    jobs: Optional[int] = None,
    store: Optional["ResultStore"] = None,
    progress: bool = False,
    policy: Optional[Any] = None,
    journal: Optional[Any] = None,
    resume: bool = False,
    backend: Optional[Any] = None,
) -> "SuiteResult":
    """Run a full benchmarks x schemes grid on identical traces.

    Returns a :class:`~repro.sim.engine.SuiteResult` — a mapping from
    ``(benchmark, scheme)`` to :class:`RunResult` that also carries
    per-run observability records and store hit/miss counts.  ``jobs``
    (or the ``REPRO_JOBS`` environment variable) fans independent cells
    out across worker processes; ``store`` memoizes completed runs on
    disk so repeated invocations are near-instant.

    ``policy`` / ``journal`` / ``resume`` (and chaos on ``config``)
    supervise execution; otherwise it is fail-fast — see
    :func:`~repro.sim.engine.supervision_policy` and
    ``docs/robustness.md``.
    ``backend`` picks the execution substrate (``inline`` / ``threads``
    / ``process`` / ``queue`` or an
    :class:`~repro.sim.backends.ExecutionBackend` instance) — see
    ``docs/backends.md``.
    """
    from repro.sim.engine import run_grid

    config = config if config is not None else RunConfig()
    return run_grid(
        profiles,
        schemes,
        length,
        config=config,
        jobs=jobs,
        store=store,
        progress=progress,
        policy=policy,
        journal=journal,
        resume=resume,
        backend=backend,
    )
