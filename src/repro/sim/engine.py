"""Parallel experiment execution engine.

Fans independent ``(profile, scheme, seed, params)`` runs out across a
pluggable :class:`~repro.sim.backends.ExecutionBackend`: workers
receive a compact, picklable :class:`RunSpec` (traces are *not*
shipped — they are rebuilt deterministically from the profile's seed
inside the worker, where the per-process trace cache amortizes them
across schemes), and send back a plain
:class:`~repro.sim.runner.RunResult`.

There is one executor: the :class:`~repro.sim.supervisor.Supervisor`
loop drives every backend, and :func:`supervision_policy` is the one
rule that picks its mode.  A :class:`~repro.sim.supervisor.FaultPolicy`, a
journal, ``resume``, or any chaos spec means supervised execution
(retries, timeouts, failures recorded as data); anything else is
fail-fast, where the first failing run raises a
:class:`~repro.sim.backends.TaskFailedError` carrying the worker's
traceback — at ``jobs=1`` as at ``jobs > 1``.

Layered under the engine is the persistent result store
(:mod:`repro.sim.store`): before a spec is executed its content hash is
looked up, and completed runs are written back, so repeated invocations
of the same grid are served from disk and interrupted sweeps resume
where they stopped.

The worker count comes from the ``jobs`` argument, falling back to the
``REPRO_JOBS`` environment variable, falling back to 1 (``jobs == 0``
means "all cores"; negative counts are rejected).  The execution
substrate comes from the ``backend`` argument, falling back to the
``REPRO_BACKEND`` environment variable, falling back to inline
execution for ``jobs=1`` and a process pool above.  The inline backend
uses the caller's ``RunConfig.cache`` when one is given; otherwise it
owns a trace cache and clears it between grid cells so long sweeps stay
within memory budget.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.common.params import SystemParams
from repro.common.types import SchemeKind
from repro.sampling.config import SamplingConfig
from repro.sim.chaos import ChaosConfig
from repro.sim.config import RunConfig
from repro.sim.ledger import durable_write
from repro.sim.runner import RunResult, TraceCache
from repro.sim.store import ResultStore, result_from_dict, result_to_dict, run_key
from repro.telemetry.events import TelemetryConfig
from repro.workloads.profile import BenchmarkProfile

__all__ = [
    "JOBS_ENV",
    "RunRecord",
    "RunSpec",
    "SuiteResult",
    "resolve_jobs",
    "run_grid",
    "run_specs",
    "supervision_policy",
]

#: Environment variable supplying the default worker count.
JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective worker count: argument, else ``REPRO_JOBS``, else 1.

    ``0`` explicitly means "all cores" (``os.cpu_count()``); negative
    counts are a :class:`ValueError` — they used to be silently coerced
    to all cores, which hid typos like ``--jobs -4``.
    """
    if jobs is None:
        value = os.environ.get(JOBS_ENV)
        if value:
            try:
                jobs = int(value)
            except ValueError:
                raise ValueError(
                    f"{JOBS_ENV} must be an integer, got {value!r}"
                ) from None
        else:
            jobs = 1
    if jobs == 0:
        jobs = os.cpu_count() or 1
    elif jobs < 0:
        raise ValueError(
            f"jobs must be >= 0 (0 means all cores), got {jobs}"
        )
    return jobs


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """Everything a worker needs to (re)produce one run.

    All defaults are resolved at construction (:meth:`build`), so a
    spec's fields — not the calling context — fully determine the
    result.  That is what makes the result-store content hash sound.
    """

    profile: BenchmarkProfile
    scheme: SchemeKind
    length: int
    threads: int
    params: SystemParams
    warmup_uops: int
    #: Telemetry configuration (``None`` = tracing off).  Deliberately
    #: excluded from :meth:`key`: telemetry observes a run without
    #: changing its outcome, but a stored result carries no event trace,
    #: so telemetry-enabled specs bypass the store (see the Supervisor).
    telemetry: Optional[TelemetryConfig] = None
    #: Fault-injection plan (``None`` = no chaos).  Also excluded from
    #: :meth:`key` — chaos perturbs *execution*, never the simulated
    #: outcome — but chaos specs bypass the result store entirely so a
    #: fault-injection sweep cannot mask or pollute real results.
    chaos: Optional[ChaosConfig] = None
    #: Statistical-sampling configuration (``None`` = exact detailed
    #: simulation).  Unlike telemetry/chaos, sampling changes the
    #: produced numbers, so it *does* join :meth:`key` — but only when
    #: set, keeping exact-mode store keys byte-identical to before.
    sampling: Optional[SamplingConfig] = None

    @classmethod
    def build(
        cls,
        profile: BenchmarkProfile,
        scheme: SchemeKind,
        length: int,
        config: RunConfig,
    ) -> "RunSpec":
        """A spec with ``config``'s defaults resolved to concrete values."""
        return cls(
            profile=profile,
            scheme=scheme,
            length=length,
            threads=config.threads,
            params=config.resolved_params(),
            warmup_uops=config.resolved_warmup(length),
            telemetry=config.telemetry,
            chaos=config.chaos,
            sampling=config.sampling,
        )

    def key(self) -> str:
        """Result-store content hash of this spec."""
        return run_key(
            self.profile,
            self.scheme,
            self.length,
            self.threads,
            self.params,
            self.warmup_uops,
            sampling=self.sampling,
        )


@dataclasses.dataclass
class RunRecord:
    """Per-run observability: where a result came from and what it cost."""

    bench: str
    scheme: SchemeKind
    seed: int
    wall_time_s: float
    uops_per_sec: float
    from_store: bool
    #: True when the run's numbers are statistical estimates (sampled
    #: mode); exact runs keep the default so old record JSON round-trips.
    estimated: bool = False
    #: Measurement units behind a sampled estimate (``None`` if exact).
    samples: Optional[int] = None
    #: Absolute CI half-width of a sampled IPC estimate (``None`` exact).
    ipc_ci: Optional[float] = None

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe dict form (scheme as its string value).

        Exact-run records omit the sampling fields entirely, so suite
        JSON written by exact sweeps is byte-identical to pre-sampling
        output.
        """
        data = dataclasses.asdict(self)
        data["scheme"] = self.scheme.value
        if not self.estimated:
            del data["estimated"]
            del data["samples"]
            del data["ipc_ci"]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunRecord":
        """Rebuild a record from :meth:`as_dict` output."""
        data = dict(data)
        data["scheme"] = SchemeKind(data["scheme"])
        return cls(**data)


def _record(spec: RunSpec, result: RunResult, wall: float, from_store: bool) -> RunRecord:
    rate = result.stats.committed_uops / wall if wall > 0 else 0.0
    sampling = getattr(result, "sampling", None)
    return RunRecord(
        bench=spec.profile.name,
        scheme=spec.scheme,
        seed=spec.profile.seed,
        wall_time_s=wall,
        uops_per_sec=rate,
        from_store=from_store,
        estimated=sampling is not None,
        samples=sampling.samples if sampling is not None else None,
        ipc_ci=sampling.ipc_ci if sampling is not None else None,
    )


def _progress_line(done: int, total: int, record: RunRecord) -> str:
    label = f"[{done}/{total}] {record.bench} {record.scheme.value}"
    if record.from_store:
        return f"{label}  (store)"
    return (
        f"{label}  {record.wall_time_s:.2f}s"
        f"  {record.uops_per_sec / 1000:.0f}k uops/s"
    )


def supervision_policy(
    policy: Optional[Any] = None,
    journal: Optional[Any] = None,
    resume: bool = False,
    chaos: bool = False,
) -> Optional[Any]:
    """The one supervision rule: the policy to run under, or ``None``.

    A given :class:`~repro.sim.supervisor.FaultPolicy`, a journal,
    ``resume``, or chaos on any spec means supervised execution under
    ``policy or FaultPolicy()``; anything else (``None``) is fail-fast.
    """
    if policy is None and journal is None and not resume and not chaos:
        return None
    from repro.sim.supervisor import FaultPolicy

    return policy or FaultPolicy()


def run_specs(
    specs: Sequence[RunSpec],
    *,
    cache: Optional[TraceCache] = None,
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
    progress: bool = False,
    policy: Optional[Any] = None,
    journal: Optional[Any] = None,
    resume: bool = False,
    backend: Optional[Any] = None,
    observer: Optional[Any] = None,
) -> Tuple[List[Optional[RunResult]], "SuiteResult"]:
    """Run ``specs`` on the one executor and assemble their grid.

    :func:`supervision_policy` picks the mode.  Supervised, cells that
    exhaust their retries land in ``SuiteResult.failures``; fail-fast,
    each cell gets one attempt and the first failure raises
    :class:`~repro.sim.backends.TaskFailedError`.

    Returns the results in spec order (``None`` for failed cells) and
    the :class:`SuiteResult` keyed by ``(benchmark, scheme)``.
    ``cache`` is handed to the inline backend, which then keeps it
    across cells instead of clearing its own.
    """
    from repro.sim.supervisor import Supervisor

    policy = supervision_policy(
        policy, journal, resume, any(spec.chaos is not None for spec in specs)
    )
    start = time.perf_counter()
    supervisor = Supervisor(
        policy,
        jobs=jobs,
        store=store,
        journal=journal,
        progress=progress,
        backend=backend,
        observer=observer,
        cache=cache,
    )
    results, records, failures = supervisor.execute(specs, resume=resume)
    suite = SuiteResult(
        {
            (spec.profile.name, spec.scheme): result
            for spec, result in zip(specs, results)
            if result is not None
        },
        records,
        wall_time_s=time.perf_counter() - start,
        failures=failures,
        fault_counters={} if supervisor.fail_fast else supervisor.fault_counters,
    )
    return results, suite


class SuiteResult(Mapping):
    """Results of a benchmarks x schemes grid, plus run observability.

    Behaves as a read-only mapping from ``(benchmark, scheme)`` to
    :class:`~repro.sim.runner.RunResult` (so the reporting helpers and
    any pre-existing consumers keep working), and additionally exposes
    :meth:`get` by (bench, scheme), :meth:`normalized_ipc`, JSON
    round-tripping, and the engine's per-run records and store counters.

    Under supervision (:mod:`repro.sim.supervisor`) a cell may fail
    permanently instead of producing a result; such cells are *absent*
    from the mapping and listed in :attr:`failures` as
    :class:`~repro.sim.supervisor.RunFailure` records, and the
    supervisor's fault counters ride on :attr:`fault_counters`.  Use
    :attr:`ok` to tell a complete suite from a degraded one.
    """

    def __init__(
        self,
        results: Dict[Tuple[str, SchemeKind], RunResult],
        records: Optional[List[RunRecord]] = None,
        wall_time_s: float = 0.0,
        failures: Optional[List[Any]] = None,
        fault_counters: Optional[Dict[str, int]] = None,
    ) -> None:
        self._results = dict(results)
        self.records = [r for r in (records or []) if r is not None]
        self.wall_time_s = wall_time_s
        #: RunFailure records for cells that exhausted their retries.
        self.failures = list(failures or [])
        #: Snapshot of the supervisor's ``fault_*`` counters (empty for
        #: unsupervised runs).
        self.fault_counters = dict(fault_counters or {})

    # --- mapping protocol ------------------------------------------------
    def __getitem__(self, key: Tuple[str, SchemeKind]) -> RunResult:
        return self._results[key]

    def __iter__(self) -> Iterator[Tuple[str, SchemeKind]]:
        return iter(self._results)

    def __len__(self) -> int:
        return len(self._results)

    # --- grid access -----------------------------------------------------
    def get(self, bench, scheme=None, default=None):
        """``get(bench, scheme)`` for one cell; 1-arg form is dict-style."""
        key = bench if scheme is None else (bench, scheme)
        return self._results.get(key, default)

    @property
    def benches(self) -> List[str]:
        """Benchmark names in first-seen (grid) order."""
        seen: Dict[str, None] = {}
        for name, _ in self._results:
            seen.setdefault(name)
        return list(seen)

    @property
    def schemes(self) -> List[SchemeKind]:
        """Schemes in first-seen (grid) order."""
        seen: Dict[SchemeKind, None] = {}
        for _, scheme in self._results:
            seen.setdefault(scheme)
        return list(seen)

    def normalized_ipc(
        self, base: SchemeKind = SchemeKind.UNSAFE
    ) -> Dict[Tuple[str, SchemeKind], float]:
        """Every cell's IPC relative to its benchmark's ``base`` run."""
        normalized: Dict[Tuple[str, SchemeKind], float] = {}
        for (name, scheme), result in self._results.items():
            base_result = self._results.get((name, base))
            if base_result is None or base_result.ipc == 0:
                normalized[(name, scheme)] = 0.0
            else:
                normalized[(name, scheme)] = result.ipc / base_result.ipc
        return normalized

    # --- observability ---------------------------------------------------
    @property
    def store_hits(self) -> int:
        return sum(1 for r in self.records if r.from_store)

    @property
    def store_misses(self) -> int:
        return sum(1 for r in self.records if not r.from_store)

    @property
    def ok(self) -> bool:
        """True when every requested cell produced a result."""
        return not self.failures

    def summary(self) -> str:
        """One-line run summary (runs, failures, store hits, wall time)."""
        total = (len(self.records) + len(self.failures)) or len(self._results)
        simulated = self.store_misses if self.records else total
        parts = [f"{total} runs", f"store hits {self.store_hits}/{total}"]
        if self.failures:
            parts.append(f"FAILED {len(self.failures)}/{total}")
        if simulated:
            uops = sum(
                r.uops_per_sec * r.wall_time_s
                for r in self.records
                if not r.from_store
            )
            sim_wall = sum(
                r.wall_time_s for r in self.records if not r.from_store
            )
            if sim_wall > 0:
                parts.append(f"{uops / sim_wall / 1000:.0f}k uops/s")
        parts.append(f"wall {self.wall_time_s:.2f}s")
        return "  ".join(parts)

    # --- composition -----------------------------------------------------
    @classmethod
    def merged(cls, parts: Iterable["SuiteResult"]) -> "SuiteResult":
        """Fold per-cell (or per-chunk) suite results into one grid.

        The sweep service runs each suite cell-by-cell so cells from
        different jobs can interleave fairly; this reassembles the
        per-cell :class:`SuiteResult` parts into the single grid an
        uninterrupted :func:`~repro.api.run_suite` call would have
        produced.  Mapping cells merge in order (later parts win on
        duplicate keys, as in the engine), records and failures
        concatenate, wall times and fault counters sum.
        """
        results: Dict[Tuple[str, SchemeKind], RunResult] = {}
        records: List[RunRecord] = []
        failures: List[Any] = []
        fault_counters: Dict[str, int] = {}
        wall = 0.0
        for part in parts:
            results.update(part._results)
            records.extend(part.records)
            failures.extend(part.failures)
            wall += part.wall_time_s
            for name, value in part.fault_counters.items():
                fault_counters[name] = fault_counters.get(name, 0) + value
        return cls(
            results,
            records,
            wall_time_s=wall,
            failures=failures,
            fault_counters=fault_counters,
        )

    # --- serialization ---------------------------------------------------
    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize results, records, and failures to a JSON string."""
        payload: Dict[str, Any] = {
            "version": 1,
            "wall_time_s": self.wall_time_s,
            "records": [record.as_dict() for record in self.records],
            "results": [
                {
                    "bench": name,
                    "scheme": scheme.value,
                    "run": result_to_dict(result),
                }
                for (name, scheme), result in self._results.items()
            ],
        }
        if self.failures:
            payload["failures"] = [f.as_dict() for f in self.failures]
        if self.fault_counters:
            payload["fault_counters"] = dict(self.fault_counters)
        return json.dumps(payload, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SuiteResult":
        payload = json.loads(text)
        results = {
            (cell["bench"], SchemeKind(cell["scheme"])): result_from_dict(
                cell["run"]
            )
            for cell in payload["results"]
        }
        records = [RunRecord.from_dict(r) for r in payload.get("records", [])]
        failures: List[Any] = []
        if payload.get("failures"):
            from repro.sim.supervisor import RunFailure

            failures = [
                RunFailure.from_dict(f) for f in payload["failures"]
            ]
        return cls(
            results,
            records,
            wall_time_s=payload.get("wall_time_s", 0.0),
            failures=failures,
            fault_counters=dict(payload.get("fault_counters", {})),
        )

    def save(self, path: Path) -> Path:
        """Write the JSON form under ``path`` durably and atomically
        (:func:`~repro.sim.ledger.durable_write`), so a crash mid-save
        never leaves a truncated suite artifact behind."""
        return durable_write(path, self.to_json(indent=2))

    @classmethod
    def load(cls, path: Path) -> "SuiteResult":
        return cls.from_json(Path(path).read_text())


def run_grid(
    profiles: Iterable[BenchmarkProfile],
    schemes: Sequence[SchemeKind],
    length: int,
    *,
    config: Optional[RunConfig] = None,
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
    progress: bool = False,
    policy: Optional[Any] = None,
    journal: Optional[Any] = None,
    resume: bool = False,
    backend: Optional[Any] = None,
    observer: Optional[Any] = None,
) -> SuiteResult:
    """Run a benchmarks x schemes grid through :func:`run_specs`.

    With ``policy`` (a :class:`~repro.sim.supervisor.FaultPolicy`),
    ``journal`` (a :class:`~repro.sim.supervisor.SuiteJournal`),
    ``resume``, or chaos on ``config``, the grid runs supervised: cells
    that exhaust their retries land in ``SuiteResult.failures`` instead
    of raising, and exhausted runs are journaled for resume.
    Otherwise it runs fail-fast.  ``config.cache``, when set, is the
    trace cache the inline backend shares across cells.

    ``backend`` selects the execution substrate on either path (a name
    — ``inline`` / ``threads`` / ``process`` / ``queue`` — or an
    :class:`~repro.sim.backends.ExecutionBackend` instance); ``observer``
    receives each settled :class:`RunRecord` /
    :class:`~repro.sim.supervisor.RunFailure` as it lands.
    """
    config = config or RunConfig()
    specs = [
        RunSpec.build(profile, scheme, length, config)
        for profile in profiles
        for scheme in schemes
    ]
    _, suite = run_specs(
        specs,
        cache=config.cache,
        jobs=jobs,
        store=store,
        progress=progress,
        policy=policy,
        journal=journal,
        resume=resume,
        backend=backend,
        observer=observer,
    )
    return suite
