"""The one executor: every grid runs through the :class:`Supervisor` loop.

The :class:`Supervisor` is the only code that drives an
:class:`~repro.sim.backends.ExecutionBackend`, and
:func:`repro.sim.engine.supervision_policy` is the one rule that picks
its mode.  Without a :class:`FaultPolicy` it is **fail-fast**: one
attempt per run, no timeout, and the first failing run raises a
:class:`~repro.sim.backends.TaskFailedError` built from its error
envelope (worker traceback in ``traceback_text``), while
:class:`~repro.sim.backends.WorkerDeath`,
:class:`~repro.sim.backends.TaskTimeout` and ``KeyboardInterrupt``
propagate as they are.  With a policy it is **supervised**, with the
guarantees a long sweep needs:

* **per-run wall-clock timeouts** — a run that exceeds its deadline is
  cancelled by the backend (it kills the run's own worker), surfaces
  as a typed :class:`~repro.sim.backends.TaskTimeout`, and is charged
  an attempt; the runs beside it keep running;
* **bounded retries** with exponential backoff and deterministic
  seeded jitter;
* **worker-death recovery** — a dead worker surfaces as a typed
  :class:`~repro.sim.backends.WorkerDeath` on the one run it was
  executing (a process slot or a queue lease names it), and that run
  is charged an attempt;
* **graceful degradation** — after ``max_pool_restarts`` crash-driven
  backend restarts the remaining work always runs inline in the
  parent, where a process-level chaos fault degrades to an exception;
* **checkpoint/resume** — finished runs live in the result store, and a
  :class:`SuiteJournal` (JSON-lines file next to it) records the runs
  that exhausted their attempts, so an interrupted sweep restarts where
  it left off and previously-exhausted failures are replayed instead of
  re-run;
* **first-class failures** — a run that exhausts its retries becomes a
  :class:`RunFailure` (exception type, message, traceback, attempt
  count, worker pid, hang diagnostics) carried through
  :class:`~repro.sim.engine.SuiteResult`, the suite JSON artifact, and
  reporting, instead of an exception that destroys the suite.

The supervisor is **backend-agnostic**: it consumes the
:class:`~repro.sim.backends.ExecutionBackend` contract
(:mod:`repro.sim.backends`) and never touches ``ProcessPoolExecutor``
or ``BrokenProcessPool`` directly.  ``backend=`` selects the substrate
(``inline`` / ``threads`` / ``process`` / ``queue``); the default keeps
the historical behavior — inline for ``jobs=1``, a process pool above.

Supervision is observable: the supervisor bumps ``fault_*`` counters
(retries, timeouts, worker crashes, corrupt payloads, pool restarts,
exhausted cells) in its own metrics registry, and emits no trace
events.  The change in the backend's ``backend_*`` counters (steals,
worker deaths, queue depth) over the sweep is folded in at its end, so
a backend the caller holds across sweeps is counted once per sweep, and
the combined snapshot rides on ``SuiteResult.fault_counters``.

Timeouts require a preemptible backend: inline/thread runs are not
preemptible, so their timeouts are recorded post-hoc but cannot
interrupt a genuinely hung simulation.  Run chaos/hang workloads with
``jobs >= 2`` (process) or the queue backend.
"""

from __future__ import annotations

import collections
import dataclasses
import random
import sys
import time
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.common.stats import StatSet
from repro.common.types import SchemeKind
from repro.sim.backends.base import (
    BackendHealth,
    CorruptResultError,
    ExecutionBackend,
    TaskFailedError,
    TaskTimeout,
    WorkerDeath,
    error_envelope as _error_payload,
    parse_envelope as _parse_payload,
    resolve_backend,
)
from repro.sim.engine import (
    RunRecord,
    RunSpec,
    _progress_line,
    _record,
    resolve_jobs,
)
from repro.sim.ledger import append_jsonl, read_jsonl
from repro.sim.runner import RunResult
from repro.sim.store import ResultStore
from repro.telemetry.metrics import MetricsRegistry

__all__ = [
    "CorruptResultError",
    "FaultPolicy",
    "RunFailure",
    "SuiteJournal",
    "Supervisor",
    "default_journal_path",
]


@dataclasses.dataclass(frozen=True)
class FaultPolicy:
    """How the supervisor reacts to failing runs.

    Attributes:
        timeout_s: per-run wall-clock budget; ``None`` disables
            timeouts.  Enforced by the backend's preemption mechanism
            (it kills the run's worker), so it only cancels
            runs on preemptible backends — inline/thread runs are not
            preemptible.
        retries: additional attempts after the first failure (total
            attempts = ``retries + 1``).
        backoff_s: base delay before the first retry; doubles per
            attempt up to ``backoff_cap_s``.
        backoff_cap_s: upper bound on the backoff delay.
        jitter: random fraction added to each backoff (``0.25`` means
            up to +25%), drawn from a generator seeded with ``seed`` so
            scheduling is reproducible.
        seed: jitter RNG seed.
        max_pool_restarts: crash-driven backend respawns tolerated
            before degrading to inline execution (timeout-driven
            restarts are bounded by per-run retries and do not count).
    """

    timeout_s: Optional[float] = None
    retries: int = 2
    backoff_s: float = 0.05
    backoff_cap_s: float = 2.0
    jitter: float = 0.25
    seed: int = 0
    max_pool_restarts: int = 5

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if self.retries < 0:
            raise ValueError("retries cannot be negative")
        if self.backoff_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff delays cannot be negative")
        if self.jitter < 0:
            raise ValueError("jitter cannot be negative")
        if self.max_pool_restarts < 0:
            raise ValueError("max_pool_restarts cannot be negative")

    def backoff_for(self, attempt: int, rng: random.Random) -> float:
        """Backoff delay before retry number ``attempt`` (1-based)."""
        base = min(self.backoff_cap_s, self.backoff_s * (2 ** max(0, attempt - 1)))
        return base * (1.0 + self.jitter * rng.random())


@dataclasses.dataclass
class RunFailure:
    """A run that exhausted its attempts, as a first-class record.

    Carried through :class:`~repro.sim.engine.SuiteResult`, the suite
    JSON artifact, and reporting (``n/a`` rows) so a 12-cell sweep with
    one sick cell still produces a complete, resumable report.
    """

    bench: str
    scheme: SchemeKind
    seed: int
    key: Optional[str]
    error_type: str
    message: str
    traceback: str
    attempts: int
    worker_pid: Optional[int]
    wall_time_s: float
    #: Hang diagnostics when the failure was a SimulationHangError
    #: (cycle, ROB-head seqs, MSHR occupancy, event-queue depth).
    diagnostics: Optional[Dict[str, Any]] = None

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe dict form (scheme as its string value)."""
        data = dataclasses.asdict(self)
        data["scheme"] = self.scheme.value
        return data

    def error(self) -> TaskFailedError:
        """This failure as the exception a fail-fast caller raises."""
        return TaskFailedError(self.error_type, self.message, self.traceback)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunFailure":
        """Rebuild a failure from :meth:`as_dict` output."""
        data = dict(data)
        data["scheme"] = SchemeKind(data["scheme"])
        return cls(**data)


def default_journal_path(store: Optional[ResultStore]) -> Path:
    """Where the checkpoint journal lives: next to the result store."""
    if store is not None:
        return Path(store.root) / "journal.jsonl"
    return Path("results") / "journal.jsonl"


class SuiteJournal:
    """Append-only JSON-lines checkpoint of a sweep's exhausted runs.

    One line per failure: ``{"key": ..., "status": "failed", "failure":
    {...}}``.  Finished runs are not journaled: the result store is
    their record.  Appends are flushed and fsynced so a SIGKILL of the
    runner loses at most the entry being written; :meth:`load` tolerates
    a torn final line (and any malformed line) by skipping it, and skips
    the ``done`` lines that older journals hold.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)

    def load(self) -> Dict[str, Dict[str, Any]]:
        """Failure entries by run key (last write wins; torn lines skipped)."""
        entries: Dict[str, Dict[str, Any]] = {}
        for entry in read_jsonl(self.path):
            key = entry.get("key")
            if isinstance(key, str) and entry.get("status") == "failed":
                entries[key] = entry
        return entries

    def record_failed(self, key: str, failure: RunFailure) -> None:
        """Checkpoint a run that exhausted its attempts."""
        append_jsonl(
            self.path,
            {"key": key, "status": "failed", "failure": failure.as_dict()},
        )

    def clear(self) -> None:
        """Delete the journal file (a fresh, non-resumed sweep)."""
        try:
            self.path.unlink()
        except OSError:
            pass


def _validate_result(spec: RunSpec, result: Any) -> RunResult:
    """Check a worker payload is a sane result for ``spec`` or raise."""
    if not isinstance(result, RunResult):
        raise CorruptResultError(
            f"worker returned {type(result).__name__}, not a RunResult"
        )
    if not isinstance(result.stats, StatSet):
        raise CorruptResultError("result.stats is not a StatSet")
    if not isinstance(result.cycles, int) or result.cycles < 0:
        raise CorruptResultError(f"result.cycles invalid: {result.cycles!r}")
    if not result.per_core or not all(
        isinstance(core, StatSet) for core in result.per_core
    ):
        raise CorruptResultError("result.per_core is not a list of StatSets")
    if result.scheme != spec.scheme:
        raise CorruptResultError(
            f"result scheme {result.scheme} does not match spec {spec.scheme}"
        )
    if result.profile.name != spec.profile.name:
        raise CorruptResultError(
            f"result profile {result.profile.name!r} does not match "
            f"spec {spec.profile.name!r}"
        )
    return result


@dataclasses.dataclass
class _Pending:
    """Supervisor-side state of one not-yet-settled spec."""

    index: int
    spec: RunSpec
    key: Optional[str]
    attempts: int = 0
    eligible_at: float = 0.0
    last_error: Optional[Tuple[Any, ...]] = None


class Supervisor:
    """Executes specs with timeouts, retries, and worker recovery.

    The result of :meth:`execute` is ``(results, records, failures)``:
    ``results``/``records`` align with the spec list (``None`` holes for
    failed cells) and ``failures`` holds one :class:`RunFailure` per
    exhausted cell, in spec order.

    ``policy=None`` is fail-fast: each spec gets one attempt and no
    timeout, and the first exhausted spec raises
    :class:`~repro.sim.backends.TaskFailedError` (typed worker signals
    and ``KeyboardInterrupt`` propagate unchanged) instead of becoming a
    :class:`RunFailure`.

    ``backend`` selects the execution substrate (a registry name or an
    :class:`~repro.sim.backends.ExecutionBackend` instance; default:
    inline for ``jobs=1``, process pool above).  ``cache`` is the trace
    cache an inline backend shares across cells (it clears its own
    otherwise).  ``observer``, when given, is called with each settled
    :class:`RunRecord` / :class:`RunFailure` as it lands — the service
    layer streams these.
    """

    def __init__(
        self,
        policy: Optional[FaultPolicy] = None,
        *,
        jobs: Optional[int] = None,
        store: Optional[ResultStore] = None,
        journal: Optional[SuiteJournal] = None,
        progress: bool = False,
        backend: Optional[Any] = None,
        observer: Optional[Any] = None,
        cache: Optional[Any] = None,
    ) -> None:
        self.fail_fast = policy is None
        self.policy = policy if policy is not None else FaultPolicy(retries=0)
        self.jobs = resolve_jobs(jobs)
        self.store = store
        self.journal = journal
        self.progress = progress
        self.backend = backend
        self.observer = observer
        self.cache = cache
        self.metrics = MetricsRegistry()
        self._rng = random.Random(self.policy.seed)
        self._done = 0
        self._total = 0

    # -- observability -------------------------------------------------

    @property
    def fault_counters(self) -> Dict[str, int]:
        """Snapshot of the ``fault_*`` / ``backend_*`` / store counters."""
        return {
            name: counter.value
            for name, counter in sorted(self.metrics.counters.items())
            if name.startswith(("fault_", "backend_"))
            or name == "store_corrupt_entries"
        }

    def _emit_progress(self, record: RunRecord) -> None:
        if self.progress:
            print(
                _progress_line(self._done, self._total, record),
                file=sys.stderr,
            )
        if self.observer is not None:
            self.observer(record)

    def _emit_failure(self, failure: RunFailure) -> None:
        if self.progress:
            print(
                f"[{self._done}/{self._total}] {failure.bench} "
                f"{failure.scheme.value}  FAILED "
                f"({failure.error_type} after {failure.attempts} attempts)",
                file=sys.stderr,
            )
        if self.observer is not None:
            self.observer(failure)

    # -- orchestration -------------------------------------------------

    def execute(
        self, specs: Sequence[RunSpec], *, resume: bool = False
    ) -> Tuple[
        List[Optional[RunResult]], List[Optional[RunRecord]], List[RunFailure]
    ]:
        """Run ``specs`` to a complete outcome (supervised, no exception
        escapes except ``KeyboardInterrupt``, which tears the backend
        down and re-raises with the store and journal already
        checkpointed; fail-fast, the first failure raises the same way).

        Store hits and (on ``resume``) journaled failures settle first;
        the rest fan out across the configured backend.  Every spec
        ends as either a result+record or a failure.
        """
        total = len(specs)
        self._total = total
        self._done = 0
        results: List[Optional[RunResult]] = [None] * total
        records: List[Optional[RunRecord]] = [None] * total
        failures: Dict[int, RunFailure] = {}
        journal_entries: Dict[str, Dict[str, Any]] = {}
        if resume and self.journal is not None:
            journal_entries = self.journal.load()

        pending: List[_Pending] = []
        for index, spec in enumerate(specs):
            key: Optional[str] = None
            if spec.telemetry is None and (
                self.store is not None or self.journal is not None
            ):
                key = spec.key()
            if (
                self.store is not None
                and key is not None
                and spec.chaos is None  # chaos sweeps must not hit the store
            ):
                # The store is the record of a finished run, so it wins
                # over a failure journaled by an earlier sweep.
                cached = self.store.get(key)
                if cached is not None:
                    results[index] = cached
                    records[index] = _record(spec, cached, 0.0, from_store=True)
                    self._done += 1
                    self._emit_progress(records[index])
                    continue
            entry = journal_entries.get(key) if key is not None else None
            if entry is not None:
                try:
                    failure = RunFailure.from_dict(entry["failure"])
                except (KeyError, TypeError, ValueError):
                    failure = None  # malformed checkpoint: re-run
                if failure is not None:
                    failures[index] = failure
                    self._done += 1
                    self.metrics.counter("fault_replayed_failures").inc()
                    self._emit_failure(failure)
                    continue
            pending.append(_Pending(index, spec, key))

        if pending:
            backend, owned = resolve_backend(
                self.backend,
                jobs=self.jobs,
                workers=min(self.jobs, len(pending)),
                cache=self.cache,
            )
            self._run_backend(backend, owned, pending, results, records, failures)

        for index, spec in enumerate(specs):
            # Backstop for the supervisor's core contract: every spec
            # settles as a result or a failure, never disappears.
            if results[index] is None and index not in failures:
                lost = _Pending(index, spec, None)
                lost.attempts = 1
                lost.last_error = (
                    "error",
                    "LostRunError",
                    "run was never settled by the supervisor",
                    "",
                    None,
                    0.0,
                    None,
                )
                failures[index] = self._failure_from(lost)
        if self.store is not None:
            self.metrics.counter("store_corrupt_entries").set(
                self.store.corrupt_entries
            )
        ordered = [failures[index] for index in sorted(failures)]
        return results, records, ordered

    # -- settling one outcome ------------------------------------------

    def _settle_success(
        self,
        item: _Pending,
        result: RunResult,
        wall: float,
        results: List[Optional[RunResult]],
        records: List[Optional[RunRecord]],
    ) -> None:
        if (
            self.store is not None
            and item.key is not None
            and item.spec.chaos is None
        ):
            self.store.put(item.key, result)
        results[item.index] = result
        record = _record(item.spec, result, wall, from_store=False)
        records[item.index] = record
        self._done += 1
        self._emit_progress(record)

    def _charge_attempt(
        self,
        item: _Pending,
        error: Tuple[Any, ...],
        now: float,
        failures: Dict[int, RunFailure],
    ) -> bool:
        """Charge a failed attempt; True when the item should retry.

        Fail-fast, an exhausted item raises instead of becoming a failure.
        """
        item.attempts += 1
        item.last_error = error
        if item.attempts <= self.policy.retries:
            delay = self.policy.backoff_for(item.attempts, self._rng)
            item.eligible_at = now + delay
            self.metrics.counter("fault_retries").inc()
            return True
        failure = self._failure_from(item)
        if self.fail_fast:
            raise failure.error()
        failures[item.index] = failure
        if self.journal is not None and item.key is not None:
            self.journal.record_failed(item.key, failure)
        self._done += 1
        self.metrics.counter("fault_exhausted").inc()
        self._emit_failure(failure)
        return False

    def _failure_from(self, item: _Pending) -> RunFailure:
        error = item.last_error or (
            "error", "UnknownError", "no attempt recorded", "", None, 0.0, None
        )
        _, etype, message, tb, diagnostics, wall, pid = error
        return RunFailure(
            bench=item.spec.profile.name,
            scheme=item.spec.scheme,
            seed=item.spec.profile.seed,
            key=item.key,
            error_type=etype,
            message=message,
            traceback=tb,
            attempts=item.attempts,
            worker_pid=pid,
            wall_time_s=wall,
            diagnostics=diagnostics,
        )

    # -- backend execution ---------------------------------------------

    def _run_backend(
        self,
        backend: ExecutionBackend,
        owned: bool,
        pending: List[_Pending],
        results: List[Optional[RunResult]],
        records: List[Optional[RunRecord]],
        failures: Dict[int, RunFailure],
    ) -> None:
        """The backend-agnostic supervision loop.

        Scheduling state: ``ready`` (runnable, spec order), ``waiting``
        (backing off before a retry), and the ``inflight`` handle map.
        All failure semantics flow from the two typed signals —
        :class:`WorkerDeath` and :class:`TaskTimeout`, each naming the
        one run it settles — plus the payload envelope.

        A backend's counters are cumulative over its lifetime, and a
        caller-held one outlives this call, so everything reported here
        — ``backend_*`` counters, pool restarts, the degrade budget —
        is the change since this call began.
        """
        policy = self.policy
        ready: Deque[_Pending] = collections.deque(
            sorted(pending, key=lambda item: item.index)
        )
        waiting: List[_Pending] = []  # backing off
        inflight: Dict[Any, _Pending] = {}
        degraded: Optional[List[_Pending]] = None
        base = backend.health()
        last_restarts = base.restarts

        def sync_restarts() -> int:
            """Count new restarts; returns this call's crash restarts."""
            nonlocal last_restarts
            health = backend.health()
            while last_restarts < health.restarts:
                last_restarts += 1
                self._metric_pool_restart()
            return health.crash_restarts - base.crash_restarts

        try:
            backend.start()
            while ready or waiting or inflight:
                now = time.monotonic()
                still_waiting: List[_Pending] = []
                for item in waiting:
                    if item.eligible_at <= now:
                        ready.append(item)
                    else:
                        still_waiting.append(item)
                waiting = still_waiting

                while ready and len(inflight) < backend.capacity():
                    item = ready.popleft()
                    handle = backend.submit(
                        item.spec, item.attempts, policy.timeout_s
                    )
                    inflight[handle] = item

                if not inflight:
                    if waiting:
                        next_at = min(item.eligible_at for item in waiting)
                        delay = max(0.0, next_at - time.monotonic())
                        if delay:
                            time.sleep(delay)
                    continue

                timeout = None
                if waiting:
                    timeout = max(
                        0.0,
                        min(item.eligible_at for item in waiting)
                        - time.monotonic(),
                    )
                settled = backend.poll(timeout)

                now = time.monotonic()
                for handle in settled:
                    item = inflight.pop(handle)
                    try:
                        payload = handle.outcome()
                    except TaskTimeout:
                        if self.fail_fast:
                            raise
                        self.metrics.counter("fault_timeouts").inc()
                        error = (
                            "error",
                            "TimeoutError",
                            f"run exceeded {policy.timeout_s:.3f}s "
                            f"wall-clock budget",
                            "",
                            None,
                            policy.timeout_s,
                            None,
                        )
                        if self._charge_attempt(item, error, now, failures):
                            waiting.append(item)
                        continue
                    except WorkerDeath as death:
                        if self.fail_fast:
                            raise
                        self.metrics.counter("fault_worker_crashes").inc()
                        error = (
                            "error",
                            "WorkerCrashError",
                            "worker process died mid-run",
                            "",
                            None,
                            0.0,
                            death.pid,
                        )
                        if self._charge_attempt(item, error, now, failures):
                            waiting.append(item)
                        continue
                    try:
                        payload = _parse_payload(payload)
                        if payload[0] == "ok":
                            _, result, wall, _pid = payload
                            result = _validate_result(item.spec, result)
                            self._settle_success(
                                item, result, wall, results, records
                            )
                            continue
                        error = payload
                    except CorruptResultError as exc:
                        self.metrics.counter("fault_corrupt_payloads").inc()
                        error = _error_payload(exc, 0.0, None)
                    if (
                        not backend.preemptible
                        and policy.timeout_s is not None
                        and isinstance(error[5], (int, float))
                        and error[5] > policy.timeout_s
                    ):
                        # Non-preemptible backends cannot cancel a run;
                        # record the blown budget post-hoc.
                        self.metrics.counter("fault_timeouts").inc()
                    if self._charge_attempt(item, error, now, failures):
                        waiting.append(item)

                if (
                    sync_restarts() > policy.max_pool_restarts
                    and (ready or waiting or inflight)
                ):
                    degraded = list(inflight.values()) + list(ready) + waiting
                    inflight.clear()
                    break
            sync_restarts()
        except BaseException:
            # Ctrl-C (or a fatal error): every settled run has already
            # been stored or journaled, so tear the backend
            # down without waiting and leave a resumable sweep behind.
            # A held backend goes down too if this call left work on
            # it, so its next caller never polls a stale task.
            self._sync_backend_counters(backend, base)
            if owned or inflight:
                backend.shutdown(wait=False)
            raise
        self._sync_backend_counters(backend, base)
        if degraded is not None:
            # A held backend comes back on its next start().
            backend.shutdown(wait=False)
            self._degrade(degraded, results, records, failures)
        elif owned:
            backend.shutdown()

    def _sync_backend_counters(
        self, backend: ExecutionBackend, base: BackendHealth
    ) -> None:
        """Fold the backend's ``backend_*`` counter changes since
        ``base`` into the fault metrics."""
        try:
            health = backend.health()
        except Exception:  # pragma: no cover - introspection best-effort
            return
        for name, value in sorted(health.counters.items()):
            if name.startswith("backend_"):
                self.metrics.counter(name).inc(
                    value - base.counters.get(name, 0)
                )

    def _metric_pool_restart(self) -> None:
        """Count one backend worker/pool teardown-respawn."""
        self.metrics.counter("fault_pool_restarts").inc()

    def _degrade(
        self,
        remaining: List[_Pending],
        results: List[Optional[RunResult]],
        records: List[Optional[RunRecord]],
        failures: Dict[int, RunFailure],
    ) -> None:
        """Workers keep dying: finish the sweep inline in the parent."""
        from repro.sim.backends.local import InlineBackend

        self.metrics.counter("fault_degraded").inc()
        self._run_backend(
            InlineBackend(), True, remaining, results, records, failures
        )
