"""Durable async sweep service: submit suites over HTTP, survive crashes.

``repro serve`` exposes the suite runner as a small stdlib-only HTTP
endpoint so long sweeps can be driven from other machines (or detached
terminals) without holding a shell open.  The server is a hand-rolled
HTTP/1.1 loop on :func:`asyncio.start_server` — no third-party web
framework — because the protocol surface is deliberately tiny:

========  ============================  =====================================
Method    Path                          Meaning
========  ============================  =====================================
GET       ``/healthz``                  liveness (always 200 while the
                                        process is up; never authed)
GET       ``/readyz``                   readiness (ledger replayed, workers
                                        alive, breaker not open)
GET       ``/v1/health``                liveness + job counts (legacy)
GET       ``/v1/metrics``               service metrics registry snapshot
POST      ``/v1/suites``                submit a suite; returns a job id
GET       ``/v1/jobs``                  list all jobs with status
GET       ``/v1/jobs/{id}``             one job's status + progress counts
GET       ``/v1/jobs/{id}/result``      the ``SuiteResult`` JSON (409 until
                                        the job is done); ``?wait=S`` holds
                                        an unfinished job's request up to
                                        ``S`` (at most
                                        :data:`RESULT_WAIT_CAP_S`) seconds
GET       ``/v1/jobs/{id}/events``      NDJSON progress stream (one record
                                        or failure event per line, then a
                                        terminal ``status`` event);
                                        ``?since=N`` resumes from seq N
========  ============================  =====================================

A submitted suite body looks like::

    {"requests": [{"benchmark": "spec2017/mcf",
                   "scheme": "stt+recon",
                   "length": 2000}],
     "jobs": 2, "supervise": true, "backend": "threads",
     "sampling": "ci=0.02,conf=0.95",
     "idempotency_key": "..."}

``sampling`` (optional) is a :func:`repro.sampling.parse_sampling` spec
string; the job's cells then run in statistically sampled mode and
their records carry ``estimated``/``samples``/``ipc_ci``.

**Durability** (``state_dir``): every submit and job state transition
is written ahead to a crash-safe :class:`~repro.sim.ledger.JobLedger`
before it is acknowledged, and a finished job's ``SuiteResult`` JSON is
durably written to a per-job sidecar *before* its ``done`` record.  On
restart, :meth:`SweepService.recover` replays the ledger: finished jobs
re-attach their sidecar results, and in-flight jobs re-enter the queue
— their already-completed cells come back instantly (and bit-identically)
from the :class:`~repro.sim.store.ResultStore`, and a supervised job's
previously exhausted failures replay from its per-job supervisor
journal, so a kill -9 mid-suite costs at most the cell that was running.

**Fair scheduling**: a bounded worker pool runs jobs *one cell at a
time*, round-robin — a job runs a cell, then goes to the back of the
ready queue — so one giant suite cannot starve the small ones.  The
per-cell :class:`~repro.sim.engine.SuiteResult` parts are merged into
the final grid with :meth:`~repro.sim.engine.SuiteResult.merged`.

**Admission control**: more open jobs than ``max_queued`` are refused
with ``429`` + ``Retry-After``; repeated backend worker crashes trip a
:class:`CircuitBreaker` into a degraded read-only mode where submits
get ``503`` (reads still work) until a cooldown probe succeeds.

**Auth**: with a ``token`` (CLI: ``REPRO_SERVE_TOKEN``), every endpoint
except the health probes requires ``Authorization: Bearer <token>``,
compared constant-time.

**Chaos** (:class:`~repro.sim.chaos.ServiceChaosConfig`): deterministic
dropped/truncated/slow-loris responses and SIGKILL-after-N-cells, used
by the CI ``service-chaos`` drill to prove the above actually holds.

Each job cell runs :func:`repro.api.run_suite` on a worker thread (on
that thread's held process pool when the cell's backend is
``process``; see :class:`SweepService`); the
engine/supervisor ``observer`` callback appends progress events to the
job under a lock, and the ``/events`` streamer polls that ring from the
event loop.  Cross-thread signalling from simulation code is
therefore lock + poll — the simulator stays ignorant of asyncio.  Only
the service's own job finalization reaches into the loop: it releases
held ``/result?wait=`` requests with ``call_soon_threadsafe``.

The matching client helpers live in :mod:`repro.api`:
``submit_suite`` / ``poll`` / ``result``.
"""

from __future__ import annotations

import asyncio
import collections
import hmac
import json
import os
import signal
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from repro.sim.backends import BACKEND_NAMES, WorkerDeath, backend_name
from repro.sim.chaos import ServiceChaosConfig, parse_service_chaos
from repro.sim.ledger import JobLedger, JobSnapshot, LEDGER_NAME, durable_write
from repro.telemetry.metrics import MetricsRegistry

__all__ = [
    "CircuitBreaker",
    "Job",
    "ServiceBusyError",
    "SweepService",
    "serve",
]

_MAX_BODY_BYTES = 8 * 1024 * 1024
_STREAM_POLL_S = 0.1

#: Default bound on open (queued + running) jobs before 429.
DEFAULT_MAX_QUEUED = 8

#: Default per-job progress-event ring size.
DEFAULT_EVENT_BUFFER = 1024

#: Longest a ``/result?wait=S`` request is held, whatever ``S`` asks.
RESULT_WAIT_CAP_S = 20.0

#: Paths that never require auth and are never chaos-faulted: a drill
#: (or an orchestrator) must always be able to tell the service is up.
_EXEMPT_PATHS = frozenset({"/healthz", "/readyz", "/v1/health"})


class _BadRequest(Exception):
    """A request the service answers with ``status`` before closing."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServiceBusyError(Exception):
    """A submit refused by admission control or the circuit breaker."""

    def __init__(self, status: int, message: str, retry_after_s: float) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after_s = retry_after_s


class CircuitBreaker:
    """Trips submits into degraded read-only mode on repeated crashes.

    States: ``closed`` (normal), ``open`` (reject submits, serve
    reads), ``half_open`` (cooldown elapsed; one probe job is allowed
    through — success closes the breaker, another crash re-opens it).
    ``clock`` is injectable so tests drive the cooldown without
    sleeping.
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown_s: float = 30.0,
        clock: Any = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError("breaker threshold must be at least 1")
        if cooldown_s <= 0:
            raise ValueError("breaker cooldown must be positive")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.clock = clock
        self.state = "closed"  # closed | open | half_open
        self.trips = 0
        self.resets = 0
        self._consecutive = 0
        self._opened_at = 0.0

    def _tick(self) -> None:
        if self.state == "open" and (
            self.clock() - self._opened_at >= self.cooldown_s
        ):
            self.state = "half_open"

    def allow_submit(self) -> Tuple[bool, float]:
        """Whether a submit may proceed, and the Retry-After otherwise."""
        self._tick()
        if self.state == "open":
            remaining = self.cooldown_s - (self.clock() - self._opened_at)
            return False, max(0.1, remaining)
        return True, 0.0

    def record_crash(self) -> None:
        """One backend worker-crash observation (trips at threshold)."""
        self._tick()
        self._consecutive += 1
        if self.state == "half_open" or self._consecutive >= self.threshold:
            self.state = "open"
            self._opened_at = self.clock()
            self._consecutive = 0
            self.trips += 1

    def record_success(self) -> None:
        """One crash-free cell completion (closes a half-open breaker)."""
        self._tick()
        self._consecutive = 0
        if self.state == "half_open":
            self.state = "closed"
            self.resets += 1


@dataclass
class Job:
    """One submitted suite: request payload, lifecycle, progress events.

    Progress events live in a bounded ring (``events``) stamped with an
    absolute monotonic ``seq``; record/failure totals are kept in
    separate counters so summaries stay exact even after the ring wraps.
    ``cursor``/``parts`` track cell-by-cell execution: the scheduler
    runs one cell per turn and merges ``parts`` into the final grid,
    then drops them: a finished job keeps only its ``result_json``.
    """

    job_id: str
    requests: List[Dict[str, Any]]
    options: Dict[str, Any]
    status: str = "queued"  # queued -> running -> done | failed
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    result_json: Optional[str] = None
    idempotency_key: Optional[str] = None
    #: True when this job was rebuilt from the ledger after a restart.
    recovered: bool = False
    #: Index of the next cell to run; ``parts`` holds per-cell results.
    cursor: int = 0
    parts: List[Any] = field(default_factory=list, repr=False)
    records_count: int = 0
    failures_count: int = 0
    events: Deque[Dict[str, Any]] = field(default_factory=collections.deque)
    next_seq: int = 0
    dropped_events: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    #: Held ``/result?wait=`` requests: (event loop, future) pairs.
    waiters: List[Tuple[Any, Any]] = field(default_factory=list, repr=False)

    @property
    def done(self) -> bool:
        return self.status in ("done", "failed")

    @property
    def open(self) -> bool:
        """Whether the job still occupies an admission slot."""
        return self.status in ("queued", "running")

    def add_event(self, event: Dict[str, Any]) -> None:
        """Append one progress event, stamping its monotonic ``seq``."""
        with self.lock:
            event["seq"] = self.next_seq
            self.next_seq += 1
            maxlen = self.events.maxlen
            if maxlen is not None and len(self.events) >= maxlen:
                self.dropped_events += 1
            self.events.append(event)
            kind = event.get("type")
            if kind == "record":
                self.records_count += 1
            elif kind == "failure":
                self.failures_count += 1

    def release_waiters(self) -> None:
        """Wake every held ``/result`` request (callable from any thread)."""
        with self.lock:
            waiters, self.waiters = self.waiters, []
        for loop, future in waiters:
            try:
                loop.call_soon_threadsafe(_release, future)
            except RuntimeError:  # that loop has closed
                pass

    def events_from(self, cursor: int) -> Tuple[List[Dict[str, Any]], int]:
        """Events with ``seq`` >= ``cursor`` plus the oldest held seq.

        The second element tells a streamer whether the ring wrapped
        past its cursor (``oldest > cursor`` with events dropped), so it
        can emit a ``gap`` notice instead of silently skipping.
        """
        with self.lock:
            if not self.events:
                return [], self.next_seq
            oldest = self.events[0]["seq"]
            return [e for e in self.events if e["seq"] >= cursor], oldest

    def events_since(self, seq: int) -> List[Dict[str, Any]]:
        """Events with ``seq`` >= the given cursor, oldest first."""
        return self.events_from(seq)[0]

    def summary(self) -> Dict[str, Any]:
        """The job's status row: id, state, and record/failure counts."""
        with self.lock:
            records = self.records_count
            failures = self.failures_count
        return {
            "job": self.job_id,
            "status": self.status,
            "cells": len(self.requests),
            "records": records,
            "failures": failures,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "recovered": self.recovered,
        }


def _release(future: Any) -> None:
    if not future.done():
        future.set_result(None)


def _observer_event(item: Any) -> Dict[str, Any]:
    """Map an engine record / supervisor failure onto a wire event."""
    # RunFailure has error_type; engine RunRecord has from_store.
    kind = "failure" if hasattr(item, "error_type") else "record"
    try:
        body = item.as_dict()
    except Exception:  # pragma: no cover - defensive; both types have it
        body = {"repr": repr(item)}
    return {"type": kind, kind: body}


class SweepService:
    """Durable job table + HTTP front-end for :func:`repro.api.run_suite`.

    With ``state_dir`` the job table is backed by a write-ahead
    :class:`~repro.sim.ledger.JobLedger` and survives a kill -9;
    without it (the default, and the test fixtures' mode) the service
    is purely in-memory, as before.

    Each of the ``max_concurrent`` worker threads holds one started
    :class:`~repro.sim.backends.process.ProcessBackend` with one worker
    process and hands it to every ``process`` cell it runs, so a cell
    pays no process start.  A cell is a ``process`` cell however that
    backend was chosen: the job's or the service's ``backend``,
    ``REPRO_BACKEND``, or the default for ``jobs`` above one.  The
    backend is created on the thread's first such cell (nothing forks
    before ``/readyz`` answers) and shut down when :meth:`close` ends
    the thread.  A worker crash or timeout respawns the pool inside the
    backend; a supervised degrade to inline shuts it down and the
    thread's next cell starts it again.  Cells on any other backend
    resolve it per call.
    """

    def __init__(
        self,
        *,
        jobs: Optional[int] = None,
        backend: Optional[str] = None,
        store: bool = True,
        max_concurrent: int = 1,
        state_dir: Union[None, str, Path] = None,
        max_queued: int = DEFAULT_MAX_QUEUED,
        token: Optional[str] = None,
        chaos: Union[None, str, ServiceChaosConfig] = None,
        event_buffer: int = DEFAULT_EVENT_BUFFER,
        breaker: Optional[CircuitBreaker] = None,
        start_workers: bool = True,
    ) -> None:
        if backend is not None and backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {backend!r}; known: {', '.join(BACKEND_NAMES)}"
            )
        if max_queued < 1:
            raise ValueError("max_queued must be at least 1")
        if event_buffer < 8:
            raise ValueError("event_buffer must be at least 8")
        self.default_jobs = jobs
        self.default_backend = backend
        self.store = store
        self.max_queued = max_queued
        self.token = token or None
        self.chaos = (
            parse_service_chaos(chaos) if isinstance(chaos, str) else chaos
        )
        self.event_buffer = event_buffer
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.metrics = MetricsRegistry()
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self._ledger: Optional[JobLedger] = None
        self._ledger_lock = threading.Lock()
        self._breaker_lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._idempotency: Dict[str, str] = {}
        self._jobs_lock = threading.Lock()
        self._seq = 0
        self._cells_done = 0
        self._chaos_requests = 0
        self._recovered = self.state_dir is None
        self._cond = threading.Condition()
        self._ready: Deque[Job] = collections.deque()
        self._stop = False
        self._workers: List[threading.Thread] = []
        self._worker_count = max(1, max_concurrent)
        #: Per worker thread: the held process backend (``.backend``).
        self._held = threading.local()
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
            self._ledger = JobLedger(self.state_dir / LEDGER_NAME)
            self.recover()
        if start_workers:
            self.start_workers()

    # --- durability ------------------------------------------------------
    def _ledger_submit(self, job: Job) -> None:
        if self._ledger is None:
            return
        with self._ledger_lock:
            self._ledger.record_submit(
                job.job_id,
                job.requests,
                _wire_options(job.options),
                idempotency_key=job.idempotency_key,
                at=job.created_at,
            )
            self._count_ledger()

    def _ledger_state(
        self,
        job: Job,
        status: str,
        *,
        error: Optional[str] = None,
        result_path: Optional[str] = None,
    ) -> None:
        if self._ledger is None:
            return
        with self._ledger_lock:
            self._ledger.record_state(
                job.job_id, status, error=error, result_path=result_path
            )
            self._count_ledger()
            if self._ledger.maybe_rotate(self._snapshots()):
                self.metrics.counter("ledger_rotations").inc()

    def _count_ledger(self) -> None:
        self.metrics.counter("ledger_records").inc()

    def _snapshots(self) -> Dict[str, JobSnapshot]:
        """The live job table as ledger snapshots (for compaction)."""
        with self._jobs_lock:
            jobs = list(self._jobs.values())
        snapshots: Dict[str, JobSnapshot] = {}
        for job in jobs:
            snapshots[job.job_id] = JobSnapshot(
                job_id=job.job_id,
                requests=job.requests,
                options=_wire_options(job.options),
                idempotency_key=job.idempotency_key,
                created_at=job.created_at,
                status=job.status,
                error=job.error,
                result_path=(
                    str(self._result_path(job)) if job.status == "done" else None
                ),
                updated_at=job.finished_at or job.started_at or job.created_at,
            )
        return snapshots

    def _result_path(self, job: Job) -> Optional[Path]:
        if self.state_dir is None:
            return None
        return self.state_dir / f"{job.job_id}.result.json"

    def _job_journal(self, job: Job) -> Optional[Any]:
        if self.state_dir is None:
            return None
        from repro.sim.supervisor import SuiteJournal

        return SuiteJournal(self.state_dir / f"{job.job_id}.journal.jsonl")

    def recover(self) -> int:
        """Replay the ledger into the job table; returns jobs recovered.

        Finished jobs re-attach their durably-written result sidecars;
        queued/running jobs re-enter the ready queue from cell 0 —
        cells completed before the crash settle instantly from the
        result store (bit-identical, since a run is a pure function of
        its spec) and a supervised job's previously exhausted failures
        replay from its per-job supervisor journal, so nothing is lost
        or run twice.
        """
        if self._ledger is None:
            self._recovered = True
            return 0
        snapshots = self._ledger.replay()
        ordered = sorted(
            snapshots.values(), key=lambda snap: (snap.created_at, snap.job_id)
        )
        recovered = 0
        for snap in ordered:
            job = Job(
                job_id=snap.job_id,
                requests=list(snap.requests),
                options=dict(snap.options),
                created_at=snap.created_at or time.time(),
                idempotency_key=snap.idempotency_key,
                recovered=True,
                events=collections.deque(maxlen=self.event_buffer),
            )
            self._track_seq(snap.job_id)
            resumed = False
            if snap.status == "done" and snap.result_path:
                try:
                    job.result_json = Path(snap.result_path).read_text(
                        encoding="utf-8"
                    )
                    job.status = "done"
                    job.finished_at = snap.updated_at
                except OSError:
                    resumed = True  # sidecar lost: re-run the suite
            elif snap.status == "failed":
                job.status = "failed"
                job.error = snap.error
                job.finished_at = snap.updated_at
            else:
                resumed = True
            if resumed:
                try:
                    parsed = [self._parse_request(e) for e in job.requests]
                    for request in parsed:
                        request.resolve()
                except (ValueError, TypeError) as exc:
                    job.status = "failed"
                    job.error = f"unrecoverable after restart: {exc}"
                    resumed = False
            with self._jobs_lock:
                self._jobs[job.job_id] = job
                if job.idempotency_key:
                    self._idempotency[job.idempotency_key] = job.job_id
            if resumed:
                job.status = "queued"
                with self._cond:
                    self._ready.append(job)
                    self._cond.notify()
                self.metrics.counter("ledger_resumed_jobs").inc()
            else:
                job.add_event(
                    {"type": "status", "status": job.status, "error": job.error}
                )
            recovered += 1
        self.metrics.counter("ledger_replayed_jobs").set(recovered)
        self._recovered = True
        return recovered

    def _track_seq(self, job_id: str) -> None:
        """Keep the job-id counter ahead of every replayed id."""
        try:
            number = int(job_id.rsplit("-", 1)[1])
        except (IndexError, ValueError):
            return
        with self._jobs_lock:
            self._seq = max(self._seq, number)

    # --- job lifecycle ---------------------------------------------------
    def submit(
        self, requests: List[Dict[str, Any]], options: Dict[str, Any]
    ) -> Job:
        """Validate and enqueue a suite; returns the queued :class:`Job`."""
        job, _ = self.submit_job(requests, options)
        return job

    def submit_job(
        self,
        requests: List[Dict[str, Any]],
        options: Dict[str, Any],
        *,
        idempotency_key: Optional[str] = None,
    ) -> Tuple[Job, bool]:
        """Admit, ledger, and enqueue a suite.

        Returns ``(job, replayed)`` — ``replayed`` is True when
        ``idempotency_key`` matched an already-known job, which is then
        returned as-is instead of enqueueing a duplicate.  Raises
        :class:`ValueError` on a malformed suite (HTTP 400) and
        :class:`ServiceBusyError` on admission refusal (429) or an open
        circuit breaker (503).
        """
        if not requests:
            raise ValueError("requests must be a non-empty list")
        if idempotency_key is not None and not isinstance(
            idempotency_key, str
        ):
            raise ValueError("idempotency_key must be a string")
        backend = options.get("backend", self.default_backend)
        if backend is not None and backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {backend!r}; known: {', '.join(BACKEND_NAMES)}"
            )
        if options.get("sampling") is not None:
            from repro.sampling import parse_sampling

            # A bad spec fails the submit with 400, not the job later.
            parse_sampling(options["sampling"])
        parsed = [self._parse_request(entry) for entry in requests]
        # Resolve eagerly so typos fail the submit, not the job.
        for request in parsed:
            request.resolve()
        with self._jobs_lock:
            if idempotency_key:
                known = self._idempotency.get(idempotency_key)
                if known is not None:
                    self.metrics.counter("admission_idempotent_replays").inc()
                    return self._jobs[known], True
        allowed, retry_after = self._allow_submit()
        if not allowed[0]:
            raise ServiceBusyError(allowed[1], allowed[2], retry_after)
        with self._jobs_lock:
            self._seq += 1
            job = Job(
                job_id=f"job-{self._seq:04d}",
                requests=list(requests),
                options=dict(options),
                idempotency_key=idempotency_key,
                events=collections.deque(maxlen=self.event_buffer),
            )
            self._jobs[job.job_id] = job
            if idempotency_key:
                self._idempotency[idempotency_key] = job.job_id
        # Write-ahead: the submit is durable before it is acknowledged.
        self._ledger_submit(job)
        self.metrics.counter("admission_accepted").inc()
        with self._cond:
            self._ready.append(job)
            self._cond.notify()
        return job, False

    def _allow_submit(self) -> Tuple[Tuple[bool, int, str], float]:
        """Admission verdict: ((allowed, status, message), retry_after)."""
        with self._breaker_lock:
            ok, retry_after = self.breaker.allow_submit()
        if not ok:
            self.metrics.counter("breaker_rejected").inc()
            return (
                (
                    False,
                    503,
                    "service degraded (read-only): backend workers keep "
                    "crashing; retry after the breaker cooldown",
                ),
                retry_after,
            )
        with self._jobs_lock:
            open_jobs = sum(1 for job in self._jobs.values() if job.open)
        if open_jobs >= self.max_queued:
            self.metrics.counter("admission_rejected").inc()
            return (
                (
                    False,
                    429,
                    f"queue full ({open_jobs}/{self.max_queued} open jobs)",
                ),
                1.0,
            )
        return (True, 0, ""), 0.0

    @staticmethod
    def _parse_request(entry: Any) -> Any:
        from repro.api import RunRequest

        if not isinstance(entry, dict):
            raise ValueError(f"each request must be an object, got {entry!r}")
        missing = [k for k in ("benchmark", "scheme", "length") if k not in entry]
        if missing:
            raise ValueError(f"request missing fields: {', '.join(missing)}")
        return RunRequest(
            benchmark=entry["benchmark"],
            scheme=entry["scheme"],
            length=int(entry["length"]),
        )

    # --- worker pool -----------------------------------------------------
    def start_workers(self) -> None:
        """Start the bounded cell-executor pool (idempotent)."""
        if self._workers:
            return
        for index in range(self._worker_count):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-{index}",
                daemon=True,
            )
            thread.start()
            self._workers.append(thread)

    def _worker_loop(self) -> None:
        try:
            while True:
                with self._cond:
                    while not self._stop and not self._ready:
                        self._cond.wait(0.2)
                    if self._stop:
                        return
                    job = self._ready.popleft()
                try:
                    self._run_cell(job)
                except Exception as exc:  # pragma: no cover - last resort
                    self._finalize_failed(job, exc)
        finally:
            held = getattr(self._held, "backend", None)
            if held is not None:
                held.shutdown()

    def _cell_backend(self, options: Dict[str, Any]) -> Any:
        """What a cell of a job with ``options`` runs on.

        A cell whose backend resolves to ``process`` — by
        :func:`~repro.sim.backends.base.backend_name`'s rule, however
        it was selected — runs on this worker thread's held pool,
        created on the thread's first such cell and reused for every
        later one; any other backend is resolved per call.
        """
        from repro.sim.engine import resolve_jobs

        name = backend_name(
            options.get("backend", self.default_backend),
            resolve_jobs(options.get("jobs", self.default_jobs)),
        )
        if name != "process":
            return name
        held = getattr(self._held, "backend", None)
        if held is None:
            from repro.sim.backends.process import ProcessBackend

            # One worker: the service runs one cell per turn.
            held = self._held.backend = ProcessBackend(workers=1)
        return held

    def _run_cell(self, job: Job) -> None:
        """Run the job's next cell, then round-robin it back (or finish).

        One cell per turn is the fairness mechanism: with several open
        jobs each turn interleaves them, so a 100-cell suite cannot
        starve a 2-cell one submitted after it.
        """
        # Looked up at call time so tests can monkeypatch repro.api.run_suite.
        import repro.api as api_mod

        if job.status == "queued":
            job.status = "running"
            job.started_at = time.time()
            self._ledger_state(job, "running")
        index = job.cursor
        try:
            request = self._parse_request(job.requests[index])
            options = job.options
            supervise = bool(options.get("supervise", False))
            # Only a supervised job journals its failures: a journal
            # would force supervision, and a job's outcome must not
            # depend on whether the service is durable.  Finished cells
            # resume from the store either way.
            journaled = supervise and self.state_dir is not None
            part = api_mod.run_suite(
                [request],
                jobs=options.get("jobs", self.default_jobs),
                supervise=supervise,
                telemetry=options.get("telemetry"),
                sampling=options.get("sampling"),
                store=self.store,
                backend=self._cell_backend(options),
                observer=lambda item: job.add_event(_observer_event(item)),
                journal=self._job_journal(job) if journaled else None,
                resume=journaled,
            )
        except Exception as exc:  # job failures are data, not crashes
            # An unsupervised cell surfaces its worker's death as the
            # exception itself.
            if isinstance(exc, WorkerDeath):
                self._feed_breaker(1)
            self._finalize_failed(job, exc)
            return
        self._feed_breaker(part.fault_counters.get("fault_worker_crashes", 0))
        job.parts.append(part)
        job.cursor += 1
        self._after_cell()
        if job.cursor >= len(job.requests):
            self._finalize_done(job)
            return
        with self._cond:
            self._ready.append(job)
            self._cond.notify()

    def _feed_breaker(self, crashes: int) -> None:
        """Feed one cell's worker crashes (none: a success) to the breaker.

        A supervised cell counts each crash once in
        ``fault_worker_crashes``; the ``WorkerCrashError`` failure of a
        cell whose retries ran out is the last of those crashes, not
        another one.
        """
        with self._breaker_lock:
            before = self.breaker.state
            if crashes > 0:
                for _ in range(crashes):
                    self.breaker.record_crash()
            else:
                self.breaker.record_success()
            after = self.breaker.state
            if after == "open" and before != "open":
                self.metrics.counter("breaker_trips").inc()
            if after == "closed" and before == "half_open":
                self.metrics.counter("breaker_resets").inc()

    def _after_cell(self) -> None:
        """Count a completed cell; fire the chaos SIGKILL drill if due."""
        with self._jobs_lock:
            self._cells_done += 1
            done = self._cells_done
        self.metrics.counter("service_cells_completed").inc()
        if (
            self.chaos is not None
            and self.chaos.kill_after_cells > 0
            and done == self.chaos.kill_after_cells
        ):
            # The restart drill: die exactly like a power cut would.
            os.kill(os.getpid(), signal.SIGKILL)

    def service_counters(self) -> Dict[str, int]:
        """The ``ledger_*``/``admission_*``/``breaker_*`` counter snapshot."""
        snapshot = {
            name: counter.value
            for name, counter in sorted(self.metrics.counters.items())
            if name.startswith(("ledger_", "admission_", "breaker_"))
        }
        snapshot["breaker_trips"] = self.breaker.trips
        snapshot["breaker_resets"] = self.breaker.resets
        return snapshot

    def _finalize_done(self, job: Job) -> None:
        from repro.sim.engine import SuiteResult

        merged = SuiteResult.merged(job.parts)
        # Fold the service-level counters into the suite's fault
        # counters so the PR 4/7 dashboards see them without changes.
        for name, value in self.service_counters().items():
            if value:
                merged.fault_counters[name] = value
        job.result_json = merged.to_json()
        job.parts = []  # the JSON is the job's result from here on
        result_path = self._result_path(job)
        if result_path is not None:
            # Result first, durably; the 'done' ledger record is the
            # commit point and must never point at a missing sidecar.
            durable_write(result_path, job.result_json)
        # In-memory status flips before the ledger record: a rotation
        # triggered by that very record compacts from the in-memory
        # snapshot, which must not still say "running".  (A crash in
        # between is safe — replay sees "running" and re-runs.)
        job.status = "done"
        job.finished_at = time.time()
        if result_path is not None:
            self._ledger_state(job, "done", result_path=str(result_path))
        job.add_event({"type": "status", "status": "done", "error": None})
        job.release_waiters()

    def _finalize_failed(self, job: Job, exc: BaseException) -> None:
        job.error = f"{type(exc).__name__}: {exc}"
        job.parts = []
        # Status before the ledger record, for the same rotation-
        # snapshot reason as in _finalize_done.
        job.status = "failed"
        job.finished_at = time.time()
        self._ledger_state(job, "failed", error=job.error)
        job.add_event({"type": "status", "status": "failed", "error": job.error})
        job.release_waiters()

    def get(self, job_id: str) -> Optional[Job]:
        """The job with this id, or ``None``."""
        with self._jobs_lock:
            return self._jobs.get(job_id)

    def list_jobs(self) -> List[Dict[str, Any]]:
        """Status summaries for every submitted job, oldest first."""
        with self._jobs_lock:
            jobs = list(self._jobs.values())
        return [job.summary() for job in jobs]

    def health(self) -> Dict[str, Any]:
        """Liveness payload: service status, job counts, backend name."""
        with self._jobs_lock:
            jobs = list(self._jobs.values())
        counts: Dict[str, int] = {}
        for job in jobs:
            counts[job.status] = counts.get(job.status, 0) + 1
        with self._breaker_lock:
            breaker_state = self.breaker.state
        return {
            "status": "ok",
            "jobs": counts,
            "backend": self.default_backend or "auto",
            "durable": self.state_dir is not None,
            "breaker": breaker_state,
        }

    def readiness(self) -> Tuple[bool, Dict[str, Any]]:
        """Whether the service should receive traffic, plus detail.

        Ready means the ledger replay finished, at least one worker is
        alive to run cells, and the breaker is not open (an open breaker
        is degraded read-only — traffic should prefer a healthy
        replica).
        """
        workers_alive = any(t.is_alive() for t in self._workers)
        with self._breaker_lock:
            breaker_state = self.breaker.state
        ready = self._recovered and workers_alive and breaker_state != "open"
        return ready, {
            "status": "ready" if ready else "not-ready",
            "ledger_replayed": self._recovered,
            "workers_alive": workers_alive,
            "breaker": breaker_state,
        }

    def close(self) -> None:
        """Stop the worker pool (running cells finish; queue drains not).

        Held ``/result`` requests are answered at once, and each worker
        thread shuts down its held backend as it exits.
        """
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        with self._jobs_lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            job.release_waiters()
        for thread in self._workers:
            thread.join(timeout=2.0)

    # --- HTTP plumbing ---------------------------------------------------
    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one HTTP connection: parse, dispatch, respond, close."""
        try:
            try:
                request = await self._read_request(reader)
            except _BadRequest as exc:
                await _send_json(writer, exc.status, {"error": str(exc)})
                return
            if request is None:
                return
            method, path, headers, body = request
            route, _, query = path.partition("?")
            route = route.rstrip("/") or "/"
            if not self._apply_response_chaos(writer, method, route):
                return  # dropped connection
            if not self._authorized(route, headers):
                self.metrics.counter("service_auth_rejected").inc()
                await _send_json(
                    writer, 401, {"error": "missing or invalid bearer token"}
                )
                return
            await self._dispatch(writer, method, route, query, body)
        except ConnectionError:
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _apply_response_chaos(
        self, writer: asyncio.StreamWriter, method: str, route: str
    ) -> bool:
        """Arm deterministic response chaos; False means drop now."""
        if self.chaos is None or route in _EXEMPT_PATHS:
            return True
        with self._jobs_lock:
            self._chaos_requests += 1
            token = f"{method}:{route}:{self._chaos_requests}"
        kind = self.chaos.decide_response(token)
        if kind is None:
            return True
        self.metrics.counter(f"service_chaos_{kind}").inc()
        if kind == "drop":
            return False
        # truncate / slow are applied where the response is written.
        writer._repro_chaos = (kind, self.chaos.slow_s)  # type: ignore[attr-defined]
        return True

    def _authorized(self, route: str, headers: Dict[str, str]) -> bool:
        if self.token is None or route in _EXEMPT_PATHS:
            return True
        supplied = headers.get("authorization", "")
        expected = f"Bearer {self.token}"
        # Constant-time compare: an attacker must not learn the token
        # one byte at a time from response timing.
        return hmac.compare_digest(
            supplied.encode("utf-8"), expected.encode("utf-8")
        )

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """``(method, path, headers, body)``, or ``None`` to close unanswered.

        A bad ``Content-Length`` or a body shorter than it raises
        :class:`_BadRequest` (400); a body over ``_MAX_BODY_BYTES`` (413).
        """
        try:
            request_line = await reader.readline()
        except (ConnectionError, asyncio.LimitOverrunError):
            return None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        text = headers.get("content-length", "0") or "0"
        if not (text.isascii() and text.isdigit()):
            raise _BadRequest(400, f"bad Content-Length {text!r}")
        length = int(text)
        if length > _MAX_BODY_BYTES:
            raise _BadRequest(413, f"body over {_MAX_BODY_BYTES} bytes")
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError as exc:
            raise _BadRequest(
                400, f"body ended after {len(exc.partial)} of {length} bytes"
            ) from None
        return method, path, headers, body

    async def _dispatch(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        query: str,
        body: bytes,
    ) -> None:
        if path == "/healthz" and method == "GET":
            await _send_json(writer, 200, {"status": "ok"})
            return
        if path == "/readyz" and method == "GET":
            ready, detail = self.readiness()
            if ready:
                await _send_json(writer, 200, detail)
            else:
                await _send_json(
                    writer, 503, detail, extra_headers={"Retry-After": "1"}
                )
            return
        if path == "/v1/health" and method == "GET":
            await _send_json(writer, 200, self.health())
            return
        if path == "/v1/metrics" and method == "GET":
            await _send_json(writer, 200, self.metrics.as_dict())
            return
        if path == "/v1/suites" and method == "POST":
            await self._handle_submit(writer, body)
            return
        if path == "/v1/jobs" and method == "GET":
            await _send_json(writer, 200, {"jobs": self.list_jobs()})
            return
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/") :]
            job_id, _, action = rest.partition("/")
            job = self.get(job_id)
            if job is None:
                await _send_json(
                    writer, 404, {"error": f"no such job: {job_id}"}
                )
                return
            if method != "GET":
                await _send_json(writer, 405, {"error": "GET only"})
                return
            if not action:
                await _send_json(writer, 200, job.summary())
            elif action == "result":
                await self._handle_result(writer, job, _wait_param(query))
            elif action == "events":
                await self._handle_events(writer, job, _since_param(query))
            else:
                await _send_json(
                    writer, 404, {"error": f"unknown action: {action}"}
                )
            return
        await _send_json(writer, 404, {"error": f"unknown path: {path}"})

    async def _handle_submit(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
            if not isinstance(payload, dict):
                raise ValueError("body must be a JSON object")
            requests = payload.get("requests")
            if not isinstance(requests, list):
                raise ValueError("body must carry a 'requests' list")
            options = {
                key: payload[key]
                for key in (
                    "jobs", "supervise", "backend", "telemetry", "sampling",
                )
                if key in payload
            }
            job, replayed = self.submit_job(
                requests,
                options,
                idempotency_key=payload.get("idempotency_key"),
            )
        except ServiceBusyError as busy:
            await _send_json(
                writer,
                busy.status,
                {"error": str(busy)},
                extra_headers={"Retry-After": f"{busy.retry_after_s:.1f}"},
            )
            return
        except (ValueError, json.JSONDecodeError) as exc:
            await _send_json(writer, 400, {"error": str(exc)})
            return
        # 202 = newly accepted; 200 = idempotent replay of a known job.
        await _send_json(
            writer,
            200 if replayed else 202,
            {"job": job.job_id, "status": job.status, "replayed": replayed},
        )

    async def _handle_result(
        self, writer: asyncio.StreamWriter, job: Job, wait_s: float
    ) -> None:
        waited = wait_s > 0 and await self._hold(job, wait_s)
        if job.status == "failed":
            await _send_json(
                writer, 500, {"job": job.job_id, "error": job.error}
            )
        elif job.status != "done" or job.result_json is None:
            payload: Dict[str, Any] = {
                "job": job.job_id, "status": job.status,
                "error": "job not finished",
            }
            if waited:
                payload["waited"] = True
            await _send_json(writer, 409, payload)
        else:
            await _send_raw(
                writer, 200, job.result_json.encode("utf-8"),
                "application/json",
            )

    async def _hold(self, job: Job, wait_s: float) -> bool:
        """Wait until ``job`` finishes or ``wait_s`` (capped) passes.

        The worker thread that finalizes the job, or :meth:`close`,
        releases the wait; returns whether the request was held.
        """
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        waiter = (loop, future)
        with job.lock:
            # Checked under the lock that release_waiters takes, after
            # the status (or the stop flag) it follows has been set.
            if job.done or self._stop:
                return False
            job.waiters.append(waiter)
        try:
            await asyncio.wait((future,), timeout=min(wait_s, RESULT_WAIT_CAP_S))
        finally:
            with job.lock:
                if waiter in job.waiters:
                    job.waiters.remove(waiter)
        return True

    async def _handle_events(
        self, writer: asyncio.StreamWriter, job: Job, since: int
    ) -> None:
        headers = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(headers.encode("latin-1"))
        cursor = max(0, since)
        warned_gap = False
        while True:
            fresh, oldest = job.events_from(cursor)
            if not warned_gap and oldest > cursor and job.dropped_events:
                # The ring wrapped past this cursor: say so instead of
                # silently skipping events the client will never see.
                writer.write(
                    (
                        json.dumps(
                            {
                                "type": "gap",
                                "missing": oldest - cursor,
                                "resume_seq": oldest,
                            }
                        )
                        + "\n"
                    ).encode("utf-8")
                )
                warned_gap = True
            for event in fresh:
                writer.write((json.dumps(event) + "\n").encode("utf-8"))
            if fresh:
                cursor = fresh[-1]["seq"] + 1
            await writer.drain()
            if fresh and fresh[-1].get("type") == "status":
                return
            if job.done and not job.events_since(cursor):
                # Job finished before its terminal event landed; re-check
                # once more next tick rather than racing it.
                await asyncio.sleep(_STREAM_POLL_S)
                tail = job.events_since(cursor)
                if not tail:
                    return
                continue
            await asyncio.sleep(_STREAM_POLL_S)


def _wire_options(options: Dict[str, Any]) -> Dict[str, Any]:
    """The JSON-safe subset of job options that belongs in the ledger."""
    return {
        key: options[key]
        for key in ("jobs", "supervise", "backend", "telemetry", "sampling")
        if key in options and options[key] is not None
    }


def _wait_param(query: str) -> float:
    """The ``wait`` seconds from a ``/result`` query string (default 0)."""
    try:
        values = urllib.parse.parse_qs(query).get("wait")
        return max(0.0, float(values[0])) if values else 0.0
    except (ValueError, TypeError):
        return 0.0


def _since_param(query: str) -> int:
    """The ``since`` cursor from an ``/events`` query string (default 0)."""
    try:
        values = urllib.parse.parse_qs(query).get("since")
        return int(values[0]) if values else 0
    except (ValueError, TypeError):
        return 0


async def _send_raw(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes,
    content_type: str,
    extra_headers: Optional[Dict[str, str]] = None,
) -> None:
    reason = {
        200: "OK", 202: "Accepted", 400: "Bad Request",
        401: "Unauthorized", 404: "Not Found", 405: "Method Not Allowed",
        409: "Conflict", 413: "Payload Too Large", 429: "Too Many Requests",
        500: "Internal Server Error", 503: "Service Unavailable",
    }.get(status, "OK")
    extras = "".join(
        f"{name}: {value}\r\n" for name, value in (extra_headers or {}).items()
    )
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extras}"
        "Connection: close\r\n"
        "\r\n"
    ).encode("latin-1")
    chaos = getattr(writer, "_repro_chaos", None)
    if chaos is not None:
        kind, slow_s = chaos
        if kind == "truncate":
            # Full Content-Length, half the body: the client sees an
            # IncompleteRead and must retry.
            writer.write(head + body[: len(body) // 2])
            await writer.drain()
            return
        if kind == "slow":
            # Slow-loris: dribble the body out so client socket
            # timeouts (not patience) decide when to give up.
            writer.write(head)
            await writer.drain()
            for start in range(0, len(body), 64):
                writer.write(body[start : start + 64])
                await writer.drain()
                await asyncio.sleep(slow_s)
            return
    writer.write(head + body)
    await writer.drain()


async def _send_json(
    writer: asyncio.StreamWriter,
    status: int,
    payload: Dict[str, Any],
    extra_headers: Optional[Dict[str, str]] = None,
) -> None:
    await _send_raw(
        writer, status, json.dumps(payload).encode("utf-8"),
        "application/json", extra_headers=extra_headers,
    )


async def _serve_async(
    service: SweepService, host: str, port: int,
    ready: Optional["threading.Event"] = None,
    bound: Optional[List[Tuple[str, int]]] = None,
) -> None:
    server = await asyncio.start_server(service.handle, host, port)
    addresses = [sock.getsockname()[:2] for sock in server.sockets or []]
    if bound is not None:
        bound.extend(addresses)
    if ready is not None:
        ready.set()
    shown = ", ".join(f"http://{h}:{p}" for h, p in addresses)
    print(f"repro serve: listening on {shown}", flush=True)
    async with server:
        await server.serve_forever()


def serve(
    host: str = "127.0.0.1",
    port: int = 8712,
    *,
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
    store: bool = True,
    max_concurrent: int = 1,
    state_dir: Union[None, str, Path] = None,
    max_queued: int = DEFAULT_MAX_QUEUED,
    token: Optional[str] = None,
    chaos: Union[None, str, ServiceChaosConfig] = None,
) -> None:
    """Run the sweep service until interrupted (the ``repro serve`` body)."""
    service = SweepService(
        jobs=jobs,
        backend=backend,
        store=store,
        max_concurrent=max_concurrent,
        state_dir=state_dir,
        max_queued=max_queued,
        token=token,
        chaos=chaos,
    )
    try:
        asyncio.run(_serve_async(service, host, port))
    except KeyboardInterrupt:
        print("repro serve: shutting down", flush=True)
    finally:
        service.close()
