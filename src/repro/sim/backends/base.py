"""The ``ExecutionBackend`` seam: how specs become results.

Every execution substrate — inline, a thread pool, a process pool, a
file-backed work-stealing queue — implements the same small contract:

* :meth:`ExecutionBackend.submit` accepts a
  :class:`~repro.sim.engine.RunSpec` (plus an attempt number and an
  optional per-task wall-clock budget) and returns a :class:`TaskHandle`;
* :meth:`ExecutionBackend.poll` blocks until at least one handle settles
  and returns the newly settled handles;
* every submitted handle settles **exactly once** — with a payload
  envelope, a :class:`WorkerDeath`, or a :class:`TaskTimeout`.

The payload envelope is the same wire format on every backend (it is
what pool workers have always shipped): ``("ok", RunResult, wall_s,
pid)`` on success or ``("error", type_name, message, traceback,
diagnostics, wall_s, pid)`` on a contained failure.  Chaos faults
(:mod:`repro.sim.chaos`) fire inside :func:`run_task`, so every backend
is exercised by the same fault harness.

One consumer drives this contract: the
:class:`repro.sim.supervisor.Supervisor` loop, in fail-fast or
supervised mode.  It never imports ``concurrent.futures`` types: a
worker crash is a :class:`WorkerDeath`, an expired budget is a
:class:`TaskTimeout`, regardless of whether the substrate is a
``ProcessPoolExecutor`` or a spool directory shared by detached workers
on another host.

Backend selection: :func:`resolve_backend` maps a name (``inline`` /
``threads`` / ``process`` / ``queue``), the ``REPRO_BACKEND``
environment variable, or the historical ``jobs`` count onto a concrete
backend.  ``jobs == 1`` keeps the deterministic inline path and
``jobs > 1`` keeps the process pool, so existing invocations are
bit-identical.
"""

from __future__ import annotations

import abc
import dataclasses
import os
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import SimulationHangError
from repro.sim import chaos as chaos_mod
from repro.sim.config import RunConfig

__all__ = [
    "BACKEND_ENV",
    "BACKEND_NAMES",
    "BackendHealth",
    "CorruptResultError",
    "ExecutionBackend",
    "TaskFailedError",
    "TaskHandle",
    "TaskTimeout",
    "WorkerDeath",
    "backend_name",
    "default_backend_name",
    "error_envelope",
    "execute_run",
    "executor_cache",
    "parse_envelope",
    "resolve_backend",
    "run_task",
]

#: Environment variable naming the default execution backend.
BACKEND_ENV = "REPRO_BACKEND"

#: The built-in backend names, in documentation order.
BACKEND_NAMES = ("inline", "threads", "process", "queue")


class WorkerDeath(RuntimeError):
    """The worker executing a task died before settling it.

    Every backend that can lose a worker knows which task the worker
    held (a process slot runs one task at a time, a queue lease names
    its task), so the death settles exactly that task.

    Attributes:
        pid: OS pid of the dead worker, when known.
    """

    def __init__(
        self,
        message: str = "worker process died mid-run",
        *,
        pid: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.pid = pid


class TaskTimeout(RuntimeError):
    """A task exceeded its wall-clock budget and was cancelled."""

    def __init__(self, timeout_s: float) -> None:
        super().__init__(
            f"run exceeded {timeout_s:.3f}s wall-clock budget"
        )
        self.timeout_s = timeout_s


class CorruptResultError(RuntimeError):
    """A worker returned a payload that does not validate as a result."""


class TaskFailedError(RuntimeError):
    """A fail-fast run reported an error envelope.

    Raised by the :class:`~repro.sim.supervisor.Supervisor` in fail-fast
    mode (no :class:`~repro.sim.supervisor.FaultPolicy`) for the first
    run that fails, on every backend and at any ``jobs`` count: the
    original exception is contained in the worker, so this carries its
    type name, message and formatted traceback (``traceback_text``).
    :func:`repro.api.run_single` raises it for a supervised cell that
    exhausted its retries too.
    """

    def __init__(
        self, error_type: str, message: str, traceback_text: str = ""
    ) -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.message = message
        self.traceback_text = traceback_text


# ---------------------------------------------------------------------------
# the task payload envelope (identical on every backend)
# ---------------------------------------------------------------------------


def execute_run(spec: Any, cache: Any = None) -> Any:
    """Run one spec to a :class:`~repro.sim.runner.RunResult`.

    This is the single simulation entry point every backend funnels
    through — inline, thread, pool worker, or detached queue worker —
    so cross-backend parity is parity of scheduling, never of physics.
    """
    from repro.sim.runner import run_benchmark

    return run_benchmark(
        spec.profile,
        spec.scheme,
        spec.length,
        config=RunConfig(
            params=spec.params,
            threads=spec.threads,
            warmup_uops=spec.warmup_uops,
            cache=cache,
            telemetry=spec.telemetry,
            sampling=getattr(spec, "sampling", None),
        ),
    )


def executor_cache() -> Any:
    """A trace cache for an executor that outlives its cells.

    The inline and thread backends and every pool or queue worker keep
    one such cache for as long as they run: several profiles' traces,
    each serving every shorter length, under one byte budget
    (:data:`~repro.sim.runner.EXECUTOR_TRACE_BYTES`).
    """
    from repro.sim.runner import EXECUTOR_TRACE_BYTES, TraceCache

    return TraceCache(max_bytes=EXECUTOR_TRACE_BYTES)


def error_envelope(
    exc: BaseException, wall: float, pid: Optional[int]
) -> Tuple[Any, ...]:
    """The structured error envelope a failed attempt reports."""
    diagnostics = None
    if isinstance(exc, SimulationHangError):
        diagnostics = exc.diagnostics()
    return (
        "error",
        type(exc).__name__,
        str(exc),
        traceback.format_exc(),
        diagnostics,
        wall,
        pid,
    )


def run_task(
    spec: Any,
    attempt: int = 0,
    cache: Any = None,
    reraise: Tuple[type, ...] = (),
) -> Any:
    """The universal task body: chaos injection + run + envelope.

    Exceptions never propagate (except the ``reraise`` types — inline
    backends pass ``KeyboardInterrupt`` so a Ctrl-C is not swallowed
    into a failure record): the task reports either ``("ok", result,
    wall_s, pid)`` or ``("error", type, message, traceback,
    diagnostics, wall_s, pid)``.  Injected chaos may instead kill the
    process (crash), sleep past the deadline (hang), or substitute a
    garbage payload (corrupt).
    """
    start = time.perf_counter()
    pid = os.getpid()
    try:
        key = spec.key() if spec.chaos is not None else ""
        action = chaos_mod.inject(spec.chaos, key, attempt)
        if action == "corrupt":
            return chaos_mod.CORRUPT_PAYLOAD
        result = execute_run(spec, cache=cache)
        return ("ok", result, time.perf_counter() - start, pid)
    except reraise:
        raise
    except BaseException as exc:  # noqa: BLE001 - structured error envelope
        return error_envelope(exc, time.perf_counter() - start, pid)


def parse_envelope(payload: Any) -> Tuple[Any, ...]:
    """Validate a task payload envelope (corrupt payloads raise)."""
    if isinstance(payload, tuple) and payload:
        if payload[0] == "ok" and len(payload) == 4:
            return payload
        if payload[0] == "error" and len(payload) == 7:
            return payload
    raise CorruptResultError(
        f"worker returned malformed payload: {type(payload).__name__}"
    )


# ---------------------------------------------------------------------------
# handles and health
# ---------------------------------------------------------------------------


class TaskHandle:
    """One submitted task: settles exactly once with payload or signal."""

    __slots__ = (
        "spec",
        "attempt",
        "token",
        "deadline",
        "_payload",
        "_error",
        "_settled",
    )

    def __init__(
        self,
        spec: Any,
        attempt: int = 0,
        token: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> None:
        self.spec = spec
        self.attempt = attempt
        self.token = token
        #: ``time.monotonic()`` budget expiry, or ``None`` (no budget).
        self.deadline = deadline
        self._payload: Any = None
        self._error: Optional[BaseException] = None
        self._settled = False

    @property
    def done(self) -> bool:
        return self._settled

    def settle_payload(self, payload: Any) -> None:
        """Settle with a payload envelope (idempotence is an error)."""
        if self._settled:
            raise RuntimeError("task handle already settled")
        self._payload = payload
        self._settled = True

    def settle_error(self, error: BaseException) -> None:
        """Settle with a typed signal (WorkerDeath / TaskTimeout)."""
        if self._settled:
            raise RuntimeError("task handle already settled")
        self._error = error
        self._settled = True

    def outcome(self) -> Any:
        """The payload envelope, or raise the typed signal."""
        if not self._settled:
            raise RuntimeError("task handle is not settled yet")
        if self._error is not None:
            raise self._error
        return self._payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "settled" if self._settled else "pending"
        return f"<TaskHandle {self.token or id(self):} {state}>"


@dataclasses.dataclass
class BackendHealth:
    """Introspectable backend state, read by the supervisor.

    ``/v1/health`` does not serve it: that route returns
    :meth:`repro.sim.service.SweepService.health`.
    """

    name: str
    #: Configured worker slots.
    workers: int
    #: Workers currently believed alive (== ``workers`` when healthy).
    alive_workers: int
    #: Tasks submitted but not yet settled.
    inflight: int
    #: Tasks queued behind the workers (0 for executor-style backends).
    queue_depth: int
    #: Total worker/pool respawns (crash- and cancel-driven).
    restarts: int
    #: Crash-driven respawns only (counts against the degrade budget).
    crash_restarts: int
    #: Backend-specific counters (``backend_*`` namespace).
    counters: Dict[str, int] = dataclasses.field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """The health snapshot as a flat, JSON-serializable dict."""
        return dataclasses.asdict(self)


# ---------------------------------------------------------------------------
# the backend contract
# ---------------------------------------------------------------------------


class ExecutionBackend(abc.ABC):
    """Abstract execution substrate for :class:`~repro.sim.engine.RunSpec` tasks.

    Lifecycle: :meth:`start` before the first submit, :meth:`shutdown`
    when done (``with backend:`` does both).  Between them the caller
    submits up to :meth:`capacity` concurrent tasks and drains
    :meth:`poll`.
    """

    #: Registry name (``inline`` / ``threads`` / ``process`` / ``queue``).
    name: str = "?"
    #: Whether an expired per-task budget can actually cancel the task.
    #: Non-preemptible backends (inline, threads) record timeouts
    #: post-hoc but cannot interrupt a hung simulation.
    preemptible: bool = False

    def start(self) -> None:
        """Allocate workers; idempotent."""

    @abc.abstractmethod
    def submit(
        self,
        spec: Any,
        attempt: int = 0,
        timeout_s: Optional[float] = None,
    ) -> TaskHandle:
        """Accept one task; returns its (unsettled) handle."""

    @abc.abstractmethod
    def poll(self, timeout: Optional[float] = None) -> List[TaskHandle]:
        """Newly settled handles; blocks up to ``timeout`` for the first.

        Returns ``[]`` when nothing is in flight, or when ``timeout``
        expires first.  ``timeout=None`` blocks until a settlement.
        """

    @abc.abstractmethod
    def capacity(self) -> int:
        """How many tasks may usefully be in flight at once."""

    @abc.abstractmethod
    def health(self) -> BackendHealth:
        """A snapshot of worker liveness, queue depth, and counters."""

    def shutdown(self, wait: bool = True) -> None:
        """Release workers; safe to call twice."""

    # -- context manager sugar -----------------------------------------
    def __enter__(self) -> "ExecutionBackend":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------


def default_backend_name(jobs: int) -> str:
    """The historical default: inline for one job, a process pool above."""
    return "inline" if jobs == 1 else "process"


def backend_name(backend: Any, jobs: int) -> str:
    """The registry name a backend argument selects for ``jobs`` jobs.

    ``backend`` if given, else the ``REPRO_BACKEND`` environment
    variable, else :func:`default_backend_name`; normalized, but not
    checked against the registry.
    """
    name = backend
    if name is None:
        name = os.environ.get(BACKEND_ENV) or None
    if name is None:
        name = default_backend_name(jobs)
    if not isinstance(name, str):
        raise ValueError(
            f"backend must be a name or an ExecutionBackend, got {name!r}"
        )
    return name.strip().lower()


def resolve_backend(
    backend: Any = None,
    *,
    jobs: Optional[int] = None,
    workers: Optional[int] = None,
    cache: Any = None,
) -> Tuple[ExecutionBackend, bool]:
    """Map a backend argument onto a started-able backend instance.

    ``backend`` may be an :class:`ExecutionBackend` instance (returned
    as-is, caller keeps ownership), a registry name, or ``None`` — in
    which case the ``REPRO_BACKEND`` environment variable is consulted,
    then the historical ``jobs``-based default.  ``cache`` is handed to
    a new inline backend, which keeps it instead of owning (and
    clearing) one; the pool backends keep per-worker caches.  Returns
    ``(backend, owned)`` where ``owned`` tells the caller whether it
    must call :meth:`ExecutionBackend.shutdown`.
    """
    if isinstance(backend, ExecutionBackend):
        return backend, False
    from repro.sim.engine import resolve_jobs

    jobs = resolve_jobs(jobs)
    name = backend_name(backend, jobs)
    workers = workers if workers is not None else jobs
    workers = max(1, workers)
    if name == "inline":
        from repro.sim.backends.local import InlineBackend

        return InlineBackend(cache=cache), True
    if name == "threads":
        from repro.sim.backends.local import ThreadBackend

        return ThreadBackend(workers=workers), True
    if name == "process":
        from repro.sim.backends.process import ProcessBackend

        return ProcessBackend(workers=workers), True
    if name == "queue":
        from repro.sim.backends.queue import QueueBackend

        return QueueBackend(workers=workers), True
    raise ValueError(
        f"unknown execution backend {name!r}; "
        f"choose from {', '.join(BACKEND_NAMES)}"
    )
