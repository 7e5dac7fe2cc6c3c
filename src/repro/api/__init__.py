"""Stable programmatic API for running and loading experiments.

This module is the supported import surface for scripts, notebooks, and
downstream tooling.  Everything else under :mod:`repro` is an internal
implementation detail and may be rearranged between releases; code that
imports only from ``repro.api`` keeps working.

Three entry points cover the common cases:

* :func:`run_single` — run one (benchmark, scheme) cell and get a flat
  :class:`RunRecord` back.
* :func:`run_suite` — run a batch of :class:`RunRequest` cells (with
  optional parallelism, fault-tolerant supervision, and telemetry) and
  get a :class:`~repro.sim.engine.SuiteResult` grid back.
* :func:`load_result` — fetch a previously completed run from the
  on-disk result store by its content key, without simulating anything.

Security-analysis entry points ride along: :func:`leakage_report` runs
the Clueless trackers over a benchmark trace, and :func:`run_redteam`
runs the gadget-catalog verdict matrix (see :mod:`repro.redteam`).

When a ``repro serve`` endpoint is running (see
:mod:`repro.sim.service`), :func:`submit_suite` / :func:`poll` /
:func:`result` drive suites over HTTP instead of in-process — submit a
batch of :class:`RunRequest` cells, poll the job's progress counters,
and fetch the finished :class:`~repro.sim.engine.SuiteResult` grid.

The supporting types — :class:`~repro.sim.config.RunConfig`,
:class:`~repro.common.types.SchemeKind`,
:class:`~repro.telemetry.events.TelemetryConfig`,
:class:`~repro.sim.supervisor.FaultPolicy`, and the result types — are
re-exported here so callers never need a second import root::

    from repro.api import RunRequest, run_single

    record = run_single(RunRequest("spec2017/mcf", "stt+recon", 5000))
    print(record.ipc, record.stats.delayed_loads)
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro._lazy import lazy_exports
from repro.common.stats import StatSet
from repro.common.types import SchemeKind
from repro.sampling import SampledEstimate, SamplingConfig, parse_sampling
from repro.sim.config import RunConfig
from repro.sim.engine import RunSpec, SuiteResult, run_specs
from repro.sim.runner import RunResult
from repro.sim.store import ResultStore, default_store_root
from repro.sim.supervisor import FaultPolicy, RunFailure
from repro.sim.reporting import format_table
from repro.telemetry.events import TelemetryConfig, TelemetryResult
from repro.workloads.kernels import build_trace
from repro.workloads.profile import BenchmarkProfile
from repro.workloads.suites import get_benchmark

# The leakage and red-team re-exports load on first access (and inside
# the functions that use them), so importing the API loads no analysis,
# gadget or red-team code.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.analysis.clueless": ("Clueless", "LeakageReport"),
        "repro.redteam.harness": ("MatrixResult",),
        "repro.workloads.gadgets": ("Verdict", "gadget_catalog"),
    },
)

__all__ = [
    "Clueless",
    "FaultPolicy",
    "LeakageReport",
    "MatrixResult",
    "RunConfig",
    "RunFailure",
    "RunRecord",
    "RunRequest",
    "RunResult",
    "SampledEstimate",
    "SamplingConfig",
    "SchemeKind",
    "ServiceUnavailableError",
    "SuiteResult",
    "TelemetryConfig",
    "Verdict",
    "format_table",
    "parse_sampling",
    "gadget_catalog",
    "leakage_report",
    "load_result",
    "poll",
    "result",
    "run_redteam",
    "run_single",
    "run_suite",
    "submit_suite",
]


def _resolve_benchmark(benchmark: Union[str, BenchmarkProfile]) -> BenchmarkProfile:
    """Accept a profile or a ``"suite/name"`` label; ValueError otherwise."""
    if isinstance(benchmark, BenchmarkProfile):
        return benchmark
    if not isinstance(benchmark, str) or "/" not in benchmark:
        raise ValueError(
            f"benchmark must be a BenchmarkProfile or a 'suite/name' label, "
            f"got {benchmark!r}"
        )
    suite, _, name = benchmark.partition("/")
    try:
        return get_benchmark(suite, name)
    except KeyError as exc:
        raise ValueError(str(exc)) from None


def _resolve_scheme(scheme: Union[str, SchemeKind]) -> SchemeKind:
    """Accept a :class:`SchemeKind` or its string value; ValueError otherwise."""
    if isinstance(scheme, SchemeKind):
        return scheme
    try:
        return SchemeKind(scheme)
    except ValueError:
        known = ", ".join(kind.value for kind in SchemeKind)
        raise ValueError(f"unknown scheme {scheme!r}; known: {known}") from None


@dataclasses.dataclass(frozen=True)
class RunRequest:
    """What to run: one (benchmark, scheme, length) cell plus its config.

    Attributes:
        benchmark: a :class:`~repro.workloads.profile.BenchmarkProfile`
            or a ``"suite/name"`` label such as ``"spec2017/mcf"``.
        scheme: a :class:`SchemeKind` or its string value such as
            ``"stt+recon"``.
        length: trace length in micro-ops.
        config: execution knobs (:class:`RunConfig`); ``None`` means the
            defaults (single thread, Table-2 parameters, 40% warm-up).
    """

    benchmark: Union[str, BenchmarkProfile]
    scheme: Union[str, SchemeKind]
    length: int
    config: Optional[RunConfig] = None

    def resolve(self) -> RunSpec:
        """The fully concrete :class:`~repro.sim.engine.RunSpec`.

        String benchmark/scheme fields are looked up here, so typos
        raise :class:`ValueError` before any simulation starts.
        """
        if self.length <= 0:
            raise ValueError("length must be positive")
        return RunSpec.build(
            _resolve_benchmark(self.benchmark),
            _resolve_scheme(self.scheme),
            self.length,
            self.config or RunConfig(),
        )


@dataclasses.dataclass
class RunRecord:
    """One completed run, flattened for direct consumption.

    Combines the measurement (:attr:`cycles`, :attr:`stats`,
    :attr:`per_core`) with its provenance (:attr:`key`,
    :attr:`from_store`, :attr:`wall_time_s`) so callers need neither the
    internal result nor the engine's bookkeeping types.
    """

    #: ``"suite/name"`` label of the benchmark that ran.
    benchmark: str
    #: The protection scheme that ran.
    scheme: SchemeKind
    #: Trace length in micro-ops.
    length: int
    #: Simulated cycles (post-warm-up region).
    cycles: int
    #: Aggregate pipeline statistics across cores.
    stats: StatSet
    #: Per-core pipeline statistics.
    per_core: List[StatSet]
    #: Result-store content key; :func:`load_result` accepts it later.
    key: str
    #: Wall-clock seconds this run took (0.0 when served from the store).
    wall_time_s: float
    #: True when the result came from the on-disk store, not a fresh run.
    from_store: bool
    #: Collected telemetry (``None`` unless the run traced).
    telemetry: Optional[TelemetryResult] = None
    #: Sampling statistics (``None`` unless the run was estimated).
    sampling: Optional[SampledEstimate] = None

    @property
    def ipc(self) -> float:
        """Committed micro-ops per simulated cycle."""
        if self.cycles == 0:
            return 0.0
        return self.stats.committed_uops / self.cycles

    @property
    def estimated(self) -> bool:
        """True when this record came from a sampled (statistical) run."""
        return self.sampling is not None

    @property
    def ipc_ci(self) -> Optional[float]:
        """Half-width of the IPC confidence interval (sampled runs only)."""
        return self.sampling.ipc_ci if self.sampling is not None else None


def _default_store() -> Optional[ResultStore]:
    root = default_store_root()
    return ResultStore(root) if root is not None else None


def _resolve_store(store: Union[bool, ResultStore, None]) -> Optional[ResultStore]:
    """Map the ``store`` argument onto a concrete :class:`ResultStore`."""
    if store is True:
        return _default_store()
    if store is False or store is None:
        return None
    return store


def run_single(
    request: RunRequest,
    *,
    store: Union[bool, ResultStore, None] = True,
) -> RunRecord:
    """Run one cell and return its flat :class:`RunRecord`.

    ``store`` controls result memoization: ``True`` (default) uses the
    standard on-disk store (honouring the ``REPRO_STORE`` environment
    variable), ``False`` disables it, and a
    :class:`~repro.sim.store.ResultStore` instance uses that store.
    Telemetry-enabled runs always bypass the store.

    The cell runs under the same rule as :func:`run_suite`: fail-fast
    unless its config carries chaos, which supervises it with the
    default :class:`FaultPolicy`.  A failed run raises
    :class:`~repro.sim.backends.TaskFailedError` either way.
    """
    spec = request.resolve()
    config = request.config or RunConfig()
    (result,), suite = run_specs(
        [spec], cache=config.cache, jobs=1, store=_resolve_store(store)
    )
    if suite.failures:
        raise suite.failures[0].error()
    record = suite.records[0]
    return RunRecord(
        benchmark=spec.profile.label,
        scheme=spec.scheme,
        length=spec.length,
        cycles=result.cycles,
        stats=result.stats,
        per_core=result.per_core,
        key=spec.key(),
        wall_time_s=record.wall_time_s,
        from_store=record.from_store,
        telemetry=result.telemetry,
        sampling=getattr(result, "sampling", None),
    )


def run_suite(
    requests: Iterable[RunRequest],
    *,
    jobs: Optional[int] = None,
    supervise: Union[bool, FaultPolicy] = False,
    telemetry: Union[None, bool, TelemetryConfig] = None,
    sampling: Union[None, str, SamplingConfig] = None,
    store: Union[bool, ResultStore, None] = True,
    progress: bool = False,
    backend: Optional[object] = None,
    observer: Optional[object] = None,
    journal: Optional[object] = None,
    resume: bool = False,
) -> SuiteResult:
    """Run a batch of cells and return the :class:`SuiteResult` grid.

    Args:
        requests: the cells to run; duplicates are allowed (later cells
            overwrite earlier ones in the grid mapping, as in the CLI).
        jobs: worker processes (``None`` honours ``REPRO_JOBS``, then
            runs inline).
        supervise: ``True`` supervises execution with the default
            :class:`FaultPolicy`; a policy instance uses that policy;
            ``False`` (default) is fail-fast unless a journal,
            ``resume`` or a chaos config asks for supervision (see
            :func:`~repro.sim.engine.supervision_policy`).  Supervised
            cells that exhaust their retries land in
            ``SuiteResult.failures`` instead of raising; fail-fast, the
            first failed run raises
            :class:`~repro.sim.backends.TaskFailedError`.
        telemetry: ``True`` enables tracing with default
            :class:`TelemetryConfig` knobs on every cell; a config
            instance applies that config; ``None`` leaves each request's
            own ``config.telemetry`` in force.
        sampling: statistically sampled simulation on every cell — a
            spec string such as ``"ci=0.02,conf=0.95"`` (or ``"on"`` for
            defaults; see :func:`parse_sampling`) or a
            :class:`SamplingConfig` instance; ``None`` leaves each
            request's own ``config.sampling`` in force (exact mode by
            default).  Sampled records carry ``estimated=True``,
            ``samples``, and ``ipc_ci``.
        store: result memoization, as in :func:`run_single`.
        progress: print a per-run progress line to stderr.
        backend: execution substrate — a name (``inline`` / ``threads``
            / ``process`` / ``queue``) or an
            :class:`~repro.sim.backends.ExecutionBackend` instance;
            ``None`` honours ``REPRO_BACKEND``, then the jobs-based
            default.
        observer: callable receiving each settled engine record (and,
            supervised, each :class:`RunFailure`) as it lands — the
            sweep service streams these to HTTP clients.
        journal: a :class:`~repro.sim.supervisor.SuiteJournal` to
            checkpoint exhausted runs into; implies the supervised path.
        resume: replay the journal before running, so already-settled
            cells are skipped (completed ones come back via the store);
            implies the supervised path.
    """
    specs = [request.resolve() for request in requests]
    if telemetry is not None:
        override = TelemetryConfig() if telemetry is True else telemetry
        specs = [dataclasses.replace(spec, telemetry=override) for spec in specs]
    if sampling is not None:
        cfg = parse_sampling(sampling)
        specs = [dataclasses.replace(spec, sampling=cfg) for spec in specs]
    _, suite = run_specs(
        specs,
        jobs=jobs,
        store=_resolve_store(store),
        progress=progress,
        policy=FaultPolicy() if supervise is True else supervise or None,
        journal=journal,
        resume=resume,
        backend=backend,
        observer=observer,
    )
    return suite


def leakage_report(
    benchmark: Union[str, BenchmarkProfile], length: int
) -> LeakageReport:
    """Clueless leakage analysis of one benchmark trace.

    Builds the deterministic trace for ``benchmark`` (a profile or
    ``"suite/name"`` label) at ``length`` micro-ops and runs both the
    global-DIFT and direct-load-pair trackers over it, returning the
    :class:`~repro.analysis.clueless.LeakageReport` the ``run leakage``
    CLI command prints.
    """
    from repro.analysis.clueless import Clueless

    if length <= 0:
        raise ValueError("length must be positive")
    profile = _resolve_benchmark(benchmark)
    return Clueless().run(build_trace(profile, length).trace())


def run_redteam(
    gadgets: Optional[Iterable[str]] = None,
    schemes: Optional[Iterable[Union[str, SchemeKind]]] = None,
    *,
    jobs: Optional[int] = None,
    progress: bool = False,
) -> MatrixResult:
    """Run the gadget x scheme red-team matrix (see :mod:`repro.redteam`).

    ``gadgets`` defaults to the whole catalog and ``schemes`` to the
    standard matrix columns; scheme strings such as ``"stt+recon"`` are
    accepted.  Returns the :class:`~repro.redteam.harness.MatrixResult`
    whose ``ok`` property asserts every cell's expected verdict.
    """
    from repro.redteam.harness import run_matrix

    resolved_schemes = (
        [_resolve_scheme(scheme) for scheme in schemes]
        if schemes is not None
        else None
    )
    return run_matrix(
        gadgets=list(gadgets) if gadgets is not None else None,
        schemes=resolved_schemes,
        jobs=jobs,
        progress=progress,
    )


def load_result(key: str) -> Optional[RunResult]:
    """Fetch a stored run by its content key; ``None`` when absent.

    ``key`` is the value of :attr:`RunRecord.key` (or
    :meth:`~repro.sim.engine.RunSpec.key`).  Returns ``None`` when the
    store is disabled (``REPRO_STORE=off``) or holds no such entry.
    """
    store = _default_store()
    if store is None:
        return None
    return store.get(key)


# --- sweep-service client --------------------------------------------------
class ServiceUnavailableError(ConnectionError):
    """The ``repro serve`` endpoint could not be reached (or stayed busy).

    Raised by :func:`submit_suite` / :func:`poll` / :func:`result` after
    their bounded retries are exhausted — on connection-refused, socket
    timeouts, dropped/truncated responses, and on ``429``/``503``
    backpressure that outlasts the retry budget.  Carries the service
    URL and the last underlying error so the failure is actionable
    instead of a raw :class:`OSError` from ``urllib``.
    """

    def __init__(self, url: str, attempts: int, last_error: str) -> None:
        super().__init__(
            f"sweep service at {url} unavailable after {attempts} "
            f"attempt(s): {last_error}. Is `repro serve` running there?"
        )
        self.url = url
        self.attempts = attempts
        self.last_error = last_error


def _service_url(url: str, path: str) -> str:
    return url.rstrip("/") + path


def _service_token(token: Optional[str]) -> Optional[str]:
    """The auth token to send: explicit argument, else the env var."""
    if token is not None:
        return token or None
    import os

    return os.environ.get("REPRO_SERVE_TOKEN") or None


def _request_once(
    url: str,
    *,
    method: str = "GET",
    payload: Optional[Dict[str, object]] = None,
    timeout_s: float = 30.0,
    token: Optional[str] = None,
) -> Tuple[int, bytes, Dict[str, str]]:
    """One HTTP exchange: (status, body, lower-cased response headers)."""
    import urllib.error
    import urllib.request

    data = None
    headers = {"Accept": "application/json"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(
        url, data=data, headers=headers, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout_s) as response:
            return (
                response.status,
                response.read(),
                {k.lower(): v for k, v in response.headers.items()},
            )
    except urllib.error.HTTPError as exc:
        return (
            exc.code,
            exc.read(),
            {k.lower(): v for k, v in (exc.headers or {}).items()},
        )


#: Longest hold :func:`result` asks of the server per request; the
#: server caps it at ``repro.sim.service.RESULT_WAIT_CAP_S``.
_RESULT_HOLD_S = 10.0

#: Backpressure statuses the client waits out (admission 429, degraded 503).
_BUSY_STATUSES = (429, 503)
_RETRY_BACKOFF_S = 0.1
_RETRY_BACKOFF_CAP_S = 2.0


def _retry_after(headers: Dict[str, str], fallback: float) -> float:
    try:
        value = float(headers.get("retry-after", ""))
    except ValueError:
        return fallback
    return max(0.0, value)


def _request_json(
    url: str,
    *,
    method: str = "GET",
    payload: Optional[Dict[str, object]] = None,
    timeout_s: float = 30.0,
    token: Optional[str] = None,
    retries: int = 4,
    busy_wait_s: float = 0.0,
) -> Tuple[int, bytes]:
    """A resilient HTTP exchange with the sweep service.

    Transport faults — connection refused, socket timeouts, dropped or
    truncated responses — are retried up to ``retries`` times with
    exponential backoff and jitter, then raise
    :class:`ServiceUnavailableError`.  With ``busy_wait_s`` > 0,
    ``429``/``503`` backpressure responses are also retried (honouring
    the server's ``Retry-After`` header) until that budget runs out.
    Any other HTTP status is returned to the caller as ``(status,
    body)`` — application-level errors are the caller's protocol.
    """
    import http.client
    import random
    import socket
    import urllib.error

    deadline = time.monotonic() + busy_wait_s if busy_wait_s > 0 else None
    attempt = 0
    last_error = "no attempt made"
    while True:
        attempt += 1
        try:
            status, body, headers = _request_once(
                url, method=method, payload=payload,
                timeout_s=timeout_s, token=token,
            )
        except urllib.error.URLError as exc:
            last_error = f"{type(exc.reason).__name__}: {exc.reason}"
        except (http.client.HTTPException, socket.timeout, OSError) as exc:
            # Dropped/truncated responses (RemoteDisconnected,
            # IncompleteRead) and slow-loris reads (socket.timeout) land
            # here — all transient from the client's point of view.
            last_error = f"{type(exc).__name__}: {exc}"
        else:
            if status in _BUSY_STATUSES and deadline is not None:
                backoff = min(
                    _RETRY_BACKOFF_CAP_S,
                    _RETRY_BACKOFF_S * (2 ** (attempt - 1)),
                )
                delay = _retry_after(headers, backoff)
                if time.monotonic() + delay <= deadline:
                    time.sleep(delay)
                    continue
                last_error = (
                    f"service still busy (HTTP {status}) after "
                    f"{busy_wait_s:.0f}s"
                )
                raise ServiceUnavailableError(url, attempt, last_error)
            return status, body
        if attempt > retries:
            raise ServiceUnavailableError(url, attempt, last_error)
        backoff = min(
            _RETRY_BACKOFF_CAP_S, _RETRY_BACKOFF_S * (2 ** (attempt - 1))
        )
        time.sleep(backoff * (1.0 + 0.25 * random.random()))


def _wire_request(request: RunRequest) -> Dict[str, object]:
    """Flatten a :class:`RunRequest` for the service's JSON schema."""
    if request.config is not None:
        raise ValueError(
            "RunRequest.config cannot be sent over HTTP; submit cells with "
            "default config (length/benchmark/scheme only)"
        )
    benchmark = request.benchmark
    if not isinstance(benchmark, str):
        benchmark = f"{benchmark.suite}/{benchmark.name}"
    scheme = request.scheme
    if isinstance(scheme, SchemeKind):
        scheme = scheme.value
    return {"benchmark": benchmark, "scheme": scheme, "length": request.length}


def submit_suite(
    requests: Iterable[RunRequest],
    *,
    url: str = "http://127.0.0.1:8712",
    jobs: Optional[int] = None,
    supervise: bool = False,
    backend: Optional[str] = None,
    sampling: Union[None, str, SamplingConfig] = None,
    idempotency_key: Optional[str] = None,
    token: Optional[str] = None,
    timeout_s: float = 30.0,
    busy_wait_s: float = 120.0,
) -> str:
    """Submit a suite to a running ``repro serve`` endpoint; returns a job id.

    The job runs asynchronously on the server; track it with
    :func:`poll` and fetch the finished grid with :func:`result`.
    Requests must use the default :class:`RunConfig` — per-cell config
    objects do not serialize over the wire.

    The submit is resilient and exactly-once: every call carries an
    idempotency key (a fresh UUID unless ``idempotency_key`` pins one),
    so when a response is lost mid-flight the transparent retry returns
    the job the first attempt already created instead of enqueueing a
    duplicate.  Admission backpressure (``429`` + ``Retry-After``) and
    degraded-mode ``503`` are waited out for up to ``busy_wait_s``
    seconds; connection failures raise
    :class:`ServiceUnavailableError` after bounded retries.  ``token``
    (default: ``REPRO_SERVE_TOKEN``) authenticates when the server
    requires it.  ``sampling`` (a spec string or
    :class:`SamplingConfig`) asks the server to run every cell in
    statistically sampled mode.
    """
    import uuid

    payload: Dict[str, object] = {
        "requests": [_wire_request(request) for request in requests],
        "idempotency_key": idempotency_key or str(uuid.uuid4()),
    }
    if jobs is not None:
        payload["jobs"] = jobs
    if supervise:
        payload["supervise"] = True
    if backend is not None:
        payload["backend"] = backend
    if sampling is not None:
        # Validate locally (typos fail fast) and ship the canonical
        # spec string; the server re-parses it into a SamplingConfig.
        cfg = parse_sampling(sampling)
        payload["sampling"] = cfg.spec() if cfg is not None else "off"
    status, body = _request_json(
        _service_url(url, "/v1/suites"),
        method="POST",
        payload=payload,
        timeout_s=timeout_s,
        token=_service_token(token),
        busy_wait_s=busy_wait_s,
    )
    decoded = json.loads(body.decode("utf-8"))
    if status not in (200, 202):  # 200 = idempotent replay of a known job
        raise RuntimeError(
            f"suite submission failed ({status}): "
            f"{decoded.get('error', repr(body[:200]))}"
        )
    return str(decoded["job"])


def poll(
    job_id: str,
    *,
    url: str = "http://127.0.0.1:8712",
    token: Optional[str] = None,
    timeout_s: float = 30.0,
) -> Dict[str, object]:
    """Current status of a service job: state, record/failure counts.

    Returns the server's job summary dict — ``status`` is one of
    ``queued`` / ``running`` / ``done`` / ``failed``.  Transport faults
    are retried; an unreachable service raises
    :class:`ServiceUnavailableError` rather than a raw ``OSError``.
    """
    status, body = _request_json(
        _service_url(url, f"/v1/jobs/{job_id}"),
        timeout_s=timeout_s,
        token=_service_token(token),
    )
    decoded = json.loads(body.decode("utf-8"))
    if status != 200:
        raise RuntimeError(
            f"poll failed ({status}): {decoded.get('error', repr(body[:200]))}"
        )
    return decoded


def result(
    job_id: str,
    *,
    url: str = "http://127.0.0.1:8712",
    wait: bool = True,
    timeout_s: float = 600.0,
    interval_s: float = 0.25,
    token: Optional[str] = None,
    request_timeout_s: float = 30.0,
) -> SuiteResult:
    """Fetch a service job's :class:`SuiteResult`, waiting for completion.

    With ``wait=False`` a still-running job raises immediately
    (mirroring the server's 409).  Otherwise each request asks the
    server to hold it until the job finishes (``?wait=``, for at most
    half of ``request_timeout_s`` and never past ``timeout_s``); a
    server that answers without holding (one that predates long-poll)
    is polled every ``interval_s`` instead, until the job finishes or
    ``timeout_s`` elapses.  A server-side job failure raises
    ``RuntimeError`` with the job's error string.  Each request uses a
    ``request_timeout_s`` socket timeout and bounded transport retries,
    so a hung service surfaces as :class:`ServiceUnavailableError`
    instead of blocking forever.
    """
    resolved_token = _service_token(token)
    deadline = time.monotonic() + timeout_s
    path = _service_url(url, f"/v1/jobs/{job_id}/result")
    while True:
        hold = 0.0
        if wait:
            hold = min(
                _RESULT_HOLD_S,
                request_timeout_s / 2,
                deadline - time.monotonic(),
            )
        status, body = _request_json(
            f"{path}?wait={hold:.3f}" if hold > 0 else path,
            timeout_s=request_timeout_s,
            token=resolved_token,
        )
        if status == 200:
            return SuiteResult.from_json(body.decode("utf-8"))
        decoded = json.loads(body.decode("utf-8"))
        if status == 500:
            raise RuntimeError(
                f"job {job_id} failed: {decoded.get('error', 'unknown error')}"
            )
        if status != 409 or not wait:
            raise RuntimeError(
                f"job {job_id} not ready ({status}): "
                f"{decoded.get('error', 'unfinished')}"
            )
        if time.monotonic() >= deadline:
            raise TimeoutError(
                f"job {job_id} still {decoded.get('status', 'running')} "
                f"after {timeout_s:.0f}s"
            )
        if not decoded.get("waited"):
            time.sleep(interval_s)
