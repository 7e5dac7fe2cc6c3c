"""Resilience tests for the sweep service and its HTTP clients.

Covers the hardened edges added with the durable service: circuit
breaker, admission control (429 + Retry-After), idempotent submits,
bearer-token auth, liveness vs. readiness, deterministic response
chaos, and the client retry ladder — the transport-fault cases run
against canned single-purpose TCP servers so every byte on the wire is
scripted and the tests stay deterministic.
"""

import asyncio
import contextlib
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

pytestmark = pytest.mark.service

import repro.api as api_mod
from repro.api import (
    RunRequest,
    ServiceUnavailableError,
    poll,
    result,
    submit_suite,
)
from repro.common.types import SchemeKind
from repro.sim.backends import WorkerDeath
from repro.sim.chaos import ServiceChaosConfig, parse_service_chaos
from repro.sim.engine import SuiteResult
from repro.sim.service import (
    CircuitBreaker,
    ServiceBusyError,
    SweepService,
    _serve_async,
)
from repro.sim.supervisor import RunFailure


@contextlib.contextmanager
def serve(service):
    """Run ``service`` on an ephemeral port; yields its base URL."""
    ready = threading.Event()
    bound = []
    holder = {}

    def run():
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


def _cell(scheme="stt"):
    return {"benchmark": "spec2017/mcf", "scheme": scheme, "length": 300}


def _raw(url, *, method="GET", payload=None, headers=None, timeout=10):
    """One raw HTTP exchange: (status, lower-cased headers, decoded body)."""
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json", **(headers or {})},
        method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            status, raw_headers, body = (
                response.status,
                response.headers,
                response.read(),
            )
    except urllib.error.HTTPError as exc:
        status, raw_headers, body = exc.code, exc.headers or {}, exc.read()
    return (
        status,
        {k.lower(): v for k, v in raw_headers.items()},
        json.loads(body) if body else {},
    )


@pytest.fixture
def fast_retries(monkeypatch):
    """Shrink the client backoff so retry-ladder tests run in tens of ms."""
    monkeypatch.setattr(api_mod, "_RETRY_BACKOFF_S", 0.01)
    monkeypatch.setattr(api_mod, "_RETRY_BACKOFF_CAP_S", 0.05)


class TestCircuitBreaker:
    def test_trips_at_threshold(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, cooldown_s=30.0, clock=clock)
        breaker.record_crash()
        breaker.record_crash()
        assert breaker.state == "closed"
        breaker.record_crash()
        assert breaker.state == "open"
        assert breaker.trips == 1
        allowed, retry_after = breaker.allow_submit()
        assert not allowed
        assert 0 < retry_after <= 30.0

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2, clock=FakeClock())
        breaker.record_crash()
        breaker.record_success()
        breaker.record_crash()
        assert breaker.state == "closed"  # never two in a row

    def test_cooldown_half_open_then_closes_on_success(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown_s=10.0, clock=clock)
        breaker.record_crash()
        assert breaker.allow_submit() == (False, 10.0)
        clock.advance(10.0)
        allowed, _ = breaker.allow_submit()
        assert allowed and breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.resets == 1

    def test_half_open_crash_reopens_immediately(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, cooldown_s=10.0, clock=clock)
        for _ in range(3):
            breaker.record_crash()
        clock.advance(10.0)
        breaker.allow_submit()
        assert breaker.state == "half_open"
        breaker.record_crash()  # one probe failure is enough
        assert breaker.state == "open"
        assert breaker.trips == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError, match="cooldown"):
            CircuitBreaker(cooldown_s=0.0)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestBreakerFeed:
    """The breaker sees every worker crash of a cell exactly once."""

    @staticmethod
    def _service(breaker):
        return SweepService(
            backend="inline", store=False, breaker=breaker, start_workers=False
        )

    def test_unsupervised_worker_deaths_trip_the_breaker(self, monkeypatch):
        def crash(*args, **kwargs):
            raise WorkerDeath()

        monkeypatch.setattr(api_mod, "run_suite", crash)
        breaker = CircuitBreaker(threshold=3, cooldown_s=60.0)
        service = self._service(breaker)
        for scheme in ("unsafe", "stt", "nda"):
            job = service.submit([_cell(scheme)], {})
            service._run_cell(job)
            assert job.status == "failed"
            assert "WorkerDeath" in job.error
        assert breaker.state == "open"
        assert breaker.trips == 1
        service.close()

    def test_exhausted_crash_retries_count_once(self, monkeypatch):
        # Two attempts, both crashed: two fault_worker_crashes, and the
        # second one is also the cell's WorkerCrashError failure.
        failure = RunFailure(
            bench="spec2017/mcf",
            scheme=SchemeKind.STT,
            seed=0,
            key=None,
            error_type="WorkerCrashError",
            message="worker process died mid-run",
            traceback="",
            attempts=2,
            worker_pid=None,
            wall_time_s=0.0,
        )
        part = SuiteResult(
            {}, failures=[failure], fault_counters={"fault_worker_crashes": 2}
        )
        monkeypatch.setattr(api_mod, "run_suite", lambda *a, **k: part)
        breaker = CircuitBreaker(threshold=3, cooldown_s=60.0)
        service = self._service(breaker)
        job = service.submit([_cell()], {"supervise": True})
        service._run_cell(job)
        assert job.status == "done"
        assert breaker.state == "closed"
        assert breaker.trips == 0
        # The two crashes did count: one more trips the breaker.
        breaker.record_crash()
        assert breaker.state == "open"
        service.close()


class TestAdmissionControl:
    def test_queue_full_raises_429(self):
        service = SweepService(
            backend="inline", store=False, max_queued=1, start_workers=False
        )
        service.submit([_cell()], {})
        with pytest.raises(ServiceBusyError) as exc_info:
            service.submit([_cell("unsafe")], {})
        assert exc_info.value.status == 429
        assert "queue full (1/1 open jobs)" in str(exc_info.value)
        assert exc_info.value.retry_after_s == 1.0
        assert service.metrics.counters["admission_rejected"].value == 1
        service.close()

    def test_open_breaker_raises_503_but_reads_still_work(self):
        breaker = CircuitBreaker(threshold=1, cooldown_s=60.0)
        service = SweepService(
            backend="inline", store=False, breaker=breaker, start_workers=False
        )
        job = service.submit([_cell()], {})
        breaker.record_crash()
        with pytest.raises(ServiceBusyError) as exc_info:
            service.submit([_cell("unsafe")], {})
        assert exc_info.value.status == 503
        assert "degraded" in str(exc_info.value)
        # Degraded is read-only, not dead: lookups still answer.
        assert service.get(job.job_id) is job
        assert service.health()["breaker"] == "open"
        service.close()

    def test_http_429_carries_retry_after_and_client_waits_it_out(
        self, monkeypatch, fast_retries
    ):
        monkeypatch.setenv("REPRO_STORE", "off")
        gate = threading.Event()
        real = api_mod.run_suite

        def gated(*args, **kwargs):
            gate.wait(30)
            return real(*args, **kwargs)

        monkeypatch.setattr(api_mod, "run_suite", gated)
        service = SweepService(
            jobs=1, backend="inline", store=False, max_queued=1
        )
        with serve(service) as url:
            first = submit_suite(
                [RunRequest("spec2017/mcf", "stt", 300)], url=url
            )
            status, headers, body = _raw(
                f"{url}/v1/suites",
                method="POST",
                payload={"requests": [_cell("unsafe")]},
            )
            assert status == 429
            assert headers["retry-after"] == "1.0"
            assert "queue full" in body["error"]
            # submit_suite retries 429s transparently: free the queue
            # shortly and the same call succeeds without caller logic.
            threading.Timer(0.3, gate.set).start()
            second = submit_suite(
                [RunRequest("spec2017/mcf", "unsafe", 300)],
                url=url,
                busy_wait_s=30.0,
            )
            assert second != first
            assert result(second, url=url, timeout_s=120).records

    def test_busy_wait_zero_surfaces_the_429(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "off")
        service = SweepService(
            backend="inline", store=False, max_queued=1, start_workers=False
        )
        with serve(service) as url:
            submit_suite(
                [RunRequest("spec2017/mcf", "stt", 300)],
                url=url,
                busy_wait_s=0.0,
            )
            with pytest.raises(RuntimeError, match="queue full"):
                submit_suite(
                    [RunRequest("spec2017/mcf", "unsafe", 300)],
                    url=url,
                    busy_wait_s=0.0,
                )


class TestIdempotency:
    def test_same_key_returns_same_job(self):
        service = SweepService(
            backend="inline", store=False, start_workers=False
        )
        job, replayed = service.submit_job([_cell()], {}, idempotency_key="k1")
        again, replayed_again = service.submit_job(
            [_cell()], {}, idempotency_key="k1"
        )
        assert not replayed and replayed_again
        assert again is job
        assert (
            service.metrics.counters["admission_idempotent_replays"].value == 1
        )
        service.close()

    def test_replay_wins_over_admission_control(self):
        """A lost-response retry must succeed even when the queue is full."""
        service = SweepService(
            backend="inline", store=False, max_queued=1, start_workers=False
        )
        job, _ = service.submit_job([_cell()], {}, idempotency_key="k1")
        again, replayed = service.submit_job(
            [_cell()], {}, idempotency_key="k1"
        )
        assert replayed and again is job
        service.close()

    def test_http_replay_returns_200_with_same_job(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "off")
        service = SweepService(jobs=1, backend="inline", store=False)
        with serve(service) as url:
            payload = {"requests": [_cell()], "idempotency_key": "pin-1"}
            status, _, first = _raw(
                f"{url}/v1/suites", method="POST", payload=payload
            )
            assert status == 202
            assert first.get("replayed") is False
            status, _, second = _raw(
                f"{url}/v1/suites", method="POST", payload=payload
            )
            assert status == 200
            assert second["job"] == first["job"]
            assert second["replayed"] is True

    def test_client_pins_key_across_transparent_retries(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "off")
        service = SweepService(jobs=1, backend="inline", store=False)
        with serve(service) as url:
            requests = [RunRequest("spec2017/mcf", "stt", 300)]
            first = submit_suite(requests, url=url, idempotency_key="pin-2")
            second = submit_suite(requests, url=url, idempotency_key="pin-2")
            assert first == second


class TestAuth:
    @pytest.fixture
    def secured(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "off")
        monkeypatch.delenv("REPRO_SERVE_TOKEN", raising=False)
        service = SweepService(jobs=1, backend="inline", store=False,
                               token="s3cret")
        with serve(service) as url:
            yield url, service

    def test_missing_or_wrong_token_is_401(self, secured):
        url, service = secured
        status, _, body = _raw(f"{url}/v1/jobs")
        assert status == 401 and "bearer token" in body["error"]
        status, _, _ = _raw(
            f"{url}/v1/jobs", headers={"Authorization": "Bearer nope"}
        )
        assert status == 401
        assert service.metrics.counters["service_auth_rejected"].value == 2
        with pytest.raises(RuntimeError, match="bearer token"):
            poll("job-0001", url=url)

    def test_correct_token_roundtrip(self, secured):
        url, _ = secured
        requests = [RunRequest("spec2017/mcf", "stt", 300)]
        job = submit_suite(requests, url=url, token="s3cret")
        suite = result(job, url=url, token="s3cret", timeout_s=120)
        assert len(suite.records) == 1

    def test_env_token_fallback(self, secured, monkeypatch):
        url, _ = secured
        monkeypatch.setenv("REPRO_SERVE_TOKEN", "s3cret")
        job = submit_suite([RunRequest("spec2017/mcf", "stt", 300)], url=url)
        assert poll(job, url=url)["status"] in ("queued", "running", "done")

    def test_health_probes_are_exempt(self, secured):
        url, _ = secured
        for path in ("/healthz", "/readyz", "/v1/health"):
            status, _, _ = _raw(f"{url}{path}")
            assert status == 200, path


class TestHealthAndReadiness:
    def test_healthz_and_readyz_when_healthy(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "off")
        service = SweepService(jobs=1, backend="inline", store=False)
        with serve(service) as url:
            status, _, body = _raw(f"{url}/healthz")
            assert status == 200 and body["status"] == "ok"
            status, _, body = _raw(f"{url}/readyz")
            assert status == 200 and body["status"] == "ready"
            assert body["workers_alive"] is True

    def test_readyz_503_when_breaker_open(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "off")
        breaker = CircuitBreaker(threshold=1, cooldown_s=60.0)
        service = SweepService(
            jobs=1, backend="inline", store=False, breaker=breaker
        )
        with serve(service) as url:
            breaker.record_crash()
            status, headers, body = _raw(f"{url}/readyz")
            assert status == 503
            assert headers["retry-after"] == "1"
            assert body["breaker"] == "open"
            # Liveness is unchanged; reads are served in degraded mode.
            assert _raw(f"{url}/healthz")[0] == 200
            assert _raw(f"{url}/v1/jobs")[0] == 200

    def test_metrics_endpoint_exposes_service_counters(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "off")
        service = SweepService(jobs=1, backend="inline", store=False)
        with serve(service) as url:
            job = submit_suite([RunRequest("spec2017/mcf", "stt", 300)],
                               url=url)
            result(job, url=url, timeout_s=120)
            status, _, body = _raw(f"{url}/v1/metrics")
            assert status == 200
            counters = body["counters"]
            assert counters["admission_accepted"] == 1
            assert counters["service_cells_completed"] == 1


class CannedServer:
    """A TCP server that plays one scripted response per connection.

    Each script receives the connected socket after the full request has
    been read; when the scripts run out the listener closes, so later
    attempts see connection-refused (also a transport fault).
    """

    def __init__(self, scripts):
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.port = self._listener.getsockname()[1]
        self.url = f"http://127.0.0.1:{self.port}"
        #: (monotonic arrival time, request line) of every request.
        self.requests = []
        self._thread = threading.Thread(
            target=self._serve, args=(list(scripts),), daemon=True
        )
        self._thread.start()

    def _serve(self, scripts):
        for script in scripts:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            try:
                head = _drain_request(conn)
                line = head.split(b"\r\n", 1)[0].decode("latin-1")
                self.requests.append((time.monotonic(), line))
                script(conn)
            except OSError:
                pass
            finally:
                try:
                    conn.close()
                except OSError:
                    pass
        self._listener.close()


def _drain_request(conn):
    conn.settimeout(5)
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(4096)
        if not chunk:
            return data
        data += chunk
    return data


def _http_response(payload, *, truncate=False, status="200 OK"):
    body = json.dumps(payload).encode("utf-8")
    head = (
        f"HTTP/1.1 {status}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode("latin-1")
    return head + (body[: len(body) // 2] if truncate else body)


def _send_ok(payload):
    def script(conn):
        conn.sendall(_http_response(payload))

    return script


def _send_truncated(payload):
    def script(conn):
        conn.sendall(_http_response(payload, truncate=True))

    return script


def _send_status(status, payload):
    def script(conn):
        conn.sendall(_http_response(payload, status=status))

    return script


def _drop(conn):
    pass  # close without a single response byte


def _stall(conn):
    time.sleep(1.5)  # longer than the client's socket timeout


class TestClientTransportResilience:
    def test_connection_refused_raises_typed_error(self, fast_retries):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        url = f"http://127.0.0.1:{port}"
        with pytest.raises(ServiceUnavailableError) as exc_info:
            poll("job-0001", url=url)
        error = exc_info.value
        assert error.attempts == 5  # 1 try + 4 retries
        assert error.url.startswith(url)
        assert "repro serve" in str(error)

    def test_truncated_response_is_retried(self, fast_retries):
        done = {"status": "done", "records": 3, "failures": 0}
        server = CannedServer([_send_truncated(done), _send_ok(done)])
        assert poll("job-0001", url=server.url) == done

    def test_dropped_connection_is_retried(self, fast_retries):
        done = {"status": "done", "records": 1, "failures": 0}
        server = CannedServer([_drop, _drop, _send_ok(done)])
        assert poll("job-0001", url=server.url) == done

    def test_slow_loris_hits_socket_timeout_then_fails_typed(
        self, fast_retries
    ):
        server = CannedServer([_stall])
        with pytest.raises(ServiceUnavailableError):
            poll("job-0001", url=server.url, timeout_s=0.2)

    def test_truncated_submit_replays_idempotently(
        self, monkeypatch, fast_retries
    ):
        """A submit whose 202 is lost on the wire must not double-enqueue."""
        monkeypatch.setenv("REPRO_STORE", "off")
        service = SweepService(
            backend="inline", store=False, start_workers=False
        )
        # chaos: truncate exactly the first /v1/suites response.
        original = service._apply_response_chaos
        state = {"seen": 0}

        def truncate_first(writer, method, route):
            if route == "/v1/suites":
                state["seen"] += 1
                if state["seen"] == 1:
                    writer._repro_chaos = ("truncate", 0.0)
                    return True
            return original(writer, method, route)

        service._apply_response_chaos = truncate_first
        with serve(service) as url:
            job = submit_suite(
                [RunRequest("spec2017/mcf", "stt", 300)], url=url
            )
            assert state["seen"] >= 2  # the retry really happened
            assert [j["job"] for j in service.list_jobs()] == [job]


class TestServiceChaos:
    def test_parse_round_trip(self):
        config = parse_service_chaos(
            "seed=7,drop=0.1,truncate=0.2,slow=0.3,slow_s=0.05,"
            "kill_after_cells=4"
        )
        assert config == ServiceChaosConfig(
            seed=7, drop=0.1, truncate=0.2, slow=0.3, slow_s=0.05,
            kill_after_cells=4,
        )
        assert config.active()
        assert not ServiceChaosConfig().active()

    def test_parse_rejects_unknown_field(self):
        with pytest.raises(ValueError):
            parse_service_chaos("seed=1,sabotage=1.0")

    def test_decide_response_is_deterministic(self):
        config = ServiceChaosConfig(seed=3, drop=0.3, truncate=0.3)
        tokens = [f"GET:/v1/jobs:{i}" for i in range(64)]
        first = [config.decide_response(t) for t in tokens]
        second = [config.decide_response(t) for t in tokens]
        assert first == second
        assert {"drop", "truncate"} <= set(k for k in first if k)

    def test_drop_chaos_spares_health_probes(self, monkeypatch, fast_retries):
        monkeypatch.setenv("REPRO_STORE", "off")
        service = SweepService(
            jobs=1, backend="inline", store=False,
            chaos="seed=1,drop=1.0", start_workers=False,
        )
        with serve(service) as url:
            assert _raw(f"{url}/healthz")[0] == 200  # exempt, always
            with pytest.raises(ServiceUnavailableError):
                poll("job-0001", url=url)
            assert service.metrics.counters["service_chaos_drop"].value >= 1

    def test_slow_chaos_streams_complete_responses(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "off")
        service = SweepService(
            jobs=1, backend="inline", store=False,
            chaos="seed=1,slow=1.0,slow_s=0.01",
        )
        with serve(service) as url:
            job = submit_suite([RunRequest("spec2017/mcf", "stt", 300)],
                               url=url)
            suite = result(job, url=url, timeout_s=120)
            assert len(suite.records) == 1
            assert service.metrics.counters["service_chaos_slow"].value >= 1


def _gate_cells(monkeypatch, *, fail=False):
    """Hold every service cell until the returned event is set."""
    gate = threading.Event()
    real = api_mod.run_suite

    def gated(*args, **kwargs):
        assert gate.wait(30), "gate never opened"
        if fail:
            raise RuntimeError("cell failed on purpose")
        return real(*args, **kwargs)

    monkeypatch.setattr(api_mod, "run_suite", gated)
    return gate


def _timed_result(url, job_id, query):
    t0 = time.monotonic()
    status, _, body = _raw(f"{url}/v1/jobs/{job_id}/result{query}", timeout=30)
    return status, body, time.monotonic() - t0


class TestLongPollResult:
    """``/result?wait=S`` holds the request instead of the client polling."""

    @pytest.fixture
    def inline(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "off")

        def make(**kwargs):
            return SweepService(jobs=1, backend="inline", store=False, **kwargs)

        return make

    @pytest.mark.parametrize("fail", [False, True])
    def test_held_request_returns_when_the_job_ends(
        self, inline, monkeypatch, fail
    ):
        gate = _gate_cells(monkeypatch, fail=fail)
        service = inline()
        with serve(service) as url:
            job, _ = service.submit_job([_cell()], {})
            opener = threading.Timer(0.3, gate.set)
            opener.start()
            status, body, elapsed = _timed_result(url, job.job_id, "?wait=15")
            opener.join()
        # Held until the cell ran, answered long before the hold ran out.
        assert 0.2 <= elapsed < 10
        if fail:
            assert status == 500 and "on purpose" in body["error"]
        else:
            assert status == 200 and len(body["records"]) == 1

    def test_expired_hold_answers_409_waited(self, inline):
        service = inline(start_workers=False)
        with serve(service) as url:
            job, _ = service.submit_job([_cell()], {})
            status, body, elapsed = _timed_result(url, job.job_id, "?wait=0.3")
        assert status == 409 and body["waited"] is True
        assert body["status"] == "queued"
        assert 0.25 <= elapsed < 5

    def test_hold_is_capped(self, inline, monkeypatch):
        import repro.sim.service as service_mod

        monkeypatch.setattr(service_mod, "RESULT_WAIT_CAP_S", 0.2)
        service = inline(start_workers=False)
        with serve(service) as url:
            job, _ = service.submit_job([_cell()], {})
            status, body, elapsed = _timed_result(url, job.job_id, "?wait=1000")
        assert status == 409 and body["waited"] is True
        assert elapsed < 5

    def test_no_wait_answers_409_at_once(self, inline):
        service = inline(start_workers=False)
        with serve(service) as url:
            job, _ = service.submit_job([_cell()], {})
            for query in ("", "?wait=0", "?wait=junk"):
                status, body, elapsed = _timed_result(url, job.job_id, query)
                assert status == 409 and "waited" not in body
                assert elapsed < 2

    def test_client_does_not_sleep_after_a_hold(self, inline, monkeypatch):
        monkeypatch.setattr(api_mod, "_RESULT_HOLD_S", 0.1)
        gate = _gate_cells(monkeypatch)
        service = inline()
        with serve(service) as url:
            job = submit_suite([RunRequest("spec2017/mcf", "stt", 300)], url=url)
            opener = threading.Timer(0.5, gate.set)
            opener.start()
            t0 = time.monotonic()
            # Several expired holds, and none followed by a 60 s sleep.
            suite = result(job, url=url, interval_s=60, timeout_s=120)
            opener.join()
        assert len(suite.records) == 1
        assert time.monotonic() - t0 < 30

    def test_client_polls_a_server_that_ignores_wait(self, fast_retries):
        running = {"job": "job-0001", "status": "running",
                   "error": "job not finished"}
        failed = {"job": "job-0001", "error": "boom"}
        server = CannedServer([
            _send_status("409 Conflict", running),
            _send_status("409 Conflict", running),
            _send_status("500 Internal Server Error", failed),
        ])
        with pytest.raises(RuntimeError, match="boom"):
            result("job-0001", url=server.url, interval_s=0.3, timeout_s=60)
        times = [at for at, _ in server.requests]
        lines = [line for _, line in server.requests]
        assert len(lines) == 3
        assert all("/v1/jobs/job-0001/result?wait=" in line for line in lines)
        # No hold, so the client slept interval_s between polls.
        assert all(b - a >= 0.3 for a, b in zip(times, times[1:]))

    def test_chaos_truncated_held_response_is_retried(
        self, inline, monkeypatch, fast_retries
    ):
        gate = _gate_cells(monkeypatch)
        service = inline()
        original = service._apply_response_chaos
        seen = []

        def truncate_first_result(writer, method, route):
            if route.endswith("/result"):
                seen.append(route)
                if len(seen) == 1:
                    writer._repro_chaos = ("truncate", 0.0)
                    return True
            return original(writer, method, route)

        service._apply_response_chaos = truncate_first_result
        with serve(service) as url:
            job = submit_suite([RunRequest("spec2017/mcf", "stt", 300)], url=url)
            opener = threading.Timer(0.3, gate.set)
            opener.start()
            suite = result(job, url=url, interval_s=60, timeout_s=120)
            opener.join()
        assert len(suite.records) == 1
        assert len(seen) >= 2  # the held, truncated answer was retried

    def test_close_releases_held_requests(self, inline):
        service = inline(start_workers=False)
        with serve(service) as url:
            job, _ = service.submit_job([_cell()], {})
            closer = threading.Timer(0.3, service.close)
            closer.start()
            status, body, elapsed = _timed_result(url, job.job_id, "?wait=15")
            closer.join()
            # A stopping service holds nothing new.
            again = _timed_result(url, job.job_id, "?wait=15")
        assert status == 409 and body["waited"] is True
        assert 0.2 <= elapsed < 10
        assert again[0] == 409 and "waited" not in again[1] and again[2] < 2
