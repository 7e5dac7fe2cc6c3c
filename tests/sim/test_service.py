"""Tests for the async sweep service and its repro.api HTTP client.

Each test boots a real asyncio HTTP server on an ephemeral port in a
daemon thread and drives it through the public client helpers
(``submit_suite`` / ``poll`` / ``result``), so the wire format is
exercised end to end.
"""

import asyncio
import contextlib
import json
import threading
import urllib.error
import urllib.request

import pytest

pytestmark = pytest.mark.service

from repro.api import RunRequest, poll, result, submit_suite
from repro.sim.engine import SuiteResult
from repro.sim.service import SweepService, _serve_async
from tests.helpers import process_alive


@contextlib.contextmanager
def _running(service):
    """Serve an already-built service; yields its base URL."""
    ready = threading.Event()
    bound = []
    loop_holder = {}

    def run():
        loop = asyncio.new_event_loop()
        loop_holder["loop"] = loop
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
        loop = loop_holder.get("loop")
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(
                lambda: [task.cancel() for task in asyncio.all_tasks(loop)]
            )
        service.close()


@pytest.fixture
def server(monkeypatch):
    """A running sweep service; yields its base URL."""
    monkeypatch.setenv("REPRO_STORE", "off")
    service = SweepService(jobs=1, backend="inline", store=False)
    ready = threading.Event()
    bound = []
    loop_holder = {}

    def run():
        loop = asyncio.new_event_loop()
        loop_holder["loop"] = loop
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
    yield f"http://{host}:{port}"
    loop = loop_holder.get("loop")
    if loop is not None and loop.is_running():
        loop.call_soon_threadsafe(
            lambda: [task.cancel() for task in asyncio.all_tasks(loop)]
        )
    service.close()


def _requests():
    return [
        RunRequest("spec2017/mcf", scheme, 300)
        for scheme in ("unsafe", "stt", "stt+recon")
    ]


class TestRoundTrip:
    def test_submit_poll_result(self, server):
        job = submit_suite(_requests(), url=server)
        assert job.startswith("job-")
        suite = result(job, url=server, timeout_s=120)
        assert isinstance(suite, SuiteResult)
        assert len(suite.records) == 3
        assert not suite.failures
        # The wire payload is the canonical SuiteResult JSON: it must
        # survive a local re-serialization round trip bit-identically.
        again = SuiteResult.from_json(suite.to_json())
        assert {k: v.cycles for k, v in again.items()} == {
            k: v.cycles for k, v in suite.items()
        }
        status = poll(job, url=server)
        assert status["status"] == "done"
        assert status["records"] == 3
        assert status["failures"] == 0

    def test_supervised_submit(self, server):
        job = submit_suite(
            _requests()[:2], url=server, supervise=True, backend="threads"
        )
        suite = result(job, url=server, timeout_s=120)
        assert len(suite.records) == 2

    def test_events_stream_is_ndjson(self, server):
        job = submit_suite(_requests(), url=server)
        result(job, url=server, timeout_s=120)  # wait for completion
        with urllib.request.urlopen(
            f"{server}/v1/jobs/{job}/events", timeout=30
        ) as response:
            assert response.headers["Content-Type"] == "application/x-ndjson"
            events = [
                json.loads(line)
                for line in response.read().decode("utf-8").splitlines()
            ]
        kinds = [event["type"] for event in events]
        assert kinds.count("record") == 3
        assert kinds[-1] == "status"
        assert events[-1]["status"] == "done"
        assert [event["seq"] for event in events] == list(range(len(events)))
        # Record events carry the engine record fields.
        record = next(e for e in events if e["type"] == "record")["record"]
        assert {"bench", "scheme", "wall_time_s"} <= set(record)


class TestJobStates:
    def test_result_conflict_while_running(self, server, monkeypatch):
        import repro.api as api_mod

        gate = threading.Event()
        real = api_mod.run_suite

        def gated(*args, **kwargs):
            gate.wait(30)
            return real(*args, **kwargs)

        monkeypatch.setattr(api_mod, "run_suite", gated)
        job = submit_suite(_requests()[:1], url=server)
        with pytest.raises(RuntimeError, match="not ready"):
            result(job, url=server, wait=False)
        assert poll(job, url=server)["status"] in ("queued", "running")
        gate.set()
        suite = result(job, url=server, timeout_s=120)
        assert len(suite.records) == 1

    def test_failed_job_reports_error(self, server, monkeypatch):
        import repro.api as api_mod

        def boom(*args, **kwargs):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(api_mod, "run_suite", boom)
        job = submit_suite(_requests()[:1], url=server)
        with pytest.raises(RuntimeError, match="engine exploded"):
            result(job, url=server, timeout_s=30)
        assert poll(job, url=server)["status"] == "failed"


class TestValidation:
    def test_unknown_benchmark_is_rejected_at_submit(self, server):
        with pytest.raises(RuntimeError, match="unknown benchmark"):
            submit_suite(
                [RunRequest("spec2017/not-a-bench", "stt", 300)], url=server
            )

    def test_unknown_backend_is_rejected_at_submit(self, server):
        with pytest.raises(RuntimeError, match="unknown backend"):
            submit_suite(_requests()[:1], url=server, backend="abacus")

    def test_empty_requests_rejected(self, server):
        with pytest.raises(RuntimeError, match="non-empty"):
            submit_suite([], url=server)

    def test_config_does_not_serialize(self, server):
        from repro.sim.config import RunConfig

        with pytest.raises(ValueError, match="cannot be sent over HTTP"):
            submit_suite(
                [RunRequest("spec2017/mcf", "stt", 300, config=RunConfig())],
                url=server,
            )

    def test_unknown_job_404(self, server):
        with pytest.raises(RuntimeError, match="no such job"):
            poll("job-9999", url=server)

    def test_unknown_path_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(f"{server}/v2/nothing", timeout=10)
        assert exc_info.value.code == 404

    def test_health(self, server):
        with urllib.request.urlopen(f"{server}/v1/health", timeout=10) as resp:
            payload = json.loads(resp.read())
        assert payload["status"] == "ok"


def _events(url, job, since=None):
    query = f"?since={since}" if since is not None else ""
    with urllib.request.urlopen(
        f"{url}/v1/jobs/{job}/events{query}", timeout=30
    ) as response:
        return [
            json.loads(line)
            for line in response.read().decode("utf-8").splitlines()
        ]


class TestEventStreamEdges:
    """NDJSON streaming around the bounded ring: wraparound, reconnect,
    and late subscribers on an already-finished job."""

    @pytest.fixture
    def wrapped(self, monkeypatch):
        """A finished 12-cell job on a service whose ring holds only 8.

        13 events (12 records + terminal status) through a ring of 8
        drops the oldest 5, so a from-zero subscriber must see a gap.
        """
        monkeypatch.setenv("REPRO_STORE", "off")
        service = SweepService(
            jobs=1, backend="inline", store=False, event_buffer=8
        )
        schemes = ("unsafe", "stt", "stt+recon")
        requests = [
            RunRequest("spec2017/mcf", schemes[i % 3], 300) for i in range(12)
        ]
        with _running(service) as url:
            job = submit_suite(requests, url=url)
            result(job, url=url, timeout_s=120)
            yield url, job, service

    def test_wraparound_emits_gap_not_silence(self, wrapped):
        url, job, service = wrapped
        assert service.get(job).dropped_events == 5
        events = _events(url, job)
        assert events[0] == {"type": "gap", "missing": 5, "resume_seq": 5}
        tail = events[1:]
        assert [e["seq"] for e in tail] == list(range(5, 13))
        assert tail[-1]["type"] == "status"

    def test_reconnect_with_since_resumes_without_gap(self, wrapped):
        url, job, _ = wrapped
        # A client that saw seq 0..6 before its connection dropped
        # reconnects with ?since=7: everything it asks for is still in
        # the ring, so no gap notice and no duplicates.
        events = _events(url, job, since=7)
        assert [e["seq"] for e in events] == list(range(7, 13))
        assert all(e["type"] != "gap" for e in events)

    def test_since_past_the_end_yields_empty_stream(self, wrapped):
        url, job, _ = wrapped
        assert _events(url, job, since=13) == []

    def test_full_ring_streams_without_gap(self, server):
        # 3 records + status fit in the default ring: no gap, all seqs.
        job = submit_suite(_requests(), url=server)
        result(job, url=server, timeout_s=120)
        early = _events(server, job)
        again = _events(server, job)
        assert early == again  # a finished job's stream is replayable
        assert [e["type"] for e in early].count("gap") == 0

    def test_mid_stream_reconnect_while_running(self, server, monkeypatch):
        import repro.api as api_mod

        gate = threading.Event()
        real = api_mod.run_suite
        calls = {"n": 0}

        def gated(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 1:  # first cell free, rest wait on the gate
                gate.wait(30)
            return real(*args, **kwargs)

        monkeypatch.setattr(api_mod, "run_suite", gated)
        job = submit_suite(_requests(), url=server)
        deadline = 100
        while calls["n"] < 1 and deadline:
            threading.Event().wait(0.05)
            deadline -= 1
        # First connection: the events published so far (no terminal
        # status yet — the job is still running behind the gate).
        partial = poll(job, url=server)
        assert partial["status"] in ("queued", "running")
        gate.set()
        result(job, url=server, timeout_s=120)
        # Reconnect after the "drop": the stream picks up at the cursor.
        head = _events(server, job)
        resumed = _events(server, job, since=head[1]["seq"])
        assert [e["seq"] for e in resumed] == [
            e["seq"] for e in head[1:]
        ]
        assert resumed[-1]["type"] == "status"


def _record_worker_pids(monkeypatch):
    """The worker pid of every task a ``ProcessBackend`` settles."""
    from repro.sim.backends.process import ProcessBackend

    pids = []
    real_poll = ProcessBackend.poll

    def recording_poll(backend, timeout=None):
        settled = real_poll(backend, timeout)
        pids.extend(handle.outcome()[3] for handle in settled)
        return settled

    monkeypatch.setattr(ProcessBackend, "poll", recording_poll)
    return pids


def _serve_cells(service, suites, options=None):
    """Submit one job per suite of cells, wait for all, close."""
    try:
        jobs = [
            service.submit(
                [
                    {"benchmark": bench, "scheme": scheme, "length": n}
                    for bench, scheme, n in cells
                ],
                dict(options or {}),
            )
            for cells in suites
        ]
        for _ in range(1200):
            if all(job.done for job in jobs):
                break
            threading.Event().wait(0.05)
    finally:
        service.close()
    return jobs


class TestHeldProcessBackend:
    """Each worker thread reuses one process pool across cells."""

    def test_cells_share_worker_processes(self, monkeypatch):
        from repro.api import run_suite

        monkeypatch.setenv("REPRO_STORE", "off")
        pids = _record_worker_pids(monkeypatch)
        suites = [
            [("spec2017/mcf", s, 300) for s in ("unsafe", "stt", "stt+recon")],
            [("spec2017/gcc", s, 320) for s in ("unsafe", "nda", "nda+recon")],
        ]
        jobs = _serve_cells(
            SweepService(backend="process", store=False, max_concurrent=2),
            suites,
        )
        assert [job.status for job in jobs] == ["done", "done"]
        assert len(pids) == 6
        assert len(set(pids)) <= 2
        for job, cells in zip(jobs, suites):
            served = json.loads(job.result_json)
            inline = json.loads(
                run_suite(
                    [RunRequest(*cell) for cell in cells],
                    store=False,
                    backend="inline",
                ).to_json()
            )
            assert sorted(
                served["results"], key=lambda c: (c["bench"], c["scheme"])
            ) == sorted(
                inline["results"], key=lambda c: (c["bench"], c["scheme"])
            )
        assert not [pid for pid in set(pids) if process_alive(pid)]

    @pytest.mark.parametrize(
        "jobs, env", [(2, None), (1, "process")], ids=["jobs", "env"]
    )
    def test_default_process_backend_holds_the_pool(
        self, monkeypatch, jobs, env
    ):
        # The process backend chosen by --jobs or REPRO_BACKEND, not by
        # name, still runs on the held pool.
        monkeypatch.setenv("REPRO_STORE", "off")
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        if env is None:
            monkeypatch.delenv("REPRO_BACKEND", raising=False)
        else:
            monkeypatch.setenv("REPRO_BACKEND", env)
        pids = _record_worker_pids(monkeypatch)
        cells = [("spec2017/mcf", s, 300) for s in ("unsafe", "stt", "nda")]
        (job,) = _serve_cells(SweepService(jobs=jobs, store=False), [cells])
        assert job.status == "done"
        assert len(pids) == 3
        assert len(set(pids)) == 1
        assert not process_alive(pids[0])


class TestFinishedJobs:
    def test_finished_job_keeps_no_parts(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "off")
        service = SweepService(jobs=1, backend="inline", store=False)
        with _running(service) as url:
            job = submit_suite(_requests(), url=url)
            suite = result(job, url=url, timeout_s=120)
            assert service.get(job).parts == []
            # /result serves the merged grid from the job's JSON alone.
            again = result(job, url=url, timeout_s=30)
        assert len(suite) == len(again) == 3
        assert len(suite.records) == 3


class TestDurableOutcome:
    """A job gets the same outcome with or without a state directory."""

    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "state_dir"])
    @pytest.mark.parametrize(
        "supervise, status, failures",
        [(False, "failed", None), (True, "done", 1)],
        ids=["unsupervised", "supervised"],
    )
    def test_failing_cell(
        self, monkeypatch, tmp_path, durable, supervise, status, failures
    ):
        import repro.sim.backends.base as base_mod

        def oom(spec, cache=None):
            raise MemoryError("injected")

        monkeypatch.setenv("REPRO_STORE", "off")
        monkeypatch.setattr(base_mod, "execute_run", oom)
        service = SweepService(
            jobs=1,
            backend="inline",
            store=False,
            state_dir=tmp_path / "state" if durable else None,
        )
        (job,) = _serve_cells(
            service,
            [[("spec2017/mcf", "unsafe", 300)]],
            {"supervise": True} if supervise else {},
        )
        assert job.status == status
        if failures is None:
            assert "MemoryError" in job.error
        else:
            served = json.loads(job.result_json)
            assert len(served["failures"]) == failures
            assert served["failures"][0]["error_type"] == "MemoryError"
