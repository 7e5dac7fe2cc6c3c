"""Tests for the pluggable execution-backend seam.

Parity tests run the same specs through every backend and demand
bit-identical simulation results — the simulation outcome is a pure
function of the RunSpec, so only wall-clock bookkeeping may differ.
Queue tests spawn real detached worker processes; lengths are kept tiny
so each run is milliseconds of simulation.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.common import SchemeKind
from repro.sim import RunConfig
from repro.sim.backends import (
    BACKEND_NAMES,
    CorruptResultError,
    InlineBackend,
    ProcessBackend,
    QueueBackend,
    TaskFailedError,
    TaskTimeout,
    ThreadBackend,
    WorkerDeath,
    resolve_backend,
)
from repro.sim.backends.base import (
    TaskHandle,
    default_backend_name,
    execute_run,
    parse_envelope,
)
from repro.sim.chaos import CORRUPT_PAYLOAD, ChaosConfig
from repro.sim.engine import RunSpec, run_specs
from repro.sim.store import ResultStore
from repro.sim.supervisor import FaultPolicy, SuiteJournal, Supervisor
from repro.workloads import get_benchmark
from tests.helpers import process_alive

LENGTH = 400
SCHEMES = (SchemeKind.UNSAFE, SchemeKind.STT)


def _specs(config=None, names=("mcf", "gcc")):
    config = config or RunConfig()
    return [
        RunSpec.build(get_benchmark("spec2017", name), scheme, LENGTH, config)
        for name in names
        for scheme in SCHEMES
    ]


class TestSeam:
    def test_backend_names(self):
        assert BACKEND_NAMES == ("inline", "threads", "process", "queue")

    def test_default_backend_tracks_jobs(self):
        assert default_backend_name(1) == "inline"
        assert default_backend_name(4) == "process"

    def test_resolve_by_name(self):
        backend, owned = resolve_backend("threads", workers=2)
        assert isinstance(backend, ThreadBackend)
        assert owned

    def test_resolve_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "threads")
        backend, owned = resolve_backend(None, jobs=1)
        assert isinstance(backend, ThreadBackend)
        assert owned

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "threads")
        backend, _ = resolve_backend("inline", jobs=4)
        assert isinstance(backend, InlineBackend)

    def test_instance_passthrough_is_not_owned(self):
        instance = InlineBackend()
        backend, owned = resolve_backend(instance)
        assert backend is instance
        assert not owned

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            resolve_backend("carrier-pigeon")

    def test_handle_settles_exactly_once(self):
        spec = _specs()[0]
        handle = TaskHandle(spec=spec, attempt=0, token=1)
        handle.settle_payload(("ok", None, 0.0, 0))
        with pytest.raises(RuntimeError):
            handle.settle_payload(("ok", None, 0.0, 0))
        with pytest.raises(RuntimeError):
            handle.settle_error(WorkerDeath("late"))

    def test_parse_envelope_rejects_corruption(self):
        with pytest.raises(CorruptResultError):
            parse_envelope(CORRUPT_PAYLOAD)
        with pytest.raises(CorruptResultError):
            parse_envelope(("weird", 1, 2))
        with pytest.raises(CorruptResultError):
            parse_envelope(None)


class TestParity:
    """Every backend must reproduce the inline backend's grid exactly."""

    @pytest.fixture(scope="class")
    def reference(self):
        results, _ = run_specs(_specs(), jobs=1, backend="inline")
        return results

    @pytest.mark.parametrize("name", ["threads", "process", "queue"])
    def test_backend_matches_inline(self, name, reference):
        results, suite = run_specs(_specs(), jobs=2, backend=name)
        assert len(results) == len(reference)
        for ours, theirs in zip(results, reference):
            assert ours.cycles == theirs.cycles
            assert ours.stats.as_dict() == theirs.stats.as_dict()
        assert len(suite.records) == len(reference)
        assert all(record.wall_time_s >= 0.0 for record in suite.records)

    def test_supervised_queue_matches_inline(self, reference, tmp_path):
        supervisor = Supervisor(
            FaultPolicy(),
            jobs=2,
            store=ResultStore(tmp_path / "store"),
            backend="queue",
        )
        results, records, failures = supervisor.execute(_specs())
        assert not failures
        for ours, theirs in zip(results, reference):
            assert ours.cycles == theirs.cycles
            assert ours.stats.as_dict() == theirs.stats.as_dict()


class TestBackendHealth:
    def test_inline_health(self):
        with InlineBackend() as backend:
            health = backend.health()
        assert health.name == "inline"
        assert health.workers == 1
        assert health.as_dict()["alive_workers"] == 1

    def test_queue_health_counts_live_workers(self):
        backend = QueueBackend(workers=2)
        backend.start()
        try:
            health = backend.health()
            assert health.name == "queue"
            assert health.workers == 2
        finally:
            backend.shutdown(wait=False)

    def test_engine_env_backend_selection(self, monkeypatch):
        # REPRO_BACKEND forces even single-job suites off the fast path.
        monkeypatch.setenv("REPRO_BACKEND", "threads")
        results, _ = run_specs(_specs(names=("mcf",)), jobs=1)
        assert all(result is not None for result in results)


class TestQueueChaos:
    """The work-stealing backend must survive worker kills without losing
    or duplicating any run."""

    def test_crash_faults_yield_complete_attributed_outcome(self, tmp_path):
        # seed=0 condemns three (cell, attempt) pairs on attempts 0/1;
        # faulty_attempts=2 leaves attempt 2 clean, so with retries=3
        # every cell must recover despite real worker deaths.
        chaos = ChaosConfig(seed=0, crash=0.35, faulty_attempts=2)
        specs = _specs(RunConfig(chaos=chaos))
        supervisor = Supervisor(
            FaultPolicy(retries=3),
            jobs=2,
            store=ResultStore(tmp_path / "store"),
            backend="queue",
        )
        results, records, failures = supervisor.execute(specs)
        # Zero lost runs: every spec is a result or an attributed failure.
        settled = sum(1 for result in results if result is not None)
        assert settled + len(failures) == len(specs)
        # Zero duplicated runs: one record per succeeding spec.
        assert sum(1 for record in records if record is not None) == settled
        # Transient faults: every cell recovered within its retries.
        assert not failures
        # Workers really died, and the supervisor charged the crashes.
        assert supervisor.fault_counters.get("fault_worker_crashes", 0) > 0

    def test_corrupt_payloads_are_quarantined_not_fatal(self, tmp_path):
        chaos = ChaosConfig(seed=5, corrupt=0.5, faulty_attempts=1)
        specs = _specs(RunConfig(chaos=chaos))
        supervisor = Supervisor(
            FaultPolicy(retries=2),
            jobs=2,
            store=ResultStore(tmp_path / "store"),
            backend="queue",
        )
        results, records, failures = supervisor.execute(specs)
        assert sum(1 for r in results if r is not None) + len(failures) == len(
            specs
        )


class TestEngineFailFast:
    def test_error_envelope_raises_task_failed(self, monkeypatch):
        import repro.sim.backends.base as base_mod

        def oom(spec, cache=None):
            raise MemoryError("injected")

        # Not chaos: a chaos spec would make run_specs supervise.
        monkeypatch.setattr(base_mod, "execute_run", oom)
        with pytest.raises(TaskFailedError, match="MemoryError"):
            run_specs(_specs(names=("mcf",)), jobs=2, backend="threads")


class TestAbandonedThreadPool:
    def test_shutdown_without_wait_starts_no_queued_task(self, monkeypatch):
        import threading

        import repro.sim.backends.local as local_mod

        entered = threading.Event()
        release = threading.Event()
        started = []

        def blocking(spec, attempt=0, cache=None):
            started.append(spec)
            entered.set()
            release.wait(10)
            return ("ok", None, 0.0, 0)

        monkeypatch.setattr(local_mod, "run_task", blocking)
        backend = ThreadBackend(workers=1)
        backend.submit("running")
        backend.submit("queued")
        assert entered.wait(10)
        workers = list(backend._pool._threads)
        backend.shutdown(wait=False)
        release.set()
        for worker in workers:
            worker.join(10)
            assert not worker.is_alive()
        assert started == ["running"]


class TestKeyboardInterrupt:
    def test_engine_interrupt_tears_down_owned_backend(self, monkeypatch):
        import repro.sim.backends.local as local_mod

        real = local_mod.run_task
        calls = {"n": 0}

        def flaky(spec, attempt=0, cache=None, reraise=()):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt
            return real(spec, attempt, cache=cache, reraise=reraise)

        monkeypatch.setattr(local_mod, "run_task", flaky)
        with pytest.raises(KeyboardInterrupt):
            run_specs(_specs(), jobs=1, backend="inline")

    def test_supervisor_interrupt_leaves_resumable_journal(
        self, tmp_path, monkeypatch
    ):
        import repro.sim.backends.local as local_mod

        specs = _specs()
        journal = SuiteJournal(tmp_path / "journal.jsonl")
        store = ResultStore(tmp_path / "store")
        real = local_mod.run_task
        calls = {"n": 0}

        def flaky(spec, attempt=0, cache=None, reraise=()):
            calls["n"] += 1
            if calls["n"] == 3:
                raise KeyboardInterrupt
            return real(spec, attempt, cache=cache, reraise=reraise)

        monkeypatch.setattr(local_mod, "run_task", flaky)
        supervisor = Supervisor(
            FaultPolicy(),
            jobs=1,
            store=store,
            journal=journal,
            backend="inline",
        )
        with pytest.raises(KeyboardInterrupt):
            supervisor.execute(specs)
        # The two runs that finished before Ctrl-C are in the store,
        # and nothing failed, so the journal holds nothing.
        finished = [spec.key() for spec in specs[:2]]
        assert len(store) == 2
        assert all(store.get(key) is not None for key in finished)
        assert journal.load() == {}

        # A --resume sweep serves them from the store and only
        # simulates the rest.
        monkeypatch.setattr(local_mod, "run_task", real)
        resumed = Supervisor(
            FaultPolicy(),
            jobs=1,
            store=ResultStore(tmp_path / "store"),
            journal=journal,
            backend="inline",
        )
        results, records, failures = resumed.execute(specs, resume=True)
        assert not failures
        assert all(result is not None for result in results)
        assert [record.from_store for record in records[:2]] == [True, True]
        assert not any(record.from_store for record in records[2:])


class TestProcessWorkerLifetime:
    """Long-lived pool workers: bounded traces, no orphans."""

    def test_worker_keeps_profiles_under_one_byte_budget(self, monkeypatch):
        from repro.sim import runner
        from repro.sim.backends import process

        monkeypatch.setattr(process, "_WORKER_TRACES", None)

        def run(name, length, scheme=SchemeKind.UNSAFE):
            spec = RunSpec.build(
                get_benchmark("spec2017", name), scheme, length, RunConfig()
            )
            envelope = process._worker_task(spec, 0)
            assert envelope[0] == "ok"
            return spec, envelope[1]

        # Several profiles stay cached side by side.
        run("mcf", LENGTH)
        run("gcc", LENGTH)
        cache = process._WORKER_TRACES
        assert cache.max_bytes == runner.EXECUTOR_TRACE_BYTES
        assert len(cache) == 2 and cache.misses == 2
        # A shorter cell of a cached profile reuses its trace as a
        # prefix, with the result a fresh build gives.
        spec, result = run("mcf", LENGTH - 150, SchemeKind.STT)
        assert cache.misses == 2
        fresh = execute_run(spec, runner.TraceCache())
        assert result.cycles == fresh.cycles
        assert result.stats.as_dict() == fresh.stats.as_dict()
        # A longer one rebuilds once, at twice the built length.
        run("gcc", LENGTH + 1)
        run("gcc", 2 * LENGTH)
        assert cache.misses == 3
        # Past the byte budget the least recently used profile goes.
        cache.max_bytes = cache.approx_bytes
        run("lbm", LENGTH)
        assert len(cache) == 2 and cache.approx_bytes <= cache.max_bytes
        misses = cache.misses
        run("gcc", LENGTH)
        assert cache.misses == misses
        run("mcf", LENGTH)
        assert cache.misses == misses + 1

    def test_timeout_respawns_only_its_own_slot(self):
        hang = ChaosConfig(seed=2, hang=1.0, hang_s=15.0, faulty_attempts=1)
        hanging = _specs(RunConfig(chaos=hang))[0]
        backend = ProcessBackend(workers=2)
        try:
            backend.start()
            slots = list(backend._slots)
            late = backend.submit(hanging, timeout_s=1.0)
            clean = backend.submit(_specs()[1])
            settled = []
            while len(settled) < 2:
                settled += backend.poll(5.0)
            assert clean.outcome()[0] == "ok"
            with pytest.raises(TaskTimeout):
                late.outcome()
            # The expired task's slot respawned; the other kept its pool.
            assert backend._slots[0] is not slots[0]
            assert backend._slots[1] is slots[1]
            health = backend.health()
            assert (health.restarts, health.crash_restarts) == (1, 0)
        finally:
            backend.shutdown()

    def test_submit_beyond_capacity_raises(self):
        backend = ProcessBackend(workers=1)
        try:
            backend.submit(_specs()[0])
            with pytest.raises(RuntimeError, match="slots are busy"):
                backend.submit(_specs()[1])
            while not backend.poll(5.0):
                pass
        finally:
            backend.shutdown()

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="the guard is Linux-only"
    )
    def test_pool_forks_its_workers_on_linux(self):
        # The parent-death guard exits any worker whose parent is not
        # the pool's process, so the pool must not follow a forkserver
        # default (Linux's from Python 3.14); one is set here to prove it.
        import multiprocessing

        default = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method("forkserver", force=True)
        backend = ProcessBackend(workers=1)
        try:
            backend.start()
            assert backend._slots[0]._mp_context.get_start_method() == "fork"
            backend.submit(_specs()[0])
            settled = []
            while not settled:
                settled = backend.poll(5.0)
            assert settled[0].outcome()[0] == "ok"
            assert backend.health().crash_restarts == 0
        finally:
            backend.shutdown()
            multiprocessing.set_start_method(default, force=True)

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self"), reason="needs a Linux /proc"
    )
    def test_workers_die_with_a_killed_parent(self):
        holder = textwrap.dedent(
            """
            import time
            from repro.sim.backends import ProcessBackend
            from repro.sim.engine import RunSpec
            from repro.sim import RunConfig
            from repro.common import SchemeKind
            from repro.workloads import get_benchmark

            backend = ProcessBackend(workers=2)
            backend.start()
            spec = RunSpec.build(
                get_benchmark("spec2017", "mcf"), SchemeKind.UNSAFE, 200,
                RunConfig(),
            )
            for _ in range(2):  # one task per slot forks both workers
                backend.submit(spec)
            settled = 0
            while settled < 2:
                settled += len(backend.poll(1.0))
            print(
                *(pid for pool in backend._slots for pid in pool._processes),
                flush=True,
            )
            time.sleep(120)
            """
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath(src), env.get("PYTHONPATH")])
        )
        child = subprocess.Popen(
            [sys.executable, "-c", holder], stdout=subprocess.PIPE, env=env
        )
        workers = []
        try:
            workers = [int(pid) for pid in child.stdout.readline().split()]
            assert len(workers) == 2
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=10)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and any(
                process_alive(pid) for pid in workers
            ):
                time.sleep(0.05)
            assert not [pid for pid in workers if process_alive(pid)]
        finally:
            child.kill()
            child.wait()
            for pid in workers:  # never leak a worker, even on failure
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
