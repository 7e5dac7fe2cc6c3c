"""Tests for the fault-tolerant supervision layer.

Pool tests spawn real worker processes and genuinely crash/hang them;
lengths are kept tiny so each run is milliseconds of simulation.
"""

import random

import pytest

from repro.common import SchemeKind
from repro.sim import RunConfig, run_grid
from repro.sim.chaos import ChaosConfig
from repro.sim.engine import RunSpec
from repro.sim.runner import run_benchmark
from repro.sim.store import ResultStore
from repro.sim.supervisor import (
    CorruptResultError,
    FaultPolicy,
    RunFailure,
    Supervisor,
    _parse_payload,
    _validate_result,
)
from repro.workloads import get_benchmark

LENGTH = 600
SCHEMES = (SchemeKind.UNSAFE, SchemeKind.STT)


def _profiles():
    return [
        get_benchmark("spec2017", "mcf"),
        get_benchmark("spec2017", "gcc"),
    ]


def _specs(config=None):
    config = config or RunConfig()
    return [
        RunSpec.build(profile, scheme, LENGTH, config)
        for profile in _profiles()
        for scheme in SCHEMES
    ]


def _grid(chaos, policy, jobs, **kwargs):
    return run_grid(
        _profiles(),
        SCHEMES,
        LENGTH,
        config=RunConfig(chaos=chaos),
        policy=policy,
        jobs=jobs,
        **kwargs,
    )


class TestFaultPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPolicy(timeout_s=0)
        with pytest.raises(ValueError):
            FaultPolicy(retries=-1)
        with pytest.raises(ValueError):
            FaultPolicy(backoff_s=-1)
        with pytest.raises(ValueError):
            FaultPolicy(jitter=-0.1)
        with pytest.raises(ValueError):
            FaultPolicy(max_pool_restarts=-1)

    def test_backoff_grows_and_caps(self):
        policy = FaultPolicy(backoff_s=0.1, backoff_cap_s=0.4, jitter=0.0)
        rng = random.Random(0)
        delays = [policy.backoff_for(a, rng) for a in (1, 2, 3, 4, 5)]
        assert delays == [0.1, 0.2, 0.4, 0.4, 0.4]

    def test_jitter_adds_bounded_fraction(self):
        policy = FaultPolicy(backoff_s=1.0, backoff_cap_s=1.0, jitter=0.5)
        rng = random.Random(0)
        for _ in range(20):
            assert 1.0 <= policy.backoff_for(1, rng) <= 1.5


class TestRunFailure:
    def test_dict_round_trip(self):
        failure = RunFailure(
            bench="mcf",
            scheme=SchemeKind.STT,
            seed=7,
            key="ab" * 32,
            error_type="MemoryError",
            message="boom",
            traceback="Traceback ...",
            attempts=3,
            worker_pid=1234,
            wall_time_s=0.5,
            diagnostics={"cycle": 10},
        )
        clone = RunFailure.from_dict(failure.as_dict())
        assert clone == failure
        assert clone.scheme is SchemeKind.STT


class TestPayloadValidation:
    def test_malformed_payloads_raise(self):
        for payload in (None, {}, {"chaos": "corrupt payload"}, (), ("ok",)):
            with pytest.raises(CorruptResultError):
                _parse_payload(payload)

    def test_ok_and_error_envelopes_pass(self):
        ok = ("ok", object(), 0.1, 42)
        assert _parse_payload(ok) == ok
        err = ("error", "ValueError", "m", "tb", None, 0.1, 42)
        assert _parse_payload(err) == err

    def test_result_validation_rejects_mismatches(self):
        spec = _specs()[0]
        result = run_benchmark(
            spec.profile, spec.scheme, LENGTH
        )
        assert _validate_result(spec, result) is result
        with pytest.raises(CorruptResultError):
            _validate_result(spec, "not a result")
        other = _specs()[1]  # same profile, different scheme
        with pytest.raises(CorruptResultError):
            _validate_result(other, result)


class TestInlineSupervision:
    def test_no_faults_matches_unsupervised_run(self):
        plain = run_grid(_profiles(), SCHEMES, LENGTH, jobs=1)
        supervised = _grid(None, FaultPolicy(), jobs=1)
        assert supervised.ok
        assert set(plain) == set(supervised)
        for key in plain:
            assert plain[key].stats.as_dict() == supervised[key].stats.as_dict()

    def test_transient_fault_recovers_via_retry(self):
        chaos = ChaosConfig(seed=2, oom=1.0, faulty_attempts=1)
        suite = _grid(
            chaos, FaultPolicy(retries=2, backoff_s=0.001), jobs=1
        )
        assert suite.ok
        assert suite.fault_counters["fault_retries"] == len(_specs())
        assert "fault_exhausted" not in suite.fault_counters

    def test_permanent_fault_exhausts_into_failure_records(self):
        chaos = ChaosConfig(seed=2, oom=1.0)  # every attempt fails
        suite = _grid(
            chaos, FaultPolicy(retries=1, backoff_s=0.001), jobs=1
        )
        assert not suite.ok
        assert len(suite.failures) == len(_specs())
        assert len(suite) == 0  # no cell produced a result
        for failure in suite.failures:
            assert failure.error_type == "MemoryError"
            assert failure.attempts == 2  # 1 initial + 1 retry
            assert "chaos" in failure.message
        assert suite.fault_counters["fault_exhausted"] == len(_specs())

    def test_failures_follow_spec_order(self):
        chaos = ChaosConfig(seed=2, oom=1.0)
        suite = _grid(chaos, FaultPolicy(retries=0), jobs=1)
        expected = [
            (p.name, s) for p in _profiles() for s in SCHEMES
        ]
        assert [(f.bench, f.scheme) for f in suite.failures] == expected

    def test_corrupt_payload_detected_inline(self):
        chaos = ChaosConfig(seed=2, corrupt=1.0, faulty_attempts=1)
        suite = _grid(
            chaos, FaultPolicy(retries=1, backoff_s=0.001), jobs=1
        )
        assert suite.ok
        assert suite.fault_counters["fault_corrupt_payloads"] == len(_specs())

    def test_chaos_results_bypass_the_store(self, tmp_path):
        store = ResultStore(tmp_path)
        chaos = ChaosConfig(seed=2)  # inert, but marks specs as chaos runs
        suite = _grid(chaos, FaultPolicy(), jobs=1, store=store)
        assert suite.ok
        assert len(store) == 0  # nothing persisted
        assert store.hits == 0  # nothing consulted

    def test_determinism_matches_decide(self):
        """The cells that fail are exactly the ones decide() names."""
        chaos = ChaosConfig(seed=2, oom=0.5)
        policy = FaultPolicy(retries=1, backoff_s=0.001)
        expected_failed = {
            (spec.profile.name, spec.scheme)
            for spec in _specs(RunConfig(chaos=chaos))
            if all(
                chaos.decide(spec.key(), attempt) is not None
                for attempt in range(policy.retries + 1)
            )
        }
        suite = _grid(chaos, policy, jobs=1)
        assert {
            (f.bench, f.scheme) for f in suite.failures
        } == expected_failed
        # And the same casualties (modulo timing) on a second run.
        def stable(failure):
            return (
                failure.bench,
                failure.scheme,
                failure.error_type,
                failure.message,
                failure.attempts,
            )

        again = _grid(chaos, policy, jobs=1)
        assert [stable(f) for f in again.failures] == [
            stable(f) for f in suite.failures
        ]


class TestPoolSupervision:
    def test_worker_crash_recovers_and_is_attributed(self):
        chaos = ChaosConfig(seed=2, crash=1.0, faulty_attempts=1)
        suite = _grid(
            chaos,
            FaultPolicy(retries=2, backoff_s=0.001, max_pool_restarts=20),
            jobs=2,
        )
        assert suite.ok
        assert len(suite) == len(_specs())  # no cell lost to the chaos
        counters = suite.fault_counters
        assert counters["fault_worker_crashes"] == len(_specs())
        assert counters["fault_pool_restarts"] >= 1
        assert counters["fault_retries"] == len(_specs())

    def test_one_crash_costs_one_restart(self):
        # One crashing cell beside clean ones: its own worker dies, and
        # only that worker respawns; the neighbors are never re-run.
        crashing = ChaosConfig(seed=2, crash=1.0, faulty_attempts=1)
        specs = _specs()
        specs[1] = _specs(RunConfig(chaos=crashing))[1]
        supervisor = Supervisor(FaultPolicy(retries=2, backoff_s=0.001), jobs=2)
        results, _, failures = supervisor.execute(specs)
        assert all(result is not None for result in results) and not failures
        counters = supervisor.fault_counters
        assert counters["fault_pool_restarts"] == 1
        assert counters["fault_worker_crashes"] == 1
        assert counters["fault_retries"] == 1
        assert counters["backend_tasks_completed"] == len(specs)

    def test_permanent_crash_exhausts_with_worker_crash_records(self):
        chaos = ChaosConfig(seed=2, crash=1.0)
        suite = _grid(
            chaos,
            FaultPolicy(
                retries=1, backoff_s=0.001, max_pool_restarts=50
            ),
            jobs=2,
        )
        assert len(suite.failures) == len(_specs())
        kinds = {f.error_type for f in suite.failures}
        # Exhausted in the pool (WorkerCrashError) or after degradation
        # to inline execution (ChaosFault) — both are real outcomes.
        assert kinds <= {"WorkerCrashError", "ChaosFault"}

    def test_degrades_to_inline_after_restart_budget(self):
        chaos = ChaosConfig(seed=2, crash=1.0)  # every pool attempt dies
        suite = _grid(
            chaos,
            FaultPolicy(retries=1, backoff_s=0.001, max_pool_restarts=1),
            jobs=2,
        )
        # Inline chaos crash raises ChaosFault, so the sweep still
        # completes with failure records rather than hanging or raising.
        assert len(suite.failures) == len(_specs())
        assert suite.fault_counters["fault_degraded"] == 1

    def test_hang_trips_timeout_then_retry_succeeds(self):
        chaos = ChaosConfig(
            seed=2, hang=1.0, hang_s=15.0, faulty_attempts=1
        )
        suite = _grid(
            chaos,
            FaultPolicy(timeout_s=1.0, retries=2, backoff_s=0.001),
            jobs=2,
        )
        assert suite.ok
        counters = suite.fault_counters
        assert counters["fault_timeouts"] == len(_specs())
        assert counters["fault_pool_restarts"] >= 1
        assert "fault_exhausted" not in counters

    def test_corrupt_payload_detected_in_pool(self):
        chaos = ChaosConfig(seed=2, corrupt=1.0, faulty_attempts=1)
        suite = _grid(
            chaos, FaultPolicy(retries=2, backoff_s=0.001), jobs=2
        )
        assert suite.ok
        assert suite.fault_counters["fault_corrupt_payloads"] == len(_specs())

    def test_pool_results_match_inline_under_transient_chaos(self):
        chaos = ChaosConfig(seed=2, oom=1.0, faulty_attempts=1)
        policy = FaultPolicy(retries=2, backoff_s=0.001)
        inline = _grid(chaos, policy, jobs=1)
        pooled = _grid(chaos, policy, jobs=2)
        assert inline.ok and pooled.ok
        for key in inline:
            assert inline[key].stats.as_dict() == pooled[key].stats.as_dict()


class TestCallerHeldBackend:
    """A backend shared by several supervised calls is reported per call."""

    @staticmethod
    def _spec(profile, scheme, chaos=None):
        return RunSpec.build(profile, scheme, LENGTH, RunConfig(chaos=chaos))

    def test_shared_backend_counts_each_call_once(self):
        from repro.sim.backends.process import ProcessBackend
        from repro.sim.engine import SuiteResult, run_specs

        backend = ProcessBackend(workers=1)
        try:
            parts = [
                run_specs([spec], policy=FaultPolicy(), backend=backend)[1]
                for spec in _specs()[:3]
            ]
        finally:
            backend.shutdown()
        for part in parts:
            assert part.ok
            assert part.fault_counters["backend_tasks_completed"] == 1
        merged = SuiteResult.merged(parts)
        assert merged.fault_counters["backend_tasks_completed"] == 3

    def test_earlier_crashes_neither_show_nor_degrade_a_later_call(self):
        from repro.sim.backends.process import ProcessBackend

        profile = _profiles()[0]
        crashing = self._spec(
            profile,
            SchemeKind.UNSAFE,
            ChaosConfig(seed=2, crash=1.0, faulty_attempts=2),
        )
        clean = [self._spec(profile, scheme) for scheme in SCHEMES]
        backend = ProcessBackend(workers=1)
        try:
            first = Supervisor(
                FaultPolicy(retries=2, backoff_s=0.001), backend=backend
            )
            results, _, failures = first.execute([crashing])
            assert results[0] is not None and not failures
            assert first.fault_counters["fault_worker_crashes"] == 2
            assert first.fault_counters["fault_pool_restarts"] == 2

            second = Supervisor(
                FaultPolicy(max_pool_restarts=1), backend=backend
            )
            results, _, failures = second.execute(clean)
            counters = second.fault_counters
        finally:
            backend.shutdown()
        assert all(result is not None for result in results) and not failures
        assert "fault_degraded" not in counters
        assert "fault_pool_restarts" not in counters
        assert "fault_worker_crashes" not in counters
        assert counters["backend_tasks_completed"] == len(clean)
        assert counters["backend_worker_deaths"] == 0

    def test_a_degrade_leaves_the_backend_usable(self):
        from repro.sim.backends.process import ProcessBackend

        profile = _profiles()[0]
        crashing = [
            self._spec(profile, scheme, ChaosConfig(seed=2, crash=1.0))
            for scheme in SCHEMES
        ]
        backend = ProcessBackend(workers=1)
        try:
            first = Supervisor(
                FaultPolicy(retries=0, max_pool_restarts=0), backend=backend
            )
            first.execute(crashing)
            assert first.fault_counters["fault_degraded"] == 1

            second = Supervisor(FaultPolicy(), backend=backend)
            results, _, failures = second.execute(
                [self._spec(profile, SchemeKind.STT)]
            )
            assert results[0] is not None and not failures
            assert second.fault_counters["backend_tasks_completed"] == 1
            assert backend.health().alive_workers == 1
        finally:
            backend.shutdown()


class TestSupervisorTelemetry:
    def test_suite_json_round_trips_failures(self, tmp_path):
        from repro.sim.engine import SuiteResult

        chaos = ChaosConfig(seed=2, oom=0.5)
        suite = _grid(chaos, FaultPolicy(retries=1, backoff_s=0.001), jobs=1)
        path = suite.save(tmp_path / "suite.json")
        loaded = SuiteResult.load(path)
        assert loaded.ok == suite.ok
        assert [f.as_dict() for f in loaded.failures] == [
            f.as_dict() for f in suite.failures
        ]
        assert loaded.fault_counters == suite.fault_counters
        assert set(loaded) == set(suite)
