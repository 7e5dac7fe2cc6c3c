"""Tests for suite checkpointing (SuiteJournal) and --resume semantics."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.common import SchemeKind
from repro.sim import RunConfig, run_grid
from repro.sim.chaos import ChaosConfig
from repro.sim.engine import RunRecord, RunSpec
from repro.sim.ledger import append_jsonl
from repro.sim.store import ResultStore
from repro.sim.supervisor import (
    FaultPolicy,
    RunFailure,
    SuiteJournal,
    default_journal_path,
)
from repro.workloads import get_benchmark

LENGTH = 600
SCHEMES = (SchemeKind.UNSAFE, SchemeKind.STT)


def _profiles():
    return [
        get_benchmark("spec2017", "mcf"),
        get_benchmark("spec2017", "gcc"),
    ]


def _record():
    return RunRecord(
        bench="mcf",
        scheme=SchemeKind.STT,
        seed=7,
        wall_time_s=0.5,
        uops_per_sec=1000.0,
        from_store=False,
    )


def _failure(message="boom"):
    return RunFailure(
        bench="gcc",
        scheme=SchemeKind.UNSAFE,
        seed=3,
        key="cd" * 32,
        error_type="MemoryError",
        message=message,
        traceback="",
        attempts=3,
        worker_pid=None,
        wall_time_s=0.1,
        diagnostics=None,
    )


class TestSuiteJournal:
    def test_round_trip_done_and_failed(self, tmp_path):
        # Failures round-trip; the ``done`` lines an older journal holds
        # stay readable but are skipped (the store records finished runs).
        journal = SuiteJournal(tmp_path / "journal.jsonl")
        append_jsonl(
            journal.path,
            {"key": "ab" * 32, "status": "done", "record": _record().as_dict()},
        )
        journal.record_failed("cd" * 32, _failure())
        entries = journal.load()
        assert set(entries) == {"cd" * 32}
        assert entries["cd" * 32]["status"] == "failed"
        assert (
            RunFailure.from_dict(entries["cd" * 32]["failure"]) == _failure()
        )

    def test_missing_file_is_empty(self, tmp_path):
        assert SuiteJournal(tmp_path / "nope.jsonl").load() == {}

    def test_last_write_wins(self, tmp_path):
        journal = SuiteJournal(tmp_path / "journal.jsonl")
        journal.record_failed("ab" * 32, _failure("first"))
        journal.record_failed("ab" * 32, _failure("second"))
        entry = journal.load()["ab" * 32]
        assert RunFailure.from_dict(entry["failure"]).message == "second"

    def test_torn_tail_is_skipped(self, tmp_path):
        journal = SuiteJournal(tmp_path / "journal.jsonl")
        journal.record_failed("ab" * 32, _failure())
        with open(journal.path, "a") as handle:
            handle.write('{"key": "cd", "status": "fa')  # killed mid-write
        entries = journal.load()
        assert set(entries) == {"ab" * 32}

    def test_garbage_lines_are_skipped(self, tmp_path):
        journal = SuiteJournal(tmp_path / "journal.jsonl")
        journal.path.write_text('not json\n[1,2,3]\n{"no": "key"}\n')
        journal.record_failed("ab" * 32, _failure())
        assert set(journal.load()) == {"ab" * 32}

    def test_binary_garbage_bytes_are_tolerated(self, tmp_path):
        # A disk-level tear can leave non-UTF8 bytes, not just cut JSON;
        # load() must still harvest every intact line around them.
        journal = SuiteJournal(tmp_path / "journal.jsonl")
        journal.record_failed("ab" * 32, _failure())
        with open(journal.path, "ab") as handle:
            handle.write(b'\x80\xfe\x00garbage\xff\n')
        journal.record_failed("cd" * 32, _failure())
        entries = journal.load()
        assert set(entries) == {"ab" * 32, "cd" * 32}

    def test_resume_survives_corrupt_journal_tail(self, tmp_path):
        # End-to-end: a sweep checkpointed, the journal tail torn AND
        # polluted with binary garbage, then resumed -- the intact
        # checkpoints replay, the rest re-run, nothing crashes.
        from repro.sim.supervisor import Supervisor

        store = ResultStore(tmp_path / "store")
        journal = SuiteJournal(tmp_path / "journal.jsonl")
        specs = [
            RunSpec.build(profile, scheme, LENGTH, RunConfig())
            for profile in _profiles()
            for scheme in SCHEMES
        ]
        first = Supervisor(
            FaultPolicy(), jobs=1, store=store, journal=journal
        )
        results, records, failures = first.execute(specs)
        assert not failures
        assert not journal.path.exists()  # a clean sweep journals nothing
        with open(journal.path, "ab") as handle:
            handle.write(b'{"key": "ef", "status"')  # torn final line
            handle.write(b'\xde\xad\xbe\xef\n')  # binary garbage
        resumed = Supervisor(
            FaultPolicy(), jobs=1, store=store, journal=journal
        )
        r_results, r_records, r_failures = resumed.execute(
            specs, resume=True
        )
        assert not r_failures
        assert all(record.from_store for record in r_records)
        for before, after in zip(results, r_results):
            assert before.cycles == after.cycles

    def test_clear_removes_file(self, tmp_path):
        journal = SuiteJournal(tmp_path / "journal.jsonl")
        journal.record_failed("ab" * 32, _failure())
        journal.clear()
        assert not journal.path.exists()
        journal.clear()  # idempotent

    def test_default_path_sits_next_to_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert default_journal_path(store) == tmp_path / "store" / "journal.jsonl"


class TestResume:
    def test_failed_cells_replay_without_rerun(self, tmp_path):
        journal = SuiteJournal(tmp_path / "journal.jsonl")
        chaos = ChaosConfig(seed=2, oom=1.0)  # every cell fails permanently
        policy = FaultPolicy(retries=0, backoff_s=0.001)
        first = run_grid(
            _profiles(), SCHEMES, LENGTH,
            config=RunConfig(chaos=chaos),
            policy=policy, journal=journal, jobs=1,
        )
        assert len(first.failures) == 4
        resumed = run_grid(
            _profiles(), SCHEMES, LENGTH,
            config=RunConfig(chaos=chaos),
            policy=policy, journal=journal, resume=True, jobs=1,
        )
        assert len(resumed.failures) == 4
        assert resumed.fault_counters["fault_replayed_failures"] == 4
        # Replays carry the original attempt counts, not fresh ones.
        assert [f.attempts for f in resumed.failures] == [
            f.attempts for f in first.failures
        ]

    def test_done_cells_serve_from_store_bit_identically(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        journal = SuiteJournal(default_journal_path(store))
        policy = FaultPolicy()
        first = run_grid(
            _profiles(), SCHEMES, LENGTH,
            policy=policy, store=store, journal=journal, jobs=1,
        )
        assert first.ok and first.store_hits == 0
        resumed = run_grid(
            _profiles(), SCHEMES, LENGTH,
            policy=policy, store=store, journal=journal, resume=True, jobs=1,
        )
        assert resumed.ok
        assert resumed.store_hits == 4  # nothing re-simulated
        for key in first:
            assert first[key].stats.as_dict() == resumed[key].stats.as_dict()
            assert first[key].cycles == resumed[key].cycles

    def test_store_wins_over_a_stale_journaled_failure(self, tmp_path):
        # A cell that failed in one sweep and finished in a later one
        # (same journal, no resume) comes back from the store.
        store = ResultStore(tmp_path / "store")
        journal = SuiteJournal(default_journal_path(store))
        profiles, schemes = _profiles()[:1], SCHEMES[:1]
        spec = RunSpec.build(profiles[0], schemes[0], LENGTH, RunConfig())
        journal.record_failed(spec.key(), _failure())
        run_grid(profiles, schemes, LENGTH, store=store, jobs=1)
        resumed = run_grid(
            profiles, schemes, LENGTH,
            policy=FaultPolicy(), store=store, journal=journal, resume=True,
            jobs=1,
        )
        assert resumed.ok and resumed.store_hits == 1


_SWEEP_SCRIPT = """
import sys
from repro.common import SchemeKind
from repro.sim import RunConfig, run_grid
from repro.sim.store import ResultStore
from repro.sim.supervisor import FaultPolicy, SuiteJournal, default_journal_path
from repro.workloads import get_benchmark

root = sys.argv[1]
store = ResultStore(root + "/store")
journal = SuiteJournal(default_journal_path(store))
profiles = [get_benchmark("spec2017", n) for n in ("mcf", "gcc", "lbm")]
run_grid(
    profiles,
    (SchemeKind.UNSAFE, SchemeKind.STT),
    %(length)d,
    policy=FaultPolicy(),
    store=store,
    journal=journal,
    jobs=1,
)
"""


class TestSigkillResume:
    """The acceptance-criteria scenario: SIGKILL mid-sweep, then resume."""

    @pytest.mark.slow
    def test_resume_after_sigkill_reruns_only_unfinished_cells(self, tmp_path):
        length = 5000  # slow enough that the kill lands mid-sweep
        proc = subprocess.Popen(
            [sys.executable, "-c", _SWEEP_SCRIPT % {"length": length}, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src")},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        store = ResultStore(tmp_path / "store")
        deadline = time.monotonic() + 120
        try:
            # Wait until some (but not all 6) cells are in the store.
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    break  # finished before we could kill: still a valid run
                if len(store) >= 2:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("sweep never checkpointed a cell")
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
                proc.wait(timeout=30)

        done_before = len(store)
        journal = SuiteJournal(default_journal_path(store))
        profiles = [
            get_benchmark("spec2017", n) for n in ("mcf", "gcc", "lbm")
        ]
        resumed = run_grid(
            profiles,
            SCHEMES,
            length,
            policy=FaultPolicy(),
            store=store,
            journal=journal,
            resume=True,
            jobs=1,
        )
        assert resumed.ok
        assert len(resumed.records) == 6
        # Every checkpointed cell was served from the store, not re-run.
        assert resumed.store_hits >= done_before
        # And the merged result is bit-identical to a clean full sweep.
        reference = run_grid(profiles, SCHEMES, length, jobs=1)
        for key in reference:
            assert reference[key].stats.as_dict() == resumed[key].stats.as_dict()
            assert reference[key].cycles == resumed[key].cycles
