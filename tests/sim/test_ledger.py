"""Tests for the crash-safe job ledger (repro.sim.ledger).

The ledger is the sweep service's write-ahead source of truth, so the
properties under test are the durability contract itself: append →
replay round trips, torn tails are skipped not fatal, rotation compacts
without losing live jobs, and sidecar writes are atomic.
"""

import json
from pathlib import Path

import pytest

import repro
from repro.sim.ledger import (
    JobLedger,
    JobSnapshot,
    durable_write,
    fsync_directory,
)


class TestDurableWrite:
    def test_writes_content(self, tmp_path):
        path = tmp_path / "nested" / "out.json"
        durable_write(path, '{"ok": true}')
        assert path.read_text() == '{"ok": true}'

    def test_replaces_atomically_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.json"
        durable_write(path, "old")
        durable_write(path, "new")
        assert path.read_text() == "new"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_directory_fsync_tolerates_missing_dir(self, tmp_path):
        fsync_directory(tmp_path / "does-not-exist")  # must not raise

    def test_every_whole_file_write_goes_through_durable_write(self):
        # Only durable_write makes temp files by hand; the queue
        # backend's spool files are temporary by design.
        src = Path(repro.__file__).parent
        allowed = {src / "sim" / "ledger.py", *src.glob("sim/backends/queue*.py")}
        offenders = [
            str(path.relative_to(src))
            for path in sorted(src.rglob("*.py"))
            if path not in allowed and "mkstemp" in path.read_text()
        ]
        assert offenders == []


def _submit(ledger, job_id, key=None, at=1.0):
    ledger.record_submit(
        job_id,
        [{"benchmark": "spec2017/mcf", "scheme": "stt", "length": 300}],
        {"backend": "inline"},
        idempotency_key=key,
        at=at,
    )


class TestAppendReplay:
    def test_round_trip(self, tmp_path):
        ledger = JobLedger(tmp_path / "ledger.jsonl")
        _submit(ledger, "job-0001", key="idem-1")
        ledger.record_state("job-0001", "running", at=2.0)
        ledger.record_state(
            "job-0001", "done", result_path="r.json", at=3.0
        )
        snapshots = JobLedger(ledger.path).replay()
        assert set(snapshots) == {"job-0001"}
        snap = snapshots["job-0001"]
        assert snap.status == "done"
        assert snap.terminal
        assert snap.result_path == "r.json"
        assert snap.idempotency_key == "idem-1"
        assert snap.created_at == 1.0
        assert snap.updated_at == 3.0
        assert snap.requests[0]["benchmark"] == "spec2017/mcf"
        assert snap.options == {"backend": "inline"}

    def test_last_state_wins(self, tmp_path):
        ledger = JobLedger(tmp_path / "ledger.jsonl")
        _submit(ledger, "job-0001")
        ledger.record_state("job-0001", "running")
        ledger.record_state("job-0001", "failed", error="boom")
        snap = ledger.replay()["job-0001"]
        assert snap.status == "failed"
        assert snap.error == "boom"

    def test_each_record_is_one_line(self, tmp_path):
        ledger = JobLedger(tmp_path / "ledger.jsonl")
        _submit(ledger, "job-0001")
        ledger.record_state("job-0001", "running")
        lines = ledger.path.read_text().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line) for line in lines)
        assert ledger.records_written == 2

    def test_torn_tail_is_skipped(self, tmp_path):
        ledger = JobLedger(tmp_path / "ledger.jsonl")
        _submit(ledger, "job-0001")
        ledger.record_state("job-0001", "running")
        with open(ledger.path, "ab") as handle:
            handle.write(b'{"kind": "state", "job": "job-0001", "stat')
        snap = JobLedger(ledger.path).replay()["job-0001"]
        assert snap.status == "running"  # the torn line changed nothing

    def test_garbage_lines_are_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = JobLedger(path)
        _submit(ledger, "job-0001")
        with open(path, "ab") as handle:
            handle.write(b"not json at all\n")
            handle.write(b'[1, 2, 3]\n')
        ledger.record_state("job-0001", "done", result_path="r.json")
        assert JobLedger(path).replay()["job-0001"].status == "done"

    def test_state_without_submit_is_dropped(self, tmp_path):
        ledger = JobLedger(tmp_path / "ledger.jsonl")
        ledger.record_state("job-0009", "running")
        assert ledger.replay() == {}

    def test_missing_file_replays_empty(self, tmp_path):
        assert JobLedger(tmp_path / "absent.jsonl").replay() == {}

    def test_unknown_status_rejected(self, tmp_path):
        ledger = JobLedger(tmp_path / "ledger.jsonl")
        with pytest.raises(ValueError, match="unknown job status"):
            ledger.record_state("job-0001", "exploded")


class TestRotation:
    def test_rotate_compacts_to_live_snapshot(self, tmp_path):
        ledger = JobLedger(tmp_path / "ledger.jsonl")
        for index in range(3):
            _submit(ledger, f"job-{index:04d}", at=float(index))
            ledger.record_state(f"job-{index:04d}", "running")
            ledger.record_state(
                f"job-{index:04d}", "done", result_path=f"{index}.json"
            )
        before = ledger.replay()
        ledger.rotate(before)
        # Compacted: one submit + one terminal state per job.
        assert len(ledger.path.read_text().splitlines()) == 6
        after = JobLedger(ledger.path).replay()
        assert {
            (s.job_id, s.status, s.result_path) for s in after.values()
        } == {(s.job_id, s.status, s.result_path) for s in before.values()}

    def test_queued_jobs_keep_only_their_submit(self, tmp_path):
        ledger = JobLedger(tmp_path / "ledger.jsonl")
        _submit(ledger, "job-0001")
        ledger.rotate(ledger.replay())
        lines = ledger.path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "submit"
        assert JobLedger(ledger.path).replay()["job-0001"].status == "queued"

    def test_maybe_rotate_thresholds(self, tmp_path):
        ledger = JobLedger(tmp_path / "ledger.jsonl", rotate_at=4)
        _submit(ledger, "job-0001")
        assert not ledger.maybe_rotate(ledger.replay())
        for _ in range(5):
            ledger.record_state("job-0001", "running")
        assert ledger.maybe_rotate(ledger.replay())
        assert ledger.rotations == 1
        assert len(ledger.path.read_text().splitlines()) == 2

    def test_rotate_at_validation(self, tmp_path):
        with pytest.raises(ValueError, match="rotate_at"):
            JobLedger(tmp_path / "l.jsonl", rotate_at=1)


class TestSnapshotRecords:
    def test_submit_and_state_records_round_trip(self):
        snap = JobSnapshot(
            job_id="job-0001",
            requests=[{"benchmark": "b", "scheme": "s", "length": 1}],
            options={"supervise": True},
            idempotency_key="k",
            created_at=1.0,
            status="failed",
            error="boom",
            updated_at=2.0,
        )
        submit = snap.submit_record()
        state = snap.state_record()
        assert submit["kind"] == "submit" and submit["job"] == "job-0001"
        assert state["kind"] == "state" and state["error"] == "boom"
        assert "result_path" not in state

    def test_appended_records_are_the_snapshot_records(self, tmp_path):
        ledger = JobLedger(tmp_path / "l.jsonl")
        _submit(ledger, "job-0001", key="k", at=1.0)
        ledger.record_state("job-0001", "failed", error="boom", at=2.0)
        submit, state = [
            json.loads(line) for line in ledger.path.read_text().splitlines()
        ]
        snap = ledger.replay()["job-0001"]
        assert submit == snap.submit_record()
        assert state == snap.state_record()
