"""Crash-safe write-ahead job ledger for the sweep service.

The sweep service (:mod:`repro.sim.service`) used to keep its job table
purely in memory: a crash or redeploy silently lost every in-flight
suite.  The :class:`JobLedger` makes the job table durable — every
submit and every state transition is one fsync'd JSON line, appended
with a *single* unbuffered ``write`` syscall so a SIGKILL (or power
loss after the fsync returns) can tear at most the line being written,
never an already-acknowledged one.

Write-ahead ordering is the contract that makes restart sound:

* a submit is appended (and fsync'd) **before** the HTTP 202 is sent,
  so an acknowledged job is never forgotten;
* a job's ``done`` record is appended only **after** its
  ``SuiteResult`` JSON has been durably written to the job's result
  sidecar file (:func:`durable_write`: temp file + fsync +
  atomic rename), so a ``done`` job always has a readable result;
* per-cell progress is *not* ledgered — finished cells live in the
  result store and exhausted ones in the supervisor's failure journal,
  which is what :meth:`~repro.sim.service.SweepService.recover` replays
  a running job through.

Replay (:meth:`JobLedger.replay`) folds the record stream into one
:class:`JobSnapshot` per job (last state wins) and tolerates torn or
garbage lines by skipping them, exactly like the supervisor journal.
:meth:`JobLedger.rotate` compacts the stream — one submit plus one
terminal state per live job — through a temp file, fsync, and atomic
rename, so the ledger never grows without bound and a crash mid-rotate
leaves the previous ledger intact.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

__all__ = [
    "JobLedger",
    "JobSnapshot",
    "LEDGER_NAME",
    "append_jsonl",
    "durable_write",
    "fsync_directory",
    "read_jsonl",
]

#: Default ledger file name inside the service state directory.
LEDGER_NAME = "ledger.jsonl"

#: Record count above which :meth:`JobLedger.maybe_rotate` compacts.
DEFAULT_ROTATE_AT = 4096

_TERMINAL = ("done", "failed")
_STATUSES = ("queued", "running", "done", "failed")


def fsync_directory(path: Path) -> None:
    """fsync a directory so a just-created/renamed entry is durable."""
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:  # e.g. platforms without directory fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystem-specific
        pass
    finally:
        os.close(fd)


def durable_write(path: Path, text: str) -> Path:
    """Write ``text`` to ``path`` torn-proof: temp + fsync + rename.

    The payload lands in a sibling temp file, is fsync'd, and is renamed
    into place; the parent directory is fsync'd afterwards.  A crash at
    any point leaves either the old content or the new — never a
    truncated mixture.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_directory(path.parent)
    return path


def append_jsonl(
    path: Path, record: Dict[str, Any], *, sync_dir: bool = False
) -> None:
    """Append ``record`` as one JSON line, torn-proof.

    The line goes out in a single unbuffered ``O_APPEND`` write followed
    by an fsync, so a crash can tear only the line being written, never
    smear a partial buffer flush across already-acknowledged lines.  The
    parent directory is fsync'd when the file is new (or ``sync_dir``).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
    existed = path.exists()
    fd = os.open(str(path), os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)
    if not existed or sync_dir:
        fsync_directory(path.parent)


def read_jsonl(path: Path) -> List[Dict[str, Any]]:
    """The JSON-object lines of ``path``, in order ([] if unreadable).

    Torn lines (a killed writer's tail), garbage bytes and non-object
    lines are skipped, not fatal.
    """
    try:
        text = Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return []
    records: List[Dict[str, Any]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue  # torn tail from a killed writer
        if isinstance(record, dict):
            records.append(record)
    return records


@dataclasses.dataclass
class JobSnapshot:
    """One job's replayed state: submit payload plus last known status."""

    job_id: str
    requests: List[Dict[str, Any]]
    options: Dict[str, Any]
    idempotency_key: Optional[str] = None
    created_at: float = 0.0
    status: str = "queued"
    error: Optional[str] = None
    #: Path of the job's durably-written ``SuiteResult`` JSON sidecar
    #: (set by the ``done`` state record).
    result_path: Optional[str] = None
    updated_at: float = 0.0

    @property
    def terminal(self) -> bool:
        """Whether the job had finished (done or failed) when recorded."""
        return self.status in _TERMINAL

    def submit_record(self) -> Dict[str, Any]:
        """This job's ``submit`` record (appended, or compacted by
        :meth:`JobLedger.rotate`)."""
        return {
            "kind": "submit",
            "job": self.job_id,
            "requests": self.requests,
            "options": self.options,
            "idempotency_key": self.idempotency_key,
            "at": self.created_at,
        }

    def state_record(self) -> Dict[str, Any]:
        """This job's last ``state`` record (appended, or compacted by
        :meth:`JobLedger.rotate`)."""
        record: Dict[str, Any] = {
            "kind": "state",
            "job": self.job_id,
            "status": self.status,
            "at": self.updated_at,
        }
        if self.error is not None:
            record["error"] = self.error
        if self.result_path is not None:
            record["result_path"] = self.result_path
        return record


class JobLedger:
    """Append-only, fsync'd JSONL record of every job's lifecycle."""

    def __init__(
        self, path: Path, *, rotate_at: int = DEFAULT_ROTATE_AT
    ) -> None:
        self.path = Path(path)
        if rotate_at < 2:
            raise ValueError("rotate_at must be at least 2")
        self.rotate_at = rotate_at
        #: Records appended through this instance (not the file total).
        self.records_written = 0
        #: Compactions performed through this instance.
        self.rotations = 0
        self._records_in_file = 0
        self._dir_synced = False

    # -- appending -----------------------------------------------------
    def record_submit(
        self,
        job_id: str,
        requests: List[Dict[str, Any]],
        options: Dict[str, Any],
        *,
        idempotency_key: Optional[str] = None,
        at: Optional[float] = None,
    ) -> None:
        """Ledger a submitted job **before** it is acknowledged."""
        snapshot = JobSnapshot(
            job_id,
            list(requests),
            dict(options),
            idempotency_key=idempotency_key,
            created_at=time.time() if at is None else at,
        )
        self._append(snapshot.submit_record())

    def record_state(
        self,
        job_id: str,
        status: str,
        *,
        error: Optional[str] = None,
        result_path: Optional[str] = None,
        at: Optional[float] = None,
    ) -> None:
        """Ledger one lifecycle transition (queued/running/done/failed).

        For ``done``, callers must have durably written the result
        sidecar (``result_path``) first — the ledger is the commit
        point, the sidecar is the payload.
        """
        if status not in _STATUSES:
            raise ValueError(
                f"unknown job status {status!r}; choose from {_STATUSES}"
            )
        snapshot = JobSnapshot(
            job_id,
            [],
            {},
            status=status,
            error=error,
            result_path=result_path,
            updated_at=time.time() if at is None else at,
        )
        self._append(snapshot.state_record())

    def _append(self, record: Dict[str, Any]) -> None:
        """One record = one unbuffered write + fsync (torn-proof append)."""
        append_jsonl(self.path, record, sync_dir=not self._dir_synced)
        self._dir_synced = True
        self.records_written += 1
        self._records_in_file += 1

    # -- replay --------------------------------------------------------
    def replay(self) -> Dict[str, JobSnapshot]:
        """Snapshots by job id (submit order preserved; torn lines skipped).

        A ``state`` record for a job with no surviving ``submit`` record
        is dropped — without the request payload there is nothing to
        re-run, and a compaction would have carried the submit along.
        """
        snapshots: Dict[str, JobSnapshot] = {}
        records = read_jsonl(self.path)
        for record in records:
            job_id = record.get("job")
            if not isinstance(job_id, str):
                continue
            kind = record.get("kind")
            if kind == "submit":
                requests = record.get("requests")
                if not isinstance(requests, list) or not requests:
                    continue
                snapshots[job_id] = JobSnapshot(
                    job_id=job_id,
                    requests=requests,
                    options=dict(record.get("options") or {}),
                    idempotency_key=record.get("idempotency_key"),
                    created_at=float(record.get("at") or 0.0),
                    updated_at=float(record.get("at") or 0.0),
                )
            elif kind == "state":
                snapshot = snapshots.get(job_id)
                status = record.get("status")
                if snapshot is None or status not in _STATUSES:
                    continue
                snapshot.status = status
                snapshot.error = record.get("error")
                snapshot.result_path = record.get("result_path")
                snapshot.updated_at = float(record.get("at") or 0.0)
        self._records_in_file = len(records)
        return snapshots

    # -- rotation ------------------------------------------------------
    def rotate(self, snapshots: Dict[str, JobSnapshot]) -> None:
        """Compact the ledger to ``snapshots`` via temp + fsync + rename.

        The compacted stream holds one submit record per job plus one
        state record for jobs past ``queued``, in ``created_at`` order.
        A crash mid-rotation leaves the previous ledger file intact.
        """
        lines: List[str] = []
        ordered = sorted(
            snapshots.values(), key=lambda snap: (snap.created_at, snap.job_id)
        )
        for snapshot in ordered:
            lines.append(json.dumps(snapshot.submit_record(), sort_keys=True))
            if snapshot.status != "queued":
                lines.append(
                    json.dumps(snapshot.state_record(), sort_keys=True)
                )
        durable_write(self.path, "".join(line + "\n" for line in lines))
        self.rotations += 1
        self._records_in_file = len(lines)

    def maybe_rotate(self, snapshots: Dict[str, JobSnapshot]) -> bool:
        """Rotate when the file has outgrown ``rotate_at`` records."""
        if self._records_in_file <= self.rotate_at:
            return False
        self.rotate(snapshots)
        return True
