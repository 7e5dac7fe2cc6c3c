"""File-backed work-stealing queue backend with detached workers.

Multi-host execution as a config change: the parent serializes tasks
into a shared **spool directory** and N detached worker processes
(:mod:`repro.sim.backends.queue_worker`, plain ``subprocess.Popen``
children that could equally run on another host sharing the spool via
NFS) lease them, heartbeat, and push results back — optionally through
the content-hash result store as well, so a fleet shares one memoized
result set.

Spool layout (every transition is an atomic ``os.rename`` on one
filesystem, so two workers can never own the same task and a crash
never tears a file in half)::

    spool/
      config.json                 # store root etc, written once at start
      tasks/<wid>/<task_id>.task  # pickled (spec, attempt), awaiting lease
      leases/<wid>--<task_id>.task# leased: owner is in the filename
      results/<task_id>.pkl       # pickled result envelope + worker meta
      workers/<wid>.hb            # heartbeat file, mtime = last beat
      stop                        # sentinel: workers drain and exit

Tasks are dealt round-robin into per-worker sub-queues; an idle worker
drains its own queue first and then **steals** from any other queue
(including those of dead workers, which is how orphaned work is
rescued).  Death attribution is per-task: a lease names its worker
in the filename, so when ``Popen.poll`` reports a worker dead,
exactly the tasks it was leasing settle
:class:`~repro.sim.backends.base.WorkerDeath` — results already spooled
are honored first, which is what makes a chaos run lose zero records.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.sim.backends.base import (
    BackendHealth,
    ExecutionBackend,
    TaskHandle,
    TaskTimeout,
    WorkerDeath,
)

__all__ = ["QueueBackend"]

#: Seconds between parent-side spool scans while polling.
_SCAN_INTERVAL_S = 0.02


class _Worker:
    """Parent-side view of one detached worker process."""

    __slots__ = ("wid", "proc")

    def __init__(self, wid: str, proc: subprocess.Popen):
        self.wid = wid
        self.proc = proc


class QueueBackend(ExecutionBackend):
    """Work-stealing spool queue with detached worker processes."""

    name = "queue"
    preemptible = True

    def __init__(
        self,
        workers: int = 2,
        spool_dir: Optional[Path] = None,
        store_root: Optional[Path] = None,
        stale_heartbeat_s: float = 30.0,
    ) -> None:
        self.workers = max(1, int(workers))
        self._spool_arg = spool_dir
        self.store_root = store_root
        self.stale_heartbeat_s = stale_heartbeat_s
        self.spool: Optional[Path] = None
        self._own_spool = spool_dir is None
        self._fleet: List[_Worker] = []
        self._generation = 0
        self._seq = 0
        self._rr = 0  # round-robin dealer position
        #: task_id -> (handle, timeout_s)
        self._inflight: Dict[str, Any] = {}
        self.restarts = 0
        self.crash_restarts = 0
        self._completed = 0
        self._steals = 0
        self._worker_deaths = 0
        self._timeouts = 0
        self._lease_age_sum = 0.0

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        if self.spool is not None:
            return
        if self._spool_arg is not None:
            self.spool = Path(self._spool_arg)
        else:
            self.spool = Path(tempfile.mkdtemp(prefix="repro-queue-"))
        for sub in ("tasks", "leases", "results", "workers"):
            (self.spool / sub).mkdir(parents=True, exist_ok=True)
        config = {
            "store_root": str(self.store_root) if self.store_root else None,
            "stale_heartbeat_s": self.stale_heartbeat_s,
        }
        (self.spool / "config.json").write_text(json.dumps(config))
        while len(self._fleet) < self.workers:
            self._fleet.append(self._spawn())

    def _spawn(self) -> _Worker:
        assert self.spool is not None
        self._generation += 1
        wid = f"w{self._generation:03d}"
        (self.spool / "tasks" / wid).mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        pkg_root = str(Path(__file__).resolve().parents[3])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            pkg_root if not existing else pkg_root + os.pathsep + existing
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.sim.backends.queue_worker",
                str(self.spool),
                wid,
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        return _Worker(wid, proc)

    # -- submission ----------------------------------------------------

    def submit(
        self,
        spec: Any,
        attempt: int = 0,
        timeout_s: Optional[float] = None,
    ) -> TaskHandle:
        self.start()
        assert self.spool is not None
        self._seq += 1
        task_id = f"t{self._seq:06d}a{attempt}"
        handle = TaskHandle(spec, attempt, token=task_id)
        if timeout_s is not None:
            handle.deadline = time.monotonic() + timeout_s
        # Deal round-robin into a live worker's sub-queue; idle workers
        # steal across sub-queues so placement only shapes locality.
        live = [w for w in self._fleet if w.proc.poll() is None]
        target = (live or self._fleet)[self._rr % max(1, len(live or self._fleet))]
        self._rr += 1
        queue_dir = self.spool / "tasks" / target.wid
        queue_dir.mkdir(parents=True, exist_ok=True)
        blob = pickle.dumps((spec, attempt), protocol=pickle.HIGHEST_PROTOCOL)
        fd, tmp = tempfile.mkstemp(dir=str(queue_dir), suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.rename(tmp, queue_dir / f"{task_id}.task")
        self._inflight[task_id] = (handle, timeout_s)
        return handle

    # -- settlement ----------------------------------------------------

    def _settle_results(self, settled: List[TaskHandle]) -> None:
        """Honor every result envelope already spooled by a worker."""
        assert self.spool is not None
        results_dir = self.spool / "results"
        for path in sorted(results_dir.glob("*.pkl")):
            task_id = path.stem
            entry = self._inflight.pop(task_id, None)
            try:
                meta = pickle.loads(path.read_bytes())
            except Exception:
                meta = None
            try:
                path.unlink()
            except OSError:
                pass
            if entry is None:
                continue  # duplicate/orphan result for a settled task
            handle, _timeout_s = entry
            if meta is None:
                handle.settle_error(WorkerDeath("result envelope unreadable"))
            else:
                if meta.get("stolen"):
                    self._steals += 1
                self._lease_age_sum += float(meta.get("lease_age_s", 0.0))
                handle.settle_payload(meta.get("payload"))
                self._completed += 1
            settled.append(handle)

    def _lease_owners(self) -> Dict[str, str]:
        """task_id -> wid for every currently leased task."""
        assert self.spool is not None
        owners: Dict[str, str] = {}
        for path in (self.spool / "leases").glob("*.task"):
            wid, sep, rest = path.name.partition("--")
            if sep:
                owners[rest[: -len(".task")]] = wid
        return owners

    def _reap_dead_workers(self, settled: List[TaskHandle]) -> None:
        """Settle leases held by dead workers; respawn replacements."""
        assert self.spool is not None
        dead = [w for w in self._fleet if w.proc.poll() is not None]
        if not dead:
            return
        # A worker may die *after* spooling its result: honor those
        # results first so a crash-on-exit never loses a finished run.
        self._settle_results(settled)
        owners = self._lease_owners()
        for worker in dead:
            self._fleet.remove(worker)
            for task_id, wid in owners.items():
                if wid != worker.wid:
                    continue
                lease = self.spool / "leases" / f"{wid}--{task_id}.task"
                try:
                    lease.unlink()
                except OSError:
                    pass
                entry = self._inflight.pop(task_id, None)
                if entry is None:
                    continue
                handle, _timeout_s = entry
                self._worker_deaths += 1
                handle.settle_error(
                    WorkerDeath(
                        f"queue worker {worker.wid} died mid-lease",
                        pid=worker.proc.pid,
                    )
                )
                settled.append(handle)
            self.crash_restarts += 1
            self.restarts += 1
            self._fleet.append(self._spawn())
        # Unleased tasks queued on a dead worker's sub-queue stay put:
        # live workers steal from every sub-queue, so they are rescued
        # without parent intervention.

    def _kill_worker(self, wid: str) -> None:
        for worker in list(self._fleet):
            if worker.wid != wid:
                continue
            self._fleet.remove(worker)
            try:
                worker.proc.terminate()
                worker.proc.wait(timeout=5.0)
            except Exception:
                try:
                    worker.proc.kill()
                except Exception:
                    pass
        self._fleet.append(self._spawn())

    def _expire_deadlines(self, settled: List[TaskHandle]) -> None:
        """Per-task preemption: kill only the worker leasing the task."""
        assert self.spool is not None
        now = time.monotonic()
        expired = [
            (task_id, handle, timeout_s)
            for task_id, (handle, timeout_s) in list(self._inflight.items())
            if handle.deadline is not None and handle.deadline <= now
        ]
        if not expired:
            return
        owners = self._lease_owners()
        for task_id, handle, timeout_s in expired:
            owner = owners.get(task_id)
            if owner is not None:
                # Leased and over budget: the worker is presumed hung on
                # this task.  Kill it; other tasks are untouched.
                lease = self.spool / "leases" / f"{owner}--{task_id}.task"
                try:
                    lease.unlink()
                except OSError:
                    pass
                self._kill_worker(owner)
                self.restarts += 1
            else:
                # Still queued: revoke the task file; a worker that
                # leased it in the meantime is handled as above on the
                # next scan.
                removed = False
                for queue_dir in (self.spool / "tasks").iterdir():
                    try:
                        (queue_dir / f"{task_id}.task").unlink()
                        removed = True
                        break
                    except OSError:
                        continue
                if not removed and task_id in self._lease_owners():
                    continue  # raced a lease: settle on the next scan
            self._inflight.pop(task_id, None)
            self._timeouts += 1
            handle.settle_error(TaskTimeout(timeout_s or 0.0))
            settled.append(handle)

    def poll(self, timeout: Optional[float] = None) -> List[TaskHandle]:
        if not self._inflight:
            return []
        deadline = None if timeout is None else time.monotonic() + timeout
        settled: List[TaskHandle] = []
        while True:
            self._settle_results(settled)
            self._reap_dead_workers(settled)
            self._expire_deadlines(settled)
            if settled:
                return settled
            if not self._inflight:
                return settled
            if deadline is not None and time.monotonic() >= deadline:
                return settled
            time.sleep(_SCAN_INTERVAL_S)

    # -- introspection -------------------------------------------------

    def capacity(self) -> int:
        return self.workers

    def _queue_depth(self) -> int:
        if self.spool is None:
            return 0
        return sum(
            1 for _ in (self.spool / "tasks").glob("*/*.task")
        )

    def health(self) -> BackendHealth:
        alive = 0
        now = time.time()
        for worker in self._fleet:
            if worker.proc.poll() is not None:
                continue
            hb = (
                self.spool / "workers" / f"{worker.wid}.hb"
                if self.spool is not None
                else None
            )
            try:
                fresh = hb is not None and (
                    now - hb.stat().st_mtime
                ) <= self.stale_heartbeat_s
            except OSError:
                fresh = True  # spawned, first beat pending
            if fresh:
                alive += 1
        return BackendHealth(
            name=self.name,
            workers=self.workers,
            alive_workers=alive,
            inflight=len(self._inflight),
            queue_depth=self._queue_depth(),
            restarts=self.restarts,
            crash_restarts=self.crash_restarts,
            counters={
                "backend_tasks_completed": self._completed,
                "backend_steals": self._steals,
                "backend_worker_deaths": self._worker_deaths,
                "backend_task_timeouts": self._timeouts,
                "backend_worker_restarts": self.restarts,
                "backend_lease_age_ms": int(self._lease_age_sum * 1000),
            },
        )

    def shutdown(self, wait: bool = True) -> None:
        if self.spool is None:
            return
        try:
            (self.spool / "stop").write_text("stop")
        except OSError:
            pass
        grace = time.monotonic() + (2.0 if wait else 0.0)
        for worker in self._fleet:
            remaining = max(0.0, grace - time.monotonic())
            try:
                worker.proc.wait(timeout=remaining)
            except Exception:
                try:
                    worker.proc.terminate()
                    worker.proc.wait(timeout=2.0)
                except Exception:
                    try:
                        worker.proc.kill()
                    except Exception:
                        pass
        self._fleet.clear()
        if self._own_spool:
            shutil.rmtree(self.spool, ignore_errors=True)
        self.spool = None
        self._inflight.clear()
