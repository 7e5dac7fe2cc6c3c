"""The process-pool backend: the historical execution substrate.

Wraps a ``ProcessPoolExecutor`` behind the
:class:`~repro.sim.backends.base.ExecutionBackend` contract and owns
everything that used to live inside the supervisor's pool loop:

* ``BrokenProcessPool`` translation — a future that dies with a broken
  pool settles as :class:`WorkerDeath`; it is *certain* only when the
  task was alone in flight (that is how the supervisor's solo
  verification attributes crashes), otherwise every in-flight task is a
  suspect and settles ``WorkerDeath(certain=False)``;
* per-task deadlines — the pool offers no per-task kill, so an expired
  budget tears the whole pool down: expired tasks settle
  :class:`TaskTimeout` and innocent victims are resubmitted on the
  fresh pool internally, never surfaced to the caller;
* respawn accounting — ``crash_restarts`` counts crash-driven respawns
  (the supervisor's degrade budget), ``restarts`` counts all of them.

The pool initializer (:func:`_init_worker`) makes each worker:

* die with the process that started it — on Linux the kernel sends it
  ``SIGKILL`` when the forking thread exits (``PR_SET_PDEATHSIG``), so
  a kill -9 of a long-lived parent leaks no idle workers.  The pool is
  pinned to the ``fork`` start method there (:data:`_POOL_CONTEXT`):
  only a forked worker is the child of the submitting thread, which
  the guard's parent check relies on;
* a chaos target — :func:`repro.sim.chaos.mark_worker_process`, so
  process-level faults (``crash``) take the worker down for real.

The pool forks after :meth:`ProcessBackend.start` has imported the
simulator, so workers inherit it rather than each importing it on its
first task.

A worker outlives its tasks (the sweep service holds one pool for its
lifetime), so it keeps its traces in one
:func:`~repro.sim.backends.base.executor_cache`, as the inline backend
does: several profiles under one byte budget, each serving every
shorter cell length as a prefix.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Optional, Tuple

from repro.sim import chaos as chaos_mod
from repro.sim.backends.base import (
    BackendHealth,
    ExecutionBackend,
    TaskHandle,
    TaskTimeout,
    WorkerDeath,
    executor_cache,
    run_task,
)

__all__ = ["ProcessBackend"]

#: ``prctl`` option: the signal a child gets when its parent dies.
_PR_SET_PDEATHSIG = 1

#: This process's trace cache when it is a pool worker (made by its
#: first task).
_WORKER_TRACES: Any = None

#: The pool's start method: ``fork`` on Linux, where the parent-death
#: guard is armed (a ``forkserver`` or ``spawn`` worker is not a child
#: of the pool's process); the platform default elsewhere.
_POOL_CONTEXT = (
    multiprocessing.get_context("fork")
    if sys.platform.startswith("linux")
    else None
)


def _die_with_parent(parent_pid: int) -> None:
    """Have the kernel SIGKILL this process when its parent dies.

    Linux only (a no-op elsewhere).  The ``getppid`` check closes the
    race of a parent that died before the request was made.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        prctl = ctypes.CDLL(None).prctl
    except (OSError, AttributeError):  # pragma: no cover - exotic libc
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    if os.getppid() != parent_pid:
        os._exit(1)


def _init_worker(parent_pid: int) -> None:
    """Pool initializer: tie the worker to its parent, arm chaos."""
    _die_with_parent(parent_pid)
    chaos_mod.mark_worker_process()


def _worker_task(spec: Any, attempt: int) -> Any:
    """One task in a pool worker, on this worker's trace cache."""
    global _WORKER_TRACES
    if _WORKER_TRACES is None:
        _WORKER_TRACES = executor_cache()
    return run_task(spec, attempt, cache=_WORKER_TRACES)


class ProcessBackend(ExecutionBackend):
    """``ProcessPoolExecutor`` behind the backend seam."""

    name = "process"
    preemptible = True

    def __init__(self, workers: int = 2) -> None:
        self.workers = max(1, int(workers))
        self._pool: Optional[ProcessPoolExecutor] = None
        #: future -> (handle, timeout_s) for every unsettled submission.
        self._inflight: Dict[Any, Tuple[TaskHandle, Optional[float]]] = {}
        self.restarts = 0
        self.crash_restarts = 0
        self._completed = 0
        self._worker_deaths = 0
        self._timeouts = 0

    # -- pool lifecycle ------------------------------------------------

    def start(self) -> None:
        if self._pool is None:
            # Load the simulator before the first fork: every worker, and
            # every respawn, then inherits it instead of importing it on
            # its first task.
            import repro.sim.system  # noqa: F401

            self._pool = self._new_pool()

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=_POOL_CONTEXT,
            initializer=_init_worker,
            initargs=(os.getpid(),),
        )

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Terminate every worker and tear the pool down without joining
        hung processes indefinitely."""
        procs = list((getattr(pool, "_processes", None) or {}).values())
        for proc in procs:
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - already dead
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - defensive
            pass
        for proc in procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck in kernel
                try:
                    proc.kill()
                except Exception:
                    pass

    def _respawn(self) -> None:
        if self._pool is not None:
            self._kill_pool(self._pool)
        self._pool = self._new_pool()

    # -- submission ----------------------------------------------------

    def _submit_handle(
        self, handle: TaskHandle, timeout_s: Optional[float]
    ) -> None:
        assert self._pool is not None
        if timeout_s is not None:
            handle.deadline = time.monotonic() + timeout_s
        try:
            future = self._pool.submit(
                _worker_task, handle.spec, handle.attempt
            )
        except (BrokenProcessPool, RuntimeError):
            # The pool died between polls: respawn (a crash restart, the
            # caller sees it in health()) and retry once on fresh workers.
            self.crash_restarts += 1
            self.restarts += 1
            self._respawn()
            future = self._pool.submit(
                _worker_task, handle.spec, handle.attempt
            )
        self._inflight[future] = (handle, timeout_s)

    def submit(
        self,
        spec: Any,
        attempt: int = 0,
        timeout_s: Optional[float] = None,
    ) -> TaskHandle:
        self.start()
        handle = TaskHandle(spec, attempt)
        self._submit_handle(handle, timeout_s)
        return handle

    # -- settlement ----------------------------------------------------

    def poll(self, timeout: Optional[float] = None) -> List[TaskHandle]:
        if not self._inflight:
            return []
        now = time.monotonic()
        marks = [
            handle.deadline
            for handle, _ in self._inflight.values()
            if handle.deadline is not None
        ]
        wait_s = timeout
        if marks:
            to_deadline = max(0.0, min(marks) - now)
            wait_s = to_deadline if wait_s is None else min(wait_s, to_deadline)
        alone = len(self._inflight) == 1
        done, _ = futures_wait(
            set(self._inflight), timeout=wait_s, return_when=FIRST_COMPLETED
        )

        settled: List[TaskHandle] = []
        broken = False
        for future in done:
            handle, _timeout_s = self._inflight.pop(future)
            try:
                payload = future.result()
            except (BrokenProcessPool, OSError):
                broken = True
                self._worker_deaths += 1
                handle.settle_error(
                    WorkerDeath(
                        "worker process died mid-run",
                        # Alone in the pool -> this task provably
                        # crashed its worker.
                        certain=alone,
                    )
                )
                settled.append(handle)
                continue
            handle.settle_payload(payload)
            self._completed += 1
            settled.append(handle)

        if broken:
            # Everything else rode the broken pool down: suspects, to be
            # re-verified solo by the caller.
            for future, (handle, _timeout_s) in list(self._inflight.items()):
                handle.settle_error(
                    WorkerDeath("worker pool broke mid-run", certain=False)
                )
                settled.append(handle)
            self._inflight.clear()
            self.crash_restarts += 1
            self.restarts += 1
            self._respawn()
            return settled

        # Expired deadlines: no per-task kill exists, so cancel by
        # restarting the pool; innocent victims resubmit internally.
        now = time.monotonic()
        expired = [
            (future, handle, timeout_s)
            for future, (handle, timeout_s) in self._inflight.items()
            if handle.deadline is not None and handle.deadline <= now
        ]
        if expired:
            expired_futures = {future for future, _, _ in expired}
            victims = [
                (handle, timeout_s)
                for future, (handle, timeout_s) in self._inflight.items()
                if future not in expired_futures
            ]
            self._inflight.clear()
            self.restarts += 1
            self._respawn()
            for _future, handle, timeout_s in expired:
                self._timeouts += 1
                handle.settle_error(TaskTimeout(timeout_s or 0.0))
                settled.append(handle)
            for handle, timeout_s in victims:
                self._submit_handle(handle, timeout_s)
        return settled

    # -- introspection -------------------------------------------------

    def capacity(self) -> int:
        return self.workers

    def health(self) -> BackendHealth:
        return BackendHealth(
            name=self.name,
            workers=self.workers,
            alive_workers=self.workers if self._pool is not None else 0,
            inflight=len(self._inflight),
            queue_depth=0,
            restarts=self.restarts,
            crash_restarts=self.crash_restarts,
            counters={
                "backend_tasks_completed": self._completed,
                "backend_worker_deaths": self._worker_deaths,
                "backend_task_timeouts": self._timeouts,
                "backend_pool_restarts": self.restarts,
            },
        )

    def shutdown(self, wait: bool = True) -> None:
        if self._pool is not None:
            if wait and not self._inflight:
                self._pool.shutdown(wait=True)
            else:
                self._kill_pool(self._pool)
            self._pool = None
        self._inflight.clear()
