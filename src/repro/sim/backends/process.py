"""The process backend: one single-worker process pool per slot.

``ProcessBackend(workers=N)`` holds N **slots**, each a
``ProcessPoolExecutor(max_workers=1)``, behind the
:class:`~repro.sim.backends.base.ExecutionBackend` contract.  Each
in-flight task owns one slot, so every failure names its own task:

* a worker crash breaks only its slot's pool: the task on that slot
  settles :class:`WorkerDeath`, and only that slot respawns;
* an expired per-task deadline kills and respawns only the task's
  slot: the task settles :class:`TaskTimeout`, and every other slot
  keeps running;
* respawn accounting — ``crash_restarts`` counts crash-driven respawns
  (the supervisor's degrade budget), ``restarts`` counts all of them.

Submitting more than :meth:`~ProcessBackend.capacity` tasks at once
raises: there is no queue behind the slots.

The pool initializer (:func:`_init_worker`) makes each worker:

* die with the process that started it — on Linux the kernel sends it
  ``SIGKILL`` when the forking thread exits (``PR_SET_PDEATHSIG``), so
  a kill -9 of a long-lived parent leaks no idle workers.  The pools
  are pinned to the ``fork`` start method there (:data:`_POOL_CONTEXT`):
  only a forked worker is the child of the submitting thread, which
  the guard's parent check relies on;
* a chaos target — :func:`repro.sim.chaos.mark_worker_process`, so
  process-level faults (``crash``) take the worker down for real.

A slot forks after :meth:`ProcessBackend.start` has imported the
simulator, so workers inherit it rather than each importing it on its
first task.

A worker outlives its tasks (the sweep service holds one backend for
its lifetime), so it keeps its traces in one
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
    """Single-worker ``ProcessPoolExecutor`` slots behind the backend seam."""

    name = "process"
    preemptible = True

    def __init__(self, workers: int = 2) -> None:
        self.workers = max(1, int(workers))
        #: One single-worker pool per slot (empty until started).
        self._slots: List[ProcessPoolExecutor] = []
        #: future -> (slot, handle, timeout_s) for every unsettled task.
        self._inflight: Dict[Any, Tuple[int, TaskHandle, Optional[float]]] = {}
        self.restarts = 0
        self.crash_restarts = 0
        self._completed = 0
        self._worker_deaths = 0
        self._timeouts = 0

    # -- slot lifecycle ------------------------------------------------

    def start(self) -> None:
        if not self._slots:
            # Load the simulator before the first fork: every worker, and
            # every respawn, then inherits it instead of importing it on
            # its first task.
            import repro.sim.system  # noqa: F401

            self._slots = [self._new_pool() for _ in range(self.workers)]

    @staticmethod
    def _new_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=1,
            mp_context=_POOL_CONTEXT,
            initializer=_init_worker,
            initargs=(os.getpid(),),
        )

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Terminate the pool's worker and tear the pool down without
        joining a hung process indefinitely."""
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

    def _respawn(self, slot: int, crash: bool) -> None:
        """Replace one slot's pool; the other slots keep running."""
        self.restarts += 1
        if crash:
            self.crash_restarts += 1
        self._kill_pool(self._slots[slot])
        self._slots[slot] = self._new_pool()

    # -- submission ----------------------------------------------------

    def submit(
        self,
        spec: Any,
        attempt: int = 0,
        timeout_s: Optional[float] = None,
    ) -> TaskHandle:
        self.start()
        busy = {slot for slot, _, _ in self._inflight.values()}
        free = [slot for slot in range(self.workers) if slot not in busy]
        if not free:
            raise RuntimeError(
                f"all {self.workers} process slots are busy; "
                "poll before submitting more"
            )
        slot = free[0]
        handle = TaskHandle(spec, attempt)
        if timeout_s is not None:
            handle.deadline = time.monotonic() + timeout_s
        try:
            future = self._slots[slot].submit(_worker_task, spec, attempt)
        except (BrokenProcessPool, RuntimeError):
            # The idle worker died between polls: respawn the slot and
            # retry once on a fresh worker.
            self._respawn(slot, crash=True)
            future = self._slots[slot].submit(_worker_task, spec, attempt)
        self._inflight[future] = (slot, handle, timeout_s)
        return handle

    # -- settlement ----------------------------------------------------

    def poll(self, timeout: Optional[float] = None) -> List[TaskHandle]:
        if not self._inflight:
            return []
        marks = [
            handle.deadline
            for _, handle, _ in self._inflight.values()
            if handle.deadline is not None
        ]
        wait_s = timeout
        if marks:
            to_deadline = max(0.0, min(marks) - time.monotonic())
            wait_s = to_deadline if wait_s is None else min(wait_s, to_deadline)
        done, _ = futures_wait(
            set(self._inflight), timeout=wait_s, return_when=FIRST_COMPLETED
        )

        settled: List[TaskHandle] = []
        for future in done:
            slot, handle, _ = self._inflight.pop(future)
            try:
                payload = future.result()
            except (BrokenProcessPool, OSError):
                self._worker_deaths += 1
                self._respawn(slot, crash=True)
                handle.settle_error(WorkerDeath("worker process died mid-run"))
            else:
                self._completed += 1
                handle.settle_payload(payload)
            settled.append(handle)

        # Expired deadlines: a pool offers no per-task kill, so cancel by
        # respawning the expired task's slot.
        now = time.monotonic()
        for future, (slot, handle, timeout_s) in list(self._inflight.items()):
            if handle.deadline is not None and handle.deadline <= now:
                del self._inflight[future]
                self._timeouts += 1
                self._respawn(slot, crash=False)
                handle.settle_error(TaskTimeout(timeout_s or 0.0))
                settled.append(handle)
        return settled

    # -- introspection -------------------------------------------------

    def capacity(self) -> int:
        return self.workers

    def health(self) -> BackendHealth:
        return BackendHealth(
            name=self.name,
            workers=self.workers,
            alive_workers=len(self._slots),
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
        graceful = wait and not self._inflight
        for pool in self._slots:
            if graceful:
                pool.shutdown(wait=True)
            else:
                self._kill_pool(pool)
        self._slots = []
        self._inflight.clear()
