"""In-process backends: deterministic inline and a thread pool.

``inline`` runs every task synchronously in the polling process —
the deterministic debug substrate, and what the supervisor degrades to
when worker pools keep dying.  ``threads`` fans tasks across a
``ThreadPoolExecutor``: no pickling, shared memory, but the GIL caps
speedup for the pure-Python simulator, so it is mainly useful for
I/O-bound store traffic and as a seam exerciser.

Neither backend can lose a worker (``WorkerDeath`` never settles here)
and neither is preemptible — an expired budget is recorded post-hoc by
the supervisor, never enforced mid-run.
"""

from __future__ import annotations

import collections
import threading
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.sim.backends.base import (
    BackendHealth,
    ExecutionBackend,
    TaskHandle,
    executor_cache,
    run_task,
)

__all__ = ["InlineBackend", "ThreadBackend"]


class InlineBackend(ExecutionBackend):
    """Synchronous execution in the calling process.

    ``submit`` only queues the task; ``poll`` runs every queued task to
    completion and returns them settled.  As on the pool backends, a
    handle settles after its ``submit`` returns, so the time between the
    two is dispatch and the task's own wall is the run.  Keeps its
    traces in an :func:`~repro.sim.backends.base.executor_cache`, so
    long sweeps stay within its byte budget, unless a caller-provided
    cache is passed in: that one is shared across cells and calls, and
    never cleared.
    """

    name = "inline"
    preemptible = False

    def __init__(self, cache: Any = None) -> None:
        self._owns_cache = cache is None
        self._cache = executor_cache() if cache is None else cache
        self._queued: Deque[TaskHandle] = collections.deque()
        self._completed = 0

    def start(self) -> None:
        """Nothing to allocate: tasks run in the caller, traces on demand."""

    def submit(
        self,
        spec: Any,
        attempt: int = 0,
        timeout_s: Optional[float] = None,
    ) -> TaskHandle:
        handle = TaskHandle(spec, attempt)
        self._queued.append(handle)
        return handle

    def poll(self, timeout: Optional[float] = None) -> List[TaskHandle]:
        settled: List[TaskHandle] = []
        while self._queued:
            handle = self._queued.popleft()
            handle.settle_payload(
                run_task(
                    handle.spec,
                    handle.attempt,
                    cache=self._cache,
                    # A Ctrl-C must stop the sweep, not become a failure.
                    reraise=(KeyboardInterrupt, SystemExit),
                )
            )
            self._completed += 1
            settled.append(handle)
        return settled

    def capacity(self) -> int:
        return 1

    def health(self) -> BackendHealth:
        return BackendHealth(
            name=self.name,
            workers=1,
            alive_workers=1,
            inflight=len(self._queued),
            queue_depth=0,
            restarts=0,
            crash_restarts=0,
            counters={"backend_tasks_completed": self._completed},
        )

    def shutdown(self, wait: bool = True) -> None:
        if self._owns_cache:
            self._cache.clear()
        self._queued.clear()


class ThreadBackend(ExecutionBackend):
    """A ``ThreadPoolExecutor`` substrate (shared memory, no pickling).

    Each worker thread keeps its own
    :func:`~repro.sim.backends.base.executor_cache` (thread-local) so
    concurrent cells do not thrash one shared LRU.
    """

    name = "threads"
    preemptible = False

    def __init__(self, workers: int = 2) -> None:
        self.workers = max(1, int(workers))
        self._pool: Optional[ThreadPoolExecutor] = None
        self._inflight: Dict[Any, TaskHandle] = {}
        self._local = threading.local()
        self._completed = 0

    def start(self) -> None:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-backend",
            )

    def _task(self, spec: Any, attempt: int) -> Any:
        cache = getattr(self._local, "cache", None)
        if cache is None:
            cache = self._local.cache = executor_cache()
        return run_task(spec, attempt, cache=cache)

    def submit(
        self,
        spec: Any,
        attempt: int = 0,
        timeout_s: Optional[float] = None,
    ) -> TaskHandle:
        self.start()
        assert self._pool is not None
        handle = TaskHandle(spec, attempt)
        future = self._pool.submit(self._task, spec, attempt)
        self._inflight[future] = handle
        return handle

    def poll(self, timeout: Optional[float] = None) -> List[TaskHandle]:
        if not self._inflight:
            return []
        done, _ = futures_wait(
            set(self._inflight), timeout=timeout, return_when=FIRST_COMPLETED
        )
        settled: List[TaskHandle] = []
        for future in done:
            handle = self._inflight.pop(future)
            # run_task contains every exception in its envelope, so the
            # future itself only raises for interpreter-level failures.
            handle.settle_payload(future.result())
            self._completed += 1
            settled.append(handle)
        return settled

    def capacity(self) -> int:
        return self.workers

    def health(self) -> BackendHealth:
        return BackendHealth(
            name=self.name,
            workers=self.workers,
            alive_workers=self.workers if self._pool is not None else 0,
            inflight=len(self._inflight),
            queue_depth=0,
            restarts=0,
            crash_restarts=0,
            counters={"backend_tasks_completed": self._completed},
        )

    def shutdown(self, wait: bool = True) -> None:
        if self._pool is not None:
            # An abandoned pool must not start queued tasks: after a
            # fail-fast error or Ctrl-C nothing keeps running behind the
            # caller's back.
            self._pool.shutdown(wait=wait, cancel_futures=not wait)
            self._pool = None
        self._inflight.clear()
