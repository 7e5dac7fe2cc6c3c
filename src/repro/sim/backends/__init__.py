"""Pluggable execution backends (see :mod:`repro.sim.backends.base`).

Four substrates behind one contract:

============  =====================================================
``inline``    synchronous, deterministic; the debug/degrade substrate
``threads``   ``ThreadPoolExecutor``; shared memory, GIL-bound
``process``   ``ProcessPoolExecutor``; the historical default
``queue``     file-backed work-stealing spool + detached workers;
              multi-host capable
============  =====================================================

Select with ``--backend``, the ``REPRO_BACKEND`` environment variable,
or :func:`resolve_backend`.
"""

from repro.sim.backends.base import (
    BACKEND_ENV,
    BACKEND_NAMES,
    BackendHealth,
    CorruptResultError,
    ExecutionBackend,
    TaskFailedError,
    TaskHandle,
    TaskTimeout,
    WorkerDeath,
    backend_name,
    default_backend_name,
    parse_envelope,
    resolve_backend,
    run_task,
)
from repro.sim.backends.local import InlineBackend, ThreadBackend
from repro.sim.backends.process import ProcessBackend
from repro.sim.backends.queue import QueueBackend

__all__ = [
    "BACKEND_ENV",
    "BACKEND_NAMES",
    "BackendHealth",
    "CorruptResultError",
    "ExecutionBackend",
    "InlineBackend",
    "ProcessBackend",
    "QueueBackend",
    "TaskFailedError",
    "TaskHandle",
    "TaskTimeout",
    "ThreadBackend",
    "WorkerDeath",
    "backend_name",
    "default_backend_name",
    "parse_envelope",
    "resolve_backend",
    "run_task",
]
