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

from repro._lazy import lazy_exports

# Only the backend a run picks is imported (the process pool's
# ``multiprocessing`` and ``concurrent.futures`` stay out of inline runs).
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.sim.backends.base": (
            "BACKEND_ENV",
            "BACKEND_NAMES",
            "BackendHealth",
            "CorruptResultError",
            "ExecutionBackend",
            "TaskFailedError",
            "TaskHandle",
            "TaskTimeout",
            "WorkerDeath",
            "backend_name",
            "default_backend_name",
            "parse_envelope",
            "resolve_backend",
            "run_task",
        ),
        "repro.sim.backends.local": ("InlineBackend", "ThreadBackend"),
        "repro.sim.backends.process": ("ProcessBackend",),
        "repro.sim.backends.queue": ("QueueBackend",),
    },
)

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
