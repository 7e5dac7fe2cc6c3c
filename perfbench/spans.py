"""Per-layer spans recorded from outside the program.

:func:`instrument` wraps the public entry point of each layer, as a
class or module attribute, with a span: name, start, end, parent span
and the request (grid cell or service job) it served.  The program's
own code is untouched; the wrappers are removed on exit.

A layer's *self time* is its spans' duration minus the part covered by
child spans.  Counts are taken at the same boundaries.  Spans of the
hottest boundary (``memory.submit``, once per memory transaction) are
aggregated rather than kept one by one, so the record stays small.

Wrappers check :attr:`Recorder.enabled`; a process forked from a traced
one (a process-pool worker) disables its copy, so its spans are neither
kept nor paid for beyond the flag test.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Spans recorded in aggregate only (name -> per-thread totals).
HOT = frozenset({"memory.submit"})


class _ThreadState:
    """One thread's open-span stack and its finished spans."""

    def __init__(self) -> None:
        #: Label of the request this thread is serving.
        self.request: Optional[str] = None
        self.stack: List[List[Any]] = []
        #: (name, start_ns, end_ns, parent name, request) per kept span.
        self.spans: List[Tuple[str, int, int, Optional[str], Optional[str]]] = []
        #: name -> [count, total_ns, self_ns]
        self.totals: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
        #: (parent, child) -> ns of child spans directly under parent
        self.nested: Dict[Tuple[str, str], int] = defaultdict(int)


class Recorder:
    """Span and count sink shared by every thread of the process."""

    def __init__(self) -> None:
        self.enabled = True
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._threads: List[_ThreadState] = []
        self._lock = threading.Lock()
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    def set_request(self, label: Optional[str]) -> None:
        """Tag this thread's following spans with a request label."""
        self._state().request = label

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the bench's own code."""
        token = self.open(name)
        try:
            yield
        finally:
            self.close(token)

    def open(self, name: str) -> Tuple[_ThreadState, List[Any]]:
        state = self._state()
        frame = [name, time.perf_counter_ns(), 0]
        state.stack.append(frame)
        return state, frame

    def close(self, token: Tuple[_ThreadState, List[Any]]) -> int:
        state, frame = token
        end = time.perf_counter_ns()
        name, start, child_ns = frame
        duration = end - start
        state.stack.pop()
        parent = state.stack[-1] if state.stack else None
        totals = state.totals[name]
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - child_ns
        if parent is not None:
            parent[2] += duration
            state.nested[(parent[0], name)] += duration
        if name not in HOT:
            state.spans.append(
                (name, start, end, parent[0] if parent else None, state.request)
            )
        return duration

    # -- reading ---------------------------------------------------------
    def total_s(self, name: str) -> float:
        return sum(t.totals[name][1] for t in self._threads if name in t.totals) / 1e9

    def self_s(self, name: str) -> float:
        return sum(t.totals[name][2] for t in self._threads if name in t.totals) / 1e9

    def calls(self, name: str) -> int:
        return sum(t.totals[name][0] for t in self._threads if name in t.totals)

    def nested_s(self, parent: str, child: str) -> float:
        return sum(t.nested.get((parent, child), 0) for t in self._threads) / 1e9

    def spans(self) -> List[Tuple[str, int, int, Optional[str], Optional[str]]]:
        return sorted(s for t in self._threads for s in t.spans)

    def summary(self) -> List[Tuple[str, int, float, float]]:
        """(name, calls, total_s, self_s) for every span name seen."""
        names = sorted({n for t in self._threads for n in t.totals})
        return [(n, self.calls(n), self.total_s(n), self.self_s(n)) for n in names]

    def dump(self, path: Path) -> None:
        """Write every kept span as one JSON line (times in ns)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for name, start, end, parent, request in self.spans():
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )


def request(recorder: Optional[Recorder], name: str, label: str) -> Any:
    """A root span for one request of the workload loop (no-op untraced)."""
    if recorder is None:
        return contextlib.nullcontext()
    recorder.set_request(label)
    return recorder.span(name)


def _wrap(
    recorder: Recorder,
    name: str,
    fn: Callable[..., Any],
    after: Optional[Callable[..., None]] = None,
) -> Callable[..., Any]:
    """``fn`` inside a span; ``after(args, result, duration_ns)`` counts."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not recorder.enabled:
            return fn(*args, **kwargs)
        token = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = recorder.close(token)
        if after is not None:
            after(args, result, duration)
        return result

    return wrapper


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


@contextlib.contextmanager
def instrument(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap each layer's entry points with spans for the duration."""
    import repro.memory.hierarchy as hierarchy
    import repro.sampling.warmup as warmup
    import repro.sim.backends.base as backends_base
    import repro.sim.engine as engine
    import repro.sim.ledger as ledger
    import repro.sim.runner as runner
    import repro.sim.service as service
    import repro.sim.store as store
    import repro.sim.system as system
    from repro.sim.backends.local import InlineBackend, ThreadBackend
    from repro.sim.backends.process import ProcessBackend
    from repro.sim.backends.queue import QueueBackend

    rec = recorder
    patches = _Patches()

    def wrap(owner: Any, attr: str, name: str, after: Any = None) -> None:
        patches.replace(owner, attr, _wrap(rec, name, owner.__dict__[attr], after))

    # workloads: a trace cache miss builds the trace.
    cache_get = runner.TraceCache.__dict__["get"]

    @functools.wraps(cache_get)
    def traced_cache_get(cache: Any, *args: Any, **kwargs: Any) -> Any:
        if not rec.enabled:
            return cache_get(cache, *args, **kwargs)
        misses = cache.misses
        token = rec.open("workloads.trace_cache")
        try:
            return cache_get(cache, *args, **kwargs)
        finally:
            duration = rec.close(token)
            if cache.misses != misses:
                rec.count("workloads.traces")
                rec.count("workloads.build_ns", duration)

    patches.replace(runner.TraceCache, "get", traced_cache_get)

    # core: the cycle loop, single- or multi-core.
    def after_run(args: Any, result: Any, duration: int) -> None:
        sim = args[0]
        rec.count("core.sim_cycles", result.cycles)
        rec.count("core.trace_uops", sum(len(core.trace) for core in sim.cores))

    wrap(system.System, "run", "core.run", after_run)

    # memory: every transaction the cores and the functional warmer submit.
    wrap(hierarchy.MemoryHierarchy, "submit", "memory.submit")

    # sampling: the functional warm-up of a sampled cell to each offset.
    wrap(warmup.FunctionalWarmer, "snapshot", "sampling.warmup")

    # store: result entries and warm-image blobs.
    def after_get(args: Any, result: Any, duration: int) -> None:
        rec.count("store.hits" if result is not None else "store.misses")

    wrap(store.ResultStore, "get", "store.get", after_get)
    wrap(store.ResultStore, "get_entry", "store.get", after_get)
    wrap(store.ResultStore, "put", "store.put")
    wrap(store.ResultStore, "put_entry", "store.put")

    # engine: a grid, and each cell it executes.
    wrap(engine, "run_grid", "engine.run_grid")
    wrap(backends_base, "execute_run", "engine.cell")

    # backends: start, and submit -> settled.
    submitted: Dict[int, int] = {}

    def after_submit(args: Any, handle: Any, duration: int) -> None:
        submitted[id(handle)] = time.perf_counter_ns()
        rec.count("backends.tasks")

    def after_poll(args: Any, handles: Any, duration: int) -> None:
        now = time.perf_counter_ns()
        for handle in handles:
            sent = submitted.pop(id(handle), None)
            if sent is None:
                continue
            try:
                payload = handle.outcome()
            except Exception:  # a typed worker signal: no worker wall
                worker_s = 0.0
            else:
                worker_s = payload[2] if payload[0] == "ok" else payload[5]
            rec.count("backends.dispatch_ns", now - sent - worker_s * 1e9)

    for cls in (InlineBackend, ThreadBackend, ProcessBackend, QueueBackend):
        wrap(cls, "start", "backends.start")
        wrap(cls, "submit", "backends.submit", after_submit)
        wrap(cls, "poll", "backends.poll", after_poll)

    # service: accepted -> first cell event, and the ledger appends.
    accepted: Dict[str, int] = {}

    def after_accept(args: Any, result: Any, duration: int) -> None:
        job, replayed = result
        if not replayed:
            accepted[job.job_id] = time.perf_counter_ns()

    def traced_add_event(original: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(original)
        def add_event(job: Any, event: Dict[str, Any]) -> None:
            if rec.enabled and event.get("type") != "status":
                start = accepted.pop(job.job_id, None)
                if start is not None:
                    rec.count("service.queue_wait_ns", time.perf_counter_ns() - start)
            return original(job, event)

        return add_event

    wrap(service.SweepService, "submit_job", "service.accept", after_accept)
    patches.replace(
        service.Job, "add_event", traced_add_event(service.Job.__dict__["add_event"])
    )
    wrap(ledger.JobLedger, "record_submit", "ledger.append")
    wrap(ledger.JobLedger, "record_state", "ledger.append")

    # client: decoding a fetched SuiteResult.
    from_json = engine.SuiteResult.__dict__["from_json"].__func__
    patches.replace(
        engine.SuiteResult,
        "from_json",
        classmethod(_wrap(rec, "client.decode", from_json)),
    )
    try:
        yield rec
    finally:
        patches.restore()


def layer_metrics(rec: Recorder) -> Dict[str, float]:
    """The span-derived per-layer metrics (times in seconds)."""
    run_s = rec.total_s("core.run")
    trace_uops = rec.counts["core.trace_uops"]
    submit_in_run = rec.nested_s("core.run", "memory.submit")
    return {
        "workloads.build_s": rec.counts["workloads.build_ns"] / 1e9,
        "workloads.traces": rec.counts["workloads.traces"],
        "core.run_s": rec.self_s("core.run"),
        "core.ns_per_uop": 1e9 * run_s / trace_uops if trace_uops else 0.0,
        "core.sim_cycles": rec.counts["core.sim_cycles"],
        "memory.submit_s": rec.total_s("memory.submit"),
        "memory.submit_calls": rec.calls("memory.submit"),
        "memory.share": submit_in_run / run_s if run_s else 0.0,
        "sampling.warmup_s": rec.total_s("sampling.warmup"),
        "store.get_s": rec.total_s("store.get"),
        "store.put_s": rec.total_s("store.put"),
        "store.hits": rec.counts["store.hits"],
        "store.misses": rec.counts["store.misses"],
        "backends.start_s": rec.total_s("backends.start"),
        "backends.dispatch_s": rec.counts["backends.dispatch_ns"] / 1e9,
        "backends.tasks": rec.counts["backends.tasks"],
        "engine.overhead_s": rec.total_s("engine.run_grid")
        - rec.nested_s("engine.run_grid", "engine.cell"),
        "service.queue_wait_s": rec.counts["service.queue_wait_ns"] / 1e9,
        "ledger.append_s": rec.total_s("ledger.append"),
        "ledger.appends": rec.calls("ledger.append"),
        "client.decode_s": rec.total_s("client.decode"),
    }
