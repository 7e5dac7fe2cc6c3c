"""Serve-sweep workload: a closed loop of clients against ``repro serve``.

The service runs as its own process (``python -m repro serve``) with a
durable ``--state-dir`` ledger, the ``process`` backend with two workers
and an empty result store.  Each of ``CLIENTS`` threads submits a small
suite of short-trace cells with ``repro.api.submit_suite``, waits for it
with ``repro.api.result`` and only then submits the next one.  Every
``REPEAT_EVERY``-th job of a client resubmits one of its earlier suites,
so the store serves reads beside writes.  That share is an assumption:
there is no record of real service traffic to take it from.  A traced
run prints the store-hit share it produced.  The wire format carries no
profile seed, so the benchmark seed picks the request sequence.

A job's latency runs from the submit call until the decoded
``SuiteResult`` is in hand.  ``result`` polls every ``POLL_S`` seconds,
so a latency overstates the service's by at most that interval.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import itertools
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro import SchemeKind
from repro.api import RunRequest, result, submit_suite
from repro.sim import RunConfig, TraceCache
from repro.workloads import get_benchmark, spec2017_suite

from perfbench import spans
from perfbench.grid import SCHEMES

CLIENTS = 2
CELLS_PER_JOB = 6
#: One job in REPEAT_EVERY resubmits an earlier suite (an assumed share).
REPEAT_EVERY = 4
#: Cell trace lengths: LENGTH_BASE + 2k + client, so clients never share
#: a cell and a client's first request for a cell is always a store miss.
LENGTH_BASE = 1200
LENGTH_STEPS = 300
POLL_S = 0.01
#: The service's execution settings, for the spawned and the hosted copy.
SERVE_BACKEND = "process"
SERVE_WORKERS = 2
SERVE_CONCURRENCY = 2

Cell = Tuple[str, str, int]  # (benchmark, scheme, length)


@dataclasses.dataclass(frozen=True)
class PlannedJob:
    client: int
    index: int
    cells: Tuple[Cell, ...]
    #: Index of the earlier job this one resubmits, or ``None``.
    repeat_of: Optional[int]


def job_sequence(seed: int, client: int) -> Iterator[PlannedJob]:
    """The endless, seed-determined job sequence of one client."""
    rng = random.Random(f"serve-sweep:{seed}:{client}")
    names = [p.name for p in spec2017_suite()]
    fresh: List[int] = []
    jobs: Dict[int, Tuple[Cell, ...]] = {}
    used = set()
    for index in itertools.count():
        if index % REPEAT_EVERY == REPEAT_EVERY - 1:
            earlier = fresh[rng.randrange(len(fresh))]
            yield PlannedJob(client, index, jobs[earlier], earlier)
            continue
        cells: List[Cell] = []
        pairs = set()
        while len(cells) < CELLS_PER_JOB:
            bench, scheme = rng.choice(names), rng.choice(SCHEMES).value
            length = LENGTH_BASE + 2 * rng.randrange(LENGTH_STEPS) + client
            # A suite result maps (benchmark, scheme) to one cell.
            if (bench, scheme) in pairs or (bench, scheme, length) in used:
                continue
            pairs.add((bench, scheme))
            used.add((bench, scheme, length))
            cells.append((bench, scheme, length))
        jobs[index] = tuple(cells)
        fresh.append(index)
        yield PlannedJob(client, index, jobs[index], None)


@dataclasses.dataclass
class JobOutcome:
    planned: PlannedJob
    latency_s: float
    submit_s: float = 0.0
    result_s: float = 0.0
    #: Per cell, every StatSet counter plus cycles (``None`` if it failed).
    stats: Optional[List[Optional[Dict[str, int]]]] = None
    error: Optional[str] = None
    refused: bool = False


def _client(
    url: str,
    seed: int,
    client: int,
    deadline: Optional[float],
    count: Optional[int],
    out: List[JobOutcome],
    recorder: Optional[spans.Recorder],
) -> None:
    for planned in itertools.islice(job_sequence(seed, client), count):
        if deadline is not None and time.perf_counter() >= deadline:
            return
        requests = [
            RunRequest(benchmark=f"spec2017/{bench}", scheme=scheme, length=length)
            for bench, scheme, length in planned.cells
        ]
        t0 = time.perf_counter()
        label = f"client{client}-job{planned.index}"
        try:
            with spans.request(recorder, "bench.job", label):
                job_id = submit_suite(requests, url=url, busy_wait_s=0)
                t1 = time.perf_counter()
                suite = result(job_id, url=url, interval_s=POLL_S, timeout_s=120)
        except Exception as exc:  # failed and refused jobs are data
            message = f"{type(exc).__name__}: {exc}"
            out.append(
                JobOutcome(
                    planned,
                    time.perf_counter() - t0,
                    error=message,
                    refused="(429)" in message or "(503)" in message,
                )
            )
            continue
        t2 = time.perf_counter()
        stats: List[Optional[Dict[str, int]]] = []
        for bench, scheme, _ in planned.cells:
            cell = suite.get(bench, SchemeKind(scheme))
            stats.append(
                None if cell is None else dict(cell.stats.as_dict(), cycles=cell.cycles)
            )
        out.append(JobOutcome(planned, t2 - t0, t1 - t0, t2 - t1, stats))


def drive(
    url: str,
    seed: int,
    *,
    seconds: Optional[float] = None,
    counts: Optional[Sequence[int]] = None,
    recorder: Optional[spans.Recorder] = None,
) -> Tuple[float, List[JobOutcome]]:
    """Run the closed loop; returns (wall seconds, outcomes in plan order)."""
    if (seconds is None) == (counts is None):
        raise ValueError("bound the run by exactly one of seconds or counts")
    outs: List[List[JobOutcome]] = [[] for _ in range(CLIENTS)]
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else None
    threads = [
        threading.Thread(
            target=_client,
            args=(
                url,
                seed,
                c,
                deadline,
                None if counts is None else counts[c],
                outs[c],
                recorder,
            ),
            name=f"perfbench-client-{c}",
        )
        for c in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    return wall, [job for out in outs for job in out]


def trace_lengths(jobs: Sequence[JobOutcome]) -> Dict[Tuple[str, int], int]:
    """Trace length of every (benchmark, length) the jobs asked for.

    Built as the server builds them, after the measured run.
    """
    cache = TraceCache(max_entries=1)
    lengths = {}
    for bench, _, length in sorted({c for j in jobs for c in j.planned.cells}):
        if (bench, length) not in lengths:
            traces = cache.get(get_benchmark("spec2017", bench), 1, length)
            lengths[(bench, length)] = len(traces[0])
    return lengths


def failures(
    jobs: Sequence[JobOutcome], lengths: Dict[Tuple[str, int], int]
) -> List[str]:
    """One message per failed job.

    A job fails when it raised or was refused, when a requested cell is
    missing from its result, when a cell did not commit its measured
    trace, or when a resubmitted suite differs from its first run.
    """
    first = {
        (j.planned.client, j.planned.index): j.stats
        for j in jobs
        if j.planned.repeat_of is None and j.stats is not None
    }
    messages = []
    for job in jobs:
        tag = f"client {job.planned.client} job {job.planned.index}"
        if job.error is not None:
            messages.append(f"{tag}: {job.error}")
            continue
        assert job.stats is not None
        problems = []
        for cell, stats in zip(job.planned.cells, job.stats):
            bench, _, length = cell
            expected = lengths[(bench, length)] - RunConfig().resolved_warmup(length)
            if stats is None:
                problems.append(f"{cell} missing")
            elif stats["committed_uops"] != expected:
                problems.append(f"{cell} committed {stats['committed_uops']} of {expected}")
        if job.planned.repeat_of is not None:
            original = first.get((job.planned.client, job.planned.repeat_of))
            if original is not None and original != job.stats:
                problems.append(f"differs from job {job.planned.repeat_of}")
        if problems:
            messages.append(f"{tag}: " + "; ".join(problems))
    return messages


def simulated_uops(
    jobs: Sequence[JobOutcome], lengths: Dict[Tuple[str, int], int]
) -> int:
    """Trace uops of every first-time cell the clients got back."""
    return sum(
        lengths[(bench, length)]
        for j in jobs
        if j.error is None and j.planned.repeat_of is None
        for bench, _, length in j.planned.cells
    )


# -- the service -----------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ServeProcess:
    """``python -m repro serve`` on a fresh store and state directory."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""

    def start(self, timeout_s: float = 60.0) -> float:
        """Spawn the service; returns seconds until ``/readyz`` said 200."""
        self.root.mkdir(parents=True)
        port = _free_port()
        self.url = f"http://127.0.0.1:{port}"
        env = dict(os.environ, REPRO_STORE=str(self.root / "store"))
        log = open(self.root / "serve.log", "wb")
        t0 = time.perf_counter()
        with log:
            # Its own session, so a stuck service and its pool workers can
            # be killed as one process group.
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
                 "--port", str(port), "--state-dir", str(self.root / "state"),
                 "--backend", SERVE_BACKEND, "--jobs", str(SERVE_WORKERS),
                 "--max-concurrent", str(SERVE_CONCURRENCY)],
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        while time.perf_counter() - t0 < timeout_s:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.proc.returncode}: "
                    + (self.root / "serve.log").read_text()[-2000:]
                )
            try:
                with urllib.request.urlopen(self.url + "/readyz", timeout=1) as r:
                    if r.status == 200:
                        return time.perf_counter() - t0
            except (urllib.error.URLError, OSError):
                pass
            time.sleep(0.005)
        raise RuntimeError(f"repro serve not ready after {timeout_s:.0f}s")

    def stop(self) -> None:
        """SIGINT is ``repro serve``'s graceful shutdown; kill it if it hangs."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()


@contextlib.contextmanager
def spawned(root: Path, setup_samples: int) -> Iterator[Tuple[str, List[float]]]:
    """Start the service ``setup_samples`` times; the last one serves.

    Yields its URL and every start-to-ready time.
    """
    setup: List[float] = []
    server = None
    try:
        for k in range(setup_samples):
            if server is not None:
                server.stop()
            server = ServeProcess(root / f"serve{k}")
            setup.append(server.start())
        yield server.url, setup
    finally:
        if server is not None:
            server.stop()


@contextlib.contextmanager
def hosted(root: Path) -> Iterator[str]:
    """The same service inside this process, so its layers can be traced."""
    from repro.sim.service import SweepService

    root.mkdir(parents=True)
    os.environ["REPRO_STORE"] = str(root / "store")
    service = SweepService(
        jobs=SERVE_WORKERS,
        backend=SERVE_BACKEND,
        max_concurrent=SERVE_CONCURRENCY,
        state_dir=root / "state",
    )
    loop = asyncio.new_event_loop()
    server = loop.run_until_complete(
        asyncio.start_server(service.handle, "127.0.0.1", 0)
    )
    port = server.sockets[0].getsockname()[1]
    thread = threading.Thread(target=loop.run_forever, name="perfbench-serve")
    thread.start()
    try:
        yield f"http://127.0.0.1:{port}"
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join()
        server.close()
        loop.run_until_complete(server.wait_closed())
        tasks = asyncio.all_tasks(loop)
        for task in tasks:
            task.cancel()
        if tasks:
            loop.run_until_complete(asyncio.wait(tasks))
        loop.close()
        service.close()
