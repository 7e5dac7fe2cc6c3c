"""Detached worker for the queue backend (``python -m`` entry point).

Runs as ``python -m repro.sim.backends.queue_worker <spool> <wid>``: a
plain subprocess with no pipe back to the parent — every interaction
goes through the spool directory, which is what lets a fleet of these
run on any host that can see the filesystem.

Loop: heartbeat, honor the ``stop`` sentinel, lease one task (own
sub-queue first, then steal from any other — including sub-queues of
dead workers, which is how orphaned work is rescued), run it through
the universal :func:`~repro.sim.backends.base.run_task` envelope, spool
the result atomically, release the lease.  Ok results are additionally
pushed through the content-hash result store when the spool config
names one, so a fleet shares one memoized result set.

The worker marks itself with
:func:`~repro.sim.chaos.mark_worker_process`, so an injected ``crash``
fault takes the *process* down (exit code 23) exactly like a pool
worker — the lease it leaves behind names the task its death settles.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Optional, Tuple

HEARTBEAT_INTERVAL_S = 1.0
IDLE_SLEEP_S = 0.02


def _beat(spool: Path, wid: str) -> None:
    hb = spool / "workers" / f"{wid}.hb"
    try:
        with open(hb, "w") as fh:
            fh.write(f"{time.time():.3f}\n")
    except OSError:
        pass


def _lease_one(
    spool: Path, wid: str
) -> Optional[Tuple[str, Path, bool]]:
    """Claim one task file via atomic rename; own queue first."""
    tasks = spool / "tasks"
    try:
        dirs = sorted(d for d in tasks.iterdir() if d.is_dir())
    except OSError:
        return None
    dirs.sort(key=lambda d: d.name != wid)  # stable: own sub-queue first
    for queue_dir in dirs:
        for path in sorted(queue_dir.glob("*.task")):
            task_id = path.stem
            lease = spool / "leases" / f"{wid}--{task_id}.task"
            try:
                os.rename(path, lease)
            except OSError:
                continue  # lost the race to another worker
            return task_id, lease, queue_dir.name != wid
    return None


def _spool_result(spool: Path, task_id: str, meta: dict) -> None:
    results = spool / "results"
    blob = pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL)
    fd, tmp = tempfile.mkstemp(dir=str(results), suffix=".tmp")
    with os.fdopen(fd, "wb") as fh:
        fh.write(blob)
    os.rename(tmp, results / f"{task_id}.pkl")


def main(argv: Any = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 2:
        print(
            "usage: python -m repro.sim.backends.queue_worker SPOOL WID",
            file=sys.stderr,
        )
        return 2
    spool, wid = Path(argv[0]), argv[1]

    from repro.sim.backends.base import executor_cache, run_task
    from repro.sim.chaos import mark_worker_process

    mark_worker_process()
    store = None
    try:
        config = json.loads((spool / "config.json").read_text())
    except (OSError, ValueError):
        config = {}
    if config.get("store_root"):
        from repro.sim.store import ResultStore

        store = ResultStore(Path(config["store_root"]))

    cache = executor_cache()
    last_beat = 0.0
    while True:
        now = time.time()
        if now - last_beat >= HEARTBEAT_INTERVAL_S:
            _beat(spool, wid)
            last_beat = now
        if (spool / "stop").exists():
            return 0
        leased = _lease_one(spool, wid)
        if leased is None:
            time.sleep(IDLE_SLEEP_S)
            continue
        task_id, lease, stolen = leased
        lease_start = time.monotonic()
        payload: Any = None
        try:
            spec, attempt = pickle.loads(lease.read_bytes())
        except Exception:
            # Unreadable task blob: spool a malformed payload; the
            # supervisor's envelope parser turns it into a corrupt-
            # payload failure with the task still attributed.
            spec = None
        if spec is not None:
            payload = run_task(spec, attempt, cache=cache)
            if (
                store is not None
                and isinstance(payload, tuple)
                and payload
                and payload[0] == "ok"
                and spec.telemetry is None
                and spec.chaos is None
            ):
                try:
                    store.put(spec.key(), payload[1])
                except Exception:
                    pass  # the spooled envelope is the source of truth
        _spool_result(
            spool,
            task_id,
            {
                "payload": payload,
                "wid": wid,
                "pid": os.getpid(),
                "stolen": stolen,
                "lease_age_s": time.monotonic() - lease_start,
            },
        )
        try:
            lease.unlink()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
