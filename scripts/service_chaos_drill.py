#!/usr/bin/env python3
"""Kill -9 the sweep service mid-suite; prove the restart loses nothing.

The CI ``service-chaos`` gate (and anyone auditing the durability
claims in docs/robustness.md) runs this drill:

1. compute the **reference** ``SuiteResult`` for a small suite in-process
   (no service involved);
2. start ``repro serve`` on the chosen ``--backend`` with a durable
   state dir and deterministic service chaos that SIGKILLs the process
   after its Nth completed cell;
3. submit the suite and wait for the service to die mid-run, recording
   the service's child processes (its pool workers) meanwhile, and
   require every one of them to be gone 5 s after the SIGKILL;
4. restart the service (no chaos) on the same state dir and store;
5. wait for the recovered job to finish and fetch its result;
6. assert the served grid is **bit-identical** to the reference — same
   sorted ``results`` section, exactly one record per cell (nothing
   lost, nothing run twice), and no failures.

Exit status 0 on success; on failure the ledger and server logs are
dumped to stderr so the CI artifact tells the whole story.

Usage::

    python scripts/service_chaos_drill.py --work results/.chaos-drill
    python scripts/service_chaos_drill.py --backend process
"""

import argparse
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(1, str(REPO_ROOT))

from repro.api import (  # noqa: E402
    RunRequest,
    ServiceUnavailableError,
    poll,
    result,
    run_suite,
    submit_suite,
)
from tests.helpers import process_alive  # noqa: E402

SCHEMES = ("unsafe", "stt", "stt+recon")
BENCH = "spec2017/mcf"

#: How long orphaned workers may outlive a SIGKILLed service.
ORPHAN_GRACE_S = 5.0


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_health(url: str, deadline_s: float = 30.0) -> None:
    import urllib.request

    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(f"{url}/healthz", timeout=2):
                return
        except OSError:
            time.sleep(0.1)
    raise RuntimeError(f"service at {url} never became healthy")


def child_pids(pid: int) -> set:
    """The current children of every thread of process ``pid``."""
    children = set()
    for path in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            children.update(int(c) for c in path.read_text().split())
        except OSError:
            pass  # the thread or process just exited
    return children


def start_server(
    port: int,
    state_dir: Path,
    store_dir: Path,
    log: Path,
    backend: str,
    chaos: str = "",
) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_STORE"] = str(store_dir)
    env.pop("REPRO_SERVE_CHAOS", None)
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--host", "127.0.0.1", "--port", str(port),
        "--backend", backend,
        "--state-dir", str(state_dir),
    ]
    if chaos:
        cmd += ["--chaos", chaos]
    handle = open(log, "ab")
    return subprocess.Popen(
        cmd, stdout=handle, stderr=subprocess.STDOUT, cwd=str(REPO_ROOT),
        env=env,
    )


def sorted_results(payload: dict) -> list:
    return sorted(
        payload["results"], key=lambda cell: (cell["bench"], cell["scheme"])
    )


def dump_state(state_dir: Path, log: Path) -> None:
    ledger = state_dir / "ledger.jsonl"
    print("--- server log ---", file=sys.stderr)
    if log.exists():
        sys.stderr.write(log.read_text(errors="replace"))
    print("--- ledger ---", file=sys.stderr)
    if ledger.exists():
        sys.stderr.write(ledger.read_text(errors="replace"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--work",
        default="results/.chaos-drill",
        help="scratch directory (state dir, store, logs); wiped first",
    )
    parser.add_argument("--length", type=int, default=300)
    parser.add_argument(
        "--kill-after", type=int, default=2,
        help="SIGKILL the service after this many completed cells",
    )
    parser.add_argument("--timeout", type=float, default=180.0)
    parser.add_argument(
        "--backend", default="inline", choices=("inline", "process"),
        help="the service's execution backend (process forks pool workers)",
    )
    args = parser.parse_args()

    work = Path(args.work)
    shutil.rmtree(work, ignore_errors=True)
    state_dir = work / "state"
    store_dir = work / "store"
    log = work / "serve.log"
    work.mkdir(parents=True, exist_ok=True)

    requests = [RunRequest(BENCH, scheme, args.length) for scheme in SCHEMES]
    if not 0 < args.kill_after < len(requests):
        print(
            f"--kill-after must be in (0, {len(requests)}) so the kill "
            "lands mid-suite",
            file=sys.stderr,
        )
        return 2

    print(f"[drill] reference run: {len(requests)} cells in-process")
    reference = json.loads(run_suite(requests, store=False).to_json())

    port = free_port()
    url = f"http://127.0.0.1:{port}"
    chaos = f"seed=1,kill_after_cells={args.kill_after}"
    print(
        f"[drill] starting chaosed {args.backend} service on {url} ({chaos})"
    )
    proc = start_server(
        port, state_dir, store_dir, log, args.backend, chaos=chaos
    )
    workers = set()
    try:
        wait_health(url)
        job = submit_suite(requests, url=url, busy_wait_s=30.0)
        print(f"[drill] submitted {job}; waiting for the SIGKILL")
        deadline = time.monotonic() + args.timeout
        while proc.poll() is None and time.monotonic() < deadline:
            workers |= child_pids(proc.pid)
            time.sleep(0.01)
        if proc.poll() is None:
            print("[drill] FAIL: chaos kill never fired", file=sys.stderr)
            dump_state(state_dir, log)
            proc.kill()
            return 1
        if proc.returncode != -signal.SIGKILL:
            print(
                f"[drill] FAIL: service exited {proc.returncode}, "
                "expected SIGKILL",
                file=sys.stderr,
            )
            dump_state(state_dir, log)
            return 1
        print("[drill] service died by SIGKILL as planned")
    except BaseException:
        proc.kill()
        raise

    if args.backend == "process" and not workers:
        print(
            "[drill] FAIL: no pool worker was seen, so the drill "
            "did not cover one",
            file=sys.stderr,
        )
        return 1
    orphans = set(workers)
    grace_end = time.monotonic() + ORPHAN_GRACE_S
    while orphans and time.monotonic() < grace_end:
        orphans = {pid for pid in orphans if process_alive(pid)}
        time.sleep(0.05)
    if orphans:
        print(
            f"[drill] FAIL: service children {sorted(orphans)} outlived "
            f"the SIGKILL by {ORPHAN_GRACE_S:.0f}s",
            file=sys.stderr,
        )
        for pid in orphans:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        dump_state(state_dir, log)
        return 1
    print(
        f"[drill] all {len(workers)} service children died with it; "
        "restarting"
    )

    proc = start_server(port, state_dir, store_dir, log, args.backend)
    try:
        wait_health(url)
        deadline = time.monotonic() + args.timeout
        while True:
            try:
                status = poll(job, url=url)
            except ServiceUnavailableError:
                status = {"status": "unreachable"}
            if status.get("status") in ("done", "failed"):
                break
            if time.monotonic() > deadline:
                print(
                    f"[drill] FAIL: job stuck at {status}", file=sys.stderr
                )
                dump_state(state_dir, log)
                return 1
            time.sleep(0.25)
        if status["status"] != "done":
            print(f"[drill] FAIL: job ended {status}", file=sys.stderr)
            dump_state(state_dir, log)
            return 1
        if not status.get("recovered"):
            print(
                "[drill] FAIL: job did not come back via ledger recovery",
                file=sys.stderr,
            )
            dump_state(state_dir, log)
            return 1
        served = json.loads(
            result(job, url=url, timeout_s=args.timeout).to_json()
        )
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()

    failures = []
    if sorted_results(served) != sorted_results(reference):
        failures.append("served results grid differs from the reference run")
    cells = [(r["bench"], r["scheme"]) for r in served.get("records", [])]
    if len(cells) != len(requests):
        failures.append(
            f"expected {len(requests)} records, got {len(cells)} "
            "(lost or duplicated cells)"
        )
    if len(set(cells)) != len(cells):
        failures.append(f"duplicated cell records: {cells}")
    if served.get("failures"):
        failures.append(f"unexpected failures: {served['failures']}")
    if failures:
        for line in failures:
            print(f"[drill] FAIL: {line}", file=sys.stderr)
        dump_state(state_dir, log)
        return 1
    print(
        f"[drill] PASS: kill -9 after {args.kill_after} cells, restart, "
        f"resume -> bit-identical {len(requests)}-cell SuiteResult"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
