"""Start-up import budget: each entry point loads only what it runs.

Every check runs in a fresh interpreter.  ``test_documentation``
imports every module in-process, so ``sys.modules`` of the test run
says nothing about what an entry point loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Loaded only by a process that simulates.
SIMULATOR = ("repro.core.pipeline", "repro.memory.hierarchy")


def _env(**extra):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


def _loaded(stderr):
    """Module names from a ``-X importtime`` log."""
    names = set()
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            names.add(line.rsplit("|", 1)[1].strip())
    return names


def _python(code):
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def _cli(args, cwd, store):
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", *args],
        cwd=cwd,
        env=_env(REPRO_STORE=str(store), REPRO_JOBS="2"),
        capture_output=True,
        text=True,
        timeout=300,
        stdin=subprocess.DEVNULL,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stderr, _loaded(result.stderr)


def test_public_imports_load_no_simulator(tmp_path):
    code = (
        "import json, sys\n"
        "import repro, repro.sim, repro.api\n"
        "from repro.sim import ResultStore, RunConfig, TraceCache\n"
        "RunConfig(cache=TraceCache())\n"
        f"ResultStore({str(tmp_path)!r})\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    loaded = set(json.loads(_python(code)))
    unwanted = {"numpy", "asyncio", "repro.sim.service", "repro.security", *SIMULATOR}
    assert not loaded & unwanted, sorted(loaded & unwanted)


def test_process_pool_imports_simulator_before_forking():
    code = (
        "import sys\n"
        "from repro.sim.backends.process import ProcessBackend\n"
        "backend = ProcessBackend(workers=1)\n"
        "assert 'repro.core.pipeline' not in sys.modules\n"
        "backend.start()\n"
        "print('repro.core.pipeline' in sys.modules)\n"
        "backend.shutdown()\n"
    )
    assert _python(code).strip() == "True"


def test_lazy_names_resolve_and_list():
    import repro
    import repro.sim

    assert repro.System is repro.sim.System
    assert repro.sim.EventQueue.__module__ == "repro.common.events"
    for module in (repro, repro.sim):
        assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError):
        repro.sim.no_such_name


def test_warm_suite_loads_no_simulator(tmp_path):
    args = ["run", "suite", "spec2017", "--length", "300", "--schemes", "unsafe"]
    store = tmp_path / "store"
    cold, cold_loaded = _cli(args, tmp_path, store)
    assert "store hits 0/16" in cold
    # A run that simulates does load the simulator.
    assert set(SIMULATOR) <= cold_loaded

    warm, warm_loaded = _cli(args, tmp_path, store)
    assert "store hits 16/16" in warm
    assert not warm_loaded & {"numpy", *SIMULATOR}, sorted(
        warm_loaded & {"numpy", *SIMULATOR}
    )
