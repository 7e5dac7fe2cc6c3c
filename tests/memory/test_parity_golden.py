"""Contention-free parity against the pre-refactor golden.

The port/MSHR transaction engine must reproduce the legacy
atomic latency-summing hierarchy *exactly* when every contention knob
is left unbounded (the default ``MemoryTimingParams``).  The golden in
``tests/data/memory_parity_golden.json`` was captured from the
pre-refactor model by ``scripts/capture_memory_golden.py``; these tests
re-run the identical deterministic stimulus on the current engine and
compare every latency, outcome, and counter.  Each stimulus also runs
traced (a live collector on the hierarchy), which sends every access,
private hits included, through ``MemoryHierarchy.submit``.
"""

import json
from pathlib import Path

import pytest

from repro.telemetry.events import CAT_MEM_TXN, TelemetryCollector
from tests.memory.parity_driver import (
    ACCESS_CONFIGS,
    GOLDEN_PATH,
    RUN_CELLS,
    drive_accesses,
    run_cells,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def golden():
    return json.loads((REPO_ROOT / GOLDEN_PATH).read_text())


class TestAccessParity:
    @pytest.mark.parametrize(
        "name, traced",
        [pytest.param(name, False, id=name) for name in ACCESS_CONFIGS]
        + [
            pytest.param(name, True, id=f"{name}-traced")
            for name in ACCESS_CONFIGS
        ],
    )
    def test_access_stream_matches_golden(self, golden, name, traced):
        expected = golden["accesses"][name]
        telemetry = TelemetryCollector() if traced else None
        actual = drive_accesses(name, telemetry=telemetry)
        assert len(actual) == len(expected)
        for index, (got, want) in enumerate(zip(actual, expected)):
            assert got == want, f"{name} record {index}: {got} != {want}"
        if traced:
            # One mem_txn event per access: the trailing five records
            # are end-of-run counters, not accesses.
            txns = [e for e in telemetry.events if e.category == CAT_MEM_TXN]
            assert len(txns) == len(actual) - 5


class TestBenchmarkParity:
    def test_benchmark_cells_match_golden(self, golden):
        expected = golden["runs"]
        actual = run_cells()
        assert set(actual) == set(expected)
        for label in expected:
            assert actual[label]["cycles"] == expected[label]["cycles"], label
            want_stats = expected[label]["stats"]
            got_stats = actual[label]["stats"]
            for key, value in want_stats.items():
                assert got_stats.get(key) == value, f"{label}: {key}"

    def test_golden_covers_every_cell(self, golden):
        # Guards against the golden file silently going stale when cells
        # are added to the driver without re-capturing.
        assert len(golden["runs"]) == len(RUN_CELLS)
        assert set(golden["accesses"]) == set(ACCESS_CONFIGS)
