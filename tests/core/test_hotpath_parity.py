"""Parity gate for the cycle loop.

:class:`repro.core.pipeline.Core` is written for throughput, and must
stay *bit-identical* to the straightforward reference loop it replaced.
That reference is kept as data: goldens captured from it pin the cycle
count and every :class:`~repro.common.stats.StatSet` field of each cell
in ``tests/core/hotpath_driver.py`` (the 17-cell golden; the former
live A/B cells, bounded-timing cells and bench x scheme sweep), and the
full telemetry event stream of four traced cells by digest.
"""

import json

import pytest

from repro.common import SchemeKind, SystemParams
from repro.core.pipeline import Core
from repro.sim import System, TraceCache
from repro.telemetry.events import TelemetryConfig
from repro.workloads import build_trace, get_benchmark

from tests.core.hotpath_driver import (
    BOUNDED_KNOBS,
    CELLS,
    GOLDEN_PATH,
    REFERENCE_CELLS,
    REFERENCE_GOLDEN_PATH,
    SWEEP_CELLS,
    TRACED_CELLS,
    cell_key,
    run_one,
    run_traced,
)

_REFERENCE = json.load(open(REFERENCE_GOLDEN_PATH))


def _assert_matches_reference(cell, cache):
    """Run ``cell`` and compare it field-for-field with the reference."""
    key = cell_key(*cell)
    record = run_one(*cell, cache=cache)
    expected = _REFERENCE["runs"][key]
    assert record["cycles"] == expected["cycles"], key
    assert record["stats"] == expected["stats"], key
    assert record["per_core"] == expected["per_core"], key
    return record


class TestGoldenParity:
    """The loop reproduces the pre-optimization golden."""

    def test_every_golden_cell_is_bit_identical(self):
        golden = json.load(open(GOLDEN_PATH))["runs"]
        cache = TraceCache()
        for cell in CELLS:
            key = cell_key(*cell)
            record = run_one(*cell, cache=cache)
            expected = golden[key]
            assert record["cycles"] == expected["cycles"], key
            assert record["stats"] == expected["stats"], key
            assert record["per_core"] == expected["per_core"], key

    def test_reference_golden_covers_every_cell(self):
        assert set(_REFERENCE["runs"]) == {
            cell_key(*cell) for cell in REFERENCE_CELLS
        }
        assert set(_REFERENCE["traced"]) == {
            cell_key(*cell) for cell in TRACED_CELLS
        }


class TestBackendParity:
    """The loop agrees with the reference loop's captured runs."""

    @pytest.mark.parametrize(
        "scheme",
        [SchemeKind.UNSAFE, SchemeKind.STT_RECON, SchemeKind.DOM_RECON],
    )
    def test_legacy_vs_vector_single_core(self, scheme):
        _assert_matches_reference(
            ("spec2017", "mcf", scheme, 3000, 1, None), TraceCache()
        )

    def test_legacy_vs_vector_multicore(self):
        _assert_matches_reference(
            ("parsec", "canneal", SchemeKind.STT_RECON, 2400, 2, None),
            TraceCache(),
        )

    def test_randomized_config_parity(self):
        """Every bench x scheme pair of the sweep, at a seeded length."""
        cells = SWEEP_CELLS
        assert len({(bench, scheme) for _, bench, scheme, *_ in cells}) == 24
        assert all(400 <= length <= 1600 for _, _, _, length, *_ in cells)
        cache = TraceCache()
        for cell in cells:
            _assert_matches_reference(cell, cache)


class TestBoundedTimingParity:
    """A bounded timing knob sends every access through ``submit``.

    Each cell bounds one :class:`MemoryTimingParams` knob; the reference
    loop submitted every access as a transaction, so any access the loop
    wrongly kept off the transaction engine would miss its port, MSHR,
    link or DRAM queueing and change the stats.
    """

    @pytest.mark.parametrize("knob, value, stall_field", BOUNDED_KNOBS)
    def test_legacy_vs_vector_with_one_bound(self, knob, value, stall_field):
        record = _assert_matches_reference(
            ("parsec", "canneal", SchemeKind.STT_RECON, 2400, 2, (knob, value)),
            TraceCache(),
        )
        # The bound actually bit: the cell is not contention-free in effect.
        assert record["stats"][stall_field] > 0


class TestTracedEventStream:
    """Traced runs emit the reference loop's event stream, event for event.

    A hook placed one phase early or late reorders the stream without
    moving any stat; the digests catch that.
    """

    @pytest.mark.parametrize(
        "cell", TRACED_CELLS, ids=[cell_key(*cell) for cell in TRACED_CELLS]
    )
    def test_event_stream_digest_matches_reference(self, cell):
        record = run_traced(*cell, cache=TraceCache())
        assert record == _REFERENCE["traced"][cell_key(*cell)]


class TestTelemetryGuard:
    """Traced and untraced runs build the same loop."""

    def test_system_with_telemetry_uses_reference_core(self):
        profile = get_benchmark("spec2017", "gcc")
        traces = [build_trace(profile, 300).trace()]
        system = System(
            SystemParams(), traces, SchemeKind.UNSAFE,
            telemetry=TelemetryConfig(),
        )
        assert all(type(core) is Core for core in system.cores)
        assert all(core.telemetry is system.telemetry for core in system.cores)

    def test_system_without_telemetry_uses_fast_backend(self):
        profile = get_benchmark("spec2017", "gcc")
        traces = [build_trace(profile, 300).trace()]
        system = System(SystemParams(), traces, SchemeKind.UNSAFE)
        assert all(type(core) is Core for core in system.cores)
        assert not any(core.telemetry.enabled for core in system.cores)
