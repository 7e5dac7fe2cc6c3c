"""Table 1 — memory-dependence prediction cases for store-to-load
forwarding (the Figure 2 gadget).

The gadget, executing under an unresolved bounds check:

    PC1: load  r2, [r1]     ; speculative (potential secret)
    PC2: store r3, [r2]     ; address depends on the secret: unresolved
    PC3: load  r5, [r4]     ; [r4] was revealed non-speculatively
    PC4: load  r6, [r5]     ; dereferences PC3's value

Each of PC3/PC4 can be predicted independent (MEM) or store-dependent
(STF).  Paper result (Table 1): STT observes at most ``ld [r4]``; ReCon
additionally observes ``ld [r5]`` *only* in the MEM/MEM case — and that
observation leaks nothing new, because [r4] already leaked
non-speculatively.
"""

import pytest

from repro import Program, SchemeKind, StatSet, SystemParams
from repro.common import MemPrediction
from repro.core import Core
from repro.memory import MemoryHierarchy
from repro.security import make_policy
from repro.sim import format_table
from repro.telemetry import TelemetryCollector, TelemetryConfig
from repro.telemetry.events import CAT_SECURITY

from benchmarks.common import emit

SLOW = 0x40000
SECRET_PTR = 0x6000   # r1: concealed (never revealed)
PUBLIC_PTR = 0x1000   # r4: revealed by non-speculative execution
CASES = [
    ("1", MemPrediction.MEM, MemPrediction.MEM),
    ("2", MemPrediction.MEM, MemPrediction.STF),
    ("3", MemPrediction.STF, MemPrediction.MEM),
    ("4", MemPrediction.STF, MemPrediction.STF),
]


def _build(pc3_pred, pc4_pred):
    prog = Program()
    prog.poke(SECRET_PTR, 0x7000)
    prog.poke(PUBLIC_PTR, 0x2000)
    # Non-speculative execution reveals [r4] (a committed load pair),
    # then serializes so the reveal lands before the gadget dispatches.
    prog.li(4, PUBLIC_PTR)
    prog.load(5, base=4)
    prog.load(6, base=5)
    prog.branch(6, mispredict=True)
    # The bounds check: unresolved while the gadget body executes.
    prog.li(8, SLOW)
    prog.load(9, base=8)
    prog.branch(9)
    # The gadget.
    prog.li(1, SECRET_PTR)
    prog.li(3, 0xAB)
    pc1 = prog.load(2, base=1)                       # PC1
    prog.store(3, base=2)                            # PC2 (unresolved)
    pc3 = prog.load(5, base=4, forced_prediction=pc3_pred)   # PC3
    pc4 = prog.load(6, base=5, forced_prediction=pc4_pred)   # PC4
    return prog, pc3, pc4


def _observed(scheme, pc3_pred, pc4_pred):
    prog, pc3_seq, pc4_seq = _build(pc3_pred, pc4_pred)
    params = SystemParams()
    stats = StatSet()
    core = Core(
        0,
        params,
        prog.trace(),
        MemoryHierarchy(params),
        make_policy(scheme, stats),
        stats,
        telemetry=TelemetryCollector(TelemetryConfig(categories={CAT_SECURITY})),
    )
    core.run()
    # bit 1 of an observe event: issued under a speculation shadow.
    speculative = {
        ev.seq
        for ev in core.telemetry.events
        if ev.kind == "observe" and ev.value & 2
    }
    return pc3_seq in speculative, pc4_seq in speculative


def _fmt(pc3, pc4):
    return f"{'ld [r4]' if pc3 else '—':8s}, {'ld [r5]' if pc4 else '—'}"


def _run():
    rows = []
    outcomes = {}
    for label, pc3_pred, pc4_pred in CASES:
        stt = _observed(SchemeKind.STT, pc3_pred, pc4_pred)
        recon = _observed(SchemeKind.STT_RECON, pc3_pred, pc4_pred)
        outcomes[label] = (stt, recon)
        rows.append(
            [
                label,
                pc3_pred.value.upper(),
                pc4_pred.value.upper(),
                _fmt(*stt),
                _fmt(*recon),
            ]
        )
    table = format_table(
        ["case", "PC3", "PC4", "STT observation", "ReCon observation"], rows
    )
    return table, outcomes


def test_table1_store_forwarding_cases(benchmark):
    table, outcomes = benchmark.pedantic(_run, rounds=1, iterations=1)
    emit(
        "table1_stlf",
        "Table 1: memory-dependence prediction cases (Figure 2 gadget)",
        table,
    )
    # Case 1 (MEM/MEM): STT observes only ld [r4]; ReCon also ld [r5].
    assert outcomes["1"][0] == (True, False)
    assert outcomes["1"][1] == (True, True)
    # Case 2 (MEM/STF): forwarding conceals; ld [r5] hidden in both.
    assert outcomes["2"][0] == (True, False)
    assert outcomes["2"][1] == (True, False)
    # Cases 3-4 (PC3 predicted STF): nothing is observed in either.
    for case in ("3", "4"):
        assert outcomes[case][0] == (False, False)
        assert outcomes[case][1] == (False, False)
