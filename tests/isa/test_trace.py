"""The columnar trace: materialized uops, slices, 64-bit fields, and the
cycle loop reading the columns with no per-uop records."""

from array import array

import pytest

from repro import SchemeKind
from repro.common import MemPrediction, OpClass, SystemParams
from repro.isa import MicroOp, Program, Trace, as_trace
from repro.isa import trace as trace_module
from repro.sim import TraceCache
from repro.sim.system import System
from repro.telemetry import TelemetryConfig
from repro.workloads import (
    get_benchmark,
    parsec_suite,
    spec2006_suite,
    spec2017_suite,
)
from repro.workloads.gadgets import gadget_profiles, get_gadget

#: Every field of a MicroOp record.
_FIELDS = MicroOp.__slots__

_TOP = (1 << 64) - 1


def _fields(uops):
    return [tuple(getattr(uop, name) for name in _FIELDS) for uop in uops]


def _threads(profile):
    if profile.suite == "gadgets":
        return (get_gadget(profile.name).threads,)
    return (1, 4) if profile.suite == "parsec" else (1,)


class TestMaterializedUops:
    @pytest.mark.parametrize(
        "profile",
        spec2017_suite() + spec2006_suite() + parsec_suite() + gadget_profiles(),
        ids=lambda profile: profile.label,
    )
    def test_equal_to_the_converted_microop_list(self, profile):
        for threads in _threads(profile):
            for trace in TraceCache().get(profile, threads, 600):
                uops = list(trace)
                converted = Trace.from_uops(uops)
                assert _fields(converted) == _fields(uops)
                assert _fields(trace[i] for i in range(len(trace))) == _fields(uops)
                assert converted.start == trace.start == uops[0].seq

    def test_conversion_keeps_every_field(self):
        uops = [
            MicroOp(OpClass.LOAD, dest=3, srcs=(1, 2), addr=0x40, value=9,
                    pc=0x10, forced_prediction=MemPrediction.STF),
            MicroOp(OpClass.STORE, srcs=(1,), data_srcs=(3,), addr=0x48, pc=0x14),
            MicroOp(OpClass.BRANCH, srcs=(3,), mispredict=True, pc=0x18),
            MicroOp(OpClass.ALU, dest=4, srcs=(1, 2, 3), addr=0x50, pc=0x1C),
            MicroOp(OpClass.NOP, pc=0x20),
        ]
        for position, uop in enumerate(uops):
            uop.seq = 7 + position
        trace = as_trace(uops)
        assert _fields(trace) == _fields(uops)
        assert as_trace(trace) is trace
        # Sequence numbers that do not run on from the first are renumbered.
        uops[2].seq = 99
        assert [uop.seq for uop in as_trace(uops)] == list(range(5))

    def test_static_table_is_shared_by_repeated_instructions(self):
        trace = TraceCache().get(get_benchmark("spec2017", "mcf"), 1, 30_000)[0]
        assert len(trace.statics) <= 256
        assert trace.index.typecode == "B"
        assert len(set(trace.statics)) == len(trace.statics)

    def test_index_column_widens_past_256_statics(self):
        prog = Program(arch_regs=300)
        for reg in range(300):
            prog.li(reg, reg)
        trace = prog.trace()
        assert len(trace.statics) == 300
        assert trace.index.typecode == "H"
        assert [uop.dest for uop in trace] == list(range(300))
        assert [uop.value for uop in trace] == list(range(300))

    def test_builders_return_the_position(self):
        prog = Program()
        assert [prog.li(1, 5), prog.nop(), prog.branch(1)] == [0, 1, 2]
        assert prog.ops[1].opclass is OpClass.NOP


class TestSlices:
    def test_slices_keep_absolute_seq(self):
        trace = TraceCache().get(get_benchmark("spec2017", "gcc"), 1, 2_000)[0]
        whole = _fields(trace)
        piece = trace[500:900]
        assert piece.start == 500
        assert [uop.seq for uop in piece] == list(range(500, 900))
        assert _fields(piece) == whole[500:900]
        inner = piece[100:110]
        assert [uop.seq for uop in inner] == list(range(600, 610))
        assert piece[-1].seq == 899
        assert _fields(trace[1_500:5_000]) == whole[1_500:]
        assert len(trace[900:500]) == 0

    def test_a_prefix_shares_the_columns(self):
        trace = TraceCache().get(get_benchmark("spec2017", "gcc"), 1, 2_000)[0]
        prefix = trace[:700]
        assert len(prefix) == 700
        for name in ("index", "pc", "addr", "value", "mispredict", "statics"):
            assert getattr(prefix, name) is getattr(trace, name)
        assert _fields(prefix) == _fields(trace)[:700]
        with pytest.raises(IndexError):
            prefix[700]

    def test_a_program_trace_grows_but_a_prefix_does_not(self):
        prog = Program()
        prog.li(1, 5)
        trace = prog.trace()
        prefix = trace[:1]
        prog.li(2, 6)
        assert len(trace) == 2 and len(prefix) == 1

    def test_steps_are_rejected(self):
        with pytest.raises(ValueError):
            Program().trace()[::2]


class TestSixtyFourBitFields:
    def test_top_half_values_round_trip(self):
        prog = Program(base_pc=1 << 63)
        top = _TOP - 7
        prog.poke(top, _TOP)
        prog.li(1, top)
        load = prog.ops[prog.load(2, base=1)]
        prog.store_abs(2, 1 << 63, pc=_TOP - 3)
        prog.nop()
        assert (load.addr, load.value, load.pc) == (top, _TOP, (1 << 63) + 4)
        uops = list(prog.trace())
        assert uops[2].addr == 1 << 63 and uops[2].pc == _TOP - 3
        assert uops[3].pc == (1 << 63) + 8
        assert _fields(Trace.from_uops(uops)) == _fields(uops)

    @pytest.mark.parametrize("bad", [-1, 1 << 64])
    def test_out_of_range_words_raise_value_error(self, bad):
        prog = Program()
        prog.li(1, 0x1000)
        calls = [
            lambda: prog.li(2, bad),
            lambda: prog.poke(0x2000, bad),
            lambda: prog.load_abs(2, bad),
            lambda: prog.store_abs(1, bad),
            lambda: prog.nop(pc=bad),
            lambda: prog.load(2, base=1, pc=bad),
            lambda: Program(base_pc=bad),
        ]
        for call in calls:
            with pytest.raises(ValueError):
                call()
        # Nothing was appended or changed by the failed calls.
        assert len(prog) == 1 and len(prog.trace().index) == 1
        assert prog.regs[2] == 0 and not prog.memory

    def test_out_of_range_microop_fields_raise_value_error(self):
        for uop in (
            MicroOp(OpClass.ALU, dest=1, value=1 << 64),
            MicroOp(OpClass.ALU, dest=1, value=-5),
            MicroOp(OpClass.LOAD, dest=1, addr=-8),
            MicroOp(OpClass.NOP, pc=1 << 64),
        ):
            with pytest.raises(ValueError):
                Trace.from_uops([uop])


def _cells():
    return [
        (get_benchmark("spec2017", "mcf"), 1, SchemeKind.STT_RECON),
        (get_benchmark("spec2017", "lbm"), 1, SchemeKind.DOM_RECON),
        (get_benchmark("spec2017", "xalancbmk"), 1, SchemeKind.STT_SPT),
        (get_benchmark("parsec", "canneal"), 4, SchemeKind.NDA_RECON),
    ]


class TestCycleLoopOnColumns:
    @pytest.mark.parametrize(
        "profile,threads,scheme",
        _cells(),
        ids=lambda cell: getattr(cell, "label", getattr(cell, "value", cell)),
    )
    def test_plain_list_and_columns_give_identical_stats(
        self, profile, threads, scheme
    ):
        traces = TraceCache().get(profile, threads, 3_000 // threads)
        params = SystemParams(num_cores=threads)

        def run(traces):
            result = System(params, traces, scheme, warmup_uops=300).run()
            return result.cycles, [stats.as_dict() for stats in result.per_core]

        assert run([list(trace) for trace in traces]) == run(traces)

    def test_commit_records_equal_the_trace(self, monkeypatch):
        from repro.security.spt import _SptMixin

        trace = TraceCache().get(get_benchmark("spec2017", "omnetpp"), 1, 1_500)[0]
        piece = trace[400:1_200]  # absolute seqs 400..1199
        seen = []
        on_commit = _SptMixin.on_commit

        def recording(policy, uop):
            seen.append(uop)
            on_commit(policy, uop)

        monkeypatch.setattr(_SptMixin, "on_commit", recording)

        class Sink:
            def __init__(self):
                self.uops = []

            def on_event(self, event):
                if event.kind == "commit" and event.uop is not None:
                    self.uops.append(event.uop)

        sink = Sink()
        system = System(
            SystemParams(),
            [piece],
            SchemeKind.STT_SPT,
            telemetry=TelemetryConfig(sample_rate=1),
        )
        system.telemetry.add_sink(sink)
        system.run()
        expected = _fields(piece)
        assert _fields(sink.uops) == expected
        assert _fields(seen) == expected
        assert seen[0].seq == 400

    def test_an_untraced_run_allocates_no_microop(self, monkeypatch):
        made = [0]
        new_op = trace_module._new_op
        init = MicroOp.__init__

        def counting_new(cls):
            made[0] += 1
            return new_op(cls)

        def counting_init(self, *args, **kwargs):
            made[0] += 1
            init(self, *args, **kwargs)

        traces = TraceCache().get(get_benchmark("parsec", "dedup"), 2, 1_000)
        monkeypatch.setattr(trace_module, "_new_op", counting_new)
        monkeypatch.setattr(MicroOp, "__init__", counting_init)
        for scheme in (SchemeKind.UNSAFE, SchemeKind.STT_RECON, SchemeKind.DOM):
            System(SystemParams(num_cores=2), traces, scheme).run()
        assert made[0] == 0
        # The probe sees the records a policy with on_commit is handed.
        System(SystemParams(num_cores=2), traces, SchemeKind.STT_SPT).run()
        assert made[0] == sum(map(len, traces))


def test_columns_are_typed_arrays():
    trace = Program().trace()
    assert isinstance(trace.index, array)
    for name in ("pc", "addr", "value"):
        assert getattr(trace, name).typecode == "Q"
    assert isinstance(trace.mispredict, bytearray)
