"""Tests for the SPT-lite continuous-tracking policies."""

from repro.common import SchemeKind, StatSet, SystemParams
from repro.core import Core
from repro.isa import Program
from repro.memory import MemoryHierarchy
from repro.security import SptNdaPolicy, SptSttPolicy, make_policy
from tests.helpers import observations, observer

PTR = 0x1000
SLOW = 0x40000


def run_with(policy_cls, prog):
    params = SystemParams()
    stats = StatSet()
    core = Core(
        0,
        params,
        prog.trace(),
        MemoryHierarchy(params),
        policy_cls(stats),
        stats,
        telemetry=observer(),
    )
    core.run()
    return core


def indirect_reveal_then_speculative_pair():
    """The pointer leaks *indirectly* (ALU in between): ReCon's LPT cannot
    see it, SPT's global DIFT can."""
    prog = Program()
    prog.poke(PTR, 0x2000)
    prog.li(1, PTR)
    prog.load(2, base=1)
    prog.add_imm(3, 2, 0)        # indirect
    prog.load(4, base=3)         # leaks PTR via DIFT only
    prog.branch(4, mispredict=True)  # serialize past commit
    prog.li(4, SLOW)
    prog.load(5, base=4)
    prog.branch(5)               # long shadow
    prog.li(1, PTR)
    prog.load(2, base=1)         # speculative
    transmit = prog.load(3, base=2)
    return prog, transmit


class TestSptTracking:
    def test_commit_stream_feeds_leak_map(self):
        prog = Program()
        prog.poke(PTR, 0x2000)
        prog.li(1, PTR)
        prog.load(2, base=1)
        prog.load(3, base=2)
        core = run_with(SptSttPolicy, prog)
        assert core.policy.word_is_public(PTR)
        assert core.policy.leaked_words == 1

    def test_store_conceals_in_leak_map(self):
        prog = Program()
        prog.poke(PTR, 0x2000)
        prog.li(1, PTR)
        prog.load(2, base=1)
        prog.load(3, base=2)
        prog.li(4, 7)
        prog.store(4, base=1)
        core = run_with(SptSttPolicy, prog)
        assert not core.policy.word_is_public(PTR)

    def test_spt_lifts_indirect_leakage_recon_cannot(self):
        prog, transmit = indirect_reveal_then_speculative_pair()
        spt_core = run_with(SptSttPolicy, prog)
        obs = [o for o in observations(spt_core) if o.seq == transmit]
        assert obs and obs[0].speculative  # SPT lifted the defense

        prog2, transmit2 = indirect_reveal_then_speculative_pair()
        params = SystemParams()
        stats = StatSet()
        recon_core = Core(
            0,
            params,
            prog2.trace(),
            MemoryHierarchy(params),
            make_policy(SchemeKind.STT_RECON, stats),
            stats,
            telemetry=observer(),
        )
        recon_core.run()
        obs2 = [o for o in observations(recon_core) if o.seq == transmit2]
        assert not obs2 or not obs2[0].speculative  # ReCon could not

    def test_spt_protects_never_leaked_secrets(self):
        prog = Program()
        prog.poke(PTR, 0x2000)
        prog.li(4, SLOW)
        prog.load(5, base=4)
        prog.branch(5)
        prog.li(1, PTR)
        prog.load(2, base=1)          # speculative, never leaked before
        transmit = prog.load(3, base=2)
        core = run_with(SptSttPolicy, prog)
        obs = [o for o in observations(core) if o.seq == transmit]
        assert not obs or not obs[0].speculative

    def test_spt_nda_variant_broadcasts_public_values(self):
        prog, transmit = indirect_reveal_then_speculative_pair()
        core = run_with(SptNdaPolicy, prog)
        obs = [o for o in observations(core) if o.seq == transmit]
        assert obs and obs[0].speculative

    def test_spt_uses_no_lpt(self):
        prog = Program()
        prog.poke(PTR, 0x2000)
        prog.li(1, PTR)
        prog.load(2, base=1)
        prog.load(3, base=2)
        core = run_with(SptSttPolicy, prog)
        assert core.lpt is None
        assert core.stats.load_pairs_detected == 0


class TestSptSchemeKind:
    def test_make_policy_builds_spt(self):
        from repro.common import SchemeKind
        from repro.security import SptNdaPolicy, SptSttPolicy, make_policy

        assert isinstance(
            make_policy(SchemeKind.STT_SPT, StatSet()), SptSttPolicy
        )
        assert isinstance(
            make_policy(SchemeKind.NDA_SPT, StatSet()), SptNdaPolicy
        )

    def test_base_property(self):
        from repro.common import SchemeKind

        assert SchemeKind.STT_SPT.base is SchemeKind.STT
        assert SchemeKind.NDA_SPT.base is SchemeKind.NDA
        assert not SchemeKind.STT_SPT.uses_recon

    def test_spt_runs_through_system(self):
        from repro.common import SchemeKind
        from repro.sim import RunConfig
        from repro.sim.runner import TraceCache, run_benchmark
        from repro.workloads import get_benchmark

        result = run_benchmark(
            get_benchmark("spec2017", "omnetpp"),
            SchemeKind.STT_SPT,
            1500,
            config=RunConfig(cache=TraceCache(), warmup_uops=0),
        )
        assert result.stats.committed_uops >= 1500
