"""Tests for InvisiSpec-style invisible speculation and ReCon on top."""

import pytest

from repro.common import SchemeKind, StatSet
from repro.isa import Program
from repro.security import InvisiSpecPolicy, make_policy
from tests.helpers import observations, run_program

PTR = 0x1000
SLOW = 0x40000


class TestPolicyUnit:
    def test_flags(self):
        policy = InvisiSpecPolicy(StatSet())
        assert policy.invisible_speculation
        assert not policy.gates_on_miss
        assert not policy.load_issue_blocked(frozenset({1}))

    def test_invisibility_decision(self):
        plain = InvisiSpecPolicy(StatSet())
        recon = InvisiSpecPolicy(StatSet(), use_recon=True)
        assert not plain.load_must_be_invisible(False, False)
        assert plain.load_must_be_invisible(True, False)
        assert plain.load_must_be_invisible(True, True)  # no recon: hide
        assert not recon.load_must_be_invisible(True, True)  # lifted
        assert recon.load_must_be_invisible(True, False)

    def test_make_policy(self):
        assert isinstance(
            make_policy(SchemeKind.INVISPEC, StatSet()), InvisiSpecPolicy
        )
        assert SchemeKind.INVISPEC_RECON.base is SchemeKind.INVISPEC
        assert SchemeKind.INVISPEC_RECON.uses_recon


def shadowed_load(warm_cache=False):
    prog = Program()
    prog.poke(PTR, 0x2000)
    if warm_cache:
        prog.li(1, PTR)
        prog.load(9, base=1)
        prog.branch(9, mispredict=True)
    prog.li(4, SLOW)
    prog.load(5, base=4)
    prog.branch(5)                 # long shadow
    prog.li(1, PTR)
    target = prog.load(2, base=1)  # speculative
    return prog, target


class TestInvisiblePipeline:
    def test_invisible_load_leaves_no_cache_state(self):
        prog, target = shadowed_load()
        core = run_program(prog, SchemeKind.INVISPEC)
        # The speculative load produced no observable access...
        assert not any(o.seq == target for o in observations(core))
        # ...and the value still arrived: the trace committed fully.
        assert core.stats.committed_uops == len(prog)

    def test_exposure_installs_after_visibility(self):
        prog, target = shadowed_load()
        core = run_program(prog, SchemeKind.INVISPEC)
        # After the run, the exposed line is resident.
        assert core.hierarchy.private_line(0, PTR) is not None

    def test_repeated_speculative_misses_pay_full_latency(self):
        """Without caching, each speculative access repays the distance.

        A self-pointing word is chased serially: the unsafe baseline
        misses once and then hits the L1; InvisiSpec re-pays the whole
        memory distance on every hop because nothing is ever installed.
        """

        def build():
            prog = Program()
            prog.poke(PTR, PTR)  # *PTR == PTR: a self-loop
            prog.li(4, SLOW)
            prog.load(5, base=4)
            prog.branch(5)
            prog.li(1, PTR)
            reg = 1
            for _ in range(6):
                prog.load(2, base=reg)  # serial: address = previous value
                reg = 2
            return prog

        invis = run_program(build(), SchemeKind.INVISPEC)
        unsafe = run_program(build(), SchemeKind.UNSAFE)
        assert invis.stats.cycles > unsafe.stats.cycles + 50

    def test_recon_restores_caching_for_revealed_words(self):
        def build():
            prog = Program()
            prog.poke(PTR, 0x2000)
            # Reveal PTR non-speculatively, then speculatively chase it.
            prog.li(1, PTR)
            prog.load(2, base=1)
            prog.load(3, base=2)
            prog.branch(3, mispredict=True)
            prog.li(4, SLOW)
            prog.load(5, base=4)
            prog.branch(5)
            prog.li(1, PTR)
            for _ in range(6):
                prog.load(2, base=1)
                prog.alu(3, 2)
            return prog

        plain = run_program(build(), SchemeKind.INVISPEC)
        recon = run_program(build(), SchemeKind.INVISPEC_RECON)
        assert recon.stats.cycles <= plain.stats.cycles
        assert recon.stats.reveal_hits > 0

    def test_never_leaked_secret_stays_invisible_with_recon(self):
        prog, target = shadowed_load()
        core = run_program(prog, SchemeKind.INVISPEC_RECON)
        assert not any(o.seq == target for o in observations(core))

    def test_whole_benchmark_runs(self):
        from repro.sim import RunConfig
        from repro.sim.runner import TraceCache, run_benchmark
        from repro.workloads import get_benchmark

        profile = get_benchmark("spec2017", "xalancbmk")
        config = RunConfig(cache=TraceCache())
        unsafe = run_benchmark(profile, SchemeKind.UNSAFE, 4000, config=config)
        invis = run_benchmark(profile, SchemeKind.INVISPEC, 4000, config=config)
        recon = run_benchmark(
            profile, SchemeKind.INVISPEC_RECON, 4000, config=config
        )
        assert invis.cycles > unsafe.cycles
        assert recon.cycles <= invis.cycles + 30


class TestInvisibleMulticore:
    def test_invisible_read_from_remote_owner(self):
        """An invisible load sources a remote M line without downgrading it."""
        from repro.common import MESIState, StatSet, SystemParams
        from repro.memory import MemoryHierarchy

        params = SystemParams(num_cores=2)
        hier = MemoryHierarchy(params)
        hier.write(1, 0x40)  # core 1 owns in M
        latency = hier.read_invisible(0, 0x40, now=100)
        assert latency > params.memory.llc.latency  # remote sourcing cost
        line = hier.private_line(1, 0x40)
        assert line is not None and line.state is MESIState.MODIFIED

    def test_parallel_invispec_benchmark(self):
        from repro.sim import RunConfig
        from repro.sim.runner import TraceCache, run_benchmark
        from repro.workloads import get_benchmark

        result = run_benchmark(
            get_benchmark("parsec", "canneal"),
            SchemeKind.INVISPEC_RECON,
            1200,
            config=RunConfig(threads=4, cache=TraceCache(), warmup_uops=0),
        )
        assert result.stats.committed_uops >= 4 * 1200
