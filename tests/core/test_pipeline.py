"""Unit tests for the out-of-order pipeline under the unsafe baseline."""

import pytest

from repro.common import OpClass, SchemeKind
from repro.isa import Program
from tests.helpers import make_core, observations, run_program, small_system_params


class TestBasicExecution:
    def test_empty_trace_finishes(self):
        core = run_program(Program())
        assert core.done
        assert core.stats.committed_uops == 0

    def test_all_uops_commit(self):
        prog = Program()
        for i in range(20):
            prog.li(i % 8, i)
        core = run_program(prog)
        assert core.stats.committed_uops == 20

    def test_independent_alus_superscalar(self):
        prog = Program()
        for i in range(64):
            prog.li(i % 8, i)
        core = run_program(prog)
        # 8-wide machine on independent ops: IPC well above 1.
        assert core.stats.ipc > 2.0

    def test_dependent_chain_is_serial(self):
        chain = Program()
        chain.li(1, 1)
        for _ in range(63):
            chain.alu(1, 1)
        serial = run_program(chain).stats.cycles

        wide = Program()
        for i in range(64):
            wide.li(i % 8, i)
        parallel = run_program(wide).stats.cycles
        assert serial > parallel * 2

    def test_div_latency_slower_than_alu(self):
        def build(opclass):
            prog = Program()
            prog.li(1, 5)
            for _ in range(20):
                prog.alu(1, 1, opclass=opclass)
            return prog

        alu_cycles = run_program(build(OpClass.ALU)).stats.cycles
        div_cycles = run_program(build(OpClass.DIV)).stats.cycles
        assert div_cycles > alu_cycles * 3

    def test_determinism(self):
        def build():
            prog = Program()
            prog.poke(0x1000, 0x2000)
            prog.li(1, 0x1000)
            for i in range(50):
                prog.load(2, base=1)
                prog.alu(3, 2)
                prog.branch(3, mispredict=(i % 7 == 0))
                prog.store(3, base=1, offset=0x100)
            return prog

        a = run_program(build(), SchemeKind.STT)
        b = run_program(build(), SchemeKind.STT)
        assert a.stats.cycles == b.stats.cycles
        assert a.stats.as_dict() == b.stats.as_dict()


class TestMemoryBehaviour:
    def test_load_miss_then_hit(self):
        prog = Program()
        prog.li(1, 0x1000)
        prog.load(2, base=1)
        prog.load(3, base=1)
        core = run_program(prog)
        assert core.stats.l1_misses == 1
        assert core.stats.l1_hits == 1

    def test_mlp_overlaps_independent_misses(self):
        # Two independent miss streams should overlap almost entirely.
        one = Program()
        one.li(1, 0x10000)
        one.load(2, base=1)
        single = run_program(one).stats.cycles

        two = Program()
        two.li(1, 0x10000)
        two.li(2, 0x20000)
        two.load(3, base=1)
        two.load(4, base=2)
        double = run_program(two).stats.cycles
        assert double < single + 20

    def test_dependent_loads_serialize(self):
        prog = Program()
        prog.poke(0x10000, 0x20000)
        prog.li(1, 0x10000)
        prog.load(2, base=1)
        prog.load(3, base=2)
        dependent = run_program(prog).stats.cycles

        indep = Program()
        indep.li(1, 0x10000)
        indep.li(2, 0x20000)
        indep.load(3, base=1)
        indep.load(4, base=2)
        independent = run_program(indep).stats.cycles
        assert dependent > independent + 30

    def test_store_load_forwarding(self):
        from repro.common import MemPrediction

        prog = Program()
        prog.li(1, 0x1000)
        prog.li(2, 77)
        prog.store(2, base=1)
        # STF-predicted load: waits for the store address, then forwards.
        prog.load(3, base=1, forced_prediction=MemPrediction.STF)
        core = run_program(prog)
        assert core.stats.store_forwards >= 1

    def test_mem_predicted_load_past_unresolved_store_violates(self):
        prog = Program()
        prog.li(1, 0x1000)
        prog.li(2, 77)
        prog.store(2, base=1)
        prog.load(3, base=1)  # issues before the store resolves
        core = run_program(prog)
        assert core.mdp.violations == 1

    def test_stores_drain_and_conceal(self):
        prog = Program()
        prog.li(1, 0x1000)
        prog.li(2, 5)
        prog.store(2, base=1)
        core = run_program(prog)
        assert core.stats.committed_stores == 1
        assert core.stats.words_concealed == 1
        assert core.lsq.sb_depth == 0

    def test_observations_recorded_for_memory_loads(self):
        prog = Program()
        prog.li(1, 0x1000)
        prog.load(2, base=1)
        core = run_program(prog)
        assert len(observations(core)) == 1
        assert observations(core)[0].addr == 0x1000

    def test_forwarded_load_not_observed(self):
        from repro.common import MemPrediction

        prog = Program()
        prog.li(1, 0x1000)
        prog.li(2, 77)
        prog.store(2, base=1)
        prog.load(3, base=1, forced_prediction=MemPrediction.STF)
        core = run_program(prog)
        # The load forwarded from the SQ/SB: no cache access observable.
        loads_observed = [o for o in observations(core) if o.addr == 0x1000]
        assert loads_observed == []

    def test_stf_trained_load_waits_and_forwards(self):
        """After a violation trains the predictor, the same pc forwards.

        Iterations are serialized by mispredicted branches so training from
        iteration 1 is in effect when iteration 2's load issues.
        """
        prog = Program()
        prog.li(1, 0x1000)
        prog.li(2, 77)
        store_pc, load_pc = 0x9000, 0x9004
        for _ in range(4):
            prog.store(2, base=1, pc=store_pc)
            prog.load(3, base=1, pc=load_pc)
            prog.alu(2, 3)
            prog.branch(2, mispredict=True)
        core = run_program(prog)
        assert core.mdp.violations >= 1
        assert core.stats.store_forwards >= 1


class TestControlFlow:
    def test_mispredict_costs_cycles(self):
        def build(mispredict):
            prog = Program()
            prog.li(1, 1)
            for _ in range(10):
                prog.branch(1, mispredict=mispredict)
                for i in range(4):
                    prog.li(2 + i, i)
            return prog

        good = run_program(build(False)).stats.cycles
        bad = run_program(build(True)).stats.cycles
        assert bad >= good + 10 * 10  # ~penalty per mispredict

    def test_branch_stats(self):
        prog = Program()
        prog.li(1, 1)
        prog.branch(1)
        prog.branch(1, mispredict=True)
        core = run_program(prog)
        assert core.stats.committed_branches == 2
        assert core.stats.mispredicted_branches == 1


class TestResourceLimits:
    def test_tiny_rob_still_correct(self):
        import dataclasses

        params = small_system_params()
        params = dataclasses.replace(
            params, core=dataclasses.replace(params.core, rob_entries=4)
        )
        prog = Program()
        for i in range(40):
            prog.li(i % 8, i)
        core = make_core(prog, SchemeKind.UNSAFE, params=params)
        core.run()
        assert core.stats.committed_uops == 40

    def test_phys_reg_pressure_still_correct(self):
        import dataclasses

        params = small_system_params()
        params = dataclasses.replace(
            params, core=dataclasses.replace(params.core, phys_regs=40)
        )
        prog = Program()
        for i in range(100):
            prog.li(i % 8, i)
        core = make_core(prog, SchemeKind.UNSAFE, params=params)
        core.run()
        assert core.stats.committed_uops == 100

    def test_run_raises_on_cycle_budget(self):
        prog = Program()
        prog.li(1, 0x100000)
        prog.load(2, base=1)
        core = make_core(prog)
        with pytest.raises(RuntimeError):
            core.run(max_cycles=3)
