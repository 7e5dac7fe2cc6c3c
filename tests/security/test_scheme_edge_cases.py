"""Edge cases of the scheme/pipeline interaction."""

import dataclasses

import pytest

from repro.common import CacheLevel, SchemeKind, SystemParams
from repro.isa import Program
from tests.helpers import make_core, observations, run_program, small_system_params

SLOW = 0x40000
PTR = 0x1000


class TestAbsoluteLoads:
    def test_absolute_load_pair_reveals(self):
        """load_abs -> load is still a pair (dest entry, then src check)."""
        prog = Program()
        prog.poke(PTR, 0x2000)
        prog.load_abs(2, PTR)
        prog.load(3, base=2)
        core = run_program(prog, SchemeKind.STT_RECON)
        assert core.stats.load_pairs_detected == 1
        assert core.hierarchy.is_revealed_for(0, PTR)

    def test_absolute_second_load_is_not_a_pair(self):
        prog = Program()
        prog.poke(PTR, 0x2000)
        prog.li(1, PTR)
        prog.load(2, base=1)
        prog.load_abs(3, 0x3000)  # no source register: no pair
        core = run_program(prog, SchemeKind.STT_RECON)
        assert core.stats.load_pairs_detected == 0


class TestTaintThroughForwarding:
    def test_forwarded_secret_still_protected(self):
        """A speculative secret stored then forwarded stays tainted."""
        from repro.common import MemPrediction

        prog = Program()
        prog.poke(PTR, 0x2000)
        prog.li(4, SLOW)
        prog.load(5, base=4)
        prog.branch(5)                # long shadow
        prog.li(1, PTR)
        prog.load(2, base=1)          # speculative load (root)
        prog.li(6, 0x3000)
        prog.store(2, base=6)         # store the secret
        prog.load(
            7, base=6, forced_prediction=MemPrediction.STF
        )                              # forward it back
        transmit = prog.load(8, base=7)  # dereference the forwarded secret
        core = run_program(prog, SchemeKind.STT)
        obs = [o for o in observations(core) if o.seq == transmit]
        assert not obs or not obs[0].speculative

    def test_forwarded_data_never_lifts_defenses(self):
        """§4.4.2: loads fed from SQ/SB always see concealed data, even if
        the memory copy of the word is revealed."""
        from repro.common import MemPrediction

        prog = Program()
        prog.poke(PTR, 0x2000)
        # Reveal PTR non-speculatively.
        prog.li(1, PTR)
        prog.load(2, base=1)
        prog.load(3, base=2)
        prog.branch(3, mispredict=True)  # serialize
        # Under a shadow: store to PTR, then load it with forwarding.
        prog.li(4, SLOW)
        prog.load(5, base=4)
        prog.branch(5)
        prog.li(6, 0x2000)
        prog.store(6, base=1)            # store to PTR (SQ/SB)
        prog.load(
            7, base=1, forced_prediction=MemPrediction.STF
        )                                 # forwarded: concealed
        transmit = prog.load(8, base=7)
        core = run_program(prog, SchemeKind.STT_RECON)
        obs = [o for o in observations(core) if o.seq == transmit]
        assert not obs or not obs[0].speculative


class TestNdaDeferredBroadcastOrdering:
    def test_deferred_value_arrives_before_commit(self):
        """A load deferred by NDA must still broadcast by its commit."""
        prog = Program()
        prog.poke(PTR, 0x2000)
        prog.li(4, SLOW)
        prog.load(5, base=4)
        prog.branch(5)
        prog.li(1, PTR)
        prog.load(2, base=1)
        prog.alu(3, 2)  # consumer of the deferred value
        core = run_program(prog, SchemeKind.NDA)
        assert core.stats.committed_uops == len(prog)
        assert core.stats.deferred_broadcasts >= 1


class TestReconWithTinyStructures:
    def test_single_entry_lpt_still_safe_and_correct(self):
        prog = Program()
        prog.poke(PTR, 0x2000)
        prog.poke(0x2000, 0x3000)
        prog.li(1, PTR)
        prog.load(2, base=1)
        prog.load(3, base=2)
        prog.load(4, base=3)
        params = dataclasses.replace(small_system_params(), lpt_entries=1)
        core = make_core(prog, SchemeKind.STT_RECON, params=params)
        core.run()
        assert core.stats.committed_uops == len(prog)
        # A 1-entry table can still catch back-to-back pairs.
        assert core.stats.load_pairs_detected >= 1

    def test_recon_levels_none_vs_all_equivalent(self):
        def run_with(levels):
            prog = Program()
            prog.poke(PTR, 0x2000)
            prog.li(1, PTR)
            for _ in range(20):
                prog.load(2, base=1)
                prog.load(3, base=2)
            params = dataclasses.replace(
                small_system_params(), recon_levels=levels
            )
            core = make_core(prog, SchemeKind.STT_RECON, params=params)
            core.run()
            return core.stats.cycles

        all_levels = (CacheLevel.L1, CacheLevel.L2, CacheLevel.LLC)
        assert run_with(None) == run_with(all_levels)


class TestMispredictedTaintedBranch:
    def test_recon_shortens_mispredict_bubble(self):
        """A mispredicted branch on a revealed pointer resolves early."""

        def build(reveal):
            prog = Program()
            prog.poke(PTR, 0x2000)
            if reveal:
                prog.li(1, PTR)
                prog.load(2, base=1)
                prog.load(3, base=2)
                prog.branch(3, mispredict=True)
            prog.li(4, SLOW)
            prog.load(5, base=4)
            prog.branch(5)
            prog.li(1, PTR)
            prog.load(2, base=1)
            prog.branch(2, mispredict=True)  # tainted unless revealed
            for i in range(30):
                prog.li(6, i)
            return prog

        # Compare the *suffix* cost: warm run minus cold run isolates the
        # revealed-branch benefit poorly, so compare against plain STT.
        recon = run_program(build(True), SchemeKind.STT_RECON).stats.cycles
        stt_prog = build(True)
        stt = run_program(stt_prog, SchemeKind.STT).stats.cycles
        assert recon <= stt
