"""Pipeline-level behaviour of NDA, STT, and ReCon.

These tests build the paper's motivating patterns as micro-programs and
check both *timing* (who is delayed) and *observability* (which loads
access the cache while speculative).
"""

import pytest

from repro.common import SchemeKind
from repro.isa import Program
from tests.helpers import observations, run_program

#: A cold line whose load miss keeps a branch unresolved for a long time.
SLOW_ADDR = 0x40000
#: The pointer location (the "secret" address for the gadget tests).
PTR_ADDR = 0x1000
#: Where the pointer points (the transmitted address).
TARGET_ADDR = 0x2000


def shadowed_load_pair(extra_warmup=None):
    """A load pair executing under a long-lived branch shadow.

    Returns (program, transmit_load_op): the second load of the pair is the
    transmitter whose behaviour differs across schemes.
    """
    prog = Program()
    prog.poke(PTR_ADDR, TARGET_ADDR)
    if extra_warmup is not None:
        extra_warmup(prog)
    prog.li(4, SLOW_ADDR)
    prog.load(5, base=4)        # long miss
    prog.branch(5)              # shadow stays up until the miss returns
    prog.li(1, PTR_ADDR)
    prog.load(2, base=1)        # speculative access to the pointer
    transmit = prog.load(3, base=2)  # transmitter: dereferences it
    return prog, transmit


def reveal_warmup(prog: Program) -> None:
    """Non-speculative execution of the same load pair: reveals PTR_ADDR.

    Ends with a serializing mispredicted branch dependent on the pair, so
    the pair has committed (and the reveal has been sent to the L1) before
    any later micro-op dispatches.
    """
    prog.li(1, PTR_ADDR)
    prog.load(2, base=1)
    prog.load(3, base=2)
    prog.branch(3, mispredict=True)


def observation_of(core, seq):
    matches = [o for o in observations(core) if o.seq == seq]
    return matches[0] if matches else None


class TestUnsafeBaseline:
    def test_transmitter_observed_speculatively(self):
        prog, transmit = shadowed_load_pair()
        core = run_program(prog, SchemeKind.UNSAFE)
        obs = observation_of(core, transmit)
        assert obs is not None and obs.speculative


class TestStt:
    def test_transmitter_not_observed_while_speculative(self):
        prog, transmit = shadowed_load_pair()
        core = run_program(prog, SchemeKind.STT)
        obs = observation_of(core, transmit)
        assert obs is not None
        assert not obs.speculative  # delayed until the shadow resolved
        assert core.stats.tainted_loads >= 1
        assert core.stats.delayed_loads >= 1

    def test_stt_slower_than_unsafe(self):
        prog_a, _ = shadowed_load_pair()
        prog_b, _ = shadowed_load_pair()
        unsafe = run_program(prog_a, SchemeKind.UNSAFE).stats.cycles
        stt = run_program(prog_b, SchemeKind.STT).stats.cycles
        assert stt > unsafe

    def test_independent_load_not_delayed(self):
        """STT lets independent loads execute under speculation."""
        prog = Program()
        prog.li(4, SLOW_ADDR)
        prog.load(5, base=4)
        prog.branch(5)
        prog.li(1, PTR_ADDR)
        independent = prog.load(2, base=1)  # no dependence on a spec load
        core = run_program(prog, SchemeKind.STT)
        obs = observation_of(core, independent)
        assert obs is not None and obs.speculative

    def test_tainted_branch_resolution_delayed(self):
        """Implicit channel: a branch fed by a tainted value resolves late."""

        def build():
            prog = Program()
            prog.poke(PTR_ADDR, TARGET_ADDR)
            prog.li(4, SLOW_ADDR)
            prog.load(5, base=4)
            prog.branch(5)
            prog.li(1, PTR_ADDR)
            prog.load(2, base=1)
            prog.branch(2, mispredict=True)  # tainted branch
            for i in range(30):
                prog.li(6, i)
            return prog

        stt = run_program(build(), SchemeKind.STT).stats.cycles
        unsafe = run_program(build(), SchemeKind.UNSAFE).stats.cycles
        assert stt > unsafe


class TestNda:
    def test_transmitter_not_observed_while_speculative(self):
        prog, transmit = shadowed_load_pair()
        core = run_program(prog, SchemeKind.NDA)
        obs = observation_of(core, transmit)
        assert obs is not None
        assert not obs.speculative
        assert core.stats.deferred_broadcasts >= 1

    def test_nda_delays_plain_dependents_too(self):
        """NDA blocks even non-transmitting dependents (unlike STT)."""

        def build():
            prog = Program()
            prog.li(4, SLOW_ADDR)
            prog.load(5, base=4)
            prog.branch(5)
            prog.li(1, PTR_ADDR)
            prog.load(2, base=1)
            for _ in range(40):
                prog.alu(3, 2)  # pure computation on the loaded value
            return prog

        nda = run_program(build(), SchemeKind.NDA).stats.cycles
        stt = run_program(build(), SchemeKind.STT).stats.cycles
        assert nda >= stt

    def test_nda_at_least_as_slow_as_unsafe(self):
        prog_a, _ = shadowed_load_pair()
        prog_b, _ = shadowed_load_pair()
        unsafe = run_program(prog_a, SchemeKind.UNSAFE).stats.cycles
        nda = run_program(prog_b, SchemeKind.NDA).stats.cycles
        assert nda > unsafe


@pytest.mark.parametrize("scheme", [SchemeKind.STT_RECON, SchemeKind.NDA_RECON])
class TestRecon:
    def test_pair_detected_and_revealed_nonspeculatively(self, scheme):
        prog = Program()
        prog.poke(PTR_ADDR, TARGET_ADDR)
        reveal_warmup(prog)
        core = run_program(prog, scheme)
        assert core.stats.load_pairs_detected >= 1
        assert core.hierarchy.is_revealed_for(0, PTR_ADDR)

    def test_revealed_word_lifts_defense(self, scheme):
        """After a non-speculative reveal, the pair runs speculatively."""
        prog, transmit = shadowed_load_pair(extra_warmup=reveal_warmup)
        core = run_program(prog, scheme)
        obs = observation_of(core, transmit)
        assert obs is not None
        assert obs.speculative  # defense lifted: transmitted under shadow
        assert core.stats.reveal_hits >= 1

    def test_without_reveal_protection_intact(self, scheme):
        prog, transmit = shadowed_load_pair()  # no warm-up
        core = run_program(prog, scheme)
        obs = observation_of(core, transmit)
        assert obs is not None
        assert not obs.speculative
        assert core.stats.reveal_misses >= 1

    def test_store_conceals_and_restores_protection(self, scheme):
        """A store to the revealed word re-conceals it (section 4.4)."""

        def warmup_then_store(prog: Program) -> None:
            reveal_warmup(prog)
            prog.li(7, 0xBEEF)
            prog.store(7, base=1)  # overwrite PTR_ADDR: conceal
            prog.alu(6, 7)
            prog.branch(6, mispredict=True)  # serialize past the store

        prog, transmit = shadowed_load_pair(extra_warmup=warmup_then_store)
        core = run_program(prog, scheme)
        obs = observation_of(core, transmit)
        # The dependent load exists but must not be observed speculatively.
        assert obs is None or not obs.speculative

    def test_recon_recovers_performance(self, scheme):
        """With reveals, the secure scheme approaches the unsafe baseline."""

        def build():
            prog = Program()
            prog.poke(PTR_ADDR, TARGET_ADDR)
            reveal_warmup(prog)
            for i in range(10):
                prog.li(4, SLOW_ADDR + i * 0x40)
                prog.load(5, base=4)
                prog.branch(5)
                prog.li(1, PTR_ADDR)
                prog.load(2, base=1)
                prog.load(3, base=2)
            return prog

        base = run_program(build(), scheme.base).stats.cycles
        recon = run_program(build(), scheme).stats.cycles
        unsafe = run_program(build(), SchemeKind.UNSAFE).stats.cycles
        assert recon < base
        assert recon >= unsafe


class TestSpectreGadget:
    """Spectre-v1: bounds-check bypass reading a never-leaked secret."""

    SECRET_ADDR = 0x5000

    def gadget(self):
        """The bounds-check-bypass body, modeled as under-shadow code.

        The trace-driven model executes only the correct path, so the
        "transient" body is expressed as code running under a long-lived
        unresolved branch shadow — which is exactly the window a Spectre
        attack exploits and the window the secure schemes must close.
        """
        prog = Program()
        prog.poke(self.SECRET_ADDR, 0x7000)  # the secret (as a pointer)
        prog.li(4, SLOW_ADDR)
        prog.load(5, base=4)              # size: a slow load
        prog.branch(5)                    # bounds check, unresolved
        prog.li(1, self.SECRET_ADDR)
        prog.load(2, base=1)              # speculative secret access
        transmit = prog.load(3, base=2)   # transmit via cache channel
        return prog, transmit

    @pytest.mark.parametrize(
        "scheme",
        [
            SchemeKind.STT,
            SchemeKind.NDA,
            SchemeKind.STT_RECON,
            SchemeKind.NDA_RECON,
        ],
    )
    def test_secret_never_transmitted_speculatively(self, scheme):
        prog, transmit = self.gadget()
        core = run_program(prog, scheme)
        obs = observation_of(core, transmit)
        assert obs is None or not obs.speculative

    def test_unsafe_baseline_leaks(self):
        prog, transmit = self.gadget()
        core = run_program(prog, SchemeKind.UNSAFE)
        obs = observation_of(core, transmit)
        assert obs is not None and obs.speculative
