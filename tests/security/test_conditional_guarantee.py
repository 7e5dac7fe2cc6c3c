"""The conditional security guarantee of paper §3.2.

Programs with secret-dependent *non-speculative* behaviour have made
their secrets public — ReCon (like SPT) will not protect them.  Programs
written with constant-time discipline keep their security premise
unchanged.  This test reproduces the paper's AES key-selection example
in both forms and checks what each reveals.
"""

from repro.analysis import Clueless
from repro.common import SchemeKind
from repro.isa import Program
from tests.helpers import observations, run_program

KEYS_BASE = 0x2000        # AES_KEYS[0..7]
SELECTOR_ADDR = 0x1000    # key_selector[iteration]
NUM_KEYS = 8


def leaky_selection() -> Program:
    """key = AES_KEYS[selector] — the selector indexes memory directly."""
    prog = Program()
    prog.poke(SELECTOR_ADDR, 3 * 8)  # scaled secret selector
    for i in range(NUM_KEYS):
        prog.poke(KEYS_BASE + i * 8, 0xAA00 + i)
    # Obfuscation attempt: touch all keys first (lines 1-3 of the paper).
    prog.li(1, KEYS_BASE)
    for i in range(NUM_KEYS):
        prog.load(2, base=1, offset=i * 8)
    # selector = key_selector[it]; key = AES_KEYS[selector] (lines 4-5).
    prog.li(3, SELECTOR_ADDR)
    prog.load(4, base=3)                    # the secret selector
    prog.load(5, base=4, offset=KEYS_BASE)  # secret-dependent access!
    return prog


def constant_time_selection() -> Program:
    """Branchless masked accumulation: the selector never forms an address."""
    prog = Program()
    prog.poke(SELECTOR_ADDR, 3)
    for i in range(NUM_KEYS):
        prog.poke(KEYS_BASE + i * 8, 0xAA00 + i)
    prog.li(3, SELECTOR_ADDR)
    prog.load(4, base=3)         # the secret selector (a plain value)
    prog.li(6, 0)                # key accumulator
    prog.li(1, KEYS_BASE)
    for i in range(NUM_KEYS):
        prog.load(2, base=1, offset=i * 8)  # access every key
        prog.li(7, i)
        prog.alu(8, 4, 7)        # cmp = f(selector, i)
        prog.alu(9, 8, 2)        # mask & key
        prog.alu(6, 6, 9)        # key |= ...
    return prog


class TestLeakySelection:
    def test_selector_leaks_nonspeculatively(self):
        report = Clueless().run(leaky_selection().trace())
        # The selector's home address is a leakage point (DIFT and pair).
        prog = leaky_selection()
        analyzer = Clueless()
        for uop in prog.trace():
            analyzer.step(uop)
        assert analyzer._dift.leaked  # selector word leaked
        assert report.pair_leaked_words >= 1

    def test_recon_marks_selector_revealed(self):
        """Under ReCon the selector's address becomes revealed: future
        speculative replays of the gadget are *not* protected — exactly
        the paper's warning about secret-dependent behaviour."""
        core = run_program(leaky_selection(), SchemeKind.STT_RECON)
        assert core.hierarchy.is_revealed_for(0, SELECTOR_ADDR)


class TestConstantTimeSelection:
    def test_selector_never_leaks(self):
        report = Clueless().run(constant_time_selection().trace())
        assert report.dift_leaked_words == 0
        assert report.pair_leaked_words == 0

    def test_recon_never_reveals_selector(self):
        core = run_program(constant_time_selection(), SchemeKind.STT_RECON)
        assert not core.hierarchy.is_revealed_for(0, SELECTOR_ADDR)
        assert core.stats.load_pairs_detected == 0

    def test_constant_time_still_protected_speculatively(self):
        """A later speculative read of the selector stays defended."""
        prog = constant_time_selection()
        prog.li(10, 0x40000)
        prog.load(11, base=10)
        prog.branch(11)               # long shadow
        prog.load(12, base=3)         # speculative selector read
        transmit = prog.load(13, base=12, offset=KEYS_BASE)
        core = run_program(prog, SchemeKind.STT_RECON)
        obs = [o for o in observations(core) if o.seq == transmit]
        assert not obs or not obs[0].speculative
