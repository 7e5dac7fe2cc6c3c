"""Unit tests for the program-builder DSL and its interpreter semantics."""

import pytest

from repro.common import MemPrediction, OpClass
from repro.isa import MicroOp, Program, default_memory_value


class TestMicroOp:
    def test_load_requires_address(self):
        with pytest.raises(ValueError):
            MicroOp(OpClass.LOAD, dest=1)

    def test_load_requires_dest(self):
        with pytest.raises(ValueError):
            MicroOp(OpClass.LOAD, addr=0x100)

    def test_store_requires_address(self):
        with pytest.raises(ValueError):
            MicroOp(OpClass.STORE, srcs=(1,))

    def test_classification(self):
        load = MicroOp(OpClass.LOAD, dest=1, addr=0x100)
        assert load.is_load and not load.is_store and not load.is_branch
        branch = MicroOp(OpClass.BRANCH, srcs=(1,))
        assert branch.is_branch


class TestProgramInterpreter:
    def test_li_then_load_reads_poked_memory(self):
        prog = Program()
        prog.poke(0x2000, 0xDEAD)
        prog.li(1, 0x2000)
        op = prog.ops[prog.load(2, base=1)]
        assert op.addr == 0x2000
        assert op.value == 0xDEAD
        assert prog.regs[2] == 0xDEAD

    def test_pointer_dereference_chain_is_real(self):
        """A built load pair really dereferences the loaded pointer."""
        prog = Program()
        prog.poke(0x1000, 0x2000)  # [0x1000] holds a pointer to 0x2000
        prog.poke(0x2000, 42)
        prog.li(1, 0x1000)
        first = prog.ops[prog.load(2, base=1)]
        second = prog.ops[prog.load(3, base=2)]
        assert first.value == 0x2000
        assert second.addr == 0x2000
        assert second.value == 42

    def test_load_with_offset(self):
        prog = Program()
        prog.poke(0x3010, 7)
        prog.li(1, 0x3000)
        op = prog.ops[prog.load(2, base=1, offset=0x10)]
        assert op.addr == 0x3010
        assert op.value == 7

    def test_store_updates_image_for_later_loads(self):
        prog = Program()
        prog.li(1, 0x4000)
        prog.li(2, 99)
        prog.store(2, base=1)
        prog.li(3, 0x4000)
        op = prog.ops[prog.load(4, base=3)]
        assert op.value == 99

    def test_store_splits_address_and_data_sources(self):
        prog = Program()
        prog.li(1, 0x4000)
        prog.li(2, 99)
        op = prog.ops[prog.store(2, base=1)]
        assert op.srcs == (1,)  # address-forming registers only
        assert op.data_srcs == (2,)
        assert op.addr == 0x4000

    def test_store_abs_has_no_address_sources(self):
        prog = Program()
        prog.li(2, 99)
        op = prog.ops[prog.store_abs(2, 0x4000)]
        assert op.srcs == ()
        assert op.data_srcs == (2,)

    def test_data_srcs_rejected_outside_stores(self):
        from repro.isa import MicroOp

        with pytest.raises(ValueError):
            MicroOp(OpClass.ALU, dest=1, data_srcs=(2,))

    def test_unwritten_memory_is_deterministic(self):
        assert default_memory_value(0x123458) == default_memory_value(0x123458)
        prog_a, prog_b = Program(), Program()
        prog_a.li(1, 0x5000)
        prog_b.li(1, 0x5000)
        a, b = prog_a.load(2, 1), prog_b.load(2, 1)
        assert prog_a.ops[a].value == prog_b.ops[b].value

    def test_sub_word_peek_reads_containing_word(self):
        prog = Program()
        prog.poke(0x6000, 5)
        assert prog.peek(0x6003) == 5

    def test_seq_numbers_are_dense(self):
        prog = Program()
        prog.li(1, 1)
        prog.nop()
        prog.branch(1)
        assert [op.seq for op in prog] == [0, 1, 2]

    def test_pc_autoincrements_and_can_be_pinned(self):
        prog = Program(base_pc=0x400)
        a = prog.ops[prog.li(1, 1)]
        b = prog.ops[prog.li(2, 2)]
        c = prog.ops[prog.li(3, 3, pc=a.pc)]
        assert b.pc == a.pc + 4
        assert c.pc == a.pc

    def test_alu_mixes_sources_deterministically(self):
        prog = Program()
        prog.li(1, 10)
        prog.li(2, 20)
        op1 = prog.ops[prog.alu(3, 1, 2)]
        prog2 = Program()
        prog2.li(1, 10)
        prog2.li(2, 20)
        op2 = prog2.ops[prog2.alu(3, 1, 2)]
        assert op1.value == op2.value

    def test_add_imm_is_exact_pointer_arithmetic(self):
        prog = Program()
        prog.li(1, 0x7000)
        prog.add_imm(2, 1, 0x10)
        assert prog.regs[2] == 0x7010

    def test_register_namespace_enforced(self):
        prog = Program(arch_regs=4)
        with pytest.raises(ValueError):
            prog.li(4, 0)
        with pytest.raises(ValueError):
            prog.load(0, base=9)

    def test_alu_rejects_memory_opclass(self):
        prog = Program()
        with pytest.raises(ValueError):
            prog.alu(1, opclass=OpClass.LOAD)

    def test_forced_prediction_carried(self):
        prog = Program()
        prog.li(1, 0x8000)
        op = prog.ops[prog.load(2, base=1, forced_prediction=MemPrediction.STF)]
        assert op.forced_prediction is MemPrediction.STF

    def test_branch_mispredict_flag(self):
        prog = Program()
        prog.li(1, 0)
        op = prog.ops[prog.branch(1, mispredict=True)]
        assert op.mispredict


class TestSharedPositions:
    """A uop's ``seq`` is its position; pcs not passed run on from the
    base pc, and passed ones are kept."""

    def test_explicit_pcs_are_kept(self):
        prog = Program()
        loop_pc = 0x123456
        first = prog.ops[prog.nop(pc=loop_pc)]
        second = prog.ops[prog.nop()]
        third = prog.ops[prog.nop(pc=loop_pc)]
        assert (first.pc, second.pc, third.pc) == (loop_pc, 0x1000, loop_pc)
        assert [op.seq for op in prog.ops] == [0, 1, 2]
