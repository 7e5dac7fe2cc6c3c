"""Unit tests for register renaming: the decode pass and the register file."""

import collections
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import RegisterFile, decode_trace
from repro.core.rename import WIDE, operand_shape
from repro.isa import Program
from tests.helpers import make_core


def _program(arch_regs, ops):
    """A program of ``(dest or None, srcs, data_src or None)`` uops."""
    prog = Program(arch_regs=arch_regs)
    for dest, srcs, data in ops:
        if data is not None:
            if srcs:
                prog.store(data, base=srcs[0])
            else:
                prog.store_abs(data, 0x1000)
        elif dest is None:
            prog.branch(*srcs)
        else:
            prog.alu(dest, *srcs)
    return prog.trace()


class TestRegisterFile:
    def test_initial_identity_map_ready(self):
        trace = _program(4, [(None, (0, 3), None)])
        decoded = decode_trace(trace, arch_regs=4, phys_regs=8)
        assert decoded.sources(0)[0] == (0, 3)
        rf = RegisterFile(arch_regs=4, phys_regs=8)
        assert all(rf.ready[p] for p in decoded.sources(0)[0])
        assert not any(rf.ready[4:])

    def test_rename_allocates_fresh_dest(self):
        trace = _program(4, [(1, (), None)])
        decoded = decode_trace(trace, arch_regs=4, phys_regs=8)
        assert decoded.dests.tolist() == [4]  # the head of the free list

    def test_consumer_sees_latest_mapping(self):
        trace = _program(4, [(1, (), None), (2, (1,), None), (None, (), 2)])
        decoded = decode_trace(trace, arch_regs=4, phys_regs=8)
        first, second, none = decoded.dests
        assert none == -1  # a store allocates no register
        assert decoded.sources(1) == ((first,), ())
        assert decoded.sources(2)[1] == (second,)  # a store's data register

    def test_free_list_exhaustion_and_release(self):
        # Two free registers: the third allocation reuses the register the
        # first uop freed (r0's initial mapping), the fourth the second's.
        ops = [(0, (), None), (1, (), None), (0, (), None), (1, (), None)]
        trace = _program(2, ops)
        decoded = decode_trace(trace, arch_regs=2, phys_regs=4)
        assert decoded.dests.tolist() == [2, 3, 0, 1]
        assert decode_trace(trace[:2], 2, 4).dests == decoded.dests[:2]
        assert RegisterFile(arch_regs=2, phys_regs=4).free == 2

    def test_rejects_too_few_phys(self):
        with pytest.raises(ValueError):
            RegisterFile(arch_regs=8, phys_regs=8)
        with pytest.raises(ValueError):
            decode_trace([], arch_regs=8, phys_regs=8)

    def test_rename_clears_stale_taint(self):
        prog = Program()
        prog.li(1, 5)
        core = make_core(prog)
        dest = core.decoded.dests[0]
        # Leftovers of the register's previous life must not leak over.
        core.regfile.taint[dest] = frozenset({9})
        core.regfile.ready[dest] = True
        core.step(0)  # dispatches the li
        assert core.regfile.taint[dest] == frozenset()
        assert not core.regfile.ready[dest]
        assert core.regfile.free == core.params.core.phys_regs - 32 - 1

    def test_decode_columns_are_typed_arrays(self):
        trace = _program(4, [(None, (1, 2), None), (3, (1, 2, 3), None)])
        decoded = decode_trace(trace, arch_regs=4, phys_regs=8)
        for column in (decoded.src0, decoded.src1, decoded.data, decoded.dests):
            assert isinstance(column, array) and column.itemsize == 2
        assert decoded.sources(0) == ((1, 2), ())
        # Three sources do not fit the two source columns.
        assert operand_shape((1, 2, 3), ()) == WIDE and 1 in decoded.wide
        assert decoded.sources(1) == ((1, 2, 3), ())
        assert decoded.dests.tolist() == [-1, 4]


_uop = st.tuples(
    st.one_of(st.none(), st.integers(0, 3)),
    st.lists(st.integers(0, 3), max_size=2).map(tuple),
    st.one_of(st.none(), st.integers(0, 3)),
).map(lambda op: (None, op[1], op[2]) if op[2] is not None else op)


class TestDecodeMatchesDynamicRename:
    """The decode equals renaming through a live FIFO free list.

    The model dispatches and commits in program order, interleaved at
    random; dispatch stalls while the free list is empty.  Every uop must
    see the same physical registers as in the decode, whatever the
    interleaving, and the free count the pipeline keeps must equal the
    list's length.
    """

    @given(
        ops=st.lists(_uop, min_size=1, max_size=40),
        spare=st.integers(1, 6),
        moves=st.lists(st.booleans(), max_size=200),
    )
    @settings(max_examples=150, deadline=None)
    def test_any_interleaving(self, ops, spare, moves):
        arch = 4
        phys = arch + spare
        trace = _program(arch, ops)
        decoded = decode_trace(trace, arch, phys)

        rmap = list(range(arch))
        free_list = collections.deque(range(arch, phys))
        free_count = phys - arch
        in_flight = collections.deque()  # the register each uop frees
        dispatched = 0
        moves = iter(moves)
        while dispatched < len(trace) or in_flight:
            want_dispatch = next(moves, True)
            uop = trace[dispatched] if dispatched < len(trace) else None
            stalled = uop is None or (uop.dest is not None and not free_list)
            counted = uop is None or (uop.dest is not None and not free_count)
            assert stalled == counted
            if want_dispatch and not stalled or not in_flight:
                assert not stalled  # nothing in flight: dispatch can always go
                srcs = tuple(rmap[a] for a in uop.srcs)
                data = tuple(rmap[a] for a in uop.data_srcs)
                dest = freed = None
                if uop.dest is not None:
                    freed = rmap[uop.dest]
                    dest = free_list.popleft()
                    free_count -= 1
                    rmap[uop.dest] = dest
                assert decoded.sources(dispatched) == (srcs, data)
                assert decoded.dests[dispatched] == (-1 if dest is None else dest)
                in_flight.append(freed)
                dispatched += 1
            else:
                freed = in_flight.popleft()
                if freed is not None:
                    free_list.append(freed)
                    free_count += 1
            assert free_count == len(free_list)
