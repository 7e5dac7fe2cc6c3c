"""Unit tests for load/store queues and forwarding."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.types import word_addr
from repro.core import LoadEntry, LoadStoreUnit


def make_lsq(lq=8, sq=4):
    return LoadStoreUnit(lq_entries=lq, sq_entries=sq)


class TestCapacity:
    def test_sq_full(self):
        lsq = make_lsq(sq=2)
        lsq.add_store(1, 0x100, 0x1000)
        assert not lsq.sq_full
        lsq.add_store(2, 0x104, 0x2000)
        assert lsq.sq_full

    def test_lq_full(self):
        lsq = make_lsq(lq=1)
        lsq.add_load(LoadEntry(1, 0x100, 0x1000))
        assert lsq.lq_full


class TestForwarding:
    def test_no_forward_from_unresolved_store(self):
        lsq = make_lsq()
        lsq.add_store(1, 0x100, 0x1000)
        assert lsq.forwarding_store(2, 0x1000) is None

    def test_forward_from_resolved_matching_store(self):
        lsq = make_lsq()
        lsq.add_store(1, 0x100, 0x1000)
        lsq.resolve_store(1)
        lsq.set_store_data(1, frozenset({42}))
        match = lsq.forwarding_store(2, 0x1000)
        assert match is not None and match.seq == 1
        assert match.taint == frozenset({42})

    def test_forward_matches_word_not_byte(self):
        lsq = make_lsq()
        lsq.add_store(1, 0x100, 0x1000)
        lsq.resolve_store(1)
        lsq.set_store_data(1, frozenset())
        assert lsq.forwarding_store(2, 0x1004) is not None  # same word
        assert lsq.forwarding_store(2, 0x1008) is None  # next word

    def test_youngest_older_store_wins(self):
        lsq = make_lsq()
        lsq.add_store(1, 0x100, 0x1000)
        lsq.add_store(3, 0x104, 0x1000)
        lsq.resolve_store(1)
        lsq.set_store_data(1, frozenset())
        lsq.resolve_store(3)
        lsq.set_store_data(3, frozenset())
        match = lsq.forwarding_store(5, 0x1000)
        assert match is not None and match.seq == 3

    def test_only_older_stores_forward(self):
        lsq = make_lsq()
        lsq.add_store(5, 0x100, 0x1000)
        lsq.resolve_store(5)
        lsq.set_store_data(5, frozenset())
        assert lsq.forwarding_store(3, 0x1000) is None

    def test_forward_from_store_buffer(self):
        lsq = make_lsq()
        lsq.add_store(1, 0x100, 0x1000)
        lsq.resolve_store(1)
        lsq.set_store_data(1, frozenset())
        lsq.commit_store(1)
        match = lsq.forwarding_store(9, 0x1000)
        assert match is not None and match.committed

    def test_sq_match_beats_sb_match(self):
        lsq = make_lsq()
        lsq.add_store(1, 0x100, 0x1000)
        lsq.resolve_store(1)
        lsq.set_store_data(1, frozenset())
        lsq.commit_store(1)
        lsq.add_store(3, 0x104, 0x1000)
        lsq.resolve_store(3)
        lsq.set_store_data(3, frozenset())
        match = lsq.forwarding_store(5, 0x1000)
        assert match is not None and match.seq == 3


class TestOrdering:
    def test_has_older_unresolved(self):
        lsq = make_lsq()
        lsq.add_store(2, 0x100, 0x1000)
        assert lsq.has_older_unresolved_store(5)
        assert not lsq.has_older_unresolved_store(1)
        lsq.resolve_store(2)
        lsq.set_store_data(2, frozenset())
        assert not lsq.has_older_unresolved_store(5)

    def test_violation_detection(self):
        lsq = make_lsq()
        lsq.add_store(2, 0x100, 0x1000)
        load = lsq.add_load(LoadEntry(5, 0x200, 0x1000))
        load.went_to_memory = True
        violated = lsq.resolve_store(2)
        lsq.set_store_data(2, frozenset())
        assert [entry.seq for entry in violated] == [5]

    def test_no_violation_for_older_load(self):
        lsq = make_lsq()
        load = lsq.add_load(LoadEntry(1, 0x200, 0x1000))
        load.went_to_memory = True
        lsq.add_store(2, 0x100, 0x1000)
        assert lsq.resolve_store(2) == []

    def test_no_violation_for_different_word(self):
        lsq = make_lsq()
        lsq.add_store(2, 0x100, 0x1000)
        load = lsq.add_load(LoadEntry(5, 0x200, 0x1008))
        load.went_to_memory = True
        assert lsq.resolve_store(2) == []

    def test_no_violation_for_waiting_load(self):
        lsq = make_lsq()
        lsq.add_store(2, 0x100, 0x1000)
        lsq.add_load(LoadEntry(5, 0x200, 0x1000))  # never went to memory
        assert lsq.resolve_store(2) == []

    def test_data_readiness_tracked_separately(self):
        """Address resolution and data availability are independent."""
        lsq = make_lsq()
        lsq.add_store(1, 0x100, 0x1000)
        lsq.resolve_store(1)
        match = lsq.forwarding_store(2, 0x1000)
        assert match is not None and not match.data_ready
        lsq.set_store_data(1, frozenset({9}))
        assert match.data_ready and match.taint == frozenset({9})


class TestCommitDiscipline:
    def test_commit_store_must_be_head(self):
        lsq = make_lsq()
        lsq.add_store(1, 0x100, 0x1000)
        lsq.add_store(2, 0x104, 0x2000)
        with pytest.raises(ValueError):
            lsq.commit_store(2)

    def test_store_buffer_drain_order(self):
        lsq = make_lsq()
        for seq, addr in ((1, 0x1000), (2, 0x2000)):
            lsq.add_store(seq, 0x100, addr)
            lsq.resolve_store(seq)
            lsq.set_store_data(seq, frozenset())
            lsq.commit_store(seq)
        assert lsq.sb_depth == 2
        assert lsq.pop_performable_store().seq == 1
        assert lsq.pop_performable_store().seq == 2
        assert lsq.pop_performable_store() is None

    def test_commit_load_removes_entry(self):
        lsq = make_lsq()
        lsq.add_load(LoadEntry(1, 0x100, 0x1000))
        lsq.commit_load(1)
        assert lsq.load_entry(1) is None

    def test_resolve_unknown_store_raises(self):
        lsq = make_lsq()
        with pytest.raises(KeyError):
            lsq.resolve_store(7)
        with pytest.raises(KeyError):
            lsq.set_store_data(7, frozenset())


def scan_forwarding_store(lsq, load_seq, addr):
    """Reference for ``forwarding_store``: walk the SQ, then the SB."""
    word = word_addr(addr)
    for entry in reversed(lsq._sq):
        if entry.seq < load_seq and entry.resolved and entry.word == word:
            return entry
    for entry in reversed(lsq._sb):
        if entry.word == word:
            return entry
    return None


#: Sixteen addresses over the eight words of one line: two addresses per
#: word, so stores collide often, at different byte offsets.
_ADDRS = st.integers(min_value=0, max_value=15).map(lambda i: 0x1000 + 4 * i)


class TestIndexedForwardingMatchesScan:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "resolve", "commit", "drain"]),
                _ADDRS,
                st.integers(min_value=0, max_value=63),
            ),
            max_size=80,
        )
    )
    def test_random_sequences(self, ops):
        lsq = make_lsq(sq=64)
        next_seq = 0
        for op, addr, pick in ops:
            if op == "add":
                next_seq += 1 + pick % 3  # loads occupy the gaps
                lsq.add_store(next_seq, 0x100, addr)
            elif op == "resolve":
                unresolved = [e.seq for e in lsq._sq if not e.resolved]
                if unresolved:
                    lsq.resolve_store(unresolved[pick % len(unresolved)])
            elif op == "commit":
                if lsq._sq:
                    lsq.commit_store(lsq._sq[0].seq)
            else:
                before = list(lsq._sb)
                drained = lsq.pop_performable_store()
                assert drained is (before[0] if before else None)
            for load_seq in range(0, next_seq + 2):
                for probe in (0x1000, 0x1008, 0x1010, 0x1020, 0x1038):
                    assert lsq.forwarding_store(
                        load_seq, probe
                    ) is scan_forwarding_store(lsq, load_seq, probe)
