"""Unit tests for the MESI hierarchy and ReCon bit-vector management."""

import pytest

from repro.common import (
    CacheLevel,
    CacheParams,
    MemoryParams,
    MESIState,
    SystemParams,
)
from repro.memory import MemoryHierarchy


def small_params(num_cores=1, recon_levels=None):
    """A tiny hierarchy so tests can force evictions deliberately.

    L1: 4 sets x 2 ways, L2: 4 sets x 4 ways, LLC: 16 sets x 4 ways.
    """
    memory = MemoryParams(
        l1=CacheParams(size_bytes=8 * 64, ways=2, latency=2),
        l2=CacheParams(size_bytes=16 * 64, ways=4, latency=6),
        llc=CacheParams(size_bytes=64 * 64, ways=4, latency=16),
        dram_latency=100,
        noc_hop_latency=4,
    )
    return SystemParams(
        memory=memory, num_cores=num_cores, recon_levels=recon_levels
    )


def l1_conflicts(base, count):
    """Addresses all mapping to the same L1 set (4 sets => stride 4*64)."""
    return [base + i * 4 * 64 for i in range(count)]


class TestBasicAccess:
    def test_cold_miss_then_hits(self):
        hier = MemoryHierarchy(small_params())
        miss = hier.read(0, 0x1000)
        assert miss.level is CacheLevel.LLC
        assert miss.latency >= 100  # includes DRAM
        hit = hier.read(0, 0x1000, now=miss.latency)
        assert hit.level is CacheLevel.L1
        assert hit.latency == 2

    def test_fresh_line_fully_concealed(self):
        hier = MemoryHierarchy(small_params())
        assert not hier.read(0, 0x1000).revealed
        assert not hier.read(0, 0x1008).revealed

    def test_line_granular_fills(self):
        hier = MemoryHierarchy(small_params())
        hier.read(0, 0x1000)
        # Same line, different word: L1 hit.
        assert hier.read(0, 0x1038, now=500).level is CacheLevel.L1

    def test_mshr_merges_inflight_fill(self):
        hier = MemoryHierarchy(small_params())
        first = hier.read(0, 0x1000, now=0)
        # Issued one cycle later while the fill is in flight: waits for it,
        # does not pay a second full miss.
        second = hier.read(0, 0x1008, now=1)
        assert second.level is CacheLevel.L1
        assert second.latency == first.latency - 1

    def test_l2_hit_after_l1_eviction(self):
        hier = MemoryHierarchy(small_params())
        addrs = l1_conflicts(0x0, 3)  # 3 lines into a 2-way L1 set
        for addr in addrs:
            hier.read(0, addr)
        result = hier.read(0, addrs[0], now=10_000)
        assert result.level is CacheLevel.L2
        assert result.latency == 6

    def test_submit_returns_plain_values(self):
        hier = MemoryHierarchy(small_params())
        latency, level, vector = hier.submit("read_req", 0, 0x1008, 0)
        assert level is CacheLevel.LLC and latency >= 100
        assert vector == 0  # a line fetched from DRAM is fully concealed
        assert hier.submit("reveal_req", 0, 0x1008, latency) == (
            0,
            CacheLevel.L1,
            0b10,  # word index 1 of the line
        )

    def test_submit_rejects_unknown_kinds(self):
        hier = MemoryHierarchy(small_params())
        for kind in ("resp", "snoop", "writeback"):
            with pytest.raises(ValueError, match="unknown transaction kind"):
                hier.submit(kind, 0, 0x0, 0)


class TestRevealConcealLifecycle:
    def test_reveal_then_read_sees_revealed(self):
        hier = MemoryHierarchy(small_params())
        hier.read(0, 0x1000)
        assert hier.reveal(0, 0x1000)
        assert hier.read(0, 0x1000, now=500).revealed

    def test_reveal_is_word_granular(self):
        hier = MemoryHierarchy(small_params())
        hier.read(0, 0x1000)
        hier.reveal(0, 0x1000)
        assert not hier.read(0, 0x1008, now=500).revealed

    def test_reveal_dropped_when_line_absent(self):
        hier = MemoryHierarchy(small_params())
        assert not hier.reveal(0, 0x9000)
        assert hier.dropped_reveals == 1

    def test_store_conceals_word(self):
        hier = MemoryHierarchy(small_params())
        hier.read(0, 0x1000)
        hier.reveal(0, 0x1000)
        hier.write(0, 0x1000)
        assert not hier.read(0, 0x1000, now=500).revealed

    def test_sub_word_store_conceals_whole_word(self):
        hier = MemoryHierarchy(small_params())
        hier.read(0, 0x1000)
        hier.reveal(0, 0x1000)
        hier.write(0, 0x1003)  # a byte inside the revealed word
        assert not hier.read(0, 0x1000, now=500).revealed

    def test_reveal_survives_l1_eviction_via_l2(self):
        hier = MemoryHierarchy(small_params())
        hier.read(0, 0x0)
        hier.reveal(0, 0x0)
        for addr in l1_conflicts(0x0, 3)[1:]:
            hier.read(0, addr)
        result = hier.read(0, 0x0, now=10_000)
        assert result.level is CacheLevel.L2
        assert result.revealed

    def test_conceal_survives_l1_eviction(self):
        """An L1 eviction must not resurrect a concealed word from L2."""
        hier = MemoryHierarchy(small_params())
        hier.read(0, 0x0)
        hier.reveal(0, 0x0)
        # Evict to L2 (vector with reveal goes down), bring back, conceal.
        for addr in l1_conflicts(0x0, 3)[1:]:
            hier.read(0, addr)
        hier.read(0, 0x0)  # back into L1, revealed
        hier.write(0, 0x0)  # conceal in L1 (L2 copy now stale)
        for addr in l1_conflicts(0x0, 3)[1:]:
            hier.read(0, addr)  # evict again: must overwrite, not OR
        assert not hier.read(0, 0x0, now=10_000).revealed


class TestCoherence:
    def test_reveal_propagates_between_cores_via_directory(self):
        """Paper section 5.3: one core's reveals benefit another core."""
        hier = MemoryHierarchy(small_params(num_cores=2))
        hier.read(0, 0x0)
        hier.reveal(0, 0x0)
        # Core 0 evicts the line out of its private hierarchy entirely.
        for addr in l1_conflicts(0x0, 5)[1:]:
            hier.read(0, addr)
        # Core 1 reads: the directory copy carries the reveal.
        result = hier.read(1, 0x0)
        assert result.revealed

    def test_downgrade_transfers_owner_vector(self):
        hier = MemoryHierarchy(small_params(num_cores=2))
        hier.read(0, 0x0)       # core 0: E
        hier.reveal(0, 0x0)
        result = hier.read(1, 0x0)  # GetS forces a downgrade of core 0
        assert result.revealed

    def test_or_merge_accumulates_reveals_from_both_cores(self):
        hier = MemoryHierarchy(small_params(num_cores=2))
        hier.read(0, 0x0)
        hier.read(1, 0x0)
        hier.reveal(0, 0x0)      # word 0 revealed by core 0
        hier.reveal(1, 0x8)      # word 1 revealed by core 1
        for addr in l1_conflicts(0x0, 5)[1:]:
            hier.read(0, addr)   # core 0 evicts: OR-merge word 0
        for addr in l1_conflicts(0x2000, 5):
            hier.read(1, addr)   # core 1 evicts: OR-merge word 1
        hier_read = hier.read(0, 0x0, now=50_000)
        assert hier_read.revealed
        assert hier.read(0, 0x8, now=51_000).revealed

    def test_remote_store_conceals_for_everyone(self):
        hier = MemoryHierarchy(small_params(num_cores=2))
        hier.read(0, 0x0)
        hier.reveal(0, 0x0)
        hier.write(1, 0x0)   # invalidates core 0, conceals the word
        assert not hier.read(0, 0x0, now=500).revealed
        assert not hier.read(1, 0x0, now=500).revealed

    def test_invalidated_sharer_vector_is_lost(self):
        """Footnote 1: invalidation drops the reader's private reveals."""
        hier = MemoryHierarchy(small_params(num_cores=2))
        hier.read(0, 0x0)
        hier.read(1, 0x0)
        hier.reveal(0, 0x0)          # core 0's private reveal, word 0
        hier.write(1, 0x38)          # core 1 writes a *different* word
        # Core 0's reveal of word 0 was in the invalidated copy: lost.
        assert not hier.read(0, 0x0, now=500).revealed

    def test_m_writeback_overwrites_directory_vector(self):
        """A writer's writeback must not OR with a stale directory vector."""
        hier = MemoryHierarchy(small_params(num_cores=2))
        hier.read(0, 0x0)
        hier.reveal(0, 0x0)
        for addr in l1_conflicts(0x0, 5)[1:]:
            hier.read(0, addr)   # directory vector now has word 0 revealed
        hier.write(1, 0x0)       # core 1 takes M, conceals word 0
        for addr in l1_conflicts(0x2000, 5):
            hier.read(1, addr)   # core 1 evicts M: overwrite directory
        assert not hier.read(0, 0x0, now=90_000).revealed

    def test_invariants_hold_after_mixed_traffic(self):
        hier = MemoryHierarchy(small_params(num_cores=2))
        for i in range(40):
            hier.read(i % 2, (i * 0x40) % 0x800)
            if i % 3 == 0:
                hier.write((i + 1) % 2, (i * 0x40) % 0x800)
        hier.check_coherence_invariants()

    def test_llc_eviction_recalls_private_copies(self):
        params = small_params()
        hier = MemoryHierarchy(params)
        # Touch enough distinct lines to overflow one LLC set (4 ways,
        # 16 sets => stride 16*64).
        stride = 16 * 64
        addrs = [i * stride for i in range(6)]
        for addr in addrs:
            hier.read(0, addr)
        hier.check_coherence_invariants()
        resident = [a for a in addrs if hier.llc_line(a) is not None]
        assert len(resident) <= 4


class TestReconLevelRestriction:
    def test_l1_only_loses_reveal_on_l1_eviction(self):
        hier = MemoryHierarchy(small_params(recon_levels=(CacheLevel.L1,)))
        hier.read(0, 0x0)
        hier.reveal(0, 0x0)
        assert hier.read(0, 0x0, now=500).revealed  # still in L1
        for addr in l1_conflicts(0x0, 3)[1:]:
            hier.read(0, addr)
        assert not hier.read(0, 0x0, now=10_000).revealed

    def test_l1_l2_keeps_reveal_until_l2_eviction(self):
        hier = MemoryHierarchy(
            small_params(recon_levels=(CacheLevel.L1, CacheLevel.L2))
        )
        hier.read(0, 0x0)
        hier.reveal(0, 0x0)
        for addr in l1_conflicts(0x0, 3)[1:]:
            hier.read(0, addr)
        assert hier.read(0, 0x0, now=10_000).revealed  # L2 still tracks
        # Push it out of L2 as well (L2: 4 sets x 4 ways => stride 4*64).
        for addr in l1_conflicts(0x0, 6)[1:]:
            hier.read(0, addr, now=20_000)
        assert not hier.read(0, 0x0, now=30_000).revealed

    def test_l1_only_does_not_share_across_cores(self):
        hier = MemoryHierarchy(
            small_params(num_cores=2, recon_levels=(CacheLevel.L1,))
        )
        hier.read(0, 0x0)
        hier.reveal(0, 0x0)
        assert not hier.read(1, 0x0).revealed


class TestStatsPlumbing:
    def test_hit_miss_counters(self):
        from repro.common import StatSet

        hier = MemoryHierarchy(small_params())
        stats = StatSet()
        hier.attach_stats(0, stats)
        hier.read(0, 0x1000)
        hier.read(0, 0x1000, now=500)
        assert stats.l1_misses == 1
        assert stats.l1_hits == 1
        assert stats.llc_misses == 1

    def test_invalidation_counters(self):
        from repro.common import StatSet

        hier = MemoryHierarchy(small_params(num_cores=2))
        s0, s1 = StatSet(), StatSet()
        hier.attach_stats(0, s0)
        hier.attach_stats(1, s1)
        hier.read(0, 0x0)
        hier.write(1, 0x0)
        assert s0.invalidations == 1
