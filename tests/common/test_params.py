"""Unit tests for configuration dataclasses."""

import dataclasses

import pytest

from repro.common import CacheLevel, CacheParams, CoreParams, MemoryParams, SystemParams


class TestCoreParams:
    def test_defaults_match_table2(self):
        core = CoreParams()
        assert core.decode_width == 8
        assert core.issue_width == 8
        assert core.commit_width == 8
        assert core.iq_entries == 160
        assert core.rob_entries == 352
        assert core.lq_entries == 128
        assert core.sq_entries == 72

    def test_validate_rejects_zero_width(self):
        with pytest.raises(ValueError):
            dataclasses.replace(CoreParams(), decode_width=0).validate()

    def test_validate_rejects_too_few_phys_regs(self):
        with pytest.raises(ValueError):
            dataclasses.replace(CoreParams(), phys_regs=16, arch_regs=32).validate()

    @pytest.mark.parametrize(
        "field",
        ["alu_latency", "mul_latency", "div_latency", "fp_latency", "branch_latency"],
    )
    def test_validate_rejects_zero_latency(self, field):
        with pytest.raises(ValueError, match="latencies"):
            dataclasses.replace(CoreParams(), **{field: 0}).validate()


class TestCacheParams:
    def test_geometry(self):
        cache = CacheParams(size_bytes=64 * 1024, ways=8, latency=2)
        assert cache.num_lines == 1024
        assert cache.num_sets == 128

    def test_validate_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            CacheParams(size_bytes=3 * 64 * 10, ways=2, latency=1).validate()

    def test_validate_rejects_unaligned_size(self):
        with pytest.raises(ValueError):
            CacheParams(size_bytes=100, ways=2, latency=1).validate()


class TestSystemParams:
    def test_defaults_validate(self):
        SystemParams().validate()

    def test_recon_visible_everywhere_by_default(self):
        params = SystemParams()
        assert params.recon_visible_at(CacheLevel.L1)
        assert params.recon_visible_at(CacheLevel.L2)
        assert params.recon_visible_at(CacheLevel.LLC)
        assert not params.recon_visible_at(CacheLevel.MEMORY)

    def test_recon_l1_only(self):
        params = SystemParams(recon_levels=(CacheLevel.L1,))
        assert params.recon_visible_at(CacheLevel.L1)
        assert not params.recon_visible_at(CacheLevel.L2)
        assert not params.recon_visible_at(CacheLevel.LLC)

    def test_lpt_defaults_to_phys_regs(self):
        params = SystemParams()
        assert params.effective_lpt_entries == params.core.phys_regs
        assert SystemParams(lpt_entries=28).effective_lpt_entries == 28

    def test_rejects_memory_recon_level(self):
        with pytest.raises(ValueError):
            SystemParams(recon_levels=(CacheLevel.MEMORY,)).validate()

    def test_memory_latencies_match_table2(self):
        mem = MemoryParams()
        assert mem.l1.latency == 2
        assert mem.l2.latency == 6
        assert mem.llc.latency == 16


class TestStatSet:
    def test_ipc(self):
        from repro.common import StatSet

        stats = StatSet()
        stats.cycles = 100
        stats.committed_uops = 250
        assert stats.ipc == 2.5

    def test_ipc_zero_cycles(self):
        from repro.common import StatSet

        assert StatSet().ipc == 0.0

    def test_merge_adds_counters_and_maxes_cycles(self):
        from repro.common import StatSet

        a = StatSet()
        a.cycles, a.committed_uops, a.l1_hits = 100, 50, 7
        b = StatSet()
        b.cycles, b.committed_uops, b.l1_hits = 80, 60, 3
        a.merge(b)
        assert a.cycles == 100
        assert a.committed_uops == 110
        assert a.l1_hits == 10
