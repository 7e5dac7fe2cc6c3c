"""Bounded ports, queues, and the contention model of the hierarchy.

The contention knobs (:class:`MemoryTimingParams`) are all unbounded by
default — the parity suite pins that case to the legacy golden.  These
tests cover the bounded side: queueing only ever *adds* latency, stats
attribute the waits, and the coherence invariants keep holding.
"""

import dataclasses
import random

import pytest

from repro.common import (
    CacheParams,
    MemoryParams,
    MemoryTimingParams,
    StatSet,
    SystemParams,
)
from repro.memory import (
    BandwidthPort,
    FixedLatencyInterconnect,
    MainMemory,
    MemoryHierarchy,
    MeshInterconnect,
)


def timed_params(num_cores=1, topology="crossbar", **timing_kwargs):
    """Tiny hierarchy (as in test_hierarchy) with timing overrides."""
    memory = MemoryParams(
        l1=CacheParams(size_bytes=8 * 64, ways=2, latency=2),
        l2=CacheParams(size_bytes=16 * 64, ways=4, latency=6),
        llc=CacheParams(size_bytes=64 * 64, ways=4, latency=16),
        dram_latency=100,
        noc_hop_latency=4,
        timing=MemoryTimingParams(**timing_kwargs),
    )
    if topology == "mesh":
        memory = dataclasses.replace(
            memory, topology="mesh", mesh_rows=2, mesh_cols=2
        )
    return SystemParams(memory=memory, num_cores=num_cores)


def drive_mix(hier, num_cores, ops=200, seed=7):
    """A deterministic read/write/reveal mix; returns total latency."""
    rng = random.Random(seed)
    total = 0
    now = 0
    for _ in range(ops):
        core = rng.randrange(num_cores)
        addr = rng.randrange(0x2000) & ~0x7
        roll = rng.random()
        if roll < 0.6:
            total += hier.read(core, addr, now=now).latency
        elif roll < 0.8:
            total += hier.write(core, addr, now=now)
        else:
            hier.reveal(core, addr, now=now)
        if rng.random() < 0.5:
            now += rng.choice((1, 3, 20, 200))
    return total


class TestBandwidthPort:
    def test_unbounded_never_waits(self):
        port = BandwidthPort()
        assert all(port.acquire(0) == 0 for _ in range(50))
        assert port.stall_cycles == 0

    def test_bounded_serializes_same_cycle_grants(self):
        port = BandwidthPort(width=2)
        assert port.acquire(5) == 0
        assert port.acquire(5) == 0
        assert port.acquire(5) == 1  # third request: next cycle
        assert port.acquire(5) == 1
        assert port.acquire(5) == 2
        assert port.stall_cycles == 4

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            BandwidthPort(width=0)


class TestBoundedDram:
    def test_unbounded_is_flat_latency(self):
        dram = MainMemory(100)
        assert dram.fetch(now=0) == 100
        assert dram.fetch(now=0) == 100
        assert dram.queue_cycles == 0

    def test_bounded_queue_delays_overflow(self):
        dram = MainMemory(100, queue_depth=1)
        assert dram.fetch(now=0) == 100
        # Channel busy until 100: the second fetch waits for the slot.
        assert dram.fetch(now=0) == 200
        assert dram.queue_cycles == 100
        # After the channel drains, service is flat again.
        assert dram.fetch(now=500) == 100

    def test_clock_less_fetch_never_queues(self):
        dram = MainMemory(100, queue_depth=1)
        assert dram.fetch() == 100
        assert dram.fetch() == 100
        assert dram.queue_cycles == 0


class TestBoundedInterconnect:
    def test_bounded_link_queues_injections(self):
        noc = FixedLatencyInterconnect(4, link_width=1)
        assert noc.hop(now=0) == 4
        assert noc.hop(now=0) == 5  # second message waits one cycle
        assert noc.queue_cycles == 1
        assert noc.queue_depth(0) == 1

    def test_mesh_counts_endpoint_less_messages(self):
        mesh = MeshInterconnect(2, 2, 4)
        assert mesh.hop(src=0, dst=3) == 8
        assert mesh.averaged_hops == 0
        mesh.hop()  # endpoint-less: charged the average distance
        assert mesh.averaged_hops == 1


class TestContentionInHierarchy:
    def test_bounded_mshr_stalls_primary_misses(self):
        free = MemoryHierarchy(timed_params())
        bound = MemoryHierarchy(timed_params(mshr_entries=1))
        stats = StatSet()
        bound.attach_stats(0, stats)
        lines = [0x1000, 0x2000, 0x3000, 0x4000]
        free_total = sum(free.read(0, a, now=0).latency for a in lines)
        bound_total = sum(bound.read(0, a, now=0).latency for a in lines)
        assert bound_total > free_total
        assert stats.mshr_stall_cycles > 0

    def test_bounded_port_charges_wait(self):
        bound = MemoryHierarchy(timed_params(port_width=1))
        stats = StatSet()
        bound.attach_stats(0, stats)
        first = bound.read(0, 0x1000, now=0)
        second = bound.read(0, 0x1000, now=0)  # same cycle: port conflict
        assert second.latency > 0
        assert stats.port_stall_cycles == 1
        assert first.latency >= 100  # unaffected cold miss

    def test_bounded_noc_and_dram_only_add_latency(self):
        free = MemoryHierarchy(timed_params())
        bound = MemoryHierarchy(
            timed_params(noc_link_width=1, dram_queue_depth=1)
        )
        stats = StatSet()
        bound.attach_stats(0, stats)
        lines = [0x1000, 0x2000, 0x3000]
        for addr in lines:
            assert (
                bound.read(0, addr, now=0).latency
                >= free.read(0, addr, now=0).latency
            )
        assert stats.noc_queue_cycles + stats.dram_queue_cycles > 0

    @pytest.mark.parametrize("topology", ["crossbar", "mesh"])
    def test_invariants_hold_under_bounded_bandwidth(self, topology):
        params = timed_params(
            num_cores=4,
            topology=topology,
            mshr_entries=2,
            port_width=1,
            noc_link_width=1,
            dram_queue_depth=2,
        )
        hier = MemoryHierarchy(params)
        drive_mix(hier, num_cores=4)
        hier.check_coherence_invariants()

    def test_invariants_catch_averaged_hops(self):
        hier = MemoryHierarchy(timed_params(num_cores=4, topology="mesh"))
        drive_mix(hier, num_cores=4)
        hier.check_coherence_invariants()  # protocol always has endpoints
        hier.noc.hop()  # a message that lost its endpoints
        with pytest.raises(AssertionError, match="average-distance"):
            hier.check_coherence_invariants()


class TestMemoryTimingParams:
    def test_default_is_contention_free(self):
        timing = MemoryTimingParams()
        assert timing.contention_free
        timing.validate()

    def test_any_bound_disables_contention_free(self):
        assert not MemoryTimingParams(mshr_entries=8).contention_free
        assert not MemoryTimingParams(noc_link_width=2).contention_free

    def test_validate_rejects_nonpositive(self):
        for field in (
            "mshr_entries",
            "port_width",
            "noc_link_width",
            "dram_queue_depth",
        ):
            with pytest.raises(ValueError):
                MemoryTimingParams(**{field: 0}).validate()
