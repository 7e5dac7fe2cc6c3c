"""Configuration dataclasses for the simulated system.

Defaults mirror Table 2 of the paper (the gem5 configuration used by the
authors), scaled only where a parameter is meaningless in a trace-driven
model (e.g. physical memory size).
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from repro.common.types import CacheLevel, LINE_BYTES, SpeculationModel

__all__ = [
    "CoreParams",
    "CacheParams",
    "MemoryParams",
    "MemoryTimingParams",
    "SystemParams",
]


@dataclasses.dataclass(frozen=True)
class CoreParams:
    """Out-of-order core resources (Table 2, 'Processor')."""

    decode_width: int = 8
    issue_width: int = 8
    commit_width: int = 8
    iq_entries: int = 160
    rob_entries: int = 352
    lq_entries: int = 128
    sq_entries: int = 72
    #: Physical integer registers available for renaming.  Table 2 does not
    #: name this; the paper's LPT discussion (section 6.6) cites ~180-224 for
    #: contemporary cores, and 6.6/Fig. 11 sweeps the LPT below this.
    phys_regs: int = 224
    #: Number of architectural integer registers in the trace ISA.
    arch_regs: int = 32
    #: Cycles from branch execution to redirected fetch on a mispredict.
    mispredict_penalty: int = 12
    #: Default execution latencies per op class.
    alu_latency: int = 1
    mul_latency: int = 3
    div_latency: int = 12
    fp_latency: int = 4
    branch_latency: int = 1
    #: Store-buffer drain rate (performed stores per cycle).
    sb_drain_per_cycle: int = 1

    def validate(self) -> None:
        """Raise ValueError on inconsistent core resources."""
        if self.decode_width <= 0 or self.issue_width <= 0 or self.commit_width <= 0:
            raise ValueError("pipeline widths must be positive")
        if self.phys_regs <= self.arch_regs:
            raise ValueError(
                "need more physical than architectural registers for renaming"
            )
        if self.rob_entries <= 0 or self.iq_entries <= 0:
            raise ValueError("window resources must be positive")
        if self.lq_entries <= 0 or self.sq_entries <= 0:
            raise ValueError("load/store queues must be positive")
        latencies = (
            self.alu_latency,
            self.mul_latency,
            self.div_latency,
            self.fp_latency,
            self.branch_latency,
        )
        if min(latencies) <= 0:
            # An event due in the cycle that scheduled it would fire only
            # at the next step, after the cycle it was due.
            raise ValueError("execution latencies must be positive")


@dataclasses.dataclass(frozen=True)
class CacheParams:
    """One cache level (size/associativity/latency)."""

    size_bytes: int
    ways: int
    latency: int  # round-trip data latency in cycles (Table 2)
    line_bytes: int = LINE_BYTES

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return max(1, self.num_lines // self.ways)

    def validate(self) -> None:
        """Raise ValueError on an impossible cache geometry."""
        if self.size_bytes % self.line_bytes:
            raise ValueError("cache size must be a multiple of the line size")
        if self.ways <= 0 or self.num_lines < self.ways:
            raise ValueError("invalid associativity")
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("number of sets must be a power of two")


@dataclasses.dataclass(frozen=True)
class MemoryTimingParams:
    """Contention knobs of the memory transaction engine.

    Every knob defaults to ``None`` (unbounded), which is the
    *contention-free* configuration: the transaction engine then
    reproduces the legacy atomic latency-summing model access-for-access
    (enforced by the golden parity suite).  Bounding any knob introduces
    queueing delay where real hardware serializes:

    * ``mshr_entries`` — outstanding misses per core; a primary miss
      with no free MSHR stalls until the oldest outstanding fill lands.
    * ``port_width`` — transactions a core's master port accepts per
      cycle; excess transactions start on later cycles.
    * ``noc_link_width`` — interconnect messages injected per cycle
      before hops queue.
    * ``dram_queue_depth`` — outstanding DRAM reads; a fetch beyond the
      depth waits for the earliest in-flight read to complete.
    """

    mshr_entries: Optional[int] = None
    port_width: Optional[int] = None
    noc_link_width: Optional[int] = None
    dram_queue_depth: Optional[int] = None

    @property
    def contention_free(self) -> bool:
        """True when no knob can ever add queueing delay."""
        return (
            self.mshr_entries is None
            and self.port_width is None
            and self.noc_link_width is None
            and self.dram_queue_depth is None
        )

    def validate(self) -> None:
        """Raise ValueError on a meaningless bound."""
        for name in (
            "mshr_entries",
            "port_width",
            "noc_link_width",
            "dram_queue_depth",
        ):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive (or None)")


@dataclasses.dataclass(frozen=True)
class MemoryParams:
    """Cache hierarchy + DRAM (Table 2, 'Memory').

    The default capacities are Table 2's divided by 16 so that the synthetic
    working sets (which are far smaller than SPEC's) see comparable pressure:
    L1 64 lines, L2 2048 lines, LLC 16384 lines.  Latencies are Table 2's
    verbatim.
    """

    l1: CacheParams = CacheParams(size_bytes=64 * 1024 // 16, ways=8, latency=2)
    l2: CacheParams = CacheParams(size_bytes=2 * 1024 * 1024 // 16, ways=16, latency=6)
    llc: CacheParams = CacheParams(
        size_bytes=16 * 1024 * 1024 // 16, ways=32, latency=16
    )
    dram_latency: int = 150
    #: Extra latency applied to each directory/coherence hop (GARNET stand-in).
    noc_hop_latency: int = 4
    #: Interconnect topology: "crossbar" (constant hop latency) or "mesh"
    #: (2D mesh, XY routing, distance-dependent latency).
    topology: str = "crossbar"
    mesh_rows: int = 2
    mesh_cols: int = 2
    #: Next-line prefetcher: an L2 miss also pulls the following line into
    #: the L2 (off the critical path).  Prefetched lines carry the
    #: directory's reveal vector like any other fill, so ReCon state
    #: arrives with the prefetch.
    prefetch_next_line: bool = False
    #: Contention model of the transaction engine (MSHR count, port
    #: widths, DRAM queue depth).  The default is contention-free.
    timing: MemoryTimingParams = MemoryTimingParams()

    def level(self, level: CacheLevel) -> CacheParams:
        """Parameters of one cache level."""
        if level is CacheLevel.L1:
            return self.l1
        if level is CacheLevel.L2:
            return self.l2
        if level is CacheLevel.LLC:
            return self.llc
        raise ValueError(f"no cache parameters for {level}")

    def validate(self) -> None:
        """Raise ValueError on inconsistent hierarchy parameters."""
        for cache in (self.l1, self.l2, self.llc):
            cache.validate()
        if not (self.l1.size_bytes <= self.l2.size_bytes <= self.llc.size_bytes):
            raise ValueError("cache capacities must be non-decreasing with level")
        if self.topology not in ("crossbar", "mesh"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.topology == "mesh" and (self.mesh_rows <= 0 or self.mesh_cols <= 0):
            raise ValueError("mesh dimensions must be positive")
        self.timing.validate()


@dataclasses.dataclass(frozen=True)
class SystemParams:
    """Whole-system configuration."""

    core: CoreParams = CoreParams()
    memory: MemoryParams = MemoryParams()
    num_cores: int = 1
    #: Cache levels at which reveal bits are *visible to the core* (Fig. 10).
    #: ``None`` means every level (the default ReCon design).
    recon_levels: Optional[Tuple[CacheLevel, ...]] = None
    #: Load-pair table entries; ``None`` sizes it to ``core.phys_regs``.
    lpt_entries: Optional[int] = None
    #: Enable the store-set-lite memory dependence predictor.
    memory_dependence_speculation: bool = True
    #: Which instructions cast speculation shadows (paper §3.1).
    speculation_model: SpeculationModel = SpeculationModel.CONTROL_AND_STORE
    #: Footnote 1 of the paper: on an invalidation, OR the invalidated
    #: reader's private reveal vector into the writer's copy instead of
    #: dropping it.  Safe (the writer conceals exactly the words it
    #: writes) but requires carrying the vector on invalidation acks.
    preserve_invalidated_reveals: bool = False
    #: How many source operands of a load the LPT checks at commit.
    #: The paper evaluates 1 (a single direct dependence, §5.1.1) and
    #: leaves multi-source operations as future work.
    lpt_sources: int = 1

    def validate(self) -> None:
        """Raise ValueError on an inconsistent system configuration."""
        self.core.validate()
        self.memory.validate()
        if self.num_cores <= 0:
            raise ValueError("need at least one core")
        if self.lpt_entries is not None and self.lpt_entries <= 0:
            raise ValueError("LPT must have at least one entry")
        if self.lpt_sources <= 0:
            raise ValueError("the LPT must check at least one source operand")
        if self.recon_levels is not None:
            for level in self.recon_levels:
                if level is CacheLevel.MEMORY:
                    raise ValueError("reveal bits are not stored in DRAM")

    def recon_visible_at(self, level: CacheLevel) -> bool:
        """True if a reveal bit served from ``level`` may lift defenses."""
        if self.recon_levels is None:
            return level is not CacheLevel.MEMORY
        return level in self.recon_levels

    @property
    def effective_lpt_entries(self) -> int:
        if self.lpt_entries is None:
            return self.core.phys_regs
        return self.lpt_entries
