"""Synthetic workload generator.

The generator is an *honest* program synthesizer: it lays out real pointer
structures (linked lists, trees, index arrays) in the
:class:`~repro.isa.program.Program` memory image and emits micro-ops that
actually walk them — so a load pair in the generated trace is a genuine
dereference of a genuine pointer, both for the pipeline and for the
Clueless analyzer.

Memory map (word-aligned, per thread unless shared):

========================  =======================================
``0x0100_0000``           pointer-chase chains (nodes: next, value)
``0x0200_0000``           tree nodes (left, right, value, pad)
``0x0300_0000``           index array A (holds scaled offsets)
``0x0400_0000``           target array B (indexed by A's contents)
``0x0500_0000``           hash buckets (pointers to chain nodes)
``0x0600_0000``           streaming / stencil arrays
``0x0700_0000``           shared region (parallel workloads)
``0x0700_0000 + 0x80*i``  lock words
========================  =======================================
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.isa.program import Program
from repro.workloads.profile import BenchmarkProfile

__all__ = ["WorkloadBuilder", "build_trace", "build_parallel_traces"]

_CHASE_BASE = 0x0100_0000
_TREE_BASE = 0x0200_0000
_INDEX_BASE = 0x0300_0000
_TARGET_BASE = 0x0400_0000
_HASH_BASE = 0x0500_0000
_STREAM_BASE = 0x0600_0000
_DESC_BASE = 0x0480_0000
_SHARED_BASE = 0x0700_0000
_THREAD_STRIDE = 0x1000_0000

_NODE_BYTES = 16  # next (word 0), value (word 1)
_TREE_NODE_BYTES = 32  # left, right, value, pad


class _Chain:
    """A cyclic singly linked list being walked by the generator."""

    __slots__ = ("nodes", "cursor")

    def __init__(self, nodes: List[int]) -> None:
        self.nodes = nodes
        self.cursor = nodes[0]


class WorkloadBuilder:
    """Builds one thread's trace for a :class:`BenchmarkProfile`."""

    def __init__(
        self,
        profile: BenchmarkProfile,
        thread_id: int = 0,
        num_threads: int = 1,
    ) -> None:
        self.profile = profile
        self.thread_id = thread_id
        self.num_threads = num_threads
        self.prog = Program()
        # Layout must be identical across threads of one workload, so it is
        # derived from the profile seed alone; the op stream differs per
        # thread.
        self._layout_rng = random.Random(profile.seed)
        self._rng = random.Random(profile.seed * 1009 + thread_id * 7919)
        fully_shared = profile.shared_fraction >= 1.0
        base = _SHARED_BASE if fully_shared else thread_id * _THREAD_STRIDE
        self._chains = self._build_chains(base + _CHASE_BASE)
        self._tree_nodes = self._build_tree(base + _TREE_BASE)
        self._build_arrays(base, nodes=self._all_nodes(self._chains))
        self._base = base
        self._shared_chains: Optional[List[_Chain]] = None
        if fully_shared:
            self._shared_chains = self._chains
        elif profile.shared_fraction > 0.0:
            self._shared_chains = self._build_chains(
                _SHARED_BASE + _CHASE_BASE, rng=random.Random(profile.seed)
            )
            self._build_arrays(
                _SHARED_BASE,
                rng=random.Random(profile.seed + 5),
                nodes=self._all_nodes(self._shared_chains),
            )
        self._stream_cursor = 0
        self._index_cursor = 0
        self._kernel_names = list(profile.kernel_weights.keys())
        self._kernel_cum = self._cumulative_weights()
        #: Trace length at the start and after every emitted chunk.
        self.chunk_ends: List[int] = [0]

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
    def _build_chains(
        self, region: int, rng: Optional[random.Random] = None
    ) -> List[_Chain]:
        rng = rng or self._layout_rng
        profile = self.profile
        chains = []
        stride = max(_NODE_BYTES, profile.node_stride_bytes)
        slots = list(range(profile.chains * profile.chain_nodes))
        rng.shuffle(slots)
        it = iter(slots)
        for _ in range(profile.chains):
            nodes = [
                region + next(it) * stride for _ in range(profile.chain_nodes)
            ]
            for here, there in zip(nodes, nodes[1:] + nodes[:1]):
                self.prog.poke(here, there)  # next pointer
                self.prog.poke(here + 8, rng.getrandbits(32))  # value
            chains.append(_Chain(nodes))
        return chains

    def _build_tree(self, region: int) -> List[int]:
        rng = self._layout_rng
        count = max(2, self.profile.chain_nodes)
        nodes = [region + i * _TREE_NODE_BYTES for i in range(count)]
        rng.shuffle(nodes)
        for i, node in enumerate(nodes):
            self.prog.poke(node, nodes[(2 * i + 1) % count])  # left
            self.prog.poke(node + 8, nodes[(2 * i + 2) % count])  # right
            self.prog.poke(node + 16, rng.getrandbits(32))  # value
        return nodes

    @staticmethod
    def _all_nodes(chains: Sequence[_Chain]) -> List[int]:
        return [node for chain in chains for node in chain.nodes]

    def _build_arrays(
        self,
        base: int,
        nodes: Sequence[int],
        rng: Optional[random.Random] = None,
    ) -> None:
        rng = rng or self._layout_rng
        words = self.profile.array_words
        for i in range(words):
            # A[i] holds a *scaled offset* into B, so that B[A[i]] is a
            # single base+offset load — the paper's base-address indexing.
            self.prog.poke(base + _INDEX_BASE + i * 8, rng.randrange(words) * 8)
        buckets = max(16, words // 4)
        for i in range(buckets):
            self.prog.poke(base + _HASH_BASE + i * 8, rng.choice(nodes))
        # Array descriptors: words holding the target array's base address,
        # used by the `desc->array[idx]` multi-source pattern (§5.1.1).
        for i in range(8):
            self.prog.poke(base + _DESC_BASE + i * 8, base + _TARGET_BASE)

    def _cumulative_weights(self) -> List[float]:
        total = 0.0
        cumulative = []
        for name in self._kernel_names:
            total += self.profile.kernel_weights[name]
            cumulative.append(total)
        return cumulative

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def build(self, length: int) -> Program:
        """Emit kernel chunks until the trace reaches ``length`` micro-ops.

        No chunk depends on ``length``, so the trace built for a shorter
        length is the prefix of this one that ends at the first entry of
        :attr:`chunk_ends` at or past that length.
        """
        while len(self.prog) < length:
            pick = self._rng.random() * self._kernel_cum[-1]
            for name, bound in zip(self._kernel_names, self._kernel_cum):
                if pick <= bound:
                    _KERNELS[name](self)
                    break
            self.chunk_ends.append(len(self.prog))
        return self.prog

    # ------------------------------------------------------------------
    # kernel chunks
    # ------------------------------------------------------------------
    def _sticky_indirect(self, addr: int) -> bool:
        """Whether dereferences of ``addr`` go through computation.

        The choice is a deterministic function of the address, so a word
        that is dereferenced indirectly is *always* dereferenced
        indirectly — it leaks under global DIFT but never as a direct
        load pair, exactly the DIFT-vs-pairs gap of Fig. 4 (and the
        reason deepsjeng/cactuBSSN recover little in Fig. 9).
        """
        mixed = (addr * 0x2545F4914F6CDD1D) & 0xFFFFFFFF
        return (mixed % 1000) < self.profile.indirect_fraction * 1000

    def _use_shared(self) -> bool:
        return (
            self._shared_chains is not None
            and self._rng.random() < self.profile.shared_fraction
        )

    def _maybe_lock(self) -> None:
        if self.profile.lock_rate and self._rng.random() < self.profile.lock_rate:
            lock_addr = _SHARED_BASE + 0x80 * self._rng.randrange(8)
            prog = self.prog
            prog.li(20, lock_addr)
            prog.load(21, base=20)  # read the lock word
            prog.branch(21, mispredict=self._rng.random() < 0.3)
            prog.li(22, self.thread_id + 1)
            prog.store(22, base=20)  # acquire (conceals the lock word)

    def _value_branch(self, pointer_reg: int, data_reg: Optional[int] = None) -> None:
        """Branch on a loaded value with probability ``value_branch_rate``.

        ``pointer_reg`` holds a dereferenced pointer (its home word gets
        revealed on reuse, so ReCon can lift the resolution delay);
        ``data_reg`` holds a plain data value (never revealed).  The
        profile's ``data_branch_fraction`` picks between them.
        """
        if self._rng.random() >= self.profile.value_branch_rate:
            return
        reg = pointer_reg
        if (
            data_reg is not None
            and self._rng.random() < self.profile.data_branch_fraction
        ):
            reg = data_reg
        # The branch tests a *computed* condition (a compare chain on the
        # loaded value), which is where NDA pays extra latency over STT.
        for _ in range(self.profile.branch_compute_depth):
            self.prog.alu(24, reg)
            reg = 24
        self.prog.branch(
            reg, mispredict=self._rng.random() < self.profile.mispredict_rate
        )

    def _dependent_compute(self, reg: int, depth: Optional[int] = None) -> int:
        """Chained computation on a loaded value, ending in an output store.

        The trailing store writes the *computed* value to an output buffer
        (untainted address).  It differentiates NDA from STT: under NDA
        the compute chain cannot start until the load is safe, so the
        store's data arrives late and in-order commit stalls at the store;
        under STT the chain executes under speculation and the store
        commits on time.
        """
        prog = self.prog
        depth = self.profile.compute_depth if depth is None else depth
        current = reg
        for _ in range(depth):
            prog.alu(28, current)
            current = 28
        if depth and self._rng.random() < 0.5:
            out_addr = self._base + _STREAM_BASE + 0x40000 + (
                (self._stream_cursor + 8 * self._rng.randrange(64)) % 0x1000
            )
            prog.li(27, out_addr)
            prog.store(current, base=27)
        return current

    def _independent_compute(self) -> None:
        prog = self.prog
        for i in range(self.profile.independent_compute):
            prog.li(29, i)
            prog.alu(30, 29)

    def _emit_pointer_chase(self) -> None:
        """Interleaved register-carried pointer chains (``p = p->next``).

        Each chain's pointer stays in a register across steps, so
        consecutive hops are *true* dependent load pairs: the next hop's
        address is the previous load's value.  Under the unsafe baseline
        the interleaved chains overlap (MLP = number of chains); under
        STT/NDA every hop is a transmitter fed by a speculative load, so
        the chains serialize on the visibility frontier — exactly the
        memory-level-parallelism loss the paper attributes to the secure
        schemes.  Once a lap has revealed the pointer words, ReCon lifts
        the hops and the MLP returns.
        """
        profile = self.profile
        prog = self.prog
        self._maybe_lock()
        chains = (
            self._shared_chains if self._use_shared() else self._chains
        ) or self._chains
        k = min(len(chains), 12)
        active = chains[:k]
        cur = list(range(1, 1 + k))
        nxt = list(range(13, 13 + k))
        for i, chain in enumerate(active):
            prog.li(cur[i], chain.cursor)
        for _ in range(profile.chase_steps):
            # Hop wave: nxt[i] <- *cur[i]; a pair with the previous hop.
            for i, chain in enumerate(active):
                if self._sticky_indirect(chain.cursor):
                    # Indirect dereference: copy through an ALU first.
                    prog.load(25, base=cur[i])
                    prog.add_imm(nxt[i], 25, 0)  # breaks the direct pair
                else:
                    prog.load(nxt[i], base=cur[i])
            # Payload wave: dereference each new pointer (direct pairs).
            for i, chain in enumerate(active):
                prog.load(26, base=nxt[i], offset=8)  # next->value
                # `while (p)`-style loop control tests the pointer (whose
                # home word is revealed by the pair, so ReCon can untaint
                # the loop spine on reuse); a data_branch_fraction of the
                # branches test the payload value instead.
                self._value_branch(nxt[i], data_reg=26)
                if self._rng.random() < profile.store_rate:
                    # Rewrite the followed pointer: conceals it.
                    prog.store(nxt[i], base=cur[i])
                chain.cursor = prog.peek(chain.cursor)
            cur, nxt = nxt, cur
            self._dependent_compute(26)
            self._independent_compute()

    def _emit_indexed(self) -> None:
        """B[A[i]] — base-address indexing (a direct pair, §1)."""
        profile = self.profile
        prog = self.prog
        shared = self._use_shared()
        base = _SHARED_BASE if shared else self._base
        for _ in range(8):
            i = self._index_cursor % profile.array_words
            self._index_cursor += 1 + self._rng.randrange(3)
            slot = base + _INDEX_BASE + i * 8
            prog.li(1, slot)
            prog.load(2, base=1)  # A[i] (scaled offset)
            if self._sticky_indirect(slot):
                prog.add_imm(3, 2, 0)  # masked/rescaled index: indirect
                prog.load(4, base=3, offset=base + _TARGET_BASE)
            elif self._rng.random() < 0.25:
                # desc->array[idx]: both address operands are loaded
                # values, so the pair can form through either (§5.1.1).
                prog.li(5, base + _DESC_BASE + self._rng.randrange(8) * 8)
                prog.load(6, base=5)  # the array's base pointer
                prog.load_indexed(4, base=6, index=2)
            else:
                prog.load(4, base=2, offset=base + _TARGET_BASE)  # B[A[i]]
            out = self._dependent_compute(4)
            # Branch on the index (revealed on reuse) or on the computed
            # result of the target value (never revealed).
            self._value_branch(2, data_reg=out)
            if self._rng.random() < profile.store_rate:
                prog.store(2, base=1)  # rewrite A[i]: conceals the slot
        self._independent_compute()

    def _emit_tree(self) -> None:
        """Pointer-tree descent with data-dependent direction branches."""
        profile = self.profile
        prog = self.prog
        node = self._rng.choice(self._tree_nodes)
        prog.li(1, node)
        cur_reg = 1
        for _ in range(profile.chase_steps):
            side = 0 if self._rng.random() < 0.5 else 8
            prog.load(2, base=cur_reg, offset=16)  # node->value (pair)
            if self._sticky_indirect(node + side):
                prog.load(25, base=cur_reg, offset=side)
                prog.add_imm(3, 25, 0)
            else:
                prog.load(3, base=cur_reg, offset=side)  # child (pair)
            # Descent direction: usually `if (node->child)` (revealable),
            # sometimes a comparison on the payload (not revealable).
            self._value_branch(3, data_reg=2)
            cur_reg = 3
            node = prog.regs[3]
        self._dependent_compute(2)
        self._independent_compute()

    def _emit_hash(self) -> None:
        """Hash-table probe: computed bucket, then chained dereferences."""
        profile = self.profile
        prog = self.prog
        shared = self._use_shared()
        base = _SHARED_BASE if shared else self._base
        buckets = max(16, profile.array_words // 4)
        for _ in range(4):
            prog.li(1, self._rng.getrandbits(16))
            prog.alu(2, 1)
            prog.alu(2, 2)  # "hash" of the key
            bucket = self._rng.randrange(buckets)
            prog.li(3, base + _HASH_BASE + bucket * 8)
            prog.load(4, base=3)  # bucket head pointer
            prog.load(5, base=4, offset=8)  # head->value (direct pair)
            out = self._dependent_compute(5)
            # Key comparison: usually against the chain pointer (revealed
            # on bucket reuse), sometimes against the stored key itself.
            self._value_branch(4, data_reg=out)
            if self._rng.random() < profile.store_rate:
                prog.store(4, base=3)  # re-link the bucket: conceals it
        self._independent_compute()

    def _emit_stream(self) -> None:
        """Sequential load-compute-store; no pointer dereferencing."""
        prog = self.prog
        base = self._base + _STREAM_BASE
        span = max(64, self.profile.array_words) * 8
        for _ in range(16):
            addr = base + (self._stream_cursor % span)
            self._stream_cursor += 8
            prog.li(1, addr)
            prog.load(2, base=1)
            prog.alu(3, 2)
            prog.store(3, base=1, offset=span)
        if self._rng.random() < 0.2:
            # Loop-exit check on the induction counter: data-independent.
            prog.li(7, self._stream_cursor)
            prog.branch(7, mispredict=self._rng.random() < 0.01)

    def _emit_stencil(self) -> None:
        """Neighbour loads + FP compute; branches rare and data-independent."""
        from repro.common.types import OpClass

        prog = self.prog
        base = self._base + _STREAM_BASE
        span = max(64, self.profile.array_words) * 8
        for _ in range(8):
            addr = base + (self._stream_cursor % span)
            self._stream_cursor += 8
            prog.li(1, addr)
            prog.load(2, base=1)
            prog.load(3, base=1, offset=8)
            prog.load(4, base=1, offset=16)
            prog.alu(5, 2, 3, opclass=OpClass.FP)
            prog.alu(5, 5, 4, opclass=OpClass.FP)
            prog.store(5, base=1, offset=span)
        if self._rng.random() < 0.1:
            # Grid-loop condition on the induction counter.
            prog.li(7, self._stream_cursor)
            prog.branch(7, mispredict=False)

    def _emit_compute(self) -> None:
        """Register-resident arithmetic; negligible memory traffic."""
        from repro.common.types import OpClass

        prog = self.prog
        prog.li(1, self._rng.getrandbits(16))
        current = 1
        for i in range(12):
            opclass = OpClass.MUL if i % 3 == 0 else OpClass.FP
            prog.alu(2, current, opclass=opclass)
            current = 2
        for i in range(self.profile.independent_compute + 4):
            prog.li(3, i)
            prog.alu(4, 3)

    def _emit_branchy(self) -> None:
        """Branch-dense integer code on register (non-loaded) values."""
        prog = self.prog
        prog.li(1, self._rng.getrandbits(16))
        for _ in range(10):
            prog.alu(2, 1)
            prog.branch(
                2, mispredict=self._rng.random() < self.profile.mispredict_rate
            )
            prog.alu(1, 2)


#: Kernel chunk emitters by the names profiles weight.  Plain functions
#: called with the builder: a builder holding its own bound methods would
#: be a reference cycle, and its memory image would outlive the build
#: until the cyclic collector ran.
_KERNELS = {
    "pointer_chase": WorkloadBuilder._emit_pointer_chase,
    "indexed": WorkloadBuilder._emit_indexed,
    "tree": WorkloadBuilder._emit_tree,
    "hash": WorkloadBuilder._emit_hash,
    "stream": WorkloadBuilder._emit_stream,
    "stencil": WorkloadBuilder._emit_stencil,
    "compute": WorkloadBuilder._emit_compute,
    "branchy": WorkloadBuilder._emit_branchy,
}


def build_trace(profile: BenchmarkProfile, length: int) -> Program:
    """Build a single-thread trace of roughly ``length`` micro-ops.

    Profiles in the ``gadgets`` suite dispatch to the attack-scenario
    catalog (:mod:`repro.workloads.gadgets`) instead of the synthetic
    kernel mix; the import is lazy to keep the catalog off the hot
    import path of ordinary runs.
    """
    if profile.suite == "gadgets":
        from repro.workloads.gadgets import build_gadget_trace

        return build_gadget_trace(profile, length)
    return WorkloadBuilder(profile).build(length)


def build_parallel_traces(
    profile: BenchmarkProfile, num_threads: int, length: int
) -> List[Program]:
    """Build one trace per thread; shared structures have identical layout.

    Writes by one thread are not reflected in another thread's memory
    image (the caches carry no data in this model, only addresses and
    metadata), so each trace stays self-consistent while the *addresses*
    exercise real sharing, invalidations, and reveal-bit coherence.
    """
    if profile.suite == "gadgets":
        from repro.workloads.gadgets import build_gadget_parallel_traces

        return build_gadget_parallel_traces(profile, num_threads, length)
    return [
        WorkloadBuilder(profile, thread_id=t, num_threads=num_threads).build(length)
        for t in range(num_threads)
    ]
