"""Parameterized attack-scenario builders (the gadget catalog's bodies).

Every builder emits one *instance* of an attack pattern into a
:class:`~repro.isa.program.Program` at a caller-chosen ``base`` address,
and reports the attack *site*: which micro-op is the transmitter, which
memory word holds the secret, and how many leading micro-ops model
genuine non-speculative execution (the *architectural prefix* — the part
of the trace an analyst may legitimately run DIFT over to decide what
was public "at attack time").

Conventions shared by all builders:

* The **transmitter** is a load whose *address* is derived from the
  secret word's content.  Its target line is always cold by
  construction, so a speculative issue perturbs the cache (the
  observable side channel); a transmitter that only ever *hits* in the
  L1 leaves no footprint and does not count as transmission.
* The **speculation shadow** is a chain of dependent cold loads feeding
  a branch: the branch cannot resolve before the chain returns, so
  everything younger executes speculatively for ~``depth`` DRAM round
  trips under every scheme (the chain itself is non-speculative, so no
  scheme delays it).
* ``noise_seed`` prepends deterministic benign prefix noise.  Matched
  audit trials reuse the seed across secret values, so any
  metadata difference between the pair is secret-dependence by
  construction (see :mod:`repro.redteam.audit`).
* Memory images are per-program: multi-core builders ``poke`` shared
  words into every thread's image (the caches carry addresses and
  metadata, not data — see :func:`repro.workloads.kernels.build_parallel_traces`).
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Optional, Tuple

from repro.common.types import MemPrediction, word_addr
from repro.isa.program import Program

__all__ = ["BuiltGadget", "GadgetSite", "INSTANCE_STRIDE"]

#: Address distance between repeated gadget instances: far enough apart
#: that every instance starts with a fully cold working set.
INSTANCE_STRIDE = 0x0010_0000

# Per-instance address layout (offsets from ``base``).  Distinct 0x1000
# strides keep every named word on its own cache line; "fresh" transmit
# targets are chosen so no warm-up path ever touches them.
_PTR_OFF = 0x1000  # a pointer the program dereferences architecturally
_TARGET_OFF = 0x2000  # where that pointer points
_FRESH_OFF = 0x2000  # re-deref offset: TARGET+0x2000 = base+0x4000, cold
_SECRET_OFF = 0x5000  # a secret word no architectural path dereferences
_JUNK_OFF = 0x6000  # pointer value written by the concealing store
_SECRET_TARGET_OFF = 0x7000  # default content of the secret word
_TABLE_OFF = 0x8000  # base of the v1-indexed probe table
_SCRATCH_OFF = 0x9000  # v1.1 speculative-store slot
_PROBE_OFF = 0xA000  # implicit-channel probe line
_P2_OFF = 0xC000  # middle hop of the deep-chain gadget
_BENIGN_OFF = 0xD000  # benign pointer stored by the v4 gadget
_WTARGET_OFF = 0xF000  # target of the revealed word in implicit_revealed
_SHADOW_CHAIN_OFF = 0x40000  # shadow-chain lines
_V4_CHAIN_OFF = 0x44000  # v4 store-address delivery chain
_ADDR_CHAIN_OFF = 0x50000  # multi-core address-delivery chain
_NOISE_OFF = 0x60000  # benign prefix-noise lines


@dataclasses.dataclass(frozen=True)
class GadgetSite:
    """Where the attack lives inside the emitted program(s)."""

    #: Core whose trace contains the transmitter.
    transmit_core: int
    #: Sequence number (per-core) of the transmitter load.
    transmit_seq: int
    #: Word address whose *content* the transmitter encodes into the
    #: cache side channel.
    secret_word: int
    #: Per-core count of leading micro-ops that model genuine
    #: non-speculative execution (the architectural prefix).
    prefix_ends: Tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class BuiltGadget:
    """One built gadget instance: programs plus its attack site."""

    name: str
    programs: Tuple[Program, ...]
    site: GadgetSite

    @property
    def threads(self) -> int:
        return len(self.programs)

    @property
    def length(self) -> int:
        """Canonical trace length (the longest per-core trace)."""
        return max(len(prog) for prog in self.programs)

    @property
    def transmit_core(self) -> int:
        return self.site.transmit_core

    @property
    def transmit_seq(self) -> int:
        return self.site.transmit_seq

    @property
    def secret_word(self) -> int:
        return self.site.secret_word

    @property
    def prefix_ends(self) -> Tuple[int, ...]:
        return self.site.prefix_ends


# ----------------------------------------------------------------------
# shared fragments
# ----------------------------------------------------------------------
def _arch_noise(prog: Program, base: int, seed: int) -> None:
    """Benign architectural prefix noise, deterministic in ``seed``.

    A few ALU ops, one cold load from a seed-chosen noise line, and some
    nops — enough to perturb timing and cache layout across trials
    without touching any gadget word.
    """
    rng = random.Random(0xA0D17 ^ seed)
    for _ in range(rng.randrange(0, 8)):
        prog.alu(15, 15)
    prog.load_abs(14, base + _NOISE_OFF + rng.randrange(16) * 64)
    for _ in range(rng.randrange(0, 4)):
        prog.nop()


def _shadow(prog: Program, base: int, depth: int = 2) -> None:
    """Raise a speculation shadow lasting ~``depth`` chained cold misses.

    The chain loads are older than the branch, hence non-speculative:
    no scheme delays them, so the shadow length is scheme-independent.
    """
    chain = base + _SHADOW_CHAIN_OFF
    for i in range(depth - 1):
        prog.poke(chain + i * 0x800, chain + (i + 1) * 0x800)
    prog.li(24, chain)
    for _ in range(depth):
        prog.load(24, base=24)
    prog.branch(24)


def _reveal_pair(prog: Program, word: int) -> None:
    """Architecturally dereference ``word``: a committed direct load pair.

    Ends with a serializing mispredicted branch dependent on the pair,
    so the pair has committed (and, under ReCon, its reveal has reached
    the caches) before anything younger dispatches.
    """
    prog.li(10, word)
    prog.load(11, base=10)
    prog.load(12, base=11)
    prog.alu(13, 12)
    prog.branch(13, mispredict=True)


# ----------------------------------------------------------------------
# Spectre v1 family — bounds-check bypass
# ----------------------------------------------------------------------
def emit_v1_bounds_bypass(
    progs: List[Program],
    base: int,
    *,
    secret_value: Optional[int] = None,
    noise_seed: int = 0,
    warm_line: Optional[int] = None,
) -> GadgetSite:
    """Classic Spectre v1: ``if (x < size) y = B[A[x]]`` with the bounds
    check unresolved while the body runs.

    ``warm_line`` architecturally warms one absolute line before the
    attack (used by the audit's positive control: warming the line the
    secret points at makes the unsafe transmitter's hit/miss — and hence
    timing — secret-dependent).
    """
    (prog,) = progs
    secret = base + _SECRET_OFF
    secret_ptr = base + _SECRET_TARGET_OFF if secret_value is None else secret_value
    prog.poke(secret, secret_ptr)
    _arch_noise(prog, base, noise_seed)
    if warm_line is not None:
        prog.load_abs(16, warm_line)
        prog.alu(17, 16)
        prog.branch(17, mispredict=True)
    prefix = len(prog)
    _shadow(prog, base)
    prog.li(1, secret)
    prog.load(2, base=1)  # speculative read of the secret word
    transmit = prog.load(3, base=2)  # transmitter: dereferences it
    return GadgetSite(0, transmit, word_addr(secret), (prefix,))


def emit_v1_indexed(
    progs: List[Program],
    base: int,
    *,
    secret_value: Optional[int] = None,
    noise_seed: int = 0,
) -> GadgetSite:
    """v1 through a two-source indexed load: ``y = table[secret]``.

    Exercises the multi-source micro-op case of paper §5.1.1 — the pair
    forms through the *index* operand, not the base.
    """
    (prog,) = progs
    secret = base + _SECRET_OFF
    index = 0x6000 if secret_value is None else secret_value
    prog.poke(secret, index)
    _arch_noise(prog, base, noise_seed)
    prefix = len(prog)
    _shadow(prog, base)
    prog.li(1, secret)
    prog.load(2, base=1)  # speculative read of the secret index
    prog.li(3, base + _TABLE_OFF)
    transmit = prog.load_indexed(4, base=3, index=2)
    return GadgetSite(0, transmit, word_addr(secret), (prefix,))


def emit_v1_deep_chain(
    progs: List[Program],
    base: int,
    *,
    secret_value: Optional[int] = None,
    noise_seed: int = 0,
) -> GadgetSite:
    """v1 with a triple dereference: secret -> p2 -> target.

    Every hop is itself a direct load pair; the *final* load is the
    transmitter the harness watches.
    """
    (prog,) = progs
    secret = base + _SECRET_OFF
    p2 = base + _P2_OFF
    target = base + _SECRET_TARGET_OFF if secret_value is None else secret_value
    prog.poke(secret, p2)
    prog.poke(p2, target)
    _arch_noise(prog, base, noise_seed)
    prefix = len(prog)
    _shadow(prog, base, depth=3)
    prog.li(1, secret)
    prog.load(2, base=1)
    prog.load(3, base=2)
    transmit = prog.load(4, base=3)
    return GadgetSite(0, transmit, word_addr(secret), (prefix,))


# ----------------------------------------------------------------------
# Spectre v1.1 — speculative store forwarding
# ----------------------------------------------------------------------
def emit_v11_spec_store_forward(
    progs: List[Program],
    base: int,
    *,
    secret_value: Optional[int] = None,
    noise_seed: int = 0,
) -> GadgetSite:
    """v1.1: a speculative store parks the secret in a scratch slot; a
    younger load picks it up via store-to-load forwarding and a final
    load dereferences it.

    Forwarded data is always concealed in this model, so the ReCon
    variants gain nothing here — the pattern checks that the forwarding
    path cannot launder taint.
    """
    (prog,) = progs
    secret = base + _SECRET_OFF
    scratch = base + _SCRATCH_OFF
    secret_ptr = base + _SECRET_TARGET_OFF if secret_value is None else secret_value
    prog.poke(secret, secret_ptr)
    _arch_noise(prog, base, noise_seed)
    prefix = len(prog)
    _shadow(prog, base)
    prog.li(1, secret)
    prog.load(2, base=1)  # speculative secret read
    prog.li(3, scratch)
    prog.store(2, base=3)  # speculative store of the secret value
    prog.load(4, base=3)  # forwarded back (concealed, taint-carrying)
    transmit = prog.load(5, base=4)
    return GadgetSite(0, transmit, word_addr(secret), (prefix,))


# ----------------------------------------------------------------------
# Spectre v4 / SSB — speculative store bypass
# ----------------------------------------------------------------------
def emit_v4_ssb_store_bypass(
    progs: List[Program],
    base: int,
    *,
    secret_value: Optional[int] = None,
    noise_seed: int = 0,
) -> GadgetSite:
    """v4: a load with a MEM memory-dependence prediction hoists past an
    older store whose address arrives late, reads the *stale* secret
    pointer, and dereferences it under the store's shadow.

    Modeling note: the trace interpreter snapshots load values at build
    time, so the stale (pre-store) content of the pointer word is
    restored with ``poke`` after the store is emitted — exactly the
    transient value the bypassing load observes in hardware.  The
    pipeline still detects the ordering violation when the store address
    resolves (``mem_order_violations``).
    """
    (prog,) = progs
    ptr = base + _PTR_OFF
    stale_ptr = base + _SECRET_TARGET_OFF if secret_value is None else secret_value
    chain = base + _V4_CHAIN_OFF
    prog.poke(ptr, stale_ptr)
    # The store's address arrives via a two-deep cold pointer chain, so
    # its shadow outlives the bypassing load's own miss.
    prog.poke(chain, chain + 0x800)
    prog.poke(chain + 0x800, ptr)
    _arch_noise(prog, base, noise_seed)
    prefix = len(prog)
    prog.li(10, chain)
    prog.load(11, base=10)
    prog.load(11, base=11)  # r11 = ptr, ~2 DRAM round trips later
    prog.li(12, base + _BENIGN_OFF)
    prog.store(12, base=11)  # overwrites [ptr]; address unresolved for ages
    prog.poke(ptr, stale_ptr)  # the bypassing load sees pre-store memory
    prog.li(1, ptr)
    prog.load(2, base=1, forced_prediction=MemPrediction.MEM)
    transmit = prog.load(3, base=2)
    return GadgetSite(0, transmit, word_addr(ptr), (prefix,))


# ----------------------------------------------------------------------
# ReCon §1 — reveal then re-dereference
# ----------------------------------------------------------------------
def emit_reveal_rederef(
    progs: List[Program],
    base: int,
    *,
    secret_value: Optional[int] = None,
    noise_seed: int = 0,
) -> GadgetSite:
    """The paper's motivating pattern: the pointer leaks architecturally
    (a committed load pair), then the *same* pointer is dereferenced
    speculatively at a fresh offset.

    Nothing new leaks — the pointer is public — so the unsafe baseline
    is BENIGN, and the ReCon variants transmit too (that is the
    optimization).  Plain NDA/STT/DoM still block it, paying for data
    that is already public.
    """
    (prog,) = progs
    ptr = base + _PTR_OFF
    target = base + _TARGET_OFF if secret_value is None else secret_value
    prog.poke(ptr, target)
    _arch_noise(prog, base, noise_seed)
    _reveal_pair(prog, ptr)
    prefix = len(prog)
    _shadow(prog, base)
    prog.li(1, ptr)
    prog.load(2, base=1)  # speculative re-read: finds the word revealed
    transmit = prog.load(3, base=2, offset=_FRESH_OFF)  # fresh cold line
    return GadgetSite(0, transmit, word_addr(ptr), (prefix,))


def emit_reveal_conceal_rederef(
    progs: List[Program],
    base: int,
    *,
    noise_seed: int = 0,
) -> GadgetSite:
    """Reveal, then *conceal*: after the pointer leaks, a store rewrites
    the word.  The new content never leaked, so the speculative re-deref
    is a true leak again — checks that the concealing store strips the
    reveal bit (and DIFT's leaked set) before the attack.
    """
    (prog,) = progs
    ptr = base + _PTR_OFF
    prog.poke(ptr, base + _TARGET_OFF)
    _arch_noise(prog, base, noise_seed)
    _reveal_pair(prog, ptr)  # leaves r10 = ptr
    prog.li(14, base + _JUNK_OFF)
    prog.store(14, base=10)  # overwrite [ptr]: conceals it
    prog.alu(15, 14)
    prog.branch(15, mispredict=True)  # serialize the conceal
    prefix = len(prog)
    _shadow(prog, base)
    prog.li(1, ptr)
    prog.load(2, base=1)  # reads the *new*, never-leaked pointer
    transmit = prog.load(3, base=2)
    return GadgetSite(0, transmit, word_addr(ptr), (prefix,))


# ----------------------------------------------------------------------
# STT implicit channel — secret-dependent branch resolution
# ----------------------------------------------------------------------
def emit_implicit_branch(
    progs: List[Program],
    base: int,
    *,
    secret_value: Optional[int] = None,
    noise_seed: int = 0,
) -> GadgetSite:
    """Implicit channel: a mispredicted branch *on the secret* gates a
    probe load.  When the branch may resolve early (unsafe), the probe
    issues while an outer shadow is still up; schemes that delay tainted
    branch resolution (STT) or the secret's broadcast (NDA) push the
    probe past the shadow.
    """
    (prog,) = progs
    secret = base + _SECRET_OFF
    content = base + _SECRET_TARGET_OFF if secret_value is None else secret_value
    prog.poke(secret, content)
    _arch_noise(prog, base, noise_seed)
    prefix = len(prog)
    _shadow(prog, base, depth=3)  # outlives the secret load's single miss
    prog.li(1, secret)
    prog.load(2, base=1)  # speculative secret read (~1 miss)
    prog.branch(2, mispredict=True)  # secret-dependent resolution
    transmit = prog.load_abs(3, base + _PROBE_OFF)  # gated probe
    return GadgetSite(0, transmit, word_addr(secret), (prefix,))


def emit_implicit_branch_revealed(
    progs: List[Program],
    base: int,
    *,
    noise_seed: int = 0,
) -> GadgetSite:
    """The implicit channel on an already-revealed word: the branch
    operand is public, so ReCon lets it resolve early — the probe
    transmits, but only data that leaked architecturally first.
    """
    (prog,) = progs
    secret = base + _SECRET_OFF
    prog.poke(secret, base + _WTARGET_OFF)
    _arch_noise(prog, base, noise_seed)
    _reveal_pair(prog, secret)  # architecturally dereferences the word
    prefix = len(prog)
    _shadow(prog, base, depth=3)
    prog.li(1, secret)
    prog.load(2, base=1)  # revealed: untainted under ReCon
    prog.branch(2, mispredict=True)
    transmit = prog.load_abs(3, base + _PROBE_OFF)
    return GadgetSite(0, transmit, word_addr(secret), (prefix,))


# ----------------------------------------------------------------------
# Indirect chain — DIFT-only leakage (the pair tracker's blind spot)
# ----------------------------------------------------------------------
def emit_indirect_chain(
    progs: List[Program],
    base: int,
    *,
    noise_seed: int = 0,
) -> GadgetSite:
    """The pointer leaks architecturally through an ALU *copy* — global
    DIFT sees it, the direct-pair tracker (and the LPT) do not.  The
    speculative re-deref therefore stays blocked even under ReCon:
    the mechanism is conservative exactly where its detector is.
    """
    (prog,) = progs
    ptr = base + _PTR_OFF
    prog.poke(ptr, base + _TARGET_OFF)
    _arch_noise(prog, base, noise_seed)
    prog.li(10, ptr)
    prog.load(11, base=10)
    prog.alu(12, 11)  # copy: breaks the direct pair
    prog.load(13, base=12)  # architectural deref via the copy
    prog.alu(14, 13)
    prog.branch(14, mispredict=True)  # serialize
    prefix = len(prog)
    _shadow(prog, base)
    prog.li(1, ptr)
    prog.load(2, base=1)  # not revealed: the LPT never saw a pair
    transmit = prog.load(3, base=2, offset=_FRESH_OFF)
    return GadgetSite(0, transmit, word_addr(ptr), (prefix,))


# ----------------------------------------------------------------------
# Multi-core — reveal bits ride MESI coherence
# ----------------------------------------------------------------------
def emit_multicore_secret_sharing(
    progs: List[Program],
    base: int,
    *,
    noise_seed: int = 0,
) -> GadgetSite:
    """Core 0 reveals a pointer architecturally; core 1 dereferences it
    speculatively.  Under ReCon the reveal bit travels to core 1 with
    the coherence fill, so core 1's transmitter runs — transmitting only
    the word core 0 already made public.

    Core 1 obtains the pointer's *address* through a four-deep cold
    chain, which delays its attack long enough for core 0's reveal to
    commit and propagate.
    """
    p0, p1 = progs
    ptr = base + _PTR_OFF
    target = base + _TARGET_OFF
    for prog in progs:
        prog.poke(ptr, target)

    # Core 0: the revealer (entirely architectural).
    _arch_noise(p0, base, noise_seed)
    _reveal_pair(p0, ptr)
    prefix0 = len(p0)

    # Core 1: the attacker.
    chain = base + _ADDR_CHAIN_OFF
    hops = 4
    for i in range(hops - 1):
        p1.poke(chain + i * 0x800, chain + (i + 1) * 0x800)
    p1.poke(chain + (hops - 1) * 0x800, ptr)
    p1.li(4, chain)
    reg = 4
    for i in range(hops):
        p1.load(5 + i, base=reg)
        reg = 5 + i
    # r(reg) = ptr, ~4 DRAM round trips in: core 0's reveal has landed.
    prefix1 = len(p1)
    _shadow(p1, base, depth=6)
    p1.load(8, base=reg)  # speculative read of ptr: cross-core reveal
    transmit = p1.load(9, base=8)  # cold in core 1's L1
    return GadgetSite(1, transmit, word_addr(ptr), (prefix0, prefix1))
