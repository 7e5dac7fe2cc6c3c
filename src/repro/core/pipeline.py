"""The out-of-order core model.

A cycle-driven, trace-fed, correct-path pipeline with the Table 2
resources: 8-wide dispatch/issue/commit, 352-entry ROB, 160-entry IQ,
128/72-entry LQ/SQ, register renaming over a physical register file, a
store buffer drained after commit, branch/store speculation shadows, and a
store-set-lite memory-dependence predictor.

Wrong-path execution is modeled as a fetch bubble: a mispredicted branch
blocks dispatch of younger (correct-path) micro-ops from its dispatch
until its *resolution* plus the redirect penalty.  This is where the
secure schemes' delayed branch resolution (STT's implicit-channel gate,
NDA's deferred operand broadcast) costs performance, exactly as in the
paper.

Security hooks (see :mod:`repro.security`):

* loads/stores ask the policy before issuing (STT explicit channel);
* a returning load value asks the policy whether to broadcast now (NDA)
  and with what taint (STT), passing the ReCon reveal bit of the accessed
  word;
* branch resolution asks the policy (STT implicit channel);
* the commit stage runs the ReCon load-pair table and sends reveal
  requests to the L1; committed stores conceal their word when performed.

There is one cycle loop, and traced and untraced runs share it.  It is
written for throughput; none of the techniques below can change the
cycle count or any :class:`~repro.common.stats.StatSet` field, which
``tests/core/test_hotpath_parity.py`` pins against goldens captured from
the straightforward reference loop it replaced (stats of 49 cells and
the full telemetry event stream of 4 traced cells):

* **Guarded telemetry.**  Every emission site checks ``self._traced``
  (hoisted into a local in the per-instruction loops), so an untraced
  run pays one falsy branch per site.  A live collector is propagated
  to the hierarchy, policy, LSQ and LPT, and makes the hierarchy submit
  every access as a transaction, so the ``mem_txn`` stream is complete.
* **Phase early-outs.**  ``step`` skips a phase when its inputs are
  empty (no blocked branches, empty store buffer, ROB head incomplete,
  empty ready queue); each phase would do nothing in those states.
* **Static rename.**  The FIFO free list makes every uop's physical
  registers a pure function of the trace and the register counts
  (:mod:`repro.core.rename`), so :func:`~repro.core.rename.decode_trace`
  computes them once per trace; a trace cache shares that decode across
  every scheme of a row.  Dispatch reads the columns and keeps only a
  count of free registers, and each instruction record is initialized
  once, from them.
* **Columnar trace.**  Dispatch reads the trace's dynamic columns
  (:mod:`repro.isa.trace`) and, per static entry, the opclass, forced
  prediction and operand shape the core took from the static table.
  It copies each uop's opclass, a load's pc, address and forced
  prediction, and a branch's mispredict flag into the instruction
  record, so an untraced run makes no :class:`MicroOp`; commit
  materializes one only for a policy's ``on_commit`` hook or a traced
  ``commit`` event.
* **Per-cycle event buckets.**  Completions ride
  :meth:`~repro.common.events.EventQueue.push` entries ``(fn, inst)``
  in one FIFO bucket per cycle; only a new cycle touches the heap.  No
  callback schedules an event and the run loops never tick past a due
  event, so the order is the heap's ``(cycle, insertion)`` order and
  the due cycle handed to the callback is the cycle it is serviced at.
* **The instruction is its LQ entry.**  A load's record goes into the
  LQ itself.  It carries two flags: ``went_to_memory`` (the LQ's: read
  memory, visibly or not, so a later-resolving older store to its word
  is a violation) and ``visible_access`` (the cache access whose reveal
  bit counts); they differ for InvisiSpec's invisible loads.
* **Operand-taint memo.**  A waiting instruction's source taints cannot
  change between issue attempts (its physical registers are not
  reallocated until after it commits), so the union is computed once
  and cached on the instruction (``_Inst.taint_cache``).
* **Blocked-poll memo.**  A load or store that polled as blocked is not
  re-polled until its epoch moves; every state change that could
  unblock it (events, commits, drains, frontier moves, fills) bumps the
  epoch, and a blocked poll changes no state.  Only a miss-gating
  (Delay-on-Miss) poll reads state other cores change, so only such
  cores share the event queue's epoch; every other core keeps its own,
  bumped by its own completions and state changes.  A poll the policy's
  issue gate (STT's taint check) blocked is also skipped until the
  visibility frontier next moves: taint roots clear only then.
* **Policy-hook devirtualization.**  Hooks a policy does not override
  (``on_commit``, ``word_is_public``, ``on_load_value``, the issue
  gates) are skipped entirely; the base implementations are no-ops or
  constants, precomputed here.  ``on_visibility`` is only called when
  the frontier actually moved — the STT-family implementation is
  idempotent at a fixed frontier, and new taint roots are always ahead
  of it.
* **Private hits without ``submit``.**  Loads, exposes, store-buffer
  drains and LPT reveals call the hierarchy's ``read``/``write``/
  ``reveal``.  On a contention-free, untraced hierarchy these serve
  private-cache hits with the same routines ``submit`` runs, minus the
  port grant, transaction clock and queue deltas that are no-ops there;
  the rest they submit.  ``read`` answers an L1 hit with no fill in
  flight inline, with a shared result object.  The line, word and
  reveal-bit arithmetic on these paths is inlined masks and shifts.
* **No side-channel log.**  A load's cache access is recorded only as
  the traced ``observe`` event (sequence number, address, speculative
  bit); untraced runs allocate nothing for it.
* **Sorted-ready maintenance.**  The ready queue is kept sorted by
  sequence number and re-sorted in place (``list.sort``) only after
  out-of-order wakeups append to it.  Sequence numbers are unique, so
  sorting has a single fixed result — resort timing cannot change the
  order issued.  The queue holds a few dozen entries at most (50 in a
  probe over SPEC2017 and PARSEC cells; see ``docs/performance.md``),
  a size at which a numpy argsort round trip costs more than the sort.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import attrgetter
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.common.errors import SimulationHangError
from repro.common.events import EventQueue
from repro.common.params import SystemParams
from repro.common.stats import StatSet
from repro.common.types import WORD_MASK, MemPrediction, OpClass, SpeculationModel
from repro.core.lsq import LoadStoreUnit
from repro.core.mdp import MemoryDependencePredictor
from repro.core.rename import (
    DecodedTrace,
    RegisterFile,
    decode_trace,
    operand_shape,
)
from repro.core.shadows import NO_SHADOW, ShadowTracker
from repro.isa.microop import MicroOp
from repro.isa.trace import as_trace
from repro.memory.hierarchy import MemoryHierarchy
from repro.security.lpt import LoadPairTable
from repro.security.policy import EMPTY_TAINT, SecurityPolicy
from repro.security.stt import SttPolicy
from repro.telemetry.events import (
    CAT_PIPELINE,
    CAT_RECON,
    CAT_SECURITY,
    CAT_SHADOW,
    NULL_TELEMETRY,
)

__all__ = ["Core"]

_ALU = OpClass.ALU
_MUL = OpClass.MUL
_DIV = OpClass.DIV
_FP = OpClass.FP
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_BRANCH = OpClass.BRANCH

_STF = MemPrediction.STF

#: Sort key of the ready queue: oldest (lowest sequence number) first.
_seq_of = attrgetter("seq")


class _Inst:
    """One in-flight dynamic instruction (a load is also its LQ entry)."""

    __slots__ = (
        "seq",
        "opclass",
        "pc",
        "addr",
        "mispredict",
        "forced",
        "dest_phys",
        "src_phys",
        "data_phys",
        "pending",
        "data_pending",
        "agen_done",
        "captured_taint",
        "completed",
        "fwd_taint",
        "mem_revealed",
        "visible_access",
        "went_to_memory",
        "word",
        "first_blocked",
        "taint_cache",
        "blocked_epoch",
        "gated_at",
    )

    def __init__(
        self,
        seq: int,
        opclass: OpClass,
        src_phys: Tuple[int, ...],
        data_phys: Tuple[int, ...],
        dest_phys: int,
        pending: int,
    ) -> None:
        self.seq = seq
        self.opclass = opclass
        # Dispatch sets a load's ``pc``, ``addr``, ``forced`` (its forced
        # prediction) and ``word``, and a branch's ``mispredict``;
        # nothing reads them on any other instruction.
        #: The physical register allocated, or -1 without a destination.
        self.dest_phys = dest_phys
        self.src_phys = src_phys
        self.data_phys = data_phys
        self.pending = pending
        self.data_pending = 0
        self.agen_done = False
        self.captured_taint: FrozenSet[int] = EMPTY_TAINT
        self.completed = False
        self.fwd_taint: FrozenSet[int] = EMPTY_TAINT
        self.mem_revealed = False
        #: The load accessed the cache hierarchy visibly (not forwarded,
        #: not InvisiSpec-invisible): its reveal bit counts.
        self.visible_access = False
        #: The LQ flag: the load read memory, visibly or not.
        self.went_to_memory = False
        #: Cycle of the first blocked issue attempt (-1 = never blocked).
        self.first_blocked = -1
        #: Memo of the operand-taint union (None = not taken yet).
        self.taint_cache: Optional[FrozenSet[int]] = None
        #: The epoch at which this instruction last polled as blocked;
        #: the poll is skipped while the epoch is unchanged.
        self.blocked_epoch = -1
        #: The core's frontier-move count when the policy's issue gate
        #: last blocked it; the gate cannot open before the next move.
        self.gated_at = -1


class _Epoch:
    """A core's own generation counter for the blocked-poll memo."""

    __slots__ = ("epoch",)

    def __init__(self) -> None:
        self.epoch = 0


class Core:
    """One simulated core running one micro-op trace."""

    def __init__(
        self,
        core_id: int,
        params: SystemParams,
        trace: Sequence[MicroOp],
        hierarchy: MemoryHierarchy,
        policy: SecurityPolicy,
        stats: Optional[StatSet] = None,
        warmup_uops: int = 0,
        telemetry=NULL_TELEMETRY,
        events: Optional[EventQueue] = None,
        measure_uops: Optional[int] = None,
        decoded: Optional[DecodedTrace] = None,
    ) -> None:
        params.validate()
        self.core_id = core_id
        self.params = params
        #: The trace as columns (:mod:`repro.isa.trace`); a plain
        #: :class:`MicroOp` sequence is converted here, once.
        self.trace = trace = as_trace(trace)
        core = params.core
        #: The trace's physical registers (:func:`decode_trace`); a
        #: trace cache hands in the decode it shares across schemes, and
        #: a bare trace is decoded here.
        if decoded is None:
            decoded = decode_trace(trace, core.arch_regs, core.phys_regs)
        elif (decoded.arch_regs, decoded.phys_regs) != (
            core.arch_regs,
            core.phys_regs,
        ) or len(decoded) < len(trace):
            raise ValueError("decoded trace does not match this core's trace")
        self.decoded = decoded
        self.hierarchy = hierarchy
        self.policy = policy
        self.stats = stats if stats is not None else StatSet()
        hierarchy.attach_stats(core_id, self.stats)
        #: Telemetry collector (the null object when tracing is off); a
        #: live collector is propagated to every owned subcomponent so the
        #: whole core emits into one stream.
        self.telemetry = telemetry
        self._traced = telemetry.enabled
        if self._traced:
            hierarchy.telemetry = telemetry
            policy.telemetry = telemetry
            policy.telemetry_core = core_id
        #: After this many committed micro-ops, a stats snapshot is taken;
        #: :attr:`measured` excludes everything before it (detailed warm-up,
        #: paper §6.1).
        self.warmup_uops = warmup_uops
        self._warm_snapshot: Optional[StatSet] = None
        #: Sampled simulation stops the core after this many *measured*
        #: commits (beyond the warm-up), snapshotting stats at that
        #: commit so the tail of the trace slice — kept only to feed the
        #: fetch window — never drains through the pipeline and pollutes
        #: the measured cycle count.  ``None`` (always, outside sampled
        #: units) runs the trace to completion.
        self.measure_uops = measure_uops
        self._measure_at = (
            warmup_uops + measure_uops if measure_uops is not None else None
        )
        self._measure_snapshot: Optional[StatSet] = None

        self.regfile = RegisterFile(core.arch_regs, core.phys_regs)
        #: Per static instruction of the trace: its opclass, forced
        #: prediction and :func:`~repro.core.rename.operand_shape`, all
        #: dispatch needs from the static table.
        self._kinds = [
            (opclass, forced, operand_shape(srcs, data_srcs))
            for opclass, _, srcs, data_srcs, forced, _ in trace.statics
        ]
        #: ``(p,)`` for every physical register: dispatch builds each
        #: uop's register tuples from the decode's columns.
        self._ones = [(phys,) for phys in range(core.phys_regs)]
        self.shadows = ShadowTracker()
        self.lsq = LoadStoreUnit(core.lq_entries, core.sq_entries)
        self.mdp = MemoryDependencePredictor()
        self.lpt = (
            LoadPairTable(params.effective_lpt_entries)
            if policy.use_recon
            else None
        )
        if self._traced:
            self.lsq.telemetry = telemetry
            self.lsq.telemetry_core = core_id
            if self.lpt is not None:
                self.lpt.telemetry = telemetry
                self.lpt.telemetry_core = core_id

        self._decode_width = core.decode_width
        self._issue_width = core.issue_width
        self._commit_width = core.commit_width
        self._rob_entries = core.rob_entries
        self._iq_entries = core.iq_entries
        self._mispredict_penalty = core.mispredict_penalty
        self._sb_drain = core.sb_drain_per_cycle
        self._lat_alu = core.alu_latency
        self._lat_mul = core.mul_latency
        self._lat_div = core.div_latency
        self._lat_fp = core.fp_latency
        self._lat_branch = core.branch_latency
        self._trace_len = len(trace)
        self._lpt_sources = params.lpt_sources
        model = params.speculation_model
        self._futuristic = model is SpeculationModel.FUTURISTIC
        self._store_shadows = model is not SpeculationModel.CONTROL_ONLY
        self._mdp_on = params.memory_dependence_speculation

        # Which policy hooks are actually overridden; base-class hooks
        # are no-ops/constants and their call sites collapse.
        cls = type(policy)
        base = SecurityPolicy
        self._blocks_loads = cls.load_issue_blocked is not base.load_issue_blocked
        self._blocks_stores = (
            cls.store_issue_blocked is not base.store_issue_blocked
        )
        self._blocks_branches = (
            cls.branch_resolution_blocked is not base.branch_resolution_blocked
        )
        self._gates_on_miss = policy.gates_on_miss
        self._invisible = policy.invisible_speculation
        self._use_recon = policy.use_recon
        self._has_word_public = cls.word_is_public is not base.word_is_public
        self._has_on_load_value = cls.on_load_value is not base.on_load_value
        self._has_on_commit = cls.on_commit is not base.on_commit
        self._has_on_visibility = cls.on_visibility is not base.on_visibility
        if cls.propagate_taint is base.propagate_taint:
            self._prop_mode = 0  # always EMPTY_TAINT
        elif cls.propagate_taint is SttPolicy.propagate_taint:
            self._prop_mode = 1  # identity (operand taint flows through)
        else:  # pragma: no cover - no third implementation exists today
            self._prop_mode = 2  # call the hook

        self._data_waiters: Dict[int, List[_Inst]] = {}
        self._rob: List[_Inst] = []  # in program order; head is index 0
        self._rob_head = 0
        self._iq_count = 0
        self._ready: List[_Inst] = []
        self._ready_dirty = False
        #: Discrete-event queue; shared across cores (and memory
        #: completions) when a :class:`~repro.sim.system.System` passes
        #: one in, private otherwise (standalone cores in tests).
        self.events = events if events is not None else EventQueue()
        #: Generation counter of the blocked-poll memo.  Only a
        #: miss-gating policy's poll reads state other cores change
        #: (their fills, evictions and reveals), so only its cores use
        #: the shared queue's counter, which every core's activity
        #: bumps; any other core counts only its own events and state
        #: changes, and re-polls no more often than they can matter.
        self._epochs = self.events if self._gates_on_miss else _Epoch()
        self._blocked_branches: List[_Inst] = []
        self._deferred: List[Tuple[int, _Inst]] = []  # NDA broadcast at safety
        self._pending_exposes: List[Tuple[int, int]] = []  # invisible loads
        self._last_frontier: Optional[float] = None
        self._frontier_moves = 0
        self._fetch_idx = 0
        self._fetch_blocked_by: Optional[int] = None  # mispredicted branch seq
        self._fetch_resume_cycle = 0
        self._warm_pending = warmup_uops > 0
        self._measure_pending = self._measure_at is not None
        self.cycle = 0
        self.done = False

    @property
    def measured(self) -> StatSet:
        """Stats excluding the warm-up prefix (all stats if no warm-up).

        When a measurement window was set (``measure_uops``) and
        reached, the window-closing snapshot is the endpoint instead of
        the final stats.
        """
        end = (
            self._measure_snapshot
            if self._measure_snapshot is not None
            else self.stats
        )
        if self._warm_snapshot is None:
            return end
        return end.delta(self._warm_snapshot)

    # ------------------------------------------------------------------
    # public driving
    # ------------------------------------------------------------------
    def run(self, max_cycles: int = 50_000_000) -> StatSet:
        """Run the trace to completion; returns the stats."""
        step = self.step
        next_wake = self.next_wake
        while not self.done:
            cycle = self.cycle
            if cycle >= max_cycles:
                raise self.hang_error(max_cycles)
            if step(cycle) or self.done:
                self.cycle = cycle + 1
            else:
                self.cycle = next_wake(cycle)
        return self.stats

    @property
    def rob_head_seq(self) -> int:
        """Sequence number at the ROB head (``-1`` once drained)."""
        if self._rob_head < len(self._rob):
            return self._rob[self._rob_head].seq
        return -1

    def mshr_outstanding(self, cycle: int) -> int:
        """This core's outstanding MSHR entries at ``cycle``."""
        try:
            return self.hierarchy.mshr_occupancy(self.core_id, cycle)
        except (AttributeError, IndexError, KeyError):
            return -1  # standalone cores wired to a stub hierarchy

    def hang_error(self, max_cycles: int) -> SimulationHangError:
        """Build the diagnostic hang error for this core's current state."""
        return SimulationHangError(
            max_cycles,
            cycle=self.cycle,
            rob_head_seqs=[self.rob_head_seq],
            mshr_outstanding=[self.mshr_outstanding(self.cycle)],
            event_queue_depth=len(self.events),
        )

    def next_wake(self, cycle: int) -> int:
        """Earliest future cycle at which state can change."""
        cycles = self.events._cycles
        best = -1
        if cycles:
            pending = cycles[0]
            if pending > cycle:
                best = pending
        if self._fetch_blocked_by is None:
            resume = self._fetch_resume_cycle
            if resume > cycle and (best < 0 or resume < best):
                best = resume
        floor = cycle + 1
        return best if best > floor else floor

    def step(self, cycle: int) -> bool:
        """Advance one cycle; returns True if any pipeline activity occurred."""
        if self.done:
            return False
        if self._traced:
            # Cycle-less subcomponents (LSQ, LPT, hierarchy, policies)
            # stamp their events with the collector's current cycle.
            self.telemetry.now = cycle
        return self.advance(cycle, self.events.service(cycle))

    def advance(self, cycle: int, activity: bool = False) -> bool:
        """The cycle's pipeline work, once the event queue is serviced.

        :meth:`step` services the queue first; a multicore loop services
        the shared queue once per cycle and then advances each core.
        Returns ``activity`` or'd with whether the pipeline did anything.
        """
        if self._blocked_branches:
            if self._resolve_blocked_branches(cycle):
                activity = True
                self._epochs.epoch += 1  # resolutions broadcast registers

        # -- visibility --
        active = self.shadows._active
        frontier = active[0] if active else NO_SHADOW
        if frontier != self._last_frontier:
            self._last_frontier = frontier
            self._frontier_moves += 1
            self._epochs.epoch += 1  # shadow frontier moved: re-poll blocked
            if self._has_on_visibility:
                # Idempotent at a fixed frontier: calling only on
                # movement equals calling every cycle.
                self.policy.on_visibility(frontier)
        deferred = self._deferred
        while deferred and deferred[0][0] < frontier:
            _, inst = heappop(deferred)
            self._broadcast(inst, EMPTY_TAINT)
        exposes = self._pending_exposes
        if exposes and exposes[0][0] < frontier:
            read = self.hierarchy.read
            core_id = self.core_id
            while exposes and exposes[0][0] < frontier:
                # Expose: install the line for real, off the critical path.
                _, addr = heappop(exposes)
                read(core_id, addr, cycle)

        # -- store buffer: conceal-on-store rides the write (paper §4.4) --
        lsq = self.lsq
        sb = lsq._sb
        if sb:
            write = self.hierarchy.write
            pop = lsq.pop_performable_store
            core_id = self.core_id
            for _ in range(self._sb_drain):
                if not sb:
                    break
                write(core_id, pop().addr, cycle)
            activity = True
            if self._gates_on_miss:
                # Performed stores change cache state, which only a
                # miss-gating poll reads.
                self._epochs.epoch += 1

        rob = self._rob
        head = self._rob_head
        if head < len(rob) and rob[head].completed:
            if self._commit(cycle) > 0:
                activity = True
                if self._gates_on_miss:
                    # Commits reveal words (cache state, as above).  They
                    # open no other poll: a committing store moves to the
                    # store buffer, but a store a load waits on for data
                    # cannot commit yet, and issue gates open only when
                    # the frontier moves.
                    self._epochs.epoch += 1
        if self._ready:
            activity |= self._issue(cycle) > 0
        if (
            self._fetch_idx < self._trace_len
            and self._fetch_blocked_by is None
            and cycle >= self._fetch_resume_cycle
        ):
            activity |= self._dispatch(cycle) > 0
        if (
            self._fetch_idx >= self._trace_len
            and self._rob_head >= len(self._rob)
            and not sb
        ):
            self.done = True
            self.stats.cycles = cycle + 1
            if self.lpt is not None:
                self.stats.lpt_conflicts = self.lpt.conflicts
        return bool(activity)

    # ------------------------------------------------------------------
    # completion events
    # ------------------------------------------------------------------
    def _complete(self, inst: _Inst, cycle: int) -> None:
        self._epochs.epoch += 1
        oc = inst.opclass
        if self._traced:
            self.telemetry.emit(
                CAT_PIPELINE, "complete", core=self.core_id, seq=inst.seq
            )
        if oc is _STORE:
            violated = self.lsq.resolve_store(inst.seq)
            if violated:
                # Squash-lite: train the predictor and charge a flush-like
                # bubble for the memory-order violation.
                stats = self.stats
                mdp = self.mdp
                bound = cycle + self._mispredict_penalty
                for load in violated:
                    stats.mem_order_violations += 1
                    mdp.train_violation(load.pc)
                if bound > self._fetch_resume_cycle:
                    self._fetch_resume_cycle = bound
            if self._store_shadows:
                self.shadows.resolve(inst.seq)
                if self._traced:
                    self.telemetry.emit(
                        CAT_SHADOW, "exit", core=self.core_id, seq=inst.seq
                    )
            inst.agen_done = True
            if inst.data_pending == 0:
                inst.completed = True
        elif oc is _BRANCH:
            if self._blocks_branches and self.policy.branch_resolution_blocked(
                inst.captured_taint
            ):
                self._blocked_branches.append(inst)
            else:
                self._resolve_branch(inst, cycle)
        else:
            mode = self._prop_mode
            if mode == 0:
                taint = EMPTY_TAINT
            elif mode == 1:
                taint = inst.captured_taint
            else:  # pragma: no cover - no third implementation exists today
                taint = self.policy.propagate_taint(inst.captured_taint)
            self._broadcast(inst, taint)
            inst.completed = True

    def _resolve_blocked_branches(self, cycle: int) -> bool:
        still_blocked = []
        resolved_any = False
        for inst in self._blocked_branches:
            if self.policy.branch_resolution_blocked(inst.captured_taint):
                still_blocked.append(inst)
            else:
                self._resolve_branch(inst, cycle)
                resolved_any = True
        self._blocked_branches = still_blocked
        return resolved_any

    def _resolve_branch(self, inst: _Inst, cycle: int) -> None:
        self.shadows.resolve(inst.seq)
        traced = self._traced
        if traced:
            self.telemetry.emit(
                CAT_SHADOW, "exit", core=self.core_id, seq=inst.seq
            )
        inst.completed = True
        if inst.mispredict:
            self.stats.mispredicted_branches += 1
            if traced:
                # The wrong-path fetch bubble is the squash in this
                # correct-path model.
                self.telemetry.emit(
                    CAT_PIPELINE, "squash", core=self.core_id, seq=inst.seq
                )
            if self._fetch_blocked_by == inst.seq:
                self._fetch_blocked_by = None
                resume = cycle + self._mispredict_penalty
                if resume > self._fetch_resume_cycle:
                    self._fetch_resume_cycle = resume

    def _load_return(self, inst: _Inst, cycle: int) -> None:
        self._epochs.epoch += 1
        shadows = self.shadows
        traced = self._traced
        if self._futuristic:
            # The load can no longer squash (functionally): release its
            # shadow when the value arrives.
            shadows.resolve(inst.seq)
            if traced:
                self.telemetry.emit(
                    CAT_SHADOW, "exit", core=self.core_id, seq=inst.seq
                )
        active = shadows._active
        speculative = inst.seq > (active[0] if active else NO_SHADOW)
        use_recon = self._use_recon
        went = inst.visible_access
        revealed = inst.mem_revealed and use_recon
        if not revealed and went and self._has_word_public:
            revealed = self.policy.word_is_public(inst.addr)
        if speculative and use_recon and went:
            if revealed:
                self.stats.reveal_hits += 1
            else:
                self.stats.reveal_misses += 1
            if traced:
                self.telemetry.emit(
                    CAT_RECON,
                    "reveal_hit" if revealed else "reveal_miss",
                    core=self.core_id,
                    seq=inst.seq,
                    addr=inst.addr,
                )
        if self._has_on_load_value:
            broadcast_now, taint = self.policy.on_load_value(
                inst.seq, speculative, revealed, inst.fwd_taint
            )
        else:
            broadcast_now, taint = True, EMPTY_TAINT
        inst.completed = True
        if traced:
            self.telemetry.emit(
                CAT_PIPELINE, "complete", core=self.core_id, seq=inst.seq
            )
        if broadcast_now:
            self._broadcast(inst, taint)
        else:
            if traced:
                self.telemetry.emit(
                    CAT_PIPELINE, "defer", core=self.core_id, seq=inst.seq
                )
            heappush(self._deferred, (inst.seq, inst))

    def _broadcast(self, inst: _Inst, taint: FrozenSet[int]) -> None:
        dest = inst.dest_phys
        if dest < 0:
            return
        regfile = self.regfile
        regfile.ready[dest] = True
        regfile.taint[dest] = taint
        waiters = regfile.waiters.pop(dest, None)
        if waiters:
            ready_q = self._ready
            woke = False
            for waiter in waiters:
                waiter.pending -= 1
                if waiter.pending == 0:
                    ready_q.append(waiter)
                    woke = True
            if woke:
                self._ready_dirty = True
        data_waiters = self._data_waiters.pop(dest, None)
        if data_waiters:
            for waiter in data_waiters:
                waiter.data_pending -= 1
                if waiter.data_pending == 0:
                    self._store_data_ready(waiter)

    def _store_data_ready(self, inst: _Inst) -> None:
        """A store's data register(s) became available."""
        taints = self.regfile.taint
        taint = EMPTY_TAINT
        for phys in inst.data_phys:
            t = taints[phys]
            if t:
                taint = taint | t
        self.lsq.set_store_data(inst.seq, taint)
        if inst.agen_done:
            inst.completed = True

    # ------------------------------------------------------------------
    # commit
    # ------------------------------------------------------------------
    def _commit(self, cycle: int) -> int:
        rob = self._rob
        head = self._rob_head
        rob_len = len(rob)
        width = self._commit_width
        committed = 0
        stats = self.stats
        lsq = self.lsq
        sb = lsq._sb
        sq_entries = lsq.sq_entries
        lpt = self.lpt
        lpt_sources = self._lpt_sources
        reveal = self.hierarchy.reveal
        core_id = self.core_id
        policy = self.policy
        has_on_commit = self._has_on_commit
        trace = self.trace
        released = 0
        traced = self._traced
        while committed < width and head < rob_len:
            inst = rob[head]
            if not inst.completed:
                break
            oc = inst.opclass
            if oc is _STORE:
                if len(sb) >= sq_entries:
                    break
                lsq.commit_store(inst.seq)
                stats.committed_stores += 1
                if lpt is not None and inst.dest_phys >= 0:
                    lpt.on_other_commit(inst.dest_phys)
            elif oc is _LOAD:
                lsq.commit_load(inst.seq)
                stats.committed_loads += 1
                if lpt is not None:
                    # The ReCon load-pair table: reveal each detected
                    # pair's word.
                    reveals = lpt.on_load_commit_multi(
                        inst.dest_phys,
                        inst.src_phys[:lpt_sources],
                        inst.addr,
                    )
                    if reveals:
                        stats.load_pairs_detected += len(reveals)
                        for addr in reveals:
                            reveal(core_id, addr, cycle)
            else:
                if oc is _BRANCH:
                    stats.committed_branches += 1
                if lpt is not None and inst.dest_phys >= 0:
                    lpt.on_other_commit(inst.dest_phys)
            if has_on_commit or traced:
                # The only MicroOps a run makes: the policy's DIFT and
                # streaming sinks (leakage timeline) read the record.
                uop = trace.uop(inst.seq)
                if has_on_commit:
                    policy.on_commit(uop)
                if traced:
                    # The reference is stripped before storage.
                    self.telemetry.emit(
                        CAT_PIPELINE,
                        "commit",
                        core=self.core_id,
                        seq=inst.seq,
                        uop=uop,
                    )
            if inst.dest_phys >= 0:
                # Frees the register its destination was mapped to.
                released += 1
            rob[head] = None  # type: ignore[call-overload]
            head += 1
            stats.committed_uops += 1
            committed += 1
            if self._warm_pending and stats.committed_uops >= self.warmup_uops:
                self._warm_pending = False
                stats.cycles = cycle
                self._warm_snapshot = stats.snapshot()
            if (
                self._measure_pending
                and stats.committed_uops >= self._measure_at
            ):
                self._measure_pending = False
                stats.cycles = cycle
                if lpt is not None:
                    stats.lpt_conflicts = lpt.conflicts
                self._measure_snapshot = stats.snapshot()
                # Stop the core: everything past the window is cool-down
                # trace kept only so fetch never starved mid-window.
                self.done = True
                break
        self._rob_head = head
        self.regfile.free += released
        if head > 4096 and head == rob_len:
            del rob[:head]
            self._rob_head = 0
        return committed

    # ------------------------------------------------------------------
    # issue
    # ------------------------------------------------------------------
    def _issue(self, cycle: int) -> int:
        ready = self._ready
        if not ready:
            return 0
        if self._ready_dirty:
            ready.sort(key=_seq_of)
            self._ready_dirty = False
        issued = 0
        kept: List[_Inst] = []
        kept_append = kept.append
        width = self._issue_width
        epochs = self._epochs
        moves = self._frontier_moves
        events_push = self.events.push
        complete = self._complete
        taints = self.regfile.taint
        stats = self.stats
        lat_alu = self._lat_alu
        lat_branch = self._lat_branch
        traced = self._traced
        n = len(ready)
        index = 0
        while index < n:
            inst = ready[index]
            if issued >= width:
                kept.extend(ready[index:])
                break
            oc = inst.opclass
            if oc is _LOAD:
                # Epoch memo: a blocked verdict only changes when state
                # it reads changes, and every such change bumps the
                # epoch — skip the (side-effect-free) re-poll until then.
                if inst.blocked_epoch == epochs.epoch or inst.gated_at == moves:
                    kept_append(inst)
                    index += 1
                    continue
                ok = self._try_issue_load(inst, cycle)
            elif oc is _STORE:
                if inst.blocked_epoch == epochs.epoch or inst.gated_at == moves:
                    kept_append(inst)
                    index += 1
                    continue
                ok = self._try_issue_store(inst, cycle)
            else:
                taint = EMPTY_TAINT
                for phys in inst.src_phys:
                    t = taints[phys]
                    if t:
                        taint = taint | t
                inst.captured_taint = taint
                if oc is _ALU:
                    lat = lat_alu
                elif oc is _BRANCH:
                    lat = lat_branch
                elif oc is _MUL:
                    lat = self._lat_mul
                elif oc is _FP:
                    lat = self._lat_fp
                elif oc is _DIV:
                    lat = self._lat_div
                else:  # NOP
                    lat = 1
                events_push(cycle + lat, complete, inst)
                ok = True
            if ok:
                issued += 1
                if traced:
                    self.telemetry.emit(
                        CAT_PIPELINE, "issue", core=self.core_id, seq=inst.seq
                    )
            else:
                if inst.first_blocked < 0:
                    inst.first_blocked = cycle
                    if traced:
                        self.telemetry.emit(
                            CAT_SECURITY,
                            "delay_start",
                            core=self.core_id,
                            seq=inst.seq,
                        )
                    if oc is _LOAD:
                        stats.delayed_loads += 1
                inst.blocked_epoch = epochs.epoch
                kept_append(inst)
            index += 1
        self._iq_count -= issued
        self._ready = kept
        return issued

    def _finish_delay(self, inst: _Inst, cycle: int) -> None:
        """A previously blocked load/store issues: account its delay."""
        delay = cycle - inst.first_blocked
        self.stats.delay_cycles += delay
        if self._traced:
            self.telemetry.emit(
                CAT_SECURITY,
                "delay_end",
                core=self.core_id,
                seq=inst.seq,
                value=delay,
            )
            self.telemetry.observe("delay_cycles", delay)

    def _try_issue_store(self, inst: _Inst, cycle: int) -> bool:
        taint = inst.taint_cache
        if taint is None:
            taints = self.regfile.taint
            taint = EMPTY_TAINT
            for phys in inst.src_phys:
                t = taints[phys]
                if t:
                    taint = taint | t
            inst.taint_cache = taint
        if taint and self._blocks_stores and self.policy.store_issue_blocked(taint):
            inst.gated_at = self._frontier_moves
            return False
        inst.captured_taint = taint
        if inst.first_blocked >= 0:
            self._finish_delay(inst, cycle)
        self.events.push(cycle + self._lat_alu, self._complete, inst)
        return True

    def _try_issue_load(self, inst: _Inst, cycle: int) -> bool:
        taint = inst.taint_cache
        if taint is None:
            taints = self.regfile.taint
            taint = EMPTY_TAINT
            for phys in inst.src_phys:
                t = taints[phys]
                if t:
                    taint = taint | t
            inst.taint_cache = taint
        policy = self.policy
        if taint and self._blocks_loads and policy.load_issue_blocked(taint):
            inst.gated_at = self._frontier_moves
            return False
        addr = inst.addr
        shadows = self.shadows
        if self._gates_on_miss:
            l1_hit, revealed = self.hierarchy.peek_access(self.core_id, addr)
            if not policy.may_issue_load(
                shadows.is_speculative(inst.seq), l1_hit, revealed
            ):
                return False
        invisible = False
        if self._invisible:
            _, revealed = self.hierarchy.peek_access(self.core_id, addr)
            invisible = policy.load_must_be_invisible(
                shadows.is_speculative(inst.seq), revealed
            )
        lsq = self.lsq
        forward = lsq.forwarding_store(inst.seq, addr)
        if forward is not None and not forward.data_ready:
            return False  # matching older store exists but has no data yet
        unresolved = lsq.has_older_unresolved_store(inst.seq)
        if self._mdp_on:
            prediction = inst.forced or self.mdp.predict(inst.pc)
            if prediction is _STF:
                if unresolved:
                    return False  # wait for older store addresses
                if forward is None:
                    self.mdp.train_no_dependence(inst.pc)
                    self._epochs.epoch += 1  # same-pc loads may now go
            # MEM prediction (or STF that found nothing): proceed; a match
            # with a resolved store always forwards.
        else:
            if unresolved:
                return False
        inst.captured_taint = taint
        if inst.first_blocked >= 0:
            self._finish_delay(inst, cycle)
        events_push = self.events.push
        if forward is not None:
            inst.fwd_taint = forward.taint
            inst.mem_revealed = False  # forwarded data is always concealed
            self.stats.store_forwards += 1
            events_push(cycle + 2, self._load_return, inst)
        elif invisible:
            # InvisiSpec-style access: value without footprint; the line
            # is exposed (fetched for real) at the visibility point.  The
            # access is invisible to the *cache side channel*, but it still
            # read memory past unresolved stores, so it participates in
            # memory-order violation detection like any other load.
            access_cycle = cycle + 1
            latency = self.hierarchy.read_invisible(
                self.core_id, addr, access_cycle
            )
            inst.mem_revealed = False
            inst.went_to_memory = True
            heappush(self._pending_exposes, (inst.seq, addr))
            events_push(access_cycle + latency, self._load_return, inst)
        else:
            access_cycle = cycle + 1  # address generation
            if self._gates_on_miss:
                # The fill/evict can change any core's later DoM peeks.
                self._epochs.epoch += 1
            if self._traced:
                # Peek *before* the access installs the line: the event
                # records whether this access perturbed the cache (the
                # attacker-visible side channel) — a speculative L1 hit
                # leaves no footprint.
                speculative = shadows.is_speculative(inst.seq)
                observe_hit, _ = self.hierarchy.peek_access(self.core_id, addr)
            # Non-blocking load: the completion is an event; the core
            # keeps issuing younger work while the miss (and any misses
            # merged into its MSHR entry) is outstanding.
            access = self.hierarchy.read(self.core_id, addr, access_cycle)
            inst.mem_revealed = access.revealed
            inst.visible_access = True
            inst.went_to_memory = True
            if self._traced:
                # bit 0: L1 hit at access time; bit 1: issued under a
                # speculation shadow.  The red-team harness classifies
                # verdicts from this event.
                self.telemetry.emit(
                    CAT_SECURITY,
                    "observe",
                    core=self.core_id,
                    seq=inst.seq,
                    addr=addr,
                    value=(2 if speculative else 0) | (1 if observe_hit else 0),
                )
            events_push(access_cycle + access.latency, self._load_return, inst)
        return True

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, cycle: int) -> int:
        if self._fetch_blocked_by is not None or cycle < self._fetch_resume_cycle:
            return 0
        idx = self._fetch_idx
        decoded = self.decoded
        dests = decoded.dests
        regfile = self.regfile
        free = regfile.free
        if not free and dests[idx] >= 0:
            # The commonest stall (most calls that dispatch nothing on
            # SPEC2017 and PARSEC): no free register for the oldest uop.
            return 0
        trace = self.trace
        kinds = self._kinds
        static_col = trace.index
        pc_col = trace.pc
        addr_col = trace.addr
        mispredict_col = trace.mispredict
        src0_col = decoded.src0
        src1_col = decoded.src1
        data_col = decoded.data
        ones = self._ones
        end = self._trace_len
        rob = self._rob
        rob_append = rob.append
        # Only this loop fills the ROB, IQ, LQ and SQ, so their room is
        # known up front.
        room = min(
            self._decode_width,
            self._rob_entries - (len(rob) - self._rob_head),
            self._iq_entries - self._iq_count,
            end - idx,
        )
        ready = regfile.ready
        rtaint = regfile.taint
        waiters = regfile.waiters
        lsq = self.lsq
        lq_room = lsq.lq_entries - len(lsq._lq)
        sq_room = lsq.sq_entries - len(lsq._sq)
        ready_q = self._ready
        data_waiters = self._data_waiters
        shadow_heap = self.shadows._active
        futuristic = self._futuristic
        store_shadows = self._store_shadows
        traced = self._traced
        dispatched = 0
        woke = False
        blocked_by = None
        while dispatched < room:
            oc, forced, shape = kinds[static_col[idx]]
            if oc is _LOAD:
                if lq_room <= 0:
                    break
                lq_room -= 1
            elif oc is _STORE:
                if sq_room <= 0:
                    break
                sq_room -= 1
            dest_phys = dests[idx]
            if dest_phys >= 0:
                if not free:
                    break
                free -= 1
                ready[dest_phys] = False
                rtaint[dest_phys] = EMPTY_TAINT
            # A fresh destination is never among the sources (it was on
            # the free list, unmapped), so counting after claiming it is
            # safe.  The shape is the number of sources plus three times
            # the number of data registers (commonest first).
            if shape == 1:
                src_phys = ones[src0_col[idx]]
                data_phys = ()
            elif shape == 0:
                src_phys = data_phys = ()
            elif shape == 4:  # a store
                src_phys = ones[src0_col[idx]]
                data_phys = ones[data_col[idx]]
            elif shape == 2:
                src_phys = (src0_col[idx], src1_col[idx])
                data_phys = ()
            elif shape == 3:
                src_phys = ()
                data_phys = ones[data_col[idx]]
            elif shape == 5:
                src_phys = (src0_col[idx], src1_col[idx])
                data_phys = ones[data_col[idx]]
            else:
                src_phys, data_phys = decoded.wide[idx]
            pending = 0
            for phys in src_phys:
                if not ready[phys]:
                    pending += 1
            # The sequence number is the uop's position in this core's
            # trace, so a sampled unit runs on a slice of a shared trace
            # (whose uops keep their absolute ``seq``).
            seq = idx
            inst = _Inst(seq, oc, src_phys, data_phys, dest_phys, pending)
            rob_append(inst)
            if traced:
                self.telemetry.emit(
                    CAT_PIPELINE,
                    "dispatch",
                    core=self.core_id,
                    seq=seq,
                    addr=pc_col[idx],
                )
            casts = False
            if oc is _LOAD:
                inst.pc = pc_col[idx]
                inst.addr = addr = addr_col[idx]
                inst.forced = forced
                inst.word = addr & WORD_MASK
                lsq.add_load(inst)  # the instruction is its own LQ entry
                casts = futuristic
            elif oc is _STORE:
                lsq.add_store(seq, pc_col[idx], addr_col[idx])
                casts = store_shadows
            elif oc is _BRANCH:
                casts = True
                mispredict = inst.mispredict = mispredict_col[idx]
                if mispredict:
                    blocked_by = seq
            if casts:
                heappush(shadow_heap, seq)
                if traced:
                    self.telemetry.emit(
                        CAT_SHADOW, "enter", core=self.core_id, seq=seq
                    )
            if pending == 0:
                ready_q.append(inst)
                woke = True
            else:
                for phys in src_phys:
                    if not ready[phys]:
                        waiting = waiters.get(phys)
                        if waiting is None:
                            waiters[phys] = [inst]
                        else:
                            waiting.append(inst)
            if oc is _STORE:
                data_pending = 0
                for phys in data_phys:
                    if not ready[phys]:
                        data_pending += 1
                inst.data_pending = data_pending
                if data_pending == 0:
                    self._store_data_ready(inst)
                else:
                    for phys in data_phys:
                        if not ready[phys]:
                            waiting = data_waiters.get(phys)
                            if waiting is None:
                                data_waiters[phys] = [inst]
                            else:
                                waiting.append(inst)
            idx += 1
            dispatched += 1
            if blocked_by is not None:
                break  # mispredicted branch: stop supplying younger uops
        self._fetch_idx = idx
        self._iq_count += dispatched
        regfile.free = free
        if blocked_by is not None:
            self._fetch_blocked_by = blocked_by
        if woke:
            self._ready_dirty = True
        return dispatched
