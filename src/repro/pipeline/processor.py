"""The cycle-level timing model.

One :class:`Processor` simulates one machine configuration over one
annotated correct-path trace.  The model is trace-driven: control flow and
memory addresses come from the trace; the configuration's predictors,
structures, and verification machinery decide timing, speculation, and
recovery.

Modelling approach (see DESIGN.md for the full rationale):

* **In-order dispatch / greedy scheduling.**  Instructions dispatch in
  program order (bounded by width, fetch-group rules, and structure
  occupancy).  Issue and completion cycles are computed greedily when an
  instruction's producers are all scheduled, using a per-class issue-port
  schedule; instructions gated by future *events* (a NoSQ delayed load
  waiting on a store commit, a partial-overlap load waiting for stores to
  drain) are scheduled when the event fires.
* **Commit** proceeds in order, bounded by commit width and by the single
  back-end data-cache port shared between store commits and load
  re-executions.
* **Verification** is performed with the real SVW/T-SSBF logic; whether a
  re-executed load's value actually mismatches is decided from the trace's
  ground-truth store-load annotations and the store-visibility timeline.
  A load the filter exempts from re-execution must have a correct value --
  the model asserts this invariant on every commit.
* **Flushes** (verification mismatches) squash all younger in-flight work
  and restart dispatch from the trace with the back-end + front-end redirect
  penalty; branch mispredictions stall dispatch until the branch resolves.
"""

from __future__ import annotations

import gc
from bisect import bisect_right
from collections import deque
from heapq import heappop, heappush

from repro.core.bypass_predictor import NO_BYPASS, BypassingPredictor
from repro.core.commit_pipeline import CommitPipeline
from repro.core.partial_word import transform_for
from repro.core.srq import SRQEntry, StoreRegisterQueue
from repro.core.ssbf import TaggedSSBF
from repro.core.ssn import SSNCounters
from repro.core.svw import BypassVerdict, SVWFilter
from repro.frontend.branch_predictor import BTB, HybridBranchPredictor, ReturnAddressStack
from repro.frontend.path_history import fill_path_history
from repro.isa.instructions import REG_ZERO
from repro.isa.opcodes import OpClass
from repro.isa.trace import DynInst, MEMORY_SOURCE
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.tlb import TLB
from repro.ooo.issue_queue import IssueQueueTracker
from repro.ooo.lsq import LoadQueueTracker, StoreQueue, StoreQueueEntry
from repro.ooo.regfile import PhysicalRegisterFile
from repro.ooo.rename import RegisterMapper
from repro.ooo.rob import InFlightInst, ReorderBuffer
from repro.ooo.scheduler import PortSchedule
from repro.pipeline.config import (
    BypassKind,
    MachineConfig,
    Mode,
    SchedulerKind,
    check_runnable,
)
from repro.pipeline.stats import RunStats
from repro.predictors.store_sets import StoreSets


class SimulationError(RuntimeError):
    """Raised when the cycle loop detects an inconsistency or livelock."""


# Enum members the per-instruction paths compare against, bound once: a
# member read costs about ten module-global reads (DESIGN.md §4).
_NOP = OpClass.NOP
_ALU_PORT = int(OpClass.ALU)
_LOAD_PORT = int(OpClass.LOAD)
_SKIP = BypassVerdict.SKIP
_REEXEC = BypassVerdict.REEXEC
_TRANSFORM_MISMATCH = BypassVerdict.TRANSFORM_MISMATCH


class Processor:
    """Cycle-level simulator for one machine configuration."""

    def __init__(self, config: MachineConfig) -> None:
        check_runnable(config)  # the components below trust its rules
        self.config = config
        self.hierarchy = MemoryHierarchy(config.hierarchy)
        self.tlb = TLB(
            entries=config.tlb_entries,
            assoc=config.tlb_assoc,
            miss_penalty=config.tlb_miss_penalty,
        )
        self.branch_predictor = HybridBranchPredictor(
            table_entries=config.bp_table_entries,
            history_bits=config.bp_history_bits,
        )
        self.btb = BTB(entries=config.btb_entries, assoc=config.btb_assoc)
        self.ras = ReturnAddressStack(depth=config.ras_depth)
        self.ssn = SSNCounters(bits=config.ssn_bits)
        self.ssbf = TaggedSSBF(
            entries=config.tssbf_entries, assoc=config.tssbf_assoc
        )
        self.svw = SVWFilter(self.ssbf)
        self.commit_pipeline = CommitPipeline(
            config.backend,
            self.hierarchy,
            self.tlb,
            translate_stores=(config.mode is Mode.NOSQ),
        )
        self.rob = ReorderBuffer(config.rob_size)
        self.mapper = RegisterMapper()
        self.pregs = PhysicalRegisterFile(config.phys_regs)
        self.iq = IssueQueueTracker(config.iq_size)
        self.ports = PortSchedule()
        self.lq = LoadQueueTracker(config.lq_size)
        self.sq = StoreQueue(config.sq_size) if config.sq_size else None
        # SRQ entries stay live until the store's cache write is visible
        # (SSNcommit advances in the final back-end stage), so the live SSN
        # span can exceed the ROB by the back-end drain backlog.
        self.srq = StoreRegisterQueue(capacity=2 * max(config.rob_size, 64))
        self.store_sets = None
        if (config.mode is Mode.CONVENTIONAL
                and config.scheduler is SchedulerKind.STORESETS):
            self.store_sets = StoreSets()
        self.bypass_predictor = None
        if ((config.mode is Mode.NOSQ and config.bypass is BypassKind.REAL)
                or config.smb_opportunistic):
            self.bypass_predictor = BypassingPredictor(config.bypass_predictor)
        self.stats = RunStats(config_name=config.name)

        # Per-run state: run() sets the trace, its stores and the warmup;
        # the rest starts here, since an instance runs once.
        self._trace: list[DynInst] = []
        self._store_insts: list[DynInst] = []
        self._pos = 0
        self._dispatch_barrier = 0
        self._visible_cycles: list[int] = []
        self._epoch_store_base = 0
        self._drain_pending = False
        self._inflight_stores: dict[int, InFlightInst] = {}  # store_seq -> entry
        self._store_exec_cycles: dict[int, int] = {}  # store_seq -> exec done
        #: stores that left the ROB but whose D$ write is not yet visible:
        #: (visible_cycle, ssn, store_seq).  SSNcommit advances only when the
        #: write completes -- the paper's commit stage is the *last* back-end
        #: stage, after the data-cache write.
        self._pending_commits: deque[tuple[int, int, int]] = deque()
        self._store_entry_cycles: list[int] = []  # commit-entry per store_seq
        self._sched_waiters: dict[int, list[InFlightInst]] = {}  # producer seq
        self._commit_waiters: dict[int, list[InFlightInst]] = {}  # store_seq
        self._ran = False
        self._warmup = 0
        self._committed_total = 0
        self._measure_start_cycle = 0
        #: Stall bookkeeping for _fast_forward: whether the current cycle's
        #: dispatch counted a stall, and which condition it broke on.
        self._stall_counted = False
        self._stall_on_iq = False
        self._stall_on_sq = False
        # Hot-loop scalars hoisted out of the (frozen) config object.
        #: Commit-time training mode: "smb" (opportunistic SMB), "conv"
        #: (no bypassing predictor), or "nosq" (train the predictor on
        #: every load) -- mirrors _train_on_commit's branch structure.
        if config.smb_opportunistic:
            self._train_kind = "smb"
        elif self.bypass_predictor is None:
            self._train_kind = "conv"
        else:
            self._train_kind = "nosq"
        self._is_conventional = config.mode is Mode.CONVENTIONAL
        #: Opportunistic SMB applies at dispatch in conventional mode only
        #: (a NoSQ config with smb_opportunistic keeps just its training).
        self._smb = config.smb_opportunistic and self._is_conventional
        self._perfect_scheduling = config.scheduler is SchedulerKind.PERFECT
        self._perfect_bypass = config.bypass is BypassKind.PERFECT
        self._delay_enabled = config.delay_enabled
        self._svw_enabled = config.svw_enabled
        self._exec_delay = config.exec_delay
        self._frontend_depth = config.frontend_depth
        self._l1_latency = config.hierarchy.l1_latency
        # Loop-invariant stage contexts, populated by run().
        self._dispatch_ctx: tuple = ()
        self._commit_ctx: tuple = ()

    # ------------------------------------------------------------------ #
    # Top level
    # ------------------------------------------------------------------ #

    def run(self, trace: list[DynInst], warmup: int = 0) -> RunStats:
        """Simulate *trace* to completion and return the run statistics.

        ``warmup`` excludes the first N committed instructions from the
        statistics (predictors, caches, and the T-SSBF stay warm), mirroring
        the paper's warmed sampling methodology.

        A :class:`Processor` is single-use: predictors and caches carry
        state, so use a fresh instance per run.
        """
        if self._ran:
            raise SimulationError("Processor instances are single-use")
        self._ran = True
        self._warmup = min(warmup, max(0, len(trace) - 1))
        self._trace = trace
        if trace and trace[0].path_hist < 0:
            # Un-annotated trace (annotate_trace precomputes this once per
            # trace; mutation is idempotent and shared by later runs).
            fill_path_history(trace)
        self._store_insts = [i for i in trace if i.is_store]
        n = len(trace)
        if n == 0:
            return self.stats
        max_cycles = n * self.config.max_cycles_per_inst + 100_000

        # Loop-invariant context tuples for the two stages: one attribute
        # read + tuple unpack per stage call instead of a dozen attribute
        # lookups (both stages run up to once per simulated cycle).
        config = self.config
        self._dispatch_ctx = (
            trace, self.rob._entries, self.rob.capacity, self.pregs,
            self.iq, self.lq, self.lq.unlimited, self.sq, self.ssn,
            config.width, config.max_branches_per_group,
            config.max_taken_per_group, self.mapper.producers,
            self._sched_waiters, self._exec_delay,
            self.ports._used_by_cycle, self.ports._limits,
            self.ports.total_width, self.lq.capacity, self.iq._scheduled, n,
        )
        self._commit_ctx = (
            self.rob._entries, config.commit_width, self.lq,
            self.lq.unlimited, self.pregs, self._sched_waiters,
        )

        # The main loop binds its per-cycle work to locals: attribute and
        # method lookups here run once per simulated cycle and showed up
        # prominently in profiles.  The cheap prechecks mirror each stage's
        # own early-exit conditions exactly, so skipping the call is
        # behaviour- and statistics-identical.
        rob_entries = self.rob._entries
        pending = self._pending_commits
        advance_ssn = self._advance_ssn_commit
        commit_stage = self._commit_stage
        dispatch_stage = self._dispatch_stage
        ports_discard = self.ports.discard_before
        port_cycles = self.ports._used_by_cycle
        # The cycle loop allocates heavily (one InFlightInst + producer
        # tuples per dispatch) but creates no reference cycles (entries
        # point only at older entries), so generational GC scans are pure
        # overhead (~6% of the loop).  Suspend collection for the duration
        # and restore the caller's setting afterwards.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            cycle = 0
            while self._pos < n or rob_entries or pending:
                if pending and pending[0][0] <= cycle:
                    advance_ssn(cycle)
                head = rob_entries[0] if rob_entries else None
                if head is not None and 0 <= head.complete_cycle <= cycle:
                    progressed = commit_stage(cycle)
                else:
                    progressed = False
                if self._pos < n and cycle >= self._dispatch_barrier:
                    if dispatch_stage(cycle):
                        progressed = True
                elif not progressed:
                    self._stall_counted = False
                if progressed:
                    cycle += 1
                else:
                    cycle = self._fast_forward(cycle)
                if len(port_cycles) >= 4096:
                    ports_discard(cycle - 8)
                if cycle > max_cycles:
                    raise SimulationError(
                        f"livelock: {cycle} cycles for {n} instructions "
                        f"(pos={self._pos}, rob={len(rob_entries)})"
                    )
        finally:
            if gc_was_enabled:
                gc.enable()
        self.stats.cycles = cycle - self._measure_start_cycle
        self.stats.instructions = n - self._warmup
        return self.stats

    def _fast_forward(self, cycle: int) -> int:
        """Skip a provably idle stretch of cycles after a no-progress cycle.

        Between *cycle* and the earliest upcoming event -- the ROB head's
        completion, the next pending store visibility, the dispatch barrier,
        or (for an issue-queue-full stall) the next issue-queue drain --
        nothing in the model can change state: commits are gated on the
        head, SSNcommit on visibility, and a structurally stalled dispatch
        stays stalled because every condition it broke on is frozen until
        one of those events fires.  The skipped cycles' only observable
        effect is their per-cycle stall statistics, which are bulk-added
        here, making the jump bit-identical to stepping (see DESIGN.md,
        "hot-path invariants").
        """
        nxt = -1
        rob_entries = self.rob._entries
        if rob_entries:
            complete = rob_entries[0].complete_cycle
            if complete < 0:
                # An unscheduled head cannot be time-bounded; step.
                return cycle + 1
            nxt = complete  # > cycle, else the commit stage would have run
        pending = self._pending_commits
        if pending:
            visible = pending[0][0]  # > cycle, else _advance_ssn_commit ran
            if nxt < 0 or visible < nxt:
                nxt = visible
        dispatch_live = self._pos < len(self._trace)
        if dispatch_live and self._dispatch_barrier > cycle:
            barrier = self._dispatch_barrier
            if nxt < 0 or barrier < nxt:
                nxt = barrier
        stalled = self._stall_counted
        if stalled and self._stall_on_iq:
            # Issue-queue-full stalls clear as booked issue cycles pass.
            heap = self.iq._scheduled
            if heap and (nxt < 0 or heap[0] < nxt):
                nxt = heap[0]
        if nxt <= cycle + 1:
            return cycle + 1
        if stalled:
            # Each skipped cycle would have re-run dispatch and stalled on
            # the same (frozen) condition; account its statistics in bulk.
            skipped = nxt - cycle - 1
            stats = self.stats
            stats.dispatch_stall_cycles += skipped
            if self._stall_on_sq:
                stats.sq_full_stalls += skipped
        return nxt

    def _advance_ssn_commit(self, cycle: int) -> None:
        """Advance SSNcommit for stores whose cache write became visible.

        Until then the store remains bypassable: its SRQ entry stays live
        and rename-time ``SSNbyp > SSNcommit`` checks treat it as in flight,
        exactly as the paper's pipeline (SSNcommit increments in the final
        commit stage, after the data-cache write stage).
        """
        pending = self._pending_commits
        advance_commit = self.ssn.advance_commit
        retire = self.srq.retire
        while pending and pending[0][0] <= cycle:
            _, ssn, _store_seq = pending.popleft()
            committed = advance_commit()
            if committed != ssn:
                raise SimulationError(
                    f"store commit SSN mismatch: {committed} != {ssn}"
                )
            retire(ssn)

    # ------------------------------------------------------------------ #
    # Dispatch (fetch / decode / rename)
    # ------------------------------------------------------------------ #

    def _dispatch_stage(self, cycle: int) -> bool:
        # Reset the stall flag before ANY early return: a stale True (e.g.
        # across a drain-wait cycle) would make _fast_forward bulk-add
        # stall statistics the stepping loop never counted.
        self._stall_counted = False
        (
            trace, rob_entries, rob_capacity, pregs, iq, lq, lq_unlimited,
            sq, ssn, width, max_branches, max_taken, rat, waiters,
            exec_delay, port_used_map, port_limits, port_width,
            lq_capacity, iq_heap, n,
        ) = self._dispatch_ctx
        if cycle < self._dispatch_barrier or self._pos >= n:
            return False
        if self._drain_pending:
            if rob_entries or self._pending_commits:
                return False
            self._perform_drain(cycle)
            return False

        is_conventional = self._is_conventional
        smb = self._smb
        stats = self.stats
        nop = _NOP
        pos = self._pos
        dispatched = 0
        group_branches = 0
        group_taken = 0
        iq_dispatches = 0
        stall_iq = False
        stall_sq = False
        # ROB and issue-queue occupancy are tracked locally across the
        # fetch group: within one dispatch call nothing else mutates the
        # ROB, and every issue-queue insertion books a cycle strictly after
        # *cycle* (so no lazily-popped entries can appear mid-group either).
        # Occupancy is computed lazily (first iq-needing instruction).
        rob_len = len(rob_entries)
        iq_occ = -1
        iq_cap = iq.capacity
        while dispatched < width and pos < n:
            inst = trace[pos]
            if rob_len >= rob_capacity or pregs._free < 1:
                break
            is_load = inst.is_load
            is_store = inst.is_store
            if is_load:
                if not lq_unlimited and lq.occupancy >= lq_capacity:
                    break
            elif is_store:
                # sq.full inlined.
                if sq is not None and len(sq._entries) >= sq.capacity:
                    stats.sq_full_stalls += 1
                    stall_sq = True
                    break
                if ssn.rename + 1 >= ssn.limit:
                    self._drain_pending = True
                    break
            elif inst.is_branch:
                group_branches += 1
                if group_branches > max_branches:
                    break
            op = inst.op
            # NoSQ stores never enter the out-of-order engine; a NoSQ load
            # reserves an entry even if it bypasses by pure rename.
            if op is not nop and (is_conventional or not is_store):
                if iq_occ < 0:
                    # Issue-queue occupancy, once per fetch group: drop
                    # the booked issue cycles that have passed.
                    while iq_heap and iq_heap[0] <= cycle:
                        heappop(iq_heap)
                    iq_occ = len(iq_heap) + iq._unscheduled
                if iq_occ >= iq_cap:
                    stall_iq = True
                    break

            entry = InFlightInst(inst, cycle)
            # floor: the readiness floor for the scheduler below, or -1 when
            # the instruction does not go through it.
            if is_load:
                entry.ssn_rename_at_dispatch = ssn.rename
                if not lq_unlimited:
                    # Space was checked above.
                    lq.occupancy += 1
                if is_conventional:
                    floor = self._dispatch_load_conventional(entry)
                else:
                    floor = self._dispatch_load_nosq(entry)
                if floor < 0 and entry.in_iq:
                    iq_occ += 1
            elif is_store:
                self._dispatch_store(entry)
                if is_conventional:
                    floor = 0
                else:
                    # NoSQ: the store is complete at rename; it executes in
                    # the back end.
                    floor = -1
                    entry.complete_cycle = cycle + 1
            elif op is nop:
                floor = -1
                entry.complete_cycle = cycle + 1
            else:
                floor = 0
            if floor >= 0:
                # The dispatch-time scheduler, for simple ops, conventional
                # stores and plain cache-reading loads: _enter_issue_queue
                # and _try_schedule's immediate-success case inlined.  A
                # freshly dispatched entry has no scheduling waiters
                # (waiters key on in-flight producer seqs and are popped at
                # squash/commit), so the generic wakeup machinery is only
                # needed when a producer is still unscheduled -- and the
                # fields _try_schedule reads only materialize on that path.
                port = inst.port
                ready = cycle + 1 + exec_delay
                if floor > ready:
                    ready = floor
                blocked_on = None
                for reg in inst.srcs:
                    producer = rat[reg]
                    if producer is not None:
                        complete = producer.complete_cycle
                        if complete < 0:
                            blocked_on = producer
                            break
                        if complete > ready:
                            ready = complete
                entry.in_iq = True
                iq_occ += 1
                iq_dispatches += 1
                if blocked_on is not None:
                    entry.sched_kind = "load" if is_load else "exec"
                    entry.port_class = port
                    entry.min_ready = floor
                    entry.producers = self._producers_for(inst.srcs)
                    waiters.setdefault(blocked_on.seq, []).append(entry)
                    iq.add_unscheduled()
                else:
                    # PortSchedule.reserve's first-probe success inlined;
                    # contended cycles fall back to the full probe loop.
                    used = port_used_map.get(ready)
                    if used is None:
                        used = [0] * (len(port_limits) + 1)
                        used[port] = 1
                        used[-1] = 1
                        port_used_map[ready] = used
                        issue = ready
                    elif used[-1] < port_width and used[port] < port_limits[port]:
                        used[port] += 1
                        used[-1] += 1
                        issue = ready
                    else:
                        issue = self.ports.reserve(port, ready + 1)
                    if is_load:
                        self._issue_load(entry, issue)
                    else:
                        entry.issue_cycle = issue
                        entry.complete_cycle = issue + inst.lat
                    # The entry enters the issue queue already scheduled.
                    heappush(iq_heap, issue)
                if is_store:
                    self._enter_store_queue(entry)
                elif smb and is_load:
                    # Reads the load's complete_cycle, so it runs after
                    # scheduling.
                    self._apply_opportunistic_smb(entry)
            dst = inst.dst
            if dst is not None and not (is_load and entry.bypassed):
                seq = entry.seq
                # pregs.allocate inlined (capacity pre-checked above).
                pregs._free -= 1
                pregs._refcounts[seq] = 1
                entry.allocated_preg = True
                # mapper.define inlined (REG_ZERO writes are discarded
                # exactly as RegisterMapper.define does).
                if dst != REG_ZERO:
                    entry.undo_producer = rat[dst]
                    rat[dst] = entry
            rob_entries.append(entry)
            rob_len += 1
            pos += 1
            self._pos = pos
            dispatched += 1

            if inst.is_branch:
                stop = self._handle_branch(entry, cycle)
                if inst.taken:
                    group_taken += 1
                if stop or group_taken >= max_taken:
                    break
        if iq_dispatches:
            stats.iq_dispatches += iq_dispatches
        if dispatched == 0:
            stats.dispatch_stall_cycles += 1
            self._stall_counted = True
            self._stall_on_iq = stall_iq
            self._stall_on_sq = stall_sq
        return dispatched > 0

    def _enter_issue_queue(self, entry: InFlightInst) -> None:
        entry.in_iq = True
        self.iq.add_unscheduled()
        self.stats.iq_dispatches += 1

    def _producers_for(self, srcs: tuple[int, ...]) -> tuple:
        rat = self.mapper.producers
        return tuple(
            producer for reg in srcs if (producer := rat[reg]) is not None
        )

    # -- stores --------------------------------------------------------- #

    def _dispatch_store(self, entry: InFlightInst) -> None:
        """Rename a store: assign its SSN and record it in the SRQ.

        The dispatch loop drains the pipeline before SSNrename can wrap.
        """
        inst = entry.inst
        counters = self.ssn
        entry.ssn_rename_at_dispatch = counters.rename
        ssn = counters.rename + 1
        counters.rename = ssn
        entry.ssn = ssn
        self._inflight_stores[inst.store_seq] = entry
        srcs = inst.srcs
        self.srq.insert(
            SRQEntry(
                ssn=ssn,
                def_producer=(
                    self.mapper.producers[srcs[1]] if len(srcs) > 1 else None
                ),
                store_seq=inst.store_seq,
                size=inst.size,
                fp_convert=inst.fp_convert,
            )
        )

    def _enter_store_queue(self, entry: InFlightInst) -> None:
        """A conventional store, once scheduled to execute out-of-order
        (address generation + data capture): its store-queue entry and
        the store-set rename hook."""
        inst = entry.inst
        self.sq.insert(
            StoreQueueEntry(
                seq=inst.seq,
                ssn=entry.ssn,
                addr=inst.addr,
                size=inst.size,
            )
        )
        if self.store_sets is not None:
            self.store_sets.store_renamed(inst.pc, entry)

    # -- loads ---------------------------------------------------------- #
    #
    # The _dispatch_load_* methods return the load's readiness floor when
    # the dispatch loop's scheduler should issue it as a plain cache read,
    # or -1 when they bypassed, delayed or scheduled the load themselves.

    def _classify_against_sq(self, inst: DynInst) -> tuple[str, int]:
        """Classification an associative SQ search would produce.

        Returns ``(kind, store_seq)`` where kind is "none", "full", or
        "partial".  Per-byte youngest-writer reasoning makes this exactly
        equivalent to an associative search of the in-flight stores
        (tests/test_equivalence.py checks it against tests/sq_search.py).
        It is the one place a load's in-flight source stores are found:
        "none" has none, "full" has one (the store that contains the
        load) and "partial" names the youngest.  Perfect scheduling and
        perfect bypassing read them from here too.
        """
        inflight = self._inflight_stores
        inflight_sources = [
            s for s in inst.unique_stores if s in inflight
        ]
        if not inflight_sources:
            return "none", -1
        # containing_store is set iff exactly one store covers every byte,
        # so "is it in flight" is the whole full-coverage test.
        if inst.containing_store in inflight:
            return "full", inst.containing_store
        return "partial", max(inflight_sources)

    def _visibility_floor(self, inst: DynInst) -> int:
        """Latest visibility cycle among *inst*'s committed source stores
        (in-flight stores have no visibility cycle yet)."""
        floor = 0
        visible_cycles = self._visible_cycles
        num_visible = len(visible_cycles)
        for s in inst.unique_stores:
            if s < num_visible and visible_cycles[s] > floor:
                floor = visible_cycles[s]
        return floor

    def _wait_for_store(self, entry: InFlightInst, store_seq: int) -> None:
        """Park a load in the issue queue until store *store_seq* drains,
        so its cache read sees the store's data (conventional partial
        overlap, NoSQ delay)."""
        entry.sched_kind = "load"
        entry.producers = self._producers_for(entry.inst.srcs)
        self._enter_issue_queue(entry)
        visible_cycles = self._visible_cycles
        if store_seq < len(visible_cycles):
            # The store already left the ROB and is draining through the
            # back end; its visibility cycle is known.
            self._schedule_after_drain(entry, visible_cycles[store_seq])
        else:
            # _commit_store wakes it once the visibility cycle is known.
            self._commit_waiters.setdefault(store_seq, []).append(entry)

    def _schedule_after_drain(self, entry: InFlightInst, visible: int) -> None:
        """Schedule a load parked by _wait_for_store: it issues early
        enough that its cache read pipeline completes right as the
        store's write becomes visible at cycle *visible*."""
        wake = visible - self._l1_latency + 1
        if wake > entry.min_ready:
            entry.min_ready = wake
        self._try_schedule(entry)

    def _dispatch_load_conventional(self, entry: InFlightInst) -> int:
        inst = entry.inst
        kind, source_seq = self._classify_against_sq(inst)
        if kind == "partial":
            # The store queue cannot assemble the value from multiple
            # stores; the load waits for the involved stores to drain.
            self._wait_for_store(entry, source_seq)
            return -1
        if kind == "full":
            entry.sq_forwarded = True
            entry.predicted_store_seq = source_seq

        if self._perfect_scheduling:
            # Oracle scheduling: wait for every in-flight source store (a
            # "partial" load waited above, so that is the containing store
            # or none), and for committed ones to become visible.
            extra = (
                (self._inflight_stores[source_seq],) if kind == "full" else ()
            )
            entry.min_ready = self._visibility_floor(inst)
        else:
            handle = None
            if self.store_sets is not None:
                handle = self.store_sets.load_dependence(inst.pc)
            if not (
                isinstance(handle, InFlightInst)
                and not handle.squashed
                and handle.seq < inst.seq
            ):
                # Common case (no store-set dependence), sq_forwarded
                # loads included.
                return 0
            extra = (handle,)
        entry.sched_kind = "load"
        entry.producers = self._producers_for(inst.srcs) + extra
        self._enter_issue_queue(entry)
        self._try_schedule(entry)
        if self._smb:
            self._apply_opportunistic_smb(entry)
        return -1

    def _apply_opportunistic_smb(self, entry: InFlightInst) -> None:
        """The Table 1 background design: a high-confidence prediction
        would short-circuit the load's consumers to the store's data
        producer while the load itself still executes out-of-order and
        verifies the bypass by comparing values.  The model does not
        short-circuit yet: the load's consumers read its own mapping.

        A wrong bypass is detected when the load completes; the model stalls
        dispatch until then (like a branch misprediction), which is when the
        squash/refetch would begin.
        """
        inst = entry.inst
        pred = self.bypass_predictor.predict(inst.pc, inst.path_hist)
        entry.pred_hit = pred.hit
        if not pred.confident:
            return
        ssn_byp = self._bypass_ssn(entry, pred)
        if ssn_byp < 0:
            return
        srq_entry = self._srq_entry(ssn_byp)
        if self._build_pairing(entry, ssn_byp, srq_entry, pred.shift) is None:
            return
        entry.smb_applied = True
        if self._pairing_fault(entry):
            # Verification at load execution detects the mismatch; younger
            # fetch restarts after the load completes.  Every wrong SMB
            # bypass counts as a wrong store.
            self.stats.flush_wrong_store += 1
            self.stats.flushes += 1
            self._stall_until_resolved(entry)

    def _dispatch_load_nosq(self, entry: InFlightInst) -> int:
        """Rename a NoSQ load.  The bypassing predictor -- or, with
        perfect bypassing, the oracle -- names the pairing: SSNbyp, the
        shift, and whether to wait for the store instead of bypassing it.
        One tail then delays the load or bypasses it."""
        inst = entry.inst
        if self._perfect_bypass:
            # Oracle bypassing with idealized partial-word support.
            kind, store_seq = self._classify_against_sq(inst)
            if kind == "none":
                # Sources (if any) committed: make sure the cache read
                # sees them.
                return self._visibility_floor(inst)
            ssn_byp = self._arch_ssn(store_seq)
            shift = inst.addr - self._store_insts[store_seq].addr
            # Multi-source partial-store case: idealized delay on the
            # youngest in-flight source.
            wait = kind == "partial"
        else:
            pred = self.bypass_predictor.predict(inst.pc, inst.path_hist)
            stats = self.stats
            stats.predictor_lookups += 1
            if pred.path_sensitive:
                stats.predictor_path_hits += 1
            entry.pred_hit = pred.hit
            ssn_byp = self._bypass_ssn(entry, pred)
            if ssn_byp < 0:
                # Predictor miss, non-bypass prediction, or the predicted
                # store already committed: plain (unscheduled) cache access.
                return 0
            shift = pred.shift
            # Delay: wait for the predicted store to commit, then read the
            # cache safely.
            wait = self._delay_enabled and not pred.confident

        srq_entry = self._srq_entry(ssn_byp)
        if wait:
            entry.delayed = True
            entry.predicted_store_seq = srq_entry.store_seq
            self._wait_for_store(entry, srq_entry.store_seq)
            return -1
        transform = self._build_pairing(entry, ssn_byp, srq_entry, shift)
        if transform is None:
            if self._perfect_bypass:
                raise SimulationError("oracle bypass with impossible transform")
            # The predicted pairing cannot be realized by a shift & mask
            # (e.g. narrow store feeding a wider load).  The load falls back
            # to a plain cache access -- and will mispredict if the store
            # really does feed it.
            return 0

        entry.bypassed = True
        def_producer = srq_entry.def_producer
        live_def = (
            def_producer
            if isinstance(def_producer, InFlightInst) and not def_producer.squashed
            else None
        )
        entry.producers = (live_def,) if live_def is not None else ()
        if transform.is_identity:
            # Pure rename short-circuit: the load's output register IS the
            # DEF's output register (reference-counted sharing).
            entry.sched_kind = "bypass"
            if live_def is not None and live_def.allocated_preg:
                self.pregs.share(live_def.seq)
                entry.shared_with_seq = live_def.seq
        else:
            # Injected shift & mask operation in place of the load.
            entry.sched_kind = "exec"
            entry.port_class = _ALU_PORT
            entry.injected_op = True
            self._enter_issue_queue(entry)
            self.pregs.allocate(entry.seq)
            entry.allocated_preg = True
        self.mapper.define(inst.dst, entry)
        self._try_schedule(entry)
        return -1

    # -- store-load pairings ----------------------------------------------- #
    #
    # Predicted, perfect and opportunistic-SMB loads find, build, record
    # and check a pairing with an in-flight store through these helpers.

    def _bypass_ssn(self, entry: InFlightInst, pred) -> int:
        """SSNbyp = SSNrename + 1 - d for a predicted bypass of distance
        d (SSNrename as of the load's rename), or -1 unless the
        prediction names a store still in flight:
        ``SSNcommit < SSNbyp <= SSNrename``."""
        if not pred.predicts_bypass:
            return -1
        ssn_byp = entry.ssn_rename_at_dispatch + 1 - pred.dist
        counters = self.ssn
        if ssn_byp <= counters.commit or ssn_byp > counters.rename:
            return -1
        return ssn_byp

    def _srq_entry(self, ssn_byp: int) -> SRQEntry:
        """The SRQ entry of in-flight store *ssn_byp*.  Every SSN in
        (SSNcommit, SSNrename] has one, so a miss is an inconsistency."""
        srq_entry = self.srq.lookup(ssn_byp)
        if srq_entry is None:
            raise SimulationError(f"in-flight SSN {ssn_byp} missing from SRQ")
        return srq_entry

    @staticmethod
    def _build_pairing(
        entry: InFlightInst, ssn_byp: int, srq_entry: SRQEntry, shift: int
    ):
        """The shift & mask that builds the load's value from the store in
        *srq_entry*, recorded on *entry* with SSNbyp and the shift; None,
        and nothing recorded, when no shift & mask can."""
        inst = entry.inst
        transform = transform_for(
            srq_entry.size, srq_entry.fp_convert,
            inst.size, inst.signed, inst.fp_convert, shift,
        )
        if transform is not None:
            entry.predicted_ssn = ssn_byp
            entry.predicted_store_seq = srq_entry.store_seq
            entry.predicted_shift = shift
        return transform

    def _pairing_fault(self, entry: InFlightInst) -> str:
        """Check the pairing recorded on *entry* against the trace: ""
        when the paired store and shift build the load's value, else the
        ``RunStats`` flush cause a wrong pairing counts as."""
        inst = entry.inst
        if inst.containing_store == MEMORY_SOURCE:
            return "flush_should_not_have_bypassed"
        if inst.containing_store != entry.predicted_store_seq:
            return "flush_wrong_store"
        store = self._store_insts[entry.predicted_store_seq]
        if inst.addr - store.addr != entry.predicted_shift:
            return "flush_wrong_shift"
        return ""

    # -- branches -------------------------------------------------------- #

    def _handle_branch(self, entry: InFlightInst, cycle: int) -> bool:
        """Run the front-end predictors for a dispatched branch.

        Returns True if dispatch must stop (misprediction or fetch bubble).
        """
        inst = entry.inst
        mispredicted = False
        bubble = False
        if inst.is_call:
            self.ras.push(inst.pc + 4)
            if not self.btb.lookup_and_update(inst.pc, inst.target):
                bubble = True
        elif inst.is_return:
            if not self.ras.predict_return(inst.target):
                mispredicted = True
        else:
            prediction = self.branch_predictor.predict_and_train(
                inst.pc, inst.taken
            )
            if prediction != inst.taken:
                mispredicted = True
            elif inst.taken and not self.btb.lookup_and_update(inst.pc, inst.target):
                bubble = True

        if mispredicted:
            self.stats.branch_mispredicts += 1
            self._stall_until_resolved(entry)
            return True
        if bubble:
            self.stats.btb_bubbles += 1
            self._dispatch_barrier = max(
                self._dispatch_barrier, cycle + 1 + self.config.btb_bubble
            )
            return True
        return False

    def _stall_until_resolved(self, entry: InFlightInst) -> None:
        """Stop dispatch until *entry* (a mispredicted branch, a wrong
        SMB bypass) resolves; fetch restarts a front-end depth later.

        An entry still gated by an unscheduled producer (rare: a branch
        fed by a delayed load) stalls from a pessimistic bound and waits
        on its own seq, so _wake_sched_waiters calls this again once it
        schedules.
        """
        resolve = entry.complete_cycle
        if resolve < 0:
            resolve = entry.dispatch_cycle + 1
            self._sched_waiters.setdefault(entry.seq, []).append(entry)
        self._dispatch_barrier = max(
            self._dispatch_barrier, resolve + self._frontend_depth
        )

    # ------------------------------------------------------------------ #
    # Greedy scheduling
    # ------------------------------------------------------------------ #

    def _try_schedule(self, entry: InFlightInst) -> bool:
        """Compute issue/complete cycles once all producers are scheduled."""
        kind = entry.sched_kind
        if kind == "bypass":
            # Rename-stage short-circuit: no execution; the value is ready
            # when the DEF completes.
            floor = entry.dispatch_cycle + 1
        else:
            # Schedule + register-read stages separate rename from execute.
            floor = entry.dispatch_cycle + 1 + self._exec_delay
        ready = entry.min_ready
        if floor > ready:
            ready = floor
        for producer in entry.producers:
            if producer is None:
                continue
            complete = producer.complete_cycle
            if complete < 0:
                self._sched_waiters.setdefault(producer.seq, []).append(entry)
                return False
            if complete > ready:
                ready = complete

        if kind == "bypass":
            entry.complete_cycle = ready
        elif kind == "exec":
            entry.issue_cycle = self.ports.reserve(entry.port_class, ready)
            entry.complete_cycle = entry.issue_cycle + entry.inst.lat
            if entry.in_iq:
                self.iq.schedule_unscheduled(entry.issue_cycle)
        else:  # "load"
            issue = self.ports.reserve(_LOAD_PORT, ready)
            self._issue_load(entry, issue)
            if entry.in_iq:
                self.iq.schedule_unscheduled(issue)
        if entry.seq in self._sched_waiters:
            self._wake_sched_waiters(entry)
        return True

    def _issue_load(self, entry: InFlightInst, issue: int) -> None:
        """Issue a cache-reading load at cycle *issue*: the one place a
        load reads the hierarchy, probes the TLB and gets its issue,
        D-cache read and completion cycles."""
        addr = entry.inst.addr
        latency = self.hierarchy.read(addr)
        l1_latency = self._l1_latency
        if entry.sq_forwarded:
            # The value comes from the store queue at forwarding latency;
            # the parallel cache probe still happens (and may fetch the
            # line) but its miss is not on the value path.
            latency = l1_latency
        # tlb.access's hit path inlined.
        tlb = self.tlb
        vpn = addr >> tlb._page_shift
        tlb_set = tlb._sets[vpn & tlb._set_mask]
        tag = vpn >> tlb._tag_shift
        if tag in tlb_set:
            tlb_set.pop(tag)
            tlb_set[tag] = None
        else:
            latency += tlb.access(addr)
        entry.issue_cycle = issue
        # The cache is read at the end of the L1 access pipeline; a store
        # whose back-end write drains by then is observed.
        entry.dcache_read_cycle = issue + l1_latency
        entry.complete_cycle = issue + latency
        self.stats.ooo_dcache_reads += 1

    def _wake_sched_waiters(self, producer: InFlightInst) -> None:
        waiters = self._sched_waiters.pop(producer.seq, None)
        if not waiters:
            return
        for waiter in waiters:
            if waiter is producer:
                # Its stall began before it was scheduled; now the end of
                # the stall is known.
                self._stall_until_resolved(producer)
            elif not waiter.squashed and waiter.complete_cycle < 0:
                self._try_schedule(waiter)

    # ------------------------------------------------------------------ #
    # Commit
    # ------------------------------------------------------------------ #

    def _commit_stage(self, cycle: int) -> bool:
        (
            rob_entries, commit_width, lq, lq_unlimited, pregs, waiters,
        ) = self._commit_ctx
        committed = 0
        stores_committed = 0
        stats = self.stats
        refcounts = pregs._refcounts
        committed_total = self._committed_total
        warmup_target = self._warmup
        while committed < commit_width:
            if not rob_entries:
                break
            entry = rob_entries[0]
            complete = entry.complete_cycle
            if complete < 0 or complete > cycle:
                break
            inst = entry.inst
            if inst.is_store and stores_committed:
                # The back end drains one store per cycle into the shared
                # data-cache write port.  (Re-executing loads contend for
                # the same port; that contention is serialized inside
                # CommitPipeline's port booking.)
                break
            flushed = False
            if inst.is_store:
                stats.stores += 1
                self._commit_store(entry, cycle)
                stores_committed += 1
            elif inst.is_load:
                stats.loads += 1
                flushed = self._commit_load(entry, cycle)
            elif inst.is_branch:
                stats.branches += 1
            # Release at commit (runs once per committed inst).
            seq = entry.seq
            if entry.allocated_preg:
                # pregs.release inlined: drop one reference, free at zero.
                count = refcounts.get(seq)
                if count is not None:
                    if count <= 1:
                        del refcounts[seq]
                        pregs._free += 1
                    else:
                        refcounts[seq] = count - 1
            if entry.shared_with_seq >= 0:
                pregs.release(entry.shared_with_seq)
            if inst.is_load and not lq_unlimited:
                lq.remove()
            # A committed producer stays mapped; dropping its undo link
            # keeps committed entries from chaining.
            entry.undo_producer = None
            if seq in waiters:
                del waiters[seq]
            rob_entries.popleft()
            committed += 1
            committed_total += 1
            if committed_total == warmup_target:
                # End of the warmup window: statistics restart here with
                # all microarchitectural state (predictors, caches, filter)
                # left warm.
                self.stats = RunStats(config_name=self.config.name)
                self._measure_start_cycle = cycle
                stats = self.stats
            if flushed:
                break
        self._committed_total = committed_total
        return committed > 0

    # -- stores ----------------------------------------------------------- #

    def _commit_store(self, entry: InFlightInst, cycle: int) -> None:
        inst = entry.inst
        visible = self.commit_pipeline.store_commit(cycle, inst.addr, inst.size)
        # The store passes the SVW stage: record it in the T-SSBF.
        self.ssbf.update(inst.addr, inst.size, entry.ssn)
        if len(self._visible_cycles) != inst.store_seq:
            raise SimulationError("store visibility timeline out of order")
        self._visible_cycles.append(visible)
        self._store_entry_cycles.append(cycle)
        self._pending_commits.append((visible, entry.ssn, inst.store_seq))
        self._inflight_stores.pop(inst.store_seq, None)
        if self._is_conventional:
            self._store_exec_cycles[inst.store_seq] = entry.complete_cycle
        if self.sq is not None:
            head = self.sq.commit_head()
            if head.seq != inst.seq:
                raise SimulationError("store queue head mismatch at commit")
        if self.store_sets is not None:
            self.store_sets.store_retired(inst.pc, entry)
        # Wake loads waiting for this store to drain (NoSQ delay, partial
        # overlap): their cache read must see the store's data.
        waiters = self._commit_waiters.pop(inst.store_seq, None)
        if waiters:
            for waiter in waiters:
                if not waiter.squashed:
                    self._schedule_after_drain(waiter, visible)

    # -- loads ------------------------------------------------------------ #

    def _arch_ssn(self, store_seq: int) -> int:
        return store_seq + 1 - self._epoch_store_base

    def _forward_took_effect(self, entry: InFlightInst) -> bool:
        """Whether a store-queue forward reached the load: the forwarding
        store had executed by the load's issue.  Otherwise the load in
        effect read the cache."""
        executed_by = self._store_exec_cycles.get(entry.predicted_store_seq)
        return executed_by is not None and executed_by <= entry.issue_cycle

    def _load_value_ok(self, entry: InFlightInst) -> bool:
        """Ground truth: did the load obtain the architecturally correct
        value through whichever path it took?"""
        inst = entry.inst
        if entry.bypassed:
            return not self._pairing_fault(entry)
        if entry.sq_forwarded:
            store_entry = self._inflight_stores.get(entry.predicted_store_seq)
            if store_entry is not None and not store_entry.squashed:
                # Still in flight at our commit?  Impossible (older store).
                raise SimulationError("forwarding store outlived the load")
            if self._forward_took_effect(entry):
                return True
        # Cache path: every source store must be observable by the read.
        # The conventional baseline forwards from the post-commit store
        # buffer, so a store is observable once it enters the back end;
        # NoSQ has no such datapath and needs the write to be visible in
        # the cache itself.
        if self._is_conventional:
            timeline = self._store_entry_cycles
        else:
            timeline = self._visible_cycles
        num_known = len(timeline)
        read_cycle = entry.dcache_read_cycle
        for source in inst.unique_stores:
            if source >= num_known or timeline[source] > read_cycle:
                return False
        return True

    def _commit_load(self, entry: InFlightInst, cycle: int) -> bool:
        """Verify and commit the load at the ROB head; True if it flushed."""
        inst = entry.inst
        stats = self.stats
        # Classification statistics, counted once per *committed* load so
        # flush replays do not inflate them.
        if entry.bypassed:
            stats.bypassed_loads += 1
            if entry.injected_op:
                stats.bypass_injected += 1
            else:
                stats.bypass_identity += 1
        elif entry.smb_applied:
            # Opportunistic SMB: the load still executed, but its consumers
            # were short-circuited through rename.
            stats.bypassed_loads += 1
            stats.bypass_identity += 1
            stats.nonbypassed_loads += 1
        elif entry.delayed:
            stats.delayed_loads += 1
        else:
            stats.nonbypassed_loads += 1
        # A plain load with no in-trace sources is trivially correct
        # (_load_value_ok would walk an empty source set).
        if entry.bypassed or entry.sq_forwarded or inst.unique_stores:
            value_ok = self._load_value_ok(entry)
        else:
            value_ok = True
        flush = False

        if entry.bypassed:
            verdict = self.svw.test_bypassing(
                inst.addr, inst.size, entry.predicted_ssn, entry.predicted_shift
            )
            if not self._svw_enabled and verdict is _SKIP:
                # Unfiltered re-execution: verify every bypassed load with
                # a cache access (Section 2.2's strawman).
                verdict = _REEXEC
            if verdict is _SKIP:
                if not value_ok:
                    raise SimulationError(
                        f"SVW passed a wrong bypassed value at seq {inst.seq}"
                    )
            elif verdict is _TRANSFORM_MISMATCH:
                if value_ok:
                    raise SimulationError(
                        "transform mismatch reported for a correct bypass"
                    )
                flush = True
            else:  # REEXEC
                self.stats.reexecuted_loads += 1
                self.stats.backend_dcache_reads += 1
                self.commit_pipeline.load_reexec(cycle, inst.addr, translate=True)
                flush = not value_ok
        else:
            if entry.sq_forwarded and self._forward_took_effect(entry):
                # "if the load forwards, SSNnvul is the SSN of the
                # forwarding store" (Section 2.2).
                ssn_nvul = self._arch_ssn(entry.predicted_store_seq)
            else:
                # Architectural SSN of the youngest store visible by the
                # load's cache read.
                ssn_nvul = (
                    bisect_right(
                        self._visible_cycles, entry.dcache_read_cycle
                    )
                    - self._epoch_store_base
                )
                if ssn_nvul < 0:
                    ssn_nvul = 0
            needs_reexec = self.svw.test_nonbypassing(
                inst.addr, inst.size, ssn_nvul
            )
            if not self._svw_enabled:
                # Unfiltered: any load that executed with older stores in
                # flight is speculative and must re-execute.
                needs_reexec = needs_reexec or ssn_nvul < entry.ssn_rename_at_dispatch
            if needs_reexec:
                self.stats.reexecuted_loads += 1
                self.stats.backend_dcache_reads += 1
                self.commit_pipeline.load_reexec(cycle, inst.addr, translate=False)
                flush = not value_ok
            elif not value_ok:
                raise SimulationError(
                    f"SVW filtered a stale load at seq {inst.seq}"
                )

        # _train_on_commit's mode dispatch inlined: the common NoSQ case
        # trains the bypassing predictor directly.
        if self._train_kind == "nosq":
            self._train_bypass_predictor(entry, flush)
        else:
            self._train_on_commit(entry, mispredicted=flush)
        if flush:
            self._record_flush_cause(entry)
            self._flush_after(entry, cycle)
        return flush

    def _train_on_commit(self, entry: InFlightInst, mispredicted: bool) -> None:
        """Commit-time training of a load outside plain NoSQ mode (whose
        loads train the bypassing predictor straight from _commit_load)."""
        inst = entry.inst
        sources = inst.unique_stores
        if self._train_kind == "smb":
            # Opportunistic SMB verifies at execute; commit-time training
            # uses the ground-truth outcome of the applied short-circuit.
            if entry.smb_applied:
                # Trained as wrong only when the store is: a wrong shift
                # from the right store trains as correct.
                train_event = self._pairing_fault(entry) not in (
                    "", "flush_wrong_shift"
                )
            else:
                # A missed short-circuit opportunity: the load forwarded
                # from a nearby store but no prediction was available.
                train_event = bool(sources) and not entry.pred_hit and (
                    entry.ssn_rename_at_dispatch + 1
                    - self._arch_ssn(max(sources))
                    <= self.config.bypass_predictor.max_distance
                )
            self._train_bypass_predictor(entry, train_event)
        if mispredicted and self.store_sets is not None and sources:
            # Ordering violation: put the load and the youngest in-window
            # source store in a common store set.
            store_pc = self._store_insts[max(sources)].pc
            self.store_sets.train_violation(inst.pc, store_pc)

    def _train_bypass_predictor(
        self, entry: InFlightInst, mispredicted: bool
    ) -> None:
        inst = entry.inst
        actual_dist = NO_BYPASS
        actual_shift = 0
        actual_size = 8
        # Hardware learns the distance as SSNcommit - T-SSBF[ld.addr]: the
        # youngest committed writer of the load's address.  For single-source
        # loads that is the containing store; for multi-source partial-store
        # cases it is the youngest byte writer -- and predicting it is what
        # lets *delay* wait for the right store (Section 3.3).
        sources = inst.unique_stores
        if sources:
            youngest = max(sources)
            source_ssn = self._arch_ssn(youngest)
            if source_ssn >= 1:
                dist = entry.ssn_rename_at_dispatch + 1 - source_ssn
                if 1 <= dist <= self.config.bypass_predictor.max_distance:
                    actual_dist = dist
                    store = self._store_insts[youngest]
                    actual_shift = max(
                        0, min(7, inst.addr - store.addr)
                    )
                    actual_size = store.size
        self.bypass_predictor.train(
            inst.pc,
            inst.path_hist,
            mispredicted=mispredicted,
            prediction_available=entry.pred_hit,
            actual_dist=actual_dist,
            actual_shift=actual_shift,
            actual_store_size=actual_size,
        )
        if mispredicted:
            self.stats.predictor_trainings += 1

    def _record_flush_cause(self, entry: InFlightInst) -> None:
        stats = self.stats
        if self._is_conventional:
            stats.flush_conv_violation += 1
        elif entry.bypassed:
            cause = self._pairing_fault(entry)
            setattr(stats, cause, getattr(stats, cause) + 1)
        else:
            stats.flush_should_have_bypassed += 1

    # ------------------------------------------------------------------ #
    # Flush recovery
    # ------------------------------------------------------------------ #

    def _flush_after(self, victim: InFlightInst, cycle: int) -> None:
        """Squash everything younger than *victim* and refetch."""
        self.stats.flushes += 1
        detect = self.commit_pipeline.flush_detect_cycle(cycle)
        self._dispatch_barrier = max(
            self._dispatch_barrier, detect + self._frontend_depth
        )
        squashed = self.rob.squash_younger(victim.seq)
        lq_frees = 0
        for entry in squashed:
            entry.squashed = True
            if entry.allocated_preg:
                self.pregs.release(entry.seq)
            if entry.shared_with_seq >= 0:
                self.pregs.release(entry.shared_with_seq)
            if entry.in_iq:
                if entry.issue_cycle < 0:
                    self.iq.remove_unscheduled(1)
                elif entry.issue_cycle > cycle:
                    self.iq.remove_scheduled(entry.issue_cycle)
            if entry.inst.is_load and not self.lq.unlimited:
                lq_frees += 1
            if entry.inst.is_store:
                self._inflight_stores.pop(entry.inst.store_seq, None)
                if self.store_sets is not None:
                    self.store_sets.store_retired(entry.inst.pc, entry)
            self._sched_waiters.pop(entry.seq, None)
        if lq_frees:
            self.lq.remove(lq_frees)
        # Youngest first, so each undo slot restores the mapping its
        # writer overwrote.
        self.mapper.restore(reversed(squashed))
        self.ssn.squash_to(victim.ssn_rename_at_dispatch)
        self.srq.squash_above(victim.ssn_rename_at_dispatch)
        if self.sq is not None:
            self.sq.squash_younger(victim.seq)
        self._pos = victim.seq + 1

    # ------------------------------------------------------------------ #
    # SSN wraparound drain
    # ------------------------------------------------------------------ #

    def _perform_drain(self, cycle: int) -> None:
        """Pipeline drain on SSN wraparound: clear SSN-holding structures."""
        self.stats.ssn_wraps += 1
        self.ssbf.clear()
        self.srq.clear()
        self.ssn.reset()
        self._epoch_store_base = len(self._visible_cycles)
        self._drain_pending = False
        self._dispatch_barrier = max(
            self._dispatch_barrier, cycle + self.config.drain_penalty
        )
