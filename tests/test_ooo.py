"""Tests for the out-of-order core structures."""

import gc
from collections import deque
from dataclasses import replace
from heapq import heappop

import pytest

from repro.isa.opcodes import OpClass
from repro.ooo import (
    InFlightInst,
    IssueQueueTracker,
    LoadQueueTracker,
    PhysicalRegisterFile,
    PortSchedule,
    RegisterMapper,
    ReorderBuffer,
    StoreQueue,
)
from repro.ooo.lsq import StoreQueueEntry
from repro.pipeline import MachineConfig
from repro.pipeline.processor import Processor
from repro.workloads import generate_trace
from tests.conftest import build_trace
from tests.sq_search import ForwardKind, search


def _entry(inst, dispatch=0):
    return InFlightInst(inst=inst, dispatch_cycle=dispatch)


class _BoundedDeque(deque):
    """A ROB entry deque that fails if anything appends past *capacity*."""

    def __init__(self, capacity):
        super().__init__()
        self.capacity = capacity
        self.peak = 0

    def append(self, entry):
        assert len(self) < self.capacity, "dispatch into a full ROB"
        super().append(entry)
        self.peak = max(self.peak, len(self))


class _BoundedLoadQueue(LoadQueueTracker):
    """Records the peak of the occupancy the dispatch loop writes."""

    peak = 0

    @property
    def occupancy(self):
        return self._occupancy

    @occupancy.setter
    def occupancy(self, value):
        self._occupancy = value
        self.peak = max(self.peak, value)


class TestReorderBuffer:
    def test_fifo_order(self):
        rob = ReorderBuffer(4)
        trace = build_trace([("alu", 8), ("alu", 9)])
        first, second = _entry(trace[0]), _entry(trace[1])
        rob._entries.append(first)
        rob._entries.append(second)
        assert rob._entries[0] is first
        assert rob._entries.popleft() is first
        assert rob._entries[0] is second

    def test_capacity(self):
        """The dispatch loop stops at the ROB's capacity."""
        processor = Processor(replace(MachineConfig.nosq(), rob_size=16))
        bounded = _BoundedDeque(processor.rob.capacity)
        processor.rob._entries = bounded
        processor.run(generate_trace("mcf", 2000, seed=3))
        assert bounded.peak == processor.rob.capacity == 16

    def test_squash_younger(self):
        rob = ReorderBuffer(8)
        trace = build_trace([("alu", 8)] * 5)
        rob._entries.extend(_entry(i) for i in trace)
        squashed = rob.squash_younger(seq=2)
        assert [e.seq for e in squashed] == [3, 4]
        assert len(rob._entries) == 3

    def test_squash_none_when_seq_is_tail(self):
        rob = ReorderBuffer(8)
        trace = build_trace([("alu", 8)] * 2)
        rob._entries.extend(_entry(i) for i in trace)
        assert rob.squash_younger(seq=1) == []


class TestRegisterMapper:
    def test_undefined_is_committed(self):
        mapper = RegisterMapper()
        assert mapper.producers[7] is None

    def test_define_and_lookup(self):
        mapper = RegisterMapper()
        trace = build_trace([("alu", 8)])
        entry = _entry(trace[0])
        mapper.define(8, entry)
        assert mapper.producers[8] is entry
        assert entry.undo_producer is None

    def test_register_zero_never_mapped(self):
        mapper = RegisterMapper()
        trace = build_trace([("alu", 8)])
        mapper.define(0, _entry(trace[0]))
        assert mapper.producers[0] is None

    def test_youngest_writer_wins(self):
        mapper = RegisterMapper()
        trace = build_trace([("alu", 8), ("alu", 8)])
        old, new = _entry(trace[0]), _entry(trace[1])
        mapper.define(8, old)
        mapper.define(8, new)
        assert mapper.producers[8] is new
        assert new.undo_producer is old

    def test_squash_restores_older_writer(self):
        mapper = RegisterMapper()
        trace = build_trace([("alu", 8), ("alu", 8)])
        old, new = _entry(trace[0]), _entry(trace[1])
        mapper.define(8, old)
        mapper.define(8, new)
        mapper.restore([new])
        assert mapper.producers[8] is old

    def test_squash_restores_inflight_then_committed(self):
        mapper = RegisterMapper()
        trace = build_trace([("alu", 8), ("alu", 9), ("alu", 8), ("alu", 8)])
        committed, other, older, younger = (_entry(i) for i in trace)
        mapper.define(8, committed)
        committed.undo_producer = None  # what commit does
        mapper.define(9, other)
        mapper.define(8, older)
        mapper.define(8, younger)
        mapper.restore([younger])
        assert mapper.producers[8] is older
        mapper.restore([older, other])
        assert mapper.producers[8] is committed
        assert mapper.producers[9] is None

    @staticmethod
    def _live_entries_after_run(num_instructions):
        trace = generate_trace("gzip", num_instructions, seed=17)
        processor = Processor(MachineConfig.nosq())
        processor.run(trace)
        gc.collect()
        live = sum(1 for obj in gc.get_objects() if type(obj) is InFlightInst)
        del processor
        return live

    def test_committed_entries_are_not_retained(self):
        """Committed producers stay mapped, but nothing chains behind them:
        the live entries do not grow with the trace length.  (A mapped
        entry's scheduling links may keep one or two older entries alive;
        undo slots that chained would keep every committed writer.)"""
        short = self._live_entries_after_run(5_000)
        assert self._live_entries_after_run(20_000) <= short + 16


class TestPhysicalRegisterFile:
    def test_allocation_exhaustion(self):
        pregs = PhysicalRegisterFile(total=66)  # 2 free beyond arch
        pregs.allocate(0)
        pregs.allocate(1)
        assert pregs._free == 0
        with pytest.raises(RuntimeError):
            pregs.allocate(2)

    def test_release_returns_register(self):
        pregs = PhysicalRegisterFile(total=65)
        pregs.allocate(0)
        pregs.release(0)
        assert pregs._free == 1

    def test_smb_sharing_reference_counts(self):
        """The DEF and a bypassed load share one register: it frees only
        after both release (Section 3.4 footnote)."""
        pregs = PhysicalRegisterFile(total=65)
        pregs.allocate(0)       # DEF
        pregs.share(0)          # bypassed load takes a reference
        pregs.release(0)        # DEF commits
        assert pregs._free == 0
        pregs.release(0)        # load commits
        assert pregs._free == 1

    def test_release_unknown_is_noop(self):
        pregs = PhysicalRegisterFile(total=65)
        pregs.release(99)
        assert pregs._free == 1


class TestPortSchedule:
    def test_class_limit(self):
        ports = PortSchedule()
        assert ports.reserve(OpClass.LOAD, 5) == 5
        assert ports.reserve(OpClass.LOAD, 5) == 6  # 1 load/cycle

    def test_total_width_limit(self):
        ports = PortSchedule()
        for op in (OpClass.COMPLEX, OpClass.COMPLEX, OpClass.ALU, OpClass.ALU):
            assert ports.reserve(op, 1) == 1
        # Two ALU slots of four are free, but the cycle's 4-wide cap is met.
        assert ports.reserve(OpClass.ALU, 1) == 2  # width cap

    def test_classes_independent_within_width(self):
        ports = PortSchedule()
        assert ports.reserve(OpClass.LOAD, 3) == 3
        assert ports.reserve(OpClass.STORE, 3) == 3
        assert ports.reserve(OpClass.BRANCH, 3) == 3

    def test_alu_four_per_cycle(self):
        ports = PortSchedule()
        cycles = [ports.reserve(OpClass.ALU, 9) for _ in range(5)]
        assert cycles == [9, 9, 9, 9, 10]

    def test_used_introspection(self):
        ports = PortSchedule()
        ports.reserve(OpClass.COMPLEX, 2)
        used = ports._used_by_cycle[2]
        assert used[OpClass.COMPLEX] == 1
        assert used[-1] == 1     # the cycle's total booked width
        assert 3 not in ports._used_by_cycle


def _iq_occupancy(iq, cycle):
    """Entries waiting at the start of *cycle*, computed as the dispatch
    loop does: pop the issue cycles that have passed."""
    while iq._scheduled and iq._scheduled[0] <= cycle:
        heappop(iq._scheduled)
    return len(iq._scheduled) + iq._unscheduled


class TestIssueQueueTracker:
    def test_occupancy_drains_at_issue(self):
        iq = IssueQueueTracker(2)
        iq.add_unscheduled()
        iq.schedule_unscheduled(7)
        iq.add_unscheduled()
        iq.schedule_unscheduled(5)
        assert _iq_occupancy(iq, 4) == 2
        assert _iq_occupancy(iq, 5) == 1   # first entry issued
        assert _iq_occupancy(iq, 7) == 0

    def test_unscheduled_holds_space(self):
        iq = IssueQueueTracker(1)
        iq.add_unscheduled()
        assert _iq_occupancy(iq, 100) == 1
        iq.schedule_unscheduled(101)
        assert _iq_occupancy(iq, 101) == 0
        with pytest.raises(RuntimeError):
            iq.schedule_unscheduled(102)

    def test_remove_unscheduled(self):
        iq = IssueQueueTracker(1)
        iq.add_unscheduled()
        iq.remove_unscheduled(1)
        assert _iq_occupancy(iq, 0) == 0
        with pytest.raises(RuntimeError):
            iq.remove_unscheduled(1)

    def test_remove_scheduled(self):
        iq = IssueQueueTracker(1)
        iq.add_unscheduled()
        iq.schedule_unscheduled(50)
        iq.remove_scheduled(50)
        assert _iq_occupancy(iq, 0) == 0
        iq.remove_scheduled(60)  # not booked: nothing to remove


class TestStoreQueue:
    def _sq_entry(self, seq, addr, size):
        return StoreQueueEntry(seq=seq, ssn=seq + 1, addr=addr, size=size)

    def test_age_order_enforced(self):
        sq = StoreQueue(4)
        sq.insert(self._sq_entry(1, 0x100, 8))
        with pytest.raises(ValueError):
            sq.insert(self._sq_entry(0, 0x200, 8))

    def test_capacity(self):
        sq = StoreQueue(1)
        sq.insert(self._sq_entry(0, 0x100, 8))
        assert sq.full
        with pytest.raises(RuntimeError):
            sq.insert(self._sq_entry(1, 0x200, 8))

    def test_commit_head_is_oldest(self):
        sq = StoreQueue(4)
        sq.insert(self._sq_entry(0, 0x100, 8))
        sq.insert(self._sq_entry(1, 0x200, 8))
        assert sq.commit_head().seq == 0

    def test_search_full_containment(self):
        sq = StoreQueue(4)
        sq.insert(self._sq_entry(0, 0x100, 8))
        trace = build_trace([("nop",), ("ld", 0x104, 4)])
        result = search(sq, trace[1])
        assert result.kind is ForwardKind.FULL
        assert result.store.seq == 0

    def test_search_youngest_wins(self):
        sq = StoreQueue(4)
        sq.insert(self._sq_entry(0, 0x100, 8))
        sq.insert(self._sq_entry(1, 0x100, 8))
        trace = build_trace([("nop",), ("nop",), ("ld", 0x100, 8)])
        result = search(sq, trace[2])
        assert result.kind is ForwardKind.FULL
        assert result.store.seq == 1

    def test_search_partial_two_stores(self):
        sq = StoreQueue(4)
        sq.insert(self._sq_entry(0, 0x100, 1))
        sq.insert(self._sq_entry(1, 0x101, 1))
        trace = build_trace([("nop",), ("nop",), ("ld", 0x100, 2)])
        result = search(sq, trace[2])
        assert result.kind is ForwardKind.PARTIAL
        assert result.youngest_seq == 1

    def test_search_partial_coverage_with_memory(self):
        sq = StoreQueue(4)
        sq.insert(self._sq_entry(0, 0x100, 1))
        trace = build_trace([("nop",), ("ld", 0x100, 2)])
        assert search(sq, trace[1]).kind is ForwardKind.PARTIAL

    def test_search_ignores_younger_stores(self):
        sq = StoreQueue(4)
        sq.insert(self._sq_entry(5, 0x100, 8))
        trace = build_trace([("ld", 0x100, 8)])  # seq 0, older than store
        assert search(sq, trace[0]).kind is ForwardKind.NONE

    def test_search_none(self):
        sq = StoreQueue(4)
        sq.insert(self._sq_entry(0, 0x200, 8))
        trace = build_trace([("nop",), ("ld", 0x100, 8)])
        assert search(sq, trace[1]).kind is ForwardKind.NONE

    def test_squash_younger(self):
        sq = StoreQueue(4)
        sq.insert(self._sq_entry(0, 0x100, 8))
        sq.insert(self._sq_entry(3, 0x200, 8))
        assert sq.squash_younger(1) == 1
        assert [e.seq for e in sq._entries] == [0]


class TestLoadQueueTracker:
    def test_capacity(self):
        """The dispatch loop stops at the load queue's capacity."""
        config = replace(MachineConfig.conventional(), lq_size=8)
        processor = Processor(config)
        bounded = _BoundedLoadQueue(config.lq_size)
        processor.lq = bounded
        processor.run(generate_trace("mcf", 2000, seed=3))
        assert bounded.peak == config.lq_size
        assert bounded.occupancy == 0

    def test_unlimited_mode(self):
        lq = LoadQueueTracker(None)
        assert lq.unlimited
        assert not LoadQueueTracker(32).unlimited

    def test_remove(self):
        lq = LoadQueueTracker(1)
        lq.occupancy = 1
        lq.remove()
        assert lq.occupancy == 0
        with pytest.raises(RuntimeError):
            lq.remove()
