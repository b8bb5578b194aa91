"""Tests for the out-of-order core structures."""

import gc

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
from repro.ooo.lsq import ForwardKind, StoreQueueEntry
from repro.pipeline import MachineConfig
from repro.pipeline.processor import Processor
from repro.workloads import generate_trace
from tests.conftest import build_trace


def _entry(inst, dispatch=0):
    return InFlightInst(inst=inst, dispatch_cycle=dispatch)


class TestReorderBuffer:
    def test_fifo_order(self):
        rob = ReorderBuffer(4)
        trace = build_trace([("alu", 8), ("alu", 9)])
        first, second = _entry(trace[0]), _entry(trace[1])
        rob.push(first)
        rob.push(second)
        assert rob.head is first
        assert rob.pop_head() is first
        assert rob.head is second

    def test_capacity(self):
        rob = ReorderBuffer(1)
        trace = build_trace([("alu", 8), ("alu", 9)])
        rob.push(_entry(trace[0]))
        assert rob.full
        with pytest.raises(RuntimeError):
            rob.push(_entry(trace[1]))

    def test_squash_younger(self):
        rob = ReorderBuffer(8)
        trace = build_trace([("alu", 8)] * 5)
        entries = [_entry(i) for i in trace]
        for e in entries:
            rob.push(e)
        squashed = rob.squash_younger(seq=2)
        assert [e.seq for e in squashed] == [3, 4]
        assert len(rob) == 3

    def test_squash_none_when_seq_is_tail(self):
        rob = ReorderBuffer(8)
        trace = build_trace([("alu", 8)] * 2)
        for i in trace:
            rob.push(_entry(i))
        assert rob.squash_younger(seq=1) == []


class TestRegisterMapper:
    def test_undefined_is_committed(self):
        mapper = RegisterMapper()
        assert mapper.producer(7) is None
        assert mapper.ready_cycle(7) == 0

    def test_define_and_lookup(self):
        mapper = RegisterMapper()
        trace = build_trace([("alu", 8)])
        entry = _entry(trace[0])
        entry.complete_cycle = 5
        mapper.define(8, entry)
        assert mapper.producer(8) is entry
        assert mapper.ready_cycle(8) == 5

    def test_register_zero_never_mapped(self):
        mapper = RegisterMapper()
        trace = build_trace([("alu", 8)])
        mapper.define(0, _entry(trace[0]))
        assert mapper.producer(0) is None

    def test_youngest_writer_wins(self):
        mapper = RegisterMapper()
        trace = build_trace([("alu", 8), ("alu", 8)])
        old, new = _entry(trace[0]), _entry(trace[1])
        mapper.define(8, old)
        mapper.define(8, new)
        assert mapper.producer(8) is new

    def test_squash_restores_older_writer(self):
        mapper = RegisterMapper()
        trace = build_trace([("alu", 8), ("alu", 8)])
        old, new = _entry(trace[0]), _entry(trace[1])
        mapper.define(8, old)
        mapper.define(8, new)
        mapper.restore([new])
        assert mapper.producer(8) is old

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
        assert mapper.producer(8) is older
        mapper.restore([older, other])
        assert mapper.producer(8) is committed
        assert mapper.producer(9) is None

    def test_unscheduled_producer_raises(self):
        mapper = RegisterMapper()
        trace = build_trace([("alu", 8)])
        mapper.define(8, _entry(trace[0]))  # complete_cycle == -1
        with pytest.raises(RuntimeError):
            mapper.ready_cycle(8)

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
        assert not pregs.can_allocate
        with pytest.raises(RuntimeError):
            pregs.allocate(2)

    def test_release_returns_register(self):
        pregs = PhysicalRegisterFile(total=65)
        pregs.allocate(0)
        pregs.release(0)
        assert pregs.can_allocate

    def test_smb_sharing_reference_counts(self):
        """The DEF and a bypassed load share one register: it frees only
        after both release (Section 3.4 footnote)."""
        pregs = PhysicalRegisterFile(total=65)
        pregs.allocate(0)       # DEF
        pregs.share(0)          # bypassed load takes a reference
        pregs.release(0)        # DEF commits
        assert not pregs.can_allocate
        pregs.release(0)        # load commits
        assert pregs.can_allocate

    def test_release_unknown_is_noop(self):
        pregs = PhysicalRegisterFile(total=65)
        pregs.release(99)
        assert pregs.free == 1

    def test_needs_headroom(self):
        with pytest.raises(ValueError):
            PhysicalRegisterFile(total=64)


class TestPortSchedule:
    def test_class_limit(self):
        ports = PortSchedule()
        assert ports.reserve(OpClass.LOAD, 5) == 5
        assert ports.reserve(OpClass.LOAD, 5) == 6  # 1 load/cycle

    def test_total_width_limit(self):
        ports = PortSchedule(total_width=2)
        assert ports.reserve(OpClass.ALU, 1) == 1
        assert ports.reserve(OpClass.ALU, 1) == 1
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
        assert ports.used(2, OpClass.COMPLEX) == 1
        assert ports.used(2) == 1


class TestIssueQueueTracker:
    def test_occupancy_drains_at_issue(self):
        iq = IssueQueueTracker(2)
        iq.add_scheduled(5)
        iq.add_scheduled(7)
        assert not iq.has_space(4)
        assert iq.has_space(5)   # first entry issued
        assert iq.occupancy(7) == 0

    def test_unscheduled_holds_space(self):
        iq = IssueQueueTracker(1)
        iq.add_unscheduled()
        assert not iq.has_space(100)
        iq.schedule_unscheduled(101)
        assert iq.has_space(101)

    def test_remove_unscheduled(self):
        iq = IssueQueueTracker(1)
        iq.add_unscheduled()
        iq.remove_unscheduled(1)
        assert iq.has_space(0)
        with pytest.raises(RuntimeError):
            iq.remove_unscheduled(1)

    def test_remove_scheduled(self):
        iq = IssueQueueTracker(1)
        iq.add_scheduled(50)
        iq.remove_scheduled(50)
        assert iq.has_space(0)


class TestStoreQueue:
    def _sq_entry(self, seq, addr, size, exec_complete=10):
        return StoreQueueEntry(seq=seq, ssn=seq + 1, addr=addr, size=size,
                               execute_complete=exec_complete)

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
        result = sq.search(trace[1])
        assert result.kind is ForwardKind.FULL
        assert result.store.seq == 0

    def test_search_youngest_wins(self):
        sq = StoreQueue(4)
        sq.insert(self._sq_entry(0, 0x100, 8))
        sq.insert(self._sq_entry(1, 0x100, 8))
        trace = build_trace([("nop",), ("nop",), ("ld", 0x100, 8)])
        result = sq.search(trace[2])
        assert result.kind is ForwardKind.FULL
        assert result.store.seq == 1

    def test_search_partial_two_stores(self):
        sq = StoreQueue(4)
        sq.insert(self._sq_entry(0, 0x100, 1))
        sq.insert(self._sq_entry(1, 0x101, 1))
        trace = build_trace([("nop",), ("nop",), ("ld", 0x100, 2)])
        result = sq.search(trace[2])
        assert result.kind is ForwardKind.PARTIAL
        assert result.youngest_seq == 1

    def test_search_partial_coverage_with_memory(self):
        sq = StoreQueue(4)
        sq.insert(self._sq_entry(0, 0x100, 1))
        trace = build_trace([("nop",), ("ld", 0x100, 2)])
        assert sq.search(trace[1]).kind is ForwardKind.PARTIAL

    def test_search_ignores_younger_stores(self):
        sq = StoreQueue(4)
        sq.insert(self._sq_entry(5, 0x100, 8))
        trace = build_trace([("ld", 0x100, 8)])  # seq 0, older than store
        assert sq.search(trace[0]).kind is ForwardKind.NONE

    def test_search_none(self):
        sq = StoreQueue(4)
        sq.insert(self._sq_entry(0, 0x200, 8))
        trace = build_trace([("nop",), ("ld", 0x100, 8)])
        assert sq.search(trace[1]).kind is ForwardKind.NONE

    def test_squash_younger(self):
        sq = StoreQueue(4)
        sq.insert(self._sq_entry(0, 0x100, 8))
        sq.insert(self._sq_entry(3, 0x200, 8))
        assert sq.squash_younger(1) == 1
        assert len(sq) == 1


class TestLoadQueueTracker:
    def test_capacity(self):
        lq = LoadQueueTracker(2)
        lq.insert()
        lq.insert()
        assert not lq.has_space()
        with pytest.raises(RuntimeError):
            lq.insert()

    def test_unlimited_mode(self):
        lq = LoadQueueTracker(None)
        assert lq.unlimited
        for _ in range(1000):
            lq.insert()
        assert lq.has_space()

    def test_remove(self):
        lq = LoadQueueTracker(1)
        lq.insert()
        lq.remove()
        assert lq.has_space()
        with pytest.raises(RuntimeError):
            lq.remove()
