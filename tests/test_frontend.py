"""Tests for branch prediction, BTB, RAS, and path history."""

from repro.frontend import (
    BTB,
    HybridBranchPredictor,
    PathHistory,
    ReturnAddressStack,
)
from repro.frontend.path_history import fill_path_history
from tests.conftest import build_trace


class TestHybridPredictor:
    def test_learns_strong_bias(self):
        predictor = HybridBranchPredictor(table_entries=256, history_bits=8)
        for _ in range(50):
            predictor.predict_and_train(0x1000, True)
        assert all(predictor.predict_and_train(0x1000, True) for _ in range(50))

    def test_learns_alternating_via_history(self):
        predictor = HybridBranchPredictor(table_entries=256, history_bits=8)
        outcomes = [bool(i % 2) for i in range(400)]
        for taken in outcomes[:200]:
            predictor.predict_and_train(0x2000, taken)
        wrong = 0
        for taken in outcomes[200:]:
            if predictor.predict_and_train(0x2000, taken) != taken:
                wrong += 1
        assert wrong <= 2  # gshare captures the pattern

    def test_distinct_pcs_do_not_interfere(self):
        predictor = HybridBranchPredictor(table_entries=4096)
        for _ in range(64):
            predictor.predict_and_train(0x1000, True)
            predictor.predict_and_train(0x4000, False)
        assert predictor.predict_and_train(0x1000, True)
        assert not predictor.predict_and_train(0x4000, False)

    def test_accuracy_property(self):
        """Mispredictions are counted from the returned predictions (the
        processor's ``branch_mispredicts``)."""
        predictor = HybridBranchPredictor()
        assert predictor.predict_and_train(0x0, True) is False  # cold: wrong


class TestBTB:
    def test_miss_then_hit(self):
        btb = BTB(entries=64, assoc=4)
        assert btb.lookup_and_update(0x1000, 0x2000) is False
        assert btb.lookup_and_update(0x1000, 0x2000) is True

    def test_target_change_misses(self):
        btb = BTB(entries=64, assoc=4)
        btb.lookup_and_update(0x1000, 0x2000)
        assert btb.lookup_and_update(0x1000, 0x3000) is False
        assert btb.lookup_and_update(0x1000, 0x3000) is True

    def test_capacity_eviction(self):
        btb = BTB(entries=4, assoc=4)  # single set
        for i in range(5):
            btb.lookup_and_update(0x1000 + 4 * i, 0x9000)
        # The first entry was FIFO-evicted.
        assert btb.lookup_and_update(0x1000, 0x9000) is False


class TestRAS:
    def test_matched_call_return(self):
        ras = ReturnAddressStack()
        ras.push(0x1004)
        assert ras.predict_return(0x1004) is True

    def test_nested_calls(self):
        ras = ReturnAddressStack()
        ras.push(0x1004)
        ras.push(0x2004)
        assert ras.predict_return(0x2004) is True
        assert ras.predict_return(0x1004) is True

    def test_underflow_mispredicts(self):
        ras = ReturnAddressStack()
        assert ras.predict_return(0x1004) is False

    def test_overflow_drops_oldest(self):
        ras = ReturnAddressStack(depth=2)
        ras.push(0x1)
        ras.push(0x2)
        ras.push(0x3)
        assert ras.predict_return(0x3)
        assert ras.predict_return(0x2)
        assert ras.predict_return(0x1) is False


class TestPathHistory:
    def test_branch_bits(self):
        history = PathHistory(bits=8)
        history.update_branch(True)
        history.update_branch(False)
        history.update_branch(True)
        assert history.value == 0b101

    def test_call_contributes_two_bits(self):
        history = PathHistory(bits=8)
        history.update_call(0x1008)  # (pc >> 2) & 3 == 2
        assert history.value == 0b10

    def test_masking(self):
        history = PathHistory(bits=4)
        for _ in range(10):
            history.update_branch(True)
        assert history.value == 0b1111

    def test_returns_do_not_update(self):
        trace = build_trace([("ret",)])
        history = PathHistory()
        history.update(trace[0])
        assert history.value == 0


def _path_history(trace):
    fill_path_history(trace)
    return [inst.path_hist for inst in trace]


class TestComputePathHistory:
    """The pre-decode path history ``fill_path_history`` stores on each
    instruction."""

    def test_values_are_pre_instruction(self):
        trace = build_trace([("br", True), ("ld", 0x100, 8), ("br", False)])
        values = _path_history(trace)
        assert values[0] == 0          # before the first branch
        assert values[1] == 0b1        # after the taken branch
        assert values[2] == 0b1
        assert len(values) == len(trace)

    def test_deterministic(self):
        trace = build_trace([("br", i % 2 == 0) for i in range(20)])
        assert _path_history(trace) == _path_history(trace)

    def test_calls_included(self):
        trace = build_trace([("call",), ("ld", 0x100, 8)])
        values = _path_history(trace)
        assert values[1] == (trace[0].pc >> 2) & 0x3
