"""Tests for the store-load bypassing predictor."""

from repro.core.bypass_predictor import (
    NO_BYPASS,
    BypassingPredictor,
    BypassPredictorConfig,
)


def make(**kwargs):
    return BypassingPredictor(BypassPredictorConfig(**kwargs))


class TestBasicPrediction:
    def test_cold_miss(self):
        predictor = make()
        prediction = predictor.predict(0x1000, history=0)
        assert not prediction.hit
        assert not prediction.predicts_bypass

    def test_train_then_predict(self):
        predictor = make()
        predictor.train(0x1000, 0, mispredicted=True,
                        prediction_available=False, actual_dist=3,
                        actual_shift=2, actual_store_size=8)
        prediction = predictor.predict(0x1000, history=0)
        assert prediction.hit
        assert prediction.dist == 3
        assert prediction.shift == 2
        assert prediction.store_size == 8

    def test_nonbypass_training(self):
        predictor = make()
        predictor.train(0x1000, 0, mispredicted=True,
                        prediction_available=False, actual_dist=NO_BYPASS)
        prediction = predictor.predict(0x1000, 0)
        assert prediction.hit
        assert not prediction.predicts_bypass

    def test_distance_beyond_field_clamps_to_nonbypass(self):
        predictor = make(distance_bits=6)
        predictor.train(0x1000, 0, mispredicted=True,
                        prediction_available=False, actual_dist=100)
        assert not predictor.predict(0x1000, 0).predicts_bypass

    def test_correct_commits_do_not_create_entries(self):
        predictor = make()
        predictor.train(0x1000, 0, mispredicted=False,
                        prediction_available=False, actual_dist=3)
        assert not predictor.predict(0x1000, 0).hit


class TestPathSensitivity:
    def test_path_sensitive_wins_over_plain(self):
        predictor = make()
        # Train path A with distance 1 and path B with distance 2.
        predictor.train(0x1000, 0b01, True, False, actual_dist=1)
        predictor.train(0x1000, 0b10, True, False, actual_dist=2)
        assert predictor.predict(0x1000, 0b01).dist == 1
        assert predictor.predict(0x1000, 0b10).dist == 2

    def test_unseen_path_falls_back_to_plain(self):
        predictor = make()
        predictor.train(0x1000, 0b01, True, False, actual_dist=4)
        prediction = predictor.predict(0x1000, 0b11)
        assert prediction.hit
        assert not prediction.path_sensitive
        assert prediction.dist == 4

    def test_history_masked_to_configured_bits(self):
        predictor = make(history_bits=2)
        predictor.train(0x1000, 0b0101, True, False, actual_dist=5)
        # Only the low 2 bits participate: 0b1101 aliases to 0b01.
        prediction = predictor.predict(0x1000, 0b1101)
        assert prediction.path_sensitive
        assert prediction.dist == 5


class TestConfidenceAndDelay:
    def test_initialized_confident(self):
        predictor = make()
        predictor.train(0x1000, 0, True, False, actual_dist=1)
        assert predictor.predict(0x1000, 0).confident

    def test_repeat_misprediction_drops_confidence(self):
        predictor = make()
        predictor.train(0x1000, 0, True, False, actual_dist=1)
        predictor.train(0x1000, 0, True, True, actual_dist=2)
        assert not predictor.predict(0x1000, 0).confident

    def test_confidence_recovers_with_correct_commits(self):
        config = BypassPredictorConfig()
        predictor = BypassingPredictor(config)
        predictor.train(0x1000, 0, True, False, actual_dist=1)
        predictor.train(0x1000, 0, True, True, actual_dist=1)
        assert not predictor.predict(0x1000, 0).confident
        needed = (config.conf_threshold - (config.conf_init - config.conf_dec))
        for _ in range(needed // config.conf_inc + 1):
            predictor.train(0x1000, 0, False, True, actual_dist=1)
        assert predictor.predict(0x1000, 0).confident

    def test_first_misprediction_keeps_confidence(self):
        """No decrement when no prediction was available (cold miss)."""
        predictor = make()
        predictor.train(0x1000, 0, True, prediction_available=False,
                        actual_dist=1)
        assert predictor.predict(0x1000, 0).confident

    def test_confidence_drops_in_plain_table_too(self):
        """A load whose path context varies must still reach the delay
        decision through the plain entry."""
        predictor = make()
        predictor.train(0x1000, 0b0001, True, False, actual_dist=1)
        predictor.train(0x1000, 0b0010, True, True, actual_dist=2)
        # Probe with a third, never-trained history: falls to plain.
        prediction = predictor.predict(0x1000, 0b0100)
        assert not prediction.path_sensitive
        assert not prediction.confident


class TestCapacity:
    def test_bounded_table_evicts(self):
        predictor = make(entries_per_table=8, assoc=2)
        for i in range(64):
            predictor.train(0x1000 + 0x40 * i, 0, True, False, actual_dist=1)
        hits = sum(
            predictor.predict(0x1000 + 0x40 * i, 0).hit for i in range(64)
        )
        assert hits < 64

    def test_unbounded_table_never_evicts(self):
        predictor = make(unbounded=True)
        for i in range(512):
            predictor.train(0x1000 + 0x40 * i, 0, True, False, actual_dist=1)
        assert all(
            predictor.predict(0x1000 + 0x40 * i, 0).hit for i in range(512)
        )

    def test_lru_keeps_hot_entries(self):
        predictor = make(entries_per_table=4, assoc=4)
        predictor.train(0x1000, 0, True, False, actual_dist=1)
        # Keep 0x1000 hot while filling the set.
        for i in range(1, 16):
            predictor.predict(0x1000, 0)
            predictor.train(0x1000 + 0x40 * i, 0, True, False, actual_dist=1)
        # All keys map across sets; the hot one must survive its own set.
        assert predictor.predict(0x1000, 0).hit

    def test_storage_budget_is_10kb(self):
        """Section 4.1: 5 bytes per entry, 2K entries -> 10KB."""
        assert BypassPredictorConfig().storage_bytes == 10 * 1024


class TestStatsAndOccupancy:
    def test_stats_track_lookups(self):
        """A lookup misses until a misprediction trains the load in."""
        predictor = make()
        assert not predictor.predict(0x1000, 0).hit
        predictor.train(0x1000, 0, True, False, actual_dist=1)
        prediction = predictor.predict(0x1000, 0)
        assert prediction.hit and prediction.dist == 1

    def test_occupancy(self):
        predictor = make()
        predictor.train(0x1000, 0, True, False, actual_dist=1)
        for table in (predictor._plain, predictor._path):
            assert sum(len(s) for s in table._sets if s) == 1
