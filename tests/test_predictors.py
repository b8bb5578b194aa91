"""Tests for the StoreSets predictor."""

from repro.predictors import StoreSets


class TestStoreSets:
    def test_untrained_predicts_nothing(self):
        predictor = StoreSets()
        assert predictor.load_dependence(0x1000) is None

    def test_violation_creates_dependence(self):
        predictor = StoreSets()
        predictor.train_violation(load_pc=0x1000, store_pc=0x2000)
        handle = object()
        predictor.store_renamed(0x2000, handle)
        assert predictor.load_dependence(0x1000) is handle

    def test_lfst_tracks_most_recent_instance(self):
        predictor = StoreSets()
        predictor.train_violation(0x1000, 0x2000)
        old, new = object(), object()
        predictor.store_renamed(0x2000, old)
        predictor.store_renamed(0x2000, new)
        assert predictor.load_dependence(0x1000) is new

    def test_store_retired_invalidates(self):
        predictor = StoreSets()
        predictor.train_violation(0x1000, 0x2000)
        handle = object()
        predictor.store_renamed(0x2000, handle)
        predictor.store_retired(0x2000, handle)
        assert predictor.load_dependence(0x1000) is None

    def test_retire_of_stale_handle_keeps_newer(self):
        predictor = StoreSets()
        predictor.train_violation(0x1000, 0x2000)
        old, new = object(), object()
        predictor.store_renamed(0x2000, old)
        predictor.store_renamed(0x2000, new)
        predictor.store_retired(0x2000, old)
        assert predictor.load_dependence(0x1000) is new

    def test_join_existing_set(self):
        predictor = StoreSets()
        predictor.train_violation(0x1000, 0x2000)
        predictor.train_violation(0x1000, 0x3000)  # store joins load's set
        handle = object()
        predictor.store_renamed(0x3000, handle)
        assert predictor.load_dependence(0x1000) is handle

    def test_merge_counts(self):
        predictor = StoreSets()
        predictor.train_violation(0x1000, 0x2000)
        predictor.train_violation(0x3000, 0x4000)
        predictor.train_violation(0x1000, 0x4000)  # merges the two sets
        # Load 0x1000 keeps its set; store 0x4000 moves into it.
        handle = object()
        predictor.store_renamed(0x4000, handle)
        assert predictor.load_dependence(0x1000) is handle
        # Load 0x3000's set lost its store: it no longer waits on 0x4000.
        assert predictor.load_dependence(0x3000) is None

    def test_clear(self):
        """Every CLEAR_INTERVAL-th training clears both tables."""
        predictor = StoreSets()
        predictor._trainings = StoreSets.CLEAR_INTERVAL - 2
        predictor.train_violation(0x1000, 0x2000)
        predictor.store_renamed(0x2000, object())
        assert predictor.load_dependence(0x1000) is not None
        predictor.train_violation(0x1000, 0x2000)
        assert predictor.load_dependence(0x1000) is None
        predictor.store_renamed(0x2000, object())
        assert predictor.load_dependence(0x1000) is None

    def test_load_waits_counted(self):
        predictor = StoreSets()
        assert predictor.load_dependence(0x1000) is None
        predictor.train_violation(0x1000, 0x2000)
        assert predictor.load_dependence(0x1000) is None  # no store in flight
        handle = object()
        predictor.store_renamed(0x2000, handle)
        assert predictor.load_dependence(0x1000) is handle
