"""Tests for the server database and its recency index."""

import pytest

from repro.db import Database, NEVER


class TestBasics:
    def test_fresh_database(self):
        db = Database(10)
        assert db.read(0) == (0, NEVER)
        assert db.recency_order() == []

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Database(0)

    def test_apply_update_bumps_version_and_time(self):
        db = Database(10)
        db.apply_update(3, 5.0)
        assert db.read(3) == (1, 5.0)
        db.apply_update(3, 9.0)
        assert db.read(3) == (2, 9.0)
        assert db.total_updates == 2

    def test_out_of_range_item(self):
        db = Database(5)
        with pytest.raises(IndexError):
            db.apply_update(5, 1.0)
        with pytest.raises(IndexError):
            db.read(-1)

    def test_time_reversal_rejected(self):
        db = Database(5)
        db.apply_update(1, 10.0)
        with pytest.raises(ValueError):
            db.apply_update(1, 9.0)


class TestRecency:
    def test_updated_since_returns_most_recent_first(self):
        db = Database(10)
        db.apply_update(1, 1.0)
        db.apply_update(2, 2.0)
        db.apply_update(3, 3.0)
        assert db.updated_since(1.0) == [(3, 3.0), (2, 2.0)]

    def test_updated_since_cutoff_is_exclusive(self):
        db = Database(10)
        db.apply_update(1, 5.0)
        assert db.updated_since(5.0) == []
        assert db.updated_since(4.999) == [(1, 5.0)]

    def test_re_update_moves_to_front(self):
        db = Database(10)
        db.apply_update(1, 1.0)
        db.apply_update(2, 2.0)
        db.apply_update(1, 3.0)
        assert db.updated_since(0.0) == [(1, 3.0), (2, 2.0)]
        assert len(db.recency_order()) == 2

    def test_recency_order_with_limit(self):
        db = Database(10)
        for i, t in enumerate([1.0, 2.0, 3.0, 4.0]):
            db.apply_update(i, t)
        assert db.recency_order(limit=2) == [(3, 4.0), (2, 3.0)]
        assert db.recency_order() == [(3, 4.0), (2, 3.0), (1, 2.0), (0, 1.0)]

    def test_latest_update_time(self):
        db = Database(10)
        db.apply_update(4, 7.0)
        db.apply_update(2, 9.5)
        assert db.recency_order(limit=1) == [(2, 9.5)]

    def test_same_timestamp_updates_allowed(self):
        """A transaction updates several items at the same instant."""
        db = Database(10)
        db.apply_update(1, 5.0)
        db.apply_update(2, 5.0)
        assert len(db.updated_since(4.0)) == 2
