"""Tests for the ground-truth update log."""

import bisect

import pytest

from repro.db import UpdateLog


class TestUpdateLog:
    def test_updated_in_half_open_interval(self):
        log = UpdateLog()
        log.record(1, 5.0)
        assert log.updated_in(1, after=4.0, up_to=5.0)      # (4, 5] contains 5
        assert not log.updated_in(1, after=5.0, up_to=9.0)  # (5, 9] excludes 5
        assert not log.updated_in(1, after=0.0, up_to=4.9)

    def test_unknown_item(self):
        assert not UpdateLog().updated_in(99, 0.0, 100.0)

    def test_multiple_updates(self):
        log = UpdateLog()
        for t in (1.0, 5.0, 9.0):
            log.record(2, t)
        assert log.updated_in(2, after=1.0, up_to=4.0) is False
        assert log.updated_in(2, after=1.0, up_to=5.0) is True
        assert log.updates_of(2) == [1.0, 5.0, 9.0]
        assert log.total == 3

    def test_non_monotone_rejected(self):
        log = UpdateLog()
        log.record(1, 5.0)
        with pytest.raises(ValueError):
            log.record(1, 4.0)

    def test_last_update_before(self):
        log = UpdateLog()
        for t in (1.0, 5.0, 9.0):
            log.record(7, t)
        assert log.last_update_before(7, up_to=6.0) == 5.0
        assert log.last_update_before(7, up_to=9.0) == 9.0
        assert log.last_update_before(7, up_to=0.5) == float("-inf")
        assert log.last_update_before(8, up_to=10.0) == float("-inf")

    def test_versions_at_counts_updates_up_to_and_at_the_instant(self):
        log = UpdateLog()
        for t in (1.0, 5.0, 9.0):
            log.record(7, t)
        log.record(3, 5.0)
        items = [7, 3, 8, 7]
        for up_to in (0.5, 1.0, 4.0, 5.0, 9.0, 10.0):
            want = [bisect.bisect_right(log.updates_of(i), up_to) for i in items]
            assert log.versions_at(items, up_to) == want
        assert log.versions_at(items, 5.0) == [2, 1, 0, 2]
        assert log.versions_at([], 5.0) == []
