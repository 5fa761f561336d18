"""Tests for TS window reports and AAW enlarged windows."""

import pytest

from repro.db import Database
from repro.reports import (
    WindowReport,
    build_enlarged_window_report,
    build_window_report,
    enlarged_report_size,
)


def make_db():
    db = Database(100)
    db.apply_update(1, 10.0)
    db.apply_update(2, 25.0)
    db.apply_update(3, 40.0)
    db.apply_update(1, 55.0)  # re-update: only latest ts matters
    return db


class TestWindowReport:
    def test_contains_exactly_window_items(self):
        db = make_db()
        report = build_window_report(db, timestamp=60.0, window_seconds=40.0)
        # window (20, 60]: items 2 (25), 3 (40), 1 (55)
        assert report.items == {2: 25.0, 3: 40.0, 1: 55.0}

    def test_window_start_exclusive(self):
        db = make_db()
        report = build_window_report(db, timestamp=60.0, window_seconds=35.0)
        # window (25, 60]: item 2's ts == 25 excluded
        assert set(report.items) == {3, 1}

    def test_covers(self):
        report = WindowReport(timestamp=60.0, window_start=20.0, items={}, n_items=100)
        assert report.covers(20.0)
        assert report.covers(59.0)
        assert not report.covers(19.9)

    def test_invalidation_inside_window(self):
        db = make_db()
        report = build_window_report(db, timestamp=60.0, window_seconds=40.0)
        inv = report.invalidation_for(tlb=30.0)
        assert inv.covered
        assert inv.items == {3, 1}  # updated after 30

    def test_invalidation_at_exact_tlb_boundary(self):
        db = make_db()
        report = build_window_report(db, timestamp=60.0, window_seconds=40.0)
        # item 3 updated exactly at 40: a client who heard the report at 40
        # already knows about it.
        inv = report.invalidation_for(tlb=40.0)
        assert inv.items == {1}

    def test_invalidation_outside_window_drops_all(self):
        db = make_db()
        report = build_window_report(db, timestamp=60.0, window_seconds=40.0)
        inv = report.invalidation_for(tlb=10.0)
        assert not inv.covered
        assert inv.items == frozenset()

    def test_item_outside_window_rejected(self):
        with pytest.raises(ValueError):
            WindowReport(
                timestamp=60.0, window_start=20.0, items={5: 15.0}, n_items=100
            )
        with pytest.raises(ValueError):
            WindowReport(
                timestamp=60.0, window_start=20.0, items={5: 65.0}, n_items=100
            )

    def test_window_after_timestamp_rejected(self):
        with pytest.raises(ValueError):
            WindowReport(timestamp=10.0, window_start=20.0, items={}, n_items=100)


class TestEnlargedWindowReport:
    def test_reaches_back_to_dummy_tlb(self):
        db = make_db()
        report = build_enlarged_window_report(db, timestamp=60.0, back_to=5.0)
        assert set(report.items) == {1, 2, 3}
        assert report.dummy_tlb == 5.0
        assert report.covers(5.0)
        assert not report.covers(4.0)

    def test_bigger_than_plain_window_with_same_items(self):
        db = make_db()
        plain = build_window_report(db, timestamp=60.0, window_seconds=55.0)
        enlarged = build_enlarged_window_report(db, timestamp=60.0, back_to=5.0)
        assert set(plain.items) == set(enlarged.items)
        assert enlarged.size_bits > plain.size_bits  # the dummy record

    def test_invalidation_for_long_disconnected_client(self):
        db = make_db()
        report = build_enlarged_window_report(db, timestamp=60.0, back_to=5.0)
        inv = report.invalidation_for(tlb=12.0)
        assert inv.covered
        assert inv.items == {2, 3, 1}  # everything updated after 12

    def test_size_estimate_matches_built_report(self):
        db = make_db()
        count, size = enlarged_report_size(db, back_to=5.0)
        report = build_enlarged_window_report(db, timestamp=60.0, back_to=5.0)
        assert count == len(report.items)
        assert size == report.size_bits


class TestFreshSince:
    def test_newest_ts_tracks_items(self):
        db = make_db()
        report = build_window_report(db, timestamp=60.0, window_seconds=40.0)
        assert report.newest_ts == 55.0
        empty = WindowReport(
            timestamp=60.0, window_start=20.0, items={}, n_items=100
        )
        assert empty.newest_ts == 20.0  # falls back to the window start

    def test_filters_by_floor(self):
        db = make_db()
        report = build_window_report(db, timestamp=60.0, window_seconds=40.0)
        assert report.fresh_since(30.0) == {3: 40.0, 1: 55.0}
        assert report.fresh_since(55.0) == {}

    def test_memo_reused_for_same_floor(self):
        db = make_db()
        report = build_window_report(db, timestamp=60.0, window_seconds=40.0)
        first = report.fresh_since(30.0)
        assert report.fresh_since(30.0) is first      # memo hit
        assert report.fresh_since(50.0) is not first  # different floor


class TestSuccessiveReports:
    """One IR(w) per broadcast interval, each built afresh from the index."""

    def test_a_quiet_slide_reports_the_same_items(self):
        db = make_db()
        a = build_window_report(db, 60.0, 40.0)
        # Window slides forward but no item leaves it (oldest is 25).
        b = build_window_report(db, 62.0, 40.0)
        assert b.items == a.items
        assert b.window_start == 22.0

    def test_an_update_shows_in_the_next_report(self):
        db = make_db()
        build_window_report(db, 60.0, 40.0)
        db.apply_update(7, 65.0)
        report = build_window_report(db, 70.0, 40.0)
        # Window (30, 70]: item 2 (25) has left it.
        assert report.items == {3: 40.0, 1: 55.0, 7: 65.0}

    def test_an_item_leaves_once_the_window_passes_it(self):
        db = make_db()
        a = build_window_report(db, 60.0, 40.0)
        assert 2 in a.items  # ts=25
        # Window start moves past item 2's timestamp.
        b = build_window_report(db, 70.0, 40.0 - 5.0)
        assert b.items == {3: 40.0, 1: 55.0}

    def test_reports_do_not_share_their_items(self):
        db = make_db()
        a = build_window_report(db, 60.0, 40.0)
        b = build_window_report(db, 62.0, 40.0)
        assert a.items is not b.items
        # A mutated report leaks into neither a later report nor the index.
        a.items.clear()
        assert build_window_report(db, 64.0, 40.0).items == b.items
