"""Tests for the Amnesic Terminals report."""

import pytest

from repro.db import Database
from repro.reports import Invalidation, build_amnesic_report


def make_db():
    db = Database(50)
    db.apply_update(1, 5.0)
    db.apply_update(2, 15.0)
    db.apply_update(3, 18.0)
    return db


class TestAmnesicReport:
    def test_contains_only_last_interval(self):
        report = build_amnesic_report(make_db(), timestamp=20.0, interval=10.0)
        assert report.items == {2, 3}

    def test_gap_free_client_covered(self):
        report = build_amnesic_report(make_db(), timestamp=20.0, interval=10.0)
        inv = report.invalidation_for(tlb=10.0)  # heard previous report
        assert inv.covered
        assert inv.items == {2, 3}

    def test_covered_listeners_share_one_invalidation(self):
        report = build_amnesic_report(make_db(), timestamp=20.0, interval=10.0)
        first = report.invalidation_for(tlb=10.0)
        assert first == Invalidation.drop(report.items)
        assert report.invalidation_for(tlb=20.0) is first

    def test_client_with_gap_drops_all(self):
        report = build_amnesic_report(make_db(), timestamp=20.0, interval=10.0)
        inv = report.invalidation_for(tlb=9.0)
        assert not inv.covered

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            build_amnesic_report(make_db(), timestamp=20.0, interval=0.0)

    def test_smaller_than_window_report(self):
        """AT drops per-item timestamps, so it is the thriftiest report."""
        from repro.reports import amnesic_report_bits, window_report_bits

        assert amnesic_report_bits(10, 10000) < window_report_bits(10, 10000)
