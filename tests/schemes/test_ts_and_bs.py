"""Unit tests for the TS, AT and BS scheme policies (one client:
the base ``ClientPolicy``)."""

from repro.schemes import (
    ATServerPolicy,
    BSServerPolicy,
    ClientPolicy,
    SessionOutcome,
    TSServerPolicy,
)
from repro.reports import ReportKind


class TestTSServer:
    def test_builds_window_report_every_tick(self, params, db):
        db.apply_update(3, 150.0)
        policy = TSServerPolicy(params=params, db=db)
        report = policy.build_report(None, now=200.0)
        assert report.kind is ReportKind.WINDOW
        assert report.window_start == 0.0  # 200 - 10*20
        assert report.items == {3: 150.0}


class TestTSClient:
    def test_covered_report_precise_invalidation(self, params, db, ctx):
        db.apply_update(3, 150.0)
        ctx.cache_items((3, 100.0), (7, 100.0))
        ctx.tlb = 100.0
        report = TSServerPolicy(params=params, db=db).build_report(None, 200.0)
        policy = ClientPolicy(params=params, client_id=0)
        outcome = policy.on_report(ctx, report)
        assert outcome is SessionOutcome.READY
        assert 3 not in ctx.cache  # updated after fetch
        assert 7 in ctx.cache      # untouched item survives
        assert ctx.tlb == 200.0
        assert ctx.cache.certified_floor == 200.0

    def test_uncovered_report_drops_entire_cache(self, params, db, ctx):
        ctx.cache_items((1, 10.0), (2, 10.0))
        ctx.tlb = 10.0
        report = TSServerPolicy(params=params, db=db).build_report(None, 500.0)
        # window starts at 300 > tlb=10 -> gap too long
        policy = ClientPolicy(params=params, client_id=0)
        policy.on_report(ctx, report)
        assert len(ctx.cache) == 0
        assert ctx.drops == 1
        assert ctx.tlb == 500.0

    def test_entry_fetched_between_reports_survives(self, params, db, ctx):
        """An item updated then refetched must not be re-invalidated."""
        db.apply_update(5, 150.0)
        ctx.tlb = 140.0
        ctx.cache_items((5, 160.0))  # fetched after the update
        report = TSServerPolicy(params=params, db=db).build_report(None, 200.0)
        ClientPolicy(params=params, client_id=0).on_report(ctx, report)
        assert 5 in ctx.cache


class TestAT:
    def test_server_reports_one_interval(self, params, db):
        db.apply_update(1, 170.0)
        db.apply_update(2, 195.0)
        policy = ATServerPolicy(params=params, db=db)
        report = policy.build_report(None, now=200.0)
        assert report.kind is ReportKind.AMNESIC
        assert report.items == {2}  # only (180, 200]

    def test_client_gap_free_applies(self, params, db, ctx):
        db.apply_update(2, 195.0)
        ctx.cache_items((2, 100.0), (9, 100.0))
        ctx.tlb = 180.0
        report = ATServerPolicy(params=params, db=db).build_report(None, 200.0)
        ClientPolicy(params=params, client_id=0).on_report(ctx, report)
        assert 2 not in ctx.cache and 9 in ctx.cache

    def test_client_with_gap_drops_all(self, params, db, ctx):
        ctx.cache_items((9, 100.0))
        ctx.tlb = 150.0  # missed the report at 180
        report = ATServerPolicy(params=params, db=db).build_report(None, 200.0)
        ClientPolicy(params=params, client_id=0).on_report(ctx, report)
        assert len(ctx.cache) == 0
        assert ctx.drops == 1


class TestBS:
    def test_server_builds_bs_every_tick(self, params, db):
        policy = BSServerPolicy(params=params, db=db)
        report = policy.build_report(None, now=20.0)
        assert report.kind is ReportKind.BIT_SEQUENCES
        assert report.size_bits > 2 * 64  # ~2N plus timestamps

    def test_client_salvages_after_long_gap(self, params, db, ctx):
        db.apply_update(1, 500.0)
        db.apply_update(2, 900.0)
        ctx.cache_items((1, 100.0), (2, 100.0), (9, 100.0))
        ctx.tlb = 100.0  # gap of 800 s >> window, but BS covers it
        report = BSServerPolicy(params=params, db=db).build_report(None, 1000.0)
        outcome = ClientPolicy(params=params, client_id=0).on_report(ctx, report)
        assert outcome is SessionOutcome.READY
        assert 1 not in ctx.cache and 2 not in ctx.cache
        assert 9 in ctx.cache  # never updated: retained despite the gap
        assert ctx.drops == 0

    def test_client_beyond_half_database_drops(self, params, db, ctx):
        for i in range(40):  # 40 of 64 items updated
            db.apply_update(i, 10.0 + i)
        ctx.cache_items((60, 5.0))
        ctx.tlb = 5.0  # older than TS(Bn)
        report = BSServerPolicy(params=params, db=db).build_report(None, 100.0)
        ClientPolicy(params=params, client_id=0).on_report(ctx, report)
        assert len(ctx.cache) == 0
        assert ctx.drops == 1
