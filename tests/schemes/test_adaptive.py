"""Unit tests for the AFW and AAW adaptive schemes (paper Section 3)."""

from repro.reports import ReportKind
from repro.schemes import (
    AAWServerPolicy,
    AFWServerPolicy,
    AdaptiveClientPolicy,
    SessionOutcome,
)


def fill_updates(db, n, start=10.0, step=10.0):
    t = start
    for i in range(n):
        db.apply_update(i, t)
        t += step
    return t - step  # time of last update


class TestAFWServer:
    def test_default_is_window_report(self, params, db):
        server = AFWServerPolicy(params=params, db=db)
        report = server.build_report(None, now=400.0)
        assert report.kind is ReportKind.WINDOW

    def test_salvageable_tlb_triggers_bs(self, params, db):
        fill_updates(db, 5)
        server = AFWServerPolicy(params=params, db=db)
        server.on_tlb(None, client_id=0, tlb=30.0, now=390.0)
        report = server.build_report(None, now=400.0)
        assert report.kind is ReportKind.BIT_SEQUENCES
        assert server.bs_broadcasts == 1

    def test_bs_broadcast_only_once_per_batch(self, params, db):
        fill_updates(db, 5)
        server = AFWServerPolicy(params=params, db=db)
        server.on_tlb(None, 0, 30.0, 390.0)
        server.build_report(None, 400.0)
        # No new uploads: back to the default window.
        assert server.build_report(None, 420.0).kind is ReportKind.WINDOW

    def test_unsalvageable_tlb_gets_window(self, params, db):
        # Update more than half the database after t=50; a client with
        # tlb=30 is beyond what BS can record.
        for i in range(40):
            db.apply_update(i, 50.0 + i)
        server = AFWServerPolicy(params=params, db=db)
        server.on_tlb(None, 0, 30.0, 390.0)
        assert server.build_report(None, 400.0).kind is ReportKind.WINDOW

    def test_tlb_within_window_is_not_a_trigger(self, params, db):
        """A covered client should never have sent Tlb; the guard filters
        stray uploads (tlb > T - wL)."""
        fill_updates(db, 5)
        server = AFWServerPolicy(params=params, db=db)
        server.on_tlb(None, 0, 390.0, 395.0)
        assert server.build_report(None, 400.0).kind is ReportKind.WINDOW


class TestAAWServer:
    def test_small_gap_gets_enlarged_window(self, params, db):
        fill_updates(db, 5)  # 5 updated items: IR(w') is tiny
        server = AAWServerPolicy(params=params, db=db)
        server.on_tlb(None, 0, tlb=30.0, now=390.0)
        report = server.build_report(None, now=400.0)
        assert report.kind is ReportKind.ENLARGED_WINDOW
        assert report.dummy_tlb == 30.0
        assert server.enlarged_broadcasts == 1

    def test_huge_history_falls_back_to_bs(self, params, db):
        # Many distinct updated items make IR(w') larger than IR(BS):
        # 64-item db -> BS = 128 + 7*32 + 34 = 2 * 64 + ...; each window
        # record costs 38 bits, so ~10+ records tip the balance.
        for i in range(30):
            db.apply_update(i, 50.0 + i)
        server = AAWServerPolicy(params=params, db=db)
        server.on_tlb(None, 0, tlb=49.0, now=390.0)
        report = server.build_report(None, now=400.0)
        assert report.kind is ReportKind.BIT_SEQUENCES
        assert server.bs_broadcasts == 1

    def test_enlarged_window_reaches_oldest_salvageable(self, params, db):
        fill_updates(db, 4)
        server = AAWServerPolicy(params=params, db=db)
        server.on_tlb(None, 0, 60.0, 390.0)
        server.on_tlb(None, 1, 35.0, 392.0)
        report = server.build_report(None, 400.0)
        assert report.dummy_tlb == 35.0

    def test_default_window_when_quiet(self, params, db):
        server = AAWServerPolicy(params=params, db=db)
        assert server.build_report(None, 400.0).kind is ReportKind.WINDOW


class TestAdaptiveClient:
    def test_covered_window_applies_ts(self, params, db, ctx):
        db.apply_update(3, 350.0)
        ctx.cache_items((3, 100.0), (7, 100.0))
        ctx.tlb = 300.0
        server = AFWServerPolicy(params=params, db=db)
        policy = AdaptiveClientPolicy(params=params, client_id=0)
        outcome = policy.on_report(ctx, server.build_report(None, 400.0))
        assert outcome is SessionOutcome.READY
        assert 3 not in ctx.cache and 7 in ctx.cache
        assert ctx.sent_tlbs == []

    def test_uncovered_sends_tlb_once(self, params, db, ctx):
        ctx.cache_items((7, 10.0))
        ctx.tlb = 30.0
        server = AFWServerPolicy(params=params, db=db)
        policy = AdaptiveClientPolicy(params=params, client_id=0)
        outcome = policy.on_report(ctx, server.build_report(None, 400.0))
        assert outcome is SessionOutcome.PENDING
        assert ctx.sent_tlbs == [30.0]
        assert 7 in ctx.cache  # nothing dropped while waiting

    def test_bs_answer_salvages(self, params, db, ctx):
        db.apply_update(1, 350.0)
        ctx.cache_items((1, 10.0), (7, 10.0))
        ctx.tlb = 30.0
        server = AFWServerPolicy(params=params, db=db)
        policy = AdaptiveClientPolicy(params=params, client_id=0)
        policy.on_report(ctx, server.build_report(None, 400.0))
        server.on_tlb(None, 0, ctx.sent_tlbs[0], 401.0)
        outcome = policy.on_report(ctx, server.build_report(None, 420.0))
        assert outcome is SessionOutcome.READY
        assert 1 not in ctx.cache and 7 in ctx.cache
        assert ctx.drops == 0
        assert ctx.tlb == 420.0

    def test_enlarged_window_answer_salvages(self, params, db, ctx):
        db.apply_update(1, 350.0)
        ctx.cache_items((1, 10.0), (7, 10.0))
        ctx.tlb = 30.0
        server = AAWServerPolicy(params=params, db=db)
        policy = AdaptiveClientPolicy(params=params, client_id=0)
        policy.on_report(ctx, server.build_report(None, 400.0))
        server.on_tlb(None, 0, ctx.sent_tlbs[0], 401.0)
        report = server.build_report(None, 420.0)
        assert report.kind is ReportKind.ENLARGED_WINDOW
        outcome = policy.on_report(ctx, report)
        assert outcome is SessionOutcome.READY
        assert 1 not in ctx.cache and 7 in ctx.cache

    def test_second_uncovered_window_drops_cache(self, params, db, ctx):
        """If the server never helps (unsalvageable), the client gives up."""
        ctx.cache_items((7, 10.0))
        ctx.tlb = 30.0
        server = AFWServerPolicy(params=params, db=db)
        policy = AdaptiveClientPolicy(params=params, client_id=0)
        policy.on_report(ctx, server.build_report(None, 400.0))
        # Server ignored us (e.g. upload lost / unsalvageable): next plain
        # window forces the drop.
        outcome = policy.on_report(ctx, server.build_report(None, 420.0))
        assert outcome is SessionOutcome.READY
        assert len(ctx.cache) == 0
        assert ctx.drops == 1
        assert len(ctx.sent_tlbs) == 1  # never re-asks within the episode

    def test_reconnect_resets_sent_latch(self, params, db, ctx):
        ctx.tlb = 30.0
        ctx.cache_items((7, 10.0))
        server = AFWServerPolicy(params=params, db=db)
        policy = AdaptiveClientPolicy(params=params, client_id=0)
        policy.on_report(ctx, server.build_report(None, 400.0))
        policy.on_reconnect(ctx, 410.0)
        policy.on_report(ctx, server.build_report(None, 420.0))
        assert len(ctx.sent_tlbs) == 2  # new episode, may ask again

    def test_unsalvageable_client_drops_on_bs(self, params, db, ctx):
        for i in range(40):
            db.apply_update(i, 50.0 + i)
        ctx.cache_items((60, 5.0))
        ctx.tlb = 5.0
        server = AFWServerPolicy(params=params, db=db)
        # Another client's request forces a BS broadcast.
        server.on_tlb(None, 1, 95.0, 390.0)
        report = server.build_report(None, 400.0)
        assert report.kind is ReportKind.BIT_SEQUENCES
        policy = AdaptiveClientPolicy(params=params, client_id=0)
        policy.on_report(ctx, report)
        assert len(ctx.cache) == 0
        assert ctx.drops == 1
