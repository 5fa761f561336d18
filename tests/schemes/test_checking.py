"""Unit tests for the TS-with-checking scheme."""

from repro.schemes import (
    CheckingClientPolicy,
    CheckingServerPolicy,
    SessionOutcome,
)


class TestCheckingClient:
    def test_covered_behaves_like_ts(self, params, db, ctx):
        db.apply_update(3, 150.0)
        ctx.cache_items((3, 100.0), (7, 100.0))
        ctx.tlb = 100.0
        server = CheckingServerPolicy(params=params, db=db)
        report = server.build_report(None, 200.0)
        policy = CheckingClientPolicy(params=params, client_id=0)
        assert policy.on_report(ctx, report) is SessionOutcome.READY
        assert 3 not in ctx.cache and 7 in ctx.cache
        assert ctx.check_requests == []

    def test_uncovered_uploads_whole_cache(self, params, db, ctx):
        ctx.cache_items((1, 10.0), (2, 30.0))
        ctx.tlb = 30.0
        server = CheckingServerPolicy(params=params, db=db)
        report = server.build_report(None, 500.0)  # window (300, 500]
        policy = CheckingClientPolicy(params=params, client_id=0)
        assert policy.on_report(ctx, report) is SessionOutcome.PENDING
        (entries, size), = ctx.check_requests
        assert sorted(entries) == [(1, 10.0), (2, 30.0)]
        assert size is None  # default sizing (full checking upload)
        assert len(ctx.cache) == 2  # nothing dropped yet

    def test_uncovered_with_empty_cache_just_resyncs(self, params, db, ctx):
        ctx.tlb = 30.0
        report = CheckingServerPolicy(params=params, db=db).build_report(None, 500.0)
        policy = CheckingClientPolicy(params=params, client_id=0)
        assert policy.on_report(ctx, report) is SessionOutcome.READY
        assert ctx.check_requests == []
        assert ctx.tlb == 500.0

    def test_validity_reply_salvages_valid_entries(self, params, db, ctx):
        db.apply_update(1, 400.0)
        ctx.cache_items((1, 10.0), (2, 10.0))
        ctx.tlb = 30.0
        server = CheckingServerPolicy(params=params, db=db)
        report = server.build_report(None, 500.0)
        policy = CheckingClientPolicy(params=params, client_id=0)
        policy.on_report(ctx, report)
        (entries, _size), = ctx.check_requests
        invalid, certified, bits = server.on_check_request(None, 0, entries, 505.0)
        assert invalid == [1]
        assert bits == len(entries)  # one bit per checked item
        policy.on_validity_reply(ctx, invalid, certified)
        assert 1 not in ctx.cache and 2 in ctx.cache
        assert ctx.tlb == 505.0
        assert ctx.cache.certified_floor == 505.0

    def test_reports_ignored_while_check_pending(self, params, db, ctx, session_of):
        ctx.cache_items((2, 10.0))
        ctx.tlb = 30.0
        server = CheckingServerPolicy(params=params, db=db)
        session = session_of(CheckingClientPolicy(params=params, client_id=0))
        session.offer_report(server.build_report(None, 500.0), now=500.0)
        # The session holds reports until the validity reply lands.
        outcome = session.offer_report(server.build_report(None, 520.0), now=520.0)
        assert outcome is SessionOutcome.PENDING
        assert len(ctx.check_requests) == 1  # no duplicate upload
        assert session.tlb == 30.0 and 2 in ctx.cache  # nothing applied

    def test_after_reply_next_report_covers(self, params, db, ctx):
        ctx.cache_items((2, 10.0))
        ctx.tlb = 30.0
        server = CheckingServerPolicy(params=params, db=db)
        policy = CheckingClientPolicy(params=params, client_id=0)
        policy.on_report(ctx, server.build_report(None, 500.0))
        (entries, _), = ctx.check_requests
        invalid, certified, _ = server.on_check_request(None, 0, entries, 505.0)
        policy.on_validity_reply(ctx, invalid, certified)
        outcome = policy.on_report(ctx, server.build_report(None, 520.0))
        assert outcome is SessionOutcome.READY
        assert len(ctx.check_requests) == 1


class TestCheckingServer:
    def test_counts_checks(self, params, db):
        server = CheckingServerPolicy(params=params, db=db)
        server.on_check_request(None, 0, [(1, 0.0)], 10.0)
        server.on_check_request(None, 1, [(2, 0.0)], 11.0)
        assert server.checks_served == 2

    def test_boundary_equal_timestamp_is_valid(self, params, db):
        db.apply_update(4, 100.0)
        server = CheckingServerPolicy(params=params, db=db)
        invalid, _, _ = server.on_check_request(None, 0, [(4, 100.0)], 200.0)
        assert invalid == []  # entry coherent as of exactly the update time
