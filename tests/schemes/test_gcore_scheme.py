"""Unit tests for the GCORE-inspired grouped checking scheme."""

from repro.reports import checking_upload_bits
from repro.schemes import (
    CheckingServerPolicy,
    GCOREClientPolicy,
    SessionOutcome,
    group_of,
)
from repro.schemes.gcore import grouped_upload_bits


class TestGroupedUpload:
    def test_upload_cheaper_than_full_checking(self, params):
        grouped = grouped_upload_bits(200, params.db_size, 8, params.timestamp_bits)
        full = checking_upload_bits(200, params.db_size, params.timestamp_bits)
        assert grouped < full

    def test_group_assignment_stable(self):
        assert group_of(13, 8) == group_of(13, 8) == 13 % 8


class TestGCOREClient:
    def test_uncovered_uploads_group_minima(self, params, db, ctx):
        ctx.cache_items((1, 50.0), (9, 80.0))  # both in group 1 (mod 8)
        ctx.tlb = 80.0
        server = CheckingServerPolicy(params=params, db=db)
        policy = GCOREClientPolicy(params=params, client_id=0)
        outcome = policy.on_report(ctx, server.build_report(None, 500.0))
        assert outcome is SessionOutcome.PENDING
        (entries, size), = ctx.check_requests
        # Both items report the *group minimum* timestamp (50).
        assert sorted(entries) == [(1, 50.0), (9, 50.0)]
        assert size == policy.upload_size_bits(2)

    def test_over_invalidation_within_group(self, params, db, ctx):
        """An item updated after the group minimum but before its own
        fetch gets dropped: the price of the cheaper upload."""
        db.apply_update(9, 60.0)  # before item 9's fetch at 80
        ctx.cache_items((1, 50.0), (9, 80.0))
        ctx.tlb = 80.0
        server = CheckingServerPolicy(params=params, db=db)
        policy = GCOREClientPolicy(params=params, client_id=0)
        policy.on_report(ctx, server.build_report(None, 500.0))
        (entries, _), = ctx.check_requests
        invalid, certified, _ = server.on_check_request(None, 0, entries, 505.0)
        assert 9 in invalid  # over-invalidated (safe, wasteful)
        policy.on_validity_reply(ctx, invalid, certified)
        assert 9 not in ctx.cache and 1 in ctx.cache

    def test_truly_stale_items_always_dropped(self, params, db, ctx):
        db.apply_update(1, 400.0)
        ctx.cache_items((1, 50.0))
        ctx.tlb = 80.0
        server = CheckingServerPolicy(params=params, db=db)
        policy = GCOREClientPolicy(params=params, client_id=0)
        policy.on_report(ctx, server.build_report(None, 500.0))
        (entries, _), = ctx.check_requests
        invalid, certified, _ = server.on_check_request(None, 0, entries, 505.0)
        policy.on_validity_reply(ctx, invalid, certified)
        assert 1 not in ctx.cache

    def test_covered_report_no_upload(self, params, db, ctx):
        ctx.tlb = 400.0
        ctx.cache_items((1, 390.0))
        server = CheckingServerPolicy(params=params, db=db)
        policy = GCOREClientPolicy(params=params, client_id=0)
        assert policy.on_report(ctx, server.build_report(None, 500.0)) is (
            SessionOutcome.READY
        )
        assert ctx.check_requests == []


class TestRegistry:
    def test_all_schemes_registered(self):
        from repro.schemes import available_schemes

        assert set(available_schemes()) == {
            "aaw", "afw", "at", "bs", "checking", "gcore", "sig", "ts",
        }

    def test_lookup_and_errors(self):
        from repro.schemes import get_scheme

        assert get_scheme("AAW").name == "aaw"
        import pytest

        with pytest.raises(KeyError):
            get_scheme("nope")

    def test_register_custom_scheme(self):
        from repro.schemes import Scheme, get_scheme, register_scheme
        import pytest

        from repro.schemes.registry import _REGISTRY

        dummy = Scheme("dummy-test", lambda **kw: None, lambda **kw: None)
        try:
            register_scheme(dummy)
            assert get_scheme("dummy-test") is dummy
            with pytest.raises(ValueError):
                register_scheme(dummy)
            register_scheme(dummy, overwrite=True)  # allowed explicitly
        finally:
            # The registry is process-global: leaving the dummy behind
            # would leak into every later available_schemes() caller.
            _REGISTRY.pop("dummy-test", None)
