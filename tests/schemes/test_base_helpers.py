"""Tests for scheme base helpers not covered elsewhere."""

import runpy
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheEntry, ClientCache
from repro.reports import Invalidation, WindowReport
from repro.schemes import SessionOutcome, apply_invalidation, apply_window_report
from repro.schemes.base import ClientPolicy, Scheme, ServerPolicy
from repro.schemes.registry import _REGISTRY

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def entry(item, ts=0.0):
    return CacheEntry(item=item, version=1, ts=ts)


# Caches built from inserts and certifications.  Times sit on a coarse
# grid, so report times often equal an entry's ts or the floor; small
# capacities evict suspect entries, which leaves their marks behind in
# ``unreconciled``.
_times = st.integers(0, 12).map(lambda k: 10.0 * k)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 15), _times, st.booleans()),
        st.tuples(st.just("certify"), _times),
    ),
    max_size=40,
)


def build(capacity, ops):
    """A cache as a window-scheme client keeps it: an entry older than
    the certification floor is always inserted as suspect."""
    cache = ClientCache(capacity)
    for op in ops:
        if op[0] == "insert":
            _, item, ts, suspect = op
            suspect = suspect or ts < cache.certified_floor
            cache.insert(CacheEntry(item=item, version=1, ts=ts), suspect=suspect)
        else:
            cache.certify(op[1])
    return cache


def cache_state(cache):
    return (
        [(e.item, e.version, e.ts, e.cert_epoch) for e in cache.entries()],
        cache.insertions,
        cache.invalidations,
        cache.evictions,
        cache.epoch,
        cache.certified_floor,
        set(cache.unreconciled),
    )


def reference_apply_invalidation(cache, inv, report_time):
    """The per-item loop ``apply_invalidation`` replaced: one
    ``invalidate`` call per listed item, cached or not."""
    dropped = 0
    for item in inv.items:
        if cache.invalidate(item):
            dropped += 1
    cache.certify(report_time)
    return dropped


def reference_apply_window_report(cache, report):
    """``apply_window_report`` as a per-item loop: drop the suspects the
    window cannot bound, then one ``peek`` and one ``effective_ts`` per
    listed item."""
    dropped = 0
    for suspect in cache.unreconciled_entries():
        if suspect.ts < report.window_start:
            cache.invalidate(suspect.item)
            dropped += 1
    for item, ts in report.items.items():
        cached = cache.peek(item)
        if cached is not None and ts > cache.effective_ts(cached):
            cache.invalidate(item)
            dropped += 1
    cache.certify(report.timestamp)
    return dropped


class TestApplyInvalidation:
    def test_uncovered_rejected(self):
        cache = ClientCache(4)
        with pytest.raises(ValueError):
            apply_invalidation(cache, Invalidation.drop_all(), 10.0)

    def test_small_set_path(self):
        cache = ClientCache(8)
        for i in range(5):
            cache.insert(entry(i))
        dropped = apply_invalidation(cache, Invalidation.drop({1, 3, 99}), 10.0)
        assert dropped == 2
        assert 1 not in cache and 3 not in cache and 0 in cache

    def test_large_set_path(self):
        """When the drop set dwarfs the cache, iteration flips sides."""
        cache = ClientCache(4)
        cache.insert(entry(2))
        cache.insert(entry(7))
        big = Invalidation.drop(frozenset(range(100)))
        dropped = apply_invalidation(cache, big, 10.0)
        assert dropped == 2
        assert len(cache) == 0

    @settings(max_examples=300, deadline=None)
    @given(
        capacity=st.integers(1, 8),
        ops=_ops,
        items=st.frozensets(st.integers(0, 20), max_size=21),
    )
    def test_matches_the_per_item_loop(self, capacity, ops, items):
        """Drop sets smaller and larger than the cache, suspect entries
        and stale marks alike leave the reference loop's cache."""
        got = build(capacity, ops)
        want = build(capacity, ops)
        inv = Invalidation.drop(items)
        assert apply_invalidation(got, inv, 130.0) == reference_apply_invalidation(
            want, inv, 130.0
        )
        assert cache_state(got) == cache_state(want)

    def test_certifies_even_when_nothing_dropped(self):
        cache = ClientCache(4)
        cache.insert(entry(1))
        apply_invalidation(cache, Invalidation.nothing(), 42.0)
        assert cache.certified_floor == 42.0


class TestApplyWindowReport:
    def test_large_report_iterates_cache_side(self):
        cache = ClientCache(2)
        cache.insert(entry(0, ts=5.0))
        cache.insert(entry(1, ts=5.0))
        items = {i: 50.0 for i in range(100)}  # report >> cache
        report = WindowReport(
            timestamp=60.0, window_start=0.0, items=items, n_items=200
        )
        dropped = apply_window_report(cache, report)
        assert dropped == 2
        assert len(cache) == 0

    @settings(max_examples=300, deadline=None)
    @given(
        capacity=st.integers(1, 8),
        ops=_ops,
        window_start=_times,
        updates=st.dictionaries(st.integers(0, 20), _times, max_size=21),
    )
    def test_matches_the_per_item_loop(self, capacity, ops, window_start, updates):
        """With and without suspects, for reports smaller and larger
        than the cache."""
        items = {item: ts for item, ts in updates.items() if ts > window_start}
        report = WindowReport(
            timestamp=130.0, window_start=window_start, items=items, n_items=21
        )
        got = build(capacity, ops)
        want = build(capacity, ops)
        assert apply_window_report(got, report) == reference_apply_window_report(
            want, report
        )
        assert cache_state(got) == cache_state(want)

    def test_returns_drop_count(self):
        cache = ClientCache(4)
        cache.insert(entry(1, ts=5.0))
        cache.insert(entry(2, ts=55.0))
        report = WindowReport(
            timestamp=60.0, window_start=0.0,
            items={1: 50.0, 2: 50.0}, n_items=100,
        )
        # item 1: 50 > 5 -> drop; item 2: 50 < 55 -> keep
        assert apply_window_report(cache, report) == 1


class TestPolicyInterfaces:
    def test_client_policy_defaults(self, ctx):
        # The base policy is the TS/BS/AT client: no hook is required.
        policy = ClientPolicy()
        ctx.cache.insert(entry(1, ts=5.0))
        covered = WindowReport(timestamp=20.0, window_start=0.0, items={}, n_items=8)
        assert policy.on_report(ctx, covered) is SessionOutcome.READY
        assert 1 in ctx.cache and ctx.tlb == 20.0
        # Uncovered: the default on_uncovered drops the cache and resyncs.
        uncovered = WindowReport(
            timestamp=500.0, window_start=300.0, items={}, n_items=8
        )
        assert policy.on_report(ctx, uncovered) is SessionOutcome.READY
        assert len(ctx.cache) == 0 and ctx.drops == 1 and ctx.tlb == 500.0
        with pytest.raises(NotImplementedError):
            policy.on_validity_reply(None, [], 0.0)
        assert policy.on_validation_timeout(None, 0.0) is False
        # Reconnect hooks are optional no-ops.
        policy.on_reconnect(None, 0.0)
        policy.on_disconnect(None, 0.0)

    def test_server_policy_defaults(self):
        policy = ServerPolicy()
        with pytest.raises(NotImplementedError):
            policy.build_report(None, 0.0)
        with pytest.raises(NotImplementedError):
            policy.on_tlb(None, 0, 0.0, 0.0)
        with pytest.raises(NotImplementedError):
            policy.on_check_request(None, 0, [], 0.0)
        policy.on_item_update(0, 0, 1)  # optional no-op

    def test_scheme_factories(self):
        made = []

        def server_factory(params, db):
            made.append(("server", params, db))
            return ServerPolicy()

        def client_factory(params, client_id):
            made.append(("client", params, client_id))
            return ClientPolicy()

        scheme = Scheme("demo", server_factory, client_factory, "desc")
        scheme.make_server_policy("P", "DB")
        scheme.make_client_policy("P", 7)
        assert made == [("server", "P", "DB"), ("client", "P", 7)]
        assert "demo" in repr(scheme)

    def test_client_outcome_values(self):
        # A policy's outcome is the session's, which names node metrics.
        assert SessionOutcome.READY.value == "ready"
        assert SessionOutcome.PENDING.value == "pending"


def test_custom_scheme_example_runs(capsys):
    """The example's client overrides only on_uncovered; its run of
    three schemes serves no stale answer."""
    try:
        runpy.run_path(str(EXAMPLES / "custom_scheme.py"), run_name="__main__")
    finally:
        # The registry is process-global: later available_schemes()
        # callers must not see the example's scheme.
        _REGISTRY.pop("periodic-bs", None)
    rows = [
        line.split()
        for line in capsys.readouterr().out.splitlines()
        if line.split()[:1] in (["bs"], ["periodic-bs"], ["afw"])
    ]
    assert [row[0] for row in rows] == ["bs", "periodic-bs", "afw"]
    assert all(row[-1] == "0" for row in rows)  # stale answers
