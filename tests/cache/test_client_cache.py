"""Tests for the client cache's certification-floor semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheEntry, ClientCache


def entry(item, ts=0.0, version=1):
    return CacheEntry(item=item, version=version, ts=ts)


class TestClientCache:
    def test_insert_and_lookup(self):
        cc = ClientCache(capacity=4)
        cc.insert(entry(1, ts=5.0))
        found = cc.lookup(1)
        assert found is not None and found.ts == 5.0
        assert cc.lookup(2) is None
        assert cc.insertions == 1

    def test_effective_ts_uses_floor(self):
        cc = ClientCache(capacity=4)
        e = entry(1, ts=5.0)
        cc.insert(e)
        assert cc.effective_ts(e) == 5.0
        cc.certify(20.0)
        assert cc.effective_ts(e) == 20.0

    def test_fresh_fetch_after_certification_keeps_own_ts(self):
        cc = ClientCache(capacity=4)
        cc.certify(20.0)
        e = entry(2, ts=25.0)  # fetched between reports
        cc.insert(e)
        assert cc.effective_ts(e) == 25.0

    def test_certify_never_lowers_floor(self):
        cc = ClientCache(capacity=4)
        cc.certify(20.0)
        cc.certify(10.0)
        assert cc.certified_floor == 20.0

    def test_invalidate_counts(self):
        cc = ClientCache(capacity=4)
        cc.insert(entry(1))
        assert cc.invalidate(1)
        assert not cc.invalidate(1)
        assert cc.invalidations == 1
        assert 1 not in cc

    def test_drop_all(self):
        cc = ClientCache(capacity=4)
        for i in range(3):
            cc.insert(entry(i))
        cc.drop_all()
        assert len(cc) == 0
        assert cc.full_drops == 1
        assert cc.invalidations == 3

    def test_drop_all_empty_cache_not_counted(self):
        cc = ClientCache(capacity=4)
        cc.drop_all()
        assert cc.full_drops == 0

    def test_lru_eviction_via_capacity(self):
        cc = ClientCache(capacity=2)
        cc.insert(entry(1))
        cc.insert(entry(2))
        cc.lookup(1)
        cc.insert(entry(3))
        assert 2 not in cc and 1 in cc and 3 in cc
        assert cc.evictions == 1

    def test_snapshots(self):
        cc = ClientCache(capacity=3)
        for i in (5, 7, 9):
            cc.insert(entry(i))
        assert cc.item_ids() == [5, 7, 9]
        assert [e.item for e in cc.entries()] == [5, 7, 9]

    def test_peek_does_not_touch(self):
        cc = ClientCache(capacity=2)
        cc.insert(entry(1))
        cc.insert(entry(2))
        cc.peek(1)
        cc.insert(entry(3))
        assert 1 not in cc


def reference_drop(cache, updates):
    """The per-item drop loop that ``invalidate_stale`` replaces: one
    ``peek`` and one ``effective_ts`` per report item."""
    dropped = 0
    for item, ts in updates:
        entry = cache.peek(item)
        if entry is not None and ts > cache.effective_ts(entry):
            cache.invalidate(item)
            dropped += 1
    return dropped


# Times on a coarse grid, so update times often equal an entry's ts or
# the certification floor (the boundary of the strict test).
_times = st.integers(0, 12).map(lambda k: 10.0 * k)
_items = st.integers(0, 15)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _items, _times, st.booleans()),
        st.tuples(st.just("certify"), _times),
        st.tuples(st.just("lookup"), _items),
    ),
    max_size=40,
)


def build(capacity, ops):
    cache = ClientCache(capacity)
    for op in ops:
        if op[0] == "insert":
            _, item, ts, suspect = op
            cache.insert(CacheEntry(item=item, version=1, ts=ts), suspect=suspect)
        elif op[0] == "certify":
            cache.certify(op[1])
        else:
            cache.lookup(op[1])
    return cache


class TestInvalidateStaleMatchesThePeekLoop:
    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(1, 12),
        ops=_ops,
        updates=st.lists(st.tuples(st.integers(0, 20), _times), max_size=25),
    )
    def test_same_drops_counters_and_lru_order(self, capacity, ops, updates):
        got = build(capacity, ops)
        want = build(capacity, ops)
        before = set(got.item_ids())
        assert got.invalidate_stale(updates) == reference_drop(want, updates)
        assert before - set(got.item_ids()) == before - set(want.item_ids())
        assert got.item_ids() == want.item_ids()
        assert got.invalidations == want.invalidations
        assert got.unreconciled == want.unreconciled
        assert got.certified_floor == want.certified_floor
        assert got.epoch == want.epoch

    def test_mixes_certified_uncertified_and_suspect_entries(self):
        cc = ClientCache(capacity=8)
        cc.insert(entry(1, ts=5.0))  # certified below the floor
        cc.insert(entry(2, ts=30.0))  # certified above the floor
        cc.certify(20.0)
        cc.insert(entry(3, ts=25.0))  # fetched after the certification
        cc.insert(entry(4, ts=10.0), suspect=True)
        updates = [
            (1, 15.0),  # older than the floor: kept
            (1, 20.0),  # equal to the floor: kept
            (2, 25.0),  # older than the entry's own ts: kept
            (2, 31.0),  # dropped
            (3, 25.0),  # equal to the entry's own ts: kept
            (4, 15.0),  # dropped
            (9, 99.0),  # not cached
        ]
        assert cc.invalidate_stale(updates) == 2
        assert cc.item_ids() == [1, 3]
        assert cc.invalidations == 2
        assert cc.unreconciled == set()


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


class TestLoadMatchesInsertInTurn:
    @settings(max_examples=200, deadline=None)
    @given(capacity=st.integers(1, 12), ops=_ops, data=st.data())
    def test_same_cache(self, capacity, ops, data):
        items = data.draw(st.lists(_items, unique=True, max_size=capacity))
        times = data.draw(st.lists(_times, min_size=len(items), max_size=len(items)))
        loaded = build(capacity, ops)
        inserted = build(capacity, ops)
        # Empty both caches, keeping their epochs, floors and any marks
        # an evicted suspect entry left behind.
        for cache in (loaded, inserted):
            for item in cache.item_ids():
                cache.invalidate(item)
        loaded.load([CacheEntry(item=i, version=2, ts=t) for i, t in zip(items, times)])
        for i, t in zip(items, times):
            inserted.insert(CacheEntry(item=i, version=2, ts=t))
        assert cache_state(loaded) == cache_state(inserted)

    def test_rejects_a_cache_that_is_not_empty(self):
        cc = ClientCache(capacity=4)
        cc.insert(entry(1))
        with pytest.raises(ValueError, match="empty"):
            cc.load([entry(2)])

    def test_rejects_more_entries_than_fit(self):
        cc = ClientCache(capacity=2)
        with pytest.raises(ValueError, match="holds"):
            cc.load([entry(1), entry(2), entry(3)])
        assert len(cc) == 0

    def test_rejects_repeated_items_and_stays_empty(self):
        cc = ClientCache(capacity=4)
        with pytest.raises(ValueError, match="distinct"):
            cc.load([entry(1), entry(2), entry(1)])
        assert len(cc) == 0 and cc.insertions == 0
