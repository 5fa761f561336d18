"""Tests for the Bit-Sequences report: structure, client algorithm, and
bit-level/prefix cross-validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.reports import (
    BitSequenceReport,
    Invalidation,
    build_bitseq_report,
    decode_levels,
    level_counts_for,
)


def db_with_updates(n_items, updates):
    """updates: list of (item, ts) applied in order."""
    db = Database(n_items)
    for item, ts in updates:
        db.apply_update(item, ts)
    return db


def fresh_invalidation(report, tlb):
    """Figure 2's outcome for *tlb*, built anew on every call."""
    if tlb >= report.ts_b0:
        return Invalidation(covered=True)
    if not report.salvageable(tlb):
        return Invalidation(covered=False)
    level = report.ones_of_level(report.level_for(tlb))
    return Invalidation(covered=True, items=frozenset(level))


class TestLevelStructure:
    def test_level_counts_power_of_two(self):
        assert level_counts_for(16) == [1, 2, 4, 8]

    def test_level_counts_general(self):
        assert level_counts_for(10) == [1, 2, 5]
        assert level_counts_for(1000) == [1, 3, 7, 15, 31, 62, 125, 250, 500]

    def test_level_counts_tiny(self):
        assert level_counts_for(1) == []
        assert level_counts_for(2) == [1]
        assert level_counts_for(3) == [1]

    def test_level_counts_halve(self):
        counts = level_counts_for(4096)
        for small, big in zip(counts, counts[1:]):
            assert small == big // 2

    def test_level_timestamps_non_increasing_with_capacity(self):
        db = db_with_updates(16, [(i, float(i)) for i in range(10)])
        report = build_bitseq_report(db, timestamp=20.0, origin=0.0)
        # level_times aligned with ascending counts: newest first.
        assert report.level_times == sorted(report.level_times, reverse=True)

    def test_report_size_function_of_n_only(self):
        a = build_bitseq_report(db_with_updates(64, [(1, 1.0)]), 5.0)
        b = build_bitseq_report(
            db_with_updates(64, [(i, float(i + 1)) for i in range(30)]), 50.0
        )
        assert a.size_bits == b.size_bits


class TestClientAlgorithm:
    def test_no_updates_means_nothing_to_invalidate(self):
        db = Database(16)
        report = build_bitseq_report(db, timestamp=10.0, origin=0.0)
        inv = report.invalidation_for(tlb=5.0)
        assert inv.covered and inv.items == frozenset()

    def test_fresh_client_invalidates_nothing(self):
        db = db_with_updates(16, [(3, 5.0)])
        report = build_bitseq_report(db, timestamp=10.0, origin=0.0)
        inv = report.invalidation_for(tlb=5.0)  # heard report at ts of update
        assert inv.covered and inv.items == frozenset()

    def test_client_slightly_behind_gets_smallest_level(self):
        db = db_with_updates(16, [(i, float(i + 1)) for i in range(6)])
        # recency (newest first): 5@6, 4@5, 3@4, 2@3, 1@2, 0@1
        report = build_bitseq_report(db, timestamp=10.0, origin=0.0)
        inv = report.invalidation_for(tlb=5.0)  # missed only item 5@6
        assert inv.covered
        # smallest covering level: B1 (capacity 1), TS(B1)=5 <= tlb
        assert inv.items == {5}

    def test_client_further_behind_gets_larger_level(self):
        db = db_with_updates(16, [(i, float(i + 1)) for i in range(6)])
        report = build_bitseq_report(db, timestamp=10.0, origin=0.0)
        inv = report.invalidation_for(tlb=3.5)  # missed items 3,4,5
        assert inv.covered
        # needs level with TS <= 3.5: capacities 1(TS=5), 2(TS=4), 4(TS=2)
        # -> level of capacity 4 -> prefix {5,4,3,2}: conservative superset
        assert inv.items == {5, 4, 3, 2}
        assert {5, 4, 3}.issubset(inv.items)

    def test_invalidation_is_conservative_superset(self):
        db = db_with_updates(32, [(i, float(i + 1)) for i in range(12)])
        report = build_bitseq_report(db, timestamp=20.0, origin=0.0)
        for tlb in [0.5, 1.0, 3.7, 6.0, 9.9, 11.0, 12.0]:
            inv = report.invalidation_for(tlb)
            truly_stale = {i for i in range(12) if (i + 1) > tlb}
            if inv.covered:
                assert truly_stale.issubset(inv.items)

    def test_more_than_half_updated_drops_all(self):
        db = db_with_updates(8, [(i, float(i + 1)) for i in range(6)])
        # 6 of 8 items updated; Bn capacity = 4; TS(Bn) = ts of 5th most
        # recent = 2.0.  A client with tlb < 2 cannot be salvaged.
        report = build_bitseq_report(db, timestamp=10.0, origin=0.0)
        inv = report.invalidation_for(tlb=1.0)
        assert not inv.covered

    def test_never_connected_client_drops_all_once_updates_exist(self):
        db = db_with_updates(8, [(i, float(i + 1)) for i in range(6)])
        report = build_bitseq_report(db, timestamp=10.0, origin=0.0)
        assert not report.invalidation_for(tlb=float("-inf")).covered

    def test_boundary_tlb_equals_ts_bn(self):
        db = db_with_updates(8, [(i, float(i + 1)) for i in range(6)])
        report = build_bitseq_report(db, timestamp=10.0, origin=0.0)
        inv = report.invalidation_for(tlb=report.ts_bn)
        assert inv.covered  # TS(Bn) <= Tlb is salvageable per Figure 2

    def test_level_for_rejects_unsalvageable(self):
        db = db_with_updates(8, [(i, float(i + 1)) for i in range(6)])
        report = build_bitseq_report(db, timestamp=10.0, origin=0.0)
        with pytest.raises(ValueError):
            report.level_for(0.1)

    @pytest.mark.parametrize(
        "updates",
        [
            # 40 of 64 items updated: a Tlb below TS(Bn) drops all.
            [(i % 40, float(i + 1)) for i in range(60)],
            # 5 updated: the deeper levels date from the origin.
            [(i, float(i + 1)) for i in range(5)],
        ],
    )
    def test_memos_match_a_fresh_invalidation_on_a_grid(self, updates):
        """Every Tlb around each level time, TS(B0) and TS(Bn), visited
        up the grid and back down: the shared per-level and last-Tlb
        memos answer as a fresh invalidation would, and a repeated Tlb
        gets the same object."""
        report = build_bitseq_report(
            db_with_updates(64, updates), timestamp=70.0, origin=0.0
        )
        marks = [*report.level_times, report.ts_b0, report.ts_bn]
        grid = sorted({t + d for t in marks for d in (-0.5, 0.0, 0.5)})
        for tlb in grid + grid[::-1]:
            got = report.invalidation_for(tlb)
            assert got == fresh_invalidation(report, tlb)
            assert report.invalidation_for(tlb) is got

    def test_tied_timestamps_within_transaction(self):
        """Items updated at the same instant must stay conservative."""
        db = db_with_updates(16, [(1, 5.0), (2, 5.0), (3, 5.0), (4, 7.0)])
        report = build_bitseq_report(db, timestamp=10.0, origin=0.0)
        inv = report.invalidation_for(tlb=4.0)
        assert inv.covered
        assert {1, 2, 3, 4}.issubset(inv.items)

    def test_validation_of_inputs(self):
        with pytest.raises(ValueError):
            BitSequenceReport(
                timestamp=1.0,
                n_items=8,
                recent_items=[1, 2],
                recent_times=[1.0],  # length mismatch
            )
        with pytest.raises(ValueError):
            BitSequenceReport(
                timestamp=1.0,
                n_items=8,
                recent_items=[1, 2],
                recent_times=[1.0, 2.0],  # must be non-increasing
            )


class TestBitLevelView:
    def test_materialize_shapes(self):
        db = db_with_updates(16, [(i, float(i + 1)) for i in range(9)])
        report = build_bitseq_report(db, timestamp=20.0, origin=0.0)
        arrays = report.materialize()
        assert arrays[0].size == 16  # Bn spans the database
        for prev, nxt in zip(arrays, arrays[1:]):
            assert nxt.size == int(prev.sum())  # one bit per set bit above

    def test_decode_matches_prefix_view(self):
        db = db_with_updates(16, [(i, float(i + 1)) for i in range(9)])
        report = build_bitseq_report(db, timestamp=20.0, origin=0.0)
        decoded = decode_levels(report.materialize(), 16)
        counts_desc = list(reversed(report.level_counts))
        for level_ids, (idx, _m) in zip(
            decoded,
            [
                (len(report.level_counts) - 1 - i, m)
                for i, m in enumerate(counts_desc)
            ],
        ):
            assert set(level_ids) == set(report.ones_of_level(idx))

    def test_decode_validates_widths(self):
        db = db_with_updates(16, [(1, 1.0)])
        report = build_bitseq_report(db, timestamp=5.0, origin=0.0)
        arrays = report.materialize()
        with pytest.raises(ValueError):
            decode_levels(arrays, 15)
        with pytest.raises(ValueError):
            decode_levels([arrays[0], arrays[0]], 16)

    def test_empty_database_materializes_empty(self):
        report = build_bitseq_report(Database(1), timestamp=5.0, origin=0.0)
        assert report.materialize() == []
        assert decode_levels([], 1) == []


@settings(max_examples=60, deadline=None)
@given(
    n_items=st.integers(min_value=2, max_value=64),
    n_updates=st.integers(min_value=0, max_value=80),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_bit_view_agrees_with_prefix_view(n_items, n_updates, seed):
    """The literal bit arrays and the fast prefix form are the same report."""
    import random

    rnd = random.Random(seed)
    db = Database(n_items)
    t = 0.0
    for _ in range(n_updates):
        t += rnd.uniform(0.0, 2.0)
        db.apply_update(rnd.randrange(n_items), t)
    report = build_bitseq_report(db, timestamp=t + 1.0, origin=0.0)
    decoded = decode_levels(report.materialize(), n_items)
    n_levels = len(report.level_counts)
    assert len(decoded) == (n_levels if n_levels else 0)
    # decoded is Bn-first; ones_of_level indexes ascending capacities.
    for pos, level_ids in enumerate(decoded):
        idx = n_levels - 1 - pos
        assert set(level_ids) == set(report.ones_of_level(idx))


@settings(max_examples=60, deadline=None)
@given(
    n_items=st.integers(min_value=2, max_value=64),
    n_updates=st.integers(min_value=0, max_value=80),
    seed=st.integers(min_value=0, max_value=10_000),
    tlb=st.floats(min_value=-1.0, max_value=200.0, allow_nan=False),
)
def test_property_bs_invalidation_never_misses_a_stale_item(
    n_items, n_updates, seed, tlb
):
    """Soundness of the BS client algorithm: every item updated after the
    client's Tlb is either in the invalidation set or the whole cache is
    dropped."""
    import random

    rnd = random.Random(seed)
    db = Database(n_items)
    t = 0.0
    truly = {}
    for _ in range(n_updates):
        t += rnd.uniform(0.0, 2.0)
        item = rnd.randrange(n_items)
        db.apply_update(item, t)
        truly[item] = t
    report = build_bitseq_report(db, timestamp=t + 1.0, origin=0.0)
    inv = report.invalidation_for(tlb)
    if inv.covered:
        stale = {item for item, ts in truly.items() if ts > tlb}
        assert stale.issubset(inv.items)
