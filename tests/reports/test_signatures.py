"""Tests for the signature (SIG) report scheme."""

import runpy
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.reports import (
    IncrementalCombiner,
    SignatureReport,
    SignatureScheme,
    build_signature_report,
    item_signature,
    subsets_of_item,
)

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def scheme(n_items=64, **kw):
    defaults = dict(n_subsets=32, signature_bits=32, membership=0.5, seed=7)
    defaults.update(kw)
    return SignatureScheme(n_items, **defaults)


class TestPrimitives:
    def test_item_signature_deterministic(self):
        assert item_signature(3, 1, 32, 0) == item_signature(3, 1, 32, 0)

    def test_item_signature_changes_with_version(self):
        assert item_signature(3, 1, 32, 0) != item_signature(3, 2, 32, 0)

    def test_item_signature_width(self):
        for item in range(50):
            assert 0 <= item_signature(item, 0, 8, 1) < 256

    def test_subset_membership_rate(self):
        total = sum(
            len(subsets_of_item(item, 64, 0.5, seed=3)) for item in range(200)
        )
        assert total / (200 * 64) == pytest.approx(0.5, abs=0.05)

    def test_subsets_deterministic(self):
        assert subsets_of_item(9, 32, 0.5, 1) == subsets_of_item(9, 32, 0.5, 1)


@settings(max_examples=50, deadline=None)
@given(
    n_items=st.integers(min_value=0, max_value=40),
    n_subsets=st.integers(min_value=1, max_value=40),
    membership=st.one_of(
        st.just(1.0), st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
    ),
    seed=st.integers(min_value=-(10**6), max_value=2**40),
)
def test_property_membership_table_matches_scalar(
    n_items, n_subsets, membership, seed
):
    """The deployment's prefix-hashed table is ``subsets_of_item``."""
    sch = SignatureScheme(
        n_items, n_subsets=n_subsets, membership=membership, seed=seed
    )
    for item in range(n_items):
        assert sch.subsets_of(item) == subsets_of_item(
            item, n_subsets, membership, seed
        )


class TestDiagnosis:
    def test_no_change_no_invalidation(self):
        sch = scheme()
        db = Database(64)
        saved = build_signature_report(db, 0.0, sch).combined
        fresh = build_signature_report(db, 10.0, sch)
        inv = fresh.diagnose(cached_items=range(10), saved=saved)
        assert inv.items == frozenset()

    def test_updated_cached_item_is_diagnosed(self):
        sch = scheme()
        db = Database(64)
        saved = build_signature_report(db, 0.0, sch).combined
        db.apply_update(5, 5.0)
        fresh = build_signature_report(db, 10.0, sch)
        inv = fresh.diagnose(cached_items=[5, 6, 7], saved=saved)
        assert 5 in inv.items

    def test_false_positives_are_possible_but_bounded(self):
        """Valid items sharing subsets with an updated one may be dropped;
        with a high threshold most valid items survive."""
        sch = scheme(n_items=256, n_subsets=64, diagnose_threshold=0.9)
        db = Database(256)
        saved = build_signature_report(db, 0.0, sch).combined
        db.apply_update(0, 1.0)
        fresh = build_signature_report(db, 10.0, sch)
        inv = fresh.diagnose(cached_items=range(1, 101), saved=saved)
        assert len(inv.items) < 30  # most valid items survive one update

    def test_saved_length_mismatch_rejected(self):
        sch = scheme()
        db = Database(64)
        report = build_signature_report(db, 0.0, sch)
        with pytest.raises(ValueError):
            report.diagnose([1], saved=[0] * 3)
        with pytest.raises(ValueError):
            report.diff_subsets((0,) * 3)

    def test_combined_cannot_be_mutated(self):
        """Clients keep ``combined`` by reference as their baseline."""
        source = [0] * 32
        report = SignatureReport(0.0, scheme(), combined=source)
        source[0] = 1
        assert report.combined == (0,) * 32
        with pytest.raises(TypeError):
            report.combined[0] = 1

    def test_invalidation_for_unsupported(self):
        sch = scheme()
        report = build_signature_report(Database(64), 0.0, sch)
        with pytest.raises(NotImplementedError):
            report.invalidation_for(0.0)


class TestIncrementalCombiner:
    def test_matches_full_recompute(self):
        sch = scheme()
        db = Database(64)
        inc = IncrementalCombiner(sch)
        for item, ts in [(3, 1.0), (9, 2.0), (3, 3.0), (60, 4.0)]:
            old = int(db.version[item])
            db.apply_update(item, ts)
            inc.on_update(item, old, old + 1)
        assert inc.snapshot() == sch.combine(db.version)

    def test_snapshot_is_a_copy(self):
        inc = IncrementalCombiner(scheme())
        snap = inc.snapshot()
        before = list(snap)
        snap[0] ^= 0xFF
        assert inc.snapshot() == before


class TestParameters:
    def test_invalid_membership(self):
        with pytest.raises(ValueError):
            SignatureScheme(10, membership=0.0)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            SignatureScheme(10, diagnose_threshold=1.5)

    @pytest.mark.parametrize(
        "kw",
        [
            # All-zero signatures: diagnose would never flag an update.
            dict(signature_bits=0),
            dict(signature_bits=-1),
            # Reports carrying no signatures at all.
            dict(n_subsets=0),
            dict(n_subsets=-1),
        ],
    )
    def test_invalid_sizes(self, kw):
        with pytest.raises(ValueError):
            SignatureScheme(10, **kw)

    def test_wrong_combined_count_rejected(self):
        with pytest.raises(ValueError):
            SignatureReport(0.0, scheme(), combined=[1, 2, 3])


@settings(max_examples=25, deadline=None)
@given(
    updates=st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=8),
    membership=st.sampled_from([0.05, 0.5]),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_every_updated_cached_item_diagnosed(updates, membership, seed):
    """With conservative threshold 0, an updated cached item survives only
    via a signature collision (~2^-32 per subset) — never in practice.
    A cached item in no subset is dropped even when it was not updated."""
    sch = SignatureScheme(
        64, n_subsets=32, signature_bits=32, membership=membership,
        diagnose_threshold=0.0, seed=seed,
    )
    db = Database(64)
    saved = build_signature_report(db, 0.0, sch).combined
    t = 1.0
    for item in updates:
        db.apply_update(item, t)
        t += 1.0
    fresh = build_signature_report(db, t, sch)
    inv = fresh.diagnose(cached_items=range(64), saved=saved)
    assert set(updates) <= inv.items
    unsigned = {item for item in range(64) if not sch.subsets_of(item)}
    assert unsigned <= inv.items


def reference_diagnose(sch, report, cached_items, saved):
    """The per-item loop SIG diagnosis is defined by, on scalar hashes."""
    changed = {s for s, (a, b) in enumerate(zip(saved, report.combined)) if a != b}
    to_drop = set()
    for item in cached_items:
        subs = subsets_of_item(item, sch.n_subsets, sch.membership, sch.seed)
        if not subs:
            to_drop.add(item)
            continue
        mismatches = sum(1 for s in subs if s in changed)
        if mismatches / len(subs) > sch.diagnose_threshold:
            to_drop.add(item)
    return frozenset(to_drop)


@st.composite
def update_scripts(draw):
    n_items = draw(st.integers(min_value=1, max_value=24))
    item = st.integers(min_value=0, max_value=n_items - 1)
    return dict(
        n_items=n_items,
        n_subsets=draw(st.integers(min_value=1, max_value=12)),
        # Low memberships leave items in no subset; small signatures
        # collide.
        membership=draw(st.sampled_from([0.05, 0.2, 0.5, 1.0])),
        signature_bits=draw(st.sampled_from([1, 4, 32])),
        threshold=draw(
            st.one_of(
                st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)
            )
        ),
        seed=draw(st.integers(min_value=0, max_value=10**6)),
        # One list of updated items per broadcast interval.
        intervals=draw(st.lists(st.lists(item, max_size=4), min_size=1, max_size=5)),
        cached_sets=draw(
            st.lists(st.lists(item, max_size=n_items), min_size=1, max_size=3)
        ),
    )


@settings(max_examples=60, deadline=None)
@given(script=update_scripts())
def test_property_diagnose_matches_reference(script):
    """Memoized diagnosis equals the per-item loop for every baseline a
    listener can hold: each earlier report's signatures (listeners that
    missed reports), equal copies that are distinct objects, and a
    mutable list; asked repeatedly with different cached sets."""
    sch = SignatureScheme(
        script["n_items"],
        n_subsets=script["n_subsets"],
        signature_bits=script["signature_bits"],
        membership=script["membership"],
        diagnose_threshold=script["threshold"],
        seed=script["seed"],
    )
    db = Database(script["n_items"])
    baselines = [build_signature_report(db, 0.0, sch).combined]
    t = 1.0
    for updates in script["intervals"]:
        for item in updates:
            db.apply_update(item, t)
            t += 1.0
        report = build_signature_report(db, t, sch)
        mutable = list(baselines[0])
        held = baselines + [tuple(list(b)) for b in baselines] + [mutable]
        for _ in range(2):
            for saved in held:
                for cached in script["cached_sets"]:
                    inv = report.diagnose(cached, saved)
                    assert inv.covered
                    assert inv.items == reference_diagnose(sch, report, cached, saved)
            mutable[0] ^= 1  # a list baseline must not be served from a memo
        baselines.append(report.combined)


def test_signature_diagnosis_example_runs(capsys):
    """The example drives build_signature_report, diff_subsets and
    diagnose, and asserts that no stale cached item is missed."""
    runpy.run_path(str(EXAMPLES / "signature_diagnosis.py"), run_name="__main__")
    assert "missed stale items      : []" in capsys.readouterr().out
