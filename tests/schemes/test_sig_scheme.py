"""Unit tests for the SIG scheme policies."""

from collections import Counter

from repro.reports import SignatureReport
from repro.schemes import SIGClientPolicy, SIGServerPolicy, SessionOutcome
from repro.sim import UNIFORM, SystemParams, run_simulation


def make_server(params, db, **kw):
    return SIGServerPolicy(params=params, db=db, **kw)


class TestSIGServer:
    def test_report_reflects_incremental_updates(self, params, db):
        server = make_server(params, db)
        before = server.build_report(None, 20.0).combined
        db.apply_update(5, 25.0)
        server.on_item_update(5, 0, 1)
        after = server.build_report(None, 40.0).combined
        assert before != after

    def test_report_size_independent_of_update_volume(self, params, db):
        server = make_server(params, db)
        a = server.build_report(None, 20.0).size_bits
        for i in range(20):
            db.apply_update(i, 25.0)
            server.on_item_update(i, 0, 1)
        b = server.build_report(None, 40.0).size_bits
        assert a == b


class TestSIGClient:
    def test_first_report_establishes_baseline(self, params, db, ctx):
        server = make_server(params, db)
        policy = SIGClientPolicy(params=params, client_id=0)
        outcome = policy.on_report(ctx, server.build_report(None, 20.0))
        assert outcome is SessionOutcome.READY
        assert ctx.tlb == 20.0

    def test_updated_item_diagnosed_across_long_gap(self, params, db, ctx):
        server = make_server(params, db)
        policy = SIGClientPolicy(params=params, client_id=0)
        policy.on_report(ctx, server.build_report(None, 20.0))
        ctx.cache_items((5, 20.0), (9, 20.0))
        db.apply_update(5, 500.0)
        server.on_item_update(5, 0, 1)
        # Client slept from t=20 to t=1000: SIG still diagnoses.
        policy.on_report(ctx, server.build_report(None, 1000.0))
        assert 5 not in ctx.cache

    def test_quiet_database_keeps_cache(self, params, db, ctx):
        server = make_server(params, db)
        policy = SIGClientPolicy(params=params, client_id=0)
        policy.on_report(ctx, server.build_report(None, 20.0))
        ctx.cache_items((5, 20.0), (9, 20.0))
        policy.on_report(ctx, server.build_report(None, 1000.0))
        assert 5 in ctx.cache and 9 in ctx.cache


def test_each_saved_baseline_is_diffed_once_per_report(monkeypatch):
    """Listeners that heard the same earlier report hold the same saved
    signatures; a report diffs that baseline once, not once per listener.
    The spies keep every report and baseline alive, so ids stay unique."""
    diffs, diagnosed = [], []
    real_diff = SignatureReport.diff_subsets
    real_diagnose = SignatureReport.diagnose

    def spy_diff(report, saved):
        diffs.append((report, saved))
        return real_diff(report, saved)

    def spy_diagnose(report, cached_items, saved):
        diagnosed.append((report, saved))
        return real_diagnose(report, cached_items, saved)

    monkeypatch.setattr(SignatureReport, "diff_subsets", spy_diff)
    monkeypatch.setattr(SignatureReport, "diagnose", spy_diagnose)
    params = SystemParams(
        simulation_time=1_000.0,
        n_clients=100,
        db_size=1_000,
        disconnect_prob=0.1,
        disconnect_time_mean=200.0,
        seed=1,
    )
    run_simulation(params, UNIFORM, "sig")

    def ids(pairs):
        return Counter((id(report), id(saved)) for report, saved in pairs)

    distinct = ids(diagnosed)
    assert len(diagnosed) > len(distinct)  # listeners do share baselines
    assert ids(diffs) == Counter(dict.fromkeys(distinct, 1))
