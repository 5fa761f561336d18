"""ClientSession: the transport-free port of the sim client's intake."""

from repro.cache import CacheEntry, ClientCache
from repro.reports.window import WindowReport
from repro.schemes import ClientSession, SessionOutcome, get_scheme
from repro.service import ServiceParams


def make_session(scheme="ts", check_log=None, tlb_log=None, **params_kw):
    params_kw.setdefault("window_intervals", 10)
    params = ServiceParams(broadcast_interval=20.0, db_size=50, **params_kw)
    policy = get_scheme(scheme).make_client_policy(params, 0)
    session = ClientSession(
        policy,
        ClientCache(16),
        params,
        send_tlb=(tlb_log.append if tlb_log is not None else None),
        send_check_request=(
            (lambda entries, size_bits: check_log.append(entries))
            if check_log is not None
            else None
        ),
    )
    return session


def wreport(ts, window=200.0, items=None, epoch=0, cell=0):
    r = WindowReport(
        timestamp=ts, window_start=ts - window, items=items or {}, n_items=50
    )
    r.epoch = epoch
    r.cell = cell
    return r


def entry(item, ts, version=0):
    return CacheEntry(item=item, version=version, ts=ts)


def test_covered_report_certifies_and_advances_tlb():
    s = make_session()
    s.cache.insert(entry(1, 10.0))
    assert s.offer_report(wreport(20.0), now=20.0) is SessionOutcome.READY
    assert s.tlb == 20.0
    assert len(s.cache) == 1
    assert s.last_report_applied == 20.0


def test_duplicate_report_is_discarded():
    s = make_session()
    r = wreport(20.0)
    assert s.offer_report(r, now=20.0) is SessionOutcome.READY
    assert s.offer_report(r, now=20.5) is SessionOutcome.DUPLICATE
    assert s.snapshot()["duplicate_reports"] == 1


def test_first_report_adopts_epoch_without_purge():
    s = make_session()
    s.cache.insert(entry(1, 10.0))
    assert s.offer_report(wreport(20.0, epoch=7), now=20.0) is SessionOutcome.READY
    assert s.report_identity == (0, 7)
    assert s.cache.full_drops == 0
    assert len(s.cache) == 1


def test_epoch_change_purges_and_resyncs_tlb():
    s = make_session()
    s.offer_report(wreport(20.0, epoch=1), now=20.0)
    s.cache.insert(entry(1, 21.0))
    drops = []
    s._note_drop = lambda: drops.append(1)
    assert s.offer_report(wreport(40.0, epoch=2), now=40.0) is SessionOutcome.READY
    assert s.snapshot()["epoch_purges"] == 1
    assert len(s.cache) == 0
    assert s.cache.full_drops == 1
    assert s.report_identity == (0, 2)


def test_lagged_report_is_skipped():
    s = make_session()
    s.tlb = 100.0  # policy-certified past this publisher's timeline
    assert s.offer_report(wreport(40.0), now=101.0) is SessionOutcome.LAGGED
    assert s.snapshot()["lagged_reports"] == 1
    assert s.last_report_applied is None


def test_gap_detection_counts_missed_reports():
    s = make_session()
    s.offer_report(wreport(20.0), now=20.0)
    assert s.offer_report(wreport(80.0), now=80.0) is SessionOutcome.READY
    assert s.snapshot()["missed_reports"] == 2  # 40 and 60 never arrived


def test_reconnect_suppresses_gap_accounting():
    s = make_session()
    s.offer_report(wreport(20.0), now=20.0)
    s.disconnect(21.0)
    s.reconnect(199.0)
    assert s.offer_report(wreport(200.0), now=200.0) is SessionOutcome.READY
    # Sleeping through reports is not loss.
    assert s.snapshot()["missed_reports"] == 0


def test_uncovered_report_drops_cache():
    s = make_session(window_intervals=1)  # window = one interval
    s.offer_report(wreport(20.0, window=20.0), now=20.0)
    s.cache.insert(entry(1, 20.0))
    # 9 reports missed; window reaches only to 180 > Tlb=20.
    assert s.offer_report(wreport(200.0, window=20.0), now=200.0) is (
        SessionOutcome.READY
    )
    assert len(s.cache) == 0
    assert s.cache.full_drops == 1
    assert s.tlb == 200.0


def test_covered_report_invalidates_precisely():
    s = make_session()
    s.offer_report(wreport(20.0), now=20.0)
    s.cache.insert(entry(1, 20.0))
    s.cache.insert(entry(2, 20.0))
    r = wreport(40.0, items={1: 33.0})  # item 1 updated at t=33
    assert s.offer_report(r, now=40.0) is SessionOutcome.READY
    assert s.cache.lookup(1) is None
    assert s.cache.lookup(2) is not None
    assert s.cache.full_drops == 0


def test_insert_fetched_marks_suspect_below_tlb():
    s = make_session()
    s.tlb = 20.0
    assert s.insert_fetched(entry(1, 10.0)) is True
    assert 1 in s.cache.unreconciled
    assert s.insert_fetched(entry(2, 25.0)) is False
    assert 2 not in s.cache.unreconciled


def test_checking_scheme_goes_pending_then_certifies_on_reply():
    checks = []
    s = make_session("checking", check_log=checks)
    s.offer_report(wreport(20.0), now=20.0)
    s.cache.insert(entry(1, 20.0))
    s.cache.insert(entry(2, 20.0))
    # Way beyond the window: the client uploads its cache for checking.
    r = wreport(500.0, window=200.0)
    assert s.offer_report(r, now=500.0) is SessionOutcome.PENDING
    assert s.pending
    assert s.snapshot()["check_uploads"] == 1
    assert sorted(checks[0]) == [(1, 20.0), (2, 20.0)]
    s.validity_reply([1], certified_at=500.0)
    assert not s.pending
    assert s.cache.lookup(1) is None
    assert s.cache.lookup(2) is not None
    assert s.tlb == 500.0


def test_stale_validity_reply_is_dropped():
    s = make_session("checking")
    s.offer_report(wreport(20.0), now=20.0)
    s.cache.insert(entry(1, 20.0))
    s.validity_reply([1], certified_at=10.0)  # no upload outstanding
    assert s.cache.lookup(1) is not None
    assert s.tlb == 20.0


def test_validation_timeout_reissues_then_degrades():
    checks = []
    s = make_session("checking", check_log=checks)
    s.offer_report(wreport(20.0), now=20.0)
    s.cache.insert(entry(1, 20.0))
    s.offer_report(wreport(500.0, window=200.0), now=500.0)
    assert s.pending
    # The checking policy re-uploads on timeout: still pending.
    assert s.validation_timeout(540.0) is True
    assert s.pending
    assert len(checks) == 2


class _NoRetryPolicy:
    """Wraps a scheme's client policy; refuses every re-upload."""

    def __init__(self, inner):
        self.inner = inner
        self.reconnects = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def on_validation_timeout(self, ctx, now):
        return False

    def on_reconnect(self, ctx, now):
        self.reconnects += 1
        self.inner.on_reconnect(ctx, now)


def test_validation_timeout_degrades_when_the_policy_cannot_retry():
    checks = []
    s = make_session("checking", check_log=checks)
    s.policy = _NoRetryPolicy(s.policy)
    s.offer_report(wreport(20.0), now=20.0)
    s.cache.insert(entry(1, 20.0))
    s.offer_report(wreport(500.0, window=200.0), now=500.0)
    assert s.pending
    drops = s.snapshot()["full_drops"]
    assert s.validation_timeout(540.0) is False
    assert s.snapshot()["full_drops"] == drops + 1
    assert len(s.cache) == 0
    assert not s.pending
    assert s.policy.reconnects == 1  # the in-flight exchange is reset
    assert len(checks) == 1  # nothing re-uploaded
    # The next report resynchronises Tlb over the emptied cache.
    assert s.offer_report(wreport(520.0, window=200.0), now=520.0) is (
        SessionOutcome.READY
    )
    assert s.tlb == 520.0


def test_give_up_after_exhausted_retries_drops_and_clears_pending():
    checks = []
    s = make_session("checking", check_log=checks)
    s.offer_report(wreport(20.0), now=20.0)
    s.cache.insert(entry(1, 20.0))
    s.offer_report(wreport(500.0, window=200.0), now=500.0)
    assert s.validation_timeout(540.0) is True  # one retry
    episode = s.episode
    s.give_up(580.0)
    assert not s.pending
    assert len(s.cache) == 0
    assert s.snapshot()["full_drops"] == 1
    assert len(checks) == 2  # giving up uploads nothing
    # The checking latch was reset: the next uncovered report starts a
    # fresh episode rather than waiting on the abandoned reply.
    s.cache.insert(entry(2, 590.0))
    assert s.offer_report(wreport(900.0, window=200.0), now=900.0) is (
        SessionOutcome.PENDING
    )
    assert s.episode == episode + 1
    assert len(checks) == 3


def test_pending_episode_counts_once_per_episode():
    s = make_session("checking")
    s.offer_report(wreport(20.0), now=20.0)
    s.cache.insert(entry(1, 20.0))
    s.offer_report(wreport(500.0, window=200.0), now=500.0)
    assert s.episode == 1
    # Further reports while the reply is outstanding stay in episode 1.
    assert s.offer_report(wreport(520.0, window=200.0), now=520.0) is (
        SessionOutcome.PENDING
    )
    assert s.episode == 1
    s.reconnect(600.0)
    assert not s.pending  # a reply to the pre-doze upload is lost


def test_adaptive_scheme_uploads_tlb_when_uncovered():
    tlbs = []
    s = make_session("afw", tlb_log=tlbs)
    s.offer_report(wreport(20.0), now=20.0)
    s.cache.insert(entry(1, 20.0))
    outcome = s.offer_report(wreport(500.0, window=200.0), now=500.0)
    assert outcome is SessionOutcome.PENDING
    assert s.pending
    assert tlbs == [20.0]
    assert s.snapshot()["tlb_uploads"] == 1
    assert len(s.cache) == 1  # salvage deferred, not purged


def test_snapshot_is_plain_and_deterministic():
    s = make_session()
    s.offer_report(wreport(20.0), now=20.0)
    snap = s.snapshot()
    assert snap["tlb"] == 20.0
    assert snap == s.snapshot()
    assert all(isinstance(v, float) for v in snap.values())
