"""Every scheme's client on generated traces, against a reference certifier.

The reference is the strict-staleness rule checked by brute force: an
entry the client would serve (not suspect, no salvage pending) is safe
iff its item has no update in ``(entry.ts, session.tlb]`` in the
origin's append-only update log.  Each scheme's ``ClientPolicy`` runs
through :class:`~repro.schemes.ClientSession` against a synchronous
:class:`~repro.service.Origin` on a fake clock; the origin's own server
policy answers the uploads.

Traces (hypothesis) mix updates, fetches, reports that are heard, lost
or repeated, server restarts (epoch bumps), lagged reports after a
hand-off, timeline regressions, dozes shorter and longer than the
window, uploads whose answers arrive or are lost, validation timeouts,
given-up salvages and reboots.  Time only moves forward; updates,
fetches and answers fall strictly between broadcast ticks.

The uplink is modelled as in the simulator: the origin evaluates an
upload when it is sent, and only the answer travels.  A fetch is
answered when it is issued and lands in the cache then ("fetch") or at
a later step ("request", then "deliver"), possibly across report
boundaries.  Two assumptions keep a validity reply to the entries it
checked: a late-landing fetch lands only while no salvage is pending
(the simulated client fetches only after a report certified its cache),
and an answer never outlives the pending episode that asked for it (it
is lost while the client dozes, and dies with a reboot or a purge).
``test_a_reply_certifies_entries_it_never_checked`` pins what happens
otherwise.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache import CacheEntry, ClientCache
from repro.schemes import ClientSession, get_scheme
from repro.service import Origin, ServiceParams

SCHEMES = ("ts", "at", "sig", "bs", "checking", "gcore", "afw", "aaw")

PARAMS = ServiceParams(
    broadcast_interval=10.0,
    window_intervals=3,
    db_size=4,
    cache_capacity=3,
    seed=3,
)
INTERVAL = PARAMS.broadcast_interval


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def now(self):
        return self.t


class Trace:
    """One client session, its origin and the uplink between them."""

    def __init__(self, scheme):
        self.clock = FakeClock()
        self.origin = Origin(scheme, PARAMS, clock=self.clock, broker=None)
        self.next_tick = INTERVAL
        self.reports = []
        #: ``(episode, kind, payload)`` of answers still on the air.
        self.answers = []
        self.in_flight = []
        self.session = ClientSession(
            get_scheme(scheme).make_client_policy(PARAMS, 0),
            ClientCache(PARAMS.cache_capacity),
            PARAMS,
            send_tlb=lambda tlb: self.upload("tlb", tlb),
            send_check_request=self.check,
            cell=0,
        )

    def upload(self, kind, payload):
        s = self.session
        # An upload from a report starts the next pending episode.
        episode = s.episode if s.pending else s.episode + 1
        self.answers.append((episode, kind, payload))

    def check(self, entries, size_bits):
        origin = self.origin
        invalid, certified_at, _bits = origin.policy.on_check_request(
            origin, 0, list(entries), self.clock.t
        )
        self.upload("reply", (invalid, certified_at))

    def advance(self):
        """Move time forward, staying strictly before the next tick."""
        self.clock.t += min(1.0, (self.next_tick - self.clock.t) / 2)
        return self.clock.t

    def fetch(self, item):
        """The origin's answer to a fetch of *item* issued now."""
        return CacheEntry(
            item=item, version=int(self.origin.db.version[item]), ts=self.clock.t
        )

    def tick(self, copies):
        """Broadcast the next report; the client hears *copies* of it."""
        self.clock.t = self.next_tick
        self.next_tick += INTERVAL
        report = self.origin.build_report()
        self.reports.append(report)
        for _ in range(copies):
            self.session.offer_report(report, self.clock.t)

    def step(self, op, n):
        """Run one trace step; *n* in ``0..3`` picks the item, how far
        back a replayed report lies, how long a doze lasts, or an
        answer's fate (0: lost)."""
        s, origin = self.session, self.origin
        if op in ("heard", "lost", "repeated"):
            self.tick({"heard": 1, "lost": 0, "repeated": 2}[op])
            return
        now = self.advance()
        if op == "update":
            origin.apply_update(n)
        elif op == "fetch":
            s.insert_fetched(self.fetch(n))
        elif op == "request":
            self.in_flight.append(self.fetch(n))
        elif op == "deliver":
            while self.in_flight and not s.pending:
                s.insert_fetched(self.in_flight.pop(0))
        elif op in ("lag", "regress"):
            if len(self.reports) > n + 1:
                if op == "lag":
                    # A roamer's new cell lags: its report predates Tlb.
                    s.hand_off()
                s.offer_report(self.reports[-2 - n], now)
        elif op == "restart":
            origin.restart()
        elif op == "answer":
            if self.answers:
                episode, kind, payload = self.answers.pop(0)
                if n == 0 or episode != s.episode:
                    return  # lost on the air, or its episode is over
                if kind == "tlb":
                    origin.policy.on_tlb(origin, 0, payload, now)
                else:
                    s.validity_reply(*payload)
        elif op == "timeout":
            if s.pending:
                s.validation_timeout(now)
        elif op == "give_up":
            if s.pending:
                s.give_up(now)
        elif op == "doze":
            # Half the dozes outlast the three-interval window.
            s.disconnect(now)
            for _ in range(2 * n + 1):
                self.tick(0)
            s.reconnect(self.advance())
        elif op == "hand_off":
            s.hand_off()
        elif op == "reboot":
            s.reboot(ClientCache(PARAMS.cache_capacity), now)

    def servable_violations(self):
        """Servable entries the reference rule convicts."""
        s = self.session
        if s.pending:
            return []
        log = self.origin.update_log
        return [
            (entry, s.tlb, updates)
            for entry in s.cache.entries()
            if entry.item not in s.cache.unreconciled
            for updates in [
                [t for t in log.updates_of(entry.item) if entry.ts < t <= s.tlb]
            ]
            if updates
        ]


#: Step kinds, repeated to weight the draw toward the certification path.
OPS = (
    ["heard"] * 4
    + ["update"] * 3
    + ["fetch", "request", "deliver", "doze", "answer"] * 2
    + ["lost", "repeated", "lag", "regress", "restart"]
    + ["timeout", "give_up", "hand_off", "reboot"]
)
STEPS = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 3)), min_size=20, max_size=80
)


def ops(*names):
    return [(name, 0) for name in names]


@pytest.mark.parametrize("scheme", SCHEMES)
@settings(max_examples=150, deadline=None)
@given(steps=STEPS)
# AT once certified across a restart after a hand-off (coverage ignored
# the history floor).
@example(steps=ops(*["heard"] * 5, "fetch", "update", "restart", "hand_off", "heard"))
# SIG once diffed a rebooted cache against the pre-reboot signatures.
@example(
    steps=ops(*["heard"] * 4, "request", "update", "heard")
    + ops("reboot", "deliver", "heard")
)
def test_servable_entries_pass_the_reference_certifier(scheme, steps):
    trace = Trace(scheme)
    for done, (op, n) in enumerate(steps, start=1):
        trace.step(op, n)
        assert not trace.servable_violations(), steps[:done]


@pytest.mark.parametrize("scheme", ["checking", "gcore"])
@pytest.mark.xfail(
    strict=True,
    reason="known defect: a validity reply certifies the whole cache, "
    "including entries the check it answers never saw",
)
def test_a_reply_certifies_entries_it_never_checked(scheme):
    trace = Trace(scheme)
    trace.step("fetch", 0)
    for _ in range(4):  # lost reports outrun the 30 s window
        trace.step("lost", 0)
    trace.step("heard", 0)
    s = trace.session
    assert s.pending  # the cache went up for checking
    uploaded = [(e.item, s.cache.effective_ts(e)) for e in s.cache.entries()]
    trace.step("fetch", 1)  # item 1 lands meanwhile, as CacheNode.get may
    trace.step("update", 1)
    # The check is evaluated late (as a retried upload is): it certifies
    # item 1 up to now without ever having seen it.
    now = trace.advance()
    invalid, certified_at, _bits = trace.origin.policy.on_check_request(
        trace.origin, 0, uploaded, now
    )
    s.validity_reply(invalid, certified_at)
    assert not trace.servable_violations()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_regressed_timeline_certifies_a_fetch_it_never_checked(scheme):
    trace = Trace(scheme)
    # The fetch leaves the origin at 11, its item changes at 12 and the
    # report at 20 is heard while the fetch is still in flight.  The
    # replayed report at 10 resets Tlb to 10.  Were the floor left at
    # 20, the fetch (ts 11 >= Tlb) would land unsuspected and the report
    # at 30, which lists the update at 12, would certify it through that
    # floor.
    steps = ops("heard", "request", "update", "heard", "regress", "deliver", "heard")
    for op, n in steps:
        trace.step(op, n)
        assert not trace.servable_violations()
