"""Regression tests for the stale-validity-reply race.

Scenario: a checking client uploads its cache, dozes before the reply
lands, and reconnects *before* the reply is delivered.  The reply
answers the previous episode's upload; applying it would certify (and
clear the suspect marks of) state it never validated.  The client must
drop such replies.
"""

from repro.net import Message, MessageKind, SERVER_ID
from repro.sim import SimulationModel, SystemParams, UNIFORM


def make_model(**kw):
    defaults = dict(
        simulation_time=400.0,
        n_clients=1,
        db_size=50,
        buffer_fraction=0.2,
        disconnect_prob=0.0,
        seed=2,
    )
    defaults.update(kw)
    return SimulationModel(SystemParams(**defaults), UNIFORM, "checking")


def validity_message(dest, invalid, certified_at):
    return Message(
        kind=MessageKind.VALIDITY_REPORT,
        size_bits=16,
        src=SERVER_ID,
        dest=dest,
        payload=(invalid, certified_at),
    )


class TestStaleReplyIgnored:
    def test_reply_without_outstanding_check_is_dropped(self):
        model = make_model()
        client = model.clients[0]
        model.env.run(until=50.0)  # past a couple of reports
        assert not client.session.pending
        floor_before = client.cache.certified_floor
        tlb_before = client.tlb
        cached_before = set(client.cache.item_ids())
        # A ghost reply from a previous episode arrives.
        client._on_downlink(
            validity_message(client.client_id, list(cached_before), 999.0),
            model.env.now,
        )
        # Nothing changed: no drops, no certification, no tlb movement.
        assert set(client.cache.item_ids()) == cached_before
        assert client.cache.certified_floor == floor_before
        assert client.tlb == tlb_before

    def test_stale_reply_cannot_clear_suspect_marks(self):
        from repro.cache import CacheEntry

        model = make_model()
        client = model.clients[0]
        model.env.run(until=50.0)
        client.cache.insert(
            CacheEntry(item=49, version=0, ts=1.0), suspect=True
        )
        client._on_downlink(
            validity_message(client.client_id, [], 999.0), model.env.now
        )
        assert 49 in client.cache.unreconciled  # mark survived the ghost

    def test_legitimate_reply_still_applies(self):
        """The gate must not break the normal checking protocol."""
        model = make_model(
            disconnect_prob=0.4,
            disconnect_time_mean=400.0,
            simulation_time=6000.0,
            n_clients=6,
        )
        result = model.run()
        assert result.counter("checking.requests") > 0
        # Checks resolve: clients keep answering and salvage their caches.
        assert result.counter("cache.hits") > 0
        assert result.stale_hits == 0

    def test_replies_addressed_elsewhere_ignored(self):
        model = make_model()
        client = model.clients[0]
        model.env.run(until=50.0)
        cached_before = set(client.cache.item_ids())
        client._on_downlink(
            validity_message(client.client_id + 1, list(cached_before), 999.0),
            model.env.now,
        )
        assert set(client.cache.item_ids()) == cached_before
