"""Property-based tests of the shared channel (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment
from repro.net import BROADCAST, Channel, Message, MessageKind, SERVER_ID

KINDS = [
    MessageKind.INVALIDATION_REPORT,
    MessageKind.VALIDITY_REPORT,
    MessageKind.DATA_ITEM,
]

message_strategy = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.integers(min_value=1, max_value=5000),   # size bits
        st.floats(min_value=0.0, max_value=50.0),   # send time
    ),
    min_size=1,
    max_size=30,
)


def run_mix(mix, bandwidth=1000.0):
    env = Environment()
    channel = Channel(env, bandwidth_bps=bandwidth)
    delivered = []
    channel.attach(lambda msg, now: delivered.append((msg, now)))

    def sender(env, delay, kind, size, tag):
        yield env.timeout(delay)
        channel.send(
            Message(kind=kind, size_bits=size, src=SERVER_ID, dest=BROADCAST,
                    payload=tag)
        )

    for tag, (kind, size, when) in enumerate(mix):
        env.process(sender(env, when, kind, size, tag))
    env.run()
    return channel, delivered


@settings(max_examples=60, deadline=None)
@given(mix=message_strategy)
def test_every_message_is_delivered_exactly_once(mix):
    channel, delivered = run_mix(mix)
    assert len(delivered) == len(mix)
    assert sorted(m.payload for m, _ in delivered) == list(range(len(mix)))


@settings(max_examples=60, deadline=None)
@given(mix=message_strategy)
def test_bits_are_conserved(mix):
    channel, delivered = run_mix(mix)
    total = sum(size for _k, size, _t in mix)
    assert sum(channel.stats.sent_bits.values()) == total
    assert sum(channel.stats.delivered_bits.values()) == total


@settings(max_examples=60, deadline=None)
@given(mix=message_strategy)
def test_deliveries_never_precede_send_plus_transmission(mix):
    _channel, delivered = run_mix(mix)
    lookup = {tag: (size, when) for tag, (_k, size, when) in enumerate(mix)}
    for msg, at in delivered:
        size, when = lookup[msg.payload]
        assert at >= when + size / 1000.0 - 1e-9


@settings(max_examples=60, deadline=None)
@given(mix=message_strategy)
def test_channel_is_never_faster_than_its_bandwidth(mix):
    """Total busy time must be at least total bits / bandwidth."""
    channel, delivered = run_mix(mix)
    last_delivery = max(at for _m, at in delivered)
    total_bits = sum(size for _k, size, _t in mix)
    first_send = min(when for _k, _s, when in mix)
    assert last_delivery - first_send >= total_bits / 1000.0 - 1e-9


@settings(max_examples=40, deadline=None)
@given(
    mix=message_strategy,
    preempt=st.sampled_from([-1, 0, 1]),
)
def test_preemption_setting_never_loses_messages(mix, preempt):
    env = Environment()
    channel = Channel(env, bandwidth_bps=500.0, preempt_threshold=preempt)
    delivered = []
    channel.attach(lambda msg, now: delivered.append(msg.payload))

    def sender(env, delay, kind, size, tag):
        yield env.timeout(delay)
        channel.send(
            Message(kind=kind, size_bits=size, src=SERVER_ID, dest=BROADCAST,
                    payload=tag)
        )

    for tag, (kind, size, when) in enumerate(mix):
        env.process(sender(env, when, kind, size, tag))
    env.run()
    assert sorted(delivered) == list(range(len(mix)))
