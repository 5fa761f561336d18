"""Tests for the shared priority channel: timing, ordering, preemption."""

import pytest

from repro.chaos.oracle import LedgerViolation, balance_ledger
from repro.des import Environment, RandomStreams
from repro.net import (
    BROADCAST,
    Channel,
    FaultConfig,
    FaultModel,
    Message,
    MessageKind,
    SERVER_ID,
)

IR = MessageKind.INVALIDATION_REPORT
DATA = MessageKind.DATA_ITEM


@pytest.fixture
def env():
    return Environment()


def msg(kind, size, dest=BROADCAST, payload=None):
    return Message(kind=kind, size_bits=size, src=SERVER_ID, dest=dest, payload=payload)


class TestTransmissionTiming:
    def test_single_message_takes_size_over_bandwidth(self, env):
        ch = Channel(env, bandwidth_bps=1000)
        ch.send(msg(MessageKind.DATA_ITEM, 500))
        env.run()
        assert env.now == pytest.approx(0.5)

    def test_back_to_back_messages_serialize(self, env):
        ch = Channel(env, bandwidth_bps=100)
        delivered = []
        ch.attach(lambda m, now: delivered.append((m.payload, now)))
        ch.send(msg(MessageKind.DATA_ITEM, 100, payload="a"))
        ch.send(msg(MessageKind.DATA_ITEM, 200, payload="b"))
        env.run()
        assert delivered == [("a", 1.0), ("b", 3.0)]

    def test_zero_size_message_delivers_instantly(self, env):
        ch = Channel(env, bandwidth_bps=10)
        ch.send(msg(MessageKind.TLB_UPLOAD, 0))
        env.run()
        assert env.now == 0.0

    def test_invalid_bandwidth(self, env):
        with pytest.raises(ValueError):
            Channel(env, bandwidth_bps=0)


class TestPriorityOrdering:
    def test_higher_class_jumps_queue(self, env):
        ch = Channel(env, bandwidth_bps=100)
        order = []
        ch.attach(lambda m, now: order.append(m.payload))

        def sender(env):
            yield env.timeout(0)
            ch.send(msg(MessageKind.DATA_ITEM, 100, payload="data1"))
            ch.send(msg(MessageKind.DATA_ITEM, 100, payload="data2"))
            ch.send(msg(MessageKind.VALIDITY_REPORT, 100, payload="check"))

        env.process(sender(env))
        env.run()
        # data1 is already on the air; check outranks the queued data2.
        assert order == ["data1", "check", "data2"]

    def test_fifo_within_class(self, env):
        ch = Channel(env, bandwidth_bps=100)
        order = []
        ch.attach(lambda m, now: order.append(m.payload))
        for i in range(4):
            ch.send(msg(MessageKind.DATA_ITEM, 50, payload=i))
        env.run()
        assert order == [0, 1, 2, 3]


class TestPreemption:
    def test_ir_preempts_data_and_data_resumes(self, env):
        ch = Channel(env, bandwidth_bps=100)
        delivered = []
        ch.attach(lambda m, now: delivered.append((m.payload, now)))

        def sender(env):
            ch.send(msg(MessageKind.DATA_ITEM, 1000, payload="big"))  # 10 s alone
            yield env.timeout(2)
            ch.send(msg(MessageKind.INVALIDATION_REPORT, 100, payload="ir"))  # 1 s

        env.process(sender(env))
        env.run()
        # IR starts at t=2 (preempting), done at 3; data resumes with 800
        # bits remaining, done at 3 + 8 = 11.
        assert delivered == [("ir", 3.0), ("big", 11.0)]
        assert ch.stats.preemptions == 1

    def test_checking_class_does_not_preempt(self, env):
        ch = Channel(env, bandwidth_bps=100)
        delivered = []
        ch.attach(lambda m, now: delivered.append((m.payload, now)))

        def sender(env):
            ch.send(msg(MessageKind.DATA_ITEM, 1000, payload="big"))
            yield env.timeout(2)
            ch.send(msg(MessageKind.VALIDITY_REPORT, 100, payload="check"))

        env.process(sender(env))
        env.run()
        assert delivered == [("big", 10.0), ("check", 11.0)]
        assert ch.stats.preemptions == 0

    def test_preemption_disabled(self, env):
        ch = Channel(env, bandwidth_bps=100, preempt_threshold=-1)
        delivered = []
        ch.attach(lambda m, now: delivered.append((m.payload, now)))

        def sender(env):
            ch.send(msg(MessageKind.DATA_ITEM, 1000, payload="big"))
            yield env.timeout(2)
            ch.send(msg(MessageKind.INVALIDATION_REPORT, 100, payload="ir"))

        env.process(sender(env))
        env.run()
        assert delivered == [("big", 10.0), ("ir", 11.0)]

    def test_ir_does_not_preempt_ir(self, env):
        ch = Channel(env, bandwidth_bps=100)
        delivered = []
        ch.attach(lambda m, now: delivered.append((m.payload, now)))

        def sender(env):
            ch.send(msg(MessageKind.INVALIDATION_REPORT, 1000, payload="ir1"))
            yield env.timeout(2)
            ch.send(msg(MessageKind.INVALIDATION_REPORT, 100, payload="ir2"))

        env.process(sender(env))
        env.run()
        assert delivered == [("ir1", 10.0), ("ir2", 11.0)]

    def test_preempted_message_resumes_before_later_same_class(self, env):
        ch = Channel(env, bandwidth_bps=100)
        delivered = []
        ch.attach(lambda m, now: delivered.append(m.payload))

        def sender(env):
            ch.send(msg(MessageKind.DATA_ITEM, 1000, payload="first"))
            yield env.timeout(2)
            ch.send(msg(MessageKind.INVALIDATION_REPORT, 100, payload="ir"))
            ch.send(msg(MessageKind.DATA_ITEM, 100, payload="second"))

        env.process(sender(env))
        env.run()
        assert delivered == ["ir", "first", "second"]


class TestDelivery:
    def test_all_receivers_see_broadcast(self, env):
        ch = Channel(env, bandwidth_bps=100)
        seen = {1: [], 2: []}
        ch.attach(lambda m, now: seen[1].append(m.payload))
        ch.attach(lambda m, now: seen[2].append(m.payload))
        ch.send(msg(MessageKind.INVALIDATION_REPORT, 100, payload="ir"))
        env.run()
        assert seen == {1: ["ir"], 2: ["ir"]}

    def test_detach_stops_delivery(self, env):
        ch = Channel(env, bandwidth_bps=100)
        seen = []

        def recv(m, now):
            seen.append(m.payload)

        ch.attach(recv)
        ch.detach(recv)
        ch.send(msg(MessageKind.DATA_ITEM, 10))
        env.run()
        assert seen == []

    def test_detach_unknown_receiver_raises(self, env):
        ch = Channel(env, bandwidth_bps=100)
        with pytest.raises(ValueError):
            ch.detach(lambda m, now: None)

    def test_receiver_detaching_itself_does_not_skip_neighbours(self, env):
        """Regression: mutating the receiver list during delivery must not
        skip (or double-deliver to) the receivers behind the mutator."""
        ch = Channel(env, bandwidth_bps=100)
        seen = []

        def one_shot(m, now):
            seen.append(("one_shot", m.payload))
            ch.detach(one_shot)

        def steady(m, now):
            seen.append(("steady", m.payload))

        ch.attach(one_shot)
        ch.attach(steady)
        ch.send(msg(MessageKind.DATA_ITEM, 10, payload="a"))
        ch.send(msg(MessageKind.DATA_ITEM, 10, payload="b"))
        env.run()
        # one_shot hears only "a"; steady hears both, exactly once each.
        assert seen == [
            ("one_shot", "a"),
            ("steady", "a"),
            ("steady", "b"),
        ]

    def test_receiver_attaching_during_delivery_joins_next_message(self, env):
        ch = Channel(env, bandwidth_bps=100)
        seen = []

        def late(m, now):
            seen.append(("late", m.payload))

        def joiner(m, now):
            seen.append(("joiner", m.payload))
            ch.attach(late)
            ch.detach(joiner)

        ch.attach(joiner)
        ch.send(msg(MessageKind.DATA_ITEM, 10, payload="a"))
        ch.send(msg(MessageKind.DATA_ITEM, 10, payload="b"))
        env.run()
        assert seen == [("joiner", "a"), ("late", "b")]

    def test_resending_in_flight_message_raises(self, env):
        """Regression: re-sending the same object while it is queued or on
        the air silently leaked the first done-event; now it is an error."""
        ch = Channel(env, bandwidth_bps=100)
        m = msg(MessageKind.DATA_ITEM, 100, payload="x")
        ch.send(m)
        with pytest.raises(ValueError):
            ch.send(m)

    def test_resending_after_delivery_is_allowed(self, env):
        ch = Channel(env, bandwidth_bps=100)
        m = msg(MessageKind.DATA_ITEM, 100, payload="x")
        ch.send(m)
        env.run()
        ch.send(m)  # a fresh transmission of the same object
        env.run()
        assert env.now == pytest.approx(2.0)


class TestStats:
    def test_bit_conservation(self, env):
        ch = Channel(env, bandwidth_bps=100)
        for size in (100, 250, 50):
            ch.send(msg(MessageKind.DATA_ITEM, size))
        env.run()
        assert ch.stats.sent_bits == {DATA: 400}
        assert ch.stats.delivered_bits == {DATA: 400}
        assert ch.stats.bits_delivered == 400
        assert ch.stats.messages_delivered == 3

    def test_busy_time_matches_bits_over_bandwidth(self, env):
        ch = Channel(env, bandwidth_bps=100)
        ch.send(msg(MessageKind.DATA_ITEM, 300))  # 3 s busy
        env.run(until=10)
        assert ch.stats.utilization(10.0) == pytest.approx(0.3)

    def test_bits_by_kind(self, env):
        ch = Channel(env, bandwidth_bps=100)
        ch.send(msg(MessageKind.INVALIDATION_REPORT, 70))
        ch.send(msg(MessageKind.DATA_ITEM, 30))
        env.run()
        assert ch.stats.delivered_bits[MessageKind.INVALIDATION_REPORT] == 70
        assert ch.stats.delivered_bits[MessageKind.DATA_ITEM] == 30

    def test_utilization_under_preemption_still_conserves(self, env):
        ch = Channel(env, bandwidth_bps=100)

        def sender(env):
            ch.send(msg(MessageKind.DATA_ITEM, 1000, payload="big"))
            yield env.timeout(2)
            ch.send(msg(MessageKind.INVALIDATION_REPORT, 100, payload="ir"))

        env.process(sender(env))
        env.run()
        # 1100 bits at 100 bps = 11 s busy total, no gaps here.
        assert ch.stats.bits_delivered == 1100
        assert ch.stats.utilization(env.now) == pytest.approx(1.0)


class TestLedger:
    """Per kind, the bits a channel accepted equal the bits it delivered
    plus the bits of the messages it still holds."""

    def test_preempted_message_is_counted_once(self, env):
        ch = Channel(env, bandwidth_bps=100)

        def sender(env):
            ch.send(msg(DATA, 1000, payload="big"))
            yield env.timeout(2)
            ch.send(msg(IR, 100, payload="ir"))

        env.process(sender(env))
        env.run(until=5)  # the report went out at 3; "big" resumed
        assert ch.stats.preemptions == 1
        assert ch.stats.sent_bits == {DATA: 1000, IR: 100}
        assert ch.stats.delivered_bits == {IR: 100}
        assert ch.undelivered_bits() == {DATA: 1000}
        balance_ledger([ch])
        env.run()
        assert ch.stats.delivered_bits == {IR: 100, DATA: 1000}
        assert ch.undelivered_bits() == {}
        balance_ledger([ch])

    def test_horizon_mid_transmission(self, env):
        ch = Channel(env, bandwidth_bps=100, name="air")
        check = MessageKind.VALIDITY_REPORT
        ch.send(msg(DATA, 300))
        ch.send(msg(check, 100))  # outranks the data: on the air first
        ch.send(msg(DATA, 50))
        env.run(until=2.5)  # "300" is on the air, "50" queued behind it
        assert ch.stats.sent_bits == {DATA: 350, check: 100}
        assert ch.stats.delivered_bits == {check: 100}
        assert ch.undelivered_bits() == {DATA: 350}
        balance_ledger([ch])
        ch.stats.sent_bits[DATA] += 1
        with pytest.raises(
            LedgerViolation,
            match=r"channel air, MessageKind.DATA_ITEM: sent 351.0 bits != "
            r"delivered 0.0 \+ undelivered 350.0",
        ):
            balance_ledger([ch])

    def test_zero_size_message(self, env):
        ch = Channel(env, bandwidth_bps=10)
        ch.send(msg(MessageKind.TLB_UPLOAD, 0))
        assert ch.undelivered_bits() == {MessageKind.TLB_UPLOAD: 0.0}
        balance_ledger([ch])
        env.run()
        assert ch.stats.sent_bits == {MessageKind.TLB_UPLOAD: 0.0}
        assert ch.stats.delivered_bits == {MessageKind.TLB_UPLOAD: 0.0}
        assert ch.stats.messages_delivered == 1
        assert ch.undelivered_bits() == {}
        balance_ledger([ch])

    def test_lossy_receivers_leave_delivered_bits_alone(self, env):
        config = FaultConfig(drop_prob=0.3, bit_error_rate=0.005)
        lossy = Channel(
            env, 100, faults=FaultModel(config, RandomStreams(5).stream("f"))
        )
        clean = Channel(env, 100)
        for ch in (lossy, clean):
            for dest in range(4):
                ch.attach(lambda m, now: None, dest=dest)
            for size in (100, 200, 300):
                ch.send(msg(IR, size))
                ch.send(msg(DATA, size, dest=1))
        env.run()
        stats = lossy.faults.stats
        assert stats.dropped > 0 and stats.corrupted > 0
        assert lossy.stats.delivered_bits == clean.stats.delivered_bits
        assert lossy.stats.delivered_bits == {IR: 600, DATA: 600}
        balance_ledger([lossy])


class TestListeningGate:
    def test_dozing_receiver_skips_broadcasts(self, env):
        ch = Channel(env, bandwidth_bps=100)
        seen = {1: [], 2: []}

        def awake(m, now):
            seen[1].append(m.payload)

        def dozer(m, now):
            seen[2].append(m.payload)

        ch.attach(awake)
        ch.attach(dozer)
        ch.set_listening(dozer, False)
        ch.send(msg(MessageKind.INVALIDATION_REPORT, 100, payload="ir1"))
        env.run()
        ch.set_listening(dozer, True)
        ch.send(msg(MessageKind.INVALIDATION_REPORT, 100, payload="ir2"))
        env.run()
        assert seen[1] == ["ir1", "ir2"]
        assert seen[2] == ["ir2"]

    def test_gating_unknown_receiver_raises(self, env):
        ch = Channel(env, bandwidth_bps=100)
        with pytest.raises(ValueError):
            ch.set_listening(lambda m, now: None, True)

    def test_unicast_reaches_only_its_destination(self, env):
        ch = Channel(env, bandwidth_bps=100)
        seen = {"c1": [], "c2": [], "tap": []}
        ch.attach(lambda m, now: seen["c1"].append(m.payload), dest=1)
        ch.attach(lambda m, now: seen["c2"].append(m.payload), dest=2)
        ch.attach(lambda m, now: seen["tap"].append(m.payload))  # promiscuous
        ch.send(msg(MessageKind.DATA_ITEM, 100, dest=1, payload="for-1"))
        env.run()
        assert seen == {"c1": ["for-1"], "c2": [], "tap": ["for-1"]}

    def test_dozing_destination_misses_unicast(self, env):
        ch = Channel(env, bandwidth_bps=100)
        seen = []

        def receiver(m, now):
            seen.append(m.payload)

        ch.attach(receiver, dest=1)
        ch.set_listening(receiver, False)
        ch.send(msg(MessageKind.DATA_ITEM, 100, dest=1, payload="lost"))
        env.run()
        assert seen == []
