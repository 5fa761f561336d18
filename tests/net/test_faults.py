"""Unit tests for the wireless fault-injection layer (repro.net.faults)."""

import random
from dataclasses import fields
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, RandomStream, RandomStreams
from repro.net import (
    BROADCAST,
    Channel,
    Fate,
    FaultConfig,
    FaultModel,
    FaultStats,
    Message,
    MessageKind,
    SERVER_ID,
)
from repro.net import faults as faults_module


def msg(kind=MessageKind.DATA_ITEM, size=100, payload=None):
    return Message(
        kind=kind, size_bits=size, src=SERVER_ID, dest=BROADCAST, payload=payload
    )


def stream(name="faults/test", seed=7):
    return RandomStreams(seed).stream(name)


class _ExplodingStream:
    """Stands in for a RandomStream; any draw is a test failure."""

    def __getattr__(self, name):
        raise AssertionError("null fault model must not consume randomness")


class TestFaultConfig:
    def test_defaults_are_null(self):
        assert FaultConfig().is_null

    def test_validation_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            FaultConfig(drop_prob=1.5)
        with pytest.raises(ValueError):
            FaultConfig(bit_error_rate=-0.1)
        with pytest.raises(ValueError):
            FaultConfig(drop_prob_by_kind={MessageKind.DATA_ITEM: 2.0})
        with pytest.raises(ValueError):
            FaultConfig(drop_prob_by_kind={"ir": 0.5})
        with pytest.raises(ValueError):
            FaultConfig(ge_good_to_bad=0.1, ge_bad_to_good=0.0)

    def test_null_detection(self):
        assert FaultConfig(drop_prob_by_kind={MessageKind.DATA_ITEM: 0.0}).is_null
        assert not FaultConfig(drop_prob=0.01).is_null
        assert not FaultConfig(bit_error_rate=1e-9).is_null
        assert not FaultConfig(
            drop_prob_by_kind={MessageKind.INVALIDATION_REPORT: 0.2}
        ).is_null
        assert not FaultConfig(ge_good_to_bad=0.1).is_null
        # A burst state that never drops anything is still null.
        assert FaultConfig(ge_good_to_bad=0.1, ge_bad_drop_prob=0.0).is_null

    def test_per_kind_lookup_falls_back_to_base(self):
        cfg = FaultConfig(
            drop_prob=0.1, drop_prob_by_kind={MessageKind.DATA_ITEM: 0.9}
        )
        assert cfg.drop_prob_for(MessageKind.DATA_ITEM) == 0.9
        assert cfg.drop_prob_for(MessageKind.INVALIDATION_REPORT) == 0.1

    def test_corrupt_prob_grows_with_size(self):
        cfg = FaultConfig(bit_error_rate=1e-4)
        small = cfg.corrupt_prob_for(100)
        big = cfg.corrupt_prob_for(100_000)
        assert 0.0 < small < big <= 1.0
        assert cfg.corrupt_prob_for(0) == 0.0
        assert FaultConfig(bit_error_rate=1.0).corrupt_prob_for(1) == 1.0
        assert cfg.corrupt_prob_for(100) == pytest.approx(
            1.0 - (1.0 - 1e-4) ** 100
        )


class TestFaultModel:
    def test_null_model_never_draws(self):
        model = FaultModel(FaultConfig(), _ExplodingStream())
        assert model.is_null
        for _ in range(10):
            assert model.fate(msg(), receiver_key=0) is Fate.DELIVER
        assert model.judge(msg(), [0, 1, 1, 2]) == [Fate.DELIVER] * 4
        assert model.stats.judged == 0

    def test_certain_drop(self):
        model = FaultModel(FaultConfig(drop_prob=1.0), stream())
        assert model.fate(msg(size=50), 0) is Fate.DROP
        assert model.stats.dropped == 1
        assert model.stats.dropped_bits == 50
        assert model.stats.dropped_by_kind[MessageKind.DATA_ITEM] == 1
        assert model.stats.goodput_ratio == 0.0

    def test_certain_corruption(self):
        model = FaultModel(FaultConfig(bit_error_rate=1.0), stream())
        assert model.fate(msg(size=10), 0) is Fate.CORRUPT
        assert model.stats.corrupted == 1
        assert model.stats.corrupted_bits == 10

    def test_per_kind_drop_spares_other_kinds(self):
        cfg = FaultConfig(drop_prob_by_kind={MessageKind.DATA_ITEM: 1.0})
        model = FaultModel(cfg, stream())
        assert model.fate(msg(MessageKind.DATA_ITEM), 0) is Fate.DROP
        assert model.fate(msg(MessageKind.INVALIDATION_REPORT), 0) is Fate.DELIVER

    def test_gilbert_elliott_bad_state_drops(self):
        # Enter bad immediately, never leave... (bad_to_good must be > 0,
        # so use an astronomically unlikely exit instead of 0).
        cfg = FaultConfig(
            ge_good_to_bad=1.0, ge_bad_to_good=1e-12, ge_bad_drop_prob=1.0
        )
        model = FaultModel(cfg, stream())
        for _ in range(5):
            assert model.fate(msg(), 0) is Fate.DROP
        assert model.in_bad_state(0)
        assert model.stats.bursts == 1  # one burst onset, not five
        assert model.stats.dropped == 5

    def test_gilbert_elliott_chains_are_per_receiver(self):
        cfg = FaultConfig(
            ge_good_to_bad=0.5, ge_bad_to_good=0.5, ge_bad_drop_prob=1.0
        )
        model = FaultModel(cfg, stream())
        for _ in range(50):
            model.fate(msg(), 0)
            model.fate(msg(), 1)
        # Both receivers evolved their own chain and saw some bursts.
        assert model.stats.bursts >= 2
        assert model.stats.judged == 100

    def test_deterministic_given_stream_seed(self):
        cfg = FaultConfig(drop_prob=0.3, bit_error_rate=1e-3)
        fates_a = [
            FaultModel(cfg, stream(seed=3)).fate(msg(size=500), 0) for _ in range(1)
        ]
        runs = []
        for _ in range(2):
            model = FaultModel(cfg, stream(seed=3))
            runs.append([model.fate(msg(size=500), 0) for _ in range(200)])
        assert runs[0] == runs[1]
        assert fates_a[0] == runs[0][0]


class TestChannelIntegration:
    @pytest.fixture
    def env(self):
        return Environment()

    def test_dropped_delivery_skips_receiver_but_burns_airtime(self, env):
        ch = Channel(
            env, 100, faults=FaultModel(FaultConfig(drop_prob=1.0), stream())
        )
        seen = []
        ch.attach(lambda m, now: seen.append(m))
        ch.send(msg(size=100))
        env.run()
        assert seen == []
        assert ch.faults.stats.dropped == 1
        # Airtime was still burned: raw channel stats count the bits.
        assert ch.stats.bits_delivered == 100

    def test_wired_receiver_is_immune(self, env):
        ch = Channel(
            env, 100, faults=FaultModel(FaultConfig(drop_prob=1.0), stream())
        )
        radio, wired = [], []
        ch.attach(lambda m, now: radio.append(m))
        ch.attach(lambda m, now: wired.append(m), wired=True)
        ch.send(msg(size=100))
        env.run()
        assert radio == []
        assert len(wired) == 1

    def test_corrupted_copy_flags_receiver_not_sender(self, env):
        ch = Channel(
            env, 100, faults=FaultModel(FaultConfig(bit_error_rate=1.0), stream())
        )
        seen = []
        ch.attach(lambda m, now: seen.append(m))
        original = msg(size=100, payload="p")
        ch.send(original)
        env.run()
        assert len(seen) == 1
        assert seen[0].corrupted
        assert seen[0] is not original
        assert seen[0].payload == "p"
        assert not original.corrupted

    def test_null_fault_model_is_transparent(self, env):
        ch = Channel(env, 100, faults=FaultModel(FaultConfig(), _ExplodingStream()))
        seen = []
        ch.attach(lambda m, now: seen.append(m.payload))
        ch.send(msg(size=100, payload="x"))
        env.run()
        assert seen == ["x"]


class _ReferenceFaults:
    """The per-receiver judge drawn one decision at a time: one
    ``stream.bernoulli`` per draw.  The block-drawn :class:`FaultModel`
    must reproduce it exactly."""

    def __init__(self, config, stream):
        self.config = config
        self.stream = stream
        self.stats = FaultStats()
        self.bad = {}

    def fate(self, message, receiver_key):
        cfg = self.config
        if cfg.is_null:
            return Fate.DELIVER
        stats = self.stats
        stats.judged += 1
        drop_prob = cfg.drop_prob_for(message.kind)
        if cfg.ge_good_to_bad > 0.0:
            bad = self.bad.get(receiver_key, False)
            if bad:
                if self.stream.bernoulli(cfg.ge_bad_to_good):
                    bad = False
            elif self.stream.bernoulli(cfg.ge_good_to_bad):
                bad = True
                stats.bursts += 1
            self.bad[receiver_key] = bad
            if bad:
                drop_prob = cfg.ge_bad_drop_prob
        if drop_prob > 0.0 and self.stream.bernoulli(drop_prob):
            stats.dropped += 1
            stats.dropped_bits += message.size_bits
            kinds = stats.dropped_by_kind
            kinds[message.kind] = kinds.get(message.kind, 0) + 1
            return Fate.DROP
        corrupt_prob = cfg.corrupt_prob_for(message.size_bits)
        if corrupt_prob > 0.0 and self.stream.bernoulli(corrupt_prob):
            stats.corrupted += 1
            stats.corrupted_bits += message.size_bits
            kinds = stats.corrupted_by_kind
            kinds[message.kind] = kinds.get(message.kind, 0) + 1
            return Fate.CORRUPT
        return Fate.DELIVER


def assert_same_stats(got, want):
    for f in fields(FaultStats):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


_probs = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
_kinds = st.sampled_from(list(MessageKind))


@st.composite
def fault_configs(draw):
    bursty = draw(st.booleans())
    return FaultConfig(
        drop_prob=draw(_probs),
        drop_prob_by_kind=draw(
            st.one_of(st.none(), st.dictionaries(_kinds, _probs, max_size=3))
        ),
        bit_error_rate=draw(
            st.one_of(st.sampled_from([0.0, 1e-6, 1e-3, 1.0]), st.floats(0.0, 1.0))
        ),
        ge_good_to_bad=draw(_probs) if bursty else 0.0,
        ge_bad_to_good=draw(st.sampled_from([1e-12, 0.3, 1.0])),
        ge_bad_drop_prob=draw(_probs),
    )


#: One delivery: its kind, size, receiver count, the seed that lays out
#: its receivers, and whether to judge it one ``fate()`` at a time.
_deliveries = st.lists(
    st.tuples(
        _kinds,
        st.one_of(st.sampled_from([0, 1, 64, 65_536]), st.floats(0.0, 1e6)),
        st.integers(0, 150),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    ),
    min_size=1,
    max_size=30,
)


class TestBlockDrawsMatchTheReference:
    @settings(max_examples=60, deadline=None)
    @given(
        config=fault_configs(),
        script=_deliveries,
        pool=st.integers(1, 40),
        block=st.sampled_from([1, 2, 7, 64, faults_module.BLOCK]),
        seed=st.integers(0, 2**16),
    )
    def test_judge_equals_one_draw_per_decision(
        self, config, script, pool, block, seed
    ):
        model = FaultModel(config, RandomStream(seed, "faults/downlink"))
        ref = _ReferenceFaults(config, RandomStream(seed, "faults/downlink"))
        with mock.patch.object(faults_module, "BLOCK", block):
            for kind, size, n, layout, one_at_a_time in script:
                message = msg(kind, size)
                # Receiver keys repeat (a small pool); wired receivers are
                # skipped, as the channel skips them.
                rng = random.Random(layout)
                receivers = [
                    (rng.randrange(pool), rng.random() < 0.15) for _ in range(n)
                ]
                keys = [key for key, wired in receivers if not wired]
                want = [ref.fate(message, key) for key in keys]
                if one_at_a_time:
                    got = [model.fate(message, key) for key in keys]
                else:
                    got = model.judge(message, keys)
                assert got == want
        assert model._bad == ref.bad
        assert_same_stats(model.stats, ref.stats)

    @pytest.mark.parametrize("seed", [1, 7, 2026])
    def test_block_boundaries_are_invisible(self, seed):
        a, b = 333, 1_024
        blocks = RandomStream(seed, "faults/downlink")
        scalars = RandomStream(seed, "faults/downlink")
        bools = RandomStream(seed, "faults/downlink")
        drawn = blocks.uniforms(a) + blocks.uniforms(b)
        assert drawn == [scalars._gen.random() for _ in range(a + b)]
        assert [u < 0.3 for u in drawn] == [bools.bernoulli(0.3) for _ in drawn]

    def test_a_delivery_with_no_judged_receiver_draws_nothing(self):
        cfg = FaultConfig(drop_prob=0.5, bit_error_rate=1e-3, ge_good_to_bad=0.2)
        model = FaultModel(cfg, _ExplodingStream())
        assert model.judge(msg(), []) == []
        assert model.stats.judged == 0
        env = Environment()
        ch = Channel(env, 100, faults=model)
        wired, dozing = [], []

        def radio(m, now):
            dozing.append(m)

        ch.attach(lambda m, now: wired.append(m), wired=True)
        ch.attach(radio)
        ch.set_listening(radio, False)
        ch.send(msg(size=100))
        env.run()
        assert len(wired) == 1 and dozing == []
        assert model.stats.judged == 0


class TestChannelDispatchMatchesTheReference:
    @pytest.mark.parametrize("seed", [1, 7, 2026])
    def test_each_receiver_gets_its_reference_fate(self, seed):
        """A lossy channel hands each receiver, in attach order, what the
        one-draw-per-decision judge says about it."""
        cfg = FaultConfig(
            drop_prob=0.2,
            drop_prob_by_kind={MessageKind.DATA_ITEM: 0.4},
            bit_error_rate=2e-4,
            ge_good_to_bad=0.1,
            ge_bad_to_good=0.3,
        )
        env = Environment()
        ch = Channel(env, 1e6, faults=FaultModel(cfg, RandomStream(seed, "f")))
        ref = _ReferenceFaults(cfg, RandomStream(seed, "f"))
        got = {}
        # Key 0 is a wired tap; radios 1..6 answer to dest ids 101..106.
        wiring = [(0, True, None)] + [(k, False, 100 + k) for k in range(1, 7)]
        callbacks = {}
        for key, wired, dest in wiring:
            got[key] = []

            def cb(m, now, key=key):
                got[key].append((m.payload, m.corrupted))

            callbacks[key] = cb
            ch.attach(cb, wired=wired, dest=dest)
        want = {key: [] for key, _, _ in wiring}
        rng = random.Random(seed)
        for n in range(300):
            dozing = {k for k in range(1, 7) if rng.random() < 0.3}
            for k in range(1, 7):
                ch.set_listening(callbacks[k], k not in dozing)
            dest = BROADCAST if rng.random() < 0.7 else 100 + rng.randrange(1, 7)
            message = Message(
                kind=rng.choice(list(MessageKind)),
                size_bits=rng.choice([64, 800, 65_536]),
                src=SERVER_ID,
                dest=dest,
                payload=n,
            )
            for key, wired, rec_dest in wiring:
                addressed = dest == BROADCAST or rec_dest in (None, dest)
                if key in dozing or not addressed:
                    continue
                fate = Fate.DELIVER if wired else ref.fate(message, key)
                if fate is not Fate.DROP:
                    want[key].append((n, fate is Fate.CORRUPT))
            ch.send(message)
            env.run()
        assert got == want
        assert_same_stats(ch.faults.stats, ref.stats)
