"""Tests for named random streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import RandomStream, RandomStreams


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = RandomStreams(seed=7).stream("updates")
        b = RandomStreams(seed=7).stream("updates")
        assert [a.exponential(10) for _ in range(5)] == [
            b.exponential(10) for _ in range(5)
        ]

    def test_different_names_differ(self):
        streams = RandomStreams(seed=7)
        a = streams.stream("client-0")
        b = streams.stream("client-1")
        assert [a.uniform() for _ in range(4)] != [b.uniform() for _ in range(4)]

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=1).stream("x")
        b = RandomStreams(seed=2).stream("x")
        assert a.uniform() != b.uniform()

    def test_stream_independent_of_creation_order(self):
        s1 = RandomStreams(seed=3)
        s1.stream("a")
        first = s1.stream("b").uniform()
        s2 = RandomStreams(seed=3)
        second = s2.stream("b").uniform()  # "a" never created
        assert first == second

    def test_stream_cached(self):
        streams = RandomStreams(seed=0)
        assert streams.stream("x") is streams.stream("x")


class TestDistributions:
    @pytest.fixture
    def stream(self):
        return RandomStreams(seed=42).stream("test")

    def test_exponential_mean(self, stream):
        samples = [stream.exponential(100.0) for _ in range(20000)]
        assert np.mean(samples) == pytest.approx(100.0, rel=0.05)
        assert min(samples) >= 0

    def test_exponential_zero_mean(self, stream):
        assert stream.exponential(0.0) == 0.0

    def test_exponential_negative_mean_rejected(self, stream):
        with pytest.raises(ValueError):
            stream.exponential(-1.0)

    def test_uniform_bounds(self, stream):
        for _ in range(1000):
            v = stream.uniform(5.0, 6.0)
            assert 5.0 <= v < 6.0

    def test_randint_inclusive(self, stream):
        values = {stream.randint(1, 3) for _ in range(200)}
        assert values == {1, 2, 3}

    def test_randint_single_point(self, stream):
        assert stream.randint(9, 9) == 9

    def test_randint_empty_range(self, stream):
        with pytest.raises(ValueError):
            stream.randint(5, 4)

    def test_bernoulli_extremes(self, stream):
        assert not any(stream.bernoulli(0.0) for _ in range(100))
        assert all(stream.bernoulli(1.0) for _ in range(100))

    def test_bernoulli_invalid_p(self, stream):
        with pytest.raises(ValueError):
            stream.bernoulli(1.5)

    def test_bernoulli_rate(self, stream):
        hits = sum(stream.bernoulli(0.3) for _ in range(20000))
        assert hits / 20000 == pytest.approx(0.3, abs=0.02)

    def test_poisson_at_least_one(self, stream):
        samples = [stream.poisson_at_least_one(5.0) for _ in range(20000)]
        assert min(samples) >= 1
        assert np.mean(samples) == pytest.approx(5.0, rel=0.05)

    def test_poisson_mean_below_one_rejected(self, stream):
        with pytest.raises(ValueError):
            stream.poisson_at_least_one(0.5)

    def test_choice_without_replacement(self, stream):
        picks = stream.choice_without_replacement(10, 19, 10)
        assert sorted(picks) == list(range(10, 20))

    def test_choice_too_many_rejected(self, stream):
        with pytest.raises(ValueError):
            stream.choice_without_replacement(0, 4, 6)

    def test_shuffled_is_permutation(self, stream):
        out = stream.shuffled([1, 2, 3, 4, 5])
        assert sorted(out) == [1, 2, 3, 4, 5]


class TestStateMemoization:
    """Stream creation memoizes initial PCG64 states per (seed, name)."""

    def test_memoized_stream_draws_identically(self):
        # Second construction hits the state cache; the draw sequence
        # must be indistinguishable from a cold derivation.
        cold = RandomStream(991, "memo-check")
        warm = RandomStream(991, "memo-check")
        assert [cold.uniform() for _ in range(8)] == [
            warm.uniform() for _ in range(8)
        ]

    def test_memoized_streams_do_not_share_state(self):
        a = RandomStream(992, "memo-iso")
        b = RandomStream(992, "memo-iso")
        a.uniform()  # advancing one must not advance the other
        assert b.uniform() == RandomStream(992, "memo-iso").uniform()


class TestBernoulliExponentials:
    """The batch draw equals the scalar coin-then-variate calls."""

    @settings(max_examples=200)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 60),
        p=st.one_of(
            st.just(1.0),
            st.floats(0.0, 1.0, exclude_min=True, allow_nan=False),
        ),
        mean=st.one_of(st.just(0.0), st.floats(1e-6, 1e7, allow_nan=False)),
    )
    def test_equals_scalar_calls_on_a_twin(self, seed, n, p, mean):
        batch = RandomStream(seed, "twin")
        scalar = RandomStream(seed, "twin")
        expected = [
            scalar.exponential(mean) if scalar.bernoulli(p) else None
            for _ in range(n)
        ]
        got = batch.bernoulli_exponentials(n, p, mean)
        assert got.shape == (n,)
        assert [None if np.isnan(v) else float(v) for v in got] == expected
        # Both streams stand at the same next draw.
        assert batch.uniform() == scalar.uniform()

    def test_rejects_what_the_scalar_calls_reject(self):
        stream = RandomStream(5, "twin")
        with pytest.raises(ValueError):
            stream.bernoulli_exponentials(3, 1.5, 1.0)
        with pytest.raises(ValueError):
            stream.bernoulli_exponentials(3, 0.5, -1.0)


def _plain(values):
    """A draw's result as a list of Python numbers, NaN as None."""
    return [None if v != v else v for v in np.asarray(values).ravel().tolist()]


#: Every draw method of RandomStream, with fixed arguments.
DRAWS = {
    "exponential": lambda s: s.exponential(3.0),
    "uniform": lambda s: s.uniform(-1.0, 2.0),
    "randint": lambda s: s.randint(0, 999),
    "bernoulli": lambda s: s.bernoulli(0.3),
    "bernoulli_exponentials": lambda s: _plain(s.bernoulli_exponentials(6, 0.5, 2.0)),
    "uniforms": lambda s: s.uniforms(5),
    "poisson_at_least_one": lambda s: s.poisson_at_least_one(4.0),
    "choice_without_replacement": lambda s: _plain(
        s.choice_without_replacement(10, 209, 12)
    ),
    "shuffled": lambda s: _plain(s.shuffled(list(range(16)))),
}

#: 1,000 stream names, in the simulator's per-client naming scheme.
NAMES = [
    f"client-{cid}/{kind}"
    for cid in range(250)
    for kind in ("think", "query", "disconnect", "retry")
]


class TestDeferredStreams:
    """A deferred stream derives its generator on its first draw and then
    yields exactly what an eager stream of the same name yields."""

    @pytest.mark.parametrize("first", sorted(DRAWS))
    def test_equals_eager_over_many_names(self, first):
        # The first draw goes through *first*; the rest then run in a
        # fixed order, so every method also draws on a derived generator.
        order = [first, *(name for name in sorted(DRAWS) if name != first)]
        for name in NAMES:
            eager = RandomStream(2024, name)
            deferred = RandomStream(2024, name, deferred=True)
            for method in order:
                assert DRAWS[method](deferred) == DRAWS[method](eager), (name, method)
            assert (
                deferred._gen.bit_generator.state == eager._gen.bit_generator.state
            )

    def test_derives_on_first_draw_only(self):
        stream = RandomStream(3, "client-0/think", deferred=True)
        assert not isinstance(stream._gen, np.random.Generator)
        stream.uniform()
        gen = stream._gen
        assert isinstance(gen, np.random.Generator)
        stream.uniform()
        assert stream._gen is gen

    def test_a_protocol_probe_is_not_a_draw(self):
        stream = RandomStream(3, "client-0/think", deferred=True)
        assert not hasattr(stream._gen, "__deepcopy__")
        assert not isinstance(stream._gen, np.random.Generator)

    def test_factory_defers_only_a_new_stream(self):
        streams = RandomStreams(seed=5)
        eager = streams.stream("a")
        assert streams.stream("a", deferred=True) is eager
        deferred = streams.stream("b", deferred=True)
        assert not isinstance(deferred._gen, np.random.Generator)
        assert streams.stream("b") is deferred
