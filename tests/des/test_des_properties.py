"""Property-based tests for the DES kernel (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, PriorityItem, PriorityStore, Store


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=60,
    )
)
def test_events_always_fire_in_nondecreasing_time_order(delays):
    env = Environment()
    fired = []
    for d in delays:
        env.timeout(d).callbacks.append(lambda ev: fired.append(env.now))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
        min_size=1,
        max_size=40,
    )
)
def test_timeouts_fire_exactly_at_their_time(delays):
    env = Environment()
    errors = []

    def proc(env, d):
        start = env.now
        yield env.timeout(d)
        if abs(env.now - (start + d)) > 1e-9 * max(1.0, d):
            errors.append((start, d, env.now))

    for d in delays:
        env.process(proc(env, d))
    env.run()
    assert errors == []


@given(
    items=st.lists(st.integers(min_value=-1000, max_value=1000), max_size=50)
)
def test_store_preserves_multiset_and_fifo(items):
    env = Environment()
    store = Store(env)
    got = []

    def run(env):
        for it in items:
            yield store.put(it)
        for _ in items:
            got.append((yield store.get()))

    env.run(until=env.process(run(env)))
    assert got == items


@given(
    items=st.lists(st.integers(min_value=-1000, max_value=1000), max_size=50)
)
def test_priority_store_yields_sorted_order(items):
    env = Environment()
    store = PriorityStore(env)
    got = []

    def run(env):
        for seq, it in enumerate(items):
            yield store.put(PriorityItem(priority=it, seq=seq, item=it))
        for _ in items:
            got.append((yield store.get()).item)

    env.run(until=env.process(run(env)))
    assert got == sorted(items)


@settings(max_examples=30)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=20),
)
def test_interleaved_producers_consumers_conserve_items(seed, n):
    """Random producer/consumer interleavings never lose or duplicate items."""
    import random

    rnd = random.Random(seed)
    env = Environment()
    store = Store(env)
    produced = []
    consumed = []

    def producer(env, k):
        yield env.timeout(rnd.uniform(0, 10))
        yield store.put(k)
        produced.append(k)

    def consumer(env):
        item = yield store.get()
        consumed.append(item)

    for k in range(n):
        env.process(producer(env, k))
        env.process(consumer(env))
    env.run()
    assert sorted(consumed) == sorted(produced) == list(range(n))
