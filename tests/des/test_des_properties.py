"""Property-based tests for the DES kernel (hypothesis)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.des import Environment


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
