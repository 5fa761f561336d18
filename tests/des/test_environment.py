"""Tests for the Environment run loop, clock and scheduling order."""

import pytest

from repro.des import Environment, HIGH, LOW, NORMAL, URGENT


def test_initial_time_defaults_to_zero():
    assert Environment().now == 0.0


def test_initial_time_override():
    assert Environment(initial_time=42.5).now == 42.5


def test_run_until_time_advances_clock():
    env = Environment()
    env.run(until=10)
    assert env.now == 10


def test_run_until_past_time_rejected():
    env = Environment(initial_time=5)
    with pytest.raises(ValueError):
        env.run(until=1)


def test_run_on_an_empty_schedule_returns_at_once():
    env = Environment(initial_time=3)
    assert env.run() is None
    assert env.now == 3


def test_run_until_an_event_the_schedule_never_fires_raises():
    env = Environment()
    never = env.event()
    env.timeout(2)
    with pytest.raises(RuntimeError, match="exhausted the schedule"):
        env.run(until=never)
    assert env.now == 2
    assert not never.triggered


def test_peek_empty_is_infinity():
    assert Environment().peek() == float("inf")


def test_events_processed_in_time_order():
    env = Environment()
    seen = []
    for delay in (5, 1, 3):
        env.timeout(delay, value=delay).callbacks.append(
            lambda ev: seen.append(ev.value)
        )
    env.run()
    assert seen == [1, 3, 5]


def test_same_time_ties_broken_by_priority():
    env = Environment()
    seen = []
    env.timeout(1, value="low", priority=LOW).callbacks.append(
        lambda ev: seen.append(ev.value)
    )
    env.timeout(1, value="urgent", priority=URGENT).callbacks.append(
        lambda ev: seen.append(ev.value)
    )
    env.timeout(1, value="high", priority=HIGH).callbacks.append(
        lambda ev: seen.append(ev.value)
    )
    env.timeout(1, value="normal", priority=NORMAL).callbacks.append(
        lambda ev: seen.append(ev.value)
    )
    env.run()
    assert seen == ["urgent", "high", "normal", "low"]


def test_same_time_same_priority_is_fifo():
    env = Environment()
    seen = []
    for i in range(10):
        env.timeout(2, value=i).callbacks.append(lambda ev: seen.append(ev.value))
    env.run()
    assert seen == list(range(10))


def test_run_until_event_returns_its_value():
    env = Environment()

    def proc(env):
        yield env.timeout(3)
        return "done"

    result = env.run(until=env.process(proc(env)))
    assert result == "done"
    assert env.now == 3


def test_run_until_already_processed_event():
    env = Environment()
    ev = env.event()
    ev.succeed("early")
    env.run(until=5)
    assert env.run(until=ev) == "early"


def test_run_until_event_never_fires_raises():
    env = Environment()
    ev = env.event()  # never triggered
    env.timeout(1)
    with pytest.raises(RuntimeError):
        env.run(until=ev)


def test_run_until_failed_event_raises_its_exception():
    env = Environment()

    def boom(env):
        yield env.timeout(1)
        raise ValueError("kaboom")

    with pytest.raises(ValueError, match="kaboom"):
        env.run(until=env.process(boom(env)))


def test_clock_does_not_go_past_until():
    env = Environment()
    env.timeout(100)
    env.run(until=10)
    assert env.now == 10


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_unhandled_process_exception_propagates_from_run():
    env = Environment()

    def boom(env):
        yield env.timeout(1)
        raise RuntimeError("unhandled")

    env.process(boom(env))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_event_callbacks_receive_the_event():
    env = Environment()
    box = []
    ev = env.timeout(1, value=7)
    ev.callbacks.append(box.append)
    env.run()
    assert box == [ev]
    assert box[0].value == 7


def drive(env, driver):
    """Drain *env* through one run(), or one bounded run per instant."""
    if driver == "run":
        env.run()
    else:
        while env.peek() != float("inf"):
            env.run(until=env.peek())


@pytest.mark.parametrize("driver", ["run", "until"])
def test_shared_timeout_wakes_every_waiter(driver):
    env = Environment()
    shared = env.timeout(5)
    woken = []

    def waiter(env, name):
        yield shared
        woken.append((name, env.now))

    env.process(waiter(env, "first"))
    env.process(waiter(env, "second"))
    drive(env, driver)
    assert woken == [("first", 5), ("second", 5)]


@pytest.mark.parametrize("driver", ["run", "until"])
def test_any_of_fires_on_a_timeout_another_process_waits_on(driver):
    env = Environment()
    shared = env.timeout(5)
    woken = []

    def waiter(env):
        yield shared
        woken.append(("waiter", env.now))

    def racer(env):
        yield env.any_of([shared, env.timeout(100)])
        woken.append(("racer", env.now))

    env.process(waiter(env))
    env.process(racer(env))
    drive(env, driver)
    assert woken == [("waiter", 5), ("racer", 5)]


class TestTimeoutFastLane:
    """Bare-number yields and env.sleep() take the allocation-free lane."""

    def test_bare_number_yield_sleeps(self):
        env = Environment()
        trail = []

        def proc(env):
            yield 2.5
            trail.append(env.now)
            yield 0.5
            trail.append(env.now)

        env.process(proc(env))
        env.run()
        assert trail == [2.5, 3.0]

    def test_sleep_helper_matches_timeout(self):
        env = Environment()
        trail = []

        def proc(env):
            yield env.sleep(4.0)
            trail.append(env.now)
            yield env.timeout(1.0)
            trail.append(env.now)

        env.process(proc(env))
        env.run()
        assert trail == [4.0, 5.0]

    def test_fast_lane_interleaves_with_events(self):
        env = Environment()
        order = []

        def sleeper(env):
            yield 1.0
            order.append(("sleeper", env.now))

        def timeouter(env):
            yield env.timeout(1.0)
            order.append(("timeouter", env.now))

        env.process(sleeper(env))
        env.process(timeouter(env))
        env.run()
        # Same instant: insertion order breaks the tie, as for events.
        assert order == [("sleeper", 1.0), ("timeouter", 1.0)]

    def test_scheduled_events_counts_monotonically(self):
        env = Environment()

        def proc(env):
            yield 1.0
            yield env.timeout(1.0)

        env.process(proc(env))
        before = env.scheduled_events
        env.run()
        assert env.scheduled_events > before


class TestTimeoutAt:
    def test_fires_exactly_at_when_where_a_relative_delay_misses(self):
        now, when = 0.2, 0.9
        # The pair this test exists for: a relative delay rounds away.
        assert now + (when - now) != when
        env = Environment()
        env.run(until=now)
        fired = []
        env.timeout_at(when, value="v").callbacks.append(
            lambda ev: fired.append((env.now, ev.value))
        )
        env.run()
        assert fired == [(when, "v")]

    def test_when_equal_to_now_fires_this_instant(self):
        env = Environment(initial_time=3.0)
        event = env.timeout_at(3.0)
        env.run()
        assert event.processed and env.now == 3.0

    def test_rejects_a_time_in_the_past(self):
        env = Environment(initial_time=5.0)
        with pytest.raises(ValueError, match="past"):
            env.timeout_at(4.999)

    def test_ties_order_like_timeout(self):
        """(time, priority, insertion order), mixed freely with timeout()."""
        env = Environment()
        seen = []

        def record(ev):
            seen.append(ev.value)

        env.timeout(2.0, value="t-normal-1").callbacks.append(record)
        env.timeout_at(2.0, value="at-low", priority=LOW).callbacks.append(record)
        env.timeout_at(2.0, value="at-normal-2").callbacks.append(record)
        env.timeout(2.0, value="t-urgent", priority=URGENT).callbacks.append(record)
        env.timeout(2.0, value="t-normal-3").callbacks.append(record)
        env.timeout_at(2.0, value="at-high", priority=HIGH).callbacks.append(record)
        env.timeout_at(1.0, value="at-earlier").callbacks.append(record)
        env.run()
        assert seen == [
            "at-earlier",
            "t-urgent",
            "at-high",
            "t-normal-1",
            "at-normal-2",
            "t-normal-3",
            "at-low",
        ]

    def test_a_process_can_wait_on_it(self):
        env = Environment()
        out = []

        def proc(env):
            value = yield env.timeout_at(7.5, value="woke")
            out.append((env.now, value))

        env.process(proc(env))
        env.run()
        assert out == [(7.5, "woke")]
