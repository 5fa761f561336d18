"""Edge-case tests for the environment: re-entrancy, exact boundaries,
callback-time scheduling."""

import pytest

from repro.des import Environment


@pytest.fixture
def env():
    return Environment()


class TestBoundaries:
    def test_event_exactly_at_until_is_processed(self, env):
        fired = []
        env.timeout(10.0).callbacks.append(lambda ev: fired.append(env.now))
        env.run(until=10.0)
        assert fired == [10.0]

    def test_event_just_after_until_is_not_processed(self, env):
        fired = []
        env.timeout(10.0000001).callbacks.append(lambda ev: fired.append(1))
        env.run(until=10.0)
        assert fired == []
        # ... but survives for a later run.
        env.run(until=11.0)
        assert fired == [1]

    def test_multiple_sequential_runs_advance_monotonically(self, env):
        env.run(until=5)
        env.run(until=7)
        assert env.now == 7
        with pytest.raises(ValueError):
            env.run(until=6)

    def test_run_with_empty_schedule_advances_clock(self, env):
        env.run(until=100)
        assert env.now == 100


class TestCallbackScheduling:
    def test_callback_may_schedule_new_events(self, env):
        chain = []

        def relay(ev):
            chain.append(env.now)
            if len(chain) < 3:
                env.timeout(1.0).callbacks.append(relay)

        env.timeout(1.0).callbacks.append(relay)
        env.run()
        assert chain == [1.0, 2.0, 3.0]

    def test_callback_may_succeed_other_events_same_instant(self, env):
        fired = []
        gate = env.event()
        gate.callbacks.append(lambda ev: fired.append(("gate", env.now)))
        env.timeout(2.0).callbacks.append(lambda ev: gate.succeed())
        env.run()
        assert fired == [("gate", 2.0)]

    def test_spawning_process_from_callback(self, env):
        results = []

        def worker(env):
            yield env.timeout(1.0)
            results.append(env.now)

        env.timeout(3.0).callbacks.append(lambda ev: env.process(worker(env)))
        env.run()
        assert results == [4.0]


class TestEventMisuse:
    def test_schedule_same_event_twice_runs_callbacks_once(self, env):
        """succeed() guards against double triggering."""
        ev = env.event().succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_failed_event_with_waiter_does_not_crash_run(self, env):
        def waiter(env, ev):
            try:
                yield ev
            except RuntimeError:
                return "caught"

        ev = env.event()
        p = env.process(waiter(env, ev))
        ev.fail(RuntimeError("boom"))
        assert env.run(until=p) == "caught"

    def test_defused_failure_is_silent(self, env):
        ev = env.event()
        ev._defused = True
        ev.fail(RuntimeError("ignored"))
        env.run(until=1)  # no raise

    def test_repr_forms(self, env):
        ev = env.event()
        assert "pending" in repr(ev)
        ev.succeed()
        assert "triggered" in repr(ev)
        env.run(until=0)
        assert "processed" in repr(ev)


class TestPeek:
    def test_peek_tracks_next_event(self, env):
        env.timeout(7.0)
        env.timeout(3.0)
        assert env.peek() == 3.0

    def test_peek_after_a_pop(self, env):
        first = env.timeout(3.0)
        env.timeout(7.0)
        env.run(until=first)
        assert env.peek() == 7.0
