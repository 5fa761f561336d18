"""Tests for Event lifecycle, Timeout and the AnyOf condition."""

import pytest

from repro.des import AnyOf, Environment


@pytest.fixture
def env():
    return Environment()


class TestEventLifecycle:
    def test_new_event_is_pending(self, env):
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed
        assert ev.ok is None

    def test_value_unavailable_before_trigger(self, env):
        with pytest.raises(AttributeError):
            env.event().value

    def test_succeed_sets_value(self, env):
        ev = env.event().succeed(99)
        assert ev.triggered
        assert ev.ok
        assert ev.value == 99

    def test_double_succeed_rejected(self, env):
        ev = env.event().succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_fail_then_succeed_rejected(self, env):
        ev = env.event()
        ev.fail(ValueError("x"))
        ev._defused = True  # silence the unhandled-failure check
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_processed_after_run(self, env):
        ev = env.event().succeed("v")
        env.run(until=1)
        assert ev.processed
        assert ev.callbacks is None


class TestTimeout:
    def test_timeout_value(self, env):
        results = []

        def proc(env):
            results.append((yield env.timeout(5, value="hello")))

        env.process(proc(env))
        env.run()
        assert results == ["hello"]

    def test_zero_delay_fires_at_current_time(self, env):
        fired_at = []

        def proc(env):
            yield env.timeout(0)
            fired_at.append(env.now)

        env.process(proc(env))
        env.run()
        assert fired_at == [0.0]

    def test_timeout_never_fires_early(self, env):
        def proc(env):
            start = env.now
            yield env.timeout(2.5)
            assert env.now == pytest.approx(start + 2.5)

        env.process(proc(env))
        env.run()


class TestConditions:
    def test_any_of_fires_on_first(self, env):
        def proc(env):
            t1 = env.timeout(1, value="fast")
            t2 = env.timeout(5, value="slow")
            result = yield env.any_of([t1, t2])
            assert env.now == 1
            assert result is t1
            assert result.value == "fast"

        env.run(until=env.process(proc(env)))

    def test_any_of_empty_is_immediate(self, env):
        def proc(env):
            assert (yield env.any_of([])) is None
            assert env.now == 0

        env.run(until=env.process(proc(env)))

    def test_condition_propagates_failure(self, env):
        def failer(env):
            yield env.timeout(1)
            raise ValueError("inner")

        def proc(env):
            with pytest.raises(ValueError, match="inner"):
                yield env.any_of([env.timeout(10), env.process(failer(env))])
            assert env.now == 1

        env.run(until=env.process(proc(env)))

    def test_condition_over_mixed_environments_rejected(self, env):
        other = Environment()
        with pytest.raises(ValueError):
            AnyOf(env, [env.timeout(1), other.timeout(1)])

    def test_condition_with_already_processed_child(self, env):
        ev = env.event().succeed("pre")
        env.run(until=0)  # process ev
        assert ev.processed

        def proc(env):
            result = yield env.any_of([env.timeout(2, value="post"), ev])
            assert result is ev
            assert env.now == 0

        env.run(until=env.process(proc(env)))

    def test_any_of_returns_simultaneous_events_together(self, env):
        def proc(env):
            t1 = env.timeout(3, value=1)
            t2 = env.timeout(3, value=2)
            result = yield env.any_of([t1, t2])
            # Both fire at t=3; the condition triggers on the first one
            # processed, and that one is its value.
            assert result is t1
            assert env.now == 3

        env.run(until=env.process(proc(env)))

    def test_any_of_contract(self, env):
        """The first child to fire is the value; a child that fails
        first fails it; an already-processed child fires it at once; a
        child of another environment is rejected; an empty list
        succeeds at once."""
        done = env.event().succeed("done")
        env.run(until=0)
        slow, fast = env.timeout(5), env.timeout(2)
        race = env.any_of([slow, fast])
        failing = env.event()
        failed = env.any_of([env.timeout(1), failing])
        failing.fail(KeyError("first"))
        at_once = env.any_of([env.timeout(9), done])
        empty = env.any_of([])
        with pytest.raises(ValueError):
            env.any_of([env.timeout(1), Environment().event()])
        assert at_once.triggered and at_once.value is done
        assert empty.triggered and empty.value is None
        failed._defused = True  # nobody waits on it
        env.run(until=3)
        assert race.value is fast
        assert failed.ok is False
        assert isinstance(failed.value, KeyError)


class TestYieldSemantics:
    def test_yielding_non_event_raises_in_process(self, env):
        def proc(env):
            yield "not an event"

        p = env.process(proc(env))
        with pytest.raises(TypeError):
            env.run(until=p)

    def test_yield_already_processed_event_resumes_immediately(self, env):
        ev = env.event().succeed("done-before")
        env.run(until=0)

        def proc(env):
            value = yield ev
            assert value == "done-before"
            assert env.now == 0

        env.run(until=env.process(proc(env)))

    def test_shared_event_wakes_all_waiters(self, env):
        gate = env.event()
        woken = []

        def waiter(env, name):
            value = yield gate
            woken.append((name, value, env.now))

        for name in ("a", "b", "c"):
            env.process(waiter(env, name))

        def opener(env):
            yield env.timeout(4)
            gate.succeed("open")

        env.process(opener(env))
        env.run()
        assert woken == [("a", "open", 4), ("b", "open", 4), ("c", "open", 4)]
