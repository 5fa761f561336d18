"""Tests for Process semantics: joining, return values, interrupts."""

import pytest

from repro.des import Environment


@pytest.fixture
def env():
    return Environment()


class TestBasics:
    def test_process_runs_to_completion(self, env):
        trace = []

        def proc(env):
            trace.append(env.now)
            yield env.timeout(2)
            trace.append(env.now)
            yield env.timeout(3)
            trace.append(env.now)

        env.process(proc(env))
        env.run()
        assert trace == [0, 2, 5]

    def test_process_starts_at_current_time_not_immediately(self, env):
        started = []

        def proc(env):
            started.append(env.now)
            yield env.timeout(0)

        def spawner(env):
            yield env.timeout(7)
            env.process(proc(env))

        env.process(spawner(env))
        env.run()
        assert started == [7]

    def test_process_is_alive_until_done(self, env):
        def proc(env):
            yield env.timeout(5)

        p = env.process(proc(env))
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_join_returns_value(self, env):
        def worker(env):
            yield env.timeout(3)
            return 123

        def boss(env):
            value = yield env.process(worker(env))
            assert value == 123
            assert env.now == 3

        env.run(until=env.process(boss(env)))

    def test_join_raises_worker_exception(self, env):
        def worker(env):
            yield env.timeout(1)
            raise KeyError("lost")

        def boss(env):
            with pytest.raises(KeyError):
                yield env.process(worker(env))

        env.run(until=env.process(boss(env)))

    def test_join_already_finished_process(self, env):
        def worker(env):
            yield env.timeout(1)
            return "early"

        p = env.process(worker(env))
        env.run(until=5)

        def boss(env):
            value = yield p
            assert value == "early"
            assert env.now == 5

        env.run(until=env.process(boss(env)))

    def test_non_generator_rejected(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_process_name(self, env):
        def my_proc(env):
            yield env.timeout(1)

        p = env.process(my_proc(env), name="client-3")
        assert p.name == "client-3"
        assert "client-3" in repr(p)

    def test_nested_spawning(self, env):
        order = []

        def leaf(env, n):
            yield env.timeout(n)
            order.append(n)
            return n * 10

        def root(env):
            total = 0
            for n in (3, 1, 2):
                total += yield env.process(leaf(env, n))
            return total

        result = env.run(until=env.process(root(env)))
        assert result == 60
        assert order == [3, 1, 2]  # sequential joins
