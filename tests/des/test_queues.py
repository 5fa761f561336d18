"""Tests for Store and PriorityStore."""

import pytest

from repro.des import Environment, PriorityItem, PriorityStore, Store


@pytest.fixture
def env():
    return Environment()


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)
        got = []

        def producer(env):
            yield store.put("x")
            yield store.put("y")

        def consumer(env):
            got.append((yield store.get()))
            got.append((yield store.get()))

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert got == ["x", "y"]

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        times = []

        def consumer(env):
            item = yield store.get()
            times.append((item, env.now))

        def producer(env):
            yield env.timeout(9)
            yield store.put("late")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert times == [("late", 9)]

    def test_fifo_ordering_of_items(self, env):
        store = Store(env)
        got = []

        def run(env):
            for i in range(5):
                yield store.put(i)
            for _ in range(5):
                got.append((yield store.get()))

        env.run(until=env.process(run(env)))
        assert got == [0, 1, 2, 3, 4]

    def test_fifo_ordering_of_waiting_consumers(self, env):
        store = Store(env)
        got = []

        def consumer(env, name):
            item = yield store.get()
            got.append((name, item))

        for name in ("first", "second"):
            env.process(consumer(env, name))

        def producer(env):
            yield env.timeout(1)
            yield store.put("a")
            yield store.put("b")

        env.process(producer(env))
        env.run()
        assert got == [("first", "a"), ("second", "b")]

    def test_len(self, env):
        store = Store(env)
        store.put("a")
        store.put("b")
        env.run(until=0)
        assert len(store) == 2


class TestPriorityStore:
    def test_smallest_first(self, env):
        store = PriorityStore(env)
        got = []

        def run(env):
            for seq, v in enumerate((5, 1, 3)):
                yield store.put(PriorityItem(priority=v, seq=seq, item=v))
            for _ in range(3):
                got.append((yield store.get()).item)

        env.run(until=env.process(run(env)))
        assert got == [1, 3, 5]

    def test_priority_item_fifo_within_priority(self, env):
        store = PriorityStore(env)
        got = []

        def run(env):
            yield store.put(PriorityItem(priority=2, seq=0, item="first-p2"))
            yield store.put(PriorityItem(priority=1, seq=1, item="p1"))
            yield store.put(PriorityItem(priority=2, seq=2, item="second-p2"))
            for _ in range(3):
                got.append((yield store.get()).item)

        env.run(until=env.process(run(env)))
        assert got == ["p1", "first-p2", "second-p2"]

    def test_peek(self, env):
        store = PriorityStore(env)
        store.put(PriorityItem(priority=7, item="late"))
        store.put(PriorityItem(priority=3, item="early"))
        env.run(until=0)
        assert store.peek().item == "early"
        assert len(store) == 2


class TestPutNowait:
    def test_item_available_immediately(self, env):
        store = Store(env)
        store.put_nowait("x")
        assert len(store) == 1 and store.items == ["x"]

    def test_wakes_waiting_getter(self, env):
        store = Store(env)
        got = []

        def consumer(env):
            got.append((yield store.get()))

        env.process(consumer(env))
        store.put_nowait("x")
        env.run()
        assert got == ["x"]

    def test_matches_put_ordering(self, env):
        # Interleaving event-based puts with put_nowait keeps FIFO order.
        store = Store(env)
        got = []

        def producer(env):
            store.put_nowait("a")
            yield store.put("b")
            store.put_nowait("c")

        def consumer(env):
            for _ in range(3):
                got.append((yield store.get()))

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert got == ["a", "b", "c"]

    def test_priority_store_put_nowait_sorts(self, env):
        store = PriorityStore(env)
        for priority, payload in [(5, "e"), (1, "a"), (3, "c")]:
            store.put_nowait(PriorityItem(priority=priority, seq=0, item=payload))
        assert store.peek().item == "a"
