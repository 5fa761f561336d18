"""Tests for the update transaction generator."""

import pytest

from repro.db import Database, UpdateGenerator, UpdateLog
from repro.des import Environment, RandomStreams


class UniformPattern:
    """Minimal pattern stub picking uniformly over [0, n)."""

    def __init__(self, n):
        self.n = n

    def pick(self, stream):
        return stream.randint(0, self.n - 1)


def make_gen(env, db, log=None, on_update=None, interarrival=10.0, items=3.0, seed=1):
    return UpdateGenerator(
        env,
        db,
        UniformPattern(db.n_items),
        interarrival_mean=interarrival,
        items_per_update_mean=items,
        stream=RandomStreams(seed).stream("updates"),
        log=log,
        on_update=on_update,
    )


class TestUpdateGenerator:
    def test_updates_happen_and_are_logged(self):
        env = Environment()
        db = Database(100)
        log = UpdateLog()
        gen = make_gen(env, db, log=log)
        env.run(until=1000)
        assert gen.transactions > 10
        assert db.total_updates == gen.items_updated == log.total
        assert db.recency_order()

    def test_transaction_rate_matches_interarrival(self):
        env = Environment()
        db = Database(1000)
        gen = make_gen(env, db, interarrival=10.0)
        env.run(until=20000)
        assert gen.transactions == pytest.approx(2000, rel=0.1)

    def test_mean_items_per_transaction(self):
        env = Environment()
        db = Database(10**6)  # large db so within-txn collisions are rare
        gen = make_gen(env, db, items=5.0)
        env.run(until=20000)
        assert gen.items_updated / gen.transactions == pytest.approx(5.0, rel=0.1)

    def test_all_items_in_one_txn_share_timestamp(self):
        env = Environment()
        db = Database(5)  # tiny db forces collisions; must not crash
        log = UpdateLog()
        make_gen(env, db, log=log, items=4.0)
        env.run(until=500)
        # each item's log times must be strictly increasing (dedup within txn)
        for item in range(5):
            times = log.updates_of(item)
            assert all(b > a for a, b in zip(times, times[1:]))

    def test_on_update_callback_fires_per_item(self):
        env = Environment()
        db = Database(100)
        calls = []
        gen = make_gen(env, db, on_update=lambda item, now: calls.append((item, now)))
        env.run(until=300)
        assert len(calls) == gen.items_updated

    def test_deterministic_given_seed(self):
        def run():
            env = Environment()
            db = Database(50)
            make_gen(env, db, seed=42)
            env.run(until=500)
            return db.recency_order()

        assert run() == run()

    def test_invalid_interarrival(self):
        env = Environment()
        with pytest.raises(ValueError):
            make_gen(env, Database(10), interarrival=0.0)
