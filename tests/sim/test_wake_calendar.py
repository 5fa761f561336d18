"""Reference tests for the population pool's wake calendar.

The pool parks members in a heap of ``(wake_at, park_seq, residue)``
entries behind kernel events armed at absolute wake times.  The test
drives a bare :class:`PopulationPool` with generated park/absorb scripts
(wakes ahead of the armed head, equal wake times, seeded and absorbed
members mixed) and compares every promotion against a reference model:
members wake in ``(wake_at, park order)`` order, each exactly once and
at ``env.now == wake_at``, and the kernel spends one event per distinct
wake time.
"""

from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache import ClientCache
from repro.des import Environment
from repro.des.monitor import MetricSet
from repro.des.rng import RandomStreams
from repro.sim import AggregationConfig
from repro.sim.population import PooledMember, PopulationPool
from repro.sim.workload import AccessPattern

#: Dozes on a half-second grid, so different park times often share a
#: wake time exactly.
DOZES = st.integers(1, 16).map(lambda k: k * 0.5)
GAPS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5])


def make_pool(seed, promoted):
    env = Environment()
    params = SimpleNamespace(
        aggregation=AggregationConfig(k_exact=0, min_doze_intervals=0.5),
        broadcast_interval=1.0,
        disconnect_time_mean=4.0,
    )

    def promote(member, now):
        assert now == env.now == member.wake_at
        assert len(pool.calendar) == pool.residents
        assert sum(pool.strata.values()) == pool.residents
        promoted.append((now, member))

    pool = PopulationPool(
        env, params, RandomStreams(seed), MetricSet(), promote, lambda client: None
    )
    return env, pool


def dozing_client(client_id):
    session = SimpleNamespace(
        cache=ClientCache(4),
        pending=False,
        tlb=0.0,
        report_identity=(0, 0),
        policy=None,
    )
    return SimpleNamespace(
        client_id=client_id,
        cell_id=0,
        session=session,
        query_pattern=AccessPattern(10),
        _data_waits=None,
        _clock_rate=1.0,
        _clock_skew=0.0,
    )


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**16),
    n_seeded=st.integers(0, 6),
    script=st.lists(st.tuples(GAPS, DOZES), max_size=25),
)
# A wake ahead of the armed head (5 < 10), then one tying it.
@example(seed=0, n_seeded=0, script=[(0.0, 10.0), (2.0, 3.0), (0.0, 8.0)])
def test_calendar_promotes_in_wake_then_park_order(seed, n_seeded, script):
    promoted = []
    env, pool = make_pool(seed, promoted)
    draws = RandomStreams(seed).stream("population/seed")
    # Reference model: (wake_at, park order, client id) per parked member.
    expected = []
    for cid in range(n_seeded):
        pool.seed_parked(cid, 2, 1, 3)
        expected.append((0.0 + draws.exponential(4.0), len(expected), cid))
    # Seeded members stay compact residues until they wake.
    assert not any(isinstance(e[2], PooledMember) for e in pool.calendar)
    for cid, (gap, doze) in enumerate(script, start=n_seeded):
        env.run(until=env.now + gap)
        assert pool.try_absorb(dozing_client(cid), doze)
        expected.append((env.now + doze, len(expected), cid))
        assert len(pool.calendar) == pool.residents
    env.run()
    assert [(now, m.client_id) for now, m in promoted] == [
        (wake, cid) for wake, _, cid in sorted(expected)
    ]
    for _, member in promoted:
        if member.client_id < n_seeded:
            # Seeded: starts coherent at t=0 in its home cell, no policy.
            assert member.key == (2, 0, 0, 1, 3)
            assert (member.report_cell, member.policy) == (2, None)
    assert pool.residents == 0 and not pool.calendar and not pool.strata
    # One kernel event per distinct wake time; none is wasted.
    assert env.scheduled_events == len({wake for wake, _, _ in expected})
