"""Reference tests for the population pool's wake calendar.

The pool keeps two queues behind kernel events armed at absolute wake
times: the seeded tail, parked in one batch at build time as flat arrays
read through a cursor, and a heap of ``(wake_at, park_seq, member)``
entries for members absorbed during the run.  The tests drive a bare
:class:`PopulationPool` with generated seed-then-absorb scripts (wakes
ahead of the armed head, equal wake times within and across the two
queues) and compare every construction and promotion against a reference
model of parking members one at a time: tails-members are constructed
in id order with the kernel events armed so far, members wake in
``(wake_at, park order)`` order — the seeded member first on a tie —
each exactly once and at ``env.now == wake_at``, and the kernel spends
one event per distinct wake time.
"""

from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache import ClientCache
from repro.des import Environment
from repro.des.monitor import MetricSet
from repro.des.rng import RandomStreams
from repro.sim import AggregationConfig
from repro.sim.population import PopulationPool
from repro.sim.workload import AccessPattern

#: Dozes on a half-second grid, so different park times often share a
#: wake time exactly.
DOZES = st.integers(1, 16).map(lambda k: k * 0.5)
GAPS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5])
#: A script step: the gap before it, then a grid doze or the index of a
#: seeded member whose wake time the absorbed member should share.
STEPS = st.tuples(GAPS, st.one_of(DOZES, st.integers(0, 5).map(lambda j: ("tie", j))))
K_EXACT = 2
N_CELLS = 3


def parked(pool):
    """Calendar entries: heap entries plus seeded entries not yet woken."""
    return len(pool.heap) + len(pool.seeded_wake) - pool.seeded_next


def make_pool(seed, n_clients, start_in_pool, promoted, doze_mean=4.0):
    env = Environment()
    params = SimpleNamespace(
        aggregation=AggregationConfig(
            k_exact=K_EXACT, min_doze_intervals=0.5, start_in_pool=start_in_pool
        ),
        broadcast_interval=1.0,
        disconnect_time_mean=doze_mean,
        n_clients=n_clients,
    )

    def promote(member, now):
        assert now == env.now == member.wake_at
        assert parked(pool) == pool.residents
        assert sum(pool.strata.values()) == pool.residents
        assert all(count > 0 for count in pool.strata.values())
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
        policy="absorbed",
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


def reference_seeding(seed, n_clients, start_in_pool):
    """Park the eligible clients one by one, as the per-member pool did.

    Returns the seeded ``(wake_at, client id)`` pairs in id order and,
    per constructed client, ``(client id, kernel events armed before
    it)``: one event at each new running minimum of the wakes.
    """
    draws = RandomStreams(seed).stream("population/seed")
    seeded, constructed = [], []
    head, armed = float("inf"), 0
    for cid in range(K_EXACT, n_clients):
        if draws.bernoulli(start_in_pool):
            wake = 0.0 + draws.exponential(4.0)
            seeded.append((wake, cid))
            if wake < head:
                head, armed = wake, armed + 1
        else:
            constructed.append((cid, armed))
    return seeded, constructed


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**16),
    n_clients=st.integers(K_EXACT, 10),
    start_in_pool=st.sampled_from([1.0, 0.6, 0.2]),
    script=st.lists(STEPS, max_size=25),
)
# A wake ahead of the armed head (5 < 10), then one tying it.
@example(seed=0, n_clients=K_EXACT, start_in_pool=1.0,
         script=[(0.0, 10.0), (2.0, 3.0), (0.0, 8.0)])
# Absorbed members sharing seeded wake times, parked at t=0 and later.
@example(seed=1, n_clients=8, start_in_pool=1.0,
         script=[(0.0, ("tie", 0)), (0.0, ("tie", 0)), (0.5, ("tie", 3))])
def test_calendar_promotes_in_wake_then_park_order(
    seed, n_clients, start_in_pool, script
):
    promoted, constructed = [], []
    env, pool = make_pool(seed, n_clients, start_in_pool, promoted)
    seeded, expected_constructed = reference_seeding(seed, n_clients, start_in_pool)

    def construct(cid):
        constructed.append((cid, env.scheduled_events))

    pool.seed_parked(N_CELLS, 1, 3, construct)
    assert constructed == expected_constructed
    assert pool.residents == pool.peak_residents == len(seeded) == parked(pool)
    assert not pool.heap
    assert all(count > 0 for count in pool.strata.values())
    # Reference model: (wake_at, park order, client id) per parked
    # member; the seeded tail parks first, in id order.
    expected = [(wake, order, cid) for order, (wake, cid) in enumerate(seeded)]
    for cid, (gap, doze) in enumerate(script, start=n_clients):
        env.run(until=env.now + gap)
        if isinstance(doze, tuple):
            if not seeded:
                continue
            doze = seeded[doze[1] % len(seeded)][0] - env.now
            if doze < 0.5:
                continue
        assert pool.try_absorb(dozing_client(cid), doze)
        expected.append((env.now + doze, len(expected), cid))
        assert parked(pool) == pool.residents
    env.run()
    assert [(now, m.client_id) for now, m in promoted] == [
        (wake, cid) for wake, _, cid in sorted(expected)
    ]
    for now, member in promoted:
        if member.policy is None:
            # Seeded: starts coherent at t=0 in its home cell, no policy.
            cell = member.client_id % N_CELLS
            assert member.key == (cell, 0, 0, 1, 3)
            assert member.report_cell == cell
            assert (now, member.client_id) in seeded
    assert pool.residents == 0 and not parked(pool) and not pool.strata
    # One kernel event per distinct wake time; none is wasted.
    assert env.scheduled_events == len({wake for wake, _, _ in expected})


def test_seeded_member_wakes_first_on_a_tie():
    """An absorbed member due at a seeded member's wake time wakes right
    after it, and the shared instant costs one kernel event."""
    promoted = []
    env, pool = make_pool(2, 6, 1.0, promoted)
    seeded, _ = reference_seeding(2, 6, 1.0)
    pool.seed_parked(N_CELLS, 1, 3, lambda cid: None)
    first, last = min(seeded), max(seeded)
    for cid, (wake, _) in enumerate((last, first), start=6):
        assert pool.try_absorb(dozing_client(cid), wake)  # parked at t=0
    env.run()
    order = [(now, m.client_id) for now, m in promoted]
    assert order.index(first) + 1 == order.index((first[0], 7))
    assert order.index(last) + 1 == order.index((last[0], 6))
    assert env.scheduled_events == len(seeded)


def test_equal_seeded_wakes_keep_id_order():
    """With a zero mean doze every seeded member wakes at t=0, in id
    order (the sort is stable), behind a single kernel event."""
    promoted = []
    env, pool = make_pool(5, 9, 1.0, promoted, doze_mean=0.0)
    pool.seed_parked(N_CELLS, 1, 3, lambda cid: None)
    env.run()
    assert [(now, m.client_id) for now, m in promoted] == [
        (0.0, cid) for cid in range(K_EXACT, 9)
    ]
    assert env.scheduled_events == 1


def test_every_coin_tails_leaves_no_empty_stratum():
    """With every coin on tails the pool constructs the whole tail and
    holds nothing: no stratum is filed with a count of 0."""
    promoted, constructed = [], []
    env, pool = make_pool(4, 12, 0.0, promoted)
    pool.seed_parked(N_CELLS, 1, 3, constructed.append)
    assert constructed == list(range(K_EXACT, 12))
    assert pool.strata == {}
    assert pool.residents == pool.peak_residents == parked(pool) == 0
    assert env.scheduled_events == 0
    env.run()
    assert not promoted


def test_seed_parked_runs_once():
    env, pool = make_pool(4, 6, 1.0, [])
    pool.seed_parked(N_CELLS, 1, 3, lambda cid: None)
    with pytest.raises(RuntimeError, match="once"):
        pool.seed_parked(N_CELLS, 1, 3, lambda cid: None)
