"""Property suite for the population-aggregation pool.

Four families of invariants, all of which must hold for *every* seed,
knob setting and workload — exactly the kind of claim Hypothesis is for:

* **Conservation** — at every instant, live full-fidelity clients plus
  pooled residents account for the whole population, and the pool's own
  ledger balances (``seeded + absorbed - promoted == residents``), even
  while clients doze, wake, and hand off between cells.
* **Strata well-formedness** — stratum counts are strictly positive
  (empty strata are removed eagerly) and sum to the resident count, and
  the wake calendar holds one entry per resident: the absorbed heap's
  entries plus the seeded entries not yet woken.
* **Reconstructibility** — a cache rebuilt from a stratum signature has
  exactly that signature, honest ``Tlb``-time entries, and a matching
  certification floor, for any signature the pool can produce.
* **Validation** — `AggregationConfig` / `SystemParams` reject nonsense
  (negative K, K > population, zero-width buckets, fractions outside
  [0, 1]) at construction time, not at hour three of a megacell run.
"""

import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheEntry, ClientCache
from repro.db import UpdateLog
from repro.des import rng
from repro.des.rng import RandomStream, RandomStreams
from repro.sim import AggregationConfig, SystemParams
from repro.sim.model import SimulationModel
from repro.sim.population import cache_signature, rebuild_cache, warm_signature
from repro.sim.runner import run_simulation
from repro.sim.workload import HOTCOLD, UNIFORM, AccessPattern, Region
from repro.topology import RoamingConfig, TopologyConfig


def _pool_invariants(model):
    pool = model.population
    live = len(model.clients)
    assert live + pool.residents == model.params.n_clients
    ledger = (
        model.metrics.counter("pool.seeded").value
        + model.metrics.counter("pool.absorbed").value
        - model.metrics.counter("pool.promoted").value
    )
    assert ledger == pool.residents
    assert all(count > 0 for count in pool.strata.values())
    assert sum(pool.strata.values()) == pool.residents
    # The wake calendar holds exactly one entry per resident.
    unwoken_seeded = len(pool.seeded_wake) - pool.seeded_next
    assert len(pool.heap) + unwoken_seeded == pool.residents


@settings(max_examples=10)
@given(
    seed=st.integers(0, 2**16),
    disconnect_prob=st.floats(0.1, 0.8),
    disconnect_time_mean=st.floats(100.0, 2000.0),
    k_exact=st.integers(0, 30),
    start_in_pool=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_pool_conservation_through_doze_wake(
    seed, disconnect_prob, disconnect_time_mean, k_exact, start_in_pool
):
    """live + residents == n_clients at every checkpoint, and the pool's
    ledger balances, across arbitrary doze/wake churn."""
    params = SystemParams(
        simulation_time=1500.0,
        n_clients=30,
        db_size=200,
        buffer_fraction=0.05,
        think_time_mean=40.0,
        update_interarrival_mean=80.0,
        disconnect_prob=disconnect_prob,
        disconnect_time_mean=disconnect_time_mean,
        seed=seed,
        aggregation=AggregationConfig(k_exact=k_exact, start_in_pool=start_in_pool),
    )
    model = SimulationModel(params, UNIFORM, "aaw")
    _pool_invariants(model)  # holds at t=0, before any event
    for checkpoint in (300.0, 800.0, 1500.0):
        model.env.run(until=checkpoint)
        _pool_invariants(model)


def test_all_tails_seeding_files_no_stratum():
    """A seeding coin that lands tails for every client constructs the
    whole tail and files no stratum, not one with a count of 0."""
    params = SystemParams(
        simulation_time=100.0,
        n_clients=6,
        db_size=200,
        seed=0,
        aggregation=AggregationConfig(k_exact=2, start_in_pool=1e-9),
    )
    model = SimulationModel(params, UNIFORM, "aaw")
    assert len(model.clients) == params.n_clients
    assert model.population.strata == {}
    _pool_invariants(model)


@settings(max_examples=5)
@given(seed=st.integers(0, 2**16), roam_prob=st.floats(0.2, 1.0))
def test_pool_conservation_across_handoffs(seed, roam_prob):
    """Roaming does not leak clients: a member absorbed in one cell and
    promoted after a wake-time handoff still counts exactly once."""
    params = SystemParams(
        simulation_time=1200.0,
        n_clients=24,
        db_size=200,
        buffer_fraction=0.05,
        think_time_mean=40.0,
        update_interarrival_mean=80.0,
        disconnect_prob=0.5,
        disconnect_time_mean=300.0,
        seed=seed,
        uplink_timeout=15.0,
        roaming=RoamingConfig(
            topology=TopologyConfig(kind="path", n_cells=3),
            roam_prob=roam_prob,
        ),
        aggregation=AggregationConfig(k_exact=4),
    )
    model = SimulationModel(params, UNIFORM, "aaw")
    for checkpoint in (400.0, 1200.0):
        model.env.run(until=checkpoint)
        _pool_invariants(model)
    assert model.metrics.counter("pool.absorbed").value > 0


@settings(max_examples=50)
@given(
    db_size=st.integers(50, 500),
    hot_size=st.integers(0, 40),
    capacity=st.integers(1, 40),
    data=st.data(),
)
def test_rebuild_cache_signature_roundtrip(db_size, hot_size, capacity, data):
    """Any stratum signature the pool can hold is reconstructible: the
    rebuilt cache has exactly that signature, every entry is stamped at
    ``Tlb``, and the certification floor matches."""
    hot = Region(0, hot_size - 1) if hot_size else None
    pattern = AccessPattern(db_size, hot, 0.8 if hot else 0.0)
    n_hot = data.draw(st.integers(0, min(hot_size, capacity)))
    # Cold items draw from the complement (or the whole db when flat).
    cold_space = db_size - hot_size
    n_cold = data.draw(st.integers(0, min(capacity - n_hot, cold_space)))
    tlb = data.draw(st.floats(0.0, 1000.0, allow_nan=False))
    stream = RandomStreams(7).stream("rebuild")
    cache = rebuild_cache(stream, pattern, capacity, n_hot, n_cold, tlb)
    assert cache_signature(cache, pattern) == (n_hot, n_cold)
    assert len(cache) == n_hot + n_cold
    assert cache.certified_floor == tlb
    for entry in cache.entries():
        assert entry.ts == tlb
    assert not cache.unreconciled


def _rebuild_reference(stream, pattern, capacity, n_hot, n_cold, tlb, update_log):
    """The per-entry rebuild that ``rebuild_cache`` replaced: one scalar
    item mapping, one version bisection over a copied update list and
    one ``insert`` per entry."""
    hot = pattern.hot
    items = []
    if hot is not None and n_hot:
        items.extend(
            int(i) for i in stream.choice_without_replacement(hot.lo, hot.hi, n_hot)
        )
    if n_cold:
        if hot is None:
            items.extend(
                int(i)
                for i in stream.choice_without_replacement(
                    0, pattern.n_items - 1, n_cold
                )
            )
        else:
            span = pattern.n_items - hot.size
            for raw in stream.choice_without_replacement(0, span - 1, n_cold):
                idx = int(raw)
                items.append(idx if idx < hot.lo else idx + hot.size)
    cache = ClientCache(capacity)
    for item in items:
        version = 0
        if update_log is not None:
            version = bisect.bisect_right(update_log.updates_of(item), tlb)
        cache.insert(CacheEntry(item=item, version=version, ts=tlb))
    cache.certify(tlb)
    return cache


def _cache_state(cache):
    return (
        [(e.item, e.version, e.ts, e.cert_epoch) for e in cache.entries()],
        cache.insertions,
        cache.evictions,
        cache.epoch,
        cache.certified_floor,
        set(cache.unreconciled),
    )


@settings(max_examples=60, deadline=None)
@given(
    workload=st.sampled_from([UNIFORM, HOTCOLD]),
    # HOTCOLD's hot region is items 0-99.
    db_size=st.integers(101, 240),
    capacity=st.integers(1, 20),
    tlb_step=st.integers(0, 30),
    steps=st.lists(st.tuples(st.integers(0, 239), st.integers(0, 60)), max_size=300),
    with_log=st.booleans(),
    data=st.data(),
)
def test_rebuild_cache_equals_the_per_entry_inserts(
    workload, db_size, capacity, tlb_step, steps, with_log, data
):
    """The one-pass rebuild leaves the cache the per-entry inserts did:
    LRU order, versions, insertions, cert epochs and the floor, with
    updates before, at and after ``Tlb``; both draw the same numbers."""
    pattern = workload.query_pattern(db_size)
    hot = pattern.hot
    hot_size = 0 if hot is None else hot.size
    n_hot = data.draw(st.integers(0, min(hot_size, capacity)))
    cold_space = db_size - hot_size
    n_cold = data.draw(st.integers(0, min(capacity - n_hot, cold_space)))
    # Update times on a 10 s grid, Tlb on it too: many updates land at
    # exactly Tlb, which counts toward the version.
    tlb = 10.0 * tlb_step
    log = UpdateLog() if with_log else None
    if log is not None:
        for item, k in sorted(steps, key=lambda step: step[1]):
            log.record(item % db_size, 10.0 * k)
    rebuilt = rebuild_cache(
        RandomStream(9, "pool"), pattern, capacity, n_hot, n_cold, tlb, log
    )
    reference_stream = RandomStream(9, "pool")
    reference = _rebuild_reference(
        reference_stream, pattern, capacity, n_hot, n_cold, tlb, log
    )
    assert _cache_state(rebuilt) == _cache_state(reference)
    # The same draws: a fresh twin stands where the reference stream does.
    twin = RandomStream(9, "pool")
    rebuild_cache(twin, pattern, capacity, n_hot, n_cold, tlb, log)
    assert twin.uniform() == reference_stream.uniform()


@given(db_size=st.integers(20, 300), capacity=st.integers(1, 50))
def test_warm_signature_matches_warm_fill(db_size, capacity):
    """The parked-at-build-time signature equals what warm_fill draws."""
    for pattern in (
        UNIFORM.query_pattern(db_size),
        AccessPattern(db_size, Region(0, min(9, db_size - 2)), 0.8),
    ):
        predicted = warm_signature(pattern, capacity)
        stream = RandomStreams(3).stream("warm")
        items = pattern.warm_fill(stream, capacity)
        hot = pattern.hot
        n_hot = sum(1 for i in items if hot is not None and hot.contains(i))
        assert predicted == (n_hot, len(items) - n_hot)


#: A 40-client cell that starts in the pool and churns through it.
CHURNING_POOL = SystemParams(
    simulation_time=2000.0,
    n_clients=40,
    db_size=200,
    buffer_fraction=0.05,
    think_time_mean=40.0,
    update_interarrival_mean=80.0,
    disconnect_prob=0.5,
    disconnect_time_mean=300.0,
    seed=5,
    aggregation=AggregationConfig(k_exact=0),
)


def test_signature_survives_absorb_promote_cycle():
    """End-to-end: members promoted out of a real run carry caches whose
    signature the differential campaign relies on (no empty caches when
    warm strata exist, no hot items under a flat pattern)."""
    result = run_simulation(CHURNING_POOL, HOTCOLD, "ts")
    assert result.counter("pool.promoted") > 0
    assert result.raw["oracle.liveness_ok"] == 1.0


def test_a_promotion_builds_one_cache(monkeypatch):
    """A promoted client resumes on the cache the pool rebuilt for it:
    the run builds one ClientCache per promotion and throws none away."""
    model = SimulationModel(CHURNING_POOL, HOTCOLD, "ts")
    built = [0]
    init = ClientCache.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(ClientCache, "__init__", counting_init)
    model.run()
    promoted = model.metrics.counter("pool.promoted").value
    assert promoted > 0
    assert built[0] == promoted


#: A cell whose tail starts in the pool, with retries on: a promoted
#: member has never been built, so its promotion mints its streams.
SEEDED_POOL = SystemParams(
    simulation_time=2000.0,
    n_clients=60,
    db_size=200,
    buffer_fraction=0.05,
    think_time_mean=40.0,
    update_interarrival_mean=80.0,
    disconnect_prob=0.9,
    disconnect_time_mean=600.0,
    warm_start=True,
    uplink_timeout=200.0,
    seed=5,
    aggregation=AggregationConfig(k_exact=6, start_in_pool=1.0),
)

#: The streams a client owns: deferred when it is built by a promotion.
CLIENT_STREAMS = ("think", "query", "disconnect", "retry")


def test_a_promotion_derives_only_the_streams_it_draws(monkeypatch):
    """Clients built at t = 0 derive their streams at construction; a
    promoted member derives a stream of its own on its first draw and
    never one it does not draw."""
    derived = []
    generator = rng._generator

    def counting_generator(seed, name):
        derived.append(name)
        return generator(seed, name)

    drawn = set()
    for method in (
        "exponential", "uniform", "randint", "bernoulli", "bernoulli_exponentials",
        "uniforms", "poisson_at_least_one", "choice_without_replacement", "shuffled",
    ):
        def recording(self, *args, _draw=getattr(RandomStream, method), **kwargs):
            drawn.add(self.name)
            return _draw(self, *args, **kwargs)

        monkeypatch.setattr(RandomStream, method, recording)
    monkeypatch.setattr(rng, "_generator", counting_generator)

    model = SimulationModel(SEEDED_POOL, HOTCOLD, "ts")
    at_build = set(derived)
    assert model.clients
    for client in model.clients:
        for kind in CLIENT_STREAMS:
            assert f"client-{client.client_id}/{kind}" in at_build
    derived.clear()
    drawn.clear()
    model.run()
    assert model.metrics.counter("pool.promoted").value > 0
    minted = {
        name
        for name in model.streams._streams
        if name not in at_build and name.rsplit("/", 1)[-1] in CLIENT_STREAMS
    }
    assert len(derived) == len(set(derived))
    # Each promotion-minted stream was derived exactly when drawn ...
    assert minted & set(derived) == minted & drawn
    # ... and some were never drawn, so never derived.
    assert minted - drawn


# -- validation ------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(k_exact=-1),
        dict(min_doze_intervals=0.0),
        dict(min_doze_intervals=-2.0),
        dict(start_in_pool=-0.1),
        dict(start_in_pool=1.5),
    ],
)
def test_aggregation_config_rejects_nonsense(kwargs):
    with pytest.raises(ValueError):
        AggregationConfig(**kwargs)


def test_params_reject_k_exact_over_population():
    with pytest.raises(ValueError, match="k_exact exceeds"):
        SystemParams(n_clients=10, aggregation=AggregationConfig(k_exact=11))


def test_params_reject_aggregation_with_client_chaos():
    from repro.chaos.schedule import ChaosConfig

    with pytest.raises(ValueError, match="client-crash or\nclock-skew|client-crash"):
        SystemParams(
            n_clients=10,
            aggregation=AggregationConfig(),
            chaos=ChaosConfig(client_crashes_at=((50.0, 3),)),
        )


def test_rebuild_rejects_impossible_strata():
    pattern = AccessPattern(100, None, 0.0)
    stream = RandomStreams(1).stream("x")
    with pytest.raises(ValueError, match="no hot region"):
        rebuild_cache(stream, pattern, 10, 2, 0, 0.0)
    with pytest.raises(ValueError, match="exceeds the cache capacity"):
        rebuild_cache(stream, pattern, 10, 0, 11, 0.0)
    with pytest.raises(ValueError, match="non-negative"):
        rebuild_cache(stream, pattern, 10, -1, 2, 0.0)
