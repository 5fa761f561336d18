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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ClientCache
from repro.des.rng import RandomStreams
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
