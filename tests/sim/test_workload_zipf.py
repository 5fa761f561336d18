"""The Zipf popularity knob: validated, correctly skewed, and inert
(bit-identical draws) when left unset."""

import math
from collections import Counter

import pytest

from repro.des.rng import RandomStream
from repro.sim.workload import HOTCOLD, AccessPattern, Region, Workload

N = 200
DRAWS = 20_000


def _picks(pattern: AccessPattern, n: int, seed: int = 7) -> list:
    stream = RandomStream(seed, "test/zipf")
    return [pattern.pick(stream) for _ in range(n)]


# ------------------------------------------------------------- validation


def test_zipf_alpha_must_be_positive():
    with pytest.raises(ValueError, match="zipf_alpha must be > 0"):
        AccessPattern(N, zipf_alpha=0.0)
    with pytest.raises(ValueError, match="zipf_alpha must be > 0"):
        AccessPattern(N, zipf_alpha=-1.0)


def test_zipf_excludes_hot_region():
    with pytest.raises(ValueError, match="exclusive"):
        AccessPattern(N, hot=Region(0, 9), hot_prob=0.8, zipf_alpha=1.0)


# --------------------------------------------------------------- the law


def test_zipf_draws_stay_in_range():
    picks = _picks(AccessPattern(N, zipf_alpha=1.2), DRAWS)
    assert min(picks) >= 0
    assert max(picks) <= N - 1


def test_zipf_frequencies_follow_the_exponent():
    alpha = 1.0
    counts = Counter(_picks(AccessPattern(N, zipf_alpha=alpha), DRAWS))
    # Rank 1 vs rank 2: expected ratio 2**alpha; allow sampling noise.
    ratio = counts[0] / counts[1]
    assert math.isclose(ratio, 2.0**alpha, rel_tol=0.25)
    # Popularity is concentrated at the low ids (the "hot" convention).
    top_decile = sum(counts[i] for i in range(N // 10))
    assert top_decile > 0.5 * DRAWS


def test_higher_alpha_is_more_skewed():
    flat = Counter(_picks(AccessPattern(N, zipf_alpha=0.5), DRAWS))
    steep = Counter(_picks(AccessPattern(N, zipf_alpha=2.0), DRAWS))
    assert steep[0] > flat[0]


def test_zipf_is_deterministic_per_seed():
    pattern = AccessPattern(N, zipf_alpha=1.2)
    assert _picks(pattern, 500, seed=3) == _picks(pattern, 500, seed=3)


def test_zipf_warm_fill_takes_the_top_ranks():
    pattern = AccessPattern(N, zipf_alpha=1.2)
    stream = RandomStream(7, "test/zipf")
    assert pattern.warm_fill(stream, 16) == list(range(16))
    assert pattern.warm_fill(stream, 10 * N) == list(range(N))


# ---------------------------------------------------- default-off safety


def test_unset_zipf_is_bit_identical_to_the_two_region_path():
    plain = AccessPattern(N, hot=Region(0, 19), hot_prob=0.8)
    spelled = AccessPattern(
        N, hot=Region(0, 19), hot_prob=0.8, zipf_alpha=None
    )
    assert _picks(plain, 1000) == _picks(spelled, 1000)


def test_preset_workloads_keep_zipf_off():
    pattern = HOTCOLD.query_pattern(n_items=1000)
    assert pattern.zipf_alpha is None


def test_workload_plumbs_query_zipf_alpha():
    wl = Workload(name="ZIPF", query_zipf_alpha=0.95)
    pattern = wl.query_pattern(n_items=N)
    assert pattern.zipf_alpha == 0.95
    assert "zipf" in repr(pattern)
    # The update side stays uniform: Table 2 updates are uniform and the
    # knob deliberately touches queries only.
    assert wl.update_pattern(n_items=N).zipf_alpha is None


def test_a_pooled_zipf_cell_builds_one_query_pattern(monkeypatch):
    """Exact clients, seeded members and promotions share one pattern:
    a Zipf pattern holds a ``db_size``-entry CDF, so one per client made
    a pooled Zipf cell's build scale with clients x db_size."""
    from repro.sim import AggregationConfig, SimulationModel, SystemParams

    built = []
    init = AccessPattern.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(AccessPattern, "__init__", counting_init)
    params = SystemParams(
        simulation_time=1500.0,
        n_clients=60,
        db_size=300,
        buffer_fraction=0.05,
        think_time_mean=40.0,
        update_interarrival_mean=80.0,
        disconnect_prob=0.5,
        disconnect_time_mean=300.0,
        seed=4,
        aggregation=AggregationConfig(k_exact=5, start_in_pool=0.5),
    )
    model = SimulationModel(params, Workload(name="ZIPF", query_zipf_alpha=0.9), "aaw")
    result = model.run()
    assert result.counter("pool.seeded") > 0
    assert result.counter("pool.promoted") > 0
    assert [p for p in built if p.zipf_alpha is not None] == [model.query_pattern]
    assert all(c.query_pattern is model.query_pattern for c in model.clients)
