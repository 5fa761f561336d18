"""Differential equivalence campaign for population aggregation.

The pool (repro.sim.population) replaces the long-dozing tail with
counts-per-stratum; the claim is that at a size where both models run,
the aggregated cell is *statistically indistinguishable* from the exact
cell on every scored metric.  This campaign pins that claim: a
100-client cell, 3 seeds x all 8 schemes, exact vs aggregated, under the
``strict_staleness`` safety oracle (any provably-stale answer raises
inside the run) and the liveness ledger.

What is exact vs tolerance-level, and why
-----------------------------------------
A pooled member's per-client RNG streams resume exactly where the
absorbed actor left them, and the pool's wake calendar promotes it at
exactly the instant, and at the priority, its doze sleep would have
returned — so divergence comes only from (a) the reconstructed cache
being a fresh stratum-consistent draw rather than the literal cache,
and (b) re-attachment moving the client to the end of the broadcast
delivery order.  Both perturb *which* items miss and *when* salvage
fires, not the protocol: throughput and uplink cost shift by O(pool
churn / population), which the tolerances below bound.  The adaptive
schemes' salvage traffic (AFW especially) is the most sensitive — a
promoted client's conservative ``Tlb`` can turn a window-hit into an
uplink round-trip — hence the looser uplink bound.

Aggregation *off* is not tested here: tests/sim/test_golden.py pins that
configuration bit-identical to the seed for all 8 schemes.
"""

import pytest

from repro.sim import AggregationConfig, SystemParams, run_simulation
from repro.sim.workload import HOTCOLD, UNIFORM

SCHEMES = ("ts", "at", "bs", "sig", "checking", "gcore", "afw", "aaw")
SEEDS = (1, 2, 3)

#: Calibrated against the observed worst case per metric (AFW uplink
#: deviates 13.8% at seed 2; every throughput deviation is < 2%), with
#: headroom so seed-level noise never flakes CI.
THROUGHPUT_RTOL = 0.05
UPLINK_RTOL = 0.20

BASE = dict(
    simulation_time=6000.0,
    n_clients=100,
    db_size=500,
    buffer_fraction=0.05,
    think_time_mean=60.0,
    update_interarrival_mean=80.0,
    disconnect_prob=0.3,
    disconnect_time_mean=600.0,
    # The safety oracle is armed for every run in the campaign: a stale
    # answer in either model aborts the test with a conviction trace.
    strict_staleness=True,
)

AGGREGATION = AggregationConfig(k_exact=10, min_doze_intervals=2.0)


def _pair(scheme, seed, workload):
    exact = run_simulation(SystemParams(**BASE, seed=seed), workload, scheme)
    aggregated = run_simulation(
        SystemParams(**BASE, seed=seed, aggregation=AGGREGATION),
        workload,
        scheme,
    )
    return exact, aggregated


def _assert_equivalent(exact, aggregated):
    # Liveness must balance in both models: every generated query is
    # answered or attributable to a client down/pooled at the horizon.
    assert exact.raw["oracle.liveness_ok"] == 1.0
    assert aggregated.raw["oracle.liveness_ok"] == 1.0
    # Strict oracle ran clean (we got here), so both stale counts are 0
    # by construction — assert it anyway so a future softening of the
    # oracle cannot silently weaken this campaign.
    assert exact.counter("cache.stale_hits") == 0
    assert aggregated.counter("cache.stale_hits") == 0
    assert aggregated.throughput_per_second == pytest.approx(
        exact.throughput_per_second, rel=THROUGHPUT_RTOL
    )
    assert aggregated.uplink_cost_per_query == pytest.approx(
        exact.uplink_cost_per_query, rel=UPLINK_RTOL
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_aggregated_matches_exact_uniform(scheme, seed):
    exact, aggregated = _pair(scheme, seed, UNIFORM)
    _assert_equivalent(exact, aggregated)
    # The campaign is vacuous unless the pool actually cycled members.
    assert aggregated.counter("pool.absorbed") > 0
    assert aggregated.counter("pool.promoted") > 0
    # Conservation at the horizon: every client is live or pooled.
    assert (
        aggregated.raw["clients.live_at_horizon"]
        + aggregated.raw["pool.residents_at_horizon"]
        == BASE["n_clients"]
    )


@pytest.mark.parametrize("scheme", ("ts", "aaw"))
def test_aggregated_matches_exact_hotcold(scheme):
    """Skewed access: the stratum signature (hot/cold split) must carry
    enough of the cache for HOTCOLD hit ratios to survive aggregation."""
    exact, aggregated = _pair(scheme, seed=2, workload=HOTCOLD)
    _assert_equivalent(exact, aggregated)
    # Hit ratios sit at 0.04-0.15 here, so per-seed noise is large in
    # relative terms but tiny in absolute ones; bound both ways.
    assert aggregated.hit_ratio == pytest.approx(
        exact.hit_ratio, rel=0.25, abs=0.03
    )


def test_k_exact_clients_never_pooled():
    """The K "interesting" clients stay full-fidelity for the whole run:
    pinning k_exact = n_clients leaves the pool untouched."""
    result = run_simulation(
        SystemParams(
            **BASE,
            seed=1,
            aggregation=AggregationConfig(k_exact=BASE["n_clients"]),
        ),
        UNIFORM,
        "ts",
    )
    assert result.counter("pool.absorbed") == 0
    assert result.counter("pool.promoted") == 0
    assert result.raw["pool.residents_at_horizon"] == 0.0
