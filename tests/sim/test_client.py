"""Focused tests of the client actor: query flow, disconnection, fetching."""

import pytest

from repro.sim import SimulationModel, SystemParams, UNIFORM
from repro.sim.metrics import (
    CACHE_HITS,
    CACHE_MISSES,
    DISCONNECTIONS,
    QUERIES_ANSWERED,
    QUERIES_GENERATED,
    QUERY_LATENCY,
    STALE_HITS,
    UPLINK_REQUEST_BITS,
)


def params(**kw):
    defaults = dict(
        simulation_time=2000.0,
        n_clients=4,
        db_size=50,
        buffer_fraction=0.2,
        disconnect_prob=0.0,
        seed=2,
    )
    defaults.update(kw)
    return SystemParams(**defaults)


class TestQueryFlow:
    def test_queries_generated_and_answered(self):
        result = SimulationModel(params(), UNIFORM, "ts").run()
        assert result.counter(QUERIES_GENERATED) > 10
        # In-flight queries at the end may be unanswered; never the reverse.
        assert 0 < result.counter(QUERIES_ANSWERED) <= result.counter(
            QUERIES_GENERATED
        )

    def test_every_query_waits_for_a_report(self):
        """Minimum latency is the wait for the next broadcast."""
        result = SimulationModel(params(), UNIFORM, "ts").run()
        # Exponential think times make sub-interval waits certain if the
        # client skipped listening; mean latency must exceed the data
        # transmission time plus a nontrivial report wait.
        assert result.raw[f"{QUERY_LATENCY}.mean"] > 6.5  # item tx alone is 6.55 s

    def test_latency_is_observed_once_into_the_histogram(self):
        """Each answered query's latency goes into the latency histogram
        alone, whose own tally supplies the count, mean and max."""
        model = SimulationModel(params(), UNIFORM, "ts")
        result = model.run()
        assert QUERY_LATENCY not in model.metrics.tallies
        histogram = model.metrics.histograms[QUERY_LATENCY]
        assert histogram.count == result.counter(QUERIES_ANSWERED) > 0
        count = result.raw[f"{QUERY_LATENCY}.count"]
        assert type(count) is int and count == histogram.count
        assert result.raw[f"{QUERY_LATENCY}.mean"] == histogram.mean
        assert result.raw[f"{QUERY_LATENCY}.max"] == histogram.max

    def test_small_db_high_locality_yields_hits(self):
        result = SimulationModel(
            params(
                db_size=10,
                buffer_fraction=1.0,
                simulation_time=4000.0,
                # Slow updates: with the Table 1 rate, 5 of these 10 items
                # change every ~100 s and hits rightly evaporate.
                update_interarrival_mean=2000.0,
            ),
            UNIFORM,
            "ts",
        ).run()
        assert result.counter(CACHE_HITS) > 0
        assert result.hit_ratio > 0.3

    def test_misses_cost_uplink_requests(self):
        result = SimulationModel(params(), UNIFORM, "ts").run()
        misses = result.counter(CACHE_MISSES)
        assert misses > 0
        assert result.counter(UPLINK_REQUEST_BITS) == misses * 4096.0

    def test_items_served_matches_hits_plus_misses(self):
        result = SimulationModel(params(), UNIFORM, "ts").run()
        assert result.counter("queries.items_served") == result.counter(
            CACHE_HITS
        ) + result.counter(CACHE_MISSES)

    def test_no_stale_hits(self):
        result = SimulationModel(
            params(db_size=10, buffer_fraction=1.0, update_interarrival_mean=20.0,
                   simulation_time=4000.0),
            UNIFORM,
            "ts",
        ).run()
        assert result.counter(STALE_HITS) == 0
        assert result.counter(CACHE_HITS) > 0  # the check actually ran

    def test_multi_item_queries(self):
        result = SimulationModel(
            params(items_per_query=3), UNIFORM, "ts"
        ).run()
        answered = result.counter(QUERIES_ANSWERED)
        assert result.counter("queries.items_served") == pytest.approx(
            3 * answered, abs=3  # the final query may be mid-flight
        )


class TestDisconnection:
    def test_no_disconnections_when_p_zero(self):
        result = SimulationModel(params(), UNIFORM, "ts").run()
        assert result.counter(DISCONNECTIONS) == 0

    def test_disconnections_happen(self):
        result = SimulationModel(
            params(disconnect_prob=0.5, disconnect_time_mean=50.0),
            UNIFORM,
            "ts",
        ).run()
        assert result.counter(DISCONNECTIONS) > 5

    def test_higher_p_more_disconnections(self):
        low = SimulationModel(
            params(disconnect_prob=0.05, disconnect_time_mean=30.0),
            UNIFORM,
            "ts",
        ).run()
        high = SimulationModel(
            params(disconnect_prob=0.6, disconnect_time_mean=30.0),
            UNIFORM,
            "ts",
        ).run()
        assert high.counter(DISCONNECTIONS) > low.counter(DISCONNECTIONS)

    def test_long_disconnections_force_cache_drops_under_ts(self):
        result = SimulationModel(
            params(
                disconnect_prob=0.4,
                disconnect_time_mean=400.0,  # >> window of 200 s
                simulation_time=6000.0,
            ),
            UNIFORM,
            "ts",
        ).run()
        assert result.counter("cache.full_drops") > 0

    def test_bs_avoids_drops_where_ts_drops(self):
        kw = dict(
            disconnect_prob=0.4,
            disconnect_time_mean=400.0,
            simulation_time=6000.0,
            update_interarrival_mean=500.0,  # light updates: salvageable
        )
        ts = SimulationModel(params(**kw), UNIFORM, "ts").run()
        bs = SimulationModel(params(**kw), UNIFORM, "bs").run()
        assert bs.counter("cache.full_drops") < ts.counter("cache.full_drops")
