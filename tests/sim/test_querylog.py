"""Tests for the per-query event log and fairness analysis."""

import pytest

from repro.sim import (
    HOTCOLD,
    QueryLog,
    QueryRecord,
    SimulationModel,
    SystemParams,
    UNIFORM,
    jain_index,
)


def rec(cid, started, answered, hits=1, misses=0):
    return QueryRecord(
        client_id=cid, started=started, answered=answered,
        items=hits + misses, hits=hits, misses=misses,
    )


class TestJainIndex:
    def test_perfectly_fair(self):
        assert jain_index([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_maximally_unfair(self):
        assert jain_index([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_empty_and_zero(self):
        assert jain_index([]) == 1.0
        assert jain_index([0, 0]) == 1.0


class TestQueryLog:
    def test_record_and_latency(self):
        log = QueryLog()
        log.record(rec(0, 10.0, 14.5))
        assert len(log) == 1
        assert log.records[0].latency == pytest.approx(4.5)

    def test_per_client_summaries(self):
        log = QueryLog()
        log.record(rec(0, 0.0, 2.0, hits=1, misses=0))
        log.record(rec(0, 5.0, 9.0, hits=0, misses=1))
        log.record(rec(1, 0.0, 1.0, hits=1, misses=0))
        per = log.per_client()
        assert per[0].queries == 2
        assert per[0].mean_latency == pytest.approx(3.0)
        assert per[0].hit_ratio == pytest.approx(0.5)
        assert per[1].hit_ratio == 1.0

    def test_for_client(self):
        log = QueryLog()
        log.record(rec(0, 0.0, 1.0))
        log.record(rec(1, 0.0, 1.0))
        assert [r.client_id for r in log.for_client(1)] == [1]

    def test_fairness_from_counts(self):
        log = QueryLog()
        for _ in range(9):
            log.record(rec(0, 0.0, 1.0))
        log.record(rec(1, 0.0, 1.0))
        assert log.fairness() < 0.7

    def test_per_interval_counts_each_query_at_its_answer_time(self):
        log = QueryLog()
        log.record(rec(0, 0.0, 0.0))
        log.record(rec(1, 0.0, 9.99, hits=0, misses=1))
        log.record(rec(0, 5.0, 10.0))
        log.record(rec(2, 20.0, 45.0, hits=1, misses=2))
        log.record(rec(2, 50.0, 60.0))  # answered at up_to: outside
        series = log.per_interval(10.0, 60.0)
        assert series["answered"] == [2, 1, 0, 0, 1, 0]
        assert series["hits"] == [1, 1, 0, 0, 1, 0]
        assert series["misses"] == [1, 0, 0, 0, 2, 0]

    def test_per_interval_rejects_a_nonpositive_width(self):
        with pytest.raises(ValueError):
            QueryLog().per_interval(0.0, 10.0)

    def test_per_interval_pads_empty_intervals(self):
        log = QueryLog()
        log.record(rec(0, 4.0, 4.5))
        assert log.per_interval(1.0, 6.0)["answered"] == [0, 0, 0, 0, 1, 0]

    def test_per_interval_ends_with_a_partial_interval(self):
        log = QueryLog()
        log.record(rec(0, 20.0, 24.9, hits=0, misses=1))
        series = log.per_interval(10.0, 25.0)
        assert series["answered"] == [0, 0, 1]
        assert series["misses"] == [0, 0, 1]

    def test_per_interval_of_an_empty_log_is_all_zero(self):
        assert QueryLog().per_interval(10.0, 30.0) == {
            "answered": [0, 0, 0],
            "hits": [0, 0, 0],
            "misses": [0, 0, 0],
        }

    def test_csv_export(self, tmp_path):
        log = QueryLog()
        log.record(rec(3, 1.0, 2.5, hits=1, misses=2))
        path = log.to_csv(tmp_path / "queries.csv")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("client_id,")
        assert lines[1].startswith("3,1.000000,2.500000,1.500000,3,1,2")


class TestInSimulation:
    def params(self, **kw):
        defaults = dict(
            simulation_time=2000.0,
            n_clients=6,
            db_size=100,
            disconnect_prob=0.1,
            disconnect_time_mean=200.0,
            collect_query_log=True,
            seed=3,
        )
        defaults.update(kw)
        return SystemParams(**defaults)

    def test_log_matches_counters(self):
        model = SimulationModel(self.params(), UNIFORM, "ts")
        result = model.run()
        assert len(model.query_log) == result.queries_answered
        hits = sum(r.hits for r in model.query_log.records)
        # A one-item query that hits is answered at the instant of its
        # lookup, so no hit belongs to a query still in flight.
        assert hits == result.counter("cache.hits")

    def test_latencies_positive_and_ordered(self):
        model = SimulationModel(self.params(), UNIFORM, "ts")
        model.run()
        for r in model.query_log.records:
            assert r.answered >= r.started
        times = [r.answered for r in model.query_log.records]
        assert times == sorted(times)

    def test_disabled_by_default(self):
        params = self.params(collect_query_log=False)
        model = SimulationModel(params, UNIFORM, "ts")
        model.run()
        assert model.query_log is None

    def test_connected_clients_fairer_than_sleepers(self):
        """Fairness degrades when some clients sleep long (per-client
        service diverges)."""
        stable = SimulationModel(
            self.params(disconnect_prob=0.0), UNIFORM, "ts"
        )
        stable.run()
        sleepy = SimulationModel(
            self.params(disconnect_prob=0.5, disconnect_time_mean=800.0),
            UNIFORM,
            "ts",
        )
        sleepy.run()
        assert stable.query_log.fairness() > sleepy.query_log.fairness()

    def test_latency_percentiles_in_snapshot(self):
        result = SimulationModel(self.params(), UNIFORM, "ts").run()
        assert result.raw["query.latency.p95"] >= result.raw["query.latency.p50"] > 0


class TestPerIntervalInSimulation:
    def logged_run(self, **kw):
        """Per-interval series of a HOTCOLD ts run, and its result."""
        defaults = dict(
            simulation_time=6000.0,
            n_clients=20,
            db_size=2000,
            buffer_fraction=0.06,
            disconnect_prob=0.1,
            disconnect_time_mean=300.0,
            collect_query_log=True,
            seed=21,
        )
        defaults.update(kw)
        params = SystemParams(**defaults)
        model = SimulationModel(params, HOTCOLD, "ts")
        result = model.run()
        series = model.query_log.per_interval(
            params.broadcast_interval, params.simulation_time
        )
        return series, result

    def test_series_totals_match_counters(self):
        series, result = self.logged_run()
        assert sum(series["answered"]) == result.queries_answered
        assert sum(series["hits"]) == result.counter("cache.hits")

    def test_a_query_buckets_with_its_hits_and_misses(self):
        # One item per query: each answered query is one hit or one miss,
        # in the interval that holds its answer time.
        series, _ = self.logged_run()
        assert [h + m for h, m in zip(series["hits"], series["misses"])] == (
            series["answered"]
        )

    def test_the_fold_leaves_out_only_misses_still_in_flight(self):
        # The counter takes a miss when its fetch begins; the fold takes
        # it when the query is answered, so a fetch still under way at
        # the end of the run (at most one per client) is counted only
        # by the counter.
        series, result = self.logged_run()
        in_flight = result.counter("cache.misses") - sum(series["misses"])
        assert 0 <= in_flight <= 20

    def test_warm_start_is_stationary_where_cold_start_ramps(self):
        """The quantitative justification for warm_start (DESIGN.md):
        warm runs hit steady state immediately; cold runs ramp their hit
        counts as caches fill."""
        warm_hits = self.logged_run()[0]["hits"]
        cold_hits = self.logged_run(warm_start=False)[0]["hits"]
        mid = len(cold_hits) // 2
        # Cold caches ramp: clearly more hits late than early.
        assert sum(cold_hits[mid : 2 * mid]) > 1.3 * sum(cold_hits[:mid])
        # Warm caches serve hits from the very first intervals — the
        # transient the paper's long runs amortize and warm_start removes.
        assert sum(warm_hits[:mid]) > 3 * sum(cold_hits[:mid])
