"""End-to-end model behaviour: determinism, accounting, scheme mechanisms."""

from repro.net import MessageKind
from repro.sim import (
    HOTCOLD,
    UNIFORM,
    SimulationModel,
    SystemParams,
    run_replications,
    run_schemes,
    run_simulation,
)
from repro.sim.metrics import (
    CACHE_HITS,
    CACHE_MISSES,
    CHECKS_SENT,
    DOWNLINK_DATA_BITS,
    TLB_UPLOADS,
    UPLINK_VALIDATION_BITS,
)


def params(**kw):
    defaults = dict(
        simulation_time=4000.0,
        n_clients=10,
        db_size=500,
        buffer_fraction=0.1,
        disconnect_prob=0.2,
        disconnect_time_mean=400.0,
        seed=7,
    )
    defaults.update(kw)
    return SystemParams(**defaults)


class TestDeterminism:
    def test_same_seed_identical_results(self):
        a = run_simulation(params(), UNIFORM, "aaw")
        b = run_simulation(params(), UNIFORM, "aaw")
        assert a.raw == b.raw

    def test_different_seed_differs(self):
        a = run_simulation(params(seed=1), UNIFORM, "aaw")
        b = run_simulation(params(seed=2), UNIFORM, "aaw")
        assert a.raw != b.raw

    def test_replications_use_distinct_seeds(self):
        results = run_replications(params(), UNIFORM, "ts", seeds=[1, 2, 3])
        answered = {r.queries_answered for r in results}
        assert len(results) == 3
        assert len(answered) > 1

    def test_common_random_numbers_across_schemes(self):
        """Same seed => same think/disconnect draws: generated queries are
        close across schemes (they differ only via latency feedback)."""
        res = run_schemes(params(), UNIFORM, ["ts", "bs"])
        gen = [r.counter("queries.generated") for r in res.values()]
        assert abs(gen[0] - gen[1]) / max(gen) < 0.2


class TestAccounting:
    def test_data_bits_match_misses_net_of_coalescing(self):
        model = SimulationModel(params(), UNIFORM, "ts")
        result = model.run()
        p = model.params
        misses = result.counter(CACHE_MISSES)
        coalesced = result.counter("data.coalesced")
        sent = result.counter(DOWNLINK_DATA_BITS) / p.item_size_bits
        # The retry layer is off, so each miss sends one request: the
        # server coalesces it, answers it with an item, or has not
        # received it yet.
        unheard = (
            model.uplink.undelivered_bits().get(MessageKind.DATA_REQUEST, 0.0)
            / p.control_message_bits
        )
        assert sent == misses - coalesced - unheard

    def test_hits_plus_misses_equals_items(self):
        model = SimulationModel(params(), UNIFORM, "aaw")
        result = model.run()
        served = result.counter("queries.items_served")
        accessed = result.counter(CACHE_HITS) + result.counter(CACHE_MISSES)
        # Misses are counted when the fetch starts, items_served when it
        # completes: the fetches still outstanding at the horizon.
        outstanding = sum(len(client._data_waits) for client in model.clients)
        assert accessed == served + outstanding

    def test_bs_has_zero_validation_uplink(self):
        result = run_simulation(params(), UNIFORM, "bs")
        assert result.counter(UPLINK_VALIDATION_BITS) == 0

    def test_summary_keys(self):
        s = run_simulation(params(), UNIFORM, "aaw").summary()
        assert set(s) == {
            "queries_answered",
            "throughput_per_s",
            "uplink_bits_per_query",
            "hit_ratio",
            "mean_latency_s",
            "stale_hits",
            "cache_drops",
            "downlink_ir_share",
        }


class TestSchemeMechanisms:
    def test_adaptive_sends_tlb_on_long_gaps(self):
        result = run_simulation(params(), UNIFORM, "afw")
        assert result.counter(TLB_UPLOADS) > 0

    def test_adaptive_server_responds_with_special_reports(self):
        result = run_simulation(params(), UNIFORM, "afw")
        assert result.counter("reports.bs") > 0
        result = run_simulation(params(), UNIFORM, "aaw")
        assert (
            result.counter("reports.window+") + result.counter("reports.bs")
        ) > 0

    def test_aaw_prefers_enlarged_windows_under_light_updates(self):
        result = run_simulation(
            params(update_interarrival_mean=400.0, db_size=5000),
            UNIFORM,
            "aaw",
        )
        assert result.counter("reports.window+") > result.counter("reports.bs")

    def test_checking_sends_uploads(self):
        result = run_simulation(params(), UNIFORM, "checking")
        assert result.counter(CHECKS_SENT) > 0
        assert result.counter(UPLINK_VALIDATION_BITS) > 0

    def test_adaptive_uplink_cheaper_than_checking(self):
        """The paper's headline: adaptive validation costs a few bits per
        query; checking costs orders of magnitude more."""
        res = run_schemes(
            params(simulation_time=8000.0, db_size=2000), UNIFORM,
            ["aaw", "afw", "checking"],
        )
        checking = res["checking"].uplink_cost_per_query
        assert res["aaw"].uplink_cost_per_query < checking / 5
        assert res["afw"].uplink_cost_per_query < checking / 5

    def test_bs_ir_share_grows_with_database(self):
        """Figure 5's mechanism at the accounting level."""
        small = run_simulation(params(db_size=1000), UNIFORM, "bs")
        large = run_simulation(params(db_size=20000), UNIFORM, "bs")
        assert large.downlink_ir_share > small.downlink_ir_share * 2

    def test_hotcold_beats_uniform_hit_ratio(self):
        uni = run_simulation(
            params(db_size=2000, simulation_time=8000.0), UNIFORM, "ts"
        )
        hot = run_simulation(
            params(db_size=2000, simulation_time=8000.0), HOTCOLD, "ts"
        )
        assert hot.hit_ratio > uni.hit_ratio * 2


class TestRunnerAPI:
    def test_workload_by_string(self):
        result = run_simulation(params(), "hotcold", "ts")
        assert result.workload == "HOTCOLD"

    def test_scheme_object(self):
        from repro.schemes import AAW_SCHEME

        result = run_simulation(params(), UNIFORM, AAW_SCHEME)
        assert result.scheme == "aaw"
