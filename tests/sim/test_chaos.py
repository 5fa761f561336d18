"""End-to-end tests for endpoint chaos: crash–recovery epochs + oracle.

Four guarantees are pinned here:

1. **Zero-chaos equivalence** — ``chaos=None``, a null ``ChaosConfig``
   and an armed-but-never-triggered strict oracle are all *bit-identical*
   to the seed behaviour.
2. **Campaign safety** — a seeded campaign matrix (seeds x failure
   modes) runs under the strict oracle: zero stale reads served and the
   liveness ledger balances, for rotating schemes.
3. **Graceful degradation** — after a server restart, clients on the old
   epoch purge/revalidate rather than answer from cache, for *every*
   registered scheme; and the recovery protocol is load-bearing
   (suppressing both the epoch bump and the history floor makes the
   oracle convict; restoring the bump alone is safe again).
4. **Fail-fast uplink** — requests sent into a crashed server are shed,
   engaging the PR 1 retry path instead of queueing forever.
"""

import pytest

from repro.chaos import ChaosConfig, StalenessViolation
from repro.net import FaultConfig, Message, MessageKind, SERVER_ID
from repro.reports.window import WindowReport
from repro.schemes.registry import available_schemes
from repro.sim import UNIFORM, run_simulation
from repro.sim.model import SimulationModel

from .test_faults import BASE, RETRY, visible

#: Crash at 185 s, back at 195 s: shorter than one broadcast interval
#: (L=20), so no report tick is skipped — the subtlest outage shape,
#: where only the epoch/origin machinery separates safe from stale.
SHORT_OUTAGE = ChaosConfig(server_crashes_at=(185.0,), server_downtime=10.0)

#: Crash at 490 s for 130 s: several report ticks skipped, and the crash
#: lands mid-interval so requests already on the uplink lose their
#: pending (coalesced, unpublished) responses to the crash.
LONG_OUTAGE = ChaosConfig(server_crashes_at=(490.0,), server_downtime=130.0)


def chaos_params(**overrides):
    merged = dict(RETRY, strict_staleness=True)
    merged.update(overrides)
    return BASE.with_(**merged)


class TestZeroChaosEquivalence:
    """An inert chaos layer must not move a single bit."""

    @pytest.mark.parametrize("scheme", ["ts", "afw", "at"])
    def test_null_config_and_armed_oracle_are_bit_identical(self, scheme):
        baseline = run_simulation(BASE, UNIFORM, scheme)
        nulled = run_simulation(
            BASE.with_(chaos=ChaosConfig(), strict_staleness=True),
            UNIFORM,
            scheme,
        )
        assert visible(nulled.raw) == visible(baseline.raw)

    def test_oracle_keys_present_on_chaos_free_runs(self):
        result = run_simulation(BASE, UNIFORM, "ts")
        assert result.raw["oracle.liveness_ok"] == 1.0
        assert result.liveness_ok
        assert 0 <= result.raw["oracle.queries_pending"] <= BASE.n_clients


class TestChaosCampaign:
    """Seeds x failure modes under the strict oracle (acceptance matrix)."""

    MODES = {
        "server-crash": dict(server_crash_mtbf=400.0, server_downtime_mean=60.0),
        "client-crash": dict(client_crash_mtbf=600.0),
        "clock-skew": dict(clock_skew_max=8.0, clock_drift_max=0.05),
        "combined": dict(
            server_crash_mtbf=500.0,
            server_downtime_mean=50.0,
            client_crash_mtbf=800.0,
            clock_skew_max=8.0,
            clock_drift_max=0.05,
        ),
    }

    #: Fixed rotation (the run-time registry may hold test-registered
    #: schemes): every family faces every mode across the seed set.
    SCHEMES = ("aaw", "afw", "at", "bs", "checking", "gcore", "sig", "ts")

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_campaign_cell_is_safe_and_live(self, seed, mode):
        schemes = self.SCHEMES
        scheme = schemes[(seed * len(self.MODES)
                          + sorted(self.MODES).index(mode)) % len(schemes)]
        params = chaos_params(chaos=ChaosConfig(seed=seed, **self.MODES[mode]))
        result = run_simulation(params, UNIFORM, scheme)
        assert result.stale_hits == 0, (seed, mode, scheme)
        assert result.liveness_ok, (seed, mode, scheme)
        assert result.oracle_verdict == "SAFE", (seed, mode, scheme)
        if mode in ("server-crash", "combined"):
            assert result.server_crashes > 0, (seed, mode, scheme)
        if mode in ("client-crash", "combined"):
            assert result.counter("chaos.client_crashes") > 0, (seed, mode)

    @pytest.mark.parametrize("chaos", [SHORT_OUTAGE, LONG_OUTAGE],
                             ids=["short-outage", "long-outage"])
    def test_campaign_is_reproducible(self, chaos):
        params = chaos_params(chaos=chaos)
        a = run_simulation(params, UNIFORM, "aaw")
        b = run_simulation(params, UNIFORM, "aaw")
        assert a.raw == b.raw


class TestEpochDifferential:
    """After a restart, old-epoch clients purge instead of answering."""

    @pytest.mark.parametrize("scheme", available_schemes())
    def test_every_scheme_purges_on_epoch_change(self, scheme):
        # disconnect_prob=0 keeps every client listening, so the first
        # post-restart report must purge all of them.
        params = chaos_params(
            chaos=SHORT_OUTAGE, disconnect_prob=0.0, update_interarrival_mean=15.0
        )
        result = run_simulation(params, UNIFORM, scheme)
        assert result.server_crashes == 1, scheme
        assert result.counter("chaos.server_restarts") == 1, scheme
        assert result.epoch_purges == BASE.n_clients, scheme
        # The purge is a full revalidation: every client dropped its cache.
        assert result.counter("cache.full_drops") >= BASE.n_clients, scheme
        # And nothing stale was ever served (strict oracle ran throughout).
        assert result.stale_hits == 0, scheme
        assert result.liveness_ok, scheme

    #: A hot little cell where amnesia about the outage cannot hide:
    #: high update rate, a cache big enough to hold stale survivors and a
    #: query rate fast enough to hit them.
    HOT_CELL = dict(
        db_size=50,
        buffer_fraction=0.4,
        think_time_mean=5.0,
        update_interarrival_mean=2.0,
        disconnect_prob=0.0,
    )

    def _model_with_unsafe_restart(self, *, bump_epoch):
        """A model whose restart forgets the recovery protocol.

        ``db.origin_time`` is forced back down after every restart, so
        window reports once again claim full coverage of history the
        incarnation never saw; optionally the epoch bump is suppressed
        too (the pre-PR behaviour).
        """
        params = chaos_params(chaos=SHORT_OUTAGE, **self.HOT_CELL)
        model = SimulationModel(params, UNIFORM, "ts")
        server = model.server
        original_restart = server.restart

        def hobbled_restart(now, policy):
            original_restart(now, policy)
            # Lie: "my window spans the crash" (the pre-PR floor).
            model.db.origin_time = float("-inf")
            if not bump_epoch:
                server.epoch = 0  # lie harder: "nothing ever happened"

        server.restart = hobbled_restart
        return model

    def test_recovery_protocol_is_load_bearing(self):
        """Suppress epoch bump + history floor and the oracle convicts.

        A sub-interval outage skips no report tick, so an old client
        stays *covered* by the first post-restart report — which knows
        nothing of the updates wiped by the restart.  Without the epoch
        bump (and with the origin floor lie) the client keeps answering
        from entries the ground-truth update log proves stale.
        """
        model = self._model_with_unsafe_restart(bump_epoch=False)
        with pytest.raises(StalenessViolation) as exc_info:
            model.run()
        violation = exc_info.value
        assert violation.update_times  # ground truth convicts
        assert violation.now > SHORT_OUTAGE.server_crashes_at[0]

    def test_epoch_bump_alone_restores_safety(self):
        # Same hobbled restart (origin floor still lies), but the epoch
        # bump survives: clients purge at the first post-restart report
        # and the very same scenario ends with zero stale answers.
        model = self._model_with_unsafe_restart(bump_epoch=True)
        result = model.run()
        assert result.stale_hits == 0
        assert result.epoch_purges >= BASE.n_clients
        assert result.liveness_ok

    def test_timeline_regression_triggers_purge_without_epoch_change(self):
        """Belt-and-braces: an IR older than the last applied one purges
        even when the epoch looks unchanged."""
        model = SimulationModel(BASE.with_(**RETRY), UNIFORM, "ts")
        model.env.run(until=300.0)
        client = next(
            c for c in model.clients if c.session.last_report_applied is not None
        )
        applied = client.session.last_report_applied
        assert applied > 0.0
        stale_report = WindowReport(
            timestamp=applied - model.params.broadcast_interval,
            window_start=0.0,
            items={},
            n_items=model.params.db_size,
        )
        stale_report.epoch = 0  # same epoch: only the regression trips
        before = model.metrics.counter("chaos.epoch_purges").value
        client._on_downlink(
            Message(
                kind=MessageKind.INVALIDATION_REPORT,
                size_bits=stale_report.size_bits,
                src=SERVER_ID,
                dest=-1,
                payload=stale_report,
            ),
            model.env.now,
        )
        assert model.metrics.counter("chaos.epoch_purges").value == before + 1
        assert len(client.cache) == 0


class TestCrashedServerShedsUplink:
    """Requests into a dead server engage the retry path, not a queue."""

    def test_uplink_shed_and_retries_engage(self):
        # Every uplink send in this protocol reacts to a downlink event
        # (queries wait for the next IR), so a silent server mostly means
        # silent clients too.  The traffic that *does* hit a dead server
        # is timer-driven: retries of exchanges the wireless layer lost.
        # Combine the PR 1 fault injection with a long outage and a short
        # timeout so those retry timers fire inside the crash window.
        params = chaos_params(
            chaos=LONG_OUTAGE,
            downlink_faults=FaultConfig(drop_prob=0.2),
            uplink_faults=FaultConfig(drop_prob=0.2),
            buffer_fraction=0.01,
            think_time_mean=10.0,
            disconnect_prob=0.0,
            uplink_timeout=25.0,
        )
        result = run_simulation(params, UNIFORM, "ts")
        assert result.counter("server.uplink_shed_crashed") > 0
        assert result.counter("client.fetch_timeouts") > 0
        assert result.retries > 0
        # ... and the cell still ends safe and live.
        assert result.stale_hits == 0
        assert result.liveness_ok

    def test_client_crash_keeps_liveness_without_retry_layer(self):
        # Client crashes alone don't require the retry layer: the query
        # loop survives the reboot and the ledger still balances.
        params = BASE.with_(
            strict_staleness=True,
            chaos=ChaosConfig(seed=4, client_crash_mtbf=300.0),
        )
        result = run_simulation(params, UNIFORM, "aaw")
        assert result.counter("chaos.client_crashes") > 0
        assert result.stale_hits == 0
        assert result.liveness_ok
