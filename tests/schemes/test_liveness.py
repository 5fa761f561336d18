"""Liveness: no scheme may wedge a client permanently.

The dangerous pattern: a checking-style client uploads its cache, then
dozes before the validity reply lands.  The reply is lost on the air
(broadcast delivery is instantaneous, not a mailbox); without a reset
the client would treat every future report as "still pending" and never
answer another query.
"""

import pytest

from repro.schemes import (
    CheckingClientPolicy,
    CheckingServerPolicy,
    GCOREClientPolicy,
    SessionOutcome,
    available_schemes,
)
from repro.sim import SimulationModel, SystemParams, UNIFORM


class TestLostReplyRecovery:
    @pytest.mark.parametrize(
        "client_cls,server_cls",
        [
            (CheckingClientPolicy, CheckingServerPolicy),
            (GCOREClientPolicy, CheckingServerPolicy),
        ],
    )
    def test_reconnect_clears_pending_check(
        self, params, db, ctx, session_of, client_cls, server_cls
    ):
        ctx.cache_items((2, 10.0))
        ctx.tlb = 30.0
        server = server_cls(params=params, db=db)
        session = session_of(client_cls(params=params, client_id=0))
        assert session.offer_report(server.build_report(None, 500.0), 500.0) is (
            SessionOutcome.PENDING
        )
        # The reply never arrives: the client dozes and wakes up.
        session.reconnect(900.0)
        # The next uncovered report triggers a fresh upload, not a wedge.
        outcome = session.offer_report(server.build_report(None, 920.0), 920.0)
        assert outcome is SessionOutcome.PENDING
        assert len(ctx.check_requests) == 2


class TestEveryClientKeepsAnswering:
    @pytest.mark.parametrize("scheme", sorted(available_schemes()))
    def test_all_clients_answer_queries_under_churn(self, scheme):
        """Under frequent doze cycles every client must stay live.

        Catches wedges statistically: with 3000 s of simulated time and
        ~19 expected queries per client, a permanently stuck client would
        show as a generated-answered gap far above the in-flight slack.
        """
        params = SystemParams(
            simulation_time=3000.0,
            n_clients=8,
            db_size=60,
            buffer_fraction=0.4,
            think_time_mean=40.0,
            disconnect_prob=0.4,
            disconnect_time_mean=120.0,
            seed=5,
        )
        result = SimulationModel(params, UNIFORM, scheme).run()
        generated = result.counter("queries.generated")
        answered = result.counter("queries.answered")
        assert generated > 50
        # Every generated query either completed or is the (single)
        # in-flight one per client at the horizon.
        assert generated - answered <= params.n_clients
