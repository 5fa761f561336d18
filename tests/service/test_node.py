"""CacheNode: the serving ladder, SWR composition, decorator, health."""

import asyncio

import pytest

from repro.service import (
    BackendUnavailable,
    CacheNode,
    FetchResult,
    FlakyBroker,
    InMemoryBackend,
    InMemoryBroker,
    NodeConfig,
    NodeDegraded,
    Origin,
    RetryConfig,
    ServiceParams,
    SWRConfig,
    VirtualClock,
)
from repro.service.faults import FlakyBackend
from repro.chaos import OutageSchedule

PARAMS = ServiceParams(
    broadcast_interval=20.0, db_size=50, cache_capacity=16, seed=7
)

FAST_RETRY = RetryConfig(
    attempts=2, base_delay=0.05, jitter=0.0, attempt_timeout=0.5
)


def run(coro):
    return asyncio.run(coro)


def build(scheme="ts", config=None, backend_wrap=None, params=PARAMS):
    clock = VirtualClock()
    broker = InMemoryBroker()
    origin = Origin(scheme, params, clock=clock, broker=broker)
    backend = InMemoryBackend(origin)
    if backend_wrap is not None:
        backend = backend_wrap(backend, clock)
    node = CacheNode(
        scheme,
        params,
        backend=backend,
        broker=broker,
        clock=clock,
        config=config or NodeConfig(retry=FAST_RETRY, deadline=0.5),
    )
    return clock, origin, backend, node


async def start_all(clock, origin, node):
    await node.start()
    task = asyncio.get_running_loop().create_task(origin.run())
    return task


def test_miss_then_certified_hit():
    async def main():
        clock, origin, backend, node = build()
        origin_task = await start_all(clock, origin, node)
        await clock.run_until(45.0)
        a = await clock.drive(node.get(3))
        assert (a.source, a.stale) == ("l2", False)
        assert a.tlb == 40.0
        b = await clock.drive(node.get(3))
        assert (b.source, b.stale) == ("b".replace("b", "l1"), False)
        assert backend.fetches == 1
        origin.stop(), origin_task.cancel()
        await node.stop()

    run(main())


def test_ir_invalidation_forces_refetch():
    async def main():
        clock, origin, backend, node = build()
        origin_task = await start_all(clock, origin, node)
        await clock.run_until(45.0)
        a = await clock.drive(node.get(3))
        assert a.version == 0
        await clock.run_until(50.0)
        origin.apply_update(3)
        await clock.run_until(65.0)  # the t=60 report invalidates item 3
        b = await clock.drive(node.get(3))
        assert (b.source, b.version) == ("l2", 1)
        assert node.session.tlb == 60.0
        origin.stop(), origin_task.cancel()
        await node.stop()

    run(main())


def test_swr_stale_serve_is_flagged_and_refreshes():
    async def main():
        cfg = NodeConfig(
            retry=FAST_RETRY,
            deadline=0.5,
            swr=SWRConfig(freshness_seconds=30.0, expiry_seconds=500.0),
        )
        clock, origin, backend, node = build(config=cfg)
        origin_task = await start_all(clock, origin, node)
        await clock.run_until(45.0)
        await clock.drive(node.get(3))
        await clock.run_until(90.0)  # past freshness, before expiry
        a = await clock.drive(node.get(3))
        assert (a.source, a.stale) == ("l1-swr", True)
        assert node.served_stale == 1
        await clock.advance(1.0)  # let the background refresh land
        b = await clock.drive(node.get(3))
        assert (b.source, b.stale) == ("l1", False)
        assert backend.fetches == 2
        assert node.metrics.get("swr.refreshes") == 1
        origin.stop(), origin_task.cancel()
        await node.stop()

    run(main())


def test_swr_expiry_is_a_hard_miss():
    async def main():
        cfg = NodeConfig(
            retry=FAST_RETRY,
            deadline=0.5,
            swr=SWRConfig(freshness_seconds=10.0, expiry_seconds=40.0),
        )
        clock, origin, backend, node = build(config=cfg)
        origin_task = await start_all(clock, origin, node)
        await clock.run_until(45.0)
        await clock.drive(node.get(3))
        await clock.run_until(86.0)  # expired at 45+40=85
        a = await clock.drive(node.get(3))
        assert a.source == "l2"
        assert node.metrics.get("swr.expired") == 1
        assert backend.fetches == 2
        origin.stop(), origin_task.cancel()
        await node.stop()

    run(main())


async def _drive_into_double_outage(clock, origin, node):
    """Warm an entry, kill the IR feed past the window, bring one report
    back while L2 is down: the checking salvage cannot complete, so L1
    is uncertifiable and L2 unreachable — the ladder's bottom rung."""
    await clock.run_until(40.0)
    await origin.publish_once()  # t=40: certifies Tlb=40
    await clock.run_until(45.0)
    a = await clock.drive(node.get(3))
    assert a.source == "l2"
    # Feed silent until far beyond the window; watchdog degrades.
    await clock.run_until(500.0)
    assert node.health().state == "disconnected"
    await origin.publish_once()  # window_start=300 > Tlb: salvage needed
    await clock.advance(2.0)  # check upload retries fail against the outage
    assert node.session.pending


def test_degraded_serves_flagged_stale_when_l2_down():
    async def main():
        outage = OutageSchedule.scripted((490.0, 600.0), name="l2")

        def wrap(inner, clock):
            return FlakyBackend(inner, clock, outage=outage)

        clock, origin, backend, node = build("checking", backend_wrap=wrap)
        await node.start()
        await _drive_into_double_outage(clock, origin, node)
        a = await clock.drive(node.get(3))
        assert (a.source, a.stale) == ("l1-degraded", True)
        assert node.metrics.get("get.l2_failures") >= 1
        assert node.metrics.get("get.certify_timeouts") >= 1
        await node.stop()

    run(main())


def test_strict_mode_raises_instead_of_serving_stale():
    async def main():
        outage = OutageSchedule.scripted((490.0, 600.0), name="l2")

        def wrap(inner, clock):
            return FlakyBackend(inner, clock, outage=outage)

        cfg = NodeConfig(
            retry=FAST_RETRY, deadline=0.5, serve_stale_when_degraded=False
        )
        clock, origin, backend, node = build(
            "checking", config=cfg, backend_wrap=wrap
        )
        await node.start()
        await _drive_into_double_outage(clock, origin, node)
        with pytest.raises(NodeDegraded):
            await clock.drive(node.get(3))
        await node.stop()

    run(main())


class CheckingDown(InMemoryBackend):
    """Fetches work; every validity check fails."""

    async def backend_check(self, client_id, entries):
        raise BackendUnavailable("check service down")


def test_one_validation_watchdog_per_pending_episode():
    """A salvage that cannot complete re-uploads once per timeout from a
    single timer: the reports that keep arriving while the node is
    SALVAGING neither stack watchdogs nor trigger uploads of their own."""

    async def main():
        clock = VirtualClock()
        ir_outage = OutageSchedule.scripted((50.0, 300.0), name="ir")
        broker = FlakyBroker(InMemoryBroker(), clock, outage=ir_outage)
        origin = Origin("checking", PARAMS, clock=clock, broker=broker)
        node = CacheNode(
            "checking",
            PARAMS,
            backend=CheckingDown(origin),
            broker=broker,
            clock=clock,
            config=NodeConfig(retry=FAST_RETRY, deadline=0.5),
        )
        origin_task = await start_all(clock, origin, node)
        await clock.run_until(45.0)
        await clock.drive(node.get(3))
        # The outage outlasts the 200 s window: the first report after
        # it starts a checking salvage that every later report and
        # every timeout finds still pending.
        await clock.run_until(501.0)
        assert node.session.pending
        watchdogs = [
            task
            for task in asyncio.all_tasks()
            if task.get_name().endswith("validation-watchdog") and not task.done()
        ]
        assert len(watchdogs) <= 1
        timeouts = node.metrics.get("validation.timeouts")
        assert timeouts >= 1
        assert node.metrics.get("uplink.check") == 1 + timeouts
        origin.stop(), origin_task.cancel()
        await node.stop()

    run(main())


def test_cached_decorator_materializes_and_reuses():
    async def main():
        clock, origin, backend, node = build()
        origin_task = await start_all(clock, origin, node)
        calls = []

        @node.cached(item=lambda user_id: user_id % 50)
        async def profile(fetched: FetchResult, user_id: int):
            calls.append(user_id)
            return {"user": user_id, "rev": fetched.version}

        await clock.run_until(45.0)
        value = await clock.drive(profile(3))
        assert value == {"user": 3, "rev": 0}
        again = await clock.drive(profile(3))
        assert again == value
        assert calls == [3]  # the hit never re-ran the materializer
        origin.stop(), origin_task.cancel()
        await node.stop()

    run(main())


def test_watchdog_degrades_on_silent_feed_and_salvages_on_return():
    async def main():
        clock, origin, backend, node = build()
        await node.start()
        await clock.run_until(1.0)
        await origin.publish_once()  # t=1
        await clock.run_until(2.0)
        a = await clock.drive(node.get(3))
        assert node.state.is_live
        # Feed silent past the lag budget (2.5 intervals = 50 s).
        await clock.run_until(80.0)
        assert node.health().state == "disconnected"
        assert node.state.tlb_at_disconnect == 1.0
        assert node.metrics.get("ir.feed_losses") == 1
        # Feed returns; the window (200 s) covers the gap: salvage.
        await origin.publish_once()  # t=80
        await clock.advance(0.5)
        assert node.health().state == "live"
        assert node.session.cache.full_drops == 0
        b = await clock.drive(node.get(3))
        assert (b.source, b.stale) == ("l1", False)
        assert b.tlb == 80.0
        await node.stop()

    run(main())


def test_health_reports_the_full_surface():
    async def main():
        clock, origin, backend, node = build()
        origin_task = await start_all(clock, origin, node)
        await clock.run_until(45.0)
        await clock.drive(node.get(3))
        h = node.health()
        assert h.state == "live"
        assert h.tlb == 40.0
        assert h.breakers == {"l2": "closed"}
        assert h.pending_validation is False
        d = h.as_dict()
        assert d["counters"]["get.l2_fetches"] == 1.0
        origin.stop(), origin_task.cancel()
        await node.stop()

    run(main())


def test_context_manager_lifecycle():
    async def main():
        clock, origin, backend, node = build()
        async with node:
            assert node._started
        assert not node._started
        assert node.broker.broker_subscriber_count() == 0

    run(main())
