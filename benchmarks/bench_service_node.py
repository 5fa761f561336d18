"""Service-node benchmark: the `CacheNode` façade on virtual time.

Three scenarios, each a deterministic virtual-time campaign through
:class:`repro.service.CacheNode` (same DES-backed driver as
tests/service/test_degradation_campaign.py, denser query schedule):

* ``steady``   — healthy feed and backend: hit/miss throughput;
* ``swr``      — stale-while-revalidate on: flagged stale serves and
  background refresh throughput;
* ``degraded`` — scripted IR-feed and L2 outages: served-stale /
  refusal / answer-age accounting across the degradation ladder.

Every hard assertion is an event-count or oracle check — never
wall-clock (shared runners throttle unpredictably); timings ride the
JSON payload as telemetry.  The strict-staleness oracle runs inside
every cell: an unflagged answer contradicted by the origin's update log
counts as a stale hit, and ``sweep_common.oracle_summary`` renders the
tally exactly as the simulator sweeps do.  Refresh the baseline with::

    PYTHONPATH=src python benchmarks/bench_service_node.py --out BENCH_service.json
"""

import asyncio

from sweep_common import format_sweep_table

from repro.chaos import OutageSchedule
from repro.des.rng import RandomStream
from repro.service import (
    CacheNode,
    FlakyBackend,
    FlakyBroker,
    InMemoryBackend,
    InMemoryBroker,
    NodeConfig,
    Origin,
    RetryConfig,
    ServiceError,
    ServiceParams,
    SWRConfig,
    VirtualClock,
)

PARAMS = ServiceParams(
    broadcast_interval=20.0,
    window_intervals=10,
    db_size=128,
    cache_capacity=64,
    seed=23,
)

RETRY = RetryConfig(attempts=2, base_delay=0.05, jitter=0.0, attempt_timeout=0.5)

HORIZON = 600.0
QUERY_STRIDE = 2.0
UPDATE_STRIDE = 9.0

SCENARIOS = ("steady", "swr", "degraded")
SCHEMES = ("ts", "checking", "aaw")

#: Per-scenario knobs: SWR timers and scripted outage windows.
SCENARIO_KNOBS = {
    "steady": dict(swr=None, ir_outage=None, l2_outage=None),
    "swr": dict(
        swr=SWRConfig(freshness_seconds=40.0, expiry_seconds=100_000.0),
        ir_outage=None,
        l2_outage=None,
    ),
    "degraded": dict(
        swr=None,
        ir_outage=(200.0, 320.0),  # 6 reports lost; gap < window
        l2_outage=(400.0, 450.0),
    ),
}


class ServiceCell:
    """One finished campaign, shaped for ``sweep_common``'s renderers."""

    def __init__(self, scenario, scheme):
        self.scenario = scenario
        self.scheme = scheme
        self.answers = 0
        self.l1_hits = 0
        self.l2_fetches = 0
        self.served_stale = 0
        self.refusals = 0
        self.swr_refreshes = 0
        self.feed_losses = 0
        self.reports_lost = 0
        self.breaker_trips = 0
        self.full_drops = 0
        self.age_sum = 0.0
        #: Unflagged answers contradicted by the origin's update log.
        self.stale_hits = 0

    @property
    def oracle_verdict(self):
        return "SAFE" if self.stale_hits == 0 else "STALE-HITS"

    @property
    def mean_age(self):
        return self.age_sum / self.answers if self.answers else 0.0

    def as_row(self):
        return {
            "answers": self.answers,
            "l1_hits": self.l1_hits,
            "l2_fetches": self.l2_fetches,
            "served_stale": self.served_stale,
            "refusals": self.refusals,
            "swr_refreshes": self.swr_refreshes,
            "feed_losses": self.feed_losses,
            "reports_lost": self.reports_lost,
            "breaker_trips": self.breaker_trips,
            "full_drops": self.full_drops,
            "mean_age_s": round(self.mean_age, 3),
            "stale_hits": self.stale_hits,
        }


def _times(offset, stride, horizon):
    out = []
    t = offset
    while t < horizon:
        out.append(round(t, 6))
        t += stride
    return out


async def _campaign(scenario, scheme, horizon):
    knobs = SCENARIO_KNOBS[scenario]
    # Outage windows ride the horizon so a scaled-down smoke run still
    # walks through both failures (the IR gap stays under the window).
    scale = horizon / HORIZON
    cell = ServiceCell(scenario, scheme)
    clock = VirtualClock()
    broker = InMemoryBroker()
    if knobs["ir_outage"] is not None:
        start, end = knobs["ir_outage"]
        broker = FlakyBroker(
            broker,
            clock,
            outage=OutageSchedule.scripted((start * scale, end * scale)),
        )
    origin = Origin(scheme, PARAMS, clock=clock, broker=broker)
    backend = InMemoryBackend(origin)
    if knobs["l2_outage"] is not None:
        start, end = knobs["l2_outage"]
        backend = FlakyBackend(
            backend,
            clock,
            outage=OutageSchedule.scripted((start * scale, end * scale)),
        )
    node = CacheNode(
        scheme,
        PARAMS,
        backend=backend,
        broker=broker,
        clock=clock,
        config=NodeConfig(retry=RETRY, deadline=0.5, swr=knobs["swr"]),
    )
    await node.start()
    origin_task = asyncio.get_running_loop().create_task(origin.run())

    queries = RandomStream(PARAMS.seed, "bench/queries")
    updates = RandomStream(PARAMS.seed, "bench/updates")
    events = sorted(
        [(t, "q") for t in _times(1.0, QUERY_STRIDE, horizon)]
        + [(t, "u") for t in _times(4.5, UPDATE_STRIDE, horizon)]
    )
    for t, kind in events:
        if clock.now() < t:
            await clock.run_until(t)
        if kind == "u":
            origin.apply_update(
                int(updates.uniform(0.0, PARAMS.db_size)) % PARAMS.db_size
            )
            continue
        item = int(queries.uniform(0.0, PARAMS.db_size)) % PARAMS.db_size
        try:
            answer = await clock.drive(node.get(item))
        except ServiceError:
            cell.refusals += 1
            continue
        cell.answers += 1
        cell.age_sum += answer.age
        if answer.stale:
            cell.served_stale += 1
        elif origin.update_log.updated_in(
            answer.item, after=answer.ts, up_to=answer.tlb
        ):
            cell.stale_hits += 1
        if answer.source in ("l1", "l1-swr", "l1-degraded"):
            cell.l1_hits += 1

    origin.stop()
    origin_task.cancel()
    cell.l2_fetches = int(node.metrics.get("get.l2_fetches"))
    cell.swr_refreshes = int(node.metrics.get("swr.refreshes"))
    cell.feed_losses = int(node.metrics.get("ir.feed_losses"))
    cell.breaker_trips = node.breaker.trips
    cell.full_drops = node.session.cache.full_drops
    cell.reports_lost = getattr(broker, "reports_lost", 0)
    await node.stop()
    return cell


def run_service_cell(scenario, scheme, horizon_scale: float = 1.0) -> ServiceCell:
    cell = asyncio.run(_campaign(scenario, scheme, HORIZON * horizon_scale))
    check_service(cell)
    return cell


def check_service(cell: ServiceCell):
    """Hard gates: event counts and the oracle — never timing."""
    assert cell.answers > 0, "no answers served"
    assert cell.l1_hits > 0, "cache never hit"
    assert cell.l2_fetches > 0, "backend never fetched"
    assert cell.stale_hits == 0, "oracle: unflagged stale answer served"
    if cell.scenario == "swr":
        assert cell.served_stale > 0, "SWR scenario served nothing stale"
        assert cell.swr_refreshes > 0, "SWR never refreshed in background"
    if cell.scenario == "degraded":
        assert cell.reports_lost > 0, "IR outage dropped nothing"
        assert cell.feed_losses >= 1, "watchdog never saw the feed loss"
        assert cell.served_stale + cell.refusals + cell.breaker_trips > 0, (
            "L2 outage left no trace"
        )


def collect_service_baseline(horizon_scale: float = 1.0, schemes=SCHEMES) -> dict:
    from perf_baseline import measure

    results = {}
    for scenario in SCENARIOS:
        for scheme in schemes:
            cell, wall, cpu = measure(
                run_service_cell, scenario, scheme, horizon_scale, repeats=1
            )
            row = cell.as_row()
            row.update(
                wall_s=round(wall, 6),
                cpu_s=round(cpu, 6),
                answers_per_sec_cpu=round(cell.answers / cpu, 1) if cpu else None,
            )
            results[f"{scenario}/{scheme}"] = row
    return results


# -- pytest entry points (CI perf-smoke runs exactly these) -----------------


def test_service_bench_smoke():
    """Every scenario completes with its failure modes actually felt."""
    for scenario in SCENARIOS:
        run_service_cell(scenario, "ts", horizon_scale=0.5)


def test_service_bench_counts_deterministic():
    """Same scenario, same seed, same event counts."""
    a = run_service_cell("degraded", "checking", horizon_scale=0.5)
    b = run_service_cell("degraded", "checking", horizon_scale=0.5)
    assert a.as_row() == b.as_row()


# -- baseline emission -----------------------------------------------------


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_service.json")
    parser.add_argument("--horizon-scale", type=float, default=1.0)
    parser.add_argument(
        "--schemes", nargs="+", default=list(SCHEMES), help="schemes per scenario"
    )
    args = parser.parse_args(argv)
    from perf_baseline import baseline_envelope, write_baseline

    cells = {}
    for scenario in SCENARIOS:
        for scheme in args.schemes:
            cells[(scenario, scheme)] = run_service_cell(
                scenario, scheme, args.horizon_scale
            )
    print(
        format_sweep_table(
            "service node: answers/stale/refused per campaign",
            cells,
            SCENARIOS,
            list(args.schemes),
            cell=lambda c: f"{c.answers}a/{c.served_stale}s/{c.refusals}r",
            row_label="mode",
        )
    )
    results = collect_service_baseline(
        horizon_scale=args.horizon_scale, schemes=tuple(args.schemes)
    )
    payload = baseline_envelope(
        "service",
        results,
        config={
            "horizon_scale": args.horizon_scale,
            "horizon": HORIZON,
            "query_stride": QUERY_STRIDE,
            "update_stride": UPDATE_STRIDE,
            "schemes": list(args.schemes),
            "scenarios": {
                name: {
                    k: (v if not isinstance(v, SWRConfig) else vars(v))
                    for k, v in knobs.items()
                }
                for name, knobs in SCENARIO_KNOBS.items()
            },
        },
    )
    print(f"wrote {write_baseline(args.out, payload)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
