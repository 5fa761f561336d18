"""The four benchmark workloads, each one *pass* of deterministic work.

A pass is the unit the runner repeats until its time budget is spent:

* ``paper-cell`` / ``lossy-hotspot`` / ``megacell`` build one
  :class:`repro.sim.SimulationModel` per scheme and call ``.run()``;
* ``service-node`` drives a :class:`repro.service.CacheNode` through
  three phases (healthy, SWR, recurring outages) for three schemes.

Inputs (query/update sequences, outage plans) are drawn from the seed
before any timer starts; the timed regions contain only calls through
the public entry points.  Every pass returns a :class:`PassResult`
holding host timings, the modelled outputs, the program counters that
feed the output digest, and the messages of any failed output check.
"""

from __future__ import annotations

import asyncio
import gc
import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import reference
from repro.chaos import OutageSchedule
from repro.net import FaultConfig
from repro.reports.sizes import checking_upload_bits, tlb_upload_bits
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
from repro.sim import (
    HOTCOLD,
    UNIFORM,
    AggregationConfig,
    SimulationModel,
    SystemParams,
)

#: Every registered scheme, in the paper's order.
ALL_SCHEMES = ("ts", "at", "sig", "bs", "checking", "gcore", "afw", "aaw")

#: Raw keys naming the kernel build, not a modelled quantity.
IDENTITY_KEYS = ("kernel.backend", "kernel.heap")


@dataclass
class PassResult:
    """One pass of a workload: timings, modelled outputs, counters."""

    #: Host CPU seconds building the models / nodes, and of
    #: ``model.run()`` / the query-update loop, by timed unit (a scheme's
    #: model, a service cell, a stretch of a cell's loop).  The units are
    #: the same in every pass, so the runner can compare them across passes.
    setup_units: Dict[str, float] = field(default_factory=dict)
    run_units: Dict[str, float] = field(default_factory=dict)
    #: CPU seconds of the reference loops timed before each scheme or
    #: cell and at the end of the pass (see reference.py).
    reference_s: List[float] = field(default_factory=list)
    #: Queries answered (sim) or answers served (service).
    answers: int = 0
    #: Queries generated (sim) or gets issued (service).
    attempted: int = 0
    #: Refusals + fetch failures + stale hits.
    failed: int = 0
    #: Host wall microseconds of each get (service only).
    op_us: List[float] = field(default_factory=list)
    #: Modelled (virtual-time) outputs, fixed by the seed.
    model: Dict[str, float] = field(default_factory=dict)
    #: Program counters and histograms: the digest's input.
    counters: Dict[str, object] = field(default_factory=dict)
    #: Messages of failed output checks (empty = all passed).
    problems: List[str] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return sum(self.setup_units.values())

    @property
    def run_s(self) -> float:
        return sum(self.run_units.values())


# -- simulator workloads -------------------------------------------------------


def paper_cell_params(seed: int, scale: float) -> SystemParams:
    """Table 1 cell: 100 clients, db 1000, 10 % doze, lossless medium."""
    return SystemParams(
        simulation_time=8_000.0 * scale,
        n_clients=100,
        db_size=1_000,
        disconnect_prob=0.1,
        disconnect_time_mean=200.0,
        seed=seed,
    )


def lossy_hotspot_params(seed: int, scale: float) -> SystemParams:
    """Dense, write-heavy, lossy cell: every report invalidates."""
    return SystemParams(
        simulation_time=3_600.0 * scale,
        n_clients=300,
        db_size=1_000,
        disconnect_prob=0.3,
        disconnect_time_mean=300.0,
        update_interarrival_mean=10.0,
        downlink_faults=FaultConfig(drop_prob=0.02, bit_error_rate=1e-6),
        seed=seed,
    )


def megacell_params(seed: int, scale: float) -> SystemParams:
    """Pooled 200k-client cell dominated by long dozes (see bench_megacell).

    Dozes average 300 000 s, far beyond the horizon, so the tail stays
    pooled; ~1600 members still wake and are promoted within it.
    """
    return SystemParams(
        simulation_time=2_400.0 * scale,
        n_clients=max(1_000, int(200_000 * scale)),
        db_size=1_000,
        buffer_fraction=0.02,
        think_time_mean=100.0,
        update_interarrival_mean=100.0,
        disconnect_prob=0.9,
        disconnect_time_mean=300_000.0,
        warm_start=True,
        seed=seed,
        aggregation=AggregationConfig(
            k_exact=128, start_in_pool=1.0, min_doze_intervals=2.0
        ),
    )


@dataclass(frozen=True)
class SimWorkload:
    name: str
    params: Callable[[int, float], SystemParams]
    query_workload: object
    schemes: Tuple[str, ...]


def _digest_raw(raw: Dict[str, object]) -> Dict[str, object]:
    return {k: v for k, v in sorted(raw.items()) if k not in IDENTITY_KEYS}


def run_sim_pass(workload: SimWorkload, seed: int, scale: float) -> PassResult:
    """Build and run one model per scheme; check and tally each run."""
    out = PassResult()
    answered = sim_time = uplink_bits = latency_sum = 0.0
    for scheme in workload.schemes:
        params = workload.params(seed, scale)
        gc.collect()
        out.reference_s.append(reference.time_loop())
        c0 = time.process_time()
        model = SimulationModel(params, workload.query_workload, scheme)
        c1 = time.process_time()
        result = model.run()
        c2 = time.process_time()
        raw = result.raw
        raw["channel.messages_delivered"] = float(
            sum(
                channel.stats.messages_delivered
                for channel in (model.downlink, model.uplink, model.ir_channel)
                if channel is not None
            )
        )
        del model
        out.setup_units[scheme] = c1 - c0
        out.run_units[scheme] = c2 - c1

        n = result.queries_answered
        out.answers += int(n)
        out.attempted += int(result.counter("queries.generated"))
        out.failed += int(result.fetch_failures + result.stale_hits)
        answered += n
        sim_time += result.sim_time
        uplink_bits += result.counter("uplink.validation_bits")
        latency_sum += result.mean_query_latency * n

        out.counters[scheme] = _digest_raw(raw)
        verdict = result.oracle_verdict
        if verdict != "SAFE":
            out.problems.append(f"{scheme}: oracle verdict {verdict}")
        if not result.liveness_ok:
            out.problems.append(f"{scheme}: liveness ledger does not balance")
        if result.stale_hits:
            out.problems.append(f"{scheme}: {result.stale_hits:g} stale hits")
        if n <= 0:
            out.problems.append(f"{scheme}: no query answered")
        if params.aggregation is not None:
            live = raw["clients.live_at_horizon"]
            residents = raw["pool.residents_at_horizon"]
            if live + residents != params.n_clients:
                out.problems.append(
                    f"{scheme}: live {live:g} + residents {residents:g} "
                    f"!= n_clients {params.n_clients}"
                )
    out.reference_s.append(reference.time_loop())
    out.model = {
        "model_throughput_qps": answered / sim_time,
        "model_uplink_bits_per_query": uplink_bits / answered if answered else 0.0,
        "model_latency_mean_s": latency_sum / answered if answered else 0.0,
    }
    return out


SIM_WORKLOADS = {
    w.name: w
    for w in (
        SimWorkload("paper-cell", paper_cell_params, UNIFORM, ALL_SCHEMES),
        SimWorkload("lossy-hotspot", lossy_hotspot_params, HOTCOLD, ALL_SCHEMES),
        SimWorkload("megacell", megacell_params, UNIFORM, ("aaw",)),
    )
}


# -- service workload ----------------------------------------------------------

SERVICE_SCHEMES = ("ts", "checking", "aaw")
SERVICE_PHASES = ("healthy", "swr", "outage")
#: Gets per (phase, scheme) cell at scale 1: 9 cells, 54k gets a pass.
GETS_PER_CELL = 6_000
QUERY_STRIDE = 2.0
UPDATE_STRIDE = 9.0
#: Virtual seconds one L2 round trip takes.
L2_LATENCY = 0.05
#: Recurring IR-feed outages: most outlast the watchdog's 50 s lag
#: budget (the node degrades, then salvages); few outlast the 200 s
#: report window.
IR_MTBF, IR_DOWNTIME = 600.0, 60.0
#: Recurring short L2 outages, ridden out by the retry budget below.
L2_MTBF, L2_DOWNTIME = 60.0, 0.2
#: Five attempts keep retrying for at least 5.3 s: 26 mean downtimes,
#: so no get is refused (and the breaker's 5-failure threshold is
#: never reached by one get).
RETRY = RetryConfig(
    attempts=5, base_delay=0.25, max_delay=2.0, jitter=0.25, attempt_timeout=0.5
)
SWR = SWRConfig(freshness_seconds=40.0, expiry_seconds=100_000.0)
#: Bucket base (virtual seconds) of the answer-age histogram.
AGE_BUCKET_BASE = 0.5
#: Queries and updates per timed stretch of a cell's loop (~70 ms of CPU).
SEGMENT_EVENTS = 1_000


def service_params(seed: int) -> ServiceParams:
    return ServiceParams(
        broadcast_interval=20.0,
        window_intervals=10,
        db_size=128,
        cache_capacity=64,
        seed=seed,
    )


@dataclass(frozen=True)
class ServiceCellInputs:
    phase: str
    scheme: str
    events: Tuple[Tuple[float, str, int], ...]
    ir_outage: object
    l2_outage: object


def service_inputs(seed: int, scale: float) -> List[ServiceCellInputs]:
    """Every cell's query/update schedule and outage plan, from the seed."""
    n_gets = max(10, int(GETS_PER_CELL * scale))
    horizon = n_gets * QUERY_STRIDE
    db_size = service_params(seed).db_size
    cells = []
    for phase in SERVICE_PHASES:
        # One sequence per phase: the three schemes see the same inputs.
        rng = random.Random(f"perfbench/{seed}/{phase}")
        events = [(1.0 + i * QUERY_STRIDE, "q", rng.randrange(db_size))
                  for i in range(n_gets)]
        t = 4.5
        while t < horizon:
            events.append((t, "u", rng.randrange(db_size)))
            t += UPDATE_STRIDE
        events.sort()
        ir = l2 = None
        if phase == "outage":
            ir = OutageSchedule.sampled(
                seed, horizon, mtbf=IR_MTBF, downtime_mean=IR_DOWNTIME,
                name="ir-feed",
            )
            l2 = OutageSchedule.sampled(
                seed, horizon, mtbf=L2_MTBF, downtime_mean=L2_DOWNTIME, name="l2"
            )
        for scheme in SERVICE_SCHEMES:
            cells.append(
                ServiceCellInputs(phase, scheme, tuple(events), ir, l2)
            )
    return cells


class MeteredBackend(InMemoryBackend):
    """The in-memory L2, tallying validation uplink bits that reach it."""

    def __init__(self, origin: Origin, latency: float) -> None:
        super().__init__(origin, latency)
        self.validation_bits = 0.0

    async def backend_push_tlb(self, client_id: int, tlb: float) -> None:
        self.validation_bits += tlb_upload_bits(self.origin.params.timestamp_bits)
        await super().backend_push_tlb(client_id, tlb)

    async def backend_check(self, client_id, entries):
        params = self.origin.params
        self.validation_bits += checking_upload_bits(
            len(entries), params.db_size, params.timestamp_bits
        )
        return await super().backend_check(client_id, entries)


def _age_histogram(ages: List[float]) -> Dict[str, int]:
    """Power-of-two buckets over ``AGE_BUCKET_BASE`` (exact integer counts)."""
    hist: Dict[str, int] = {}
    for age in ages:
        k = -1 if age < AGE_BUCKET_BASE else int(age / AGE_BUCKET_BASE).bit_length() - 1
        hist[str(k)] = hist.get(str(k), 0) + 1
    return dict(sorted(hist.items(), key=lambda kv: int(kv[0])))


async def _service_cell(cell: ServiceCellInputs, seed: int, out: PassResult,
                        ages: List[float], tally: Dict[str, float]) -> None:
    params = service_params(seed)
    key = f"{cell.phase}/{cell.scheme}"
    swr = SWR if cell.phase == "swr" else None
    c0 = time.process_time()
    clock = VirtualClock()
    broker = InMemoryBroker()
    if cell.ir_outage is not None:
        broker = FlakyBroker(broker, clock, outage=cell.ir_outage)
    origin = Origin(cell.scheme, params, clock=clock, broker=broker)
    metered = MeteredBackend(origin, L2_LATENCY)
    backend = metered
    if cell.l2_outage is not None:
        backend = FlakyBackend(metered, clock, outage=cell.l2_outage)
    node = CacheNode(
        cell.scheme,
        params,
        backend=backend,
        broker=broker,
        clock=clock,
        config=NodeConfig(retry=RETRY, deadline=0.5, swr=swr),
    )
    await node.start()
    c1 = time.process_time()

    origin_task = asyncio.get_running_loop().create_task(origin.run())
    log = origin.update_log
    op_us = out.op_us
    perf = time.perf_counter
    gets = answers = refusals = stale_hits = 0
    virtual_latency = 0.0
    events = cell.events
    mark = c1
    for start in range(0, len(events), SEGMENT_EVENTS):
        for t, kind, item in events[start:start + SEGMENT_EVENTS]:
            if clock.now() < t:
                await clock.run_until(t)
            if kind == "u":
                origin.apply_update(item)
                continue
            gets += 1
            v0 = clock.now()
            w0 = perf()
            try:
                answer = await clock.drive(node.get(item))
            except ServiceError:
                refusals += 1
                continue
            op_us.append((perf() - w0) * 1e6)
            virtual_latency += clock.now() - v0
            answers += 1
            ages.append(answer.age)
            if not answer.stale and log.updated_in(
                answer.item, after=answer.ts, up_to=answer.tlb
            ):
                stale_hits += 1
        now = time.process_time()
        out.run_units[f"{key}/{start}"] = now - mark
        mark = now
    virtual_span = clock.now()
    origin.stop()
    origin_task.cancel()
    try:
        await origin_task
    except asyncio.CancelledError:
        pass
    await node.stop()
    c2 = time.process_time()

    out.setup_units[key] = c1 - c0
    out.run_units[f"{key}/stop"] = c2 - mark
    out.answers += answers
    out.attempted += gets
    out.failed += refusals + stale_hits
    tally["virtual_s"] += virtual_span
    tally["virtual_latency_s"] += virtual_latency
    tally["validation_bits"] += metered.validation_bits
    out.counters[key] = {
        "gets": gets,
        "answers": answers,
        "refusals": refusals,
        "stale_hits": stale_hits,
        "breaker_trips": node.breaker.trips,
        "served_stale": node.served_stale,
        "reports_lost": getattr(broker, "reports_lost", 0),
        "reports_published": origin.reports_published,
        "validation_bits": metered.validation_bits,
        "virtual_latency_s": round(virtual_latency, 9),
        "node": node.metrics.snapshot(),
    }
    if stale_hits:
        out.problems.append(f"{key}: {stale_hits} unflagged stale answers")
    if refusals:
        out.problems.append(f"{key}: {refusals} gets refused")
    if cell.ir_outage is not None:
        # Report k goes out at k * L: exactly those inside a window vanish.
        interval = params.broadcast_interval
        expected = sum(
            cell.ir_outage.down_at(k * interval)
            for k in range(1, origin.reports_published + 1)
        )
        if broker.reports_lost != expected:
            out.problems.append(
                f"{key}: {broker.reports_lost} reports lost, "
                f"the outage plan covers {expected}"
            )


async def _service_pass(cells: List[ServiceCellInputs], seed: int) -> PassResult:
    out = PassResult()
    ages: List[float] = []
    tally = {"virtual_s": 0.0, "virtual_latency_s": 0.0, "validation_bits": 0.0}
    for cell in cells:
        gc.collect()
        out.reference_s.append(reference.time_loop())
        await _service_cell(cell, seed, out, ages, tally)
    out.reference_s.append(reference.time_loop())
    ages.sort()
    out.counters["answer_age_histogram"] = _age_histogram(ages)
    answers = out.answers
    out.model = {
        "model_throughput_qps": answers / tally["virtual_s"],
        "model_uplink_bits_per_query": (
            tally["validation_bits"] / answers if answers else 0.0
        ),
        "model_latency_mean_s": (
            tally["virtual_latency_s"] / out.attempted if out.attempted else 0.0
        ),
        "answer_age_p99_s": percentile(ages, 0.99) if ages else 0.0,
    }
    return out


def run_service_pass(cells: List[ServiceCellInputs], seed: int) -> PassResult:
    return asyncio.run(_service_pass(cells, seed))


# -- shared helpers ------------------------------------------------------------


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank q-quantile of an ascending list (an observed value)."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = min(max(1, math.ceil(q * len(sorted_values))), len(sorted_values))
    return sorted_values[rank - 1]


WORKLOADS = ("paper-cell", "lossy-hotspot", "megacell", "service-node")


def make_pass(name: str, seed: int, scale: float = 1.0) -> Callable[[], PassResult]:
    """Generate *name*'s inputs from *seed*; return the pass to time."""
    if name in SIM_WORKLOADS:
        workload = SIM_WORKLOADS[name]
        return lambda: run_sim_pass(workload, seed, scale)
    if name == "service-node":
        cells = service_inputs(seed, scale)
        return lambda: run_service_pass(cells, seed)
    raise KeyError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")

