"""Megacell benchmark: ≥100k-client cells via population aggregation.

The exact simulator builds one coroutine + cache per client, which caps
a cell around a few hundred clients; the population pool
(:mod:`repro.sim.population`) keeps only the K "interesting" clients
full-fidelity and parks the long-dozing tail as counts-per-stratum, so a
cell's working set scales with the *churn* (absorbs/promotions per
interval), not the population.  This bench pins that trajectory:

* ``megacell-100k`` — 100 000 clients, ~64 live at any instant;
* ``megacell-1m`` — the ROADMAP's million-client cell (~128 live).

Both start in the pool's steady-state initial condition
(``start_in_pool=1.0``), an explicit approximation: members park
mid-doze at t=0 instead of being constructed, so these configs are *not*
bit-comparable to an exact run — the differential campaign
(tests/sim/test_population_differential.py) establishes equivalence at
sizes where both models fit.  Every hard assertion below is an
event-count / conservation / liveness check, never wall-clock or RSS
(shared runners throttle unpredictably); timings and memory ride the
JSON payload as telemetry, with the model build (``build_s``) and
``run()`` (``run_s``) timed apart.  Refresh the persisted baseline
with::

    PYTHONPATH=src python benchmarks/bench_megacell.py --out BENCH_megacell.json

CI's perf-smoke job runs the 100k tests below and emits both cells at
half horizon, so the 1M cell's gates are asserted there too.
"""

import resource

from repro.sim import (
    AggregationConfig,
    SimulationModel,
    SystemParams,
    UNIFORM,
    run_simulation,
)

#: Keyword bases per config; ``simulation_time`` scales with the horizon.
CONFIGS = {
    "megacell-100k": dict(
        simulation_time=600.0,
        n_clients=100_000,
        k_exact=64,
        seed=11,
    ),
    "megacell-1m": dict(
        simulation_time=200.0,
        n_clients=1_000_000,
        k_exact=128,
        seed=11,
    ),
}

#: Shared cell shape: a dense population dominated by long dozes (the
#: regime aggregation exists for — think 100k phones, most of them
#: pocketed), over the paper's 1000-item database.
BASE = dict(
    db_size=1_000,
    buffer_fraction=0.02,
    think_time_mean=100.0,
    update_interarrival_mean=100.0,
    disconnect_prob=0.9,
    warm_start=True,
)


def params_for(config: str, horizon_scale: float = 1.0) -> SystemParams:
    kwargs = dict(CONFIGS[config])
    k_exact = kwargs.pop("k_exact")
    kwargs["simulation_time"] = kwargs["simulation_time"] * horizon_scale
    # Dozes far longer than the horizon: the tail stays pooled and the
    # live set is churn-bound, which is exactly the claim under test.
    kwargs["disconnect_time_mean"] = 500.0 * kwargs["simulation_time"]
    return SystemParams(
        **BASE,
        **kwargs,
        aggregation=AggregationConfig(
            k_exact=k_exact, start_in_pool=1.0, min_doze_intervals=2.0
        ),
    )


def check_megacell(result, params: SystemParams):
    """Hard gates: event counts, conservation, liveness — never timing."""
    events = result.counter("kernel.events_scheduled")
    assert events > 0, "no events"
    # Pooled members wait in the pool's wake calendar, not on the event
    # heap: the kernel's work tracks the live set and the promotions,
    # far below one event per client.
    assert events < 0.1 * params.n_clients, (
        f"{events:g} kernel events for {params.n_clients} clients — "
        "pooled members are costing events"
    )
    assert result.queries_answered > 0, "no queries answered"
    assert result.counter("pool.seeded") > 0, "pool never seeded"
    assert result.counter("pool.promoted") > 0, "no member promoted"
    # Conservation: every client is live or pooled at the horizon.
    live = result.raw["clients.live_at_horizon"]
    residents = result.raw["pool.residents_at_horizon"]
    assert live + residents == params.n_clients, "pool leaked clients"
    # The point of the pool: the live set stays a sliver of the cell.
    assert live <= max(0.05 * params.n_clients, 10 * params.aggregation.k_exact), (
        f"{live} live actors — aggregation is not holding the tail"
    )
    assert result.raw["oracle.liveness_ok"] == 1.0, "liveness ledger imbalance"
    assert result.stale_hits == 0, "exactness violated"


def run_megacell(config: str, scheme: str = "aaw", horizon_scale: float = 1.0):
    params = params_for(config, horizon_scale)
    result = run_simulation(params, UNIFORM, scheme)
    check_megacell(result, params)
    return result


def collect_megacell_baseline(
    horizon_scale: float = 1.0, configs=tuple(CONFIGS)
) -> dict:
    from perf_baseline import measure

    results = {}
    for config in configs:
        params = params_for(config, horizon_scale)
        model, build_wall, build_cpu = measure(
            SimulationModel, params, UNIFORM, "aaw", repeats=1
        )
        result, run_wall, run_cpu = measure(model.run, repeats=1)
        del model
        check_megacell(result, params)
        cpu = build_cpu + run_cpu
        events = result.counter("kernel.events_scheduled")
        results[config] = {
            "n_clients": CONFIGS[config]["n_clients"],
            "wall_s": round(build_wall + run_wall, 6),
            "cpu_s": round(cpu, 6),
            # CPU seconds of the model build and of run(), apart.
            "build_s": round(build_cpu, 6),
            "run_s": round(run_cpu, 6),
            "events_scheduled": int(events),
            "events_per_sec_cpu": round(events / cpu, 1) if cpu else None,
            "queries_answered": result.queries_answered,
            "pool_seeded": result.counter("pool.seeded"),
            "pool_absorbed": result.counter("pool.absorbed"),
            "pool_promoted": result.counter("pool.promoted"),
            "pool_peak_residents": result.raw["pool.peak_residents"],
            "pool_strata_at_horizon": result.raw["pool.strata_at_horizon"],
            "clients_live_at_horizon": result.raw["clients.live_at_horizon"],
            # Process high-water mark AFTER this run: an upper bound on
            # the cell's footprint (telemetry only, never asserted).
            "rss_peak_mb": round(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
            ),
        }
    return results


# -- pytest entry points (CI megacell-smoke runs exactly these) -------------


def test_megacell_100k_smoke():
    """A 100k-client cell completes with the tail held in the pool."""
    run_megacell("megacell-100k", "aaw", horizon_scale=0.5)


def test_megacell_event_counts_deterministic():
    """Same config, same seed, same events — seeding included."""
    a = run_megacell("megacell-100k", "ts", horizon_scale=0.2)
    b = run_megacell("megacell-100k", "ts", horizon_scale=0.2)
    assert a.raw == b.raw


# -- baseline emission -----------------------------------------------------


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_megacell.json")
    parser.add_argument("--horizon-scale", type=float, default=1.0)
    parser.add_argument(
        "--configs",
        nargs="+",
        default=list(CONFIGS),
        choices=list(CONFIGS),
        help="subset of cells to run",
    )
    args = parser.parse_args(argv)
    from perf_baseline import baseline_envelope, write_baseline

    results = collect_megacell_baseline(
        horizon_scale=args.horizon_scale, configs=tuple(args.configs)
    )
    payload = baseline_envelope(
        "megacell",
        results,
        config={
            "horizon_scale": args.horizon_scale,
            "configs": {name: CONFIGS[name] for name in args.configs},
            "base": BASE,
            "scheme": "aaw",
        },
    )
    print(f"wrote {write_baseline(args.out, payload)}")
    for config, row in results.items():
        print(
            f"  {config:>14s}  {row['n_clients']:>9,d} clients  "
            f"build {row['build_s']:.2f}s  run {row['run_s']:.2f}s  "
            f"events {row['events_scheduled']:,d}  "
            f"rss≤{row['rss_peak_mb']:.0f}MB  "
            f"live {int(row['clients_live_at_horizon'])}  "
            f"promoted {int(row['pool_promoted'])}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
