"""Macro-benchmark: full cell simulations at paper scale, per scheme.

Two configurations bound the simulator's perf envelope:

* ``pristine-100`` — the paper's Table 1 cell (100 clients, 1000-item
  database, UNIFORM queries, doze cycle on) on a lossless medium at a
  short horizon.  This config is pinned bit-identical across kernel
  changes by ``tests/sim/test_kernel_golden.py``.
* ``lossy-300`` — a dense cell (300 clients, 30 % disconnection) with
  wireless fault injection on the downlink: the regime where broadcast
  fan-out and per-receiver fault judgment dominate, i.e. where the
  dispatch optimizations matter most.

Each (config, scheme) cell reports wall and CPU seconds, kernel events
scheduled and events/second.  Run as a script to refresh the persisted
baseline::

    PYTHONPATH=src python benchmarks/bench_full_cell.py --out BENCH_full_cell.json

CI runs the same at ``--horizon-scale 0.1``; the hard assertions are
event-count/liveness checks only — never wall-clock — so the job cannot
flake on a slow runner.  See docs/PERFORMANCE.md.
"""

from repro.net import FaultConfig
from repro.sim import SystemParams, UNIFORM, run_simulation

SCHEMES = ("ts", "bs", "afw", "aaw", "checking")

#: Keyword bases for the two benchmark cells; ``simulation_time`` is
#: multiplied by the horizon scale.
CONFIGS = {
    "pristine-100": dict(
        simulation_time=5_000.0,
        n_clients=100,
        db_size=1_000,
        disconnect_prob=0.1,
        disconnect_time_mean=200.0,
        seed=1,
    ),
    "lossy-300": dict(
        simulation_time=3_000.0,
        n_clients=300,
        db_size=1_000,
        disconnect_prob=0.3,
        disconnect_time_mean=300.0,
        seed=1,
    ),
}


def params_for(config: str, horizon_scale: float = 1.0) -> SystemParams:
    kwargs = dict(CONFIGS[config])
    kwargs["simulation_time"] = kwargs["simulation_time"] * horizon_scale
    if config == "lossy-300":
        kwargs["downlink_faults"] = FaultConfig(
            drop_prob=0.02, bit_error_rate=1e-6
        )
    return SystemParams(**kwargs)


def check_cell(result, n_clients: int):
    """Hard correctness gates (event counts / liveness), never timing."""
    events = result.counter("kernel.events_scheduled")
    generated = result.counter("queries.generated")
    assert events > 0, "kernel scheduled no events"
    assert generated > 0, "no queries generated"
    assert result.queries_answered > 0, "no queries answered"
    # Liveness: at most one query in flight per client at the horizon.
    in_flight = generated - result.queries_answered
    assert 0 <= in_flight <= n_clients, f"{in_flight} queries unaccounted for"
    assert result.stale_hits == 0, "exactness violated"


def run_cell(config: str, scheme: str, horizon_scale: float = 1.0):
    params = params_for(config, horizon_scale)
    result = run_simulation(params, UNIFORM, scheme)
    check_cell(result, params.n_clients)
    return result


def collect_full_cell_baseline(
    horizon_scale: float = 1.0, repeats: int = 2, schemes=SCHEMES
) -> dict:
    """Time every (config, scheme) cell; returns the ``results`` map."""
    from perf_baseline import measure

    results = {}
    for config in CONFIGS:
        per_scheme = {}
        total_cpu = 0.0
        total_wall = 0.0
        for scheme in schemes:
            result, wall, cpu = measure(
                run_cell, config, scheme, horizon_scale, repeats=repeats
            )
            events = result.counter("kernel.events_scheduled")
            per_scheme[scheme] = {
                "wall_s": round(wall, 6),
                "cpu_s": round(cpu, 6),
                "events_scheduled": int(events),
                "events_per_sec_cpu": round(events / cpu, 1) if cpu else None,
                "queries_answered": result.queries_answered,
            }
            total_cpu += cpu
            total_wall += wall
        per_scheme["_total"] = {
            "wall_s": round(total_wall, 6),
            "cpu_s": round(total_cpu, 6),
        }
        results[config] = per_scheme
    return results


# -- pytest entry points ---------------------------------------------------


def test_macro_pristine_cell(benchmark):
    result = benchmark.pedantic(
        run_cell, args=("pristine-100", "aaw", 0.2), rounds=1, iterations=1
    )
    assert result.counter("kernel.events_scheduled") > 0


def test_macro_lossy_cell(benchmark):
    result = benchmark.pedantic(
        run_cell, args=("lossy-300", "aaw", 0.2), rounds=1, iterations=1
    )
    assert result.counter("downlink.fault_judged") > 0


def test_event_counts_deterministic():
    """The macro-bench unit is reproducible: same config, same events."""
    a = run_cell("pristine-100", "ts", horizon_scale=0.1)
    b = run_cell("pristine-100", "ts", horizon_scale=0.1)
    assert a.raw == b.raw


# -- baseline emission -----------------------------------------------------


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_full_cell.json")
    parser.add_argument("--horizon-scale", type=float, default=1.0)
    parser.add_argument("--repeats", type=int, default=2)
    args = parser.parse_args(argv)
    from perf_baseline import baseline_envelope, write_baseline

    results = collect_full_cell_baseline(
        horizon_scale=args.horizon_scale, repeats=args.repeats
    )
    payload = baseline_envelope(
        "full_cell",
        results,
        config={
            "horizon_scale": args.horizon_scale,
            "repeats": args.repeats,
            "schemes": list(SCHEMES),
            "cells": CONFIGS,
        },
    )
    print(f"wrote {write_baseline(args.out, payload)}")
    for config, per_scheme in results.items():
        total = per_scheme["_total"]
        print(
            f"  {config:>14s}  total cpu {total['cpu_s']:.3f}s "
            f"wall {total['wall_s']:.3f}s"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
