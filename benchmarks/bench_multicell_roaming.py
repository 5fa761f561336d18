"""Multi-cell roaming campaign: cell outages, handoffs, salvage economics.

Two sweeps, both fanned out over the parallel harness in
:mod:`sweep_common` and both under the strict safety oracle:

* **Roaming storm** — chaos seeds x propagation modes {eager-push,
  lazy-pull, parent-cache} on a four-cell path around the gateway, with
  sampled whole-cell outages forcing evacuation storms and seeded
  mid-doze handoffs throughout.  Schemes rotate across the matrix so
  every policy family faces every propagation mode over the seed set.
* **Cooperative salvage differential** — one scripted fed-cell outage
  whose post-restart snapshot leaves a history amnesia gap, run with
  cooperation on and off for the paper's adaptive schemes.  The claim
  in the persisted baseline: neighbor backfills measurably reduce full
  cache purges (``cache.full_drops``) versus the identical scenario
  without cooperation, at zero safety cost.

The hard assertions are event-count/liveness checks only — never
wall-clock — so the CI job cannot flake on a slow runner.  Run as a
script to refresh the persisted baseline::

    PYTHONPATH=src python benchmarks/bench_multicell_roaming.py --out BENCH_multicell.json

See docs/FAULTS.md (whole-cell outages) and docs/PROTOCOLS.md (roaming
and inter-server propagation) for the protocol story.
"""

from sweep_common import format_sweep_table, run_loss_sweep

from repro.chaos import ChaosConfig
from repro.sim import SystemParams, UNIFORM
from repro.topology import (
    EAGER_PUSH,
    LAZY_PULL,
    PARENT_CACHE,
    RoamingConfig,
    TopologyConfig,
)

SEEDS = [1, 2, 3]
MODES = [EAGER_PUSH, LAZY_PULL, PARENT_CACHE]
SCHEMES = ["aaw", "afw", "checking", "bs", "at", "sig", "ts", "gcore"]

#: Schemes the cooperative-salvage differential runs (the paper's
#: adaptive pair — the ones whose window reports a roamer's ``Tlb``
#: salvage leans on hardest).
COOP_SCHEMES = ["aaw", "afw"]

SIM_TIME = 4000.0
N_CLIENTS = 24

#: Sampled whole-cell outages: with MTBF 1500 s per cell over the full
#: horizon on four cells, every seed produces several outages
#: (asserted at scale 1.0).
STORM = dict(cell_crash_mtbf=1500.0, cell_downtime_mean=300.0)


def storm_params(
    *, seed, propagation, chaos, coop=True, horizon_scale=1.0, **overrides
):
    merged = dict(
        simulation_time=SIM_TIME * horizon_scale,
        n_clients=N_CLIENTS,
        db_size=500,
        uplink_timeout=8.0,
        strict_staleness=True,
        disconnect_prob=0.3,
        disconnect_time_mean=200.0,
        seed=seed,
        chaos=chaos,
        roaming=RoamingConfig(
            topology=TopologyConfig(kind="path", n_cells=4),
            propagation=propagation,
            roam_prob=0.3,
            sync_replay_intervals=10.0,
            cooperative_salvage=coop,
        ),
    )
    merged.update(overrides)
    return SystemParams(**merged)


def configure_storm(seed, mode, horizon_scale=1.0):
    # Rotate the scheme so each (seed, mode) cell exercises a different
    # policy family; over the seed set every family sees every mode.
    scheme = SCHEMES[(int(seed) * len(MODES) + MODES.index(mode)) % len(SCHEMES)]
    params = storm_params(
        seed=int(seed),
        propagation=mode,
        chaos=ChaosConfig(seed=int(seed), **STORM),
        horizon_scale=horizon_scale,
    )
    return params, scheme


#: The cooperative-salvage scenario: one scripted outage of (fed)
#: cell 2; its restart resyncs via a bounded-replay snapshot, leaving an
#: amnesia gap that long-dozing roamers' ``Tlb`` reports fall below.
#: Long doze times manufacture those roamers.
COOP_SCENARIO = dict(
    disconnect_prob=0.4,
    disconnect_time_mean=400.0,
)


def configure_coop(scheme, variant, horizon_scale=1.0):
    params = storm_params(
        seed=1,
        propagation=LAZY_PULL,
        chaos=ChaosConfig(
            seed=7,
            cell_crashes_at=((2, 1000.0 * horizon_scale),),
            cell_downtime=300.0 * horizon_scale,
        ),
        coop=(variant == "coop-on"),
        horizon_scale=horizon_scale,
        **COOP_SCENARIO,
    )
    return params, scheme


def run_storm(horizon_scale=1.0, workers="auto"):
    return run_loss_sweep(
        SEEDS,
        MODES,
        lambda seed, mode: configure_storm(seed, mode, horizon_scale),
        UNIFORM,
        workers=workers,
    )


def run_coop(horizon_scale=1.0, workers="auto"):
    return run_loss_sweep(
        COOP_SCHEMES,
        ["coop-on", "coop-off"],
        lambda scheme, variant: configure_coop(scheme, variant, horizon_scale),
        UNIFORM,
        workers=workers,
    )


# -- hard gates (event counts / liveness, never timing) --------------------


def check_storm_cell(key, r, full_scale=True):
    assert r.stale_hits == 0, key
    assert r.liveness_ok, (key, r.queries_pending)
    assert r.oracle_verdict == "SAFE", (key, r.oracle_verdict)
    assert r.counter("roam.handoffs") > 0, key
    if full_scale:
        # The storm actually happened: cells crashed and residents fled.
        assert r.counter("chaos.cell_crashes") > 0, key
        assert r.counter("roam.evacuations") > 0, key
    # Propagation ran in the configured mode (parent-cache pulls too).
    _seed, mode = key
    if mode == EAGER_PUSH:
        assert r.counter("sync.pushes") > 0, key
    else:
        assert r.counter("sync.pulls") > 0, key


def check_coop_sweep(results):
    """The differential claim: backfills reduce full purges, safely."""
    for key, r in results.items():
        assert r.stale_hits == 0, key
        assert r.oracle_verdict == "SAFE", (key, r.oracle_verdict)
    for scheme in COOP_SCHEMES:
        on = results[(scheme, "coop-on")]
        off = results[(scheme, "coop-off")]
        assert on.counter("coop.requests") > 0, scheme
        assert on.counter("coop.backfills") > 0, scheme
        assert (
            on.counter("cache.full_drops") < off.counter("cache.full_drops")
        ), (
            scheme,
            on.counter("cache.full_drops"),
            off.counter("cache.full_drops"),
        )


# -- pytest entry points ---------------------------------------------------


def test_roaming_storm_campaign(benchmark, capsys):
    results = benchmark.pedantic(run_storm, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(
            format_sweep_table(
                "roaming storm: seed vs propagation (answered/crashes/handoffs)",
                results,
                SEEDS,
                MODES,
                lambda r: (
                    f"{r.queries_answered:.0f}/"
                    f"{r.counter('chaos.cell_crashes'):.0f}/"
                    f"{r.counter('roam.handoffs'):.0f}"
                ),
                row_label="seed",
            )
        )
    for key, r in results.items():
        check_storm_cell(key, r)


def test_cooperative_salvage_differential(capsys):
    results = run_coop()
    with capsys.disabled():
        print()
        print(
            format_sweep_table(
                "cooperative salvage: scheme vs mode (answered/backfills/full-drops)",
                results,
                COOP_SCHEMES,
                ["coop-on", "coop-off"],
                lambda r: (
                    f"{r.queries_answered:.0f}/"
                    f"{r.counter('coop.backfills'):.0f}/"
                    f"{r.counter('cache.full_drops'):.0f}"
                ),
                row_label="scheme",
            )
        )
    check_coop_sweep(results)


# -- baseline emission -----------------------------------------------------


def _cell_record(r, scheme):
    return {
        "scheme": scheme,
        "queries_answered": int(r.queries_answered),
        "stale_hits": int(r.stale_hits),
        "oracle_verdict": r.oracle_verdict,
        "liveness_ok": bool(r.liveness_ok),
        "cell_crashes": int(r.counter("chaos.cell_crashes")),
        "evacuations": int(r.counter("roam.evacuations")),
        "handoffs": int(r.counter("roam.handoffs")),
        "sync_pushes": int(r.counter("sync.pushes")),
        "sync_pulls": int(r.counter("sync.pulls")),
        "sync_retries": int(r.counter("sync.retries")),
        "coop_requests": int(r.counter("coop.requests")),
        "coop_backfills": int(r.counter("coop.backfills")),
        "full_drops": int(r.counter("cache.full_drops")),
        "events_scheduled": int(r.counter("kernel.events_scheduled")),
    }


def collect_multicell_baseline(horizon_scale=1.0, workers="auto") -> dict:
    """Run both sweeps, gate them, and flatten into the ``results`` map."""
    full_scale = horizon_scale >= 1.0
    storm = run_storm(horizon_scale, workers)
    for key, r in storm.items():
        check_storm_cell(key, r, full_scale=full_scale)
    coop = run_coop(horizon_scale, workers)
    if full_scale:
        check_coop_sweep(coop)

    storm_rows = {}
    for (seed, mode), r in sorted(storm.items()):
        _params, scheme = configure_storm(seed, mode, horizon_scale)
        storm_rows[f"seed={seed}/{mode}"] = _cell_record(r, scheme)
    coop_rows = {
        f"{scheme}/{variant}": _cell_record(r, scheme)
        for (scheme, variant), r in sorted(coop.items())
    }
    savings = {
        scheme: {
            "full_drops_with_coop": int(
                coop[(scheme, "coop-on")].counter("cache.full_drops")
            ),
            "full_drops_without_coop": int(
                coop[(scheme, "coop-off")].counter("cache.full_drops")
            ),
            "backfills": int(coop[(scheme, "coop-on")].counter("coop.backfills")),
        }
        for scheme in COOP_SCHEMES
    }
    return {
        "storm": storm_rows,
        "cooperative_salvage": coop_rows,
        "coop_savings": savings,
    }


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_multicell.json")
    parser.add_argument("--horizon-scale", type=float, default=1.0)
    parser.add_argument("--workers", default="auto")
    args = parser.parse_args(argv)
    from perf_baseline import baseline_envelope, measure, write_baseline

    results, wall, _cpu = measure(
        collect_multicell_baseline, args.horizon_scale, args.workers, repeats=1
    )
    payload = baseline_envelope(
        "multicell_roaming",
        results,
        config={
            "horizon_scale": args.horizon_scale,
            "seeds": list(SEEDS),
            "propagation_modes": list(MODES),
            "schemes": list(SCHEMES),
            "coop_schemes": list(COOP_SCHEMES),
            "topology": {"kind": "path", "n_cells": 4},
            "storm": STORM,
            "sweep_wall_s": round(wall, 3),
        },
    )
    print(f"wrote {write_baseline(args.out, payload)}")
    unsafe = [
        key
        for section in ("storm", "cooperative_salvage")
        for key, row in results[section].items()
        if row["oracle_verdict"] != "SAFE"
    ]
    print(
        f"  {len(results['storm'])} storm cells + "
        f"{len(results['cooperative_salvage'])} salvage cells in {wall:.1f}s "
        f"wall — {'all SAFE' if not unsafe else 'UNSAFE: ' + ', '.join(unsafe)}"
    )
    for scheme, row in results["coop_savings"].items():
        print(
            f"  {scheme}: full drops {row['full_drops_without_coop']} -> "
            f"{row['full_drops_with_coop']} with {row['backfills']} backfill(s)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
