"""Layer-attributed benchmark of the simulator and the service node.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-cell --seed 1 --seconds 25 --trace 0

``--trace 0`` repeats the workload's pass until ``--seconds`` of wall
time are spent and prints every end-to-end metric (each timing sums its
units' fastest passes, scaled to the reference host's speed; see
``fastest_sum`` and ``host_factor``).  ``--trace 1`` runs one untraced pass,
one pass with boundary spans and one under the profiler, then prints the
per-layer metrics.  Either way the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` and the
exit code is non-zero when an output check fails.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
try:
    import reference
    import tracing
    import workloads
except ImportError as exc:  # no simulator sources beside the benchmark
    IMPORT_ERROR: "ImportError | None" = exc
else:
    IMPORT_ERROR = None

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "answers_per_cpu_s": "1/s",
    "peak_rss_mb": "MB",
    "model_throughput_qps": "1/s",
    "model_latency_mean_s": "s",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "des.events": "count",
    "des.self_s": "s",
    "des.us_per_event": "us",
    "net.sends": "count",
    "net.messages_delivered": "count",
    "net.fault_judged": "count",
    "net.fault_drops": "count",
    "net.downlink_utilization": "ratio",
    "net.self_s": "s",
    "cache.lookups": "count",
    "cache.hit_ratio": "ratio",
    "cache.invalidations": "count",
    "cache.full_drops": "count",
    "cache.self_s": "s",
    "reports.built": "count",
    "reports.size_bits_mean": "bits",
    "reports.self_s": "s",
    "schemes.reports_applied": "count",
    "schemes.session_offers": "count",
    "schemes.tlb_uploads": "count",
    "schemes.check_requests": "count",
    "schemes.uplink_bits_per_query": "bits",
    "schemes.self_s": "s",
    "db.updates": "count",
    "db.self_s": "s",
    "sim.queries_generated": "count",
    "sim.retries": "count",
    "sim.ir_gaps": "count",
    "sim.self_s": "s",
    "population.seeded": "count",
    "population.promoted": "count",
    "population.absorbed": "count",
    "population.seed_s": "s",
    "population.self_s": "s",
    "service.gets": "count",
    "service.l1_hit_ratio": "ratio",
    "service.l2_fetches": "count",
    "service.l2_failures": "count",
    "service.breaker_trips": "count",
    "service.served_stale": "count",
    "service.swr_refreshes": "count",
    "service.get_p50_us": "us",
    "service.get_p99_us": "us",
    "service.answer_age_p99_s": "s",
    "service.clock_advances_per_get": "ratio",
    "service.retry_self_s": "s",
    "service.clock_self_s": "s",
    "service.self_s": "s",
    "stdlib.self_s": "s",
    "other.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unspanned_frac": "ratio",
    "trace.spans": "count",
}

#: Which quantile of a run's reference-loop times sets its host factor.
REFERENCE_QUANTILE = 0.10

#: Where the traced run writes its spans (ignored by git).
OUT_DIR = HERE / "out"


def digest(counters: dict) -> str:
    """SHA-256 of the modelled outputs: a speed-only change keeps it."""
    blob = json.dumps(counters, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_passes(passes) -> list:
    """Output checks shared by both modes; returns failure messages."""
    problems = [p for result in passes for p in result.problems]
    digests = {digest(result.counters) for result in passes}
    if len(digests) != 1:
        problems.append(f"passes disagree: {len(digests)} distinct digests")
    if any(result.model != passes[0].model for result in passes):
        problems.append("passes disagree on the modelled metrics")
    return problems


def fastest_sum(passes, units: str) -> float:
    """Sum over timed units of each unit's fastest pass."""
    names = getattr(passes[0], units)
    return sum(min(getattr(r, units)[n] for r in passes) for n in names)


def host_factor(passes) -> float:
    """``REFERENCE_S`` over the run's 10th-percentile reference loop.

    Neighbours on a shared host slow every instruction by up to ~70 %,
    sometimes for a whole run.  A unit's fastest pass drops the short
    slow spells; scaling by this factor removes the long ones, because
    the reference loop slows with the program (see reference.py).  The
    loop is short enough to catch undisturbed moments no unit can, so a
    low percentile matches the units' minima better than its own minimum.
    """
    loops = sorted(t for r in passes for t in r.reference_s)
    return reference.REFERENCE_S / workloads.percentile(loops, REFERENCE_QUANTILE)


def timed_run(name: str, seed: int, seconds: float, scale: float):
    """Repeat the pass for *seconds*; returns (metrics, passes, notes)."""
    run_pass = workloads.make_pass(name, seed, scale)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        result = run_pass()
        # Get latencies are a traced-run metric; keeping them would make
        # peak RSS grow with the number of passes.
        result.op_us = []
        passes.append(result)
    first = passes[0]
    factor = host_factor(passes)
    setup_s = fastest_sum(passes, "setup_units") * factor
    run_s = fastest_sum(passes, "run_units") * factor
    metrics = {
        "setup_s": setup_s,
        "run_s": run_s,
        "answers_per_cpu_s": first.answers / (setup_s + run_s),
        "peak_rss_mb": peak_rss_mb(),
        "model_throughput_qps": first.model["model_throughput_qps"],
        "model_latency_mean_s": first.model["model_latency_mean_s"],
    }
    notes = {
        "passes": len(passes),
        "host_factor": round(factor, 4),
        "pass_setup_s": [round(r.setup_s, 4) for r in passes],
        "pass_run_s": [round(r.run_s, 4) for r in passes],
        "answers_per_pass": first.answers,
        "model": first.model,
    }
    return metrics, passes, notes


def _flat_sum(counters: dict, key: str) -> float:
    """Sum *key* over every run/cell dict (and their ``node`` snapshots)."""
    total = 0.0
    for value in counters.values():
        if not isinstance(value, dict):
            continue
        total += value.get(key, 0.0)
        node = value.get("node")
        if isinstance(node, dict):
            total += node.get(key, 0.0)
    return total


def layer_metrics(result, tracer, split, traced_s, untraced_s) -> dict:
    """Per-layer metrics of one traced pass (see README.md for the map)."""
    percentile = workloads.percentile
    c = result.counters

    def total(key: str) -> float:
        return _flat_sum(c, key)

    gets_us = sorted(result.op_us)
    unspanned = traced_s - tracer.root_s
    profiled = sum(split.values())
    share = {k: v / profiled for k, v in split.items()} if profiled else {}

    def self_s(layer: str) -> float:
        return tracer.self_s.get(layer, 0.0) + unspanned * share.get(layer, 0.0)

    calls = tracer.calls
    runs = [v for v in c.values() if isinstance(v, dict) and "queries.generated" in v]
    events = total("kernel.events_scheduled")
    gets = total("gets")
    built = calls["ServerPolicy.build_report"]
    if runs:
        lookups = total("cache.hits") + total("cache.misses")
        hit_ratio = total("cache.hits") / lookups if lookups else 0.0
        tlb_uploads, checks = total("adaptive.tlb_uploads"), total("checking.requests")
    else:
        hit_ratio = total("get.hits") / gets if gets else 0.0
        tlb_uploads, checks = total("uplink.tlb"), total("uplink.check")
    m = {
        "des.events": events,
        "des.self_s": self_s("des"),
        "des.us_per_event": self_s("des") * 1e6 / events if events else 0.0,
        "net.sends": calls["Channel.send"],
        "net.messages_delivered": total("channel.messages_delivered"),
        "net.fault_judged": total("downlink.fault_judged"),
        "net.fault_drops": total("downlink.fault_drops"),
        "net.downlink_utilization": (
            statistics.fmean(r["downlink.utilization"] for r in runs) if runs else 0.0
        ),
        "net.self_s": self_s("net"),
        "cache.lookups": calls["ClientCache.lookup"],
        "cache.hit_ratio": hit_ratio,
        "cache.invalidations": calls["ClientCache.invalidate"],
        "cache.full_drops": total("cache.full_drops"),
        "cache.self_s": self_s("cache"),
        "reports.built": built,
        "reports.size_bits_mean": tracer.report_bits / built if built else 0.0,
        "reports.self_s": self_s("reports"),
        "schemes.reports_applied": calls["ClientPolicy.on_report"],
        "schemes.session_offers": calls["ClientSession.offer_report"],
        "schemes.tlb_uploads": tlb_uploads,
        "schemes.check_requests": checks,
        "schemes.uplink_bits_per_query": result.model["model_uplink_bits_per_query"],
        "schemes.self_s": self_s("schemes"),
        "db.updates": calls["Database.apply_update"],
        "db.self_s": self_s("db"),
        "sim.queries_generated": total("queries.generated"),
        "sim.retries": total("client.retries"),
        "sim.ir_gaps": total("client.ir_gaps"),
        "sim.self_s": self_s("sim"),
        "population.seeded": total("pool.seeded"),
        "population.promoted": total("pool.promoted"),
        "population.absorbed": total("pool.absorbed"),
        "population.seed_s": tracer.total_s.get("PopulationPool.seed_parked", 0.0),
        "population.self_s": self_s("population"),
        "service.gets": gets,
        "service.l1_hit_ratio": total("get.hits") / gets if gets else 0.0,
        "service.l2_fetches": total("get.l2_fetches"),
        "service.l2_failures": total("get.l2_failures"),
        "service.breaker_trips": total("breaker_trips"),
        "service.served_stale": total("served_stale"),
        "service.swr_refreshes": total("swr.refreshes"),
        "service.get_p50_us": percentile(gets_us, 0.50) if gets_us else 0.0,
        "service.get_p99_us": percentile(gets_us, 0.99) if gets_us else 0.0,
        "service.answer_age_p99_s": result.model.get("answer_age_p99_s", 0.0),
        "service.clock_advances_per_get": (
            calls["VirtualClock.advance"] / gets if gets else 0.0
        ),
        "service.retry_self_s": self_s("service.retry"),
        "service.clock_self_s": self_s("service.clock"),
        "service.self_s": (
            self_s("service") + self_s("service.retry") + self_s("service.clock")
        ),
        "stdlib.self_s": self_s("stdlib"),
        "other.self_s": self_s("other"),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.unspanned_frac": unspanned / traced_s,
        "trace.spans": tracer.n_spans,
    }
    return m


def traced_run(name: str, seed: int, scale: float):
    """Untraced, span and profile passes.

    Returns ``(metrics, passes, notes, problems)``.  The first pass only
    warms up, so the untraced and the span pass time the same steady state.
    """
    run_pass = workloads.make_pass(name, seed, scale)
    run_pass()
    gc.collect()
    t0 = time.perf_counter()
    untraced = run_pass()
    untraced_s = time.perf_counter() - t0

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        gc.collect()
        t0 = time.perf_counter()
        spanned = run_pass()
        traced_s = time.perf_counter() - t0
    finally:
        uninstall()
    gc.collect()
    profiled, stats = tracing.profile(run_pass)
    split = tracing.unspanned_self_by_layer(stats)

    metrics = layer_metrics(untraced, tracer, split, traced_s, untraced_s)
    problems = []
    if tracer.open_spans:
        problems.append(f"{tracer.open_spans} spans left open")
    accounted = sum(tracer.self_s.values())
    if abs(accounted - tracer.root_s) > 1e-6 * max(1.0, traced_s):
        problems.append(
            f"span self times {accounted:.6f}s != root span time {tracer.root_s:.6f}s"
        )
    if tracer.root_s > traced_s:
        problems.append("spans cover more than the traced pass")
    self_total = sum(v for k, v in metrics.items() if k.endswith("self_s")
                     and k not in ("service.retry_self_s", "service.clock_self_s"))
    if abs(self_total - traced_s) > 1e-3 * traced_s:
        problems.append(
            f"layer self times {self_total:.6f}s do not account for "
            f"the traced pass {traced_s:.6f}s"
        )
    if len({digest(r.counters) for r in (untraced, spanned, profiled)}) != 1:
        problems.append("tracing changed the program counters")
    notes = {
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "profile_share": {
            k: round(v, 4) for k, v in tracing.profile_shares(stats).items()
        },
    }
    _write_spans(name, seed, tracer, metrics, notes)
    return metrics, [untraced, spanned, profiled], notes, problems


def _write_spans(name, seed, tracer, metrics, notes) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}-seed{seed}-spans.jsonl"
    with path.open("w") as fh:
        fh.write(json.dumps({
            "workload": name,
            "seed": seed,
            "spans_total": tracer.n_spans,
            "spans_kept": len(tracer.spans),
            "calls": dict(sorted(tracer.calls.items())),
            "inclusive_s": dict(sorted(tracer.total_s.items())),
            "layers": metrics,
            "notes": notes,
        }) + "\n")
        for span_name, start, end, parent in tracer.spans:
            fh.write(json.dumps([span_name, start, end, parent]) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink every workload (the self-tests run at 0.05)",
    )
    args = parser.parse_args(argv)
    if IMPORT_ERROR is not None:
        print(f"cannot import the simulator from {ROOT / 'src'}: {IMPORT_ERROR}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, passes, notes, problems = traced_run(
            args.workload, args.seed, args.scale
        )
        units = PER_LAYER
    else:
        metrics, passes, notes = timed_run(
            args.workload, args.seed, args.seconds, args.scale
        )
        units, problems = END_TO_END, []
    problems += _check_passes(passes)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    print(f"  digest: {digest(passes[0].counters)}")
    for key in units:
        print(f"  {key:<34s} {metrics[key]:>16.6f} {units[key]}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    correct = not problems
    line = {
        "correct": correct,
        "attempted": sum(r.attempted for r in passes),
        "failed": sum(r.failed for r in passes),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
