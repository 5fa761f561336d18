"""Shared plumbing for the persisted perf baselines (``BENCH_*.json``).

``bench_des_kernel.py`` and ``bench_full_cell.py`` both double as
pytest-benchmark suites and as standalone emitters of machine-readable
baseline artifacts.  This module holds what they share: a timing loop
that records wall *and* CPU time (CI boxes and laptops throttle; CPU
time is the comparable number) and the JSON envelope with enough host
metadata to judge whether two baselines are comparable at all.

See docs/PERFORMANCE.md for how the baselines are meant to be read and
refreshed.
"""

from __future__ import annotations

import json
import platform
import sys
import time

#: Bump when the JSON layout changes incompatibly.
SCHEMA_VERSION = 1


def measure(fn, *args, repeats: int = 3):
    """Run ``fn(*args)`` *repeats* times; keep the fastest timings.

    Returns ``(result, wall_seconds, cpu_seconds)`` with the min over
    the repeats — the least-noise estimate on a machine with a
    fluctuating clock.  Wall and CPU minima are taken independently.
    """
    best_wall = best_cpu = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        result = fn(*args)
        cpu = time.process_time() - cpu0
        wall = time.perf_counter() - wall0
        best_wall = min(best_wall, wall)
        best_cpu = min(best_cpu, cpu)
    return result, best_wall, best_cpu


def baseline_envelope(kind: str, results: dict, config: dict) -> dict:
    """Wrap measured *results* in the persisted-baseline envelope."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "config": config,
        "host": {
            "python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "results": results,
        "notes": (
            "Timings are min-of-N; prefer cpu_s when comparing across "
            "runs (wall clock is noisy on throttling hosts). "
            "Methodology and trajectory: docs/PERFORMANCE.md."
        ),
    }


def write_baseline(path: str, payload: dict) -> str:
    """Write *payload* as pretty JSON; returns the path for logging."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path
