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

from repro._purity import kernel_backend

#: Bump when the JSON layout changes incompatibly.
SCHEMA_VERSION = 1


class BackendMismatch(RuntimeError):
    """Refusing to overwrite a baseline recorded under another backend."""


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
            "kernel_backend": kernel_backend(),
        },
        "results": results,
        "notes": (
            "Timings are min-of-N; prefer cpu_s when comparing across "
            "runs (wall clock is noisy on throttling hosts). "
            "Methodology and trajectory: docs/PERFORMANCE.md."
        ),
    }


def write_baseline(path: str, payload: dict, force_backend: bool = False) -> str:
    """Write *payload* as pretty JSON; returns the path for logging.

    Compiled and interpreted kernels are bit-identical in behaviour but
    not in speed, so comparing their timings silently corrupts the perf
    trajectory.  If *path* already holds a baseline recorded under a
    different ``kernel_backend``, the write is refused with
    :class:`BackendMismatch` unless *force_backend* is set (every bench
    CLI exposes ``--force-backend`` for the deliberate case).  Baselines
    predating the backend stamp are treated as ``pure``.
    """
    if not force_backend:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                existing = json.load(fh)
        except (OSError, ValueError):
            existing = None
        if isinstance(existing, dict):
            old = existing.get("host", {}).get("kernel_backend", "pure")
            new = payload.get("host", {}).get("kernel_backend", "pure")
            if old != new:
                raise BackendMismatch(
                    f"{path} was recorded under kernel_backend={old!r} but this "
                    f"run is {new!r}; timings are not comparable across backends. "
                    "Pass --force-backend to overwrite anyway."
                )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path
