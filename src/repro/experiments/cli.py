"""Command-line entry point: regenerate the paper's figures.

Usage::

    repro-experiments --figure fig05
    repro-experiments --all --scale full
    repro-experiments --list
"""

from __future__ import annotations

import argparse
import sys
import time

from .figures import BENCH_SCALE, FULL_SCALE, figure_ids, get_figure
from .sweep import run_figure
from .tables import format_figure, format_legend


def _workers_arg(value: str):
    """``--workers`` accepts a positive integer or ``auto`` (cpu_count)."""
    if value == "auto":
        return value
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"workers must be an integer or 'auto', got {value!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate figures from 'Adaptive Cache Invalidation "
        "Methods in Mobile Environments' (HPDC 1997).",
    )
    parser.add_argument(
        "--figure",
        action="append",
        dest="figures",
        metavar="FIG",
        help="figure id (e.g. fig05); may repeat",
    )
    parser.add_argument("--all", action="store_true", help="run every figure")
    parser.add_argument("--list", action="store_true", help="list figures")
    parser.add_argument(
        "--scale",
        choices=("bench", "full"),
        default="bench",
        help="bench = 20000 s / 40 clients; full = Table 1 scale",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--output",
        metavar="DIR",
        help="also save each regenerated figure as DIR/<fig>.json",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="render each figure as an ASCII chart too",
    )
    parser.add_argument(
        "--strict-staleness",
        action="store_true",
        help="fail (exit 1) if any sweep cell served a stale cache hit "
        "or broke the liveness ledger (the repro.chaos safety oracle)",
    )
    parser.add_argument(
        "--workers",
        type=_workers_arg,
        default="auto",
        metavar="N",
        help="fan sweep cells over N processes, or 'auto' for cpu_count "
        "(default; results are identical at any worker count)",
    )
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.list:
        for fid in figure_ids():
            spec = get_figure(fid)
            print(f"{fid}: {spec.title}")
        return 0
    targets = list(args.figures or [])
    if args.all:
        targets = figure_ids()
    if not targets:
        print("nothing to do; use --figure, --all or --list", file=sys.stderr)
        return 2
    scale = FULL_SCALE if args.scale == "full" else BENCH_SCALE
    print("scheme legend:")
    print(format_legend())
    violations = []
    for fid in targets:
        # perf_counter: monotonic, immune to NTP/wall-clock steps.  (The
        # experiments layer is exempt from DET001 by path, not because
        # wall-clock reads are harmless in elapsed-time math.)
        started = time.perf_counter()
        result = run_figure(
            get_figure(fid), scale=scale, seed=args.seed, workers=args.workers
        )
        print()
        print(format_figure(result))
        if args.plot:
            from .plot import chart_figure

            print()
            print(chart_figure(result))
        print(f"  [{time.perf_counter() - started:.1f} s wall]")
        if args.output:
            from .io import save_figure_result

            written = save_figure_result(result, f"{args.output}/{fid}.json")
            print(f"  saved {written}")
        if args.strict_staleness:
            for scheme in result.results:
                stale = result.stale_hits_of(scheme)
                verdict = result.oracle_verdict_of(scheme)
                if stale or verdict != "SAFE":
                    violations.append(
                        f"{fid}/{scheme}: {stale:.0f} stale hits, "
                        f"oracle {verdict}"
                    )
    if violations:
        print("strict staleness check FAILED:", file=sys.stderr)
        for line in violations:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
