"""Interleaved A/B of ``perfbench/run.py``: a base revision against this checkout.

Run from the root of a checkout::

    python benchmarks/ab.py --base HEAD~1 --workloads megacell --seeds 1 7 \\
        --pairs 10 --seconds 15 --out BENCH_ab.json

The base revision's committed files are exported with ``git archive``
into a temporary directory, which is removed when the run ends.  The
export registers nothing in the repository, so a run killed midway
leaves no stale worktree behind.  The change side is this checkout as
it stands, uncommitted edits included.

For every (workload, seed), the runner makes ``--pairs`` pairs of
``perfbench/run.py --trace 0`` runs, one per side, each in its own
subprocess.  The side that runs first alternates from pair to pair, so
a slow spell of the host lands on both sides alike.  The JSON it writes
holds every run's metrics, digest and host factor and, per metric, both
medians, the base quartiles, how many pairs the change won and two
verdicts:

* ``claim_met``: the change won at least 9 in 10 of the pairs (a tie
  counts for neither side) and its median beats the base's by more than
  the base's quartile spread;
* ``within_bound``: the change's median is worse than the base's by no
  more than the metric's ``bound`` in ``BENCHMARK.json`` (None for a
  metric without one).

The exit code is 1 when a run fails its output checks or the two sides'
digests differ, since a change meant to alter only speed must leave the
outputs unchanged.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-cell", "lossy-hotspot", "megacell", "service-node")
DIGEST_LINE = re.compile(r"^\s*digest: ([0-9a-f]{64})$", re.MULTILINE)
HOST_FACTOR_LINE = re.compile(r"^\s*host_factor: ([0-9.]+)$", re.MULTILINE)


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(commit: str, dest: Path) -> None:
    """Unpack *commit*'s tree into *dest*."""
    blob = subprocess.run(
        ["git", "archive", "--format=tar", commit],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:  # Pythons without extraction filters
            tar.extractall(dest)


def end_to_end_specs() -> Dict[str, dict]:
    """Metric name -> its ``{"better", "bound", ...}`` in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def run_side(
    tree: Path, workload: str, seed: int, seconds: float, scale: float
) -> dict:
    """One perfbench run in *tree*: its metrics, digest and verdict."""
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0", "--scale", str(scale),
        ],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(
            f"perfbench in {tree} printed no result (exit {proc.returncode}):\n"
            f"{proc.stderr[-2000:]}"
        ) from None
    found = DIGEST_LINE.search(proc.stdout)
    factor = HOST_FACTOR_LINE.search(proc.stdout)
    return {
        "correct": bool(summary["correct"]) and proc.returncode == 0,
        "failed": summary["failed"],
        "digest": found.group(1) if found else None,
        # The scale perfbench applied to this run's timings.
        "host_factor": float(factor.group(1)) if factor else None,
        "metrics": {k: v["value"] for k, v in summary["metrics"].items()},
    }


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(pairs: List[dict], specs: Dict[str, dict]) -> dict:
    """Per metric: both medians, the base quartiles, the change's wins
    and the ``claim_met`` and ``within_bound`` verdicts.

    *specs* maps a metric to its BENCHMARK.json entry; a metric missing
    from it counts lower as better and has no bound.
    """
    out = {}
    for name in pairs[0]["base"]["metrics"]:
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        spec = specs.get(name, {})
        lower = spec.get("better", "lower") == "lower"
        bound = spec.get("bound")
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        base_median = statistics.median(base)
        change_median = statistics.median(change)
        q1, q3 = quartiles(base)
        # How far the change's median is better than the base's.
        gain = base_median - change_median if lower else change_median - base_median
        out[name] = {
            "better": "lower" if lower else "higher",
            "base_median": base_median,
            "change_median": change_median,
            "change_pct": (
                100.0 * (change_median / base_median - 1.0) if base_median else None
            ),
            "base_quartiles": [q1, q3],
            "wins": wins,
            "pairs": len(pairs),
            "claim_met": 10 * wins >= 9 * len(pairs) and gain > q3 - q1,
            "within_bound": (
                None if bound is None else -gain <= bound * abs(base_median)
            ),
        }
    return out


def verdict(value) -> str:
    return "n/a" if value is None else ("yes" if value else "no")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="perfbench --seconds per run (0: one pass)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="perfbench --scale")
    parser.add_argument("--out", type=Path, help="write the JSON here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    base_commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    specs = end_to_end_specs()
    report: dict = {
        "base": {"rev": args.base, "commit": base_commit},
        "change": {"commit": git("rev-parse", "HEAD"), "uncommitted_edits": dirty},
        "command": (
            f"perfbench/run.py --seconds {args.seconds:g} --trace 0 "
            f"--scale {args.scale:g}"
        ),
        "results": {},
    }
    ok = True
    tmp = Path(tempfile.mkdtemp(prefix="ab-base-"))
    try:
        export(base_commit, tmp)
        trees = {"base": tmp, "change": ROOT}
        for workload in args.workloads:
            for seed in args.seeds:
                pairs = []
                for i in range(args.pairs):
                    order = ("base", "change") if i % 2 == 0 else ("change", "base")
                    pair: dict = {"first": order[0]}
                    for side in order:
                        pair[side] = run_side(
                            trees[side], workload, seed, args.seconds, args.scale
                        )
                    pairs.append(pair)
                    print(
                        f"{workload} seed {seed} pair {i + 1}/{args.pairs}: "
                        f"run_s {pair['base']['metrics']['run_s']:.4f} -> "
                        f"{pair['change']['metrics']['run_s']:.4f}",
                        flush=True,
                    )
                digests = {
                    side: sorted({p[side]["digest"] for p in pairs})
                    for side in ("base", "change")
                }
                equal = (
                    digests["base"] == digests["change"] and len(digests["base"]) == 1
                )
                correct = all(p[side]["correct"] for p in pairs for side in trees)
                ok = ok and equal and correct
                report["results"].setdefault(workload, {})[str(seed)] = {
                    "correct": correct,
                    "digests": {**digests, "equal": equal},
                    "metrics": summarize(pairs, specs),
                    "pairs": pairs,
                }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for workload, seeds in report["results"].items():
        for seed, res in seeds.items():
            print(f"{workload} seed {seed}: digests equal {res['digests']['equal']}, "
                  f"correct {res['correct']}")
            for name, m in res["metrics"].items():
                q1, q3 = m["base_quartiles"]
                pct = "" if m["change_pct"] is None else f" ({m['change_pct']:+.1f} %)"
                print(f"  {name:<22s} {m['base_median']:.6g} [{q1:.6g}-{q3:.6g}] -> "
                      f"{m['change_median']:.6g}{pct}, won {m['wins']}/{m['pairs']}, "
                      f"claim met {verdict(m['claim_met'])}, "
                      f"within bound {verdict(m['within_bound'])}")
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
