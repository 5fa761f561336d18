"""Command line for the static-analysis engine.

Exit codes (stable contract, tested in ``tests/checks``):

* **0** — no findings (after suppressions and baseline filtering), or a
  baseline was (re)written;
* **1** — at least one finding;
* **2** — usage error (unknown flag, unknown rule code, missing path,
  unreadable baseline).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .baseline import DEFAULT_BASELINE_NAME, Baseline
from .engine import Rule, all_rules, get_rule, run_checks

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-checks",
        description="Run the repro simulation-invariant static checks.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to scan (default: src)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help=(
            "baseline file of grandfathered findings "
            f"(default: {DEFAULT_BASELINE_NAME} when it exists)"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record every current finding into the baseline file and exit 0",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file (report grandfathered findings too)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--callgraph-dump",
        action="store_true",
        help="print the resolved project call graph (caller -> callee) and exit",
    )
    return parser


def _select_rules(spec: Optional[str]) -> List[Rule]:
    if spec is None:
        return all_rules()
    rules: List[Rule] = []
    for code in spec.split(","):
        code = code.strip()
        if code:
            rules.append(get_rule(code))  # KeyError -> usage error upstream
    if not rules:
        raise KeyError("empty --select")
    return rules


def _dump_callgraph(paths: Sequence[str]) -> int:
    """Debugging aid behind ``--callgraph-dump``: print resolved edges."""
    from .callgraph import build_call_graph
    from .engine import ModuleInfo, Project, _collect_files, _parse_files

    try:
        parsed = _parse_files(_collect_files(paths))
    except FileNotFoundError as exc:
        print(f"error: no such path: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    modules = [m for m in parsed if isinstance(m, ModuleInfo)]
    graph = build_call_graph(Project(modules))
    print(graph.dump())
    print(
        f"# {len(graph.functions)} functions, "
        f"{sum(len(e) for e in graph.edges.values())} edges "
        f"across {len(modules)} modules",
        file=sys.stderr,
    )
    return EXIT_CLEAN


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  [{rule.severity.value:7s}]  {rule.description}")
        return EXIT_CLEAN

    if args.callgraph_dump:
        return _dump_callgraph(args.paths)

    try:
        rules = _select_rules(args.select)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE

    baseline_path = (
        Path(args.baseline) if args.baseline else Path(DEFAULT_BASELINE_NAME)
    )
    baseline: Optional[Baseline] = None
    if not args.no_baseline and not args.write_baseline and baseline_path.exists():
        try:
            baseline = Baseline.load(baseline_path)
        except (ValueError, KeyError, OSError) as exc:
            print(f"error: bad baseline {baseline_path}: {exc}", file=sys.stderr)
            return EXIT_USAGE

    try:
        findings = run_checks(args.paths, rules=rules, baseline=baseline)
    except FileNotFoundError as exc:
        print(f"error: no such path: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE

    if args.write_baseline:
        Baseline.from_findings(findings).save(baseline_path)
        print(f"wrote {len(findings)} finding(s) to {baseline_path}")
        return EXIT_CLEAN

    for finding in findings:
        print(finding.format())
    n = len(findings)
    suffix = f" (baseline: {len(baseline)} grandfathered)" if baseline else ""
    if n:
        print(f"{n} finding(s){suffix}")
        return EXIT_FINDINGS
    print(f"clean{suffix}")
    return EXIT_CLEAN


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
