"""CLI exit-code contract (0 clean / 1 findings / 2 usage) and baseline
round-trips through ``python -m repro.checks``-equivalent invocations."""

import json

import pytest

from repro.checks.baseline import DEFAULT_BASELINE_NAME
from repro.checks.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main

CLEAN_FILE = {"repro/analysis/ok.py": "x = 1\n"}
DIRTY_FILE = {"repro/sim/bad.py": "import random\n"}


def test_exit_codes_are_the_documented_contract():
    assert (EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE) == (0, 1, 2)


def test_clean_tree_exits_zero(tree, capsys):
    root = tree(CLEAN_FILE)
    assert main([str(root)]) == EXIT_CLEAN
    assert capsys.readouterr().out.strip() == "clean"


def test_findings_exit_one_with_formatted_lines(tree, capsys):
    root = tree(DIRTY_FILE)
    assert main([str(root)]) == EXIT_FINDINGS
    out = capsys.readouterr().out
    assert "repro/sim/bad.py:1: DET002 [error]" in out
    assert "1 finding(s)" in out


def test_select_runs_only_named_rules(tree, capsys):
    root = tree(
        {
            "repro/sim/bad.py": "import random\n",
            "repro/des/cold.py": "class Cold:\n    pass\n",
        }
    )
    assert main([str(root), "--select", "PERF001"]) == EXIT_FINDINGS
    out = capsys.readouterr().out
    assert "PERF001" in out
    assert "DET002" not in out


def test_unknown_select_code_is_usage_error(tree, capsys):
    root = tree(CLEAN_FILE)
    assert main([str(root), "--select", "NOPE001"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")


def test_empty_select_is_usage_error(tree, capsys):
    root = tree(CLEAN_FILE)
    assert main([str(root), "--select", " , "]) == EXIT_USAGE
    assert "empty --select" in capsys.readouterr().err


def test_missing_path_is_usage_error(capsys):
    assert main(["/no/such/tree-anywhere"]) == EXIT_USAGE
    assert "no such path" in capsys.readouterr().err


def test_unknown_flag_is_argparse_usage_error(tree):
    root = tree(CLEAN_FILE)
    with pytest.raises(SystemExit) as exc:
        main([str(root), "--definitely-not-a-flag"])
    assert exc.value.code == EXIT_USAGE


def test_list_rules_prints_catalog(capsys):
    assert main(["--list-rules"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    for code in ("DET001", "DET002", "DET003", "PERF001", "ARCH001", "API001"):
        assert code in out


def test_bad_baseline_is_usage_error(tree, monkeypatch, tmp_path, capsys):
    root = tree(DIRTY_FILE)
    monkeypatch.chdir(tmp_path)
    (tmp_path / DEFAULT_BASELINE_NAME).write_text(
        '{"version": 99}', encoding="utf-8"
    )
    assert main([str(root)]) == EXIT_USAGE
    assert "bad baseline" in capsys.readouterr().err


def test_baseline_round_trip(tree, monkeypatch, tmp_path, capsys):
    root = tree(DIRTY_FILE)
    monkeypatch.chdir(tmp_path)

    # Record the current findings; the write itself exits 0.
    assert main([str(root), "--write-baseline"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    assert "wrote 1 finding(s)" in out
    payload = json.loads(
        (tmp_path / DEFAULT_BASELINE_NAME).read_text(encoding="utf-8")
    )
    assert payload["version"] == 1
    assert payload["findings"][0]["code"] == "DET002"

    # Grandfathered: the default baseline is auto-loaded and the gate is
    # clean again.
    assert main([str(root)]) == EXIT_CLEAN
    assert "(baseline: 1 grandfathered)" in capsys.readouterr().out

    # --no-baseline reports the grandfathered finding again.
    assert main([str(root), "--no-baseline"]) == EXIT_FINDINGS
    assert "repro/sim/bad.py" in capsys.readouterr().out

    # A *new* finding still fails, and only the new one is printed.
    (root / "repro/sim/worse.py").write_text(
        "import time\nx = time.time()\n", encoding="utf-8"
    )
    assert main([str(root)]) == EXIT_FINDINGS
    out = capsys.readouterr().out
    assert "repro/sim/worse.py" in out
    assert "repro/sim/bad.py" not in out


def test_explicit_baseline_path(tree, tmp_path, capsys):
    root = tree(DIRTY_FILE)
    baseline = tmp_path / "custom-baseline.json"
    assert (
        main([str(root), "--write-baseline", "--baseline", str(baseline)])
        == EXIT_CLEAN
    )
    capsys.readouterr()
    assert baseline.exists()
    assert main([str(root), "--baseline", str(baseline)]) == EXIT_CLEAN
    assert "grandfathered" in capsys.readouterr().out


def test_module_entry_point_runs():
    # ``python -m repro.checks --list-rules`` must stay wired up.
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "repro.checks", "--list-rules"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0
    assert "DET001" in proc.stdout


def test_callgraph_dump_prints_edges_and_exits_clean(tree, capsys):
    root = tree(
        {
            "repro/sim/a.py": (
                "def helper():\n"
                "    return 1\n"
                "\n"
                "def entry():\n"
                "    return helper()\n"
            )
        }
    )
    assert main([str(root), "--callgraph-dump"]) == EXIT_CLEAN
    captured = capsys.readouterr()
    assert "repro/sim/a.py::entry -> repro/sim/a.py::helper" in captured.out
    assert "functions" in captured.err  # stats line goes to stderr


def test_callgraph_dump_missing_path_is_usage_error(capsys):
    assert main(["/no/such/tree-anywhere", "--callgraph-dump"]) == EXIT_USAGE
    assert "no such path" in capsys.readouterr().err
