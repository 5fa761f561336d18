"""Fixture-corpus tests for the interprocedural dataflow tier.

Each seeded-bug tree under ``fixtures/`` yields exactly its expected
finding(s); each clean counterpart yields none; the new codes baseline
and parallel-parse like every other rule.
"""

import time
from pathlib import Path

from repro.checks.baseline import Baseline
from repro.checks.dataflow import DRAW_METHODS
from repro.checks.engine import get_rule, run_checks
from repro.des.rng import RandomStream

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPO_SRC = Path(__file__).resolve().parents[2] / "src"

#: The combined seeded-bug corpus: 4 DET004 + 1 SVC001 + 1 ASYNC001 +
#: 1 ASYNC002 findings when scanned together.
_SEEDED = (
    "det004_leak",
    "svc001_bypass",
    "async001_block",
    "async002_fire",
)
_SEEDED_CODES = ("ASYNC001", "ASYNC002", "DET004", "SVC001")


def _run(fixture: str, *codes: str):
    rules = [get_rule(c) for c in codes] if codes else None
    return run_checks([str(FIXTURES / fixture)], rules=rules)


# ---------------------------------------------------------------- DET004


def test_draw_methods_are_the_public_methods_of_random_stream():
    """DET004 tracks a draw only by its method name: a draw method it
    does not list escapes the rule."""
    public = {
        name
        for name, value in vars(RandomStream).items()
        if callable(value) and not name.startswith("_")
    }
    assert DRAW_METHODS == public


def test_det004_leak_fixture_finds_each_seeded_escape():
    findings = _run("det004_leak", "DET004")
    assert [f.code for f in findings] == ["DET004"] * 4
    by_line = {f.line: f.message for f in findings}
    assert sorted(by_line) == [8, 12, 16, 23]
    assert "module-global 'STREAM'" in by_line[8]
    assert "class-attribute 'Roulette.table_stream'" in by_line[12]
    assert "not traceable" in by_line[16]
    assert "except/finally" in by_line[23]


def test_det004_cross_fixture_flags_the_dag_crossing_pass():
    findings = _run("det004_cross", "DET004")
    assert len(findings) == 1
    f = findings[0]
    assert f.code == "DET004"
    assert f.path == "repro/des/feeder.py"
    assert "outside the layering DAG" in f.message
    assert "'des'" in f.message and "'sim'" in f.message


def test_det004_traces_block_draws_like_scalar_draws():
    findings = _run("det004_block", "DET004")
    assert [(f.path, f.line) for f in findings] == [("repro/net/blocks.py", 10)]
    assert "draw .uniforms()" in findings[0].message
    assert "not traceable" in findings[0].message


def test_det004_clean_fixture_has_no_findings():
    assert _run("det004_clean", "DET004") == []


# ---------------------------------------------------------------- SVC001


def test_svc001_bypass_fixture_flags_only_the_unwrapped_call():
    findings = _run("svc001_bypass", "SVC001")
    assert len(findings) == 1
    f = findings[0]
    assert f.path == "repro/service/node.py"
    assert f.line == 14
    assert "backend_fetch" in f.message
    assert "call_with_retry" in f.message


def test_svc001_clean_fixture_has_no_findings():
    assert _run("svc001_clean", "SVC001") == []


# -------------------------------------------------------------- ASYNC001


def test_async001_fixture_flags_blocking_call_behind_sync_helper():
    findings = _run("async001_block", "ASYNC001")
    assert len(findings) == 1
    f = findings[0]
    assert "time.sleep" in f.message
    assert "_warm" in f.message  # the sync helper, reached from refresh()


# -------------------------------------------------------------- ASYNC002


def test_async002_fire_fixture_flags_the_dropped_task():
    findings = _run("async002_fire", "ASYNC002")
    assert len(findings) == 1
    assert "fire-and-forget create_task" in findings[0].message


def test_async002_clean_fixture_has_no_findings():
    assert _run("async002_clean", "ASYNC002") == []


# ---------------------------------------------------------------- CHK001


def test_chk001_fixture_flags_the_stale_suppression():
    findings = _run("chk001_stale")  # full registry: bare + coded judged
    assert [f.code for f in findings] == ["CHK001"]
    assert "unused suppression" in findings[0].message
    assert "DET002" in findings[0].message


def test_chk001_not_judged_when_the_named_rule_did_not_run():
    # DET002 did not run, so its suppression might still be load-bearing.
    assert _run("chk001_stale", "CHK001", "DET001") == []


# ------------------------------------------------- corpus-wide invariants


def _seeded_corpus_findings():
    paths = [str(FIXTURES / name) for name in _SEEDED]
    rules = [get_rule(c) for c in _SEEDED_CODES]
    return run_checks(paths, rules=rules)


def test_new_codes_round_trip_through_a_baseline(tmp_path):
    findings = _seeded_corpus_findings()
    assert {f.code for f in findings} == set(_SEEDED_CODES)
    assert len(findings) == 7
    path = tmp_path / "baseline.json"
    Baseline.from_findings(findings).save(path)
    reloaded = Baseline.load(path)
    assert len(reloaded) == 7
    paths = [str(FIXTURES / name) for name in _SEEDED]
    rules = [get_rule(c) for c in _SEEDED_CODES]
    assert run_checks(paths, rules=rules, baseline=reloaded) == []


def test_whole_program_pass_on_src_stays_inside_the_ci_budget():
    # The CI gate runs the full registry (call graph + taint fixpoint)
    # over src/; keep that comfortably under the 10 s wall-clock budget.
    start = time.perf_counter()
    findings = run_checks([str(REPO_SRC)])
    elapsed = time.perf_counter() - start
    assert findings == []
    assert elapsed < 10.0, f"full dataflow pass took {elapsed:.1f}s"
