"""Every script in ``examples/`` runs to completion as ``__main__``.

``custom_scheme.py`` and ``signature_diagnosis.py`` run in the tests of
the code they demonstrate, which also check what they print.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
RUN_ELSEWHERE = {"custom_scheme.py", "signature_diagnosis.py"}


@pytest.mark.parametrize(
    "script",
    sorted(p.name for p in EXAMPLES.glob("*.py") if p.name not in RUN_ELSEWHERE),
)
def test_example_runs(script, capsys):
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    assert capsys.readouterr().out
