"""Shared fixtures for the figure-regeneration benchmarks.

Each figure bench times one full sweep (all schemes x all sweep points)
with pytest-benchmark, prints the regenerated series — the same rows the
paper plots — and asserts the figure's qualitative *shape* (who wins, the
growth direction, crossovers).  ``REPRO_SCALE=full`` switches from the
fast bench scale to the paper's Table 1 scale.

Sweeps fan their cells over a process pool sized from ``os.cpu_count()``
(``REPRO_WORKERS`` overrides; cells are deterministic, so the series are
identical at any worker count — only wall-clock moves).
"""

import os

import pytest

from repro.experiments import (
    format_figure,
    get_figure,
    run_figure,
    scale_from_env,
)


def workers_from_env():
    """Sweep worker count: ``REPRO_WORKERS`` (int or ``auto``) or auto."""
    value = os.environ.get("REPRO_WORKERS", "auto")
    return value if value == "auto" else int(value)


@pytest.fixture
def regen(benchmark, capsys):
    """Run one figure sweep under the benchmark timer and print it."""

    def _run(figure_id: str, **kwargs):
        scale = scale_from_env()
        workers = workers_from_env()
        result = benchmark.pedantic(
            lambda: run_figure(
                get_figure(figure_id), scale=scale, workers=workers, **kwargs
            ),
            rounds=1,
            iterations=1,
        )
        with capsys.disabled():
            print()
            print(format_figure(result))
        return result

    return _run
