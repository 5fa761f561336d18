"""Sweep execution: run a figure spec into plottable series."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.metrics import SimulationResult
from ..sim.runner import run_simulation
from .figures import BENCH_SCALE, FigureSpec, Scale, get_figure
from .parallel import Workers, map_cells


@dataclass
class FigureResult:
    """The regenerated series of one figure.

    ``series[scheme][i]`` is the metric at ``xs[i]``; ``results`` keeps
    the full :class:`SimulationResult` per (scheme, x) for deeper checks.
    """

    spec: FigureSpec
    scale: Scale
    xs: List[float]
    series: Dict[str, List[float]] = field(default_factory=dict)
    results: Dict[str, List[SimulationResult]] = field(default_factory=dict)

    def metric_of(self, scheme: str, x: float) -> float:
        """The y value of *scheme* at sweep point *x*."""
        return self.series[scheme][self.xs.index(x)]

    def mean_of(self, scheme: str) -> float:
        """Mean of a scheme's series across the sweep."""
        values = self.series[scheme]
        return sum(values) / len(values)

    def stale_hits_of(self, scheme: str) -> float:
        """Total stale cache hits of *scheme* across the sweep."""
        return sum(r.stale_hits for r in self.results[scheme])

    def oracle_verdict_of(self, scheme: str) -> str:
        """Worst oracle verdict of *scheme* across the sweep (SAFE when
        every cell served zero stale reads and balanced its queries)."""
        worst = "SAFE"
        for r in self.results[scheme]:
            verdict = r.oracle_verdict
            if verdict != "SAFE":
                worst = verdict
        return worst


def _run_cell(cell: Tuple[str, str, float, Scale, int]) -> SimulationResult:
    """Run one (scheme, x) cell; module-level so it pickles."""
    figure_id, scheme, x, scale, seed = cell
    spec = get_figure(figure_id)
    return run_simulation(spec.params_for(x, scale, seed=seed), spec.workload, scheme)


def run_figure(
    spec: FigureSpec,
    scale: Scale = BENCH_SCALE,
    seed: int = 0,
    points: Optional[Sequence[float]] = None,
    schemes: Optional[Sequence[str]] = None,
    workers: Workers = 1,
) -> FigureResult:
    """Regenerate one figure: run every (scheme, x) cell.

    *points*/*schemes* restrict the sweep (useful for smoke tests); the
    defaults use the spec's full definition.  Cells run on *workers*
    processes (:func:`~repro.experiments.parallel.map_cells`), which
    rebuild the spec from ``spec.figure_id``.
    """
    xs = list(points if points is not None else spec.sweep_values)
    scheme_names = list(schemes if schemes is not None else spec.schemes)
    cells = [
        (spec.figure_id, scheme, x, scale, seed) for scheme in scheme_names for x in xs
    ]
    results = iter(map_cells(_run_cell, cells, workers))
    out = FigureResult(spec=spec, scale=scale, xs=xs)
    for scheme in scheme_names:
        per_scheme = [next(results) for _ in xs]
        out.series[scheme] = [float(getattr(r, spec.metric)) for r in per_scheme]
        out.results[scheme] = per_scheme
    return out
