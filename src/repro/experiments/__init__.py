"""Experiment harness: figure specs, sweeps, and text rendering."""

from .figures import (
    BENCH_SCALE,
    FIGURES,
    FULL_SCALE,
    FigureSpec,
    Scale,
    THROUGHPUT,
    UPLINK_COST,
    figure_ids,
    get_figure,
    scale_from_env,
)
from .io import (
    figure_result_to_dict,
    load_figure_result,
    save_figure_result,
)
from .plot import ascii_chart, chart_figure
from .sweep import FigureResult, run_figure
from .tables import DISPLAY_NAMES, format_figure, format_legend

__all__ = [
    "BENCH_SCALE",
    "DISPLAY_NAMES",
    "FIGURES",
    "FULL_SCALE",
    "FigureResult",
    "FigureSpec",
    "Scale",
    "THROUGHPUT",
    "UPLINK_COST",
    "ascii_chart",
    "chart_figure",
    "figure_ids",
    "figure_result_to_dict",
    "load_figure_result",
    "save_figure_result",
    "format_figure",
    "format_legend",
    "get_figure",
    "run_figure",
    "scale_from_env",
]
